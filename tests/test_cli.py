"""End-to-end CLI behavior: output shapes, exit codes, round trips."""

import json

import pytest

from treemajor import (
    CENSUS_MAX_NODES,
    DeltaSequence,
    parse_sequence,
    parse_tree,
    plan_from_dict,
    format_trace,
    replay,
    trace_from_dict,
    tree_from_dict,
    delta_sequence,
    apply_moves,
    canonical_code,
    star,
)
from treemajor import cli, enumeration, verify
from treemajor.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompare:
    def test_incomparable_exit_three(self, capsys):
        code, out, _ = run(
            capsys, "compare", "5,2,2,1,1,1,1,1", "4,4,1,1,1,1,1,1"
        )
        assert code == 3
        assert "result: Incomparable" in out
        assert "prefix sums x: 5 7 9 10 11 12 13 14" in out
        assert "prefix sums y: 4 8 9 10 11 12 13 14" in out

    def test_equal_exit_zero(self, capsys):
        code, out, _ = run(capsys, "compare", "1,1", "1,1")
        assert code == 0 and "result: Equal" in out

    def test_below(self, capsys):
        code, out, _ = run(
            capsys, "compare", "2,2,2,2,2,2,1,1", "5,2,2,1,1,1,1,1"
        )
        assert code == 0 and "result: StrictlyBelow" in out

    def test_unsorted_input_notice(self, capsys):
        code, _, err = run(capsys, "compare", "1,2,1,2", "2,2,1,1")
        assert code == 0
        assert "re-sorted" in err

    def test_sorted_input_no_notice(self, capsys):
        code, _, err = run(capsys, "compare", "(2, 2, 1, 1)", "2,2,1,1")
        assert code == 0
        assert err == ""

    def test_bad_input_exit_two(self, capsys):
        code, _, err = run(capsys, "compare", "1,x", "1,1")
        assert code == 2 and "error" in err

    def test_nonpositive_exit_two(self, capsys):
        code, _, _ = run(capsys, "compare", "1,0", "1,1")
        assert code == 2

    def test_structured(self, capsys):
        code, out, _ = run(
            capsys, "compare", "2,2,1,1", "3,1,1,1", "--format", "structured"
        )
        data = json.loads(out)
        assert data["result"] == "StrictlyBelow"
        assert data["prefix_x"] == [2, 4, 5, 6]


class TestLorenz:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "lorenz", "3,1", "--normalized", "--csv")
        lines = out.strip().splitlines()
        assert lines[0] == "k,x,y"
        assert lines[1] == "0,0,0"
        assert lines[2] == "1,1/2,3/4"
        assert lines[3] == "2,1,1"

    def test_text_point_count(self, capsys):
        code, out, _ = run(capsys, "lorenz", "5,2,2,1,1,1,1,1")
        assert code == 0
        assert len(out.strip().splitlines()) == 9  # n+1 points

    def test_non_normalized_endpoint(self, capsys):
        _, out, _ = run(capsys, "lorenz", "5,2,2,1,1,1,1,1")
        assert out.strip().splitlines()[-1] == "8 8 14"

    def test_csv_with_format_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lorenz", "1,1", "--csv", "--format", "structured"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_structured_round_trip(self, capsys):
        _, out, _ = run(
            capsys, "lorenz", "3,1", "--normalized", "--format", "structured"
        )
        data = json.loads(out)
        assert data["points"][1] == ["1/2", "3/4"]
        assert parse_sequence(",".join(map(str, data["sequence"]))).values == (3, 1)


class TestPlan:
    def test_golden_three_step(self, capsys):
        code, out, _ = run(
            capsys, "plan", "2,2,2,2,2,2,1,1", "5,2,2,1,1,1,1,1"
        )
        assert code == 0
        assert out.splitlines() == [
            "1 4 | 2,2,2,2,2,2,1,1 -> 3,2,2,2,2,1,1,1",
            "1 4 | 3,2,2,2,2,1,1,1 -> 4,2,2,2,1,1,1,1",
            "1 4 | 4,2,2,2,1,1,1,1 -> 5,2,2,1,1,1,1,1",
        ]

    def test_equal_inputs_empty(self, capsys):
        code, out, err = run(capsys, "plan", "2,1,1", "2,1,1")
        assert code == 0 and out == "" and "nothing to do" in err

    def test_not_majorized_exit_four(self, capsys):
        code, _, err = run(
            capsys, "plan", "5,2,2,1,1,1,1,1", "4,4,1,1,1,1,1,1"
        )
        assert code == 4 and "not majorized" in err

    def test_structured_replays(self, capsys):
        _, out, _ = run(
            capsys,
            "plan",
            "3,3,3,1,1,1,1,1",
            "5,3,1,1,1,1,1,1",
            "--format",
            "structured",
        )
        plan = plan_from_dict(json.loads(out))
        assert replay(plan).values == (5, 3, 1, 1, 1, 1, 1, 1)


class TestRealize:
    def test_chain_method_trace_parses(self, capsys):
        code, out, _ = run(capsys, "realize", "5,2,2,1,1,1,1,1", "--format", "structured")
        assert code == 0
        trace = trace_from_dict(json.loads(out)["trace"])
        assert delta_sequence(trace.final).values == (5, 2, 2, 1, 1, 1, 1, 1)
        assert apply_moves(trace.initial, trace.moves) == trace.final
        code, out, _ = run(capsys, "realize", "5,2,2,1,1,1,1,1")
        assert code == 0 and out == format_trace(trace) + "\n"

    def test_direct_method(self, capsys):
        code, out, _ = run(capsys, "realize", "4,4,1,1,1,1,1,1", "--method", "direct")
        tree = parse_tree(out)
        assert delta_sequence(tree).values == (4, 4, 1, 1, 1, 1, 1, 1)

    def test_dot_output(self, capsys):
        _, out, _ = run(capsys, "realize", "3,1,1,1", "--method", "direct", "--dot")
        assert out.startswith("graph tree {")

    def test_dot_with_format_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["realize", "1,1", "--dot", "--format", "structured"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_infeasible_exit_two(self, capsys):
        code, _, err = run(capsys, "realize", "3,1")
        assert code == 2 and "error" in err

    def test_structured(self, capsys):
        _, out, _ = run(
            capsys, "realize", "3,2,1,1,1", "--format", "structured"
        )
        data = json.loads(out)
        trace = trace_from_dict(data["trace"])
        assert delta_sequence(trace.final).values == (3, 2, 1, 1, 1)


class TestEnumerate:
    def test_two_blocks_at_four(self, capsys):
        code, out, _ = run(capsys, "enumerate", "4")
        blocks = out.strip().split("\n\n")
        assert len(blocks) == 2
        trees = [parse_tree(b) for b in blocks]
        assert {delta_sequence(t).values for t in trees} == {
            (2, 2, 1, 1),
            (3, 1, 1, 1),
        }

    def test_delta_only(self, capsys):
        code, out, _ = run(capsys, "enumerate", "4", "--delta-only")
        assert out.strip().splitlines() == ["3,1,1,1", "2,2,1,1"]

    def test_structured(self, capsys):
        _, out, _ = run(capsys, "enumerate", "5", "--format", "structured")
        data = json.loads(out)
        assert len(data["classes"]) == 3
        trees = [tree_from_dict(d) for d in data["classes"]]
        assert all(t.n == 5 for t in trees)

    def test_bound_exit_two(self, capsys):
        code, _, _ = run(capsys, "enumerate", "40")
        assert code == 2


class TestVerify:
    def test_total_order_seven(self, capsys):
        code, out, _ = run(capsys, "verify", "7", "--total-order")
        assert code == 0 and "order is total" in out and "PASS" in out

    def test_total_order_eight_prints_witness(self, capsys):
        code, out, _ = run(capsys, "verify", "8", "--total-order")
        assert code == 0
        assert "witness: 5,2,2,1,1,1,1,1 | 4,4,1,1,1,1,1,1" in out

    def test_theorem_eight(self, capsys):
        code, out, _ = run(capsys, "verify", "8", "--theorem")
        assert code == 0 and "theorem n=8: PASS" in out

    def test_all_small(self, capsys):
        code, out, _ = run(
            capsys, "verify", "6", "--all", "--samples", "10", "--seed", "3"
        )
        assert code == 0
        assert out.count("PASS") == 4

    def test_negative_samples_exit_two(self, capsys):
        code, out, err = run(capsys, "verify", "8", "--chain-minimal", "--samples", "-5")
        assert code == 2 and out == "" and "sample count" in err

    def test_zero_samples(self, capsys):
        code, out, _ = run(capsys, "verify", "6", "--chain-minimal", "--samples", "0")
        assert code == 0 and "census exhaustive + 0 sampled graphs" in out

    def test_theorem_at_reachability_bound(self, capsys):
        code, out, _ = run(capsys, "verify", "12", "--theorem")
        assert code == 0 and "theorem n=12: PASS" in out

    def test_theorem_bound_exit_two(self, capsys):
        code, out, err = run(capsys, "verify", "13", "--theorem")
        assert code == 2 and out == "" and "reachability search supports n <= 12, got 13" in err

    def test_two_nodes_all_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "2", "--all")
        assert code == 0 and out.count("PASS") == 4
        assert "census exhaustive + 0 sampled graphs" in out

    def test_failed_check_exit_five(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "verify_convex_monotonicity", lambda n: False)
        code, out, _ = run(capsys, "verify", "5", "--convex")
        assert code == 5
        assert "convex n=5: FAIL" in out

    def test_theorem_failure_exit_five(self, capsys, monkeypatch):
        # drop the 5,2,1,... class's one move to the star, its one cover
        hub = DeltaSequence([5, 2, 1, 1, 1, 1, 1])
        star_code = canonical_code(star(7))
        real = verify.successor_codes

        def cut(t):
            codes = real(t)
            return codes - {star_code} if delta_sequence(t) == hub else codes

        monkeypatch.setattr(verify, "successor_codes", cut)
        verify._classes.cache_clear()  # the memo of n=7 is cached
        try:
            code, out, _ = run(capsys, "verify", "7", "--theorem")
            code_s, out_s, _ = run(capsys, "verify", "7", "--theorem", "--format", "structured")
        finally:
            verify._classes.cache_clear()
        detail = "1 unreachable (class, cover) pairs"
        assert code == code_s == 5
        assert out == f"theorem n=7: FAIL ({detail})\n"
        assert json.loads(out_s)["checks"] == [
            {"name": "theorem", "passed": False, "detail": detail}
        ]

    def test_structured(self, capsys):
        _, out, _ = run(
            capsys, "verify", "5", "--convex", "--format", "structured"
        )
        data = json.loads(out)
        assert data["checks"][0]["name"] == "convex"
        assert data["checks"][0]["passed"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["hasse"],
        ["enumerate", "--delta-only"],
        ["verify", "--convex"],
        ["verify", "--total-order"],
        ["verify", "--chain-minimal"],
    ],
)
def test_census_bound_exit_two(capsys, monkeypatch, argv):
    # the bound fires before the census is generated or a graph sampled
    def not_reached(*args):
        raise AssertionError("reached")

    monkeypatch.setattr(enumeration, "_partitions_desc", not_reached)
    monkeypatch.setattr(verify, "random_connected_graph", not_reached)
    code, out, err = run(capsys, argv[0], str(CENSUS_MAX_NODES + 1), *argv[1:])
    bound = f"the census supports n <= {CENSUS_MAX_NODES}, got {CENSUS_MAX_NODES + 1}"
    assert code == 2 and out == "" and bound in err


class TestMove:
    def test_basic_move(self, capsys, tmp_path):
        tree_file = tmp_path / "tree.txt"
        tree_file.write_text("4\n0 1\n1 2\n2 3\n")
        code, out, _ = run(capsys, "move", str(tree_file), "2", "3", "1")
        assert code == 0
        moved = parse_tree(out)
        assert delta_sequence(moved).values == (3, 1, 1, 1)

    def test_degree_rule_exit_two(self, capsys, tmp_path):
        tree_file = tmp_path / "tree.txt"
        tree_file.write_text("4\n0 1\n1 2\n2 3\n")
        code, _, err = run(
            capsys,
            "move",
            str(tree_file),
            "1",
            "0",
            "3",
            "--enforce-degree-rule",
        )
        assert code == 2 and "error" in err

    def test_missing_file_exit_two(self, capsys, tmp_path):
        code, _, _ = run(capsys, "move", str(tmp_path / "nope.txt"), "0", "1", "2")
        assert code == 2

    def test_dot(self, capsys, tmp_path):
        tree_file = tmp_path / "tree.txt"
        tree_file.write_text("3\n0 1\n1 2\n")
        code, out, _ = run(
            capsys, "move", str(tree_file), "1", "2", "0", "--format", "dot"
        )
        assert code == 0 and out.startswith("graph tree {")


class TestHasse:
    def test_dot_default(self, capsys):
        code, out, _ = run(capsys, "hasse", "4")
        assert code == 0
        assert '"2,2,1,1" -> "3,1,1,1";' in out

    def test_structured(self, capsys):
        _, out, _ = run(capsys, "hasse", "4", "--format", "structured")
        data = json.loads(out)
        assert data["edges"] == [[[2, 2, 1, 1], [3, 1, 1, 1]]]
        assert [DeltaSequence(v) for v in data["nodes"]] == [
            DeltaSequence([3, 1, 1, 1]),
            DeltaSequence([2, 2, 1, 1]),
        ]


def test_main_builds_its_parser_once(capsys, monkeypatch):
    original = cli.build_parser
    builds = []

    def counted():
        builds.append(None)
        return original()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        outs = [
            run(capsys, *argv)
            for argv in (
                ["realize", "2,2,1,1", "--dot"],
                ["realize", "2,2,1,1"],
                ["realize", "2,2,1,1", "--dot"],
            )
        ]
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1
    # one call's options leave nothing behind for the next
    assert outs[0] == outs[2] != outs[1]
    assert outs[0][1].startswith("graph") and not outs[1][1].startswith("graph")
    assert original() is not original()
