"""End-to-end CLI behavior: output shapes, exit codes, round trips."""

import json

from treemajor import (
    DeltaSequence,
    parse_sequence,
    parse_tree,
    plan_from_dict,
    replay,
    trace_from_dict,
    tree_from_dict,
    delta_sequence,
    apply_moves,
)
from treemajor import cli
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
        code, out, _ = run(capsys, "realize", "5,2,2,1,1,1,1,1")
        assert code == 0
        from treemajor import parse_trace

        trace = parse_trace(out)
        assert delta_sequence(trace.final).values == (5, 2, 2, 1, 1, 1, 1, 1)
        assert apply_moves(trace.initial, trace.moves) == trace.final

    def test_direct_method(self, capsys):
        code, out, _ = run(capsys, "realize", "4,4,1,1,1,1,1,1", "--method", "direct")
        tree = parse_tree(out)
        assert delta_sequence(tree).values == (4, 4, 1, 1, 1, 1, 1, 1)

    def test_dot_output(self, capsys):
        _, out, _ = run(capsys, "realize", "3,1,1,1", "--method", "direct", "--dot")
        assert out.startswith("graph tree {")

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

    def test_failed_check_exit_five(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "verify_convex_monotonicity", lambda n: False)
        code, out, _ = run(capsys, "verify", "5", "--convex")
        assert code == 5
        assert "convex n=5: FAIL" in out

    def test_structured(self, capsys):
        _, out, _ = run(
            capsys, "verify", "5", "--convex", "--format", "structured"
        )
        data = json.loads(out)
        assert data["checks"][0]["name"] == "convex"
        assert data["checks"][0]["passed"] is True


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
