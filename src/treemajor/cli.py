"""Command-line surface: every capability behind one scriptable binary.

Exit codes: 0 success/pass, 2 parse or validation error, 3 incomparable
sequences, 4 not majorized, 5 verification failure.  All output is
deterministic; randomized suites take --seed.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .errors import NotMajorized, TreeMajorError
from .sequences import (
    ComparisonResult,
    DeltaSequence,
    compare,
    lorenz_curve,
    parse_sequence,
    prefix_sums,
)
from .transfers import format_plan, plan_to_dict, plan_transfers
from .trees import (
    format_tree,
    move_branch,
    parse_tree,
    tree_to_dict,
    tree_to_dot,
)
from .realize import (
    format_trace,
    realize_direct,
    realize_from_chain,
    trace_to_dict,
)
from .enumeration import delta_census, enumerate_trees
from .verify import (
    DEFAULT_SEED,
    check_total_order,
    covering_relations,
    hasse_diagram,
    standard_graph_suite,
    verify_chain_minimality,
    verify_convex_monotonicity,
    verify_majorization_reachability,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INCOMPARABLE = 3
EXIT_NOT_MAJORIZED = 4
EXIT_VERIFY_FAILED = 5


def _read_sequence(text: str) -> DeltaSequence:
    """Parse a sequence, noting on stderr when the input was unsorted."""
    seq = parse_sequence(text)
    tokens = [tok for tok in re.split(r"[,\s()]+", text.strip()) if tok]
    try:
        given = tuple(int(tok) for tok in tokens)
    except ValueError:
        given = None
    if given is not None and given != seq.values:
        print(f"note: sequence re-sorted to {seq}", file=sys.stderr)
    return seq


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_compare(args) -> int:
    x = _read_sequence(args.x)
    y = _read_sequence(args.y)
    result = compare(x, y)
    px, py = prefix_sums(x), prefix_sums(y)
    if args.format == "structured":
        _emit_json(
            {
                "x": list(x.values),
                "y": list(y.values),
                "prefix_x": list(px),
                "prefix_y": list(py),
                "result": str(result),
            }
        )
    else:
        print(f"x = {x}")
        print(f"y = {y}")
        print("prefix sums x:", " ".join(str(v) for v in px))
        print("prefix sums y:", " ".join(str(v) for v in py))
        print(f"result: {result}")
    if result is ComparisonResult.INCOMPARABLE:
        return EXIT_INCOMPARABLE
    return EXIT_OK


def _cmd_lorenz(args) -> int:
    s = _read_sequence(args.seq)
    curve = lorenz_curve(s, normalized=args.normalized)
    mode = "csv" if args.csv else args.format
    rows = [(k, str(x), str(y)) for k, (x, y) in enumerate(curve.points)]
    if mode == "structured":
        _emit_json(
            {
                "sequence": list(s.values),
                "normalized": curve.normalized,
                "points": [[x, y] for _, x, y in rows],
            }
        )
    elif mode == "csv":
        print("k,x,y")
        for k, x, y in rows:
            print(f"{k},{x},{y}")
    else:
        for k, x, y in rows:
            print(f"{k} {x} {y}")
    return EXIT_OK


def _cmd_plan(args) -> int:
    source = _read_sequence(args.source)
    target = _read_sequence(args.target)
    try:
        plan = plan_transfers(source, target)
    except NotMajorized as exc:
        print(f"not majorized: {exc}", file=sys.stderr)
        return EXIT_NOT_MAJORIZED
    if args.format == "structured":
        _emit_json(plan_to_dict(plan))
    else:
        text = format_plan(plan)
        if text:
            print(text)
        else:
            print("sequences are equal; nothing to do", file=sys.stderr)
    return EXIT_OK


def _cmd_realize(args) -> int:
    seq = _read_sequence(args.seq)
    mode = "dot" if args.dot else args.format
    if args.method == "chain":
        trace = realize_from_chain(seq)
        if mode == "structured":
            _emit_json({"method": "chain", "trace": trace_to_dict(trace)})
        elif mode == "dot":
            print(tree_to_dot(trace.final))
        else:
            print(format_trace(trace))
    else:
        tree = realize_direct(seq)
        if mode == "structured":
            _emit_json({"method": "direct", "tree": tree_to_dict(tree)})
        elif mode == "dot":
            print(tree_to_dot(tree))
        else:
            print(format_tree(tree))
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    if args.delta_only:
        census = delta_census(args.n)
        if args.format == "structured":
            _emit_json({"n": args.n, "census": [list(s.values) for s in census]})
        else:
            for s in census:
                print(s)
        return EXIT_OK
    classes = enumerate_trees(args.n)
    if args.format == "structured":
        _emit_json({"n": args.n, "classes": [tree_to_dict(t) for t in classes]})
    else:
        print("\n\n".join(format_tree(t) for t in classes))
    return EXIT_OK


def _cmd_verify(args) -> int:
    run_all = args.all or not (
        args.theorem or args.total_order or args.chain_minimal or args.convex
    )
    checks: list[dict] = []

    if args.total_order or run_all:
        report = check_total_order(args.n)
        expected_total = args.n <= 7
        detail = (
            "order is total"
            if report.is_total
            else f"witness: {report.witness[0]} | {report.witness[1]}"
        )
        checks.append(
            {
                "name": "total-order",
                "passed": report.is_total == expected_total,
                "detail": f"{detail}; expected "
                + ("total" if expected_total else "non-total")
                + f" at n={args.n}",
            }
        )
    if args.theorem or run_all:
        ok, certificates = verify_majorization_reachability(args.n)
        checks.append(
            {
                "name": "theorem",
                "passed": ok,
                "detail": "every dominating census target is reachable from "
                "every source class"
                if ok
                else f"{len(certificates)} unreachable (class, target) pairs",
            }
        )
    if args.chain_minimal or run_all:
        suite = standard_graph_suite(args.n, count=args.samples, seed=args.seed)
        ok = verify_chain_minimality(args.n, suite)
        checks.append(
            {
                "name": "chain-minimal",
                "passed": ok,
                "detail": f"census exhaustive + {len(suite)} sampled graphs "
                f"(seed {args.seed})",
            }
        )
    if args.convex or run_all:
        ok = verify_convex_monotonicity(args.n)
        checks.append(
            {
                "name": "convex",
                "passed": ok,
                "detail": "summed convex functionals monotone along the order",
            }
        )

    if args.format == "structured":
        _emit_json({"n": args.n, "checks": checks})
    else:
        for chk in checks:
            status = "PASS" if chk["passed"] else "FAIL"
            print(f"{chk['name']} n={args.n}: {status} ({chk['detail']})")
    return EXIT_OK if all(chk["passed"] for chk in checks) else EXIT_VERIFY_FAILED


def _cmd_move(args) -> int:
    tree = parse_tree(Path(args.tree_file).read_text())
    moved = move_branch(
        tree,
        args.donor,
        args.gateway,
        args.target,
        enforce_degree_rule=args.enforce_degree_rule,
    )
    if args.format == "structured":
        _emit_json(tree_to_dict(moved))
    elif args.format == "dot":
        print(tree_to_dot(moved))
    else:
        print(format_tree(moved))
    return EXIT_OK


def _cmd_hasse(args) -> int:
    if args.format == "structured":
        _emit_json(
            {
                "n": args.n,
                "nodes": [list(s.values) for s in delta_census(args.n)],
                "edges": [
                    [list(a.values), list(b.values)]
                    for a, b in covering_relations(args.n)
                ],
            }
        )
    else:
        print(hasse_diagram(args.n))
    return EXIT_OK


def _add_format(parser, choices, default="text") -> None:
    parser.add_argument(
        "--format",
        choices=choices,
        default=default,
        help=f"output mode (default: {default})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treemajor",
        description="Majorization order on tree degree sequences: compare, "
        "plan transfers, move branches, realize, enumerate, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compare", help="compare two sequences under dominance")
    p.add_argument("x")
    p.add_argument("y")
    _add_format(p, ["text", "structured"])
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("lorenz", help="emit the Lorenz curve of a sequence")
    p.add_argument("seq")
    p.add_argument("--normalized", action="store_true")
    p.add_argument("--csv", action="store_true", help="shorthand for --format csv")
    _add_format(p, ["text", "structured", "csv"])
    p.set_defaults(handler=_cmd_lorenz)

    p = sub.add_parser("plan", help="plan basic transfers source -> target")
    p.add_argument("source")
    p.add_argument("target")
    _add_format(p, ["text", "structured"])
    p.set_defaults(handler=_cmd_plan)

    p = sub.add_parser("realize", help="build a tree with a given sequence")
    p.add_argument("seq")
    p.add_argument("--method", choices=["chain", "direct"], default="chain")
    p.add_argument("--dot", action="store_true", help="shorthand for --format dot")
    _add_format(p, ["text", "structured", "dot"])
    p.set_defaults(handler=_cmd_realize)

    p = sub.add_parser("enumerate", help="all tree classes on n nodes")
    p.add_argument("n", type=int)
    p.add_argument("--delta-only", action="store_true", help="census lines only")
    _add_format(p, ["text", "structured"])
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("verify", help="run exhaustive desk-scale checks")
    p.add_argument("n", type=int)
    p.add_argument("--theorem", action="store_true")
    p.add_argument("--total-order", action="store_true")
    p.add_argument("--chain-minimal", action="store_true")
    p.add_argument("--convex", action="store_true")
    p.add_argument("--all", action="store_true")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--samples", type=int, default=100)
    _add_format(p, ["text", "structured"])
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("move", help="apply one branch move to a tree file")
    p.add_argument("tree_file")
    p.add_argument("donor", type=int)
    p.add_argument("gateway", type=int)
    p.add_argument("target", type=int)
    p.add_argument("--enforce-degree-rule", action="store_true")
    _add_format(p, ["text", "structured", "dot"])
    p.set_defaults(handler=_cmd_move)

    p = sub.add_parser("hasse", help="covering relations of the census order")
    p.add_argument("n", type=int)
    _add_format(p, ["dot", "structured"], default="dot")
    p.set_defaults(handler=_cmd_hasse)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except NotMajorized as exc:
        print(f"not majorized: {exc}", file=sys.stderr)
        return EXIT_NOT_MAJORIZED
    except (TreeMajorError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
