"""Constructive realization of feasible degree sequences as trees.

Two independent routes are provided on purpose: replaying a transfer plan
as branch moves starting from the chain, and a direct caterpillar
construction.  Each checks the other in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidPlan, NotTreeFeasible, ParseError
from .sequences import DeltaSequence, validate_tree_sequence
from .transfers import TransferPlan, plan_transfers
from .trees import (
    Tree,
    branches_at,
    chain,
    delta_sequence,
    format_tree,
    move_branch,
    parse_tree,
    tree_from_dict,
    tree_to_dict,
)

__all__ = [
    "MoveTrace",
    "apply_moves",
    "realize_from_chain",
    "realize_direct",
    "replay_plan_on_tree",
    "format_trace",
    "parse_trace",
    "trace_to_dict",
    "trace_from_dict",
]


@dataclass(frozen=True)
class MoveTrace:
    """An audited run of branch moves: applying ``moves`` (donor, gateway,
    target) in order to ``initial`` yields ``final``, and every move obeys
    the degree rule at the moment it is applied."""

    initial: Tree
    moves: tuple[tuple[int, int, int], ...]
    final: Tree

    def __len__(self) -> int:
        return len(self.moves)


def apply_moves(t: Tree, moves) -> Tree:
    """Apply (donor, gateway, target) triples in order under the degree rule."""
    cur = t
    for donor, gateway, target in moves:
        cur = move_branch(cur, donor, gateway, target)
    return cur


def realize_from_chain(target: DeltaSequence) -> MoveTrace:
    """Build a tree with degree sequence ``target`` by branch moves on the
    chain.

    The chain's degree sequence is dominated by every feasible sequence, so
    a transfer plan always exists; each planned transfer is realized by one
    degree-rule branch move.  Raises NotTreeFeasible for infeasible targets.
    """
    seq = validate_tree_sequence(target.values)
    start = chain(seq.n)
    plan = plan_transfers(delta_sequence(start), seq)
    return replay_plan_on_tree(start, plan)


def realize_direct(target: DeltaSequence) -> Tree:
    """Caterpillar realization of ``target``.

    All values >= 2 form a spine path in non-increasing order; leaves are
    attached to spine nodes until each reaches its prescribed degree.
    Raises NotTreeFeasible for infeasible targets.
    """
    seq = validate_tree_sequence(target.values)
    spine = [v for v in seq.values if v >= 2]
    k = len(spine)
    if k == 0:
        # no inner values: the only feasible case is the 2-node tree (1,1)
        return Tree(2, [(0, 1)])
    edges = [(i, i + 1) for i in range(k - 1)]
    next_leaf = k
    for i, deg in enumerate(spine):
        inner = 0 if k == 1 else (1 if i in (0, k - 1) else 2)
        for _ in range(deg - inner):
            edges.append((i, next_leaf))
            next_leaf += 1
    if next_leaf != seq.n:
        raise NotTreeFeasible(
            f"leaf bookkeeping used {next_leaf} nodes for n={seq.n}"
        )
    return Tree(seq.n, edges)


def _pick_node(t: Tree, degree: int, exclude: int | None = None) -> int:
    for v in range(t.n):
        if v != exclude and t.degree(v) == degree:
            return v
    raise InvalidPlan(f"no node of degree {degree} available")


def replay_plan_on_tree(t: Tree, plan: TransferPlan) -> MoveTrace:
    """Realize a transfer plan as concrete branch moves on ``t``.

    For each step the receiver node is the smallest label whose degree
    equals the value at the step's receiver rank, the donor node is the
    smallest distinct label carrying the donor rank's value, and the moved
    branch is the donor's smallest-gateway branch not containing the
    receiver.  Every move satisfies the degree rule, so the degree sequence
    after each move equals the step's recorded ``after``.
    """
    if delta_sequence(t) != plan.source:
        raise ValueError(
            f"tree degrees {delta_sequence(t)} do not match plan source {plan.source}"
        )
    moves: list[tuple[int, int, int]] = []
    cur = t
    for step in plan.steps:
        receiver_value = step.before[step.receiver_rank - 1]
        donor_value = step.before[step.donor_rank - 1]
        receiver = _pick_node(cur, receiver_value)
        donor = _pick_node(cur, donor_value, exclude=receiver)
        branch = next(
            b for b in branches_at(cur, donor) if receiver not in b.members
        )
        cur = move_branch(cur, donor, branch.gateway, receiver)
        moves.append((donor, branch.gateway, receiver))
        if delta_sequence(cur) != step.after:
            raise InvalidPlan(
                f"move left degrees {delta_sequence(cur)}, expected {step.after}"
            )
    return MoveTrace(initial=t, moves=tuple(moves), final=cur)


def format_trace(trace: MoveTrace) -> str:
    """Initial tree block, one ``donor gateway target`` line per move, final
    tree block."""
    parts = [format_tree(trace.initial)]
    parts.extend(f"{d} {g} {r}" for d, g, r in trace.moves)
    parts.append(format_tree(trace.final))
    return "\n".join(parts)


def parse_trace(text: str) -> MoveTrace:
    """Inverse of :func:`format_trace`.

    Tree blocks are self-delimiting (node count line, then n-1 edge lines);
    move lines carry three labels, so the single-integer line that starts
    the final block is unambiguous.
    """
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty trace text")

    def read_tree(pos: int) -> tuple[Tree, int]:
        try:
            n = int(lines[pos])
        except (ValueError, IndexError):
            raise ParseError(f"expected a node count at line {pos + 1}") from None
        block = lines[pos : pos + n]  # count line plus n-1 edges
        return parse_tree("\n".join(block)), pos + n

    initial, pos = read_tree(0)
    moves = []
    while pos < len(lines) and len(lines[pos].split()) == 3:
        a, b, c = lines[pos].split()
        try:
            moves.append((int(a), int(b), int(c)))
        except ValueError:
            raise ParseError(f"bad move line {lines[pos]!r}") from None
        pos += 1
    final, pos = read_tree(pos)
    if pos != len(lines):
        raise ParseError("trailing lines after the final tree block")
    return MoveTrace(initial=initial, moves=tuple(moves), final=final)


def trace_to_dict(trace: MoveTrace) -> dict:
    return {
        "initial": tree_to_dict(trace.initial),
        "moves": [[d, g, r] for d, g, r in trace.moves],
        "final": tree_to_dict(trace.final),
    }


def trace_from_dict(data: dict) -> MoveTrace:
    moves = tuple((d, g, r) for d, g, r in data["moves"])
    if any(type(label) is not int for mv in moves for label in mv):
        raise TypeError(f"move labels must be ints, got {moves!r}")
    return MoveTrace(
        initial=tree_from_dict(data["initial"]),
        moves=moves,
        final=tree_from_dict(data["final"]),
    )
