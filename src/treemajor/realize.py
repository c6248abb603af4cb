"""Constructive realization of feasible degree sequences as trees.

Two independent routes are provided on purpose: replaying a transfer plan
as branch moves starting from the chain, and a direct caterpillar
construction.  Each checks the other in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from .errors import dict_fields, list_of
from .sequences import DeltaSequence, require_delta_sequence, validate_tree_sequence
from .transfers import TransferPlan, plan_transfers
from .trees import (
    Tree,
    chain,
    delta_sequence,
    format_tree,
    freeze,
    move_edge,
    neighbor_toward,
    tree_from_dict,
    tree_to_dict,
)

__all__ = [
    "MoveTrace",
    "realize_from_chain",
    "realize_direct",
    "replay_plan_on_tree",
    "format_trace",
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


def realize_from_chain(target: DeltaSequence) -> MoveTrace:
    """Build a tree with degree sequence ``target`` by branch moves on the
    chain.

    The chain's degree sequence is dominated by every feasible sequence, so
    a transfer plan always exists; each planned transfer is realized by one
    degree-rule branch move.  Raises TypeError unless ``target`` is a
    DeltaSequence and NotTreeFeasible for infeasible targets.
    """
    require_delta_sequence(target)
    seq = validate_tree_sequence(target)
    start = chain(seq.n)
    plan = plan_transfers(delta_sequence(start), seq)
    return replay_plan_on_tree(start, plan)


def realize_direct(target: DeltaSequence) -> Tree:
    """Caterpillar realization of ``target``.

    All values >= 2 form a spine path 0..k-1 in non-increasing order;
    leaves, labelled k, k+1, ... in spine order, are attached to spine
    nodes until each reaches its prescribed degree.  The neighbour lists
    ascend as built (spine node i holds i-1, then i+1, then its leaves), so
    the caterpillar is frozen, not re-validated.  Raises TypeError unless
    ``target`` is a DeltaSequence and NotTreeFeasible for infeasible targets.
    """
    require_delta_sequence(target)
    seq = validate_tree_sequence(target)
    spine = [v for v in seq.values if v >= 2]
    k = len(spine)
    if k == 0:
        # no inner values: the only feasible case is the 2-node tree (1,1)
        return freeze([[1], [0]])
    nbrs = [[i - 1, i + 1] for i in range(k)]
    # the spine's ends lose their outside neighbours -1 and k (a one-node
    # spine loses both)
    del nbrs[0][0], nbrs[-1][-1]
    for i, deg in enumerate(spine):
        leaves = range(len(nbrs), len(nbrs) + deg - len(nbrs[i]))
        nbrs[i] += leaves
        nbrs += [(i,)] * len(leaves)
    return freeze(nbrs)


def replay_plan_on_tree(t: Tree, plan: TransferPlan) -> MoveTrace:
    """Realize a transfer plan as concrete branch moves on ``t``.

    For each step the receiver node is the smallest label whose degree
    equals the value at the step's receiver rank, the donor node is the
    smallest distinct label carrying the donor rank's value, and the moved
    branch is the donor's smallest-gateway branch not containing the
    receiver.  Every move satisfies the degree rule, so the degree sequence
    after each move is the plan's next sequence.

    The step values come from :meth:`TransferPlan.values_per_step`: a plan
    from :func:`plan_transfers` gives the values its planning walk recorded,
    so the plan is walked once; any other plan is checked step by step, and
    one that :func:`replay` rejects raises InvalidPlan here too.  A tree
    whose degrees are not the plan's source raises ValueError.  The
    moves run on a working adjacency (neighbour sets, degree -> heap of
    labels) with :func:`move_branch`'s search and edge swap.  The search
    starts at the donor, grows all its branches level by level and stops at
    the receiver, so a step costs about the nodes nearer the donor than the
    receiver, and O(1) when they are neighbours.  One ``Tree`` is frozen at
    the end, not re-validated.
    """
    source = delta_sequence(t)
    if source != plan.source:
        raise ValueError(
            f"tree degrees {source} do not match plan source {plan.source}"
        )
    nbrs = [set(t.neighbors(v)) for v in range(t.n)]
    by_degree: dict[int, list[int]] = {}
    for v, ws in enumerate(nbrs):
        by_degree.setdefault(len(ws), []).append(v)
    moves: list[tuple[int, int, int]] = []
    for receiver_value, donor_value in plan.values_per_step():
        # the ranks differ, so two nodes hold the value when both ranks share it
        receiver = heappop(by_degree[receiver_value])
        donor = heappop(by_degree[donor_value])
        # The donor's neighbour on its path to the receiver heads the one
        # branch that holds the receiver; the smallest other neighbour is
        # the gateway of the branch that moves.
        gateway = min(nbrs[donor] - {neighbor_toward(nbrs, donor, receiver)})
        move_edge(nbrs, donor, gateway, receiver)
        heappush(by_degree.setdefault(receiver_value + 1, []), receiver)
        heappush(by_degree.setdefault(donor_value - 1, []), donor)
        moves.append((donor, gateway, receiver))
    final = freeze([sorted(ws) for ws in nbrs])
    return MoveTrace(initial=t, moves=tuple(moves), final=final)


def format_trace(trace: MoveTrace) -> str:
    """Initial tree block, one ``donor gateway target`` line per move, final
    tree block."""
    parts = [format_tree(trace.initial)]
    parts.extend(f"{d} {g} {r}" for d, g, r in trace.moves)
    parts.append(format_tree(trace.final))
    return "\n".join(parts)


def trace_to_dict(trace: MoveTrace) -> dict:
    return {
        "initial": tree_to_dict(trace.initial),
        "moves": [[d, g, r] for d, g, r in trace.moves],
        "final": tree_to_dict(trace.final),
    }


def trace_from_dict(data: dict) -> MoveTrace:
    initial, raw_moves, final = dict_fields(data, "trace", "initial", "moves", "final")
    moves = tuple(map(tuple, list_of(raw_moves, "trace moves", 3)))
    if any(type(label) is not int for mv in moves for label in mv):
        raise TypeError(f"move labels must be ints, got {moves!r}")
    return MoveTrace(initial=tree_from_dict(initial), moves=moves, final=tree_from_dict(final))
