"""Exhaustive small-n verification of the order/reachability theory, with
machine-checkable certificates.

Everything here works over isomorphism classes: reachability under
degree-rule branch moves is invariant under relabeling, so the state space
is the set of tree classes rather than labeled trees.  Certificates carry
either a concrete move trace (positive evidence) or the full closed
reachable set (negative evidence); :func:`check_certificate` re-verifies
either kind from scratch.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .errors import BoundExceeded, NotMajorized, TreeMajorError
from .realize import MoveTrace, apply_moves
from .sequences import (
    CONVEX_TEST_FAMILY,
    ComparisonResult,
    DeltaSequence,
    compare,
    convex_functional,
)
from .enumeration import delta_census, enumerate_trees, tree_from_prufer, trees_with_delta
from .trees import (
    CanonicalCode,
    Graph,
    Tree,
    canonical_code,
    chain,
    complete_graph,
    cycle_graph,
    delta_sequence,
    legal_moves,
    move_branch,
)

__all__ = [
    "REACHABILITY_MAX_NODES",
    "HASSE_MAX_NODES",
    "DEFAULT_SEED",
    "OrderReport",
    "ReachabilityCertificate",
    "check_total_order",
    "reachable_classes",
    "reachability_closure",
    "find_move_trace",
    "certify_reachability",
    "check_certificate",
    "closure_is_closed",
    "verify_majorization_reachability",
    "find_unreachable_pair",
    "verify_chain_minimality",
    "verify_convex_monotonicity",
    "covering_relations",
    "hasse_diagram",
    "random_connected_graph",
    "standard_graph_suite",
]

#: Reachability closures enumerate every tree class of the given size.
REACHABILITY_MAX_NODES = 10
HASSE_MAX_NODES = 12
DEFAULT_SEED = 1905


@dataclass(frozen=True)
class OrderReport:
    """Whether the degree-sequence census of size ``n`` is totally ordered;
    if not, ``witness`` is the first incomparable pair in census order."""

    n: int
    is_total: bool
    witness: tuple[DeltaSequence, DeltaSequence] | None

    def __post_init__(self):
        if self.is_total == (self.witness is not None):
            raise ValueError("is_total must hold exactly when no witness exists")


@dataclass(frozen=True)
class ReachabilityCertificate:
    """Evidence for or against reaching ``target_delta`` from ``source``.

    Exactly one of ``trace`` (a replayable move sequence ending in the
    target degree sequence) or ``closure`` (every class reachable from the
    source, closed under all degree-rule moves, none matching the target)
    is present.
    """

    source: Tree
    target_delta: DeltaSequence
    trace: MoveTrace | None
    closure: tuple[Tree, ...] | None

    def __post_init__(self):
        if (self.trace is None) == (self.closure is None):
            raise ValueError("exactly one of trace or closure must be present")


def check_total_order(n: int) -> OrderReport:
    """Scan all census pairs; report the first incomparable pair, if any.

    The census is in descending lexicographic order and pairs are scanned
    nested-loop, so the report is deterministic.
    """
    census = delta_census(n)
    for a_idx, a in enumerate(census):
        for b in census[a_idx + 1 :]:
            if compare(a, b) is ComparisonResult.INCOMPARABLE:
                return OrderReport(n=n, is_total=False, witness=(a, b))
    return OrderReport(n=n, is_total=True, witness=None)


@lru_cache(maxsize=None)
def _class_graph(n: int):
    """Single-move adjacency between tree classes of size ``n``.

    Returns (code -> representative tree, code -> frozenset of codes one
    degree-rule move away).  Move reachability is a class property, so one
    representative per class suffices.
    """
    reps = {canonical_code(t): t for t in enumerate_trees(n)}
    edges = {code: _successor_codes(t) for code, t in reps.items()}
    return reps, edges


def _successor_codes(t: Tree) -> frozenset[CanonicalCode]:
    """Codes of the classes one degree-rule move away from ``t``."""
    return frozenset(canonical_code(move_branch(t, *mv)) for mv in legal_moves(t))


def _strict_pairs(census: list[DeltaSequence]) -> list[tuple[DeltaSequence, DeltaSequence]]:
    """Census pairs (a, b) with a strictly below b, in nested census order."""
    return [
        (a, b)
        for a in census
        for b in census
        if compare(a, b) is ComparisonResult.STRICTLY_BELOW
    ]


def _closure_codes(edges: dict, start: CanonicalCode) -> frozenset[CanonicalCode]:
    seen = {start}
    stack = [start]
    while stack:
        code = stack.pop()
        for nxt in edges[code]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return frozenset(seen)


def _require_reachability_bound(n: int) -> None:
    if n > REACHABILITY_MAX_NODES:
        raise BoundExceeded(
            f"reachability closures support n <= {REACHABILITY_MAX_NODES}, got {n}"
        )


def reachable_classes(t: Tree) -> frozenset[CanonicalCode]:
    """Canonical codes of every class reachable from ``t`` (including its
    own) by any number of degree-rule branch moves."""
    _require_reachability_bound(t.n)
    _, edges = _class_graph(t.n)
    return _closure_codes(edges, canonical_code(t))


def reachability_closure(t: Tree) -> tuple[Tree, ...]:
    """Representative trees of :func:`reachable_classes`, sorted by code."""
    codes = reachable_classes(t)
    reps, _ = _class_graph(t.n)
    return tuple(reps[c] for c in sorted(codes))


def find_move_trace(t: Tree, target_delta: DeltaSequence) -> MoveTrace | None:
    """Shortest concrete move sequence from ``t`` to any tree whose degree
    sequence is ``target_delta``, or None if no class with that sequence is
    reachable.  Deterministic: breadth-first, moves in canonical order."""
    _require_reachability_bound(t.n)
    start_code = canonical_code(t)
    # parent pointers over concrete trees so the trace replays literally
    info: dict[CanonicalCode, tuple[Tree, CanonicalCode | None, tuple | None]] = {
        start_code: (t, None, None)
    }
    queue = deque([start_code])
    hit = start_code if delta_sequence(t) == target_delta else None
    while queue and hit is None:
        code = queue.popleft()
        tree = info[code][0]
        for mv in legal_moves(tree):
            nxt = move_branch(tree, *mv)
            nxt_code = canonical_code(nxt)
            if nxt_code in info:
                continue
            info[nxt_code] = (nxt, code, mv)
            if delta_sequence(nxt) == target_delta:
                hit = nxt_code
                break
            queue.append(nxt_code)
    if hit is None:
        return None
    moves = []
    code = hit
    while info[code][1] is not None:
        _, parent, mv = info[code]
        moves.append(mv)
        code = parent
    moves.reverse()
    return MoveTrace(initial=t, moves=tuple(moves), final=info[hit][0])


def certify_reachability(
    t: Tree, target_delta: DeltaSequence
) -> ReachabilityCertificate:
    """Positive (move trace) or negative (closed reachable set) certificate
    for reaching the degree sequence ``target_delta`` from ``t``."""
    trace = find_move_trace(t, target_delta)
    if trace is not None:
        return ReachabilityCertificate(
            source=t, target_delta=target_delta, trace=trace, closure=None
        )
    return ReachabilityCertificate(
        source=t,
        target_delta=target_delta,
        trace=None,
        closure=reachability_closure(t),
    )


def closure_is_closed(trees: tuple[Tree, ...]) -> bool:
    """True iff every degree-rule move from every member lands back in the
    set (up to isomorphism)."""
    codes = {canonical_code(t) for t in trees}
    return all(_successor_codes(t) <= codes for t in trees)


def check_certificate(cert: ReachabilityCertificate) -> bool:
    """Re-verify a certificate from scratch; True iff it genuinely proves
    its claim.  A trace that breaks the move rules is rejected; one whose
    labels are not ints raises TypeError."""
    if cert.trace is not None:
        trace = cert.trace
        if trace.initial != cert.source:
            return False
        try:
            cur = apply_moves(trace.initial, trace.moves)
        except (TreeMajorError, ValueError):
            return False
        return cur == trace.final and delta_sequence(cur) == cert.target_delta
    closure = cert.closure
    codes = {canonical_code(t) for t in closure}
    if canonical_code(cert.source) not in codes:
        return False
    if any(delta_sequence(t) == cert.target_delta for t in closure):
        return False
    return closure_is_closed(closure)


def verify_majorization_reachability(
    n: int,
) -> tuple[bool, list[ReachabilityCertificate]]:
    """Exhaustively check, over all tree classes on ``n`` nodes, that strict
    dominance between census sequences coincides with branch-move
    reachability.

    Forward direction: every single move strictly raises the degree
    sequence (violation would be a library defect and raises RuntimeError).
    Converse: for every census pair a < b and every class with sequence a,
    some reachable class has sequence b; each failure yields a closed-set
    certificate.  Returns (all_ok, certificates-for-failures).
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    _require_reachability_bound(n)
    reps, edges = _class_graph(n)
    delta_of = {code: delta_sequence(t) for code, t in reps.items()}
    for code, nbrs in edges.items():
        for nxt in nbrs:
            if compare(delta_of[code], delta_of[nxt]) is not ComparisonResult.STRICTLY_BELOW:
                raise RuntimeError(
                    f"degree-rule move did not raise the degree sequence: "
                    f"{delta_of[code]} -> {delta_of[nxt]}"
                )
    closures = {code: _closure_codes(edges, code) for code in edges}
    reachable_deltas = {
        code: {delta_of[c] for c in closure} for code, closure in closures.items()
    }
    failures: list[ReachabilityCertificate] = []
    for a, b in _strict_pairs(delta_census(n)):
        for code, d in delta_of.items():
            if d == a and b not in reachable_deltas[code]:
                failures.append(
                    ReachabilityCertificate(
                        source=reps[code],
                        target_delta=b,
                        trace=None,
                        closure=tuple(reps[c] for c in sorted(closures[code])),
                    )
                )
    return (not failures, failures)


def find_unreachable_pair(
    n: int, s: DeltaSequence, s_prime: DeltaSequence
) -> tuple[Tree, Tree] | None:
    """A pair (T, T') with degree sequences (s, s') such that T' is not
    reachable from T, or None when every target class is reachable from
    every source class.

    Requires s strictly below s'; equal sequences trivially yield None.
    Classes are scanned in canonical-code order, so the answer is
    deterministic.
    """
    rel = compare(s, s_prime)
    if rel is ComparisonResult.EQUAL:
        return None
    if rel is not ComparisonResult.STRICTLY_BELOW:
        raise NotMajorized(f"{s} is not strictly below {s_prime} ({rel})")
    _require_reachability_bound(n)
    targets = trees_with_delta(n, s_prime)
    for t in trees_with_delta(n, s):
        reach = reachable_classes(t)
        for t2 in targets:
            if canonical_code(t2) not in reach:
                return (t, t2)
    return None


def verify_chain_minimality(n: int, sample_graphs: list[Graph]) -> bool:
    """Check the chain's degree sequence sits strictly below every other
    tree-feasible sequence of size ``n`` and below the degree sequence of
    every sampled connected non-chain graph."""
    chain_delta = delta_sequence(chain(n))
    for s in delta_census(n):
        if s == chain_delta:
            continue
        if compare(chain_delta, s) is not ComparisonResult.STRICTLY_BELOW:
            return False
    for g in sample_graphs:
        if g.n != n:
            raise ValueError(f"sample graph has {g.n} nodes, expected {n}")
        if _is_path_graph(g):
            raise ValueError("sample graphs must not be chains")
        if compare(chain_delta, g.degree_sequence()) is not ComparisonResult.STRICTLY_BELOW:
            return False
    return True


def verify_convex_monotonicity(n: int) -> bool:
    """For every strictly ordered census pair and every function in the
    fixed convex family, the summed functional must not decrease."""
    return all(
        convex_functional(a, phi) <= convex_functional(b, phi)
        for a, b in _strict_pairs(delta_census(n))
        for _, phi in CONVEX_TEST_FAMILY
    )


def covering_relations(
    n: int,
) -> list[tuple[DeltaSequence, DeltaSequence]]:
    """Covering pairs (a, b) of the census order: a strictly below b with
    nothing strictly between."""
    if n > HASSE_MAX_NODES:
        raise BoundExceeded(f"order diagrams support n <= {HASSE_MAX_NODES}, got {n}")
    census = delta_census(n)
    pairs = _strict_pairs(census)
    below = set(pairs)
    covers = [
        (a, b)
        for a, b in pairs
        if not any((a, c) in below and (c, b) in below for c in census)
    ]
    covers.sort(key=lambda ab: (ab[0].values, ab[1].values))
    return covers


def hasse_diagram(n: int) -> str:
    """DOT digraph of the census order: one node per sequence, one edge per
    covering relation, smaller sequence pointing at the larger."""
    lines = [f"digraph census_order_{n} {{"]
    for s in delta_census(n):
        lines.append(f'  "{s}";')
    for a, b in covering_relations(n):
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines)


def _is_path_graph(g: Graph) -> bool:
    return len(g.edges) == g.n - 1 and all(g.degree(v) <= 2 for v in range(g.n))


def random_connected_graph(
    n: int, rng: random.Random, max_extra_edges: int = 3
) -> Graph:
    """A uniform random labeled tree (via a random Prufer sequence) plus a
    few random extra edges; resampled until it is not a path."""
    if n < 3:
        raise ValueError(f"no connected non-chain graph exists for n={n}")
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    while True:
        t = tree_from_prufer([rng.randrange(n) for _ in range(n - 2)])
        edges = set(t.edges)
        non_edges = [e for e in all_pairs if e not in edges]
        k = rng.randint(0, min(max_extra_edges, len(non_edges)))
        if k:
            edges.update(rng.sample(non_edges, k))
        g = Graph(n, edges)
        if not _is_path_graph(g):
            return g


def standard_graph_suite(
    n: int, count: int = 100, seed: int = DEFAULT_SEED
) -> list[Graph]:
    """Deterministic sample of ``count`` connected non-chain graphs: the
    cycle, the complete graph, then seeded random ones."""
    rng = random.Random(seed)
    suite: list[Graph] = [cycle_graph(n), complete_graph(n)]
    while len(suite) < count:
        suite.append(random_connected_graph(n, rng))
    return suite[:count]
