"""Exhaustive small-n verification of the order/reachability theory, with
machine-checkable certificates.

Everything here works over isomorphism classes: reachability under
degree-rule branch moves is invariant under relabeling, so the state space
is the set of tree classes.  The reachability memo of each size maps each
class's canonical code to one representative tree; the class's degree
sequence and its successors, the set of codes one move from that tree, are
cached on the tree.  The memo is a plain cache: only
the theorem pass checks that each move raises the degree sequence, and
closure walks trust the moves.  The move-trace search needs no classes: a
tree's successor degree sequences follow from its own, so it searches
over sorted degree sequences, codes nothing and never reads the memo; it
expands a tree by one move per (donor degree, target degree) pair, read
directly from the tree, never by listing all its moves.
Certificates carry either a concrete move trace (positive evidence) or
the full closed reachable set (negative evidence); :func:`check_certificate`
re-verifies either kind from the trees it holds, never from the memo.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .errors import NotMajorized, TreeMajorError, require_bound, require_int, require_node_count
from .realize import MoveTrace
from .transfers import transfer_in_place
from .sequences import (
    CONVEX_TEST_FAMILY,
    ComparisonResult,
    DeltaSequence,
    compare,
    convex_functional,
    require_delta_sequence,
    require_tree_sequence,
)
from .enumeration import delta_census, enumerate_trees, tree_from_prufer
from .trees import (
    CanonicalCode,
    Graph,
    Tree,
    apply_moves,
    canonical_code,
    chain,
    complete_graph,
    cycle_graph,
    delta_sequence,
    freeze,
    move_branch,
    pair_moves,
    require_tree,
    successor_codes,
)

__all__ = [
    "REACHABILITY_MAX_NODES",
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

#: A reachability walk codes every tree class of its size at worst (the
#: chain reaches them all).  The budget is under 1 s for every reachability
#: operation at the bound on a 2-vCPU machine: at n=12 the cold theorem pass,
#: forward check included, took 0.20-0.28 s, and the largest negative
#: certificate (a 525-class closure) 0.22-0.28 s to build cold and
#: 0.003-0.005 s to check (0.19-0.25 s with fresh copies of its members); at
#: n=13 the theorem pass took 0.51-0.87 s, too close to the budget.  The
#: move-trace search codes no class, and keeps the bound only so that what
#: raises BoundExceeded does not change: with it lifted, 30 searches from
#: uniform Prufer trees to their middle strictly dominating census target
#: took 3.3-4.1 ms in all at n=12, 21-24 ms at n=16 and 87-97 ms at n=20.
REACHABILITY_MAX_NODES = 12
DEFAULT_SEED = 1905
#: At most this many random extra edges join each sampled graph's tree.
_MAX_EXTRA_EDGES = 3


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
    is present.  Raises TypeError unless ``source`` is a Tree and
    ``target_delta`` a DeltaSequence, then ValueError unless exactly one is
    present, then TypeError unless it is a MoveTrace or a tuple of Trees.
    """

    source: Tree
    target_delta: DeltaSequence
    trace: MoveTrace | None
    closure: tuple[Tree, ...] | None

    def __post_init__(self):
        require_tree(self.source, "source")
        require_delta_sequence(self.target_delta)
        if (self.trace is None) == (self.closure is None):
            raise ValueError("exactly one of trace or closure must be present")
        if self.trace is not None and not isinstance(self.trace, MoveTrace):
            raise TypeError(f"trace must be a MoveTrace, got {self.trace!r}")
        if self.closure is not None and not isinstance(self.closure, tuple):
            raise TypeError(f"closure must be a tuple of Trees, got {self.closure!r}")
        for t in self.closure or ():
            require_tree(t, "closure member")


def check_total_order(n: int) -> OrderReport:
    """Report the first incomparable census pair (a, b), a before b, if any:
    each census sequence is compared with every later one.

    The scan is short.  The first three sequences, the star, (n-2, 2, 1, ...)
    and (n-3, 3, 1, ...), are comparable with every other one, and from n=8
    on census[3] and census[4] are incomparable, so about 3 p(n-2) compares
    find the witness; below 8 the census has at most 7 sequences."""
    census = delta_census(n)
    for k, a in enumerate(census):
        for b in census[k + 1 :]:
            if compare(a, b) is ComparisonResult.INCOMPARABLE:
                return OrderReport(n=n, is_total=False, witness=(a, b))
    return OrderReport(n=n, is_total=True, witness=None)


@lru_cache(maxsize=None)
def _classes(n: int):
    """The reachability memo of size ``n``: code -> representative, in
    canonical-code order.  Each representative caches its own degree
    sequence (:func:`delta_sequence`).  Raises BoundExceeded above the
    bound."""
    require_bound(n, REACHABILITY_MAX_NODES, "reachability search")
    return {canonical_code(t): t for t in enumerate_trees(n)}


def reachable_classes(t: Tree) -> frozenset[CanonicalCode]:
    """Canonical codes of every class reachable from ``t`` (including its
    own) by any number of degree-rule branch moves: one breadth-first walk
    over the memo of size ``t.n``, a level at a time, so each level's
    repeated successors are merged by set operations."""
    reps = _classes(t.n)
    new = {canonical_code(t)}
    seen = set(new)
    while new:
        new = set().union(*(successor_codes(reps[code]) for code in new)) - seen
        seen |= new
    return frozenset(seen)


def reachability_closure(t: Tree) -> tuple[Tree, ...]:
    """Representative trees of :func:`reachable_classes`, sorted by code."""
    return tuple(_classes(t.n)[code] for code in sorted(reachable_classes(t)))


def _landing(have: Sequence[int], goal: Sequence[int]) -> tuple[int, int] | None:
    """(donor degree, target degree) of a move that turns the sorted degrees
    ``have`` into ``goal``, or None.  A move turns a donor degree d into d-1
    and a target degree e >= d into e+1, so one lands exactly when the two
    differ at two ranks, +1 at the higher and -1 at the lower."""
    ranks = [k for k, (h, g) in enumerate(zip(have, goal)) if h != g]
    if len(ranks) == 2:
        i, j = ranks
        if goal[i] == have[i] + 1 and goal[j] == have[j] - 1:
            return have[j], have[i]
    return None


def _moved(have: Sequence[int], d: int, e: int) -> list[int]:
    """The sorted degrees ``have`` after a move from a donor of degree d to a
    target of degree e >= d: one basic transfer from a rank of d to the
    first rank of e, which for d = e is followed by a second d."""
    moved = list(have)
    i = have.index(e) + 1
    transfer_in_place(moved, i, i + 1 if d == e else have.index(d) + 1)
    return moved


def find_move_trace(t: Tree, target_delta: DeltaSequence) -> MoveTrace | None:
    """Shortest concrete move sequence from ``t`` to any tree whose degree
    sequence is ``target_delta``, or None if no class with that sequence is
    reachable.  Deterministic: breadth-first, moves in :func:`legal_moves`
    order.

    Every move strictly raises the degree sequence, so the order decides
    first: an equal target gives the zero-move trace and one that does not
    strictly dominate ``delta_sequence(t)`` gives None, with no search.

    The search runs over sorted degree sequences, not classes, and codes
    nothing.  A move turns one donor degree d into d-1 and one target
    degree e >= d into e+1, so a tree's successor sequences depend only on
    its own sequence (:func:`_moved`), and distinct (d, e) pairs give
    distinct successors.  Each sequence is expanded once, on the tree it was
    first discovered as: the first move of each distinct (d, e) pair, in
    legal_moves order and read directly from the tree (:func:`pair_moves`,
    which lists no other move), discovers that pair's successor unless it
    is known.
    The trace is the one a breadth-first search over classes finds.  That
    search discovers each new sequence by the first move of its pair from
    the first queued class of the parent sequence, and a later class whose
    sequence was seen earlier discovers no new sequence; whether a class
    lands depends on its sequence alone.  So both searches record the same
    first discoveries, from the same parent tree by the same move, and end
    on the same one.

    The search ends when it discovers a sequence one landing move short of
    the target (:func:`_landing`), the source included: queued sequences
    are expanded in discovery order, so that is the sequence an
    expand-then-test search would land from, with the same parent.  Each
    discovered sequence is tested, except when its parent differs from the
    target at more than four ranks, since a move changes two.  The end tree
    is built from its parent's, and its landing move is its pair's entry in
    the same map.  A concrete tree is built, by :func:`move_branch` from its
    parent's, only for a sequence the search expands or ends on.  Raises
    BoundExceeded above REACHABILITY_MAX_NODES, TypeError for a target that
    is not a DeltaSequence, and LengthMismatch or NotTreeFeasible for one
    that is not a tree sequence on ``t.n``.
    """
    require_bound(t.n, REACHABILITY_MAX_NODES, "reachability search")
    require_tree_sequence(t.n, target_delta)
    base = delta_sequence(t)
    rel = compare(base, target_delta)
    if rel is ComparisonResult.EQUAL:
        return MoveTrace(initial=t, moves=(), final=t)
    if rel is not ComparisonResult.STRICTLY_BELOW:
        return None
    goal = target_delta.values
    # parent pointers, fixed at discovery, and a concrete tree once a
    # sequence is expanded, so the trace replays literally
    start = base.values
    info: dict[tuple[int, ...], list] = {start: [t, None, None]}
    end, end_tree = start, t
    hit = _landing(start, goal)
    queue = deque([start])
    while hit is None and queue:
        have = queue.popleft()
        entry = info[have]
        if entry[0] is None:
            entry[0] = move_branch(info[entry[1]][0], *entry[2])
        tree = entry[0]
        near = sum(h != g for h, g in zip(have, goal)) <= 4
        for pair, mv in pair_moves(tree).items():
            nxt = tuple(_moved(have, *pair))
            if nxt in info:
                continue
            info[nxt] = [None, have, mv]
            if near:
                hit = _landing(nxt, goal)
                if hit is not None:
                    end, end_tree = nxt, move_branch(tree, *mv)
                    break
            queue.append(nxt)
    if hit is None:
        return None
    last = pair_moves(end_tree)[hit]
    path = [last]
    while end != start:
        _, end, step = info[end]
        path.append(step)
    return MoveTrace(
        initial=t, moves=tuple(reversed(path)), final=move_branch(end_tree, *last)
    )


def certify_reachability(
    t: Tree, target_delta: DeltaSequence
) -> ReachabilityCertificate:
    """Positive (move trace) or negative (closed reachable set) certificate
    for reaching the degree sequence ``target_delta`` from ``t``.  Raises as
    :func:`find_move_trace` does; a target that does not strictly dominate
    ``delta_sequence(t)`` costs one closure walk and no search."""
    trace = find_move_trace(t, target_delta)
    closure = reachability_closure(t) if trace is None else None
    return ReachabilityCertificate(
        source=t, target_delta=target_delta, trace=trace, closure=closure
    )


def closure_is_closed(trees: tuple[Tree, ...]) -> bool:
    """True iff every member's successor codes lie in the set: every
    degree-rule move lands back in it, up to isomorphism.  The sets a walk
    cached on its trees are reused, and the others are coded fresh."""
    codes = {canonical_code(t) for t in trees}
    return all(codes >= successor_codes(t) for t in trees)


def check_certificate(cert: ReachabilityCertificate) -> bool:
    """Re-verify a certificate from the trees it holds, never from the memo;
    True iff it genuinely proves its claim.  A closure is checked by
    :func:`closure_is_closed`, against each member's successor codes.  A
    trace that breaks the move rules is rejected, and so is a closure whose
    target is not a tree sequence on ``source.n`` nodes or that holds a
    tree of another size; a trace whose labels are not ints raises
    TypeError."""
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
    try:
        require_tree_sequence(cert.source.n, cert.target_delta)
    except TreeMajorError:
        return False
    if any(t.n != cert.source.n for t in closure):
        return False
    codes = {canonical_code(t) for t in closure}
    if canonical_code(cert.source) not in codes:
        return False
    if any(delta_sequence(t) == cert.target_delta for t in closure):
        return False
    return closure_is_closed(closure)


def verify_majorization_reachability(n: int) -> tuple[bool, list[ReachabilityCertificate]]:
    """Exhaustively check, over all tree classes on ``n`` nodes, that strict
    dominance between census sequences coincides with branch-move
    reachability.

    Forward direction: every move strictly raises the degree sequence.  The
    pass owns this check: it compares each distinct (class sequence,
    successor sequence) pair once and raises RuntimeError on a violation (a
    library defect).  Converse: for every class T and every cover b of
    delta(T), one move from T reaches b.  That is exact, since a path to a
    cover is one move and covers chain every strict pair a < b.  Each
    (class, cover) pair that fails yields a closed-set certificate, in
    canonical class order then cover order.  Returns (all_ok,
    certificates-for-failures).
    """
    require_node_count(n, "theorem check")
    reps = _classes(n)
    census = delta_census(n)
    covers = {a: [] for a in census}
    for a, b in _covers(census):
        covers[a].append(b)
    risen = set()  # the (sequence, successor sequence) pairs compared
    failures = []
    for t in reps.values():
        a = delta_sequence(t)
        reached = {delta_sequence(reps[x]) for x in successor_codes(t)}
        for b in reached:
            if (a, b) not in risen and compare(a, b) is not ComparisonResult.STRICTLY_BELOW:
                raise RuntimeError(
                    f"degree-rule move did not raise the degree sequence: {a} -> {b}"
                )
            risen.add((a, b))
        failures += [
            ReachabilityCertificate(
                source=t, target_delta=b, trace=None, closure=reachability_closure(t)
            )
            for b in covers[a]
            if b not in reached
        ]
    return (not failures, failures)


def find_unreachable_pair(
    n: int, s: DeltaSequence, s_prime: DeltaSequence
) -> tuple[Tree, Tree] | None:
    """A pair (T, T') with degree sequences (s, s') such that T' is not
    reachable from T, or None when every target class is reachable from
    every source class.

    Raises TypeError unless n is an int (a bool is not), then BoundExceeded
    for n above the bound, before anything else.
    Requires s strictly below s'; equal sequences trivially yield None.
    Classes are scanned in canonical-code order, so the answer is
    deterministic.
    """
    require_int(n, "node count")
    require_bound(n, REACHABILITY_MAX_NODES, "reachability search")
    rel = compare(s, s_prime)
    if rel is ComparisonResult.EQUAL:
        return None
    if rel is not ComparisonResult.STRICTLY_BELOW:
        raise NotMajorized(f"{s} is not strictly below {s_prime} ({rel})")
    require_tree_sequence(n, s_prime)
    require_tree_sequence(n, s)
    reps = _classes(n)
    targets = [code for code, t in reps.items() if delta_sequence(t) == s_prime]
    for t in reps.values():
        if delta_sequence(t) == s:
            reach = reachable_classes(t)
            for target in targets:
                if target not in reach:
                    return (t, reps[target])
    return None


def verify_chain_minimality(n: int, sample_graphs: list[Graph]) -> bool:
    """Check the chain's degree sequence sits strictly below every other
    tree-feasible sequence of size ``n`` and below the degree sequence of
    every sampled connected non-chain graph."""
    census = delta_census(n)
    chain_delta = delta_sequence(chain(n))
    for s in census:
        if s != chain_delta and compare(chain_delta, s) is not ComparisonResult.STRICTLY_BELOW:
            return False
    for g in sample_graphs:
        if g.n != n:
            raise ValueError(f"sample graph has {g.n} nodes, expected {n}")
        delta = delta_sequence(g)
        # a connected graph with the path's degrees has n-1 edges, so it is a
        # tree, and a tree with no degree above 2 is a path
        if delta == chain_delta:
            raise ValueError("sample graphs must not be chains")
        if compare(chain_delta, delta) is not ComparisonResult.STRICTLY_BELOW:
            return False
    return True


def _covers(census: list[DeltaSequence]):
    """Covering pairs (a, b) of the census order, grouped by a in census
    order; the theorem pass needs one move per (class, cover).  Brylawski's
    rule for the dominance lattice of partitions: b is a with one unit moved
    from position i to an earlier j, where j = i-1 or a_j = a_i, and b is
    still a tree sequence.  So i ends its run of equal degrees >= 2, and j
    starts that run, or is i-1 if both runs are single."""
    by_values = {s.values: s for s in census}
    for a in census:
        v = a.values
        for i in range(1, len(v)):
            d = v[i]
            if d < 2 or v[i + 1] == d:  # a tree sequence ends in 1
                continue
            j = v.index(d)
            if j == i:
                j = i - 1
                if j and v[j - 1] == v[j]:
                    continue
            w = list(v)
            w[j] += 1
            w[i] -= 1
            yield a, by_values[tuple(w)]


def verify_convex_monotonicity(n: int) -> bool:
    """For every strictly ordered census pair and every function in the
    fixed convex family, the summed functional must not decrease.  Checking
    the covers alone is exact: every strict pair is joined by a chain of
    covers, and <= on the values is transitive."""
    census = delta_census(n)
    covers = list(_covers(census))
    for _, phi in CONVEX_TEST_FAMILY:
        value = {s: convex_functional(s, phi) for s in census}
        if any(value[a] > value[b] for a, b in covers):
            return False
    return True


def covering_relations(n: int) -> list[tuple[DeltaSequence, DeltaSequence]]:
    """Covering pairs (a, b) of the census order: a strictly below b with
    nothing strictly between, sorted by (a, b) values."""
    return sorted(_covers(delta_census(n)), key=lambda ab: (ab[0].values, ab[1].values))


def hasse_diagram(n: int) -> str:
    """DOT digraph of the census order: one node per sequence, one edge per
    covering relation, smaller sequence pointing at the larger."""
    lines = [f"digraph census_order_{n} {{"]
    lines += [f'  "{s}";' for s in delta_census(n)]
    lines += [f'  "{a}" -> "{b}";' for a, b in covering_relations(n)]
    return "\n".join(lines + ["}"])


def random_connected_graph(n: int, rng: random.Random) -> Graph:
    """A uniform random labeled tree (via a random Prufer sequence) plus up
    to ``_MAX_EXTRA_EDGES`` random extra edges; resampled until it is not a
    path."""
    require_node_count(n, "connected non-chain graph", 3)
    while True:
        t = tree_from_prufer([rng.randrange(n) for _ in range(n - 2)])
        nbrs = [list(t.neighbors(v)) for v in range(n)]
        # a tree on n nodes leaves (n-1)(n-2)/2 node pairs unjoined; they
        # are listed only when some are drawn, and nothing is drawn for k = 0
        k = rng.randint(0, min(_MAX_EXTRA_EDGES, (n - 1) * (n - 2) // 2))
        if k:
            non_edges = [
                (u, v) for u in range(n) for v in range(u + 1, n) if v not in t.neighbors(u)
            ]
            for u, v in rng.sample(non_edges, k):
                nbrs[u].append(v)
                nbrs[v].append(u)
        # the tree plus k distinct non-edges is connected and simple, and it
        # is a path only when it is the tree and no degree passes 2
        if k or max(map(len, nbrs)) > 2:
            return freeze([sorted(ws) for ws in nbrs], Graph)


def standard_graph_suite(
    n: int, count: int = 100, seed: int = DEFAULT_SEED
) -> list[Graph]:
    """Deterministic sample of ``count`` connected non-chain graphs: the
    cycle, the complete graph, then seeded random ones.  Empty for n < 3,
    where every connected graph is a chain.  An ``n``, ``count`` or ``seed``
    that is not an int (a bool is not) raises TypeError, and a negative
    count ValueError."""
    require_int(n, "node count")
    require_int(count, "sample count")
    require_int(seed, "seed")
    if count < 0:
        raise ValueError(f"sample count must be >= 0, got {count}")
    if n < 3:
        return []
    rng = random.Random(seed)
    suite: list[Graph] = [cycle_graph(n), complete_graph(n)]
    while len(suite) < count:
        suite.append(random_connected_graph(n, rng))
    return suite[:count]
