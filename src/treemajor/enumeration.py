"""Generation of all non-isomorphic free trees and the degree-sequence census.

The primary generator walks canonical rooted level sequences with a
constant-time successor rule and keeps exactly those rootings whose root is
a centroid (with a code tie-break for bicentroidal trees), so every free
tree appears exactly once without any dedup set.  An independent
brute-force oracle decodes every Prufer sequence and dedups by canonical
code; it is exponential and meant for cross-checking at small n.
"""

from __future__ import annotations

import heapq
from itertools import product
from typing import Iterator, Sequence

from .errors import BoundExceeded, LengthMismatch, NotTreeFeasible
from .sequences import DeltaSequence
from .trees import (
    Tree,
    _free_code_adj,
    canonical_code,
    centroids,
    delta_sequence,
    rooted_code,
)

__all__ = [
    "MAX_NODES",
    "enumerate_trees",
    "enumerate_trees_bruteforce",
    "delta_census",
    "trees_with_delta",
    "tree_from_prufer",
]

#: Largest node count the generator accepts (class counts grow fast; this
#: keeps every call comfortably in memory and under a second or two).
MAX_NODES = 16


def _level_sequences(n: int) -> Iterator[list[int]]:
    """Canonical level sequences of all rooted trees on ``n`` nodes.

    Sequences are preorder node levels with the root at level 0; children
    subtrees appear in non-increasing lexicographic order.  The successor
    rule finds the last level > 1, truncates there, and tiles the tail with
    the segment starting at that node's parent.
    """
    if n == 1:
        yield [0]
        return
    seq = list(range(n))  # the path, lexicographically largest
    while True:
        yield seq
        p = n - 1
        while seq[p] == 1:
            p -= 1
        if p == 0:
            return  # the star, lexicographically smallest
        q = p - 1
        while seq[q] != seq[p] - 1:
            q -= 1
        nxt = seq[:p]
        while len(nxt) < n:
            nxt.append(nxt[len(nxt) - (p - q)])
        seq = nxt


def _tree_from_levels(levels: Sequence[int]) -> Tree:
    n = len(levels)
    edges = []
    last_at_level = [0] * n
    for v in range(1, n):
        lvl = levels[v]
        edges.append((last_at_level[lvl - 1], v))
        last_at_level[lvl] = v
    return Tree(n, edges)


def enumerate_trees(n: int) -> list[Tree]:
    """One representative per isomorphism class of free trees on ``n`` nodes.

    Output order is lexicographic by canonical code and therefore stable.
    Raises BoundExceeded above :data:`MAX_NODES`.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > MAX_NODES:
        raise BoundExceeded(f"enumeration supports n <= {MAX_NODES}, got {n}")
    out = []
    for levels in _level_sequences(n):
        t = _tree_from_levels(levels)
        cents = centroids(t)
        if 0 not in cents:
            continue
        if len(cents) == 2:
            other = cents[1] if cents[0] == 0 else cents[0]
            half_root = rooted_code(t, 0, other)
            half_other = rooted_code(t, other, 0)
            # the two rootings of a bicentroidal tree both occur; keep one
            if half_root < half_other:
                continue
        out.append(t)
    out.sort(key=canonical_code)
    return out


def tree_from_prufer(seq: Sequence[int]) -> Tree:
    """Decode a Prufer sequence over labels 0..n-1 into the labeled tree on
    n = len(seq) + 2 nodes.  The decoding is the standard bijection."""
    n = len(seq) + 2
    degree = [1] * n
    for x in seq:
        if not (0 <= x < n):
            raise ValueError(f"label {x} outside 0..{n - 1}")
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Tree(n, edges)


def enumerate_trees_bruteforce(n: int) -> list[Tree]:
    """Oracle: all labeled trees via every Prufer sequence, deduplicated by
    canonical code.  Exact but exponential (n^(n-2) decodes); intended for
    cross-checking :func:`enumerate_trees` at n <= 8."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n == 1:
        return [Tree(1, [])]
    if n == 2:
        return [Tree(2, [(0, 1)])]
    reps: dict[str, Tree] = {}
    for seq in product(range(n), repeat=n - 2):
        # decode straight to adjacency; Tree construction only for new codes
        degree = [1] * n
        for x in seq:
            degree[x] += 1
        leaves = [v for v in range(n) if degree[v] == 1]
        heapq.heapify(leaves)
        adj: list[list[int]] = [[] for _ in range(n)]
        edges = []
        for x in seq:
            leaf = heapq.heappop(leaves)
            adj[leaf].append(x)
            adj[x].append(leaf)
            edges.append((leaf, x))
            degree[x] -= 1
            if degree[x] == 1:
                heapq.heappush(leaves, x)
        u = heapq.heappop(leaves)
        v = heapq.heappop(leaves)
        adj[u].append(v)
        adj[v].append(u)
        edges.append((u, v))
        code = _free_code_adj(n, adj)
        if code not in reps:
            reps[code] = Tree(n, edges)
    return [reps[code] for code in sorted(reps)]


def _partitions_desc(total: int, parts: int, bound: int) -> Iterator[tuple[int, ...]]:
    """Partitions of ``total`` into exactly ``parts`` values in
    bound >= v_1 >= ... >= v_parts >= 1, in descending lexicographic order."""
    if parts == 1:
        if 1 <= total <= bound:
            yield (total,)
        return
    top = min(bound, total - (parts - 1))
    for first in range(top, 0, -1):
        for rest in _partitions_desc(total - first, parts - 1, first):
            yield (first,) + rest


def delta_census(n: int) -> list[DeltaSequence]:
    """Every tree-feasible degree sequence on ``n`` nodes, i.e. every
    partition of 2(n-1) into n positive parts, in descending lexicographic
    order (star first, chain last)."""
    if n < 2:
        raise ValueError(f"census needs n >= 2, got {n}")
    return [
        DeltaSequence(p) for p in _partitions_desc(2 * (n - 1), n, n - 1)
    ]


def trees_with_delta(n: int, s: DeltaSequence) -> list[Tree]:
    """The isomorphism classes on ``n`` nodes whose degree sequence is ``s``."""
    if len(s) != n:
        raise LengthMismatch(f"sequence has length {len(s)}, expected {n}")
    if not s.tree_feasible:
        raise NotTreeFeasible(f"{s} is not realizable by a tree")
    return [t for t in enumerate_trees(n) if delta_sequence(t) == s]
