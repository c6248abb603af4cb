"""Generation of all non-isomorphic free trees and the degree-sequence census.

The primary generator walks canonical rooted level sequences with a
constant-time successor rule and yields exactly those rootings whose root
is a centroid, and of a bicentroidal tree's two rootings exactly one, so
every free tree appears exactly once without any dedup set.  Both tests read
the level sequence alone: the root's branches run between its level-1
positions, the root is a centroid iff no branch has more than n/2 nodes,
and a branch of exactly n/2 is the other centroid's half, compared with the
root's half as a level sequence.  A branch too large rejects every sequence
with the same first n//2 + 1 positions, and the walk jumps past them all.
"""

from __future__ import annotations

import heapq
from typing import Iterator, Sequence

from .errors import require_bound, require_ints, require_node_count
from .sequences import DeltaSequence, require_tree_sequence
from .trees import Tree, canonical_code, delta_sequence, freeze

__all__ = [
    "MAX_NODES",
    "CENSUS_MAX_NODES",
    "enumerate_trees",
    "delta_census",
    "trees_with_delta",
    "tree_from_prufer",
]

#: Largest node count the generator accepts.  Class counts grow about 2.5x
#: per node; ``enumerate_trees(16)`` (27,489 level sequences visited for
#: 19,320 classes) takes 0.40-0.50 s on a 2-vCPU container with Python 3.11.
MAX_NODES = 16

#: Largest node count of the degree-sequence census (p(n-2) sequences,
#: 2,436 at n=28) and so of every operation that reads it.  At n=28 on a
#: 2-vCPU container the slowest, ``hasse 28 --format structured``, takes
#: 0.67-0.84 s in process, ``hasse 28`` 0.45-0.53 s, ``verify 28 --convex``
#: 0.29-0.40 s; at n=30 the structured diagram takes 1.2 s.
CENSUS_MAX_NODES = 28


def _level_sequences(n: int) -> Iterator[list[int]]:
    """Canonical level sequences of the kept rootings on ``n`` nodes, one per
    free tree, in descending lexicographic order.

    Sequences are preorder node levels with the root at level 0; children
    subtrees appear in non-increasing lexicographic order.  The successor
    rule finds the last level > 1, truncates there, and tiles the tail with
    the segment starting at that node's parent.  A root branch over n/2
    nodes fills positions ``start .. start + n//2``, so every sequence with
    that prefix is rejected; the last of them pads it with level-1 leaves,
    its smallest canonical completion, and the walk steps on from there.
    """
    seq = list(range(n))  # the path, lexicographically largest
    while True:
        # each level-1 position starts a root branch that runs up to the
        # next one; the sentinel closes the last branch
        bounded = seq + [1]
        start = 1
        while start < n:
            end = bounded.index(1, start + 1)
            if 2 * (end - start) > n:
                prefix = start + n // 2 + 1
                seq = seq[:prefix] + [1] * (n - prefix)
                break
            if 2 * (end - start) == n:
                # the other centroid's half: keep the rooting whose half
                # codes no lower.  Canonical level sequences of n/2 nodes
                # order opposite to their codes (the deeper node writes "("
                # where the other writes ")"), so compare the levels
                if seq[:start] + seq[end:] <= [lvl - 1 for lvl in seq[start:end]]:
                    yield seq
                break
            start = end
        else:
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
    # a parent is the last node one level up; each list is built sorted
    n = len(levels)
    nbrs: list[list[int]] = [[] for _ in range(n)]
    last_at_level = [0] * n
    for v in range(1, n):
        lvl = levels[v]
        u = last_at_level[lvl - 1]
        nbrs[u].append(v)
        nbrs[v].append(u)
        last_at_level[lvl] = v
    return freeze(nbrs)


def enumerate_trees(n: int) -> list[Tree]:
    """One representative per isomorphism class of free trees on ``n`` nodes.

    The level-sequence walk yields only the kept rooting of each class, and
    a ``Tree`` is built only for it.  Output is sorted by canonical code, so
    stable.  Raises TypeError unless ``n`` is an int (a bool is not), then
    ValueError below 1, then BoundExceeded above :data:`MAX_NODES`.
    """
    require_node_count(n, "enumeration", 1)
    require_bound(n, MAX_NODES, "enumeration")
    return sorted(map(_tree_from_levels, _level_sequences(n)), key=canonical_code)


def _prufer_edges(seq: Sequence[int], n: int) -> list[tuple[int, int]]:
    # the standard bijection; labels must already lie in 0..n-1
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        edges.append((heapq.heappop(leaves), x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def tree_from_prufer(seq: Sequence[int]) -> Tree:
    """Decode a Prufer sequence over labels 0..n-1 into the labeled tree on
    n = len(seq) + 2 nodes.  The decoding is the standard bijection, so the
    edges form a tree by construction and are not re-validated once the
    labels are checked: TypeError if any is not an int (a bool is not),
    then ValueError for one outside 0..n-1."""
    n = len(seq) + 2
    require_ints(seq, "Prufer labels")
    for x in seq:
        if not (0 <= x < n):
            raise ValueError(f"label {x} outside 0..{n - 1}")
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in _prufer_edges(seq, n):
        nbrs[u].add(v)
        nbrs[v].add(u)
    return freeze([sorted(ws) for ws in nbrs])


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
    order (star first, chain last).  Raises TypeError unless ``n`` is an
    int, ValueError below 2, BoundExceeded above :data:`CENSUS_MAX_NODES`."""
    require_node_count(n, "census")
    require_bound(n, CENSUS_MAX_NODES, "the census")
    return [
        DeltaSequence(p) for p in _partitions_desc(2 * (n - 1), n, n - 1)
    ]


def trees_with_delta(n: int, s: DeltaSequence) -> list[Tree]:
    """The isomorphism classes on ``n`` nodes whose degree sequence is ``s``;
    raises as :func:`require_tree_sequence` does."""
    require_tree_sequence(n, s)
    return [t for t in enumerate_trees(n) if delta_sequence(t) == s]
