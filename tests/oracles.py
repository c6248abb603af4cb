"""Slow independent oracles shared by the tests: the centroids of a built
tree from its subtree sizes, and every free tree class from all Prufer
sequences."""

from itertools import product

from treemajor import Tree
from treemajor.enumeration import _prufer_edges
from treemajor.trees import _free_code_adj


def centroids(t: Tree) -> tuple[int, ...]:
    """The one or two nodes minimizing the largest component left by their
    removal."""
    n = t.n
    size = [1] * n
    parent = [-1] * n
    order = []
    stack = [0]
    seen = [False] * n
    seen[0] = True
    while stack:
        u = stack.pop()
        order.append(u)
        for w in t.neighbors(u):
            if not seen[w]:
                seen[w] = True
                parent[w] = u
                stack.append(w)
    for u in reversed(order):
        if parent[u] >= 0:
            size[parent[u]] += size[u]
    best: list[int] = []
    best_val = n
    for v in range(n):
        heaviest = n - size[v]
        for w in t.neighbors(v):
            if w != parent[v]:
                heaviest = max(heaviest, size[w])
        if heaviest < best_val:
            best_val = heaviest
            best = [v]
        elif heaviest == best_val:
            best.append(v)
    return tuple(sorted(best))


def enumerate_trees_bruteforce(n: int) -> list[Tree]:
    """All labeled trees via every Prufer sequence, deduplicated by
    canonical code and sorted by it.  Exact but exponential (n^(n-2)
    decodes); meant for cross-checking ``enumerate_trees`` at n <= 8."""
    if n == 1:
        return [Tree(1, [])]
    reps: dict[str, Tree] = {}
    for seq in product(range(n), repeat=n - 2):
        # code the plain adjacency; Tree construction only for new codes
        edges = _prufer_edges(seq, n)
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        code = _free_code_adj(n, adj)
        if code not in reps:
            reps[code] = Tree(n, edges)
    return [reps[code] for code in sorted(reps)]
