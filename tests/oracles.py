"""Slow independent oracles shared by the tests: the centroids of a built
tree from its subtree sizes, every rooted level sequence with no rooting
skipped, Otter's counts of rooted and free trees, every free tree class
from all Prufer sequences, and the branch searches and branch move by
depth-first search from the far side."""

from itertools import product

from treemajor import DegreeRuleViolation, DonorIsLeaf, Tree, WouldDisconnect
from treemajor.enumeration import _prufer_edges
from treemajor.trees import _peel_code


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


def rooted_level_sequences(n: int):
    """Canonical level sequences of all rooted trees on ``n`` nodes, in
    descending lexicographic order (Beyer and Hedetniemi): find the last
    level > 1, truncate there, and tile the tail with the segment starting
    at that node's parent.  No sequence is skipped or filtered."""
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


def rooted_tree_counts(limit: int) -> list[int]:
    """r[n], the number of rooted trees on n nodes, for n = 0..limit (OEIS
    A000081): r[n+1] = (1/n) sum_k (sum_{d | k} d r[d]) r[n-k+1]."""
    r = [0, 1]
    for n in range(1, limit):
        total = 0
        for k in range(1, n + 1):
            total += sum(d * r[d] for d in range(1, k + 1) if k % d == 0) * r[n - k + 1]
        r.append(total // n)
    return r[: limit + 1]


def free_tree_count(n: int) -> int:
    """The number of free trees on ``n`` >= 1 nodes (OEIS A000055), by
    Otter's formula: the rooted count less the unordered pairs of distinct
    rooted trees whose sizes sum to n, that is, the trees rooted at an edge
    whose two ends no automorphism swaps."""
    r = rooted_tree_counts(n)
    pairs = sum(r[k] * r[n - k] for k in range(1, n))
    if n % 2 == 0:
        pairs -= r[n // 2]
    return r[n] - pairs // 2


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
        code = _peel_code(adj, [len(ws) for ws in adj])
        if code not in reps:
            reps[code] = Tree(n, edges)
    return [reps[code] for code in sorted(reps)]


def neighbor_toward_reference(nbrs, node: int, target: int) -> int:
    """Oracle for neighbor_toward: a depth-first search from ``target`` that
    stops on reaching ``node``; the node it came from is the neighbour."""
    if node in nbrs[target]:
        return target
    seen, stack = {target}, [target]
    while True:
        u = stack.pop()
        for w in nbrs[u]:
            if w == node:
                return u
            if w not in seen:
                seen.add(w)
                stack.append(w)


def branch_members_reference(t: Tree, root: int, gateway: int) -> frozenset[int]:
    """Oracle for a branch's members in branches_at: a depth-first search
    from the gateway that never crosses back to the root."""
    edge = (root, gateway) if root < gateway else (gateway, root)
    if edge not in t.edges:
        raise ValueError(f"no edge between {root} and {gateway}")
    seen = {gateway}
    stack = [gateway]
    while stack:
        u = stack.pop()
        for w in t.neighbors(u):
            if u == gateway and w == root:
                continue
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return frozenset(seen)


def move_branch_reference(t: Tree, donor, gateway, target, enforce_degree_rule=True) -> Tree:
    """Oracle for move_branch: the same checks in the same order, with the
    moved branch found by the reference search and the result rebuilt by
    the validating Tree constructor."""
    if type(donor) is not int or type(gateway) is not int or type(target) is not int:
        raise TypeError(f"move labels must be ints, got {(donor, gateway, target)!r}")
    members = branch_members_reference(t, donor, gateway)  # also checks the edge
    if t.degree(donor) < 2:
        raise DonorIsLeaf(f"node {donor} is a leaf; removing its branch strands it")
    if target == donor:
        raise ValueError("target must differ from donor")
    if not (0 <= target < t.n):
        raise ValueError(f"node {target} outside labels 0..{t.n - 1}")
    if target in members:
        raise WouldDisconnect(f"target {target} lies inside the branch being moved")
    if enforce_degree_rule and t.degree(target) < t.degree(donor):
        raise DegreeRuleViolation(
            f"target degree {t.degree(target)} < donor degree {t.degree(donor)}"
        )
    old = (donor, gateway) if donor < gateway else (gateway, donor)
    new = (target, gateway) if target < gateway else (gateway, target)
    return Tree(t.n, (t.edges - {old}) | {new})
