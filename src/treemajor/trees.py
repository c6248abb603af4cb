"""Labeled free trees and connected graphs: branches, degree-constrained
branch moves, and canonical codes deciding isomorphism.

Trees are immutable values over labels 0..n-1; every operation returns a new
tree.  A branch move detaches the subtree hanging off one edge of a donor
node and re-attaches that edge at a target node; with the degree rule on
(target degree >= donor degree) each move pushes the degree sequence
strictly up the majorization order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    DegreeRuleViolation,
    DonorIsLeaf,
    NotConnected,
    ParseError,
    WouldDisconnect,
)
from .sequences import DeltaSequence

__all__ = [
    "Tree",
    "Branch",
    "Graph",
    "CanonicalCode",
    "chain",
    "star",
    "delta_sequence",
    "branches_at",
    "branch_members",
    "move_branch",
    "legal_moves",
    "canonical_code",
    "is_isomorphic",
    "center",
    "centroids",
    "cycle_graph",
    "complete_graph",
    "parse_tree",
    "format_tree",
    "tree_to_dict",
    "tree_from_dict",
    "tree_to_dot",
]

#: Isomorphism-invariant encoding of a tree; equal codes <=> isomorphic trees.
CanonicalCode = str


def _normalize_edges(
    n: int, edges: Iterable[tuple[int, int]]
) -> tuple[tuple[int, int], ...]:
    seen = set()
    out = []
    for u, v in edges:
        if type(u) is not int or type(v) is not int:
            raise TypeError(f"edge labels must be ints, got ({u!r}, {v!r})")
        if u == v:
            raise ValueError(f"self-loop at node {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) outside labels 0..{n - 1}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise ValueError(f"duplicate edge {e}")
        seen.add(e)
        out.append(e)
    return tuple(sorted(out))


def _adjacency(n: int, edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for nbrs in adj:
        nbrs.sort()
    return adj


def _reachable_from(n: int, adj: Sequence[Sequence[int]], start: int) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


class Graph:
    """A connected undirected graph on nodes 0..n-1.

    Construction checks the label type and range, absence of self-loops and
    duplicates, and connectivity (NotConnected otherwise).  Instances are
    immutable.
    """

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if type(n) is not int:
            raise TypeError(f"node count must be an int, got {n!r}")
        if n < 1:
            raise ValueError(f"need at least one node, got n={n}")
        norm = _normalize_edges(n, edges)
        self._check_edge_count(n, len(norm))
        adj = _adjacency(n, norm)
        if len(_reachable_from(n, adj, 0)) != n:
            raise NotConnected(f"{len(norm)} edges do not connect all {n} nodes")
        self.n = n
        self.edges = frozenset(norm)
        self._adj = tuple(tuple(nbrs) for nbrs in adj)

    def _check_edge_count(self, n: int, m: int) -> None:
        """Any edge count is allowed; runs before the connectivity check."""

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def degree_sequence(self) -> DeltaSequence:
        return DeltaSequence(len(self._adj[v]) for v in range(self.n))

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.n}, {self.sorted_edges()!r})"


class Tree(Graph):
    """A labeled free tree on nodes 0..n-1: a connected graph with exactly
    n-1 edges.

    Trees compare by value, and the canonical code is computed once on
    demand and cached.
    """

    __slots__ = ("_code",)

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        super().__init__(n, edges)
        self._code: CanonicalCode | None = None

    def _check_edge_count(self, n: int, m: int) -> None:
        if m != n - 1:
            raise ValueError(f"a tree on {n} nodes needs {n - 1} edges, got {m}")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Tree):
            return self.n == other.n and self.edges == other.edges
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.edges))


@dataclass(frozen=True)
class Branch:
    """One branch of ``root``: the component hanging off edge (root, gateway).

    ``members`` is the node set of that component; it contains the gateway
    and never the root.
    """

    root: int
    gateway: int
    members: frozenset[int]


def chain(n: int) -> Tree:
    """The path tree 0-1-...-(n-1)."""
    if n < 2:
        raise ValueError(f"chain needs n >= 2, got {n}")
    return Tree(n, [(k, k + 1) for k in range(n - 1)])


def star(n: int) -> Tree:
    """The star with center 0 and leaves 1..n-1."""
    if n < 2:
        raise ValueError(f"star needs n >= 2, got {n}")
    return Tree(n, [(0, k) for k in range(1, n)])


def delta_sequence(t: Tree) -> DeltaSequence:
    """Degrees of all nodes, sorted descending.  Defined for n >= 2.

    (A single-node tree has degree 0, which a positive degree sequence
    cannot hold.)
    """
    return DeltaSequence(t.degree(v) for v in range(t.n))


def branch_members(t: Tree, root: int, gateway: int) -> frozenset[int]:
    """Node set of the component containing ``gateway`` once edge
    (root, gateway) is removed."""
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


def branches_at(t: Tree, m: int) -> list[Branch]:
    """All deg(m) branches rooted at ``m``, in ascending gateway order.

    Their member sets partition the nodes other than ``m``.
    """
    if not (0 <= m < t.n):
        raise ValueError(f"node {m} outside labels 0..{t.n - 1}")
    return [
        Branch(root=m, gateway=c, members=branch_members(t, m, c))
        for c in t.neighbors(m)
    ]


def move_branch(
    t: Tree,
    donor: int,
    gateway: int,
    target: int,
    enforce_degree_rule: bool = True,
) -> Tree:
    """Re-attach the branch hanging off edge (donor, gateway) at ``target``.

    The edge (donor, gateway) is replaced by (target, gateway); the donor
    loses one degree, the target gains one, and nothing else changes.  The
    target must lie outside the moved branch (WouldDisconnect otherwise) and
    differ from the donor; the donor must not be a leaf.  With
    ``enforce_degree_rule`` the target's current degree must be >= the
    donor's, which makes the resulting degree sequence strictly dominate the
    old one.  Labels must be ints (TypeError otherwise).
    """
    if type(donor) is not int or type(gateway) is not int or type(target) is not int:
        raise TypeError(f"move labels must be ints, got {(donor, gateway, target)!r}")
    members = branch_members(t, donor, gateway)  # also validates the edge
    if t.degree(donor) < 2:
        raise DonorIsLeaf(f"node {donor} is a leaf; removing its branch strands it")
    if target == donor:
        raise ValueError("target must differ from donor")
    if not (0 <= target < t.n):
        raise ValueError(f"node {target} outside labels 0..{t.n - 1}")
    if target in members:
        raise WouldDisconnect(
            f"target {target} lies inside the branch being moved"
        )
    if enforce_degree_rule and t.degree(target) < t.degree(donor):
        raise DegreeRuleViolation(
            f"target degree {t.degree(target)} < donor degree {t.degree(donor)}"
        )
    old = (donor, gateway) if donor < gateway else (gateway, donor)
    new = (target, gateway) if target < gateway else (gateway, target)
    return Tree(t.n, (t.edges - {old}) | {new})


def legal_moves(
    t: Tree, enforce_degree_rule: bool = True
) -> list[tuple[int, int, int]]:
    """All (donor, gateway, target) triples move_branch accepts on ``t``.

    Deterministic order: donor, then gateway, then target, all ascending.
    """
    moves = []
    for donor in range(t.n):
        if t.degree(donor) < 2:
            continue
        for gw in t.neighbors(donor):
            members = branch_members(t, donor, gw)
            for target in range(t.n):
                if target == donor or target in members:
                    continue
                if enforce_degree_rule and t.degree(target) < t.degree(donor):
                    continue
                moves.append((donor, gw, target))
    return moves


def _strip_to_center(n: int, adj: Sequence[Sequence[int]]) -> list[int]:
    if n == 1:
        return [0]
    deg = [len(adj[v]) for v in range(n)]
    layer = [v for v in range(n) if deg[v] == 1]
    remaining = n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            deg[v] = 0
            for w in adj[v]:
                if deg[w] > 1:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
                elif deg[w] == 1:
                    deg[w] -= 1
        layer = nxt
    return sorted(layer)


def center(t: Tree) -> tuple[int, ...]:
    """The one or two central nodes (iterated leaf removal)."""
    return tuple(_strip_to_center(t.n, t._adj))


def centroids(t: Tree) -> tuple[int, ...]:
    """The one or two nodes minimizing the largest component left by their
    removal."""
    n = t.n
    if n == 1:
        return (0,)
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


def _rooted_code_adj(
    adj: Sequence[Sequence[int]], root: int, blocked: int | None
) -> str:
    # Iterative post-order; children codes are sorted so the encoding is
    # invariant under sibling order and relabeling.
    out: dict[tuple[int, int], str] = {}
    stack: list[tuple[int, int, bool]] = [(root, -1, False)]
    while stack:
        v, par, done = stack.pop()
        kids = [
            w
            for w in adj[v]
            if w != par and not (v == root and w == blocked)
        ]
        if not done:
            stack.append((v, par, True))
            for w in kids:
                stack.append((w, v, False))
        else:
            parts = sorted(out[(w, v)] for w in kids)
            out[(v, par)] = "(" + "".join(parts) + ")"
    return out[(root, -1)]


def _free_code_adj(n: int, adj: Sequence[Sequence[int]]) -> CanonicalCode:
    ctr = _strip_to_center(n, adj)
    if len(ctr) == 1:
        return "1" + _rooted_code_adj(adj, ctr[0], None)
    c1, c2 = ctr
    h1 = _rooted_code_adj(adj, c1, c2)
    h2 = _rooted_code_adj(adj, c2, c1)
    lo, hi = (h1, h2) if h1 <= h2 else (h2, h1)
    return "2" + lo + hi


def rooted_code(t: Tree, root: int, blocked: int | None = None) -> str:
    """Canonical code of ``t`` rooted at ``root``.

    With ``blocked`` set to a neighbor of the root, that subtree is left out
    (encoding one side of a split edge).
    """
    return _rooted_code_adj(t._adj, root, blocked)


def canonical_code(t: Tree) -> CanonicalCode:
    """Relabeling-invariant code: equal codes <=> isomorphic trees.

    The tree is rooted at its center; with two central nodes the edge
    between them is split and the two halves are encoded in sorted order.
    """
    if t._code is None:
        t._code = _free_code_adj(t.n, t._adj)
    return t._code


def is_isomorphic(t1: Tree, t2: Tree) -> bool:
    """True iff some relabeling maps ``t1`` onto ``t2``."""
    return t1.n == t2.n and canonical_code(t1) == canonical_code(t2)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return Graph(n, [(k, (k + 1) % n) for k in range(n)])


def complete_graph(n: int) -> Graph:
    if n < 2:
        raise ValueError(f"complete graph needs n >= 2, got {n}")
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def parse_tree(text: str) -> Tree:
    """Parse the tree text format: first line ``n``, then one ``u v`` line
    per edge (0-based labels).  Self-loops and duplicate edges are rejected.
    """
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty tree text")
    try:
        n = int(lines[0])
    except ValueError:
        raise ParseError(f"first line must be the node count, got {lines[0]!r}") from None
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"edge line must be two labels, got {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ParseError(f"bad edge line {ln!r}") from None
    try:
        return Tree(n, edges)
    except (ValueError, NotConnected) as exc:
        raise ParseError(f"not a valid tree: {exc}") from exc


def format_tree(t: Tree) -> str:
    """Text form accepted back by :func:`parse_tree`."""
    lines = [str(t.n)]
    lines.extend(f"{u} {v}" for u, v in t.sorted_edges())
    return "\n".join(lines)


def tree_to_dict(t: Tree) -> dict:
    return {"n": t.n, "edges": [[u, v] for u, v in t.sorted_edges()]}


def tree_from_dict(data: dict) -> Tree:
    return Tree(data["n"], data["edges"])


def tree_to_dot(t: Tree, name: str = "tree") -> str:
    """Undirected DOT description with one node line and one edge line each."""
    lines = [f"graph {name} {{"]
    lines.extend(f"  {v};" for v in range(t.n))
    lines.extend(f"  {u} -- {v};" for u, v in t.sorted_edges())
    lines.append("}")
    return "\n".join(lines)
