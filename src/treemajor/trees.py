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
    dict_fields,
    list_of,
    require_int,
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
    "move_branch",
    "apply_moves",
    "legal_moves",
    "canonical_code",
    "is_isomorphic",
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


def _adjacency(
    n: int, edges: Iterable[tuple[int, int]]
) -> tuple[list[list[int]] | None, int]:
    # the sorted neighbour lists and the edge count; edges are checked in
    # input order, so the first bad edge is the one reported.  Fewer than n-1
    # edges cannot connect n nodes: no lists are made for them (None), so
    # memory follows the size of the input, not n
    edges = list(edges)
    adj = [[] for _ in range(n)] if len(edges) >= n - 1 else None
    seen = set()
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
        if adj is not None:
            adj[u].append(v)
            adj[v].append(u)
    if adj is None:
        return None, len(seen)
    for nbrs in adj:
        nbrs.sort()
    return adj, len(seen)


class Graph:
    """A connected undirected graph on nodes 0..n-1.

    Construction checks the label type and range, absence of self-loops and
    duplicates, and connectivity (NotConnected otherwise).  Instances are
    immutable and store only the sorted adjacency; the edge set is derived
    from it.
    """

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        require_int(n, "node count")
        if n < 1:
            raise ValueError(f"need at least one node, got n={n}")
        adj, m = _adjacency(n, edges)
        self._check_edge_count(n, m)
        if adj is None or -1 in _branch_sides(adj, 0):
            raise NotConnected(f"{m} edges do not connect all {n} nodes")
        self.n = n
        self._adj = tuple(tuple(nbrs) for nbrs in adj)

    def _check_edge_count(self, n: int, m: int) -> None:
        """Any edge count is allowed; runs before the connectivity check."""

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Each edge as (u, v) with u < v."""
        return frozenset(self.sorted_edges())

    def sorted_edges(self) -> list[tuple[int, int]]:
        # u ascends and each neighbour tuple is sorted, so no sort is needed
        return [(u, w) for u, ws in enumerate(self._adj) for w in ws if u < w]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.n}, {self.sorted_edges()!r})"


class Tree(Graph):
    """A labeled free tree on nodes 0..n-1: a connected graph with exactly
    n-1 edges.

    Trees compare by value.  The canonical code and the set of successor
    codes are each computed once on demand and cached.
    """

    __slots__ = ("_code", "_successors")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        super().__init__(n, edges)
        self._code: CanonicalCode | None = None
        self._successors: frozenset[CanonicalCode] | None = None

    def _check_edge_count(self, n: int, m: int) -> None:
        if m != n - 1:
            raise ValueError(f"a tree on {n} nodes needs {n - 1} edges, got {m}")

    def __eq__(self, other: object) -> bool:
        # equal adjacency tuples mean equal node counts and edge sets
        if isinstance(other, Tree):
            return self._adj == other._adj
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._adj)


@dataclass(frozen=True)
class Branch:
    """One branch of ``root``: the component hanging off edge (root, gateway).

    ``members`` is the node set of that component; it contains the gateway
    and never the root.
    """

    root: int
    gateway: int
    members: frozenset[int]


def _require_node_count(n: int, shape: str, least: int = 2) -> None:
    require_int(n, "node count")
    if n < least:
        raise ValueError(f"{shape} needs n >= {least}, got {n}")


def chain(n: int) -> Tree:
    """The path tree 0-1-...-(n-1)."""
    _require_node_count(n, "chain")
    return freeze([(1,), *[(k - 1, k + 1) for k in range(1, n - 1)], (n - 2,)])


def star(n: int) -> Tree:
    """The star with center 0 and leaves 1..n-1."""
    _require_node_count(n, "star")
    return freeze([range(1, n), *[(0,)] * (n - 1)])


def delta_sequence(g: Graph) -> DeltaSequence:
    """Degrees of all nodes, sorted descending.  Defined for n >= 2.

    (A single-node tree has degree 0, which a positive degree sequence
    cannot hold.)
    """
    return DeltaSequence(map(len, g._adj))


def _branch_sides(
    adj: Sequence[Iterable[int]], root: int, stop: int | None = None
) -> list[int]:
    # one breadth-first search from the root labels each node it reaches with
    # the gateway whose branch holds it (the root with itself, an unreached
    # node -1); all branches grow level by level, so a search that ends once
    # ``stop`` is labelled visits no node farther from the root than it
    side = [-1] * len(adj)
    side[root] = root
    order = list(adj[root])
    for gw in order:
        side[gw] = gw
    for u in order:
        for w in adj[u]:
            if side[w] < 0:
                side[w] = side[u]
                if w == stop:
                    return side
                order.append(w)
    return side


def branches_at(t: Tree, m: int) -> list[Branch]:
    """All deg(m) branches rooted at ``m``, in ascending gateway order.

    Their member sets partition the nodes other than ``m``, which must be
    an int label (TypeError otherwise; a bool is not one).
    """
    require_int(m, "node")
    if not (0 <= m < t.n):
        raise ValueError(f"node {m} outside labels 0..{t.n - 1}")
    members: dict[int, list[int]] = {c: [] for c in t.neighbors(m)}
    for v, gw in enumerate(_branch_sides(t._adj, m)):
        if v != m:
            members[gw].append(v)
    return [Branch(root=m, gateway=c, members=frozenset(vs)) for c, vs in members.items()]


def freeze(nbrs: Sequence[Sequence[int]], kind: type[Graph] = Tree) -> Graph:
    """The ``kind`` (a Tree, or a Graph when asked) with the ascending
    neighbour list ``nbrs[v]`` of each node ``v``, copied as given: neither
    sorted nor re-validated, so only for sorted neighbours that form one by
    construction, as those of a valid tree changed by branch moves, of a
    decoded Prufer sequence, of a level sequence, of a path, of a star, of a
    caterpillar, or of a tree with extra edges between distinct nodes."""
    g = kind.__new__(kind)
    g.n = len(nbrs)
    g._adj = tuple(map(tuple, nbrs))
    if kind is Tree:
        g._code = g._successors = None
    return g


def neighbor_toward(nbrs: Sequence[set[int]], node: int, target: int) -> int:
    """The neighbour of ``node`` on its path to ``target`` (not ``node``):
    the gateway of the one branch of ``node`` that holds ``target``, found
    by the branch search from ``node`` that stops at ``target``."""
    return target if target in nbrs[node] else _branch_sides(nbrs, node, target)[target]


def move_edge(nbrs: Sequence[set[int]], donor: int, gateway: int, target: int) -> None:
    """Replace edge (donor, gateway) by (target, gateway) in place."""
    nbrs[donor].remove(gateway)
    nbrs[gateway].remove(donor)
    nbrs[gateway].add(target)
    nbrs[target].add(gateway)


def _move_branches(t: Tree, moves, enforce_degree_rule: bool) -> Tree:
    # the one checked move loop; one tree is frozen after the last move
    n = t.n
    nbrs = [set(ws) for ws in t._adj]
    for donor, gateway, target in moves:
        if type(donor) is not int or type(gateway) is not int or type(target) is not int:
            raise TypeError(f"move labels must be ints, got {(donor, gateway, target)!r}")
        if not (0 <= donor < n and gateway in nbrs[donor]):
            raise ValueError(f"no edge between {donor} and {gateway}")
        if len(nbrs[donor]) < 2:
            raise DonorIsLeaf(f"node {donor} is a leaf; removing its branch strands it")
        if target == donor:
            raise ValueError("target must differ from donor")
        if not (0 <= target < n):
            raise ValueError(f"node {target} outside labels 0..{n - 1}")
        if neighbor_toward(nbrs, donor, target) == gateway:
            raise WouldDisconnect(f"target {target} lies inside the branch being moved")
        if enforce_degree_rule and len(nbrs[target]) < len(nbrs[donor]):
            raise DegreeRuleViolation(
                f"target degree {len(nbrs[target])} < donor degree {len(nbrs[donor])}"
            )
        move_edge(nbrs, donor, gateway, target)
    return freeze([sorted(ws) for ws in nbrs])


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
    return _move_branches(t, [(donor, gateway, target)], enforce_degree_rule)


def apply_moves(t: Tree, moves) -> Tree:
    """Apply (donor, gateway, target) triples in order under the degree
    rule; each move is checked as :func:`move_branch` checks it."""
    return _move_branches(t, moves, True)


def legal_moves(t: Tree) -> list[tuple[int, int, int]]:
    """All (donor, gateway, target) triples move_branch accepts on ``t``.

    Deterministic order: donor, then gateway, then target, all ascending.
    """
    n, adj = t.n, t._adj
    deg = [len(ws) for ws in adj]
    moves = []
    for donor in range(n):
        if deg[donor] < 2:
            continue
        side = _branch_sides(adj, donor)
        targets = [v for v in range(n) if v != donor and deg[v] >= deg[donor]]
        for gw in adj[donor]:
            moves.extend((donor, gw, target) for target in targets if side[target] != gw)
    return moves


def pair_moves(t: Tree) -> dict[tuple[int, int], tuple[int, int, int]]:
    """(donor degree d, target degree e) -> the first of :func:`legal_moves`
    with those degrees, for each pair that has one, in legal_moves order;
    the other moves are never listed.  The donor is the smallest node of
    degree d: a node of degree e >= d other than it lies in only one of its
    d >= 2 branches, so it always has the move.  One branch search from it
    gives, for each e, the smallest node of degree e outside its first
    gateway's branch; when every such node lies inside, the second gateway
    and the smallest such node make the move."""
    adj = t._adj
    by_degree: dict[int, list[int]] = {}
    for v, ws in enumerate(adj):
        by_degree.setdefault(len(ws), []).append(v)
    found = []
    for d, donors in by_degree.items():
        if d < 2:
            continue
        donor = donors[0]
        side = _branch_sides(adj, donor)
        first, second = adj[donor][:2]
        side[donor] = first  # so the donor is never a target
        for e, nodes in by_degree.items():
            if e < d:
                continue
            for w in nodes:
                if side[w] != first:
                    found.append(((donor, first, w), (d, e)))
                    break
            else:
                targets = nodes[1:] if e == d else nodes
                if targets:
                    found.append(((donor, second, targets[0]), (d, e)))
    found.sort()
    return {pair: move for move, pair in found}


def successor_codes(t: Tree) -> frozenset[CanonicalCode]:
    """The canonical codes of the classes one degree-rule move from ``t``,
    computed once and cached like the canonical code.  Each of
    :func:`legal_moves` is made on one working adjacency and degree list,
    coded and undone, with no tree built."""
    if t._successors is None:
        nbrs = [set(ws) for ws in t._adj]
        deg = [len(ws) for ws in t._adj]
        codes = set()
        for donor, gw, target in legal_moves(t):
            move_edge(nbrs, donor, gw, target)
            deg[donor] -= 1
            deg[target] += 1
            codes.add(_peel_code(nbrs, deg[:]))
            move_edge(nbrs, target, gw, donor)
            deg[donor] += 1
            deg[target] -= 1
        t._successors = frozenset(codes)
    return t._successors


def _peel_code(adj: Sequence[Iterable[int]], deg: list[int]) -> CanonicalCode:
    # Peels leaves layer by layer, using up ``deg`` (each node's degree).  A
    # node is coded when it is peeled: its children are peeled already and
    # its one unpeeled neighbour is its parent.  The one or two nodes left
    # are the centre.  A leaf's code "()" sorts after every other code, which
    # starts with "((", so leaves are only counted: a node's code is its
    # sorted non-leaf child codes, then one "()" per leaf child, in brackets.
    n = len(adj)
    kids: list[list[str]] = [[] for _ in range(n)]
    leaves = [0] * n
    layer = [v for v in range(n) if deg[v] < 2]  # built before any peeling
    remaining = n
    while remaining > 2:
        leafy = remaining == n  # the first layer: only the leaves
        remaining -= len(layer)
        nxt = []
        for v in layer:
            deg[v] = 0
            for p in adj[v]:
                if deg[p]:
                    break
            if leafy:
                leaves[p] += 1
            else:
                kids[v].sort()
                kids[p].append("(" + "".join(kids[v]) + "()" * leaves[v] + ")")
            deg[p] -= 1
            if deg[p] == 1:
                nxt.append(p)
        layer = nxt
    halves = sorted("(" + "".join(sorted(kids[c])) + "()" * leaves[c] + ")" for c in layer)
    return str(len(halves)) + "".join(halves)


def canonical_code(t: Tree) -> CanonicalCode:
    """Relabeling-invariant code: equal codes <=> isomorphic trees.

    The tree is rooted at its center; with two central nodes the edge
    between them is split and the two halves are encoded in sorted order.
    """
    if t._code is None:
        t._code = _peel_code(t._adj, [len(ws) for ws in t._adj])
    return t._code


def is_isomorphic(t1: Tree, t2: Tree) -> bool:
    """True iff some relabeling maps ``t1`` onto ``t2``."""
    return t1.n == t2.n and canonical_code(t1) == canonical_code(t2)


def cycle_graph(n: int) -> Graph:
    _require_node_count(n, "cycle", 3)
    return Graph(n, [(k, (k + 1) % n) for k in range(n)])


def complete_graph(n: int) -> Graph:
    _require_node_count(n, "complete graph")
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
    n, edges = dict_fields(data, "tree", "n", "edges")
    return Tree(n, list_of(edges, "tree edges", 2))


def tree_to_dot(t: Tree, name: str = "tree") -> str:
    """Undirected DOT description with one node line and one edge line each."""
    lines = [f"graph {name} {{"]
    lines.extend(f"  {v};" for v in range(t.n))
    lines.extend(f"  {u} -- {v};" for u, v in t.sorted_edges())
    lines.append("}")
    return "\n".join(lines)
