"""Trees, branches, branch moves, canonical codes, graphs."""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from treemajor import (
    ComparisonResult,
    DegreeRuleViolation,
    DeltaSequence,
    DonorIsLeaf,
    Graph,
    NonPositiveDegree,
    NotConnected,
    ParseError,
    Tree,
    WouldDisconnect,
    apply_moves,
    branches_at,
    canonical_code,
    chain,
    compare,
    complete_graph,
    cycle_graph,
    delta_sequence,
    enumerate_trees,
    format_tree,
    is_isomorphic,
    legal_moves,
    move_branch,
    parse_tree,
    plan_transfers,
    realize_direct,
    replay_plan_on_tree,
    star,
    tree_from_dict,
    tree_from_prufer,
    tree_to_dict,
    tree_to_dot,
)
from treemajor import trees
from treemajor.trees import (
    freeze,
    neighbor_toward,
    pair_moves,
    successor_codes,
)
from oracles import (
    branch_members_reference,
    centroids,
    move_branch_reference,
    neighbor_toward_reference,
)


def relabel(t: Tree, perm: dict[int, int]) -> Tree:
    return Tree(t.n, [(perm[u], perm[v]) for u, v in t.edges])


def _outcome(move, t, *args):
    """The tree a move returns, or the type and message of what it raises."""
    try:
        return move(t, *args)
    except Exception as exc:
        return type(exc), str(exc)


def _assert_same_tree(got: Tree, want: Tree) -> None:
    assert type(got) is Tree
    assert got == want
    assert [got.neighbors(v) for v in range(got.n)] == [
        want.neighbors(v) for v in range(want.n)
    ]
    assert canonical_code(got) == canonical_code(want)
    assert Tree(got.n, sorted(got.edges)) == got  # the frozen tree is valid


def _rooted_code_reference(t: Tree, root: int, blocked: int | None = None) -> str:
    """The iterative post-order string coder (Aho, Hopcroft and Ullman), one
    code per (node, parent) pair; with ``blocked`` set to a neighbour of the
    root, that subtree is left out (one half of a split edge)."""
    out = {}
    stack = [(root, -1, False)]
    while stack:
        v, par, done = stack.pop()
        kids = [w for w in t.neighbors(v) if w != par and not (v == root and w == blocked)]
        if not done:
            stack.append((v, par, True))
            stack.extend((w, v, False) for w in kids)
        else:
            out[(v, par)] = "(" + "".join(sorted(out[(w, v)] for w in kids)) + ")"
    return out[(root, -1)]


def _distances(t: Tree, source: int) -> list[int]:
    dist = [-1] * t.n
    dist[source] = 0
    queue = [source]
    for u in queue:
        for w in t.neighbors(u):
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def _center_reference(t: Tree) -> tuple[int, ...]:
    """The nodes of minimum eccentricity.  In a tree a node's farthest node
    is at its larger distance from the two ends a, b of a longest path (a
    farthest from node 0, b farthest from a), so three breadth-first
    searches give every eccentricity."""
    d0 = _distances(t, 0)
    da = _distances(t, d0.index(max(d0)))
    db = _distances(t, da.index(max(da)))
    ecc = [max(x, y) for x, y in zip(da, db)]
    radius = min(ecc)
    return tuple(v for v in range(t.n) if ecc[v] == radius)


def _canonical_code_reference(t: Tree) -> str:
    """Oracle for canonical_code: rooted at the centre, and for two central
    nodes each half coded by its own search with the other half blocked."""
    ctr = _center_reference(t)
    if len(ctr) == 1:
        return "1" + _rooted_code_reference(t, ctr[0])
    c1, c2 = ctr
    return "2" + "".join(
        sorted([_rooted_code_reference(t, c1, c2), _rooted_code_reference(t, c2, c1)])
    )


def _legal_moves_reference(t: Tree) -> list[tuple[int, int, int]]:
    """Oracle for legal_moves: one reference branch search per (donor,
    gateway) pair."""
    moves = []
    for donor in range(t.n):
        if t.degree(donor) < 2:
            continue
        for gw in t.neighbors(donor):
            members = branch_members_reference(t, donor, gw)
            for target in range(t.n):
                if target == donor or target in members or t.degree(target) < t.degree(donor):
                    continue
                moves.append((donor, gw, target))
    return moves


def _seeded_prufer_trees(count: int, max_n: int, seed: int) -> list[Tree]:
    """Uniform Prufer trees, and as many hub-heavy ones whose Prufer entries
    come from a few labels, with n drawn from 2..max_n."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        n = rng.randint(2, max_n)
        pool = range(n) if k % 2 else rng.sample(range(n), rng.randint(1, min(n, 4)))
        out.append(tree_from_prufer([rng.choice(pool) for _ in range(n - 2)]))
    return out


def brute_force_isomorphic(t1: Tree, t2: Tree) -> bool:
    """Oracle: try every label permutation (n <= 8 or so)."""
    if t1.n != t2.n:
        return False
    if sorted(t1.degree(v) for v in range(t1.n)) != sorted(
        t2.degree(v) for v in range(t2.n)
    ):
        return False
    e2 = t2.edges
    for perm in itertools.permutations(range(t1.n)):
        mapped = frozenset(
            (perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])
            for u, v in t1.edges
        )
        if mapped == e2:
            return True
    return False


class TestTreeConstruction:
    def test_wrong_edge_count(self):
        with pytest.raises(ValueError):
            Tree(4, [(0, 1), (1, 2)])

    def test_self_loop(self):
        with pytest.raises(ValueError):
            Tree(3, [(0, 0), (1, 2)])

    def test_duplicate_edge(self):
        with pytest.raises(ValueError):
            Tree(3, [(0, 1), (1, 0)])

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            Tree(3, [(0, 1), (1, 3)])

    @pytest.mark.parametrize(
        "cls, n, edges",
        [
            (Tree, 3, [(0, 1.5), (1, 2)]),
            (Tree, 3, [(0, True), (1, 2)]),
            (Graph, 3, [(0, 1), (1, "2")]),
            (Tree, 3.0, [(0, 1), (1, 2)]),
        ],
    )
    def test_non_int_label_rejected(self, cls, n, edges):
        what = "edge labels must be ints" if type(n) is int else "node count must be an int"
        with pytest.raises(TypeError, match=f"^{what}, got "):
            cls(n, edges)

    @pytest.mark.parametrize("cls", [Graph, Tree])
    def test_no_nodes(self, cls):
        with pytest.raises(ValueError, match="^graph needs n >= 1, got 0$"):
            cls(0, [])

    def test_disconnected(self):
        # right edge count, but a triangle plus an isolated node
        with pytest.raises(NotConnected):
            Tree(4, [(0, 1), (1, 2), (2, 0)])

    def test_single_node(self):
        t = Tree(1, [])
        assert t.n == 1 and not t.edges

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda n: Tree(n, [(0, 1)]), ValueError, "needs 999999 edges, got 1$"),
            (lambda n: Graph(n, [(0, 1)]), NotConnected, "^1 edges do not connect all 1000000 nodes$"),
            (lambda n: tree_from_dict({"n": n, "edges": []}), ValueError, "needs 999999 edges, got 0$"),
            (lambda n: parse_tree(f"{n}\n0 1"), ParseError, "needs 999999 edges, got 1$"),
        ],
        ids=["Tree", "Graph", "tree_from_dict", "parse_tree"],
    )
    def test_too_few_edges_cost_memory_of_the_input_not_of_n(self, build, error, message):
        # a short edge list is rejected before one neighbour list per node
        # is made, which would take about 80 MB at n = 10**6
        tracemalloc.start()
        try:
            with pytest.raises(error, match=message):
                build(10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestBuilders:
    def test_chain_delta(self):
        assert delta_sequence(chain(8)).values == (2, 2, 2, 2, 2, 2, 1, 1)

    def test_star_delta(self):
        assert delta_sequence(star(4)).values == (3, 1, 1, 1)

    def test_two_nodes(self):
        assert chain(2) == star(2)
        assert delta_sequence(chain(2)).values == (1, 1)

    def test_star_delta_general(self):
        for n in (3, 5, 9):
            assert delta_sequence(star(n)).values == (n - 1,) + (1,) * (n - 1)

    def test_builders_match_the_validating_constructor(self):
        for n in range(2, 65):
            assert chain(n) == Tree(n, [(k, k + 1) for k in range(n - 1)]), n
            assert star(n) == Tree(n, [(0, k) for k in range(1, n)]), n

    @pytest.mark.parametrize("build", [chain, star, cycle_graph, complete_graph])
    @pytest.mark.parametrize("n", [True, False, 2.0, "3", None])
    def test_non_int_node_count(self, build, n):
        # a bool is not a node count, and the type is checked before the size
        with pytest.raises(TypeError, match="node count must be an int"):
            build(n)

    @pytest.mark.parametrize("build", [chain, star, complete_graph])
    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_too_few_nodes(self, build, n):
        with pytest.raises(ValueError, match=f"needs n >= 2, got {n}$"):
            build(n)

    def test_a_cycle_needs_three_nodes(self):
        with pytest.raises(ValueError, match="^cycle needs n >= 3, got 2$"):
            cycle_graph(2)


class TestTrustedBuilds:
    """Every build of a Tree, trusted or validating, sets each cache slot to
    None and holds ascending neighbour tuples."""

    @staticmethod
    def _assert_fresh(t: Tree, cached: tuple[str, ...] = ()) -> None:
        for slot in Tree.__slots__:
            assert (getattr(t, slot) is None) != (slot in cached), slot
        assert all(list(ws) == sorted(ws) for ws in t._adj)

    def test_slots(self):
        assert Tree.__slots__ == ("_code", "_successors", "_delta")

    def test_each_build(self):
        # labels up to 59 in small sets, which do not iterate in order
        rng = random.Random(59)
        t = tree_from_prufer([rng.randrange(60) for _ in range(58)])
        self._assert_fresh(t)
        moved = move_branch(t, *legal_moves(t)[0])
        plan = plan_transfers(delta_sequence(chain(60)), delta_sequence(t))
        replayed = replay_plan_on_tree(chain(60), plan).final
        built = (chain(60), star(60), realize_direct(delta_sequence(t)))
        for fresh in (moved, replayed, Tree(t.n, t.sorted_edges()), *built):
            self._assert_fresh(fresh)
        # the sequence asked of t above is cached on t, and on nothing built from it
        self._assert_fresh(t, cached=("_delta",))
        for fresh in enumerate_trees(9):
            # sorted by canonical code, which is cached on each
            self._assert_fresh(fresh, cached=("_code",))


class TestDeltaSequenceCache:
    """A Tree builds its degree sequence once, like its canonical code; a
    Graph that is not a Tree gets a new one each call."""

    def test_built_once_per_tree(self):
        t = chain(6)
        assert t._delta is None
        assert delta_sequence(t) is delta_sequence(t) is t._delta
        assert t._delta == DeltaSequence([2, 2, 2, 2, 1, 1])

    @pytest.mark.parametrize(
        "g", [cycle_graph(5), complete_graph(4), Graph(4, [(0, 1), (1, 2), (1, 3)])]
    )
    def test_a_graph_is_not_cached(self, g):
        got = delta_sequence(g)
        assert got == DeltaSequence([g.degree(v) for v in range(g.n)])
        assert delta_sequence(g) is not got

    def test_one_node_raises_on_every_call(self):
        t = Tree(1, [])
        for _ in range(2):
            with pytest.raises(NonPositiveDegree):
                delta_sequence(t)
        assert t._delta is None

    def test_a_moved_tree_has_its_own(self):
        t = chain(8)
        before = delta_sequence(t)
        moves = [(6, 7, 5), (4, 5, 3), (2, 3, 1)]
        for moved in (move_branch(t, *moves[0]), apply_moves(t, moves)):
            assert moved._delta is None
            assert delta_sequence(moved) == DeltaSequence(map(len, moved._adj))
            assert delta_sequence(moved) != before
        assert delta_sequence(t) is before


class TestBranches:
    def test_chain_middle(self):
        t = chain(4)
        got = {(b.gateway, frozenset(b.members)) for b in branches_at(t, 1)}
        assert got == {(0, frozenset({0})), (2, frozenset({2, 3}))}

    def test_star_center_singletons(self):
        t = star(5)
        bs = branches_at(t, 0)
        assert len(bs) == 4
        assert all(b.members == frozenset({b.gateway}) for b in bs)

    def test_leaf_sees_everything(self):
        t = chain(4)
        (b,) = branches_at(t, 0)
        assert b.members == frozenset({1, 2, 3})

    @pytest.mark.parametrize("m", [True, False, 1.0, "1", None])
    def test_non_int_node_rejected(self, m):
        # as move_branch rejects it: a bool is not a node label
        with pytest.raises(TypeError, match=f"^node must be an int, got {m!r}$"):
            branches_at(chain(4), m)

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_partition_property(self, n):
        for t in enumerate_trees(n):
            for m in range(n):
                bs = branches_at(t, m)
                assert len(bs) == t.degree(m)
                union = set()
                for b in bs:
                    assert b.root == m and b.gateway in b.members
                    assert m not in b.members
                    assert not (union & b.members)
                    union |= b.members
                assert union == set(range(n)) - {m}

    @pytest.mark.parametrize("n", range(1, 10))
    def test_match_the_depth_first_reference(self, n):
        for t in enumerate_trees(n):
            for m in range(n):
                want = [(c, branch_members_reference(t, m, c)) for c in t.neighbors(m)]
                assert [(b.root, b.gateway, b.members) for b in branches_at(t, m)] == [
                    (m, c, members) for c, members in want
                ]


class TestNeighborTowardAgainstReference:
    """The search from ``node`` that stops at ``target`` names the same
    neighbour as the reference search from ``target``."""

    @pytest.mark.parametrize("n", range(2, 10))
    def test_every_ordered_pair_on_every_class(self, n):
        for t in enumerate_trees(n):
            nbrs = [set(t.neighbors(v)) for v in range(n)]
            for node, target in itertools.permutations(range(n), 2):
                want = neighbor_toward_reference(nbrs, node, target)
                assert neighbor_toward(nbrs, node, target) == want

    @pytest.mark.parametrize("odd_rows", [tuple, set])
    def test_tuple_rows(self, odd_rows):
        # the move loop's rows are the tree's own tuples until a move makes
        # them sets, so the search sees tuples, or tuples and sets at once
        for t in (tree for n in range(2, 10) for tree in enumerate_trees(n)):
            nbrs = [set(ws) for ws in t._adj]
            rows = [odd_rows(ws) if v % 2 else ws for v, ws in enumerate(t._adj)]
            for node, target in itertools.permutations(range(t.n), 2):
                want = neighbor_toward_reference(nbrs, node, target)
                assert neighbor_toward(rows, node, target) == want

    def test_seeded_prufer_trees(self):
        # random pairs, and pairs from the largest hub, whose many branches
        # the search grows together
        rng = random.Random(500)
        for t in _seeded_prufer_trees(40, 500, seed=500):
            nbrs = [set(t.neighbors(v)) for v in range(t.n)]
            hub = max(range(t.n), key=t.degree)
            for node in rng.choices(range(t.n), k=30) + [hub] * 10:
                target = rng.choice([v for v in range(t.n) if v != node])
                want = neighbor_toward_reference(nbrs, node, target)
                assert neighbor_toward(nbrs, node, target) == want


class TestMoveBranch:
    def test_chain_rewrite(self):
        t = chain(4)
        out = move_branch(t, 2, 3, 1, enforce_degree_rule=False)
        assert out.edges == frozenset({(0, 1), (1, 2), (1, 3)})
        assert delta_sequence(out).values == (3, 1, 1, 1)

    def test_total_degree_conserved(self):
        t = chain(6)
        out = move_branch(t, 4, 5, 1, enforce_degree_rule=False)
        assert delta_sequence(out).total == 2 * (t.n - 1)

    def test_degree_rule_violation(self):
        with pytest.raises(DegreeRuleViolation):
            move_branch(chain(4), 1, 0, 3, enforce_degree_rule=True)

    def test_would_disconnect(self):
        with pytest.raises(WouldDisconnect):
            move_branch(chain(4), 1, 2, 3)

    def test_gateway_is_inside_branch(self):
        with pytest.raises(WouldDisconnect):
            move_branch(chain(4), 1, 2, 2)

    def test_donor_is_leaf(self):
        with pytest.raises(DonorIsLeaf):
            move_branch(chain(4), 0, 1, 3)

    def test_target_equals_donor(self):
        with pytest.raises(ValueError):
            move_branch(chain(4), 1, 0, 1)

    def test_inverse_move_restores(self):
        t = Tree(6, [(0, 1), (1, 2), (1, 3), (3, 4), (4, 5)])
        out = move_branch(t, 3, 4, 1, enforce_degree_rule=False)
        back = move_branch(out, 1, 4, 3, enforce_degree_rule=False)
        assert is_isomorphic(back, t)
        assert back == t  # gateway label is kept, so equality is exact

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_rule_moves_strictly_raise_delta(self, n):
        for t in enumerate_trees(n):
            before = delta_sequence(t)
            for mv in legal_moves(t):
                out = move_branch(t, *mv)
                assert len(out.edges) == n - 1
                assert compare(before, delta_sequence(out)) is (
                    ComparisonResult.STRICTLY_BELOW
                )


class TestMovePathAgainstReference:
    """move_branch and apply_moves run one checked loop on a working
    adjacency and freeze the result without re-validating it; the oracle
    rebuilds and re-validates the whole tree on every move."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_label_triple_on_every_class(self, n):
        labels = range(-1, n + 1)  # in range, plus one below and one above
        for t in enumerate_trees(n):
            for mv in itertools.product(labels, repeat=3):
                for rule in (False, True):
                    want = _outcome(move_branch_reference, t, *mv, rule)
                    got = _outcome(move_branch, t, *mv, rule)
                    if isinstance(want, Tree):
                        _assert_same_tree(got, want)
                    else:
                        assert got == want, (t, mv, rule)

    @pytest.mark.parametrize("mv", [(1, 2, 3.0), (True, 2, 3), (1, "2", 3)])
    def test_non_int_labels(self, mv):
        t = star(5)
        assert _outcome(move_branch, t, *mv) == _outcome(move_branch_reference, t, *mv)
        with pytest.raises(TypeError, match="^move labels must be ints, got "):
            apply_moves(t, [mv])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_apply_moves_folds_the_reference(self, data):
        n = data.draw(st.integers(2, 60), label="n")
        hubs = data.draw(st.integers(1, n), label="hubs")
        seq = data.draw(st.lists(st.integers(0, hubs - 1), min_size=n - 2, max_size=n - 2))
        t = tree_from_prufer(seq)
        cur, moves = t, []
        for _ in range(data.draw(st.integers(0, 15), label="length")):
            legal = legal_moves(cur)
            if not legal:
                break
            mv = data.draw(st.sampled_from(legal))
            nxt = move_branch_reference(cur, *mv)
            _assert_same_tree(move_branch(cur, *mv), nxt)
            cur = nxt
            moves.append(mv)
        _assert_same_tree(apply_moves(t, moves), cur)

    def test_apply_moves_skips_the_validating_constructor(self, monkeypatch):
        t = chain(8)
        moves = [(6, 7, 5), (4, 5, 3), (2, 3, 1)]
        want = apply_moves(t, moves)

        def refuse(self, n, edges):
            raise AssertionError("validating constructor called")

        monkeypatch.setattr(Tree, "__init__", refuse)
        assert apply_moves(t, moves) == want
        assert move_branch(t, *moves[0]) == apply_moves(t, moves[:1])

    @pytest.mark.parametrize(
        "t", [chain(6), star(5), Tree(6, [(0, 1), (1, 2), (1, 3), (3, 4), (4, 5)])]
    )
    def test_apply_moves_checks_each_move_as_move_branch_does(self, t):
        labels = range(-1, t.n + 1)
        for mv in itertools.product(labels, repeat=3):
            want = _outcome(move_branch_reference, t, *mv)
            got = _outcome(apply_moves, t, [mv])
            if isinstance(want, Tree):
                _assert_same_tree(got, want)
            else:
                assert got == want, mv

    def test_apply_moves_rejects_a_short_move(self):
        with pytest.raises(ValueError):
            apply_moves(chain(4), [(1, 2)])

    def test_apply_moves_is_the_chain_of_single_moves(self):
        rng = random.Random(32)
        t = tree_from_prufer([rng.randrange(3) for _ in range(28)])
        rows, edges = t._adj, t.sorted_edges()
        cur, moves = t, []
        for _ in range(12):
            mv = rng.choice(legal_moves(cur))
            cur = move_branch(cur, *mv)
            moves.append(mv)
        got = apply_moves(t, moves)
        _assert_same_tree(got, cur)
        assert t._adj is rows and t.sorted_edges() == edges
        # a row no move touched is the parent's own tuple, not a copy
        touched = {v for mv in moves for v in mv}
        assert touched != set(range(t.n))
        assert all(got._adj[v] is rows[v] for v in range(t.n) if v not in touched)

    @pytest.mark.parametrize(
        "g", [cycle_graph(5), Graph(4, [(0, 1), (1, 2), (2, 3)])], ids=["cycle", "path"]
    )
    def test_a_graph_is_not_moved(self, g):
        # a Graph that is not a Tree, even one with a tree's edges
        with pytest.raises(TypeError, match="^tree must be a Tree, got Graph"):
            apply_moves(g, [])
        with pytest.raises(TypeError, match="^tree must be a Tree, got Graph"):
            move_branch(g, 1, 2, 0)


def _double_broom(path_edges: int, left: int, right: int) -> Tree:
    """A path 0..path_edges with ``left`` leaves on node 0 and ``right``
    leaves on the path's far end; bicentral when ``path_edges`` is odd."""
    edges = [(k, k + 1) for k in range(path_edges)]
    nxt = path_edges + 1
    for hub, count in ((0, left), (path_edges, right)):
        edges += [(hub, leaf) for leaf in range(nxt, nxt + count)]
        nxt += count
    return Tree(nxt, edges)


class TestCoderAgainstReference:
    """The leaf-peeling coder (leaves peeled layer by layer, each node coded
    when it is peeled with its leaf children only counted, the one or two
    nodes left as the centre) against the post-order coder."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_every_class_at_every_root(self, n):
        for t in enumerate_trees(n):
            assert canonical_code(t) == _canonical_code_reference(t)

    def test_seeded_prufer_trees(self):
        for t in _seeded_prufer_trees(500, 200, seed=2024):
            assert canonical_code(t) == _canonical_code_reference(t)

    def test_smallest_trees(self):
        assert canonical_code(Tree(1, [])) == "1()"
        assert canonical_code(chain(2)) == "2()()"
        assert canonical_code(chain(3)) == canonical_code(star(3)) == "1(()())"
        for t in (Tree(1, []), chain(2), chain(3), Tree(3, [(0, 2), (1, 2)])):
            assert canonical_code(t) == _canonical_code_reference(t)

    @pytest.mark.parametrize("n", range(2, 61))
    def test_stars(self, n):
        # the centre's degree reaches 0 while the leaf layer is peeled
        last = relabel(star(n), {v: (v - 1) % n for v in range(n)})
        for t in (star(n), last):
            assert canonical_code(t) == _canonical_code_reference(t)

    def test_chains_of_both_parities(self):
        for n in range(2, 201):
            t = chain(n)
            assert canonical_code(t) == _canonical_code_reference(t)
            assert canonical_code(t)[0] == "21"[n % 2]

    @pytest.mark.parametrize("path_edges", [1, 3, 5, 7])
    def test_bicentral_double_brooms(self, path_edges):
        for left, right in itertools.product(range(1, 5), repeat=2):
            t = _double_broom(path_edges, left, right)
            mirrored = relabel(t, {v: t.n - 1 - v for v in range(t.n)})
            for u in (t, mirrored):
                assert canonical_code(u) == _canonical_code_reference(u)
                assert canonical_code(u)[0] == "2"

    @pytest.mark.parametrize("n", range(1, 10))
    def test_rooted_codes_start_with_two_brackets(self, n):
        # why a leaf's "()" can be written after every sorted sibling code
        for t in enumerate_trees(n):
            for root in range(n):
                for blocked in (None, *t.neighbors(root)):
                    code = _rooted_code_reference(t, root, blocked)
                    assert code == "()" or (code.startswith("((") and code < "()")


class TestLegalMovesAgainstReference:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_class(self, n):
        rng = random.Random(n)
        for t in enumerate_trees(n):
            assert legal_moves(t) == _legal_moves_reference(t)
            perm = list(range(n))
            rng.shuffle(perm)
            shuffled = relabel(t, dict(enumerate(perm)))
            assert legal_moves(shuffled) == _legal_moves_reference(shuffled)

    def test_seeded_prufer_trees(self):
        for t in _seeded_prufer_trees(100, 60, seed=7):
            assert legal_moves(t) == _legal_moves_reference(t)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_move_codes_make_each_legal_move(self, n):
        for t in enumerate_trees(n):
            assert successor_codes(t) == {
                _canonical_code_reference(move_branch(t, *mv)) for mv in legal_moves(t)
            }


def _first_move_per_pair(t: Tree) -> dict[tuple[int, int], tuple[int, int, int]]:
    """Oracle for pair_moves: legal_moves reduced to the first move of each
    (donor degree, target degree) pair, in legal_moves' order."""
    first = {}
    for mv in legal_moves(t):
        first.setdefault((t.degree(mv[0]), t.degree(mv[2])), mv)
    return first


class TestPairMoves:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_class(self, n):
        # order included: each class and a seeded relabelled copy of it
        rng = random.Random(n)
        for t in enumerate_trees(n):
            perm = list(range(n))
            rng.shuffle(perm)
            for u in (t, relabel(t, dict(enumerate(perm)))):
                assert list(pair_moves(u).items()) == list(_first_move_per_pair(u).items())

    def test_seeded_prufer_trees(self):
        # uniform and hub-heavy trees up to n = 300, where the smallest
        # donor's first gateway often holds every node of some degree
        for t in _seeded_prufer_trees(40, 300, seed=29):
            assert list(pair_moves(t).items()) == list(_first_move_per_pair(t).items())

    def test_second_gateway(self):
        # the donor 0's first branch, through 1, holds both other nodes of
        # degree 3, so its (3, 3) move goes through its second gateway, 5;
        # with 0 and 1 swapped, node 3 lies outside that branch
        t = Tree(8, [(0, 1), (0, 5), (0, 6), (1, 2), (1, 3), (3, 4), (3, 7)])
        assert pair_moves(t) == {(3, 3): (0, 5, 1)}
        u = relabel(t, {0: 1, 1: 0, **{v: v for v in range(2, 8)}})
        assert pair_moves(u) == {(3, 3): (0, 1, 3)}


class TestSuccessorCodes:
    def test_coded_once_per_tree(self, monkeypatch):
        # the successor set is coded once, one _peel_code call per legal
        # move, and cached as a frozenset; a tree made by a move or by
        # freezing neighbour lists starts uncached, even one equal to a
        # cached tree
        calls = []
        real = trees._peel_code
        monkeypatch.setattr(trees, "_peel_code", lambda *a: calls.append(1) or real(*a))
        t = tree_from_prufer([0, 0, 1, 2, 2, 5])
        first = successor_codes(t)
        assert successor_codes(t) is first
        assert type(first) is frozenset
        assert len(calls) == len(legal_moves(t)) > len(first)
        moved = move_branch(t, *legal_moves(t)[0])
        frozen = freeze([list(t.neighbors(v)) for v in range(t.n)])
        assert frozen == t
        for fresh in (moved, frozen):
            want = {canonical_code(move_branch(fresh, *mv)) for mv in legal_moves(fresh)}
            calls.clear()
            assert successor_codes(fresh) == want
            assert successor_codes(fresh) is successor_codes(fresh)
            assert len(calls) == len(legal_moves(fresh))

    def test_an_interrupted_coding_caches_nothing(self, monkeypatch):
        # the set is cached only once every move is coded, so a coding cut
        # short leaves the tree uncached and the next call codes it whole
        t = tree_from_prufer([0, 0, 1, 2, 2, 5])
        want = {canonical_code(move_branch(t, *mv)) for mv in legal_moves(t)}
        real = trees._peel_code
        calls = []

        def cut(*a):
            calls.append(1)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return real(*a)

        monkeypatch.setattr(trees, "_peel_code", cut)
        with pytest.raises(KeyboardInterrupt):
            successor_codes(t)
        assert t._successors is None
        monkeypatch.setattr(trees, "_peel_code", real)
        assert successor_codes(t) == want


class TestCanonicalCode:
    def test_relabeling_invariance(self):
        rng = random.Random(7)
        for t in enumerate_trees(7):
            code = canonical_code(t)
            for _ in range(5):
                perm = list(range(t.n))
                rng.shuffle(perm)
                assert canonical_code(relabel(t, dict(enumerate(perm)))) == code

    def test_chain_vs_star(self):
        assert canonical_code(chain(4)) != canonical_code(star(4))

    def test_all_labeled_trees_on_four_nodes(self):
        # 4^2 = 16 labeled trees fall into exactly 2 classes
        codes = {
            canonical_code(tree_from_prufer(seq))
            for seq in itertools.product(range(4), repeat=2)
        }
        assert len(codes) == 2

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_matches_permutation_search(self, n):
        classes = enumerate_trees(n)
        rng = random.Random(n)
        for t1 in classes:
            for t2 in classes:
                expected = t1 is t2
                assert brute_force_isomorphic(t1, t2) == expected
                assert is_isomorphic(t1, t2) == expected
            perm = list(range(n))
            rng.shuffle(perm)
            shuffled = relabel(t1, dict(enumerate(perm)))
            assert is_isomorphic(t1, shuffled)
            assert brute_force_isomorphic(t1, shuffled)

    def test_isomorphic_implies_same_delta(self):
        for t in enumerate_trees(6):
            shuffled = relabel(t, dict(enumerate(reversed(range(6)))))
            assert delta_sequence(shuffled) == delta_sequence(t)


class TestCenters:
    def test_even_chain_two_centers(self):
        assert _center_reference(chain(4)) == (1, 2)
        assert centroids(chain(4)) == (1, 2)

    def test_odd_chain_one_center(self):
        assert _center_reference(chain(5)) == (2,)
        assert centroids(chain(5)) == (2,)

    def test_star_center(self):
        assert _center_reference(star(6)) == (0,)
        assert centroids(star(6)) == (0,)


class TestGraphs:
    def test_disconnected_rejected(self):
        with pytest.raises(NotConnected):
            Graph(4, [(0, 1), (2, 3)])

    def test_degree_sequence(self):
        assert delta_sequence(complete_graph(4)).values == (3, 3, 3, 3)
        assert delta_sequence(cycle_graph(5)).values == (2, 2, 2, 2, 2)


class TestTreeText:
    def test_round_trip(self):
        t = Tree(5, [(0, 2), (2, 1), (2, 3), (3, 4)])
        assert parse_tree(format_tree(t)) == t

    def test_dict_round_trip(self):
        t = star(5)
        assert tree_from_dict(tree_to_dict(t)) == t

    @pytest.mark.parametrize("field", ["n", "edges"])
    def test_dict_missing_field_is_parse_error(self, field):
        data = tree_to_dict(chain(3))
        del data[field]
        with pytest.raises(ParseError, match=repr(field)):
            tree_from_dict(data)

    def test_dict_rejects_float_label(self):
        with pytest.raises(TypeError, match="^edge labels must be ints, got "):
            tree_from_dict({"n": 3, "edges": [[0, 1.9], [1, 2]]})

    @pytest.mark.parametrize(
        "data",
        [
            [3, [[0, 1], [1, 2]]],  # a list, not an object
            {"n": 3, "edges": [[0, 1, 2], [1, 2]]},  # an edge of three labels
            {"n": 3, "edges": [[0, 1], 2]},  # an edge that is not a list
            {"n": 3, "edges": "0 1 1 2"},  # edges that are not a list
        ],
    )
    def test_dict_wrong_shape_is_parse_error(self, data):
        with pytest.raises(ParseError):
            tree_from_dict(data)

    def test_parse_rejects_self_loop(self):
        with pytest.raises(ParseError):
            parse_tree("3\n0 0\n1 2")

    def test_parse_rejects_duplicate(self):
        with pytest.raises(ParseError):
            parse_tree("3\n0 1\n1 0")

    def test_parse_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_tree("two\n0 1")
        with pytest.raises(ParseError):
            parse_tree("")

    def test_dot_output(self):
        dot = tree_to_dot(chain(3))
        assert dot.startswith("graph tree {")
        assert "  0 -- 1;" in dot and "  1 -- 2;" in dot
        assert dot.endswith("}")
