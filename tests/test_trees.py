"""Trees, branches, branch moves, canonical codes, graphs."""

import itertools
import random

import pytest

from treemajor import (
    ComparisonResult,
    DegreeRuleViolation,
    DonorIsLeaf,
    Graph,
    NotConnected,
    ParseError,
    Tree,
    WouldDisconnect,
    branch_members,
    branches_at,
    canonical_code,
    center,
    centroids,
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
    star,
    tree_from_dict,
    tree_from_prufer,
    tree_to_dict,
    tree_to_dot,
)


def relabel(t: Tree, perm: dict[int, int]) -> Tree:
    return Tree(t.n, [(perm[u], perm[v]) for u, v in t.edges])


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
        with pytest.raises(TypeError):
            cls(n, edges)

    def test_disconnected(self):
        # right edge count, but a triangle plus an isolated node
        with pytest.raises(NotConnected):
            Tree(4, [(0, 1), (1, 2), (2, 0)])

    def test_single_node(self):
        t = Tree(1, [])
        assert t.n == 1 and not t.edges


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

    def test_missing_edge(self):
        with pytest.raises(ValueError):
            branch_members(chain(4), 0, 2)


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
            for mv in legal_moves(t, enforce_degree_rule=True):
                out = move_branch(t, *mv)
                assert len(out.edges) == n - 1
                assert compare(before, delta_sequence(out)) is (
                    ComparisonResult.STRICTLY_BELOW
                )


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
        assert center(chain(4)) == (1, 2)
        assert centroids(chain(4)) == (1, 2)

    def test_odd_chain_one_center(self):
        assert center(chain(5)) == (2,)
        assert centroids(chain(5)) == (2,)

    def test_star_center(self):
        assert center(star(6)) == (0,)
        assert centroids(star(6)) == (0,)


class TestGraphs:
    def test_disconnected_rejected(self):
        with pytest.raises(NotConnected):
            Graph(4, [(0, 1), (2, 3)])

    def test_degree_sequence(self):
        assert complete_graph(4).degree_sequence().values == (3, 3, 3, 3)
        assert cycle_graph(5).degree_sequence().values == (2, 2, 2, 2, 2)


class TestTreeText:
    def test_round_trip(self):
        t = Tree(5, [(0, 2), (2, 1), (2, 3), (3, 4)])
        assert parse_tree(format_tree(t)) == t

    def test_dict_round_trip(self):
        t = star(5)
        assert tree_from_dict(tree_to_dict(t)) == t

    def test_dict_rejects_float_label(self):
        with pytest.raises(TypeError):
            tree_from_dict({"n": 3, "edges": [[0, 1.9], [1, 2]]})

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
