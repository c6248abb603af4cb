"""Free-tree enumeration, the degree-sequence census, and the Prufer oracle."""

import itertools

import pytest

from treemajor import (
    BoundExceeded,
    DeltaSequence,
    LengthMismatch,
    NotTreeFeasible,
    Tree,
    canonical_code,
    delta_census,
    delta_sequence,
    enumerate_trees,
    is_isomorphic,
    realize_direct,
    star,
    tree_from_prufer,
    trees_with_delta,
)
from treemajor import enumeration
from treemajor.enumeration import (
    MAX_NODES,
    _level_sequences,
    _prufer_edges,
    _tree_from_levels,
)
from oracles import (
    centroids,
    enumerate_trees_bruteforce,
    free_tree_count,
    rooted_level_sequences,
    rooted_tree_counts,
)
from test_trees import _rooted_code_reference

# counts of rooted and free trees by node count (standard references, OEIS
# A000081 and A000055; the free counts run up to MAX_NODES)
ROOTED_COUNTS = {
    1: 1, 2: 1, 3: 2, 4: 4, 5: 9, 6: 20, 7: 48, 8: 115, 9: 286, 10: 719,
    11: 1842, 12: 4766,
}
FREE_COUNTS = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106,
    11: 235, 12: 551, 13: 1301, 14: 3159, 15: 7741, 16: 19320,
}


def _validated_tree_from_levels(levels):
    # each node's parent is the last node one level up; built by the
    # validating constructor
    edges = []
    last_at_level = [0] * len(levels)
    for v, lvl in enumerate(levels[1:], 1):
        edges.append((last_at_level[lvl - 1], v))
        last_at_level[lvl] = v
    return Tree(len(levels), edges)


def _enumerate_trees_reference(n):
    """The filter on built trees: validate a Tree for every rooted level
    sequence of the oracle walk, keep it iff its root is a centroid, and of
    a bicentroidal tree's two rootings keep the one whose half codes no
    lower."""
    out = []
    for levels in rooted_level_sequences(n):
        t = _validated_tree_from_levels(levels)
        cents = centroids(t)
        if 0 not in cents:
            continue
        if len(cents) == 2:
            other = cents[1] if cents[0] == 0 else cents[0]
            if _rooted_code_reference(t, 0, other) < _rooted_code_reference(t, other, 0):
                continue
        out.append(t)
    out.sort(key=canonical_code)
    return out


class TestLevelSequences:
    """The oracle walk over every rooted tree."""

    @pytest.mark.parametrize("n,count", sorted(ROOTED_COUNTS.items()))
    def test_rooted_tree_counts(self, n, count):
        assert sum(1 for _ in rooted_level_sequences(n)) == count == rooted_tree_counts(n)[n]

    def test_descending_lexicographic(self):
        seqs = [tuple(s) for s in rooted_level_sequences(6)]
        assert seqs == sorted(seqs, reverse=True)
        assert seqs[0] == (0, 1, 2, 3, 4, 5)
        assert seqs[-1] == (0, 1, 1, 1, 1, 1)


class TestEnumerateTrees:
    @pytest.mark.parametrize("n,count", sorted(FREE_COUNTS.items()))
    def test_class_counts(self, n, count):
        assert len(enumerate_trees(n)) == count == free_tree_count(n)

    def test_class_counts_cover_every_accepted_n(self):
        assert sorted(FREE_COUNTS) == list(range(1, MAX_NODES + 1))

    def test_pairwise_non_isomorphic(self):
        for n in (5, 6, 7, 8):
            codes = [canonical_code(t) for t in enumerate_trees(n)]
            assert len(codes) == len(set(codes))

    def test_sorted_by_code(self):
        codes = [canonical_code(t) for t in enumerate_trees(8)]
        assert codes == sorted(codes)

    def test_single_node(self):
        (t,) = enumerate_trees(1)
        assert t == Tree(1, [])

    def test_four_nodes(self):
        classes = enumerate_trees(4)
        assert len(classes) == 2
        codes = {canonical_code(t) for t in classes}
        from treemajor import chain

        assert codes == {canonical_code(chain(4)), canonical_code(star(4))}

    def test_bound(self):
        with pytest.raises(BoundExceeded, match=f"^enumeration supports n <= {MAX_NODES}, got "):
            enumerate_trees(MAX_NODES + 1)
        with pytest.raises(ValueError, match="^enumeration needs n >= 1, got 0$"):
            enumerate_trees(0)

    @pytest.mark.parametrize("n", [True, False, 2.0, "3", None])
    def test_non_int_node_count(self, n):
        with pytest.raises(TypeError, match=f"^node count must be an int, got {n!r}$"):
            enumerate_trees(n)

    @pytest.mark.parametrize("n", range(1, 15))
    def test_matches_reference_filter(self, n):
        # same labels and same order, not just the same classes; equal trees
        # also hold equal sorted neighbour tuples
        got, want = enumerate_trees(n), _enumerate_trees_reference(n)
        assert [t.edges for t in got] == [t.edges for t in want]
        assert got == want

    @pytest.mark.parametrize("n", range(2, 13, 2))
    def test_rooted_at_a_centroid(self, n):
        for t in enumerate_trees(n):
            cents = centroids(t)
            assert 0 in cents
            if len(cents) == 2:
                other = cents[1] if cents[0] == 0 else cents[0]
                assert _rooted_code_reference(t, 0, other) >= _rooted_code_reference(
                    t, other, 0
                )

    @pytest.mark.parametrize("n", [5, 6, 8, 9, 10, 11, 12])
    def test_tree_built_only_for_a_kept_class(self, n, monkeypatch):
        # the rejected rooting of a bicentroidal tree builds no Tree either,
        # and no kept one goes through the validating constructor
        builds = []
        validated = []

        def counting(levels):
            builds.append(tuple(levels))
            return _tree_from_levels(levels)

        def validating(self, *args):
            validated.append(args)

        monkeypatch.setattr(enumeration, "_tree_from_levels", counting)
        monkeypatch.setattr(Tree, "__init__", validating)
        assert len(enumerate_trees(n)) == FREE_COUNTS[n] == len(builds)
        assert validated == []

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_bruteforce_oracle(self, n):
        # the oracle walks all n^(n-2) Prufer sequences; the generator walks
        # canonical level sequences -- fully independent routes
        gen = {canonical_code(t) for t in enumerate_trees(n)}
        oracle = {canonical_code(t) for t in enumerate_trees_bruteforce(n)}
        assert gen == oracle


class TestCentroidFilter:
    """Hand-built level sequences at the n/2 boundary of the largest root
    branch.  Each is a canonical sequence of the oracle walk; the kept walk
    yields the kept ones and skips the rejected ones."""

    # both rootings of a bicentroidal tree: the kept one, whose half codes
    # no lower than the other centroid's, and the rejected one
    ROOTINGS = [
        ([0, 1, 2, 3, 4, 1, 1, 1], [0, 1, 2, 3, 1, 2, 2, 2]),
        ([0, 1, 2, 3, 1, 1], [0, 1, 2, 2, 1, 2]),
    ]

    @pytest.mark.parametrize("kept,rejected", ROOTINGS)
    def test_branch_of_exactly_half(self, kept, rejected):
        n = len(kept)
        rooted = list(rooted_level_sequences(n))
        walk = list(_level_sequences(n))
        assert kept in rooted and kept in walk
        assert rejected in rooted and rejected not in walk
        t = _tree_from_levels(kept)
        c0, twin = centroids(t)
        assert c0 == 0
        assert _rooted_code_reference(t, 0, twin) > _rooted_code_reference(t, twin, 0)
        other = _tree_from_levels(rejected)
        assert len(centroids(other)) == 2
        assert is_isomorphic(other, t)

    @pytest.mark.parametrize("n", range(2, 15, 2))
    def test_half_comparison_matches_the_coded_halves(self, n):
        # the rule on built trees as the oracle: code both halves and keep
        # the rooting whose own half codes no lower
        walk = {tuple(levels) for levels in _level_sequences(n)}
        checked = 0
        for levels in rooted_level_sequences(n):
            starts = [v for v in range(1, n) if levels[v] == 1]
            sizes = [end - start for start, end in zip(starts, starts[1:] + [n])]
            if 2 * max(sizes) != n:
                continue
            twin = starts[sizes.index(n // 2)]
            t = _tree_from_levels(levels)
            kept = _rooted_code_reference(t, 0, twin) >= _rooted_code_reference(t, twin, 0)
            assert (tuple(levels) in walk) == kept, levels
            checked += 1
        assert checked > 0

    def test_branch_of_exactly_half_with_equal_halves(self):
        # one edge: both ends are centroids and the two rootings coincide
        assert list(_level_sequences(2)) == [[0, 1]]
        assert centroids(_tree_from_levels([0, 1])) == (0, 1)

    @pytest.mark.parametrize(
        "levels",
        [
            [0, 1, 2, 3, 4, 5, 1, 1],  # 5 of 8
            [0, 1, 2, 2, 2, 1, 1],  # 4 of 7
            [0, 1, 2, 3, 1, 2, 2, 2, 2],  # 5 of 9, and the larger branch comes second
            [0, 1, 2],  # 2 of 3
        ],
    )
    def test_branch_above_half_rejected(self, levels):
        assert levels in list(rooted_level_sequences(len(levels)))
        assert levels not in list(_level_sequences(len(levels)))
        assert 0 not in centroids(_tree_from_levels(levels))


class TestPrufer:
    def test_star_decoding(self):
        t = tree_from_prufer([0, 0])
        assert is_isomorphic(t, star(4))
        assert t.degree(0) == 3

    def test_chain_decoding(self):
        t = tree_from_prufer([1, 2])
        assert delta_sequence(t).values == (2, 2, 1, 1)

    def test_bijection_on_four_nodes(self):
        trees = {
            tree_from_prufer(list(seq)).edges
            for seq in itertools.product(range(4), repeat=2)
        }
        assert len(trees) == 16  # 4^2 distinct labeled trees

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            tree_from_prufer([5, 0])

    @pytest.mark.parametrize("label", [True, 1.0, "1", None])
    def test_non_int_label(self, label):
        with pytest.raises(TypeError, match="^Prufer labels must be ints, got "):
            tree_from_prufer([0, label])

    def test_equals_the_validated_build(self):
        # the decoded edges are built without re-validation; every Prufer
        # sequence on 6 nodes gives the tree the validating constructor gives
        for seq in itertools.product(range(6), repeat=4):
            t = tree_from_prufer(seq)
            assert t == Tree(6, _prufer_edges(seq, 6))


class TestDeltaCensus:
    def test_three_nodes(self):
        assert delta_census(3) == [DeltaSequence([2, 1, 1])]

    def test_four_nodes(self):
        assert delta_census(4) == [
            DeltaSequence([3, 1, 1, 1]),
            DeltaSequence([2, 2, 1, 1]),
        ]

    def test_eight_nodes_contains_known_pair(self):
        census = delta_census(8)
        assert DeltaSequence([5, 2, 2, 1, 1, 1, 1, 1]) in census
        assert DeltaSequence([4, 4, 1, 1, 1, 1, 1, 1]) in census

    def test_descending_order(self):
        values = [s.values for s in delta_census(9)]
        assert values == sorted(values, reverse=True)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_census_equals_realized_deltas(self, n):
        from_classes = {delta_sequence(t) for t in enumerate_trees(n)}
        assert set(delta_census(n)) == from_classes

    @pytest.mark.parametrize("n", range(2, 11))
    def test_structural_bounds(self, n):
        for s in delta_census(n):
            assert s.tree_feasible
            assert max(s.values) <= n - 1
            assert sum(1 for v in s.values if v == 1) >= 2  # two leaves always

    def test_needs_two_nodes(self):
        with pytest.raises(ValueError, match="^census needs n >= 2, got 1$"):
            delta_census(1)

    @pytest.mark.parametrize("n", [True, False, 2.0, "3", None])
    def test_non_int_node_count(self, n):
        with pytest.raises(TypeError, match=f"^node count must be an int, got {n!r}$"):
            delta_census(n)


class TestTreesWithDelta:
    def test_two_classes_for_hub_with_two_inner_nodes(self):
        # a degree-5 hub forces pendant-path branches; the two degree-2
        # nodes either share one branch or split across two -- 2 shapes
        classes = trees_with_delta(8, DeltaSequence([5, 2, 2, 1, 1, 1, 1, 1]))
        assert len(classes) == 2

    def test_double_star_is_unique(self):
        target = DeltaSequence([4, 4, 1, 1, 1, 1, 1, 1])
        classes = trees_with_delta(8, target)
        assert len(classes) == 1
        assert is_isomorphic(classes[0], realize_direct(target))

    def test_star_is_unique(self):
        classes = trees_with_delta(4, DeltaSequence([3, 1, 1, 1]))
        assert len(classes) == 1
        assert is_isomorphic(classes[0], star(4))

    def test_infeasible_rejected(self):
        with pytest.raises(NotTreeFeasible, match="^degree total 8 != "):
            trees_with_delta(4, DeltaSequence([3, 3, 1, 1]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(LengthMismatch):
            trees_with_delta(5, DeltaSequence([2, 2, 1, 1]))

    @pytest.mark.parametrize("n", [True, False, 4.0, "4", None])
    def test_non_int_node_count(self, n):
        # checked before the sequence: "4" has the length of a 4-node one
        with pytest.raises(TypeError, match=f"^node count must be an int, got {n!r}$"):
            trees_with_delta(n, DeltaSequence([2, 2, 1, 1]))

    @pytest.mark.parametrize("s", [(2, 2, 1, 1), [2, 2, 1, 1], None])
    def test_non_sequence_rejected(self, s):
        with pytest.raises(TypeError, match="^sequence must be a DeltaSequence, got "):
            trees_with_delta(4, s)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_classes_partition_by_delta(self, n):
        total = sum(len(trees_with_delta(n, s)) for s in delta_census(n))
        assert total == len(enumerate_trees(n))
