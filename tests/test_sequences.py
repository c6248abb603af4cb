"""Degree-sequence values, validation, comparison, Lorenz curves."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from treemajor import (
    CONVEX_TEST_FAMILY,
    ComparisonResult,
    DeltaSequence,
    LengthMismatch,
    NonPositiveDegree,
    NotTreeFeasible,
    ParseError,
    compare,
    convex_functional,
    delta_census,
    lorenz_curve,
    majorization_gap,
    parse_sequence,
    prefix_sums,
    validate_tree_sequence,
)

positive_seqs = st.lists(st.integers(1, 9), min_size=1, max_size=10).map(
    DeltaSequence
)


class TestDeltaSequence:
    def test_resorts_input(self):
        s = DeltaSequence([1, 5, 2, 1, 2, 1, 1, 1])
        assert s.values == (5, 2, 2, 1, 1, 1, 1, 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveDegree):
            DeltaSequence([2, 0])
        with pytest.raises(NonPositiveDegree):
            DeltaSequence([-1, 3])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DeltaSequence([])

    @pytest.mark.parametrize("values", [[2.7, 1.2], [True, True], ["3", "1"]])
    def test_rejects_non_int(self, values):
        with pytest.raises(TypeError):
            DeltaSequence(values)

    def test_immutable(self):
        s = DeltaSequence([2, 1, 1])
        with pytest.raises(AttributeError):
            s.values = (3,)

    def test_hash_eq(self):
        assert DeltaSequence([1, 2]) == DeltaSequence([2, 1])
        assert hash(DeltaSequence([1, 2])) == hash(DeltaSequence([2, 1]))

    @pytest.mark.parametrize(
        "round_trip",
        [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_and_pickles(self, round_trip):
        s = DeltaSequence([3, 2, 1, 1, 1])
        other = round_trip(s)
        assert type(other) is DeltaSequence
        assert other == s and hash(other) == hash(s)
        with pytest.raises(AttributeError):
            other.values = (3,)


class TestValidateTreeSequence:
    def test_valid_eight_node(self):
        s = validate_tree_sequence([5, 2, 2, 1, 1, 1, 1, 1])
        assert s.total == 14 and s.tree_feasible

    def test_valid_single_edge(self):
        assert validate_tree_sequence([1, 1]).tree_feasible

    def test_wrong_total(self):
        with pytest.raises(NotTreeFeasible):
            validate_tree_sequence([3, 1])

    def test_nonpositive_distinguishable(self):
        with pytest.raises(NonPositiveDegree):
            validate_tree_sequence([2, 0])

    @pytest.mark.parametrize("n", range(2, 11))
    def test_total_degree_bounds(self, n):
        # 2(n-1) <= total <= n(n-1) for every feasible sequence
        for s in delta_census(n):
            assert 2 * (n - 1) == s.total <= n * (n - 1)


class TestPrefixSums:
    @pytest.mark.parametrize(
        "values,expected",
        [
            ((5, 2, 2, 1, 1, 1, 1, 1), (5, 7, 9, 10, 11, 12, 13, 14)),
            ((1, 1), (1, 2)),
            ((2, 2, 2, 2, 2, 2, 1, 1), (2, 4, 6, 8, 10, 12, 13, 14)),
        ],
    )
    def test_examples(self, values, expected):
        assert prefix_sums(DeltaSequence(values)) == expected

    @given(positive_seqs)
    def test_monotone_and_total(self, s):
        acc = prefix_sums(s)
        assert all(a < b for a, b in zip(acc, acc[1:]))
        assert acc[-1] == s.total


class TestCompare:
    def test_incomparable_pair_n8(self):
        x = DeltaSequence([5, 2, 2, 1, 1, 1, 1, 1])
        y = DeltaSequence([4, 4, 1, 1, 1, 1, 1, 1])
        assert compare(x, y) is ComparisonResult.INCOMPARABLE

    def test_chain_below_concentrated(self):
        x = DeltaSequence([2, 2, 2, 2, 2, 2, 1, 1])
        y = DeltaSequence([5, 2, 2, 1, 1, 1, 1, 1])
        assert compare(x, y) is ComparisonResult.STRICTLY_BELOW

    def test_reflexive(self):
        s = DeltaSequence([4, 3, 2, 1, 1, 1])
        assert compare(s, s) is ComparisonResult.EQUAL

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            compare(DeltaSequence([1, 1]), DeltaSequence([2, 1, 1]))

    @pytest.mark.parametrize("other", [(2, 1, 1), [2, 1, 1], "211"])
    def test_not_a_delta_sequence(self, other):
        # a plain tuple or list of degrees is not coerced, on either side
        s = DeltaSequence([2, 1, 1])
        pattern = "^sequence must be a DeltaSequence, got "
        with pytest.raises(TypeError, match=pattern):
            compare(other, s)
        with pytest.raises(TypeError, match=pattern):
            compare(s, other)

    def test_unequal_totals_allowed(self):
        # generalized order: complete-graph degrees dominate the chain's
        chain4 = DeltaSequence([2, 2, 1, 1])
        k4 = DeltaSequence([3, 3, 3, 3])
        assert compare(chain4, k4) is ComparisonResult.STRICTLY_BELOW

    @given(positive_seqs, positive_seqs)
    def test_mirror_symmetry(self, x, y):
        if len(x) != len(y):
            return
        fwd, bwd = compare(x, y), compare(y, x)
        mirror = {
            ComparisonResult.EQUAL: ComparisonResult.EQUAL,
            ComparisonResult.STRICTLY_BELOW: ComparisonResult.STRICTLY_ABOVE,
            ComparisonResult.STRICTLY_ABOVE: ComparisonResult.STRICTLY_BELOW,
            ComparisonResult.INCOMPARABLE: ComparisonResult.INCOMPARABLE,
        }
        assert bwd is mirror[fwd]

    def test_partial_order_on_census_n8(self):
        census = delta_census(8)
        below_or_eq = {
            (a, b)
            for a in census
            for b in census
            if compare(a, b)
            in (ComparisonResult.EQUAL, ComparisonResult.STRICTLY_BELOW)
        }
        # reflexive
        assert all((a, a) in below_or_eq for a in census)
        # antisymmetric
        for a, b in below_or_eq:
            if (b, a) in below_or_eq:
                assert a == b
        # transitive
        for a, b in below_or_eq:
            for c in census:
                if (b, c) in below_or_eq:
                    assert (a, c) in below_or_eq


class TestLorenzCurve:
    def test_single_edge_diagonal(self):
        curve = lorenz_curve(DeltaSequence([1, 1]), normalized=True)
        assert curve.points == (
            (Fraction(0), Fraction(0)),
            (Fraction(1, 2), Fraction(1, 2)),
            (Fraction(1), Fraction(1)),
        )

    def test_non_normalized_point(self):
        curve = lorenz_curve(
            DeltaSequence([5, 2, 2, 1, 1, 1, 1, 1]), normalized=False
        )
        assert curve.points[3] == (Fraction(3), Fraction(9))
        assert curve.points[0] == (Fraction(0), Fraction(0))
        assert curve.points[-1] == (Fraction(8), Fraction(14))

    def test_normalized_point(self):
        curve = lorenz_curve(DeltaSequence([3, 1]), normalized=True)
        assert curve.points[1] == (Fraction(1, 2), Fraction(3, 4))
        assert curve.points[-1] == (Fraction(1), Fraction(1))

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_concavity_over_census(self, n):
        for s in delta_census(n):
            for normalized in (True, False):
                pts = lorenz_curve(s, normalized).points
                slopes = [
                    (y1 - y0) / (x1 - x0)
                    for (x0, y0), (x1, y1) in zip(pts, pts[1:])
                ]
                assert all(a >= b for a, b in zip(slopes, slopes[1:]))
                assert all(
                    y1 >= y0 for (_, y0), (_, y1) in zip(pts, pts[1:])
                )

    def test_dominance_matches_curve_order_n8(self):
        # strict dominance <=> the upper curve sits pointwise above, with
        # some strict gap, at the shared vertices (equal totals on a census)
        census = delta_census(8)
        for x in census:
            cx = lorenz_curve(x, normalized=True)
            for y in census:
                cy = lorenz_curve(y, normalized=True)
                above = all(
                    py >= px
                    for (_, px), (_, py) in zip(cx.points, cy.points)
                )
                strict = any(
                    py > px
                    for (_, px), (_, py) in zip(cx.points, cy.points)
                )
                assert (compare(x, y) is ComparisonResult.STRICTLY_BELOW) == (
                    above and strict
                )


class TestConvexFunctional:
    def test_linear_gives_total(self):
        s = DeltaSequence([5, 2, 2, 1, 1, 1, 1, 1])
        assert convex_functional(s, lambda t: t) == s.total == 14

    def test_square_values(self):
        assert convex_functional(
            DeltaSequence([2, 2, 2, 2, 2, 2, 1, 1]), lambda t: t * t
        ) == 26
        assert convex_functional(
            DeltaSequence([5, 2, 2, 1, 1, 1, 1, 1]), lambda t: t * t
        ) == 38

    def test_hinge_on_leaves(self):
        assert convex_functional(DeltaSequence([1, 1]), lambda t: max(t - 2, 0)) == 0

    def test_monotone_along_order_n8(self):
        census = delta_census(8)
        for x in census:
            for y in census:
                if compare(x, y) is not ComparisonResult.STRICTLY_BELOW:
                    continue
                for _, phi in CONVEX_TEST_FAMILY:
                    assert convex_functional(x, phi) <= convex_functional(y, phi)


class TestMajorizationGap:
    def test_gap_positive_below(self):
        x = DeltaSequence([2, 2, 2, 2, 2, 2, 1, 1])
        y = DeltaSequence([5, 2, 2, 1, 1, 1, 1, 1])
        # prefix differences 3,3,3,2,1,0,0,0
        assert majorization_gap(x, y) == 12
        assert majorization_gap(x, x) == 0


class TestParsing:
    @pytest.mark.parametrize(
        "text",
        ["5,2,2,1,1,1,1,1", "(5, 2, 2, 1, 1, 1, 1, 1)", "5 2 2 1 1 1 1 1", "1,5 2,1 2 1 1 1"],
    )
    def test_accepts_separators_and_order(self, text):
        assert parse_sequence(text).values == (5, 2, 2, 1, 1, 1, 1, 1)

    def test_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_sequence("2, x, 1")
        with pytest.raises(ParseError):
            parse_sequence("   ")

    def test_round_trip(self):
        s = DeltaSequence([4, 3, 2, 1, 1, 1])
        assert parse_sequence(str(s)) == s
