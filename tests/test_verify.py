"""Order structure, reachability closures, certificates, diagrams, samplers."""

import random

import pytest

from treemajor import (
    BoundExceeded,
    ComparisonResult,
    DeltaSequence,
    Graph,
    MoveTrace,
    NotMajorized,
    OrderReport,
    ReachabilityCertificate,
    canonical_code,
    certify_reachability,
    chain,
    check_certificate,
    check_total_order,
    closure_is_closed,
    compare,
    covering_relations,
    delta_census,
    delta_sequence,
    enumerate_trees,
    find_move_trace,
    find_unreachable_pair,
    hasse_diagram,
    random_connected_graph,
    reachability_closure,
    reachable_classes,
    standard_graph_suite,
    star,
    verify_chain_minimality,
    verify_convex_monotonicity,
    verify_majorization_reachability,
)


class TestTotalOrder:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_total_up_to_seven(self, n):
        report = check_total_order(n)
        assert report.is_total and report.witness is None

    def test_first_witness_at_eight(self):
        report = check_total_order(8)
        assert not report.is_total
        assert report.witness == (
            DeltaSequence([5, 2, 2, 1, 1, 1, 1, 1]),
            DeltaSequence([4, 4, 1, 1, 1, 1, 1, 1]),
        )

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_not_total_beyond_seven(self, n):
        report = check_total_order(n)
        assert not report.is_total
        a, b = report.witness
        assert compare(a, b) is ComparisonResult.INCOMPARABLE

    def test_hub_family_witness_at_nine(self):
        # one concrete incomparable pair at n=9: a degree-5 hub tree versus
        # a double-4 tree
        a = DeltaSequence([5, 2, 2, 2, 1, 1, 1, 1, 1])
        b = DeltaSequence([4, 4, 2, 1, 1, 1, 1, 1, 1])
        assert compare(a, b) is ComparisonResult.INCOMPARABLE

    def test_report_consistency_guard(self):
        with pytest.raises(ValueError):
            OrderReport(n=4, is_total=True, witness=(
                DeltaSequence([2, 2, 1, 1]), DeltaSequence([3, 1, 1, 1])
            ))


class TestReachability:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_chain_reaches_every_class(self, n):
        assert reachable_classes(chain(n)) == {
            canonical_code(t) for t in enumerate_trees(n)
        }

    @pytest.mark.parametrize("n", range(3, 9))
    def test_star_reaches_only_itself(self, n):
        assert reachable_classes(star(n)) == {canonical_code(star(n))}

    def test_contains_self(self):
        for t in enumerate_trees(6):
            assert canonical_code(t) in reachable_classes(t)

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_closure_monotone_in_delta(self, n):
        for t in enumerate_trees(n):
            base = delta_sequence(t)
            for rep in reachability_closure(t):
                assert compare(base, delta_sequence(rep)) in (
                    ComparisonResult.EQUAL,
                    ComparisonResult.STRICTLY_BELOW,
                )

    def test_closures_are_closed(self):
        for t in enumerate_trees(7):
            assert closure_is_closed(reachability_closure(t))

    def test_bound_enforced(self):
        with pytest.raises(BoundExceeded):
            reachable_classes(chain(11))


class TestMoveTraces:
    def test_trace_to_star(self):
        trace = find_move_trace(chain(6), DeltaSequence([5, 1, 1, 1, 1, 1]))
        assert trace is not None
        assert delta_sequence(trace.final).values == (5, 1, 1, 1, 1, 1)

    def test_no_trace_downward(self):
        assert find_move_trace(star(6), delta_sequence(chain(6))) is None

    def test_zero_move_trace(self):
        trace = find_move_trace(chain(6), delta_sequence(chain(6)))
        assert trace is not None and trace.moves == ()


class TestCertificates:
    def test_positive_certificate(self):
        cert = certify_reachability(chain(7), DeltaSequence([4, 3, 1, 1, 1, 1, 1]))
        assert cert.trace is not None and cert.closure is None
        assert check_certificate(cert)

    def test_negative_certificate(self):
        cert = certify_reachability(star(7), delta_sequence(chain(7)))
        assert cert.closure is not None and cert.trace is None
        assert check_certificate(cert)

    def test_tampered_positive_fails(self):
        cert = certify_reachability(chain(7), DeltaSequence([4, 3, 1, 1, 1, 1, 1]))
        forged = ReachabilityCertificate(
            source=star(7),
            target_delta=cert.target_delta,
            trace=cert.trace,
            closure=None,
        )
        assert not check_certificate(forged)

    def test_tampered_negative_fails(self):
        cert = certify_reachability(star(7), delta_sequence(chain(7)))
        forged = ReachabilityCertificate(
            source=star(7),
            target_delta=delta_sequence(star(7)),  # target IS in the closure
            trace=None,
            closure=cert.closure,
        )
        assert not check_certificate(forged)

    @pytest.mark.parametrize(
        "move",
        [
            (1, 2, 0),  # leaf target below the donor's degree
            (0, 2, 3),  # (0, 2) is not an edge
            (1, 2, 7),  # target outside 0..6
        ],
    )
    def test_rule_breaking_trace_fails(self, move):
        t = chain(7)
        forged = ReachabilityCertificate(
            source=t,
            target_delta=delta_sequence(t),
            trace=MoveTrace(initial=t, moves=(move,), final=t),
            closure=None,
        )
        assert not check_certificate(forged)

    def test_non_int_trace_label_raises(self):
        t = chain(7)
        forged = ReachabilityCertificate(
            source=t,
            target_delta=delta_sequence(t),
            trace=MoveTrace(initial=t, moves=((1, 2, 4.0),), final=t),
            closure=None,
        )
        with pytest.raises(TypeError):
            check_certificate(forged)

    def test_exactly_one_side_required(self):
        with pytest.raises(ValueError):
            ReachabilityCertificate(
                source=star(4),
                target_delta=DeltaSequence([3, 1, 1, 1]),
                trace=None,
                closure=None,
            )


class TestMajorizationReachability:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_holds_exhaustively(self, n):
        ok, certificates = verify_majorization_reachability(n)
        assert ok and certificates == []

    def test_vacuous_single_census_entry(self):
        ok, certificates = verify_majorization_reachability(3)
        assert ok and certificates == []

    def test_bound_enforced(self):
        with pytest.raises(BoundExceeded):
            verify_majorization_reachability(11)


class TestUnreachablePair:
    def test_known_blocked_pair(self):
        s = DeltaSequence([4, 2, 2, 2, 1, 1, 1, 1])
        s_prime = DeltaSequence([5, 2, 2, 1, 1, 1, 1, 1])
        pair = find_unreachable_pair(8, s, s_prime)
        assert pair is not None
        t, t_prime = pair
        assert delta_sequence(t) == s
        assert delta_sequence(t_prime) == s_prime
        assert canonical_code(t_prime) not in reachable_classes(t)
        # yet SOME tree with the target sequence is reachable from the same t
        trace = find_move_trace(t, s_prime)
        assert trace is not None
        assert delta_sequence(trace.final) == s_prime

    def test_equal_sequences_trivially_absent(self):
        s = DeltaSequence([3, 2, 1, 1, 1])
        assert find_unreachable_pair(5, s, s) is None

    def test_requires_strict_dominance(self):
        with pytest.raises(NotMajorized):
            find_unreachable_pair(
                8,
                DeltaSequence([5, 2, 2, 1, 1, 1, 1, 1]),
                DeltaSequence([4, 4, 1, 1, 1, 1, 1, 1]),
            )

    def test_absent_when_every_class_reachable(self):
        # from the chain every class is reachable, and the chain is the only
        # tree with its sequence
        assert (
            find_unreachable_pair(
                6, delta_sequence(chain(6)), DeltaSequence([3, 2, 2, 1, 1, 1])
            )
            is None
        )


class TestChainMinimality:
    @pytest.mark.parametrize("n", range(4, 10))
    def test_census_exhaustive(self, n):
        assert verify_chain_minimality(n, [])

    def test_chain_itself_compares_equal(self):
        c = delta_sequence(chain(6))
        assert compare(c, c) is ComparisonResult.EQUAL

    def test_complete_graph_dominates_chain(self):
        chain_delta = delta_sequence(chain(4))
        k4 = DeltaSequence([3, 3, 3, 3])
        assert compare(chain_delta, k4) is ComparisonResult.STRICTLY_BELOW

    def test_sampled_graphs(self):
        for n in (5, 6, 7):
            suite = standard_graph_suite(n, count=30, seed=99)
            assert verify_chain_minimality(n, suite)

    def test_rejects_chain_sample(self):
        path = Graph(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError):
            verify_chain_minimality(4, [path])

    def test_rejects_wrong_size_sample(self):
        with pytest.raises(ValueError):
            verify_chain_minimality(4, [standard_graph_suite(5, count=1)[0]])


class TestConvexMonotonicity:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_holds(self, n):
        assert verify_convex_monotonicity(n)


class TestOrderDiagrams:
    def test_three_nodes_no_edges(self):
        assert covering_relations(3) == []
        dot = hasse_diagram(3)
        assert '"2,1,1";' in dot and "->" not in dot

    def test_four_nodes_single_cover(self):
        assert covering_relations(4) == [
            (DeltaSequence([2, 2, 1, 1]), DeltaSequence([3, 1, 1, 1]))
        ]
        assert '"2,2,1,1" -> "3,1,1,1";' in hasse_diagram(4)

    def test_no_edge_between_incomparable_pair(self):
        a = DeltaSequence([5, 2, 2, 1, 1, 1, 1, 1])
        b = DeltaSequence([4, 4, 1, 1, 1, 1, 1, 1])
        covers = covering_relations(8)
        assert (a, b) not in covers and (b, a) not in covers

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_paths_match_dominance(self, n):
        census = delta_census(n)
        covers = covering_relations(n)
        succ = {}
        for a, b in covers:
            succ.setdefault(a, set()).add(b)

        def reaches(a, b):
            # strict: at least one covering edge must be crossed
            stack = list(succ.get(a, ()))
            seen = set(stack)
            while stack:
                cur = stack.pop()
                if cur == b:
                    return True
                for nxt in succ.get(cur, ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            return False

        for a in census:
            for b in census:
                expected = compare(a, b) is ComparisonResult.STRICTLY_BELOW
                assert reaches(a, b) == expected

    def test_bound_enforced(self):
        with pytest.raises(BoundExceeded):
            covering_relations(13)


class TestGraphSampling:
    def test_deterministic_given_seed(self):
        a = standard_graph_suite(6, count=12, seed=5)
        b = standard_graph_suite(6, count=12, seed=5)
        assert [g.edges for g in a] == [g.edges for g in b]

    def test_never_a_chain(self):
        rng = random.Random(3)
        for _ in range(50):
            g = random_connected_graph(7, rng)
            assert not (
                len(g.edges) == 6 and max(g.degree(v) for v in range(7)) <= 2
            )

    def test_suite_starts_with_cycle_and_complete(self):
        suite = standard_graph_suite(5, count=4)
        assert len(suite[0].edges) == 5  # cycle
        assert len(suite[1].edges) == 10  # complete
        assert len(suite) == 4
