"""Acceptance checks: one test per headline guarantee, exact tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per check.
"""

import random

from treemajor import (
    CONVEX_TEST_FAMILY,
    ComparisonResult,
    DeltaSequence,
    Tree,
    canonical_code,
    chain,
    check_certificate,
    check_total_order,
    closure_is_closed,
    compare,
    convex_functional,
    delta_census,
    delta_sequence,
    enumerate_trees,
    certify_reachability,
    find_move_trace,
    find_unreachable_pair,
    legal_moves,
    move_branch,
    plan_transfers,
    reachability_closure,
    realize_direct,
    realize_from_chain,
    replay_plan_on_tree,
    standard_graph_suite,
    tree_from_prufer,
    trees_with_delta,
    verify_chain_minimality,
    verify_convex_monotonicity,
    verify_majorization_reachability,
)

from oracles import enumerate_trees_bruteforce


def _passed(num: int, text: str) -> None:
    print(f"[PASS] check {num:02d}: {text}")


def test_01_incomparable_pair_at_eight():
    result = compare(
        DeltaSequence([5, 2, 2, 1, 1, 1, 1, 1]),
        DeltaSequence([4, 4, 1, 1, 1, 1, 1, 1]),
    )
    assert result is ComparisonResult.INCOMPARABLE
    _passed(1, "(5,2,2,1^5) and (4,4,1^6) are incomparable")


def test_02_two_step_plan_golden_trace():
    plan = plan_transfers(
        DeltaSequence([3, 3, 3, 1, 1, 1, 1, 1]),
        DeltaSequence([5, 3, 1, 1, 1, 1, 1, 1]),
    )
    assert len(plan.steps) == 2
    _, first, second = plan.sequences()
    assert first.values == (4, 3, 2, 1, 1, 1, 1, 1)
    assert second.values == (5, 3, 1, 1, 1, 1, 1, 1)
    _passed(2, "plan (3,3,3,1^5)->(5,3,1^6) is exactly 2 steps via (4,3,2,1^5)")


def test_03_three_step_plan_from_chain_delta():
    plan = plan_transfers(
        DeltaSequence([2, 2, 2, 2, 2, 2, 1, 1]),
        DeltaSequence([5, 2, 2, 1, 1, 1, 1, 1]),
    )
    assert [s.values for s in plan.sequences()][1:] == [
        (3, 2, 2, 2, 2, 1, 1, 1),
        (4, 2, 2, 2, 1, 1, 1, 1),
        (5, 2, 2, 1, 1, 1, 1, 1),
    ]
    _passed(3, "chain-8 plan is exactly 3 steps with the recorded intermediates")


def test_04_replay_on_every_source_class_at_eleven():
    source = DeltaSequence([4, 3, 2, 2, 2, 2, 1, 1, 1, 1, 1])
    target = DeltaSequence([5, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1])
    assert compare(source, target) is ComparisonResult.STRICTLY_BELOW
    plan = plan_transfers(source, target)
    classes = trees_with_delta(11, source)
    assert classes, "n=11 must have classes with the source sequence"
    for t in classes:
        trace = replay_plan_on_tree(t, plan)
        assert delta_sequence(trace.final) == target
    _passed(4, f"plan replays on all {len(classes)} source classes at n=11")


def test_05_total_order_exactly_up_to_seven():
    for n in range(2, 8):
        report = check_total_order(n)
        assert report.is_total and report.witness is None
    for n in (8, 9, 10):
        report = check_total_order(n)
        assert not report.is_total
        a, b = report.witness
        assert compare(a, b) is ComparisonResult.INCOMPARABLE
    _passed(5, "census order is total for n=2..7 and has witnesses at n=8,9,10")


def test_06_class_counts_cross_validated():
    expected = {2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23}
    for n, count in expected.items():
        generated = enumerate_trees(n)
        assert len(generated) == count
        oracle = enumerate_trees_bruteforce(n)
        assert {canonical_code(t) for t in generated} == {
            canonical_code(t) for t in oracle
        }
    _passed(6, "class counts 1,1,2,3,6,11,23 match the brute-force oracle")


def test_07_every_feasible_sequence_realizes_both_ways():
    checked = 0
    for n in range(2, 11):
        for s in delta_census(n):
            trace = realize_from_chain(s)
            assert delta_sequence(trace.final) == s
            direct = realize_direct(s)
            assert delta_sequence(direct) == s
            checked += 1
    _passed(7, f"both constructions realize all {checked} feasible sequences, n<=10")


def test_08_dominance_equals_reachability_up_to_twelve():
    for n in range(2, 13):
        ok, certificates = verify_majorization_reachability(n)
        assert ok and certificates == []
    _passed(8, "dominance coincides with branch-move reachability for n<=12")


def test_09_blocked_pair_with_certificates():
    s = DeltaSequence([4, 2, 2, 2, 1, 1, 1, 1])
    s_prime = DeltaSequence([5, 2, 2, 1, 1, 1, 1, 1])
    pair = find_unreachable_pair(8, s, s_prime)
    assert pair is not None
    t, t_prime = pair
    assert delta_sequence(t) == s and delta_sequence(t_prime) == s_prime
    # closed-set certificate: the reachable set is closed and misses t_prime
    closure = reachability_closure(t)
    assert closure_is_closed(closure)
    codes = {canonical_code(rep) for rep in closure}
    assert canonical_code(t) in codes
    assert canonical_code(t_prime) not in codes
    # yet the same source reaches SOME tree with the target sequence
    trace = find_move_trace(t, s_prime)
    assert trace is not None and delta_sequence(trace.final) == s_prime
    cert = certify_reachability(t, s_prime)
    assert cert.trace is not None and check_certificate(cert)
    _passed(9, "one target class is unreachable (closed-set proof), another reachable")


def test_10_chain_minimal_exhaustive_and_sampled():
    for n in range(2, 10):
        chain_delta = delta_sequence(chain(n))
        for s in delta_census(n):
            if s == chain_delta:
                continue
            assert compare(chain_delta, s) is ComparisonResult.STRICTLY_BELOW
    for n in range(5, 10):
        suite = standard_graph_suite(n, count=100, seed=1905)
        assert len(suite) == 100
        assert verify_chain_minimality(n, suite)
    _passed(10, "chain is the strict minimum over all classes and 500 sampled graphs")


def test_11_convex_functionals_monotone_on_census_pairs():
    census = delta_census(8)
    pairs = 0
    for x in census:
        for y in census:
            if compare(x, y) is not ComparisonResult.STRICTLY_BELOW:
                continue
            pairs += 1
            for _, phi in CONVEX_TEST_FAMILY:
                assert convex_functional(x, phi) <= convex_functional(y, phi)
    assert verify_convex_monotonicity(8)
    assert pairs > 0
    _passed(11, f"convex family is monotone on all {pairs} ordered census pairs at n=8")


def test_12_thousand_random_rule_moves_strictly_raise():
    rng = random.Random(20240)
    sizes = (5, 6, 7, 8, 9, 10)
    applied = 0
    while applied < 1000:
        n = sizes[applied % len(sizes)]
        t = tree_from_prufer([rng.randrange(n) for _ in range(n - 2)])
        moves = legal_moves(t)
        if not moves:
            continue
        mv = rng.choice(moves)
        out = move_branch(t, *mv)  # frozen without re-validation
        assert out.n == n and len(out.edges) == n - 1
        assert Tree(n, sorted(out.edges)) == out  # the validating constructor accepts it
        assert compare(delta_sequence(t), delta_sequence(out)) is (
            ComparisonResult.STRICTLY_BELOW
        )
        applied += 1
    _passed(12, "1000 seeded degree-rule moves all strictly raise the sequence")
