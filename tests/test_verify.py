"""Order structure, reachability closures, certificates, diagrams, samplers."""

import copy
import pickle
import random
import re
from collections import deque

import pytest

from treemajor import (
    CENSUS_MAX_NODES,
    CONVEX_TEST_FAMILY,
    BoundExceeded,
    ComparisonResult,
    DeltaSequence,
    Graph,
    LengthMismatch,
    MoveTrace,
    NotMajorized,
    NotTreeFeasible,
    OrderReport,
    REACHABILITY_MAX_NODES,
    ReachabilityCertificate,
    Tree,
    apply_moves,
    basic_transfer,
    canonical_code,
    certify_reachability,
    chain,
    check_certificate,
    check_total_order,
    closure_is_closed,
    compare,
    convex_functional,
    covering_relations,
    cycle_graph,
    delta_census,
    delta_sequence,
    enumerate_trees,
    find_move_trace,
    find_unreachable_pair,
    hasse_diagram,
    legal_moves,
    move_branch,
    random_connected_graph,
    reachability_closure,
    reachable_classes,
    standard_graph_suite,
    star,
    trees_with_delta,
    verify_chain_minimality,
    verify_convex_monotonicity,
    verify_majorization_reachability,
)
from treemajor import enumeration, trees, verify

# the message of every reachability operation just past its bound
REACHABILITY_BOUND = (
    f"^reachability search supports n <= {REACHABILITY_MAX_NODES}, "
    f"got {REACHABILITY_MAX_NODES + 1}$"
)


def _find_move_trace_reference(t, target_delta):
    """Oracle for find_move_trace: the same breadth-first search, building
    and coding a Tree with move_branch for every move."""
    start = canonical_code(t)
    info = {start: (t, None, None)}
    queue = deque([start])
    hit = start if delta_sequence(t) == target_delta else None
    while queue and hit is None:
        code = queue.popleft()
        tree = info[code][0]
        for mv in legal_moves(tree):
            nxt = move_branch(tree, *mv)
            nxt_code = canonical_code(nxt)
            if nxt_code in info:
                continue
            info[nxt_code] = (nxt, code, mv)
            if delta_sequence(nxt) == target_delta:
                hit = nxt_code
                break
            queue.append(nxt_code)
    if hit is None:
        return None
    moves, code = [], hit
    while info[code][1] is not None:
        _, code, mv = info[code]
        moves.append(mv)
    return MoveTrace(initial=t, moves=tuple(reversed(moves)), final=info[hit][0])


def _closure_codes_reference(edges, start):
    """Oracle for reachable_classes: a depth-first search from ``start``
    over ``edges``, code -> the successor codes of that class."""
    seen, stack = {start}, [start]
    while stack:
        for nxt in edges[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return frozenset(seen)


@pytest.fixture
def patched_successors(monkeypatch):
    """The monkeypatch fixture, for a test that patches
    verify.successor_codes.  The memo is cached per n, so it is cleared
    before and after, and a patched memo never outlives the test."""
    verify._classes.cache_clear()
    yield monkeypatch
    verify._classes.cache_clear()


def _reachability_failures_reference(n, reps, edges):
    """Oracle for the failure certificates of
    verify_majorization_reachability over the class graph (reps, edges): a
    closure per class, then every strict census pair (a, b) in nested
    census order and every class with sequence a, in graph order."""
    delta_of = {code: delta_sequence(t) for code, t in reps.items()}
    closures = {start: _closure_codes_reference(edges, start) for start in edges}
    census = delta_census(n)
    return [
        ReachabilityCertificate(
            source=reps[code],
            target_delta=b,
            trace=None,
            closure=tuple(reps[c] for c in sorted(closures[code])),
        )
        for a in census
        for b in census
        if compare(a, b) is ComparisonResult.STRICTLY_BELOW
        for code, d in delta_of.items()
        if d == a and b not in {delta_of[c] for c in closures[code]}
    ]


def _find_unreachable_pair_reference(n, s, s_prime):
    """Oracle for find_unreachable_pair: one enumeration for the targets and
    one for the sources, both in canonical-code order."""
    targets = trees_with_delta(n, s_prime)
    for t in trees_with_delta(n, s):
        reach = reachable_classes(t)
        for t2 in targets:
            if canonical_code(t2) not in reach:
                return (t, t2)
    return None


def _strict_pairs_reference(n):
    """Census pairs (a, b) with a strictly below b, in nested census order."""
    census = delta_census(n)
    return [
        (a, b)
        for a in census
        for b in census
        if compare(a, b) is ComparisonResult.STRICTLY_BELOW
    ]


def _check_total_order_reference(n):
    """Oracle for check_total_order: scan census pairs in nested order and
    report the first incomparable one."""
    census = delta_census(n)
    for a_idx, a in enumerate(census):
        for b in census[a_idx + 1 :]:
            if compare(a, b) is ComparisonResult.INCOMPARABLE:
                return OrderReport(n=n, is_total=False, witness=(a, b))
    return OrderReport(n=n, is_total=True, witness=None)


def _covering_relations_reference(n):
    """Oracle for covering_relations: every strict pair with no census
    sequence strictly between, found by searching the whole strict order."""
    census = delta_census(n)
    pairs = _strict_pairs_reference(n)
    below = set(pairs)
    covers = [
        (a, b)
        for a, b in pairs
        if not any((a, c) in below and (c, b) in below for c in census)
    ]
    covers.sort(key=lambda ab: (ab[0].values, ab[1].values))
    return covers


def _convex_monotonicity_reference(n, family=CONVEX_TEST_FAMILY):
    """Oracle for verify_convex_monotonicity: every strict pair and every
    function of the family, each functional recomputed per pair."""
    return all(
        convex_functional(a, phi) <= convex_functional(b, phi)
        for a, b in _strict_pairs_reference(n)
        for _, phi in family
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

    @pytest.mark.parametrize("n", [*range(2, 17), CENSUS_MAX_NODES])
    def test_matches_nested_scan_reference(self, n):
        assert check_total_order(n) == _check_total_order_reference(n)

    @pytest.mark.parametrize("n", range(2, CENSUS_MAX_NODES + 1))
    def test_witness_from_the_lattice_facts(self, n):
        # the census opens with the star, (n-2, 2, 1, ...) and (n-3, 3, 1, ...),
        # each above every later sequence; from n=8 on the next two are
        # (n-3, 2, 2, 1, ...) and (n-4, 4, 1, ...), an incomparable pair
        census = delta_census(n)
        assert all(
            compare(top, s) is ComparisonResult.STRICTLY_ABOVE
            for k, top in enumerate(census[:3])
            for s in census[k + 1 :]
        )
        report = check_total_order(n)
        if n < 8:
            assert report == OrderReport(n=n, is_total=True, witness=None)
            return
        a = DeltaSequence([n - 3, 2, 2] + [1] * (n - 3))
        b = DeltaSequence([n - 4, 4] + [1] * (n - 2))
        assert census[3:5] == [a, b]
        assert compare(a, b) is ComparisonResult.INCOMPARABLE
        assert report == OrderReport(n=n, is_total=False, witness=(a, b))

    def test_scan_does_not_lean_on_the_census_order(self, monkeypatch):
        # every pair is compared, so the first incomparable pair is the
        # witness whatever the order, also with a lower sequence before it
        # or between its members
        top, low, other = (
            DeltaSequence([5, 2, 2, 1, 1, 1, 1, 1]),
            delta_sequence(chain(8)),
            DeltaSequence([4, 4, 1, 1, 1, 1, 1, 1]),
        )
        for census in ([top, low, other], [low, top, other]):
            monkeypatch.setattr(verify, "delta_census", lambda n, c=census: c)
            assert check_total_order(8) == OrderReport(
                n=8, is_total=False, witness=(top, other)
            )

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
        with pytest.raises(BoundExceeded, match=REACHABILITY_BOUND):
            reachable_classes(chain(REACHABILITY_MAX_NODES + 1))
        with pytest.raises(BoundExceeded, match=REACHABILITY_BOUND):
            reachability_closure(chain(REACHABILITY_MAX_NODES + 1))

    def test_bound_comes_before_the_order(self):
        # past the bound every search entry point raises, whether or not the
        # target dominates the source
        n = REACHABILITY_MAX_NODES + 1
        low, high = delta_sequence(chain(n)), delta_sequence(star(n))
        for source, target in [(chain(n), high), (star(n), low)]:
            with pytest.raises(BoundExceeded, match=REACHABILITY_BOUND):
                find_move_trace(source, target)
            with pytest.raises(BoundExceeded, match=REACHABILITY_BOUND):
                certify_reachability(source, target)
        for s, s_prime in [(low, high), (high, low)]:
            with pytest.raises(BoundExceeded, match=REACHABILITY_BOUND):
                find_unreachable_pair(n, s, s_prime)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_depth_first_reference(self, n):
        rng = random.Random(n)
        reps = {canonical_code(t): t for t in enumerate_trees(n)}
        edges = {code: trees.successor_codes(t) for code, t in reps.items()}
        for code, t in reps.items():
            want = _closure_codes_reference(edges, code)
            perm = list(range(n))
            rng.shuffle(perm)
            copy = Tree(n, [(perm[u], perm[v]) for u, v in t.edges])
            for tree in (t, copy):
                assert reachable_classes(tree) == want
                assert reachability_closure(tree) == tuple(reps[c] for c in sorted(want))


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

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_the_move_branch_search(self, n):
        # each class and a seeded relabelled copy of it, whose moves come in
        # another order
        rng = random.Random(n)
        census = delta_census(n)
        for rep in enumerate_trees(n):
            perm = list(range(n))
            rng.shuffle(perm)
            relabelled = Tree(n, [(perm[u], perm[v]) for u, v in rep.sorted_edges()])
            for t in (rep, relabelled):
                for target in census:
                    got = find_move_trace(t, target)
                    want = _find_move_trace_reference(t, target)
                    assert got == want, (t, target)
                    if got is not None:
                        assert [got.final.neighbors(v) for v in range(n)] == [
                            want.final.neighbors(v) for v in range(n)
                        ]

    @pytest.mark.parametrize("n", range(2, 11))
    def test_a_class_one_move_short_ends_the_search(self, n, monkeypatch):
        # the search ends on discovering a class with a landing move, so a
        # target one move away expands nothing and one two moves away
        # expands the source alone; each expansion reads the tree's moves,
        # one per degree pair, and so does the last call, the landing read
        calls = []
        real = verify.pair_moves
        monkeypatch.setattr(verify, "pair_moves", lambda t: calls.append(1) or real(t))
        census = delta_census(n)
        lengths = set()
        for t in enumerate_trees(n):
            for target in census:
                calls.clear()
                trace = find_move_trace(t, target)
                if trace is not None and len(trace.moves) in (1, 2):
                    lengths.add(len(trace.moves))
                    expansions = len(calls) - 1
                    assert expansions == len(trace.moves) - 1, (t, target)
        if n >= 5:  # the chain is two moves from the star from n = 5 on
            assert lengths == {1, 2}

    @pytest.mark.parametrize("n", [7, 9])
    def test_a_cold_search_stores_the_classes_it_expands(self, n, monkeypatch):
        # the search keeps no class store: it expands at most one tree per
        # degree sequence, and the end tree, one landing move short, is
        # built and read once, by the last call, for its landing move; its
        # sequence is never expanded
        read = []
        real = verify.pair_moves
        monkeypatch.setattr(
            verify, "pair_moves", lambda t: read.append(delta_sequence(t)) or real(t)
        )
        census = delta_census(n)
        deep = 0  # searches that expand more than the source
        for t in enumerate_trees(n):
            base = delta_sequence(t)
            for target in census:
                if compare(base, target) is not ComparisonResult.STRICTLY_BELOW:
                    continue
                read.clear()
                trace = find_move_trace(t, target)
                *expanded, landing = read
                assert len(set(expanded)) == len(expanded), (t, target)
                end = apply_moves(t, trace.moves[:-1])
                assert delta_sequence(end) == landing
                assert landing not in expanded
                deep += len(trace.moves) > 2
        assert deep > 0

    @pytest.mark.parametrize("n", range(3, 11))
    def test_one_transfer_is_one_move(self, n):
        # a target one tree-variant transfer away, ties included, is one move
        # away, and the move's donor and target degrees are the transfer's
        # donor and receiver values
        for t in enumerate_trees(n):
            s = delta_sequence(t).values
            for j in range(2, n + 1):
                if s[j - 1] < 2:
                    break
                for i in range(1, j):
                    target = basic_transfer(delta_sequence(t), i, j)
                    trace = find_move_trace(t, target)
                    assert trace is not None and len(trace.moves) == 1, (t, i, j)
                    donor, _, receiver = trace.moves[0]
                    assert (t.degree(donor), t.degree(receiver)) == (s[j - 1], s[i - 1])

    def test_order_decides_without_a_search(self, monkeypatch):
        # every move strictly raises the sequence, so a target that does not
        # strictly dominate is answered before any move is made
        def no_search(t):
            raise AssertionError("searched")

        monkeypatch.setattr(verify, "pair_moves", no_search)
        n = 8
        census = delta_census(n)
        for t in enumerate_trees(n):
            base = delta_sequence(t)
            for target in census:
                rel = compare(base, target)
                if rel is ComparisonResult.EQUAL:
                    assert find_move_trace(t, target) == MoveTrace(
                        initial=t, moves=(), final=t
                    )
                elif rel is not ComparisonResult.STRICTLY_BELOW:
                    assert find_move_trace(t, target) is None
        with pytest.raises(AssertionError, match="searched"):
            find_move_trace(chain(n), delta_sequence(star(n)))

    @pytest.mark.parametrize("n", [8, 10])
    def test_warm_search_codes_only_its_source(self, n, monkeypatch):
        # a search runs over degree sequences and codes nothing, neither its
        # source nor a move, on a cleared memo or after the theorem pass has
        # coded every class, and it finds the same trace either way
        calls = []
        real = trees._peel_code
        monkeypatch.setattr(trees, "_peel_code", lambda *a: calls.append(1) or real(*a))
        rng = random.Random(n)
        census = delta_census(n)
        top = delta_sequence(star(n))
        classes = [t for t in enumerate_trees(n) if delta_sequence(t) != top]
        for t in rng.sample(classes, 6):
            perm = list(range(n))
            rng.shuffle(perm)
            edges = [(perm[u], perm[v]) for u, v in t.sorted_edges()]
            base = delta_sequence(t)
            above = [s for s in census if compare(base, s) is ComparisonResult.STRICTLY_BELOW]
            target = above[len(above) // 2]
            want = _find_move_trace_reference(Tree(n, edges), target)
            verify._classes.cache_clear()
            calls.clear()
            assert find_move_trace(Tree(n, edges), target) == want
            assert calls == []
            verify_majorization_reachability(n)
            calls.clear()
            assert find_move_trace(Tree(n, edges), target) == want
            assert calls == []

    @pytest.mark.parametrize("n", [8, 10])
    def test_a_search_codes_nothing(self, n, monkeypatch):
        # with the coder refusing and the memo cleared, seeded relabelled
        # classes still find the reference trace to their middle target
        rng = random.Random(n)
        census = delta_census(n)
        top = delta_sequence(star(n))
        cases = []
        for t in rng.sample([t for t in enumerate_trees(n) if delta_sequence(t) != top], 8):
            perm = list(range(n))
            rng.shuffle(perm)
            source = Tree(n, [(perm[u], perm[v]) for u, v in t.sorted_edges()])
            base = delta_sequence(t)
            above = [s for s in census if compare(base, s) is ComparisonResult.STRICTLY_BELOW]
            target = above[len(above) // 2]
            cases.append((source, target, _find_move_trace_reference(source, target)))
        verify._classes.cache_clear()

        def refuse(*args):
            raise AssertionError("coded")

        monkeypatch.setattr(trees, "_peel_code", refuse)
        for source, target, want in cases:
            assert find_move_trace(source, target) == want

    def test_a_search_reads_no_cache(self):
        # neither a cold nor a warm search reads or fills a per-size cache
        caches = [f for f in vars(verify).values() if hasattr(f, "cache_info")]
        assert verify._classes in caches
        n = 9
        for warm in (False, True):
            if warm:
                verify_majorization_reachability(n)
            before = [f.cache_info() for f in caches]
            for t in enumerate_trees(n):
                find_move_trace(t, delta_sequence(star(n)))
            assert [f.cache_info() for f in caches] == before

    @pytest.mark.parametrize("n", range(1, 11))
    def test_successor_codes_match_move_branch(self, n):
        for t in enumerate_trees(n):
            assert verify.successor_codes(t) == {
                canonical_code(move_branch(t, *mv)) for mv in legal_moves(t)
            }


class TestCertificates:
    def test_positive_certificate(self):
        cert = certify_reachability(chain(7), DeltaSequence([4, 3, 1, 1, 1, 1, 1]))
        assert cert.trace is not None and cert.closure is None
        assert check_certificate(cert)

    def test_negative_certificate(self):
        cert = certify_reachability(star(7), delta_sequence(chain(7)))
        assert cert.closure is not None and cert.trace is None
        assert check_certificate(cert)

    @pytest.mark.parametrize(
        "round_trip",
        [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_and_pickles_still_check(self, round_trip):
        cert = certify_reachability(chain(7), DeltaSequence([4, 3, 1, 1, 1, 1, 1]))
        other = round_trip(cert)
        assert other == cert
        assert check_certificate(other)

    def test_checking_a_closure_just_built_codes_nothing(self, monkeypatch):
        # on a cleared memo, the closure's members are the memo's
        # representatives, whose successor sets the walk cached; fresh copies
        # are coded on their own, each its code and its moves, and a copy
        # missing one member reached by a move is rejected
        verify._classes.cache_clear()
        n = 9
        spider = Tree(n, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 6), (6, 7), (0, 8)])
        cert = certify_reachability(spider, delta_sequence(chain(n)))
        assert len(cert.closure) == 41
        calls = []
        real = trees._peel_code
        monkeypatch.setattr(trees, "_peel_code", lambda *a: calls.append(1) or real(*a))
        assert check_certificate(cert)
        assert calls == []
        rng = random.Random(n)
        copies = []
        for t in cert.closure:
            perm = list(range(n))
            rng.shuffle(perm)
            copies.append(Tree(n, [(perm[u], perm[v]) for u, v in t.sorted_edges()]))
        fresh = ReachabilityCertificate(
            source=cert.source, target_delta=cert.target_delta, trace=None,
            closure=tuple(copies),
        )
        assert check_certificate(fresh)
        assert len(calls) == sum(1 + len(legal_moves(t)) for t in copies)
        calls.clear()
        assert check_certificate(fresh)
        assert calls == []
        source_code = canonical_code(spider)
        for k, t in enumerate(copies):
            if canonical_code(t) != source_code:
                dropped = copies[:k] + copies[k + 1 :]
                assert not closure_is_closed(tuple(dropped))
                assert not check_certificate(
                    ReachabilityCertificate(
                        source=cert.source, target_delta=cert.target_delta,
                        trace=None, closure=tuple(dropped),
                    )
                )

    def test_tampered_positive_fails(self):
        cert = certify_reachability(chain(7), DeltaSequence([4, 3, 1, 1, 1, 1, 1]))
        forged = ReachabilityCertificate(
            source=star(7),
            target_delta=cert.target_delta,
            trace=cert.trace,
            closure=None,
        )
        assert not check_certificate(forged)

    def test_closure_of_another_size_fails(self):
        # a closed set whose members are smaller trees proves nothing about
        # the source's size
        forged = ReachabilityCertificate(
            source=star(5),
            target_delta=delta_sequence(chain(5)),
            trace=None,
            closure=(star(5), star(4), chain(3)),
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

    @pytest.mark.parametrize(
        "target,error",
        [
            ([3, 3, 1, 1, 1, 1, 1], LengthMismatch),
            ([9, 1, 1, 1, 1, 1], NotTreeFeasible),
            ([2, 2, 2, 2, 2, 2], NotTreeFeasible),
        ],
    )
    def test_malformed_target_rejected(self, target, error):
        t = chain(6)
        message = "^degree total " if error is NotTreeFeasible else "^sequence has length "
        with pytest.raises(error, match=message):
            find_move_trace(t, DeltaSequence(target))
        with pytest.raises(error, match=message):
            certify_reachability(t, DeltaSequence(target))
        forged = ReachabilityCertificate(
            source=t,
            target_delta=DeltaSequence(target),
            trace=None,
            closure=reachability_closure(t),
        )
        assert not check_certificate(forged)

    @pytest.mark.parametrize("target", [(4, 1, 1, 1, 1), [4, 1, 1, 1, 1], "41111"])
    def test_target_not_a_delta_sequence(self, target):
        # a plain tuple or list of the right degrees is not coerced
        pattern = "^sequence must be a DeltaSequence, got "
        with pytest.raises(TypeError, match=pattern):
            find_move_trace(chain(5), target)
        with pytest.raises(TypeError, match=pattern):
            certify_reachability(chain(5), target)

    @pytest.mark.parametrize("target", [(2, 2, 2, 1, 1), [2, 2, 2, 1, 1], "22211"])
    def test_forged_target_rejected_at_construction(self, target):
        # a trace certificate and a closure certificate whose target is not
        # a DeltaSequence both raise when built, so neither reaches a check
        pattern = "^sequence must be a DeltaSequence, got "
        kinds = [
            (chain(5), find_move_trace(chain(5), DeltaSequence([4, 1, 1, 1, 1])), None),
            (star(5), None, reachability_closure(star(5))),
        ]
        for source, trace, closure in kinds:
            with pytest.raises(TypeError, match=pattern):
                ReachabilityCertificate(source, target, trace, closure)

    @pytest.mark.parametrize("source", [cycle_graph(5), chain(5).sorted_edges(), None])
    def test_source_not_a_tree_rejected_at_construction(self, source):
        with pytest.raises(TypeError, match="^source must be a Tree, got "):
            ReachabilityCertificate(
                source=source,
                target_delta=DeltaSequence([2, 2, 2, 1, 1]),
                trace=None,
                closure=reachability_closure(star(5)),
            )

    @pytest.mark.parametrize(
        "trace, closure, message",
        [
            ((star(5), (), star(5)), None, "^trace must be a MoveTrace, got "),
            (None, (star(5), cycle_graph(5)), "^closure member must be a Tree, got Graph"),
            (None, "closure", "^closure must be a tuple of Trees, got 'closure'$"),
        ],
        ids=["tuple-trace", "graph-in-closure", "string-closure"],
    )
    def test_forged_side_rejected_at_construction(self, trace, closure, message):
        # shapes a reader of files meets: each is a TypeError when built, so
        # check_certificate never meets them
        with pytest.raises(TypeError, match=message):
            ReachabilityCertificate(star(5), DeltaSequence([4, 1, 1, 1, 1]), trace, closure)

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
        with pytest.raises(BoundExceeded, match=REACHABILITY_BOUND):
            verify_majorization_reachability(REACHABILITY_MAX_NODES + 1)

    def test_needs_two_nodes(self):
        with pytest.raises(ValueError, match="^theorem check needs n >= 2, got 1$"):
            verify_majorization_reachability(1)

    @pytest.mark.parametrize("n", [True, False, 13.0, "8", None])
    def test_non_int_node_count(self, n):
        # checked before the size and the bound: a bool is not a node count
        with pytest.raises(TypeError, match=f"^node count must be an int, got {n!r}$"):
            verify_majorization_reachability(n)

    @pytest.mark.parametrize("n, classes", [(10, 106), (12, 551)])
    def test_a_pass_after_a_cold_search_codes_no_class_twice(self, n, classes, monkeypatch):
        # the chain -> star search codes nothing and leaves the memo cold,
        # so the pass codes as it does on a cold memo: the enumeration's one
        # canonical code per class, and each move of each representative
        verify._classes.cache_clear()
        calls = []
        real = trees._peel_code
        monkeypatch.setattr(trees, "_peel_code", lambda *a: calls.append(1) or real(*a))
        find_move_trace(chain(n), delta_sequence(star(n)))
        assert calls == []
        assert verify_majorization_reachability(n) == (True, [])
        reps = verify._classes(n)
        assert len(reps) == classes
        assert len(calls) == classes + sum(len(legal_moves(t)) for t in reps.values())

    def test_failure_certificates_when_a_move_is_missing(self, patched_successors):
        # drop the move from the 5,2,1,... class to the star, its one
        # cover: that (class, cover) pair is the one failure, an unreachable
        # pair of the closure reference, and its closure certificate is
        # rejected once the real moves are back, because a real move leaves
        # the closure
        n = 7
        hub = DeltaSequence([5, 2, 1, 1, 1, 1, 1])
        star_code = canonical_code(star(n))
        real = verify.successor_codes
        (source,) = [t for t in enumerate_trees(n) if delta_sequence(t) == hub]
        assert star_code in real(source)

        def cut(t):
            codes = real(t)
            return codes - {star_code} if delta_sequence(t) == hub else codes

        reps = {canonical_code(t): t for t in enumerate_trees(n)}
        edges = {code: cut(t) for code, t in reps.items()}
        with patched_successors.context() as patch:
            patch.setattr(verify, "successor_codes", cut)
            ok, certificates = verify_majorization_reachability(n)
        reference = _reachability_failures_reference(n, reps, edges)
        assert ok == (reference == []) and not ok
        assert [(c.source, c.target_delta) for c in certificates] == [
            (source, delta_sequence(star(n)))
        ]
        assert all(c in reference for c in certificates)
        assert not any(check_certificate(c) for c in certificates)

    def test_move_that_does_not_raise_the_sequence_is_a_defect(
        self, patched_successors
    ):
        # a class listing itself as a successor, as an extra move would,
        # breaks the forward direction; the theorem pass checks it, while the
        # memo is a plain cache, so a closure walk reads the looped class
        # without a check
        n = 6
        real = verify.successor_codes
        looped = canonical_code(chain(n))

        def loop(t):
            codes = real(t)
            return codes | {looped} if canonical_code(t) == looped else codes

        patched_successors.setattr(verify, "successor_codes", loop)
        d = delta_sequence(chain(n))
        with pytest.raises(
            RuntimeError,
            match=re.escape(f"degree-rule move did not raise the degree sequence: {d} -> {d}"),
        ):
            verify_majorization_reachability(n)
        assert reachable_classes(chain(n)) == {canonical_code(t) for t in enumerate_trees(n)}

    @pytest.mark.parametrize("n", [6, 9])
    def test_each_sequence_pair_is_compared_once(self, n, patched_successors):
        # the check depends only on the two sequences, so one compare per
        # distinct (sequence, successor sequence) pair decides every move
        pairs = {
            (delta_sequence(t), delta_sequence(move_branch(t, *mv)))
            for t in enumerate_trees(n)
            for mv in legal_moves(t)
        }
        seen = []
        patched_successors.setattr(
            verify, "compare", lambda a, b: seen.append((a, b)) or compare(a, b)
        )
        verify_majorization_reachability(n)
        assert len(seen) == len(pairs)
        assert set(seen) == pairs

    def test_dropping_a_move_to_a_non_cover_changes_nothing(self, patched_successors):
        # (4,2,1,1,1,1) is above (3,3,1,1,1,1), which is above (3,2,2,1,1,1),
        # so the move between the outer two is no cover: the theorem holds
        # without it, and so does the closure-based reference
        n = 6
        low = DeltaSequence([3, 2, 2, 1, 1, 1])
        (high,) = trees_with_delta(n, DeltaSequence([4, 2, 1, 1, 1, 1]))
        high_code = canonical_code(high)
        real = verify.successor_codes
        source = next(t for t in trees_with_delta(n, low) if high_code in real(t))

        def cut(t):
            codes = real(t)
            return codes - {high_code} if t == source else codes

        reps = {canonical_code(t): t for t in enumerate_trees(n)}
        edges = {code: cut(t) for code, t in reps.items()}
        patched_successors.setattr(verify, "successor_codes", cut)
        assert verify_majorization_reachability(n) == (True, [])
        assert _reachability_failures_reference(n, reps, edges) == []
        memo_source = verify._classes(n)[canonical_code(source)]
        assert high_code not in verify.successor_codes(memo_source)

    def test_a_cold_query_codes_only_its_closure(self, patched_successors):
        # coding is counted as _peel_code calls once the memo's enumeration
        # has coded each class: a closure codes its source and the moves of
        # each class it reaches, on its representative, and nothing else
        calls = []
        real = trees._peel_code
        patched_successors.setattr(
            trees, "_peel_code", lambda *a: calls.append(1) or real(*a)
        )
        n = REACHABILITY_MAX_NODES
        source, target = star(n), delta_sequence(chain(n))
        verify._classes(n)
        calls.clear()
        cert = certify_reachability(source, target)
        assert len(calls) == 1  # the star's own code; it has no moves
        assert cert.closure == (star(n),)
        verify._classes(11)
        calls.clear()
        closure = reachability_closure(chain(11))
        assert len(closure) == 235
        assert len(calls) == 1 + sum(len(legal_moves(t)) for t in closure)


class TestUnreachablePair:
    @pytest.mark.parametrize("other", [(2, 2, 2, 1, 1), [2, 2, 2, 1, 1], "22211"])
    def test_not_a_delta_sequence(self, other):
        # a plain tuple or list of degrees is not coerced, on either side
        s = DeltaSequence([3, 2, 1, 1, 1])
        pattern = "^sequence must be a DeltaSequence, got "
        with pytest.raises(TypeError, match=pattern):
            find_unreachable_pair(5, other, s)
        with pytest.raises(TypeError, match=pattern):
            find_unreachable_pair(5, s, other)

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

    @pytest.mark.parametrize("n", [True, 13.0, "8", None])
    def test_non_int_node_count(self, n):
        # checked before the bound and the sequences
        s = DeltaSequence([4, 2, 2, 2, 1, 1, 1, 1])
        s_prime = DeltaSequence([5, 2, 2, 1, 1, 1, 1, 1])
        with pytest.raises(TypeError, match=f"^node count must be an int, got {n!r}$"):
            find_unreachable_pair(n, s, s_prime)

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

    # at n=8 a reversed class scan gives a different answer for 4 pairs
    @pytest.mark.parametrize("n,strict_pairs,blocked", [(7, 21, 2), (8, 53, 5)])
    def test_matches_two_enumeration_reference(self, n, strict_pairs, blocked):
        census = delta_census(n)
        pairs = [
            (a, b)
            for a in census
            for b in census
            if compare(a, b) is ComparisonResult.STRICTLY_BELOW
        ]
        answers = [find_unreachable_pair(n, a, b) for a, b in pairs]
        assert answers == [_find_unreachable_pair_reference(n, a, b) for a, b in pairs]
        assert len(pairs) == strict_pairs
        assert sum(pair is not None for pair in answers) == blocked

    def test_sequences_checked_against_n(self):
        with pytest.raises(LengthMismatch):
            find_unreachable_pair(
                6, DeltaSequence([2, 2, 1, 1, 1]), DeltaSequence([3, 2, 1, 1, 1])
            )
        with pytest.raises(NotTreeFeasible, match="^degree total 10 != "):
            find_unreachable_pair(
                5, DeltaSequence([2, 2, 2, 1, 1]), DeltaSequence([4, 2, 2, 1, 1])
            )
        with pytest.raises(NotTreeFeasible, match="^degree total 7 != "):
            find_unreachable_pair(
                5, DeltaSequence([2, 2, 1, 1, 1]), DeltaSequence([3, 2, 1, 1, 1])
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

    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_strict_pair_reference(self, n):
        assert verify_convex_monotonicity(n) == _convex_monotonicity_reference(n)

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_concave_function_fails_on_covers(self, n, monkeypatch):
        # a concave function breaks monotonicity; checking the covers alone
        # finds that, as the strict-pair reference does
        family = CONVEX_TEST_FAMILY + (("-t^2", lambda t: -t * t),)
        monkeypatch.setattr(verify, "CONVEX_TEST_FAMILY", family)
        assert not verify_convex_monotonicity(n)
        assert not _convex_monotonicity_reference(n, family)


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

    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_cubic_reference(self, n):
        assert covering_relations(n) == _covering_relations_reference(n)

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12, 14])
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
            covering_relations(CENSUS_MAX_NODES + 1)


class TestCensusBound:
    @pytest.mark.parametrize(
        "operation",
        [
            delta_census,
            hasse_diagram,
            check_total_order,
            verify_convex_monotonicity,
            lambda n: verify_chain_minimality(n, []),
        ],
        ids=[
            "delta_census",
            "hasse_diagram",
            "check_total_order",
            "verify_convex_monotonicity",
            "verify_chain_minimality",
        ],
    )
    def test_raises_before_generating(self, operation, monkeypatch):
        def no_census(*args):
            raise AssertionError("generated")

        monkeypatch.setattr(enumeration, "_partitions_desc", no_census)
        message = f"^the census supports n <= {CENSUS_MAX_NODES}, got {CENSUS_MAX_NODES + 1}$"
        with pytest.raises(BoundExceeded, match=message):
            operation(CENSUS_MAX_NODES + 1)


class TestGraphSampling:
    def test_deterministic_given_seed(self):
        a = standard_graph_suite(6, count=12, seed=5)
        b = standard_graph_suite(6, count=12, seed=5)
        assert [g.edges for g in a] == [g.edges for g in b]

    def test_sampled_graphs_skip_the_validating_constructor(self, monkeypatch):
        def refuse(self, n, edges):
            raise AssertionError("validating constructor called")

        monkeypatch.setattr(Graph, "__init__", refuse)
        rng = random.Random(11)
        graphs = [random_connected_graph(n, rng) for n in range(3, 12) for _ in range(20)]
        monkeypatch.undo()
        for g in graphs:
            valid = Graph(g.n, g.sorted_edges())
            assert type(g) is Graph
            assert [g.neighbors(v) for v in range(g.n)] == [valid.neighbors(v) for v in range(g.n)]

    def test_never_a_chain(self):
        rng = random.Random(3)
        for _ in range(50):
            g = random_connected_graph(7, rng)
            assert not (
                len(g.edges) == 6 and max(g.degree(v) for v in range(7)) <= 2
            )

    @pytest.mark.parametrize("n", [True, False, 2.0, 1.5, 5.0, "5", None])
    def test_non_int_node_count_rejected(self, n):
        # checked before the size, so a bool or a float below 3 is rejected,
        # not answered with an empty suite
        with pytest.raises(TypeError, match=f"^node count must be an int, got {n!r}$"):
            standard_graph_suite(n)

    @pytest.mark.parametrize("n", [True, False, 4.0, "5", None])
    def test_sampler_rejects_a_non_int_node_count(self, n):
        with pytest.raises(TypeError, match=f"^node count must be an int, got {n!r}$"):
            random_connected_graph(n, random.Random(0))

    def test_sampler_needs_three_nodes(self):
        # every connected graph on two nodes is a chain
        with pytest.raises(ValueError, match="^connected non-chain graph needs n >= 3, got 2$"):
            random_connected_graph(2, random.Random(0))

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            standard_graph_suite(6, count=-5)
        assert standard_graph_suite(6, count=0) == []

    @pytest.mark.parametrize("count", [True, False, 2.5, "3", None])
    def test_non_int_count_rejected(self, count):
        # checked before the sign and the size: a bool is not a count
        for n in (2, 5):
            with pytest.raises(TypeError, match="sample count must be an int"):
                standard_graph_suite(n, count)

    @pytest.mark.parametrize("seed", [True, 2.5, "x", None])
    def test_non_int_seed_rejected(self, seed):
        # None would draw OS entropy, and True would alias seed 1
        for n in (2, 5):
            with pytest.raises(TypeError, match="seed must be an int"):
                standard_graph_suite(n, seed=seed)

    @pytest.mark.parametrize("n", [1, 2])
    def test_empty_below_three_nodes(self, n):
        # every connected graph on fewer than 3 nodes is a chain
        assert standard_graph_suite(n) == []

    def test_suite_starts_with_cycle_and_complete(self):
        suite = standard_graph_suite(5, count=4)
        assert len(suite[0].edges) == 5  # cycle
        assert len(suite[1].edges) == 10  # complete
        assert len(suite) == 4
