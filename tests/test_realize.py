"""Realization of feasible sequences: plan replay on trees and the direct
caterpillar construction."""

import dataclasses
import random
from itertools import pairwise

import pytest
from hypothesis import given, settings, strategies as st

from treemajor import (
    ComparisonResult,
    DeltaSequence,
    InvalidPlan,
    MoveTrace,
    NotTreeFeasible,
    ParseError,
    TransferPlan,
    TransferStep,
    Tree,
    apply_moves,
    canonical_code,
    chain,
    compare,
    delta_census,
    delta_sequence,
    enumerate_trees,
    is_isomorphic,
    plan_from_dict,
    plan_to_dict,
    plan_transfers,
    realize_direct,
    realize_from_chain,
    replay,
    replay_plan_on_tree,
    star,
    trace_from_dict,
    trace_to_dict,
    tree_from_prufer,
    trees_with_delta,
)
from treemajor import transfers
from treemajor.transfers import step_values
from oracles import branch_members_reference, move_branch_reference


def _replay_reference(t, plan):
    """Slow reference for replay_plan_on_tree: scan every node for each
    pick, search the donor's branches from their gateways in ascending
    order, and rebuild a validated tree on each move, with the test
    oracles for branch members and moves, not the library's search."""

    def pick(cur, degree, exclude=None):
        for v in range(cur.n):
            if v != exclude and cur.degree(v) == degree:
                return v
        raise InvalidPlan(f"no node of degree {degree} available")

    assert delta_sequence(t) == plan.source
    moves = []
    cur = t
    for step, (before, after) in zip(plan.steps, pairwise(plan.sequences())):
        receiver = pick(cur, before[step.receiver_rank - 1])
        donor = pick(cur, before[step.donor_rank - 1], exclude=receiver)
        gateway = next(
            gw for gw in cur.neighbors(donor)
            if receiver not in branch_members_reference(cur, donor, gw)
        )
        cur = move_branch_reference(cur, donor, gateway, receiver)
        moves.append((donor, gateway, receiver))
        if delta_sequence(cur) != after:
            raise InvalidPlan(f"move left degrees {delta_sequence(cur)}")
    return MoveTrace(initial=t, moves=tuple(moves), final=cur)


def _prufer_tree(n, hubs, rng):
    """The tree of a random Prufer sequence; with ``hubs`` each entry lands
    on a hub with probability 0.9, which concentrates degree."""
    return tree_from_prufer(
        [
            rng.choice(hubs) if hubs and rng.random() < 0.9 else rng.randrange(n)
            for _ in range(n - 2)
        ]
    )


def _caterpillar_reference(target):
    """The caterpillar realize_direct builds, through the validating
    constructor from its edge list: spine path 0..k-1 over the values >= 2,
    then leaves k, k+1, ... hung on the spine nodes in order."""
    spine = [v for v in target.values if v >= 2]
    k = len(spine)
    if k == 0:
        return Tree(2, [(0, 1)])
    edges = [(i, i + 1) for i in range(k - 1)]
    next_leaf = k
    for i, deg in enumerate(spine):
        inner = 0 if k == 1 else (1 if i in (0, k - 1) else 2)
        for _ in range(deg - inner):
            edges.append((i, next_leaf))
            next_leaf += 1
    return Tree(target.n, edges)


def _assert_record_replays_as_rebuilt(t, plan, trace):
    """``plan``, from plan_transfers, carries the checked walk's values, and
    the same plan built by hand, so with no record, compares, hashes and
    prints as it does and replays to the same ``trace``."""
    rebuilt = TransferPlan(plan.source, plan.target, plan.steps)
    assert (rebuilt, hash(rebuilt), repr(rebuilt)) == (plan, hash(plan), repr(plan))
    assert list(plan.values_per_step()) == list(step_values(rebuilt))
    assert replay_plan_on_tree(t, rebuilt) == trace


def _assert_matches_reference(t, target):
    plan = plan_transfers(delta_sequence(t), target)
    assert replay_plan_on_tree(t, plan) == _replay_reference(t, plan)


class TestRealizeFromChain:
    def test_three_move_target(self):
        target = DeltaSequence([5, 2, 2, 1, 1, 1, 1, 1])
        trace = realize_from_chain(target)
        assert len(trace.moves) == 3
        assert trace.initial == chain(8)
        assert delta_sequence(trace.final) == target
        # intermediate degree sequences follow the planned path
        deltas = []
        cur = trace.initial
        for mv in trace.moves:
            cur = apply_moves(cur, [mv])
            deltas.append(delta_sequence(cur).values)
        assert deltas == [
            (3, 2, 2, 2, 2, 1, 1, 1),
            (4, 2, 2, 2, 1, 1, 1, 1),
            (5, 2, 2, 1, 1, 1, 1, 1),
        ]

    def test_trivial_two_nodes(self):
        trace = realize_from_chain(DeltaSequence([1, 1]))
        assert trace.moves == ()
        assert trace.final == chain(2)

    def test_star_target(self):
        for n in (4, 6, 9):
            trace = realize_from_chain(
                DeltaSequence([n - 1] + [1] * (n - 1))
            )
            assert is_isomorphic(trace.final, star(n))

    def test_infeasible_rejected(self):
        with pytest.raises(NotTreeFeasible, match=r"^degree total 4 != 2\(n-1\) = 2 for 3,1$"):
            realize_from_chain(DeltaSequence([3, 1]))

    @pytest.mark.parametrize("target", [(3, 1, 1, 1), [3, 1, 1, 1], "3111"])
    def test_target_not_a_delta_sequence(self, target):
        # a plain tuple or list of feasible degrees is not coerced
        with pytest.raises(TypeError, match="^sequence must be a DeltaSequence, got "):
            realize_from_chain(target)

    def test_final_lands_in_census_class(self):
        target = DeltaSequence([5, 2, 2, 1, 1, 1, 1, 1])
        trace = realize_from_chain(target)
        codes = {canonical_code(t) for t in trees_with_delta(8, target)}
        assert canonical_code(trace.final) in codes


class TestRealizeDirect:
    def test_all_twos_gives_chain(self):
        t = realize_direct(DeltaSequence([2, 2, 2, 2, 2, 2, 1, 1]))
        assert is_isomorphic(t, chain(8))

    def test_single_spine_gives_star(self):
        t = realize_direct(DeltaSequence([5, 1, 1, 1, 1, 1]))
        assert is_isomorphic(t, star(6))

    def test_double_spine(self):
        t = realize_direct(DeltaSequence([4, 4, 1, 1, 1, 1, 1, 1]))
        assert delta_sequence(t).values == (4, 4, 1, 1, 1, 1, 1, 1)
        # two adjacent degree-4 nodes with three leaves each
        hubs = [v for v in range(8) if t.degree(v) == 4]
        assert len(hubs) == 2
        u, v = hubs
        assert (min(u, v), max(u, v)) in t.edges

    def test_two_nodes(self):
        assert realize_direct(DeltaSequence([1, 1])) == chain(2)

    def test_infeasible_rejected(self):
        with pytest.raises(NotTreeFeasible, match=r"^degree total 6 != 2\(n-1\) = 4 for 2,2,2$"):
            realize_direct(DeltaSequence([2, 2, 2]))

    @pytest.mark.parametrize("target", [(3, 1, 1, 1), [3, 1, 1, 1], "3111"])
    def test_target_not_a_delta_sequence(self, target):
        # a plain tuple or list of feasible degrees is not coerced
        with pytest.raises(TypeError, match="^sequence must be a DeltaSequence, got "):
            realize_direct(target)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_census_matches_the_validating_constructor(self, n):
        for s in delta_census(n):
            assert realize_direct(s) == _caterpillar_reference(s), s

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 300),
        hub_count=st.integers(0, 5),
        rng=st.randoms(use_true_random=False),
    )
    def test_prufer_sequences_match_the_validating_constructor(self, n, hub_count, rng):
        s = delta_sequence(_prufer_tree(n, rng.sample(range(n), min(n, hub_count)), rng))
        assert realize_direct(s) == _caterpillar_reference(s)


def test_realizations_skip_the_validating_constructor(monkeypatch):
    target = DeltaSequence([4, 3, 3, 2, 2, 2, 1, 1, 1, 1, 1, 1])
    want = (chain(12), star(12), realize_direct(target), realize_from_chain(target))

    def refuse(self, n, edges):
        raise AssertionError("validating constructor called")

    monkeypatch.setattr(Tree, "__init__", refuse)
    assert (chain(12), star(12), realize_direct(target), realize_from_chain(target)) == want


@pytest.mark.parametrize("n", range(2, 11))
def test_both_routes_realize_every_feasible_sequence(n):
    for s in delta_census(n):
        trace = realize_from_chain(s)
        assert delta_sequence(trace.final) == s
        direct = realize_direct(s)
        assert delta_sequence(direct) == s


class TestReplayPlanOnTree:
    def test_empty_plan(self):
        t = chain(5)
        plan = plan_transfers(delta_sequence(t), delta_sequence(t))
        trace = replay_plan_on_tree(t, plan)
        assert trace.final == t and trace.moves == ()

    def test_moves_mirror_steps(self):
        source = DeltaSequence([2, 2, 2, 2, 2, 2, 1, 1])
        target = DeltaSequence([4, 2, 2, 2, 1, 1, 1, 1])
        plan = plan_transfers(source, target)
        trace = replay_plan_on_tree(chain(8), plan)
        assert len(trace.moves) == len(plan.steps)
        assert delta_sequence(trace.final) == target

    def test_intermediates_stay_valid_trees(self):
        plan = plan_transfers(
            DeltaSequence([2, 2, 2, 2, 2, 2, 1, 1]),
            DeltaSequence([5, 2, 2, 1, 1, 1, 1, 1]),
        )
        cur = chain(8)
        trace = replay_plan_on_tree(cur, plan)
        for mv in trace.moves:
            cur = apply_moves(cur, [mv])  # degree rule enforced per move
            assert len(cur.edges) == cur.n - 1
        assert cur == trace.final

    def test_source_mismatch_rejected(self):
        plan = plan_transfers(
            DeltaSequence([2, 2, 1, 1]), DeltaSequence([3, 1, 1, 1])
        )
        with pytest.raises(ValueError):
            replay_plan_on_tree(chain(5), plan)

    def test_every_class_to_every_strictly_dominating_target(self):
        # the replayed plan ends at the target and the checked move loop
        # accepts its moves, with no class table or reference involved; the
        # planner's record moves the same branches as the checked walk of
        # the plan rebuilt by hand
        pairs = 0
        for n in range(2, 12):
            census = delta_census(n)
            for t in enumerate_trees(n):
                source = delta_sequence(t)
                for target in census:
                    if compare(source, target) is not ComparisonResult.STRICTLY_BELOW:
                        continue
                    plan = plan_transfers(source, target)
                    trace = replay_plan_on_tree(t, plan)
                    assert delta_sequence(trace.final) == target
                    assert apply_moves(t, trace.moves) == trace.final
                    _assert_record_replays_as_rebuilt(t, plan, trace)
                    pairs += 1
        assert pairs == 6586

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 300),
        hub_count=st.integers(0, 5),
        rng=st.randoms(use_true_random=False),
    )
    def test_record_on_uniform_and_hub_heavy_prufer_targets(self, n, hub_count, rng):
        t = _prufer_tree(n, rng.sample(range(n), min(n, hub_count)), rng)
        for start, target in ((chain(n), delta_sequence(t)), (t, delta_sequence(star(n)))):
            plan = plan_transfers(delta_sequence(start), target)
            _assert_record_replays_as_rebuilt(start, plan, replay_plan_on_tree(start, plan))

    def test_realize_walks_its_plan_once(self, monkeypatch):
        calls = []
        real = transfers.transfer_in_place
        monkeypatch.setattr(transfers, "transfer_in_place", lambda *a: calls.append(a) or real(*a))
        trace = realize_from_chain(delta_sequence(star(50)))
        assert len(trace.moves) == len(calls) == 47

    @pytest.mark.parametrize(
        "steps",
        [lambda s: s[:-1], lambda s: s + s[-1:], lambda s: (TransferStep(2, 1),) + s[1:]],
        ids=["dropped", "repeated", "reversed-ranks"],
    )
    def test_replaced_steps_are_checked(self, steps):
        t = _prufer_tree(40, [3, 17], random.Random(40))
        plan = plan_transfers(delta_sequence(chain(40)), delta_sequence(t))
        bad = dataclasses.replace(plan, steps=steps(plan.steps))
        with pytest.raises(InvalidPlan):
            replay_plan_on_tree(chain(40), bad)

    def test_works_from_any_source_class(self):
        source = DeltaSequence([3, 2, 2, 2, 1, 1, 1])
        target = DeltaSequence([4, 3, 1, 1, 1, 1, 1])
        plan = plan_transfers(source, target)
        for t in trees_with_delta(7, source):
            trace = replay_plan_on_tree(t, plan)
            assert delta_sequence(trace.final) == target


class TestTraceSerialization:
    def test_dict_round_trip(self):
        trace = realize_from_chain(DeltaSequence([4, 2, 2, 2, 1, 1, 1, 1]))
        assert trace_from_dict(trace_to_dict(trace)) == trace

    def test_dict_missing_field_is_parse_error(self):
        with pytest.raises(ParseError, match="'final'"):
            trace_from_dict({"initial": {}, "moves": []})
        data = trace_to_dict(realize_from_chain(DeltaSequence([3, 2, 1, 1, 1])))
        del data["initial"]["n"]
        with pytest.raises(ParseError, match="'n'"):
            trace_from_dict(data)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("moves", [[1, 0]]),
            ("moves", [[1, 2, 3, 4]]),
            ("moves", [7]),
            ("moves", 7),
            ("final", []),
        ],
    )
    def test_dict_wrong_shape_is_parse_error(self, field, value):
        data = trace_to_dict(realize_from_chain(DeltaSequence([3, 2, 1, 1, 1])))
        data[field] = value
        with pytest.raises(ParseError):
            trace_from_dict(data)

    def test_dict_given_as_list_is_parse_error(self):
        data = trace_to_dict(realize_from_chain(DeltaSequence([3, 2, 1, 1, 1])))
        with pytest.raises(ParseError):
            trace_from_dict(list(data.values()))

    def test_dict_rejects_non_int_move_label(self):
        data = trace_to_dict(realize_from_chain(DeltaSequence([3, 2, 1, 1, 1])))
        data["moves"][0][2] = float(data["moves"][0][2])
        with pytest.raises(TypeError):
            trace_from_dict(data)

    def test_replay_matches_recorded_final(self):
        trace = realize_from_chain(DeltaSequence([3, 3, 2, 1, 1, 1, 1]))
        assert apply_moves(trace.initial, trace.moves) == trace.final
        assert isinstance(trace, MoveTrace)


class TestReplayAgainstReference:
    """The working-state replay makes the same moves as the per-move
    reference and ends at the same tree."""

    @pytest.mark.parametrize("n", range(2, 12))
    def test_census_from_chain(self, n):
        for target in delta_census(n):
            _assert_matches_reference(chain(n), target)

    def test_every_source_class_to_every_dominating_target(self):
        census = delta_census(8)
        for source in census:
            targets = [
                y
                for y in census
                if compare(source, y)
                in (ComparisonResult.EQUAL, ComparisonResult.STRICTLY_BELOW)
            ]
            for t in trees_with_delta(8, source):
                for target in targets:
                    _assert_matches_reference(t, target)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 150),
        hub_count=st.integers(0, 5),
        rng=st.randoms(use_true_random=False),
    )
    def test_uniform_and_hub_heavy_prufer_sequences(self, n, hub_count, rng):
        t = _prufer_tree(n, rng.sample(range(n), min(n, hub_count)), rng)
        _assert_matches_reference(chain(n), delta_sequence(t))
        # from a tree with donors of degree >= 3, where the gateway is a choice
        _assert_matches_reference(t, delta_sequence(star(n)))


class TestReplayChecks:
    """Both replayers walk the same checked steps, so each rejects a bad
    plan with InvalidPlan."""

    @pytest.mark.parametrize(
        "t, target, steps",
        [
            (chain(4), [3, 1, 1, 1], [(1, 4)]),
            (chain(5), [2, 2, 2, 1, 1], [(4, 1)]),
            (chain(4), [3, 1, 1, 1], [(2, 1)]),
            (chain(4), [3, 1, 1, 1], [(1, 5)]),
            (chain(4), [3, 1, 1, 1], [(0, 2)]),
            (chain(4), [3, 1, 1, 1], [(5, 1)]),
            (chain(5), [4, 1, 1, 1, 1], []),
            (chain(5), [9, 9], []),
        ],
        ids=[
            "leaf-donor",
            "reversed-smaller-receiver",
            "reversed-equal-values",
            "donor-rank-above-n",
            "receiver-rank-zero",
            "receiver-rank-above-n",
            "short-of-star",
            "short-of-other-length",
        ],
    )
    def test_both_replayers_reject(self, t, target, steps):
        plan = TransferPlan(
            delta_sequence(t),
            DeltaSequence(target),
            tuple(TransferStep(i, j) for i, j in steps),
        )
        with pytest.raises(InvalidPlan):
            replay(plan)
        with pytest.raises(InvalidPlan):
            replay_plan_on_tree(t, plan)

    def test_receiver_rank_after_donor_rank(self):
        # equal values, so only the rank order is wrong; replay agrees
        s = delta_sequence(chain(4))
        plan = TransferPlan(s, DeltaSequence([3, 1, 1, 1]), (TransferStep(2, 1),))
        with pytest.raises(InvalidPlan):
            replay_plan_on_tree(chain(4), plan)
        with pytest.raises(InvalidPlan):
            replay(plan)

    @pytest.mark.parametrize(
        "target", [delta_sequence(star(5)), DeltaSequence([9, 9])], ids=["star", "length"]
    )
    def test_plan_short_of_its_target(self, target):
        plan = TransferPlan(delta_sequence(chain(5)), target, ())
        with pytest.raises(InvalidPlan, match="not the target"):
            replay_plan_on_tree(chain(5), plan)
        with pytest.raises(InvalidPlan, match="not the target"):
            replay(plan)

    @pytest.mark.parametrize("i, j", [(1, 5), (0, 2), (5, 1)])
    def test_rank_out_of_range(self, i, j):
        s = delta_sequence(chain(4))
        plan = TransferPlan(s, DeltaSequence([3, 1, 1, 1]), (TransferStep(i, j),))
        with pytest.raises(InvalidPlan):
            replay_plan_on_tree(chain(4), plan)

    # A step holds only ranks, so a tampered sequence can only arrive in a
    # serialized plan; it is rejected on load, before a tree is touched.
    # The replay tracks the tree's own degrees, so no step can ask for a
    # degree the tree lacks.
    @pytest.mark.parametrize("field", ["after", "before"])
    def test_tampered_after(self, field):
        data = plan_to_dict(
            plan_transfers(
                DeltaSequence([2, 2, 2, 2, 2, 2, 1, 1]),
                DeltaSequence([5, 2, 2, 1, 1, 1, 1, 1]),
            )
        )
        data["steps"][1][field] = data["steps"][2][field]
        with pytest.raises(InvalidPlan):
            plan_from_dict(data)


class TestRealizeLargeN:
    """At thousands of nodes, realizing from the chain reaches the target
    in exactly the plan's number of moves, and the checked move loop,
    replaying the trace on its own, ends at the trace's final tree.  For
    the star, the result is isomorphic to the caterpillar."""

    def _check(self, target):
        trace = realize_from_chain(target)
        plan = plan_transfers(delta_sequence(chain(target.n)), target)
        assert delta_sequence(trace.final) == target
        assert len(trace.moves) == len(plan.steps)
        assert apply_moves(trace.initial, trace.moves) == trace.final
        return trace

    def test_star_3000(self):
        target = delta_sequence(star(3000))
        trace = self._check(target)
        assert is_isomorphic(trace.final, realize_direct(target))

    def test_hub_heavy_2000(self):
        rng = random.Random(2000)
        t = _prufer_tree(2000, rng.sample(range(2000), 3), rng)
        self._check(delta_sequence(t))
