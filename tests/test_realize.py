"""Realization of feasible sequences: plan replay on trees and the direct
caterpillar construction."""

import pytest

from treemajor import (
    DeltaSequence,
    MoveTrace,
    NotTreeFeasible,
    apply_moves,
    canonical_code,
    chain,
    delta_census,
    delta_sequence,
    format_trace,
    is_isomorphic,
    parse_trace,
    plan_transfers,
    realize_direct,
    realize_from_chain,
    replay_plan_on_tree,
    star,
    trace_from_dict,
    trace_to_dict,
    trees_with_delta,
)


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
        with pytest.raises(NotTreeFeasible):
            realize_from_chain(DeltaSequence([3, 1]))

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
        with pytest.raises(NotTreeFeasible):
            realize_direct(DeltaSequence([2, 2, 2]))


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

    def test_works_from_any_source_class(self):
        source = DeltaSequence([3, 2, 2, 2, 1, 1, 1])
        target = DeltaSequence([4, 3, 1, 1, 1, 1, 1])
        plan = plan_transfers(source, target)
        for t in trees_with_delta(7, source):
            trace = replay_plan_on_tree(t, plan)
            assert delta_sequence(trace.final) == target


class TestTraceSerialization:
    def test_text_round_trip(self):
        trace = realize_from_chain(DeltaSequence([5, 2, 2, 1, 1, 1, 1, 1]))
        assert parse_trace(format_trace(trace)) == trace

    def test_text_round_trip_empty_moves(self):
        trace = realize_from_chain(DeltaSequence([1, 1]))
        assert parse_trace(format_trace(trace)) == trace

    def test_dict_round_trip(self):
        trace = realize_from_chain(DeltaSequence([4, 2, 2, 2, 1, 1, 1, 1]))
        assert trace_from_dict(trace_to_dict(trace)) == trace

    def test_dict_rejects_non_int_move_label(self):
        data = trace_to_dict(realize_from_chain(DeltaSequence([3, 2, 1, 1, 1])))
        data["moves"][0][2] = float(data["moves"][0][2])
        with pytest.raises(TypeError):
            trace_from_dict(data)

    def test_replay_matches_recorded_final(self):
        trace = realize_from_chain(DeltaSequence([3, 3, 2, 1, 1, 1, 1]))
        assert apply_moves(trace.initial, trace.moves) == trace.final
        assert isinstance(trace, MoveTrace)
