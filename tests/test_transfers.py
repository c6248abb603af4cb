"""Basic transfers, plan construction, replay, serialization."""

import pytest

from treemajor import (
    ComparisonResult,
    DeltaSequence,
    DonorWouldVanish,
    InvalidPlan,
    NotMajorized,
    SameRank,
    TransferPlan,
    TransferStep,
    basic_transfer,
    compare,
    delta_census,
    format_plan,
    majorization_gap,
    plan_from_dict,
    plan_to_dict,
    plan_transfers,
    replay,
)


class TestBasicTransfer:
    def test_worked_step(self):
        s = DeltaSequence([3, 3, 3, 1, 1, 1, 1, 1])
        assert basic_transfer(s, 1, 3).values == (4, 3, 2, 1, 1, 1, 1, 1)

    def test_two_values(self):
        assert basic_transfer(DeltaSequence([2, 2]), 1, 2).values == (3, 1)

    def test_donor_would_vanish(self):
        with pytest.raises(DonorWouldVanish):
            basic_transfer(DeltaSequence([2, 1]), 1, 2)

    def test_same_rank(self):
        with pytest.raises(SameRank):
            basic_transfer(DeltaSequence([2, 2]), 2, 2)

    def test_rank_out_of_bounds(self):
        with pytest.raises(ValueError):
            basic_transfer(DeltaSequence([2, 2]), 0, 2)
        with pytest.raises(ValueError):
            basic_transfer(DeltaSequence([2, 2]), 1, 3)

    def test_preserves_total_and_resorts(self):
        s = DeltaSequence([3, 2, 2, 2, 1])
        out = basic_transfer(s, 2, 4)
        assert out.total == s.total
        assert out.values == tuple(sorted(out.values, reverse=True))

    def test_strictly_raises_order_when_receiver_outranks_donor(self):
        for n in (5, 6, 7):
            for s in delta_census(n):
                for j in range(2, n + 1):
                    if s[j - 1] < 2:
                        continue
                    for i in range(1, j):
                        out = basic_transfer(s, i, j)
                        assert compare(s, out) is ComparisonResult.STRICTLY_BELOW


class TestPlanTransfers:
    def test_two_step_golden(self):
        plan = plan_transfers(
            DeltaSequence([3, 3, 3, 1, 1, 1, 1, 1]),
            DeltaSequence([5, 3, 1, 1, 1, 1, 1, 1]),
        )
        assert len(plan.steps) == 2
        assert plan.steps[0].after.values == (4, 3, 2, 1, 1, 1, 1, 1)
        assert plan.steps[1].after.values == (5, 3, 1, 1, 1, 1, 1, 1)

    def test_three_step_golden_from_chain_delta(self):
        plan = plan_transfers(
            DeltaSequence([2, 2, 2, 2, 2, 2, 1, 1]),
            DeltaSequence([5, 2, 2, 1, 1, 1, 1, 1]),
        )
        intermediates = [st.after.values for st in plan.steps]
        assert intermediates == [
            (3, 2, 2, 2, 2, 1, 1, 1),
            (4, 2, 2, 2, 1, 1, 1, 1),
            (5, 2, 2, 1, 1, 1, 1, 1),
        ]

    def test_equal_inputs_empty_plan(self):
        s = DeltaSequence([3, 2, 1, 1, 1])
        plan = plan_transfers(s, s)
        assert plan.steps == ()
        assert replay(plan) == s

    def test_rejects_incomparable(self):
        with pytest.raises(NotMajorized):
            plan_transfers(
                DeltaSequence([5, 2, 2, 1, 1, 1, 1, 1]),
                DeltaSequence([4, 4, 1, 1, 1, 1, 1, 1]),
            )

    def test_rejects_wrong_direction(self):
        with pytest.raises(NotMajorized):
            plan_transfers(
                DeltaSequence([5, 2, 2, 1, 1, 1, 1, 1]),
                DeltaSequence([2, 2, 2, 2, 2, 2, 1, 1]),
            )

    def test_rejects_unequal_totals(self):
        with pytest.raises(NotMajorized):
            plan_transfers(DeltaSequence([2, 2, 1, 1]), DeltaSequence([3, 3, 3, 3]))

    @pytest.mark.parametrize("n", range(2, 10))
    def test_round_trip_over_census(self, n):
        census = delta_census(n)
        for x in census:
            for y in census:
                if compare(x, y) not in (
                    ComparisonResult.EQUAL,
                    ComparisonResult.STRICTLY_BELOW,
                ):
                    continue
                plan = plan_transfers(x, y)
                assert replay(plan) == y
                assert len(plan.steps) <= majorization_gap(x, y)
                gap = majorization_gap(x, y)
                for step in plan.steps:
                    # every step climbs strictly and shrinks the gap
                    assert compare(step.before, step.after) is (
                        ComparisonResult.STRICTLY_BELOW
                    )
                    assert step.after.tree_feasible
                    nxt = majorization_gap(step.after, y)
                    assert nxt < gap
                    gap = nxt


class TestReplayValidation:
    def test_single_hand_built_step(self):
        plan = TransferPlan(
            source=DeltaSequence([2, 2, 1, 1]),
            target=DeltaSequence([3, 1, 1, 1]),
            steps=(
                TransferStep(
                    receiver_rank=1,
                    donor_rank=2,
                    before=DeltaSequence([2, 2, 1, 1]),
                    after=DeltaSequence([3, 1, 1, 1]),
                ),
            ),
        )
        assert replay(plan).values == (3, 1, 1, 1)

    def test_rejects_wrong_snapshot(self):
        plan = TransferPlan(
            source=DeltaSequence([2, 2, 1, 1]),
            target=DeltaSequence([3, 1, 1, 1]),
            steps=(
                TransferStep(
                    receiver_rank=1,
                    donor_rank=2,
                    before=DeltaSequence([2, 2, 2]),
                    after=DeltaSequence([3, 1, 1, 1]),
                ),
            ),
        )
        with pytest.raises(InvalidPlan):
            replay(plan)

    def test_rejects_receiver_after_donor(self):
        plan = TransferPlan(
            source=DeltaSequence([2, 2, 1, 1]),
            target=DeltaSequence([2, 2, 1, 1]),
            steps=(
                TransferStep(
                    receiver_rank=2,
                    donor_rank=1,
                    before=DeltaSequence([2, 2, 1, 1]),
                    after=DeltaSequence([3, 1, 1, 1]),
                ),
            ),
        )
        with pytest.raises(InvalidPlan):
            replay(plan)

    def test_rejects_vanishing_donor(self):
        plan = TransferPlan(
            source=DeltaSequence([2, 1, 1]),
            target=DeltaSequence([3, 1]),
            steps=(
                TransferStep(
                    receiver_rank=1,
                    donor_rank=3,
                    before=DeltaSequence([2, 1, 1]),
                    after=DeltaSequence([3, 1]),
                ),
            ),
        )
        with pytest.raises(InvalidPlan):
            replay(plan)

    def test_rejects_mismatched_after(self):
        plan = TransferPlan(
            source=DeltaSequence([2, 2, 1, 1]),
            target=DeltaSequence([3, 1, 1, 1]),
            steps=(
                TransferStep(
                    receiver_rank=1,
                    donor_rank=2,
                    before=DeltaSequence([2, 2, 1, 1]),
                    after=DeltaSequence([2, 2, 1, 1]),
                ),
            ),
        )
        with pytest.raises(InvalidPlan):
            replay(plan)


class TestSerialization:
    def test_format_golden(self):
        plan = plan_transfers(
            DeltaSequence([3, 3, 3, 1, 1, 1, 1, 1]),
            DeltaSequence([5, 3, 1, 1, 1, 1, 1, 1]),
        )
        assert format_plan(plan) == (
            "1 3 | 3,3,3,1,1,1,1,1 -> 4,3,2,1,1,1,1,1\n"
            "1 3 | 4,3,2,1,1,1,1,1 -> 5,3,1,1,1,1,1,1"
        )

    def test_empty_plan_formats_empty(self):
        s = DeltaSequence([2, 1, 1])
        assert format_plan(plan_transfers(s, s)) == ""

    def test_dict_round_trip(self):
        plan = plan_transfers(
            DeltaSequence([2, 2, 2, 2, 2, 2, 1, 1]),
            DeltaSequence([5, 2, 2, 1, 1, 1, 1, 1]),
        )
        assert plan_from_dict(plan_to_dict(plan)) == plan

    @pytest.mark.parametrize("field, value", [("target", [3.9, 1, 1, 1]), ("i", 1.0)])
    def test_dict_rejects_non_int(self, field, value):
        data = plan_to_dict(
            plan_transfers(DeltaSequence([2, 2, 1, 1]), DeltaSequence([3, 1, 1, 1]))
        )
        if field == "i":
            data["steps"][0]["i"] = value
        else:
            data[field] = value
        with pytest.raises(TypeError):
            plan_from_dict(data)
