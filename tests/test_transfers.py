"""Basic transfers, plan construction, replay, serialization."""

import copy
import dataclasses
import json
import pickle
from itertools import pairwise

import pytest
from hypothesis import given, strategies as st

from treemajor import (
    ComparisonResult,
    DeltaSequence,
    DonorWouldVanish,
    InvalidPlan,
    NonPositiveDegree,
    NotMajorized,
    ParseError,
    SameRank,
    TransferPlan,
    TransferStep,
    basic_transfer,
    chain,
    compare,
    delta_census,
    format_plan,
    majorization_gap,
    plan_from_dict,
    plan_to_dict,
    plan_transfers,
    replay,
    replay_plan_on_tree,
)
from treemajor import transfers
from treemajor.transfers import step_values, transfer_in_place


@pytest.fixture
def applied(monkeypatch):
    """One entry per transfer_in_place call the library makes."""
    calls = []
    real = transfers.transfer_in_place
    monkeypatch.setattr(transfers, "transfer_in_place", lambda *a: calls.append(a) or real(*a))
    return calls


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

    @pytest.mark.parametrize("i, j", [(True, 3), (1, True), (1.0, 3), (1, "3"), (None, 3)])
    def test_non_int_rank_rejected(self, i, j):
        # a bool is not rank 1
        with pytest.raises(TypeError, match="^ranks must be ints, got "):
            basic_transfer(DeltaSequence([3, 2, 2, 1, 1, 1]), i, j)

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
    @pytest.mark.parametrize("other", [(2, 1, 1), [2, 1, 1], "211"])
    def test_not_a_delta_sequence(self, other):
        # a plain tuple or list of degrees is not coerced, on either side
        s = DeltaSequence([2, 1, 1])
        pattern = "^sequence must be a DeltaSequence, got "
        with pytest.raises(TypeError, match=pattern):
            plan_transfers(other, s)
        with pytest.raises(TypeError, match=pattern):
            plan_transfers(s, other)

    def test_two_step_golden(self):
        plan = plan_transfers(
            DeltaSequence([3, 3, 3, 1, 1, 1, 1, 1]),
            DeltaSequence([5, 3, 1, 1, 1, 1, 1, 1]),
        )
        assert len(plan.steps) == 2
        _, first, second = plan.sequences()
        assert first.values == (4, 3, 2, 1, 1, 1, 1, 1)
        assert second.values == (5, 3, 1, 1, 1, 1, 1, 1)

    def test_three_step_golden_from_chain_delta(self):
        plan = plan_transfers(
            DeltaSequence([2, 2, 2, 2, 2, 2, 1, 1]),
            DeltaSequence([5, 2, 2, 1, 1, 1, 1, 1]),
        )
        intermediates = [s.values for s in plan.sequences()][1:]
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
                for before, after in pairwise(plan.sequences()):
                    # every step climbs strictly and shrinks the gap
                    assert compare(before, after) is (
                        ComparisonResult.STRICTLY_BELOW
                    )
                    assert after.tree_feasible
                    nxt = majorization_gap(after, y)
                    assert nxt < gap
                    gap = nxt


class TestConstruction:
    """A hand-built plan or step is checked when it is made, as
    plan_transfers and basic_transfer check theirs."""

    @pytest.mark.parametrize(
        "use, source, target, steps",
        [
            (replay, (2, 1, 1), (2, 1, 1), ()),
            (format_plan, (3, 1, 1, 1), (3, 1, 1, 1), ()),
            (
                lambda plan: replay_plan_on_tree(chain(4), plan),
                (2, 2, 1, 1),
                (3, 1, 1, 1),
                (TransferStep(1, 2),),
            ),
            (replay, DeltaSequence([2, 1, 1]), (2, 1, 1), ()),
        ],
        ids=["replay", "format_plan", "replay_plan_on_tree", "target-only"],
    )
    def test_plain_tuple_sequences_rejected(self, use, source, target, steps):
        with pytest.raises(TypeError, match=r"^sequence must be a DeltaSequence, got \("):
            use(TransferPlan(source, target, steps))

    @pytest.mark.parametrize("steps", [[TransferStep(1, 2)], None], ids=["list", "none"])
    def test_steps_must_be_a_tuple(self, steps):
        s = DeltaSequence([2, 2, 1, 1])
        with pytest.raises(TypeError, match="^steps must be a tuple, got "):
            TransferPlan(s, DeltaSequence([3, 1, 1, 1]), steps)

    @pytest.mark.parametrize("i, j", [(True, 2), (1, True), (1, 2.0), (1.0, 3)])
    def test_non_int_rank_rejected(self, i, j):
        # a bool is not rank 1, and a float rank is not coerced
        with pytest.raises(TypeError, match=rf"^ranks must be ints, got \({i}, {j}\)$"):
            TransferStep(i, j)


class TestPlannedRecord:
    """plan_transfers keeps the values its walk applied, and only the
    planner sets the record; every other plan is walked and checked.  That
    the record equals the checked walk is tested on every class in
    test_realize."""

    STAR = DeltaSequence([9] + [1] * 9)
    CHAIN = DeltaSequence([2] * 8 + [1, 1])

    def test_equal_ranks_share_one_step(self):
        plan = plan_transfers(self.CHAIN, self.STAR)
        assert len({id(st) for st in plan.steps}) == len(set(plan.steps)) == 1

    def test_only_a_planned_plan_is_read_from_its_record(self, applied):
        plan = plan_transfers(self.CHAIN, self.STAR)
        assert len(applied) == len(plan) == 7
        want = list(plan.values_per_step())
        assert len(applied) == 7
        others = [
            TransferPlan(plan.source, plan.target, plan.steps),
            dataclasses.replace(plan),
            plan_from_dict(plan_to_dict(plan)),
        ]
        for other in others:
            del applied[:]
            assert list(other.values_per_step()) == want
            assert len(applied) == len(plan)
        bad = dataclasses.replace(plan, steps=plan.steps[:-1])
        with pytest.raises(InvalidPlan, match="not the target"):
            list(bad.values_per_step())

    @pytest.mark.parametrize(
        "round_trip",
        [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_and_pickles_keep_the_record(self, round_trip, applied):
        plan = plan_transfers(self.CHAIN, self.STAR)
        want = list(plan.values_per_step())
        other = round_trip(plan)
        assert other == plan
        del applied[:]
        assert list(other.values_per_step()) == want
        assert applied == []

    def test_record_cannot_be_passed_in(self):
        plan = plan_transfers(self.CHAIN, self.STAR)
        record = list(plan.values_per_step())
        with pytest.raises(TypeError):
            TransferPlan(plan.source, plan.target, (), record)
        with pytest.raises(TypeError):
            TransferPlan(plan.source, plan.target, (), _values=record)
        with pytest.raises(ValueError):
            dataclasses.replace(plan, _values=record)

    def test_replay_still_checks_every_step_of_a_planned_plan(self, applied):
        plan = plan_transfers(self.CHAIN, self.STAR)
        del applied[:]
        assert replay(plan) == self.STAR
        assert len(applied) == len(plan)


def _load(data):
    """A plan read back from JSON text, as a plan from outside arrives."""
    return plan_from_dict(json.loads(json.dumps(data)))


class TestReplayValidation:
    """A plan holds only ranks; the sequences a serialized plan records
    are checked against them when it is loaded."""

    def test_single_hand_built_step(self):
        plan = TransferPlan(
            source=DeltaSequence([2, 2, 1, 1]),
            target=DeltaSequence([3, 1, 1, 1]),
            steps=(TransferStep(receiver_rank=1, donor_rank=2),),
        )
        assert replay(plan).values == (3, 1, 1, 1)

    def test_rejects_wrong_snapshot(self):
        data = plan_to_dict(
            plan_transfers(
                DeltaSequence([2, 2, 2, 1, 1]), DeltaSequence([3, 2, 1, 1, 1])
            )
        )
        for before in ([3, 2, 1, 1, 1], [2, 2, 2]):
            data["steps"][0]["before"] = before
            with pytest.raises(InvalidPlan):
                replay(_load(data))

    def test_rejects_receiver_after_donor(self):
        plan = TransferPlan(
            source=DeltaSequence([2, 2, 1, 1]),
            target=DeltaSequence([2, 2, 1, 1]),
            steps=(TransferStep(receiver_rank=2, donor_rank=1),),
        )
        with pytest.raises(InvalidPlan):
            replay(plan)

    def test_rejects_vanishing_donor(self):
        plan = TransferPlan(
            source=DeltaSequence([2, 1, 1]),
            target=DeltaSequence([3, 1]),
            steps=(TransferStep(receiver_rank=1, donor_rank=3),),
        )
        with pytest.raises(InvalidPlan):
            replay(plan)

    def test_rejects_mismatched_after(self):
        data = plan_to_dict(
            plan_transfers(
                DeltaSequence([2, 2, 2, 2, 2, 2, 1, 1]),
                DeltaSequence([5, 2, 2, 1, 1, 1, 1, 1]),
            )
        )
        data["steps"][1]["after"] = data["steps"][2]["after"]
        with pytest.raises(InvalidPlan):
            replay(_load(data))

    def test_rejects_walk_missing_target(self):
        plan = TransferPlan(
            source=DeltaSequence([2, 2, 2, 1, 1]),
            target=DeltaSequence([4, 1, 1, 1, 1]),
            steps=(TransferStep(receiver_rank=1, donor_rank=3),),
        )
        with pytest.raises(InvalidPlan):
            replay(plan)


    @pytest.mark.parametrize("n", range(2, 10))
    def test_walk_yields_the_values_before_each_step(self, n):
        # the census holds exactly the classes' degree sequences
        census = delta_census(n)
        for a in census:
            for b in census:
                if compare(a, b) is not ComparisonResult.STRICTLY_BELOW:
                    continue
                plan = plan_transfers(a, b)
                assert list(step_values(plan)) == [
                    (before.values[st.receiver_rank - 1], before.values[st.donor_rank - 1])
                    for st, (before, _) in zip(plan.steps, pairwise(plan.sequences()))
                ]


class TestSequences:
    def test_source_then_one_sequence_per_step(self):
        source = DeltaSequence([2, 2, 2, 2, 2, 2, 1, 1])
        target = DeltaSequence([5, 2, 2, 1, 1, 1, 1, 1])
        plan = plan_transfers(source, target)
        seqs = list(plan.sequences())
        assert len(seqs) == len(plan) + 1
        assert seqs[0] is source and seqs[-1] == target

    def test_bad_step_raises_invalid_plan_when_reached(self):
        # the walk is step_values', so a step it cannot apply is a bad plan
        plan = TransferPlan(
            source=DeltaSequence([2, 1, 1]),
            target=DeltaSequence([2, 1, 1]),
            steps=(TransferStep(receiver_rank=1, donor_rank=3),),
        )
        walk = plan.sequences()
        assert next(walk) == plan.source
        with pytest.raises(InvalidPlan, match="step 1 cannot be applied"):
            next(walk)

    def test_wrong_end_raises_after_the_last_sequence(self):
        plan = TransferPlan(
            source=DeltaSequence([2, 2, 2, 1, 1]),
            target=DeltaSequence([4, 1, 1, 1, 1]),
            steps=(TransferStep(receiver_rank=1, donor_rank=3),),
        )
        walk = plan.sequences()
        assert [next(walk), next(walk)] == [plan.source, DeltaSequence([3, 2, 1, 1, 1])]
        with pytest.raises(InvalidPlan, match="not the target"):
            next(walk)

    @given(values=st.lists(st.integers(1, 6), max_size=11), data=st.data())
    def test_in_place_transfer_matches_resort(self, values, data):
        s = DeltaSequence(values + [2, 1])
        n = len(s)
        j = data.draw(st.sampled_from([k + 1 for k in range(n) if s[k] >= 2]))
        i = data.draw(st.integers(1, n).filter(lambda i: i != j))
        vals = list(s.values)
        vals[i - 1] += 1
        vals[j - 1] -= 1
        assert basic_transfer(s, i, j).values == tuple(sorted(vals, reverse=True))

    @pytest.mark.parametrize("receiver_first", [True, False])
    @given(values=st.lists(st.integers(1, 3), max_size=12), data=st.data())
    def test_transfer_in_place_matches_resort(self, receiver_first, values, data):
        # values from 1..3 give long runs; the receiver's run may start
        # before rank i and the donor's end after rank j
        vals = sorted(values + [2, 2, 1], reverse=True)
        n = len(vals)
        j = data.draw(st.sampled_from([k for k in range(2, n + 1) if vals[k - 1] >= 2]))
        i = data.draw(st.integers(1, j - 1) if receiver_first else st.integers(j + 1, n))
        want = list(vals)
        want[i - 1] += 1
        want[j - 1] -= 1
        assert transfer_in_place(vals, i, j) == (want[i - 1] - 1, want[j - 1] + 1)
        assert vals == sorted(want, reverse=True)

    def test_chain_to_star_at_ten_thousand(self):
        n = 10_000
        star = DeltaSequence([n - 1] + [1] * (n - 1))
        plan = plan_transfers(DeltaSequence([2] * (n - 2) + [1, 1]), star)
        assert len(plan.steps) == n - 3
        assert replay(plan) == star


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

    @pytest.mark.parametrize(
        "source, target, steps",
        [
            ([2, 2, 1, 1], [2, 2, 1, 1], [(2, 1)]),
            ([2, 2, 2, 1, 1], [4, 1, 1, 1, 1], [(1, 3)]),
            ([2, 2, 2, 1, 1], [4, 1, 1, 1, 1], []),
            ([2, 2, 1, 1], [3, 1, 1, 1], [(1, 4)]),
            ([2, 2, 1, 1], [3, 1, 1, 1], [(1, 5)]),
        ],
        ids=["receiver-after-donor", "short-of-target", "empty-short", "leaf-donor",
             "rank-above-n"],
    )
    def test_writers_reject_what_replay_rejects(self, source, target, steps):
        # before, both printed the unchecked walk: 2 1 | 2,2,1,1 -> 3,1,1,1
        plan = TransferPlan(
            DeltaSequence(source), DeltaSequence(target), tuple(TransferStep(*st) for st in steps)
        )
        for write in (replay, format_plan, plan_to_dict):
            with pytest.raises(InvalidPlan):
                write(plan)

    def test_empty_plan_formats_empty(self):
        s = DeltaSequence([2, 1, 1])
        assert format_plan(plan_transfers(s, s)) == ""

    def test_dict_round_trip(self):
        plan = plan_transfers(
            DeltaSequence([2, 2, 2, 2, 2, 2, 1, 1]),
            DeltaSequence([5, 2, 2, 1, 1, 1, 1, 1]),
        )
        assert _load(plan_to_dict(plan)) == plan

    @pytest.mark.parametrize("field, value", [("target", [3.9, 1, 1, 1]), ("i", 1.0)])
    def test_dict_rejects_non_int(self, field, value):
        data = plan_to_dict(
            plan_transfers(DeltaSequence([2, 2, 1, 1]), DeltaSequence([3, 1, 1, 1]))
        )
        if field == "i":
            data["steps"][0]["i"] = value
        else:
            data[field] = value
        what = "ranks" if field == "i" else "degrees"
        with pytest.raises(TypeError, match=f"^{what} must be ints, got "):
            plan_from_dict(data)

    def test_dict_missing_field_is_parse_error(self):
        with pytest.raises(ParseError, match="'steps'"):
            plan_from_dict({"source": [2, 1, 1], "target": [2, 1, 1]})

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda d: d["steps"].__setitem__(0, list(d["steps"][0].values())),
            lambda d: d.__setitem__("steps", d["steps"][0]),
            lambda d: d.__setitem__("source", 6),
            lambda d: d["steps"][0].__setitem__("before", 6),
        ],
        ids=["step-as-list", "steps-not-a-list", "source-not-a-list", "before-not-a-list"],
    )
    def test_dict_wrong_shape_is_parse_error(self, mangle):
        data = plan_to_dict(
            plan_transfers(DeltaSequence([2, 2, 1, 1]), DeltaSequence([3, 1, 1, 1]))
        )
        mangle(data)
        with pytest.raises(ParseError):
            plan_from_dict(data)

    def test_dict_given_as_list_is_parse_error(self):
        data = plan_to_dict(
            plan_transfers(DeltaSequence([2, 2, 1, 1]), DeltaSequence([3, 1, 1, 1]))
        )
        with pytest.raises(ParseError):
            plan_from_dict(list(data.values()))

    @pytest.mark.parametrize("field", ["i", "j", "before", "after"])
    def test_dict_step_missing_field_is_parse_error(self, field):
        data = plan_to_dict(
            plan_transfers(DeltaSequence([2, 2, 1, 1]), DeltaSequence([3, 1, 1, 1]))
        )
        del data["steps"][0][field]
        with pytest.raises(ParseError, match=repr(field)):
            plan_from_dict(data)

    # step 2 is (1, 4) on 3,2,2,2,2,1,1,1: a different receiver value, a
    # rank out of range, equal ranks and a leaf donor
    @pytest.mark.parametrize("i, j", [(2, 4), (1, 9), (0, 4), (4, 4), (1, 7)])
    def test_dict_rejects_tampered_rank(self, i, j):
        data = plan_to_dict(
            plan_transfers(
                DeltaSequence([2, 2, 2, 2, 2, 2, 1, 1]),
                DeltaSequence([5, 2, 2, 1, 1, 1, 1, 1]),
            )
        )
        assert (data["steps"][1]["i"], data["steps"][1]["j"]) == (1, 4)
        data["steps"][1]["i"], data["steps"][1]["j"] = i, j
        with pytest.raises(InvalidPlan):
            _load(data)

    # each loads as a plan that replay rejects: an empty plan short of its
    # target, a target of another length, a receiver rank after the donor
    # rank, and a valid step short of the target, the last two with recorded
    # sequences that agree with their ranks
    @pytest.mark.parametrize(
        "source, target, steps",
        [
            ([2, 2, 1, 1], [3, 1, 1, 1], []),
            ([2, 2, 1, 1], [2, 1, 1], []),
            ([2, 2, 1, 1], [3, 1, 1, 1],
             [{"i": 2, "j": 1, "before": [2, 2, 1, 1], "after": [3, 1, 1, 1]}]),
            ([2, 2, 2, 1, 1], [4, 1, 1, 1, 1],
             [{"i": 1, "j": 3, "before": [2, 2, 2, 1, 1], "after": [3, 2, 1, 1, 1]}]),
        ],
        ids=[
            "empty-plan-short-of-target",
            "target-of-another-length",
            "receiver-after-donor",
            "one-step-short-of-target",
        ],
    )
    def test_dict_rejects_a_plan_replay_rejects(self, source, target, steps):
        with pytest.raises(InvalidPlan):
            plan_from_dict({"source": source, "target": target, "steps": steps})

    @pytest.mark.parametrize("field", ["source", "before"])
    def test_dict_rejects_a_zero_degree_in_any_sequence(self, field):
        data = plan_to_dict(
            plan_transfers(DeltaSequence([2, 2, 1, 1]), DeltaSequence([3, 1, 1, 1]))
        )
        if field == "before":
            data["steps"][0]["before"] = [3, 2, 1, 0]
        else:
            data["source"] = [3, 2, 1, 0]
        with pytest.raises(NonPositiveDegree):
            plan_from_dict(data)
