"""Unit transfers on integer sequences and plans between comparable ones.

A basic transfer moves one unit from the value at a lower rank (the donor)
to the value at a higher-or-equal rank (the receiver) of a descending
sequence, then re-sorts.  Chaining basic transfers climbs the majorization
order one strict step at a time; :func:`plan_transfers` produces such a
chain from any sequence to any sequence that dominates it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import pairwise
from operator import neg
from typing import Iterable, Iterator

from .errors import (
    DonorWouldVanish,
    InvalidPlan,
    LengthMismatch,
    NotMajorized,
    SameRank,
    TreeMajorError,
    dict_fields,
    list_of,
)
from .sequences import ComparisonResult, DeltaSequence, compare, require_delta_sequence

__all__ = [
    "TransferStep",
    "TransferPlan",
    "basic_transfer",
    "plan_transfers",
    "replay",
    "format_plan",
    "plan_to_dict",
    "plan_from_dict",
]


@dataclass(frozen=True)
class TransferStep:
    """One basic transfer, as 1-based ranks into the sequence it starts from."""

    receiver_rank: int
    donor_rank: int


@dataclass(frozen=True)
class TransferPlan:
    """Ordered basic transfers carrying ``source`` up to ``target``.

    A plan from :func:`plan_transfers` also keeps the (receiver value, donor
    value) of each step that its planning walk applied.  Only that walk sets
    the record: it is no constructor argument, takes no part in ``==``,
    ``hash`` or ``repr``, and a plan built any other way (the constructor,
    ``dataclasses.replace``, :func:`plan_from_dict`) has none.
    """

    source: DeltaSequence
    target: DeltaSequence
    steps: tuple[TransferStep, ...]
    # receiver then donor value of each step, flat: no tuple kept per step
    _values: list[int] | None = field(default=None, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.steps)

    def values_per_step(self) -> Iterable[tuple[int, int]]:
        """Each step's (receiver value, donor value) from before it is
        applied: the record :func:`plan_transfers` kept, or, for a plan
        without one, :func:`step_values`' checked walk."""
        if self._values is None:
            return step_values(self)
        flat = iter(self._values)
        return zip(flat, flat)

    def sequences(self) -> Iterator[DeltaSequence]:
        """Yield ``source``, then the sequence after each step.  The walk is
        :func:`step_values`'s, so a plan that :func:`replay` rejects raises
        InvalidPlan: at its first bad step, or, for an end other than the
        target, when the sequence after the last step is passed."""
        vals = list(self.source.values)
        yield self.source
        for _, step in zip(step_values(self), self.steps):
            transfer_in_place(vals, step.receiver_rank, step.donor_rank)
            yield DeltaSequence(vals)


def transfer_in_place(vals: list[int], i: int, j: int) -> tuple[int, int]:
    """:func:`basic_transfer` on a descending list, kept descending in place:
    the unit lands on the first slot holding the receiver's value and leaves
    the last slot holding the donor's value, where re-sorting puts them.
    The first lies at or before rank i and the last at or after rank j
    (the list still descends after the first step), so each search covers
    only those slots.  Returns the (receiver, donor) values from before the
    transfer."""
    n = len(vals)
    if not (1 <= i <= n) or not (1 <= j <= n):
        raise ValueError(f"ranks must lie in 1..{n}, got i={i}, j={j}")
    if i == j:
        raise SameRank(f"receiver and donor rank are both {i}")
    receiver, donor = vals[i - 1], vals[j - 1]
    if donor < 2:
        raise DonorWouldVanish(
            f"rank {j} holds {donor}; a transfer would drop it below 1"
        )
    vals[bisect_left(vals, -receiver, 0, i, key=neg)] += 1
    vals[bisect_right(vals, -donor, j - 1, n, key=neg) - 1] -= 1
    return receiver, donor


def basic_transfer(s: DeltaSequence, i: int, j: int) -> DeltaSequence:
    """Move one unit from rank ``j`` to rank ``i`` (1-based) and re-sort.

    The donor value must be at least 2 so no value ever drops below 1.
    With ``i < j`` (the tree variant) the result strictly dominates ``s``.
    Ranks must be ints (TypeError otherwise; a bool is not one).
    """
    if type(i) is not int or type(j) is not int:
        raise TypeError(f"ranks must be ints, got i={i!r}, j={j!r}")
    vals = list(s.values)
    transfer_in_place(vals, i, j)
    return DeltaSequence(vals)


def plan_transfers(source: DeltaSequence, target: DeltaSequence) -> TransferPlan:
    """Plan basic transfers carrying ``source`` to a dominating ``target``.

    Repeatedly transfers one unit to the first rank where the current
    sequence falls short of the target, taken from the first rank where it
    exceeds the target, re-sorting after each step.  Under the dominance
    precondition the receiving rank always precedes the donating rank, so
    every step is a valid tree-variant transfer.  Neither rank ever moves
    back, so both are found by scanning forward, and steps with equal ranks
    are consecutive and share one :class:`TransferStep`.  The plan keeps
    the (receiver value, donor value) that each step of this walk had, so
    :func:`~treemajor.realize.replay_plan_on_tree` moves branches without
    walking the plan again; :func:`replay` still checks every step.

    Equal sequences yield an empty plan.  Raises TypeError unless both are
    DeltaSequences and NotMajorized when the target does not dominate the
    source (including unequal totals, which no transfers can fix).
    """
    require_delta_sequence(source, target)
    if len(source) != len(target):
        raise LengthMismatch(
            f"cannot plan between lengths {len(source)} and {len(target)}"
        )
    if source.total != target.total:
        raise NotMajorized(
            f"totals differ ({source.total} vs {target.total}); "
            "transfers preserve the total"
        )
    rel = compare(source, target)
    if rel is not ComparisonResult.STRICTLY_BELOW and rel is not ComparisonResult.EQUAL:
        raise NotMajorized(f"{source} is not majorized by {target} ({rel})")

    vals, goal = list(source.values), target.values
    steps: list[TransferStep] = []
    values: list[int] = []
    step = None
    j = 0
    for i, want in enumerate(goal, start=1):
        while vals[i - 1] < want:
            while vals[j] <= goal[j]:
                j += 1
            # neither rank moves back, so equal steps are consecutive
            if step is None or step.donor_rank != j + 1 or step.receiver_rank != i:
                step = TransferStep(i, j + 1)
            steps.append(step)
            values += transfer_in_place(vals, i, j + 1)
    plan = TransferPlan(source, target, tuple(steps))
    # the record is no constructor argument; it is set the way a frozen
    # dataclass's own __init__ sets a field
    object.__setattr__(plan, "_values", values)
    return plan


def step_values(plan: TransferPlan) -> Iterator[tuple[int, int]]:
    """Replay ``plan`` from its source, checking every step, and yield each
    step's (receiver value, donor value) from before it is applied.  This
    walk ignores any record the plan keeps: :func:`replay`,
    :meth:`TransferPlan.sequences`, :func:`format_plan`, :func:`plan_to_dict`
    and :func:`plan_from_dict` all check through it.

    A step breaking the tree-variant preconditions (receiver rank before
    donor rank, both ranks in range, donor value at least 2), or an end
    other than the target, raises InvalidPlan.
    """
    vals = list(plan.source.values)
    for k, step in enumerate(plan.steps, start=1):
        if step.receiver_rank >= step.donor_rank:
            raise InvalidPlan(
                f"step {k} has receiver rank {step.receiver_rank} "
                f">= donor rank {step.donor_rank}"
            )
        try:
            values = transfer_in_place(vals, step.receiver_rank, step.donor_rank)
        except (TreeMajorError, ValueError) as exc:
            raise InvalidPlan(f"step {k} cannot be applied: {exc}") from exc
        yield values
    if tuple(vals) != plan.target.values:
        raise InvalidPlan(
            f"replay ends at {DeltaSequence(vals)}, not the target {plan.target}"
        )


def replay(plan: TransferPlan) -> DeltaSequence:
    """Re-apply every step of ``plan`` from its source and return its target;
    a plan that :func:`step_values` rejects raises InvalidPlan."""
    for _ in step_values(plan):
        pass
    return plan.target


def format_plan(plan: TransferPlan) -> str:
    """Line-oriented text: one step per line, `i j | before -> after`."""
    return "\n".join(
        f"{st.receiver_rank} {st.donor_rank} | {before} -> {after}"
        for st, (before, after) in zip(plan.steps, pairwise(plan.sequences()), strict=True)
    )


def plan_to_dict(plan: TransferPlan) -> dict:
    """JSON-ready structured dump; inverse of :func:`plan_from_dict`."""
    return {
        "source": list(plan.source.values),
        "target": list(plan.target.values),
        "steps": [
            {
                "i": st.receiver_rank,
                "j": st.donor_rank,
                "before": list(before.values),
                "after": list(after.values),
            }
            for st, (before, after) in zip(plan.steps, pairwise(plan.sequences()), strict=True)
        ],
    }


def plan_from_dict(data: dict) -> TransferPlan:
    """Inverse of :func:`plan_to_dict`.  The ranks define the plan: steps
    that :func:`replay` rejects, or recorded ``before``/``after`` sequences
    that differ from theirs, raise InvalidPlan, whichever comes first in
    one walk of the plan, :func:`replay`'s."""
    source, target, raw_steps = dict_fields(data, "plan", "source", "target", "steps")
    fields = [dict_fields(st, "plan step", "i", "j", "before", "after")
              for st in list_of(raw_steps, "plan steps")]
    ranks = [(i, j) for i, j, _, _ in fields]
    snapshots = [(list_of(b, "step before"), list_of(a, "step after")) for _, _, b, a in fields]
    if any(type(r) is not int for pair in ranks for r in pair):
        raise TypeError(f"ranks must be ints, got {ranks!r}")
    steps = tuple(TransferStep(receiver_rank=i, donor_rank=j) for i, j in ranks)
    plan = TransferPlan(
        source=DeltaSequence(list_of(source, "plan source")),
        target=DeltaSequence(list_of(target, "plan target")),
        steps=steps,
    )
    recorded = [(DeltaSequence(b), DeltaSequence(a)) for b, a in snapshots]
    for k, (got, rec) in enumerate(zip(pairwise(plan.sequences()), recorded), start=1):
        if got != rec:
            raise InvalidPlan(
                f"step {k} records {rec[0]} -> {rec[1]}, "
                f"but its ranks give {got[0]} -> {got[1]}"
            )
    return plan
