"""Unit transfers on integer sequences and plans between comparable ones.

A basic transfer moves one unit from the value at a lower rank (the donor)
to the value at a higher-or-equal rank (the receiver) of a descending
sequence, then re-sorts.  Chaining basic transfers climbs the majorization
order one strict step at a time; :func:`plan_transfers` produces such a
chain from any sequence to any sequence that dominates it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DonorWouldVanish,
    InvalidPlan,
    LengthMismatch,
    NotMajorized,
    SameRank,
    TreeMajorError,
)
from .sequences import ComparisonResult, DeltaSequence, compare

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
    """One recorded basic transfer.

    Ranks are 1-based positions into ``before``; ``after`` is the re-sorted
    result.  Snapshots are kept on every step because re-sorting changes
    what a rank denotes from one step to the next.
    """

    receiver_rank: int
    donor_rank: int
    before: DeltaSequence
    after: DeltaSequence


@dataclass(frozen=True)
class TransferPlan:
    """Ordered basic transfers carrying ``source`` up to ``target``."""

    source: DeltaSequence
    target: DeltaSequence
    steps: tuple[TransferStep, ...]

    def __len__(self) -> int:
        return len(self.steps)


def basic_transfer(s: DeltaSequence, i: int, j: int) -> DeltaSequence:
    """Move one unit from rank ``j`` to rank ``i`` (1-based) and re-sort.

    The donor value must be at least 2 so no value ever drops below 1.
    With ``i < j`` (the tree variant) the result strictly dominates ``s``.
    """
    n = len(s)
    if not (1 <= i <= n) or not (1 <= j <= n):
        raise ValueError(f"ranks must lie in 1..{n}, got i={i}, j={j}")
    if i == j:
        raise SameRank(f"receiver and donor rank are both {i}")
    if s[j - 1] < 2:
        raise DonorWouldVanish(
            f"rank {j} holds {s[j - 1]}; a transfer would drop it below 1"
        )
    vals = list(s.values)
    vals[i - 1] += 1
    vals[j - 1] -= 1
    return DeltaSequence(vals)


def plan_transfers(source: DeltaSequence, target: DeltaSequence) -> TransferPlan:
    """Plan basic transfers carrying ``source`` to a dominating ``target``.

    Repeatedly transfers one unit to the first rank where the current
    sequence falls short of the target, taken from the first rank where it
    exceeds the target, re-sorting after each step.  Under the dominance
    precondition the receiving rank always precedes the donating rank, so
    every step is a valid tree-variant transfer.

    Equal sequences yield an empty plan.  Raises NotMajorized when the
    target does not dominate the source (including unequal totals, which no
    amount of transferring can fix).
    """
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
    if rel is ComparisonResult.EQUAL:
        return TransferPlan(source=source, target=target, steps=())
    if rel is not ComparisonResult.STRICTLY_BELOW:
        raise NotMajorized(f"{source} is not majorized by {target} ({rel})")

    steps: list[TransferStep] = []
    cur = source
    while cur != target:
        i = next(
            k + 1 for k, (a, b) in enumerate(zip(cur, target)) if a < b
        )
        j = next(
            k + 1 for k, (a, b) in enumerate(zip(cur, target)) if a > b
        )
        nxt = basic_transfer(cur, i, j)
        steps.append(
            TransferStep(receiver_rank=i, donor_rank=j, before=cur, after=nxt)
        )
        cur = nxt
    return TransferPlan(source=source, target=target, steps=tuple(steps))


def replay(plan: TransferPlan) -> DeltaSequence:
    """Re-apply every step of ``plan`` from its source and return the result.

    Each step is validated against its recorded snapshots and against the
    tree-variant transfer preconditions (receiver rank before donor rank,
    donor value at least 2); any violation raises InvalidPlan.
    """
    cur = plan.source
    for k, step in enumerate(plan.steps, start=1):
        if step.before != cur:
            raise InvalidPlan(
                f"step {k} starts from {step.before} but the sequence is {cur}"
            )
        if step.receiver_rank >= step.donor_rank:
            raise InvalidPlan(
                f"step {k} has receiver rank {step.receiver_rank} "
                f">= donor rank {step.donor_rank}"
            )
        try:
            nxt = basic_transfer(cur, step.receiver_rank, step.donor_rank)
        except (TreeMajorError, ValueError) as exc:
            raise InvalidPlan(f"step {k} cannot be applied: {exc}") from exc
        if nxt != step.after:
            raise InvalidPlan(
                f"step {k} records {step.after} but applying it gives {nxt}"
            )
        cur = nxt
    if cur != plan.target:
        raise InvalidPlan(f"replay ends at {cur}, not the target {plan.target}")
    return cur


def format_plan(plan: TransferPlan) -> str:
    """Line-oriented text: one step per line, `i j | before -> after`."""
    return "\n".join(
        f"{st.receiver_rank} {st.donor_rank} | {st.before} -> {st.after}"
        for st in plan.steps
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
                "before": list(st.before.values),
                "after": list(st.after.values),
            }
            for st in plan.steps
        ],
    }


def plan_from_dict(data: dict) -> TransferPlan:
    ranks = [(st["i"], st["j"]) for st in data["steps"]]
    if any(type(r) is not int for pair in ranks for r in pair):
        raise TypeError(f"ranks must be ints, got {ranks!r}")
    return TransferPlan(
        source=DeltaSequence(data["source"]),
        target=DeltaSequence(data["target"]),
        steps=tuple(
            TransferStep(
                receiver_rank=i,
                donor_rank=j,
                before=DeltaSequence(st["before"]),
                after=DeltaSequence(st["after"]),
            )
            for (i, j), st in zip(ranks, data["steps"])
        ),
    )
