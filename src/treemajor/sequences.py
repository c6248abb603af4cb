"""Degree sequences, Lorenz curves, and the majorization partial order.

All arithmetic is exact: integer prefix sums for dominance decisions and
`fractions.Fraction` for Lorenz curve coordinates.  Floating point is never
used, so comparisons are never subject to rounding.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterable, Iterator

from .errors import LengthMismatch, NonPositiveDegree, NotTreeFeasible, ParseError
from .errors import require_int, require_ints

__all__ = [
    "DeltaSequence",
    "LorenzCurve",
    "ComparisonResult",
    "CONVEX_TEST_FAMILY",
    "validate_tree_sequence",
    "prefix_sums",
    "compare",
    "lorenz_curve",
    "convex_functional",
    "majorization_gap",
    "parse_sequence",
]


class DeltaSequence:
    """A non-increasing sequence of positive integer node degrees.

    Construction re-sorts the input (descending order is a normalization,
    never a caller burden), rejects non-int values (TypeError, never
    coerced) and values below 1.  Instances are immutable and hashable;
    indexing is 0-based like any Python sequence, while transfer operations
    speak in 1-based ranks.
    """

    __slots__ = ("values",)

    values: tuple[int, ...]

    def __init__(self, values: Iterable[int]):
        vals = tuple(sorted(values, reverse=True))
        if not vals:
            raise ValueError("a degree sequence needs at least one value")
        require_ints(vals, "degrees")
        if vals[-1] <= 0:
            raise NonPositiveDegree(
                f"degrees must be >= 1, got {vals[-1]} in {vals}"
            )
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def total(self) -> int:
        return sum(self.values)

    @property
    def tree_feasible(self) -> bool:
        """True iff the total equals 2(n-1), i.e. some tree has these degrees."""
        return self.total == 2 * (len(self.values) - 1)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, idx: int) -> int:
        return self.values[idx]

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DeltaSequence):
            return self.values == other.values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.values)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("DeltaSequence is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, as __setattr__
        # refuses the slot-by-slot restore
        return DeltaSequence, (self.values,)

    def __repr__(self) -> str:
        return f"DeltaSequence({list(self.values)!r})"

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.values)


class ComparisonResult(enum.Enum):
    """Outcome of comparing two sequences under prefix-sum dominance."""

    EQUAL = "Equal"
    STRICTLY_BELOW = "StrictlyBelow"
    STRICTLY_ABOVE = "StrictlyAbove"
    INCOMPARABLE = "Incomparable"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class LorenzCurve:
    """Polygonal curve of cumulative sums of a sorted sequence.

    Normalized curves run from (0,0) to (1,1) with abscissas k/n and
    ordinates (cumulative sum)/total; non-normalized curves run from (0,0)
    to (n, total).  Coordinates are exact rationals.
    """

    points: tuple[tuple[Fraction, Fraction], ...]
    normalized: bool


def require_delta_sequence(*seqs: object) -> None:
    """TypeError unless each argument is a DeltaSequence (never coerced)."""
    for s in seqs:
        if not isinstance(s, DeltaSequence):
            raise TypeError(f"sequence must be a DeltaSequence, got {s!r}")


def validate_tree_sequence(raw: Iterable[int]) -> DeltaSequence:
    """Sort ``raw`` descending, unless it is a DeltaSequence already, and
    require it to be realizable by a tree.

    Raises NonPositiveDegree for any value <= 0 and NotTreeFeasible when the
    (positive) values do not sum to 2(n-1).  The two failures are
    distinguishable by exception type.
    """
    seq = raw if isinstance(raw, DeltaSequence) else DeltaSequence(raw)
    if not seq.tree_feasible:
        raise NotTreeFeasible(
            f"degree total {seq.total} != 2(n-1) = {2 * (seq.n - 1)} for {seq}"
        )
    return seq


def require_tree_sequence(n: int, s: DeltaSequence) -> None:
    """Raise TypeError unless ``n`` is an int (a bool is not) and ``s`` a
    DeltaSequence, then LengthMismatch unless ``s`` has ``n`` values, then
    NotTreeFeasible as :func:`validate_tree_sequence` does."""
    require_int(n, "node count")
    require_delta_sequence(s)
    if len(s) != n:
        raise LengthMismatch(f"sequence has length {len(s)}, expected {n}")
    validate_tree_sequence(s)


def prefix_sums(s: DeltaSequence) -> tuple[int, ...]:
    """Cumulative sums of the sorted values; the last entry is the total."""
    require_delta_sequence(s)
    return tuple(accumulate(s.values))


def compare(x: DeltaSequence, y: DeltaSequence) -> ComparisonResult:
    """Compare equal-length sequences by prefix-sum dominance.

    ``STRICTLY_BELOW`` means every prefix sum of ``x`` is <= the matching
    prefix sum of ``y`` with at least one strict inequality; totals need not
    agree (the generalized order).  With equal totals this coincides with
    Lorenz-curve dominance.  Raises TypeError unless both are DeltaSequences.
    """
    require_delta_sequence(x, y)
    xv, yv = x.values, y.values
    if len(xv) != len(yv):
        raise LengthMismatch(f"cannot compare lengths {len(xv)} and {len(yv)}")
    if xv == yv:
        return ComparisonResult.EQUAL
    gaps = [a - b for a, b in zip(accumulate(xv), accumulate(yv))]
    if max(gaps) <= 0:
        return ComparisonResult.STRICTLY_BELOW
    if min(gaps) >= 0:
        return ComparisonResult.STRICTLY_ABOVE
    return ComparisonResult.INCOMPARABLE


def majorization_gap(lower: DeltaSequence, upper: DeltaSequence) -> int:
    """Sum over k of (prefix_upper(k) - prefix_lower(k)).

    Non-negative whenever ``lower`` is below-or-equal ``upper``; each unit
    basic transfer closes the gap by at least one, which bounds the length
    of any transfer plan.
    """
    require_delta_sequence(lower, upper)
    if len(lower) != len(upper):
        raise LengthMismatch(
            f"cannot measure gap between lengths {len(lower)} and {len(upper)}"
        )
    return sum(b - a for a, b in zip(prefix_sums(lower), prefix_sums(upper)))


def lorenz_curve(s: DeltaSequence, normalized: bool = True) -> LorenzCurve:
    """Lorenz curve of ``s`` with n+1 exact rational vertices."""
    acc = (0,) + prefix_sums(s)
    x_unit, y_unit = (len(s), s.total) if normalized else (1, 1)
    pts = tuple((Fraction(k, x_unit), Fraction(a, y_unit)) for k, a in enumerate(acc))
    return LorenzCurve(points=pts, normalized=normalized)


def convex_functional(
    s: DeltaSequence, phi: Callable[[int], int | Fraction]
) -> int | Fraction:
    """Sum of ``phi`` over the values of ``s`` (exact)."""
    require_delta_sequence(s)
    return sum(phi(v) for v in s.values)


def _hinge(c: int) -> Callable[[int], int]:
    def phi(t: int) -> int:
        return max(t - c, 0)

    return phi


#: Fixed witness family of convex functions used by the order/functional
#: consistency checks: identity, squares, cubes, and three hinge functions.
CONVEX_TEST_FAMILY: tuple[tuple[str, Callable[[int], int]], ...] = (
    ("t", lambda t: t),
    ("t^2", lambda t: t * t),
    ("t^3", lambda t: t * t * t),
    ("max(t-1,0)", _hinge(1)),
    ("max(t-2,0)", _hinge(2)),
    ("max(t-3,0)", _hinge(3)),
)


def parse_values(text: str) -> list[int]:
    """The integers of a sequence text, in input order: separated by
    commas/whitespace, with optional enclosing parens."""
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    tokens = [tok for tok in re.split(r"[,\s]+", body.strip()) if tok]
    if not tokens:
        raise ParseError(f"no degree values found in {text!r}")
    try:
        return [int(tok) for tok in tokens]
    except ValueError as exc:
        raise ParseError(f"bad degree value in {text!r}: {exc}") from None


def parse_sequence(text: str) -> DeltaSequence:
    """Parse integers separated by commas/whitespace, with optional parens.

    Input order is ignored; the result is sorted descending.
    """
    return DeltaSequence(parse_values(text))
