"""Exception hierarchy shared by all treemajor modules, and the argument
and shape checks that several modules share."""

__all__ = [
    "TreeMajorError",
    "ParseError",
    "NonPositiveDegree",
    "NotTreeFeasible",
    "LengthMismatch",
    "SameRank",
    "DonorWouldVanish",
    "NotMajorized",
    "InvalidPlan",
    "WouldDisconnect",
    "DegreeRuleViolation",
    "DonorIsLeaf",
    "NotConnected",
    "BoundExceeded",
]


class TreeMajorError(Exception):
    """Base class for every domain error raised by this package."""


class ParseError(TreeMajorError):
    """Malformed text input (sequence, tree file, plan, trace)."""


class NonPositiveDegree(TreeMajorError):
    """A degree value was zero or negative."""


class NotTreeFeasible(TreeMajorError):
    """Positive degrees whose total is not 2(n-1)."""


class LengthMismatch(TreeMajorError):
    """Two sequences of different lengths where equal lengths are required."""


class SameRank(TreeMajorError):
    """A transfer named the same rank as both receiver and donor."""


class DonorWouldVanish(TreeMajorError):
    """A transfer would drive the donor value below 1."""


class NotMajorized(TreeMajorError):
    """Transfer planning requested between sequences that are not ordered."""


class InvalidPlan(TreeMajorError):
    """A transfer plan whose steps cannot be replayed as recorded."""


class WouldDisconnect(TreeMajorError):
    """A branch move whose target lies inside the moved branch."""


class DegreeRuleViolation(TreeMajorError):
    """A branch move onto a node of strictly smaller degree than the donor."""


class DonorIsLeaf(TreeMajorError):
    """A branch move that would strip the last edge off the donor node."""


class NotConnected(TreeMajorError):
    """An edge set that does not connect all nodes."""


class BoundExceeded(TreeMajorError):
    """A node count beyond the supported bound of an exhaustive operation."""


def require_int(value, what: str) -> None:
    """TypeError naming ``what`` unless ``value`` is an int (a bool is not)."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an int, got {value!r}")


def dict_fields(data, what: str, *names: str) -> tuple:
    """The values of ``names`` in the object ``data`` read as a ``what``;
    ParseError if it is not a dict or lacks one of them."""
    if not isinstance(data, dict):
        raise ParseError(f"{what} must be an object, got {type(data).__name__}")
    for name in names:
        if name not in data:
            raise ParseError(f"{what} dict lacks field {name!r}")
    return tuple(data[name] for name in names)


def list_of(value, what: str, width: int | None = None):
    """``value``, checked to be a list (or tuple) whose items are, when
    ``width`` is given, lists (or tuples) of ``width`` items each;
    ParseError otherwise."""
    if not isinstance(value, (list, tuple)):
        raise ParseError(f"{what} must be a list, got {type(value).__name__}")
    if width is not None:
        for item in value:
            if not isinstance(item, (list, tuple)) or len(item) != width:
                raise ParseError(f"{what} must hold lists of {width} items, got {item!r}")
    return value
