"""Shared exception types."""


class PolysingError(Exception):
    """Base class for all package errors."""


class DegenerateInput(PolysingError):
    """Input violates a documented precondition (all-zero gcd input, bad data)."""


class ShapeError(PolysingError):
    """Matrix has the wrong shape for the requested operation."""


class UnsupportedRank(PolysingError):
    """Ambient lattice rank exceeds the documented cap."""


class TailMismatch(PolysingError):
    """Polyhedra combined in one operation must share a single tail cone."""


class UnboundedBelow(PolysingError):
    """Support function is -infinity: the functional is negative on a tail direction."""


class NotProperError(PolysingError):
    """Operation requires a proper polyhedral divisor."""


class UnsupportedBase(PolysingError):
    """Operation is not defined for this base curve."""


class UnsupportedShape(PolysingError):
    """Tail cone shape (e.g. not full-dimensional) is outside the operation's scope."""


class NoGlobalEquation(PolysingError):
    """A global semi-invariant equation exists only when the class group is trivial."""


class NotQGorensteinError(PolysingError):
    """Operation needs a Q-Gorenstein input."""


class ConstructionFailed(PolysingError):
    """The constructed factorial divisor failed its determinant check."""


class InternalCheck(PolysingError):
    """An invariant that the algorithms guarantee failed to hold (a bug, not bad input)."""
