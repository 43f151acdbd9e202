"""Exception types shared across the toolkit; a raised ``BuildError`` is
the one record of where and why a build stopped, and after how many pairs."""

from __future__ import annotations


class GaugeIntError(Exception):
    """Base class for all toolkit errors."""


class EvaluationError(GaugeIntError):
    """A function produced a non-finite value off the exceptional set."""

    def __init__(self, message: str, points=()):
        super().__init__(message)
        self.points = tuple(points)


class BuildError(GaugeIntError):
    """Base class for partition-construction failures."""

    pairs_built = 0  # pairs the build accepted before it raised, where known


class AnchorOverlapError(BuildError):
    """Anchor cells around exceptional points break the anchor rule: a cell
    is narrower than the floating-point floor (8 ulp * max(1, |e|)), leaves
    the span, holds another exceptional point, or overlaps its neighbour."""


class StraddleFailure(BuildError):
    """The width search bottomed out without satisfying the straddle check.

    Raised as this class, it signals that the declared derivative does not
    match the function near ``tag``, or that ``tag`` sits next to an
    undeclared jump: the rejected error kept its size as the cell width
    halved.  ``tag`` is the midpoint of the failing cell.  The subclass
    :class:`FloorReached` marks a search that only ran into rounding.
    """

    def __init__(self, tag: float, width: float, error: float, detail: str = ""):
        self.tag = tag
        self.width = width
        self.error = error
        msg = (
            f"straddle check failed at tag {tag!r} "
            f"(last width {width:.3e}, error {error:.3e})"
        )
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class FloorReached(StraddleFailure):
    """The width search hit the floating-point floor, not a mismatch.

    No rejected error above the evaluation floor 8 * (ulp(F) + |f(t)| *
    ulp(t)) kept its size as the cell width halved: the search failed because
    eps * width fell under what binary64 evaluation of F resolves at ``tag``,
    not because f disagrees with F there.  A build that walks up to an
    undeclared pole also ends here, since F grows past its resolution first.
    """


class BudgetExceeded(BuildError):
    """A construction limit (pair count, recursion depth) was hit."""

    def __init__(self, detail: str, pairs_built: int = 0, position: float | None = None):
        self.pairs_built = pairs_built
        self.position = position
        super().__init__(detail)


class NotLocallyConstant(GaugeIntError):
    """The derivative is not identically zero off the exceptional set."""

    def __init__(self, points):
        self.points = tuple(points)
        shown = ", ".join(f"{p:.6g}" for p in self.points[:4])
        super().__init__(
            f"derivative is nonzero off the exceptional set (e.g. at {shown})"
        )
