"""The two sum functionals over tagged partitions and the anchor-only limits.

* ``riemann_sum`` -- sum of the extended derivative at each tag times the
  width; pairs tagged on the exceptional set contribute exactly 0 and f is
  never evaluated there.
* ``increment_sum`` -- sum of extended-F increments over pairs.  The
  increment over a whole span telescopes exactly to the endpoint difference,
  which :func:`models.increment` returns in closed form; summing the
  near-cancelling terms pairwise would throw the exactness away for
  singular F.
* ``basic_sum_sequence``, ``residual_estimate`` -- the anchor-only limits.
  In an anchored fine partition the restriction to the exceptional set is
  exactly the anchor cells, so nothing else needs to be built.  One
  :class:`AnchorTable` holds the cell increments of every depth from one F
  call per table: entry i of depth n's row is the residual term of E's
  point i, and the row's Kahan sum is the basic-sum term.  The table runs
  every anchor ladder, up to its own ``max_depth``, and hands each back as
  one record, ``(trace, verdict)``.

Restricted sums cannot telescope, so they use compensated accumulation:
numpy's pairwise reduction within a batch and a Kahan accumulator across
batches.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import AnchorOverlapError, EvaluationError
from .models import SingularFunctionModel, _shaped_values, increment
from .partition import (Interval, TaggedPartition, anchor_cells, anchor_grid,
                        first_anchor_radius, restriction_mask)
from .verdicts import (DIV_THRESHOLD, MAX_DEPTH, TOL, Converged, ConvergenceVerdict, Trace,
                       run_ladder)


class KahanAccumulator:
    """Compensated running sum (Kahan); cheap insurance against cancellation
    when adding many batch subtotals of mixed sign."""

    __slots__ = ("total", "_carry")

    def __init__(self):
        self.total = 0.0
        self._carry = 0.0

    def add(self, value: float) -> None:
        y = value - self._carry
        t = self.total + y
        self._carry = (t - self.total) - y
        self.total = t


@dataclass(frozen=True)
class SumBreakdown:
    """A Riemann sum with the number of pairs it covers."""

    total: float
    pair_count: Tuple[int, int]  # (all pairs, pairs tagged in E)


def riemann_sum(model: SingularFunctionModel, partition: TaggedPartition) -> SumBreakdown:
    """Sum the extended derivative at each tag times the width.

    Pairs tagged on the exceptional set contribute exactly 0; f is
    evaluated at the other tags and its evaluation errors propagate.
    """
    on_mask = restriction_mask(partition, tuple(model.E))
    off_mask = ~on_mask
    total = 0.0
    if off_mask.any():
        total = float(np.sum(model.f_values(partition.tags[off_mask])
                             * partition.widths[off_mask]))
    return SumBreakdown(total=total, pair_count=(len(partition), int(np.count_nonzero(on_mask))))


def increment_sum(model: SingularFunctionModel, partition: TaggedPartition) -> float:
    """Sum of extended-F increments over the pairs of ``partition``, 0.0
    when it has none.

    For the exact increment over a whole span use :func:`models.increment`.
    """
    return float(np.sum(model.extended_values(partition.his)
                        - model.extended_values(partition.los)))


# The stops of every anchor ladder: a depth whose cells break the anchor rule,
# and a cell whose F value is not finite or whose increment overflows.
_ANCHOR_STOPS = {
    AnchorOverlapError: "depth {depth}: {exc}",
    EvaluationError: "F evaluation failed at depth {depth}: {exc}",
}


def _kahan_sum(values) -> float:
    acc = KahanAccumulator()
    for value in values:
        acc.add(value)
    return acc.total


def _kahan_rows(values: np.ndarray) -> np.ndarray:
    """:func:`_kahan_sum` of each row of ``values``: the same IEEE
    operations, applied elementwise to all rows at once."""
    total = np.zeros(len(values))
    carry = np.zeros(len(values))
    for column in values.T:
        y = column - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return total


class AnchorTable:
    """The anchor-cell increments of depths 0 to D, from one F call, and the
    ladders that read them.

    Depth n reads the anchor radius r0 * 2^-n; r0 defaults to the model's
    :func:`first_anchor_radius`.

    D is ``max_depth`` or the first depth whose cells break the anchor rule,
    whichever comes first: every anchor ladder stops there, and the anchor
    floor ends any ladder within a bounded number of depths.  F is
    evaluated once, on every end off E of every cell of E at every depth
    before D.

    ``basic(n)`` is depth n's basic-sum term, the Kahan sum of its row, and
    ``term(n, i)`` the residual term of E's point i.  A held value is served
    when it is finite.  Any other term is re-read from its own cell by
    :func:`models.increment`, and ``basic(n)`` sums those terms, so it
    raises what its first failing cell raises.  A re-read raises
    ``AnchorOverlapError`` at a depth that breaks the anchor rule,
    ``EvaluationError`` where an F value is not finite or the increment
    overflows, and whatever F itself raises on the cell, as after a batched
    F call that raised.
    """

    def __init__(self, model: SingularFunctionModel, max_depth: int, r0: float | None = None):
        if max_depth < 0:
            raise ValueError("max_depth must be nonnegative")
        self.model = model
        self.r0 = first_anchor_radius(model.span, model.E) if r0 is None else r0
        self.max_depth = max_depth
        E = model.E.points
        rows = []
        # anchor_grid stops at the first breach; with no point there is none, and a
        # deep max_depth would run r_n down to 0, which it rejects
        if E:
            rows, _ = anchor_grid(model.span, E, map(self.radius, range(max_depth + 1)))
        cells = np.fromiter(itertools.chain.from_iterable(itertools.chain.from_iterable(rows)),
                            float, 3 * len(rows) * len(E))
        cells = cells.reshape(len(rows), len(E), 3)
        ends = cells[..., :2]
        off = ends != cells[..., 2:]  # by the anchor rule, an end on E is its own point
        F = np.zeros(ends.shape)
        with np.errstate(all="ignore"):
            try:
                if off.any():
                    x = ends[off]
                    F[off] = _shaped_values(model.F, x)
            except Exception:
                # F raised on the batch: each term is evaluated alone when read,
                # so the error shows at the depth where a ladder reads it, if any
                F = F[:0]
            terms = F[..., 1] - F[..., 0]
            sums = _kahan_rows(terms)
        self.depths = len(F)
        self._terms = terms.tolist()
        self._sums = sums.tolist()

    def radius(self, n: int) -> float:
        """Depth n's anchor radius r0 * 2^-n."""
        return self.r0 * 0.5**n

    def basic(self, n: int) -> float:
        """Depth n's basic-sum term."""
        if n < self.depths and math.isfinite(self._sums[n]):
            return self._sums[n]
        return _kahan_sum(self.term(n, i) for i in range(len(self.model.E)))

    def term(self, n: int, i: int) -> float:
        """Depth n's residual term of E's point i."""
        if n < self.depths and math.isfinite(self._terms[n][i]):
            return self._terms[n][i]
        lo, hi, _ = anchor_cells(self.model.span, self.model.E, self.radius(n))[i]
        return increment(self.model, Interval(lo, hi))

    def ladder(self, value_at, tol, div_threshold) -> Tuple[Trace, ConvergenceVerdict]:
        """Classify ``value_at(n)`` for depths 0 to ``max_depth`` up to the
        first verdict; a depth that breaks the anchor rule, has a
        non-finite F value or an F increment that overflows ends the ladder
        inconclusive."""
        return run_ladder(lambda n: (n, value_at(n)), self.max_depth, tol, div_threshold,
                          _ANCHOR_STOPS)

    def basic_ladder(self, tol, div_threshold) -> Tuple[Trace, ConvergenceVerdict]:
        """The basic-sum ladder: :meth:`ladder` over :meth:`basic`.  The sum
        over an empty E is exactly 0, so with no point it converges to 0.0
        at depth 0, trace ``((0, 0.0),)``."""
        if not self.model.E:
            return ((0, 0.0),), Converged(value=0.0, error_estimate=0.0, depth=0)
        return self.ladder(self.basic, tol, div_threshold)

    def residuals(self, points, tol, div_threshold) -> dict:
        """Residual verdict per point of ``points`` (points of E), in order,
        each ladder reading its point's terms, so it stops only where its own
        cell fails."""
        index = self.model.E.points.index
        return {e: self.ladder(lambda n, i=index(e): self.term(n, i), tol, div_threshold)[1]
                for e in points}


def basic_sum_sequence(
    model: SingularFunctionModel,
    schedule,
    max_depth: int = MAX_DEPTH,
    tol: float = TOL,
    div_threshold: float = DIV_THRESHOLD,
) -> Tuple[Trace, ConvergenceVerdict]:
    """Depth-indexed anchor-increment sums with their convergence verdict.

    Depth n reads the anchor radius ``schedule.r0`` * 2^-n; the sequence
    stops as soon as the classifier reaches a verdict.  A depth whose cells
    break the anchor rule ends the sequence and names the breach in the
    verdict's note (``depth n: <reason>``) rather than raising, and a depth
    with a non-finite F value or an overflowing increment ends it as a
    residual ladder ends (``F evaluation failed at depth n: <reason>``).
    The sum over an empty E is exactly 0: trace ``((0, 0.0),)``, converged
    at depth 0.  This is :meth:`AnchorTable.basic_ladder`, the ladder that
    ``residue_table`` and ``decompose`` run.

    Raises ``ValueError`` when ``max_depth`` is negative.
    """
    return AnchorTable(model, max_depth, schedule.r0).basic_ladder(tol, div_threshold)


def residual_estimate(
    model: SingularFunctionModel,
    e: float,
    schedule,
    max_depth: int = MAX_DEPTH,
    tol: float = TOL,
    div_threshold: float = DIV_THRESHOLD,
) -> ConvergenceVerdict:
    """Limit of extended-F increments over shrinking brackets around ``e``.

    Brackets are the anchor cells ``[e - r_n, e + r_n]``, r_n =
    ``schedule.r0`` * 2^-n, of :func:`anchor_cells` (one-sided at a span
    endpoint, counting F(e) = 0);
    each term is ``e``'s term of the basic sum, read from one
    :class:`AnchorTable` of all of E.

    Raises ``ValueError`` only on bad arguments: ``e`` not in E (so always
    when E is empty) or a negative ``max_depth``.  Evaluation failures and
    cells that break the anchor rule end the sequence and are named in the
    verdict's note.
    """
    if e not in model.E:
        raise ValueError(f"{e!r} is not an exceptional point of the model")
    return AnchorTable(model, max_depth, schedule.r0).residuals([e], tol, div_threshold)[e]
