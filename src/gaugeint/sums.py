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
  exactly the anchor cells, so nothing else needs to be built.  Each depth
  reads one row of cell increments from one F call: entry i is the residual
  term of E's point i, and the row's Kahan sum is the basic-sum term.

Restricted sums cannot telescope, so they use compensated accumulation:
numpy's pairwise reduction within a batch and a Kahan accumulator across
batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import AnchorOverlapError, EvaluationError
from .models import SingularFunctionModel, _cell_increments
from .partition import TaggedPair, TaggedPartition, anchor_cells, restriction_mask
from .verdicts import DIV_THRESHOLD, MAX_DEPTH, TOL, ConvergenceVerdict, Trace, run_ladder


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


def increment_sum(model: SingularFunctionModel, pairs: Sequence[TaggedPair]) -> float:
    """Sum of extended-F increments over the given pairs.

    For the exact increment over a whole span use :func:`models.increment`.
    """
    if len(pairs) == 0:
        return 0.0
    los = np.asarray([p.interval.lo for p in pairs])
    his = np.asarray([p.interval.hi for p in pairs])
    increments = model.extended_values(his) - model.extended_values(los)
    return float(np.sum(increments))


_ANCHOR_STOP = {AnchorOverlapError: "depth {depth}: {exc}"}
_RESIDUAL_STOPS = {**_ANCHOR_STOP, EvaluationError: "F evaluation failed at depth {depth}: {exc}"}


def _kahan_sum(values) -> float:
    acc = KahanAccumulator()
    for value in values:
        acc.add(value)
    return acc.total


def _once(compute, errors=Exception):
    """``compute`` computed once per argument tuple however often it is
    read; a call that raised one of ``errors`` raises it again."""
    results = {}

    def read(*args):
        if args not in results:
            try:
                results[args] = compute(*args)
            except errors as exc:
                results[args] = exc
        if isinstance(results[args], BaseException):
            raise results[args]
        return results[args]

    return read


def _anchor_rows(model: SingularFunctionModel, schedule):
    """``row(n)``: depth n's anchor-cell increments in point order, from one
    F call however often it is read; a row that raised raises again."""
    return _once(lambda n: _cell_increments(
        model, anchor_cells(model.span, model.E, schedule.at(n).r)))


def _basic_sum_ladder(row, max_depth, tol, div_threshold) -> Tuple[Trace, ConvergenceVerdict]:
    return run_ladder(lambda n: (n, _kahan_sum(row(n))), max_depth, tol, div_threshold,
                      _ANCHOR_STOP)


def _residuals(model, schedule, points, max_depth, tol, div_threshold, row=None) -> dict:
    """Residual verdict per point of ``points`` (points of E), in order.  A
    point's terms are its entries of the shared rows ``row(n)``.  Without
    rows, or where a row raised, its own cell is evaluated alone, so its
    ladder stops only when its own cell fails."""
    def verdict(i):
        def term(n):
            if row is not None:
                try:
                    return n, row(n)[i]
                except Exception:
                    pass
            cell = anchor_cells(model.span, model.E, schedule.at(n).r)[i]
            return n, _cell_increments(model, [cell])[0]

        return run_ladder(term, max_depth, tol, div_threshold, _RESIDUAL_STOPS)[1]

    return {e: verdict(model.E.points.index(e)) for e in points}


def basic_sum_sequence(
    model: SingularFunctionModel,
    schedule,
    max_depth: int = MAX_DEPTH,
    tol: float = TOL,
    div_threshold: float = DIV_THRESHOLD,
) -> Tuple[Trace, ConvergenceVerdict]:
    """Depth-indexed anchor-increment sums with their convergence verdict.

    The radius shrinks with the schedule; the sequence stops as soon as the
    classifier reaches a verdict.  A depth whose cells break the anchor rule
    ends the sequence and names the breach in the verdict's note
    (``depth n: <reason>``) rather than raising.
    """
    if len(model.E) == 0:
        raise ValueError("basic sum requires a nonempty exceptional set")
    return _basic_sum_ladder(_anchor_rows(model, schedule), max_depth, tol, div_threshold)


def residual_estimate(
    model: SingularFunctionModel,
    e: float,
    schedule,
    max_depth: int = MAX_DEPTH,
    tol: float = TOL,
    div_threshold: float = DIV_THRESHOLD,
) -> ConvergenceVerdict:
    """Limit of extended-F increments over shrinking brackets around ``e``.

    Brackets are the anchor cells ``[e - r_n, e + r_n]`` of
    :func:`anchor_cells` (one-sided at a span endpoint, counting F(e) = 0);
    each term is ``e``'s term of the basic sum, from :func:`_cell_increments`
    on ``e``'s cell alone.

    Raises only on bad arguments (``e`` outside E, a nonpositive radius):
    evaluation failures and cells that break the anchor rule end the
    sequence and are named in the verdict's note.
    """
    if e not in model.E:
        raise ValueError(f"{e!r} is not an exceptional point of the model")
    return _residuals(model, schedule, [e], max_depth, tol, div_threshold)[e]
