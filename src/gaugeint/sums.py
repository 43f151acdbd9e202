"""The two sum functionals over tagged partitions and the basic-sum sequence.

* ``riemann_sum`` -- sum of the extended derivative at each tag times the
  width, split into the contributions of pairs tagged on and off the
  exceptional set; pairs tagged on E contribute exactly 0 and f is never
  evaluated there.
* ``increment_sum`` -- sum of extended-F increments over pairs.  The
  increment over a whole span telescopes exactly to the endpoint difference,
  which :func:`models.increment` returns in closed form; summing the
  near-cancelling terms pairwise would throw the exactness away for
  singular F.
* ``basic_sum_sequence`` -- the depth-indexed sums of extended-F increments
  over the anchor cells alone.  In an anchored fine partition the restriction
  to the exceptional set consists of exactly those cells, so nothing else
  needs to be built.  Each cell's increment is the residual ladder's term at
  its point (see :func:`models._cell_increments`).

Restricted sums cannot telescope, so they use compensated accumulation:
numpy's pairwise reduction within a batch and a Kahan accumulator across
batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import AnchorOverlapError
from .models import SingularFunctionModel, _cell_increments
from .partition import TaggedPair, TaggedPartition, anchor_cells, restriction_mask
from .verdicts import ConvergenceVerdict, Trace, run_ladder


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
    """A Riemann-type sum split by tag membership in the exceptional set."""

    total: float
    on_E: float
    off_E: float
    pair_count: Tuple[int, int]  # (all pairs, pairs tagged in E)


def riemann_sum(model: SingularFunctionModel, partition: TaggedPartition) -> SumBreakdown:
    """Sum the extended derivative at each tag times the width.

    Pairs tagged on the exceptional set contribute exactly 0; f is
    evaluated at the other tags and its evaluation errors propagate.
    """
    on_mask = restriction_mask(partition, tuple(model.E))
    off_mask = ~on_mask
    off_part = 0.0
    if off_mask.any():
        off_part = float(np.sum(model.f_values(partition.tags[off_mask])
                                * partition.widths[off_mask]))
    return SumBreakdown(
        total=off_part,
        on_E=0.0,
        off_E=off_part,
        pair_count=(len(partition), int(np.count_nonzero(on_mask))),
    )


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


def anchor_increments(model: SingularFunctionModel, r: float) -> float:
    """Sum of extended-F increments over the anchor cells of radius ``r``
    (see :func:`anchor_cells`); the depth-n term of the basic sum.  Raises
    ``AnchorOverlapError`` when the cells break the anchor rule."""
    acc = KahanAccumulator()
    for value in _cell_increments(model, anchor_cells(model.span, model.E, r)):
        acc.add(value)
    return acc.total


def basic_sum_sequence(
    model: SingularFunctionModel,
    schedule,
    max_depth: int = 20,
    tol: float = 1e-6,
    div_threshold: float = 1e12,
) -> Tuple[Trace, ConvergenceVerdict]:
    """Depth-indexed anchor-increment sums with their convergence verdict.

    The radius shrinks with the schedule; the sequence stops as soon as the
    classifier reaches a verdict.  A depth whose cells break the anchor rule
    ends the sequence and names the breach in the verdict's note
    (``depth n: <reason>``) rather than raising.
    """
    if len(model.E) == 0:
        raise ValueError("basic sum requires a nonempty exceptional set")
    return run_ladder(
        lambda n: (n, anchor_increments(model, schedule.at(n).r)),
        max_depth, tol, div_threshold, {AnchorOverlapError: "depth {depth}: {exc}"},
    )
