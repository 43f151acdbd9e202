"""The two sum functionals over tagged partitions and the basic-sum sequence.

* ``riemann_sum`` -- sum of integrand(tag) * width over the pairs, split into
  the contributions of pairs tagged on and off the exceptional set.
* ``increment_sum`` -- sum of extended-F increments over pairs.  For a full
  partition this telescopes exactly to the endpoint difference, and the
  implementation returns that closed form when told the pairs cover the whole
  span; summing the near-cancelling terms pairwise would throw the exactness
  away for singular F.
* ``basic_sum_sequence`` -- the depth-indexed sums of extended-F increments
  over the anchor cells alone.  In an anchored fine partition the restriction
  to the exceptional set consists of exactly those cells, so nothing else
  needs to be built.

Restricted sums cannot telescope, so they use compensated accumulation:
numpy's pairwise reduction within a batch and a Kahan accumulator across
batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import AnchorOverlapError
from .models import SingularFunctionModel
from .partition import Interval, TaggedPair, TaggedPartition, anchor_cells, restriction_mask
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


def riemann_sum(
    model: SingularFunctionModel,
    partition: TaggedPartition,
    use_extension: bool = True,
) -> SumBreakdown:
    """Sum integrand(tag) * width over the partition.

    With ``use_extension`` the integrand is the derivative extended by zero,
    so pairs tagged on the exceptional set contribute exactly 0; otherwise
    the raw derivative is evaluated at every tag and evaluation errors
    propagate.
    """
    widths = partition.widths
    on_mask = restriction_mask(partition, tuple(model.E))
    terms = np.zeros(len(partition))
    off_mask = ~on_mask
    if off_mask.any():
        terms[off_mask] = model.f_values(partition.tags[off_mask]) * widths[off_mask]
    if not use_extension and on_mask.any():
        terms[on_mask] = model.f_values(partition.tags[on_mask]) * widths[on_mask]
    on_part = float(np.sum(terms[on_mask])) if on_mask.any() else 0.0
    off_part = float(np.sum(terms[off_mask])) if off_mask.any() else 0.0
    return SumBreakdown(
        total=on_part + off_part,
        on_E=on_part,
        off_E=off_part,
        pair_count=(len(partition), int(np.count_nonzero(on_mask))),
    )


def increment_sum(
    model: SingularFunctionModel,
    pairs: Sequence[TaggedPair],
    full_span: Interval | None = None,
) -> float:
    """Sum of extended-F increments over the given pairs.

    Pass ``full_span`` when the pairs form a full partition of it: the sum
    then telescopes and the exact closed form (endpoint difference of the
    extended F) is returned instead of a pairwise float sum.
    """
    if full_span is not None:
        return model.extended_value(full_span.hi) - model.extended_value(full_span.lo)
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
    for lo, hi, _ in anchor_cells(model.span, model.E, r):
        acc.add(model.extended_value(hi) - model.extended_value(lo))
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
