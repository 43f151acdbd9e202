"""Function models: F, its derivative off the exceptional set, and the
extensions of both by zero onto that set.

The exceptional set E collects the finitely many points where F may be
undefined or unbounded.  The extended functions are defined to be exactly 0
on E, where F and f are never evaluated: extended values go through one
mask, anchor-cell increments through ``_cell_increments``.  Off E a
non-finite value from F or f is an error (an undeclared singularity).
It holds no limit ladder: the basic sum and the residuals are in ``sums``.

Exceptional points normally lie strictly inside the span.  Points sitting on
a span endpoint are also accepted (e.g. an integrable singularity at the left
edge); anchoring and bracketing become one-sided there, counting F(e) = 0.
The job layer keeps the stricter interior-only rule for user input.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Tuple

import numpy as np

from .errors import EvaluationError
from .partition import Interval


@dataclass(frozen=True)
class ExceptionalSet:
    """Strictly increasing finite set of real points."""

    points: Tuple[float, ...]

    def __init__(self, points: Iterable[float] = ()):
        pts = tuple(float(p) for p in points)
        if any(not math.isfinite(p) for p in pts):
            raise ValueError("exceptional points must be finite")
        if any(a >= b for a, b in zip(pts, pts[1:])):
            raise ValueError("exceptional points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, x) -> bool:
        return float(x) in set(self.points)


def _finite_values(name: str, fn: Callable, xs) -> np.ndarray:
    """``fn(xs)`` as floats; a non-finite value raises ``EvaluationError``
    naming up to four offending points."""
    with np.errstate(all="ignore"):
        out = np.asarray(fn(xs), dtype=float)
    bad = ~np.isfinite(out)
    if bad.any():
        pts = np.atleast_1d(xs)[np.atleast_1d(bad)][:4]
        raise EvaluationError(
            f"{name} is non-finite off the exceptional set (near x={float(pts[0])!r})", pts
        )
    return out


@dataclass(frozen=True)
class SingularFunctionModel:
    """F, its derivative f off E, the exceptional set, and the working span.

    ``F`` and ``f`` must accept either a float or an ndarray of floats.
    Models are immutable and evaluation is pure, so concurrent use is safe.
    """

    F: Callable
    f: Callable
    E: ExceptionalSet
    span: Interval
    provenance: str = ""

    def __post_init__(self):
        for p in self.E:
            if not (self.span.lo <= p <= self.span.hi):
                raise ValueError(f"exceptional point {p!r} outside span "
                                 f"[{self.span.lo!r}, {self.span.hi!r}]")

    # -- raw evaluation (never called on E by the machinery) ---------------

    def F_values(self, xs: np.ndarray) -> np.ndarray:
        """F on points known to avoid E; non-finite values are errors."""
        return _finite_values("F", self.F, xs)

    def f_values(self, xs: np.ndarray) -> np.ndarray:
        """f on points known to avoid E; non-finite values are errors."""
        return _finite_values("f", self.f, xs)

    def _masked(self, raw: Callable, xs) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        out = np.zeros(xs.shape)
        off = np.ones(xs.shape, dtype=bool)
        for e in self.E:
            off &= xs != e
        if off.any():
            out[off] = raw(xs[off])
        return out

    def extended_values(self, xs) -> np.ndarray:
        """The extension of F by zero on E, vectorized."""
        return self._masked(self.F_values, xs)

    def extended_derivatives(self, xs) -> np.ndarray:
        """The extension of f by zero on E, vectorized."""
        return self._masked(self.f_values, xs)


def evaluate_extended(model: SingularFunctionModel, x: float) -> Tuple[float, float]:
    """(extended F, extended derivative) at one point.

    Exactly ``(0.0, 0.0)`` on the exceptional set, by definition: F is never
    evaluated there, even if its formula would happen to work.
    """
    if not model.span.contains(x):
        raise ValueError(f"{x!r} outside span")
    return float(model.extended_values(x)[0]), float(model.extended_derivatives(x)[0])


def increment(model: SingularFunctionModel, interval: Interval) -> float:
    """Interval increment of the extended F: value at hi minus value at lo."""
    if not (model.span.lo <= interval.lo and interval.hi <= model.span.hi):
        raise ValueError("interval outside model span")
    lo, hi = model.extended_values([interval.lo, interval.hi])
    return float(hi - lo)


def _cell_increments(model: SingularFunctionModel, cells) -> list:
    """Extended-F increment of each anchor cell ``(lo, hi, e)``, from one
    ``F_values`` call.  By the anchor rule a cell end lies on E only as its
    own point at a span endpoint, where the extended F is 0: no mask needed.
    It stays apart from ``extended_values``, whose mask has a fixed per-call
    cost that dominates on these 2-6 point inputs."""
    ends = [x for lo, hi, e in cells for x in (lo, hi) if x != e]
    values = iter(model.F_values(np.asarray(ends)).tolist() if ends else ())
    out = []
    for lo, hi, e in cells:
        F_lo = 0.0 if lo == e else next(values)
        F_hi = 0.0 if hi == e else next(values)
        out.append(F_hi - F_lo)
    return out


def consistency_check(
    model: SingularFunctionModel,
    sample_count: int = 64,
    seed: int = 0,
) -> list:
    """Compare the declared derivative against central differences of F.

    Samples points at distance at least the base anchor radius from E and
    returns a warning record per point whose relative mismatch exceeds 1e-3.
    Warn-level only: a noisy derivative near a steep feature is the user's
    call to judge.
    """
    from .builders import RefinementSchedule  # local import avoids a cycle

    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    r0 = RefinementSchedule.for_model(model).r0
    h = 1e-6 * model.span.length
    rng = random.Random(seed)
    xs = []
    attempts = 0
    while len(xs) < sample_count and attempts < sample_count * 50:
        attempts += 1
        x = rng.uniform(model.span.lo + h, model.span.hi - h)
        if all(abs(x - p) >= r0 for p in model.E):
            xs.append(x)
    if not xs:
        return []
    points = np.asarray(xs)
    try:
        declared = model.f_values(points)
        F_pm = model.F_values(np.stack((points + h, points - h), axis=1).ravel())
    except EvaluationError:
        # name the first offending sample, f before F, as one-point calls would
        for x in xs:
            model.f_values(np.asarray([x]))
            model.F_values(np.asarray([x + h, x - h]))
        raise
    estimated = (F_pm[0::2] - F_pm[1::2]) / (2 * h)
    scale = np.maximum(1.0, np.maximum(np.abs(declared), np.abs(estimated)))
    mismatch = np.abs(declared - estimated) / scale
    return [DerivativeMismatch(xs[i], float(declared[i]), float(estimated[i]), float(mismatch[i]))
            for i in np.flatnonzero(mismatch > 1e-3)]


@dataclass(frozen=True)
class DerivativeMismatch:
    point: float
    declared: float
    estimated: float
    mismatch: float

    def __str__(self):
        return (
            f"derivative mismatch at x={self.point:.6g}: declared {self.declared:.6g}, "
            f"central difference {self.estimated:.6g} (relative {self.mismatch:.3g})"
        )
