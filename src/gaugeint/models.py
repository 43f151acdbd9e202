"""Function models: F, its derivative off the exceptional set, and the
extensions of both by zero onto that set.

The exceptional set E collects the finitely many points where F may be
undefined or unbounded.  The extended functions are defined to be exactly 0
on E and are never evaluated through F there; off E a non-finite value from
F or f is an error (it signals an undeclared singularity).

Exceptional points normally lie strictly inside the span.  Points sitting on
a span endpoint are also accepted (e.g. an integrable singularity at the left
edge); anchoring and bracketing become one-sided there.  The job layer keeps
the stricter interior-only rule for user input.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Tuple

import numpy as np

from .errors import AnchorOverlapError, EvaluationError
from .partition import Interval, anchor_cells
from .verdicts import ConvergenceVerdict, SequenceClassifier


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
        if len(set(pts)) != len(pts):
            raise ValueError("exceptional points must be distinct")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, x) -> bool:
        return float(x) in set(self.points)

    def min_gap(self, span: Interval) -> float:
        """Smallest gap between adjacent points of E united with the span
        endpoints (duplicates collapse, so endpoint members do not produce a
        zero gap)."""
        walls = sorted({span.lo, span.hi, *self.points})
        return min(b - a for a, b in zip(walls, walls[1:]))


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

    def extended_value(self, x: float) -> float:
        return 0.0 if x in self.E else float(self.F_values(np.asarray([x]))[0])

    def extended_derivative(self, x: float) -> float:
        return 0.0 if x in self.E else float(self.f_values(np.asarray([x]))[0])


def evaluate_extended(model: SingularFunctionModel, x: float) -> Tuple[float, float]:
    """(extended F, extended derivative) at one point.

    Exactly ``(0.0, 0.0)`` on the exceptional set, by definition: F is never
    evaluated there, even if its formula would happen to work.
    """
    if not model.span.contains(x):
        raise ValueError(f"{x!r} outside span")
    return model.extended_value(x), model.extended_derivative(x)


def increment(model: SingularFunctionModel, interval: Interval) -> float:
    """Interval increment of the extended F: value at hi minus value at lo."""
    if not (model.span.lo <= interval.lo and interval.hi <= model.span.hi):
        raise ValueError("interval outside model span")
    return model.extended_value(interval.hi) - model.extended_value(interval.lo)


# ---------------------------------------------------------------------------
# Residuals
# ---------------------------------------------------------------------------

def residual_estimate(
    model: SingularFunctionModel,
    e: float,
    schedule,
    max_depth: int = 20,
    tol: float = 1e-6,
    div_threshold: float = 1e12,
    side_ratio: float = 1.0,
) -> ConvergenceVerdict:
    """Limit of raw-F increments over shrinking brackets around ``e``.

    Brackets are the anchor cells ``[e - r_n, e + r_n]`` of
    :func:`anchor_cells` (``side_ratio`` scales the right radius to probe
    one-sided pathologies).  F itself is evaluated at the bracket ends, not
    its extension; at a span-endpoint member the bracket is one-sided and F
    is evaluated at ``e``.

    Raises only on bad arguments (``e`` outside E, a nonpositive radius):
    evaluation failures and cells that break the anchor rule end the
    sequence and are named in the verdict's note.
    """
    if e not in model.E:
        raise ValueError(f"{e!r} is not an exceptional point of the model")
    i = model.E.points.index(e)
    clf = SequenceClassifier(tol=tol, div_threshold=div_threshold)
    for n in range(max_depth + 1):
        step = schedule.at(n)
        try:
            lo, hi, _ = anchor_cells(model.span, model.E, step.r, step.r * side_ratio)[i]
        except AnchorOverlapError as exc:
            clf.note(f"depth {n}: {exc}")
            break
        try:
            ends = model.F_values(np.asarray([lo, hi]))
        except EvaluationError as exc:
            clf.note(f"F evaluation failed at depth {n}: {exc}")
            break
        verdict = clf.push(n, float(ends[1] - ends[0]))
        if verdict is not None:
            return verdict
    return clf.finish()


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
    warnings = []
    for x in xs:
        declared = float(model.f_values(np.asarray([x]))[0])
        fp, fm = model.F_values(np.asarray([x + h, x - h]))
        estimated = (float(fp) - float(fm)) / (2 * h)
        mismatch = abs(declared - estimated) / max(1.0, abs(declared), abs(estimated))
        if mismatch > 1e-3:
            warnings.append(DerivativeMismatch(x, declared, estimated, mismatch))
    return warnings


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
