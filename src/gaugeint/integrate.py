"""Top-level limit processes and reports.

* ``total_kh`` -- the total integral's value is the exact telescoped endpoint
  difference of the extended function; what varies per requested tolerance is
  the *verification*: a straddle-verified partition (fixed anchor radius,
  tolerance-driven widths) whose Riemann sum must track the off-anchor
  increment sum within eps times the span length.
* ``plain_kh`` -- estimates the ordinary gauge integral of the extended
  derivative from Riemann sums over straddle-verified partitions whose
  mesh, anchor radius and tolerance shrink with depth.  The capped depths
  test f against F on a fine mesh; from ``builders.MESH_DEPTHS`` on
  the cap is lifted, since there the straddle check alone bounds each sum's
  distance from the off-anchor increments of F by the tolerance times the
  span length, and a fine mesh would only run into the rounding floor.
  That bound also places every depth's sum, before it is built, within
  eps_n times the span length of total - B_n, B_n being the basic sum, one
  F call per depth.  When those bands show that no depth up to the last
  can reach a verdict, the ladder builds only depth 0 and one f check, a
  build at tolerance ``tol`` per span length on the finest mesh cap, and
  ends with ``no verdict reachable by depth N`` or with the f check's
  failure.
* ``decompose`` -- assembles the total value, the plain-integral verdict, the
  basic-sum verdict and the residual table, and checks the additivity
  identity total = plain + basic-sum when both limits converge.  Within
  one call every build and every anchor row is made once: at the default
  schedule and anchor radius the ladder's depth 0 is ``total_kh``'s eps
  1e-2 row, and the ladder reads the anchor rows that the basic sum and
  the residuals read.
* ``residue_check`` -- the degenerate case: when the derivative vanishes off
  the exceptional set, the endpoint difference of the extended function must
  equal the sum of the residuals.
* ``residue_table`` -- the anchor-only ladders (basic-sum rows and verdict,
  residual table) shared by ``decompose`` and the ``residues`` command; all
  of them read one row of anchor terms, one F call, per depth.
* ``report_json`` -- the fixed six-key JSON envelope every report renders to.

Each depth or tolerance row is an independent pure computation; reports are
assembled deterministically by index.  Each stop is read from one record: a
failed row's from the raised ``BuildError``, a ladder's from its verdict's note.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence, Tuple

import numpy as np

from .builders import MESH_DEPTHS, BuildLimits, RefinementSchedule, _straddle_runs
from .errors import BuildError, NotLocallyConstant
from .models import SingularFunctionModel, increment
from .sums import (
    KahanAccumulator,
    _anchor_rows,
    _basic_sum_ladder,
    _kahan_sum,
    _once,
    _residuals,
)
from .verdicts import (
    CONVERGE_RUN,
    DIVERGE_RUN,
    DIV_THRESHOLD,
    MAX_DEPTH,
    TOL,
    Converged,
    ConvergenceVerdict,
    Inconclusive,
    Trace,
    run_ladder,
    verdict_to_json,
)

__all__ = [
    "VerificationRow",
    "TotalReport",
    "DecompositionReport",
    "ResidueReport",
    "total_kh",
    "plain_kh",
    "decompose",
    "residue_check",
    "residue_table",
    "report_json",
]

# Default verification tolerances of ``total_kh`` and ``decompose``.
EPSILONS = (1e-2, 1e-3, 1e-4)


def report_json(
    total: float | None = None,
    verification: Sequence[VerificationRow] = (),
    kh: ConvergenceVerdict | None = None,
    basic_sum: ConvergenceVerdict | None = None,
    residuals: Mapping[float, ConvergenceVerdict] | None = None,
    identity_gap: float | None = None,
) -> dict:
    """The JSON document of a report: always the same six keys, with the
    parts a report does not compute left null (or empty)."""
    return {
        "total": total,
        "verification": [row.to_json() for row in verification],
        "kh": verdict_to_json(kh),
        "basic_sum": verdict_to_json(basic_sum),
        "residuals": {repr(e): verdict_to_json(v) for e, v in (residuals or {}).items()},
        "identity_gap": identity_gap,
    }


@dataclass(frozen=True)
class _StraddleSums:
    riemann: float       # integrand(tag) * width over all pairs
    off_increments: float  # extended-F increments over off-anchor pairs
    pairs: int


def _straddle_sums(model, r, eps, limits, h=None) -> _StraddleSums:
    """Stream one straddle-verified build into its two sums."""
    xi = KahanAccumulator()
    off = KahanAccumulator()
    pairs = 0
    for item in _straddle_runs(model, model.span, r, eps, limits, h):
        if item[0] == "anchor":
            pairs += 1  # extended derivative vanishes at the anchor tag
        else:
            _, _, f_tags, F_pos, f_widths = item
            xi.add(float(np.add.reduce(f_widths)))
            off.add(float(F_pos[-1] - F_pos[0]))  # run telescopes exactly
            pairs += len(f_tags)
    return _StraddleSums(riemann=xi.total, off_increments=off.total, pairs=pairs)


def _build_once(model, limits):
    """``builds(r, eps, h)``: the :func:`_straddle_sums` of the build at
    anchor radius r, tolerance eps and mesh cap h, built once however often
    it is read; a build that raised raises again."""
    return _once(lambda r, eps, h: _straddle_sums(model, r, eps, limits, h), BuildError)


# ---------------------------------------------------------------------------
# Total integral
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationRow:
    epsilon: float
    residual: float | None
    bound: float
    pairs: int
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.residual is not None and self.residual <= self.bound

    def to_json(self) -> dict:
        doc = {
            "epsilon": self.epsilon,
            "residual": self.residual,
            "bound": self.bound,
            "pairs": self.pairs,
        }
        if self.error is not None:
            doc["error"] = self.error
        return doc


@dataclass(frozen=True)
class TotalReport:
    total: float
    rows: Tuple[VerificationRow, ...]
    verified: bool

    def to_json(self) -> dict:
        return report_json(total=self.total, verification=self.rows)


def total_kh(
    model: SingularFunctionModel,
    epsilons: Sequence[float] = EPSILONS,
    r: float | None = None,
    limits: BuildLimits | None = None,
) -> TotalReport:
    """Total integral with per-tolerance verification rows.

    The value itself never depends on a partition: it is the telescoped
    endpoint difference of the extended function.  Each tolerance row builds
    a straddle-verified partition at fixed anchor radius and checks that the
    Riemann sum stays within eps*(span length) of the off-anchor increment
    sum.  A failed build marks its row and leaves the others standing.
    """
    return _total_kh(model, increment(model, model.span), epsilons, r,
                     _build_once(model, limits or BuildLimits()))


def _total_kh(model, total, epsilons, r, builds) -> TotalReport:
    """:func:`total_kh` on the given total, its rows read from ``builds``."""
    if r is None:
        r = RefinementSchedule.for_model(model).r0
    rows = []
    for eps in epsilons:
        bound = eps * model.span.length
        try:
            sums = builds(r, eps, model.span.length)
        except BuildError as exc:
            rows.append(VerificationRow(eps, None, bound, exc.pairs_built, error=str(exc)))
            continue
        rows.append(VerificationRow(
            eps, abs(sums.riemann - sums.off_increments), bound, sums.pairs
        ))
    return TotalReport(total=total, rows=tuple(rows),
                       verified=bool(rows) and all(row.ok for row in rows))


# ---------------------------------------------------------------------------
# Plain integral
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SequenceRow:
    depth: int
    h: float
    r: float
    epsilon: float
    value: float


def _rows(schedule: RefinementSchedule, trace: Trace) -> Tuple[SequenceRow, ...]:
    """A ladder's trace as depth rows with the schedule step of each depth."""
    return tuple(SequenceRow(n, *schedule.at(n), v) for n, v in trace)


# Rounding allowance of the identity bound, relative to |total| + |B_n|.
_ROUNDING = 2.0**-26


def _verdict_reachable(schedule, length, max_depth, tol, div_threshold, total, row) -> bool:
    """Whether some depth up to ``max_depth`` could make the classifier fire,
    judged from the anchor rows alone, read in depth order up to the first
    such depth.

    Every cell of a straddle build keeps its Riemann part within eps_n times
    its width of its increment of F, so depth n's Riemann sum lies within
    eps_n * length of the off-anchor increments, total - B_n, B_n being the
    basic sum.  Depth n's band is that centre with twice that bound plus a
    rounding allowance as radius.  Converged can fire at depth m >= 3 only
    if each of its last three deltas can be at most ``tol``: consecutive
    bands come within ``tol`` of each other.  Diverged can fire at m >= 4
    only if the band reaches past ``div_threshold``.  A depth whose anchor
    row raises, or whose band is not finite, counts as one that could fire.
    """
    bands = []
    for n in range(max_depth + 1):
        try:
            b = _kahan_sum(row(n))
        except Exception:
            return True
        band = (total - b,
                2 * schedule.at(n).eps * length + _ROUNDING * (abs(total) + abs(b)))
        if not all(map(math.isfinite, band)):
            return True
        bands.append(band)
        if n >= DIVERGE_RUN - 1 and abs(band[0]) + band[1] > div_threshold:
            return True
        if n >= CONVERGE_RUN and all(
            abs(c1 - c0) <= tol + r0 + r1
            for (c0, r0), (c1, r1) in zip(bands[-CONVERGE_RUN - 1:], bands[-CONVERGE_RUN:])
        ):
            return True
    return False


def _plain_ladder(model, schedule, max_depth, tol, div_threshold, total, row, builds):
    """Depth-indexed Riemann sums over shrinking straddle builds, classified
    incrementally so the ladder stops at the first verdict.

    When :func:`_verdict_reachable` proves that no depth up to ``max_depth``
    can reach a verdict, only depth 0 is built, for its
    trace row, and one f check: a build at the schedule's first radius, the
    tolerance ``tol`` per span length and the finest mesh cap, which tests f
    against F as finely as the capped depths together would.
    """
    def riemann(n):
        step = schedule.at(n)
        return n, builds(step.r, step.eps, step.h).riemann

    stops = {BuildError: "build failed at depth {depth}: {exc}"}
    length = model.span.length
    if _verdict_reachable(schedule, length, max_depth, tol, div_threshold, total, row):
        return run_ladder(riemann, max_depth, tol, div_threshold, stops)
    trace, verdict = run_ladder(riemann, 0, tol, div_threshold, stops)
    if not trace:  # the depth-0 build failed, and its note says how
        return trace, verdict
    eps, h = tol / length, schedule.at(MESH_DEPTHS - 1).h
    try:
        builds(schedule.r0, eps, h)
    except BuildError as exc:
        note = f"build failed in the f check (eps {eps:.3g}, mesh cap {h:.3g}): {exc}"
    else:
        note = f"no verdict reachable by depth {max_depth}"
    return trace, Inconclusive(trace=trace, note=note)


def plain_kh(
    model: SingularFunctionModel,
    schedule: RefinementSchedule | None = None,
    max_depth: int = MAX_DEPTH,
    tol: float = TOL,
    div_threshold: float = DIV_THRESHOLD,
    limits: BuildLimits | None = None,
) -> ConvergenceVerdict:
    """Ordinary gauge-integral estimate of the extended derivative.

    Converged means the Riemann sums settled to the integral's value;
    divergence and budget-limited inconclusiveness are honest outcomes (a
    build failure surfaces in the verdict's note, never as an exception).
    Depth n's sum lies within eps_n times the span length of total - B_n,
    B_n being the basic sum; when those bands rule out a verdict at every
    depth, the ladder builds depth 0 and one f check at the finest mesh cap
    and ends with the note ``no verdict reachable by depth N``, or with
    ``build failed ...`` when the f check fails.  Otherwise f is tested
    against F on the schedule's capped depths, so a mismatch on a region
    narrower than about twice the finest cap (the span length / 4096 by
    default) can go unseen.
    """
    schedule = schedule or RefinementSchedule.for_model(model)
    builds = _build_once(model, limits or BuildLimits())
    return _plain_ladder(model, schedule, max_depth, tol, div_threshold,
                         increment(model, model.span), _anchor_rows(model, schedule),
                         builds)[1]


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecompositionReport:
    total: float
    verification: TotalReport
    kh_verdict: ConvergenceVerdict
    basic_sum_verdict: ConvergenceVerdict
    residuals: Mapping[float, ConvergenceVerdict]
    identity_gap: float | None
    identity_tolerance: float
    residue_sum_gap: float | None
    lemma_consistent: bool
    kh_rows: Tuple[SequenceRow, ...] = ()
    bs_rows: Tuple[SequenceRow, ...] = ()

    def to_json(self) -> dict:
        return report_json(
            total=self.total,
            verification=self.verification.rows,
            kh=self.kh_verdict,
            basic_sum=self.basic_sum_verdict,
            residuals=self.residuals,
            identity_gap=self.identity_gap,
        )


def _residual_sum(residuals: Mapping[float, ConvergenceVerdict]) -> float | None:
    """Kahan sum of the residual values; None unless every residual converged.
    An empty table sums to 0.0, the residual sum over an empty exceptional
    set."""
    if not all(isinstance(v, Converged) for v in residuals.values()):
        return None
    return _kahan_sum(v.value for v in residuals.values())


def residue_table(
    model: SingularFunctionModel,
    schedule: RefinementSchedule,
    max_depth: int,
    tol: float,
    div_threshold: float,
) -> Tuple[Tuple[SequenceRow, ...], ConvergenceVerdict, dict]:
    """The anchor-only ladders: ``(bs_rows, bs_verdict, residuals)``.

    ``bs_rows`` are the basic-sum depth rows, ``bs_verdict`` their verdict
    and ``residuals`` maps each exceptional point to its residual verdict.
    All the ladders share one row of anchor terms, one F call, per depth.
    With an empty exceptional set the basic sum is exactly 0 at depth 0.
    """
    return _anchor_ladders(model, schedule, max_depth, tol, div_threshold,
                           _anchor_rows(model, schedule))


def _anchor_ladders(model, schedule, max_depth, tol, div_threshold, row):
    """:func:`residue_table` on the anchor rows ``row``."""
    if len(model.E) > 0:
        trace, bs_verdict = _basic_sum_ladder(row, max_depth, tol, div_threshold)
    else:
        trace, bs_verdict = ((0, 0.0),), Converged(value=0.0, error_estimate=0.0, depth=0)
    return _rows(schedule, trace), bs_verdict, _residuals(
        model, schedule, model.E, max_depth, tol, div_threshold, row)


def decompose(
    model: SingularFunctionModel,
    epsilons: Sequence[float] = EPSILONS,
    schedule: RefinementSchedule | None = None,
    max_depth: int = MAX_DEPTH,
    tol: float = TOL,
    div_threshold: float = DIV_THRESHOLD,
    limits: BuildLimits | None = None,
    anchor_r: float | None = None,
) -> DecompositionReport:
    """Full decomposition: total value, plain-integral verdict, basic-sum
    verdict, residual table, and the additivity identity check.

    The identity gap |total - (plain + basic sum)| is reported whenever both
    limits converge and is compared against the combined classifier tolerance
    (one tolerance per limit).  The residual-sum cross-check against the
    basic sum runs when every residual converges.  A build that dies ends
    the plain-integral ladder, and only the kh verdict's note records it.
    """
    schedule = schedule or RefinementSchedule.for_model(model)
    builds = _build_once(model, limits or BuildLimits())
    row = _anchor_rows(model, schedule)

    total = increment(model, model.span)
    verification = _total_kh(model, total, epsilons, anchor_r, builds)

    kh_trace, kh_verdict = _plain_ladder(model, schedule, max_depth, tol, div_threshold,
                                         total, row, builds)

    bs_rows, bs_verdict, residuals = _anchor_ladders(
        model, schedule, max_depth, tol, div_threshold, row
    )

    identity_gap = None
    if isinstance(kh_verdict, Converged) and isinstance(bs_verdict, Converged):
        identity_gap = abs(total - (kh_verdict.value + bs_verdict.value))

    residue_sum_gap = None
    residual_sum = _residual_sum(residuals)
    if isinstance(bs_verdict, Converged) and residual_sum is not None:
        residue_sum_gap = abs(residual_sum - bs_verdict.value)

    one_sided = (
        isinstance(kh_verdict, Converged) != isinstance(bs_verdict, Converged)
        and not isinstance(kh_verdict, Inconclusive)
        and not isinstance(bs_verdict, Inconclusive)
    )

    return DecompositionReport(
        total=total,
        verification=verification,
        kh_verdict=kh_verdict,
        basic_sum_verdict=bs_verdict,
        residuals=residuals,
        identity_gap=identity_gap,
        identity_tolerance=2 * tol,
        residue_sum_gap=residue_sum_gap,
        lemma_consistent=not one_sided,
        kh_rows=_rows(schedule, kh_trace),
        bs_rows=bs_rows,
    )


# ---------------------------------------------------------------------------
# Residue theorem check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidueReport:
    lhs: float                      # F(b) - F(a) of the extended F
    rhs: float | None               # sum of residuals, when all converge
    gap: float | None
    residuals: Mapping[float, ConvergenceVerdict]

    def to_json(self) -> dict:
        return report_json(total=self.lhs, residuals=self.residuals, identity_gap=self.gap)


def _sample_off_points(model: SingularFunctionModel, count: int) -> np.ndarray:
    """Stratified sample points between adjacent exceptional points (span
    endpoints included as strata walls), excluding the walls themselves."""
    walls = sorted({model.span.lo, model.span.hi, *model.E})
    gaps = list(zip(walls, walls[1:]))
    per_gap = max(1, -(-count // len(gaps)))
    xs = []
    for g0, g1 in gaps:
        xs.append(np.linspace(g0, g1, per_gap + 2)[1:-1])
    return np.concatenate(xs)


def residue_check(
    model: SingularFunctionModel,
    schedule: RefinementSchedule | None = None,
    max_depth: int = MAX_DEPTH,
    tol: float = TOL,
    div_threshold: float = DIV_THRESHOLD,
    samples: int = 256,
) -> ResidueReport:
    """Check F(b) - F(a) against the residual sum when f vanishes off E.

    F is the extended F, so the left side is the value ``total_kh``
    reports, and each residual is its point's extended-F increment.

    The precondition (an identically zero derivative off the exceptional
    set) is undecidable for a black box; it is enforced by sampling
    ``samples`` stratified points and raising ``NotLocallyConstant`` on the
    first nonzero values found.
    """
    xs = _sample_off_points(model, samples)
    values = model.f_values(xs)
    nonzero = xs[values != 0.0]
    if nonzero.size:
        raise NotLocallyConstant(nonzero[:4].tolist())

    schedule = schedule or RefinementSchedule.for_model(model)
    lhs = increment(model, model.span)
    residuals = _residuals(model, schedule, model.E, max_depth, tol, div_threshold,
                           _anchor_rows(model, schedule))
    rhs = _residual_sum(residuals)
    gap = None if rhs is None else abs(lhs - rhs)
    return ResidueReport(lhs=lhs, rhs=rhs, gap=gap, residuals=residuals)
