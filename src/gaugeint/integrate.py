"""Top-level limit processes and reports.

* ``total_kh`` -- the total integral's value is the exact telescoped endpoint
  difference of the extended function; what varies per requested tolerance is
  the *verification*: a straddle-verified partition (fixed anchor radius,
  tolerance-driven widths) whose Riemann sum must track the off-anchor
  increment sum within eps times the span length.  A build at the finest
  tolerance witnesses every looser row too, so the rows share one build.
* ``plain_kh`` -- the ordinary gauge integral of the extended derivative
  through the paper's identity: the total is F(b) - F(a), so by Hake's
  theorem the plain integral is the total minus the limit of the basic sum
  B_n.  The anchor table runs the ladder over kh_n = total - B_n up to its
  own ``max_depth``, B_n read from the table, one F call per table.  One
  straddle build, the f check, certifies every verdict: it tests f against
  F down to the anchor radius of a depth m, with the mesh cap L/4096 (L the
  span length).  m is the verdict's depth for a converged kh, the last
  depth for a diverged kh and 0 for an inconclusive kh.  A converged kh
  claims a value and is checked at ``tol`` per span length; a diverged or
  inconclusive kh claims none and is checked at the finest tolerance of
  the verification rows it witnesses, never finer than ``tol`` per span
  length.  Each cell of a straddle build keeps its Riemann part within eps
  times its width of its increment of F, so a build at radius r has its
  Riemann sum within eps times the span length of total - B(r).  A
  certificate build that fails ends kh inconclusive with that build's note
  and no row.
* ``decompose`` -- assembles the total value, the plain-integral verdict, the
  basic-sum verdict and the residual table, and reports the identity gap,
  the f check's distance |Riemann - (total - B_n)| at kh's depth n, when
  both limits converge.  Within one call kh reads the anchor table that the
  basic sum and the residuals read, and its certificate's sums give the
  identity gap.  The certificate witnesses every verification row whose
  tolerance it meets, whatever its radius, so at default rows ``decompose``
  reads every number it takes from a partition from one build.  The anchor
  radius ``anchor_r`` is read only by the rows that build their own.
* ``residue_check`` -- the degenerate case: when the derivative vanishes off
  the exceptional set, the endpoint difference of the extended function must
  equal the sum of the residuals.
* ``residue_table`` -- the anchor-only ladders (basic-sum trace and
  verdict, residual table) of the ``residues`` command; ``decompose`` runs
  the same ladders.  One anchor table runs all of them up to its own
  ``max_depth``, one F call per table.
* ``report_json`` -- the fixed six-key JSON envelope every report renders to.

Each depth row is an independent pure computation; the tolerance rows read
one witness build, the finest that succeeds.  Reports are assembled
deterministically by index.  Each stop is read from one record: a failed
row's from the raised ``BuildError``, a ladder's from its verdict's note.
Every anchor ladder is handed back as one record, its ``(trace, verdict)``;
the depth rows with their radii are a rendering of the command line's
convergence CSV.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, Tuple

import numpy as np

from .builders import BuildLimits, _straddle_runs
from .errors import BuildError, NotLocallyConstant
from .models import SingularFunctionModel, increment
from .partition import first_anchor_radius
from .sums import AnchorTable, KahanAccumulator, _kahan_sum
from .verdicts import (
    DIV_THRESHOLD,
    MAX_DEPTH,
    TOL,
    Converged,
    ConvergenceVerdict,
    Diverged,
    Inconclusive,
    Trace,
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
    eps: float           # the build's per-cell tolerance


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
    return _StraddleSums(riemann=xi.total, off_increments=off.total, pairs=pairs, eps=eps)


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
    endpoint difference of the extended function.  Each tolerance row checks
    that a straddle-verified partition at fixed anchor radius keeps its
    Riemann sum within eps*(span length) of the off-anchor increment sum.
    The finest tolerance builds first; a build that succeeds witnesses its
    own row and every looser one, each of its cells being within eps*width
    (Saks-Henstock).  A ``BuildError`` marks its own row, and the next
    looser tolerance builds.  A row's ``pairs`` and ``residual`` are its
    witness's.
    """
    return _verification(model, increment(model, model.span), epsilons, r, limits)


def _verification(model, total, epsilons, r, limits, witness=None) -> TotalReport:
    """:func:`total_kh`'s report of ``total``, the rows' own builds at
    radius ``r``.  ``witness``, a build already made, serves every row
    whose tolerance it meets, whatever its radius: each of its cells is
    within eps' * width of its increment, eps' <= eps, so by Saks-Henstock
    its Riemann sum is within eps * L of its off-anchor increments.  With
    ``r`` None a row builds at the model's first anchor radius, worked out
    only when a row builds."""
    by_eps = {}
    for eps in sorted(set(epsilons)):
        bound = eps * model.span.length
        if not (witness is not None and witness.eps <= eps):
            if r is None:
                r = first_anchor_radius(model.span, model.E)
            try:
                witness = _straddle_sums(model, r, eps, limits)
            except BuildError as exc:
                by_eps[eps] = VerificationRow(eps, None, bound, exc.pairs_built, error=str(exc))
                continue
        by_eps[eps] = VerificationRow(
            eps, abs(witness.riemann - witness.off_increments), bound, witness.pairs)
    rows = tuple(by_eps[eps] for eps in epsilons)
    return TotalReport(total=total, rows=rows,
                       verified=bool(rows) and all(row.ok for row in rows))


# ---------------------------------------------------------------------------
# Plain integral
# ---------------------------------------------------------------------------

# The f check's mesh cap is L / _F_CHECK_MESH: its midpoint tags sample f so densely
# that an f wrong on a region a few caps wide fails it; a narrower one can go unseen.
_F_CHECK_MESH = 4096


def _plain_ladder(tol, div_threshold, total, table, limits, epsilons):
    """``(trace, verdict, sums)``: kh_n = total - B_n, B_n being depth n's
    basic sum from ``table``, classified up to the first verdict, and the
    :func:`_straddle_sums` of the f check that certifies it: a build that
    tests f against F down to the anchor radius of a depth m.

    A converged kh claims a value, so it is checked at its own depth and at
    ``tol`` per span length: its Riemann sum lies within ``tol`` of kh.  A
    diverged kh (m its last depth) and an inconclusive kh (m = 0) claim
    none.  An f wrong by d per unit width moves the plain integral by at
    most d times the span length, which neither makes nor unmakes a
    divergence, so their check backs only the verification rows it
    witnesses: it runs at the finest of the rows' tolerances ``epsilons``
    (with no rows, the finest default row), never finer than ``tol`` per
    span length.

    A failed certificate build ends the ladder with that build's note, no
    trace and no sums: no value is shown that the build did not certify.
    """
    model = table.model
    length = model.span.length
    trace, verdict = table.ladder(lambda n: total - table.basic(n), tol, div_threshold)
    if isinstance(verdict, Converged):
        depth, eps = verdict.depth, tol / length
    else:
        depth = trace[-1][0] if isinstance(verdict, Diverged) else 0
        eps = max(min(epsilons, default=min(EPSILONS)), tol / length)
    r, h = table.radius(depth), length / _F_CHECK_MESH
    try:
        sums = _straddle_sums(model, r, eps, limits, h)
    except BuildError as exc:
        note = f"build failed in the f check (r {r:.3g}, eps {eps:.3g}, mesh cap {h:.3g}): {exc}"
        return (), Inconclusive(trace=(), note=note), None
    return trace, verdict, sums


def plain_kh(
    model: SingularFunctionModel,
    max_depth: int = MAX_DEPTH,
    tol: float = TOL,
    div_threshold: float = DIV_THRESHOLD,
    limits: BuildLimits | None = None,
) -> ConvergenceVerdict:
    """Ordinary gauge-integral estimate of the extended derivative.

    The ladder classifies kh_n = total - B_n, the total F(b) - F(a) less
    depth n's basic sum; converged means kh_n settled to the integral's
    value, and divergence is an honest outcome.  One straddle build, the f
    check, certifies the verdict, testing f against F down to the radius of
    a depth m on a mesh of the span length / 4096; a mismatch on a narrower
    region can go unseen.  A converged kh is checked at its depth and at
    ``tol`` per span length, so its Riemann sum lies within ``tol`` of kh.
    A diverged kh (m its last depth) and an inconclusive kh (m = 0) claim no
    value, and the check backs only verification rows; a standalone
    plain_kh has none, so it runs at ``min(EPSILONS)``, the finest default
    row (or at ``tol`` per span length, if that is looser), as in a
    ``decompose`` at default rows.  A derivative wrong by less than that per
    unit width passes it, and the verdict keeps the ladder's own: a
    divergence, or the note ``no verdict by max depth n``.  A certificate
    build that fails (a ``BuildError``) ends the verdict inconclusive with
    no trace and the note ``build failed in the f check (...): ...``; an
    ``EvaluationError`` from f or F propagates.
    """
    table = AnchorTable(model, max_depth)
    return _plain_ladder(tol, div_threshold, increment(model, model.span), table, limits, ())[1]


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecompositionReport:
    """What :func:`decompose` found.

    ``kh_trace`` and ``bs_trace`` are the kh and basic-sum ladders'
    ``(depth, value)`` pairs, and ``r0`` the anchor radius of depth 0, so
    depth n reads the radius r0 * 2^-n; ``to_json`` reads none of them.  An
    empty ``kh_trace`` means kh has no row: its f check failed, or its
    ladder stopped at depth 0.
    """

    total: float
    verification: TotalReport
    kh_verdict: ConvergenceVerdict
    basic_sum_verdict: ConvergenceVerdict
    residuals: Mapping[float, ConvergenceVerdict]
    identity_gap: float | None
    identity_tolerance: float
    residue_sum_gap: float | None
    lemma_consistent: bool
    kh_trace: Trace
    bs_trace: Trace
    r0: float

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
    max_depth: int,
    tol: float,
    div_threshold: float,
) -> Tuple[Trace, ConvergenceVerdict, dict]:
    """The anchor-only ladders: ``(bs_trace, bs_verdict, residuals)``.

    ``bs_trace`` is the basic-sum ladder's ``(depth, value)`` pairs,
    ``bs_verdict`` its verdict (both from :meth:`AnchorTable.basic_ladder`,
    as in ``basic_sum_sequence`` and ``decompose``) and ``residuals`` maps
    each exceptional point to its residual verdict.  All the ladders read
    one anchor table, one F call per table, over every depth up to
    ``max_depth`` or the first that breaks the anchor rule.  With an empty
    exceptional set the basic sum is exactly 0 at depth 0.
    """
    table = AnchorTable(model, max_depth)
    bs_trace, bs_verdict = table.basic_ladder(tol, div_threshold)
    return bs_trace, bs_verdict, table.residuals(model.E, tol, div_threshold)


def decompose(
    model: SingularFunctionModel,
    epsilons: Sequence[float] = EPSILONS,
    max_depth: int = MAX_DEPTH,
    tol: float = TOL,
    div_threshold: float = DIV_THRESHOLD,
    limits: BuildLimits | None = None,
    anchor_r: float | None = None,
) -> DecompositionReport:
    """Full decomposition: total value, plain-integral verdict, basic-sum
    verdict, residual table, and the additivity identity check.

    kh is total - B_n by construction, so the identity is checked where a
    build measures it: the identity gap is |Riemann - (total - B_n)| of
    kh's certificate, the f check at kh's depth n, within ``tol`` of 0 by
    the straddle bound.
    It is reported whenever both limits converge and is compared against
    the combined classifier tolerance (one tolerance per limit).  The
    residual-sum cross-check against the basic sum runs when every residual
    converges.  A certificate build that dies ends the plain-integral
    ladder, and only the kh verdict's note records it; an
    ``EvaluationError`` from f or F propagates, first from kh's
    certificate.  A converged kh's f check runs at ``tol`` per span length,
    a diverged or inconclusive kh's at the finest of ``epsilons`` (with
    none, at ``min(EPSILONS)``, as in ``plain_kh``), never finer than
    ``tol`` per span length.  The certificate witnesses every verification
    row whose tolerance it meets, at its own radius, whether or not
    ``anchor_r`` is set: r0 * 2^-m for a kh converged at depth m, the last
    depth's radius for a diverged kh and r0 for an inconclusive one.  On a
    converged kh the rows' residual is then the identity gap.  A row finer
    than the certificate, and every row after a failed certificate, builds
    its own partition at ``anchor_r`` (default r0), as in ``total_kh``.

    The report keeps the kh and basic-sum ladders' traces and r0.
    """
    table = AnchorTable(model, max_depth)
    total = increment(model, model.span)

    kh_trace, kh_verdict, certificate = _plain_ladder(tol, div_threshold, total, table, limits,
                                                      epsilons)
    verification = _verification(model, total, epsilons, anchor_r, limits, certificate)

    bs_trace, bs_verdict = table.basic_ladder(tol, div_threshold)
    residuals = table.residuals(model.E, tol, div_threshold)

    identity_gap = None
    if isinstance(kh_verdict, Converged) and isinstance(bs_verdict, Converged):
        identity_gap = abs(certificate.riemann - kh_verdict.value)

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
        kh_trace=kh_trace,
        bs_trace=bs_trace,
        r0=table.r0,
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


# The number of stratified points at which ``residue_check`` tests f for zero.
_PRECONDITION_SAMPLES = 256


def _sample_off_points(model: SingularFunctionModel) -> np.ndarray:
    """At least ``_PRECONDITION_SAMPLES`` stratified sample points between
    adjacent exceptional points (span endpoints included as strata walls),
    excluding the walls themselves."""
    walls = sorted({model.span.lo, model.span.hi, *model.E})
    gaps = list(zip(walls, walls[1:]))
    per_gap = max(1, -(-_PRECONDITION_SAMPLES // len(gaps)))
    xs = []
    for g0, g1 in gaps:
        xs.append(np.linspace(g0, g1, per_gap + 2)[1:-1])
    return np.concatenate(xs)


def residue_check(
    model: SingularFunctionModel,
    max_depth: int = MAX_DEPTH,
    tol: float = TOL,
    div_threshold: float = DIV_THRESHOLD,
) -> ResidueReport:
    """Check F(b) - F(a) against the residual sum when f vanishes off E.

    F is the extended F, so the left side is the value ``total_kh``
    reports, and each residual is its point's extended-F increment.

    The precondition (an identically zero derivative off the exceptional
    set) is undecidable for a black box; it is enforced by sampling
    ``_PRECONDITION_SAMPLES`` stratified points and raising
    ``NotLocallyConstant`` on the first nonzero values found.
    """
    xs = _sample_off_points(model)
    values = model.f_values(xs)
    nonzero = xs[values != 0.0]
    if nonzero.size:
        raise NotLocallyConstant(nonzero[:4].tolist())

    lhs = increment(model, model.span)
    table = AnchorTable(model, max_depth)
    residuals = table.residuals(model.E, tol, div_threshold)
    rhs = _residual_sum(residuals)
    gap = None if rhs is None else abs(lhs - rhs)
    return ResidueReport(lhs=lhs, rhs=rhs, gap=gap, residuals=residuals)
