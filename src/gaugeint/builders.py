"""Constructive delta-fine partition builders and refinement schedules.

Three builders:

* ``build_anchored`` -- uniform mesh cells plus one anchor cell per
  exceptional point, the standard gauge construction that forces exceptional
  points to be tags.
* ``build_straddle_verified`` -- anchors plus off-anchor cells [u, v] whose
  widths are searched until each cell individually satisfies Henstock's
  straddle inequality |F(v) - F(u) - f(t) (v - u)| <= eps (v - u) at its
  midpoint tag t = (u + v) / 2.  The inequality holds for any tag in [u, v];
  the midpoint makes the per-cell error O(w^3) instead of the left
  endpoint's O(w^2), so far wider cells pass.  This realizes, constructively,
  the gauge whose existence the fundamental-theorem argument asserts.
* ``build_cousin`` -- bisection until every piece admits a tag whose gauge
  ball strictly contains it (a constructive proof of nonemptiness for any
  positive gauge).  It bisects a sorted frontier of open pieces, leftmost
  ``_WAVE`` at a time, with one bulk gauge evaluation per candidate tag.

The straddle builder walks each gap between anchors in vectorized waves: it
proposes a batch of equal-width cells, checks the inequality on the whole
batch, accepts the passing prefix, and halves or grows the width
adaptively.  A gap that touches an anchor only at its right end is walked
right to left, so every gap next to a point of E starts at that point and a
width search that fails there fails within the first few cells; its runs
come in walk order, each one ascending.  Width control is geometric with
factor 2 downward.  Upward, a wave that passes in full steps the width as
an ODE step-size controller does: the midpoint rule's error per unit width
grows as w^2, so the share h of its bound that the wave's worst cell used
predicts a width 1 / sqrt(h) times wider, and the next wave takes 0.9 times
that, at most 4x and never narrower.  A prefix that ends on a cell failing
only by rounding doubles the width instead, and the gap's first width
search shortens the next wave to ``_FIRST_WAVE`` cells, growing back to
``_WAVE`` with every accepting wave.  A wave whose first cell fails only
halves the width, so it hands its width to the halving chain, which
settles the rest of the search at once: the candidate widths start at the
rejected width and halve down to the minimum width, their first cells are
evaluated in one F call and one f call, the rejected width is recorded but
never chosen, and the full batch is evaluated at the first narrower width
whose first cell passes.  Each wave calls F and f once each and checks
their values for finiteness once, on the sum of its errors.  The
partitions and errors are those of evaluating every wave in full, with two
exceptions.  F or f non-finite only on a halving wave's later cells no
longer raises ``EvaluationError`` from that wave.  And F or f non-finite
off E at the first cell of a candidate narrower than the width the search
settles at now raises ``EvaluationError``, although full waves never
evaluate there.  One evaluation differs too: f is evaluated on a wave whose
F came back non-finite, before that wave raises F's ``EvaluationError``.
A search that cannot go on at some position stops with ``FloorReached``
when its rejected errors only reflect rounding, and with
``StraddleFailure`` when they kept their size as the width halved.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import BudgetExceeded, FloorReached, StraddleFailure
from .models import SingularFunctionModel
from .partition import Gauge, Interval, TaggedPartition, anchor_cells, anchored_gauge, validate

_WAVE = 4096

# The wave proposed right after a gap's first width search (see _gap_waves).
_FIRST_WAVE = 64

# Width control after a wave passes in full: the midpoint rule's error per
# unit width grows as w^2, so a wave whose worst cell used the share
# ``headroom`` of its bound predicts the width sqrt(1 / headroom) times
# wider to use all of it.  The next wave steps to _SAFETY times that, at
# most _MAX_GROWTH times wider and never narrower.
_SAFETY = 0.9
_MAX_GROWTH = 4.0

# The breakpoint steps 0, 1, ..., _WAVE + 1 of every wave.
_STEPS = np.arange(_WAVE + 2, dtype=float)

# A wave of width w >= _RISE * M, M = max(|x|, |g1|), needs no underflow
# check: in exact arithmetic its cells are at least about w / 2 >= 2^-41 M
# wide, and each computed breakpoint lies within 2^-51 M of its exact value,
# so no computed cell can close.
_RISE = 2.0**-40

# Depths whose mesh cap halves with depth; the cap is the span length from
# here on (see RefinementSchedule).
MESH_DEPTHS = 13


class ScheduleStep(NamedTuple):
    h: float
    r: float
    eps: float


@dataclass(frozen=True)
class RefinementSchedule:
    """Depth-indexed gauge parameters: mesh cap, anchor radius, straddle tolerance.

    Defaults follow the standard geometric family h_n = h0 * 2^-n,
    r_n = r0 * 2^-n, eps_n = eps0 * 4^-n, except that the mesh cap is lifted
    to h0 (the span length, from ``for_span``) from depth ``MESH_DEPTHS`` on.

    The straddle check alone ties a Riemann sum to the off-anchor increments
    of F, within eps times the span length, whatever the cell widths; it is
    the shrinking cap that makes the midpoint tags sample f densely enough
    to test f against F, so a model whose f is wrong on a region a few
    finest caps wide fails a capped depth.  The per-cell bound eps_n * h_n
    shrinks 8x per depth: on a unit span with |F| ~ 1 it is about 650 ulp of
    F at depth 12 and meets the 8-ulp evaluation floor near depth 14, so the
    cap is lifted at depth 13 and the deeper depths converge on a few wide
    cells.  The tolerance decay factor is adjustable because deep runs on
    hard integrands need a slower tolerance decay to stay within pair
    budgets.
    """

    h0: float
    r0: float
    eps0: float = 1e-2
    eps_factor: float = 0.25

    def __post_init__(self):
        for name in ("h0", "r0", "eps0"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not 0 < self.eps_factor < 1:
            raise ValueError("eps_factor must lie strictly between 0 and 1")

    @classmethod
    def for_span(
        cls, span: Interval, points: Sequence[float] = (), **kwargs
    ) -> "RefinementSchedule":
        walls = sorted({span.lo, span.hi, *map(float, points)})
        min_gap = min(b - a for a, b in zip(walls, walls[1:]))
        r0 = min(0.05 * span.length, 0.5 * min_gap)
        return cls(h0=span.length, r0=r0, **kwargs)

    @classmethod
    def for_model(cls, model: SingularFunctionModel, **kwargs) -> "RefinementSchedule":
        return cls.for_span(model.span, tuple(model.E), **kwargs)

    def at(self, n: int) -> ScheduleStep:
        if n < 0:
            raise ValueError("depth must be nonnegative")
        return ScheduleStep(
            h=self.h0 * 0.5**n if n < MESH_DEPTHS else self.h0,
            r=self.r0 * 0.5**n,
            eps=self.eps0 * self.eps_factor**n,
        )


@dataclass(frozen=True)
class BuildLimits:
    """The pair cap of one build.  Width searches and bisections stop at
    ``min_width``, 2^-60 times the span length, which a width starting at
    most at the span length reaches within 61 halvings."""

    max_pairs: int = 10_000_000

    def __post_init__(self):
        if not self.max_pairs > 0:
            raise ValueError("build limits must be positive")

    def min_width(self, span_length: float) -> float:
        return 2.0**-60 * span_length


# ---------------------------------------------------------------------------
# Span walk and materialization
# ---------------------------------------------------------------------------

def _gaps(span: Interval, anchors) -> Iterator[tuple]:
    """Ordered walk of the span: ("gap", g0, g1) and ("anchor", lo, hi, e)."""
    prev = span.lo
    for lo, hi, e in anchors:
        if lo > prev:
            yield ("gap", prev, lo)
        yield ("anchor", lo, hi, e)
        prev = hi
    if span.hi > prev:
        yield ("gap", prev, span.hi)


def _mesh_positions(g0: float, g1: float, h: float) -> np.ndarray:
    """Equal-width breakpoints covering [g0, g1] with width <= h, endpoints
    exact."""
    length = g1 - g0
    n = max(1, math.ceil(length / h))
    if length / n > h:
        n += 1
    positions = g0 + (length / n) * np.arange(n + 1)
    positions[0] = g0
    positions[-1] = g1
    return positions


def _midpoints(positions: np.ndarray) -> np.ndarray:
    """Midpoint tags of the cells between consecutive breakpoints; each lies
    inside its closed cell in binary64."""
    return 0.5 * (positions[:-1] + positions[1:])


def _chunk_arrays(item) -> tuple:
    """``(los, his, tags)`` of one :func:`straddle_chunks` item: an anchor
    cell tagged at its point, or a run of cells tagged at their midpoints,
    the same values the wave engine evaluated f at."""
    if item[0] == "anchor":
        _, lo, hi, e = item
        return [lo], [hi], [e]
    positions = item[1]
    return positions[:-1], positions[1:], _midpoints(positions)


def _materialize(span: Interval, chunks) -> TaggedPartition:
    """Concatenate ``(los, his, tags)`` chunks into a partition and check the
    partition laws, which every builder guarantees by construction."""
    los, his, tags = (np.concatenate(parts) for parts in zip(*chunks))
    part = TaggedPartition(los, his, tags, span)
    report = validate(part, span)
    if not report.ok:  # pragma: no cover - construction guarantees validity
        raise AssertionError(f"build produced invalid partition: {report.violations[:3]}")
    return part


# ---------------------------------------------------------------------------
# build_anchored
# ---------------------------------------------------------------------------

def build_anchored(
    span: Interval,
    points: Sequence[float],
    r: float,
    h: float,
    limits: BuildLimits | None = None,
) -> TaggedPartition:
    """Uniform-mesh partition with every exceptional point anchored as the
    tag of its own cell.

    Off-anchor cells have width <= h and are tagged at their left endpoint.
    The result is delta-fine for the gauge that is 2h off the points and 2r
    at each point (the non-isolating anchored gauge).
    """
    if not h > 0:
        raise ValueError("mesh width must be positive")
    limits = limits or BuildLimits()
    anchors = anchor_cells(span, sorted(map(float, points)), r)
    chunks = []
    for item in _gaps(span, anchors):
        if item[0] == "gap":
            positions = _mesh_positions(item[1], item[2], h)
            chunks.append((positions[:-1], positions[1:], positions[:-1]))
        else:
            chunks.append(_chunk_arrays(item))
    pairs = sum(len(chunk[0]) for chunk in chunks)
    if pairs > limits.max_pairs:
        raise BudgetExceeded(
            f"anchored build needs {pairs} pairs (cap {limits.max_pairs})",
            pairs_built=0,
        )
    return _materialize(span, chunks)


def anchored_gauge_for(points: Sequence[float], r: float, h: float) -> Gauge:
    """The gauge a partition from :func:`build_anchored` is fine for."""
    return anchored_gauge(mesh=h, anchor_radii={float(e): r for e in points},
                          isolating=False)


# ---------------------------------------------------------------------------
# Straddle-verified construction (wave engine)
# ---------------------------------------------------------------------------

class _Counter:
    """Pairs accepted so far by one straddle build, held to the pair cap."""

    __slots__ = ("pairs", "cap")

    def __init__(self, cap: int):
        self.pairs = 0
        self.cap = cap

    def add(self, n: int, position: float) -> None:
        self.pairs += n
        if self.pairs > self.cap:
            raise BudgetExceeded(
                f"straddle build passed {self.pairs} pairs (cap {self.cap})",
                pairs_built=self.pairs,
                position=position,
            )


def _eval_floor(F_lo: float, F_hi: float, f_t: float, t: float) -> float:
    """Evaluation floor of one cell's straddle error: 8 ulp of F plus the
    ulp of the tag carried through f.  ``math.ulp`` equals ``np.spacing``
    on every finite non-negative double but the largest, where
    ``np.spacing`` overflows to inf and ``math.ulp`` gives 2^971."""
    return 8.0 * (math.ulp(max(abs(F_lo), abs(F_hi))) + abs(float(f_t)) * math.ulp(abs(t)))


def _width_search_failure(tag, width, error, rejected, site, mismatch) -> StraddleFailure:
    """The error that ends a failed width search at one position.

    ``rejected`` holds the first cell's rejected errors above their
    evaluation floor, one entry per halving.  A wrong derivative or an
    undeclared jump keeps that error at its size as the width halves (the
    last two at a ratio >= 0.4), and a single such error was never seen to
    shrink; otherwise the search only ran into rounding.  ``error`` is the
    failing cell's error, or None for a cell whose width underflowed before
    it was evaluated: a mismatch then reports the last rejected error, and a
    floor failure nan.
    """
    if rejected and (len(rejected) == 1 or rejected[-1] >= 0.4 * rejected[-2]):
        return StraddleFailure(tag, width, rejected[-1] if error is None else error, mismatch)
    return FloorReached(tag, width, math.nan if error is None else error,
                        f"{site}; rejected errors are at the floating-point evaluation floor")


def _straddle_errors(model, positions, lo=slice(None, -1)):
    """``(F_positions, tags, f_tags, widths, f_widths, errs)`` of the cells
    ``[positions[lo], positions[1:]]``: by default the cells between
    consecutive breakpoints, with ``lo=0`` cells that all start at
    ``positions[0]``.  F is evaluated at the breakpoints, f at the midpoint
    tags, and each cell gets its Riemann part f(t) * width and its straddle
    error.  The expressions are elementwise, so a cell's values do not
    depend on the cells evaluated with it.

    F and f are called once each and checked for finiteness once: the
    errors are non-negative, so their sum is finite unless some F or f
    value is non-finite or an error overflows.  Only then are F and f
    evaluated again through ``F_values`` and ``f_values``, which raise the
    ``EvaluationError`` naming the non-finite points, F's before f's; an
    overflowing error from finite values raises nothing and fails its cell.
    Unlike two checked calls, f is evaluated even where F came back
    non-finite, before the error is raised."""
    los = positions[lo]
    widths = positions[1:] - los
    tags = 0.5 * (los + positions[1:])
    with np.errstate(all="ignore"):
        F_pos = np.asarray(model.F(positions), dtype=float)
        f_tags = np.asarray(model.f(tags), dtype=float)
        f_widths = f_tags * widths
        errs = np.abs((F_pos[1:] - F_pos[lo]) - f_widths)
    if not math.isfinite(np.add.reduce(errs)):
        model.F_values(positions)
        model.f_values(tags)
    return F_pos, tags, f_tags, widths, f_widths, errs


def _wave_layout(x, stop, w, cells):
    """``(n_cells, step, spread)`` of the wave at x of width w toward stop:
    ``cells`` cells of width w, or, when at most ``cells + 1`` cells of
    width w reach stop, cells spread evenly to end exactly at stop.  The
    step carries the walk's direction.  Spread widths stay within a factor 2
    of w, so a full pass never strands a sub-width sliver."""
    remaining = stop - x
    n_cells = math.ceil(abs(remaining) / w)
    if n_cells <= cells + 1:
        return n_cells, remaining / n_cells, True
    return cells, math.copysign(w, remaining), False


def _wave_positions(x, stop, layout):
    """The breakpoints of a wave laid out by :func:`_wave_layout`, in walk
    order."""
    n_cells, step, spread = layout
    positions = x + step * _STEPS[: n_cells + 1]
    if spread:
        positions[0] = x
        positions[-1] = stop
    return positions


def _check_rising(positions, d, w, rejected):
    """Raise the width-search failure at the first cell of a wave of width w
    whose breakpoints do not move on in the walk's direction d, i.e. whose
    width is not positive."""
    rising = d * (positions[1:] - positions[:-1]) > 0
    if not rising.all():
        i = int(np.argmin(rising))
        raise _width_search_failure(float(_midpoints(positions[i:i + 2])[0]), float(w),
                                    None, rejected, "cell width underflows",
                                    "cell width underflows at floating point; "
                                    "declared derivative does not match F here")


def _halving_chain(model, x, stop, w, eps, min_width, cells=_WAVE):
    """The first width of w / 2, w / 4, ... at which the first cell at x
    toward stop passes, after a wave of width w rejected it.

    The candidates are w itself and its halvings down to ``min_width``; the
    first cells of all of them are evaluated in one F call and one f call.
    The candidates are then settled in order as one wave of ``cells`` cells
    each would settle them: the underflow check, the straddle check and, on
    failure, the rejected error when it lies above its evaluation floor.
    Candidate 0 is recorded but never returned, so the width at least halves
    even where F depends on the batch it is evaluated in.  The search fails
    after the last candidate.  Candidate 0 may be one cell to stop, whose
    first breakpoint is stop itself, as :func:`_wave_positions` lays it out;
    every later candidate is at most half the remaining length.
    """
    d = 1.0 if stop > x else -1.0
    remaining = stop - x
    # w * 2^-k >= min_width exactly when k <= e_w - e_min, less one when w's
    # mantissa is below min_width's
    m_w, e_w = math.frexp(w)
    m_min, e_min = math.frexp(min_width)
    candidates = np.ldexp(w, -np.arange(max(1, e_w - e_min + (m_w >= m_min))))
    # each candidate's first breakpoint as _wave_layout and _wave_positions
    # lay it out: a spread step when cells + 1 of its width reach stop, and
    # stop itself for one cell
    n_cells = np.ceil(abs(remaining) / candidates)
    firsts = np.empty(len(candidates) + 1)
    firsts[0] = x
    firsts[1:] = x + np.where(n_cells <= cells + 1, remaining / n_cells, d * candidates)
    firsts[1:][n_cells == 1] = stop
    F_pos, tags, f_tags, widths, _, errs = _straddle_errors(model, firsts, lo=0)
    passed = errs <= (eps * d) * widths
    rise = _RISE * max(abs(x), abs(stop))
    rejected: list[float] = []
    for j, c in enumerate(candidates.tolist()):
        if c < rise:
            _check_rising(_wave_positions(x, stop, _wave_layout(x, stop, c, cells)), d, c,
                          rejected)
        if j and passed[j]:
            return c
        if errs[j] > _eval_floor(F_pos[0], F_pos[j + 1], f_tags[j], tags[j]):
            rejected.append(float(errs[j]))
    raise _width_search_failure(
        float(tags[-1]), float(candidates[-1]), float(errs[-1]), rejected,
        "width search exhausted",
        "width search exhausted; declared derivative does not match F here",
    )


def _gap_waves(model, start, stop, eps, counter, h_cap, min_width):
    """Yield (positions, f_tags, F_positions, f_widths) for contiguous runs
    of cells covering the gap between start and stop, walked from start
    toward stop, every cell passing the straddle check at its midpoint tag;
    ``f_widths`` are the cells' Riemann parts f(t) * width, as the wave
    computed them.  Each run is ascending: a walk to the left yields
    reversed views of its waves, so the runs come in walk order and each one
    reads left to right.

    A walk to the left computes the numbers of a walk to the right on the
    reflected model: its breakpoints are ``x - step * k``, and widths and
    bounds are taken by magnitude.  Three rules set the next wave:

    * A wave that rejects its first cell hands its width to
      :func:`_halving_chain`, which settles the whole halving chain on the
      first cell of each candidate width, from the rejected width down, in
      one F call and one f call; the next full wave runs at the first
      narrower width whose first cell passes.
    * A wave that passes a prefix halves the width, unless the cell it
      failed at has an error at or under its evaluation floor: there
      narrower cells only sink deeper into rounding, so the width doubles
      (capped by ``h_cap``).  A wave that passes in full steps the width
      to ``_SAFETY / sqrt(headroom)`` times itself, within 1x to
      ``_MAX_GROWTH`` and capped by ``h_cap``, where ``headroom`` is its
      largest error over bound: the midpoint rule's error over bound grows
      as the width squared, so this aims the next wave's worst cell at 0.81
      of its bound.
    * A wave proposes ``cells`` cells, spread to end at stop when
      ``cells + 1`` of them reach it.  The gap's first width search cuts the
      proposal to ``_FIRST_WAVE`` cells, so a walk that starts at a settled
      tiny width does not lay out ``_WAVE`` cells of it; every wave that
      accepts cells grows the proposal back toward ``_WAVE``, 2x after a
      prefix and 4x after a full pass.

    The accepted cells, the rejected errors and the errors raised are those
    of evaluating every wave in full, with two exceptions.  A halving wave
    no longer evaluates its later cells, so F or f non-finite only there
    raises ``EvaluationError`` from a later wave, or not at all when the
    width search fails first.  And F and f are evaluated at the first cell
    of every candidate down to ``min_width``, also those narrower than the
    width the search settles or fails at, so F or f non-finite off E at
    such a point raises ``EvaluationError`` where full waves never evaluated
    it.
    """
    d = 1.0 if stop > start else -1.0
    x = start
    w = min(h_cap, abs(stop - start))
    cells = _WAVE
    searched = False
    while d * (stop - x) > 0:
        w = min(w, abs(stop - x))
        layout = _wave_layout(x, stop, w, cells)
        n_cells = layout[0]
        positions = _wave_positions(x, stop, layout)
        if w < _RISE * max(abs(x), abs(stop)):
            # no rejected error is pending here: right after a chain this
            # repeats the check the chain passed on the same layout
            _check_rising(positions, d, w, ())
        F_pos, tags, f_tags, widths, f_widths, errs = _straddle_errors(model, positions)
        bounds = (eps * d) * widths
        ok = errs <= bounds
        n_pass = int(ok.argmin())
        if ok[n_pass]:
            n_pass = n_cells
        if n_pass == 0:
            if not searched:
                searched, cells = True, _FIRST_WAVE
            w = _halving_chain(model, x, stop, w, eps, min_width, cells)
            continue
        counter.add(n_pass, float(x))
        if d > 0:
            yield (positions[: n_pass + 1], f_tags[:n_pass], F_pos[: n_pass + 1],
                   f_widths[:n_pass])
        else:
            # the ascending cells' widths are the walk's negated, exactly
            yield (positions[n_pass::-1], f_tags[n_pass - 1::-1], F_pos[n_pass::-1],
                   np.negative(f_widths[n_pass - 1::-1]))
        x = float(positions[n_pass])
        if n_pass < n_cells:
            cells = min(2 * cells, _WAVE)
            if errs[n_pass] <= _eval_floor(F_pos[n_pass], F_pos[n_pass + 1],
                                           f_tags[n_pass], tags[n_pass]):
                w = min(w * 2.0, h_cap)
            else:
                w *= 0.5
        else:
            cells = min(4 * cells, _WAVE)
            headroom = float((errs / bounds).max())
            growth = _SAFETY / math.sqrt(headroom) if headroom > 0 else _MAX_GROWTH
            w = min(h_cap, w * min(_MAX_GROWTH, max(1.0, growth)))


def _straddle_runs(model, span, r, eps, limits, h) -> Iterator[tuple]:
    """The items of :func:`straddle_chunks`, each run of cells with its
    Riemann parts f(t) * width appended: ``("cells", positions, f_tags,
    F_positions, f_widths)``.  ``np.add.reduce(f_widths)`` is bit for bit
    the sum of ``f_tags * np.diff(positions)``."""
    span = span or model.span
    if not eps > 0:
        raise ValueError("straddle tolerance must be positive")
    limits = limits or BuildLimits()
    anchors = anchor_cells(span, model.E, r)
    counter = _Counter(limits.max_pairs)
    h_cap = h if h is not None else span.length
    if not h_cap > 0:
        raise ValueError("mesh cap must be positive")
    min_width = limits.min_width(span.length)
    for item in _gaps(span, anchors):
        if item[0] == "anchor":
            counter.add(1, item[1])
            yield item
        else:
            _, g0, g1 = item
            # anchor cells lie inside the span: a gap from span.lo has no
            # anchor on its left, and one ending short of span.hi has one on
            # its right, which it walks away from
            if g0 == span.lo and g1 < span.hi:
                g0, g1 = g1, g0
            try:
                for chunk in _gap_waves(model, g0, g1, eps, counter, h_cap, min_width):
                    yield ("cells",) + chunk
            except StraddleFailure as exc:
                exc.pairs_built = counter.pairs
                raise


def straddle_chunks(
    model: SingularFunctionModel,
    span: Interval | None = None,
    r: float = 0.05,
    eps: float = 1e-3,
    limits: BuildLimits | None = None,
    h: float | None = None,
) -> Iterator[tuple]:
    """Stream a straddle-verified anchored partition in walk order.

    Yields ``("cells", positions, f_tags, F_positions)`` for off-anchor runs
    and ``("anchor", lo, hi, e)`` for anchor cells.  Gaps and anchors come
    in span order.  A gap that touches an anchor cell only at its right end
    is walked right to left, away from the anchor, so every gap next to a
    point of E starts at that point; its runs come right to left, each one
    ascending.  Consumers either materialize the cells or fold them into
    running sums; streaming keeps memory flat for multi-million-pair builds.
    """
    for item in _straddle_runs(model, span, r, eps, limits, h):
        yield item[:4]


def build_straddle_verified(
    model: SingularFunctionModel,
    span: Interval | None = None,
    r: float = 0.05,
    eps: float = 1e-3,
    limits: BuildLimits | None = None,
    h: float | None = None,
) -> TaggedPartition:
    """Materialized form of :func:`straddle_chunks`, its runs sorted into
    span order.

    Every exceptional point tags the cell [e-r, e+r]; every other cell is
    tagged at its midpoint, bit for bit the point f was evaluated at, and
    passes the straddle inequality individually, so the per-pair error sum is
    bounded by eps times the span length.  Raises ``FloorReached`` when the
    width search runs into floating-point rounding, ``StraddleFailure`` when
    it bottoms out on a real mismatch (wrong derivative or undeclared jump)
    and ``BudgetExceeded`` when the pair cap is passed.
    """
    span = span or model.span
    chunks = [_chunk_arrays(item) for item in straddle_chunks(model, span, r, eps, limits, h)]
    # runs in span order hand TaggedPartition presorted input, which it
    # takes without sorting
    chunks.sort(key=lambda chunk: chunk[0][0])
    return _materialize(span, chunks)


# ---------------------------------------------------------------------------
# Cousin bisection
# ---------------------------------------------------------------------------

def build_cousin(
    span: Interval,
    gauge: Gauge,
    tag_policy: str = "midpoint",
    seed: int = 0,
    limits: BuildLimits | None = None,
) -> TaggedPartition:
    """Bisect until every piece strictly fits a candidate tag's gauge ball.

    Candidate tags are tried in order: the policy's pick (left endpoint,
    midpoint, or a seeded-random point), then midpoint, left, right.  A piece
    whose width falls below the minimum relative width raises
    ``BudgetExceeded`` -- the gauge is effectively zero at floating point.

    The open pieces form a frontier sorted by left endpoint.  Each step takes
    its leftmost ``_WAVE`` pieces, makes one ``gauge.at`` call per candidate
    on the pieces still open, and puts the halves of the rejected pieces back
    in front.  A piece's fate does not depend on the order, so the partition
    is the one a left-to-right depth-first walk builds, and so is the error:
    the leftmost failure (a piece under the minimum width or past bisection,
    or the (cap+1)-th pair) is raised once every piece to its left is
    settled.  The random policy draws one tag per piece in frontier order.
    """
    if tag_policy not in ("left", "midpoint", "random"):
        raise ValueError(f"unknown tag policy {tag_policy!r}")
    limits = limits or BuildLimits()
    cap = limits.max_pairs
    rng = random.Random(seed)
    min_width = limits.min_width(span.length)

    chunks = []      # accepted (los, his, tags), all left of the failure
    pairs = 0
    failure = None   # (position, message or None for the pair cap), leftmost so far
    fu = np.array([span.lo], dtype=float)
    fv = np.array([span.hi], dtype=float)
    while len(fu):
        u, v, fu, fv = fu[:_WAVE], fv[:_WAVE], fu[_WAVE:], fv[_WAVE:]
        mid = 0.5 * (u + v)
        if tag_policy == "left":
            candidates = (u, mid, v)
        elif tag_policy == "midpoint":
            candidates = (mid, u, v)
        else:
            draws = np.array([rng.random() for _ in range(len(u))])
            candidates = (u + (v - u) * draws, mid, u, v)
        narrow = v - u < min_width
        tags = np.empty(len(u))
        done = ~narrow
        rejected = np.flatnonzero(done)
        for x in candidates:
            if not len(rejected):
                break
            xs = x[rejected]
            delta = gauge.at(xs)
            fits = (delta > 0) & (xs - delta < u[rejected]) & (v[rejected] < xs + delta)
            tags[rejected[fits]] = xs[fits]
            rejected = rejected[~fits]
        done[rejected] = False
        chunks.append((u[done], v[done], tags[done]))
        pairs += len(chunks[-1][0])
        ru, rm, rv = u[rejected], mid[rejected], v[rejected]
        fu = np.concatenate([np.stack((ru, rm), axis=1).ravel(), fu])
        fv = np.concatenate([np.stack((rm, rv), axis=1).ravel(), fv])

        event = None
        stuck = np.zeros(len(u), dtype=bool)
        stuck[rejected[~((ru < rm) & (rm < rv))]] = True
        if (narrow | stuck).any():
            i = int(np.argmax(narrow | stuck))
            u_i, v_i = float(u[i]), float(v[i])
            if narrow[i]:
                event = (u_i, f"bisection width {v_i - u_i:.3e} below minimum "
                              f"{min_width:.3e}; gauge is effectively zero here")
            else:
                event = (u_i, f"cannot bisect [{u_i!r}, {v_i!r}] further at floating point")
        if pairs > cap:
            position = float(np.partition(np.concatenate([c[0] for c in chunks]), cap)[cap])
            if event is None or position < event[0]:
                event = (position, None)
        if event is not None:
            # the new failure lies left of the old one; drop what lies right of it
            failure = event
            accepted = [np.concatenate(parts) for parts in zip(*chunks)]
            left = accepted[0] < event[0]
            chunks = [tuple(a[left] for a in accepted)]
            pairs = len(chunks[0][0])
            keep = int(np.searchsorted(fu, event[0]))
            fu, fv = fu[:keep], fv[:keep]
    if failure is not None:
        position, message = failure
        if message is None:
            message, pairs = f"bisection passed {cap + 1} pairs (cap {cap})", cap + 1
        raise BudgetExceeded(message, pairs_built=pairs, position=position)
    return _materialize(span, chunks)
