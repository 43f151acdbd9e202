"""Geometric core: intervals, tagged partitions, gauges, delta-fineness.

A tagged partition is a contiguous chain of closed subintervals covering a
span, each carrying a tag point inside it.  Partitions are stored as parallel
``lo``/``hi``/``tag`` arrays so that million-pair partitions stay cheap.

Contiguity is checked with exact binary64 equality: builders are required to
reuse the shared endpoint value instead of recomputing it, which keeps the
core free of tolerance plumbing.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence, Tuple

import numpy as np

from .errors import AnchorOverlapError

# narrowest anchor cell, relative to max(1, |e|): eight machine epsilons
_ANCHOR_FLOOR = 8 * sys.float_info.epsilon

_CSV_HEADER = "lo,hi,tag,in_exceptional\n"
# rows per block of the CSV dump: bounds the row strings held at once
_CSV_BLOCK = 4096


@dataclass(frozen=True)
class Interval:
    """Non-degenerate compact interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"interval endpoints must be finite: [{self.lo}, {self.hi}]")
        if not self.lo < self.hi:
            raise ValueError(f"degenerate interval rejected: [{self.lo}, {self.hi}]")
        if not math.isfinite(float(self.hi) - float(self.lo)):  # no numpy overflow warning
            raise ValueError(f"interval length overflows: [{self.lo}, {self.hi}]")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


class TaggedPartition:
    """Ordered contiguous cover of a span by tagged closed intervals.

    Construction sorts pairs by left endpoint, stably, and keeps
    read-only copies of the arrays; it does not validate.  Use
    :func:`validate` to check the partition laws.  Each side of a
    :func:`restrict` is a partition of the same span that need not cover
    it; :func:`validate` reports the gaps.
    """

    __slots__ = ("los", "his", "tags", "span")

    def __init__(self, los, his, tags, span: Interval):
        los = np.asarray(los, dtype=float)
        his = np.asarray(his, dtype=float)
        tags = np.asarray(tags, dtype=float)
        if not (los.shape == his.shape == tags.shape) or los.ndim != 1:
            raise ValueError("los, his, tags must be 1-d arrays of equal length")
        # builders hand over ordered pairs; a NaN fails the check and sorts
        if (los[:-1] <= los[1:]).all():
            los, his, tags = los.copy(), his.copy(), tags.copy()
        else:
            order = np.argsort(los, kind="stable")
            los, his, tags = los[order], his[order], tags[order]
        for arr in (los, his, tags):
            arr.setflags(write=False)
        self.los = los
        self.his = his
        self.tags = tags
        self.span = span

    def __len__(self) -> int:
        return len(self.los)

    @property
    def widths(self) -> np.ndarray:
        return self.his - self.los


@dataclass(frozen=True)
class Violation:
    index: int
    rule: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: Tuple[Violation, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def validate(partition: TaggedPartition, span: Interval) -> ValidationReport:
    """Check the partition laws against a span.

    Violations are data, not failures: each names the offending pair index
    and the rule it breaks.
    """
    v: list[Violation] = []
    n = len(partition)
    if n == 0:
        return ValidationReport(False, (Violation(-1, "count", "partition has no pairs"),))

    los, his, tags = partition.los, partition.his, partition.tags

    bad_width = np.nonzero(~(los < his))[0]
    for i in bad_width:
        v.append(Violation(int(i), "positive_width",
                           f"[{float(los[i])!r}, {float(his[i])!r}] is degenerate"))

    bad_tag = np.nonzero(~((los <= tags) & (tags <= his)))[0]
    for i in bad_tag:
        v.append(
            Violation(int(i), "tag_in_interval",
                      f"tag {float(tags[i])!r} outside [{float(los[i])!r}, {float(his[i])!r}]")
        )

    if los[0] != span.lo:
        v.append(Violation(0, "span_start",
                           f"first pair starts at {float(los[0])!r}, span at {float(span.lo)!r}"))
    if his[-1] != span.hi:
        v.append(
            Violation(n - 1, "span_end",
                      f"last pair ends at {float(his[-1])!r}, span at {float(span.hi)!r}")
        )

    if n > 1:
        gaps = np.nonzero(his[:-1] != los[1:])[0]
        for i in gaps.tolist():
            end, start = float(his[i]), float(los[i + 1])
            # unordered ends: one of them is NaN
            kind = "gap" if end < start else "overlap" if end > start else "NaN endpoint"
            v.append(Violation(i, "contiguity", f"{kind} between pair {i} (ends {end!r}) "
                                                f"and pair {i + 1} (starts {start!r})"))

    return ValidationReport(ok=not v, violations=tuple(v))


def anchor_grid(
    span: Interval, points: Sequence[float], radii: Iterable[float]
) -> Tuple[list, AnchorOverlapError | None]:
    """The anchor cells of each radius of ``radii`` in turn, up to the first
    radius whose cells break the anchor rule: ``(rows, breach)``.

    ``rows[k]`` holds the cells ``(lo, hi, e)`` of the k-th radius in point
    order; ``breach`` is the ``AnchorOverlapError`` naming the first breach
    of the radius after the last row, or None when every radius keeps the
    rule.  With at least one point, ``radii`` may be endless: the cells of a
    shrinking radius fall under the floor.  :func:`anchor_cells` states the
    rule.  One pass over the cells, in plain floats: on the few points of an
    exceptional set a numpy pass costs more per radius than it saves.
    """
    a, b = span.lo, span.hi
    pts = tuple(points)
    last = len(pts) - 1
    floors = [_ANCHOR_FLOOR * max(1.0, abs(e)) for e in pts]
    rows = []
    for r in radii:
        if not r > 0:
            raise ValueError("anchor radius must be positive")
        cells = []
        for i, e in enumerate(pts):
            lo = e if e == a else e - r
            hi = e if e == b else e + r
            if not hi - lo >= floors[i]:
                breach = "is narrower than the floating-point floor"
            elif lo < a or hi > b:
                breach = f"leaves the span [{a!r}, {b!r}]"
            elif (i > 0 and pts[i - 1] >= lo) or (i < last and pts[i + 1] <= hi):
                breach = "holds another exceptional point"
            elif cells and cells[-1][1] > lo:
                breach = f"overlaps the cell around {cells[-1][2]!r}"
            else:
                cells.append((lo, hi, e))
                continue
            return rows, AnchorOverlapError(f"anchor cell [{lo!r}, {hi!r}] around {e!r} {breach}")
        rows.append(cells)
    return rows, None


def anchor_cells(
    span: Interval, points: Sequence[float], r: float
) -> list[tuple[float, float, float]]:
    """The anchor cells ``(lo, hi, e)``, one per point, in point order.

    Each cell is ``[e - r, e + r]``, one-sided at a point that sits on a
    span endpoint.  ``points`` must be strictly increasing, as an
    ``ExceptionalSet`` holds them.  One rule, checked cell by cell, raises
    ``AnchorOverlapError`` naming the first breach: the width is at least
    8 ulp * max(1, |e|), the cell lies inside the closed span, it holds no
    other point, and it does not overlap the previous cell (touching is
    allowed).  This is the one-radius case of :func:`anchor_grid`.
    """
    rows, breach = anchor_grid(span, points, (r,))
    if breach is not None:
        raise breach
    return rows[0]


def restrict(
    partition: TaggedPartition, points: Iterable[float]
) -> Tuple[TaggedPartition, TaggedPartition]:
    """Split pairs by tag membership in ``points`` (exact float equality,
    decided by :func:`restriction_mask`).

    Returns ``(on, off)``, two partitions of the same span preserving
    partition order; together they are the whole partition.
    """
    mask = restriction_mask(partition, points)
    los, his, tags = partition.los, partition.his, partition.tags
    return tuple(TaggedPartition(los[m], his[m], tags[m], partition.span)
                 for m in (mask, ~mask))


def restriction_mask(partition: TaggedPartition, points: Iterable[float]) -> np.ndarray:
    """Boolean mask over pairs whose tag lies in ``points``: the one
    membership rule, which :func:`restrict`, :func:`riemann_sum` and
    :func:`partition_to_csv` share."""
    mask = np.zeros(len(partition), dtype=bool)
    for p in points:
        mask |= partition.tags == float(p)
    return mask


@dataclass(frozen=True)
class Gauge:
    """Positive width function delta(x) with an optional vectorized form.

    Positivity over the whole span cannot be verified for a black-box
    evaluator; it is checked pointwise where the gauge is used.  A gauge that
    evaluates to an effectively-zero width surfaces as ``BudgetExceeded``
    in the bisection builder rather than as a construction-time error.

    ``at`` evaluates a gauge by its vectorized ``widths`` when it has one,
    and a black-box gauge one point at a time.

    ``anchors`` are the sorted points the gauge singles out; the Cousin
    builder starts its bisection from the span cut at those strictly inside
    it.  A black-box gauge has none.
    """

    evaluator: Callable[[float], float]
    widths: Callable[[np.ndarray], np.ndarray] | None = None
    anchors: tuple[float, ...] = ()

    def __call__(self, x: float) -> float:
        return float(self.evaluator(x))

    def at(self, xs) -> np.ndarray:
        if self.widths is not None:
            return self.widths(xs)
        return np.array([self.evaluator(float(x)) for x in xs], dtype=float)


def anchored_gauge(mesh: float, anchor_radii: Mapping[float, float] | None = None,
                   isolating: bool = True) -> Gauge:
    """Standard gauge: 2*mesh off the anchors, 2*r at each anchor point.

    With ``isolating`` set, the width near (but not at) an anchor point e is
    pinched to the distance from e, which forces every fine partition to tag
    e at e itself -- the usual gauge argument for exceptional points.  One
    vectorized formula serves ``gauge(x)`` and ``gauge.at(xs)``, so the two
    agree bit for bit.  The anchor points are recorded, sorted, as the
    gauge's ``anchors``, where the Cousin builder cuts the span.
    """
    if not mesh > 0:
        raise ValueError("gauge mesh must be positive")
    radii = dict(anchor_radii or {})
    for e, r in radii.items():
        if not r > 0:
            raise ValueError(f"anchor radius at {e} must be positive")

    def widths(xs) -> np.ndarray:
        # exact float equality picks an anchor point; fmin keeps 2*mesh at a
        # NaN distance
        xs = np.asarray(xs, dtype=float)
        out = np.full(xs.shape, 2.0 * mesh)
        if isolating:
            for e in radii:
                np.fmin(out, np.abs(xs - e), out=out)
        for e, r in radii.items():
            out[xs == e] = 2.0 * r
        return out

    return Gauge(evaluator=lambda x: widths([x])[0], widths=widths,
                 anchors=tuple(sorted(map(float, radii))))


def is_fine(partition: TaggedPartition, gauge: Gauge) -> bool:
    """True iff every pair lies strictly inside the open ball of radius
    delta(tag) around its tag (strict containment at both ends)."""
    deltas = gauge.at(partition.tags)
    return bool(
        np.all(partition.tags - deltas < partition.los)
        and np.all(partition.his < partition.tags + deltas)
    )


def partition_to_csv(
    partition: TaggedPartition, exceptional: Iterable[float] = ()
) -> str:
    """Render the partition dump: header ``lo,hi,tag,in_exceptional``, then
    one row per pair in span order, each value a ``%.17g`` decimal.

    A valid partition's pairs share their endpoints bit for bit, so each
    block of rows formats a shared endpoint once, as the next pair's left
    end, and formats a right end again only where its bits differ from that
    left end: a gap, an overlap, or -0.0 against 0.0.
    """
    fmt = "%.17g".__mod__
    los, his, tags = partition.los, partition.his, partition.tags
    mask = restriction_mask(partition, exceptional)
    flags = (mask.view(np.uint8) + ord("0")).tobytes().decode()  # "0" or "1" per pair
    blocks = [_CSV_HEADER]
    for start in range(0, len(los), _CSV_BLOCK):
        stop = start + _CSV_BLOCK
        lo, hi = los[start:stop], his[start:stop]
        # the block's left ends and its last right end; ends[1:] are the
        # right ends where they share the next left end's bits
        ends = list(map(fmt, lo.tolist() + [float(hi[-1])]))
        hi_s = ends[1:]
        for i in np.flatnonzero(lo[1:].view(np.uint64) != hi[:-1].view(np.uint64)).tolist():
            hi_s[i] = fmt(float(hi[i]))
        rows = zip(ends, hi_s, map(fmt, tags[start:stop].tolist()), flags[start:stop])
        blocks.append("\n".join(map(",".join, rows)) + "\n")
    return "".join(blocks)
