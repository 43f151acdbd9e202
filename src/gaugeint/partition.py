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
# rows per block of the CSV dump: bounds the bytes held at once.  A block's
# ends and tags go through one _format_g17 call, which writes the bytes that
# '%.17g' % writes; it formats zero, |x| < 1e-4, |x| >= 1e17, non-finite
# values and blocks of fewer than _FIXED_MIN_VALUES values one value at a
# time with '%.17g' % itself
_CSV_BLOCK = 4096
# below this many values numpy's per-call cost in _fixed_notation outweighs
# formatting each value with '%.17g' % (they cross at 150-200 values)
_FIXED_MIN_VALUES = 64

# Dekker's exact product v * 10**k: the doubles 10**k, k = 0..21, all exact,
# and the upper half of Veltkamp's split of each (2**27 + 1 splits a double
# into two halves of at most 26 bits)
_SPLITTER = 134217729.0
_POW10 = np.array([float(10 ** k) for k in range(22)])
_POW10_HI = _SPLITTER * _POW10 - (_SPLITTER * _POW10 - _POW10)


def _digit_groups() -> np.ndarray:
    """The ASCII bytes of "0000" .. "9999", one uint32 per group, then the
    same groups with their trailing zeros turned to NUL bytes."""
    # int16 keeps the import's peak memory down
    groups = np.arange(10000, dtype=np.int16)[:, None]
    powers = np.array([10000, 1000, 100, 10, 1], dtype=np.int16)
    ascii_ = (groups % powers[:-1] // powers[1:] + ord("0")).astype(np.uint8)
    stripped = ascii_ * (groups % powers[:-1] != 0)
    return np.concatenate((ascii_, stripped)).view(np.uint32).ravel()


_DIGITS4 = _digit_groups()


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
        self._adopt(*(np.array(a, dtype=float) for a in (los, his, tags)), span)

    @classmethod
    def _owning(cls, los, his, tags, span: Interval) -> TaggedPartition:
        """A partition that takes ownership of ``los``, ``his`` and ``tags``,
        fresh float arrays nothing else holds, instead of copying them."""
        part = cls.__new__(cls)
        part._adopt(los, his, tags, span)
        return part

    def _adopt(self, los, his, tags, span):
        if not (los.shape == his.shape == tags.shape) or los.ndim != 1:
            raise ValueError("los, his, tags must be 1-d arrays of equal length")
        # builders hand over ordered pairs; a NaN fails the check and sorts
        if not (los[:-1] <= los[1:]).all():
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


def first_anchor_radius(span: Interval, points: Sequence[float] = ()) -> float:
    """The anchor radius the refinement schedules start from: 5% of the span,
    at most a third of the smallest gap between the span's ends and
    ``points``, so that the first anchor cells keep the rule of
    :func:`anchor_cells` and two neighbouring cells never meet: at half the
    gap their rounded ends can leave a one-ulp sliver between them, which no
    straddle cell can cover."""
    walls = sorted({span.lo, span.hi, *map(float, points)})
    min_gap = min(b - a for a, b in zip(walls, walls[1:]))
    return min(0.05 * span.length, min_gap / 3)


def anchor_grid(
    span: Interval, points: Sequence[float], radii: Iterable[float]
) -> Tuple[list, AnchorOverlapError | None]:
    """The anchor cells of each radius of ``radii`` in turn, up to the first
    radius whose cells break the anchor rule: ``(rows, breach)``.

    ``rows[k]`` holds the cells ``(lo, hi, e)`` of the k-th radius in point
    order; ``breach`` is the ``AnchorOverlapError`` naming the first breach
    of the radius after the last row, or None when every radius keeps the
    rule.  :func:`anchor_cells` states the rule.  One pass over the cells,
    in plain floats: on the few points of an exceptional set a numpy pass
    costs more per radius than it saves.
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
    return tuple(TaggedPartition._owning(los[m], his[m], tags[m], partition.span)
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
    and a black-box gauge one point at a time, on Python floats.

    ``anchors`` are the points the gauge singles out, stored as sorted
    floats; a NaN anchor raises ``ValueError``.  The Cousin builder starts
    its bisection from the span cut at those strictly inside the span.  A
    black-box gauge has none.
    """

    evaluator: Callable[[float], float]
    widths: Callable[[np.ndarray], np.ndarray] | None = None
    anchors: tuple[float, ...] = ()

    def __post_init__(self):
        anchors = [float(e) for e in self.anchors]
        if any(math.isnan(e) for e in anchors):
            raise ValueError("gauge anchors must not be NaN")
        object.__setattr__(self, "anchors", tuple(sorted(anchors)))

    def __call__(self, x: float) -> float:
        return float(self.evaluator(x))

    def at(self, xs) -> np.ndarray:
        if self.widths is not None:
            return self.widths(xs)
        return np.array([self.evaluator(x) for x in np.asarray(xs, dtype=float).tolist()],
                        dtype=float)


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

    return Gauge(evaluator=lambda x: widths([x])[0], widths=widths, anchors=tuple(radii))


def is_fine(partition: TaggedPartition, gauge: Gauge) -> bool:
    """True iff every pair lies strictly inside the open ball of radius
    delta(tag) around its tag (strict containment at both ends)."""
    deltas = gauge.at(partition.tags)
    return bool(
        np.all(partition.tags - deltas < partition.los)
        and np.all(partition.his < partition.tags + deltas)
    )


def _scaled(v: np.ndarray, x: np.ndarray):
    """``(p, e, d)``: ``p + e`` is ``v * 10**(16 - x)`` exactly (Dekker's
    TwoProduct) and ``d`` is that product rounded half to even, as int64.

    At the right x, ``p`` lies within an ulp of [1e16, 1e17], where every
    double is an even integer, so ``p + rint(e)`` rounds the exact product
    half to even."""
    b, b_hi = _POW10[16 - x], _POW10_HI[16 - x]
    b_lo = b - b_hi
    p = v * b
    v_hi = _SPLITTER * v
    v_hi -= v_hi - v
    v_lo = v - v_hi
    e = ((v_hi * b_hi - p) + v_hi * b_lo + v_lo * b_hi) + v_lo * b_lo
    return p, e, p.astype(np.int64) + np.rint(e).astype(np.int64)


def _format_g17(values: np.ndarray) -> np.ndarray:
    """Each value's ``'%.17g' %`` bytes as a row of a uint8 array, with NUL
    bytes, anywhere in the row, as padding.

    A finite |value| in [1e-4, 1e17) prints in fixed notation, which
    :func:`_fixed_notation` writes for a whole array at once.  Every other
    value, and every value of an array shorter than ``_FIXED_MIN_VALUES``,
    takes the per-value ``'%.17g' %``.
    """
    mag = np.abs(values)
    fast = (mag >= 1e-4) & (mag < 1e17)
    if len(values) < _FIXED_MIN_VALUES:
        fast[:] = False
    slow = np.flatnonzero(~fast)
    slow_text = ["%.17g" % t for t in values[slow].tolist()]
    if len(slow) < len(values):
        # the other rows are laid out as 1.0, which makes the rows at least
        # 24 bytes wide, as wide as the longest '%.17g' form; then overwritten
        out = _fixed_notation(values, np.where(fast, mag, 1.0))
    else:
        out = np.zeros((len(values), max(map(len, slow_text), default=0)), dtype=np.uint8)
    if slow_text:
        width = out.shape[1]
        padded = "".join(t.ljust(width, "\0") for t in slow_text).encode("ascii")
        out[slow] = np.frombuffer(padded, dtype=np.uint8).reshape(-1, width)
    return out


def _fixed_notation(values: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``'%.17g' % value`` for each of ``values`` with |value| = ``v`` in
    [1e-4, 1e17), as rows of uint8, NUL padded.

    The 17 digits are ``d = round(v * 10**(16 - x))`` of the decade x, the
    least x with d < 10**17, and the fraction's trailing zeros are dropped.
    """
    x = np.minimum(np.floor(np.log10(v)), 16).astype(np.int64)
    p, e, d = _scaled(v, x)
    # near a power of ten log10 can miss x by one: d reaches 10**17 (x too
    # small) or the exact product falls below 10**16 (x too large).  One
    # step mends it, as no double below a power of ten in this range rounds
    # up to it at 17 digits
    up = d >= 10 ** 17
    off = np.flatnonzero(up | ((p - 1e16) + e < 0))
    if len(off):
        x[off] += np.where(up[off], 1, -1)
        d[off] = _scaled(v[off], x[off])[2]
    # d's leading digit and four groups of four digits; a group reads the
    # stripped half of _DIGITS4 when every later group is zero
    groups = np.empty((len(d), 5), dtype=np.int64)
    hi = d // 10 ** 8
    lo = d - hi * 10 ** 8
    hi_4 = hi // 10 ** 4
    groups[:, 0] = hi_4 // 10 ** 4
    groups[:, 1] = hi_4 - groups[:, 0] * 10 ** 4
    groups[:, 2] = hi - hi_4 * 10 ** 4
    groups[:, 3] = lo // 10 ** 4
    groups[:, 4] = lo - groups[:, 3] * 10 ** 4 + 10000
    for j in (3, 2, 1):
        groups[:, j] += (groups[:, j + 1] == 10000) * 10000
    digits = _DIGITS4[groups].view(np.uint8)[:, 3:]
    # one layout for every x, so no row moves: the sign, "0." and up to three
    # zeros for x < 0, then d0 h1 d1 .. hk dk .. d16, where the hole h_j
    # holds the point when it follows digit j - 1 and a fraction digit
    # follows it; k = 1 + the largest x, at most 16
    x_max = int(x.max())
    k = min(max(x_max + 1, 0), 16)
    out = np.zeros((len(values), 23 + k), dtype=np.uint8)
    out[:, 0] = np.signbit(values) * np.uint8(ord("-"))
    out[:, 1] = (x < 0) * np.uint8(ord("0"))
    out[:, 2] = (x < 0) * np.uint8(ord("."))
    for i in (1, 2, 3):
        out[:, 2 + i] = (x < -i) * np.uint8(ord("0"))
    out[:, 6:6 + 2 * k:2] = digits[:, :k]
    out[:, 6 + 2 * k:23 + k] = digits[:, k:]
    for j in range(1, k + 1):
        if j <= x_max:  # an integer digit keeps its zeros
            out[:, 6 + 2 * j] |= (x >= j) * np.uint8(ord("0"))
        out[:, 5 + 2 * j] = ((x == j - 1) & (out[:, 6 + 2 * j] != 0)) * np.uint8(ord("."))
    return out


def partition_to_csv(
    partition: TaggedPartition, exceptional: Iterable[float] = ()
) -> str:
    """Render the partition dump: header ``lo,hi,tag,in_exceptional``, then
    one row per pair in span order, each value exactly the bytes of its
    ``'%.17g' %`` decimal.

    A valid partition's pairs share their endpoints bit for bit, so each
    block of rows formats a shared endpoint once, as the next pair's left
    end, and formats a right end again only where its bits differ from that
    left end: a gap, an overlap, or -0.0 against 0.0.  The block's values go
    through one :func:`_format_g17` call, whose per-value ``'%.17g' %``
    path takes zero, |x| < 1e-4, |x| >= 1e17, non-finite values and the
    values of a block too short to pay for numpy's per-call cost.
    """
    los, his, tags = partition.los, partition.his, partition.tags
    flags = restriction_mask(partition, exceptional).view(np.uint8) + np.uint8(ord("0"))
    blocks = [_CSV_HEADER]
    for start in range(0, len(los), _CSV_BLOCK):
        stop = start + _CSV_BLOCK
        lo, hi = los[start:stop], his[start:stop]
        n = len(lo)
        # the left ends, the last right end, the right ends whose bits
        # differ from the next left end, then the tags
        apart = np.flatnonzero(lo[1:].view(np.uint64) != hi[:-1].view(np.uint64))
        fields = _format_g17(np.concatenate((lo, hi[-1:], hi[apart], tags[start:stop])))
        hi_rows = np.arange(1, n + 1)
        hi_rows[apart] = np.arange(n + 1, n + 1 + len(apart))
        w = fields.shape[1]
        rows = np.empty((n, 3 * w + 5), dtype=np.uint8)
        rows[:, :w] = fields[:n]
        rows[:, w + 1:2 * w + 1] = fields.take(hi_rows, axis=0)
        rows[:, 2 * w + 2:3 * w + 2] = fields[n + 1 + len(apart):]
        rows[:, w:3 * w + 3:w + 1] = ord(",")
        rows[:, -2] = flags[start:stop]
        rows[:, -1] = ord("\n")
        blocks.append(rows.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(blocks)
