"""Geometric core: intervals, tagged partitions, gauges, delta-fineness.

A tagged partition is a contiguous chain of closed subintervals covering a
span, each carrying a tag point inside it.  Partitions are stored as parallel
``lo``/``hi``/``tag`` arrays so that million-pair partitions stay cheap;
``TaggedPair`` objects are materialized on demand.

Contiguity is checked with exact binary64 equality: builders are required to
reuse the shared endpoint value instead of recomputing it, which keeps the
core free of tolerance plumbing.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Tuple

import numpy as np

from .errors import AnchorOverlapError

# narrowest anchor cell, relative to max(1, |e|): eight machine epsilons
_ANCHOR_FLOOR = 8 * sys.float_info.epsilon


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

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


@dataclass(frozen=True)
class TaggedPair:
    """Interval plus its tag.  The tag rule (lo <= tag <= hi) is checked by
    :func:`validate`, not at construction, so that malformed partitions can be
    represented and reported on."""

    interval: Interval
    tag: float

    @property
    def width(self) -> float:
        return self.interval.length


class TaggedPartition:
    """Ordered contiguous cover of a span by tagged closed intervals.

    Construction sorts pairs by left endpoint; it does not validate.  Use
    :func:`validate` to check the partition laws.
    """

    __slots__ = ("los", "his", "tags", "span")

    def __init__(self, los, his, tags, span: Interval):
        los = np.asarray(los, dtype=float)
        his = np.asarray(his, dtype=float)
        tags = np.asarray(tags, dtype=float)
        if not (los.shape == his.shape == tags.shape) or los.ndim != 1:
            raise ValueError("los, his, tags must be 1-d arrays of equal length")
        order = np.argsort(los, kind="stable")
        los = los[order].copy()
        his = his[order].copy()
        tags = tags[order].copy()
        for arr in (los, his, tags):
            arr.setflags(write=False)
        self.los = los
        self.his = his
        self.tags = tags
        self.span = span

    @classmethod
    def from_pairs(cls, pairs: Iterable[TaggedPair], span: Interval) -> "TaggedPartition":
        pairs = list(pairs)
        los = [p.interval.lo for p in pairs]
        his = [p.interval.hi for p in pairs]
        tags = [p.tag for p in pairs]
        return cls(los, his, tags, span)

    def __len__(self) -> int:
        return len(self.los)

    def __getitem__(self, i: int) -> TaggedPair:
        return TaggedPair(Interval(float(self.los[i]), float(self.his[i])), float(self.tags[i]))

    def __iter__(self) -> Iterator[TaggedPair]:
        for i in range(len(self)):
            yield self[i]

    @property
    def widths(self) -> np.ndarray:
        return self.his - self.los

    def pairs(self) -> Tuple[TaggedPair, ...]:
        return tuple(self)


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
        v.append(Violation(int(i), "positive_width", f"[{los[i]!r}, {his[i]!r}] is degenerate"))

    bad_tag = np.nonzero(~((los <= tags) & (tags <= his)))[0]
    for i in bad_tag:
        v.append(
            Violation(int(i), "tag_in_interval", f"tag {tags[i]!r} outside [{los[i]!r}, {his[i]!r}]")
        )

    if los[0] != span.lo:
        v.append(Violation(0, "span_start", f"first pair starts at {los[0]!r}, span at {span.lo!r}"))
    if his[-1] != span.hi:
        v.append(
            Violation(n - 1, "span_end", f"last pair ends at {his[-1]!r}, span at {span.hi!r}")
        )

    if n > 1:
        gaps = np.nonzero(his[:-1] != los[1:])[0]
        for i in gaps:
            kind = "gap" if his[i] < los[i + 1] else "overlap"
            v.append(
                Violation(
                    int(i),
                    "contiguity",
                    f"{kind} between pair {int(i)} (ends {his[i]!r}) and pair {int(i) + 1} (starts {los[i + 1]!r})",
                )
            )

    return ValidationReport(ok=not v, violations=tuple(v))


def anchor_cells(
    span: Interval, points: Sequence[float], r: float, r_right: float | None = None
) -> list[tuple[float, float, float]]:
    """The anchor cells ``(lo, hi, e)``, one per point, in point order.

    Each cell is ``[e - r, e + r_right]`` (``r_right`` defaults to ``r``),
    one-sided at a point that sits on a span endpoint.  ``points`` must be
    strictly increasing, as an ``ExceptionalSet`` holds them.  One rule,
    checked cell by cell, raises ``AnchorOverlapError`` naming the first
    breach: the width is at least 8 ulp * max(1, |e|), the cell lies inside
    the closed span, it holds no other point, and it does not overlap the
    previous cell (touching is allowed).
    """
    if r_right is None:
        r_right = r
    if not (r > 0 and r_right > 0):
        raise ValueError("anchor radius must be positive")
    a, b = span.lo, span.hi
    pts = tuple(points)
    last = len(pts) - 1
    cells = []
    for i, e in enumerate(pts):
        lo = e if e == a else e - r
        hi = e if e == b else e + r_right
        if not hi - lo >= _ANCHOR_FLOOR * max(1.0, abs(e)):
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
        raise AnchorOverlapError(f"anchor cell [{lo!r}, {hi!r}] around {e!r} {breach}")
    return cells


def restrict(
    partition: TaggedPartition, points: Iterable[float]
) -> Tuple[Tuple[TaggedPair, ...], Tuple[TaggedPair, ...]]:
    """Split pairs by tag membership in ``points`` (exact float equality).

    Returns ``(on, off)`` preserving partition order; together they are the
    whole partition.
    """
    pts = frozenset(float(p) for p in points)
    on: list[TaggedPair] = []
    off: list[TaggedPair] = []
    for pair in partition:
        (on if pair.tag in pts else off).append(pair)
    return tuple(on), tuple(off)


def restriction_mask(partition: TaggedPartition, points: Iterable[float]) -> np.ndarray:
    """Boolean mask over pairs whose tag lies in ``points`` (array form of
    :func:`restrict` for bulk partitions)."""
    mask = np.zeros(len(partition), dtype=bool)
    for p in points:
        mask |= partition.tags == float(p)
    return mask


@dataclass(frozen=True)
class GaugeDescriptor:
    """Structured parameters for the standard anchored gauge family."""

    mesh: float
    anchor_radii: Mapping[float, float] = field(default_factory=dict)
    isolating: bool = True

    def __post_init__(self):
        if not self.mesh > 0:
            raise ValueError("gauge mesh must be positive")
        for e, r in self.anchor_radii.items():
            if not r > 0:
                raise ValueError(f"anchor radius at {e} must be positive")


@dataclass(frozen=True)
class Gauge:
    """Positive width function delta(x) with optional structured descriptor.

    Positivity over the whole span cannot be verified for a black-box
    evaluator; it is checked pointwise where the gauge is used.  A gauge that
    evaluates to an effectively-zero width surfaces as ``BudgetExceeded``
    in the bisection builder rather than as a construction-time error.
    """

    evaluator: Callable[[float], float]
    descriptor: GaugeDescriptor | None = None

    def __call__(self, x: float) -> float:
        return float(self.evaluator(x))

    def at(self, xs: np.ndarray) -> np.ndarray:
        return np.array([self.evaluator(float(x)) for x in xs], dtype=float)


def anchored_gauge(mesh: float, anchor_radii: Mapping[float, float] | None = None,
                   isolating: bool = True) -> Gauge:
    """Standard gauge: 2*mesh off the anchors, 2*r at each anchor point.

    With ``isolating`` set, the width near (but not at) an anchor point e is
    pinched to the distance from e, which forces every fine partition to tag
    e at e itself -- the usual gauge argument for exceptional points.
    """
    desc = GaugeDescriptor(mesh=mesh, anchor_radii=dict(anchor_radii or {}), isolating=isolating)
    anchors = sorted(desc.anchor_radii)

    def evaluate(x: float) -> float:
        radius = desc.anchor_radii.get(x)
        if radius is not None:
            return 2.0 * radius
        width = 2.0 * desc.mesh
        if desc.isolating and anchors:
            width = min(width, min(abs(x - e) for e in anchors))
        return width

    return Gauge(evaluator=evaluate, descriptor=desc)


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
    """Render the partition dump: one row per pair, 17-significant-digit
    decimals, header ``lo,hi,tag,in_exceptional``."""
    rows = zip(partition.los.tolist(), partition.his.tolist(), partition.tags.tolist(),
               restriction_mask(partition, exceptional).tolist())
    lines = ["lo,hi,tag,in_exceptional"]
    lines.extend("%.17g,%.17g,%.17g,%d" % row for row in rows)
    return "\n".join(lines) + "\n"
