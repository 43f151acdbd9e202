import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugeint import (
    AnchorOverlapError,
    ExceptionalSet,
    Gauge,
    Interval,
    RefinementSchedule,
    SingularFunctionModel,
    TaggedPair,
    TaggedPartition,
    anchor_cells,
    anchored_gauge,
    basic_sum_sequence,
    build_anchored,
    build_cousin,
    build_straddle_verified,
    catalog,
    is_fine,
    partition_to_csv,
    restrict,
    validate,
)
from gaugeint.partition import _CSV_BLOCK, restriction_mask


def make_partition(cells, span):
    pairs = [TaggedPair(Interval(lo, hi), tag) for lo, hi, tag in cells]
    return TaggedPartition.from_pairs(pairs, span)


UNIT = Interval(0.0, 1.0)


class TestInterval:
    def test_length(self):
        assert Interval(-1.0, 2.0).length == 3.0

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Interval(0.5, 0.5)
        with pytest.raises(ValueError):
            Interval(1.0, 0.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Interval(0.0, float("inf"))


class TestValidate:
    def test_two_cell_cover_ok(self):
        part = make_partition([(0.0, 0.5, 0.0), (0.5, 1.0, 1.0)], UNIT)
        assert validate(part, UNIT).ok

    def test_gap_reported(self):
        part = make_partition([(0.0, 0.5, 0.0), (0.6, 1.0, 1.0)], UNIT)
        report = validate(part, UNIT)
        assert not report.ok
        assert any(v.rule == "contiguity" and "gap" in v.detail for v in report.violations)

    def test_overlap_reported(self):
        part = make_partition([(0.0, 0.6, 0.0), (0.5, 1.0, 1.0)], UNIT)
        report = validate(part, UNIT)
        assert any(v.rule == "contiguity" and "overlap" in v.detail for v in report.violations)

    def test_tag_outside_interval(self):
        part = make_partition([(0.0, 0.5, 0.7), (0.5, 1.0, 1.0)], UNIT)
        report = validate(part, UNIT)
        assert not report.ok
        assert any(v.rule == "tag_in_interval" and v.index == 0 for v in report.violations)

    def test_span_mismatch(self):
        part = make_partition([(0.1, 1.0, 0.5)], UNIT)
        report = validate(part, UNIT)
        assert any(v.rule == "span_start" for v in report.violations)

    def test_empty_partition(self):
        part = TaggedPartition([], [], [], UNIT)
        report = validate(part, UNIT)
        assert not report.ok
        assert report.violations[0].rule == "count"

    def test_construction_sorts_by_lo(self):
        part = make_partition([(0.5, 1.0, 0.5), (0.0, 0.5, 0.0)], UNIT)
        assert list(part.los) == [0.0, 0.5]
        assert validate(part, UNIT).ok

    def test_presorted_arrays_are_copied_read_only(self):
        los = np.array([0.0, 0.25, 0.25, 0.5])
        his = np.array([0.25, 0.25, 0.5, 1.0])
        tags = np.array([0.0, 0.25, 0.3, 0.7])
        part = TaggedPartition(los, his, tags, UNIT)
        for got, given in ((part.los, los), (part.his, his), (part.tags, tags)):
            assert np.array_equal(got, given)
            assert not got.flags.writeable
            assert not np.shares_memory(got, given)

    def test_tied_left_endpoints_keep_their_order(self):
        # unsorted input with ties is sorted stably: the degenerate pair
        # [0.5, 0.5] stays ahead of [0.5, 1]
        part = TaggedPartition([0.5, 0.5, 0.0], [0.5, 1.0, 0.5], [0.5, 0.75, 0.25], UNIT)
        assert list(part.los) == [0.0, 0.5, 0.5]
        assert list(part.his) == [0.5, 0.5, 1.0]
        assert list(part.tags) == [0.25, 0.5, 0.75]

    def test_nan_left_endpoint_is_sorted_last(self):
        part = TaggedPartition([np.nan, 0.0], [1.0, 0.5], [0.7, 0.2], UNIT)
        assert part.los[0] == 0.0 and np.isnan(part.los[1])
        assert list(part.tags) == [0.2, 0.7]

    def test_shared_tag_on_adjacent_cells_allowed(self):
        # both neighbours may be tagged at their common endpoint
        part = make_partition([(0.0, 0.5, 0.5), (0.5, 1.0, 0.5)], UNIT)
        assert validate(part, UNIT).ok

    def test_details_print_plain_floats(self):
        # every rule's message renders values as Python floats, so the text
        # is the same under every numpy version; NaN ends of a contiguity
        # break are neither a gap nor an overlap
        part = TaggedPartition([0.0, 0.75], [np.nan, 0.5], [0.5, 0.6], Interval(-1.0, 2.0))
        report = validate(part, Interval(-1.0, 2.0))
        assert [(v.index, v.rule, v.detail) for v in report.violations] == [
            (0, "positive_width", "[0.0, nan] is degenerate"),
            (1, "positive_width", "[0.75, 0.5] is degenerate"),
            (0, "tag_in_interval", "tag 0.5 outside [0.0, nan]"),
            (1, "tag_in_interval", "tag 0.6 outside [0.75, 0.5]"),
            (0, "span_start", "first pair starts at 0.0, span at -1.0"),
            (1, "span_end", "last pair ends at 0.5, span at 2.0"),
            (0, "contiguity",
             "NaN endpoint between pair 0 (ends nan) and pair 1 (starts 0.75)"),
        ]

    @pytest.mark.parametrize("his, kind", [
        ([0.4, 1.0], "gap between pair 0 (ends 0.4) and pair 1 (starts 0.5)"),
        ([0.6, 1.0], "overlap between pair 0 (ends 0.6) and pair 1 (starts 0.5)"),
    ])
    def test_contiguity_kinds(self, his, kind):
        part = TaggedPartition([0.0, 0.5], his, [0.2, 0.7], UNIT)
        assert [v.detail for v in validate(part, UNIT).violations] == [kind]


class TestRestrict:
    def setup_method(self):
        span = Interval(-1.0, 1.0)
        self.part = make_partition(
            [(-1.0, -0.2, -0.5), (-0.2, 0.2, 0.0), (0.2, 1.0, 0.5)], span
        )

    def test_single_point(self):
        on, off = restrict(self.part, {0.0})
        assert len(on) == 1 and on[0].tag == 0.0
        assert len(off) == 2

    def test_empty_points(self):
        on, off = restrict(self.part, set())
        assert on == ()
        assert len(off) == 3

    def test_all_tags(self):
        on, off = restrict(self.part, {-0.5, 0.0, 0.5})
        assert off == ()
        assert len(on) == 3

    def test_order_preserved_and_disjoint(self):
        on, off = restrict(self.part, {0.0, 0.5})
        tags = [p.tag for p in on] + [p.tag for p in off]
        assert sorted(tags) == [-0.5, 0.0, 0.5]
        assert [p.tag for p in on] == [0.0, 0.5]

    @pytest.mark.parametrize("points", [[-0.0], [0.0, 0.5], [float("nan")], [0.49999999999999994], [0.5]])
    def test_same_rule_as_mask(self, points):
        points = list(points)
        on, off = restrict(self.part, iter(points))
        mask = restriction_mask(self.part, points)
        assert [p.tag for p in on] == self.part.tags[mask].tolist()
        assert [p.tag for p in off] == self.part.tags[~mask].tolist()


class TestIsFine:
    def test_inside_open_ball(self):
        part = make_partition([(0.0, 0.1, 0.05)], Interval(0.0, 0.1))
        assert is_fine(part, Gauge(lambda x: 0.06))

    def test_boundary_not_fine(self):
        # hi < tag + delta must be strict: 0.1 < 0 + 0.1 fails
        part = make_partition([(0.0, 0.1, 0.0)], Interval(0.0, 0.1))
        assert not is_fine(part, Gauge(lambda x: 0.1))

    def test_huge_gauge(self):
        span = Interval(-1.0, 1.0)
        part = make_partition([(-1.0, 0.3, 0.0), (0.3, 1.0, 0.9)], span)
        assert is_fine(part, Gauge(lambda x: span.length + 1.0))

    @given(st.floats(min_value=0.01, max_value=0.2), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200)
    def test_monotone_in_gauge(self, base, bump):
        part = make_partition(
            [(0.0, 0.25, 0.1), (0.25, 0.6, 0.5), (0.6, 1.0, 0.8)], UNIT
        )
        small = Gauge(lambda x, b=base: b)
        large = Gauge(lambda x, b=base, extra=bump: b + extra)
        if is_fine(part, small):
            assert is_fine(part, large)


class TestAnchoredGauge:
    def test_values(self):
        gauge = anchored_gauge(mesh=0.25, anchor_radii={0.0: 0.1})
        assert gauge(0.0) == 0.2
        assert gauge(0.7) == 0.5

    def test_isolation_pinches_near_anchor(self):
        gauge = anchored_gauge(mesh=0.25, anchor_radii={0.0: 0.1}, isolating=True)
        assert gauge(0.01) == pytest.approx(0.01)
        plain = anchored_gauge(mesh=0.25, anchor_radii={0.0: 0.1}, isolating=False)
        assert plain(0.01) == 0.5


def anchored_reference(mesh, anchor_radii, isolating):
    """The anchored gauge formula one point at a time, in plain floats."""
    anchors = sorted(anchor_radii)

    def evaluate(x):
        radius = anchor_radii.get(x)
        if radius is not None:
            return 2.0 * radius
        width = 2.0 * mesh
        if isolating and anchors:
            width = min(width, min(abs(x - e) for e in anchors))
        return width

    return evaluate


class TestAnchoredGaugeAt:
    """``gauge.at(xs)`` is ``[gauge(x) for x in xs]`` bit for bit, and both
    agree with the one-point reference formula."""

    CASES = [
        (0.25, {}, True),
        (0.25, {0.0: 0.1}, True),
        (0.25, {0.0: 0.1}, False),
        (0.05, {-0.5: 0.01, 0.0: 0.02, 1.0 / 3.0: 0.003}, True),
        (0.05, {-0.5: 0.01, 0.0: 0.02, 1.0 / 3.0: 0.003}, False),
        (1e-4, {-1.0: 0.1, 2.5: 1e-9}, True),
    ]

    @staticmethod
    def points(anchors, seed):
        rng = np.random.default_rng(seed)
        pts = [0.0, -0.0, 1e300, -1e300, 1e-300, float("inf"), -float("inf"), float("nan")]
        for e in anchors:
            pts += [e, np.nextafter(e, np.inf), np.nextafter(e, -np.inf), e + 1e-3, e - 0.3]
        pts += list(rng.uniform(-3.0, 3.0, 200))
        if len(anchors) > 1:
            a = sorted(anchors)
            pts += [0.5 * (p + q) for p, q in zip(a, a[1:])]
        return np.array(pts, dtype=float)

    @pytest.mark.parametrize("mesh,radii,isolating", CASES)
    def test_at_matches_pointwise(self, mesh, radii, isolating):
        gauge = anchored_gauge(mesh=mesh, anchor_radii=radii, isolating=isolating)
        reference = anchored_reference(mesh, radii, isolating)
        xs = self.points(radii, seed=len(radii))
        bulk = gauge.at(xs)
        pointwise = np.array([gauge(float(x)) for x in xs])
        expected = np.array([reference(float(x)) for x in xs])
        assert bulk.tobytes() == pointwise.tobytes() == expected.tobytes()

    def test_signed_zero_hits_the_anchor(self):
        gauge = anchored_gauge(mesh=0.25, anchor_radii={0.0: 0.1}, isolating=True)
        assert gauge.at(np.array([-0.0, 0.0])).tolist() == [0.2, 0.2]
        assert gauge(-0.0) == 0.2

    def test_black_box_gauge_pointwise(self):
        gauge = Gauge(lambda x: abs(x) + 0.5)
        xs = np.array([-1.0, 0.0, 2.5])
        assert gauge.at(xs).tolist() == [1.5, 0.5, 3.0]


def reference_csv(partition, exceptional=()):
    """The dump rendered one ``%`` format per row, every value formatted on
    its own: the bytes :func:`partition_to_csv` must reproduce."""
    rows = zip(partition.los.tolist(), partition.his.tolist(), partition.tags.tolist(),
               restriction_mask(partition, exceptional).tolist())
    lines = ["lo,hi,tag,in_exceptional"]
    lines.extend("%.17g,%.17g,%.17g,%d" % row for row in rows)
    return "\n".join(lines) + "\n"


def _straddle_dump(name, eps):
    model = catalog(name)
    r0 = RefinementSchedule.for_model(model).r0
    return build_straddle_verified(model, r=r0, eps=eps), tuple(model.E)


def _cousin_dump(name):
    model = catalog(name)
    r0 = RefinementSchedule.for_model(model).r0
    gauge = anchored_gauge(mesh=1e-4, anchor_radii={e: r0 for e in model.E}, isolating=True)
    return build_cousin(model.span, gauge), tuple(model.E)


def _anchored_dump(name):
    model = catalog(name)
    r0 = RefinementSchedule.for_model(model).r0
    part = build_anchored(model.span, tuple(model.E), r=r0, h=model.span.length / 1000)
    return part, tuple(model.E)


def _uniform_dump(n, seam_gap=False):
    """n contiguous midpoint-tagged cells of [0, 1], three of them flagged
    around the first block seam; ``seam_gap`` opens a gap at the last pair
    of the first block and another inside it."""
    edges = np.linspace(0.0, 1.0, n + 1)
    his = edges[1:].copy()
    if seam_gap:
        his[[_CSV_BLOCK - 2, _CSV_BLOCK - 1]] -= 1e-9
    tags = (edges[:-1] + edges[1:]) / 2
    flagged = [float(tags[i]) for i in (0, min(_CSV_BLOCK - 1, n - 1), n - 1)]
    return TaggedPartition(edges[:-1], his, tags, UNIT), flagged


def _raw_dump(los, his, tags, exceptional=()):
    return TaggedPartition(los, his, tags, Interval(-1.0, 1.0)), exceptional


INF, NAN = float("inf"), float("nan")
# name -> (partition, exceptional points), built on demand
DUMPS = {
    "straddle reciprocal 1e-3": lambda: _straddle_dump("reciprocal", 1e-3),
    "straddle osc_sin_inv 1e-2": lambda: _straddle_dump("osc_sin_inv", 1e-2),
    "straddle parabola 1e-4": lambda: _straddle_dump("parabola", 1e-4),
    "straddle sqrt_singular 1e-4": lambda: _straddle_dump("sqrt_singular", 1e-4),
    "cousin heaviside": lambda: _cousin_dump("heaviside"),
    "cousin staircase3": lambda: _cousin_dump("staircase3"),
    "anchored heaviside": lambda: _anchored_dump("heaviside"),
    "anchored staircase3": lambda: _anchored_dump("staircase3"),
    "block - 1 pairs": lambda: _uniform_dump(_CSV_BLOCK - 1),
    "block pairs": lambda: _uniform_dump(_CSV_BLOCK),
    "block + 1 pairs": lambda: _uniform_dump(_CSV_BLOCK + 1),
    "2 blocks + 1 pairs": lambda: _uniform_dump(2 * _CSV_BLOCK + 1),
    "gaps at the block seam": lambda: _uniform_dump(2 * _CSV_BLOCK, seam_gap=True),
    "signed zero": lambda: _raw_dump([-1.0, 0.0], [-0.0, 1.0], [-0.0, 0.0], [0.0]),
    "gap": lambda: _raw_dump([-1.0, 0.5], [0.25, 1.0], [0.0, 0.75]),
    "overlap": lambda: _raw_dump([-1.0, 0.5], [0.75, 1.0], [0.0, 0.75], [0.75]),
    "nan": lambda: _raw_dump([-1.0, 0.0, NAN], [NAN, NAN, 1.0], [NAN, 0.5, NAN], [NAN]),
    "infinities": lambda: _raw_dump([-INF, 0.0], [0.0, INF], [-INF, INF], [INF]),
    "one pair": lambda: _raw_dump([-1.0], [1.0], [0.1], [0.1]),
    "no pairs": lambda: _raw_dump([], [], []),
}


class TestCsvDump:
    @pytest.mark.parametrize("name", sorted(DUMPS))
    def test_matches_reference(self, name):
        part, exceptional = DUMPS[name]()
        assert partition_to_csv(part, exceptional) == reference_csv(part, exceptional)

    def test_cousin_dumps_span_several_blocks(self):
        for name in ("cousin heaviside", "cousin staircase3"):
            part, _ = DUMPS[name]()
            assert len(part) > _CSV_BLOCK

    def test_signed_zero_endpoint_keeps_its_sign(self):
        # -0.0 == 0.0, so the partition is contiguous, yet each row prints
        # its own bits
        part, exceptional = DUMPS["signed zero"]()
        assert validate(part, part.span).ok
        assert partition_to_csv(part, exceptional) == (
            "lo,hi,tag,in_exceptional\n-1,-0,-0,1\n0,1,0,1\n")

    def test_no_pairs_is_the_header(self):
        part, _ = DUMPS["no pairs"]()
        assert partition_to_csv(part) == "lo,hi,tag,in_exceptional\n"

    def test_format(self):
        part = make_partition([(-1.0, 0.0, -0.5), (0.0, 1.0, 0.0)], Interval(-1.0, 1.0))
        text = partition_to_csv(part, exceptional=[0.0])
        lines = text.strip().splitlines()
        assert lines[0] == "lo,hi,tag,in_exceptional"
        assert lines[1].endswith(",0")
        assert lines[2].endswith(",1")
        # 17-significant-digit rendering must round-trip
        lo = float(lines[1].split(",")[0])
        assert lo == -1.0


class TestAnchorCells:
    # (span, points, r, cells or the breach the error names)
    CASES = {
        "interior point": ((0.0, 1.0), [0.5], 0.125, [(0.375, 0.625, 0.5)]),
        "left endpoint member": ((0.0, 1.0), [0.0], 0.125, [(0.0, 0.125, 0.0)]),
        "right endpoint member": ((0.0, 1.0), [1.0], 0.125, [(0.875, 1.0, 1.0)]),
        "touching cells and span edges": (
            (0.0, 1.0), [0.25, 0.75], 0.25, [(0.0, 0.5, 0.25), (0.5, 1.0, 0.75)],
        ),
        "no points": ((0.0, 1.0), [], 0.125, []),
        "overlapping cells": ((0.0, 1.0), [0.3, 0.5], 0.15, "overlaps the cell around 0.3"),
        "cell leaves the span": ((0.0, 1.0), [0.05], 0.1, "leaves the span"),
        "right side leaves the span": ((0.0, 1.0), [0.95], 0.1, "leaves the span"),
        "other point inside a cell": (
            (0.0, 1.0), [0.3, 0.35], 0.1, "holds another exceptional point",
        ),
        "endpoint cell holds a point": (
            (0.0, 1.0), [0.0, 0.05], 0.1, "holds another exceptional point",
        ),
        "8-ulp floor": ((0.0, 1.0), [0.5], 8e-16, "floating-point floor"),
        "just above the floor": ((0.0, 1.0), [0.5], 1e-15, [(0.5 - 1e-15, 0.5 + 1e-15, 0.5)]),
        "floor scales with |e|": ((0.0, 2e6), [1e6], 8e-10, "floating-point floor"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rule(self, case):
        bounds, points, r, expected = self.CASES[case]
        span = Interval(*bounds)
        if isinstance(expected, str):
            with pytest.raises(AnchorOverlapError, match=expected):
                anchor_cells(span, points, r)
        else:
            assert anchor_cells(span, points, r) == expected

    @pytest.mark.parametrize("r", [0.0, -0.1])
    def test_nonpositive_radius_rejected(self, r):
        with pytest.raises(ValueError):
            anchor_cells(UNIT, [0.5], r)


def _two_step_model():
    return SingularFunctionModel(
        F=lambda x: (x > 0.3) + (x > 0.5) + 0.0 * x, f=lambda x: 0.0 * x,
        E=ExceptionalSet([0.3, 0.5]), span=UNIT,
    )


class TestOneAnchorRule:
    """The builders raise exactly where the basic-sum ladder stops."""

    @pytest.mark.parametrize("model, schedule, max_depth", [
        # oscillation never settles: the ladder runs into the 8-ulp floor
        (catalog("osc_sin_inv"), None, 60),
        # first radius larger than the gap to the span edge
        (catalog("staircase3"), RefinementSchedule(h0=3.0, r0=0.6), 20),
        # cells overlap without holding the other point
        (_two_step_model(), RefinementSchedule(h0=1.0, r0=0.15), 20),
    ])
    def test_builder_raises_at_the_ladder_stop(self, model, schedule, max_depth):
        schedule = schedule or RefinementSchedule.for_model(model)
        trace, verdict = basic_sum_sequence(model, schedule, max_depth=max_depth)
        stop = len(trace)
        assert verdict.note.startswith(f"depth {stop}: ")
        for n in range(stop):
            build_anchored(model.span, tuple(model.E), r=schedule.at(n).r, h=model.span.length)
        with pytest.raises(AnchorOverlapError) as exc:
            build_anchored(model.span, tuple(model.E), r=schedule.at(stop).r, h=model.span.length)
        assert verdict.note == f"depth {stop}: {exc.value}"
