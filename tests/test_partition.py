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
    catalog,
    is_fine,
    partition_to_csv,
    restrict,
    validate,
)
from gaugeint.partition import restriction_mask


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


class TestCsvDump:
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
