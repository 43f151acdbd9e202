import timeit
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from gaugeint import (
    AnchorOverlapError,
    ExceptionalSet,
    Gauge,
    Interval,
    RefinementSchedule,
    SingularFunctionModel,
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
import gaugeint.partition as partition_module
from gaugeint.partition import _CSV_BLOCK, restriction_mask


def make_partition(cells, span):
    los, his, tags = zip(*cells)
    return TaggedPartition(los, his, tags, span)


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

    @pytest.mark.parametrize("lo,hi", [(-1e308, 1e308), (np.float64(-1e308), np.float64(1e308)),
                                       (-np.finfo(float).max, np.finfo(float).max)])
    def test_overflowing_length_rejected(self, lo, hi):
        # pytest turns warnings into errors, so the check itself must not
        # warn of the overflow it detects
        with pytest.raises(ValueError, match=r"^interval length overflows: \["):
            Interval(lo, hi)


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

    def test_caller_arrays_stay_writeable_and_unshared(self):
        # only builders hand their arrays over; a caller's stay its own
        los, his, tags = np.array([0.0, 0.5]), np.array([0.5, 1.0]), np.array([0.2, 0.7])
        part = TaggedPartition(los, his, tags, UNIT)
        los[0] = his[0] = tags[0] = 0.1
        for got, given in ((part.los, los), (part.his, his), (part.tags, tags)):
            assert given.flags.writeable
            assert not np.shares_memory(got, given)
        assert (part.los[0], part.his[0], part.tags[0]) == (0.0, 0.5, 0.2)

    @pytest.mark.parametrize("los, order", [([0.0, 0.5], [0, 1]), ([0.5, 0.0], [1, 0])],
                             ids=["ordered", "unordered"])
    def test_owning_construction(self, los, order):
        # ordered arrays are kept and made read-only in place; unordered
        # ones still sort
        los, his, tags = np.array(los), np.array(los) + 0.5, np.array(los) + 0.25
        part = TaggedPartition._owning(los, his, tags, UNIT)
        assert list(part.los) == [0.0, 0.5] and list(part.tags) == [0.25, 0.75]
        for got, given in ((part.los, los), (part.his, his), (part.tags, tags)):
            assert not got.flags.writeable
            assert (got is given) == (order == [0, 1])

    @pytest.mark.parametrize("los,his,tags", [
        ([0.0, 0.5], [0.5, 1.0], [0.25]),
        ([[0.0, 0.5]], [[0.5, 1.0]], [[0.25, 0.75]]),
    ], ids=["unequal-lengths", "2-d"])
    def test_malformed_arrays_rejected(self, los, his, tags):
        with pytest.raises(ValueError, match="^los, his, tags must be 1-d arrays of equal length$"):
            TaggedPartition(los, his, tags, UNIT)

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
        assert on.tags.tolist() == [0.0]
        assert off.tags.tolist() == [-0.5, 0.5]

    def test_empty_points(self):
        on, off = restrict(self.part, set())
        assert len(on) == 0
        assert off.tags.tolist() == [-0.5, 0.0, 0.5]

    def test_all_tags(self):
        on, off = restrict(self.part, {-0.5, 0.0, 0.5})
        assert len(off) == 0
        assert on.tags.tolist() == [-0.5, 0.0, 0.5]

    def test_order_preserved_and_disjoint(self):
        on, off = restrict(self.part, {0.0, 0.5})
        tags = on.tags.tolist() + off.tags.tolist()
        assert sorted(tags) == [-0.5, 0.0, 0.5]
        assert on.tags.tolist() == [0.0, 0.5]

    def test_sides_are_partitions_of_the_span(self):
        # a side need not cover the span, and validate says where it does not
        on, off = restrict(self.part, {0.0})
        assert on.span == off.span == self.part.span
        assert [v.rule for v in validate(on, on.span).violations] == ["span_start", "span_end"]
        assert [v.rule for v in validate(off, off.span).violations] == ["contiguity"]
        # the dump takes either side: together they are the whole dump's rows
        rows = [partition_to_csv(p, {0.0}).splitlines()[1:] for p in (self.part, on, off)]
        assert sorted(rows[1] + rows[2]) == sorted(rows[0])

    @pytest.mark.parametrize("points", [[-0.0], [0.0, 0.5], [float("nan")], [0.49999999999999994], [0.5]])
    def test_same_rule_as_mask(self, points):
        points = list(points)
        on, off = restrict(self.part, iter(points))
        mask = restriction_mask(self.part, points)
        assert on.tags.tolist() == self.part.tags[mask].tolist()
        assert off.tags.tolist() == self.part.tags[~mask].tolist()


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

    @pytest.mark.parametrize("mesh", [0.0, np.nan])
    def test_nonpositive_mesh_rejected(self, mesh):
        with pytest.raises(ValueError, match="^gauge mesh must be positive$"):
            anchored_gauge(mesh)

    def test_nonpositive_anchor_radius_rejected(self):
        with pytest.raises(ValueError, match="^anchor radius at 0.0 must be positive$"):
            anchored_gauge(1.0, {0.0: 0.0})


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


def _ties():
    """Dyadic m / 2**(17 - x) in each decade x: 18 significant digits, the
    last a 5, so that 17 digits round a tie half to even."""
    ties = []
    for x in range(-4, 16):
        k = 17 - x
        low = 10 ** x * 2 ** k if x >= 0 else -(-2 ** k // 10 ** -x)
        ties += [(low | 1) / 2 ** k, ((low | 1) + 2) / 2 ** k]
    return ties


def _edge_values():
    """Where fixed notation starts and stops and where it once went wrong:
    each power of ten 1e-6 .. 1e18 and both its neighbours, values that
    round up into the next decade, integer parts with trailing zeros, ties,
    subnormals, zeros and non-finite values, each with both signs."""
    edges = []
    for k in range(-6, 19):
        p = float(f"1e{k}")
        edges += [float(np.nextafter(p, 0.0)), p, float(np.nextafter(p, np.inf))]
    edges += [9.99999999999999995e-5, 9.9999999999999995e-7, 99999999999999999.0,
              9344364239854670.0, 5e-324, 2.2250738585072014e-308, 0.0, INF, NAN]
    edges += _ties()
    return edges + [-v for v in edges]


EDGE_VALUES = _edge_values()


def _edge_dump():
    """Every edge value as a left end, a right end and a tag."""
    vals = np.array(EDGE_VALUES)
    return _raw_dump(vals, np.roll(vals, 1), vals[::-1], EDGE_VALUES[:3])


def _alternating_dump(n=_CSV_BLOCK + 5):
    """Right ends and tags that change sign and decade on every row, the
    left ends rising through every decade of fixed notation."""
    rng = np.random.default_rng(7)
    decades = np.arange(n) % 21 - 4
    signs = np.where(np.arange(n) % 2, -1.0, 1.0)
    swings = signs * rng.uniform(1.0, 10.0, n) * 10.0 ** decades
    los = np.sort(rng.uniform(1.0, 10.0, n) * 10.0 ** (np.arange(n) * 21 // n - 4))
    return _raw_dump(los, swings, swings[::-1])


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
    "edge values": _edge_dump,
    # fractions alone need fewer bytes a row than these 24-character forms
    "long exponents among fractions": lambda: _raw_dump(
        np.linspace(-0.5, 0.5, 100), np.linspace(-0.5, 0.5, 100) + 0.01,
        np.resize([-2.2250738585072014e-308, -1.2345678901234567e-300, 0.25], 100)),
    "alternating sign and decade": _alternating_dump,
}


class TestCsvDump:
    @pytest.mark.parametrize("name", sorted(DUMPS))
    def test_matches_reference(self, name):
        part, exceptional = DUMPS[name]()
        # row lists: a mismatch names its first bad row without a long string diff
        assert (partition_to_csv(part, exceptional).splitlines(True)
                == reference_csv(part, exceptional).splitlines(True))

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

    def test_alternating_dump_costs_no_more_than_per_value(self):
        # the kernel lays every row out the same way whatever its sign and
        # decade, so no input makes it slower than formatting value by value
        part, exceptional = DUMPS["alternating sign and decade"]()

        def best(render):
            return min(timeit.repeat(lambda: render(part, exceptional), number=1, repeat=5))

        assert best(partition_to_csv) <= best(reference_csv)


# any float64 bit pattern, which mostly lands outside fixed notation; any
# float of fixed notation's range; or an edge value
_BITS = st.integers(0, 2 ** 64 - 1).map(
    lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64)))
_FIXED = st.floats(1e-4, 1e17, exclude_max=True).flatmap(
    lambda v: st.sampled_from((v, -v)))
_ANY_FLOAT = st.one_of(_BITS, _FIXED, st.sampled_from(EDGE_VALUES))


class _OffLog10:
    """numpy with its log10 shifted by ``shift``, so that the CSV kernel's
    first guess of a decade is one too high or one too low for many values."""

    def __init__(self, shift):
        self.shift = shift

    def __getattr__(self, name):
        return getattr(np, name)

    def log10(self, v):
        return np.log10(v) + self.shift


class TestCsvExactness:
    @pytest.mark.parametrize("shift", [-0.5, 0.5])
    def test_decade_guess_off_by_one_is_mended(self, monkeypatch, shift):
        rng = np.random.default_rng(3)
        fixed = rng.uniform(1.0, 10.0, 2000) * 10.0 ** rng.integers(-4, 17, 2000)
        vals = np.concatenate((EDGE_VALUES, fixed, -fixed))
        part, exceptional = _raw_dump(vals, vals[::-1], np.roll(vals, 7))
        monkeypatch.setattr(partition_module, "np", _OffLog10(shift))
        text = partition_to_csv(part, exceptional)
        monkeypatch.undo()
        # row lists: a failure names the first differing row at once
        assert text.splitlines(True) == reference_csv(part, exceptional).splitlines(True)

    # no shrink phase: shrinking a failing dump can outlast the test's time
    # limit, and the first failing dump already shows the diff
    @settings(max_examples=150, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(ends=st.lists(_ANY_FLOAT, min_size=2, max_size=40), data=st.data())
    def test_matches_reference_and_reads_back(self, ends, data):
        # a chain of shared ends, or right ends drawn on their own
        n = len(ends) - 1
        los = np.array(ends[:-1])
        his = np.array(data.draw(st.one_of(st.just(ends[1:]),
                                           st.lists(_ANY_FLOAT, min_size=n, max_size=n))))
        tags = np.array(data.draw(st.lists(_ANY_FLOAT, min_size=n, max_size=n)))
        part, exceptional = _raw_dump(los, his, tags, tags[:1].tolist())
        # every block through the kernel, however short
        with mock.patch.object(partition_module, "_FIXED_MIN_VALUES", 0):
            text = partition_to_csv(part, exceptional)
        assert text == reference_csv(part, exceptional)
        fields = [row.split(",")[:3] for row in text.splitlines()[1:]]
        read = np.array([[float(f) for f in row] for row in fields]).reshape(-1, 3)
        want = np.stack((part.los, part.his, part.tags), axis=1)
        nan = np.isnan(want)
        assert (np.isnan(read) == nan).all()
        assert (read[~nan].view(np.uint64) == want[~nan].view(np.uint64)).all()


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
