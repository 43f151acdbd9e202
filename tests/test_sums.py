import dataclasses
import io
import itertools
import json
import random
import sys
from contextlib import redirect_stdout

import numpy as np
import pytest

from gaugeint import (
    CATALOG_NAMES,
    Converged,
    Diverged,
    EvaluationError,
    ExceptionalSet,
    Inconclusive,
    Interval,
    RefinementSchedule,
    SingularFunctionModel,
    TaggedPartition,
    basic_sum_sequence,
    anchor_cells,
    build_anchored,
    catalog,
    decompose,
    increment,
    increment_sum,
    plain_kh,
    residual_estimate,
    residue_check,
    residue_table,
    restrict,
    riemann_sum,
    validate,
)
from gaugeint.sums import (
    _ANCHOR_STOPS,
    AnchorTable,
    KahanAccumulator,
    SumBreakdown,
    _kahan_sum,
)
from gaugeint.cli import run
from gaugeint.verdicts import DIV_THRESHOLD, TOL, run_ladder, verdict_to_json


def random_partition(rng, span, max_cells=40):
    n = rng.randrange(1, max_cells)
    cuts = sorted(rng.uniform(span.lo, span.hi) for _ in range(n - 1))
    walls = [span.lo] + cuts + [span.hi]
    walls = [w for i, w in enumerate(walls) if i == 0 or w > walls[i - 1]]
    tags = [rng.uniform(lo, hi) for lo, hi in zip(walls, walls[1:])]
    return TaggedPartition(walls[:-1], walls[1:], tags, span)


class TestRiemannSum:
    def test_zero_integrand_exact(self):
        model = catalog("heaviside")
        part = build_anchored(model.span, [0.0], r=0.1, h=0.3)
        out = riemann_sum(model, part)
        assert out.total == 0.0

    def test_constant_integrand_telescopes(self):
        model = SingularFunctionModel(
            F=lambda x: 3.0 * np.asarray(x, dtype=float),
            f=lambda x: np.full_like(np.asarray(x, dtype=float), 3.0),
            E=ExceptionalSet(), span=Interval(-2.0, 5.0),
        )
        part = build_anchored(model.span, [], r=0.1, h=0.37)
        out = riemann_sum(model, part)
        assert out.total == pytest.approx(3.0 * 7.0, abs=1e-12 * 21)

    def test_on_E_part_is_exactly_zero_with_extension(self):
        model = catalog("reciprocal")
        part = build_anchored(model.span, [0.0], r=0.05, h=0.25)
        out = riemann_sum(model, part)
        # f = -1/x^2 is never evaluated at the pole tag: the pair adds exactly 0
        off = part.tags != 0.0
        assert out.total == float(np.sum(model.f_values(part.tags[off]) * part.widths[off]))
        assert out.pair_count[1] == 1

    def test_pair_counts(self):
        model = catalog("staircase3")
        part = build_anchored(model.span, tuple(model.E), r=0.1, h=0.21)
        out = riemann_sum(model, part)
        assert out.pair_count[0] == len(part)
        assert out.pair_count[1] == 3

    def test_total_equals_parts(self):
        # the split sums must agree with a direct in-order sum over all pairs
        model = catalog("parabola")
        rng = random.Random(5)
        for _ in range(50):
            part = random_partition(rng, model.span)
            out = riemann_sum(model, part)
            direct = float(
                np.sum(model.extended_derivatives(part.tags) * part.widths)
            )
            assert abs(out.total - direct) <= 1e-12 * max(1.0, abs(out.total))

    def test_linearity(self):
        span = Interval(0.0, 1.0)
        mk = lambda f: SingularFunctionModel(
            F=lambda x: np.zeros_like(np.asarray(x, dtype=float)), f=f,
            E=ExceptionalSet(), span=span,
        )
        f1 = mk(lambda x: np.asarray(x, dtype=float) ** 2)
        f2 = mk(lambda x: np.sin(np.asarray(x, dtype=float)))
        f12 = mk(lambda x: np.asarray(x, dtype=float) ** 2 + np.sin(np.asarray(x, dtype=float)))
        rng = random.Random(6)
        for _ in range(25):
            part = random_partition(rng, span)
            lhs = riemann_sum(f12, part).total
            rhs = riemann_sum(f1, part).total + riemann_sum(f2, part).total
            assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(lhs)))


    def test_takes_either_side_of_a_restriction(self):
        model = catalog("staircase3")
        part = build_anchored(model.span, tuple(model.E), r=0.05, h=0.2)
        on, off = restrict(part, tuple(model.E))
        assert riemann_sum(model, on) == SumBreakdown(total=0.0, pair_count=(3, 3))
        assert riemann_sum(model, off) == SumBreakdown(
            total=riemann_sum(model, part).total, pair_count=(len(part) - 3, 0))


class TestIncrementSum:
    def test_full_partition_closed_form(self):
        model = catalog("reciprocal")
        part = build_anchored(model.span, [0.0], r=0.05, h=0.2)
        total = increment(model, model.span)
        assert total == 1.5  # exact: 1/2 - (1/-1) through the extension

    def test_restriction_to_anchor(self):
        model = catalog("heaviside")
        part = build_anchored(model.span, [0.0], r=0.2, h=0.3)
        on, off = restrict(part, [0.0])
        assert increment_sum(model, on) == 1.0

    def test_empty_pairs(self):
        model = catalog("parabola")
        assert increment_sum(model, TaggedPartition([], [], [], model.span)) == 0.0

    def test_telescoping_thousand_random_partitions(self):
        model = catalog("parabola")
        rng = random.Random(2024)
        expected = increment(model, model.span)
        for _ in range(1000):
            part = random_partition(rng, model.span)
            assert validate(part, model.span).ok
            pairwise = increment_sum(model, part)
            assert abs(pairwise - expected) <= 1e-9 * max(1.0, abs(expected))

    def test_restriction_additivity(self):
        model = catalog("jump_linear")
        rng = random.Random(77)
        for _ in range(200):
            part = random_partition(rng, model.span)
            tags = list(part.tags)
            chosen = set(tags[::3])
            on, off = restrict(part, chosen)
            whole_r = riemann_sum(model, part).total
            whole_i = increment_sum(model, part)
            part_r = sum(np.sum(model.extended_derivatives(side.tags) * side.widths)
                         for side in (on, off))
            part_i = increment_sum(model, on) + increment_sum(model, off)
            scale = max(1.0, abs(whole_r))
            assert abs(whole_r - part_r) <= 1e-12 * scale
            assert abs(whole_i - part_i) <= 1e-12 * max(1.0, abs(whole_i))


class TestBasicSumSequence:
    def test_heaviside_constant_one(self):
        model = catalog("heaviside")
        sched = RefinementSchedule.for_model(model)
        trace, verdict = basic_sum_sequence(model, sched)
        assert all(v == 1.0 for _, v in trace)
        assert verdict == Converged(value=1.0, error_estimate=0.0, depth=3)

    def test_reciprocal_closed_form_and_divergence(self):
        model = catalog("reciprocal")
        sched = RefinementSchedule.for_model(model)
        trace, verdict = basic_sum_sequence(
            model, sched, max_depth=12, div_threshold=100.0
        )
        for n, value in trace:
            assert value == pytest.approx(2.0 / sched.at(n).r, rel=1e-12)
        assert verdict == Diverged(sign=1)

    def test_parabola_closed_form_vanishes(self):
        model = catalog("parabola")
        sched = RefinementSchedule.for_model(model)
        trace, verdict = basic_sum_sequence(model, sched, tol=1e-5)
        for n, value in trace:
            assert value == pytest.approx(2.0 * sched.at(n).r, rel=1e-9)
        assert isinstance(verdict, Converged)
        assert abs(verdict.value) <= 1e-4

    def test_empty_exceptional_set_sums_to_zero(self):
        # the sum over an empty E is exactly 0: every basic-sum ladder gives
        # the one answer, converged at depth 0
        model = SingularFunctionModel(
            F=lambda x: np.asarray(x, dtype=float) ** 2,
            f=lambda x: 2.0 * np.asarray(x, dtype=float),
            E=ExceptionalSet(), span=Interval(0.0, 1.0),
        )
        sched = RefinementSchedule.for_model(model)
        converged = Converged(value=0.0, error_estimate=0.0, depth=0)
        zero = repr((((0, 0.0),), converged))
        for max_depth in (0, 20):
            assert repr(basic_sum_sequence(model, sched, max_depth=max_depth)) == zero
            assert repr(residue_table(model, max_depth, TOL, DIV_THRESHOLD)[:2]) == zero
            report = decompose(model, max_depth=max_depth)
            assert repr((report.bs_trace, report.basic_sum_verdict)) == zero
            out = io.StringIO()
            with redirect_stdout(out):
                code = run(["residues", "--function", "x^2", "--derivative", "2*x",
                            "--span", "0,1", "--exceptional=", "--max-depth", str(max_depth),
                            "--output", "json"])
            assert code == 0
            assert json.loads(out.getvalue())["basic_sum"] == verdict_to_json(converged)

    def test_anchor_increments_matches_restricted_sum(self):
        model = catalog("staircase3")
        r = 0.05
        part = build_anchored(model.span, tuple(model.E), r=r, h=0.2)
        on, _ = restrict(part, tuple(model.E))
        # the basic sum's depth-0 term at anchor radius r
        trace, _ = basic_sum_sequence(model, RefinementSchedule(h0=0.2, r0=r), max_depth=0)
        assert trace[0][1] == pytest.approx(increment_sum(model, on), abs=1e-14)


def counting(model):
    """``model`` with F wrapped to record the number of points of each call."""
    calls = []

    def F(x, F=model.F):
        calls.append(np.size(x))
        return F(x)

    return dataclasses.replace(model, F=F), calls


def own_cell_model():
    """Two points whose anchor cells fail apart: near 0.7 F overflows from
    depth 6 on, while the residual at 0.3 oscillates without a verdict."""
    def F(x):
        x = np.asarray(x, dtype=float)
        return np.sin(1 / (x - 0.3)) + np.where(x > 0.7, np.exp(1 / (x - 0.7)), 0.0)

    return SingularFunctionModel(
        F=F, f=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        E=ExceptionalSet([0.3, 0.7]), span=Interval(0.0, 1.0),
    )


class TestSharedAnchorRow:
    """The basic-sum ladder and every residual ladder read one anchor table,
    from one F call over every depth up to ``max_depth``."""

    @pytest.mark.parametrize("name, depths", [("heaviside", 4), ("staircase3", 4),
                                              ("jump_linear", 21)])
    def test_residue_table_makes_one_F_call_per_table(self, name, depths):
        # the ladders read ``depths`` depths of the 21 the one call covers
        model, calls = counting(catalog(name))
        bs_trace, _, _ = residue_table(model, 20, 1e-6, 1e12)
        assert len(bs_trace) == depths
        assert calls == [2 * len(model.E) * 21]

    def test_residue_check_shares_the_row(self):
        model, calls = counting(catalog("staircase3"))
        residue_check(model)
        # the endpoint difference, then one table of 21 depths
        assert calls == [2, 6 * 21]

    def test_standalone_residual_reads_one_table(self):
        # each residual reads a table of all of E, one F call over 21 depths
        model, calls = counting(catalog("staircase3"))
        sched = RefinementSchedule.for_model(model)
        for e in model.E:
            residual_estimate(model, e, sched)
        assert calls == [6 * 21] * 3

    def test_residual_stops_only_on_its_own_cell(self):
        model = own_cell_model()
        sched = RefinementSchedule.for_model(model)
        _, bs_verdict, residuals = residue_table(model, 20, 1e-6, 1e12)
        standalone = {e: residual_estimate(model, e, sched) for e in model.E}
        assert bs_verdict == Diverged(sign=1)
        for table in (residuals, standalone):
            assert table[0.7] == Diverged(sign=1)
            assert isinstance(table[0.3], Inconclusive)
            assert len(table[0.3].trace) == 21
            assert "F evaluation failed" not in table[0.3].note
        assert residuals == standalone


def exp_model():
    """F = exp(1/(x - 0.5)^2) overflows at depth 1's cell ends, 0.475 and 0.525."""
    return SingularFunctionModel(
        F=lambda x: np.exp(1 / (np.asarray(x, dtype=float) - 0.5) ** 2),
        f=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        E=ExceptionalSet([0.5]), span=Interval(0.0, 1.0),
    )


def overflow_model():
    """Steps of 1.7e308 and -3.4e308 at E = {0.25, 0.75} on [0, 1]: F is
    finite everywhere, but the increment over 0.75's cell overflows."""
    return SingularFunctionModel(
        F=lambda x: np.select([x < 0.25, x < 0.75], [0.0, 1.7e308], default=-1.7e308),
        f=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        E=ExceptionalSet([0.25, 0.75]), span=Interval(0.0, 1.0),
    )


def lorentz_model():
    """x/(x^2 + 1e-12) at E = {0} on [-1, 2]: the basic sum rises to 1e6, falls
    and ends at the anchor floor."""
    return SingularFunctionModel(
        F=lambda x: np.asarray(x, dtype=float) / (np.asarray(x, dtype=float) ** 2 + 1e-12),
        f=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        E=ExceptionalSet([0.0]), span=Interval(-1.0, 2.0),
    )


ANCHOR_MODELS = {**{name: catalog(name) for name in CATALOG_NAMES},
                 "own_cell": own_cell_model(), "exp": exp_model(), "lorentz": lorentz_model()}


def reference_row(model, sched, n):
    """Depth n's anchor increments, each from an F call of its own."""
    return [increment(model, Interval(lo, hi))
            for lo, hi, _ in anchor_cells(model.span, model.E, sched.at(n).r)]


def reference_term(model, sched, n, i):
    """The increment of point i's depth-n cell, from an F call of its own."""
    lo, hi, _ = anchor_cells(model.span, model.E, sched.at(n).r)[i]
    return increment(model, Interval(lo, hi))


def outcome(read):
    """``read()`` as the repr of its value, which tells every bit of a float,
    or as the class and message of the stop it raised."""
    try:
        return repr(read())
    except tuple(_ANCHOR_STOPS) as exc:
        return type(exc), str(exc)


def anchor_floor_depth(model, sched):
    """The first depth whose anchor cells all lie under the 8-ulp floor."""
    a, b = model.span.lo, model.span.hi
    for n in itertools.count():
        r = sched.at(n).r
        if all((e if e == b else e + r) - (e if e == a else e - r)
               < 8 * sys.float_info.epsilon * max(1.0, abs(e)) for e in model.E):
            return n


def raising_within(model, e, r):
    """``model`` whose F raises ``RuntimeError`` on a call that holds a point
    within r of e."""
    def F(x, F=model.F):
        if np.any(np.abs(np.asarray(x, dtype=float) - e) <= r):
            raise RuntimeError(f"F fails within {r!r} of {e!r}")
        return F(x)

    return dataclasses.replace(model, F=F)


class TestAnchorTable:
    """One F call over every depth gives, bit for bit, the rows, basic sums and
    stops of the rows evaluated one depth at a time."""

    @pytest.mark.parametrize("max_depth", [0, 3, 20, 60])
    @pytest.mark.parametrize("name", sorted(ANCHOR_MODELS))
    def test_rows_match_the_per_depth_rows(self, name, max_depth):
        model = ANCHOR_MODELS[name]
        sched = RefinementSchedule.for_model(model)
        table = AnchorTable(model, max_depth)
        breach = next((n for n in range(max_depth + 1)
                       if isinstance(outcome(lambda: anchor_cells(model.span, model.E,
                                                                  sched.at(n).r)), tuple)),
                      max_depth + 1)
        assert table.depths == breach
        for n in range(max_depth + 1):
            assert outcome(lambda: table.basic(n)) == outcome(
                lambda: _kahan_sum(reference_row(model, sched, n)))
            for i in range(len(model.E)):
                assert outcome(lambda: table.term(n, i)) == outcome(
                    lambda: reference_term(model, sched, n, i))

    @pytest.mark.parametrize("max_depth", [0, 3, 20, 60])
    @pytest.mark.parametrize("name", sorted(ANCHOR_MODELS))
    def test_ladders_match_the_per_depth_ladders(self, name, max_depth):
        model = ANCHOR_MODELS[name]
        sched = RefinementSchedule.for_model(model)

        def ladder(value):
            return run_ladder(lambda n: (n, value(n)), max_depth, TOL, DIV_THRESHOLD,
                              _ANCHOR_STOPS)

        basic = ladder(lambda n: _kahan_sum(reference_row(model, sched, n)))
        residuals = {e: ladder(lambda n, i=i: reference_term(model, sched, n, i))[1]
                     for i, e in enumerate(model.E)}
        assert repr(basic_sum_sequence(model, sched, max_depth=max_depth)) == repr(basic)
        bs_trace, bs_verdict, table = residue_table(model, max_depth, TOL, DIV_THRESHOLD)
        assert repr((bs_trace, bs_verdict)) == repr(basic)
        assert repr(table) == repr(residuals)
        assert repr({e: residual_estimate(model, e, sched, max_depth=max_depth)
                     for e in model.E}) == repr(residuals)
        report = decompose(model, max_depth=max_depth)
        assert report.r0 == sched.r0
        assert repr((report.bs_trace, report.basic_sum_verdict)) == repr(basic)
        assert repr(report.residuals) == repr(residuals)
        if report.kh_trace:
            total = increment(model, model.span)
            kh = ladder(lambda n: total - _kahan_sum(reference_row(model, sched, n)))
            assert repr((report.kh_trace, report.kh_verdict)) == repr(kh)
        else:
            assert report.kh_verdict.note.startswith("build failed")

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_huge_max_depth_stops_at_the_anchor_floor(self, name):
        model, calls = counting(catalog(name))
        sched = RefinementSchedule.for_model(model)
        _, bs_verdict, _ = residue_table(model, 10**8, TOL, DIV_THRESHOLD)
        assert sum(calls) <= 2 * len(model.E) * (anchor_floor_depth(model, sched) + 1)
        assert bs_verdict == basic_sum_sequence(catalog(name), sched, max_depth=60)[1]

    @pytest.mark.parametrize("entry", [
        lambda model, sched: basic_sum_sequence(model, sched, max_depth=-1),
        lambda model, sched: residual_estimate(model, 0.5, sched, max_depth=-1),
        lambda model, sched: plain_kh(model, max_depth=-1),
        lambda model, sched: decompose(model, max_depth=-1),
        lambda model, sched: residue_table(model, -1, TOL, DIV_THRESHOLD),
        lambda model, sched: residue_check(model, max_depth=-1),
    ], ids=["basic_sum_sequence", "residual_estimate", "plain_kh", "decompose",
            "residue_table", "residue_check"])
    def test_negative_max_depth_is_rejected(self, entry):
        # before F meets an anchor cell: no ladder runs and no certificate is
        # built; residue_check has only read its endpoint difference
        model, calls = counting(catalog("staircase3"))
        with pytest.raises(ValueError, match="^max_depth must be nonnegative$"):
            entry(model, RefinementSchedule.for_model(model))
        assert sum(calls) <= 2


class TestAnchorStops:
    def test_basic_sum_stops_where_the_residual_stops(self):
        # F overflows at depth 1's cell ends; the basic-sum ladder used to
        # raise the EvaluationError that ends the residual ladder
        model = exp_model()
        sched = RefinementSchedule.for_model(model)
        note = ("F evaluation failed at depth 1: "
                "F is non-finite off the exceptional set (near x=0.475)")
        trace, verdict = basic_sum_sequence(model, sched)
        assert verdict == Inconclusive(trace=trace, note=note)
        assert len(trace) == 1
        _, bs_verdict, residuals = residue_table(model, 20, TOL, DIV_THRESHOLD)
        assert bs_verdict == verdict
        assert residuals == {0.5: verdict} == {0.5: residual_estimate(model, 0.5, sched)}
        assert decompose(model).basic_sum_verdict == verdict

    def test_overflowing_increment_stops_where_it_overflows(self):
        # the held term of 0.75's cell is -inf: re-read, it names its cell,
        # and every ladder that reads the cell stops at depth 0
        model = overflow_model()
        sched = RefinementSchedule.for_model(model)
        stop = Inconclusive(trace=(), note="F evaluation failed at depth 0: "
                                           "F increment over [0.7, 0.8] overflows")
        assert basic_sum_sequence(model, sched) == ((), stop)
        assert residual_estimate(model, 0.75, sched) == stop
        assert residual_estimate(model, 0.25, sched).value == 1.7e308
        report = decompose(model)
        assert report.kh_verdict == report.basic_sum_verdict == report.residuals[0.75] == stop
        with pytest.raises(EvaluationError, match=r"\[0\.7, 0\.8\] overflows$"):
            AnchorTable(model, 0).basic(0)

    def test_F_raising_below_the_verdicts_changes_none(self):
        # every heaviside ladder converges at depth 3; F raises from depth 10
        # on, so the one call over 21 depths raises and each depth is read alone
        model = catalog("heaviside")
        sched = RefinementSchedule.for_model(model)
        failing = raising_within(model, 0.0, sched.at(10).r)
        assert basic_sum_sequence(failing, sched) == basic_sum_sequence(model, sched)
        assert (residue_table(failing, 20, TOL, DIV_THRESHOLD)
                == residue_table(model, 20, TOL, DIV_THRESHOLD))
        assert residual_estimate(failing, 0.0, sched) == residual_estimate(model, 0.0, sched)
        assert residue_check(failing) == residue_check(model)
        assert decompose(failing).to_json() == decompose(model).to_json()

    def test_F_raising_where_a_ladder_reads_raises_there(self):
        # F raises from depth 2 on: the ladder reads depth 2 before its verdict
        # at depth 3, and a ladder that stops at depth 1 never sees the error
        model = catalog("heaviside")
        sched = RefinementSchedule.for_model(model)
        failing = raising_within(model, 0.0, sched.at(2).r)
        with pytest.raises(RuntimeError, match="F fails within"):
            basic_sum_sequence(failing, sched)
        assert (basic_sum_sequence(failing, sched, max_depth=1)
                == basic_sum_sequence(model, sched, max_depth=1))

    def test_standalone_residual_ignores_F_failing_near_another_point(self):
        # F raises near 1.5 only: a standalone residual's table of all of E
        # raises on its batch, and each point's terms are then read alone
        model = catalog("staircase3")
        sched = RefinementSchedule.for_model(model)
        failing = raising_within(model, 1.5, sched.at(10).r)
        for e in model.E:
            assert residual_estimate(failing, e, sched) == residual_estimate(model, e, sched)
        assert (residue_table(failing, 20, TOL, DIV_THRESHOLD)
                == residue_table(model, 20, TOL, DIV_THRESHOLD))
        # from depth 2 on, 1.5's ladder reads a failing depth before its verdict
        failing = raising_within(model, 1.5, sched.at(2).r)
        for e in (0.5, 2.5):
            verdict = residual_estimate(failing, e, sched)
            assert isinstance(verdict, Converged)
            assert verdict == residual_estimate(model, e, sched)
        with pytest.raises(RuntimeError, match="F fails within"):
            residual_estimate(failing, 1.5, sched)


class TestKahan:
    def test_compensates_cancellation(self):
        acc = KahanAccumulator()
        acc.add(1.0)
        for _ in range(10_000):
            acc.add(1e-16)
            acc.add(-1e-16)
        assert acc.total == 1.0
