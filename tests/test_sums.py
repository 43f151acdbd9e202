import dataclasses
import random

import numpy as np
import pytest

from gaugeint import (
    Converged,
    Diverged,
    ExceptionalSet,
    Inconclusive,
    Interval,
    RefinementSchedule,
    SingularFunctionModel,
    TaggedPair,
    TaggedPartition,
    basic_sum_sequence,
    build_anchored,
    catalog,
    increment,
    increment_sum,
    residual_estimate,
    residue_check,
    residue_table,
    restrict,
    riemann_sum,
    validate,
)
from gaugeint.sums import KahanAccumulator


def random_partition(rng, span, max_cells=40):
    n = rng.randrange(1, max_cells)
    cuts = sorted(rng.uniform(span.lo, span.hi) for _ in range(n - 1))
    walls = [span.lo] + cuts + [span.hi]
    walls = [w for i, w in enumerate(walls) if i == 0 or w > walls[i - 1]]
    pairs = []
    for lo, hi in zip(walls, walls[1:]):
        tag = rng.uniform(lo, hi)
        pairs.append(TaggedPair(Interval(lo, hi), tag))
    return TaggedPartition.from_pairs(pairs, span)


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
        assert increment_sum(catalog("parabola"), ()) == 0.0

    def test_telescoping_thousand_random_partitions(self):
        model = catalog("parabola")
        rng = random.Random(2024)
        expected = increment(model, model.span)
        for _ in range(1000):
            part = random_partition(rng, model.span)
            assert validate(part, model.span).ok
            pairwise = increment_sum(model, part.pairs())
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
            whole_i = increment_sum(model, part.pairs())
            part_r = (
                sum(d * p.width
                    for d, p in zip(model.extended_derivatives([p.tag for p in on]), on))
                + sum(d * p.width
                    for d, p in zip(model.extended_derivatives([p.tag for p in off]), off))
            )
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

    def test_empty_exceptional_set_rejected(self):
        model = SingularFunctionModel(
            F=lambda x: np.asarray(x, dtype=float),
            f=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            E=ExceptionalSet(), span=Interval(0.0, 1.0),
        )
        sched = RefinementSchedule.for_model(model)
        with pytest.raises(ValueError):
            basic_sum_sequence(model, sched)

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
    """The basic-sum ladder and every residual ladder read one row of anchor
    terms per depth."""

    @pytest.mark.parametrize("name, depths", [("heaviside", 4), ("staircase3", 4),
                                              ("jump_linear", 21)])
    def test_residue_table_makes_one_F_call_per_depth(self, name, depths):
        model, calls = counting(catalog(name))
        residue_table(model, RefinementSchedule.for_model(model), 20, 1e-6, 1e12)
        assert len(calls) == depths
        assert set(calls) == {2 * len(model.E)}

    def test_residue_check_shares_the_row(self):
        model, calls = counting(catalog("staircase3"))
        residue_check(model)
        # the endpoint difference, then one row per depth
        assert calls == [2] + [6] * 4

    def test_standalone_residual_reads_its_own_cell(self):
        model, calls = counting(catalog("staircase3"))
        sched = RefinementSchedule.for_model(model)
        for e in model.E:
            residual_estimate(model, e, sched)
        assert calls == [2] * 12

    def test_residual_stops_only_on_its_own_cell(self):
        model = own_cell_model()
        sched = RefinementSchedule.for_model(model)
        _, bs_verdict, residuals = residue_table(model, sched, 20, 1e-6, 1e12)
        standalone = {e: residual_estimate(model, e, sched) for e in model.E}
        assert bs_verdict == Diverged(sign=1)
        for table in (residuals, standalone):
            assert table[0.7] == Diverged(sign=1)
            assert isinstance(table[0.3], Inconclusive)
            assert len(table[0.3].trace) == 21
            assert "F evaluation failed" not in table[0.3].note
        assert residuals == standalone


class TestKahan:
    def test_compensates_cancellation(self):
        acc = KahanAccumulator()
        acc.add(1.0)
        for _ in range(10_000):
            acc.add(1e-16)
            acc.add(-1e-16)
        assert acc.total == 1.0
