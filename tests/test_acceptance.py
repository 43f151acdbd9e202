"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import contextlib
import random
import time

import numpy as np
import pytest

from gaugeint import (
    BuildLimits,
    Converged,
    Diverged,
    Interval,
    NotLocallyConstant,
    RefinementSchedule,
    TaggedPair,
    TaggedPartition,
    build_anchored,
    build_cousin,
    build_straddle_verified,
    catalog,
    catalog_entry,
    decompose,
    evaluate,
    increment,
    increment_sum,
    is_fine,
    parse,
    render,
    residue_check,
    restrict,
    riemann_sum,
    total_kh,
    validate,
    Gauge,
)
from gaugeint.builders import anchored_gauge_for
from gaugeint.partition import restriction_mask
from test_dsl import gen_def


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


def test_criterion_1_heaviside_complete_decomposition():
    with criterion(1, "heaviside: total 1, plain 0, basic sum 1, residual 1, gaps 0"):
        t0 = time.perf_counter()
        model = catalog("heaviside")
        report = decompose(model)

        assert abs(report.total - 1.0) <= 1e-12
        assert isinstance(report.kh_verdict, Converged)
        assert report.kh_verdict.value == 0.0
        assert all(row.value == 0.0 for row in report.kh_rows)
        assert isinstance(report.basic_sum_verdict, Converged)
        assert report.basic_sum_verdict.value == 1.0
        assert all(row.value == 1.0 for row in report.bs_rows)
        assert report.residuals[0.0] == Converged(value=1.0, error_estimate=0.0, depth=3)
        assert report.identity_gap <= 1e-12

        rc = residue_check(model)
        assert rc.gap == 0.0

        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_reciprocal_total_and_divergences():
    with criterion(2, "reciprocal: total 1.5 verified at 1e-3; plain/basic/residual diverge"):
        model = catalog("reciprocal")

        t0 = time.perf_counter()
        report = total_kh(model, epsilons=[1e-3], r=0.05)
        elapsed = time.perf_counter() - t0
        assert abs(report.total - 1.5) <= 1e-12
        row = report.rows[0]
        assert row.ok
        assert row.residual <= 3e-3
        assert row.pairs <= 10_000_000
        assert elapsed < 30.0, f"took {elapsed:.2f}s"

        # divergence verdicts: the growth is geometric in depth, so the pair
        # budget caps how far |value| can be pushed by honest builds; the
        # threshold is set below that ceiling and well above every convergent
        # catalog value
        sched = RefinementSchedule.for_model(model, eps0=1e-2, eps_factor=0.995)
        dec = decompose(model, schedule=sched, max_depth=12, div_threshold=100.0)
        assert isinstance(dec.kh_verdict, Diverged)
        assert isinstance(dec.basic_sum_verdict, Diverged)
        assert dec.residuals[0.0] == Diverged(sign=1)
        assert dec.identity_gap is None

        # the residual ladder is cheap enough to reach the default threshold
        from gaugeint import residual_estimate

        deep = residual_estimate(model, 0.0, sched, max_depth=45, tol=1e-6,
                                 div_threshold=1e12)
        assert deep == Diverged(sign=1)


def test_criterion_3_decomposition_identity_on_oracle_catalog():
    with criterion(3, "decomposition identity within 1e-5 on the oracle catalog"):
        t0 = time.perf_counter()
        for name in ("parabola", "sqrt_singular", "jump_linear", "staircase3"):
            model = catalog(name)
            entry = catalog_entry(name)
            sched = RefinementSchedule.for_model(model, eps0=8e-6, eps_factor=0.995)
            report = decompose(
                model, schedule=sched, max_depth=20, tol=5e-3,
                div_threshold=1e12, limits=BuildLimits(max_pairs=20_000_000),
            )
            assert report.total == entry.total, name
            assert isinstance(report.kh_verdict, Converged), name
            assert isinstance(report.basic_sum_verdict, Converged), name
            assert report.identity_gap <= 1e-5, (name, report.identity_gap)
            assert abs(report.kh_verdict.value - entry.kh_value) <= 1e-2, name
            assert abs(report.basic_sum_verdict.value - entry.basic_sum) <= 1e-2, name
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_4_residue_theorem():
    with criterion(4, "residue theorem: staircase matches, parabola rejected"):
        report = residue_check(catalog("staircase3"))
        assert report.lhs == 1.25
        assert report.gap is not None and report.gap <= 1e-12

        with pytest.raises(NotLocallyConstant):
            residue_check(catalog("parabola"))


def _random_partition(rng, span):
    n = rng.randrange(1, 40)
    cuts = sorted(rng.uniform(span.lo, span.hi) for _ in range(n - 1))
    walls = [span.lo] + cuts + [span.hi]
    walls = [w for i, w in enumerate(walls) if i == 0 or w > walls[i - 1]]
    pairs = [
        TaggedPair(Interval(lo, hi), rng.uniform(lo, hi))
        for lo, hi in zip(walls, walls[1:])
    ]
    return TaggedPartition.from_pairs(pairs, span)


def test_criterion_5_property_suites():
    with criterion(5, "telescoping/additivity over 1000 partitions; builder sweeps; straddle re-walk"):
        model = catalog("parabola")
        expected = increment(model, model.span)
        assert expected == catalog_entry("parabola").total  # exact closed form
        rng = random.Random(1000)
        for _ in range(1000):
            part = _random_partition(rng, model.span)
            assert validate(part, model.span).ok
            pairwise = increment_sum(model, part.pairs())
            assert abs(pairwise - expected) <= 1e-9 * max(1.0, abs(expected))

            chosen = set(list(part.tags)[::3])
            on, off = restrict(part, chosen)
            split = increment_sum(model, on) + increment_sum(model, off)
            assert abs(split - pairwise) <= 1e-12 * max(1.0, abs(pairwise))
            whole = riemann_sum(model, part).total
            split_r = (
                sum(d * p.width
                    for d, p in zip(model.extended_derivatives([p.tag for p in on]), on))
                + sum(d * p.width
                    for d, p in zip(model.extended_derivatives([p.tag for p in off]), off))
            )
            assert abs(whole - split_r) <= 1e-12 * max(1.0, abs(whole))

        # builders: validate-ok and, where the gauge is explicit, fine
        span = Interval(-1.0, 1.0)
        gauge = Gauge(lambda x: max(0.1, abs(x)))
        for seed in range(100):
            part = build_cousin(span, gauge, tag_policy="random", seed=seed)
            assert validate(part, span).ok
            assert is_fine(part, gauge)
        sweep = random.Random(55)
        for _ in range(100):
            a = sweep.uniform(-3, 3)
            b = a + sweep.uniform(0.5, 3.0)
            sp = Interval(a, b)
            e = sweep.uniform(a + 0.3, b - 0.3)
            r = min(0.1, 0.25 * min(e - a, b - e))
            h = sweep.uniform(0.1, 0.4) * (b - a)
            part = build_anchored(sp, [e], r=r, h=h)
            assert validate(part, sp).ok
            assert is_fine(part, anchored_gauge_for([e], r=r, h=h))

        # straddle re-walk: per-pair inequality and its summed bound
        for name, eps in (("reciprocal", 1e-3), ("parabola", 1e-4), ("sqrt_singular", 1e-3)):
            m = catalog(name)
            part = build_straddle_verified(m, r=0.05, eps=eps)
            assert validate(part, m.span).ok
            off = ~restriction_mask(part, tuple(m.E))
            errs = np.abs(
                m.F_values(part.his[off]) - m.F_values(part.los[off])
                - m.f_values(part.tags[off]) * part.widths[off]
            )
            assert np.all(errs <= eps * part.widths[off] * (1 + 1e-12)), name
            assert errs.sum() <= eps * m.span.length, name


def test_criterion_6_parser():
    with criterion(6, "parser round-trips, precedence fixtures, step-function values"):
        rng = random.Random(606)
        for _ in range(500):
            ast = gen_def(rng)
            assert parse(render(ast)).ast == ast

        assert evaluate(parse("2+3*4^2"), 0.0) == 50.0
        assert evaluate(parse("-x^2"), 3.0) == -9.0

        step = parse("piecewise{ x <= 0 : 0 ; 0 < x : 1 }")
        assert evaluate(step, -1.0) == 0.0
        assert evaluate(step, 0.0) == 0.0
        assert evaluate(step, 1e-9) == 1.0
        assert evaluate(step, 1.0) == 1.0
