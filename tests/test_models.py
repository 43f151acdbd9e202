import dataclasses
import math
import random

import numpy as np
import pytest

from gaugeint import (
    Converged,
    Diverged,
    EvaluationError,
    ExceptionalSet,
    Inconclusive,
    Interval,
    RefinementSchedule,
    SingularFunctionModel,
    CompiledFunction,
    build_straddle_verified,
    catalog,
    catalog_entry,
    consistency_check,
    decompose,
    evaluate_extended,
    increment,
    partition_to_csv,
    plain_kh,
    residual_estimate,
    residue_table,
    riemann_sum,
    total_kh,
)
from gaugeint.builders import straddle_chunks
from gaugeint.models import DerivativeMismatch
from gaugeint.verdicts import DIV_THRESHOLD, MAX_DEPTH, TOL


def consistency_one_point(model, sample_count=64, seed=0):
    """Reference for ``consistency_check``: the same samples, f and then F
    evaluated one sample at a time."""
    r0 = RefinementSchedule.for_model(model).r0
    h = 1e-6 * model.span.length
    rng = random.Random(seed)
    xs = []
    attempts = 0
    while len(xs) < sample_count and attempts < sample_count * 50:
        attempts += 1
        x = rng.uniform(model.span.lo + h, model.span.hi - h)
        if all(abs(x - p) >= r0 for p in model.E):
            xs.append(x)
    warnings = []
    for x in xs:
        declared = float(model.f_values(np.asarray([x]))[0])
        fp, fm = model.F_values(np.asarray([x + h, x - h]))
        estimated = (float(fp) - float(fm)) / (2 * h)
        mismatch = abs(declared - estimated) / max(1.0, abs(declared), abs(estimated))
        if mismatch > 1e-3:
            warnings.append(DerivativeMismatch(x, declared, estimated, mismatch))
    return warnings


def check_outcome(check, model, seed):
    try:
        return check(model, sample_count=32, seed=seed)
    except EvaluationError as exc:
        return ("error", str(exc), exc.points)


def simple_model(F, f, points, lo, hi):
    return SingularFunctionModel(F=F, f=f, E=ExceptionalSet(points), span=Interval(lo, hi))


class TestExceptionalSet:
    def test_orders_and_rejects_duplicates(self):
        assert ExceptionalSet([0.5, 1.5]).points == (0.5, 1.5)
        with pytest.raises(ValueError):
            ExceptionalSet([1.5, 0.5])
        with pytest.raises(ValueError):
            ExceptionalSet([0.5, 0.5])

    @pytest.mark.parametrize("point", [math.inf, math.nan])
    def test_nonfinite_point_rejected(self, point):
        with pytest.raises(ValueError, match="^exceptional points must be finite$"):
            ExceptionalSet([point])

    def test_membership_is_exact(self):
        E = ExceptionalSet([0.1])
        assert 0.1 in E
        assert 0.1 + 1e-18 in E  # rounds back to the same binary64 value
        assert 0.10000001 not in E

    def test_point_outside_span_rejected_by_model(self):
        with pytest.raises(ValueError):
            simple_model(lambda x: x, lambda x: 1.0, [2.0], 0.0, 1.0)


class TestEvaluateExtended:
    def test_reciprocal_extension_at_pole(self):
        model = catalog("reciprocal")
        assert evaluate_extended(model, 0.0) == (0.0, 0.0)

    def test_heaviside_off_step(self):
        model = catalog("heaviside")
        assert evaluate_extended(model, 0.5) == (1.0, 0.0)

    def test_parabola_plain_point(self):
        model = catalog("parabola")
        F, f = evaluate_extended(model, 0.25)
        assert F == 0.0625 and f == 0.5

    def test_extension_short_circuits_blowup(self):
        # F would overflow at the exceptional point; the extension never
        # evaluates it there
        def bad_F(x):
            arr = np.asarray(x, dtype=float)
            return 1.0 / arr

        model = simple_model(bad_F, lambda x: -1.0 / np.asarray(x) ** 2, [0.0], -1.0, 1.0)
        assert evaluate_extended(model, 0.0) == (0.0, 0.0)

    def test_nonfinite_off_E_is_error(self):
        model = simple_model(
            lambda x: 1.0 / np.asarray(x), lambda x: -1.0 / np.asarray(x) ** 2,
            [0.5], -1.0, 1.0,
        )
        with pytest.raises(EvaluationError):
            evaluate_extended(model, 0.0)

    def test_outside_span_rejected(self):
        with pytest.raises(ValueError):
            evaluate_extended(catalog("parabola"), 2.0)


class TestIncrement:
    def test_heaviside_across_step(self):
        assert increment(catalog("heaviside"), Interval(-0.1, 0.1)) == 1.0

    def test_reciprocal_touching_pole(self):
        # extension by zero at the pole: F_ex(0.5) - F_ex(0) = 2 - 0
        assert increment(catalog("reciprocal"), Interval(0.0, 0.5)) == 2.0

    def test_interval_outside_span_rejected(self):
        with pytest.raises(ValueError, match="^interval outside model span$"):
            increment(catalog("parabola"), Interval(0.5, 2.0))

    def test_additivity_on_shared_endpoint(self):
        model = catalog("parabola")
        whole = increment(model, Interval(0.1, 0.9))
        split = increment(model, Interval(0.1, 0.4)) + increment(model, Interval(0.4, 0.9))
        assert split == pytest.approx(whole, rel=1e-15)

    def test_span_increment_is_endpoint_difference(self):
        model = catalog("jump_linear")
        assert increment(model, model.span) == 4.0

    def test_overflowing_difference_raises(self):
        # both F values are finite; their difference is not a binary64
        model = SingularFunctionModel(F=lambda x: np.where(x < 0.5, -1.7e308, 1.7e308),
                                      f=lambda x: np.zeros_like(x), E=ExceptionalSet([0.5]),
                                      span=Interval(0.0, 1.0))
        with pytest.raises(EvaluationError,
                           match=r"^F increment over \[0\.0, 1\.0\] overflows$") as exc:
            increment(model, model.span)
        assert exc.value.points == (0.0, 1.0)
        assert increment(model, Interval(0.0, 0.25)) == 0.0

    @pytest.mark.parametrize("lo, hi, called", [
        (0.1, 0.9, [[0.1, 0.9]]), (0.25, 0.9, [[0.9]]), (0.1, 0.75, [[0.1]]), (0.25, 0.75, []),
    ])
    def test_one_F_call_on_the_ends_off_E(self, lo, hi, called):
        calls = []

        def F(x):
            calls.append(np.asarray(x).tolist())
            return np.asarray(x) ** 2

        model = simple_model(F, np.zeros_like, [0.25, 0.75], 0.0, 1.0)
        got = increment(model, Interval(lo, hi))
        assert calls == called
        F_lo, F_hi = (0.0 if x in (0.25, 0.75) else x * x for x in (lo, hi))
        assert got == F_hi - F_lo

    @pytest.mark.parametrize("lo, hi", [(0.1, 0.9), (0.6, 0.9), (0.25, 0.9), (0.1, 0.75)])
    def test_non_finite_end_raises_as_extended_values(self, lo, hi):
        # F is infinite above 0.5 and NaN under 0.2
        model = simple_model(lambda x: np.where(x > 0.5, np.inf, np.where(x < 0.2, np.nan, x)),
                             np.zeros_like, [0.25, 0.75], 0.0, 1.0)
        with pytest.raises(EvaluationError) as want:
            model.extended_values([lo, hi])
        with pytest.raises(EvaluationError) as got:
            increment(model, Interval(lo, hi))
        assert str(got.value) == str(want.value)
        assert np.asarray(got.value.points).tolist() == np.asarray(want.value.points).tolist()


class TestResidualEstimate:
    def test_heaviside_unit_residual(self):
        model = catalog("heaviside")
        sched = RefinementSchedule.for_model(model)
        verdict = residual_estimate(model, 0.0, sched)
        assert isinstance(verdict, Converged)
        assert verdict.value == 1.0 and verdict.error_estimate == 0.0

    def test_reciprocal_diverges_at_default_threshold(self):
        model = catalog("reciprocal")
        sched = RefinementSchedule.for_model(model)
        verdict = residual_estimate(model, 0.0, sched, max_depth=45)
        assert verdict == Diverged(sign=1)

    def test_oscillation_inconclusive_with_closed_form_trace(self):
        model = catalog("osc_sin_inv")
        sched = RefinementSchedule.for_model(model)
        verdict = residual_estimate(model, 0.0, sched, max_depth=20)
        assert isinstance(verdict, Inconclusive)
        for n, value in verdict.trace:
            r = sched.at(n).r
            assert value == pytest.approx(2.0 * math.sin(1.0 / r), rel=1e-12)

    def test_continuous_point_gives_zero(self):
        model = catalog("parabola")
        sched = RefinementSchedule.for_model(model)
        verdict = residual_estimate(model, 0.5, sched, tol=1e-4)
        assert isinstance(verdict, Converged)
        assert abs(verdict.value) <= 1e-3

    def test_endpoint_member_one_sided(self):
        model = catalog("sqrt_singular")
        sched = RefinementSchedule.for_model(model)
        verdict = residual_estimate(model, 0.0, sched, max_depth=25, tol=1e-4)
        assert isinstance(verdict, Converged)
        assert abs(verdict.value) <= 1e-3

    def test_non_exceptional_point_rejected(self):
        model = catalog("heaviside")
        sched = RefinementSchedule.for_model(model)
        with pytest.raises(ValueError):
            residual_estimate(model, 0.25, sched)

    def test_evaluation_failure_folds_into_verdict(self):
        model = simple_model(
            lambda x: np.log(np.asarray(x, dtype=float)),
            lambda x: 1.0 / np.asarray(x, dtype=float),
            [0.5], 0.25, 1.0,
        )
        # F undefined left of 0 never happens here, but push the bracket past
        # the span: schedule radius bigger than the distance to the span edge
        sched = RefinementSchedule(h0=1.0, r0=0.5)
        verdict = residual_estimate(model, 0.5, sched, max_depth=3)
        assert isinstance(verdict, Inconclusive)
        assert "span" in verdict.note


class TestConsistencyCheck:
    def test_correct_derivative_quiet(self):
        assert consistency_check(catalog("parabola")) == []

    def test_wrong_derivative_warns_everywhere(self):
        model = simple_model(
            lambda x: np.asarray(x, dtype=float) ** 2,
            lambda x: 3.0 * np.asarray(x, dtype=float),
            [0.5], 0.0, 1.0,
        )
        warnings = consistency_check(model, sample_count=32)
        assert len(warnings) >= 30
        assert all(w.mismatch > 1e-3 for w in warnings)

    def test_heaviside_quiet_off_step(self):
        assert consistency_check(catalog("heaviside")) == []

    def test_deterministic_given_seed(self):
        model = catalog("parabola")
        a = consistency_check(model, sample_count=16, seed=3)
        b = consistency_check(model, sample_count=16, seed=3)
        assert a == b

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            consistency_check(catalog("parabola"), sample_count=0)

    @pytest.mark.parametrize("name", ["heaviside", "reciprocal", "sqrt_singular", "parabola",
                                      "staircase3", "osc_sin_inv", "jump_linear"])
    @pytest.mark.parametrize("dsl", [False, True])
    def test_matches_one_point_walk(self, name, dsl):
        entry = catalog_entry(name)
        model = entry.model
        if dsl:
            model = SingularFunctionModel(F=CompiledFunction(entry.dsl_F),
                                          f=CompiledFunction(entry.dsl_f),
                                          E=model.E, span=model.span)
        for seed in range(3):
            assert (check_outcome(consistency_check, model, seed)
                    == check_outcome(consistency_one_point, model, seed))

    def test_warnings_match_one_point_walk(self):
        model = simple_model(CompiledFunction("x^3"), CompiledFunction("piecewise{ x < 1 : 3*x^2 ; x >= 1 : 2*x^2 }"),
                             [], -2.0, 2.0)
        warnings = consistency_check(model, sample_count=32, seed=5)
        assert 0 < len(warnings) < 32
        assert warnings == consistency_one_point(model, sample_count=32, seed=5)

    @pytest.mark.parametrize("F,f,named", [
        ("log(x)", "1/x", "F"),               # F breaks at the first negative sample
        ("x", "sqrt(x)", "f"),                # f breaks there
        ("log(x)", "sqrt(x)", "f"),           # both break at one sample: f first
        ("log(x + 0.3)", "log(x - 0.5)", None),
        ("log(x - 0.5)", "log(x + 0.3)", None),
    ])
    def test_skip_names_first_offending_sample(self, F, f, named):
        model = simple_model(CompiledFunction(F), CompiledFunction(f), [], -1.0, 1.0)
        for seed in range(4):
            outcome = check_outcome(consistency_check, model, seed)
            assert outcome == check_outcome(consistency_one_point, model, seed)
            assert outcome[0] == "error"
            if named:
                assert outcome[1].startswith(f"{named} is non-finite")


# Models whose F or f return one scalar for a whole array of points, with
# the value of their integral over the span.
SCALAR_MODELS = {
    "slope-two": (SingularFunctionModel(F=lambda x: 2 * x, f=lambda x: 2.0,
                                        E=ExceptionalSet(), span=Interval(0, 1)), 2.0),
    "constant": (SingularFunctionModel(F=lambda x: 1.0, f=lambda x: 0.0,
                                       E=ExceptionalSet([0.5]), span=Interval(0, 1)), 0.0),
}

# Each entry point on a model, as a value that compares with ==.
ENTRY_POINTS = {
    "total_kh": total_kh,
    "plain_kh": plain_kh,
    "decompose": lambda m: decompose(m).to_json(),
    "build_straddle_verified": lambda m: partition_to_csv(build_straddle_verified(m, 0.1)),
    "straddle_chunks": lambda m: [[np.asarray(v).tolist() for v in item]
                                  for item in straddle_chunks(m, m.span, 0.1)],
    "consistency_check": consistency_check,
    "riemann_sum": lambda m: riemann_sum(m, build_straddle_verified(m, 0.1)),
    "residue_table": lambda m: residue_table(m, MAX_DEPTH, TOL, DIV_THRESHOLD),
}


class TestScalarReturn:
    """F and f may return one scalar standing for every point."""

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("name", SCALAR_MODELS)
    def test_same_as_array_return(self, name, entry):
        model, _ = SCALAR_MODELS[name]
        twin = dataclasses.replace(
            model, F=lambda x: np.full(np.shape(x), model.F(x), dtype=float),
            f=lambda x: np.full(np.shape(x), model.f(x), dtype=float))
        run = ENTRY_POINTS[entry]
        assert run(model) == run(twin)

    @pytest.mark.parametrize("name", SCALAR_MODELS)
    def test_verified_and_converged(self, name):
        model, value = SCALAR_MODELS[name]
        assert total_kh(model).verified
        verdict = plain_kh(model)
        assert isinstance(verdict, Converged) and verdict.value == value
        assert consistency_check(model) == []
