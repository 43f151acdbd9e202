import dataclasses

import numpy as np
import pytest

from gaugeint import (
    CATALOG_NAMES,
    BuildError,
    BuildLimits,
    Converged,
    Diverged,
    EvaluationError,
    ExceptionalSet,
    Inconclusive,
    Interval,
    NotLocallyConstant,
    KahanAccumulator,
    RefinementSchedule,
    SingularFunctionModel,
    basic_sum_sequence,
    catalog,
    catalog_entry,
    decompose,
    increment,
    plain_kh,
    residual_estimate,
    residue_check,
    residue_table,
    total_kh,
)
from gaugeint.builders import straddle_chunks
from gaugeint.integrate import _ROUNDING, _straddle_sums
from gaugeint.sums import _anchor_rows, _kahan_sum
from gaugeint.verdicts import DIV_THRESHOLD, MAX_DEPTH, TOL, SequenceClassifier
from gaugeint.cli import ResidualsSummary

ENVELOPE = {"total", "verification", "kh", "basic_sum", "residuals", "identity_gap"}


def residues_summary(model):
    bs_rows, bs_verdict, residuals = residue_table(
        model, RefinementSchedule.for_model(model), 20, 1e-6, 1e12
    )
    return ResidualsSummary(basic_sum_verdict=bs_verdict, residuals=residuals)


def scaled_model(model, c):
    return SingularFunctionModel(
        F=lambda x, m=model, c=c: c * np.asarray(m.F(x)),
        f=lambda x, m=model, c=c: c * np.asarray(m.f(x)),
        E=model.E, span=model.span,
    )


def shifted_model(model, c):
    return SingularFunctionModel(
        F=lambda x, m=model, c=c: np.asarray(m.F(x)) + c,
        f=model.f, E=model.E, span=model.span,
    )


class TestTotalKH:
    def test_heaviside_exact_zero_residuals(self):
        report = total_kh(catalog("heaviside"))
        assert report.total == 1.0
        assert report.verified
        for row in report.rows:
            assert row.residual == 0.0

    def test_reciprocal_value_and_bound(self):
        report = total_kh(catalog("reciprocal"), epsilons=[1e-3], r=0.05)
        assert report.total == 1.5
        row = report.rows[0]
        assert row.ok and row.residual <= 3e-3
        assert row.pairs <= 10_000_000

    def test_parabola_all_rows(self):
        report = total_kh(catalog("parabola"))
        assert report.total == 1.0
        assert report.verified and len(report.rows) == 3

    def test_total_independent_of_anchor_radius(self):
        model = catalog("reciprocal")
        totals = {total_kh(model, epsilons=[1e-2], r=r).total for r in (0.05, 0.1, 0.15)}
        assert totals == {1.5}  # bit-for-bit identical

    def test_scaling_equivariance(self):
        base = catalog("parabola")
        c = 3.0
        rep1 = total_kh(base, epsilons=[1e-3])
        rep2 = total_kh(scaled_model(base, c), epsilons=[3e-3])
        assert rep2.total == pytest.approx(c * rep1.total, rel=1e-15)
        assert rep2.verified
        assert rep2.rows[0].residual <= c * rep1.rows[0].bound

    def test_failed_row_leaves_others_standing(self):
        model = catalog("reciprocal")
        report = total_kh(model, epsilons=[1e-3, 1e-12], r=0.05,
                          limits=BuildLimits(max_pairs=2_000_000))
        ok_rows = [row for row in report.rows if row.error is None]
        bad_rows = [row for row in report.rows if row.error is not None]
        assert len(ok_rows) == 1 and ok_rows[0].ok
        assert len(bad_rows) == 1
        assert not report.verified

    def test_sqrt_edge_singularity_verifies(self):
        report = total_kh(catalog("sqrt_singular"))
        assert report.total == 1.0
        assert report.verified

    def test_desk_scale_catalog_invariant(self):
        # every catalog model with a known antiderivative verifies at the
        # three standard tolerances
        for name in ("heaviside", "reciprocal", "sqrt_singular", "parabola",
                     "staircase3", "jump_linear", "osc_sin_inv"):
            report = total_kh(catalog(name))
            assert report.verified, name


class TestPlainKH:
    def test_heaviside_exactly_zero(self):
        verdict = plain_kh(catalog("heaviside"))
        assert verdict == Converged(value=0.0, error_estimate=0.0, depth=3)

    def test_reciprocal_diverges(self):
        model = catalog("reciprocal")
        sched = RefinementSchedule.for_model(model, eps0=1e-2, eps_factor=0.995)
        verdict = plain_kh(model, schedule=sched, max_depth=12, div_threshold=100.0)
        assert verdict == Diverged(sign=-1)

    def test_sqrt_converges_to_antiderivative_integral(self):
        # oracle: integral of 1/(2 sqrt(x)) over [0,1] is sqrt(1) - sqrt(0) = 1
        model = catalog("sqrt_singular")
        sched = RefinementSchedule.for_model(model, eps0=1e-4, eps_factor=0.99)
        verdict = plain_kh(model, schedule=sched, max_depth=20, tol=4e-4,
                           limits=BuildLimits(max_pairs=20_000_000))
        assert isinstance(verdict, Converged)
        assert abs(verdict.value - 1.0) <= 1e-3

    def test_budget_death_is_inconclusive_with_note(self):
        # parabola's ladder can reach a verdict, so it builds depth by depth
        # until depth 6's 65 pairs pass the 50-pair cap
        model = catalog("parabola")
        verdict = plain_kh(model, limits=BuildLimits(max_pairs=50))
        assert isinstance(verdict, Inconclusive)
        assert verdict.note.startswith("build failed at depth 6: ")
        assert verdict.note.endswith("(cap 50)")


    def test_evaluation_error_propagates(self):
        model = SingularFunctionModel(
            F=lambda x: np.asarray(x, dtype=float), f=lambda x: 1.0 / np.asarray(x, dtype=float),
            E=ExceptionalSet(), span=Interval(-1.0, 1.0),
        )
        with pytest.raises(EvaluationError):
            plain_kh(model)


    @pytest.mark.parametrize("name, value, depth", [("parabola", 1.0, 19), ("jump_linear", 2.0, 20)])
    def test_defaults_converge_to_oracle(self, name, value, depth):
        verdict = plain_kh(catalog(name))
        assert isinstance(verdict, Converged)
        assert verdict.depth == depth
        assert abs(verdict.value - value) <= 1e-6


def punctured_model(F, f):
    """F and f on [0, 1] with the one declared exceptional point 0.5."""
    return SingularFunctionModel(F=F, f=f, E=ExceptionalSet([0.5]), span=Interval(0.0, 1.0))


def f_bump(lo, hi, height):
    """The derivative of x^2, wrong by ``height`` on [lo, hi] only."""
    return lambda x: 2 * np.asarray(x) + height * ((np.asarray(x) >= lo) & (np.asarray(x) <= hi))


class TestHonesty:
    """A plain-integral verdict is never manufactured: a model whose declared
    data is wrong somewhere off E ends with the build failure named."""

    @pytest.mark.parametrize("F, f", [
        (lambda x: np.asarray(x) ** 2 + 1e-3 * (np.asarray(x) >= 0.3), lambda x: 2 * np.asarray(x)),
        (lambda x: np.asarray(x) ** 2 + 1e-7 * (np.asarray(x) >= 0.3), lambda x: 2 * np.asarray(x)),
        (lambda x: np.asarray(x) ** 2, lambda x: 2 * np.asarray(x) + 1e-6),
        # f alone is wrong, on regions no gap midpoint of an uncapped build
        # reaches: only the capped depths see them
        (lambda x: np.asarray(x) ** 2, f_bump(0.05, 0.15, 1.0)),
        (lambda x: np.asarray(x) ** 2, f_bump(0.6, 0.62, 1.0)),
        (lambda x: np.asarray(x) ** 2, f_bump(0.05, 0.15, 1e-4)),
    ], ids=["undeclared-jump-1e-3", "undeclared-jump-1e-7", "slope-off-1e-6",
            "f-bump-wide", "f-bump-narrow", "f-bump-1e-4"])
    def test_stays_inconclusive(self, F, f):
        verdict = plain_kh(punctured_model(F, f))
        assert isinstance(verdict, Inconclusive)
        assert verdict.note.startswith("build failed at depth ")

    def test_fast_oscillation_stops_at_the_floor(self):
        # correct data, but sin(50x) needs cells too narrow for the tolerance
        # before the ladder can settle.  Its basic sum moves by more than tol
        # per depth up to depth 21, so by depth 20 no verdict is reachable and
        # only depth 0 and the f check are built; by depth 25 one is, and the
        # ladder runs until a build meets the floor
        model = punctured_model(lambda x: np.sin(50 * np.asarray(x)),
                                lambda x: 50 * np.cos(50 * np.asarray(x)))
        assert plain_kh(model).note == "no verdict reachable by depth 20"
        verdict = plain_kh(model, max_depth=25)
        assert isinstance(verdict, Inconclusive)
        assert verdict.note.startswith("build failed at depth ")
        assert verdict.note.endswith("rejected errors are at the floating-point evaluation floor")

    @pytest.mark.parametrize("c", [0.1, 0.15, 0.3, 0.6])
    def test_kink_converges_to_true_integral(self, c):
        # sign(x - c) integrates to (1 - c) - c over [0, 1]
        verdict = plain_kh(punctured_model(lambda x: np.abs(np.asarray(x) - c),
                                           lambda x: np.sign(np.asarray(x) - c)))
        assert isinstance(verdict, Converged)
        assert abs(verdict.value - (1 - 2 * c)) <= 1e-6

    def test_max_depth_stop_is_named(self):
        # correct data whose ladder could settle from depth 3 on (E is empty,
        # so every identity band has the same centre) but still moves by more
        # than tol at depth 5: the note says the depths ran out, and no build
        # failed
        model = SingularFunctionModel(F=lambda x: np.asarray(x) ** 3,
                                      f=lambda x: 3 * np.asarray(x) ** 2,
                                      E=ExceptionalSet(), span=Interval(0.0, 1.0))
        verdict = plain_kh(model, max_depth=5)
        assert isinstance(verdict, Inconclusive)
        assert verdict.note == "no verdict by max depth 5"
        assert len(verdict.trace) == 6

    def test_unreachable_verdict_is_named(self):
        # 100 x^2 punctured at 0.5: the basic sum 5 * 2^-n moves by more than
        # tol per depth through depth 21, so no depth up to 20 can settle
        model = punctured_model(lambda x: 100 * np.asarray(x) ** 2, lambda x: 200 * np.asarray(x))
        verdict = plain_kh(model)
        assert isinstance(verdict, Inconclusive)
        assert verdict.note == "no verdict reachable by depth 20"
        assert [depth for depth, _ in verdict.trace] == [0]


def kh_note(report):
    """The kh verdict's note, the one record of why the ladder stopped."""
    return report.kh_verdict.note if isinstance(report.kh_verdict, Inconclusive) else ""


class TestBuildDiagnostic:
    """A failed plain-integral build is named by the kh verdict's note alone,
    at the depth the ladder stopped."""

    def test_equals_kh_note_when_a_build_fails(self):
        # parabola's ladder can reach a verdict, so its builds run until one
        # passes the pair cap
        report = decompose(catalog("parabola"), limits=BuildLimits(max_pairs=50))
        assert len(report.kh_rows) == 6
        assert kh_note(report).startswith(f"build failed at depth {len(report.kh_rows)}: ")

    @pytest.mark.parametrize("name, max_depth, kind", [
        ("heaviside", 20, "converged"), ("parabola", 2, "inconclusive"),
    ])
    def test_none_without_a_build_failure(self, name, max_depth, kind):
        report = decompose(catalog(name), max_depth=max_depth)
        assert report.kh_verdict.kind == kind
        assert "build failed" not in kh_note(report)
        if kind == "inconclusive":
            # no verdict can fire before depth 3, so none is reachable by 2
            assert kh_note(report) == f"no verdict reachable by depth {max_depth}"


def unpruned_ladder(model):
    """The default plain-integral ladder built depth by depth, without the
    reachability prune: ``(rows, verdict)``, rows ``(n, Riemann sum)`` up to
    the first verdict or build failure, verdict None where none fired."""
    sched = RefinementSchedule.for_model(model)
    clf = SequenceClassifier(tol=TOL, div_threshold=DIV_THRESHOLD)
    rows = []
    for n in range(MAX_DEPTH + 1):
        step = sched.at(n)
        try:
            value = _straddle_sums(model, step.r, step.eps, BuildLimits(), step.h).riemann
        except BuildError:
            break
        rows.append((n, value))
        verdict = clf.push(n, value)
        if verdict is not None:
            return rows, verdict
    return rows, None


CONVERGING = ["heaviside", "jump_linear", "parabola", "staircase3"]


class TestReachabilityPrune:
    """Depth n's Riemann sum lies within eps_n * L of total - B_n, so the
    basic sum B_n shows before any build whether a verdict is reachable."""

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_identity_bound_holds_at_every_built_depth(self, name):
        # the premise of the prune, on every depth the unpruned ladder builds
        # (measured at most 8.6% of eps_n * L, on sqrt_singular)
        model = catalog(name)
        sched = RefinementSchedule.for_model(model)
        total = increment(model, model.span)
        row = _anchor_rows(model, sched)
        rows, _ = unpruned_ladder(model)
        assert rows
        for n, value in rows:
            b = _kahan_sum(row(n))
            bound = sched.at(n).eps * model.span.length + _ROUNDING * (abs(total) + abs(b))
            assert abs(value - (total - b)) <= bound, (n, value)

    @pytest.mark.parametrize("name", CONVERGING)
    def test_converging_ladders_unchanged(self, name):
        model = catalog(name)
        rows, verdict = unpruned_ladder(model)
        assert isinstance(verdict, Converged)
        report = decompose(model)
        assert report.kh_verdict == verdict
        assert [(row.depth, row.value) for row in report.kh_rows] == rows

    @pytest.mark.parametrize("name, most_F, most_f", [
        ("heaviside", 19, 14), ("jump_linear", 70, 48), ("parabola", 67, 46),
        ("staircase3", 33, 28),
    ])
    def test_converging_decompose_calls(self, name, most_F, most_f):
        # the F and f calls of one decompose before the prune; with it depth 0
        # reuses total_kh's eps 1e-2 build (measured 17 / 68 / 65 / 29 F and
        # 12 / 46 / 44 / 24 f calls)
        model = catalog(name)
        calls = {"F": 0, "f": 0}

        def counted(key, fn):
            def call(x):
                calls[key] += 1
                return fn(x)
            return call

        decompose(dataclasses.replace(model, F=counted("F", model.F), f=counted("f", model.f)))
        assert calls["F"] < most_F and calls["f"] < most_f

    @pytest.mark.parametrize("name", ["osc_sin_inv", "reciprocal", "sqrt_singular"])
    def test_unreachable_catalog_ladders(self, name):
        report = decompose(catalog(name))
        assert report.kh_verdict.note == "no verdict reachable by depth 20"
        assert [row.depth for row in report.kh_rows] == [0]

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_plain_kh_agrees_with_decompose(self, name):
        assert plain_kh(catalog(name)) == decompose(catalog(name)).kh_verdict

    @pytest.mark.parametrize("name, lo", [
        ("sqrt_singular", 0.6), ("reciprocal", 0.6), ("osc_sin_inv", 0.3),
    ])
    def test_f_check_finds_a_narrow_bump(self, name, lo):
        # f wrong by 1e-3 on [lo, lo + 0.0015), where F is right: a build at
        # eps 1e-2 or 1e-3 passes over it, and the unpruned ladder failed at
        # depth 2-4; the f check at eps tol / L fails on it
        base = catalog(name)
        model = dataclasses.replace(base, f=lambda x: base.f(x) + 1e-3 * (
            (np.asarray(x) >= lo) & (np.asarray(x) < lo + 0.0015)))
        verdict = decompose(model).kh_verdict
        assert isinstance(verdict, Inconclusive)
        assert verdict.note.startswith("build failed in the f check ")


class TestFailedRowPairs:
    def test_failed_row_reports_the_pairs_streamed_before_the_raise(self):
        # a tolerance far under reciprocal's evaluation floor fails its build
        # after some pairs; the row counts them from the raised error
        model = catalog("reciprocal")
        r = RefinementSchedule.for_model(model).r0
        streamed = 0
        with pytest.raises(BuildError) as exc:
            for item in straddle_chunks(model, r=r, eps=1e-9):
                streamed += 1 if item[0] == "anchor" else len(item[2])
        row, = total_kh(model, epsilons=[1e-9]).rows
        assert row.error == str(exc.value)
        assert row.pairs == exc.value.pairs_built == streamed > 0


CRIT3_OPTS = dict(max_depth=20, tol=5e-3, div_threshold=1e12,
                  limits=BuildLimits(max_pairs=20_000_000))


def crit3_schedule(model):
    return RefinementSchedule.for_model(model, eps0=8e-6, eps_factor=0.995)


class TestDecompose:
    def test_heaviside_complete(self):
        report = decompose(catalog("heaviside"))
        assert report.total == 1.0
        assert report.kh_verdict.value == 0.0
        assert report.basic_sum_verdict.value == 1.0
        assert report.residuals[0.0].value == 1.0
        assert report.identity_gap == 0.0
        assert report.residue_sum_gap == 0.0
        assert report.lemma_consistent

    def test_jump_linear_identity(self):
        model = catalog("jump_linear")
        report = decompose(model, schedule=crit3_schedule(model), **CRIT3_OPTS)
        assert report.total == 4.0
        assert abs(report.kh_verdict.value - 2.0) <= 1e-3
        assert abs(report.basic_sum_verdict.value - 2.0) <= 1e-3
        assert report.identity_gap <= 1e-6

    def test_reciprocal_identity_undefined(self):
        model = catalog("reciprocal")
        sched = RefinementSchedule.for_model(model, eps0=1e-2, eps_factor=0.995)
        report = decompose(model, schedule=sched, max_depth=12, div_threshold=100.0)
        assert report.total == 1.5
        assert isinstance(report.kh_verdict, Diverged)
        assert report.basic_sum_verdict == Diverged(sign=1)
        assert report.residuals[0.0] == Diverged(sign=1)
        assert report.identity_gap is None
        assert report.lemma_consistent  # both diverged: consistent

    def test_staircase_decomposition(self):
        report = decompose(catalog("staircase3"))
        assert report.total == 1.25
        assert report.kh_verdict.value == 0.0
        assert report.basic_sum_verdict.value == 1.25
        assert report.residue_sum_gap == 0.0
        got = {e: v.value for e, v in report.residuals.items()}
        assert got == {0.5: 0.5, 1.5: 1.0, 2.5: -0.25}

    def test_oracle_catalog_identities(self):
        for name in ("parabola", "sqrt_singular", "jump_linear", "staircase3"):
            model = catalog(name)
            entry = catalog_entry(name)
            report = decompose(model, schedule=crit3_schedule(model), **CRIT3_OPTS)
            assert report.total == entry.total, name
            assert isinstance(report.kh_verdict, Converged), name
            assert isinstance(report.basic_sum_verdict, Converged), name
            assert abs(report.kh_verdict.value - entry.kh_value) <= 1e-2, name
            assert abs(report.basic_sum_verdict.value - entry.basic_sum) <= 1e-2, name
            assert report.identity_gap <= 1e-5, name

    @pytest.mark.parametrize("name", ["parabola", "jump_linear"])
    def test_defaults_close_identity(self, name):
        # past the capped depths each Riemann sum is the off-anchor increment
        # sum of F to rounding, and the capped depths tested f against F
        report = decompose(catalog(name))
        assert report.identity_gap == 0.0

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_defaults_stay_under_pair_cap(self, name):
        report = decompose(catalog(name))
        assert "(cap " not in kh_note(report), kh_note(report)
        assert all(row.ok for row in report.verification.rows)

    def test_lemma_consistency_bound(self):
        # whenever both limits converge, the identity gap sits within the
        # combined classifier tolerance
        for name in ("heaviside", "parabola", "jump_linear", "staircase3"):
            model = catalog(name)
            report = decompose(model, schedule=crit3_schedule(model), **CRIT3_OPTS)
            if isinstance(report.kh_verdict, Converged) and isinstance(
                report.basic_sum_verdict, Converged
            ):
                assert report.identity_gap <= report.identity_tolerance, name

    def test_shift_invariance_at_continuous_points(self):
        base = catalog("parabola")
        shifted = shifted_model(base, 0.25)
        r1 = decompose(base, schedule=crit3_schedule(base), **CRIT3_OPTS)
        r2 = decompose(shifted, schedule=crit3_schedule(shifted), **CRIT3_OPTS)
        assert r1.total == r2.total  # exact for this shift
        assert r2.kh_verdict.value == pytest.approx(r1.kh_verdict.value, abs=1e-9)
        assert r2.basic_sum_verdict.value == pytest.approx(
            r1.basic_sum_verdict.value, abs=1e-9
        )

    def test_empty_exceptional_set(self):
        model = SingularFunctionModel(
            F=lambda x: np.asarray(x, dtype=float) ** 2,
            f=lambda x: 2.0 * np.asarray(x, dtype=float),
            E=ExceptionalSet(), span=Interval(0.0, 1.0),
        )
        report = decompose(model, tol=2e-3)
        assert report.total == 1.0
        assert report.basic_sum_verdict == Converged(value=0.0, error_estimate=0.0, depth=0)
        assert report.residuals == {}

    def test_empty_residual_sum_is_zero(self):
        report = decompose(constant_without_points())
        assert report.basic_sum_verdict == Converged(value=0.0, error_estimate=0.0, depth=0)
        assert report.residue_sum_gap == 0.0

    @pytest.mark.parametrize("make, filled", [
        (decompose, ENVELOPE),
        (total_kh, {"total", "verification"}),
        (residue_check, {"total", "residuals", "identity_gap"}),
        (residues_summary, {"basic_sum", "residuals"}),
    ], ids=["decompose", "total_kh", "residue_check", "residues_summary"])
    def test_json_document_schema(self, make, filled):
        doc = make(catalog("heaviside")).to_json()
        assert set(doc) == ENVELOPE
        for key in ENVELOPE - filled:
            assert doc[key] in (None, [], {}), key
        if "kh" in filled:
            assert doc["kh"]["kind"] == "converged"
        if "residuals" in filled:
            assert doc["residuals"]["0.0"]["value"] == 1.0


def constant_without_points():
    """F = 2 and f = 0 on [0, 1] with an empty exceptional set."""
    return SingularFunctionModel(
        F=lambda x: np.full_like(np.asarray(x, dtype=float), 2.0),
        f=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        E=ExceptionalSet(), span=Interval(0.0, 1.0),
    )


class TestResidueCheck:
    def test_empty_exceptional_set(self):
        report = residue_check(constant_without_points())
        assert (report.lhs, report.rhs, report.gap, report.residuals) == (0.0, 0.0, 0.0, {})

    def test_staircase_matches_endpoint_difference(self):
        report = residue_check(catalog("staircase3"))
        assert report.lhs == 1.25
        assert report.rhs == 1.25
        assert report.gap == 0.0

    def test_heaviside(self):
        report = residue_check(catalog("heaviside"))
        assert report.lhs == 1.0 and report.rhs == 1.0 and report.gap == 0.0

    def test_parabola_precondition_fails(self):
        with pytest.raises(NotLocallyConstant):
            residue_check(catalog("parabola"))

    def test_sampled_points_reported(self):
        with pytest.raises(NotLocallyConstant) as exc:
            residue_check(catalog("jump_linear"))
        assert len(exc.value.points) >= 1


def guarded_model(model):
    """``model`` with F and f that raise on any point of its exceptional set."""
    points = np.asarray(model.E.points)

    def guard(name, fn):
        def wrapped(x):
            hit = np.isin(np.atleast_1d(np.asarray(x, dtype=float)), points)
            if hit.any():
                raise AssertionError(f"{name} called on the exceptional set")
            return fn(x)
        return wrapped

    return SingularFunctionModel(F=guard("F", model.F), f=guard("f", model.f), E=model.E,
                                 span=model.span, provenance=model.provenance)


def step_model():
    """F = 1 on [0, 1/2) and 3 on [1/2, 1], f = 0, E = {0, 1/2}."""
    return SingularFunctionModel(
        F=lambda x: np.where(np.asarray(x, dtype=float) < 0.5, 1.0, 3.0),
        f=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        E=ExceptionalSet([0.0, 0.5]), span=Interval(0.0, 1.0),
    )


class TestExtensionRule:
    """F = f = 0 on E: no computation evaluates F or f there, and every
    endpoint difference is that of the extended F."""

    def test_F_and_f_never_called_on_E(self):
        for name in CATALOG_NAMES:
            m = guarded_model(catalog(name))
            sched = RefinementSchedule.for_model(m)
            decompose(m)
            total_kh(m)
            basic_sum_sequence(m, sched)
            for e in m.E:
                residual_estimate(m, e, sched)
            increment(m, m.span)
            if name in ("heaviside", "staircase3"):
                residue_check(m)

    def test_step_residues_add_up_to_the_total(self):
        m = step_model()
        report = residue_check(m)
        assert report.lhs == total_kh(m).total == 3.0
        assert [v.value for v in report.residuals.values()] == [1.0, 2.0]
        assert report.gap == 0.0
        assert decompose(m).residue_sum_gap == 0.0

    def test_log_residual_is_log_radius(self):
        m = SingularFunctionModel(
            F=lambda x: np.log(np.asarray(x, dtype=float)),
            f=lambda x: 1.0 / np.asarray(x, dtype=float),
            E=ExceptionalSet([0.0]), span=Interval(0.0, 1.0),
        )
        sched = RefinementSchedule.for_model(m)
        verdict = residual_estimate(m, 0.0, sched)
        assert isinstance(verdict, Inconclusive)
        assert "evaluation" not in verdict.note
        assert verdict.trace == tuple((n, float(np.log(sched.at(n).r))) for n in range(21))

    @pytest.mark.parametrize("model", [catalog("staircase3"), step_model()],
                             ids=["staircase3", "step"])
    def test_basic_sum_is_the_sum_of_residuals_at_every_depth(self, model):
        sched = RefinementSchedule.for_model(model)
        trace, _ = basic_sum_sequence(model, sched)
        for n, value in trace:
            # a schedule whose depth 0 is depth n of ``sched``
            at_n = RefinementSchedule(h0=sched.h0, r0=sched.at(n).r)
            acc = KahanAccumulator()
            for e in model.E:
                acc.add(residual_estimate(model, e, at_n, max_depth=0).trace[0][1])
            assert acc.total == value
