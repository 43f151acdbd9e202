import dataclasses
import io
from contextlib import redirect_stderr, redirect_stdout

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
    FloorReached,
    Inconclusive,
    Interval,
    NotLocallyConstant,
    KahanAccumulator,
    RefinementSchedule,
    SingularFunctionModel,
    StraddleFailure,
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
from gaugeint.partition import anchor_cells
from gaugeint import cli, integrate
from gaugeint.integrate import EPSILONS, _straddle_sums
from gaugeint.sums import AnchorTable
from gaugeint.verdicts import DIV_THRESHOLD, MAX_DEPTH, TOL, SequenceClassifier
from gaugeint.cli import ResidualsSummary, run
from test_builders import JUMP_LINEAR_VARIANTS, PROBE_MODELS, call_budgeted

ENVELOPE = {"total", "verification", "kh", "basic_sum", "residuals", "identity_gap"}


def residues_summary(model):
    _, bs_verdict, residuals = residue_table(model, 20, 1e-6, 1e12)
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


# The catalog and the probes, the latter as "probe:<name>" on punctured_model.
ROW_MODELS = [*CATALOG_NAMES, *(f"probe:{p}" for p in PROBE_MODELS)]


# f wrong by c on [lo, hi): each bump moves the integral of f by 1e-2, 33-100x
# the bound of a 1e-4 verification row, on a region narrower than its cells
BLIND_SPOTS = {
    "heaviside": (0.6, 0.61, 1.0),
    "jump_linear": (0.3, 0.31, 1.0),
    "parabola": (0.6, 0.61, 1.0),
    "sqrt_singular": (0.6, 0.601, 10.0),
    "staircase3": (0.2, 0.21, 1.0),
}


def bumped_f(model, lo, hi, c):
    """``model`` with c added to its declared derivative on [lo, hi)."""
    def f(x, m=model):
        x = np.asarray(x, dtype=float)
        return np.asarray(m.f(x), dtype=float) + np.where((lo <= x) & (x < hi), c, 0.0)
    return dataclasses.replace(model, f=f)


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

    @pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (-1.0, 1.0), (0.0, 3.0)])
    def test_equally_spaced_points_verify(self, lo, hi):
        # the first anchor cells of points n equal parts apart leave room
        # between them: at half the gap their rounded ends could leave a
        # one-ulp sliver that no straddle cell covers (82 of these 114 grids
        # failed so)
        for n in range(2, 40):
            model = SingularFunctionModel(
                F=lambda x: np.asarray(x, dtype=float) ** 2,
                f=lambda x: 2.0 * np.asarray(x, dtype=float),
                E=ExceptionalSet(np.linspace(lo, hi, n + 1)[1:-1].tolist()),
                span=Interval(lo, hi))
            report = total_kh(model, epsilons=[1e-3])
            assert report.verified, (n, report.rows[0].error)

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

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_one_build_witnesses_every_row(self, name):
        # the build at the finest tolerance keeps every cell within
        # 1e-4 * width, so it is the witness of the 1e-3 and 1e-2 rows too
        model, calls = counting_calls(catalog(name))
        finest = total_kh(model, epsilons=[1e-4])
        alone = dict(calls)
        calls.update(F=0, f=0)
        report = total_kh(model)
        assert calls == alone
        assert {(row.pairs, row.residual) for row in report.rows} == {
            (finest.rows[0].pairs, finest.rows[0].residual)}

    @pytest.mark.parametrize("name", ROW_MODELS)
    def test_rows_match_one_tolerance_builds(self, name):
        # a shared witness never turns a row's outcome: each row is ok, or
        # carries an error, exactly when its own build alone does
        model = row_model(name)
        report = total_kh(model)
        alone = [total_kh(model, epsilons=[eps]).rows[0] for eps in (1e-2, 1e-3, 1e-4)]
        assert [(row.ok, row.error is None) for row in report.rows] == [
            (row.ok, row.error is None) for row in alone]
        if name == "probe:undeclared-jump-1e-3":
            # the 1e-4 and 1e-3 builds fail on the jump and the 1e-2 one
            # passes over it, so the rows stay mixed
            assert [row.ok for row in report.rows] == [True, False, False]
            assert report.rows[0].error is None
            assert report.rows[1].error and report.rows[2].error

    def test_no_tolerance_builds_nothing(self):
        model, calls = counting_calls(catalog("reciprocal"))
        report = total_kh(model, epsilons=())
        assert report.rows == () and not report.verified
        assert report.total == 1.5
        assert calls == {"F": 1, "f": 0}  # the endpoint difference alone

    def test_duplicate_and_unsorted_tolerances_keep_their_order(self):
        model, calls = counting_calls(catalog("sqrt_singular"))
        total_kh(model, epsilons=[1e-4])
        alone = dict(calls)
        calls.update(F=0, f=0)
        epsilons = [1e-3, 1e-2, 1e-4, 1e-3]
        report = total_kh(model, epsilons=epsilons)
        assert [row.epsilon for row in report.rows] == epsilons
        assert [row.bound for row in report.rows] == epsilons  # span length 1
        assert calls == alone
        assert report.verified

    @pytest.mark.xfail(raises=AssertionError, strict=True, reason=(
        "ROADMAP item 15: the rows build with no mesh cap, so their few midpoint "
        "tags can skip a narrow region where f is wrong"))
    @pytest.mark.parametrize("name", sorted(BLIND_SPOTS))
    def test_rows_fail_on_a_narrow_wrong_f(self, name):
        assert not total_kh(bumped_f(catalog(name), *BLIND_SPOTS[name])).verified

    @pytest.mark.xfail(raises=AssertionError, strict=True, reason=(
        "ROADMAP item 15: the verify command reads the same uncapped rows"))
    def test_verify_command_fails_on_a_narrow_wrong_f(self, capsys):
        code = run(["verify", "--function", "x^2", "--derivative",
                    "piecewise{ x < 0.6 : 2*x ; x < 0.61 : 2*x + 1 ; x <= 1 : 2*x }",
                    "--span", "0,1", "--exceptional="])
        assert code != 0, capsys.readouterr().out

    @pytest.mark.parametrize("name", sorted(BLIND_SPOTS))
    def test_f_check_fails_on_a_narrow_wrong_f(self, name):
        # the f check's mesh cap of L/4096 samples the bump
        note = decompose(bumped_f(catalog(name), *BLIND_SPOTS[name])).kh_verdict.note
        assert note.startswith("build failed in the f check ")


def row_model(name):
    """The model a ``ROW_MODELS`` name stands for."""
    if name.startswith("probe:"):
        return punctured_model(*PROBE_MODELS[name[len("probe:"):]])
    return catalog(name)


def counting_calls(model):
    """``model`` with F and f wrapped to count their calls, and the counts."""
    calls = {"F": 0, "f": 0}

    def counted(key, fn):
        def call(x):
            calls[key] += 1
            return fn(x)
        return call

    return dataclasses.replace(model, F=counted("F", model.F), f=counted("f", model.f)), calls


class TestPlainKH:
    def test_heaviside_exactly_zero(self):
        verdict = plain_kh(catalog("heaviside"))
        assert verdict == Converged(value=0.0, error_estimate=0.0, depth=3)

    def test_reciprocal_diverges(self):
        model = catalog("reciprocal")
        verdict = plain_kh(model, max_depth=12, div_threshold=100.0)
        assert verdict == Diverged(sign=-1)

    def test_sqrt_converges_to_antiderivative_integral(self):
        # oracle: integral of 1/(2 sqrt(x)) over [0,1] is sqrt(1) - sqrt(0) = 1
        model = catalog("sqrt_singular")
        verdict = plain_kh(model, max_depth=20, tol=4e-4)
        assert isinstance(verdict, Converged)
        assert abs(verdict.value - 1.0) <= 1e-3

    def test_budget_death_is_inconclusive_with_note(self):
        # the one certificate build, the f check at the verdict's depth 19,
        # has a mesh cap of 1/4096 of the span and needs more than 50 pairs,
        # so no row is certified
        model = catalog("parabola")
        verdict = plain_kh(model, limits=BuildLimits(max_pairs=50))
        assert isinstance(verdict, Inconclusive)
        assert verdict.trace == ()
        assert verdict.note.startswith(
            "build failed in the f check (r 9.54e-08, eps 1e-06, mesh cap 0.000244): ")
        assert verdict.note.endswith("(cap 50)")


    def test_evaluation_error_propagates(self):
        # f = 1/x is non-finite at the undeclared point 0.  plain_kh's only
        # build is the f check, whose first cell at tag -1 already fails on
        # the mismatch f(-1) = -1 against F' = 1 before a tag reaches 0, so
        # it witnesses no verification row; the rows' own first build, at
        # the finest tolerance, tags 0, and decompose raises there
        model = SingularFunctionModel(
            F=lambda x: np.asarray(x, dtype=float), f=lambda x: 1.0 / np.asarray(x, dtype=float),
            E=ExceptionalSet(), span=Interval(-1.0, 1.0),
        )
        with pytest.raises(EvaluationError) as exc:
            decompose(model)
        assert exc.value.points == (0.0,)
        verdict = plain_kh(model)
        assert isinstance(verdict, Inconclusive) and verdict.trace == ()
        assert verdict.note.startswith("build failed in the f check ")
        assert "at tag -1.0 " in verdict.note
        assert verdict.note.endswith("declared derivative does not match F here")

    @pytest.mark.parametrize("name, most_F, most_f", [
        ("heaviside", 4, 2), ("jump_linear", 4, 2), ("parabola", 4, 2), ("staircase3", 6, 4),
    ])
    def test_one_certificate_build(self, name, most_F, most_f, monkeypatch):
        # a standalone plain_kh makes the anchor table's F call and the
        # calls of one build, the f check (measured 4 / 4 / 4 / 6 F and
        # 2 / 2 / 2 / 4 f calls; 6 / 6 / 6 / 10 F calls when depth 0's
        # schedule build was made too).  A converged kh's f check, at tol / L,
        # witnesses every verification row at its own anchor radius, so a
        # decompose makes exactly plain_kh's calls, and an anchor radius set
        # by the caller adds no build: no row is left for it
        model, calls = counting_calls(catalog(name))
        plain_kh(model)
        assert calls["F"] <= most_F and calls["f"] <= most_f
        alone = dict(calls)
        calls.update(F=0, f=0)
        decompose(model)
        assert calls == alone
        builds = recorded_builds(monkeypatch)
        decompose(model, anchor_r=0.01)
        assert builds[1:] == []


    @pytest.mark.parametrize("name, value, depth", [("parabola", 1.0, 19), ("jump_linear", 2.0, 20)])
    def test_defaults_converge_to_oracle(self, name, value, depth):
        verdict = plain_kh(catalog(name))
        assert isinstance(verdict, Converged)
        assert verdict.depth == depth
        assert abs(verdict.value - value) <= 1e-6


def punctured_model(F, f):
    """F and f on [0, 1] with the one declared exceptional point 0.5."""
    return SingularFunctionModel(F=F, f=f, E=ExceptionalSet([0.5]), span=Interval(0.0, 1.0))


# the probes whose declared data is wrong somewhere off E
HONESTY_PROBES = ["undeclared-jump-1e-3", "undeclared-jump-1e-7", "slope-off-1e-6",
                  "f-bump-wide", "f-bump-narrow", "f-bump-1e-4",
                  "undeclared-jump-inner", "f-bump-inner"]


class TestHonesty:
    """A plain-integral verdict is never manufactured: a model whose declared
    data is wrong somewhere off E ends with the build failure named."""

    # f alone is wrong in the f-bump probes, on regions no gap midpoint of
    # an uncapped build reaches: only a build on a fine mesh sees them
    @pytest.mark.parametrize("name", HONESTY_PROBES)
    def test_stays_inconclusive(self, name):
        # depth 0 builds on all eight; the f check at the verdict's depth
        # fails, so no row is shown
        verdict = plain_kh(punctured_model(*PROBE_MODELS[name]))
        assert isinstance(verdict, Inconclusive)
        assert verdict.trace == ()
        assert verdict.note.startswith("build failed in the f check ")

    def test_fast_oscillation_stops_at_the_floor(self):
        # correct data, but sin(50x) needs cells too narrow for the tolerance
        # before its Riemann sums settle: by depth 25 a per-depth build meets
        # the floating-point floor.  kh = total - B_n builds no depth; its
        # basic sum moves by more than tol per depth up to depth 21, so it has
        # no verdict by depth 20 and settles at depth 25 within B_25 (about
        # 1.5e-7) of the total
        model = punctured_model(lambda x: np.sin(50 * np.asarray(x)),
                                lambda x: 50 * np.cos(50 * np.asarray(x)))
        _, _, stop = unpruned_ladder(model, max_depth=25)
        assert isinstance(stop, FloorReached)
        verdict = plain_kh(model)
        assert verdict.note == "no verdict by max depth 20"
        assert len(verdict.trace) == 21
        verdict = plain_kh(model, max_depth=25)
        assert isinstance(verdict, Converged) and verdict.depth == 25
        assert abs(verdict.value - increment(model, model.span)) <= 1e-6

    @pytest.mark.parametrize("c", [0.1, 0.15, 0.3, 0.6])
    def test_kink_converges_to_true_integral(self, c):
        # sign(x - c) integrates to (1 - c) - c over [0, 1]
        verdict = plain_kh(punctured_model(lambda x: np.abs(np.asarray(x) - c),
                                           lambda x: np.sign(np.asarray(x) - c)))
        assert isinstance(verdict, Converged)
        assert abs(verdict.value - (1 - 2 * c)) <= 1e-6

    def test_max_depth_stop_is_named(self):
        # correct data whose ladder settles at depth 3 (E is empty, so every
        # B_n is 0 and kh_n is the total at every depth): stopped at depth 2
        # the note says the depths ran out, and no build failed
        model = SingularFunctionModel(F=lambda x: np.asarray(x) ** 3,
                                      f=lambda x: 3 * np.asarray(x) ** 2,
                                      E=ExceptionalSet(), span=Interval(0.0, 1.0))
        verdict = plain_kh(model, max_depth=2)
        assert isinstance(verdict, Inconclusive)
        assert verdict.note == "no verdict by max depth 2"
        assert len(verdict.trace) == 3
        assert plain_kh(model, max_depth=5) == Converged(value=1.0, error_estimate=0.0, depth=3)

    def test_unreachable_verdict_is_named(self):
        # 100 x^2 punctured at 0.5: the basic sum 5 * 2^-n moves by more than
        # tol per depth through depth 21, so no depth up to 20 can settle
        model = punctured_model(lambda x: 100 * np.asarray(x) ** 2, lambda x: 200 * np.asarray(x))
        verdict = plain_kh(model)
        assert isinstance(verdict, Inconclusive)
        assert verdict.note == "no verdict by max depth 20"
        assert [depth for depth, _ in verdict.trace] == list(range(21))


def kh_note(report):
    """The kh verdict's note, the one record of why the ladder stopped."""
    return report.kh_verdict.note if isinstance(report.kh_verdict, Inconclusive) else ""


class TestBuildDiagnostic:
    """A failed plain-integral build is named by the kh verdict's note alone,
    at the depth the ladder stopped."""

    def test_equals_kh_note_when_a_build_fails(self):
        # the f check passes the pair cap, so kh shows no row
        report = decompose(catalog("parabola"), limits=BuildLimits(max_pairs=50))
        assert report.kh_trace == ()
        assert kh_note(report).startswith("build failed in the f check ")

    @pytest.mark.parametrize("name, max_depth, kind", [
        ("heaviside", 20, "converged"), ("parabola", 2, "inconclusive"),
    ])
    def test_none_without_a_build_failure(self, name, max_depth, kind):
        report = decompose(catalog(name), max_depth=max_depth)
        assert report.kh_verdict.kind == kind
        assert "build failed" not in kh_note(report)
        if kind == "inconclusive":
            # no verdict can fire before depth 3
            assert kh_note(report) == f"no verdict by max depth {max_depth}"


def unpruned_ladder(model, max_depth=MAX_DEPTH):
    """The Riemann-sum ladder, one straddle build per depth:
    ``(rows, verdict, stop)``, rows ``(n, Riemann sum)`` up to the first
    verdict or build failure, verdict None where none fired and stop the
    ``BuildError`` that ended the ladder, or None."""
    sched = RefinementSchedule.for_model(model)
    clf = SequenceClassifier(tol=TOL, div_threshold=DIV_THRESHOLD)
    rows = []
    for n in range(max_depth + 1):
        step = sched.at(n)
        try:
            value = _straddle_sums(model, step.r, step.eps, BuildLimits(), step.h).riemann
        except BuildError as exc:
            return rows, None, exc
        rows.append((n, value))
        verdict = clf.push(n, value)
        if verdict is not None:
            return rows, verdict, None
    return rows, None, None


CONVERGING = ["heaviside", "jump_linear", "parabola", "staircase3"]

# Rounding allowance of the identity bound, relative to |total| + |B_n|.
ROUNDING = 2.0**-26


class TestReachabilityPrune:
    """kh_n = total - B_n under a certificate.  Depth n's Riemann sum lies
    within eps_n * L of total - B_n, so the basic sum shows which verdict
    the Riemann-sum ladder reaches, and no depth of it is built."""

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_identity_bound_holds_at_every_built_depth(self, name):
        # the premise of kh_n, on every depth the Riemann-sum ladder builds
        # (measured at most 8.6% of eps_n * L, on sqrt_singular)
        model = catalog(name)
        sched = RefinementSchedule.for_model(model)
        total = increment(model, model.span)
        table = AnchorTable(model, 20)
        rows, _, _ = unpruned_ladder(model)
        assert rows
        for n, value in rows:
            b = table.basic(n)
            bound = sched.at(n).eps * model.span.length + ROUNDING * (abs(total) + abs(b))
            assert abs(value - (total - b)) <= bound, (n, value)

    @pytest.mark.parametrize("name", CONVERGING)
    def test_converging_ladders_unchanged(self, name):
        # the same kind at the same depth, and a value within the identity
        # band of the Riemann sum's
        model = catalog(name)
        _, verdict, _ = unpruned_ladder(model)
        assert isinstance(verdict, Converged)
        kh = decompose(model).kh_verdict
        assert (kh.kind, kh.depth) == (verdict.kind, verdict.depth)
        band = (2 * RefinementSchedule.for_model(model).at(verdict.depth).eps * model.span.length
                + ROUNDING * (abs(kh.value) + abs(verdict.value)))
        assert abs(kh.value - verdict.value) <= band

    def test_every_mismatch_the_riemann_ladder_meets_is_caught(self):
        # over the probes (the honesty probes among them): where a Riemann-sum
        # build fails on a mismatch rather than on the floating-point floor,
        # the certificate fails too, and kh shows no row
        mismatches = []
        for name, (F, f) in PROBE_MODELS.items():
            model = punctured_model(F, f)
            _, _, stop = unpruned_ladder(model)
            if isinstance(stop, StraddleFailure) and not isinstance(stop, FloorReached):
                mismatches.append(name)
                verdict = plain_kh(model)
                assert isinstance(verdict, Inconclusive) and verdict.trace == (), name
                assert verdict.note.startswith("build failed "), name
        assert mismatches

    @pytest.mark.parametrize("name, most_F, most_f", [
        ("heaviside", 12, 10), ("jump_linear", 12, 10), ("parabola", 12, 10),
        ("staircase3", 20, 18),
    ])
    def test_converging_decompose_calls(self, name, most_F, most_f):
        # the F and f calls of one decompose: the anchor table and the f
        # check, which witnesses the verification rows, no call per depth
        # (measured 4 / 4 / 4 / 6 F and 2 / 2 / 2 / 4 f calls; 6 / 6 / 6 / 10
        # F when the rows made a build of their own, 10 / 10 / 10 / 18 F when
        # each row did; 14 / 48 / 46 / 26 F calls when each depth was built)
        model, calls = counting_calls(catalog(name))
        decompose(model)
        assert calls["F"] <= most_F and calls["f"] <= most_f

    @pytest.mark.parametrize("name", ["osc_sin_inv", "reciprocal", "sqrt_singular"])
    def test_unreachable_catalog_ladders(self, name):
        # the basic sum still moves by more than tol at depth 20
        report = decompose(catalog(name))
        assert report.kh_verdict.note == "no verdict by max depth 20"
        assert [depth for depth, _ in report.kh_trace] == list(range(21))

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_plain_kh_agrees_with_decompose(self, name):
        assert plain_kh(catalog(name)) == decompose(catalog(name)).kh_verdict

    @pytest.mark.parametrize("name, lo", [
        ("sqrt_singular", 0.6), ("reciprocal", 0.6), ("osc_sin_inv", 0.3),
    ])
    def test_f_check_finds_a_narrow_bump(self, name, lo):
        # f wrong by 1e-3 on [lo, lo + 0.0015), where F is right: a build at
        # eps 1e-2 or 1e-3 passes over it, and the Riemann-sum ladder failed
        # at depth 2-4; the f check at eps 1e-4 fails on it
        base = catalog(name)
        model = dataclasses.replace(base, f=lambda x: base.f(x) + 1e-3 * (
            (np.asarray(x) >= lo) & (np.asarray(x) < lo + 0.0015)))
        verdict = decompose(model).kh_verdict
        assert isinstance(verdict, Inconclusive)
        assert verdict.note.startswith("build failed in the f check ")

    @pytest.mark.parametrize("name", JUMP_LINEAR_VARIANTS)
    def test_floor_walk_does_not_stall_decompose(self, name):
        # the builds of jump_linear's deep depths walk one cell per wave on
        # these variants (TestFloorWalk); decompose no longer builds them
        # (measured 10 F calls each; the length variant's ladder ran past
        # 60 s when each depth was built).  The scaled variant's basic sum,
        # 2^14 times jump_linear's, still moves by more than tol at depth 20
        model, _ = JUMP_LINEAR_VARIANTS[name]
        report = decompose(call_budgeted(model, 20))
        if name != "scaled-2^14":
            assert report.kh_verdict.kind == "converged"
            assert abs(report.kh_verdict.value - 2.0) <= 1e-6


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


CRIT3_OPTS = dict(max_depth=20, tol=5e-3, div_threshold=1e12)


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
        report = decompose(model, **CRIT3_OPTS)
        assert report.total == 4.0
        assert abs(report.kh_verdict.value - 2.0) <= 1e-3
        assert abs(report.basic_sum_verdict.value - 2.0) <= 1e-3
        assert report.identity_gap <= 1e-6

    def test_reciprocal_identity_undefined(self):
        model = catalog("reciprocal")
        report = decompose(model, max_depth=12, div_threshold=100.0)
        assert report.total == 1.5
        assert isinstance(report.kh_verdict, Diverged)
        assert report.basic_sum_verdict == Diverged(sign=1)
        assert report.residuals[0.0] == Diverged(sign=1)
        assert report.identity_gap is None
        assert report.lemma_consistent  # both diverged: consistent

    def test_divergence_over_a_wrong_derivative_is_not_shown(self):
        # f wrong by 1 on [0.05, 0.06), inside the first anchor cell
        # (-0.15, 0.15): the f check at depth 4, the divergence's last
        # depth, fails on it
        base = catalog("reciprocal")
        model = dataclasses.replace(base, f=lambda x: base.f(x) + 1.0 * (
            (np.asarray(x) >= 0.05) & (np.asarray(x) < 0.06)))
        verdict = decompose(model, max_depth=12, div_threshold=100.0).kh_verdict
        assert isinstance(verdict, Inconclusive) and verdict.trace == ()
        assert verdict.note.startswith(
            "build failed in the f check (r 0.00938, eps 0.0001, mesh cap 0.000732): ")

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
            report = decompose(model, **CRIT3_OPTS)
            assert report.total == entry.total, name
            assert isinstance(report.kh_verdict, Converged), name
            assert isinstance(report.basic_sum_verdict, Converged), name
            assert abs(report.kh_verdict.value - entry.kh_value) <= 1e-2, name
            assert abs(report.basic_sum_verdict.value - entry.basic_sum) <= 1e-2, name
            assert report.identity_gap <= 1e-5, name

    @pytest.mark.parametrize("name", ["parabola", "jump_linear"])
    def test_defaults_close_identity(self, name):
        # f is linear, so the f check's midpoint sums are its off-anchor
        # increments of F to rounding (measured 1.1e-16 and 0)
        report = decompose(catalog(name))
        assert report.identity_gap <= 8 * np.spacing(report.total)

    @pytest.mark.parametrize("name", ["osc_sin_inv", "reciprocal", "sqrt_singular"])
    def test_certificate_witnesses_the_rows(self, name):
        # an inconclusive kh's certificate is the f check at r0 and eps
        # 1e-4, the finest default row, so the rows build nothing of their
        # own (standalone plain_kh: 16 / 13 / 3 F calls)
        model, calls = counting_calls(catalog(name))
        plain_kh(model)
        alone = calls["F"]
        calls["F"] = 0
        report = decompose(model)
        assert calls["F"] <= alone + 1
        assert len({row.pairs for row in report.verification.rows}) == 1
        # an anchor radius set by the caller changes nothing: the
        # certificate still witnesses every row, and no row builds there
        calls["F"] = 0
        anchored = decompose(model, anchor_r=0.01)
        assert calls["F"] <= alone + 1
        assert anchored.verification.rows == report.verification.rows

    def test_anchor_radius_at_the_f_check_builds_the_rows(self, monkeypatch):
        # osc_sin_inv's inconclusive kh runs its f check at r0 = 0.1 and the
        # finest row's tolerance, never finer than tol / L; at the default
        # rows it witnesses them all, so the anchor radius builds nothing.
        # A row finer than the check builds its own partition there
        model = catalog("osc_sin_inv")
        builds = recorded_builds(monkeypatch)
        decompose(model, anchor_r=0.1)
        assert builds[1:] == []
        builds.clear()
        decompose(model, epsilons=(1e-3, 1e-9), anchor_r=0.1)
        assert builds == [(0.1, TOL / model.span.length, model.span.length / 4096),
                          (0.1, 1e-9, None)]

    @pytest.mark.parametrize("name", CONVERGING)
    def test_rows_read_the_identity_gap(self, name):
        # the converged kh's f check witnesses the rows, so their residual,
        # |Riemann - off-anchor increments| of that build, is the identity
        # gap |Riemann - (total - B_n)| to rounding (bit for bit, measured)
        model = catalog(name)
        report = decompose(model)
        b = AnchorTable(model, MAX_DEPTH).basic(report.kh_verdict.depth)
        bound = ROUNDING * (abs(report.total) + abs(b))
        assert report.verification.rows
        for row in report.verification.rows:
            assert abs(row.residual - report.identity_gap) <= bound

    @pytest.mark.parametrize("offset", [0.0, 1e-3])
    @pytest.mark.parametrize("name", ROW_MODELS)
    def test_rows_no_worse_than_total_kh(self, name, offset):
        # a witness that built meets every row it serves, whatever its
        # radius, so no row fails that total_kh's own build passes; after a
        # failed f check the rows build as total_kh's do
        model = offset_f(row_model(name), offset)
        report = decompose(model)
        alone = total_kh(model).rows
        assert [row.epsilon for row in report.verification.rows] == [
            row.epsilon for row in alone]
        assert not any(own.ok and not row.ok
                       for row, own in zip(report.verification.rows, alone))
        if report.kh_trace == ():
            assert report.verification.rows == alone

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
            report = decompose(model, **CRIT3_OPTS)
            if isinstance(report.kh_verdict, Converged) and isinstance(
                report.basic_sum_verdict, Converged
            ):
                assert report.identity_gap <= report.identity_tolerance, name

    def test_shift_invariance_at_continuous_points(self):
        base = catalog("parabola")
        shifted = shifted_model(base, 0.25)
        r1 = decompose(base, **CRIT3_OPTS)
        r2 = decompose(shifted, **CRIT3_OPTS)
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

    def test_empty_exceptional_set_past_the_radius_underflow(self):
        # r0 * 2^-n is 0 from depth ~1080 on, and with no point no depth
        # breaks the anchor rule: the anchor table lays out no depth at all
        report = decompose(constant_without_points(), max_depth=5000)
        assert report.kh_verdict == Converged(value=0.0, error_estimate=0.0, depth=3)
        assert report.basic_sum_verdict == Converged(value=0.0, error_estimate=0.0, depth=0)

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

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_json_reports_build_no_depth_row(self, name, monkeypatch):
        # depth rows are the convergence CSV's rendering alone: the report's
        # JSON document and the integrate and residues commands' JSON output
        # render no ladder
        model = catalog(name)
        argvs = [[command, "--catalog", name, "--output", "json"]
                 for command in ("integrate", "residues")]

        def outputs():
            return repr(decompose(model).to_json()), [run_captured(argv) for argv in argvs]

        want = outputs()

        def no_rows(*args):
            raise AssertionError("a ladder was rendered")

        monkeypatch.setattr(cli, "convergence_csv", no_rows)
        assert outputs() == want

    @pytest.mark.parametrize("max_depth", [12, 20, 40, 45])
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_rows_are_the_anchor_table_rows(self, name, max_depth, tmp_path):
        # every convergence CSV row is its ladder's (depth, value), at the
        # anchor radius of its depth, bit for bit
        model = catalog(name)
        sched = RefinementSchedule.for_model(model)
        report = decompose(model, max_depth=max_depth)
        bs_trace, _, _ = residue_table(model, max_depth, TOL, DIV_THRESHOLD)
        path = tmp_path / "convergence.csv"
        for command, want in (("integrate", {"kh": report.kh_trace,
                                             "basic_sum": report.bs_trace}),
                              ("residues", {"basic_sum": bs_trace})):
            run_captured([command, "--catalog", name, "--max-depth", str(max_depth),
                          "--emit-convergence", str(path)])
            sections = convergence_sections(path.read_text(encoding="utf-8"))
            assert list(sections) == list(want)
            for series, rows in sections.items():
                assert repr([(depth, value) for depth, _, value in rows]) == repr(
                    list(want[series]))
                assert all(r == sched.at(depth).r for depth, r, _ in rows)


def convergence_sections(text):
    """``{series: [(depth, r, value), ...]}`` of a convergence CSV."""
    sections = {}
    for line in text.splitlines():
        if line.startswith("# series: "):
            rows = sections[line.removeprefix("# series: ")] = []
        elif line != "depth,r,value,delta":
            depth, r, value, _ = line.split(",")
            rows.append((int(depth), float(r), float(value)))
    return sections


def run_captured(argv):
    """``(exit code, stdout, stderr)`` of ``gaugeint *argv`` run in this
    process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def constant_without_points():
    """F = 2 and f = 0 on [0, 1] with an empty exceptional set."""
    return SingularFunctionModel(
        F=lambda x: np.full_like(np.asarray(x, dtype=float), 2.0),
        f=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        E=ExceptionalSet(), span=Interval(0.0, 1.0),
    )


def recorded_builds(monkeypatch):
    """The ``(r, eps, h)`` of every straddle build ``integrate`` makes from
    now on, in order."""
    builds = []

    def record(model, r, eps, limits, h=None):
        builds.append((r, eps, h))
        return _straddle_sums(model, r, eps, limits, h)

    monkeypatch.setattr(integrate, "_straddle_sums", record)
    return builds


def offset_f(model, c):
    """``model`` with c added to its declared derivative everywhere."""
    return dataclasses.replace(model, f=lambda x, m=model, c=c: np.asarray(m.f(x)) + c)


class TestInconclusiveCertificate:
    """An inconclusive kh claims no value, so its one certificate, the f check
    at depth 0, runs at the finest tolerance of the verification rows it
    witnesses, never finer than tol / L."""

    def test_default_rows_set_the_tolerance(self):
        note = decompose(offset_f(catalog("osc_sin_inv"), 1e-3)).kh_verdict.note
        assert note.startswith("build failed in the f check (r 0.1, eps 0.0001, ")

    def test_finest_row_sizes_the_one_build(self, monkeypatch):
        # reciprocal's span length is 3: the finest row, 5e-5, is looser
        # than tol / L = 3.3e-7 (26,594 pairs), and both rows read the one
        # build at 5e-5
        builds = recorded_builds(monkeypatch)
        report = decompose(catalog("reciprocal"), epsilons=(1e-3, 5e-5))
        assert builds == [(pytest.approx(0.15), 5e-5, 3.0 / 4096)]
        assert [(row.pairs, row.ok) for row in report.verification.rows] == [
            (4714, True), (4714, True)]

    def test_plain_kh_runs_at_the_finest_default_row(self, monkeypatch):
        builds = recorded_builds(monkeypatch)
        assert plain_kh(catalog("reciprocal")).note == "no verdict by max depth 20"
        assert [eps for _, eps, _ in builds] == [min(EPSILONS)]

    def test_no_rows_run_at_the_finest_default_row(self, monkeypatch):
        # as in plain_kh: with no rows the f check runs at min(EPSILONS)
        builds = recorded_builds(monkeypatch)
        report = decompose(catalog("reciprocal"), epsilons=())
        assert report.verification.rows == () and not report.verification.verified
        assert report.kh_verdict.note == "no verdict by max depth 20"
        assert [eps for _, eps, _ in builds] == [min(EPSILONS)]

    def test_rows_finer_than_tol_per_length_build_their_own(self, monkeypatch):
        # the f check stays at tol / L = 1e-6, and the 1e-7 row, which it
        # cannot witness, builds at its own tolerance
        builds = recorded_builds(monkeypatch)
        report = decompose(catalog("sqrt_singular"), epsilons=(1e-7,))
        assert [eps for _, eps, _ in builds] == [TOL, 1e-7]
        assert report.kh_verdict.note == "no verdict by max depth 20"
        assert report.verification.verified

    @pytest.mark.parametrize("name, oks", [
        ("osc_sin_inv", [True, False, False]), ("reciprocal", [True, False, False]),
        ("sqrt_singular", [True, True, False]),
    ])
    def test_wrong_derivative_is_still_named(self, name, oks):
        # f off by 1e-3 per unit width fails the f check at the finest row,
        # 1e-4, and each row is ok exactly when its own build passes
        report = decompose(offset_f(catalog(name), 1e-3))
        assert report.kh_verdict.note.startswith("build failed in the f check ")
        assert [row.ok for row in report.verification.rows] == oks

    @pytest.mark.parametrize("name", ["osc_sin_inv", "reciprocal", "sqrt_singular"])
    def test_error_within_the_finest_row_reads_max_depth(self, name):
        # f off by 1e-5 per unit width is within every row's tolerance, so
        # the f check passes and the ladder's own stop is the note; an f
        # check at tol / L failed on it
        report = decompose(offset_f(catalog(name), 1e-5))
        assert report.kh_verdict.note == "no verdict by max depth 20"
        assert all(row.ok for row in report.verification.rows)


# reciprocal diverges by depth 4 at this threshold
DIVERGING = dict(max_depth=12, div_threshold=100.0)


class TestDivergedCertificate:
    """A diverged kh claims no value either: its certificate is the f check
    at the last depth's anchor radius, sized by the rows like an
    inconclusive kh's."""

    def test_f_check_at_the_last_depth(self, monkeypatch):
        builds = recorded_builds(monkeypatch)
        report = decompose(catalog("reciprocal"), **DIVERGING)
        assert report.kh_verdict == Diverged(sign=-1)
        # the f check witnesses the rows at its own radius too
        assert builds == [(0.05 * 3 / 16, 1e-4, 3.0 / 4096)]

    def test_error_within_the_finest_row_stays_diverged(self):
        report = decompose(offset_f(catalog("reciprocal"), 1e-5), **DIVERGING)
        assert report.kh_verdict == Diverged(sign=-1)
        assert all(row.ok for row in report.verification.rows)

    def test_wrong_derivative_is_named(self):
        report = decompose(offset_f(catalog("reciprocal"), 1e-3), **DIVERGING)
        verdict = report.kh_verdict
        assert isinstance(verdict, Inconclusive) and verdict.trace == ()
        assert verdict.note.startswith(
            "build failed in the f check (r 0.00938, eps 0.0001, mesh cap 0.000732): ")
        assert [row.ok for row in report.verification.rows] == [True, False, False]

    def test_fine_rows_keep_the_divergence(self, monkeypatch):
        # the f check follows the rows down to 1e-6 (171,410 pairs)
        builds = recorded_builds(monkeypatch)
        report = decompose(catalog("reciprocal"), epsilons=(1e-6,), **DIVERGING)
        assert report.kh_verdict == Diverged(sign=-1)
        assert builds[0] == (0.05 * 3 / 16, 1e-6, 3.0 / 4096)

    def test_no_rows_make_one_build(self, monkeypatch):
        builds = recorded_builds(monkeypatch)
        report = decompose(catalog("reciprocal"), epsilons=(), **DIVERGING)
        assert report.kh_verdict == Diverged(sign=-1)
        assert builds == [(0.05 * 3 / 16, min(EPSILONS), 3.0 / 4096)]


# The catalog's build plan at defaults: (r0, depth, eps) of kh's f check.  A
# converged kh's runs at its depth and tol / L, the others at depth 0 and
# the finest row.  r0 is 5% of the span length, 0.05 * 3 on [-1, 2] and
# [0, 3].
CATALOG_PLAN = {
    "heaviside": (0.1, 3, 5e-7), "jump_linear": (0.1, 20, 5e-7),
    "parabola": (0.05, 19, 1e-6), "staircase3": (0.05 * 3, 3, 1e-6 / 3),
    "osc_sin_inv": (0.1, 0, 1e-4), "reciprocal": (0.05 * 3, 0, 1e-4),
    "sqrt_singular": (0.05, 0, 1e-4),
}


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_build_plan_at_defaults(name, monkeypatch):
    # the f check alone, at r0 * 2^-depth with the cap L / 4096: at eps no
    # coarser than the finest row, it witnesses every row
    model = catalog(name)
    r0, depth, eps = CATALOG_PLAN[name]
    builds = recorded_builds(monkeypatch)
    decompose(model)
    assert builds == [(r0 * 0.5**depth, eps, model.span.length / 4096)]


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


class TestAnchorRadii:
    """The reports read their anchor radii from the anchor table and build no
    refinement schedule; a schedule handed to a low-level ladder still sets
    its radius."""

    def test_reports_build_no_schedule(self, monkeypatch, capsys):
        def refuse(self):
            raise AssertionError("a report built a RefinementSchedule")

        monkeypatch.setattr(RefinementSchedule, "__post_init__", refuse)
        for name in CATALOG_NAMES:
            model = catalog(name)
            decompose(model)
            plain_kh(model)
            total_kh(model)
            residue_table(model, MAX_DEPTH, TOL, DIV_THRESHOLD)
        for name in ("heaviside", "staircase3"):
            residue_check(catalog(name))
        assert run(["partition", "--catalog", "heaviside"]) == 0
        assert capsys.readouterr().out

    def test_schedule_sets_the_basic_sum_radius(self):
        model = catalog("parabola")
        trace, _ = basic_sum_sequence(model, RefinementSchedule(h0=1.0, r0=0.02), max_depth=0)
        (lo, hi, _), = anchor_cells(model.span, model.E, 0.02)
        assert trace == ((0, increment(model, Interval(lo, hi))),)
        assert trace != basic_sum_sequence(model, RefinementSchedule.for_model(model),
                                           max_depth=0)[0]
