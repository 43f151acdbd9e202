import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugeint import Converged, Diverged, Inconclusive, classify
from gaugeint.verdicts import SequenceClassifier, run_ladder


def seq(values):
    return [(i, v) for i, v in enumerate(values)]


class TestClassify:
    def test_constant_sequence(self):
        verdict = classify(seq([1.0, 1.0, 1.0, 1.0]), tol=1e-9, div_threshold=1e12)
        assert verdict == Converged(value=1.0, error_estimate=0.0, depth=3)

    def test_powers_of_ten_diverge(self):
        values = [10.0**k for k in range(1, 16)]
        verdict = classify(seq(values), tol=1e-9, div_threshold=1e12)
        assert isinstance(verdict, Diverged)
        assert verdict.sign == 1

    def test_negative_divergence_sign(self):
        values = [-(10.0**k) for k in range(1, 16)]
        verdict = classify(seq(values), tol=1e-9, div_threshold=1e12)
        assert verdict == Diverged(sign=-1)

    def test_oscillation_inconclusive(self):
        values = [2 * math.sin(2.0**n) for n in range(15)]
        verdict = classify(seq(values), tol=1e-6, div_threshold=1e12)
        assert isinstance(verdict, Inconclusive)
        assert len(verdict.trace) == 15

    def test_growth_below_threshold_is_inconclusive(self):
        # strictly increasing but never past the threshold: no verdict fires
        values = [float(2**n) for n in range(20)]
        verdict = classify(seq(values), tol=1e-9, div_threshold=1e12)
        assert isinstance(verdict, Inconclusive)

    def test_divergence_needs_five_increasing(self):
        # past the threshold but not monotone over the last five depths
        values = [2e12, 3e12, 2.5e12, 4e12, 3.5e12, 5e12]
        verdict = classify(seq(values), tol=1e-9, div_threshold=1e12)
        assert isinstance(verdict, Inconclusive)

    def test_convergence_fires_at_first_eligible_depth(self):
        values = [5.0, 1.0, 1.0, 1.0, 1.0, 99.0]
        verdict = classify(seq(values), tol=1e-9, div_threshold=1e12)
        assert isinstance(verdict, Converged)
        assert verdict.depth == 4  # fires before the tail is seen

    def test_error_estimate_is_max_recent_delta(self):
        values = [0.0, 1.0, 1.001, 1.0015, 1.0018]
        verdict = classify(seq(values), tol=1e-2, div_threshold=1e12)
        assert isinstance(verdict, Converged)
        assert verdict.error_estimate == pytest.approx(0.001, rel=1e-9)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            classify([], tol=1e-6, div_threshold=1e12)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            SequenceClassifier(tol=0.0, div_threshold=1e12)
        with pytest.raises(ValueError):
            SequenceClassifier(tol=1e-6, div_threshold=-1.0)
        with pytest.raises(ValueError):
            SequenceClassifier(tol=math.nan, div_threshold=1e12)
        with pytest.raises(ValueError):
            SequenceClassifier(tol=1e-6, div_threshold=math.nan)


class TestProperties:
    @given(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.floats(min_value=1e-12, max_value=1e-3),
    )
    @settings(max_examples=200)
    def test_geometric_approach_converges_to_limit(self, limit, scale):
        values = [limit + scale * 0.5**n for n in range(12)]
        verdict = classify(seq(values), tol=scale, div_threshold=1e18)
        assert isinstance(verdict, Converged)
        assert abs(verdict.value - limit) <= 2 * scale

    @given(st.floats(min_value=1.5, max_value=10.0), st.integers(min_value=-1, max_value=1))
    @settings(max_examples=200)
    def test_geometric_growth_diverges_with_the_right_sign(self, ratio, sign_pick):
        sign = 1 if sign_pick >= 0 else -1
        values = [sign * ratio**n for n in range(40)]
        verdict = classify(seq(values), tol=1e-12, div_threshold=ratio**20)
        assert verdict == Diverged(sign=sign)

    @given(st.lists(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False), min_size=1))
    @settings(max_examples=200)
    def test_always_produces_some_verdict(self, values):
        verdict = classify(seq(values), tol=1e-6, div_threshold=1e12)
        assert verdict.kind in ("converged", "diverged", "inconclusive")


class TestIncremental:
    def test_push_returns_verdict_once(self):
        clf = SequenceClassifier(tol=1e-9, div_threshold=1e12)
        results = [clf.push(i, 1.0) for i in range(4)]
        assert results[:3] == [None, None, None]
        assert isinstance(results[3], Converged)

    def test_finish_carries_note_and_trace(self):
        clf = SequenceClassifier(tol=1e-9, div_threshold=1e12)
        clf.push(0, 1.0)
        clf.push(1, 2.0)
        verdict = clf.finish("stopped early")
        assert isinstance(verdict, Inconclusive)
        assert verdict.trace == ((0, 1.0), (1, 2.0))
        assert verdict.note == "stopped early"


class TestRunLadder:
    @staticmethod
    def recording(values, fail_at=None, error=None):
        """A pair_at over ``values`` that records the depths it was asked
        for and raises ``error`` at depth ``fail_at``."""
        asked = []

        def pair_at(n):
            asked.append(n)
            if n == fail_at:
                raise error
            return n, values[n]
        return pair_at, asked

    def test_verdict_at_first_depth_a_rule_fires(self):
        pair_at, asked = self.recording([5.0, 1.0, 1.0, 1.0, 1.0, 99.0, 99.0])
        trace, verdict = run_ladder(pair_at, 6, tol=1e-9, div_threshold=1e12, stops={})
        assert verdict == Converged(value=1.0, error_estimate=0.0, depth=4)
        assert asked == [0, 1, 2, 3, 4]
        assert trace == ((0, 5.0), (1, 1.0), (2, 1.0), (3, 1.0), (4, 1.0))

    def test_divergence_stops_the_ladder(self):
        pair_at, asked = self.recording([10.0**k for k in range(1, 30)])
        _, verdict = run_ladder(pair_at, 28, tol=1e-9, div_threshold=1e12, stops={})
        assert verdict == Diverged(sign=1)
        assert asked == list(range(13))  # 10**13 is the first value past 1e12

    def test_runs_out_at_max_depth(self):
        pair_at, asked = self.recording([float(n) for n in range(10)])
        trace, verdict = run_ladder(pair_at, 3, tol=1e-9, div_threshold=1e12, stops={})
        assert verdict == Inconclusive(trace=trace, note="no verdict by max depth 3")
        assert asked == [0, 1, 2, 3]

    @pytest.mark.parametrize("error, note", [
        (KeyError("k"), "first at depth 2: 'k'"),
        (IndexError("i"), "second at depth 2: i"),
    ])
    def test_listed_exception_ends_with_its_note(self, error, note):
        pair_at, asked = self.recording([1.0, 2.0, 3.0, 4.0], fail_at=2, error=error)
        stops = {KeyError: "first at depth {depth}: {exc}",
                 LookupError: "second at depth {depth}: {exc}"}
        trace, verdict = run_ladder(pair_at, 3, tol=1e-9, div_threshold=1e12, stops=stops)
        assert verdict == Inconclusive(trace=((0, 1.0), (1, 2.0)), note=note)
        assert trace == verdict.trace
        assert asked == [0, 1, 2]

    def test_unlisted_exception_propagates(self):
        pair_at, _ = self.recording([1.0, 2.0], fail_at=1, error=ZeroDivisionError("z"))
        with pytest.raises(ZeroDivisionError):
            run_ladder(pair_at, 3, tol=1e-9, div_threshold=1e12, stops={KeyError: "{exc}"})

    @pytest.mark.parametrize("sequence, tol", [
        (seq([1.0, 1.0, 1.0, 1.0]), 1e-9),
        (seq([10.0**k for k in range(1, 16)]), 1e-9),
        (seq([-(10.0**k) for k in range(1, 16)]), 1e-9),
        (seq([2 * math.sin(2.0**n) for n in range(15)]), 1e-6),
        (seq([float(2**n) for n in range(20)]), 1e-9),
        (seq([2e12, 3e12, 2.5e12, 4e12, 3.5e12, 5e12]), 1e-9),
        (seq([5.0, 1.0, 1.0, 1.0, 1.0, 99.0]), 1e-9),
        (seq([0.0, 1.0, 1.001, 1.0015, 1.0018]), 1e-2),
        ([(2, 1.0), (5, 1.0), (7, 1.0), (9, 1.0)], 1e-9),
    ])
    def test_classify_matches_the_driver(self, sequence, tol):
        _, verdict = run_ladder(sequence.__getitem__, len(sequence) - 1, tol=tol,
                                div_threshold=1e12, stops={})
        assert classify(sequence, tol=tol, div_threshold=1e12) == verdict


class TestJson:
    def test_shapes(self):
        assert Converged(1.0, 0.0, 3).to_json() == {
            "kind": "converged", "value": 1.0, "error_estimate": 0.0, "depth": 3,
        }
        assert Diverged(sign=-1).to_json() == {"kind": "diverged", "sign": -1}
        doc = Inconclusive(trace=((0, 1.0),), note="x").to_json()
        assert doc["kind"] == "inconclusive" and doc["trace"] == [[0, 1.0]]
