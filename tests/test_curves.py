import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sulfexp.curves import (
    ExpansionSeries,
    cluster_features,
    failure_point,
    smooth,
    smoothing_weights,
)
from sulfexp.errors import (
    InvalidAlpha,
    NonFiniteValue,
    NonPositiveTrend,
    TooFewSamples,
    ValidationError,
)


def series(ts, es, mid="s"):
    return ExpansionSeries(mixture_id=mid, samples=tuple(zip(ts, es)))


def linear_ramp(slope, ts, mid="ramp"):
    return series(ts, [slope * t for t in ts], mid=mid)


def smooth_oracle(s, alpha):
    """Point-by-point delta form of the convolution, one interior point at a time."""
    t = s.times.tolist()
    v = s.values.tolist()
    out = list(v)
    for n in range(1, len(v) - 1):
        w_prev, _, w_next = smoothing_weights(alpha, t[n] - t[n - 1], t[n + 1] - t[n])
        out[n] = v[n] + w_prev * (v[n - 1] - v[n]) + w_next * (v[n + 1] - v[n])
    return out


class TestSeriesValidation:
    def test_times_must_increase(self):
        with pytest.raises(ValidationError):
            series([0.0, 1.0, 1.0], [0.0, 0.1, 0.2])

    def test_negative_values_kept_and_flagged(self):
        s = series([0.0, 1.0, 2.0], [0.0, -0.01, 0.02])
        assert s.values[1] == -0.01

    @pytest.mark.parametrize("ts, es, error, message", [
        ([0.0, np.nan], [0.1, 0.2], NonFiniteValue, "has non-finite samples"),
        ([0.0, 1.0], [0.1, np.inf], NonFiniteValue, "has non-finite samples"),
        ([-np.inf, 1.0], [0.1, 0.2], NonFiniteValue, "has non-finite samples"),
        ([-1.0, 1.0], [0.1, 0.2], ValidationError, "has negative times"),
        ([1.0, -1.0], [0.1, 0.2], ValidationError, "has negative times"),
        ([0.0, 2.0, 1.0], [0.1, 0.2, 0.3], ValidationError, "times not strictly increasing"),
        ([0.0, 1.0, 1.0], [0.1, 0.2, 0.3], ValidationError, "times not strictly increasing"),
    ])
    def test_each_validation_error(self, ts, es, error, message):
        with pytest.raises(error, match=f"series 'bad' {message}"):
            series(ts, es, mid="bad")

    @pytest.mark.parametrize("samples", [[0.0, 1.0, 2.0], [(0.0, 1.0, 2.0)], [[[0.0, 1.0]]]])
    def test_samples_must_be_pairs(self, samples):
        with pytest.raises(ValidationError, match="must be \\(time, value\\) pairs"):
            ExpansionSeries(mixture_id="bad", samples=samples)

    def test_empty_series(self):
        s = ExpansionSeries(mixture_id="e", samples=())
        assert len(s) == 0 and s.samples == ()


class TestSeriesArrays:
    def test_arrays_are_read_only_float64(self):
        s = series([0.0, 1.0, 2.0], [0.1, 0.2, 0.3])
        for array in (s.times, s.values):
            assert array.dtype == np.float64 and not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 5.0
            with pytest.raises(ValueError):
                array.flags.writeable = True

    def test_input_array_is_copied(self):
        raw = np.array([[0.0, 0.1], [1.0, 0.2]])
        s = ExpansionSeries(mixture_id="c", samples=raw)
        raw[:] = 9.0
        assert s.times.tolist() == [0.0, 1.0] and s.values.tolist() == [0.1, 0.2]

    def test_samples_round_trip(self):
        ts, es = [0.0, 0.5, 2.25], [-0.0, 0.125, 1e-300]
        s = series(ts, es)
        assert s.samples == tuple(zip(ts, es))
        assert all(type(x) is float for pair in s.samples for x in pair)
        again = ExpansionSeries(mixture_id=s.mixture_id, samples=s.samples)
        assert again == s
        assert again.values.tobytes() == s.values.tobytes()
        assert len(s) == 3

    def test_equality_on_id_and_arrays_not_group(self):
        s = series([0.0, 1.0], [0.1, 0.2], mid="a")
        assert s == ExpansionSeries(mixture_id="a", samples=[[0, 0.1], [1, 0.2]], group="HN")
        assert s != series([0.0, 1.0], [0.1, 0.2], mid="b")
        assert s != series([0.0, 1.5], [0.1, 0.2], mid="a")
        assert s != series([0.0, 1.0], [0.1, 0.25], mid="a")
        assert s != series([0.0, 1.0, 2.0], [0.1, 0.2, 0.3], mid="a")
        assert s != s.samples

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(series([0.0], [0.1]))

    def test_replace_takes_new_samples(self):
        s = ExpansionSeries(mixture_id="r", samples=[[0.0, 0.1], [1.0, 0.2]], group="LL")
        r = dataclasses.replace(s, samples=s.samples[:-1])
        assert (r.mixture_id, r.group, r.samples) == ("r", "LL", ((0.0, 0.1),))


class TestSmooth:
    def test_constant_series_fixed_point(self):
        s = series([0.0, 1.0, 2.5, 7.0], [3.0] * 4)
        for alpha in (0.0, 0.3, 0.5, 1.0):
            assert np.array_equal(smooth(s, alpha).values, s.values)

    def test_uniform_spacing_hand_value(self):
        # weights 0.35 / 0.3 / 0.35 on (0, 1, 0) give 0.3 in the middle
        s = series([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        out = smooth(s, 0.3)
        assert out.values[1] == pytest.approx(0.3, abs=1e-15)
        assert out.values[0] == 0.0 and out.values[2] == 0.0

    def test_nonuniform_spacing_hand_value(self):
        # t = (0, 1, 3): the *following* interval weights the previous sample,
        # so the middle is (2/3)*0.7*0 + 0.3*1 + (1/3)*0.7*0 = 0.3
        s = series([0.0, 1.0, 3.0], [0.0, 1.0, 0.0])
        out = smooth(s, 0.3)
        assert out.values[1] == pytest.approx(0.3, abs=1e-15)

    def test_nonuniform_cross_weighting_direction(self):
        # same spacing, asymmetric values: prev sample must get the *next*
        # interval's share (2/3 of 0.7)
        s = series([0.0, 1.0, 3.0], [1.0, 0.0, 0.0])
        out = smooth(s, 0.3)
        assert out.values[1] == pytest.approx((2 / 3) * 0.7, abs=1e-15)

    def test_alpha_one_is_identity(self):
        rng = np.random.default_rng(0)
        s = series(np.cumsum(rng.uniform(0.5, 2.0, 8)), rng.normal(size=8))
        assert np.array_equal(smooth(s, 1.0).values, s.values)

    def test_endpoints_and_times_preserved(self):
        s = series([0.0, 2.0, 3.0, 9.0], [0.1, 0.4, 0.2, 0.8])
        out = smooth(s, 0.3)
        assert np.array_equal(out.times, s.times)
        assert out.values[0] == s.values[0]
        assert out.values[-1] == s.values[-1]
        assert len(out) == len(s)

    def test_affine_series_fixed_point_any_spacing(self):
        ts = [0.0, 1.0, 1.5, 4.0, 4.25, 10.0]
        s = series(ts, [2.0 * t + 0.7 for t in ts])
        out = smooth(s, 0.3)
        assert np.allclose(out.values, s.values, atol=1e-14)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            smooth(series([0.0, 1.0], [0.0, 0.1]))

    def test_alpha_out_of_range(self):
        s = series([0.0, 1.0, 2.0], [0.0, 0.1, 0.2])
        with pytest.raises(InvalidAlpha):
            smooth(s, 1.5)
        with pytest.raises(InvalidAlpha):
            smooth(s, -0.1)

    @settings(max_examples=200)
    @given(
        alpha=st.floats(min_value=0.0, max_value=1.0),
        dt_prev=st.floats(min_value=1e-3, max_value=1e3),
        dt_next=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_weights_sum_to_one(self, alpha, dt_prev, dt_next):
        assert sum(smoothing_weights(alpha, dt_prev, dt_next)) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=300)
    @given(
        alpha=st.floats(min_value=0.0, max_value=1.0),
        steps=st.lists(st.floats(min_value=1e-6, max_value=1e4), min_size=2, max_size=40),
        start=st.floats(min_value=0.0, max_value=100.0),
        data=st.data(),
    )
    def test_matches_point_by_point_loop_bit_for_bit(self, alpha, steps, start, data):
        ts = np.cumsum([start] + steps)
        assume(np.all(np.diff(ts) > 0))  # no step lost to rounding
        es = data.draw(st.lists(st.floats(min_value=-1e3, max_value=1e3),
                                min_size=ts.size, max_size=ts.size))
        s = series(ts, es, mid="p")
        out = smooth(s, alpha)
        assert out.values.tobytes() == np.array(smooth_oracle(s, alpha)).tobytes()
        assert out.times.tobytes() == s.times.tobytes()


class TestFailurePoint:
    def test_linear_ramp_crossing(self):
        s = linear_ramp(0.025, np.arange(0.0, 41.0, 5.0))
        fp = failure_point(s, 0.5)
        assert fp.t_fail == pytest.approx(20.0, abs=1e-12)
        assert fp.slope == pytest.approx(0.025, abs=1e-12)
        assert not fp.censored

    def test_censored_extrapolation(self):
        # ends at 0.4 rising 0.01/yr over (35, 40): crossing at 40 + 0.1/0.01
        s = series([30.0, 35.0, 40.0], [0.3, 0.35, 0.4])
        fp = failure_point(s, 0.5)
        assert fp.censored
        assert fp.t_fail == pytest.approx(50.0, abs=1e-9)
        assert fp.slope == pytest.approx(0.01, abs=1e-12)

    def test_first_sample_already_beyond_threshold(self):
        s = series([2.0, 4.0], [0.6, 0.9])
        fp = failure_point(s, 0.5)
        assert fp.t_fail == 2.0
        assert fp.slope == pytest.approx(0.15)
        assert not fp.censored

    def test_extrapolation_capped(self):
        s = series([0.0, 20.0, 40.0], [0.0, 1e-5, 2e-5])
        fp = failure_point(s, 0.5)
        assert fp.censored
        assert fp.t_fail == 200.0

    def test_flat_series_has_no_crossing(self):
        s = series([0.0, 10.0, 20.0], [0.0, 0.0, 0.0])
        with pytest.raises(NonPositiveTrend):
            failure_point(s, 0.5)

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            ts = np.cumsum(rng.uniform(0.5, 3.0, 10))
            vals = np.cumsum(rng.uniform(0.01, 0.1, 10))
            s = series(ts, vals)
            lows = failure_point(s, 0.3).t_fail
            highs = failure_point(s, 0.6).t_fail
            assert highs >= lows


class TestClusterFeatures:
    def test_linear_ramps(self):
        ts = np.arange(0.0, 41.0, 5.0)
        assert np.allclose(cluster_features(linear_ramp(0.025, ts)), [20.0, 0.025])
        assert np.allclose(cluster_features(linear_ramp(0.1, ts)), [5.0, 0.1])

    def test_censored_series_features(self):
        s = series([30.0, 35.0, 40.0], [0.3, 0.35, 0.4])
        assert np.allclose(cluster_features(s), [50.0, 0.01])
