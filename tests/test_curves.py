import copy
import dataclasses
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sulfexp.curves import (
    CENSORED_TIME_CAP,
    ExpansionSeries,
    FailurePoint,
    SeriesBlock,
    cluster_features,
    failure_point,
    smooth,
    smoothing_weights,
)
from sulfexp.errors import (
    InvalidAlpha,
    MissingField,
    NonFiniteValue,
    NonPositiveTrend,
    TooFewSamples,
    ValidationError,
)
from sulfexp.mixtures import Mixture


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


VALIDATION_CASES = [
    ([0.0, np.nan], [0.1, 0.2], NonFiniteValue, "has non-finite samples"),
    ([0.0, 1.0], [0.1, np.inf], NonFiniteValue, "has non-finite samples"),
    ([-np.inf, 1.0], [0.1, 0.2], NonFiniteValue, "has non-finite samples"),
    ([-1.0, 1.0], [0.1, 0.2], ValidationError, "has negative times"),
    ([1.0, -1.0], [0.1, 0.2], ValidationError, "has negative times"),
    ([0.0, 2.0, 1.0], [0.1, 0.2, 0.3], ValidationError, "times not strictly increasing"),
    ([0.0, 1.0, 1.0], [0.1, 0.2, 0.3], ValidationError, "times not strictly increasing"),
]


class TestSeriesValidation:
    def test_times_must_increase(self):
        with pytest.raises(ValidationError):
            series([0.0, 1.0, 1.0], [0.0, 0.1, 0.2])

    def test_negative_values_kept_and_flagged(self):
        s = series([0.0, 1.0, 2.0], [0.0, -0.01, 0.02])
        assert s.values[1] == -0.01

    @pytest.mark.parametrize("ts, es, error, message", VALIDATION_CASES)
    def test_each_validation_error(self, ts, es, error, message):
        with pytest.raises(error, match=f"series 'bad' {message}"):
            series(ts, es, mid="bad")

    @pytest.mark.parametrize("ts, es, error, message", VALIDATION_CASES)
    def test_each_validation_error_from_columns(self, ts, es, error, message):
        with pytest.raises(error, match=f"series 'bad' {message}"):
            ExpansionSeries.from_columns("bad", np.array(ts), np.array(es))

    @pytest.mark.parametrize("ts, es", [
        ([0.0, 1.0], [0.1]), ([[0.0, 1.0]], [[0.1, 0.2]]), (0.0, 0.1), (["a", "b"], [0.1, 0.2])])
    def test_columns_must_be_aligned_1d_numbers(self, ts, es):
        with pytest.raises(ValidationError, match="must be aligned 1-D arrays of numbers"):
            ExpansionSeries.from_columns("bad", ts, es)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, np.nan, np.inf]),
                              st.floats(-1.0, 1.0)), max_size=5))
    def test_columns_and_samples_agree(self, samples):
        def outcome(build):
            try:
                s = build()
            except ValidationError as exc:
                return type(exc), str(exc)
            assert not s.times.flags.writeable and not s.values.flags.writeable
            return s.times.tobytes(), s.values.tobytes(), s.group

        ts, es = [t for t, _ in samples], [e for _, e in samples]
        assert outcome(lambda: ExpansionSeries.from_columns("c", ts, es, "LL")) == outcome(
            lambda: ExpansionSeries("c", samples, "LL"))

    @pytest.mark.parametrize("samples", [[0.0, 1.0, 2.0], [(0.0, 1.0, 2.0)], [[[0.0, 1.0]]],
                                         [(0.0, 0.1), (1.0,)], [("x", 0.1)]])
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

    @pytest.mark.parametrize("duplicate", [
        lambda s: pickle.loads(pickle.dumps(s)), copy.copy, copy.deepcopy])
    def test_copies_are_read_only(self, duplicate):
        s = ExpansionSeries(mixture_id="p", samples=[[0.0, 0.1], [1.5, -0.2]], group="ML")
        again = duplicate(s)
        assert again == s and again.group == "ML"
        assert again.times.tobytes() == s.times.tobytes()
        assert again.values.tobytes() == s.values.tobytes()
        for array in (again.times, again.values):
            with pytest.raises(ValueError):
                array[0] = 5.0
            with pytest.raises(ValueError):
                array.flags.writeable = True

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


# --- the per-series kernels the block replaced, kept as the oracle -------------


def smooth_series_oracle(series, alpha):
    """One series at a time: the length check, the slice expression, the
    finiteness check of the series it builds."""
    if len(series) < 3:
        raise TooFewSamples(
            f"series {series.mixture_id!r} has {len(series)} samples; smoothing needs >= 3"
        )
    t = series.times
    s = series.values
    dt = np.diff(t)
    with np.errstate(all="ignore"):
        w_prev, _, w_next = smoothing_weights(alpha, dt[:-1], dt[1:])
        mid = s[1:-1]
        out = s.copy()
        out[1:-1] = mid + w_prev * (s[:-2] - mid) + w_next * (s[2:] - mid)
    return ExpansionSeries(series.mixture_id, np.array((t, out)).T, series.group)


def failure_point_oracle(series, threshold):
    if len(series) < 2:
        raise TooFewSamples(
            f"series {series.mixture_id!r} needs >= 2 samples to define a slope"
        )
    t = series.times
    e = series.values
    with np.errstate(all="ignore"):
        if e[0] >= threshold:
            slope = (e[1] - e[0]) / (t[1] - t[0])
            return FailurePoint(t_fail=float(t[0]), slope=float(slope), censored=False)
        crossing = np.nonzero(e >= threshold)[0]
        if crossing.size:
            i = int(crossing[0])
            slope = (e[i] - e[i - 1]) / (t[i] - t[i - 1])
            t_fail = t[i - 1] + (threshold - e[i - 1]) / slope
            return FailurePoint(t_fail=float(t_fail), slope=float(slope), censored=False)
        slope = (e[-1] - e[-2]) / (t[-1] - t[-2])
        if slope <= 0:
            raise NonPositiveTrend(
                f"series {series.mixture_id!r} never reaches {threshold} and its "
                f"terminal secant slope {slope:.4g} admits no finite crossing"
            )
        t_fail = min(t[-1] + (threshold - e[-1]) / slope, CENSORED_TIME_CAP)
    return FailurePoint(t_fail=float(t_fail), slope=float(slope), censored=True)


def run_oracle(kernel, series_list, *args):
    """Per-series results, or the expected block error: the first failure's
    type and message, naming every other failed id."""
    results, failures = [], []
    for s in series_list:
        try:
            results.append(kernel(s, *args))
        except (TooFewSamples, NonFiniteValue, NonPositiveTrend) as exc:
            failures.append((s.mixture_id, exc))
    if not failures:
        return results, None
    (_, first), others = failures[0], [mid for mid, _ in failures[1:]]
    message = first.args[0]
    if others:
        message += f" (and {len(others)} more: {', '.join(map(repr, others))})"
    return None, (type(first), message)


THRESHOLD = 0.5
KINDS = ("free", "failed-at-start", "crossing", "censored", "flat", "falling", "overflow")


@st.composite
def records(draw):
    """One record's (times, values): 1-40 samples at non-uniform spacing."""
    n = draw(st.integers(1, 40))
    start = draw(st.floats(0.0, 5.0))
    steps = draw(st.lists(st.floats(1e-3, 10.0), min_size=n - 1, max_size=n - 1))
    times = np.cumsum([start] + steps)
    t = times - times[0]
    kind = draw(st.sampled_from(KINDS))
    if kind == "free":
        values = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    elif kind == "failed-at-start":
        rest = draw(st.lists(st.floats(-2.0, 3.0), min_size=n - 1, max_size=n - 1))
        values = np.array([draw(st.floats(THRESHOLD, 3.0))] + rest)
    elif kind == "crossing":
        noise = draw(st.lists(st.floats(-0.05, 0.05), min_size=n, max_size=n))
        values = draw(st.floats(-1.0, 0.45)) + draw(st.floats(1e-3, 1.0)) * t + noise
    elif kind == "censored":
        # slopes down to 1e-7 per year extrapolate past the cap
        values = draw(st.floats(-0.5, 0.4)) + draw(st.floats(1e-7, 1e-2)) * t
        values = np.minimum(values, THRESHOLD - 1e-3)
    elif kind == "flat":
        values = np.full(n, draw(st.floats(-1.0, 0.49)))
    elif kind == "falling":
        values = draw(st.floats(-1.0, 0.49)) - draw(st.floats(0.0, 0.5)) * t
    else:
        values = np.where(np.arange(n) % 2 == 0, 1e308, -1e308)
    return times, values


@st.composite
def blocks(draw):
    recs = draw(st.lists(records(), min_size=0, max_size=12))
    return [ExpansionSeries(f"r{i:02d}", np.array((t, v)).T) for i, (t, v) in enumerate(recs)]


class TestBlockKernelsMatchPerSeriesOracle:
    @settings(max_examples=300, deadline=None)
    @given(series_list=blocks(), alpha=st.floats(0.0, 1.0))
    def test_smoothing(self, series_list, alpha):
        expected, error = run_oracle(smooth_series_oracle, series_list, alpha)
        block = SeriesBlock.from_series(series_list)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if error is not None:
                with pytest.raises(error[0]) as excinfo:
                    smooth(block, alpha)
                assert str(excinfo.value) == error[1]
                return
            out = smooth(block, alpha)
            for s, want in zip(series_list, expected):
                assert smooth(s, alpha).values.tobytes() == want.values.tobytes()
        assert out.ids == block.ids and out.times.tobytes() == block.times.tobytes()
        joined = np.concatenate([s.values for s in expected] or [np.empty(0)])
        assert out.values.tobytes() == joined.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(series_list=blocks())
    def test_failure_features(self, series_list):
        expected, error = run_oracle(failure_point_oracle, series_list, THRESHOLD)
        block = SeriesBlock.from_series(series_list)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if error is not None:
                with pytest.raises(error[0]) as excinfo:
                    cluster_features(block, THRESHOLD)
                assert str(excinfo.value) == error[1]
                return
            features = cluster_features(block, THRESHOLD)
            points = [failure_point(s, THRESHOLD) for s in series_list]
        assert features.shape == (len(series_list), 2)
        want = np.array([[fp.t_fail, fp.slope] for fp in expected]).reshape(-1, 2)
        assert features.tobytes() == want.tobytes()
        assert points == expected

    def test_short_series_after_an_overflowing_one(self):
        # the first record fails its finiteness check before the second's length is looked at
        series_list = [series([0.0, 1.0, 2.0], [1e308, -1e308, 1e308], mid="big"),
                       series([0.0, 1.0], [0.1, 0.2], mid="short")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue) as excinfo:
                smooth(SeriesBlock.from_series(series_list))
        assert str(excinfo.value) == "series 'big' has non-finite samples (and 1 more: 'short')"
        with pytest.raises(TooFewSamples) as excinfo:
            smooth(SeriesBlock.from_series(series_list[::-1]))
        assert str(excinfo.value) == (
            "series 'short' has 2 samples; smoothing needs >= 3 (and 1 more: 'big')")

    def test_overflowing_series_raises_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue, match="series 'big' has non-finite samples$"):
                smooth(series([0.0, 1.0, 2.0], [1e308, -1e308, 1e308], mid="big"))


class TestSeriesBlock:
    def pairs(self):
        return [
            (Mixture(id="a", wc=0.5, c3a=4.0), series([0.0, 1.0, 3.0], [0.1, 0.2, 0.4], mid="a")),
            (Mixture(id="b", wc=0.4), series([0.0, 2.0], [0.0, 0.3], mid="b")),
            (Mixture(id="c", c3a=6.0), series([1.0, 2.0, 4.0, 5.0], [0.2, 0.1, 0.6, 0.9], mid="c")),
        ]

    def test_layout(self):
        block = SeriesBlock.from_pairs(self.pairs())
        assert block.ids == ("a", "b", "c") and len(block) == 9
        assert block.offsets.tolist() == [0, 3, 5, 9] and block.lengths.tolist() == [3, 2, 4]
        assert block.times.tolist() == [0.0, 1.0, 3.0, 0.0, 2.0, 1.0, 2.0, 4.0, 5.0]
        assert block.fields.shape == (3, 7)
        assert np.isnan(block.fields[1, 1]) and block.fields[0, 1] == 4.0
        for array in (block.times, block.values, block.offsets, block.fields):
            assert not array.flags.writeable
        assert block.series(2) == self.pairs()[2][1]

    def test_from_series_has_every_field_absent(self):
        block = SeriesBlock.from_series([s for _, s in self.pairs()])
        assert np.isnan(block.fields).all() and block.fields.shape == (3, 7)

    def test_empty(self):
        block = SeriesBlock.from_pairs([])
        assert len(block) == 0 and block.ids == () and block.fields.shape == (0, 7)
        assert smooth(block).values.size == 0
        assert cluster_features(block).shape == (0, 2)

    def test_subset_keeps_order_and_samples(self):
        block = SeriesBlock.from_pairs(self.pairs())
        sub = block.subset([2, 0])
        assert sub.ids == ("c", "a") and sub.offsets.tolist() == [0, 4, 7]
        assert sub.values.tolist() == [0.2, 0.1, 0.6, 0.9, 0.1, 0.2, 0.4]
        assert sub.fields.tobytes() == block.fields[[2, 0]].tobytes()
        assert block.subset([]).ids == () and len(block.subset([])) == 0

    def test_require_names_the_first_record_and_field_and_then_the_rest(self):
        block = SeriesBlock.from_pairs(self.pairs())
        assert block.require(("wc",), [0, 1]).tolist() == [[0.5], [0.4]]
        with pytest.raises(MissingField) as excinfo:
            block.require(("c3a", "wc"))
        assert str(excinfo.value) == (
            "mixture 'b' is missing field 'c3a' (and 1 more: 'c')")
        with pytest.raises(ValidationError, match="unknown mixture field 'zz'"):
            block.require(("zz",))

    def test_require_is_c_contiguous(self):
        matrix = SeriesBlock.from_pairs(self.pairs()).require(("c3a", "wc"), [0])
        assert matrix.flags.c_contiguous

    @pytest.mark.parametrize("make", [
        lambda pairs: SeriesBlock.from_pairs(pairs),
        lambda pairs: SeriesBlock.from_series([s for _, s in pairs]),
        lambda pairs: SeriesBlock.from_pairs(pairs).subset([2, 0]),
        lambda pairs: smooth(SeriesBlock.from_pairs([pairs[0], pairs[2]])),
    ], ids=["from_pairs", "from_series", "subset", "smooth"])
    def test_arrays_cannot_be_made_writable_again(self, make):
        block = make(self.pairs())
        for array in (block.times, block.values, block.offsets, block.fields):
            with pytest.raises(ValueError):
                array[0] = 5
            with pytest.raises(ValueError):
                array.flags.writeable = True
