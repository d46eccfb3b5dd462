import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import regen_golden
from test_linalg import assert_no_farther_than_gauss

from sulfexp import fit_pipeline, linalg, regression
from sulfexp.curves import ExpansionSeries, SeriesBlock
from sulfexp.dataio import generate_synthetic
from sulfexp.errors import (
    ConstantResponse,
    DimensionMismatch,
    MissingField,
    NonFiniteValue,
    PredictionOverflow,
    RankDeficient,
    TooFewRows,
    ValidationError,
)
from sulfexp.mixtures import MIXTURE_FIELDS, GroupLabel, Mixture
from sulfexp.regression import (
    CONST_ROLE,
    FIELD_TO_ROLE,
    GROUP_ROLES,
    _LOG_FLOAT_MAX,
    GroupModel,
    design_rows,
    fit_group_model,
    ols_fit,
)


def grid_refine_two_coefficients(X, y, lo=-10.0, hi=10.0, rounds=12, grid=41):
    """Independent least-squares minimizer: zooming grid over (b0, b1)."""
    c0, c1 = (lo + hi) / 2, (lo + hi) / 2
    half = (hi - lo) / 2
    for _ in range(rounds):
        b0 = np.linspace(c0 - half, c0 + half, grid)
        b1 = np.linspace(c1 - half, c1 + half, grid)
        bb0, bb1 = np.meshgrid(b0, b1, indexing="ij")
        betas = np.stack([bb0.ravel(), bb1.ravel()], axis=1)
        rss = ((y[None, :] - betas @ X.T) ** 2).sum(axis=1)
        best = int(np.argmin(rss))
        c0, c1 = betas[best]
        half /= grid / 4
    return np.array([c0, c1])


class TestOlsFit:
    def test_exact_affine_line(self):
        X = np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
        y = np.array([1.0, 3.0, 5.0])
        fit = ols_fit(X, y)
        assert np.allclose(fit.coefficients, [2.0, 1.0], atol=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.residual_std == pytest.approx(0.0, abs=1e-12)

    def test_noiseless_recovery(self):
        rng = np.random.default_rng(0)
        X = np.hstack([rng.normal(size=(50, 2)), np.ones((50, 1))])
        beta = np.array([1.5, -2.0, 0.7])
        fit = ols_fit(X, X @ beta)
        assert np.abs(fit.coefficients - beta).max() <= 1e-9
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_null_relationship(self):
        # response orthogonal to the non-constant regressor, zero mean
        X = np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, 1.0], [-1.0, 1.0]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        fit = ols_fit(X, y)
        assert fit.coefficients[0] == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(0.0, abs=1e-12)

    def test_normal_equation_residual_randomized(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(5, 40))
            p = int(rng.integers(1, 5))
            X = np.hstack([rng.normal(size=(n, p)), np.ones((n, 1))])
            y = rng.normal(size=n)
            fit = ols_fit(X, y)
            lhs = X.T @ (y - X @ fit.coefficients)
            assert np.abs(lhs).max() <= 1e-8 * (1 + np.abs(X.T @ y).max())

    def test_r_squared_decomposition(self):
        rng = np.random.default_rng(2)
        X = np.hstack([rng.normal(size=(30, 2)), np.ones((30, 1))])
        y = X @ np.array([1.0, 2.0, 0.5]) + rng.normal(size=30)
        fit = ols_fit(X, y)
        fitted = X @ fit.coefficients
        ss_model = ((fitted - y.mean()) ** 2).sum()
        rss = ((y - fitted) ** 2).sum()
        tss = ((y - y.mean()) ** 2).sum()
        assert (ss_model + rss) == pytest.approx(tss, rel=1e-6)

    def test_extra_noise_regressor_never_hurts_r2(self):
        rng = np.random.default_rng(3)
        X = np.hstack([rng.normal(size=(40, 1)), np.ones((40, 1))])
        y = X @ np.array([2.0, 1.0]) + rng.normal(size=40)
        base = ols_fit(X, y).r_squared
        wide = ols_fit(np.hstack([X[:, :1], rng.normal(size=(40, 1)), X[:, 1:]]), y).r_squared
        assert wide >= base - 1e-12

    def test_matches_grid_refinement_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            X = np.hstack([rng.uniform(-2, 2, size=(20, 1)), np.ones((20, 1))])
            y = X @ np.array([1.3, -0.4]) + 0.1 * rng.normal(size=20)
            fit = ols_fit(X, y)
            oracle = grid_refine_two_coefficients(X, y)
            assert np.abs(fit.coefficients - oracle).max() <= 1e-4

    def test_rank_deficient(self):
        X = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        with pytest.raises(RankDeficient):
            ols_fit(X, np.array([1.0, 2.0, 3.0]))

    def test_constant_response_exact_fit(self):
        X = np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
        fit = ols_fit(X, np.array([4.0, 4.0, 4.0]))
        assert fit.r_squared == 1.0

    def test_constant_response_inexact_raises(self):
        # no intercept column: constant y cannot be fit exactly
        X = np.array([[0.0], [1.0], [2.0]])
        with pytest.raises(ConstantResponse):
            ols_fit(X, np.array([4.0, 4.0, 4.0]))

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            ols_fit(np.ones((2, 2)), np.array([1.0, 2.0]))

    def test_collinear_columns_rank_deficient(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(0, 1, size=30)
        X = np.stack([x, 3.0 * x, np.ones(30)], axis=1)
        with pytest.raises(RankDeficient):
            ols_fit(X, x + rng.normal(size=30))

    def test_one_solve_gives_beta_and_inverse_diagonal(self, monkeypatch):
        calls = []
        real = linalg.solve_symmetric
        monkeypatch.setattr(linalg, "solve_symmetric", lambda A, b: calls.append(b) or real(A, b))
        rng = np.random.default_rng(8)
        X = np.hstack([rng.uniform(0, 5, size=(40, 3)), np.ones((40, 1))])
        y = X @ np.array([0.5, -1.0, 2.0, 0.3]) + 0.1 * rng.normal(size=40)
        fit = ols_fit(X, y)
        assert len(calls) == 1
        inverse = np.linalg.inv(X.T @ X)
        assert np.allclose(fit.coefficients, inverse @ (X.T @ y), rtol=1e-10, atol=0.0)
        residuals = y - X @ fit.coefficients
        se = np.sqrt(float(residuals @ residuals) / (40 - 4) * np.diag(inverse))
        assert np.allclose(fit.t_statistics, fit.coefficients / se, rtol=1e-10, atol=0.0)

    def test_no_farther_from_exact_than_gauss_on_golden_normal_equations(self, monkeypatch):
        systems = []
        real = ols_fit

        def record(X, y):
            systems.append((X.T @ X, X.T @ y))
            return real(X, y)

        monkeypatch.setattr(regression, "ols_fit", record)
        for counts, seed in regen_golden.DATASETS:
            fit_pipeline(generate_synthetic(counts, noise=regen_golden.NOISE, seed=seed).pairs)
        assert len(systems) == 3 * len(regen_golden.DATASETS)
        assert_no_farther_than_gauss(systems)

    def test_t_statistics_magnitude(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 1, size=200)
        X = np.stack([x, np.ones(200)], axis=1)
        y = 5.0 * x + 0.01 * rng.normal(size=200)
        fit = ols_fit(X, y)
        # strong signal: slope t-stat enormous, both finite
        assert fit.t_statistics[0] > 100
        assert np.all(np.isfinite(fit.t_statistics))


def panel(mixtures, times, value):
    pairs = []
    for mix in mixtures:
        samples = tuple((t, value(mix, t)) for t in times)
        pairs.append((mix, ExpansionSeries(mixture_id=mix.id, samples=samples)))
    return pairs


class TestFitGroupModel:
    times = np.arange(0.0, 41.0, 5.0)

    def test_ll_round_trip(self):
        mixtures = [Mixture(id=f"m{i}", wc=0.42 + 0.02 * i) for i in range(5)]
        pairs = panel(mixtures, self.times, lambda m, t: 0.0157 * m.wc * t + 0.0305)
        gm = fit_group_model(pairs, GroupLabel.LL)
        assert np.abs(gm.coefficients - [0.0157, 0.0305]).max() <= 1e-9
        assert gm.fit.r_squared == pytest.approx(1.0, abs=1e-9)
        assert gm.form == "linear"
        assert gm.variable_roles == ("WC*T", "const")

    def test_ml_round_trip(self):
        mixtures = [
            Mixture(id=f"m{i}", wc=0.45 + 0.02 * i, c3a=4.0 + 0.5 * i) for i in range(6)
        ]
        pairs = panel(
            mixtures, self.times,
            lambda m, t: 0.0293 * m.wc * t + 0.000975 * m.c3a * t + 0.0216,
        )
        gm = fit_group_model(pairs, GroupLabel.ML)
        assert np.abs(gm.coefficients - [0.0293, 0.000975, 0.0216]).max() <= 1e-9

    def test_hn_round_trip_through_log(self):
        mixtures = [Mixture(id=f"m{i}", cement_content=0.55 + 0.01 * i) for i in range(8)]
        pairs = panel(
            mixtures, np.arange(0.0, 6.0, 1.0),
            lambda m, t: np.exp(11.20 * m.cement_content * t - 5.68 * t - 3.66),
        )
        gm = fit_group_model(pairs, GroupLabel.HN)
        expected = np.array([11.20, -5.68, -3.66])
        assert np.abs((gm.coefficients - expected) / expected).max() <= 1e-6
        assert gm.form == "log-linear"
        assert gm.dropped_rows == 0

    def test_hn_drops_nonpositive_rows(self):
        mixtures = [Mixture(id=f"m{i}", cement_content=0.55 + 0.01 * i) for i in range(4)]
        pairs = panel(
            mixtures, np.arange(0.0, 6.0, 1.0),
            lambda m, t: np.exp(11.20 * m.cement_content * t - 5.68 * t - 3.66),
        )
        # poison one sample per series with a non-positive expansion
        poisoned = []
        for mix, series in pairs:
            samples = list(series.samples)
            samples[0] = (samples[0][0], -0.001)
            poisoned.append((mix, ExpansionSeries(mixture_id=mix.id, samples=tuple(samples))))
        gm = fit_group_model(poisoned, GroupLabel.HN)
        assert gm.dropped_rows == 4

    def test_needs_two_mixtures(self):
        mixtures = [Mixture(id="only", wc=0.5)]
        pairs = panel(mixtures, self.times, lambda m, t: 0.0157 * m.wc * t + 0.0305)
        with pytest.raises(TooFewRows):
            fit_group_model(pairs, GroupLabel.LL)


def role_value_oracle(role, mixture, t):
    """One regressor cell, computed on its own from Python floats."""
    if role == CONST_ROLE:
        return 1.0
    if role == "T":
        return t
    field = {r: f for f, r in FIELD_TO_ROLE.items()}[role]
    return mixture.require(field)[0] * t


def design_rows_oracle(pairs, roles, log_response):
    """Row-by-row pooling of every (mixture, sample)."""
    rows, ys, dropped = [], [], 0
    for mixture, series in pairs:
        for t, exp_value in series.samples:
            if log_response:
                if exp_value <= 0:
                    dropped += 1
                    continue
                ys.append(math.log(exp_value))
            else:
                ys.append(exp_value)
            rows.append([role_value_oracle(role, mixture, t) for role in roles])
    if not rows:
        raise TooFewRows("no usable observations after filtering")
    return np.array(rows), np.array(ys), dropped


ALL_ROLES = tuple(FIELD_TO_ROLE.values()) + ("T", CONST_ROLE)


class TestDesignRows:
    @staticmethod
    def assert_same(pairs, roles, log_response):
        X, y, dropped = design_rows(pairs, roles, log_response)
        X0, y0, dropped0 = design_rows_oracle(pairs, roles, log_response)
        assert X.shape == X0.shape and X.tobytes() == X0.tobytes()
        assert y.tobytes() == y0.tobytes()
        assert dropped == dropped0

    @pytest.mark.parametrize("roles", list(GROUP_ROLES.values()) + [ALL_ROLES, (CONST_ROLE,), ("T",)])
    @pytest.mark.parametrize("log_response", [False, True])
    def test_matches_row_by_row_build_on_generated_data(self, roles, log_response):
        pairs = generate_synthetic((4, 5, 4), noise=0.05, seed=3).pairs
        self.assert_same(pairs, roles, log_response)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), log_response=st.booleans(),
           roles=st.lists(st.sampled_from(ALL_ROLES), min_size=1, max_size=4).map(tuple))
    def test_matches_row_by_row_build_with_nonpositive_rows(self, seed, n, log_response, roles):
        rng = np.random.default_rng(seed)
        pairs = []
        for i in range(n):
            mixture = Mixture(id=f"m{i}", **dict(zip(MIXTURE_FIELDS, [
                rng.uniform(0.3, 0.7), *rng.uniform(0.0, 60.0, size=4), rng.uniform(0.4, 0.7),
                rng.uniform(1.0, 6.0),
            ])))
            k = int(rng.integers(0, 8))
            times = np.cumsum(rng.uniform(0.1, 5.0, size=k))
            # about a third of the values are <= 0, zeros included
            values = rng.choice([0.0, -1.0, 1.0], size=k) * rng.uniform(0.0, 3.0, size=k)
            pairs.append((mixture, ExpansionSeries(mixture_id=mixture.id,
                                                   samples=np.array((times, values)).T)))
        try:
            design_rows_oracle(pairs, roles, log_response)
        except TooFewRows:
            with pytest.raises(TooFewRows):
                design_rows(pairs, roles, log_response)
            return
        self.assert_same(pairs, roles, log_response)

    def test_log_response_is_math_log(self):
        # numpy's vectorized log can differ from math.log in the last bit
        values = np.random.default_rng(0).uniform(0.01, 5.0, 4000)
        series = ExpansionSeries(mixture_id="m", samples=np.array((np.arange(4000.0), values)).T)
        _, y, _ = design_rows([(Mixture(id="m"), series)], ("T", CONST_ROLE), log_response=True)
        assert y.tolist() == [math.log(v) for v in values.tolist()]

    def test_missing_field_only_for_a_mixture_with_rows(self):
        full = Mixture(id="full", cement_content=0.6)
        bare = Mixture(id="bare")
        pairs = [
            (full, ExpansionSeries(mixture_id="full", samples=[[0.0, 0.1], [1.0, 0.2]])),
            (bare, ExpansionSeries(mixture_id="bare", samples=[[0.0, -0.1], [1.0, 0.0]])),
        ]
        X, y, dropped = design_rows(pairs, GROUP_ROLES[GroupLabel.HN], log_response=True)
        assert X.shape == (2, 3) and dropped == 2
        with pytest.raises(MissingField, match="'bare' is missing field 'cement_content'"):
            design_rows(pairs, GROUP_ROLES[GroupLabel.HN], log_response=False)

    def test_unknown_role(self):
        pairs = generate_synthetic((1, 1, 1), seed=0).pairs
        with pytest.raises(ValidationError, match="unknown regressor role 'FOO'"):
            design_rows(pairs, ("FOO", CONST_ROLE), log_response=False)

    def test_no_rows(self):
        with pytest.raises(TooFewRows):
            design_rows([], GROUP_ROLES[GroupLabel.LL], log_response=False)


class TestBlockRows:
    """A block's member rows pool exactly as the same records given as pairs."""

    ds = generate_synthetic((4, 5, 4), noise=0.05, seed=3)
    pairs = ds.pairs

    @pytest.mark.parametrize("log_response", [False, True])
    def test_subset_matches_the_member_pairs(self, log_response):
        members = [7, 0, 12, 3]
        sub = SeriesBlock.from_pairs(self.pairs).subset(members)
        got = design_rows(sub, ALL_ROLES, log_response)
        want = design_rows_oracle([self.pairs[i] for i in members], ALL_ROLES, log_response)
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
        assert got[2] == want[2]

    def test_fit_group_model_takes_a_block(self):
        ml = [i for i, (mix, _) in enumerate(self.pairs)
              if self.ds.labels[mix.id] is GroupLabel.ML]
        sub = SeriesBlock.from_pairs(self.pairs).subset(ml)
        from_block = fit_group_model(sub, GroupLabel.ML)
        from_pairs = fit_group_model([self.pairs[i] for i in ml], GroupLabel.ML)
        assert from_block.coefficients.tobytes() == from_pairs.coefficients.tobytes()
        with pytest.raises(TooFewRows, match="needs >= 2 mixtures, got 1"):
            fit_group_model(sub.subset([0]), GroupLabel.ML)

    def test_missing_field_names_every_record_that_keeps_rows(self):
        pairs = [(Mixture(id=mid, wc=0.5), ExpansionSeries(mixture_id=mid,
                                                           samples=[[0.0, 0.1], [1.0, 0.2]]))
                 for mid in ("a", "b")]
        with pytest.raises(MissingField) as excinfo:
            design_rows(pairs, GROUP_ROLES[GroupLabel.ML], log_response=False)
        assert str(excinfo.value) == "mixture 'a' is missing field 'c3a' (and 1 more: 'b')"

    def test_overflowing_regressor_is_rejected_without_a_warning(self):
        pairs = [(Mixture(id=mid, wc=0.5), ExpansionSeries(
            mixture_id=mid, samples=[[0.0, 0.1], [t, 0.2], [1e308, 0.3]]))
            for mid, t in (("a", 1.0), ("b", 2.0))]
        X, _, _ = design_rows(pairs, GROUP_ROLES[GroupLabel.LL], log_response=False)
        assert np.isfinite(X).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue, match="contains NaN or Inf entries"):
                fit_group_model(pairs, GroupLabel.LL)

    def test_overflowing_sum_of_squares_is_rejected_without_a_warning(self):
        X = np.column_stack([np.arange(4.0), np.ones(4)])
        y = np.array([1e200, -1e200, 1e200, -3e200])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue, match="sum of squares of the fit overflows"):
                ols_fit(X, y)


    def test_overflowing_solution_is_rejected_without_a_warning(self):
        # finite normal equations whose solution's residual overflows a float
        X = np.column_stack([np.arange(1.0, 4.0), np.ones(3)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue, match="solution of the system overflows"):
                ols_fit(X, np.array([1e308, 0.0, 0.0]))

class TestGroupModelConstruction:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_non_finite_coefficient_rejected(self, index, bad):
        coefficients = [0.0293, 0.000975, 0.0216]
        coefficients[index] = bad
        with pytest.raises(NonFiniteValue, match="must be finite"):
            GroupModel(group=GroupLabel.ML,
                       variable_roles=("WC*T", "C3A*T", "const"), coefficients=coefficients)

    @pytest.mark.parametrize("coefficients,message", [
        (1.0, r"LL model coefficients must be a 1-D vector, got shape \(\)"),
        (None, r"must be a 1-D vector, got shape \(\)"),
        (True, r"must be a 1-D vector, got shape \(\)"),
        ([[0.0305]], r"must be a 1-D vector, got shape \(1, 1\)"),
        ([0.0157, 0.0305], "^1 roles but 2 coefficients$"),
    ], ids=["scalar", "none", "bool", "column", "too-long"])
    def test_coefficients_other_than_one_per_role_rejected(self, coefficients, message):
        with pytest.raises(DimensionMismatch, match=message):
            GroupModel(group=GroupLabel.LL, variable_roles=("const",), coefficients=coefficients)


class TestGroupModelEvaluation:
    def test_time_line_decomposition(self):
        gm = GroupModel(
            group=GroupLabel.ML,
            variable_roles=("WC*T", "C3A*T", "const"),
            coefficients=np.array([0.0293, 0.000975, 0.0216]),
        )
        mix = Mixture(id="x", wc=0.481, c3a=5.1)
        slope, intercept = gm.time_line(mix)
        assert slope == pytest.approx(0.0293 * 0.481 + 0.000975 * 5.1)
        assert intercept == pytest.approx(0.0216)
        assert slope * 20.0 + intercept == pytest.approx(
            0.0293 * (0.481 * 20.0) + 0.000975 * (5.1 * 20.0) + 0.0216)


def ulps_from(x: float, k: int) -> float:
    """``x`` moved ``k`` floats up (k > 0) or down (k < 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


@st.composite
def accepted_lines(draw):
    """A form, a slope, an ascending grid and an intercept that puts the
    line's larger end (or, for a linear model, perhaps its smaller end)
    within a few floats of the largest value the form allows."""
    log = draw(st.booleans())
    if draw(st.booleans()):
        times = np.arange(draw(st.integers(1, 200)), dtype=float) * draw(st.floats(1e-3, 1e3))
    else:
        times = np.array(sorted(draw(st.lists(
            st.floats(0.0, 1e4), min_size=1, max_size=60, unique=True))))
    scale = 1.0 if log else draw(st.sampled_from([1.0, 1e100, 1e300, 1e305]))
    slope = draw(st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0]))) * scale
    k = draw(st.integers(-4, 4))
    if log:
        edge, at_high = ulps_from(_LOG_FLOAT_MAX, k), True
    else:
        at_high = draw(st.booleans())
        edge = ulps_from(sys.float_info.max, min(k, 0)) * (1.0 if at_high else -1.0)
    # the larger end is the last time for a rising line, the first for a falling one
    t_edge = times[-1] if (slope >= 0) == at_high else times[0]
    intercept = edge - slope * float(t_edge)
    assume(math.isfinite(intercept))
    return log, slope, intercept, times


class TestEndBoundsBoundTheCurve:
    """What ``ExpansionSeries._on_grid``'s end check rests on: a line that
    ``GroupModel.expansion`` accepts has a finite value at every time."""

    MIX = Mixture(id="x", wc=0.5)

    @staticmethod
    def model(log: bool, slope: float, intercept: float) -> GroupModel:
        return GroupModel(group=GroupLabel.HN if log else GroupLabel.ML,
                          variable_roles=("T", CONST_ROLE), coefficients=[slope, intercept])

    # a falling log-linear curve that starts at ln of the largest float, the float
    # below it and the float above it, which alone overflows
    @settings(max_examples=500, deadline=None)
    @given(line=accepted_lines())
    @example(line=(True, -1.0, _LOG_FLOAT_MAX, np.arange(41.0)))
    @example(line=(True, -1.0, ulps_from(_LOG_FLOAT_MAX, -1), np.arange(41.0)))
    @example(line=(True, -1.0, ulps_from(_LOG_FLOAT_MAX, 1), np.arange(41.0)))
    def test_accepted_ends_mean_every_value_is_finite(self, line):
        log, slope, intercept, times = line
        bounds = [slope * float(t) + intercept for t in (times[0], times[-1])]
        limit = _LOG_FLOAT_MAX if log else sys.float_info.max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                values = self.model(log, slope, intercept).expansion(self.MIX, times)
            except PredictionOverflow:
                assert max(bounds) > limit or min(bounds) == -math.inf
                return
        assert max(bounds) <= limit
        assert np.isfinite(values).all()
