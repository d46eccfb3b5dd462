import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import lsq_linear

from sulfexp import fit_pipeline, generate_synthetic, svm
from sulfexp.errors import (
    DimensionMismatch,
    NonFiniteValue,
    OneSidedBoundary,
    SingleClass,
    ValidationError,
)
from sulfexp.mixtures import GroupLabel
from sulfexp.svm import (
    LinearBoundary,
    _bounded_lsq,
    _line_minimize,
    _polish,
    _warm_start,
    simplify_axis_parallel,
    svm_train,
)


def primal_objective(X, y, C, beta, b):
    margins = y * (X @ beta + b)
    return 0.5 * float(beta @ beta) + C * float(np.maximum(0.0, 1.0 - margins).sum())


def grid_refine_oracle(X, y, C, half=8.0, rounds=26, grid=17):
    """Zooming grid search over (beta1, beta2, b); independent of the solver.

    The box halves each round (conservative against the steep hinge walls
    of large C, where the grid minimizer can sit several cells from the
    true optimum on the flat side).
    """
    center = np.zeros(3)
    for _ in range(rounds):
        axes = [np.linspace(center[i] - half, center[i] + half, grid) for i in range(3)]
        b1, b2, bb = np.meshgrid(*axes, indexing="ij")
        betas = np.stack([b1.ravel(), b2.ravel()], axis=1)
        biases = bb.ravel()
        margins = y[None, :] * (betas @ X.T + biases[:, None])
        hinge = np.maximum(0.0, 1.0 - margins).sum(axis=1)
        objs = 0.5 * (betas ** 2).sum(axis=1) + C * hinge
        best = int(np.argmin(objs))
        center = np.array([betas[best, 0], betas[best, 1], biases[best]])
        half /= 2.0
    return objs[best], center


def random_problem(rng, n):
    """Labeled 2-D points with a planted direction, not always separable."""
    direction = rng.normal(size=2)
    direction /= np.linalg.norm(direction)
    X = rng.uniform(-2, 2, size=(n, 2))
    margin = X @ direction + 0.3 * rng.normal(size=n)
    y = np.where(margin >= 0, 1.0, -1.0)
    if np.all(y == y[0]):
        y[0] = -y[0]
    return X, y


class TestSvmTrain:
    def test_two_point_canonical_solution(self):
        X = np.array([[-1.0, 0.0], [1.0, 0.0]])
        y = np.array([-1.0, 1.0])
        boundary = svm_train(X, y, C=1e6)
        assert np.abs(boundary.weights - [1.0, 0.0]).max() <= 1e-9
        assert abs(boundary.bias) <= 1e-9
        # functional margin exactly 1 at both points
        assert y[0] * boundary.decision_value(X[0]) == pytest.approx(1.0, abs=1e-9)
        assert y[1] * boundary.decision_value(X[1]) == pytest.approx(1.0, abs=1e-9)

    def test_embedded_one_dim_separable(self):
        X = np.array([[-3.0, 0.0], [-1.5, 0.0], [-1.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        y = np.array([-1.0, -1.0, -1.0, 1.0, 1.0])
        boundary = svm_train(X, y, C=1e4)
        # separating line x = 0, margin-maximal: beta = (1, 0), b = 0
        assert abs(-boundary.bias / boundary.weights[0]) <= 1e-3
        obj, _ = grid_refine_oracle(X, y, 1e4)
        assert boundary.objective <= obj * (1 + 1e-3)

    def test_inseparable_xor_like(self):
        X = np.array([[0.0, 0.1], [1.1, 1.0], [1.0, 0.05], [0.1, 1.0]])
        y = np.array([-1.0, -1.0, 1.0, 1.0])
        boundary = svm_train(X, y, C=100.0)
        assert np.any(boundary.slacks > 1e-8)
        obj, _ = grid_refine_oracle(X, y, 100.0)
        assert boundary.objective == pytest.approx(obj, rel=1e-3)

    def test_objective_matches_oracle_on_random_problems(self):
        rng = np.random.default_rng(20)
        for trial in range(20):
            n = int(rng.integers(4, 13))
            X, y = random_problem(rng, n)
            C = float(rng.choice([1.0, 10.0, 100.0]))
            boundary = svm_train(X, y, C=C)
            oracle_obj, _ = grid_refine_oracle(X, y, C)
            assert boundary.objective <= oracle_obj * (1 + 1e-3) + 1e-9

    def test_separable_high_C_slacks_vanish(self):
        rng = np.random.default_rng(21)
        for trial in range(10):
            n = int(rng.integers(4, 13))
            shift = rng.uniform(1.5, 3.0)
            neg = rng.uniform(-2, -0.2, size=(n // 2 + 2, 2)) - [shift, 0]
            pos = rng.uniform(0.2, 2, size=(n // 2 + 2, 2)) + [shift, 0]
            X = np.vstack([neg, pos])
            y = np.array([-1.0] * neg.shape[0] + [1.0] * pos.shape[0])
            boundary = svm_train(X, y, C=1e4)
            assert boundary.slacks.max() <= 1e-6
            # geometric margin within 1e-3 of the oracle's
            oracle_obj, oracle_z = grid_refine_oracle(X, y, 1e4)
            margin = 2.0 / np.linalg.norm(boundary.weights)
            oracle_margin = 2.0 / np.linalg.norm(oracle_z[:2])
            assert margin == pytest.approx(oracle_margin, rel=1e-3)

    def test_slack_tightness(self):
        rng = np.random.default_rng(22)
        X, y = random_problem(rng, 10)
        boundary = svm_train(X, y, C=100.0)
        margins = y * (X @ boundary.weights + boundary.bias)
        expected = np.maximum(0.0, 1.0 - margins)
        assert np.abs(boundary.slacks - expected).max() <= 1e-8
        assert np.all(boundary.slacks >= 0)

    def test_objective_monotone_in_C(self):
        rng = np.random.default_rng(23)
        X, y = random_problem(rng, 8)
        objs = [svm_train(X, y, C=c).objective for c in (0.5, 1.0, 5.0, 25.0, 125.0)]
        assert all(b >= a - 1e-9 for a, b in zip(objs, objs[1:]))

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            svm_train(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([1.0, 1.0]), C=1.0)

    def test_bad_labels_rejected(self):
        with pytest.raises(ValidationError):
            svm_train(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0.0, 1.0]), C=1.0)

    def test_conflicting_duplicates_force_slack(self):
        X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        y = np.array([1.0, -1.0, 1.0, -1.0])
        boundary = svm_train(X, y, C=10.0)
        assert np.any(boundary.slacks > 0.5)


def scan_line_candidates(X, y, C, z, d):
    """Every point where a ray's objective can be smallest, by brute force.

    tau = 0, each breakpoint where a margin crosses 1, and the quadratic
    vertex of every interval between neighbouring breakpoints, with the
    active set of each interval read off at an interior probe.
    """
    a = y * (X @ z[:2] + z[2])
    c = y * (X @ d[:2] + d[2])
    breaks = sorted({float(t) for t in (1.0 - a[c != 0]) / c[c != 0]})
    taus = [0.0] + breaks
    dd = float(d[:2] @ d[:2])
    if dd > 0:
        bounds = [breaks[0] - 1.0] + breaks + [breaks[-1] + 1.0] if breaks else [-1.0, 1.0]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            active = (a + 0.5 * (lo + hi) * c) < 1.0
            taus.append(-(float(z[:2] @ d[:2]) - C * float(c[active].sum())) / dd)
    return taus


def line_minimize_by_stable_sort(X, y, C, z, d, a):
    """``_line_minimize`` with its breakpoints ordered by the stable sort alone."""
    c = y * (X @ d[:2] + d[2])
    dd = float(d[:2] @ d[:2])
    nz = c != 0.0
    breaks = (1.0 - a[nz]) / c[nz]
    order = np.argsort(breaks, kind="stable")
    breaks = breaks[order]
    q0 = float(z[:2] @ d[:2]) - C * float(c[c > 0].sum())
    offsets = q0 + np.concatenate(([0.0], np.cumsum(C * np.abs(c[nz][order]))))
    k = int(np.searchsorted(offsets[1:] + breaks * dd, 0.0))
    if dd > 0:
        tau = -offsets[k] / dd
        if k < breaks.size:
            tau = min(tau, float(breaks[k]))
    elif k + 1 < breaks.size and offsets[k + 1] == 0.0:
        tau = 0.5 * (float(breaks[k]) + float(breaks[k + 1]))
    else:
        tau = float(breaks[min(k, breaks.size - 1)]) if breaks.size else 0.0
    zz = z + tau * d
    margins = y * (X @ zz[:2] + zz[2])
    return tau, primal_objective(X, y, C, zz[:2], zz[2]), margins


@st.composite
def tied_line_problems(draw):
    """A ray over integer points, some repeated under the same or the opposite
    label, so that breakpoints tie, with a C whose jumps round."""
    coordinate = st.integers(-2, 2)
    base = draw(st.lists(st.tuples(coordinate, coordinate, st.sampled_from([-1.0, 1.0])),
                         min_size=4, max_size=20))
    repeats = draw(st.lists(st.tuples(st.integers(0, len(base) - 1), st.sampled_from([-1.0, 1.0])),
                            min_size=4, max_size=40))
    rows = base + [(*base[i][:2], base[i][2] * flip) for i, flip in repeats]
    rows = draw(st.permutations(rows))
    X = np.array([row[:2] for row in rows], dtype=float)
    y = np.array([row[2] for row in rows])
    z = np.array(draw(st.tuples(coordinate, coordinate, coordinate)), dtype=float)
    d = np.array(draw(st.tuples(coordinate, coordinate, coordinate).filter(any)), dtype=float)
    C = draw(st.sampled_from([0.1, 1.0 / 3.0, 0.7, 1.0, 10.0]))
    return X, y, C, z, d


class TestExactLineSearch:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 40),
        log_c=st.floats(-2.0, 4.0),
        bias_only=st.booleans(),
    )
    # a flat stretch between two breakpoints on a bias-only ray
    @example(seed=328, n=3, log_c=4.0, bias_only=True)
    def test_never_above_any_candidate(self, seed, n, log_c, bias_only):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 2)) * rng.uniform(0.1, 50.0, size=2)
        y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        y[:2] = (-1.0, 1.0)
        C = 10.0 ** log_c
        z = rng.normal(size=3) * rng.uniform(0.0, 5.0)
        d = np.array([0.0, 0.0, 1.0]) if bias_only else rng.normal(size=3)
        d /= np.linalg.norm(d)
        tau, obj, margins = _line_minimize(X, y, C, z, d, y * (X @ z[:2] + z[2]))
        zz = z + tau * d
        assert obj == primal_objective(X, y, C, zz[:2], zz[2])
        assert np.array_equal(margins, y * (X @ zz[:2] + zz[2]))
        for t in scan_line_candidates(X, y, C, z, d):
            zt = z + t * d
            other = primal_objective(X, y, C, zt[:2], zt[2])
            assert obj <= other + 1e-12 * abs(other)

    @settings(max_examples=1000, deadline=None)
    @given(problem=tied_line_problems())
    def test_tied_breakpoints_keep_the_stable_order(self, problem):
        X, y, C, z, d = problem
        a = y * (X @ z[:2] + z[2])
        got = _line_minimize(X, y, C, z, d, a)
        expected = line_minimize_by_stable_sort(X, y, C, z, d, a)
        for value, oracle in zip(got, expected):
            assert np.asarray(value).tobytes() == np.asarray(oracle).tobytes()


def paper_scale_boundary_problems(seed=0, noise=0.03):
    """The two boundary training sets of a generated paper-scale fit."""
    pairs = generate_synthetic((12, 16, 12), noise=noise, seed=seed).pairs
    assignments = fit_pipeline(pairs).diagnostics.assignments
    mixtures = [mix for mix, _ in pairs]
    rest = [mix for mix in mixtures if assignments[mix.id] is not GroupLabel.HN]
    return [
        (np.array([m.require("c3a", "wc") for m in mixtures]),
         np.array([1.0 if assignments[m.id] is GroupLabel.HN else -1.0 for m in mixtures])),
        (np.array([m.require("c3s", "wc") for m in rest]),
         np.array([1.0 if assignments[m.id] is GroupLabel.ML else -1.0 for m in rest])),
    ]


class TestPolishStart:
    def test_result_does_not_depend_on_the_start(self):
        rng = np.random.default_rng(6)
        for X, y in paper_scale_boundary_problems():
            z0, clean0 = _polish(X, y, 100.0, np.zeros(3))
            assert clean0
            for _ in range(3):
                start = z0 + rng.normal(size=3) * (1.0 + np.abs(z0))
                z1, clean1 = _polish(X, y, 100.0, start)
                assert clean1
                assert z1.tobytes() == z0.tobytes()


#: two points 0.2*(1, -1) apart, far from the origin
TWO_POINTS = np.array([[221.0, 1246.4], [220.8, 1246.6]])
#: (seed, noise, boundary): both boundaries of seed 0
BOUNDARY_CASES = [(0, 0.03, 0), (0, 0.03, 1)]
BOUNDARY_IDS = ["first@0", "second@0"]
#: two second boundaries whose optimal biases fill an interval, so the
#: warm and the origin descent may certify different biases
FLAT_BIAS_CASES = [(19, 0.0, 1), (23, 0.03, 1)]
FLAT_BIAS_IDS = ["second@19-noise-0", "second@23"]


def descent_from_the_origin(X, y, C):
    """``_polish`` from the origin on the points minus their mean, mapped back
    to the raw plane: (weights, bias, certificate)."""
    m = X.mean(axis=0)
    z, certificate = _polish(X - m, y, C, np.zeros(3))
    (w0, w1, b), (m0, m1) = z.tolist(), m.tolist()
    return z[:2], b - (w0 * m0 + w1 * m1), certificate


class TestWarmStart:
    @pytest.mark.parametrize("seed,noise,which", BOUNDARY_CASES, ids=BOUNDARY_IDS)
    def test_boundary_is_the_descent_from_the_origin(self, seed, noise, which):
        X, y = paper_scale_boundary_problems(seed, noise)[which]
        boundary = svm_train(X, y, C=100.0)
        weights, bias, certified = descent_from_the_origin(X, y, 100.0)
        assert certified
        assert boundary.weights.tobytes() == weights.tobytes()
        assert np.float64(boundary.bias).tobytes() == np.float64(bias).tobytes()

    @pytest.mark.parametrize("seed,noise,which", FLAT_BIAS_CASES, ids=FLAT_BIAS_IDS)
    def test_flat_bias_optimum_equals_the_origin_descent(self, seed, noise, which):
        X, y = paper_scale_boundary_problems(seed, noise)[which]
        boundary = svm_train(X, y, C=100.0)
        z, certified = _polish(X, y, 100.0, np.zeros(3))
        assert certified
        assert boundary.objective == pytest.approx(
            primal_objective(X, y, 100.0, z[:2], z[2]), rel=1e-10)

    def test_subgradient_certified_warm_point_is_kept(self):
        # two points 0.2*(1, -1) apart, far from the origin: below C = 2 / |d|^2 = 25,
        # d = x_0 - x_1, both stay inside the margin, no point sits on it and only
        # the minimum-norm subgradient certifies the optimum 2C - C^2 |d|^2 / 2
        X, y = TWO_POINTS, np.array([1.0, -1.0])
        centered = X - X.mean(axis=0)
        z, certificate = _polish(centered, y, 10.0, _warm_start(centered, y, 10.0))
        assert certificate == "subgradient"
        assert svm_train(X, y, C=10.0).weights.tobytes() == z[:2].tobytes()

    def test_former_origin_case_is_certified_by_the_warm_descent(self):
        # on the raw points the warm descent certified nothing here, and the
        # descent from the origin reached 27693.863221773616
        X = np.array([[-7.501955742347753, -428.1567581428835],
                      [-7.47782417035477, -428.20153710657775],
                      [-7.490316016568041, -428.17952313230563],
                      [-7.482626742955739, -428.1751048647716]])
        y = np.array([1.0, -1.0, -1.0, 1.0])
        C = 391258.50514739705
        centered = X - X.mean(axis=0)
        assert _polish(centered, y, C, _warm_start(centered, y, C))[1]
        assert svm_train(X, y, C=C).objective <= 27693.863221773616

    def test_at_most_half_the_kkt_solves_of_the_origin_start(self, monkeypatch):
        problems = [p for seed in range(10) for p in paper_scale_boundary_problems(seed)]
        solves = [0]
        kkt_solve = svm._kkt_solve

        def counted_kkt_solve(*args):
            solves[0] += 1
            return kkt_solve(*args)

        monkeypatch.setattr(svm, "_kkt_solve", counted_kkt_solve)
        for X, y in problems:
            svm_train(X, y, C=100.0)
        warm, solves[0] = solves[0], 0
        for X, y in problems:
            _polish(X, y, 100.0, np.zeros(3))
        assert 2 * warm <= solves[0]

    def test_overflowing_system_starts_from_the_origin(self):
        X = np.array([[1.0, 2.0], [2.0, 1.0], [3.0, 3.0], [0.5, 0.2]]) * 1e-200
        y = np.array([1.0, 1.0, -1.0, -1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # C * A^T A overflows in the warm start, but not in the descent
            assert not _warm_start(X, y, 1e308).any()
            with pytest.raises(OneSidedBoundary):
                svm_train(X, y, C=1e308)


def margin_rounding(X, boundary):
    """Per point of X, a bound on the rounding of x_i.w + b: a few ulps of its
    largest term, which far from the origin is far above the sum."""
    return 4.0 * np.finfo(float).eps * (np.abs(X * boundary.weights).sum(axis=1)
                                        + abs(boundary.bias))


def bias_is_flat(boundary, X, y):
    """Whether the optimum stays optimal as the bias moves one way.

    Each one-sided derivative of the objective in the bias is C times a count:
    minus the violators' label sum plus the margin points that moving b
    would push into violation. The optimal bias is an interval exactly
    when one of the two counts is zero.
    """
    margins = y * (X @ boundary.weights + boundary.bias)
    tol = 1e-7 * (1.0 + np.abs(margins).max())
    on, viol = np.abs(1.0 - margins) <= tol, margins < 1.0 - tol
    pull = int(y[viol].sum())
    return -pull + int((on & (y < 0)).sum()) == 0 or pull + int((on & (y > 0)).sum()) == 0


def train_or_one_sided(X, y, C):
    try:
        return svm_train(X, y, C=C)
    except OneSidedBoundary:
        return None


class TestCentering:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 39),
           log_spread=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
           shift=st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)),
           log_c=st.floats(-1.0, 4.0))
    def test_translated_points_give_the_translated_boundary(
            self, seed, n, log_spread, shift, log_c):
        rng = np.random.default_rng(seed)
        X, y = random_problem(rng, n)
        X = X * 10.0 ** np.array(log_spread)
        s, C = np.array(shift), 10.0 ** log_c
        near, far = train_or_one_sided(X, y, C), train_or_one_sided(X + s, y, C)
        if near is None or far is None:
            # a one-sided optimum has no translated twin unless the bias is free
            other, points = (far, X + s) if near is None else (near, X)
            assert other is None or bias_is_flat(other, points, y)
            return
        # the weights: 1e-8 of the largest; the objective: 1e-10 relative, plus
        # the rounding of margins evaluated up to 1e4 from the origin
        rounding = margin_rounding(X, near) + margin_rounding(X + s, far)
        assert np.abs(far.weights - near.weights).max() <= 1e-8 * np.abs(near.weights).max()
        assert abs(far.objective - near.objective) <= (
            1e-10 * near.objective + C * float(rounding.sum()))
        if not bias_is_flat(near, X, y):
            here = X @ near.weights + near.bias
            there = (X + s) @ far.weights + far.bias
            assert np.abs(there - here).max() <= (
                1e-8 * (1.0 + np.abs(here).max()) + 2.0 * float(rounding.max()))

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), sizes=st.tuples(st.integers(1, 20), st.integers(1, 20)),
           angle=st.floats(0.0, 2.0 * math.pi), log_gap=st.floats(-3.0, 0.0),
           shift=st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)),
           log_c=st.floats(-1.0, 5.0))
    def test_separable_set_is_certified(self, seed, sizes, angle, log_gap, shift, log_c):
        rng = np.random.default_rng(seed)
        u = np.array([math.cos(angle), math.sin(angle)])
        gap, C = 10.0 ** log_gap, 10.0 ** log_c
        along = np.concatenate([0.5 * gap + rng.uniform(0.0, 1.0, sizes[0]),
                                -0.5 * gap - rng.uniform(0.0, 1.0, sizes[1])])
        across = rng.uniform(-1.0, 1.0, along.size)
        X = np.outer(along, u) + np.outer(across, [-u[1], u[0]]) + np.array(shift)
        y = np.repeat([1.0, -1.0], sizes)
        # never NoConvergence; a boundary is no worse than the planted separator
        boundary = train_or_one_sided(X, y, C)
        if boundary is not None:
            planted = LinearBoundary(("x0", "x1"), 2.0 / gap * u, -2.0 / gap * float(u @ shift))
            bound = primal_objective(X, y, C, planted.weights, planted.bias)
            assert boundary.objective <= (
                bound * (1.0 + 1e-10) + C * float(margin_rounding(X, planted).sum()))

    @pytest.mark.parametrize("C", [1.0, 10.0, 100.0, 1e3, 1e4, 1e5])
    def test_two_points_reach_the_closed_form(self, C):
        # with d = x_0 - x_1 the optimum is 2C - C^2 |d|^2 / 2 up to C = 2 / |d|^2,
        # where both points sit on the margin, and the hard margin 2 / |d|^2 above
        y = np.array([1.0, -1.0])
        d2 = float(np.sum((TWO_POINTS[0] - TWO_POINTS[1]) ** 2))
        optimum = 2.0 * C - C * C * d2 / 2.0 if C <= 2.0 / d2 else 2.0 / d2
        assert svm_train(TWO_POINTS, y, C=C).objective == pytest.approx(optimum, rel=1e-10)


class TestOverflow:
    @pytest.mark.parametrize("scale", [1e152, 1e154, 1e200, 1e300])
    def test_points_whose_products_overflow_are_a_typed_error(self, scale):
        X = np.array([[1.0, 2.0], [2.0, 1.0], [3.0, 3.0], [0.5, 0.2]]) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue, match="svm training on these points overflows"):
                svm_train(X, [1, 1, -1, -1])


def bounded_lsq_problem(rng, kind, e):
    """A 3 x e matrix: generic, rank one, or margin rows y_i*(x_i, 1) of a
    few repeated points, which make many columns equal or opposite."""
    if kind == "generic":
        return rng.normal(size=(3, e)) * 10.0 ** rng.uniform(-2, 2)
    if kind == "rank one":
        return np.outer(rng.normal(size=3), rng.normal(size=e))
    points = rng.uniform(-3, 3, size=(int(rng.integers(1, 5)), 2)) * rng.uniform(0.1, 50.0, 2)
    X = points[rng.integers(0, len(points), e)]
    return np.where(rng.random(e) < 0.5, -1.0, 1.0) * np.vstack([X.T, np.ones(e)])


class TestBoundedLeastSquares:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), e=st.integers(0, 40), log_c=st.floats(-2.0, 4.0),
           kind=st.sampled_from(["generic", "rank one", "margin rows"]))
    @example(seed=288542, e=11, log_c=0.0, kind="margin rows")
    def test_matches_scipy_bvls(self, seed, e, log_c, kind):
        rng = np.random.default_rng(seed)
        C = 10.0 ** log_c
        A = bounded_lsq_problem(rng, kind, e)
        b = rng.normal(size=3) * 10.0 ** rng.uniform(-2, 4) * C
        x = _bounded_lsq(A, b, C)
        assert x.shape == (e,) and ((x >= 0.0) & (x <= C)).all()
        if e == 0:
            return
        with warnings.catch_warnings():  # the oracle may warn about a rank-deficient A
            warnings.simplefilter("ignore")
            # scipy's default cap of e iterations can stop BVLS short of the
            # optimum on margin rows (the example above); status 0 means it did
            fit = lsq_linear(A, b, bounds=(0.0, C), method="bvls", max_iter=10 * e)
        assert fit.status != 0
        oracle = fit.x
        # the minimizing x need not be unique, but the residual A x - b is
        scale = np.abs(b).sum() + C * np.abs(A).sum()
        assert np.linalg.norm((A @ x - b) - (A @ oracle - b)) <= 1e-9 * scale


def degenerate_plane(n, negatives, seed=0):
    """Uniform points over c3s in [40, 60], wc in [0.4, 0.6], a few labelled -1;
    at C = 100 the optimum puts every point on the +1 side."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([rng.uniform(40, 60, n), rng.uniform(0.4, 0.6, n)])
    y = np.ones(n)
    y[:negatives] = -1.0
    return X, y


class TestDescentWorkBound:
    @pytest.mark.parametrize("n,negatives", [(200, 4), (400, 6), (800, 10)])
    def test_degenerate_plane_is_certified_within_the_round_budget(
            self, monkeypatch, n, negatives):
        X, y = degenerate_plane(n, negatives)
        margin_sets, starts = [], set()
        kkt_solve, line_minimize = svm._kkt_solve, svm._line_minimize

        def counted_kkt_solve(X, y, C, on_margin, violating):
            margin_sets.append(int(on_margin.sum()))
            return kkt_solve(X, y, C, on_margin, violating)

        def counted_line_minimize(X, y, C, z, d, margins):
            starts.add(z.tobytes())  # each round's line searches start from its point
            return line_minimize(X, y, C, z, d, margins)

        monkeypatch.setattr(svm, "_kkt_solve", counted_kkt_solve)
        monkeypatch.setattr(svm, "_line_minimize", counted_line_minimize)
        z, certified = _polish(X, y, 100.0, np.zeros(3))
        assert certified
        assert max(margin_sets, default=0) <= 3
        assert len(starts) <= 300
        # the certificate, checked against an independent bounded least squares
        margins = y * (X @ z[:2] + z[2])
        tol = 1e-7 * (1.0 + np.abs(margins).max())
        on, viol = np.abs(1.0 - margins) <= tol, margins < 1.0 - tol
        g = np.append(z[:2], 0.0) - 100.0 * (y[viol, None] * np.column_stack(
            [X[viol], np.ones(viol.sum())])).sum(axis=0)
        A = y[on] * np.vstack([X[on].T, np.ones(on.sum())])
        mu = lsq_linear(A, g, bounds=(0.0, 100.0), method="bvls").x
        assert np.linalg.norm(g - A @ mu) <= 1e-10 * (1.0 + 100.0 * (np.abs(X).sum() + n))

    def test_one_sided_optimum_is_a_typed_error(self):
        X, y = degenerate_plane(800, 10)
        with pytest.raises(OneSidedBoundary) as excinfo:
            svm_train(X, y, C=100.0, feature_names=("c3s", "wc"))
        assert str(excinfo.value) == (
            "the optimal boundary in the (c3s, wc) plane puts all 800 points on its +1 side "
            "(790 labelled +1, 10 labelled -1)")


class TestNoisyFits:
    def test_noisy_second_plane_fits_a_real_boundary(self):
        bundle = fit_pipeline(generate_synthetic((12, 16, 12), noise=0.1, seed=22).pairs)
        # below the 400 of the boundary that puts both LL points on the ML side
        assert bundle.boundary_second.objective < 399.0


def classify(boundary: LinearBoundary, point) -> int:
    """Side of the boundary: +1 or -1. A decision value of exactly 0 maps to +1."""
    return 1 if boundary.decision_value(point) >= 0 else -1


class TestClassify:
    def test_first_boundary_hand_value(self):
        b = LinearBoundary(("c3a", "wc"), np.array([1.0, 1.241]), -8.697)
        assert b.decision_value([10.0, 0.5]) == pytest.approx(1.9235)
        assert classify(b, [10.0, 0.5]) == 1

    def test_second_boundary_hand_values(self):
        b = LinearBoundary(("c3s", "wc"), np.array([1.0, 387.3]), -233.6)
        assert b.decision_value([50.0, 0.481]) == pytest.approx(2.6913)
        assert classify(b, [50.0, 0.481]) == 1
        assert b.decision_value([55.0, 0.45]) == pytest.approx(-4.315)
        assert classify(b, [55.0, 0.45]) == -1

    def test_zero_maps_to_positive(self):
        b = LinearBoundary(("x0", "x1"), np.array([1.0, 0.0]), 0.0)
        assert classify(b, [0.0, 5.0]) == 1

    @settings(max_examples=100)
    @given(scale=st.floats(min_value=1e-6, max_value=1e6))
    def test_scale_invariance(self, scale):
        b = LinearBoundary(("x0", "x1"), np.array([1.0, -2.0]), 0.5)
        scaled = LinearBoundary(("x0", "x1"), b.weights * scale, b.bias * scale)
        for point in ([0.7, 0.1], [-1.0, 2.0], [5.0, -5.0]):
            assert classify(b, point) == classify(scaled, point)

    @pytest.mark.parametrize("point", [[1.0, 2.0, 3.0], [1.0], [[1.0, 2.0]]])
    def test_point_of_another_shape_rejected(self, point):
        b = LinearBoundary(("c3s", "wc"), np.array([1.0, 387.3]), -233.6)
        with pytest.raises(DimensionMismatch, match="one 2-D point"):
            b.decision_value(point)


class TestLinearBoundaryConstruction:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["weight 0", "weight 1", "bias"])
    def test_non_finite_rejected(self, where, bad):
        weights, bias = [1.0, 387.3], -233.6
        if where == "bias":
            bias = bad
        else:
            weights[int(where[-1])] = bad
        with pytest.raises(NonFiniteValue, match="must be finite"):
            LinearBoundary(("c3s", "wc"), weights, bias=bias)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0, True])
    def test_bad_box_constraint_rejected(self, bad):
        with pytest.raises(ValidationError,
                           match=f"box constraint must be a finite positive number, got {bad!r}$"):
            LinearBoundary(("c3s", "wc"), [1.0, 387.3], bias=-233.6, box_constraint=bad)

    @pytest.mark.parametrize("names", [("c3s", "wc", "air"), ("c3s",), ("c3s", 1)])
    def test_feature_names_other_than_two_strings_rejected(self, names):
        with pytest.raises(DimensionMismatch, match="exactly two feature names"):
            LinearBoundary(names, [1.0, 387.3], bias=-233.6)


class TestSimplifyAxisParallel:
    def test_clean_split_midpoint(self):
        X = np.array([[1.0, 0.3], [2.0, 0.5], [4.0, 0.4], [5.0, 0.6]])
        y = np.array([-1.0, -1.0, 1.0, 1.0])
        b = svm_train(X, y, C=100.0)
        simplified = simplify_axis_parallel(b, X, y)
        theta = -simplified.bias / simplified.weights[np.argmax(np.abs(simplified.weights))]
        assert theta == pytest.approx(3.0, abs=1e-9)
        assert simplified.weights[1] == 0.0

    def test_already_axis_parallel_unchanged(self):
        b = LinearBoundary(("c3a", "wc"), np.array([1.0, 0.0]), -8.0)
        X = np.array([[7.0, 0.4], [9.0, 0.5]])
        y = np.array([-1.0, 1.0])
        assert simplify_axis_parallel(b, X, y) is b

    def test_threshold_near_eight(self):
        # mixtures straddle c3a = 8; closest opposing pair brackets it evenly,
        # and c3a (not wc, despite its larger raw weight) is the dominant axis
        rng = np.random.default_rng(8)
        low = np.stack([rng.uniform(4.0, 7.5, 20), rng.uniform(0.4, 0.6, 20)], axis=1)
        high = np.stack([rng.uniform(8.5, 12.0, 20), rng.uniform(0.4, 0.6, 20)], axis=1)
        X = np.vstack([low, high, [[7.95, 0.5], [8.05, 0.5]]])
        y = np.array([-1.0] * 20 + [1.0] * 20 + [-1.0, 1.0])
        b = LinearBoundary(("c3a", "wc"), np.array([1.0, 1.241]), -8.697)
        simplified = simplify_axis_parallel(b, X, y)
        theta = -simplified.bias / simplified.weights[0]
        assert theta == pytest.approx(8.0, abs=1e-9)

    def test_minimizes_misclassifications(self):
        X = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [2.5, 0.0], [4.0, 0.0]])
        y = np.array([-1.0, -1.0, 1.0, 1.0, 1.0])
        b = LinearBoundary(("f0", "f1"), np.array([1.0, 0.1]), -2.2)
        simplified = simplify_axis_parallel(b, X, y)
        theta = -simplified.bias / simplified.weights[0]
        pred = np.where(X[:, 0] > theta, 1.0, -1.0)
        assert (pred != y).sum() == 0


def simplify_by_scoring_each_candidate(boundary, points, labels):
    """The O(n·u) scorer that the sorted sweep replaced, kept as the oracle."""
    X = np.asarray(points, dtype=float)
    y = np.asarray(labels, dtype=float).reshape(-1)
    if boundary.weights[0] == 0.0 or boundary.weights[1] == 0.0:
        return boundary
    spreads = X.std(axis=0)
    spreads = np.where(spreads > 0, spreads, 1.0)
    axis = int(np.argmax(np.abs(boundary.weights) * spreads))
    orient = 1.0 if boundary.weights[axis] > 0 else -1.0

    v = X[:, axis]
    u = np.unique(v)
    candidates = [float(u[0]) - 1.0]
    candidates += [float(u[i] + u[i + 1]) / 2.0 for i in range(u.size - 1)]
    candidates.append(float(u[-1]) + 1.0)

    def errors(theta):
        pred = np.where(orient * (v - theta) >= 0, 1.0, -1.0)
        return int((pred != y).sum())

    scored = []
    for j, theta in enumerate(candidates):
        err = errors(theta)
        if 0 < j < len(candidates) - 1:
            left, right = u[j - 1], u[j]
            opposing = len(set(y[v == left]) | set(y[v == right])) == 2
            gap = float(right - left)
        else:
            opposing = False
            gap = np.inf
        scored.append((err, 0 if opposing else 1, gap, theta))
    _, _, _, theta = min(scored)
    weights = np.zeros(2)
    weights[axis] = orient
    return LinearBoundary(boundary.feature_names, weights, -orient * theta,
                          box_constraint=boundary.box_constraint)


def assert_same_bits(a, b):
    assert a.weights.tobytes() == b.weights.tobytes()
    assert np.float64(a.bias).tobytes() == np.float64(b.bias).tobytes()


#: coordinates that tie, sit one ulp apart, or straddle zero
TIE_POOL = [-3.0, -1.0, -0.0, 0.0, 5e-324, 0.5, 1.0, float(np.nextafter(1.0, 0.0)),
            float(np.nextafter(1.0, 2.0)), 2.0, 7.95, 8.0, 8.05, 1e6]
coordinate = st.one_of(st.sampled_from(TIE_POOL),
                       st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))


class TestSimplifySortedSweep:
    @settings(max_examples=400, deadline=None)
    @given(rows=st.lists(st.tuples(coordinate, coordinate, st.sampled_from([-1.0, 1.0])),
                         min_size=1, max_size=40),
           weights=st.tuples(st.sampled_from([-2.0, -0.5, 0.0, 1e-9, 1.0, 3.0]),
                             st.floats(-10, 10).filter(lambda w: w != 0.0)))
    def test_matches_scoring_each_candidate(self, rows, weights):
        X = np.array([r[:2] for r in rows])
        y = np.array([r[2] for r in rows])
        b = LinearBoundary(("x0", "x1"), np.array(weights), 0.25, box_constraint=10.0)
        assert_same_bits(simplify_axis_parallel(b, X, y),
                         simplify_by_scoring_each_candidate(b, X, y))

    def test_matches_scoring_each_candidate_at_paper_scale(self):
        for X, y in paper_scale_boundary_problems():
            b = svm_train(X, y, C=100.0)
            assert_same_bits(simplify_axis_parallel(b, X, y),
                             simplify_by_scoring_each_candidate(b, X, y))

    def test_labels_must_be_signs(self):
        b = LinearBoundary(("x0", "x1"), np.array([1.0, 0.5]), 0.0)
        with pytest.raises(ValidationError, match=r"\+1 or -1"):
            simplify_axis_parallel(b, np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0.0, 1.0]))


class TestBoxConstraint:
    @pytest.mark.parametrize("C", [np.inf, -np.inf, np.nan, 0.0, -1.0])
    def test_non_finite_or_non_positive_rejected_by_name(self, C):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValidationError, match="box constraint must be a finite positive"):
            svm_train(X, np.array([-1.0, 1.0]), C=C)
