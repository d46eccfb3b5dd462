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
        tau, obj = _line_minimize(X, y, C, z, d)
        zz = z + tau * d
        assert obj == primal_objective(X, y, C, zz[:2], zz[2])
        for t in scan_line_candidates(X, y, C, z, d):
            zt = z + t * d
            other = primal_objective(X, y, C, zt[:2], zt[2])
            assert obj <= other + 1e-12 * abs(other)


def paper_scale_boundary_problems():
    """The two boundary training sets of a generated paper-scale fit."""
    pairs = generate_synthetic((12, 16, 12), noise=0.03, seed=0).pairs
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
            oracle = lsq_linear(A, b, bounds=(0.0, C), method="bvls").x
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

        def counted_line_minimize(X, y, C, z, d):
            starts.add(z.tobytes())  # each round's line searches start from its point
            return line_minimize(X, y, C, z, d)

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
