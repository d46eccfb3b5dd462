"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
report lines alongside the pytest verdicts.
"""

import contextlib
import dataclasses
import itertools
import math
import time

import numpy as np
import pytest

from sulfexp import (
    GroupLabel,
    Mixture,
    PipelineConfig,
    classify_mixture,
    fit_pipeline,
    generate_synthetic,
    load_bundle,
    ols_fit,
    default_bundle,
    predict_expansion,
    predicted_failure_time,
    save_bundle,
    svm_train,
    validate_holdout,
)
from sulfexp.clustering import kmeans
from sulfexp.curves import ExpansionSeries, smooth, smoothing_weights
from sulfexp.pca import center_and_scale, principal_components

LL, ML, HN = GroupLabel.LL, GroupLabel.ML, GroupLabel.HN


@contextlib.contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} FAIL - {name}")
        raise
    print(f"criterion {number:02d} PASS - {name}")


def test_criterion_01_reference_coefficient_reproduction():
    with criterion(1, "reference-coefficient reproduction"):
        start = time.perf_counter()
        got_ll = predict_expansion(Mixture(id="1000", wc=0.49), LL, t=40.0)
        got_ml = predict_expansion(Mixture(id="1018", wc=0.481, c3a=5.1), ML, t=20.0)
        got_hn = predict_expansion(Mixture(id="1033", cement_content=0.589), HN, t=5.0)
        elapsed = time.perf_counter() - start
        # hand evaluations of the three shipped model forms
        assert got_ll == pytest.approx(0.0157 * (0.49 * 40) + 0.0305, rel=1e-9)
        assert got_ml == pytest.approx(
            0.0293 * (0.481 * 20) + 0.000975 * 5.1 * 20 + 0.0216, rel=1e-9)
        assert got_ml == pytest.approx(0.402916, rel=1e-9)
        assert got_hn == pytest.approx(
            math.exp(11.20 * (0.589 * 5) - 5.68 * 5 - 3.66), rel=1e-6)
        assert elapsed < 0.05


def test_criterion_02_boundary_reproduction():
    with criterion(2, "boundary reproduction"):
        bundle = dataclasses.replace(default_bundle(), boundary_first_simplified=None)
        hot = Mixture(id="a", c3a=10.0, wc=0.5, c3s=40.0)
        assert classify_mixture(hot, bundle) is HN
        moderate = Mixture(id="b", c3a=5.1, wc=0.481, c3s=50.0)
        assert classify_mixture(moderate, bundle) is ML
        slow = Mixture(id="c", c3a=5.0, wc=0.45, c3s=55.0)
        assert classify_mixture(slow, bundle) is LL


EXPECTED_COEFFICIENTS = {
    LL: np.array([0.0157, 0.0305]),
    ML: np.array([0.0293, 0.000975, 0.0216]),
    HN: np.array([11.20, -5.68, -3.66]),
}


def _coefficient_errors(bundle):
    return {
        g: np.abs((bundle.models[g].coefficients - e) / e).max()
        for g, e in EXPECTED_COEFFICIENTS.items()
    }


def test_criterion_03_round_trip_coefficient_recovery():
    with criterion(3, "round-trip coefficient recovery"):
        start = time.perf_counter()

        clean = generate_synthetic((12, 12, 12), noise=0.0, seed=5)
        bundle = fit_pipeline(clean.pairs, PipelineConfig())
        for g, err in _coefficient_errors(bundle).items():
            assert err <= 1e-6, f"noiseless {g} off by {err:.2e}"
        assert all(
            bundle.diagnostics.assignments[mid] is lab for mid, lab in clean.labels.items()
        )
        assert all(
            classify_mixture(mix, bundle) is clean.labels[mix.id] for mix, _ in clean.pairs
        )

        noisy = generate_synthetic((12, 40, 14), noise=0.05, seed=13)
        bundle_n = fit_pipeline(noisy.pairs, PipelineConfig())
        for g, err in _coefficient_errors(bundle_n).items():
            assert err <= 0.05, f"noisy {g} off by {err:.3f}"
        agreement = np.mean([
            classify_mixture(mix, bundle_n) is noisy.labels[mix.id] for mix, _ in noisy.pairs
        ])
        assert agreement >= 0.90

        assert time.perf_counter() - start < 10.0


def _brute_force_kmeans(points, k):
    best = np.inf
    for assignment in itertools.product(range(k), repeat=points.shape[0]):
        a = np.array(assignment)
        total = 0.0
        for c in range(k):
            members = points[a == c]
            if members.shape[0]:
                total += ((members - members.mean(axis=0)) ** 2).sum()
        best = min(best, total)
    return best


def test_criterion_04_kmeans_global_optimality():
    with criterion(4, "k-means global optimality at desk scale"):
        start = time.perf_counter()
        rng = np.random.default_rng(404)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, min(n, 3) + 1))
            dim = int(rng.integers(1, 3))
            points = rng.normal(size=(n, dim))
            result = kmeans(points, k=k, seed=7, restarts=32)
            target = _brute_force_kmeans(points, k)
            assert result.objective <= target + 1e-9
        assert time.perf_counter() - start < 30.0


def _grid_refine_two(X, y, lo=-10.0, hi=10.0, rounds=14, grid=41):
    c = np.array([(lo + hi) / 2] * 2)
    half = (hi - lo) / 2
    for _ in range(rounds):
        b0 = np.linspace(c[0] - half, c[0] + half, grid)
        b1 = np.linspace(c[1] - half, c[1] + half, grid)
        bb0, bb1 = np.meshgrid(b0, b1, indexing="ij")
        betas = np.stack([bb0.ravel(), bb1.ravel()], axis=1)
        rss = ((y[None, :] - betas @ X.T) ** 2).sum(axis=1)
        c = betas[int(np.argmin(rss))]
        half /= 2.0
    return c


def test_criterion_05_ols_oracle_equivalence():
    with criterion(5, "least-squares oracle equivalence"):
        rng = np.random.default_rng(505)
        for _ in range(5):
            X = np.hstack([rng.uniform(-3, 3, size=(25, 1)), np.ones((25, 1))])
            beta = rng.uniform(-2, 2, size=2)
            y = X @ beta + 0.2 * rng.normal(size=25)
            fit = ols_fit(X, y)
            oracle = _grid_refine_two(X, y)
            assert np.abs(fit.coefficients - oracle).max() <= 1e-4
        for _ in range(200):
            n = int(rng.integers(4, 50))
            p = int(rng.integers(1, min(n - 1, 5)))
            X = np.hstack([rng.normal(size=(n, p)), np.ones((n, 1))])
            y = rng.normal(size=n)
            fit = ols_fit(X, y)
            resid = np.abs(X.T @ (y - X @ fit.coefficients)).max()
            assert resid <= 1e-8 * (1 + np.abs(X.T @ y).max())


def _grid_refine_svm(X, y, C, half=8.0, rounds=26, grid=17):
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
    return objs[best]


def test_criterion_06_svm_oracle_equivalence():
    with criterion(6, "svm oracle equivalence"):
        rng = np.random.default_rng(606)
        for _ in range(20):
            n = int(rng.integers(4, 13))
            direction = rng.normal(size=2)
            direction /= np.linalg.norm(direction)
            X = rng.uniform(-2, 2, size=(n, 2))
            y = np.where(X @ direction + 0.3 * rng.normal(size=n) >= 0, 1.0, -1.0)
            if np.all(y == y[0]):
                y[0] = -y[0]
            C = float(rng.choice([1.0, 10.0, 100.0]))
            boundary = svm_train(X, y, C=C)
            oracle = _grid_refine_svm(X, y, C)
            assert boundary.objective <= oracle * (1 + 1e-3) + 1e-12
        for _ in range(5):
            n = int(rng.integers(4, 13))
            gap = rng.uniform(1.0, 3.0)
            neg = rng.uniform(-2, -0.1, size=(n // 2 + 2, 2)) - [gap, 0]
            pos = rng.uniform(0.1, 2, size=(n // 2 + 2, 2)) + [gap, 0]
            X = np.vstack([neg, pos])
            y = np.array([-1.0] * neg.shape[0] + [1.0] * pos.shape[0])
            boundary = svm_train(X, y, C=1e4)
            assert boundary.slacks.max() <= 1e-6


def test_criterion_07_pca_properties():
    with criterion(7, "pca orthonormality and variance maximality"):
        rng = np.random.default_rng(707)
        for _ in range(100):
            n = int(rng.integers(3, 11))
            p = int(rng.integers(2, 8))
            X, _, _ = center_and_scale(rng.normal(size=(n, p)), standardize=False)
            m = min(n - 1, p)
            result = principal_components(X, m=m)
            gram = result.loadings @ result.loadings.T
            assert np.abs(gram - np.eye(m)).max() <= 1e-8
            assert np.all(np.diff(result.explained_variance) <= 1e-12)
            deflated = X.copy()
            probes = rng.standard_normal((1000, p))
            probes /= np.linalg.norm(probes, axis=1, keepdims=True)
            for w in result.loadings:
                comp = np.linalg.norm(deflated @ w) ** 2
                best_probe = (np.linalg.norm(deflated @ probes.T, axis=0) ** 2).max()
                assert comp >= best_probe - 1e-6
                deflated = deflated - np.outer(X @ w, w)


def test_criterion_08_smoothing_invariants():
    with criterion(8, "smoothing weight identity and fixed points"):
        rng = np.random.default_rng(808)
        for _ in range(1000):
            alpha = rng.uniform(0.0, 1.0)
            dt_prev = rng.uniform(1e-3, 100.0)
            dt_next = rng.uniform(1e-3, 100.0)
            assert abs(sum(smoothing_weights(alpha, dt_prev, dt_next)) - 1.0) <= 1e-12
        times = np.cumsum(rng.uniform(0.5, 3.0, 12))
        constant = ExpansionSeries(mixture_id="c", samples=tuple((t, 0.37) for t in times))
        for alpha in (0.0, 0.3, 0.5, 1.0):
            assert np.array_equal(smooth(constant, alpha).values, constant.values)
        wiggly = ExpansionSeries(
            mixture_id="w", samples=tuple((t, float(v)) for t, v in
                                          zip(times, rng.normal(size=12))))
        assert np.array_equal(smooth(wiggly, 1.0).values, wiggly.values)


def test_criterion_09_inversion_consistency():
    with criterion(9, "failure-time inversion consistency"):
        rng = np.random.default_rng(909)
        bundle = default_bundle()
        count = 0
        while count < 100:
            group = (HN, ML, LL)[count % 3]
            mix = Mixture(
                id=f"m{count}",
                wc=rng.uniform(0.42, 0.62),
                c3a=rng.uniform(3.0, 12.0),
                cement_content=rng.uniform(0.53, 0.66),
            )
            t_fail = predicted_failure_time(mix, bundle, group=group)
            value = predict_expansion(mix, group, bundle, t_fail)
            assert value == pytest.approx(bundle.failure_threshold, abs=1e-9)
            count += 1


def test_criterion_10_holdout_consistency_bookkeeping():
    with criterion(10, "holdout consistency harness"):
        import dataclasses

        ds = generate_synthetic((4, 4, 7), noise=0.0, seed=21)
        assert len(ds.pairs) == 15
        pairs = list(ds.pairs)
        planted = 0
        for i, (mix, series) in enumerate(pairs):
            if ds.labels[mix.id] is LL and planted < 3:
                pairs[i] = (dataclasses.replace(mix, c3a=9.5), series)
                planted += 1
        assert planted == 3
        report = validate_holdout(default_bundle(), pairs, ds.labels)
        assert report.agreement == pytest.approx(0.80)
        assert sum(r.agree for r in report.rows) == 12


def test_criterion_11_bundle_persistence(tmp_path):
    with criterion(11, "bundle persistence bit-exact"):
        bundle = default_bundle()
        path = tmp_path / "bundle.json"
        save_bundle(bundle, path)
        loaded = load_bundle(path)
        assert loaded == bundle
        assert loaded.models[LL].coefficients.tolist() == [0.0157, 0.0305]
        assert loaded.models[ML].coefficients.tolist() == [0.0293, 0.000975, 0.0216]
        assert loaded.models[HN].coefficients.tolist() == [11.20, -5.68, -3.66]
        assert loaded.boundary_first.weights.tolist() == [1.0, 1.241]
        assert loaded.boundary_first.bias == -8.697
        assert loaded.boundary_second.weights.tolist() == [1.0, 387.3]
        assert loaded.boundary_second.bias == -233.6
        assert loaded.failure_threshold == 0.5
