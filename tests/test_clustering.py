import itertools
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sulfexp.errors import NonFiniteValue, TooFewPoints, ValidationError
from sulfexp import clustering, curves
from sulfexp.clustering import KMeansResult, kmeans, standardize_features
from sulfexp.dataio import generate_synthetic


def brute_force_objective(points: np.ndarray, k: int) -> float:
    """Global k-means optimum by enumerating every assignment vector."""
    n = points.shape[0]
    best = np.inf
    for assignment in itertools.product(range(k), repeat=n):
        a = np.array(assignment)
        total = 0.0
        for c in range(k):
            members = points[a == c]
            if members.shape[0]:
                centroid = members.mean(axis=0)
                total += ((members - centroid) ** 2).sum()
        best = min(best, total)
    return best


def assign_step(points, centroids):
    """Each point's nearest centroid by squared distance; a tie goes to the smallest index."""
    diff = points[:, None, :] - centroids[None, :, :]
    return np.argmin(np.einsum("nkd,nkd->nk", diff, diff), axis=1)


def update_step(points, assignments, centroids):
    """Each centroid moved to the mean of its points; an empty cluster stays put."""
    centroids = centroids.copy()
    for c in range(centroids.shape[0]):
        members = points[assignments == c]
        if members.shape[0]:
            centroids[c] = members.mean(axis=0)
    return centroids


def nearest_kernel(points, centroids):
    """The batched Lloyd loop's assignment pass, on one restart."""
    return clustering._nearest_batch(points, centroids[None])[0]


def means_kernel(points, assignments, centroids):
    """The batched Lloyd loop's update pass, on one restart."""
    return clustering._means_batch(points, assignments[None], centroids[None])[0]


class TestAssignStep:
    """The assignment pass and its oracle, by inspection."""

    def test_nearest_by_inspection(self):
        for step in (assign_step, nearest_kernel):
            a = step(np.array([[0.0], [10.0]]), np.array([[1.0], [9.0]]))
            assert a.tolist() == [0, 1]

    def test_tie_goes_to_smallest_index(self):
        for step in (assign_step, nearest_kernel):
            a = step(np.array([[5.0]]), np.array([[4.0], [6.0]]))
            assert a.tolist() == [0]

    def test_zero_distance_match(self):
        for step in (assign_step, nearest_kernel):
            a = step(np.array([[0.0, 0.0], [3.0, 4.0]]), np.array([[0.0, 0.0], [3.0, 4.0]]))
            assert a.tolist() == [0, 1]


class TestUpdateStep:
    """The update pass and its oracle, by inspection."""

    def test_mean_and_empty_cluster(self):
        pts = np.array([[0.0], [2.0]])
        for step in (update_step, means_kernel):
            out = step(pts, np.array([0, 0]), np.array([[5.0], [9.0]]))
            assert out.tolist() == [[1.0], [9.0]]

    def test_single_point_clusters(self):
        pts = np.array([[1.0], [7.0]])
        for step in (update_step, means_kernel):
            out = step(pts, np.array([0, 1]), np.array([[0.0], [0.0]]))
            assert out.tolist() == [[1.0], [7.0]]

    def test_all_points_one_cluster(self):
        pts = np.array([[1.0], [3.0]])
        for step in (update_step, means_kernel):
            out = step(pts, np.array([1, 1]), np.array([[-4.0], [0.0]]))
            assert out.tolist() == [[-4.0], [2.0]]


class TestKMeans:
    def test_two_clear_clusters(self):
        pts = np.array([[0.0], [1.0], [10.0], [11.0]])
        result = kmeans(pts, k=2, seed=0)
        assert result.converged
        assert result.objective == pytest.approx(1.0, abs=1e-12)
        assert sorted(result.centroids.ravel().tolist()) == [0.5, 10.5]
        a = result.assignments
        assert a[0] == a[1] and a[2] == a[3] and a[0] != a[2]

    def test_k_equals_one(self):
        pts = np.array([[1.0], [2.0], [6.0]])
        result = kmeans(pts, k=1, seed=0)
        assert result.centroids.ravel()[0] == pytest.approx(3.0)
        assert result.objective == pytest.approx(((pts - 3.0) ** 2).sum())

    def test_k_equals_n(self):
        pts = np.array([[0.0], [5.0], [9.0]])
        result = kmeans(pts, k=3, seed=0)
        assert result.objective == pytest.approx(0.0, abs=1e-15)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            kmeans(np.array([[0.0]]), k=2)

    def test_degenerate_identical_points(self):
        pts = np.zeros((4, 2))
        result = kmeans(pts, k=2, seed=0)
        assert result.objective == 0.0
        assert result.empty_clusters == (1,)

    def test_invalid_params(self):
        with pytest.raises(ValidationError):
            kmeans(np.zeros((3, 1)), k=0)
        with pytest.raises(ValidationError):
            kmeans(np.zeros((3, 1)), k=1, max_iter=0)

    @pytest.mark.parametrize("setting,value,message", [
        ("k", 2.5, "k must be an integer, got 2.5"),
        ("k", True, "k must be an integer, got True"),
        ("max_iter", 1.5, "max_iter must be an integer, got 1.5"),
        ("restarts", "2", "restarts must be an integer, got '2'"),
        ("restarts", 0, "k, max_iter and restarts must all be >= 1"),
    ])
    def test_counts_must_be_positive_integers(self, setting, value, message):
        settings = {"k": 1, "seed": 0, setting: value}
        with pytest.raises(ValidationError) as excinfo:
            kmeans(np.zeros((3, 1)), **settings)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("seed", [-1, -3, 1.5, "7", True, False])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            kmeans(np.zeros((3, 1)), k=1, seed=seed)

    def test_determinism(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(20, 2))
        r1 = kmeans(pts, k=3, seed=7)
        r2 = kmeans(pts, k=3, seed=7)
        assert np.array_equal(r1.assignments, r2.assignments)
        assert np.array_equal(r1.centroids, r2.centroids)
        assert r1.objective == r2.objective

    @pytest.mark.parametrize("seed", [3, 7, 11, 19])
    def test_objective_does_not_increase_with_max_iter(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(30, 2))
        full = kmeans(pts, k=3, seed=1, restarts=1)
        objectives = [kmeans(pts, k=3, seed=1, restarts=1, max_iter=j).objective
                      for j in range(1, full.iterations + 2)]
        assert np.all(np.diff(objectives) <= 1e-12)
        assert objectives[-1] == full.objective

    def test_centroids_are_cluster_means(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(25, 2))
        result = kmeans(pts, k=3, seed=1)
        for c in range(3):
            members = pts[result.assignments == c]
            if members.shape[0]:
                assert np.abs(result.centroids[c] - members.mean(axis=0)).max() <= 1e-12

    def test_local_optimum_no_single_point_improvement(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(15, 2))
        result = kmeans(pts, k=3, seed=1)
        base = result.objective
        for i in range(pts.shape[0]):
            for c in range(3):
                a = result.assignments.copy()
                if a[i] == c:
                    continue
                a[i] = c
                moved = 0.0
                for cc in range(3):
                    members = pts[a == cc]
                    if members.shape[0]:
                        centroid = members.mean(axis=0)
                        moved += ((members - centroid) ** 2).sum()
                assert moved >= base - 1e-9

    def test_matches_brute_force_at_desk_scale(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            n = int(rng.integers(3, 9))
            k = int(rng.integers(1, min(n, 3) + 1))
            pts = rng.normal(size=(n, 2))
            result = kmeans(pts, k=k, seed=11, restarts=32)
            assert result.objective == pytest.approx(brute_force_objective(pts, k), abs=1e-9)


def objective(points, assignments, centroids):
    diff = points - centroids[assignments]
    return float(np.einsum("nd,nd->", diff, diff))


def kmeans_by_public_steps(points, k, seed, max_iter=300, restarts=16):
    """Multi-restart Lloyd's loop over the one-restart steps above, restart by restart."""
    best, restart_iterations, restart_converged = None, [], []
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        centroids = points[rng.choice(points.shape[0], size=k, replace=False)]
        assignments = assign_step(points, centroids)
        trace = [objective(points, assignments, centroids)]
        converged, iterations = False, 0
        for _ in range(max_iter):
            iterations += 1
            centroids = update_step(points, assignments, centroids)
            new_assignments = assign_step(points, centroids)
            trace.append(objective(points, new_assignments, centroids))
            if np.array_equal(new_assignments, assignments):
                converged = True
                break
            assignments = new_assignments
        restart_iterations.append(iterations)
        restart_converged.append(converged)
        if best is None or trace[-1] < best[3][-1] - 1e-15:
            best = (centroids, assignments, iterations, trace, converged)
    centroids, assignments, iterations, trace, converged = best
    return KMeansResult(
        centroids=centroids,
        assignments=assignments,
        objective=trace[-1],
        iterations=iterations,
        converged=converged,
        empty_clusters=tuple(c for c in range(k) if not np.any(assignments == c)),
        restart_iterations=tuple(restart_iterations),
        restart_converged=tuple(restart_converged),
    )


def assert_same_result(result, expected):
    """Every field of two k-means results, bit for bit."""
    assert result.centroids.tobytes() == expected.centroids.tobytes()
    assert result.centroids.shape == expected.centroids.shape
    assert result.assignments.tobytes() == expected.assignments.tobytes()
    assert np.array(result.objective).tobytes() == np.array(expected.objective).tobytes()
    assert (result.iterations, result.converged) == (expected.iterations, expected.converged)
    assert result.empty_clusters == expected.empty_clusters
    assert result.restart_iterations == expected.restart_iterations
    assert result.restart_converged == expected.restart_converged


@st.composite
def kmeans_problems(draw):
    """Small k-means inputs, some duplicated or all identical: clusters empty, distances tie."""
    n = draw(st.integers(1, 60))
    d = draw(st.integers(1, 3))
    value = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]), st.floats(-1e3, 1e3))
    if draw(st.booleans()):
        points = np.full((n, d), draw(value))
    else:
        points = np.array(draw(st.lists(value, min_size=n * d, max_size=n * d))).reshape(n, d)
    return {
        "points": points,
        "k": draw(st.integers(1, min(n, 5))),
        "seed": draw(st.sampled_from([0, 1, 7, 42, 2**40])),
        "max_iter": draw(st.integers(1, 3)),
        "restarts": draw(st.integers(1, 20)),
    }


class TestKernelsMatchPublicSteps:
    # n = 1300 runs all 16 restarts in one chunk, for about 10 passes
    @pytest.mark.parametrize("counts,seed", [
        ((12, 16, 12), 0), ((12, 16, 12), 5), ((40, 50, 40), 2), ((390, 520, 390), 0),
    ])
    def test_kmeans_equals_public_step_loop_bit_for_bit(self, counts, seed):
        pairs = generate_synthetic(counts, noise=0.03, seed=seed).pairs
        features = np.array([curves.cluster_features(curves.smooth(s, 0.3), 0.5) for _, s in pairs])
        points, _, _ = standardize_features(features)
        assert_same_result(kmeans(points, k=3, seed=42), kmeans_by_public_steps(points, 3, 42))

    @settings(max_examples=300, deadline=None)
    @given(problem=kmeans_problems(), chunk=st.sampled_from([None, None, None, 1, 7, 100]))
    def test_batched_restarts_equal_the_public_step_loop(self, problem, chunk):
        # chunk, when set, caps the batch temporaries so the restarts split across chunks
        cap = clustering._CHUNK_ELEMENTS if chunk is None else chunk
        with warnings.catch_warnings(), mock.patch.object(clustering, "_CHUNK_ELEMENTS", cap):
            warnings.simplefilter("error")
            assert_same_result(kmeans(**problem), kmeans_by_public_steps(**problem))


class TestStartDraws:
    def test_starts_are_the_seeded_draws_and_read_only(self):
        idx = clustering._starts(30, 4, 9, 5)
        fresh = [np.random.default_rng([9, r]).choice(30, size=4, replace=False) for r in range(5)]
        assert np.array_equal(idx, fresh)
        assert not idx.flags.writeable
        with pytest.raises(ValueError):
            idx[0, 0] = 1

    def test_numpy_and_python_integer_seeds_agree(self):
        points = np.random.default_rng(1).normal(size=(25, 2))
        clustering._starts.cache_clear()
        starts = clustering._starts(25, 3, np.int64(4), 16)
        result = kmeans(points, 3, seed=np.int64(4))
        clustering._starts.cache_clear()
        assert np.array_equal(starts, clustering._starts(25, 3, 4, 16))
        assert_same_result(result, kmeans(points, 3, seed=4))

    def test_cached_draws_hold_no_points(self):
        rng = np.random.default_rng(2)
        points, other = rng.normal(size=(20, 2)), rng.normal(size=(20, 2))
        first = kmeans(points, 3, seed=3)
        centroids = first.centroids.copy()
        points[:] = other
        after = kmeans(points, 3, seed=3)
        assert first.centroids.tobytes() == centroids.tobytes()
        clustering._starts.cache_clear()
        assert_same_result(after, kmeans(other.copy(), 3, seed=3))

    def test_second_fit_of_the_same_size_draws_nothing(self, monkeypatch):
        points = np.random.default_rng(3).normal(size=(17, 2))
        draws = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda *a: draws.append(a) or default_rng(*a))
        clustering._starts.cache_clear()
        kmeans(points, 3, seed=5)
        assert len(draws) == clustering.DEFAULT_RESTARTS
        kmeans(points[::-1].copy(), 3, seed=5)
        assert len(draws) == clustering.DEFAULT_RESTARTS


class TestStandardizeFeatures:
    def test_unit_variance(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(loc=[10.0, -3.0], scale=[5.0, 0.1], size=(40, 2))
        scaled, means, scales = standardize_features(pts)
        assert np.allclose(scaled.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(scaled.std(axis=0, ddof=1), 1.0, atol=1e-12)
        assert np.allclose(pts, scaled * scales + means)

    def test_constant_column(self):
        pts = np.array([[1.0, 2.0], [1.0, 3.0], [1.0, 4.0]])
        scaled, _, scales = standardize_features(pts)
        assert scales[0] == 1.0
        assert np.allclose(scaled[:, 0], 0.0)

    def test_rounding_level_spread_is_constant(self):
        # one value a float above the others: the sample std is rounding
        pts = np.array([[50.0, 1.0], [50.0, 2.0], [np.nextafter(50.0, 100.0), 3.0]])
        scaled, means, scales = standardize_features(pts)
        assert scales[0] == 1.0
        assert np.abs(scaled[:, 0]).max() < 1e-13

    def test_small_real_spread_is_standardized(self):
        pts = np.array([[50.0, 1.0], [50.0, 2.0], [50.0 * (1.0 + 1e-9), 3.0]])
        scaled, _, scales = standardize_features(pts)
        assert scales[0] == pts[:, 0].std(ddof=1)
        assert scaled[:, 0].std(ddof=1) == pytest.approx(1.0, rel=1e-6)


class TestOverflowIsAnErrorNotAWarning:
    def test_standardize_rejects_an_overflowing_spread(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue, match="mean or spread of a feature overflows"):
                standardize_features(np.array([[1e308, 0.0], [-1e308, 1.0], [0.0, 2.0]]))

    def test_kmeans_rejects_overflowing_distances(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue, match="squared distances between the points"):
                kmeans(np.array([[1e200], [-1e200], [0.0]]), k=2)
