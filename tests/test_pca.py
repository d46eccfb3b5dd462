import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sulfexp.clustering import standardize_features
from sulfexp.errors import SulfexpError, TooFewRows, ValidationError
from sulfexp.pca import (
    PCAResult,
    center_and_scale,
    principal_components,
    select_dominant_variables,
)


class TestCenterAndScale:
    def test_mean_removal(self):
        x, means, scales = center_and_scale(np.array([[1.0], [2.0], [3.0]]), standardize=False)
        assert np.allclose(x.ravel(), [-1.0, 0.0, 1.0])
        assert means[0] == 2.0
        assert scales[0] == 1.0

    def test_constant_column_rule(self):
        x, _, scales = center_and_scale(np.array([[5.0], [5.0], [5.0]]), standardize=True)
        assert np.allclose(x, 0.0)
        assert scales[0] == 1.0

    def test_sample_std_scaling(self):
        x, _, scales = center_and_scale(np.array([[0.0], [2.0]]), standardize=True)
        assert scales[0] == pytest.approx(np.sqrt(2.0))
        assert np.allclose(x.ravel(), [-0.7071, 0.7071], atol=1e-4)

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            center_and_scale(np.array([[1.0, 2.0]]))

    @settings(max_examples=300, deadline=None)
    @given(X=hnp.arrays(np.float64, st.tuples(st.integers(2, 9), st.integers(1, 8)),
                        elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_is_the_clustering_z_score_bit_for_bit(self, X):
        def outcome(standardize):
            try:
                return [a.tobytes() for a in standardize(X)]
            except SulfexpError as exc:   # a mean or spread that overflows
                return type(exc), str(exc)

        assert outcome(center_and_scale) == outcome(standardize_features)


class TestPrincipalComponents:
    def test_rank_one_line(self):
        x = np.array([[-1.0, -1.0], [0.0, 0.0], [1.0, 1.0]])
        result = principal_components(x, m=1)
        assert np.allclose(result.loadings[0], [1 / np.sqrt(2)] * 2, atol=1e-8)
        assert result.explained_ratio[0] == pytest.approx(1.0, abs=1e-12)

    def test_isotropic_two_dim(self):
        # exactly isotropic 2-D cloud: both ratios are 1/2
        x = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        result = principal_components(x, m=2)
        assert np.allclose(result.explained_ratio, [0.5, 0.5], atol=1e-9)

    def test_known_diagonal_covariance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4000, 2)) * np.array([2.0, 1.0])
        x -= x.mean(axis=0)
        result = principal_components(x, m=2)
        assert abs(abs(result.loadings[0][0]) - 1.0) < 0.05
        assert abs(result.loadings[0][1]) < 0.05
        assert result.explained_ratio[0] == pytest.approx(0.8, abs=0.05)
        assert result.explained_ratio[1] == pytest.approx(0.2, abs=0.05)

    def test_orthonormal_loadings_random(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(3, 11))
            p = int(rng.integers(2, 8))
            x, _, _ = center_and_scale(rng.normal(size=(n, p)), standardize=False)
            m = min(n - 1, p)
            result = principal_components(x, m=m)
            gram = result.loadings @ result.loadings.T
            assert np.abs(gram - np.eye(m)).max() <= 1e-8
            assert np.all(np.diff(result.explained_variance) <= 1e-9)
            assert result.explained_ratio.sum() <= 1.0 + 1e-9

    def test_variance_maximality_vs_random_directions(self):
        rng = np.random.default_rng(2)
        x, _, _ = center_and_scale(rng.normal(size=(9, 5)), standardize=False)
        result = principal_components(x, m=3)
        deflated = x.copy()
        for k in range(3):
            w = result.loadings[k]
            probes = rng.standard_normal((1000, 5))
            probes /= np.linalg.norm(probes, axis=1, keepdims=True)
            comp_var = np.linalg.norm(deflated @ w) ** 2
            probe_var = (np.linalg.norm(deflated @ probes.T, axis=0) ** 2).max()
            assert comp_var >= probe_var - 1e-6
            deflated = deflated - np.outer(x @ w, w)

    def test_full_deflation_shrinks_to_zero(self):
        rng = np.random.default_rng(3)
        x, _, _ = center_and_scale(rng.normal(size=(8, 5)), standardize=False)
        m = min(7, 5)
        result = principal_components(x, m=m)
        deflated = x.copy()
        for w in result.loadings:
            deflated = deflated - np.outer(x @ w, w)
        assert np.linalg.norm(deflated) <= 1e-6 * np.linalg.norm(x)

    def test_reproducible(self):
        rng = np.random.default_rng(4)
        x, _, _ = center_and_scale(rng.normal(size=(10, 4)), standardize=False)
        r1 = principal_components(x, m=3)
        r2 = principal_components(x, m=3)
        assert np.array_equal(r1.loadings, r2.loadings)

    def test_sign_convention(self):
        rng = np.random.default_rng(5)
        x, _, _ = center_and_scale(rng.normal(size=(10, 4)), standardize=False)
        result = principal_components(x, m=3)
        for w in result.loadings:
            assert w[np.argmax(np.abs(w))] > 0

    def test_uncentered_rejected(self):
        with pytest.raises(ValidationError):
            principal_components(np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 5.0]]), m=1)

    def test_m_out_of_range(self):
        x = np.array([[-1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValidationError):
            principal_components(x, m=2)  # min(n-1, p) = 1

    @pytest.mark.parametrize("shape", [(3,), (4, 3, 2)])
    def test_non_2d_rejected(self, shape):
        with pytest.raises(ValidationError, match="2-D"):
            principal_components(np.zeros(shape), m=1)


def oriented_descending_eigenvectors(eigh, gram):
    """Eigenvalues and eigenvector rows, largest first, sign as in the package."""
    values, vectors = eigh(gram)
    rows = vectors[:, ::-1].T
    lead = rows[np.arange(rows.shape[0]), np.argmax(np.abs(rows), axis=1)]
    return values[::-1], rows * np.sign(lead)[:, None]


class TestEighOracle:
    @pytest.mark.parametrize("eigh", [np.linalg.eigh, scipy.linalg.eigh], ids=["numpy", "scipy"])
    def test_loadings_are_the_top_gram_eigenvectors(self, eigh):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(3, 15))
            p = int(rng.integers(2, 8))
            x, _, _ = center_and_scale(rng.normal(size=(n, p)) * rng.uniform(0.1, 10, p),
                                       standardize=False)
            m = int(rng.integers(1, min(n - 1, p) + 1))
            result = principal_components(x, m=m)
            values, rows = oriented_descending_eigenvectors(eigh, x.T @ x)
            assert np.abs(result.loadings - rows[:m]).max() <= 1e-12
            assert np.all(np.diff(values[:m]) <= 0)
            assert np.allclose(result.explained_variance, values[:m] / (n - 1),
                               rtol=1e-12, atol=1e-12 * values[0])


class TestDegenerateSpectra:
    def assert_orthonormal_oriented(self, loadings):
        m = loadings.shape[0]
        assert np.abs(loadings @ loadings.T - np.eye(m)).max() <= 1e-12
        lead = loadings[np.arange(m), np.argmax(np.abs(loadings), axis=1)]
        assert np.all(lead > 0)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_isotropic_cloud(self, p):
        x = np.vstack([np.eye(p), -np.eye(p)])   # Gram matrix 2 I: one repeated eigenvalue
        for m in range(1, min(x.shape[0] - 1, p) + 1):
            result = principal_components(x, m=m)
            self.assert_orthonormal_oriented(result.loadings)
            assert np.allclose(result.explained_ratio, 1.0 / p, atol=1e-12)
            again = principal_components(x, m=m)
            assert again.loadings.tobytes() == result.loadings.tobytes()

    @pytest.mark.parametrize("n,p", [(3, 2), (4, 7), (8, 5), (10, 7)])
    def test_rank_one(self, n, p):
        rng = np.random.default_rng(n * p)
        t = rng.normal(size=n)
        x = np.outer(t - t.mean(), rng.normal(size=p))   # zero variance beyond one direction
        for m in range(1, min(n - 1, p) + 1):
            result = principal_components(x, m=m)
            self.assert_orthonormal_oriented(result.loadings)
            assert result.explained_ratio[0] == pytest.approx(1.0, abs=1e-12)
            assert np.all(np.abs(result.explained_ratio[1:]) <= 1e-12)


def make_result(loadings):
    loadings = np.asarray(loadings, dtype=float)
    m = loadings.shape[0]
    return PCAResult(
        loadings=loadings,
        explained_variance=np.linspace(1.0, 0.5, m),
        explained_ratio=np.full(m, 1.0 / m),
    )


class TestSelectDominantVariables:
    def test_distinct_dominants(self):
        picks = select_dominant_variables(make_result([[0.9, 0.1], [0.1, 0.9]]), m=2)
        assert [p.column for p in picks] == [0, 1]
        assert not any(p.duplicate or p.tie for p in picks)

    def test_absolute_value_governs(self):
        picks = select_dominant_variables(make_result([[-0.6, 0.55]]), m=1)
        assert picks[0].column == 0

    def test_exact_tie_flagged_smaller_index(self):
        picks = select_dominant_variables(make_result([[0.5, -0.5]]), m=1)
        assert picks[0].column == 0
        assert picks[0].tie

    def test_duplicate_flagged(self):
        picks = select_dominant_variables(make_result([[0.9, 0.1], [0.8, 0.2]]), m=2)
        assert [p.column for p in picks] == [0, 0]
        assert not picks[0].duplicate
        assert picks[1].duplicate

    def test_too_many_requested(self):
        with pytest.raises(ValidationError):
            select_dominant_variables(make_result([[1.0, 0.0]]), m=2)
