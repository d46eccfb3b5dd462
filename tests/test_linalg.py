import numpy as np
import pytest

from sulfexp.errors import (
    AsymmetricMatrix,
    DimensionMismatch,
    NonFiniteValue,
    SingularMatrix,
)
from sulfexp.linalg import dominant_eigenpair, sign_convention, solve_symmetric


class TestSolveSymmetric:
    def test_identity(self):
        x = solve_symmetric(np.eye(3), np.array([1.0, 2.0, 3.0]))
        assert np.allclose(x, [1.0, 2.0, 3.0], atol=1e-12)

    def test_diagonal(self):
        x = solve_symmetric(np.diag([2.0, 4.0]), np.array([2.0, 8.0]))
        assert np.allclose(x, [1.0, 2.0], atol=1e-12)

    def test_hand_elimination_2x2(self):
        # [[4,1],[1,3]] x = (1,2): eliminate -> x2 = 7/11, x1 = 1/11
        x = solve_symmetric(np.array([[4.0, 1.0], [1.0, 3.0]]), np.array([1.0, 2.0]))
        assert np.allclose(x, [1.0 / 11.0, 7.0 / 11.0], atol=1e-12)

    def test_residual_bound_on_random_spd(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = rng.integers(1, 9)
            m = rng.standard_normal((n, n))
            a = m @ m.T + np.eye(n) * 0.1
            b = rng.standard_normal(n)
            x = solve_symmetric(a, b)
            assert np.abs(a @ x - b).max() <= 1e-8 * (1 + np.abs(b).max())

    def test_indefinite_symmetric(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        x = solve_symmetric(a, np.array([3.0, 4.0]))
        assert np.allclose(x, [4.0, 3.0], atol=1e-12)

    def test_singular_raises(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularMatrix):
            solve_symmetric(a, np.array([1.0, 2.0]))

    def test_zero_matrix_raises(self):
        with pytest.raises(SingularMatrix):
            solve_symmetric(np.zeros((2, 2)), np.array([1.0, 2.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_symmetric(np.eye(3), np.array([1.0, 2.0]))

    def test_asymmetric_rejected(self):
        with pytest.raises(AsymmetricMatrix):
            solve_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]), np.array([1.0, 1.0]))

    def test_nan_rejected(self):
        a = np.eye(2)
        a[0, 1] = a[1, 0] = np.nan
        with pytest.raises(NonFiniteValue):
            solve_symmetric(a, np.array([1.0, 1.0]))

    def test_matches_numpy_solve(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            m = rng.standard_normal((n, n))
            a = (m + m.T) / 2 + np.eye(n) * n
            b = rng.standard_normal(n)
            assert np.allclose(solve_symmetric(a, b), np.linalg.solve(a, b), atol=1e-9)


class TestDominantEigenpair:
    def test_diagonal(self):
        lam, v = dominant_eigenpair(np.diag([3.0, 1.0]))
        assert lam == pytest.approx(3.0, abs=1e-10)
        assert np.allclose(np.abs(v), [1.0, 0.0], atol=1e-8)
        assert v[0] > 0

    def test_identity_degenerate_spectrum(self):
        lam, v = dominant_eigenpair(np.eye(2))
        assert lam == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert v[np.argmax(np.abs(v))] > 0

    def test_2x2_by_characteristic_polynomial(self):
        # [[2,1],[1,2]]: eigenvalues 3 and 1, dominant vector (1,1)/sqrt(2)
        lam, v = dominant_eigenpair(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert lam == pytest.approx(3.0, abs=1e-10)
        assert np.allclose(v, [1 / np.sqrt(2)] * 2, atol=1e-8)

    def test_zero_matrix(self):
        lam, v = dominant_eigenpair(np.zeros((3, 3)))
        assert lam == 0.0
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_unit_norm_and_residual_on_random_psd(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            m = rng.standard_normal((n, n))
            s = m @ m.T
            tol = 1e-9 * max(1.0, np.abs(s).max())
            lam, v = dominant_eigenpair(s)
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
            assert np.abs(s @ v - lam * v).max() <= tol
            assert lam >= -tol

    def test_beats_random_rayleigh_quotients(self):
        rng = np.random.default_rng(9)
        for trial in range(20):
            n = int(rng.integers(2, 9))
            m = rng.standard_normal((n, n))
            s = m @ m.T
            tol = 1e-9 * max(1.0, np.abs(s).max())
            lam, _ = dominant_eigenpair(s)
            probes = rng.standard_normal((1000, n))
            probes /= np.linalg.norm(probes, axis=1, keepdims=True)
            quotients = np.einsum("ij,jk,ik->i", probes, s, probes)
            assert lam >= quotients.max() - tol

    def test_close_eigenvalues_still_converge(self):
        # gap of 1e-8 between the top two eigenvalues
        q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((5, 5)))
        s = q @ np.diag([1.0, 1.0 - 1e-8, 0.5, 0.2, 0.1]) @ q.T
        s = (s + s.T) / 2
        tol = 1e-11
        lam, v = dominant_eigenpair(s)
        assert np.abs(s @ v - lam * v).max() <= tol

    def test_asymmetric_rejected(self):
        with pytest.raises(AsymmetricMatrix):
            dominant_eigenpair(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_exact_small_cases(self):
        lam, v = dominant_eigenpair(np.zeros((3, 3)))
        assert lam == 0.0
        assert np.abs(v).max() == 1.0 and v[np.argmax(np.abs(v))] == 1.0
        lam, v = dominant_eigenpair(np.eye(3))
        assert lam == 1.0
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)
        assert v[np.argmax(np.abs(v))] > 0
        lam, v = dominant_eigenpair(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert lam == pytest.approx(3.0, abs=1e-14)
        assert np.abs(v - np.sqrt(0.5)).max() <= 1e-15

    def test_empty_matrix_rejected(self):
        with pytest.raises(DimensionMismatch):
            dominant_eigenpair(np.zeros((0, 0)))


class TestSignConvention:
    def test_vector(self):
        assert sign_convention(np.array([0.2, -0.9, 0.1])).tolist() == [-0.2, 0.9, -0.1]
        assert sign_convention(np.array([0.2, 0.9])).tolist() == [0.2, 0.9]

    def test_rows_and_first_of_tied_magnitudes(self):
        rows = np.array([[-0.5, 0.5], [0.5, -0.5], [0.0, -1.0]])
        assert sign_convention(rows).tolist() == [[0.5, -0.5], [0.5, -0.5], [0.0, 1.0]]
