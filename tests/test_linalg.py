import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sulfexp import fit_pipeline, generate_synthetic, linalg
from sulfexp.errors import (
    AsymmetricMatrix,
    DimensionMismatch,
    NonFiniteValue,
    SingularMatrix,
    ValidationError,
)
from sulfexp.linalg import check_positive, dominant_eigenpair, sign_convention, solve_symmetric
from sulfexp.model import PipelineConfig, default_bundle
from sulfexp.svm import LinearBoundary


def _gauss_solve(A, b, pivot_floor):
    """Gaussian elimination with partial pivoting on a copy of [A | b]."""
    n = A.shape[0]
    aug = np.hstack([A.astype(float), b.reshape(n, 1).astype(float)])
    for col in range(n):
        piv = col + int(np.argmax(np.abs(aug[col:, col])))
        if abs(aug[piv, col]) < pivot_floor:
            raise SingularMatrix(
                f"pivot magnitude {abs(aug[piv, col]):.3e} below threshold {pivot_floor:.3e}"
            )
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
        factors = aug[col + 1:, col] / aug[col, col]
        aug[col + 1:, col:] -= np.outer(factors, aug[col, col:])
    x = np.empty(n)
    for row in range(n - 1, -1, -1):
        x[row] = (aug[row, -1] - aug[row, row + 1:n] @ x[row + 1:]) / aug[row, row]
    return x


def gauss_reference(A, b):
    """The Gaussian solver ``solve_symmetric`` replaced: a solve plus one
    refinement pass, with the pivot floor at 1e-12 * max|A|."""
    pivot_floor = 1e-12 * float(np.abs(A).max())
    x = _gauss_solve(A, b, pivot_floor)
    return x + _gauss_solve(A, b - A @ x, pivot_floor)


def exact_solve(A, b):
    """Exact solution, in rationals, of the system the floats represent."""
    n = A.shape[0]
    rows = [[Fraction(v) for v in A[i].tolist()] + [Fraction(float(b[i]))] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            raise SingularMatrix("exactly singular")
        rows[col], rows[piv] = rows[piv], rows[col]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def distance_to_exact(x, exact):
    """max |x - x*| / max |x*|, evaluated in exact arithmetic."""
    scale = max(abs(v) for v in exact)
    return float(max(abs(Fraction(float(a)) - e) for a, e in zip(x, exact)) / scale)


def assert_no_farther_than_gauss(systems, solve=solve_symmetric):
    """Over a set of systems, the solver's worst and mean distance from the
    exact solution are no larger than the Gaussian reference's."""
    ours, gauss = [], []
    for A, b in systems:
        exact = exact_solve(A, b)
        ours.append(distance_to_exact(solve(A, b), exact))
        gauss.append(distance_to_exact(gauss_reference(A, b), exact))
    assert max(ours) <= max(gauss)
    assert sum(ours) <= sum(gauss)


def solve_small(A, b):
    """:func:`linalg._solve_small` on arrays."""
    return np.array(linalg._solve_small(A.tolist(), b.tolist()))


def kkt_systems(counts=(12, 16, 12), seeds=range(8)):
    """Every KKT system the SVM solves in default fits of generated data,
    keeping those that both solvers accept. They are recorded at the small
    kernel, which solves nothing else."""
    captured = []
    real = linalg._solve_small

    def record(A, b):
        captured.append((np.array(A), np.array(b)))
        return real(A, b)

    linalg._solve_small = record
    try:
        for seed in seeds:
            fit_pipeline(generate_synthetic(counts, noise=0.03, seed=seed).pairs)
    finally:
        linalg._solve_small = real
    kept = []
    for A, b in captured:
        try:
            gauss_reference(A, b)
            solve_small(A, b)
        except SingularMatrix:
            continue
        kept.append((A, b))
    return kept


def kkt_matrix(X, y):
    """[[G, y], [y^T, 0]] of margin points X with labels y, G = (yX)(yX)^T."""
    G = (y[:, None] * X) @ (y[:, None] * X).T
    return np.block([[G, y[:, None]], [y[None, :], np.zeros((1, 1))]])


def symmetric_with_spectrum(rng, eigenvalues):
    q, _ = np.linalg.qr(rng.standard_normal((len(eigenvalues), len(eigenvalues))))
    a = q @ np.diag(eigenvalues) @ q.T
    return (a + a.T) / 2


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

    def test_matrix_rhs_equals_column_by_column(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            a = symmetric_with_spectrum(rng, rng.uniform(0.1, 10.0, n) * rng.choice([-1, 1], n))
            b = rng.standard_normal((n, int(rng.integers(1, 6))))
            x = solve_symmetric(a, b)
            assert x.shape == b.shape
            for j in range(b.shape[1]):
                col = solve_symmetric(a, b[:, j])
                assert np.abs(x[:, j] - col).max() <= 1e-12 * (1.0 + np.abs(col).max())

    def test_vector_in_vector_out(self):
        assert solve_symmetric(np.eye(2), np.array([1.0, 2.0])).shape == (2,)
        assert solve_symmetric(np.eye(2), np.ones((2, 1))).shape == (2, 1)
        assert solve_symmetric(np.zeros((0, 0)), np.zeros((0, 3))).shape == (0, 3)

    def test_matrix_rhs_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_symmetric(np.eye(3), np.ones((2, 2)))
        with pytest.raises(DimensionMismatch):
            solve_symmetric(np.eye(2), np.ones((2, 2, 2)))

    def test_nan_in_matrix_rhs_rejected(self):
        b = np.ones((2, 3))
        b[1, 2] = np.inf
        with pytest.raises(NonFiniteValue):
            solve_symmetric(np.eye(2), b)

    def test_consistent_singular_raises(self):
        # b lies in the range of A, so a solution exists but is not unique
        with pytest.raises(SingularMatrix):
            solve_symmetric(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 1.0]))

    def test_duplicated_margin_point_raises(self):
        # the KKT matrix of a margin set holding one point twice has two
        # equal rows, and its right-hand side repeats the entry too
        M = kkt_matrix(np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 1.0]]), np.array([1.0, 1.0, -1.0]))
        rhs = np.array([1.0, 1.0, 1.0, 0.0])
        with pytest.raises(SingularMatrix):
            solve_symmetric(M, rhs)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 7),
        gap=st.sampled_from([0.0, 1e-16, 1e-13, 1e-11, 1e-8, 1e-4, 1.0]),
        k=st.integers(1, 3),
    )
    def test_singular_or_within_residual_bound(self, seed, n, gap, k):
        rng = np.random.default_rng(seed)
        eigenvalues = rng.uniform(0.5, 100.0, n) * rng.choice([-1.0, 1.0], n)
        eigenvalues[0] = gap * np.abs(eigenvalues).max() * rng.choice([-1.0, 1.0])
        a = symmetric_with_spectrum(rng, eigenvalues)
        b = rng.standard_normal((n, k)) * 10.0 ** rng.integers(-3, 4)
        try:
            x = solve_symmetric(a, b)
        except SingularMatrix:
            return
        bound = linalg.RESIDUAL_REL_TOL * (1.0 + np.abs(b).max(axis=0))
        assert np.all(np.abs(a @ x - b).max(axis=0) <= bound)


class TestSolveSmall:
    def test_hand_elimination_2x2(self):
        assert linalg._solve_small([[4.0, 1.0], [1.0, 3.0]], [1.0, 2.0]) == pytest.approx(
            [1.0 / 11.0, 7.0 / 11.0], abs=1e-15)

    def test_pivots_a_zero_diagonal(self):
        assert linalg._solve_small([[0.0, 1.0], [1.0, 0.0]], [3.0, 4.0]) == [4.0, 3.0]

    def test_matches_solve_symmetric(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            a = symmetric_with_spectrum(rng, rng.uniform(0.1, 10.0, n) * rng.choice([-1, 1], n))
            b = rng.standard_normal(n)
            assert np.abs(solve_small(a, b) - solve_symmetric(a, b)).max() <= 1e-12

    @pytest.mark.parametrize("A", [[[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 1e-13]],
                                   [[1.0, 1.0], [1.0, 1.0]]], ids=["zero", "tiny-pivot", "rank-one"])
    def test_pivot_below_the_rank_tolerance_raises(self, A):
        with pytest.raises(SingularMatrix):
            linalg._solve_small(A, [1.0, 1.0])

    @pytest.mark.parametrize("A,b", [
        ([[1e-10, 0.0], [0.0, 1e-10]], [1e300, 1.0]),
        # fsum raises on inf - inf in the residual
        ([[1.0, 1.0], [1.0, -1.0]], [1.7e308, -1.7e308]),
        ([[1e-300, 1e-300], [1e-300, -1e-300]], [1e10, 1.0]),
    ])
    def test_overflowing_solution_is_a_typed_error(self, A, b):
        with pytest.raises(NonFiniteValue):
            linalg._solve_small(A, b)

    def test_no_farther_from_exact_than_gauss_on_kkt_systems(self):
        systems = kkt_systems()
        assert len(systems) >= 50
        assert_no_farther_than_gauss(systems, solve_small)

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        e=st.integers(1, 3),
        duplicate=st.sampled_from([None, "same label", "opposite label"]),
        log_scale=st.floats(-3.0, 3.0),
    )
    def test_kkt_systems_are_singular_or_within_residual_bound(self, seed, e, duplicate, log_scale):
        """A 2x2 to 4x4 KKT system is rejected, or solved within the residual
        bound. The residual is taken in exact arithmetic, which may exceed the
        kernel's own float residual by the rounding of a length-(e+1) dot
        product. A margin set holding one point twice must be rejected."""
        rng = np.random.default_rng(seed)
        X = rng.uniform(0.0, 1.0, (e, 2)) * 10.0 ** (log_scale + rng.uniform(-1.0, 1.0, 2))
        y = rng.choice([-1.0, 1.0], e)
        if duplicate and e >= 2:
            X[1] = X[0]
            y[1] = y[0] if duplicate == "same label" else -y[0]
        M = kkt_matrix(X, y)
        rhs = rng.standard_normal(e + 1) * 10.0 ** rng.uniform(-2.0, 2.0)
        try:
            x = solve_small(M, rhs)
        except SingularMatrix:
            return
        assert not (duplicate and e >= 2)
        bound = linalg.RESIDUAL_REL_TOL * (1.0 + np.abs(rhs).max())
        for row, b_i in zip(M, rhs):
            exact = Fraction(float(b_i)) - sum(Fraction(a) * Fraction(float(v))
                                               for a, v in zip(row.tolist(), x))
            rounding = 2 * (e + 2) * np.finfo(float).eps * (abs(b_i) + np.abs(row * x).sum())
            assert abs(exact) <= bound + rounding


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


class TestCheckPositive:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0, 0.0, -1.0, True, "5", None])
    def test_rejected_with_the_name(self, bad):
        with pytest.raises(ValidationError,
                           match=r"^knob must be a finite positive number, got "):
            check_positive("knob", bad)

    @pytest.mark.parametrize("bad", [10**400, -(10**400), Fraction(10**400)])
    def test_too_large_for_a_float_rejected(self, bad):
        with pytest.raises(ValidationError,
                           match=r"^knob must be a finite positive number, got "):
            check_positive("knob", bad)

    @pytest.mark.parametrize("build,name", [
        (lambda: PipelineConfig(threshold=10**400), "failure_threshold"),
        (lambda: PipelineConfig(box_constraint=10**400), "box constraint"),
        (lambda: LinearBoundary(feature_names=("x0", "x1"), weights=[1.0, 0.0], bias=0.0,
                                box_constraint=10**400), "box constraint"),
        (lambda: dataclasses.replace(default_bundle(), failure_threshold=10**400),
         "failure_threshold"),
    ], ids=["config-threshold", "config-box-constraint", "boundary", "bundle"])
    def test_callers_reject_an_int_too_large_for_a_float(self, build, name):
        with pytest.raises(ValidationError, match=f"^{name} must be a finite positive number"):
            build()

    @pytest.mark.parametrize("good", [5e-324, 1, 0.5, np.float64(2.0), Fraction(1, 3)])
    def test_accepted(self, good):
        assert check_positive("knob", good) is None
