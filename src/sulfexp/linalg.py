"""Minimal dense linear-algebra kernels.

Matrices and vectors are plain ``numpy.ndarray`` objects (row-major, all
entries finite). The symmetric linear solve backs the least-squares
estimator and the SVM's KKT systems; eigenvectors come from
``numpy.linalg.eigh``, oriented by one shared sign rule.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    AsymmetricMatrix,
    DimensionMismatch,
    NonFiniteValue,
    SingularMatrix,
)

SYMMETRY_TOL = 1e-10
PIVOT_REL_TOL = 1e-12
RESIDUAL_REL_TOL = 1e-8


def check_finite(arr: np.ndarray, name: str = "array") -> np.ndarray:
    """Coerce to a float array and reject NaN/Inf entries."""
    out = np.asarray(arr, dtype=float)
    if not np.all(np.isfinite(out)):
        raise NonFiniteValue(f"{name} contains NaN or Inf entries")
    return out


def _check_square_symmetric(A: np.ndarray, name: str = "A") -> np.ndarray:
    A = check_finite(A, name)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {A.shape}")
    scale = max(1.0, float(np.abs(A).max())) if A.size else 1.0
    if float(np.abs(A - A.T).max(initial=0.0)) > SYMMETRY_TOL * scale:
        raise AsymmetricMatrix(f"{name} is not symmetric within tolerance {SYMMETRY_TOL}")
    return A


def _gauss_solve(A: np.ndarray, b: np.ndarray, pivot_floor: float) -> np.ndarray:
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


def solve_symmetric(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for symmetric A.

    Uses Gaussian elimination with partial pivoting plus one round of
    iterative refinement. Raises :class:`SingularMatrix` when a pivot falls
    below ``1e-12 * max|A|`` or the refined residual still violates
    ``max|Ax - b| <= 1e-8 * (1 + max|b|)``.
    """
    A = _check_square_symmetric(A)
    b = check_finite(b, "b").reshape(-1)
    if b.shape[0] != A.shape[0]:
        raise DimensionMismatch(
            f"dimension mismatch: A is {A.shape[0]}x{A.shape[1]}, b has {b.shape[0]} entries"
        )
    if A.size == 0:
        return np.empty(0)
    scale = float(np.abs(A).max())
    if scale == 0.0:
        raise SingularMatrix("zero matrix")
    pivot_floor = PIVOT_REL_TOL * scale
    x = _gauss_solve(A, b, pivot_floor)
    # One refinement pass tightens the residual for mildly ill-conditioned systems.
    residual = b - A @ x
    x = x + _gauss_solve(A, residual, pivot_floor)
    bound = RESIDUAL_REL_TOL * (1.0 + float(np.abs(b).max(initial=0.0)))
    if float(np.abs(A @ x - b).max()) > bound:
        raise SingularMatrix("solution residual exceeds tolerance; matrix numerically singular")
    return x


def sign_convention(vectors: np.ndarray) -> np.ndarray:
    """Flip each vector (a 1-D array, or each row of a 2-D one) so its entry
    of largest magnitude is positive; exact magnitude ties go to the first."""
    idx = np.argmax(np.abs(vectors), axis=-1)
    lead = np.take_along_axis(vectors, np.expand_dims(idx, -1), axis=-1)
    return np.where(lead < 0, -vectors, vectors)


def dominant_eigenpair(S: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and unit eigenvector of a symmetric matrix.

    The top pair of one LAPACK symmetric eigendecomposition, with the
    eigenvector oriented by :func:`sign_convention`.
    """
    S = _check_square_symmetric(S, "S")
    if S.shape[0] == 0:
        raise DimensionMismatch("empty matrix has no eigenpairs")
    eigenvalues, eigenvectors = np.linalg.eigh(S)
    return float(eigenvalues[-1]), sign_convention(eigenvectors[:, -1])
