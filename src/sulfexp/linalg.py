"""Minimal dense linear-algebra kernels.

Matrices and vectors are plain ``numpy.ndarray`` objects (row-major, all
entries finite). The symmetric linear solve backs the least-squares
estimator. It factors the matrix once with LAPACK
(``numpy.linalg.eigh``), tests the rank explicitly on the eigenvalues,
solves every right-hand side and refines the solution once with the same
factors. The SVM's KKT systems, of at most 4x4, are solved in Python
floats by a small elimination kernel with the same tolerances.
Eigenvectors come from ``numpy.linalg.eigh`` too, oriented by one shared
sign rule.
"""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np

from .errors import (
    AsymmetricMatrix,
    DimensionMismatch,
    NonFiniteValue,
    SingularMatrix,
    ValidationError,
)

SYMMETRY_TOL = 1e-10
RANK_REL_TOL = 1e-12
RESIDUAL_REL_TOL = 1e-8


def check_finite(arr: np.ndarray, name: str = "array") -> np.ndarray:
    """Coerce to a float array and reject NaN/Inf entries."""
    out = np.asarray(arr, dtype=float)
    if not np.all(np.isfinite(out)):
        raise NonFiniteValue(f"{name} contains NaN or Inf entries")
    return out


def read_only(array: np.ndarray) -> np.ndarray:
    """A view of ``array`` that rejects writes. The write flags of ``array``
    and of the array that owns its memory are cleared, so the view's flag
    cannot be set again. Pass an array that nothing else writes to."""
    if array.base is not None:
        array.base.flags.writeable = False
    array.flags.writeable = False
    return array.view()


def read_only_copy(values) -> np.ndarray:
    """A float64 copy of ``values`` that rejects writes, through :func:`read_only`."""
    return read_only(np.array(values, dtype=float))


def check_positive(name: str, value) -> None:
    """Reject a setting that is not a finite positive real number (a bool
    included, and an integer too large for a float)."""
    try:
        ok = (not isinstance(value, bool) and isinstance(value, numbers.Real)
              and math.isfinite(value) and value > 0)
    except OverflowError as exc:  # its repr may be too long to print
        raise ValidationError(f"{name} must be a finite positive number, got an {exc}") from None
    if not ok:
        raise ValidationError(f"{name} must be a finite positive number, got {value!r}")


def _check_square_symmetric(A: np.ndarray, name: str = "A") -> tuple[np.ndarray, float]:
    """Validate a finite, square, symmetric matrix; return it with max|A|.

    One ``abs(A)`` pass yields both the scale and the finiteness test: its
    maximum is NaN or Inf exactly when an entry is.
    """
    A = np.asarray(A, dtype=float)
    scale = float(np.abs(A).max(initial=0.0))
    if not math.isfinite(scale):
        raise NonFiniteValue(f"{name} contains NaN or Inf entries")
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {A.shape}")
    # A - A^T is antisymmetric, so its largest entry is its largest magnitude
    if float((A - A.T).max(initial=0.0)) > SYMMETRY_TOL * max(1.0, scale):
        raise AsymmetricMatrix(f"{name} is not symmetric within tolerance {SYMMETRY_TOL}")
    return A, scale


def solve_symmetric(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for symmetric A and a vector or (n, k) matrix b.

    One LAPACK symmetric eigendecomposition A = Q diag(w) Q^T serves the
    rank test, the solve and one pass of iterative refinement. Raises
    :class:`SingularMatrix` for the zero matrix, when an eigenvalue's
    magnitude falls below ``1e-12 * max|A|``, or when a refined column
    still violates ``max|Ax - b| <= 1e-8 * (1 + max|b|)``.
    """
    A, scale = _check_square_symmetric(A)
    b = np.asarray(b, dtype=float)
    n = A.shape[0]
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise DimensionMismatch(f"dimension mismatch: A is {n}x{n}, b has shape {b.shape}")
    if n == 0:
        return np.empty(b.shape)
    bound = RESIDUAL_REL_TOL * (1.0 + np.abs(b).max(axis=0, initial=0.0))
    if not np.isfinite(bound).all():
        raise NonFiniteValue("b contains NaN or Inf entries")
    if scale == 0.0:
        raise SingularMatrix("zero matrix")
    w, Q = np.linalg.eigh(A)
    smallest = float(np.abs(w).min())
    if smallest < RANK_REL_TOL * scale:
        raise SingularMatrix(
            f"eigenvalue magnitude {smallest:.3e} below threshold {RANK_REL_TOL * scale:.3e}"
        )
    scaled = Q / w  # A^-1 = scaled @ Q^T
    with np.errstate(over="ignore", invalid="ignore"):
        x = scaled @ (Q.T @ b)
        # One refinement pass tightens the residual for mildly ill-conditioned systems.
        x += scaled @ (Q.T @ (b - A @ x))
        residual = np.abs(A @ x - b).max(axis=0)
    if not np.isfinite(residual).all():
        raise NonFiniteValue("the solution of the system overflows a float")
    if not (residual <= bound).all():
        raise SingularMatrix("solution residual exceeds tolerance; matrix numerically singular")
    return x


def _solve_small(A: list[list[float]], b: list[float]) -> list[float]:
    """Solve A x = b for a small square system held in lists of Python floats.

    Gaussian elimination with partial pivoting, then one refinement pass
    with the same factors. Up to 4x4, a few dozen float operations cost
    less than numpy's call overhead around one eigendecomposition. The
    tolerances are those of :func:`solve_symmetric`: :class:`SingularMatrix`
    for a pivot of magnitude below ``RANK_REL_TOL * max|A|`` (so for the
    zero matrix) and for a refined residual above
    ``RESIDUAL_REL_TOL * (1 + max|b|)``, and :class:`NonFiniteValue` when
    the solution or a residual overflows. A and b must be finite and A
    non-empty. Residuals are ``math.fsum`` sums of the products, which the
    refinement needs more than anything else; other sums run left to right
    in plain loops, so the bits do not depend on the Python version's
    ``sum``.
    """
    n = len(b)
    floor = RANK_REL_TOL * max(map(abs, [v for row in A for v in row]))
    lu = [list(row) for row in A]
    order = list(range(n))
    for k in range(n):
        p, big = k, abs(lu[k][k])
        for r in range(k + 1, n):
            if abs(lu[r][k]) > big:
                p, big = r, abs(lu[r][k])
        if big < floor or big == 0.0:
            raise SingularMatrix(f"pivot magnitude {big:.3e} below threshold {floor:.3e}")
        lu[k], lu[p] = lu[p], lu[k]
        order[k], order[p] = order[p], order[k]
        top = lu[k]
        for row in lu[k + 1:]:
            f = row[k] / top[k]
            row[k] = f
            for j in range(k + 1, n):
                row[j] -= f * top[j]

    def substitute(rhs):
        x = [rhs[i] for i in order]
        for i in range(n):
            row = lu[i]
            for j in range(i):
                x[i] -= row[j] * x[j]
        for i in range(n - 1, -1, -1):
            row = lu[i]
            known = 0.0
            for j in range(i + 1, n):
                known += row[j] * x[j]
            x[i] = (x[i] - known) / row[i]
        return x

    negated = [[-a for a in row] for row in A]

    def residual(x):
        try:
            return [math.fsum([bi, *map(operator.mul, row, x)]) for row, bi in zip(negated, b)]
        except (OverflowError, ValueError):  # fsum's overflowing or inf - inf partial sum
            return [math.inf] * n

    x = substitute(b)
    x = [xi + di for xi, di in zip(x, substitute(residual(x)))]
    worst = max(map(abs, residual(x)))
    if not math.isfinite(worst):
        raise NonFiniteValue("the solution of the system overflows a float")
    if not worst <= RESIDUAL_REL_TOL * (1.0 + max(map(abs, b))):
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
    S, _ = _check_square_symmetric(S, "S")
    if S.shape[0] == 0:
        raise DimensionMismatch("empty matrix has no eigenpairs")
    eigenvalues, eigenvectors = np.linalg.eigh(S)
    return float(eigenvalues[-1]), sign_convention(eigenvectors[:, -1])
