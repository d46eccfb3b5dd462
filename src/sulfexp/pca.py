"""Principal component analysis by sequential variance maximization.

Each loading vector maximizes the variance of the data projected onto it,
orthogonal to the loadings before it. Those are the top eigenvectors of the
Gram matrix, which one symmetric eigendecomposition yields at once: exactly
the loadings that extracting one dominant eigenvector at a time, with
deflation, would give. Also provides the dominant-variable selection rule
used for regression screening: from each retained component, take the
variable with the largest absolute loading entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import clustering, linalg
from .errors import TooFewRows, ValidationError

DEFAULT_COMPONENTS = 3


@dataclass(frozen=True)
class PCAResult:
    loadings: np.ndarray            # (m, p), unit rows, pairwise orthogonal
    explained_variance: np.ndarray  # (m,), non-increasing
    explained_ratio: np.ndarray     # (m,), sums to <= 1

    @property
    def n_components(self) -> int:
        return self.loadings.shape[0]


@dataclass(frozen=True)
class SelectedVariable:
    """One screening pick: the dominant column of one component."""

    component: int
    column: int
    duplicate: bool = False   # column already picked by an earlier component
    tie: bool = False         # another column had exactly the same |loading|


def center_and_scale(X: np.ndarray, standardize: bool = True) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Remove column means; optionally scale columns to unit sample std.

    The z-score is :func:`clustering.standardize_features`, the one the
    fit's clustering uses: a constant column gets scale 1 and is left at
    zero, and a mean or spread that overflows a float raises
    :class:`NonFiniteValue`.
    """
    X = linalg.check_finite(X, "X")
    if X.ndim != 2:
        raise ValidationError(f"X must be 2-D, got ndim={X.ndim}")
    if X.shape[0] < 2:
        raise TooFewRows(f"need >= 2 rows, got {X.shape[0]}")
    if standardize:
        return clustering.standardize_features(X)
    means = X.mean(axis=0)
    return X - means, means, np.ones(X.shape[1])


def principal_components(X: np.ndarray, m: int) -> PCAResult:
    """First ``m`` principal components of ``X``.

    ``X`` is centered here, by subtracting its column means. The loadings
    are the eigenvectors of the centered Gram matrix ``X^T X`` with the
    ``m`` largest eigenvalues, in descending order, each oriented so its
    entry of largest magnitude is positive. Scale ``X`` first with
    :func:`center_and_scale` to screen standardized variables.
    """
    X = linalg.check_finite(X, "X")
    if X.ndim != 2:
        raise ValidationError(f"X must be 2-D, got ndim={X.ndim}")
    n, p = X.shape
    if not 1 <= m <= min(n - 1, p):
        raise ValidationError(f"m must be in [1, min(rows-1, cols)] = [1, {min(n - 1, p)}], got {m}")
    X = X - X.mean(axis=0)

    _, eigenvectors = np.linalg.eigh(X.T @ X)
    loadings = linalg.sign_convention(eigenvectors[:, ::-1][:, :m].T)
    scores = X @ loadings.T
    explained_variance = np.einsum("ij,ij->j", scores, scores) / (n - 1)
    total_variance = float((X * X).sum()) / (n - 1)
    ratio = explained_variance / total_variance if total_variance > 0 else np.zeros(m)
    return PCAResult(
        loadings=loadings,
        explained_variance=explained_variance,
        explained_ratio=ratio,
    )


def select_dominant_variables(result: PCAResult, m: int = DEFAULT_COMPONENTS) -> list[SelectedVariable]:
    """Pick the largest-|loading| column from each of the first m components.

    Exact ties resolve to the smaller column index and are flagged; a
    column picked by more than one component is kept in order with its
    duplicate flag set.
    """
    if m > result.n_components:
        raise ValidationError(f"asked for {m} components but only {result.n_components} computed")
    picks: list[SelectedVariable] = []
    seen: set[int] = set()
    for comp in range(m):
        magnitudes = np.abs(result.loadings[comp])
        column = int(np.argmax(magnitudes))
        tie = bool(np.count_nonzero(magnitudes == magnitudes[column]) > 1)
        picks.append(SelectedVariable(
            component=comp,
            column=column,
            duplicate=column in seen,
            tie=tie,
        ))
        seen.add(column)
    return picks
