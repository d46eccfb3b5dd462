"""Lloyd's K-means with multi-restart.

Points are rows of a 2-D array. Assignment ties go to the smallest
centroid index; empty clusters keep their previous centroid. Restarts are
seeded deterministically from (seed, restart index) and initialized by
sampling k distinct data points, so identical inputs always produce
identical output.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteValue, TooFewPoints, ValidationError
from .linalg import check_finite

DEFAULT_RESTARTS = 16
DEFAULT_MAX_ITER = 300


@dataclass(frozen=True)
class KMeansResult:
    centroids: np.ndarray          # (k, d)
    assignments: np.ndarray        # (n,) ints in [0, k)
    objective: float               # sum of squared distances to assigned centroid
    iterations: int
    converged: bool
    objective_trace: tuple[float, ...] = ()
    empty_clusters: tuple[int, ...] = ()


def _as_points(points: np.ndarray) -> np.ndarray:
    pts = check_finite(points, "points")
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2:
        raise DimensionMismatch(f"points must be 1-D or 2-D, got ndim={pts.ndim}")
    return pts


def _nearest(pts: np.ndarray, cts: np.ndarray) -> np.ndarray:
    diff = pts[:, None, :] - cts[None, :, :]
    d2 = np.einsum("nkd,nkd->nk", diff, diff)
    return np.argmin(d2, axis=1)


def _means(pts: np.ndarray, assignments: np.ndarray, cts: np.ndarray) -> np.ndarray:
    cts = cts.copy()
    for k in range(cts.shape[0]):
        members = pts[assignments == k]
        if members.shape[0]:
            cts[k] = members.mean(axis=0)
    return cts


def assign_step(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Assign each point to its nearest centroid (squared Euclidean).

    Exact distance ties resolve to the smallest centroid index.
    """
    pts = _as_points(points)
    cts = _as_points(centroids)
    if cts.shape[0] < 1:
        raise ValidationError("need at least one centroid")
    if pts.shape[1] != cts.shape[1]:
        raise DimensionMismatch(
            f"points have dimension {pts.shape[1]} but centroids have {cts.shape[1]}"
        )
    return _nearest(pts, cts)


def update_step(points: np.ndarray, assignments: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Move each centroid to the mean of its points; empty clusters stay put."""
    pts = _as_points(points)
    cts = _as_points(centroids)
    assignments = np.asarray(assignments, dtype=int)
    if assignments.shape[0] != pts.shape[0]:
        raise DimensionMismatch("one assignment per point required")
    if assignments.size and (assignments.min() < 0 or assignments.max() >= cts.shape[0]):
        raise ValidationError("assignment index out of range")
    return _means(pts, assignments, cts)


def _objective(points: np.ndarray, assignments: np.ndarray, centroids: np.ndarray) -> float:
    diff = points - centroids[assignments]
    return float(np.einsum("nd,nd->", diff, diff))


def _lloyd(points, centroids, max_iter):
    """Lloyd iterations on points and centroids that ``kmeans`` has checked."""
    trace = []
    assignments = _nearest(points, centroids)
    trace.append(_objective(points, assignments, centroids))
    converged = False
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        centroids = _means(points, assignments, centroids)
        new_assignments = _nearest(points, centroids)
        trace.append(_objective(points, new_assignments, centroids))
        if np.array_equal(new_assignments, assignments):
            converged = True
            break
        assignments = new_assignments
    return centroids, assignments, trace, iterations, converged


def check_integer(name: str, value) -> None:
    """Reject a count that is not an integer (a bool included)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")


def check_settings(
    k: int, seed: int, max_iter: int = DEFAULT_MAX_ITER, restarts: int = DEFAULT_RESTARTS,
) -> None:
    """Reject k-means settings no run can use, before any data is read."""
    for name, value in (("k", k), ("max_iter", max_iter), ("restarts", restarts)):
        check_integer(name, value)
    if k < 1 or max_iter < 1 or restarts < 1:
        raise ValidationError("k, max_iter and restarts must all be >= 1")
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")


def kmeans(
    points: np.ndarray,
    k: int,
    seed: int = 0,
    max_iter: int = DEFAULT_MAX_ITER,
    restarts: int = DEFAULT_RESTARTS,
) -> KMeansResult:
    """Multi-restart Lloyd's algorithm; returns the lowest-objective run.

    Each restart starts from k distinct data points drawn with the rng
    seeded by (seed, restart). ``converged`` is True when an assignment
    pass produced no change before ``max_iter``. All-identical points with
    k > 1 are not an error: the surplus clusters come back empty and are
    listed in ``empty_clusters``. Points whose squared distances overflow a
    float raise :class:`NonFiniteValue`.
    """
    pts = _as_points(points)
    n = pts.shape[0]
    check_settings(k, seed, max_iter, restarts)
    if n < k:
        raise TooFewPoints(f"{n} points cannot fill {k} clusters")

    best: KMeansResult | None = None
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        idx = rng.choice(n, size=k, replace=False)
        # points too large for their squared distances are rejected below
        with np.errstate(over="ignore", invalid="ignore"):
            centroids, assignments, trace, iterations, converged = _lloyd(pts, pts[idx], max_iter)
        objective = trace[-1]
        if best is None or objective < best.objective - 1e-15:
            present = np.unique(assignments)
            empty = tuple(c for c in range(k) if c not in present)
            best = KMeansResult(
                centroids=centroids,
                assignments=assignments,
                objective=objective,
                iterations=iterations,
                converged=converged,
                objective_trace=tuple(trace),
                empty_clusters=empty,
            )
    assert best is not None
    if not math.isfinite(best.objective):
        raise NonFiniteValue("squared distances between the points overflow a float")
    return best


def standardize_features(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Z-score each feature column; constant columns get scale 1.

    Returns (scaled points, means, scales) so new points can be projected
    into the same feature space. Raises :class:`NonFiniteValue` when a
    column's mean or spread overflows a float.
    """
    pts = _as_points(points)
    with np.errstate(over="ignore", invalid="ignore"):
        means = pts.mean(axis=0)
        scales = pts.std(axis=0, ddof=1) if pts.shape[0] > 1 else np.ones(pts.shape[1])
    if not (np.isfinite(means).all() and np.isfinite(scales).all()):
        raise NonFiniteValue("the mean or spread of a feature overflows a float")
    scales = np.where(scales > 0, scales, 1.0)
    return (pts - means) / scales, means, scales
