"""Lloyd's K-means with multi-restart.

Points are rows of a 2-D array. Assignment ties go to the smallest
centroid index; empty clusters keep their previous centroid. Restarts are
seeded deterministically from (seed, restart index) and initialized by
sampling k distinct data points, so identical inputs always produce
identical output. All restarts run together in one Lloyd loop; each does
the same arithmetic, in the same order, as a loop of one restart would:
squared distances summed over the coordinates in order, the nearest
centroid taken as ``argmin`` takes it, and each centroid moved to its
members' ``mean``. The tests keep that one-restart loop as the kernels'
oracle. The loop lays its squared distances out as (restarts, k, points),
so each pass runs along the points, and it computes no objective: each
restart's final objective is computed once, to pick the best one.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteValue, TooFewPoints, ValidationError
from .linalg import check_finite, read_only

DEFAULT_RESTARTS = 16
DEFAULT_MAX_ITER = 300

# the restarts run in chunks whose temporaries hold at most this many elements
_CHUNK_ELEMENTS = 1 << 18


@dataclass(frozen=True)
class KMeansResult:
    centroids: np.ndarray          # (k, d)
    assignments: np.ndarray        # (n,) ints in [0, k)
    objective: float               # sum of squared distances to assigned centroid
    iterations: int
    converged: bool
    empty_clusters: tuple[int, ...] = ()
    restart_iterations: tuple[int, ...] = ()    # every restart's, in restart order
    restart_converged: tuple[bool, ...] = ()


def _as_points(points: np.ndarray) -> np.ndarray:
    pts = check_finite(points, "points")
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2:
        raise DimensionMismatch(f"points must be 1-D or 2-D, got ndim={pts.ndim}")
    return pts


def _means(pts: np.ndarray, assignments: np.ndarray, cts: np.ndarray) -> np.ndarray:
    """Each centroid moved to the ``mean`` of its points; an empty cluster stays put."""
    cts = cts.copy()
    for k in range(cts.shape[0]):
        members = pts[assignments == k]
        if members.shape[0]:
            cts[k] = members.mean(axis=0)
    return cts


@functools.lru_cache(maxsize=32)
def _starts(n: int, k: int, seed: int, restarts: int) -> np.ndarray:
    """The (restarts, k) indices of the points each restart starts from, read-only.

    Restart r draws k distinct indices with the rng seeded by (seed, r).
    """
    return read_only(np.array([
        np.random.default_rng([seed, r]).choice(n, size=k, replace=False) for r in range(restarts)
    ]))


def _nearest_batch(pts: np.ndarray, cts: np.ndarray) -> np.ndarray:
    """The nearest centroid of each point, for every restart's centroids
    (R, k, d) at once: (R, n).

    The squared distances are laid out (R, k, n), so every pass runs along
    the points.
    """
    restarts, k, d = cts.shape
    # squares summed over the coordinates in order, as einsum("nkd,nkd->nk") sums them
    d2 = np.subtract(pts[:, 0], cts[:, :, 0, None])
    np.multiply(d2, d2, out=d2)
    t = np.empty_like(d2)
    for j in range(1, d):
        np.subtract(pts[:, j], cts[:, :, j, None], out=t)
        np.multiply(t, t, out=t)
        d2 += t
    # the first nearest centroid, as argmin picks it: a strict < keeps the earlier
    # index. A NaN distance needs a NaN centroid, a 1-D mean whose pairwise sum
    # overflows both ways; only centroid 0 gets such members, as they are +inf
    # from every centroid, and then both pick 0 for every point.
    nearest = np.zeros((restarts, pts.shape[0]), dtype=np.intp)
    closer = np.empty(nearest.shape, dtype=bool)
    low = d2[:, 0]
    for c in range(1, k):
        np.less(d2[:, c], low, out=closer)
        np.copyto(nearest, c, where=closer)
        np.minimum(low, d2[:, c], out=low)
    return nearest


def _means_batch(pts: np.ndarray, assignments: np.ndarray, cts: np.ndarray) -> np.ndarray:
    """``_means`` for every restart's assignments (R, n) and centroids (R, k, d) at once."""
    restarts, k, d = cts.shape
    if d == 1:
        # the mean of an (m, 1) array sums pairwise, not in row order as bincount does
        return np.stack([_means(pts, a, c) for a, c in zip(assignments, cts)])
    keys = (np.arange(restarts)[:, None] * k + assignments).ravel()
    counts = np.bincount(keys, minlength=restarts * k).reshape(restarts, k)
    filled = counts > 0
    cts = cts.copy()
    for j in range(d):
        sums = np.bincount(keys, weights=np.tile(pts[:, j], restarts), minlength=restarts * k)
        cts[filled, j] = sums.reshape(restarts, k)[filled] / counts[filled]
    return cts


def _objectives(pts: np.ndarray, assignments: np.ndarray, cts: np.ndarray) -> list[float]:
    """Each restart's sum of squared distances to its assigned centroids.

    Each restart's sum is one einsum over its own (n, d) slice, so it adds
    in the same order as a single-restart sum would.
    """
    diff = pts[None] - cts[np.arange(cts.shape[0])[:, None], assignments]
    return [float(np.einsum("nd,nd->", one, one)) for one in diff]


def _lloyd_batch(points, centroids, max_iter):
    """Lloyd iterations of R restarts at once, from starting centroids (R, k, d), updated in place.

    A restart leaves the active set once an assignment pass changes
    nothing. Returns the final centroids and assignments, each restart's
    iteration count and whether it converged. No objective is computed here.
    """
    assignments = _nearest_batch(points, centroids)
    iterations = np.zeros(len(centroids), dtype=int)
    converged = np.zeros(len(centroids), dtype=bool)
    active = np.arange(len(centroids))
    for _ in range(max_iter):
        iterations[active] += 1
        cts = _means_batch(points, assignments[active], centroids[active])
        new_assignments = _nearest_batch(points, cts)
        centroids[active] = cts
        unchanged = (new_assignments == assignments[active]).all(axis=1)
        assignments[active] = new_assignments
        converged[active[unchanged]] = True
        active = active[~unchanged]
        if not active.size:
            break
    return centroids, assignments, iterations, converged


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
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
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
    seeded by (seed, restart); the draws are cached per (n, k, seed,
    restarts). ``iterations`` and ``converged`` are the chosen restart's:
    ``converged`` is True when an assignment pass produced no change before
    ``max_iter``. ``restart_iterations`` and ``restart_converged`` hold
    every restart's, in restart order. All-identical points with k > 1 are
    not an error: the surplus clusters come back empty and are
    listed in ``empty_clusters``. Points whose squared distances overflow a
    float raise :class:`NonFiniteValue`.
    """
    pts = _as_points(points)
    n = pts.shape[0]
    check_settings(k, seed, max_iter, restarts)
    if n < k:
        raise TooFewPoints(f"{n} points cannot fill {k} clusters")

    starts = _starts(n, k, seed, restarts)
    chunk = max(1, _CHUNK_ELEMENTS // (n * max(k, pts.shape[1])))
    finals, objectives, iterations, converged = [], [], [], []
    # points too large for their squared distances are rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, restarts, chunk):
            cts, assignments, chunk_iterations, chunk_converged = _lloyd_batch(
                pts, pts[starts[lo:lo + chunk]], max_iter,
            )
            finals += zip(cts, assignments)
            objectives += _objectives(pts, assignments, cts)
            iterations += chunk_iterations.tolist()
            converged += chunk_converged.tolist()

    best = 0
    for r in range(1, restarts):
        if objectives[r] < objectives[best] - 1e-15:
            best = r
    objective = objectives[best]
    if not math.isfinite(objective):
        raise NonFiniteValue("squared distances between the points overflow a float")
    centroids, assignments = finals[best]
    counts = np.bincount(assignments, minlength=k)
    return KMeansResult(
        centroids=centroids.copy(),
        assignments=assignments.copy(),
        objective=objective,
        iterations=iterations[best],
        converged=converged[best],
        empty_clusters=tuple(np.flatnonzero(counts == 0).tolist()),
        restart_iterations=tuple(iterations),
        restart_converged=tuple(converged),
    )


def standardize_features(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Z-score each feature column; constant columns get scale 1.

    A column whose sample std is at the rounding level of its mean (at
    most 4 eps times it) counts as constant, as its spread is rounding.
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
    scales = np.where(scales > 4.0 * np.finfo(float).eps * np.abs(means), scales, 1.0)
    return (pts - means) / scales, means, scales
