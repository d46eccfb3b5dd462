"""Expansion time-series preprocessing.

Measured expansion records are noisy and irregularly sampled. This module
smooths them with a three-point convolution, locates the failure point
(first crossing of the expansion threshold, 0.5 percent by default) and
derives the two clustering features: failure time and the slope there.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidAlpha,
    NonFiniteValue,
    NonPositiveTrend,
    TooFewSamples,
    ValidationError,
)

DEFAULT_THRESHOLD = 0.5      # expansion percent at which a specimen is failed
DEFAULT_ALPHA = 0.3          # smoothing weight on the point itself
CENSORED_TIME_CAP = 200.0    # years; keeps extrapolated features finite


@dataclass(frozen=True, init=False, eq=False)
class ExpansionSeries:
    """One specimen's expansion history.

    ``samples`` is any (n, 2) array-like of (time in years, expansion in
    percent) rows with strictly increasing times. It is stored as two
    read-only float64 arrays, ``times`` and ``values``; the ``samples``
    property rebuilds the pairs as a tuple of Python floats. Negative
    expansion values are legal measurement noise; they are kept, not
    clamped. Equality compares the id and both arrays, not ``group``.
    """

    mixture_id: str
    times: np.ndarray = field(init=False)
    values: np.ndarray = field(init=False)
    group: str | None = None

    def __init__(self, mixture_id: str, samples, group: str | None = None):
        array = np.asarray(samples, dtype=float)
        if array.size == 0:
            array = array.reshape(0, 2)
        if array.ndim != 2 or array.shape[1] != 2:
            raise ValidationError(
                f"series {mixture_id!r} samples must be (time, value) pairs, "
                f"got shape {array.shape}"
            )
        columns = array.T.copy()
        if not np.isfinite(columns).all():
            raise NonFiniteValue(f"series {mixture_id!r} has non-finite samples")
        columns.flags.writeable = False
        times, values = columns
        if np.count_nonzero(times < 0):
            raise ValidationError(f"series {mixture_id!r} has negative times")
        if np.count_nonzero(times[1:] <= times[:-1]):
            raise ValidationError(f"series {mixture_id!r} times not strictly increasing")
        object.__setattr__(self, "mixture_id", mixture_id)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "group", group)

    __hash__ = None

    def __eq__(self, other):
        if not isinstance(other, ExpansionSeries):
            return NotImplemented
        return (
            self.mixture_id == other.mixture_id
            and np.array_equal(self.times, other.times)
            and np.array_equal(self.values, other.values)
        )

    @property
    def samples(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.times.tolist(), self.values.tolist()))

    def __len__(self) -> int:
        return self.times.shape[0]


@dataclass(frozen=True)
class FailurePoint:
    """Where a series first reaches the failure threshold.

    ``censored`` marks records that never reach the threshold; their
    ``t_fail`` comes from extrapolating the terminal secant, capped at
    ``CENSORED_TIME_CAP`` years.
    """

    t_fail: float
    slope: float
    censored: bool = False


def smoothing_weights(alpha: float, dt_prev: float, dt_next: float) -> tuple[float, float, float]:
    """Convolution weights (previous, self, next) for interior points.

    ``dt_prev`` and ``dt_next`` are the intervals either side of a point,
    as scalars or as aligned arrays (one entry per interior point).

    The neighbor weights are cross-scaled by the opposite interval, which
    makes every affine series a fixed point regardless of sample spacing:
    the weight on the previous sample carries the following interval and
    vice versa. The three weights sum to 1.
    """
    total = dt_prev + dt_next
    w_prev = (1.0 - alpha) * dt_next / total
    w_next = (1.0 - alpha) * dt_prev / total
    return w_prev, alpha, w_next


def check_alpha(alpha: float) -> None:
    """Reject a smoothing weight that is not a real number in [0, 1] (NaN
    and bools included)."""
    if isinstance(alpha, bool) or not isinstance(alpha, numbers.Real) or not 0.0 <= alpha <= 1.0:
        raise InvalidAlpha(f"alpha must be in [0, 1], got {alpha!r}")


def smooth(series: ExpansionSeries, alpha: float = DEFAULT_ALPHA) -> ExpansionSeries:
    """Smooth interior samples with the three-point convolution.

    First and last samples pass through unchanged (no neighbor exists on
    one side) and time stamps are preserved exactly. ``alpha`` balances the
    point's own value against its neighbors; ``alpha = 1`` is the identity.
    All interior points are computed at once from the time and value
    arrays, in the same per-element operation order as a point-by-point
    loop, so the result is bit-identical to it.
    """
    check_alpha(alpha)
    if len(series) < 3:
        raise TooFewSamples(
            f"series {series.mixture_id!r} has {len(series)} samples; smoothing needs >= 3"
        )
    t = series.times
    s = series.values
    dt = np.diff(t)
    w_prev, _, w_next = smoothing_weights(alpha, dt[:-1], dt[1:])
    # delta form of the convolution: exact when both neighbors equal the
    # point (the weights sum to 1, so only differences matter)
    mid = s[1:-1]
    out = s.copy()
    out[1:-1] = mid + w_prev * (s[:-2] - mid) + w_next * (s[2:] - mid)
    return ExpansionSeries(series.mixture_id, np.array((t, out)).T, series.group)


def failure_point(series: ExpansionSeries, threshold: float = DEFAULT_THRESHOLD) -> FailurePoint:
    """Locate the first crossing of ``threshold``.

    The crossing time is linearly interpolated between the bracketing
    samples and the slope is the secant over that interval. If the record
    never reaches the threshold the terminal secant is extrapolated
    forward; a non-positive terminal secant has no finite crossing and
    raises :class:`NonPositiveTrend`.
    """
    if len(series) < 2:
        raise TooFewSamples(
            f"series {series.mixture_id!r} needs >= 2 samples to define a slope"
        )
    t = series.times
    e = series.values

    if e[0] >= threshold:
        slope = (e[1] - e[0]) / (t[1] - t[0])
        return FailurePoint(t_fail=float(t[0]), slope=float(slope), censored=False)

    crossing = np.nonzero(e >= threshold)[0]
    if crossing.size:
        i = int(crossing[0])
        slope = (e[i] - e[i - 1]) / (t[i] - t[i - 1])
        t_fail = t[i - 1] + (threshold - e[i - 1]) / slope
        return FailurePoint(t_fail=float(t_fail), slope=float(slope), censored=False)

    slope = (e[-1] - e[-2]) / (t[-1] - t[-2])
    if slope <= 0:
        raise NonPositiveTrend(
            f"series {series.mixture_id!r} never reaches {threshold} and its "
            f"terminal secant slope {slope:.4g} admits no finite crossing"
        )
    t_fail = min(t[-1] + (threshold - e[-1]) / slope, CENSORED_TIME_CAP)
    return FailurePoint(t_fail=float(t_fail), slope=float(slope), censored=True)


def cluster_features(series: ExpansionSeries, threshold: float = DEFAULT_THRESHOLD) -> np.ndarray:
    """Two clustering features: (failure time, slope at failure).

    The expansion coordinate of the failure point is omitted: it equals the
    threshold for every uncensored series.
    """
    fp = failure_point(series, threshold)
    return np.array([fp.t_fail, fp.slope])
