"""Expansion time-series preprocessing.

Measured expansion records are noisy and irregularly sampled. This module
smooths them with a three-point convolution, locates the failure point
(first crossing of the expansion threshold, 0.5 percent by default) and
derives the two clustering features: failure time and the slope there.

Every step runs as whole-array passes over a :class:`SeriesBlock`, N
records laid end to end; a single :class:`ExpansionSeries` is a block of
one. A step that rejects records raises the error of the first one and
names every other one it rejects.
"""

from __future__ import annotations

import dataclasses
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    InvalidAlpha,
    MissingField,
    NonFiniteValue,
    NonPositiveTrend,
    TooFewSamples,
    ValidationError,
)
from .mixtures import MIXTURE_FIELDS

DEFAULT_THRESHOLD = 0.5      # expansion percent at which a specimen is failed
DEFAULT_ALPHA = 0.3          # smoothing weight on the point itself
CENSORED_TIME_CAP = 200.0    # years; keeps extrapolated features finite

_mixture_fields = operator.attrgetter(*MIXTURE_FIELDS)


@dataclass(frozen=True, init=False, eq=False)
class ExpansionSeries:
    """One specimen's expansion history.

    ``samples`` is any (n, 2) array-like of (time in years, expansion in
    percent) rows with strictly increasing times; :meth:`from_columns`
    takes the two columns instead. Either way the series is stored as two
    read-only float64 arrays, ``times`` and ``values``, checked by one
    routine: finite samples, non-negative and strictly increasing times.
    The ``samples`` property rebuilds the pairs as a tuple of Python
    floats. Negative expansion values are legal measurement noise; they
    are kept, not clamped. Equality compares the id and both arrays, not
    ``group``. A copy or an unpickled series is built again through
    :meth:`from_columns`, so its arrays are read-only too.
    """

    mixture_id: str
    times: np.ndarray = field(init=False)
    values: np.ndarray = field(init=False)
    group: str | None = None

    def __init__(self, mixture_id: str, samples, group: str | None = None):
        try:
            array = np.asarray(samples, dtype=float)
        except ValueError:  # ragged or non-numeric samples
            raise ValidationError(
                f"series {mixture_id!r} samples must be (time, value) pairs of numbers"
            ) from None
        if array.size == 0:
            array = array.reshape(0, 2)
        if array.ndim != 2 or array.shape[1] != 2:
            raise ValidationError(
                f"series {mixture_id!r} samples must be (time, value) pairs, "
                f"got shape {array.shape}"
            )
        self._set_columns(mixture_id, array.T.copy(), group)

    @classmethod
    def from_columns(cls, mixture_id: str, times, values,
                     group: str | None = None) -> "ExpansionSeries":
        """The series of aligned 1-D ``times`` and ``values``, copied and
        checked as the samples of the constructor are."""
        try:
            columns = np.array((times, values), dtype=float)
        except ValueError:  # ragged or non-numeric columns
            columns = None
        if columns is None or columns.ndim != 2:
            raise ValidationError(
                f"series {mixture_id!r} times and values must be aligned 1-D arrays of numbers, "
                f"got shapes {np.shape(times)} and {np.shape(values)}")
        series = cls.__new__(cls)
        series._set_columns(mixture_id, columns, group)
        return series

    @classmethod
    def _on_grid(cls, mixture_id: str, times: np.ndarray, values: np.ndarray,
                 group: str | None) -> "ExpansionSeries":
        """The series of a shared read-only ``times`` grid and of fresh
        ``values`` that :meth:`GroupModel.expansion` computed on it, which
        the series takes over unchecked: that method's bound check already
        makes every value, and so every grid time, finite."""
        series = cls.__new__(cls)
        series._store(mixture_id, times, linalg.read_only(values), group)
        return series

    def _set_columns(self, mixture_id: str, columns: np.ndarray, group: str | None) -> None:
        """Check and store a (2, n) array of times over values that this
        series owns."""
        if not np.isfinite(columns).all():
            raise NonFiniteValue(f"series {mixture_id!r} has non-finite samples")
        columns = linalg.read_only(columns)
        check_times(mixture_id, columns[0])
        self._store(mixture_id, columns[0], columns[1], group)

    def _store(self, mixture_id: str, times: np.ndarray, values: np.ndarray,
               group: str | None) -> None:
        # one step past the frozen dataclass's __setattr__
        self.__dict__.update(mixture_id=mixture_id, times=times, values=values, group=group)

    def __reduce__(self):  # a copy is built again, with read-only arrays
        return (ExpansionSeries.from_columns,
                (self.mixture_id, self.times, self.values, self.group))

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


def check_times(mixture_id: str, times: np.ndarray) -> None:
    """Reject ``times`` that are negative or not strictly increasing, as
    the times of series ``mixture_id``."""
    increasing = not np.count_nonzero(times[1:] <= times[:-1])
    # strictly increasing times are all non-negative when the first one is
    if (times.size and times[0] < 0) if increasing else np.count_nonzero(times < 0):
        raise ValidationError(f"series {mixture_id!r} has negative times")
    if not increasing:
        raise ValidationError(f"series {mixture_id!r} times not strictly increasing")


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


def _offsets(lengths: np.ndarray) -> np.ndarray:
    """Record boundaries: 0, then the running total of ``lengths``."""
    offsets = np.zeros(lengths.size + 1, dtype=np.intp)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def _raise_first(failed: np.ndarray, ids, error_for) -> None:
    """Raise the error of the first failed record, naming every other one.

    ``failed`` is a boolean mask over records and ``error_for(i)`` builds
    record i's error. Its message keeps its words and, when more records
    failed, gains ``(and k more: 'id', ...)`` with their ids in order.
    """
    rows = np.flatnonzero(failed).tolist()
    if not rows:
        return
    error = error_for(rows[0])
    if len(rows) > 1:
        others = ", ".join(repr(ids[i]) for i in rows[1:])
        error.args = (f"{error.args[0]} (and {len(rows) - 1} more: {others})",) + error.args[1:]
    raise error


@dataclass(frozen=True, eq=False)
class SeriesBlock:
    """N expansion records as one columnar block.

    ``times`` and ``values`` concatenate the records' samples; record i
    owns ``[offsets[i], offsets[i + 1])``. ``fields`` is the (N, 7) matrix
    of the records' mixture fields in :data:`MIXTURE_FIELDS` order, NaN
    where a field is absent (every field, for a block built from series
    alone). All four arrays are :func:`linalg.read_only` views, whose write
    flags cannot be set again. ``len()`` counts samples, as it does for a
    series; ``ids`` holds one id per record. Build a block with
    :meth:`from_series` or :meth:`from_pairs`, whose series are already
    validated.
    """

    ids: tuple[str, ...]
    times: np.ndarray
    values: np.ndarray
    offsets: np.ndarray
    fields: np.ndarray

    @classmethod
    def from_series(cls, series_list) -> "SeriesBlock":
        """Block of series named by their ids, with every field absent."""
        fields = np.full((len(series_list), len(MIXTURE_FIELDS)), np.nan)
        return cls._build([s.mixture_id for s in series_list], series_list, fields)

    @classmethod
    def from_pairs(cls, pairs) -> "SeriesBlock":
        """Block of (mixture, series) pairs, in their order, named by mixture id."""
        # None becomes NaN, which marks an absent field: a Mixture holds finite values only
        fields = np.array([_mixture_fields(mix) for mix, _ in pairs], dtype=float)
        return cls._build([mix.id for mix, _ in pairs], [s for _, s in pairs],
                          fields.reshape(-1, len(MIXTURE_FIELDS)))

    @classmethod
    def _build(cls, ids, series_list, fields) -> "SeriesBlock":
        offsets = _offsets(np.fromiter(map(len, series_list), dtype=np.intp,
                                       count=len(series_list)))
        times, values = (
            np.concatenate([getattr(s, column) for s in series_list] or [np.empty(0)])
            for column in ("times", "values")
        )
        return cls(tuple(ids), *map(linalg.read_only, (times, values, offsets, fields)))

    def __len__(self) -> int:
        return self.times.shape[0]

    @property
    def lengths(self) -> np.ndarray:
        """Samples per record."""
        return np.diff(self.offsets)

    def series(self, i: int) -> ExpansionSeries:
        """Record i as an :class:`ExpansionSeries`."""
        a, b = self.offsets[i], self.offsets[i + 1]
        return ExpansionSeries.from_columns(self.ids[i], self.times[a:b], self.values[a:b])

    def subset(self, rows) -> "SeriesBlock":
        """The block of records ``rows`` (indices, in the order given)."""
        rows = np.asarray(rows, dtype=np.intp).reshape(-1)
        starts = self.offsets[rows]
        lengths = self.offsets[rows + 1] - starts
        offsets = _offsets(lengths)
        take = np.arange(offsets[-1]) + np.repeat(starts - offsets[:-1], lengths)
        return SeriesBlock(tuple(self.ids[i] for i in rows.tolist()), *map(
            linalg.read_only, (self.times[take], self.values[take], offsets, self.fields[rows])))

    def require(self, names, rows=None) -> np.ndarray:
        """The named fields of records ``rows`` (all by default), one row each.

        Raises :class:`MissingField` naming the first record, in block
        order, that lacks one of them and the first field it lacks, in
        ``names`` order; the other records that lack one follow in the
        message. A name outside :data:`MIXTURE_FIELDS` raises
        :class:`ValidationError`.
        """
        for name in names:
            if name not in MIXTURE_FIELDS:
                raise ValidationError(f"unknown mixture field {name!r}")
        cols = [MIXTURE_FIELDS.index(name) for name in names]
        fields = self.fields if rows is None else self.fields[rows]
        matrix = np.ascontiguousarray(fields[:, cols])
        missing = np.isnan(matrix)
        if missing.any():
            ids = self.ids if rows is None else [self.ids[i] for i in rows]
            _raise_first(missing.any(axis=1), ids, lambda i: MissingField(
                f"mixture {ids[i]!r} is missing field {names[int(np.argmax(missing[i]))]!r}"))
        return matrix


def smooth(data, alpha: float = DEFAULT_ALPHA):
    """Smooth interior samples with the three-point convolution.

    ``data`` is an :class:`ExpansionSeries` or a :class:`SeriesBlock`, and
    the result is the same kind. First and last samples of each record
    pass through unchanged (no neighbor exists on one side) and time
    stamps are preserved exactly. ``alpha`` balances the point's own value
    against its neighbors; ``alpha = 1`` is the identity.

    One pass computes every sample of the block from the whole time and
    value arrays, in the same per-element operation order as a
    point-by-point loop, so the result is bit-identical to it; the samples
    at record edges then take back their raw values. A record with fewer
    than 3 samples raises :class:`TooFewSamples`, one whose smoothed
    values are not finite :class:`NonFiniteValue`; the first failing
    record decides, checked for length first.
    """
    check_alpha(alpha)
    if isinstance(data, ExpansionSeries):
        values = _smooth_values(SeriesBlock.from_series([data]), alpha)
        return ExpansionSeries.from_columns(data.mixture_id, data.times, values, data.group)
    return dataclasses.replace(data, values=linalg.read_only(_smooth_values(data, alpha)))


def _smooth_values(block: SeriesBlock, alpha: float) -> np.ndarray:
    t = block.times
    s = block.values
    # the points beside a record edge mix two records and huge values may
    # overflow: the edges are restored and non-finite records rejected below
    with np.errstate(all="ignore"):
        dt = np.diff(t)
        w_prev, _, w_next = smoothing_weights(alpha, dt[:-1], dt[1:])
        # delta form of the convolution: exact when both neighbors equal the
        # point (the weights sum to 1, so only differences matter)
        mid = s[1:-1]
        out = s.copy()
        out[1:-1] = mid + w_prev * (s[:-2] - mid) + w_next * (s[2:] - mid)
    lengths = block.lengths
    edges = np.concatenate((block.offsets[:-1], block.offsets[1:] - 1))[np.tile(lengths > 0, 2)]
    out[edges] = s[edges]

    short = lengths < 3
    nonfinite = np.concatenate(([0], np.cumsum(~np.isfinite(out))))[block.offsets]
    ids = block.ids

    def error(i):
        if short[i]:
            return TooFewSamples(
                f"series {ids[i]!r} has {lengths[i]} samples; smoothing needs >= 3"
            )
        return NonFiniteValue(f"series {ids[i]!r} has non-finite samples")

    _raise_first(short | (np.diff(nonfinite) > 0), ids, error)
    return out


def _failure_points(block: SeriesBlock, threshold: float):
    """(t_fail, slope, censored) arrays, one entry per record of ``block``.

    Each record's failure point comes from one secant, between samples
    ``right - 1`` and ``right``: the first two samples when the record
    starts at or above the threshold, the samples bracketing its first
    crossing, or its last two samples when it never crosses (censored).
    """
    t, e = block.times, block.values
    starts, ends = block.offsets[:-1], block.offsets[1:]
    short = ends - starts < 2
    above = np.flatnonzero(e >= threshold)
    first = np.append(above, t.size)[np.searchsorted(above, starts)]
    crosses = first < ends
    at_start = crosses & (first == starts)
    ok = ~short
    right = np.where(crosses, np.maximum(first, starts + 1), ends - 1)[ok]
    prev = right - 1
    t_fail = np.full(starts.size, np.nan)
    slope = np.full(starts.size, np.nan)
    with np.errstate(all="ignore"):
        secant = (e[right] - e[prev]) / (t[right] - t[prev])
        inside = t[prev] + (threshold - e[prev]) / secant
        # a censored record extrapolates from its last sample
        beyond = np.minimum(t[right] + (threshold - e[right]) / secant, CENSORED_TIME_CAP)
    slope[ok] = secant
    t_fail[ok] = np.where(at_start[ok], t[prev], np.where(crosses[ok], inside, beyond))
    censored = ~crosses
    ids = block.ids

    def error(i):
        if short[i]:
            return TooFewSamples(f"series {ids[i]!r} needs >= 2 samples to define a slope")
        return NonPositiveTrend(
            f"series {ids[i]!r} never reaches {threshold} and its "
            f"terminal secant slope {slope[i]:.4g} admits no finite crossing"
        )

    _raise_first(short | (censored & (slope <= 0)), ids, error)
    return t_fail, slope, censored


def failure_point(series: ExpansionSeries, threshold: float = DEFAULT_THRESHOLD) -> FailurePoint:
    """Locate the first crossing of ``threshold``.

    The crossing time is linearly interpolated between the bracketing
    samples and the slope is the secant over that interval. If the record
    never reaches the threshold the terminal secant is extrapolated
    forward from the last sample; a non-positive terminal secant has no
    finite crossing and raises :class:`NonPositiveTrend`.
    """
    t_fail, slope, censored = _failure_points(SeriesBlock.from_series([series]), threshold)
    return FailurePoint(t_fail=float(t_fail[0]), slope=float(slope[0]),
                        censored=bool(censored[0]))


def cluster_features(data, threshold: float = DEFAULT_THRESHOLD) -> np.ndarray:
    """Two clustering features: (failure time, slope at failure).

    For an :class:`ExpansionSeries` the result has shape (2,), for a
    :class:`SeriesBlock` (N, 2), one row per record. The expansion
    coordinate of the failure point is omitted: it equals the threshold
    for every uncensored series.
    """
    if isinstance(data, ExpansionSeries):
        return cluster_features(SeriesBlock.from_series([data]), threshold)[0]
    t_fail, slope, _ = _failure_points(data, threshold)
    return np.column_stack((t_fail, slope))
