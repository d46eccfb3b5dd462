"""Ordinary least squares and the per-group expansion models.

The three groups use fixed model forms over pooled (mixture, time) rows:

* ML: EXP       = a1*(WC*T) + a2*(C3A*T) + a3
* LL: EXP       = a1*(WC*T) + a3
* HN: ln(EXP)   = a1*(CC*T) + a2*T + a3

Coefficients are always stored with the constant term last. Regressor
columns are named by role strings ("WC*T", "T", "const", ...) so a fitted
model can be evaluated for any mixture without reference to how it was
trained.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .curves import ExpansionSeries, SeriesBlock
from .errors import (
    AlreadyFailed,
    ConstantResponse,
    DimensionMismatch,
    NonFiniteValue,
    NonIncreasing,
    PredictionOverflow,
    RankDeficient,
    SingularMatrix,
    TooFewRows,
    ValidationError,
)
from .mixtures import GroupLabel, Mixture

# role -> (mixture field scaling T, or None when the term is T itself / constant)
_T_ROLES = {
    "WC*T": "wc",
    "C3A*T": "c3a",
    "C3S*T": "c3s",
    "C2S*T": "c2s",
    "C4AF*T": "c4af",
    "CC*T": "cement_content",
    "AIR*T": "air",
    "T": None,
}
CONST_ROLE = "const"

#: time-scaled role for each mixture field, for data-driven variable selection
FIELD_TO_ROLE = {f: role for role, f in _T_ROLES.items() if f is not None}

# canonical regressor roles per group, constant last
GROUP_ROLES: dict[GroupLabel, tuple[str, ...]] = {
    GroupLabel.ML: ("WC*T", "C3A*T", CONST_ROLE),
    GroupLabel.LL: ("WC*T", CONST_ROLE),
    GroupLabel.HN: ("CC*T", "T", CONST_ROLE),
}
LOG_RESPONSE_GROUPS = frozenset({GroupLabel.HN})

#: largest log-linear predictor whose exponential is a finite float
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def check_roles(roles: tuple[str, ...]) -> None:
    """Reject a regressor role that is neither time-scaled nor the constant."""
    for role in roles:
        if role != CONST_ROLE and role not in _T_ROLES:
            raise ValidationError(f"unknown regressor role {role!r}")


@dataclass(frozen=True)
class OLSFit:
    """Least-squares estimate with the usual fit statistics.

    ``t_statistics`` are coefficient estimates divided by their standard
    errors; on an exact fit the residual variance is zero and they come
    out infinite. Both arrays are stored as read-only float64 copies, and
    a copy or an unpickled fit is built again, so its arrays are too.
    """

    coefficients: np.ndarray
    r_squared: float
    residual_std: float
    t_statistics: np.ndarray
    n_observations: int

    def __post_init__(self):
        for name in ("coefficients", "t_statistics"):
            object.__setattr__(self, name, linalg.read_only_copy(getattr(self, name)))

    def __reduce__(self):  # a copy is built again, with read-only arrays
        return (OLSFit, (self.coefficients, self.r_squared, self.residual_std,
                         self.t_statistics, self.n_observations))


def ols_fit(X: np.ndarray, y: np.ndarray) -> OLSFit:
    """Fit y = X b by least squares via the normal equations.

    R-squared is the explained-to-total variance ratio of the fitted
    values. A constant response is only fit when the residual is exactly
    zero (trivial perfect fit, R-squared 1); otherwise it raises
    :class:`ConstantResponse` because the ratio is undefined. Values too
    large for the normal equations or the sums of squares raise
    :class:`NonFiniteValue`.
    """
    X = linalg.check_finite(X, "X")
    y = linalg.check_finite(y, "y").reshape(-1)
    if X.ndim != 2:
        raise ValidationError(f"X must be 2-D, got ndim={X.ndim}")
    n, p = X.shape
    if y.shape[0] != n:
        raise DimensionMismatch(f"X has {n} rows but y has {y.shape[0]} entries")
    if n <= p:
        raise TooFewRows(f"need more observations than coefficients ({n} rows, {p} columns)")

    # values too large for the sums of squares are rejected after each step
    with np.errstate(over="ignore", invalid="ignore"):
        gram, moments = X.T @ X, X.T @ y
    # one solve gives beta and (X^T X)^-1, whose diagonal scales the t-statistics
    try:
        solution = linalg.solve_symmetric(gram, np.column_stack([moments, np.eye(p)]))
    except SingularMatrix as exc:
        raise RankDeficient(f"regressor matrix is numerically rank deficient: {exc}") from exc
    beta = solution[:, 0].copy()
    inv_diag = np.diagonal(solution[:, 1:])

    # sums of squares are numpy reductions: a BLAS dot product sums in an
    # order that depends on its thread count, and so would their last bits
    with np.errstate(over="ignore", invalid="ignore"):
        fitted = X @ beta
        residuals = y - fitted
        rss = float((residuals * residuals).sum())
        y_bar = float(y.mean())
        tss = float(((y - y_bar) ** 2).sum())
        scale = max(1.0, float((y * y).sum()))
    if not (math.isfinite(rss) and math.isfinite(tss) and math.isfinite(scale)):
        raise NonFiniteValue("a sum of squares of the fit overflows a float")
    if tss <= 1e-14 * scale:
        if rss <= 1e-14 * scale:
            r_squared = 1.0
        else:
            raise ConstantResponse("response has zero variance but the fit is not exact")
    else:
        r_squared = float(((fitted - y_bar) ** 2).sum()) / tss

    sigma2 = rss / (n - p)
    with np.errstate(divide="ignore", invalid="ignore"):
        se = np.sqrt(sigma2 * np.abs(inv_diag))
        t_stats = np.where(se > 0, beta / np.where(se > 0, se, 1.0), np.sign(beta) * np.inf)
        t_stats = np.where((se == 0) & (beta == 0), 0.0, t_stats)

    return OLSFit(
        coefficients=beta,
        r_squared=r_squared,
        residual_std=math.sqrt(sigma2),
        t_statistics=t_stats,
        n_observations=n,
    )


@dataclass(frozen=True)
class GroupModel:
    """A fitted (or preset) expansion model for one group.

    :attr:`form` is "log-linear" for :data:`LOG_RESPONSE_GROUPS` (the linear
    predictor models ln of expansion), else "linear". ``variable_roles`` and
    ``coefficients`` are aligned, constant term last; an unknown role, and
    coefficients other than a 1-D vector of one finite number per role,
    are rejected at construction. ``coefficients`` is stored as a read-only
    float64 copy, so the terms :meth:`time_line` reads, derived once at
    construction, always match it. ``dropped_rows`` counts
    non-positive-expansion rows excluded before a log fit.
    """

    group: GroupLabel
    variable_roles: tuple[str, ...]
    coefficients: np.ndarray
    fit: OLSFit | None = field(default=None, compare=False)
    dropped_rows: int = field(default=0, compare=False)

    def __post_init__(self):
        coeffs = linalg.read_only_copy(self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "variable_roles", tuple(self.variable_roles))
        if coeffs.shape != (len(self.variable_roles),):
            raise DimensionMismatch(
                f"{len(self.variable_roles)} roles but {coeffs.shape[0]} coefficients"
                if coeffs.ndim == 1 else
                f"{self.group} model coefficients must be a 1-D vector, got shape {coeffs.shape}")
        if not np.isfinite(coeffs).all():
            raise NonFiniteValue(
                f"{self.group} model coefficients must be finite, got {coeffs.tolist()}")
        check_roles(self.variable_roles)
        # (is constant, field scaling t or None, coefficient) per role, in role order
        object.__setattr__(self, "_terms", tuple(
            (role == CONST_ROLE, _T_ROLES.get(role), c)
            for role, c in zip(self.variable_roles, coeffs.tolist())))

    def __reduce__(self):  # a copy is built again: read-only coefficients, its own terms
        return (GroupModel, (self.group, self.variable_roles, self.coefficients,
                             self.fit, self.dropped_rows))

    def __eq__(self, other):
        if not isinstance(other, GroupModel):
            return NotImplemented
        return (
            self.group is other.group
            and self.variable_roles == other.variable_roles
            and np.array_equal(self.coefficients, other.coefficients)
        )

    @functools.cached_property  # every prediction reads it
    def form(self) -> str:
        return "log-linear" if self.group in LOG_RESPONSE_GROUPS else "linear"

    def time_line(self, mixture: Mixture) -> tuple[float, float]:
        """Decompose the linear predictor as slope*t + intercept for one mixture.

        Every supported role is either proportional to t or constant, so
        the predictor is exactly affine in time. A slope or intercept that
        overflows a float raises :class:`PredictionOverflow`.
        """
        slope = 0.0
        intercept = 0.0
        for is_constant, name, c in self._terms:
            if is_constant:
                intercept += c
            elif name is None:
                slope += c
            else:
                value = getattr(mixture, name)
                if value is None:
                    mixture.require(name)
                slope += c * value
        if not (math.isfinite(slope) and math.isfinite(intercept)):
            raise self._overflow(mixture, f"time line {slope:.6g}*t + {intercept:.6g}")
        return slope, intercept

    def _overflow(self, mixture: Mixture, value: str) -> PredictionOverflow:
        return PredictionOverflow(
            f"mixture {mixture.id!r}: group {self.group} {value} overflows a float")

    def expansion(self, mixture: Mixture, times: np.ndarray | np.float64):
        """Expansion percent at ``times``: a numpy scalar, or a non-empty ascending array.

        Curves, point values and :meth:`failure_time` share one line
        ``slope*t + intercept`` from :meth:`time_line`, and numpy's
        elementwise arithmetic gives a point the same bits as the same time
        on a curve. Where a bound, the line's value at the first or the last
        time, is not a finite float (NaN included, as ``0 * inf`` on a grid
        whose last time overflows), or a log-linear bound exceeds ln of the
        largest float, this raises :class:`PredictionOverflow` before numpy
        computes anything.

        Past that check every value is finite. The times ascend and
        rounding is monotone, so each ``fl(fl(slope*t) + intercept)`` lies
        between the two bounds, and numpy's ``exp`` overflows only above
        ln of the largest float. :meth:`ExpansionSeries._on_grid` relies on
        this and checks no value again.
        """
        slope, intercept = self.time_line(mixture)
        first, last = (float(times[0]), float(times[-1])) if times.ndim else (float(times),) * 2
        low, high = slope * first + intercept, slope * last + intercept
        if slope < 0:
            low, high = high, low
        log = self.form == "log-linear"
        limit = _LOG_FLOAT_MAX if log else sys.float_info.max
        if not (-math.inf < low and high <= limit):  # a NaN bound fails its comparison
            bound = low if high <= limit else high
            raise self._overflow(mixture, f"expansion exp({bound:.6g})" if log
                                 else f"expansion {bound:.6g}")
        value = slope * times + intercept
        return np.exp(value) if log else value

    def failure_time(self, mixture: Mixture, threshold: float) -> float:
        """The time the expansion reaches ``threshold``, solved in closed form
        from :meth:`time_line` (through a logarithm for a log-linear model).

        Raises :class:`AlreadyFailed` when the model starts at or above the
        threshold, :class:`NonIncreasing` when the slope is not positive and
        :class:`PredictionOverflow` where the line or the time is not finite.
        """
        slope, intercept = self.time_line(mixture)
        target = math.log(threshold) if self.form == "log-linear" else threshold
        if intercept >= target:
            raise AlreadyFailed(
                f"mixture {mixture.id!r} is predicted at or beyond the threshold already at t = 0")
        if slope <= 0:
            raise NonIncreasing(f"mixture {mixture.id!r}: group {self.group} model is not "
                                f"increasing in time (slope {slope:.4g})")
        t_fail = (target - intercept) / slope
        if math.isinf(t_fail):  # a subnormal slope
            raise self._overflow(mixture, f"failure time {target - intercept:.6g} / {slope:.6g}")
        return t_fail


def _as_block(data) -> SeriesBlock:
    return data if isinstance(data, SeriesBlock) else SeriesBlock.from_pairs(data)


def design_rows(
    data: SeriesBlock | list[tuple[Mixture, ExpansionSeries]],
    roles: tuple[str, ...],
    log_response: bool,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Pool every (mixture, sample) into regressor rows and responses.

    ``data`` is a :class:`SeriesBlock` or a list of (mixture, series)
    pairs, which is read as the block of those pairs. Rows follow the
    records in order, each record's samples in time order. For a log
    response, rows whose expansion is not strictly positive are dropped
    and counted; the logarithm is undefined there. Each time-scaled column
    is the record's field value repeated once per kept sample times the
    pooled sample times, so a record's fields are read (and a missing one
    raises :class:`MissingField`) only if it keeps rows.
    """
    block = _as_block(data)
    kept = block.lengths
    times, values = block.times, block.values
    n_samples = times.size
    if log_response:
        keep = values > 0
        kept = np.bincount(np.repeat(np.arange(kept.size), kept)[keep], minlength=kept.size)
        times, values = times[keep], values[keep]
        y = np.fromiter(map(math.log, values.tolist()), dtype=float, count=values.size)
    else:
        y = values
    if not times.size:
        raise TooFewRows("no usable observations after filtering")
    check_roles(roles)
    scaled = [j for j, role in enumerate(roles) if role != CONST_ROLE]
    fields = [_T_ROLES[roles[j]] for j in scaled]
    rows = np.flatnonzero(kept)
    scales = np.ones((rows.size, len(fields)))
    named = [j for j, f in enumerate(fields) if f is not None]
    scales[:, named] = block.require([fields[j] for j in named], rows)
    X = np.ones((times.size, len(roles)))
    with np.errstate(over="ignore"):  # ols_fit rejects a regressor that overflows
        X[:, scaled] = np.repeat(scales, kept[rows], axis=0) * times[:, None]
    return X, y, n_samples - times.size


def fit_group_model(
    data: SeriesBlock | list[tuple[Mixture, ExpansionSeries]],
    group: GroupLabel,
    roles: tuple[str, ...] | None = None,
) -> GroupModel:
    """Fit one group's model on pooled rows from its member records.

    ``data`` is a :class:`SeriesBlock` or a list of (mixture, series)
    pairs. ``roles`` defaults to the group's canonical form; passing an
    explicit tuple (for data-driven variable selection) keeps the group's
    response transform but swaps the regressors.
    """
    block = _as_block(data)
    if len(block.ids) < 2:
        raise TooFewRows(f"group {group} needs >= 2 mixtures, got {len(block.ids)}")
    roles = GROUP_ROLES[group] if roles is None else tuple(roles)
    X, y, dropped = design_rows(block, roles, group in LOG_RESPONSE_GROUPS)
    fit = ols_fit(X, y)
    return GroupModel(
        group=group,
        variable_roles=roles,
        coefficients=fit.coefficients,
        fit=fit,
        dropped_rows=dropped,
    )
