"""Soft-margin linear classifier in the primal, for 2-D boundaries.

Minimizes 0.5*|beta|^2 + C * sum_i max(0, 1 - y_i*(x_i.beta + b)) over a
two-feature plane. Training is one deterministic active-set descent: each
round identifies the margin set at the current point, aims at that set's
KKT solution and takes an exact line search toward it. The objective
restricted to a ray is convex piecewise quadratic, so the line search
sorts its breakpoints once and reads the minimizer off the cumulative
jumps of the derivative. Clean multipliers certify global optimality of
this convex problem, and the result is then the KKT solution of the
certified margin set, whatever the start. Where that step cannot move
and the multipliers are not clean, the one escape is the minimum-norm
subgradient (a bounded least squares over the margin multipliers): zero
certifies the point, and otherwise its negative is the next direction.
No dual. The descent starts from the squared-hinge optimum, found by a
few finite Newton steps (Keerthi & DeCoste, JMLR 2005), or from the
origin where that system is singular.

The descent runs on the points minus their mean m. The objective does
not penalize the bias, so this is an exact change of variables: the
same weights, and the bias b' - w.m of the centered optimum b'. Far
from the origin the bias would otherwise dwarf the weights, and the
tolerances, which scale with the coordinates, would meet rounding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    NoConvergence,
    NonFiniteValue,
    OneSidedBoundary,
    SingleClass,
    SingularMatrix,
    ValidationError,
)

DEFAULT_BOX_CONSTRAINT = 100.0
#: finite Newton steps of the warm start; it ends on a repeated active set first
WARM_START_ROUNDS = 20
#: the Newton system's regularizer: the norm penalty covers beta, not the bias
_RIDGE = np.diag([1.0, 1.0, 0.0])


@dataclass(frozen=True)
class LinearBoundary:
    """An oriented line  weights . x + bias = 0  in a named 2-D plane.

    Points with positive decision value fall on the +1 side. ``weights``
    is stored as a read-only float64 copy, so a change to the array passed
    in does not reach the boundary. The weights and bias are also kept as
    Python floats, outside the fields, for :meth:`value_at`. ``slacks``
    and ``objective`` are carried along as training diagnostics and do not
    participate in equality. A ``box_constraint``, when given, must be a
    finite positive number, and ``feature_names`` must be exactly two
    strings.
    """

    feature_names: tuple[str, str]
    weights: np.ndarray
    bias: float
    box_constraint: float | None = None
    objective: float | None = field(default=None, compare=False)
    slacks: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        names = tuple(self.feature_names)
        if len(names) != 2 or not all(isinstance(name, str) for name in names):
            raise DimensionMismatch(f"boundary needs exactly two feature names, got {list(names)}")
        w = linalg.read_only_copy(self.weights).reshape(-1)
        if w.shape[0] != 2:
            raise DimensionMismatch(f"boundary weights must have 2 entries, got {w.shape[0]}")
        if w[0] == 0.0 and w[1] == 0.0:
            raise ValidationError("boundary weights must not both be zero")
        bias = float(self.bias)
        if not (np.isfinite(w).all() and math.isfinite(bias)):
            raise NonFiniteValue(
                f"boundary weights and bias must be finite, got {w.tolist()} and {bias!r}")
        if self.box_constraint is not None:
            linalg.check_positive("box constraint", self.box_constraint)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "bias", bias)
        # not a field: equality, repr, replace and pickling never see it
        object.__setattr__(self, "_terms", (*w.tolist(), bias))

    def __reduce__(self):  # a copy is built again, with read-only weights
        return (LinearBoundary, (self.feature_names, self.weights, self.bias,
                                 self.box_constraint, self.objective, self.slacks))

    def __eq__(self, other):
        if not isinstance(other, LinearBoundary):
            return NotImplemented
        return (
            self.feature_names == other.feature_names
            and np.array_equal(self.weights, other.weights)
            and self.bias == other.bias
            and self.box_constraint == other.box_constraint
        )

    def value_at(self, x0: float, x1: float) -> float:
        """The decision value at the Python floats (x0, x1) as one sum,
        ``x0 * w0 + x1 * w1 + bias``, rounded left to right.

        Each product and sum is one IEEE-754 double operation with no fused
        multiply-add and no BLAS call, so the bits are the same on every
        host and BLAS kernel.
        """
        w0, w1, bias = self._terms
        return x0 * w0 + x1 * w1 + bias

    def decision_value(self, point) -> float:
        """:meth:`value_at` for one point of the boundary's plane, given as
        any two-element array-like; it is read as float64 first."""
        point = np.asarray(point, float)
        if point.shape != (2,):
            raise DimensionMismatch(f"boundary expects one 2-D point, got shape {point.shape}")
        return self.value_at(*point.tolist())

    def equation(self) -> str:
        a, b = self.feature_names
        return f"{self.weights[0]:+.6g}*{a} {self.weights[1]:+.6g}*{b} {self.bias:+.6g} = 0"


def _margins(X, y, z):
    """y_i*(x_i.beta + b) at the point z = (beta0, beta1, b)."""
    return y * (X @ z[:2] + z[2])


def _objective(C, beta, margins):
    """The primal objective at a point with weights beta and these margins."""
    return 0.5 * float(beta @ beta) + C * float(np.maximum(0.0, 1.0 - margins).sum())


def _line_minimize(X, y, C, z, d, a):
    """Exactly minimize the objective along z + tau*d, where ``a`` holds the
    margins at z; returns (tau, objective, margins) at the minimizer.

    The restriction is convex piecewise quadratic in tau. Point i's hinge
    turns on or off at its breakpoint (1 - a_i)/c_i, where a_i and c_i are
    its margin and margin slope, and there the derivative
    q + tau*dd - C*sum_active c_i jumps up by C*|c_i|. Sorting the
    breakpoints once and summing the jumps gives the right derivative at
    every breakpoint; the first one that is non-negative bounds the
    interval holding the minimizer, which is that interval's quadratic
    vertex or its right end. numpy's default ``argsort`` orders the
    breakpoints, and where the sorted ones hold a tie they are sorted again
    with ``kind="stable"``: the permutation is always the stable one, so
    tied jumps sum in index order whatever sort kernel the CPU runs.
    """
    d_beta = d[:2]
    c = y * (X @ d_beta + d[2])         # margin slopes
    dd = float(d_beta @ d_beta)
    nz = c != 0.0
    unsorted = (1.0 - a[nz]) / c[nz]
    order = np.argsort(unsorted)
    breaks = unsorted[order]
    if (breaks[1:] == breaks[:-1]).any():
        order = np.argsort(unsorted, kind="stable")
        breaks = unsorted[order]
    # offsets[j] is the derivative minus tau*dd on the interval just left of
    # breaks[j] (the last one: right of every breakpoint); left of all
    # breakpoints exactly the points with c_i > 0 are active
    q0 = float(z[:2] @ d_beta) - C * float(c[c > 0].sum())
    offsets = q0 + np.concatenate(([0.0], np.cumsum(C * np.abs(c[nz][order]))))
    k = int(np.searchsorted(offsets[1:] + breaks * dd, 0.0))
    if dd > 0:
        tau = -offsets[k] / dd
        if k < breaks.size:
            tau = min(tau, float(breaks[k]))
    elif k + 1 < breaks.size and offsets[k + 1] == 0.0:
        # a bias-only ray whose objective is flat between two breakpoints:
        # at either edge rounding leaves a hinge of about C*eps switched on
        tau = 0.5 * (float(breaks[k]) + float(breaks[k + 1]))
    else:
        tau = float(breaks[min(k, breaks.size - 1)]) if breaks.size else 0.0
    zz = z + tau * d
    margins = _margins(X, y, zz)
    return tau, _objective(C, zz[:2], margins), margins


def _kkt_solve(X, y, C, on_margin, violating):
    """Solve the equality-constrained problem for a margin-set guess.

    Points in ``violating`` contribute full weight C; points in
    ``on_margin`` sit exactly at unit margin with multipliers to be
    determined. Returns the solution point (beta0, beta1, b) and the
    margin points' multipliers (a list), in index order.

    The system [[G, y], [y^T, 0]] has one row per margin point, at most
    four in all, so it is built and solved in Python floats
    (:func:`linalg._solve_small`); only the violators' sum is a numpy
    reduction. A product that overflows raises :class:`FloatingPointError`,
    as numpy does under the descent's ``errstate``.
    """
    y_v = y[violating]
    v0, v1 = (C * (y_v[:, None] * X[violating]).sum(axis=0)).tolist()
    idx = np.flatnonzero(on_margin)
    # (y_i*x_i0, y_i*x_i1, y_i) of each margin point
    rows = [(yi * x0, yi * x1, yi) for (x0, x1), yi in zip(X[idx].tolist(), y[idx].tolist())]
    M = [[p0 * q0 + p1 * q1 for q0, q1, _ in rows] + [yp] for p0, p1, yp in rows]
    M.append([yq for _, _, yq in rows] + [0.0])
    rhs = [1.0 - (p0 * v0 + p1 * v1) for p0, p1, _ in rows] + [-C * float(y_v.sum())]
    if not all(map(math.isfinite, itertools.chain(rhs, *M))):
        raise FloatingPointError("overflow encountered in the KKT system")
    *mu, b = linalg._solve_small(M, rhs)
    s0 = s1 = 0.0
    for m, (p0, p1, _) in zip(mu, rows):
        s0 += m * p0
        s1 += m * p1
    beta0, beta1 = v0 + s0, v1 + s1
    if not (math.isfinite(beta0) and math.isfinite(beta1)):
        raise FloatingPointError("overflow encountered in the KKT system")
    return np.array([beta0, beta1, b]), mu


def _bounded_lsq(A, b, C):
    """Minimize |A x - b| over the box 0 <= x <= C; returns x.

    Bounded-variable least squares (Stark & Parker, Comput. Stat. 1995;
    Lawson & Hanson 1974, ch. 23). From x = 0, each of at most 10e steps
    frees the bound variable whose gradient points furthest into the box
    and solves the free variables' least squares; while that solution
    leaves the box, x walks toward it up to the first bound crossed, and
    the variables that reach a bound are fixed. A step is kept only if it
    lowers the residual, else its variable is passed over until x moves.
    """
    e = A.shape[1]
    x = np.zeros(e)
    free = np.zeros(e, dtype=bool)
    passed = np.zeros(e, dtype=bool)
    r = b - A @ x
    col_norms = np.sqrt((A * A).sum(axis=0))
    for _ in range(10 * e):
        w = A.T @ r  # minus the gradient of 0.5*|A x - b|^2
        inward = np.where(x == 0.0, w, -w)
        # below rounding noise, freeing a variable cannot lower the residual
        inward[free | passed | (inward <= 1e-12 * col_norms * float(np.linalg.norm(r)))] = 0.0
        t = int(np.argmax(inward))
        if inward[t] <= 0.0:
            break
        xt, ft = x.copy(), free.copy()
        ft[t] = True
        while ft.any():
            F = np.flatnonzero(ft)
            sol = np.linalg.lstsq(A[:, F], b - A[:, ~ft] @ xt[~ft], rcond=None)[0]
            outside = (sol <= 0.0) | (sol >= C)
            if not outside.any():
                xt[F] = sol
                break
            bound = np.where(sol <= 0.0, 0.0, C)
            span = sol - xt[F]
            step = np.divide(bound - xt[F], span, out=np.zeros(F.size), where=span != 0.0)
            step[~outside] = np.inf
            hit = step <= step.min()
            xt[F] += step.min() * span
            xt[F[hit]] = bound[hit]
            ft[F[hit]] = False
        rt = b - A @ xt
        if float(rt @ rt) < float(r @ r):
            x, free, r = xt, ft, rt
            passed[:] = False
        else:
            passed[t] = True
    return x


def _min_norm_subgradient(X, y, C, z, on_margin, violating):
    """The shortest subgradient of the objective at z.

    Each violating point adds -C*y_i*(x_i, 1) to (beta, 0), each margin
    point -mu_i*y_i*(x_i, 1) with mu_i in [0, C]; the shortest sum is one
    bounded least squares over those mu. It is zero at an optimum, and
    otherwise its negative is the steepest-descent direction.
    """
    g = np.empty(3)
    g[:2] = z[:2] - C * (y[violating, None] * X[violating]).sum(axis=0)
    g[2] = -C * float(y[violating].sum())
    if not on_margin.any():
        return g
    A = y[on_margin] * np.vstack([X[on_margin].T, np.ones(int(on_margin.sum()))])
    return g - A @ _bounded_lsq(A, g, C)


def _margin_sets(margins):
    """The margin set and the violators, as masks over these margins: the
    points whose margin is 1, and below 1, within 1e-7 of the largest margin."""
    tol_id = 1e-7 * (1.0 + float(np.abs(margins).max(initial=0.0)))
    return np.abs(1.0 - margins) <= tol_id, margins < 1.0 - tol_id


def _polish(X, y, C, z, max_rounds=300):
    """Descending active-set refinement to the exact optimum.

    Each round identifies the margin set at the current point, targets the
    KKT solution of that partition and takes an exact line search toward
    it, so the objective strictly decreases. When the current point
    already solves its partition's system, clean multipliers certify global
    optimality, and the partition's KKT solution is returned.
    [[G, y], [y^T, 0]] has rank at most 4 (G = (yX)(yX)^T has rank at
    most 2), so only one to three margin points are solved for.
    Otherwise (no such system, a step that cannot move, multipliers that
    are not clean) the minimum-norm subgradient is the one escape: one of
    at most 1e-10 times the gradient scale certifies the point, and a
    longer one's negative is the next direction; such a point is where the
    path stopped within that tolerance. Returns (point, certificate), the
    certificate being "kkt" (clean multipliers), "subgradient" or None.
    """
    margins = _margins(X, y, z)
    obj = _objective(C, z[:2], margins)
    kkt_tol = 1e-9 * (1.0 + C)

    def try_direction(d):
        nonlocal z, obj, margins
        norm = float(np.linalg.norm(d))
        if norm == 0.0:
            return False
        tau, new_obj, new_margins = _line_minimize(X, y, C, z, d / norm, margins)
        if new_obj < obj - 1e-15 * (1.0 + abs(obj)):
            z = z + tau * (d / norm)
            obj, margins = new_obj, new_margins
            return True
        return False

    grad_scale = 1.0 + C * float(np.abs(X).sum() + len(y))
    for _ in range(max_rounds):
        on_margin, violating = _margin_sets(margins)
        if 1 <= on_margin.sum() <= 3:
            try:
                z_c, mu = _kkt_solve(X, y, C, on_margin, violating)
            except SingularMatrix:
                pass
            else:
                if try_direction(z_c - z):
                    continue
                # the current point is (numerically) this partition's own solution
                if min(mu) >= -kkt_tol and max(mu) <= C + kkt_tol:
                    return z_c, "kkt"
        g = _min_norm_subgradient(X, y, C, z, on_margin, violating)
        if float(np.linalg.norm(g)) <= 1e-10 * grad_scale:
            return z, "subgradient"
        if not try_direction(-g):
            return z, None
    return z, None


def _warm_start(X, y, C):
    """A start near the optimum: the minimizer of the squared-hinge objective
    0.5*|beta|^2 + 0.5*C*sum_i max(0, 1 - y_i*(x_i.beta + b))^2.

    Finite Newton (Keerthi & DeCoste, JMLR 2005): from the origin, each
    step solves (diag(1, 1, 0) + C*A_act^T A_act) z = C*sum_act a_i over
    the rows a_i = y_i*(x_i, 1) with margin below 1, until the active set
    repeats, at most :data:`WARM_START_ROUNDS` times. Only the start
    depends on it, as the descent certifies its own optimum; a singular or
    overflowing system, or a non-finite result, gives the origin.
    """
    A = y[:, None] * np.column_stack([X, np.ones(y.size)])
    z = np.zeros(3)
    active = None
    try:
        with np.errstate(over="raise", invalid="raise"):
            for _ in range(WARM_START_ROUNDS):
                now = A @ z < 1.0
                if active is not None and np.array_equal(now, active):
                    break
                active = now
                rows = A[active]
                z = np.linalg.solve(_RIDGE + C * (rows.T @ rows), C * rows.sum(axis=0))
    except (np.linalg.LinAlgError, FloatingPointError):
        return np.zeros(3)
    return z if np.isfinite(z).all() else np.zeros(3)


def _labeled_points(points, labels) -> tuple[np.ndarray, np.ndarray]:
    """Check finite (n, 2) points with one +1/-1 label each; return both as arrays."""
    X = linalg.check_finite(points, "points")
    if X.ndim != 2 or X.shape[1] != 2:
        raise DimensionMismatch("points must be an (n, 2) array")
    y = np.asarray(labels, dtype=float).reshape(-1)
    if y.shape[0] != X.shape[0]:
        raise DimensionMismatch("one label per point required")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValidationError("labels must be +1 or -1")
    return X, y


def svm_train(
    points,
    labels,
    C: float = DEFAULT_BOX_CONSTRAINT,
    feature_names: tuple[str, str] = ("x0", "x1"),
) -> LinearBoundary:
    """Train the soft-margin boundary on labeled 2-D points.

    ``labels`` must contain both +1 and -1. Training is deterministic: one
    exact active-set descent from the squared-hinge optimum, on the points
    minus their mean m. The boundary is mapped back to the raw plane, its
    bias as ``b' - (w0*m0 + w1*m1)`` in Python floats. The result carries
    the primal objective and per-point slack values, both read off the
    descent's own margins on the centered points; the one-sided test reads
    the signs of the same margins.
    Raises :class:`NonFiniteValue` when the descent overflows a float,
    :class:`NoConvergence` when it certified no optimum, and
    :class:`OneSidedBoundary` when the certified optimum puts every point
    on one side, a boundary that separates nothing.
    """
    X, y = _labeled_points(points, labels)
    if np.all(y == y[0]):
        raise SingleClass("training data contains a single class")
    linalg.check_positive("box constraint", C)

    try:
        with np.errstate(over="raise", invalid="raise"):
            m = X.mean(axis=0)
            centered = X - m
            z, certificate = _polish(centered, y, C, _warm_start(centered, y, C))
            margins = _margins(centered, y, z)
    except FloatingPointError as exc:
        raise NonFiniteValue(f"svm training on these points overflows a float ({exc})") from None
    beta = z[:2]
    objective = _objective(C, beta, margins)
    if not certificate:
        raise NoConvergence("svm training certified no optimum", objective=objective)
    positive = y * margins >= 0     # the decision values' signs
    if positive.all() or not positive.any():
        n_pos = int((y > 0).sum())
        raise OneSidedBoundary(
            f"the optimal boundary in the ({feature_names[0]}, {feature_names[1]}) plane puts "
            f"all {y.size} points on its {'+1' if positive[0] else '-1'} side "
            f"({n_pos} labelled +1, {y.size - n_pos} labelled -1)")
    (w0, w1, b), (m0, m1) = z.tolist(), m.tolist()
    return LinearBoundary(
        feature_names=feature_names,
        weights=beta,
        bias=b - (w0 * m0 + w1 * m1),
        box_constraint=C,
        objective=objective,
        slacks=np.maximum(0.0, 1.0 - margins),
    )


def simplify_axis_parallel(boundary: LinearBoundary, points, labels) -> LinearBoundary:
    """Replace a near-vertical boundary by a threshold on its dominant axis.

    The threshold minimizes training misclassifications under the rule
    "predict +1 beyond the threshold" (oriented by the sign of the dominant
    weight). Ties prefer the midpoint of the narrowest gap between
    opposing-class points, then the smallest threshold. A boundary that is
    already axis-parallel is returned unchanged.
    """
    X, y = _labeled_points(points, labels)

    if boundary.weights[0] == 0.0 or boundary.weights[1] == 0.0:
        return boundary
    # dominant axis by decision influence: weight times the feature's spread
    spreads = X.std(axis=0)
    spreads = np.where(spreads > 0, spreads, 1.0)
    axis = int(np.argmax(np.abs(boundary.weights) * spreads))
    orient = 1.0 if boundary.weights[axis] > 0 else -1.0

    v = X[:, axis]
    u, inverse = np.unique(v, return_inverse=True)
    thetas = np.concatenate(([u[0] - 1.0], (u[:-1] + u[1:]) / 2.0, [u[-1] + 1.0]))

    # errors at every candidate from the sorted values of each class
    positive = y > 0
    pos_sorted, neg_sorted = np.sort(v[positive]), np.sort(v[~positive])
    side = "left" if orient > 0 else "right"
    pos_below = np.searchsorted(pos_sorted, thetas, side)
    neg_below = np.searchsorted(neg_sorted, thetas, side)
    if orient > 0:   # predict +1 where v >= theta
        err = pos_below + (neg_sorted.size - neg_below)
    else:            # predict +1 where v <= theta
        err = (pos_sorted.size - pos_below) + neg_below

    # a pair of opposite-class points faces each other across an interior gap
    has_pos = np.bincount(inverse[positive], minlength=u.size) > 0
    has_neg = np.bincount(inverse[~positive], minlength=u.size) > 0
    opposing = np.zeros(thetas.size, dtype=bool)
    opposing[1:-1] = (has_pos[:-1] | has_pos[1:]) & (has_neg[:-1] | has_neg[1:])
    gaps = np.full(thetas.size, np.inf)
    gaps[1:-1] = u[1:] - u[:-1]
    # lexicographic minimum of (errors, not opposing, gap, threshold)
    theta = float(thetas[np.lexsort((thetas, gaps, ~opposing, err))[0]])

    weights = np.zeros(2)
    weights[axis] = orient
    return LinearBoundary(
        feature_names=boundary.feature_names,
        weights=weights,
        bias=-orient * theta,
        box_constraint=boundary.box_constraint,
    )
