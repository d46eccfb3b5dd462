"""Soft-margin linear classifier in the primal, for 2-D boundaries.

Minimizes 0.5*|beta|^2 + C * sum_i max(0, 1 - y_i*(x_i.beta + b)) over a
two-feature plane. Training is one deterministic active-set descent from
the origin: each round identifies the margin set at the current point,
aims at that set's KKT solution and takes an exact line search toward it.
The objective restricted to a ray is convex piecewise quadratic, so the
line search sorts its breakpoints once and reads the minimizer off the
cumulative jumps of the derivative (Keerthi & DeCoste, JMLR 2005). Clean
multipliers certify global optimality of this convex problem, and the
result is then the KKT solution of the certified margin set. Where that
step cannot move, the one fallback is the minimum-norm subgradient (a
bounded least squares over the margin multipliers): zero certifies the
point, and otherwise its negative is the next direction. No dual.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class LinearBoundary:
    """An oriented line  weights . x + bias = 0  in a named 2-D plane.

    Points with positive decision value fall on the +1 side. ``weights``
    is stored as a read-only float64 copy, so a change to the array passed
    in does not reach the boundary. ``slacks`` and ``objective`` are
    carried along as training diagnostics and do not participate in
    equality. A ``box_constraint``, when given, must be a finite positive
    number, and ``feature_names`` must be exactly two strings.
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

    def decision_value(self, point) -> float:
        """``point @ weights + bias`` for one point of the boundary's plane."""
        point = np.asarray(point, float)
        if point.shape != (2,):
            raise DimensionMismatch(f"boundary expects one 2-D point, got shape {point.shape}")
        return float(point @ self.weights + self.bias)

    def equation(self) -> str:
        a, b = self.feature_names
        return f"{self.weights[0]:+.6g}*{a} {self.weights[1]:+.6g}*{b} {self.bias:+.6g} = 0"


def _primal_objective(X, y, C, beta, b):
    margins = y * (X @ beta + b)
    return 0.5 * float(beta @ beta) + C * float(np.maximum(0.0, 1.0 - margins).sum())


def _line_minimize(X, y, C, z, d):
    """Exactly minimize the objective along z + tau*d; returns (tau, objective).

    The restriction is convex piecewise quadratic in tau. Point i's hinge
    turns on or off at its breakpoint (1 - a_i)/c_i, where a_i and c_i are
    its margin and margin slope, and there the derivative
    q + tau*dd - C*sum_active c_i jumps up by C*|c_i|. Sorting the
    breakpoints once and summing the jumps gives the right derivative at
    every breakpoint; the first one that is non-negative bounds the
    interval holding the minimizer, which is that interval's quadratic
    vertex or its right end.
    """
    d_beta = d[:2]
    a = y * (X @ z[:2] + z[2])          # margins at tau = 0
    c = y * (X @ d_beta + d[2])         # margin slopes
    dd = float(d_beta @ d_beta)
    nz = c != 0.0
    breaks = (1.0 - a[nz]) / c[nz]
    order = np.argsort(breaks, kind="stable")
    breaks = breaks[order]
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
    return tau, _primal_objective(X, y, C, zz[:2], zz[2])


def _kkt_solve(X, y, C, on_margin, violating):
    """Solve the equality-constrained problem for a margin-set guess.

    Points in ``violating`` contribute full weight C; points in
    ``on_margin`` sit exactly at unit margin with multipliers to be
    determined. Returns the solution point (beta0, beta1, b), the
    multipliers and the indices of the margin points they belong to.
    """
    v_c = C * (y[violating, None] * X[violating]).sum(axis=0)
    rhs_balance = -C * float(y[violating].sum())
    idx = np.nonzero(on_margin)[0]
    e = idx.size
    if e == 0:
        raise SingularMatrix("empty margin set")
    Xe = X[idx]
    ye = y[idx]
    G = (ye[:, None] * Xe) @ (ye[:, None] * Xe).T
    M = np.zeros((e + 1, e + 1))
    M[:e, :e] = G
    M[:e, e] = ye
    M[e, :e] = ye
    rhs = np.empty(e + 1)
    rhs[:e] = 1.0 - ye * (Xe @ v_c)
    rhs[e] = rhs_balance
    sol = linalg.solve_symmetric(M, rhs)
    mu = sol[:e]
    b = float(sol[e])
    beta = v_c + ((mu * ye)[:, None] * Xe).sum(axis=0)
    return np.array([beta[0], beta[1], b]), mu, idx


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
    A = y[on_margin] * np.vstack([X[on_margin].T, np.ones(int(on_margin.sum()))])
    return g - A @ _bounded_lsq(A, g, C)


def _polish(X, y, C, z, max_rounds=300):
    """Descending active-set refinement to the exact optimum.

    Each round identifies the margin set at the current point, targets the
    KKT solution of that partition and takes an exact line search toward
    it, so the objective strictly decreases. When the current point
    already solves its partition's system, a negative (or above-C)
    multiplier names the constraint to release, which is the classical
    escape from a non-optimal vertex; clean multipliers certify global
    optimality, and the partition's KKT solution is returned, so the
    answer depends on the certified margin set and not on the path that
    found it. [[G, y], [y^T, 0]] has rank at most 4 (G = (yX)(yX)^T has
    rank at most 2), so only one to three margin points are solved for.
    Otherwise, or when that step cannot move, a minimum-norm subgradient
    of at most 1e-10 times the gradient scale certifies the point, and a
    longer one's negative is the next direction. Returns (point, certified).
    """
    obj = _primal_objective(X, y, C, z[:2], z[2])
    kkt_tol = 1e-9 * (1.0 + C)

    def try_direction(d):
        nonlocal z, obj
        norm = float(np.linalg.norm(d))
        if norm == 0.0:
            return False
        tau, new_obj = _line_minimize(X, y, C, z, d / norm)
        if new_obj < obj - 1e-15 * (1.0 + abs(obj)):
            z = z + tau * (d / norm)
            obj = new_obj
            return True
        return False

    grad_scale = 1.0 + C * float(np.abs(X).sum() + len(y))
    for _ in range(max_rounds):
        margins = y * (X @ z[:2] + z[2])
        tol_id = 1e-7 * (1.0 + float(np.abs(margins).max(initial=0.0)))
        on_margin = np.abs(1.0 - margins) <= tol_id
        violating = margins < 1.0 - tol_id

        moved = False
        if 1 <= on_margin.sum() <= 3:
            try:
                z_c, mu, idx = _kkt_solve(X, y, C, on_margin, violating)
                moved = try_direction(z_c - z)
                if not moved:
                    # the current point is (numerically) this partition's own
                    # solution; the multipliers decide what happens next
                    low, high = float(mu.min()), float(mu.max())
                    if low >= -kkt_tol and high <= C + kkt_tol:
                        return z_c, True
                    # release the worst-priced margin constraint
                    released = on_margin.copy()
                    viol = violating.copy()
                    if -low >= high - C:
                        released[idx[int(np.argmin(mu))]] = False
                    else:
                        j = idx[int(np.argmax(mu))]
                        released[j] = False
                        viol[j] = True
                    if released.any():
                        z_c2, _, _ = _kkt_solve(X, y, C, released, viol)
                        moved = try_direction(z_c2 - z)
            except SingularMatrix:
                pass
        if not moved:
            g = _min_norm_subgradient(X, y, C, z, on_margin, violating)
            if float(np.linalg.norm(g)) <= 1e-10 * grad_scale:
                return z, True
            if not try_direction(-g):
                return z, False
    return z, False


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

    ``labels`` must contain both +1 and -1. Training is deterministic: an
    exact active-set descent from the origin. The result carries the
    primal objective and per-point slack values. Raises
    :class:`NoConvergence` when the descent certified no optimum, and
    :class:`OneSidedBoundary` when the certified optimum puts every point
    on one side, a boundary that separates nothing.
    """
    X, y = _labeled_points(points, labels)
    if np.all(y == y[0]):
        raise SingleClass("training data contains a single class")
    linalg.check_positive("box constraint", C)

    z, clean = _polish(X, y, C, np.zeros(3))
    beta, b = z[:2], float(z[2])
    if not clean:
        raise NoConvergence(
            "svm training certified no optimum",
            objective=_primal_objective(X, y, C, beta, b),
        )

    decision = X @ beta + b
    positive = decision >= 0
    if positive.all() or not positive.any():
        n_pos = int((y > 0).sum())
        raise OneSidedBoundary(
            f"the optimal boundary in the ({feature_names[0]}, {feature_names[1]}) plane puts "
            f"all {y.size} points on its {'+1' if positive[0] else '-1'} side "
            f"({n_pos} labelled +1, {y.size - n_pos} labelled -1)")
    slacks = np.maximum(0.0, 1.0 - y * decision)
    return LinearBoundary(
        feature_names=feature_names,
        weights=beta,
        bias=b,
        box_constraint=C,
        objective=_primal_objective(X, y, C, beta, b),
        slacks=slacks,
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
