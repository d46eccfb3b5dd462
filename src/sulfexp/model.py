"""The deployable expansion model: classify, predict, refit, validate.

A :class:`ModelBundle` packages one regression model per expansion-pattern
group with the two mixture-space boundaries that route a mixture to its
group: the first separates HN from the rest in the (C3A, W/C) plane, the
second separates ML from LL in the (C3S, W/C) plane. The package ships a
default bundle carrying the reference coefficients, and
:func:`fit_pipeline` rebuilds everything from raw expansion records.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from . import clustering, curves, linalg, pca, regression, svm
from .curves import DEFAULT_ALPHA, DEFAULT_THRESHOLD, ExpansionSeries, SeriesBlock
from .errors import (
    AlreadyFailed,
    EmptyGroup,
    NegativeTime,
    NonIncreasing,
    PredictionOverflow,
    SulfexpError,
    ValidationError,
)
from .mixtures import MIXTURE_FIELDS, GroupLabel, Mixture
from .regression import GroupModel
from .svm import LinearBoundary

DEFAULT_SEED = 42
PROVENANCE_DEFAULT = "default"
PROVENANCE_FITTED = "fitted"

#: scheme of :func:`dataset_hash`, named in every fingerprint it returns
DATASET_HASH_SCHEME = "b2"
_DATASET_HASH_TAG = f"sulfexp-dataset-{DATASET_HASH_SCHEME}".encode()

#: most points a predicted curve's time grid may hold
MAX_CURVE_POINTS = 100_000

#: order in which ascending mean failure time maps onto group labels
LABELS_BY_FAILURE_TIME = (GroupLabel.HN, GroupLabel.ML, GroupLabel.LL)


#: the planes the paper draws its boundaries in: HN vs. the rest, then ML vs. LL
FIRST_AXES = ("c3a", "wc")
SECOND_AXES = ("c3s", "wc")


@dataclass(frozen=True)
class PipelineConfig:
    """The settings of :func:`fit_pipeline`, one per ``sulfexp fit`` flag.

    Defaults match the shipped model. The boundary planes
    (:data:`FIRST_AXES`, :data:`SECOND_AXES`) and the screening rule (the
    top :data:`pca.DEFAULT_COMPONENTS` components of the standardized
    proportions) are fixed by the method, not settings. Construction
    rejects a setting that a stage would reject, with that stage's
    message, so a fit fails before it smooths anything.
    """

    alpha: float = DEFAULT_ALPHA
    k: int = 3
    box_constraint: float = svm.DEFAULT_BOX_CONSTRAINT
    seed: int = DEFAULT_SEED
    threshold: float = DEFAULT_THRESHOLD
    standardize_features: bool = True
    smooth_for_clustering: bool = True
    data_driven_variables: bool = False

    def __post_init__(self):
        clustering.check_integer("k", self.k)
        if not 1 <= self.k <= len(LABELS_BY_FAILURE_TIME):
            raise ValidationError(f"k must be between 1 and {len(LABELS_BY_FAILURE_TIME)}")
        clustering.check_settings(self.k, self.seed)
        curves.check_alpha(self.alpha)
        linalg.check_positive("failure_threshold", self.threshold)
        linalg.check_positive("box constraint", self.box_constraint)


@dataclass(frozen=True)
class PipelineDiagnostics:
    """Fit-time byproducts that are useful for reports but not for prediction."""

    assignments: dict[str, GroupLabel]
    cluster_sizes: dict[GroupLabel, int]
    feature_means: np.ndarray | None
    feature_scales: np.ndarray | None
    mean_failure_times: dict[GroupLabel, float]
    pca_selected: dict[GroupLabel, list[pca.SelectedVariable]]
    kmeans_objective: float
    kmeans_restart_iterations: tuple[int, ...]   # every k-means restart's, in restart order
    kmeans_restart_converged: tuple[bool, ...]


@dataclass(frozen=True)
class ModelBundle:
    """Three group models plus the classification boundaries.

    A bundle without the boundaries to route by (a fit of fewer than three
    groups) is :attr:`partial`. Diagnostics never participate in equality
    or serialization. Construction rejects a ``failure_threshold`` that is
    not a finite positive real number (a bool included), a model stored
    under another group's key, a boundary on a name outside
    :data:`MIXTURE_FIELDS` and a ``boundary_first_simplified`` that is not
    axis-parallel (two non-zero weights). Every boundary weight and model
    coefficient array is read-only, so the routing rule of
    :func:`classify_mixture` is derived once, at construction.
    """

    models: Mapping[GroupLabel, GroupModel]
    boundary_first: LinearBoundary | None
    boundary_first_simplified: LinearBoundary | None
    boundary_second: LinearBoundary | None
    provenance: str
    failure_threshold: float = DEFAULT_THRESHOLD
    diagnostics: PipelineDiagnostics | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        linalg.check_positive("failure_threshold", self.failure_threshold)
        for label, model in self.models.items():
            if model.group is not label:
                raise ValidationError(f"the model stored under {label} is for group {model.group}")
        for name in ("boundary_first", "boundary_first_simplified", "boundary_second"):
            boundary = getattr(self, name)
            for axis in boundary.feature_names if boundary is not None else ():
                if axis not in MIXTURE_FIELDS:
                    raise ValidationError(f"{name}: unknown mixture field {axis!r}")
        simplified = self.boundary_first_simplified
        if simplified is not None and np.count_nonzero(simplified.weights) != 1:
            raise ValidationError(
                f"the simplified first boundary must be axis-parallel, got weights "
                f"{simplified.weights.tolist()}")
        unroutable = self.boundary_second is None or (
            self.boundary_first is None and simplified is None)
        # not a field: equality, repr and serialization never see it
        object.__setattr__(self, "_route", None if unroutable else _Route(
            simplified, self.boundary_first, self.boundary_second))

    @property
    def partial(self) -> bool:
        """True when the bundle has no boundaries to route a mixture by."""
        return self._route is None

    def model_for(self, group: GroupLabel) -> GroupModel:
        model = self.models.get(group)
        if model is None:
            raise ValidationError(f"bundle has no model for group {group}")
        return model


class _Route:
    """The routing rule of :func:`classify_mixture` for one bundle.

    The HN test is the simplified first boundary's threshold on its one
    non-zero axis, oriented by that weight's sign, or else the raw first
    boundary; the second boundary splits the rest.
    """

    __slots__ = ("hn_field", "hn_threshold", "hn_above", "first", "second")

    def __init__(self, simplified: LinearBoundary | None, first: LinearBoundary | None,
                 second: LinearBoundary):
        self.hn_field = None
        if simplified is not None:
            axis = int(np.flatnonzero(simplified.weights)[0])
            weight = float(simplified.weights[axis])
            self.hn_field = simplified.feature_names[axis]
            self.hn_threshold = -simplified.bias / weight
            self.hn_above = weight > 0
        self.first = first
        self.second = second

    def __call__(self, mix: Mixture) -> GroupLabel:
        if self.hn_field is not None:
            value = mix.require(self.hn_field)[0]
            is_hn = value > self.hn_threshold if self.hn_above else value < self.hn_threshold
        else:
            is_hn = self.first.decision_value(mix.require(*self.first.feature_names)) >= 0
        if is_hn:
            return GroupLabel.HN
        second = self.second
        if second.decision_value(mix.require(*second.feature_names)) >= 0:
            return GroupLabel.ML
        return GroupLabel.LL


def _build_default_bundle() -> ModelBundle:
    models = {
        GroupLabel.LL: GroupModel(
            group=GroupLabel.LL,
            variable_roles=("WC*T", "const"),
            coefficients=[0.0157, 0.0305],
        ),
        GroupLabel.ML: GroupModel(
            group=GroupLabel.ML,
            variable_roles=("WC*T", "C3A*T", "const"),
            coefficients=[0.0293, 0.000975, 0.0216],
        ),
        GroupLabel.HN: GroupModel(
            group=GroupLabel.HN,
            variable_roles=("CC*T", "T", "const"),
            coefficients=[11.20, -5.68, -3.66],
        ),
    }
    return ModelBundle(
        models=MappingProxyType(models),
        boundary_first=LinearBoundary(
            feature_names=FIRST_AXES, weights=[1.0, 1.241], bias=-8.697,
            box_constraint=100.0,
        ),
        boundary_first_simplified=LinearBoundary(
            feature_names=FIRST_AXES, weights=[1.0, 0.0], bias=-8.00,
            box_constraint=100.0,
        ),
        boundary_second=LinearBoundary(
            feature_names=SECOND_AXES, weights=[1.0, 387.3], bias=-233.6,
            box_constraint=100.0,
        ),
        provenance=PROVENANCE_DEFAULT,
    )


#: built once; its mapping and arrays are read-only, so every caller can share it
_DEFAULT_BUNDLE = _build_default_bundle()


def default_bundle() -> ModelBundle:
    """The shipped model with the reference coefficients.

    Group models: LL expansion 0.0157*(WC*T) + 0.0305, ML expansion
    0.0293*(WC*T) + 0.000975*(C3A*T) + 0.0216, HN ln(expansion)
    11.20*(CC*T) - 5.68*T - 3.66. First boundary C3A + 1.241*WC - 8.697
    (simplified: C3A = 8.00), second boundary C3S + 387.3*WC - 233.6.

    Every call returns the same read-only instance: its ``models`` mapping
    rejects writes, and its coefficient and weight arrays, like those of
    every bundle, are read-only. Derive a variant with
    ``dataclasses.replace``.
    """
    return _DEFAULT_BUNDLE


def classify_mixture(mix: Mixture, bundle: ModelBundle | None = None) -> GroupLabel:
    """Route a mixture to its expansion-pattern group from its proportions.

    HN is decided by the bundle's simplified first boundary when it has
    one, as the strict threshold (c3a > 8 for the shipped bundle), and
    otherwise by the raw first boundary, where a decision value of exactly
    zero counts as HN. To route by the raw boundary, pass
    ``dataclasses.replace(bundle, boundary_first_simplified=None)``.
    Non-HN mixtures go to ML when the second boundary's decision value is
    >= 0, else LL. The simplified threshold is ``-bias / weight`` on the
    boundary's one non-zero axis, and a negative weight turns the test
    into ``value < threshold``. Each bundle derives this rule once, at
    construction. A partial bundle raises :class:`ValidationError`.
    """
    if bundle is None:
        bundle = _DEFAULT_BUNDLE
    route = bundle._route
    if route is None:
        raise ValidationError("bundle has no classification boundaries (partial bundle)")
    return route(mix)


#: largest log-linear predictor whose exponential is a finite float
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _evaluate(model: GroupModel, mix: Mixture, times: np.ndarray | np.float64):
    """A group model's expansion at ``times`` (an array, or one numpy scalar).

    Every prediction goes through here, so curves, point values and the
    closed-form failure time share one line ``slope*t + intercept`` from
    :meth:`GroupModel.time_line`, and numpy's elementwise arithmetic gives
    a point the same bits as the same time on a curve. Raises
    :class:`PredictionOverflow` where a log-linear prediction exceeds the
    largest float.
    """
    slope, intercept = model.time_line(mix)
    value = slope * times + intercept
    if model.form == "linear":
        return value
    peak = value.max() if value.ndim else value
    if peak > _LOG_FLOAT_MAX:
        raise PredictionOverflow(
            f"mixture {mix.id!r}: group {model.group} expansion exp({peak:.6g}) "
            f"overflows a float"
        )
    return np.exp(value)


def predict_expansion(
    mix: Mixture,
    group: GroupLabel,
    bundle: ModelBundle | None = None,
    t: float = 0.0,
) -> float:
    """Expansion percent of a mixture at time t under its group's model.

    Raises :class:`NegativeTime` for ``t < 0`` and
    :class:`ValidationError` for a NaN or infinite ``t``.
    """
    if t < 0:
        raise NegativeTime(f"time must be >= 0, got {t}")
    if not math.isfinite(t):
        raise ValidationError(f"time must be finite, got {t}")
    if bundle is None:
        bundle = _DEFAULT_BUNDLE
    return float(_evaluate(bundle.model_for(group), mix, np.float64(t)))


def check_grid(horizon: float, step: float) -> None:
    """Reject a prediction grid that is not positive and finite, or that
    would hold more than :data:`MAX_CURVE_POINTS` points (a step longer
    than the horizon counts as the horizon)."""
    if not (math.isfinite(horizon) and math.isfinite(step) and horizon > 0 and step > 0):
        raise ValidationError(
            f"horizon and step must both be positive and finite, got {horizon} and {step}"
        )
    step = min(step, horizon)
    if horizon / step + 1 > MAX_CURVE_POINTS:
        raise ValidationError(
            f"a horizon of {horizon:g} at step {step:g} needs more than "
            f"{MAX_CURVE_POINTS} grid points"
        )


def predict_curve(
    mix: Mixture,
    bundle: ModelBundle | None = None,
    horizon: float = 40.0,
    step: float = 1.0,
) -> ExpansionSeries:
    """Classify, then sample the predicted curve on the grid 0, step, ... <= horizon.

    :func:`check_grid` checks the grid before anything is allocated.
    """
    check_grid(horizon, step)
    step = min(step, horizon)
    if bundle is None:
        bundle = _DEFAULT_BUNDLE
    group = classify_mixture(mix, bundle)
    n_steps = int(math.floor(horizon / step + 1e-9))
    times = np.arange(n_steps + 1, dtype=float) * step
    values = _evaluate(bundle.model_for(group), mix, times)
    return ExpansionSeries.from_columns(mix.id, times, values, group.value)


def predicted_failure_time(
    mix: Mixture,
    bundle: ModelBundle | None = None,
    group: GroupLabel | None = None,
) -> float:
    """Invert the group model at the failure threshold.

    The linear predictor of every supported model is affine in time, so
    the crossing solves in closed form (through a logarithm for HN).
    Raises :class:`NonIncreasing` when the mixture's time coefficient is
    not positive and :class:`AlreadyFailed` when the model starts at or
    above the threshold.
    """
    if bundle is None:
        bundle = _DEFAULT_BUNDLE
    if group is None:
        group = classify_mixture(mix, bundle)
    model = bundle.model_for(group)
    slope, intercept = model.time_line(mix)
    target = bundle.failure_threshold
    if model.form == "log-linear":
        target = math.log(target)
    if intercept >= target:
        raise AlreadyFailed(
            f"mixture {mix.id!r} is predicted at or beyond the threshold already at t = 0"
        )
    if slope <= 0:
        raise NonIncreasing(
            f"mixture {mix.id!r}: group {group} model is not increasing in time (slope {slope:.4g})"
        )
    return (target - intercept) / slope


@contextlib.contextmanager
def _stage(name: str):
    """Prefix any package error with the pipeline stage it came from."""
    try:
        yield
    except SulfexpError as exc:
        exc.args = (f"{name}: {exc.args[0]}",) + exc.args[1:]
        raise


def cluster_stage(
    block: SeriesBlock, threshold: float, k: int, seed: int, standardize: bool,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None, clustering.KMeansResult]:
    """The fit's "features" and "clustering" stages, which ``sulfexp cluster`` runs too.

    Returns each record's (failure time, slope) features, their z-score
    means and scales (None unless ``standardize``) and the k-means result.
    """
    with _stage("features"):
        features = curves.cluster_features(block, threshold)
    with _stage("clustering"):
        if standardize:
            points, means, scales = clustering.standardize_features(features)
        else:
            points, means, scales = features, None, None
        return features, means, scales, clustering.kmeans(points, k=k, seed=seed)


def dataset_hash(dataset: list[tuple[Mixture, ExpansionSeries]]) -> str:
    """Stable fingerprint of a dataset, for bundle provenance: ``b2:<16 hex>``.

    The hex digits open the sha256 of these sections, over the N records
    sorted by id:

    1. the scheme tag ``sulfexp-dataset-b2``;
    2. N as ``<u8``;
    3. the N UTF-8 id byte lengths as ``<u8``, then the id bytes;
    4. one presence byte per record, bit i set when ``MIXTURE_FIELDS[i]``
       is present;
    5. the N×7 fields as ``<f8``, 0.0 where a field is absent;
    6. the N sample counts as ``<u8``;
    7. every record's ``times`` as ``<f8``, then every record's ``values``.

    Each variable-length section follows its lengths, so the bytes split
    into records one way only. The fingerprint names the set of records:
    row order does not change it.
    """
    return _fingerprint(SeriesBlock.from_pairs(sorted(dataset, key=lambda p: p[0].id)))


def _fingerprint(block: SeriesBlock) -> str:
    """:func:`dataset_hash` of the records of ``block``, taken in block order."""
    ids = [mid.encode() for mid in block.ids]
    present = ~np.isnan(block.fields)
    mask = np.packbits(present, axis=1, bitorder="little")
    matrix = np.where(present, block.fields, 0.0).astype("<f8", copy=False)
    h = hashlib.sha256(_DATASET_HASH_TAG)
    h.update(np.array([len(ids)], dtype="<u8").tobytes())
    h.update(np.array([len(i) for i in ids], dtype="<u8").tobytes())
    h.update(b"".join(ids))
    h.update(mask.tobytes())
    h.update(matrix.tobytes())
    h.update(block.lengths.astype("<u8").tobytes())
    for column in (block.times, block.values):
        h.update(column.astype("<f8", copy=False).tobytes())
    return f"{DATASET_HASH_SCHEME}:{h.hexdigest()[:16]}"


def _regression_block(label: GroupLabel, raw: SeriesBlock, smoothed: SeriesBlock,
                      members) -> SeriesBlock:
    """The records ``members`` that fit group ``label``'s regression.

    HN is fitted on its raw curves, whose exponential shape a three-point
    average would distort; the linear groups on their smoothed curves.
    """
    return (raw if label in regression.LOG_RESPONSE_GROUPS else smoothed).subset(members)


def fit_pipeline(
    dataset: list[tuple[Mixture, ExpansionSeries]],
    config: PipelineConfig | None = None,
) -> ModelBundle:
    """Re-fit the whole model from expansion records.

    Smooth each series, extract (failure time, slope) features, k-means
    them into expansion-pattern clusters, name the clusters by ascending
    mean failure time, screen variables per group, fit each group's
    regression and train the two boundaries. Records are taken in id order,
    so row order does not change the fit. Every stage reads one
    :class:`~sulfexp.curves.SeriesBlock` of the records, built once, in
    whole-array passes. Raises :class:`ValidationError` for an empty
    dataset and when two records share a mixture id.
    """
    config = config or PipelineConfig()
    dataset = sorted(dataset, key=lambda pair: pair[0].id)
    if not dataset:
        raise ValidationError("the dataset holds no records")
    for (mix, _), (following, _) in zip(dataset, dataset[1:]):
        if mix.id == following.id:
            raise ValidationError(f"mixture id {mix.id!r} appears more than once in the dataset")
    block = SeriesBlock.from_pairs(dataset)

    with _stage("smoothing"):
        smoothed = curves.smooth(block, config.alpha)

    features, f_means, f_scales, km = cluster_stage(
        smoothed if config.smooth_for_clustering else block,
        config.threshold, config.k, config.seed, config.standardize_features,
    )
    # name the clusters by ascending mean failure time: the earliest HN, the latest LL
    cluster_rows = [np.flatnonzero(km.assignments == c) for c in range(config.k)]
    mean_tfail = [features[rows, 0].mean() if rows.size else np.inf for rows in cluster_rows]
    ranks = np.argsort(np.argsort(mean_tfail, kind="stable"))
    cluster_labels = [LABELS_BY_FAILURE_TIME[rank] for rank in ranks]
    # the group of each dataset row
    row_labels = [cluster_labels[c] for c in km.assignments.tolist()]
    groups = {cluster_labels[c]: rows for c, rows in enumerate(cluster_rows)}
    for label, rows in groups.items():
        if rows.size < 2:
            raise EmptyGroup(f"cluster {label} received {rows.size} mixture(s); need >= 2")

    pca_selected: dict[GroupLabel, list[pca.SelectedVariable]] = {}
    roles_by_group: dict[GroupLabel, tuple[str, ...] | None] = {}
    with _stage("variable selection"):
        for label, members in groups.items():
            pca_selected[label] = []
            roles_by_group[label] = None
            matrix = block.fields[members]
            if np.isnan(matrix).any():
                continue
            m = min(pca.DEFAULT_COMPONENTS, matrix.shape[0] - 1, matrix.shape[1])
            if m < 1:
                continue
            centered, _, _ = pca.center_and_scale(matrix)
            picks = pca.select_dominant_variables(pca.principal_components(centered, m), m)
            pca_selected[label] = picks
            if config.data_driven_variables:
                roles = dict.fromkeys(
                    regression.FIELD_TO_ROLE[MIXTURE_FIELDS[p.column]] for p in picks
                )
                roles_by_group[label] = tuple(roles) + (regression.CONST_ROLE,)

    with _stage("regression"):
        models = {
            label: regression.fit_group_model(
                _regression_block(label, block, smoothed, members), label, roles_by_group[label])
            for label, members in groups.items()
        }

    boundary_first = boundary_first_simplified = boundary_second = None
    if len(groups) == 3:
        with _stage("boundaries"):
            pts_first = block.require(FIRST_AXES)
            y_first = np.array([1.0 if label is GroupLabel.HN else -1.0 for label in row_labels])
            boundary_first = svm.svm_train(
                pts_first, y_first, C=config.box_constraint, feature_names=FIRST_AXES,
            )
            boundary_first_simplified = svm.simplify_axis_parallel(boundary_first, pts_first, y_first)

            rest = [i for i, label in enumerate(row_labels) if label is not GroupLabel.HN]
            pts_second = block.require(SECOND_AXES, rest)
            y_second = np.array([1.0 if row_labels[i] is GroupLabel.ML else -1.0 for i in rest])
            boundary_second = svm.svm_train(
                pts_second, y_second, C=config.box_constraint, feature_names=SECOND_AXES,
            )

    diagnostics = PipelineDiagnostics(
        assignments=dict(zip(block.ids, row_labels)),
        cluster_sizes={label: members.size for label, members in groups.items()},
        feature_means=f_means,
        feature_scales=f_scales,
        mean_failure_times=dict(zip(cluster_labels, map(float, mean_tfail))),
        pca_selected=pca_selected,
        kmeans_objective=km.objective,
        kmeans_restart_iterations=km.restart_iterations,
        kmeans_restart_converged=km.restart_converged,
    )
    return ModelBundle(
        models=models,
        boundary_first=boundary_first,
        boundary_first_simplified=boundary_first_simplified,
        boundary_second=boundary_second,
        provenance=f"{PROVENANCE_FITTED} data={_fingerprint(block)} seed={config.seed}",
        failure_threshold=config.threshold,
        diagnostics=diagnostics,
    )


@dataclass(frozen=True)
class HoldoutRow:
    mixture_id: str
    reference: GroupLabel
    predicted: GroupLabel

    @property
    def agree(self) -> bool:
        return self.reference is self.predicted


@dataclass(frozen=True)
class HoldoutReport:
    rows: tuple[HoldoutRow, ...]
    agreement: float
    confusion: dict[tuple[GroupLabel, GroupLabel], int]


def validate_holdout(
    bundle: ModelBundle,
    holdout: list[tuple[Mixture, ExpansionSeries]],
    reference_assignments: dict[str, GroupLabel],
) -> HoldoutReport:
    """Compare boundary-based groups against expansion-based reference groups.

    ``reference_assignments`` maps mixture id to the group obtained from
    the specimen's measured expansion (clustering or ground truth).
    """
    if not holdout:
        raise ValidationError("holdout set is empty")
    rows = []
    confusion: dict[tuple[GroupLabel, GroupLabel], int] = {}
    for mix, _series in holdout:
        if mix.id not in reference_assignments:
            raise ValidationError(f"no reference assignment for mixture {mix.id!r}")
        reference = reference_assignments[mix.id]
        predicted = classify_mixture(mix, bundle)
        rows.append(HoldoutRow(mixture_id=mix.id, reference=reference, predicted=predicted))
        confusion[(reference, predicted)] = confusion.get((reference, predicted), 0) + 1
    agreement = sum(r.agree for r in rows) / len(rows)
    return HoldoutReport(rows=tuple(rows), agreement=agreement, confusion=confusion)


@dataclass(frozen=True)
class GroupRefit:
    group: GroupLabel
    r2_original: float
    r2_reassigned: float
    n_reassigned: int

    @property
    def delta(self) -> float:
        return self.r2_reassigned - self.r2_original


def refit_r2_report(
    bundle: ModelBundle,
    dataset: list[tuple[Mixture, ExpansionSeries]],
) -> dict[GroupLabel, GroupRefit]:
    """Refit each group on boundary-assigned membership and report R2 deltas.

    Measures how much fit quality degrades when mixtures are routed by the
    boundaries instead of by their measured expansion patterns. The linear
    groups are refitted on curves smoothed with :data:`DEFAULT_ALPHA`.
    """
    for label, model in bundle.models.items():
        if model.fit is None:
            raise ValidationError(
                f"bundle model for {label} has no fit statistics; refit needs a fitted bundle"
            )
    block = SeriesBlock.from_pairs(dataset)
    smoothed = curves.smooth(block, DEFAULT_ALPHA)
    regrouped: dict[GroupLabel, list[int]] = {label: [] for label in bundle.models}
    for i, (mix, _) in enumerate(dataset):
        label = classify_mixture(mix, bundle)
        regrouped.setdefault(label, []).append(i)

    report = {}
    for label, members in regrouped.items():
        if len(members) < 2:
            raise EmptyGroup(f"boundary reassignment left group {label} with {len(members)} mixture(s)")
        refit = regression.fit_group_model(_regression_block(label, block, smoothed, members),
                                           label, bundle.models[label].variable_roles)
        report[label] = GroupRefit(
            group=label,
            r2_original=bundle.models[label].fit.r_squared,
            r2_reassigned=refit.fit.r_squared,
            n_reassigned=len(members),
        )
    return report

