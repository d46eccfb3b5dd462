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
import functools
import hashlib
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from . import clustering, curves, linalg, pca, regression, svm
from .curves import DEFAULT_ALPHA, DEFAULT_THRESHOLD, ExpansionSeries, SeriesBlock
from .errors import EmptyGroup, NegativeTime, SulfexpError, ValidationError
from .mixtures import FIELD_RANGES, MIXTURE_FIELDS, GroupLabel, Mixture
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

#: most grids :func:`time_grid` keeps, each of at most :data:`MAX_CURVE_POINTS` floats
TIME_GRID_CACHE_SIZE = 8

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
    """Fit-time byproducts that are useful for reports but not for prediction.

    ``group_fields`` holds each group's mixture fields (rows in id order,
    columns in :data:`MIXTURE_FIELDS` order), which :attr:`pca_selected`
    screens on first read.
    """

    assignments: dict[str, GroupLabel]
    cluster_sizes: dict[GroupLabel, int]
    feature_means: np.ndarray | None
    feature_scales: np.ndarray | None
    mean_failure_times: dict[GroupLabel, float]
    kmeans_objective: float
    kmeans_restart_iterations: tuple[int, ...]   # every k-means restart's, in restart order
    kmeans_restart_converged: tuple[bool, ...]
    group_fields: dict[GroupLabel, np.ndarray] = field(repr=False, compare=False)

    @functools.cached_property
    def pca_selected(self) -> dict[GroupLabel, list[pca.SelectedVariable]]:
        """Each group's screening picks (see :func:`_screen_group`), the same
        lists, flags included, that a fit with ``data_driven_variables``
        chooses its roles from. Only such a fit runs the screen itself;
        otherwise it runs here, on first read. Group fields lie within
        :data:`FIELD_RANGES` and every group has at least 2 rows, so the
        screen raises nothing.
        """
        return {label: _screen_group(matrix) for label, matrix in self.group_fields.items()}


@dataclass(frozen=True)
class ModelBundle:
    """Three group models plus the classification boundaries.

    A bundle without the boundaries to route by (a fit of fewer than three
    groups) is :attr:`partial`. Diagnostics never participate in equality
    or serialization. Construction rejects a ``failure_threshold`` that is
    not a finite positive real number (a bool included), a model stored
    under another group's key, a boundary on a name outside
    :data:`MIXTURE_FIELDS` or whose decision values overflow a float within
    :data:`FIELD_RANGES`, and a tilted ``boundary_first_simplified`` (two
    non-zero weights). All boundary weights and model coefficients are
    read-only, so :func:`classify_mixture`'s routing rule is derived once.
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
            # fields are non-negative, so this bounds every term and partial sum of
            # LinearBoundary.value_at, x0 * w0 + x1 * w1 + bias
            if boundary is not None and math.isinf(abs(boundary.bias) + sum(
                    abs(w) * FIELD_RANGES[axis][1]
                    for axis, w in zip(boundary.feature_names, boundary.weights.tolist()))):
                raise ValidationError(f"{name}: decision values overflow a float in the field ranges")
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
    boundary; the second boundary splits the rest. Fields are read
    directly, as Python floats, and a raw boundary is evaluated by
    :meth:`LinearBoundary.value_at` on them, with no array built;
    :meth:`Mixture.require` runs only to raise for a missing one.
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
            value = getattr(mix, self.hn_field)
            if value is None:
                mix.require(self.hn_field)
            is_hn = value > self.hn_threshold if self.hn_above else value < self.hn_threshold
        else:
            first = self.first
            is_hn = first.value_at(*_point(mix, first.feature_names)) >= 0
        if is_hn:
            return GroupLabel.HN
        second = self.second
        if second.value_at(*_point(mix, second.feature_names)) >= 0:
            return GroupLabel.ML
        return GroupLabel.LL


def _point(mix: Mixture, names: tuple[str, str]) -> tuple:
    """The fields ``names`` of ``mix``: :meth:`Mixture.require`'s values and
    :class:`MissingField`, without its name checks (a bundle's boundaries
    name mixture fields only)."""
    point = getattr(mix, names[0]), getattr(mix, names[1])
    if None in point:
        mix.require(*names)
    return point


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
    >= 0, else LL. A decision value is the Python-float sum
    ``x0 * w0 + x1 * w1 + bias`` of :meth:`LinearBoundary.value_at`,
    rounded left to right, so a mixture takes the same route on every host
    and BLAS kernel. The simplified threshold is ``-bias / weight`` on the
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


def predict_expansion(
    mix: Mixture,
    group: GroupLabel,
    bundle: ModelBundle | None = None,
    t: float = 0.0,
) -> float:
    """Expansion percent of a mixture at time t under its group's model.

    Raises :class:`NegativeTime` for ``t < 0``, :class:`ValidationError`
    for a NaN or infinite ``t`` and :class:`PredictionOverflow` as
    :meth:`GroupModel.expansion` does.
    """
    if t < 0:
        raise NegativeTime(f"time must be >= 0, got {t}")
    if not math.isfinite(t):
        raise ValidationError(f"time must be finite, got {t}")
    if bundle is None:
        bundle = _DEFAULT_BUNDLE
    return float(bundle.model_for(group).expansion(mix, np.float64(t)))


def time_grid(horizon: float, step: float) -> np.ndarray:
    """The prediction grid 0, step, ... <= horizon, where a step longer than
    the horizon counts as the horizon.

    Every call checks ``horizon`` and ``step`` and raises
    :class:`ValidationError` for one that is not positive and finite, or
    for a grid of more than :data:`MAX_CURVE_POINTS` points, before
    anything is allocated. Both are then taken as Python floats, so an
    exact number (an int, a ``Fraction``, a ``Decimal``) gives the float64
    grid of its float. The grid itself is computed once per (points, step)
    and the last :data:`TIME_GRID_CACHE_SIZE` grids are kept: every call on
    one returns the same read-only array, which every curve sampled on it
    shares. A grid whose last point overflows a float is returned as it is;
    a curve on it fails :meth:`GroupModel.expansion`'s bound check.
    """
    if not (math.isfinite(horizon) and math.isfinite(step) and horizon > 0 and step > 0):
        raise ValidationError(
            f"horizon and step must both be positive and finite, got {horizon} and {step}"
        )
    horizon, step = float(horizon), float(step)
    step = min(step, horizon)
    steps = horizon / step + 1e-9
    # the grid holds floor(steps) + 1 points; an infinite ratio fails here, before floor
    if steps >= MAX_CURVE_POINTS:
        raise ValidationError(
            f"a horizon of {horizon:g} at step {step:g} needs more than "
            f"{MAX_CURVE_POINTS} grid points"
        )
    return _grid(math.floor(steps) + 1, step)


@functools.lru_cache(maxsize=TIME_GRID_CACHE_SIZE)
def _grid(points: int, step: float) -> np.ndarray:
    """``points`` multiples of ``step`` from 0, read-only.

    Rounding is monotone, so the multiples ascend from 0. As
    :func:`time_grid` passes ``points - 1 <= horizon / step + 1e-9``,
    every point but the last is at most the horizon, and only the last can
    overflow a float.
    """
    with np.errstate(over="ignore"):  # an overflowing last point fails the curve's check
        return linalg.read_only(np.arange(points, dtype=float) * step)


def predict_curve(
    mix: Mixture,
    bundle: ModelBundle | None = None,
    horizon: float = 40.0,
    step: float = 1.0,
) -> ExpansionSeries:
    """Classify, then sample the predicted curve on :func:`time_grid`.

    The series' ``times`` is that shared read-only grid, not a copy; its
    ``values``, one :meth:`GroupModel.expansion` call over the grid, which
    makes them finite, are stored read-only. They equal
    :func:`predict_expansion` at the grid times, bit for bit.
    """
    times = time_grid(horizon, step)
    if bundle is None:
        bundle = _DEFAULT_BUNDLE
    group = classify_mixture(mix, bundle)
    values = bundle.model_for(group).expansion(mix, times)
    return ExpansionSeries._on_grid(mix.id, times, values, group.value)


def predicted_failure_time(
    mix: Mixture,
    bundle: ModelBundle | None = None,
    group: GroupLabel | None = None,
) -> float:
    """Invert the group model at the failure threshold, in closed form by
    :meth:`GroupModel.failure_time`, which raises :class:`NonIncreasing`,
    :class:`AlreadyFailed` or :class:`PredictionOverflow`."""
    if bundle is None:
        bundle = _DEFAULT_BUNDLE
    if group is None:
        group = classify_mixture(mix, bundle)
    return bundle.model_for(group).failure_time(mix, bundle.failure_threshold)


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


def _screen_group(matrix: np.ndarray) -> list[pca.SelectedVariable]:
    """One group's variable screen: the dominant column of each of its top
    :data:`pca.DEFAULT_COMPONENTS` standardized principal components (fewer
    for a group of fewer rows), and no picks when a field is absent."""
    if np.isnan(matrix).any():
        return []
    m = min(pca.DEFAULT_COMPONENTS, matrix.shape[0] - 1, matrix.shape[1])
    scaled, _, _ = pca.center_and_scale(matrix)
    return pca.select_dominant_variables(pca.principal_components(scaled, m), m)


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
    row order does not change it, and two records that share a mixture id
    raise :class:`ValidationError`, as :func:`fit_pipeline` does.
    """
    return _fingerprint(_block_by_id(dataset))


def _block_by_id(dataset: list[tuple[Mixture, ExpansionSeries]]) -> SeriesBlock:
    """The records' block in mixture-id order; a repeated id raises :class:`ValidationError`."""
    dataset = sorted(dataset, key=lambda pair: pair[0].id)
    for (mix, _), (following, _) in zip(dataset, dataset[1:]):
        if mix.id == following.id:
            raise ValidationError(f"mixture id {mix.id!r} appears more than once in the dataset")
    return SeriesBlock.from_pairs(dataset)


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
    mean failure time, screen variables per group (for
    ``data_driven_variables``; otherwise on reading
    ``diagnostics.pca_selected``), fit each group's regression and train
    the two boundaries. Records are taken in id order,
    so row order does not change the fit. Every stage reads one
    :class:`~sulfexp.curves.SeriesBlock` of the records, built once, in
    whole-array passes. Raises :class:`ValidationError` for an empty
    dataset and when two records share a mixture id.
    """
    config = config or PipelineConfig()
    if not dataset:
        raise ValidationError("the dataset holds no records")
    block = _block_by_id(dataset)

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

    group_fields = {label: block.fields[members] for label, members in groups.items()}
    roles_by_group: dict[GroupLabel, tuple[str, ...] | None] = dict.fromkeys(groups)
    if config.data_driven_variables:
        for label, matrix in group_fields.items():
            picks = _screen_group(matrix)
            if picks:
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
            hn = km.assignments == cluster_labels.index(GroupLabel.HN)
            ml = km.assignments == cluster_labels.index(GroupLabel.ML)
            pts_first = block.require(FIRST_AXES)
            y_first = np.where(hn, 1.0, -1.0)
            boundary_first = svm.svm_train(
                pts_first, y_first, C=config.box_constraint, feature_names=FIRST_AXES,
            )
            boundary_first_simplified = svm.simplify_axis_parallel(boundary_first, pts_first, y_first)

            rest = np.flatnonzero(~hn)
            pts_second = block.require(SECOND_AXES, rest)
            y_second = np.where(ml[rest], 1.0, -1.0)
            boundary_second = svm.svm_train(
                pts_second, y_second, C=config.box_constraint, feature_names=SECOND_AXES,
            )

    diagnostics = PipelineDiagnostics(
        assignments=dict(zip(block.ids, row_labels)),
        cluster_sizes={label: members.size for label, members in groups.items()},
        feature_means=f_means,
        feature_scales=f_scales,
        mean_failure_times=dict(zip(cluster_labels, map(float, mean_tfail))),
        kmeans_objective=km.objective,
        kmeans_restart_iterations=km.restart_iterations,
        kmeans_restart_converged=km.restart_converged,
        group_fields=group_fields,
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

