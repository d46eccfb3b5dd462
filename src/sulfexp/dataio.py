"""Data ingestion, bundle persistence, synthetic data, plot emission.

File formats are deliberately plain: comma-separated UTF-8 tables with a
header row for mixtures and expansion records, JSON for model bundles and
dataset manifests, and a long-format table for plot data. Floats are
serialized with ``repr`` so every save/load round-trip is bit-exact.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .curves import ExpansionSeries
from .errors import (
    DuplicateId,
    DuplicateTimestamp,
    NonFiniteValue,
    ParseError,
    RangeViolation,
    SchemaVersionMismatch,
    ValidationError,
)
from .mixtures import MIXTURE_FIELDS, GroupLabel, Mixture
from .model import ModelBundle, PROVENANCE_DEFAULT, _evaluate, default_bundle
from .regression import GroupModel, OLSFit
from .svm import LinearBoundary

SCHEMA_VERSION = "1"
MIXTURE_HEADER = ("id",) + MIXTURE_FIELDS
SERIES_HEADER = ("mixture_id", "t_years", "expansion_percent")


# --- delimited-table ingestion -------------------------------------------


def _read_text(path: Path) -> str:
    """A file's UTF-8 text; an unreadable file or bytes that are not UTF-8
    raise :class:`ParseError` naming the path."""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}", path=str(path)) from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc}", path=str(path)) from exc


def _read_rows(path: str | Path, expected_header: tuple[str, ...]) -> list[tuple[int, dict]]:
    path = Path(path)
    reader = csv.reader(_read_text(path).splitlines())
    rows = list(reader)
    if not rows:
        raise ParseError("file is empty", path=str(path), line=1)
    header = tuple(h.strip() for h in rows[0])
    if header != expected_header:
        raise ParseError(
            f"header must be {','.join(expected_header)!r}, got {','.join(header)!r}",
            path=str(path), line=1,
        )
    out = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(expected_header):
            raise ParseError(
                f"expected {len(expected_header)} columns, got {len(row)}",
                path=str(path), line=lineno,
            )
        out.append((lineno, dict(zip(expected_header, (cell.strip() for cell in row)))))
    return out


def _parse_float(cell: str, path: str, lineno: int, field: str, optional: bool = False):
    if cell == "":
        if optional:
            return None
        raise ParseError("value required", path=path, line=lineno, field=field)
    try:
        value = float(cell)
    except ValueError as exc:
        raise ParseError(f"not a number: {cell!r}", path=path, line=lineno, field=field) from exc
    if not math.isfinite(value):
        raise NonFiniteValue(f"non-finite value {cell!r} at {path}:{lineno} field {field}")
    return value


def load_mixtures(path: str | Path) -> list[Mixture]:
    """Read the mixture table: id plus the seven proportion columns.

    Any proportion cell may be blank; operations that need the field will
    complain later. Range violations and duplicate ids are rejected here
    with their row numbers.
    """
    rows = _read_rows(path, MIXTURE_HEADER)
    mixtures: list[Mixture] = []
    seen: dict[str, int] = {}
    for lineno, row in rows:
        mid = row["id"]
        if not mid:
            raise ParseError("empty mixture id", path=str(path), line=lineno, field="id")
        if mid in seen:
            raise DuplicateId(
                f"mixture id {mid!r} already defined at line {seen[mid]}",
                path=str(path), line=lineno, field="id",
            )
        seen[mid] = lineno
        values = {
            name: _parse_float(row[name], str(path), lineno, name, optional=True)
            for name in MIXTURE_FIELDS
        }
        try:
            mixtures.append(Mixture(id=mid, **values))
        except RangeViolation as exc:
            raise RangeViolation(str(exc), path=str(path), line=lineno) from exc
    return mixtures


def load_series(path: str | Path) -> list[ExpansionSeries]:
    """Read long-format expansion records and group them by mixture id.

    Rows may arrive unsorted; within one mixture they are sorted by time
    and duplicate timestamps are rejected. The first negative time in
    file order raises :class:`RangeViolation` naming its line.
    """
    rows = _read_rows(path, SERIES_HEADER)
    by_id: dict[str, list[tuple[float, float, int]]] = {}
    order: list[str] = []
    for lineno, row in rows:
        mid = row["mixture_id"]
        if not mid:
            raise ParseError("empty mixture id", path=str(path), line=lineno, field="mixture_id")
        t = _parse_float(row["t_years"], str(path), lineno, "t_years")
        if t < 0:
            raise RangeViolation(f"series {mid!r}: t_years={t} is negative",
                                 path=str(path), line=lineno, field="t_years")
        e = _parse_float(row["expansion_percent"], str(path), lineno, "expansion_percent")
        if mid not in by_id:
            by_id[mid] = []
            order.append(mid)
        by_id[mid].append((t, e, lineno))

    out = []
    for mid in order:
        rows_of_mid = np.array(sorted(by_id[mid]))
        repeats = np.flatnonzero(np.diff(rows_of_mid[:, 0]) == 0)
        if repeats.size:
            i = int(repeats[0])
            l1, l2 = int(rows_of_mid[i, 2]), int(rows_of_mid[i + 1, 2])
            raise DuplicateTimestamp(
                f"mixture {mid!r} has two samples at t = {float(rows_of_mid[i, 0])} "
                f"(lines {l1} and {l2})",
                path=str(path), line=l2,
            )
        out.append(ExpansionSeries(mixture_id=mid, samples=rows_of_mid[:, :2]))
    return out


# --- dataset manifest -----------------------------------------------------


@dataclass(frozen=True)
class DatasetManifest:
    """Points the pipeline at its input files.

    ``expansion_unit`` is "percent" (native) or "fraction"; fractional
    expansions are converted to percent on load.
    """

    mixtures_path: Path
    series_path: Path
    expansion_unit: str = "percent"


def load_manifest(path: str | Path) -> DatasetManifest:
    path = Path(path)
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", path=str(path)) from exc
    if not isinstance(doc, dict):
        raise ParseError("manifest document must be a JSON object", path=str(path))
    for key in ("mixtures_path", "series_path"):
        if key not in doc:
            raise ParseError(f"manifest missing {key!r}", path=str(path), field=key)
        if not isinstance(doc[key], str):
            raise ParseError(f"{key} must be a string, got {doc[key]!r}",
                             path=str(path), field=key)
    unit = doc.get("expansion_unit", "percent")
    if unit not in ("percent", "fraction"):
        raise ParseError(f"expansion_unit must be percent or fraction, got {unit!r}",
                         path=str(path), field="expansion_unit")
    version = str(doc.get("schema_version", SCHEMA_VERSION))
    if version.split(".")[0] != SCHEMA_VERSION:
        raise SchemaVersionMismatch(f"manifest schema {version!r}, supported {SCHEMA_VERSION!r}")
    return DatasetManifest(
        mixtures_path=path.parent / doc["mixtures_path"],
        series_path=path.parent / doc["series_path"],
        expansion_unit=unit,
    )


def load_dataset(manifest: DatasetManifest) -> list[tuple[Mixture, ExpansionSeries]]:
    """Pair mixtures with their series; every series needs its mixture."""
    mixtures = {m.id: m for m in load_mixtures(manifest.mixtures_path)}
    series_list = load_series(manifest.series_path)
    pairs = []
    for series in series_list:
        if series.mixture_id not in mixtures:
            raise ValidationError(
                f"series {series.mixture_id!r} has no mixture row in {manifest.mixtures_path}"
            )
        if manifest.expansion_unit == "fraction":
            series = ExpansionSeries(
                mixture_id=series.mixture_id,
                samples=np.array((series.times, series.values * 100.0)).T,
            )
        pairs.append((mixtures[series.mixture_id], series))
    return pairs


# --- bundle persistence ---------------------------------------------------


def _floats(values) -> list[float]:
    return [float(v) for v in np.asarray(values).reshape(-1)]


def _boundary_to_doc(boundary: LinearBoundary | None):
    if boundary is None:
        return None
    return {
        "feature_names": list(boundary.feature_names),
        "weights": _floats(boundary.weights),
        "bias": boundary.bias,
        "box_constraint": boundary.box_constraint,
    }


def _boundary_from_doc(doc) -> LinearBoundary | None:
    if doc is None:
        return None
    return LinearBoundary(
        feature_names=tuple(doc["feature_names"]),
        weights=np.array(doc["weights"], dtype=float),
        bias=doc["bias"],
        box_constraint=doc.get("box_constraint"),
    )


def _model_to_doc(model: GroupModel):
    doc = {
        "group": model.group.value,
        "form": model.form,
        "variable_roles": list(model.variable_roles),
        "coefficients": _floats(model.coefficients),
    }
    if model.fit is not None:
        doc["fit"] = {
            "r_squared": model.fit.r_squared,
            "residual_std": model.fit.residual_std,
            "t_statistics": _floats(model.fit.t_statistics),
            "n_observations": model.fit.n_observations,
        }
    return doc


def _check_derived(doc: dict, key: str, derived, path: Path, field: str) -> None:
    """``doc[key]``, a value the bundle derives, may be absent, and must
    otherwise equal the derived value, type included."""
    if key in doc and (type(doc[key]) is not type(derived) or doc[key] != derived):
        raise ParseError(f"stored value {json.dumps(doc[key])} differs from the derived "
                         f"{json.dumps(derived)}",
                         path=str(path), field=field)


def _model_from_doc(doc, path: Path) -> GroupModel:
    fit = None
    if "fit" in doc:
        fit = OLSFit(
            coefficients=np.array(doc["coefficients"], dtype=float),
            r_squared=doc["fit"]["r_squared"],
            residual_std=doc["fit"]["residual_std"],
            t_statistics=np.array(doc["fit"]["t_statistics"], dtype=float),
            n_observations=doc["fit"]["n_observations"],
        )
    model = GroupModel(
        group=GroupLabel(doc["group"]),
        variable_roles=tuple(doc["variable_roles"]),
        coefficients=np.array(doc["coefficients"], dtype=float),
        fit=fit,
    )
    _check_derived(doc, "form", model.form, path, f"models.{model.group}.form")
    return model


_BUNDLE_KEYS = {
    "schema_version", "provenance", "failure_threshold", "partial",
    "models", "boundary_first", "boundary_first_simplified", "boundary_second",
}


def save_bundle(bundle: ModelBundle, path: str | Path) -> None:
    """Write a bundle as JSON of schema :data:`SCHEMA_VERSION`, bit-exact on reload."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "provenance": bundle.provenance,
        "failure_threshold": bundle.failure_threshold,
        "partial": bundle.partial,
        "models": {label.value: _model_to_doc(m) for label, m in bundle.models.items()},
        "boundary_first": _boundary_to_doc(bundle.boundary_first),
        "boundary_first_simplified": _boundary_to_doc(bundle.boundary_first_simplified),
        "boundary_second": _boundary_to_doc(bundle.boundary_second),
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in a bundle")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} overflows a float")
    return value


def load_bundle(path: str | Path) -> ModelBundle:
    """Reload a saved bundle; unknown top-level fields warn, not fail.

    Any schema of major version :data:`SCHEMA_VERSION` loads; the bundle
    keeps no version. ``partial`` and each ``form`` are derived, and a
    stored value that differs raises :class:`ParseError` naming the field,
    as do ``NaN``, ``Infinity``, a number that overflows a float and any
    malformed document.
    """
    path = Path(path)
    try:
        doc = json.loads(_read_text(path),
                         parse_constant=_reject_constant, parse_float=_finite_float)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", path=str(path)) from exc
    except ValueError as exc:  # a rejected number
        raise ParseError(str(exc), path=str(path)) from exc
    if not isinstance(doc, dict):
        raise ParseError("bundle document must be a JSON object", path=str(path))
    version = str(doc.get("schema_version", ""))
    if version.split(".")[0] != SCHEMA_VERSION:
        raise SchemaVersionMismatch(
            f"bundle schema {version!r} not supported (expected major {SCHEMA_VERSION!r})"
        )
    unknown = set(doc) - _BUNDLE_KEYS
    if unknown:
        warnings.warn(f"bundle {path} carries unknown fields {sorted(unknown)}; ignored")
    models = doc.get("models")
    if not isinstance(models, dict):
        raise ParseError("bundle field 'models' must be an object keyed by group",
                         path=str(path), field="models")
    unknown_groups = sorted(set(models) - {label.value for label in GroupLabel})
    if unknown_groups:
        raise ParseError(f"bundle has models for unknown groups {unknown_groups}",
                         path=str(path), field="models")
    try:
        bundle = ModelBundle(
            models={GroupLabel(k): _model_from_doc(v, path) for k, v in models.items()},
            boundary_first=_boundary_from_doc(doc.get("boundary_first")),
            boundary_first_simplified=_boundary_from_doc(doc.get("boundary_first_simplified")),
            boundary_second=_boundary_from_doc(doc.get("boundary_second")),
            provenance=doc.get("provenance", PROVENANCE_DEFAULT),
            failure_threshold=doc.get("failure_threshold", 0.5),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed bundle document: {exc!r}", path=str(path)) from exc
    _check_derived(doc, "partial", bundle.partial, path, "partial")
    return bundle


# --- synthetic data -------------------------------------------------------


@dataclass(frozen=True)
class SyntheticDataset:
    pairs: list[tuple[Mixture, ExpansionSeries]]
    labels: dict[str, GroupLabel]


#: measurement schedule: half-yearly while young (fast-failing specimens need
#: the resolution), yearly through mid-life, then a long final interval so a
#: slow specimen's terminal secant stays above the measurement noise
DEFAULT_SCHEDULE = tuple(
    [i * 0.5 for i in range(11)] + [float(t) for t in range(6, 31)] + [40.0]
)
_SCHEDULE = np.array(DEFAULT_SCHEDULE)

#: expansion percent past which a failed specimen leaves the test
STOP_EXPANSION = 2.0


def generate_synthetic(
    counts: tuple[int, int, int],
    noise: float = 0.0,
    seed: int = 0,
) -> SyntheticDataset:
    """Build a dataset of the three expansion archetypes.

    ``counts`` orders the groups (HN, ML, LL). Mixture proportions are
    sampled inside each group's consistent region: HN above the c3a
    threshold, ML and LL on their respective sides of the second boundary
    with a safety margin. Series follow the group's reference model over
    :data:`DEFAULT_SCHEDULE` with multiplicative Gaussian noise of the
    given relative level; each record stops after the first sample whose
    noise-free value exceeds :data:`STOP_EXPANSION`, never with fewer than
    three samples.
    """
    if any(c < 0 for c in counts):
        raise ValidationError("archetype counts must be >= 0")
    if noise < 0:
        raise ValidationError("noise level must be >= 0")
    rng = np.random.default_rng(seed)
    bundle = default_bundle()
    pairs: list[tuple[Mixture, ExpansionSeries]] = []
    labels: dict[str, GroupLabel] = {}

    specs = (
        (GroupLabel.HN, counts[0]),
        (GroupLabel.ML, counts[1]),
        (GroupLabel.LL, counts[2]),
    )
    index = 0
    for group, count in specs:
        for _ in range(count):
            index += 1
            mid = f"syn{index:04d}"
            if group is GroupLabel.HN:
                wc = rng.uniform(0.45, 0.65)
                c3a = rng.uniform(8.5, 12.0)
                c3s = rng.uniform(35.0, 60.0)
                cc = rng.uniform(0.58, 0.615)
            elif group is GroupLabel.ML:
                wc = rng.uniform(0.50, 0.58)
                c3a = rng.uniform(3.0, 7.8)
                c3s = 233.6 - 387.3 * wc + rng.uniform(3.0, 15.0)
                cc = rng.uniform(0.56, 0.62)
            else:
                wc = rng.uniform(0.40, 0.46)
                c3a = rng.uniform(3.0, 6.0)
                c3s = max(15.0, 233.6 - 387.3 * wc - rng.uniform(3.0, 15.0))
                cc = rng.uniform(0.56, 0.62)
            mix = Mixture(
                id=mid,
                wc=wc,
                c3a=c3a,
                c3s=c3s,
                c2s=rng.uniform(10.0, 30.0),
                c4af=rng.uniform(5.0, 15.0),
                cement_content=cc,
                air=rng.uniform(1.0, 6.0),
            )
            clean = _evaluate(bundle.model_for(group), mix, _SCHEDULE)
            above = np.flatnonzero(clean[2:] > STOP_EXPANSION)
            n = int(above[0]) + 3 if above.size else clean.size
            values = clean[:n]
            if noise > 0:
                values = values * (1.0 + noise * rng.standard_normal(n))
            samples = np.column_stack((_SCHEDULE[:n], values))
            pairs.append((mix, ExpansionSeries(mixture_id=mid, samples=samples)))
            labels[mid] = group
    return SyntheticDataset(pairs=pairs, labels=labels)


# --- plot data ------------------------------------------------------------


def emit_plot_data(
    series_list: list[ExpansionSeries],
    path: str | Path,
    labels: list[str] | None = None,
) -> None:
    """Write a tidy (series_label, t, value) table for external plotting."""
    if not series_list:
        raise ValidationError("no series to emit")
    if labels is None:
        labels = [s.mixture_id for s in series_list]
    if len(labels) != len(series_list):
        raise ValidationError("one label per series required")
    lines = ["series_label,t,value"]
    for label, series in zip(labels, series_list):
        for t, e in zip(series.times.tolist(), series.values.tolist()):
            lines.append(f"{label},{t!r},{e!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_mixtures(mixtures: list[Mixture], path: str | Path) -> None:
    """Inverse of :func:`load_mixtures`, mostly for tests and demos."""
    lines = [",".join(MIXTURE_HEADER)]
    for m in mixtures:
        cells = [m.id] + [
            "" if getattr(m, f) is None else repr(getattr(m, f)) for f in MIXTURE_FIELDS
        ]
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_series(series_list: list[ExpansionSeries], path: str | Path) -> None:
    """Inverse of :func:`load_series`."""
    lines = [",".join(SERIES_HEADER)]
    for series in series_list:
        for t, e in zip(series.times.tolist(), series.values.tolist()):
            lines.append(f"{series.mixture_id},{t!r},{e!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
