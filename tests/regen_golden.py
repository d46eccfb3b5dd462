"""Regenerate ``golden_fits.json``, the exact fingerprints of reference fits.

Run from the repository root with ``PYTHONPATH=src python tests/regen_golden.py``.
Each golden entry names a generated dataset and a fit configuration (the
default one unless the entry says otherwise). The dataset is generated,
fitted with that configuration and reduced to its input hash, the sha256 of the saved bundle and the ``repr``
of every coefficient, boundary weight and bias and of each raw boundary's
training objective, plus the cluster assignments. A partial bundle records ``null`` for each
boundary it lacks. Before overwriting an
existing file the script prints, per field, the largest relative drift
from the stored values, so a deliberate numerical change can be
documented; the objectives tell a move along a flat optimum (equal
objectives) from a worse fit. The table ends with the number of datasets
whose input hash and whose bundle sha256 changed. A change of the input
hash's scheme tag is reported as a fingerprint scheme change, not as a
generator move.

Regenerate only when a change is meant to move fitted values.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from sulfexp import PipelineConfig, fit_pipeline, generate_synthetic, save_bundle
from sulfexp.model import dataset_hash

GOLDEN_PATH = Path(__file__).with_name("golden_fits.json")
NOISE = 0.03
#: named fit configurations; entries of the default one keep the bare dataset key
CONFIGS = {
    "default": {},
    "raw-features": {"smooth_for_clustering": False, "standardize_features": False},
    "data-driven": {"data_driven_variables": True},
    "k2": {"k": 2},
}
#: (HN, ML, LL) counts and generator seed of every golden dataset; the
#: second boundary of (12, 16, 12)@23 has an optimum flat in the bias
DATASETS = (
    ((12, 16, 12), 0),
    ((12, 16, 12), 1),
    ((12, 16, 12), 2),
    ((12, 16, 12), 3),
    ((12, 16, 12), 23),
    ((120, 160, 120), 0),
)
#: (counts, seed, configuration) of every golden entry: each dataset with the
#: default configuration, and the other three on the first and the last
ENTRIES = tuple((counts, seed, "default") for counts, seed in DATASETS) + tuple(
    (counts, seed, config)
    for counts, seed in (DATASETS[0], DATASETS[-1])
    for config in ("raw-features", "data-driven", "k2")
)
BOUNDARIES = ("boundary_first", "boundary_first_simplified", "boundary_second")
#: boundaries trained by the SVM, which carry their primal objective
RAW_BOUNDARIES = ("boundary_first", "boundary_second")


def dataset_key(counts, seed, config="default") -> str:
    key = f"{'-'.join(map(str, counts))}@{seed}"
    return key if config == "default" else f"{key}/{config}"


def bundle_sha256(bundle) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bundle.json"
        save_bundle(bundle, path)
        return hashlib.sha256(path.read_bytes()).hexdigest()


def snapshot(counts, seed, config="default") -> dict:
    """Fit one golden dataset with the named configuration and fingerprint the result."""
    pairs = generate_synthetic(counts, noise=NOISE, seed=seed).pairs
    bundle = fit_pipeline(pairs, PipelineConfig(**CONFIGS[config]))
    boundaries = {}
    for name in BOUNDARIES:
        boundary = getattr(bundle, name)
        if boundary is None:
            boundaries[name] = None
            continue
        boundaries[name] = {
            "weights": [repr(float(w)) for w in boundary.weights],
            "bias": repr(boundary.bias),
        }
        if name in RAW_BOUNDARIES:
            boundaries[name]["objective"] = repr(boundary.objective)
    assignments = bundle.diagnostics.assignments
    return {
        "dataset_hash": dataset_hash(pairs),
        "bundle_sha256": bundle_sha256(bundle),
        "coefficients": {
            label.value: [repr(float(c)) for c in model.coefficients]
            for label, model in sorted(bundle.models.items(), key=lambda kv: kv[0].value)
        },
        "boundaries": boundaries,
        "assignments": " ".join(assignments[mid].value for mid in sorted(assignments)),
    }


def snapshot_all() -> dict:
    return {dataset_key(*entry): snapshot(*entry) for entry in ENTRIES}


def _relative(old: str, new: str) -> float:
    a, b = float(old), float(new)
    if a == b:
        return 0.0
    return abs(b - a) / max(abs(a), abs(b))


def drift_table(old: dict, new: dict) -> list[tuple[str, str]]:
    """(field, largest relative drift) over every dataset present in both."""
    worst: dict[str, float] = {}
    changed_assignments = 0

    def note(field, values_old, values_new):
        drift = max((_relative(a, b) for a, b in zip(values_old, values_new)), default=0.0)
        worst[field] = max(worst.get(field, 0.0), drift)

    for key in sorted(set(old) & set(new)):
        before, after = old[key], new[key]
        for group in sorted(set(before["coefficients"]) & set(after["coefficients"])):
            note(f"coefficients {group}", before["coefficients"][group],
                 after["coefficients"][group])
        for name in BOUNDARIES:
            if before["boundaries"][name] is None or after["boundaries"][name] is None:
                continue
            note(f"{name}.weights", before["boundaries"][name]["weights"],
                 after["boundaries"][name]["weights"])
            note(f"{name}.bias", [before["boundaries"][name]["bias"]],
                 [after["boundaries"][name]["bias"]])
            if name in RAW_BOUNDARIES and "objective" in before["boundaries"][name]:
                note(f"{name}.objective", [before["boundaries"][name]["objective"]],
                     [after["boundaries"][name]["objective"]])
        changed_assignments += sum(
            a != b for a, b in zip(before["assignments"].split(), after["assignments"].split())
        )
    rows = [(field, f"{value:.2g}") for field, value in sorted(worst.items())]
    rows.append(("assignments changed", str(changed_assignments)))
    for name in ("dataset_hash", "bundle_sha256"):
        changed = sum(old[key][name] != new[key][name] for key in set(old) & set(new))
        rows.append((f"datasets whose {name} changed", str(changed)))
    return rows


def hash_scheme(fingerprint: str) -> str:
    """The scheme tag a dataset fingerprint opens with; "untagged" if none."""
    scheme, tagged, _ = fingerprint.rpartition(":")
    return scheme if tagged else "untagged"


def main() -> int:
    new = snapshot_all()
    if GOLDEN_PATH.exists():
        old = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        moved, rehashed = [], []
        for key in sorted(set(old) & set(new)):
            before, after = old[key]["dataset_hash"], new[key]["dataset_hash"]
            if hash_scheme(before) != hash_scheme(after):
                rehashed.append(key)
            elif before != after:
                moved.append(key)
        if rehashed:
            schemes = sorted({f"{hash_scheme(old[key]['dataset_hash'])} -> "
                              f"{hash_scheme(new[key]['dataset_hash'])}" for key in rehashed})
            print(f"note: fingerprint scheme changed ({', '.join(schemes)}) for {rehashed}; "
                  "their inputs cannot be compared by hash", file=sys.stderr)
        if moved:
            print(f"warning: the generator moved for {moved}; drift below mixes input "
                  "and fit changes", file=sys.stderr)
        print("| field | max relative drift |")
        print("|---|---|")
        for field, value in drift_table(old, new):
            print(f"| {field} | {value} |")
    GOLDEN_PATH.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
