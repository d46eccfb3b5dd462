"""Tests of the benchmark itself: ``python -m pytest bench -q`` from the repository root.

A tiny-size smoke run of every workload, traced and untraced, and checks
that deliberately corrupted outputs are caught.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sulfexp import dataio, model  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: each workload's own figures, printed on the lines before the result
NAMED = {
    "fit_paper": {"fit_p50_s": "s", "fit_mixtures_per_s": "mixtures/s"},
    "fit_large": {"fit_p50_s": "s", "fit_mixtures_per_s": "mixtures/s"},
    "predict_screen": {"predict_mixtures_per_s": "mixtures/s", "predict_batch_p50_s": "s",
                       "predict_batch_samples": "count"},
    "cli_session": {"cli_start_s": "s", "cli_fit_s": "s", "cli_predict_s": "s"},
}

#: per-layer values a tiny traced run must give exactly, and ones that must be positive
LAYER_EXACT = {
    "fit_paper": {"svm.points_first": 40.0, "curves.smooth_calls": 40.0, "dataio.read_s": 0.0,
                  "model.default_bundle_builds": 0.0, "cli.main_s": 0.0},
    "fit_large": {"svm.points_first": 100.0, "curves.smooth_calls": 100.0, "dataio.read_s": 0.0},
    "predict_screen": {"model.default_bundle_builds": 3.0, "linalg.solve_calls": 0.0,
                       "svm.train_first_s": 0.0, "dataio.read_s": 0.0},
    "cli_session": {"svm.points_first": 40.0, "model.default_bundle_builds": 1.0},
}
LAYER_POSITIVE = {
    "fit_paper": ("svm.train_second_s", "linalg.solve_calls", "model.fit_self_s", "pca.screen_s"),
    "fit_large": ("svm.train_second_s", "regression.rows", "curves.self_s"),
    "predict_screen": ("model.classify_s", "model.predict_curve_s", "model.self_s"),
    "cli_session": ("dataio.read_s", "dataio.bytes_written", "cli.main_s", "cli.import_s"),
}


def bench(workload: str, trace: int) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.splitlines()


def test_spec_matches_the_benchmark():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (name, cls.why) for name, cls in workloads.WORKLOADS.items()]
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (name, tracing.layer_unit(name)) for name in tracing.PER_LAYER]
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("workload", list(NAMED))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    code, lines = bench(workload, trace)
    assert code == 0, lines[-3:]
    result = json.loads(lines[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())

    printed = {}
    for line in lines[:-2]:
        name, _, rest = line.partition(" = ")
        value, _, unit = rest.partition(" ")
        printed[name.split(" ")[-1]] = unit
    expected = {"setup_s": "s", "fail_ratio": "ratio"}
    if not trace:
        expected.update(NAMED[workload])
    assert expected.items() <= printed.items()

    report = json.loads(lines[-2].removeprefix("report "))
    environment = set(report["environment"])
    assert {"nproc", "python", "numpy", "blas", "thread_env", "commit"} <= environment
    assert report["digests"]

    if trace:
        values = {k: m["value"] for k, m in result["metrics"].items()}
        assert LAYER_EXACT[workload].items() <= values.items()
        assert all(values[name] > 0 for name in LAYER_POSITIVE[workload])


@pytest.fixture
def fitted(tmp_path):
    ds = dataio.generate_synthetic(workloads.PAPER_COUNTS, noise=workloads.NOISE, seed=5)
    return ds, model.fit_pipeline(ds.pairs, model.PipelineConfig()), tmp_path


def test_fit_check_accepts_a_good_bundle(fitted):
    ds, bundle, tmp = fitted
    digest, problems = workloads.check_fit(bundle, ds, tmp / "b.json")
    assert problems == [] and len(digest) == 64


def test_fit_check_rejects_tampered_coefficients(fitted):
    ds, bundle, tmp = fitted
    models = dict(bundle.models)
    ll = models[workloads.GroupLabel.LL]
    models[workloads.GroupLabel.LL] = replace(ll, coefficients=ll.coefficients * 1.5)
    _, problems = workloads.check_fit(replace(bundle, models=models), ds, tmp / "b.json")
    assert any("coefficients" in p for p in problems)


def test_fit_check_rejects_wrong_assignments(fitted):
    ds, bundle, tmp = fitted
    mid = next(iter(ds.labels))
    assignments = dict(bundle.diagnostics.assignments)
    assignments[mid] = workloads.GroupLabel.HN if ds.labels[mid] is not workloads.GroupLabel.HN \
        else workloads.GroupLabel.LL
    diag = replace(bundle.diagnostics, assignments=assignments)
    _, problems = workloads.check_fit(replace(bundle, diagnostics=diag), ds, tmp / "b.json")
    assert problems == ["1 of 40 cluster assignments differ from the generator"]


@pytest.fixture
def session(tmp_path):
    wl = workloads.CliSession(seed=4, workdir=tmp_path, tiny=True)
    wl.setup()
    outcome = wl.run_traceable(0)
    assert wl.check(0, outcome) == []
    return wl, outcome


def test_cli_check_rejects_truncated_curves(session):
    wl, outcome = session
    curves = wl.workdir / "curves.csv"
    curves.write_text("".join(curves.read_text().splitlines(keepends=True)[:-1]))
    problems = wl.check(0, outcome)
    assert problems and "curves.csv has" in problems[0]


def test_cli_check_rejects_a_tampered_bundle(session):
    wl, outcome = session
    fitted = wl.workdir / outcome["fitted"]
    doc = json.loads(fitted.read_text())
    doc["boundary_second"]["bias"] += 1e-9
    fitted.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    assert any("differs from an in-process fit" in p for p in wl.check_bundle(0, fitted))


def test_cli_check_rejects_a_failed_step(session):
    wl, outcome = session
    outcome["steps"][1] = (0.1, 3, "")
    assert wl.check(0, outcome) == ["step 1 exited 3"]


def test_corrupted_predictions_fail_the_command(monkeypatch, capsys):
    original = model.predict_curve

    def perturbed(*args, **kwargs):
        series = original(*args, **kwargs)
        t, e = series.samples[-1]
        return replace(series, samples=series.samples[:-1] + ((t, e * (1 + 1e-11)),))

    monkeypatch.setattr(model, "predict_curve", perturbed)
    code = run.main(["--workload", "predict_screen", "--seed", "2", "--seconds", "0.2", "--tiny"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for name in ("run.py", "tracing.py", "workloads.py"):
        (tmp_path / "bench" / name).write_text((ROOT / "bench" / name).read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "fit_paper", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0 and proc.stdout == ""
