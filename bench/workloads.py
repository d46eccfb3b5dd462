"""The benchmark's four workloads: seeded inputs, one operation, output checks.

Every workload generates its inputs during set-up with
``generate_synthetic`` (and, for the CLI session, ``write_mixtures`` /
``write_series``), so the program only ever sees generated data. An
operation calls the program through module attributes (``model.fit_pipeline``,
``cli.main``, ...) so that the traced run's wrappers see it.

Each ``check_*`` function returns a list of problems; an empty list means
the output is correct.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from sulfexp import cli, dataio, model
from sulfexp.errors import NumericalError
from sulfexp.mixtures import GroupLabel

#: the paper's coefficients, which the generator uses as ground truth
REFERENCE = {
    GroupLabel.LL: (0.0157, 0.0305),
    GroupLabel.ML: (0.0293, 0.000975, 0.0216),
    GroupLabel.HN: (11.20, -5.68, -3.66),
}
#: Largest relative coefficient error accepted at n = 40 and 3 % noise. The
#: worst error seen over 20 seeded datasets was 6.5 % (the ML C3A*T term).
COEF_REL_TOL = 0.15
#: independent curve evaluation and the failure-time inversion must agree
#: with the program to this relative error
CURVE_REL_TOL = 1e-12
NOISE = 0.03
PAPER_COUNTS = (12, 16, 12)
LARGE_COUNTS = (390, 520, 390)
HORIZON = 40
STEP = 1
GRID = np.arange(0, HORIZON + STEP, STEP, dtype=float)
CLI_TIMEOUT_S = 60


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_fit(bundle, dataset, path: Path) -> tuple[str, list[str]]:
    """Check one fitted bundle against its generator; return its digest.

    Cluster assignments must equal the generator's labels, every
    coefficient must be within ``COEF_REL_TOL`` of the reference, and
    ``save_bundle`` -> ``load_bundle`` must round-trip equal.
    """
    problems = []
    assignments = bundle.diagnostics.assignments
    wrong = sum(assignments.get(mid) is not label for mid, label in dataset.labels.items())
    if wrong:
        problems.append(
            f"{wrong} of {len(dataset.labels)} cluster assignments differ from the generator")
    for group, expected in REFERENCE.items():
        got = bundle.models[group].coefficients
        err = np.abs((got - np.array(expected)) / np.array(expected)).max()
        if not err <= COEF_REL_TOL:
            problems.append(f"group {group} coefficients {got.tolist()} off by {err:.3f}")
    dataio.save_bundle(bundle, path)
    if dataio.load_bundle(path) != bundle:
        problems.append("bundle does not round-trip through save_bundle/load_bundle")
    return sha256(path.read_bytes()), problems


class Workload:
    """One set of inputs and the operation the benchmark repeats on them.

    ``setup`` generates the inputs, ``operations`` lists the operation keys
    the timed loop cycles through, ``trace_operations`` the fixed cycle a
    traced run repeats. ``run`` performs one operation and returns an
    outcome dict with at least ``mixtures``, ``units`` (the fits,
    candidates or sessions that per-layer metrics are divided by),
    ``attempted`` and ``failed`` (fits, candidates or CLI processes);
    ``check`` returns the outcome's problems and adds its ``digest``.
    """

    name = ""
    why = ""

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny

    def setup(self) -> None:
        raise NotImplementedError

    def operations(self) -> list:
        raise NotImplementedError

    def trace_operations(self) -> list:
        return self.operations()

    def run(self, op) -> dict:
        raise NotImplementedError

    def run_traceable(self, op) -> dict:
        """The in-process form of ``run`` that a traced run pairs up."""
        return self.run(op)

    def named_metrics(self, times: list[float], outcomes: list[dict]) -> dict:
        """The workload's own end-to-end figures as {name: (value, unit)}."""
        raise NotImplementedError

    def extra_layer_metrics(self) -> dict[str, float]:
        """Per-layer figures measured outside the spans, for traced runs."""
        return {}


class FitWorkload(Workload):
    #: (counts per group, datasets the timed loop cycles through, datasets
    #: in the trace cycle), at full and at tiny size
    SIZES: dict[bool, tuple[tuple[int, int, int], int, int]] = {}

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        self.counts, self.n_datasets, self.n_trace = self.SIZES[tiny]

    def setup(self):
        self.datasets = [
            dataio.generate_synthetic(self.counts, noise=NOISE, seed=self.seed * 1000 + i)
            for i in range(self.n_datasets)
        ]
        warm = dataio.generate_synthetic(PAPER_COUNTS, noise=NOISE, seed=self.seed * 1000 + 999)
        model.fit_pipeline(warm.pairs, model.PipelineConfig())

    def operations(self):
        return list(range(self.n_datasets))

    def trace_operations(self):
        return list(range(self.n_trace))

    def run(self, op):
        dataset = self.datasets[op]
        bundle = model.fit_pipeline(dataset.pairs, model.PipelineConfig())
        return {"bundle": bundle, "mixtures": len(dataset.pairs), "units": 1,
                "attempted": 1, "failed": 0}

    def check(self, op, outcome):
        digest, problems = check_fit(outcome.pop("bundle"), self.datasets[op],
                                     self.workdir / "bundle.json")
        outcome["digest"] = digest
        outcome["digest_key"] = f"{self.name}/{self.seed * 1000 + op}"
        return problems

    def named_metrics(self, times, outcomes):
        mixtures = sum(o["mixtures"] for o in outcomes)
        return {
            "fit_p50_s": (float(np.median(times)), "s"),
            "fit_mixtures_per_s": (mixtures / sum(times), "mixtures/s"),
        }


class FitPaper(FitWorkload):
    name = "fit_paper"
    why = ("many n=40 refits (paper scale, 3% noise); fixed per-fit costs dominate: "
           "SVM warm-up, k-means restarts, PCA")
    SIZES = {False: (PAPER_COUNTS, 96, 4), True: (PAPER_COUNTS, 2, 1)}


class FitLarge(FitWorkload):
    name = "fit_large"
    why = ("a few n=1300 refits; per-mixture and per-sample work dominates: "
           "SVM line search, smoothing and design-row loops, OLS")
    SIZES = {False: (LARGE_COUNTS, 8, 1), True: ((30, 40, 30), 1, 1)}


def reference_curves(mixtures: list) -> dict[GroupLabel, np.ndarray]:
    """The three paper equations evaluated with numpy on the 41-point grid."""
    wc = np.array([m.wc for m in mixtures])[:, None]
    c3a = np.array([m.c3a for m in mixtures])[:, None]
    cc = np.array([m.cement_content for m in mixtures])[:, None]
    t = GRID[None, :]
    return {
        GroupLabel.LL: 0.0157 * (wc * t) + 0.0305,
        GroupLabel.ML: 0.0293 * (wc * t) + 0.000975 * (c3a * t) + 0.0216,
        GroupLabel.HN: np.exp(11.20 * (cc * t) - 5.68 * t - 3.66),
    }


def check_predictions(mixtures, labels, references, results) -> list[str]:
    """Check (group, curve, failure time) triples against the generator and the paper.

    ``results[i]`` belongs to ``mixtures[i]``; ``references`` are the rows
    of :func:`reference_curves` for the same mixtures.
    """
    problems = []
    for i, (mix, (group, curve, t_fail)) in enumerate(zip(mixtures, results)):
        if group is not labels[mix.id] or curve.group != group.value:
            problems.append(f"{mix.id}: group {group}, generator region {labels[mix.id]}")
            continue
        times = np.array([t for t, _ in curve.samples])
        values = np.array([e for _, e in curve.samples])
        expected = references[group][i]
        if times.shape != GRID.shape or not np.array_equal(times, GRID):
            problems.append(f"{mix.id}: curve has {times.size} grid points, expected {GRID.size}")
        elif not np.all(np.abs(values - expected) <= CURVE_REL_TOL * np.abs(expected)):
            problems.append(f"{mix.id}: curve differs from the paper's {group} equation")
        if t_fail is not None:
            at_fail = model.predict_expansion(mix, group, t=t_fail)
            if not abs(at_fail - 0.5) <= CURVE_REL_TOL * 0.5:
                problems.append(f"{mix.id}: expansion {at_fail!r} at failure time, expected 0.5")
    return problems


class PredictScreen(Workload):
    name = "predict_screen"
    why = ("3000 candidates, equal thirds HN/ML/LL, README quick-start calls with the default "
           "bundle; model evaluation only, no fitting layer, no file")

    def setup(self):
        n = 30 if self.tiny else 3000
        self.batch = 10 if self.tiny else 50
        third = n // 3
        generated = dataio.generate_synthetic((third,) * 3, noise=0.0, seed=self.seed)
        mixtures = [m for m, _ in generated.pairs]
        # interleave the three regions so that every batch costs about the same
        self.mixtures = [mixtures[k + g * third] for k in range(third) for g in range(3)]
        self.labels = generated.labels
        self.references = reference_curves(self.mixtures)
        self.run(0)

    def operations(self):
        return list(range(0, len(self.mixtures), self.batch))

    def run(self, op):
        results = []
        failed = 0
        for mix in self.mixtures[op: op + self.batch]:
            try:
                group = model.classify_mixture(mix)
                curve = model.predict_curve(mix, horizon=HORIZON, step=STEP)
                try:
                    t_fail = model.predicted_failure_time(mix)
                except NumericalError:
                    t_fail = None
            except Exception:
                failed += 1
                continue
            results.append((group, curve, t_fail))
        n = len(results) + failed
        return {"results": results, "mixtures": n, "units": n, "attempted": n, "failed": failed}

    def check(self, op, outcome):
        results = outcome.pop("results")
        batch = self.mixtures[op: op + self.batch]
        if outcome["failed"]:
            return [f"batch at {op}: {outcome['failed']} candidate(s) raised"]
        refs = {g: r[op: op + len(batch)] for g, r in self.references.items()}
        text = repr([(g.value, c.samples, t) for g, c, t in results]).encode()
        outcome["digest"] = sha256(text)
        outcome["digest_key"] = f"{self.name}/batch{op}"
        return check_predictions(batch, self.labels, refs, results)

    def named_metrics(self, times, outcomes):
        candidates = sum(o["mixtures"] for o in outcomes)
        out = {
            "predict_mixtures_per_s": (candidates / sum(times), "mixtures/s"),
            "predict_batch_p50_s": (float(np.median(times)), "s"),
            "predict_batch_samples": (len(times), "count"),
        }
        # p90 only when at least ten batches lie beyond it
        if len(times) >= 100:
            out["predict_batch_p90_s"] = (float(np.percentile(times, 90)), "s")
        return out


def table_rows(stdout: str) -> list[list[str]]:
    """Data rows of a CLI table: the lines after the header and dash lines."""
    return [line.split() for line in stdout.splitlines()[2:] if line.strip()]


def check_cli_outputs(one_label: GroupLabel, n_candidates: int, classify_out: str,
                      predict_out: str, curves_csv: Path) -> list[str]:
    """Check one session's classify table, predict table and plot file."""
    problems = []
    rows = table_rows(classify_out)
    if len(rows) != 1:
        problems.append(f"classify printed {len(rows)} rows for a one-row table")
    elif rows[0][1] != one_label.value:
        problems.append(f"classify reported group {rows[0][1]}, generator region {one_label}")
    predicted = len(table_rows(predict_out))
    if predicted != n_candidates:
        problems.append(f"predict printed {predicted} rows for {n_candidates} candidates")
    lines = len(curves_csv.read_bytes().splitlines()) if curves_csv.exists() else 0
    if lines != n_candidates * GRID.size + 1:
        problems.append(f"{curves_csv.name} has {lines} lines, expected "
                        f"{n_candidates * GRID.size + 1}")
    return problems


class CliSession(Workload):
    name = "cli_session"
    why = ("scripted engineer session of fresh CLI processes: classify one row, fit n=40 "
           "from CSV, predict with that bundle; process start, parsing, file output")

    def setup(self):
        wd = self.workdir
        self.n_candidates = 30 if self.tiny else 1200
        n_datasets = 1 if self.tiny else 12
        self.datasets = []
        self.manifests = []
        for i in range(n_datasets):
            ds = dataio.generate_synthetic(PAPER_COUNTS, noise=NOISE, seed=self.seed * 1000 + i)
            dataio.write_mixtures([m for m, _ in ds.pairs], wd / f"mixtures{i}.csv")
            dataio.write_series([s for _, s in ds.pairs], wd / f"series{i}.csv")
            (wd / f"manifest{i}.json").write_text(json.dumps(
                {"mixtures_path": f"mixtures{i}.csv", "series_path": f"series{i}.csv"}))
            self.datasets.append(ds)
            self.manifests.append(wd / f"manifest{i}.json")
        third = self.n_candidates // 3
        candidates = dataio.generate_synthetic((third,) * 3, noise=0.0, seed=self.seed + 1)
        dataio.write_mixtures([m for m, _ in candidates.pairs], wd / "candidates.csv")
        one = candidates.pairs[0][0]
        self.one_label = candidates.labels[one.id]
        dataio.write_mixtures([one], wd / "one.csv")
        self.env = dict(os.environ)
        self.env.pop("SULFEXP_SEED", None)
        src = str(Path(cli.__file__).resolve().parents[1])
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.verified: set[int] = set()
        self._process(["-m", "sulfexp.cli", "classify", "one.csv"])

    def operations(self):
        return list(range(len(self.manifests)))

    def trace_operations(self):
        return [0]

    def _argv(self, op, fitted: str):
        return [
            ["classify", "one.csv"],
            ["fit", self.manifests[op].name, "--out", fitted],
            ["predict", "candidates.csv", "--bundle", fitted, "--out", "curves.csv"],
        ]

    def _process(self, args: list[str]) -> tuple[float, int, str]:
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, *args], cwd=self.workdir, env=self.env,
                                  capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - start, -1, ""
        return time.perf_counter() - start, proc.returncode, proc.stdout

    def run(self, op):
        fitted = f"fitted{op}.json"
        steps = [self._process(["-m", "sulfexp.cli", *argv]) for argv in self._argv(op, fitted)]
        return self._outcome(op, fitted, steps)

    def run_traceable(self, op):
        fitted = f"fitted{op}-inprocess.json"
        steps = []
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            for argv in self._argv(op, fitted):
                out = io.StringIO()
                start = time.perf_counter()
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
                steps.append((time.perf_counter() - start, code, out.getvalue()))
        finally:
            os.chdir(cwd)
        return self._outcome(op, fitted, steps)

    def _outcome(self, op, fitted, steps):
        return {"steps": steps, "fitted": fitted, "units": 1,
                "mixtures": 1 + len(self.datasets[op].pairs) + self.n_candidates,
                "attempted": len(steps), "failed": sum(code != 0 for _, code, _ in steps)}

    def check(self, op, outcome):
        steps = outcome["steps"]
        problems = [f"step {i} exited {code}" for i, (_, code, _) in enumerate(steps) if code != 0]
        if problems:
            return problems
        problems += check_cli_outputs(self.one_label, self.n_candidates, steps[0][2],
                                      steps[2][2], self.workdir / "curves.csv")
        fitted = self.workdir / outcome["fitted"]
        outcome["digest"] = sha256(fitted.read_bytes())
        outcome["digest_key"] = f"{self.name}/{self.seed * 1000 + op}"
        if op not in self.verified:
            problems += self.check_bundle(op, fitted)
            self.verified.add(op)
        return problems

    def check_bundle(self, op, fitted: Path) -> list[str]:
        """The CLI's bundle must equal an in-process fit of the same files."""
        pairs = dataio.load_dataset(dataio.load_manifest(self.manifests[op]))
        bundle = model.fit_pipeline(pairs, model.PipelineConfig())
        digest, problems = check_fit(bundle, self.datasets[op], self.workdir / "inprocess.json")
        if digest != sha256(fitted.read_bytes()):
            problems.append(f"{fitted.name} differs from an in-process fit of the same files")
        return problems

    def named_metrics(self, times, outcomes):
        steps = [o["steps"] for o in outcomes]
        return {
            "cli_start_s": (float(np.median([s[0][0] for s in steps])), "s"),
            "cli_fit_s": (float(np.median([s[1][0] for s in steps])), "s"),
            "cli_predict_s": (float(np.median([s[2][0] for s in steps])), "s"),
        }

    def extra_layer_metrics(self):
        """Median bare interpreter start, and ``import sulfexp.cli`` on top of it."""
        repeats = 1 if self.tiny else 5
        bare = [self._process(["-c", "pass"])[0] for _ in range(repeats)]
        imported = [self._process(["-c", "import sulfexp.cli"])[0] for _ in range(repeats)]
        interpreter = float(np.median(bare))
        return {"cli.interpreter_s": interpreter,
                "cli.import_s": float(np.median(imported)) - interpreter}


WORKLOADS = {w.name: w for w in (FitPaper, FitLarge, PredictScreen, CliSession)}
