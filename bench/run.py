"""Benchmark of sulfexp: refit, screening and CLI workloads.

Run from the repository root, for one workload at a time::

    python3 bench/run.py --workload fit_paper --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``fit_paper``, ``fit_large``,
``predict_screen`` and ``cli_session``. Each is one process, closed loop,
one operation at a time: a fit, a batch of candidates, or a CLI session of
three fresh processes. Inputs come from ``--seed``; set-up (generation and
a warm-up, repeated three times) is excluded from the timed loop, which
cycles through the operations for ``--seconds``. Every operation's output
is checked; a failed check counts as a failed operation and makes the
command exit 1.

With ``--trace 0`` the last line's metrics are the end-to-end ones:

* ``mixtures_per_s``: mixtures handled per second of operation time
  (fitted, screened, or classified + fitted + predicted through the CLI);
* ``setup_s``: import time plus the median of three set-ups.

Medians are printed on the lines before it but are not gated: the time of
one n = 40 fit ranges over 0.08-0.39 s by dataset, so the median of a
run's ~100 fits moves with the seed far more than their mean does.

With ``--trace 1`` the run installs the span wrappers of ``tracing.py`` and
reports the per-layer metrics instead, each per unit of work: per fit,
per candidate, or per CLI session. It runs every operation of a fixed
cycle once without and once with the wrappers, in alternating order, and
requires both to produce the same digest; ``trace.overhead_s`` is the
traced minus the untraced time. The CLI session runs in-process through
``cli.main`` here, so that its layers can be traced.

Lines before the last one list every metric with its unit, including each
workload's own figures (``fit_p50_s``, ``cli_start_s``, ...) and
``fail_ratio``, then a ``report`` line of JSON with the environment, the
bundle digests and any problems found.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
MAX_REPORTED_PROBLEMS = 20


def import_program():
    """Import sulfexp from this checkout's ``src``, or exit 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import sulfexp
    except ImportError as exc:
        sys.exit(f"cannot import sulfexp from {src}: {exc}")
    if Path(sulfexp.__file__).resolve().parent != src / "sulfexp":
        sys.exit(f"sulfexp was imported from {sulfexp.__file__}, not from {src}")


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if "THREAD" in k},
        "commit": git_commit(),
    }


class Tally:
    """Operations attempted and failed, problems, and digests of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}

    def record(self, workload, op, outcome: dict | None, error: Exception | None) -> None:
        """Check one operation's outcome and count it.

        Every repeat of an input, traced or not, must give the digest its
        first run gave.
        """
        if outcome is None:
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"operation {op!r} raised {type(error).__name__}: {error}")
            return
        problems = workload.check(op, outcome)
        key, digest = outcome.get("digest_key"), outcome.get("digest")
        if key is not None and self.digests.setdefault(key, digest) != digest:
            problems.append(f"{key}: digest differs from an earlier run of the same input")
        self.attempted += outcome["attempted"]
        self.failed += max(outcome["failed"], min(len(problems), outcome["attempted"]))
        self.problems += problems


def attempt(run, op):
    try:
        return run(op), None
    except Exception as exc:  # counted as a failed operation and reported
        return None, exc


def measure(workload, seconds: float, tally: Tally):
    """Cycle through the workload's operations for ``seconds``, untraced."""
    ops = workload.operations()
    times, outcomes = [], []
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        op = ops[i % len(ops)]
        i += 1
        t0 = time.perf_counter()
        outcome, error = attempt(workload.run, op)
        times.append(time.perf_counter() - t0)
        tally.record(workload, op, outcome, error)
        if outcome is not None:
            outcomes.append(outcome)
    return times, outcomes


def measure_traced(workload, seconds: float, tally: Tally):
    """Run the trace cycle, each operation untraced and traced, for ``seconds``.

    Only whole cycles run, so per-operation counts repeat exactly for a
    seed. The order alternates between operations so that neither side
    always runs on warm caches. Returns the tracer and the summed untraced
    and traced times.
    """
    from tracing import Tracer

    tracer = Tracer()
    cycle = workload.trace_operations()
    totals = {False: 0.0, True: 0.0}
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        for j, op in enumerate(cycle):
            order = (False, True) if (rounds + j) % 2 == 0 else (True, False)
            for traced in order:
                t0 = time.perf_counter()
                if traced:
                    with tracer.installed(), tracer.operation():
                        outcome, error = attempt(workload.run_traceable, op)
                else:
                    outcome, error = attempt(workload.run_traceable, op)
                totals[traced] += time.perf_counter() - t0
                if traced and outcome is not None:
                    tracer.units += outcome["units"]
                tally.record(workload, op, outcome, error)
        rounds += 1
    return tracer, totals


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input, for the benchmark's own tests")
    args = parser.parse_args(argv)

    import_program()
    from tracing import PER_LAYER, layer_unit
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _START

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            workload = WORKLOADS[args.workload](args.seed, workdir, args.tiny)
            t0 = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setups)

        tally = Tally()
        named = {"setup_s": (setup_s, "s")} if args.trace else {}
        report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "tiny": args.tiny, "environment": environment(),
                  "setup_repeats_s": setups, "import_s": import_s}
        if args.trace:
            tracer, totals = measure_traced(workload, args.seconds, tally)
            metrics = tracer.per_unit()
            metrics.update(workload.extra_layer_metrics())
            metrics["trace.overhead_s"] = (totals[True] - totals[False]) / max(tracer.units, 1)
            final = {name: {"value": metrics[name], "unit": layer_unit(name)}
                     for name in PER_LAYER}
            report["traced_units"] = tracer.units
            report["untraced_total_s"] = totals[False]
            report["traced_total_s"] = totals[True]
        else:
            times, outcomes = measure(workload, args.seconds, tally)
            named.update(workload.named_metrics(times, outcomes) if outcomes else {})
            mixtures = sum(o["mixtures"] for o in outcomes)
            final = {
                "mixtures_per_s": {"value": mixtures / sum(times), "unit": "mixtures/s"},
                "setup_s": {"value": setup_s, "unit": "s"},
            }
            report["operations"] = len(times)
        named["fail_ratio"] = (tally.failed / tally.attempted, "ratio")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    correct = tally.failed == 0
    report.update(attempted=tally.attempted, failed=tally.failed,
                  problems=tally.problems[:MAX_REPORTED_PROBLEMS], digests=tally.digests)
    for name, (value, unit) in named.items():
        print(f"{args.workload} {name} = {value!r} {unit}")
    for name, m in final.items():
        print(f"{args.workload} {name} = {m['value']!r} {m['unit']}")
    print(f"{args.workload} attempted = {tally.attempted}, failed = {tally.failed}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": final}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
