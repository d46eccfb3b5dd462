"""Fuzzed input boundary of ``sulfexp fit``: mutated tables never crash the CLI.

Each example writes a small generated mixtures/series table pair, mutates
some cells (empty, ``nan``, ``inf``, ``1e308``, negative times, duplicate
timestamps), cuts series to 0, 1 or 2 samples and blanks fields on HN, ML
and LL rows, then runs ``cli.main(["fit", ...])``. The documented exit
codes are 0, 2 and 3; no exception may escape ``main`` and no warning may
be raised (warnings are errors here), so stderr holds at most the one
error line.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sulfexp.cli import main
from sulfexp.dataio import generate_synthetic, write_mixtures, write_series
from sulfexp.mixtures import MIXTURE_FIELDS, GroupLabel

COUNTS = (4, 5, 4)
DATASETS = {seed: generate_synthetic(COUNTS, noise=0.03, seed=seed) for seed in range(3)}
CELLS = ("", "nan", "inf", "-inf", "1e308", "-1e308", "-1", "0")

cell_edit = st.tuples(st.just("series-cell"), st.integers(0, 10_000), st.sampled_from((1, 2)),
                      st.sampled_from(CELLS))
field_edit = st.tuples(st.just("mixture-cell"), st.integers(0, 10_000),
                       st.integers(1, len(MIXTURE_FIELDS)), st.sampled_from(CELLS))
missing_field = st.tuples(st.just("missing-field"), st.sampled_from(list(GroupLabel)),
                          st.integers(0, 10_000), st.integers(1, len(MIXTURE_FIELDS)))
duplicate_time = st.tuples(st.just("duplicate-time"), st.integers(0, 10_000))
cut_series = st.tuples(st.just("cut"), st.integers(0, 10_000), st.sampled_from((0, 1, 2)))
mutations = st.lists(st.one_of(cell_edit, field_edit, missing_field, duplicate_time, cut_series),
                     min_size=1, max_size=4)


def set_cell(line: str, col: int, value: str) -> str:
    cells = line.split(",")
    cells[col] = value
    return ",".join(cells)


def mutate(ds, mixture_lines: list[str], series_lines: list[str], edits) -> None:
    """Apply ``edits`` in place to the data lines (no header) of both tables."""
    ids = [mix.id for mix, _ in ds.pairs]
    for edit in edits:
        kind = edit[0]
        if kind == "series-cell" and series_lines:
            _, row, col, value = edit
            row %= len(series_lines)
            series_lines[row] = set_cell(series_lines[row], col, value)
        elif kind == "mixture-cell":
            _, row, col, value = edit
            row %= len(mixture_lines)
            mixture_lines[row] = set_cell(mixture_lines[row], col, value)
        elif kind == "missing-field":
            _, group, pick, col = edit
            rows = [i for i, mid in enumerate(ids) if ds.labels[mid] is group]
            row = rows[pick % len(rows)]
            mixture_lines[row] = set_cell(mixture_lines[row], col, "")
        elif kind == "duplicate-time" and len(series_lines) > 1:
            row = 1 + edit[1] % (len(series_lines) - 1)
            previous = series_lines[row - 1].split(",")[1]
            series_lines[row] = set_cell(series_lines[row], 1, previous)
        elif kind == "cut":
            _, pick, keep = edit
            mid = ids[pick % len(ids)]
            rows = [i for i, line in enumerate(series_lines) if line.split(",")[0] == mid]
            for i in reversed(rows[keep:]):
                del series_lines[i]


@settings(max_examples=150, deadline=None)
@given(seed=st.sampled_from(sorted(DATASETS)), edits=mutations)
# finite normal equations whose OLS solution overflows a float
@example(seed=0, edits=[("series-cell", 301, 2, "-1e308")])
def test_mutated_tables_exit_0_2_or_3_without_traceback_or_warning(seed, edits):
    ds = DATASETS[seed]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_mixtures([m for m, _ in ds.pairs], root / "mixtures.csv")
        write_series([s for _, s in ds.pairs], root / "series.csv")
        tables = {}
        for name in ("mixtures.csv", "series.csv"):
            header, *lines = (root / name).read_text().splitlines()
            tables[name] = (header, lines)
        mutate(ds, tables["mixtures.csv"][1], tables["series.csv"][1], edits)
        for name, (header, lines) in tables.items():
            (root / name).write_text("\n".join([header, *lines]) + "\n")
        (root / "manifest.json").write_text(json.dumps(
            {"mixtures_path": "mixtures.csv", "series_path": "series.csv"}))

        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error")
            code = main(["fit", str(root / "manifest.json"), "--out", str(root / "b.json")])
    assert code in (0, 2, 3)
    text = err.getvalue()
    assert "Traceback" not in text and "Warning" not in text
    assert len(text.splitlines()) == (0 if code == 0 else 1)
