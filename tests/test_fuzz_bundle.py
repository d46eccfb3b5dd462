"""Fuzzed bundle files: one field replaced or deleted never crashes the CLI.

Each example takes a saved bundle (the default one, or one fitted on a
small generated dataset), replaces one field anywhere in its JSON tree
with another JSON value or deletes it, and runs ``cli.main`` with
``classify`` and ``predict`` on one HN, one ML and one LL mixture. The
documented exit codes are 0, 2 and 3; no exception may escape ``main`` and
no warning may be raised (warnings are errors here), so stderr holds at
most the one error line.
"""

import contextlib
import copy
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sulfexp.cli import main
from sulfexp.dataio import generate_synthetic, save_bundle
from sulfexp.model import PipelineConfig, default_bundle, fit_pipeline

MIXTURES = ("id,wc,c3a,c3s,c2s,c4af,cement_content,air\n"
            "hn,0.5,10.0,40,,,0.6,\nml,0.53,6.0,40,,,,\nll,0.42,4.0,30,,,,\n")


def saved_doc(bundle) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        save_bundle(bundle, Path(tmp) / "b.json")
        return json.loads((Path(tmp) / "b.json").read_text())


DOCS = (
    saved_doc(default_bundle()),
    saved_doc(fit_pipeline(generate_synthetic((5, 6, 5), noise=0.01, seed=17).pairs,
                           PipelineConfig())),
)


def paths(node, prefix=()):
    """The key path of every field below ``node``, lists' elements included."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


PATHS = tuple(tuple(paths(doc)) for doc in DOCS)
scalars = (st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3)
           | st.floats(allow_nan=False, allow_infinity=False))
json_values = st.recursive(
    scalars, lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=2), max_leaves=4)


@settings(max_examples=300, deadline=None)
@given(which=st.sampled_from(range(len(DOCS))), pick=st.integers(0, 10_000),
       delete=st.booleans(), value=json_values)
# a scalar, and a column, where the default bundle's ML coefficients were
@example(which=0, pick=PATHS[0].index(("models", "ML", "coefficients")), delete=False, value=1.5)
@example(which=0, pick=PATHS[0].index(("models", "ML", "coefficients")), delete=False,
         value=[[0.0293], [0.000975], [0.0216]])
# a second-boundary weight whose decision values overflow a float
@example(which=0, pick=PATHS[0].index(("boundary_second", "weights", 0)), delete=False,
         value=1e308)
def test_one_field_replaced_or_deleted_exits_0_2_or_3(which, pick, delete, value):
    doc = copy.deepcopy(DOCS[which])
    *parents, key = PATHS[which][pick % len(PATHS[which])]
    node = doc
    for step in parents:
        node = node[step]
    if delete:
        del node[key]
    else:
        node[key] = value

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "bundle.json").write_text(json.dumps(doc))
        (root / "mixtures.csv").write_text(MIXTURES)
        for command in ("classify", "predict"):
            err = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("error")
                code = main([command, str(root / "mixtures.csv"),
                             "--bundle", str(root / "bundle.json")])
            assert code in (0, 2, 3)
            text = err.getvalue()
            assert "Traceback" not in text and "Warning" not in text
            assert len(text.splitlines()) == (0 if code == 0 else 1)
