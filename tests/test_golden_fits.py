"""Golden-fit guard: the default pipeline reproduces stored fits exactly.

``golden_fits.json`` holds, per generated dataset, the input hash, the
sha256 of the saved bundle and the ``repr`` of every fitted number. A
change that moves any of them on purpose regenerates the file with
``tests/regen_golden.py`` and documents the printed drift table.
"""

import json

import pytest

import regen_golden

GOLDEN = json.loads(regen_golden.GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_file_covers_every_dataset():
    keys = {regen_golden.dataset_key(counts, seed) for counts, seed in regen_golden.DATASETS}
    assert set(GOLDEN) == keys


@pytest.mark.parametrize(
    "counts,seed", regen_golden.DATASETS,
    ids=[regen_golden.dataset_key(c, s) for c, s in regen_golden.DATASETS],
)
def test_fit_matches_golden(counts, seed):
    stored = GOLDEN[regen_golden.dataset_key(counts, seed)]
    fresh = regen_golden.snapshot(counts, seed)
    if fresh["dataset_hash"] != stored["dataset_hash"]:
        pytest.fail(
            f"the generator moved: input hash {fresh['dataset_hash']} != stored "
            f"{stored['dataset_hash']}; the fit was not compared"
        )
    assert fresh["assignments"] == stored["assignments"]
    assert fresh["coefficients"] == stored["coefficients"]
    assert fresh["boundaries"] == stored["boundaries"]
    assert fresh["bundle_sha256"] == stored["bundle_sha256"]
