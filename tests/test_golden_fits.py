"""Golden-fit guard: the pipeline reproduces stored fits exactly.

``golden_fits.json`` holds, per generated dataset and fit configuration
(the default one, raw-curve features, data-driven roles and the partial
bundle of ``k=2``), the input hash, the
sha256 of the saved bundle and the ``repr`` of every fitted number. A
change that moves any of them on purpose regenerates the file with
``tests/regen_golden.py`` and documents the printed drift table.
"""

import json

import pytest

import regen_golden

GOLDEN = json.loads(regen_golden.GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_file_covers_every_dataset():
    keys = {regen_golden.dataset_key(*entry) for entry in regen_golden.ENTRIES}
    assert set(GOLDEN) == keys


@pytest.mark.parametrize(
    "counts,seed,config", regen_golden.ENTRIES,
    ids=[regen_golden.dataset_key(*entry) for entry in regen_golden.ENTRIES],
)
def test_fit_matches_golden(counts, seed, config):
    stored = GOLDEN[regen_golden.dataset_key(counts, seed, config)]
    fresh = regen_golden.snapshot(counts, seed, config)
    if fresh["dataset_hash"] != stored["dataset_hash"]:
        pytest.fail(
            f"the generator moved: input hash {fresh['dataset_hash']} != stored "
            f"{stored['dataset_hash']}; the fit was not compared"
        )
    assert fresh["assignments"] == stored["assignments"]
    assert fresh["coefficients"] == stored["coefficients"]
    assert fresh["boundaries"] == stored["boundaries"]
    assert fresh["bundle_sha256"] == stored["bundle_sha256"]
