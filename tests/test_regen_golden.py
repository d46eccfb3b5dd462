"""The drift report of ``regen_golden.py``: scheme tags and change counts."""

import copy
import json

import regen_golden

GOLDEN = json.loads(regen_golden.GOLDEN_PATH.read_text(encoding="utf-8"))


def test_hash_scheme_reads_the_tag():
    assert regen_golden.hash_scheme("b2:0123456789abcdef") == "b2"
    assert regen_golden.hash_scheme("0123456789abcdef") == "untagged"


def test_drift_table_counts_changed_hashes():
    old = copy.deepcopy(GOLDEN)
    first, second = sorted(old)[:2]
    old[first]["dataset_hash"] = "0123456789abcdef"
    old[first]["bundle_sha256"] = "0" * 64
    old[second]["bundle_sha256"] = "0" * 64
    rows = dict(regen_golden.drift_table(old, GOLDEN))
    assert rows["datasets whose dataset_hash changed"] == "1"
    assert rows["datasets whose bundle_sha256 changed"] == "2"
    assert rows["assignments changed"] == "0"
    assert rows["coefficients HN"] == "0"
