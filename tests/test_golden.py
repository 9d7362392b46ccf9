"""Frozen results: the shipped configs must reproduce these exact bytes.

Run-to-run determinism alone cannot catch a change that moves every run the
same way; these sha256 digests of ``results.csv`` pin the numbers themselves.
A deliberate change to the numerics updates them and says why in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from allab.cli import main

REPO = Path(__file__).resolve().parent.parent

GOLDEN = {
    "smoke": "5e778703e41eae9e36f74c097d86ab79f086bdc112602ff32eaabe37ea305933",
    "bias4": "5a745cef5ec73a885c1fdfb299c0fba96f5f39471fc2d6d3753d08af34345618",
}

# configs/smoke.json with every method, so each per-method rule (MMD^2
# training, trajectory evaluation, BALD dropout, coreset) is pinned
ALL_METHODS = ["mpts", "random", "entropy", "bald", "coreset"]
ALL_METHODS_GOLDEN = "74091e2f35e7c4f214d7cf05050f9da50f1e15e4e70b6120520f9d29d34d8d41"


def results_digest(config, out) -> str:
    assert main(["run", "--config", str(config), "--out", str(out), "--jobs", "1"]) == 0
    return hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_results_csv_matches_golden_digest(name, tmp_path):
    assert results_digest(REPO / "configs" / f"{name}.json", tmp_path) == GOLDEN[name]


def test_all_methods_results_csv_matches_golden_digest(tmp_path):
    doc = json.loads((REPO / "configs" / "smoke.json").read_text())
    doc["methods"] = ALL_METHODS
    config = tmp_path / "all_methods.json"
    config.write_text(json.dumps(doc))
    assert results_digest(config, tmp_path / "out") == ALL_METHODS_GOLDEN
