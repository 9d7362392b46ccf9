"""Frozen results: the shipped configs must reproduce these exact bytes.

Run-to-run determinism alone cannot catch a change that moves every run the
same way; these sha256 digests of ``results.csv`` pin the numbers themselves.
A deliberate change to the numerics updates them and says why in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from allab.cli import main

REPO = Path(__file__).resolve().parent.parent

GOLDEN = {
    "smoke": "5e778703e41eae9e36f74c097d86ab79f086bdc112602ff32eaabe37ea305933",
    "bias4": "5a745cef5ec73a885c1fdfb299c0fba96f5f39471fc2d6d3753d08af34345618",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_results_csv_matches_golden_digest(name, tmp_path):
    config = REPO / "configs" / f"{name}.json"
    assert main(["run", "--config", str(config), "--out", str(tmp_path), "--jobs", "1"]) == 0
    digest = hashlib.sha256((tmp_path / "results.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN[name]
