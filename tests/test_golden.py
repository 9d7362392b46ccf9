"""Frozen results and numbers: training and scoring must reproduce these bytes.

Run-to-run determinism alone cannot catch a change that moves every run the
same way.  The sha256 digests of ``results.csv`` pin the results: test-set
accuracies and label counts, which a last-bit change in the parameters
rarely reaches.  The parameter digests pin the numbers themselves: every
checkpoint's ``flat`` and ``EpochStats`` of round-0 ``train_stack`` calls on
bias4's 8-64-64-4 net, built and seeded as the harness builds and seeds
them, and the BALD and core-set scores of its dropout model, each on
float32 features (the harness's) and on float64 ones (CSV and synthetic
data's), which train a model of their dtype.  The gradient
audit's output is pinned too.  A deliberate change to the numerics updates
them and says why in CHANGES.md.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from allab.acquisition import bald_acquire, coreset_acquire
from allab.cli import main
from allab.config import parse_config
from allab.experiment import _stacks, load_dataset, start_partition
from allab.model import cell
from allab.seeding import derive_int, derive_rng
from allab.trainer import train_stack
from idx_files import make_image_pool

REPO = Path(__file__).resolve().parent.parent

GOLDEN = {
    "smoke": "5e778703e41eae9e36f74c097d86ab79f086bdc112602ff32eaabe37ea305933",
    "bias4": "5a745cef5ec73a885c1fdfb299c0fba96f5f39471fc2d6d3753d08af34345618",
}

# configs/smoke.json with every method, so each per-method rule (MMD^2
# training, trajectory evaluation, BALD dropout, coreset) is pinned
ALL_METHODS = ["mpts", "random", "entropy", "bald", "coreset"]
ALL_METHODS_GOLDEN = "74091e2f35e7c4f214d7cf05050f9da50f1e15e4e70b6120520f9d29d34d8d41"

# criterion 6's 784-d image pool, cut down: the 784-128-10 net trains as a
# 2-cell stack (two repeats) of mpts and random.  The same digest comes out
# with OpenBLAS at 1 and at 2 threads on a 2-core box; as README says, the
# last bits of 784-wide products follow OpenBLAS's thread count.
IMAGE784 = {
    "methods": ["mpts", "random"],
    "dataset": {"kind": "mnist", "pool_size": 1000, "standardize": "pool"},
    "initial_count": 64, "budget": 64, "rounds": 2, "repeats": 2,
    "train": {"epochs": 4, "batch_size": 64, "base_lr": 3e-2, "lambda": 0.1, "n_checkpoints": 2},
    "master_seed": 0,
}
IMAGE784_GOLDEN = "e7767992e5a87a167df25141d435229255036180fa87eedbdbe1de4eefde3aea"


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


def test_image784_results_csv_matches_golden_digest(tmp_path):
    paths = make_image_pool(tmp_path)
    doc = dict(IMAGE784, dataset=dict(
        IMAGE784["dataset"], images_path=paths["tri"], labels_path=paths["trl"],
        test_images_path=paths["tei"], test_labels_path=paths["tel"]))
    config = tmp_path / "image784.json"
    config.write_text(json.dumps(doc))
    assert results_digest(config, tmp_path / "out") == IMAGE784_GOLDEN


# round 0 of configs/bias4.json's cells, trained as the harness trains them;
# narrow products, so the bits do not follow OpenBLAS's thread count.  The
# harness trains in float32; the float64 digests pin float64 features' training.
TRAINED_GOLDEN = {
    "float64": {
        "mmd_stack": "45ae6503b5128d5bae439b5af53195bbdbc63fa53efe998cfeef3bbf342506b0",
        "plain_stack": "7e4c918d19b6c87211f3cd897dc4c8de3505054b7761c91f12bc7ee7644a4a22",
        "dropout": "e6e12821232844b25d2377e56c9eb40e05c2af0f05b7edab0ce0e3045f882ea1",
        "mmd_cell": "10d9c4bf8a6578c7e2b2b07c8119fc20c8b3d13d5e2e0ba6ce3e212ee16ffc4d",
    },
    "float32": {
        "mmd_stack": "af592d9cbf1d075e66c4c9ba74b5f69703ad5befa789c9369c8a8d70a0678e7f",
        "plain_stack": "86ec3ef45ac7ace040e11f4ebb46e418cfb5e7a85dcdb0996ad6d51daf73c599",
        "dropout": "6c8a2fb4f7fa0906f1e37fb2eafaa61d16b94b3b61d0e9a6c94d9f82b08a6040",
        "mmd_cell": "078b9b1d1b3850a3861b0c70b75a6725eada0c2a4543d9babd3c16e73a39a0f2",
    },
}
SCORES_GOLDEN = {
    "float64": {
        "bald": "c1c024955a6ffdb932e2bacb648a6e57f339318160ea4a7f10ee9503dac8fee7",
        "coreset": "62cdacbbdbe386008bf0f02441ec8423f916fc330bbe792b54317444b5230716",
    },
    "float32": {
        "bald": "660f1fc8b8f95ea2bc6920707cb6b2ac0c2535765403dd68f6befa55a14befdf",
        "coreset": "60017d86bbd6dd0cfc6f820e8a5b4de43c87ce6d6501a689d7829509de1c7878",
    },
}

# ``allab gradcheck``'s default output: the audit runs in float64 whatever
# dtype the harness trains in
GRADCHECK_GOLDEN = "78634a49c465d8bb4e51e18681236caec0ad72d0d69d373ae75abd8b3d5d5948"


def bias4_round0(method: str, repeats: int, dtype):
    """The pools and ``train_stack`` output of ``method``'s round-0 cells for
    the first ``repeats`` repeats of configs/bias4.json, built as
    ``run_experiment`` builds them, in ``dtype``: the harness's float32
    partitions, or (bias4 is not standardized) the same partitions holding
    the dataset's float64 features, and the stack, spec and MMD^2 weight
    that ``_stacks`` gives the method; the models train in the features'
    dtype."""
    cfg = parse_config(REPO / "configs" / "bias4.json")
    cfg = replace(cfg, methods=(method,), repeats=repeats)
    assert cfg.dataset.standardize == "none"
    dataset = load_dataset(cfg)
    pools = [start_partition(dataset, cfg, r) for r in range(repeats)]
    if dtype == np.float64:
        pools = [replace(pool, features=dataset.features) for pool in pools]
    (group,) = _stacks(cfg, pools)
    seeds = [derive_int(cfg.master_seed, "train", c.method, c.repeat, 0) for c in group.cells]
    trained = train_stack(
        [c.pool for c in group.cells], group.spec, replace(cfg.train, mmd_weight=group.mmd_weight), seeds
    )
    assert {trajectory.flat.dtype for trajectory, _ in trained} == {np.dtype(dtype)}
    return cfg, pools, trained


def trained_digest(trained) -> str:
    h = hashlib.sha256()
    for trajectory, history in trained:
        h.update(trajectory.flat.tobytes())  # checkpoint by checkpoint, a row each
        for s in history:
            h.update(np.array([s.epoch, s.mean_ce, s.mean_mmd2, s.lr]).tobytes())
    return h.hexdigest()


def scores_digest(result) -> str:
    h = hashlib.sha256()
    for a in (result.scored, result.scores, result.selected):
        h.update(a.tobytes())
    return h.hexdigest()


def check_stack(method: str, key: str, dtype, repeats: int = 3):
    _, _, trained = bias4_round0(method, repeats, dtype)
    assert trained_digest(trained) == TRAINED_GOLDEN[np.dtype(dtype).name][key]


def check_dropout_model(dtype):
    cfg, (pool,), trained = bias4_round0("bald", 1, dtype)
    final = cell(trained[0][0], -1)
    assert final.spec.dropout_rate == 0.5
    rng = derive_rng(cfg.master_seed, "acquire", "bald", 0, 0)
    bald = bald_acquire(final, pool, cfg.budget, cfg.model.bald_passes, rng)
    coreset = coreset_acquire(final, pool, cfg.budget)
    name = np.dtype(dtype).name
    assert trained_digest(trained) == TRAINED_GOLDEN[name]["dropout"]
    assert scores_digest(bald) == SCORES_GOLDEN[name]["bald"]
    assert scores_digest(coreset) == SCORES_GOLDEN[name]["coreset"]


def test_mmd_stack_parameters_match_golden_digest():
    check_stack("mpts", "mmd_stack", np.float64)


def test_plain_stack_parameters_match_golden_digest():
    check_stack("random", "plain_stack", np.float64)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_one_cell_mmd_parameters_match_golden_digest(dtype):
    # a stack of one at lam > 0, as a one-repeat run trains its mpts cells
    check_stack("mpts", "mmd_cell", dtype, repeats=1)


def test_dropout_model_parameters_and_scores_match_golden_digests():
    check_dropout_model(np.float64)


@pytest.mark.parametrize("method, key", [("mpts", "mmd_stack"), ("random", "plain_stack")])
def test_float32_stack_parameters_match_golden_digest(method, key):
    check_stack(method, key, np.float32)


def test_float32_dropout_model_parameters_and_scores_match_golden_digests():
    check_dropout_model(np.float32)


def test_gradcheck_output_matches_golden_digest(capsys):
    assert main(["gradcheck"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == GRADCHECK_GOLDEN
