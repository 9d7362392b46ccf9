"""How many copies of a pool's features the loading and partitioning hold,
and what scoring a pool holds.

The bound is a multiple of the bytes of the pool's float64 feature values,
measured with tracemalloc (numpy reports its array buffers to it).  Loading
IDX files holds the uint8 pixels the files are read straight into, and no copy;
standardizing a partition holds one float64 block of its statistics rows,
then the float32 output, which has the partition's pool and test rows alone,
and one float64 row block, plus index arrays; unstandardized repeats share
one float32 array of every row.  No full float64 array of the pixels' values,
nor of the statistics rows, is ever made.
"""

import gc
import json
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from allab import cli, experiment
from allab.acquisition import bald_acquire, coreset_acquire, entropy_acquire
from allab.config import parse_config
from allab.experiment import load_dataset, run_experiment, start_partition
from allab.model import MlpParams, ModelSpec, avg_predict, forward, init_mlp
from allab.pool import PoolState, evaluate
from allab.seeding import derive_rng
from idx_files import write_idx_images, write_idx_labels
from test_model import trajectory_of

N_TRAIN, N_TEST = 1200, 400
FEATURE_BYTES = (N_TRAIN + N_TEST) * 784 * 8
# the uint8 pixels alone are 0.125x, and reading the files straight into them
# measured 0.128x; reading each file into bytes and concatenating the splits
# measured 0.25x, one float64 array 1.13x, per-split astype/divide/vstack 2.0x
LOAD_PEAK_BOUND = 0.15
# a float32 copy of every row is 0.5x, and a float64 row block of 32 rows
# 0.02x; standardizing a partition of 1,000 pool and 400 test rows measured
# 0.473x (0.4375x of output), three unstandardized repeats 0.527x; with
# 256-row blocks (0.16x) they measured 0.644x and 0.667x, gathering the pool's
# statistics rows into one float64 array 0.705x, a full float64 standardized
# copy cast to float32 afterwards would be 1.5x, and so would a float32 cast
# per repeat for three repeats
PARTITION_PEAK_BOUND = 0.55
# scoring every row of a 784-wide float32 pool, over the selection's feature
# bytes: the first layer's (n, 128) output is 0.16x and one gathered row block
# 0.13x (measured 0.32x); copying the selection out first measured 1.20x
SCORING_PEAK_BOUND = 0.5
# from loading to the first training step: a full float64 feature array alone
# is 1.0x; with the loader's float64 features this measured 1.67x
RUN_PEAK_BOUND = 1.0


def _image_config(tmp_path):
    """A 784-d IDX pool (28x28 uint8 images, 10 classes) and its config."""
    rng = derive_rng(3)
    paths = {}
    for split, n in (("train", N_TRAIN), ("test", N_TEST)):
        paths[f"{split}_images"] = str(tmp_path / f"{split}-images.idx")
        paths[f"{split}_labels"] = str(tmp_path / f"{split}-labels.idx")
        write_idx_images(paths[f"{split}_images"], rng.integers(0, 256, (n, 28, 28)))
        write_idx_labels(paths[f"{split}_labels"], rng.integers(0, 10, n))
    doc = {
        "methods": ["random"],
        "dataset": {"kind": "mnist", "images_path": paths["train_images"],
                    "labels_path": paths["train_labels"],
                    "test_images_path": paths["test_images"],
                    "test_labels_path": paths["test_labels"],
                    "pool_size": 1000, "standardize": "pool"},
        "initial_count": 20, "budget": 10, "rounds": 1, "repeats": 1,
        "train": {"epochs": 2, "batch_size": 16, "n_checkpoints": 1},
        "master_seed": 0,
    }
    return parse_config(doc)


def _traced_peak(fn, *args):
    """fn(*args) and the peak bytes traced while it ran, over what was
    allocated before it started."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_loading_holds_one_feature_array(tmp_path):
    cfg = _image_config(tmp_path)
    dataset, peak = _traced_peak(load_dataset, cfg)
    assert dataset.features.dtype == np.uint8 and dataset.features.nbytes == FEATURE_BYTES // 8
    assert peak <= LOAD_PEAK_BOUND * FEATURE_BYTES, peak / FEATURE_BYTES


def test_standardizing_a_partition_holds_one_more_feature_array(tmp_path):
    cfg = _image_config(tmp_path)
    dataset = load_dataset(cfg)
    # numpy's first calls import modules; partition once first, so the peaks
    # count arrays, not modules
    start_partition(dataset, cfg, 0)
    for mode in ("pool", "labeled"):
        mode_cfg = replace(cfg, dataset=replace(cfg.dataset, standardize=mode))
        start, peak = _traced_peak(start_partition, dataset, mode_cfg, 0)
        # the pool_size pool rows and the test rows, not the 200 rows left out
        assert start.features.shape == (cfg.dataset.pool_size + N_TEST, 784)
        assert start.features.dtype == np.float32
        assert peak <= PARTITION_PEAK_BOUND * FEATURE_BYTES, (mode, peak / FEATURE_BYTES)


def test_unstandardized_repeats_share_one_float32_array(tmp_path, monkeypatch):
    # without standardization the run casts the features once, and every
    # repeat's partition holds that array
    cfg = _image_config(tmp_path)
    cfg = replace(cfg, repeats=3, dataset=replace(cfg.dataset, standardize="none"))
    dataset = load_dataset(cfg)
    start_partition(dataset, cfg, 0)  # numpy's imports, as above
    partitioned, real_stacks = [], experiment._stacks

    def measured_stacks(cfg, starts):
        # the peak traced from the run's start until every repeat is partitioned
        partitioned.append(([s.features for s in starts], tracemalloc.get_traced_memory()[1]))
        return real_stacks(cfg, starts)

    monkeypatch.setattr(experiment, "_stacks", measured_stacks)
    _traced_peak(run_experiment, cfg, 1, None, dataset)
    ((features, peak),) = partitioned
    assert len({id(f) for f in features}) == 1 and features[0].dtype == np.float32
    assert peak <= PARTITION_PEAK_BOUND * FEATURE_BYTES, peak / FEATURE_BYTES


@pytest.mark.parametrize("mode", ["pool", "labeled", "none"])
def test_run_builds_no_float64_feature_array_before_training(tmp_path, monkeypatch, mode):
    cfg = _image_config(tmp_path)
    cfg = replace(cfg, dataset=replace(cfg.dataset, standardize=mode))
    start_partition(load_dataset(cfg), cfg, 0)  # numpy.ma, as above
    peaks, real_train_stack = [], experiment.train_stack

    def measured_train_stack(*args):
        # the peak traced from the start of loading to the first training step
        peaks.append(tracemalloc.get_traced_memory()[1])
        return real_train_stack(*args)

    monkeypatch.setattr(experiment, "train_stack", measured_train_stack)
    _traced_peak(run_experiment, cfg)
    assert peaks[0] <= RUN_PEAK_BOUND * FEATURE_BYTES, (mode, peaks[0] / FEATURE_BYTES)


def _features_alive_at_training(monkeypatch, loader_module):
    """A list that gets, at the first ``train_stack`` call, whether the
    features ``loader_module.load_dataset`` returned are still alive."""
    loaded, alive_at_training = [], []
    real_load_dataset, real_train_stack = loader_module.load_dataset, experiment.train_stack

    def tracked_load_dataset(cfg):
        dataset = real_load_dataset(cfg)
        loaded.append(weakref.ref(dataset.features))
        return dataset

    def spy_train_stack(pools, spec, config, seeds):
        if not alive_at_training:
            gc.collect()
            alive_at_training.append(loaded[0]() is not None)
        return real_train_stack(pools, spec, config, seeds)

    monkeypatch.setattr(loader_module, "load_dataset", tracked_load_dataset)
    monkeypatch.setattr(experiment, "train_stack", spy_train_stack)
    return alive_at_training


def test_run_frees_the_dataset_it_loaded_before_training(tmp_path, monkeypatch):
    alive_at_training = _features_alive_at_training(monkeypatch, experiment)
    logs = run_experiment(_image_config(tmp_path))
    assert len(logs) == 1
    assert alive_at_training == [False]


def test_cli_run_frees_the_dataset_it_loaded_before_training(tmp_path, monkeypatch):
    doc = {
        "methods": ["random"],
        "dataset": {"kind": "synthetic", "class_count": 2, "per_class": 40, "dim": 2,
                    "standardize": "pool"},
        "initial_count": 10, "budget": 5, "rounds": 1, "repeats": 1,
        "train": {"epochs": 2, "batch_size": 8, "n_checkpoints": 1},
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    alive_at_training = _features_alive_at_training(monkeypatch, cli)
    assert cli.main(["run", "--config", str(path)]) == 0
    assert alive_at_training == [False]


# ---- scoring ---------------------------------------------------------------
# Scoring a pool holds what it reads: no backward cache, one row block of its
# features, one dropout pass at a time, one distance matrix.  Each bound is
# over the arrays the call must hold.

def _scoring_pool(n_unlabeled, n_labeled, width, seed=0):
    rng = derive_rng(seed, "scoring")
    n = n_unlabeled + n_labeled
    return PoolState(
        features=rng.standard_normal((n, width)),
        labels=rng.integers(0, 2, n),
        class_count=2,
        labeled_idx=np.arange(n_labeled),
        unlabeled_idx=np.arange(n_labeled, n),
        test_idx=np.empty(0, dtype=np.int64),
    )


def test_eval_forward_holds_only_what_it_returns():
    params = init_mlp(ModelSpec((8, 64, 10), 1, 0.0), derive_rng(1))
    X = derive_rng(2).standard_normal((4000, 8))
    (Z, logits, cache), peak = _traced_peak(forward, params, X)
    assert cache is None
    # with a cache, the pre-activation and its ReLU copy were both alive: +Z.nbytes
    assert peak <= Z.nbytes + logits.nbytes + Z.nbytes // 4, peak / Z.nbytes


def test_bald_peak_does_not_grow_with_passes():
    final = init_mlp(ModelSpec((4, 16, 10), 1, 0.5), derive_rng(3))
    pool = _scoring_pool(3000, 10, 4)
    pass_bytes = 3000 * 10 * 8  # one pass's (n, C) probabilities
    peaks = {
        passes: _traced_peak(bald_acquire, final, pool, 5, passes, derive_rng(4))[1]
        for passes in (2, 40)
    }
    # holding every pass at once, the 40-pass peak was about 40 passes above the 2-pass one
    assert peaks[40] <= peaks[2] + pass_bytes // 4, (peaks[40] - peaks[2]) / pass_bytes


def _float32_bald_peak(sizes) -> float:
    """The traced peak of 20 BALD passes of a float32 net over 4,000 unlabeled
    rows, over the bytes of one pass's (n, 64) float64 draws."""
    n, h = 4000, 64
    final = init_mlp(ModelSpec(sizes, 1, 0.5), derive_rng(3))
    final = MlpParams(final.spec, final.flat.astype(np.float32))
    pool = _scoring_pool(n, 10, sizes[0])
    pool = replace(pool, features=pool.features.astype(np.float32))
    bald_acquire(final, pool, 5, 2, derive_rng(4))  # numpy's first calls import modules
    _, peak = _traced_peak(bald_acquire, final, pool, 5, 20, derive_rng(4))
    return peak / (n * h * 8)


def test_float32_bald_holds_no_float64_draw_array():
    # the first layer's output is a float32 (n, h) array, 0.5x; the pass, the
    # running sums, a block of entropy terms and one draw block are about 0.35x,
    # and the mask block, two of 2,000 rows of the 64->10 head, 0.25x (measured
    # 1.13x); a shared (n, h) mask and an (n, C) buffer of entropy terms
    # measured 1.49x, and drawing each mask into a fresh float64 (n, h) array 2.26x
    ratio = _float32_bald_peak((4, 64, 10))
    assert ratio <= 1.25, ratio


def test_float32_bald_holds_no_pool_sized_mask_between_hidden_layers():
    # the first and second layers' float32 (n, h) activations, 1.0x, and the mask
    # block, eight of 500 rows of the 64->64 layer, 0.06x (measured 1.44x); a
    # shared (n, h) mask and an (n, C) buffer of entropy terms measured 2.00x
    ratio = _float32_bald_peak((32, 64, 64, 10))
    assert ratio <= 1.55, ratio


def test_coreset_holds_one_distance_matrix():
    pool = _scoring_pool(3000, 1000, 4)
    for dtype in (np.float64, np.float32):
        final = init_mlp(ModelSpec((4, 8, 2), 1, 0.0), derive_rng(5))
        final = MlpParams(final.spec, final.flat.astype(dtype))
        _, peak = _traced_peak(coreset_acquire, final, pool, 3)
        if dtype == np.float64:  # over 192 labeled points: one block
            matrix_bytes = 3000 * 1000 * 8  # |U| x |L| float64
            # measured 1.10x; with the norm sums and the cross products in two
            # full matrices it was 2x
            assert peak <= 1.2 * matrix_bytes, peak / matrix_bytes
        else:  # two blocks of 1,500 rows, at least 2 * 1000 + 1 rows a block
            block_bytes = 1500 * 1000 * 4
            sums_bytes = 256 * 1000 * 4  # sq_dists' block of norm sums
            # measured 1.21x of a block; the whole matrix measured 2.2x
            assert peak <= 1.5 * block_bytes + sums_bytes, peak / block_bytes


def test_scoring_a_trajectory_holds_one_gather_block_and_no_hidden_array():
    n, hidden = 4900, 128
    rng = derive_rng(8, "scoring")
    features = rng.standard_normal((n, 784), dtype=np.float32)
    spec = ModelSpec((784, hidden, 10), 1, 0.0)
    trajectory = trajectory_of(
        *(MlpParams(spec, init_mlp(spec, derive_rng(9, k)).flat.astype(np.float32)) for k in range(3))
    )
    rows = rng.permutation(n)
    avg_predict(trajectory, features, rows)  # numpy's first calls import modules
    _, peak = _traced_peak(avg_predict, trajectory, features, rows)
    gather_bytes = 613 * 784 * 4  # the longest of 8 blocks of 612 or 613 rows
    hidden_bytes = n * hidden * 4  # one (n, hidden) activation
    # a gather block, then a group of two blocks' activations and the (n, 10)
    # output, measured the block and 0.42x of the activation; a whole first
    # layer per checkpoint beside the block measured the block and 1.09x
    assert peak <= gather_bytes + hidden_bytes // 2, (peak - gather_bytes) / hidden_bytes


@pytest.mark.parametrize("score", ["entropy_acquire", "evaluate"])
def test_scoring_a_wide_pool_gathers_its_features_block_by_block(score):
    n = 5000
    rng = derive_rng(6, "scoring")
    features = rng.standard_normal((n, 784), dtype=np.float32)
    pool = PoolState(features, rng.integers(0, 10, n), 10, np.arange(0), np.arange(n), np.arange(n))
    final = init_mlp(ModelSpec((784, 128, 10), 1, 0.0), derive_rng(7))
    final = MlpParams(final.spec, final.flat.astype(np.float32))
    trajectory = trajectory_of(final, final)
    call = {"entropy_acquire": lambda: entropy_acquire(trajectory, pool, 10),
            "evaluate": lambda: evaluate(trajectory, pool)}[score]
    call()  # numpy's first calls import modules; count arrays, not them
    _, peak = _traced_peak(call)
    assert peak <= SCORING_PEAK_BOUND * features.nbytes, peak / features.nbytes
