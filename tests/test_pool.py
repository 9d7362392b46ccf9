"""Partition bookkeeping and test-set scoring."""

import numpy as np
import pytest

from allab.dataio import Dataset, synth_blobs
from allab.errors import ConfigError, PoolError
from allab.model import CheckpointSet, MlpParams, ModelSpec, init_mlp, snapshot
from allab.pool import PoolState, evaluate, init_pool, label_points
from allab.seeding import derive_rng


def check_partition(pool: PoolState) -> None:
    """Assert the partition invariants; used after every round.

    The three index sets must be disjoint and in bounds.  When their sizes sum
    to the dataset size (no pool subsampling) they must also cover it exactly.
    """
    n = pool.features.shape[0]
    combined = np.concatenate([pool.labeled_idx, pool.unlabeled_idx, pool.test_idx])
    if len(np.unique(combined)) != len(combined):
        raise AssertionError("index sets overlap")
    if len(combined) and (combined.min() < 0 or combined.max() >= n):
        raise AssertionError("index out of bounds")
    if len(combined) == n and not np.array_equal(np.sort(combined), np.arange(n)):
        raise AssertionError("index sets do not cover the dataset")


def toy_dataset(n=60, d=3, class_count=3, seed=0, designated=None):
    rng = derive_rng(seed)
    return Dataset(
        features=rng.standard_normal((n, d)),
        labels=rng.integers(0, class_count, size=n),
        class_count=class_count,
        designated_test_idx=designated,
    )


# ---- init_pool -------------------------------------------------------------

def test_init_pool_same_seed_identical():
    ds = toy_dataset()
    a = init_pool(ds, 10, 0.2, derive_rng(1))
    b = init_pool(ds, 10, 0.2, derive_rng(1))
    for field in ("labeled_idx", "unlabeled_idx", "test_idx"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    check_partition(a)


def test_init_pool_all_labeled_leaves_empty_unlabeled():
    ds = toy_dataset(n=50)
    pool = init_pool(ds, 40, 0.2, derive_rng(2))  # 10 test, 40 pool
    assert len(pool.unlabeled_idx) == 0
    assert len(pool.labeled_idx) == 40
    check_partition(pool)


def test_init_pool_uses_designated_test_split():
    designated = np.array([3, 1, 7])
    ds = toy_dataset(n=20, designated=designated)
    pool = init_pool(ds, 5, 0.5, derive_rng(3))  # fraction ignored
    assert pool.test_idx.tolist() == [1, 3, 7]
    assert len(pool.labeled_idx) + len(pool.unlabeled_idx) == 17
    check_partition(pool)


def test_init_pool_holdout_size_rounds():
    ds = toy_dataset(n=50)
    pool = init_pool(ds, 5, 0.25, derive_rng(4))
    assert len(pool.test_idx) == 12  # round(50 * 0.25)


def test_init_pool_subsamples_to_pool_size():
    ds = toy_dataset(n=100)
    pool = init_pool(ds, 10, 0.2, derive_rng(5), pool_size=30)
    assert len(pool.labeled_idx) + len(pool.unlabeled_idx) == 30
    check_partition(pool)  # disjointness still enforced


def test_init_pool_biased_start_honors_class_restriction():
    ds = toy_dataset(n=200, class_count=4, seed=6)
    pool = init_pool(ds, 20, 0.2, derive_rng(7), restrict_classes=[0, 2])
    assert set(ds.labels[pool.labeled_idx].tolist()) <= {0, 2}
    # the unlabeled side keeps every class in play
    assert set(ds.labels[pool.unlabeled_idx].tolist()) == {0, 1, 2, 3}


@pytest.mark.parametrize("bad", [4, -1])
def test_init_pool_rejects_bias_class_out_of_range(bad):
    ds = toy_dataset(n=200, class_count=4, seed=6)
    with pytest.raises(ConfigError, match=rf"^\$\.bias_classes: class id {bad} not in \[0, 4\)$"):
        init_pool(ds, 20, 0.2, derive_rng(7), restrict_classes=[0, bad])


def test_init_pool_rejects_oversized_initial_count():
    ds = toy_dataset(n=20)
    with pytest.raises(ConfigError, match=r"^\$\.initial_count: 17 exceeds the 16 eligible"):
        init_pool(ds, 17, 0.2, derive_rng(8))  # only 16 non-test points


def test_init_pool_rejects_degenerate_fraction():
    ds = toy_dataset(n=20)
    with pytest.raises(ConfigError, match=r"^\$\.dataset\.test_fraction: 0\.0 of 20 points"):
        init_pool(ds, 1, 0.0, derive_rng(9))
    with pytest.raises(ConfigError, match=r"^\$\.dataset\.test_fraction: 1\.0 of 20 points"):
        init_pool(ds, 1, 1.0, derive_rng(9))


# ---- label_points ----------------------------------------------------------

def test_label_points_empty_is_noop():
    pool = init_pool(toy_dataset(), 10, 0.2, derive_rng(10))
    after = label_points(pool, [])
    assert after is pool


def test_label_points_moves_and_records_order():
    pool = init_pool(toy_dataset(), 10, 0.2, derive_rng(11))
    chosen = pool.unlabeled_idx[[5, 2, 9]]
    after = label_points(pool, chosen)
    assert after.labeled_idx[-3:].tolist() == chosen.tolist()  # acquisition order kept
    assert not np.any(np.isin(after.unlabeled_idx, chosen))
    assert len(after.labeled_idx) + len(after.unlabeled_idx) == len(
        pool.labeled_idx
    ) + len(pool.unlabeled_idx)
    check_partition(after)
    # original is untouched (functional update)
    assert len(pool.labeled_idx) == 10


def test_label_points_can_drain_the_pool():
    pool = init_pool(toy_dataset(n=30), 5, 0.2, derive_rng(12))
    after = label_points(pool, pool.unlabeled_idx)
    assert len(after.unlabeled_idx) == 0
    assert len(after.labeled_idx) == 5 + len(pool.unlabeled_idx)
    check_partition(after)


def test_label_points_rejects_double_labeling():
    pool = init_pool(toy_dataset(), 10, 0.2, derive_rng(13))
    idx = int(pool.labeled_idx[0])
    with pytest.raises(PoolError, match=str(idx)):
        label_points(pool, [idx])
    with pytest.raises(PoolError, match="duplicate"):
        label_points(pool, [int(pool.unlabeled_idx[0])] * 2)


# ---- evaluate --------------------------------------------------------------

def oracle_model(features, labels, class_count):
    """Single hidden layer wide enough to memorize one-hot rows exactly."""
    n = features.shape[0]
    assert np.array_equal(features, np.eye(n))
    W2 = np.zeros((n, class_count))
    W2[np.arange(n), labels] = 1000.0
    flat = np.concatenate([np.eye(n).ravel(), np.zeros(n), W2.ravel(), np.zeros(class_count)])
    return MlpParams(ModelSpec((n, n, class_count), 1), flat)


def test_evaluate_perfect_predictor():
    n, C = 8, 3
    labels = derive_rng(14).integers(0, C, size=n)
    pool = _eye_pool(n, labels, C)
    assert evaluate(CheckpointSet((oracle_model(pool.features, labels, C),)), pool) == 1.0


def test_evaluate_constant_predictor_on_balanced_set():
    # zero weights predict uniformly; argmax tie -> class 0 on every row
    n, C = 12, 4
    labels = np.repeat(np.arange(C), n // C)
    pool = _eye_pool(n, labels, C)
    params = MlpParams(ModelSpec((n, 2, C), 1), np.zeros(n * 2 + 2 + 2 * C + C))
    assert evaluate(CheckpointSet((params,)), pool) == pytest.approx(1.0 / C, abs=1e-15)


def test_evaluate_hand_counted_confusion():
    # memorize 7 of 10 labels, corrupt 3 -> accuracy 0.7 by direct count
    n, C = 10, 3
    labels = derive_rng(15).integers(0, C, size=n)
    wrong = (labels + 1) % C
    taught = labels.copy()
    taught[[2, 5, 8]] = wrong[[2, 5, 8]]
    pool = _eye_pool(n, labels, C)
    assert evaluate(CheckpointSet((oracle_model(pool.features, taught, C),)), pool) == pytest.approx(0.7)


def test_evaluate_accepts_trajectory():
    n, C = 6, 2
    labels = derive_rng(16).integers(0, C, size=n)
    pool = _eye_pool(n, labels, C)
    traj = CheckpointSet((snapshot(oracle_model(pool.features, labels, C)),))
    assert evaluate(traj, pool) == 1.0


def test_evaluate_rejects_empty_test_set():
    pool = _eye_pool(4, np.zeros(4, dtype=np.int64), 2)
    pool.test_idx = np.empty(0, dtype=np.int64)
    with pytest.raises(PoolError):
        evaluate(CheckpointSet((init_mlp(ModelSpec([4, 3, 2], 1, 0.0), derive_rng(17)),)), pool)


def _eye_pool(n, labels, class_count):
    return PoolState(
        features=np.eye(n),
        labels=np.asarray(labels, dtype=np.int64),
        class_count=class_count,
        labeled_idx=np.empty(0, dtype=np.int64),
        unlabeled_idx=np.empty(0, dtype=np.int64),
        test_idx=np.arange(n),
    )


# ---- check_partition -------------------------------------------------------

def test_check_partition_flags_overlap_and_bounds():
    ds = synth_blobs(2, 10, 2, 3.0, derive_rng(18))
    pool = init_pool(ds, 4, 0.2, derive_rng(19))
    check_partition(pool)
    bad = _eye_pool(4, np.zeros(4, dtype=np.int64), 2)
    bad.labeled_idx = np.array([0, 1])
    bad.unlabeled_idx = np.array([1, 2])
    with pytest.raises(AssertionError, match="overlap"):
        check_partition(bad)
    bad.unlabeled_idx = np.array([2, 9])
    with pytest.raises(AssertionError):
        check_partition(bad)
