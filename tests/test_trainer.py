"""Schedule arithmetic, SGD semantics, and the training-loop RNG contract."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from allab.dataio import synth_blobs
from allab.errors import DimensionError, PoolError, TrainingDiverged
from allab.layers import softmax_cross_entropy
from allab.mmd import median_heuristic, mmd2_biased_with_grad
from allab.model import CheckpointSet, ModelSpec, backward, forward, init_mlp, snapshot
from allab.pool import PoolState
from allab.seeding import derive_rng
from allab.trainer import (
    TrainConfig,
    cycle_bounds,
    _draw,
    _resolve_kernel,
    lr_schedule,
    sgd_step,
    snapshot_steps,
    steps_per_epoch,
    train_stack,
)


def blob_pool(seed=0, class_count=2, per_class=50, dim=2, separation=4.0, n_test=20):
    """All non-test points labeled; enough structure for a learnable round."""
    ds = synth_blobs(class_count, per_class, dim, separation, derive_rng(seed, "data"))
    n = ds.features.shape[0]
    perm = derive_rng(seed, "perm").permutation(n)
    return PoolState(
        features=ds.features,
        labels=ds.labels,
        class_count=class_count,
        labeled_idx=perm[n_test:],
        unlabeled_idx=np.empty(0, dtype=np.int64),
        test_idx=np.sort(perm[:n_test]),
    )


# ---- config validation -----------------------------------------------------

def test_train_config_invariants():
    TrainConfig(epochs=10, n_checkpoints=5)
    with pytest.raises(ValueError):
        TrainConfig(epochs=7)  # odd
    with pytest.raises(ValueError):
        TrainConfig(epochs=8, n_checkpoints=5)  # cycles shorter than an epoch
    with pytest.raises(ValueError):
        TrainConfig(batch_size=1)
    with pytest.raises(ValueError):
        TrainConfig(base_lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(mmd_weight=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(lr_floor_ratio=0.0)
    with pytest.raises(ValueError):
        TrainConfig(kernel="med")
    with pytest.raises(ValueError):
        TrainConfig(kernel=(1.0, -2.0))
    assert TrainConfig(kernel=[0.5, 1.5]).kernel == (0.5, 1.5)


def test_checkpoint_set_invariants():
    s = snapshot(init_mlp(ModelSpec((3, 4, 2), 1, 0.0), derive_rng(0)))
    other = snapshot(init_mlp(ModelSpec((3, 5, 2), 1, 0.0), derive_rng(0)))
    assert len(CheckpointSet((s, s))) == 2
    with pytest.raises(ValueError):
        CheckpointSet(())
    with pytest.raises(ValueError):
        CheckpointSet((s, other))


# ---- schedule --------------------------------------------------------------

def test_steps_per_epoch_ceils():
    assert steps_per_epoch(100, 64) == 2
    assert steps_per_epoch(64, 64) == 1
    assert steps_per_epoch(65, 64) == 2
    assert steps_per_epoch(1, 64) == 1


def test_cycle_bounds_partition_second_half():
    assert cycle_bounds(4, 3, 2) == [(6, 9), (9, 12)]
    # uneven split: longer cycles first, lengths differ by at most one
    assert cycle_bounds(6, 1, 2) == [(3, 5), (5, 6)]
    bounds = cycle_bounds(100, 7, 5)
    assert bounds[0][0] == 50 * 7 and bounds[-1][1] == 100 * 7
    lengths = [e - s for s, e in bounds]
    assert max(lengths) - min(lengths) <= 1 and sorted(lengths, reverse=True) == lengths


def test_snapshot_steps_are_cycle_ends():
    assert snapshot_steps(4, 3, 2) == [8, 11]
    assert len(snapshot_steps(100, 2, 5)) == 5


def test_cyclic_lr_first_half_constant():
    cfg = TrainConfig(epochs=8, base_lr=1e-3, n_checkpoints=2)
    assert lr_schedule(5, cfg)[: 4 * 5] == [1e-3] * 20  # spe = 5


def test_cyclic_lr_cycle_ends_at_floor():
    cfg = TrainConfig(epochs=8, base_lr=1e-3, n_checkpoints=4, lr_floor_ratio=0.1)
    rates = lr_schedule(5, cfg)
    for step in snapshot_steps(8, 5, 4):
        assert rates[step] == pytest.approx(1e-4, abs=1e-12)


def test_cyclic_lr_two_identical_saw_teeth():
    cfg = TrainConfig(epochs=4, base_lr=1e-3, n_checkpoints=2, lr_floor_ratio=0.1)
    spe = 6
    rates = lr_schedule(spe, cfg)
    first, second = rates[2 * spe : 3 * spe], rates[3 * spe : 4 * spe]
    assert first == second
    assert first[0] == 1e-3 and first[-1] == pytest.approx(1e-4, abs=1e-12)
    diffs = np.diff(first)
    assert np.allclose(diffs, diffs[0])  # linear decay


def test_cyclic_lr_single_step_cycle_is_floor():
    cfg = TrainConfig(epochs=4, base_lr=1.0, n_checkpoints=2, lr_floor_ratio=0.25)
    assert lr_schedule(1, cfg)[2:] == [0.25, 0.25]


def old_cyclic_lr(step, spe, config):
    """The per-step rate as it was computed before the round-wide table."""
    half = (config.epochs // 2) * spe
    if step < half:
        return config.base_lr
    floor = config.base_lr * config.lr_floor_ratio
    for start, end in cycle_bounds(config.epochs, spe, config.n_checkpoints):
        if start <= step < end:
            length = end - start
            if length == 1:
                return floor
            frac = (step - start) / (length - 1)
            return config.base_lr + (floor - config.base_lr) * frac
    raise ValueError(step)


@settings(max_examples=60, deadline=None)
@given(
    half_epochs=st.integers(1, 12),
    spe=st.integers(1, 9),
    n_checkpoints=st.integers(1, 12),
    base_lr=st.floats(1e-6, 10.0),
    floor_ratio=st.floats(1e-3, 1.0),
)
def test_lr_schedule_bit_identical_to_per_step_rate(half_epochs, spe, n_checkpoints, base_lr, floor_ratio):
    epochs = 2 * max(half_epochs, n_checkpoints)
    cfg = TrainConfig(
        epochs=epochs, base_lr=base_lr, n_checkpoints=n_checkpoints, lr_floor_ratio=floor_ratio
    )
    rates = lr_schedule(spe, cfg)
    assert len(rates) == epochs * spe
    for step, lr in enumerate(rates):
        assert lr == old_cyclic_lr(step, spe, cfg)
    # the last checkpoint is taken after the last step: it is the final model
    assert snapshot_steps(epochs, spe, n_checkpoints)[-1] == epochs * spe - 1


@pytest.mark.parametrize(
    "n, batch",
    [(1, 2), (5, 64), (63, 64), (64, 64), (65, 64), (500, 32), (10_001, 64), (25_000, 128)],
)
def test_draw_matches_choice_and_stream(n, batch):
    # n < batch draws with replacement; numpy switches its no-replacement
    # algorithm above 10,000 points
    indices = np.sort(derive_rng(n, "idx").choice(10 * n, size=n, replace=False))
    rng_a, rng_b = derive_rng(7, n), derive_rng(7, n)
    for _ in range(5):
        want = rng_a.choice(indices, size=batch, replace=n < batch)
        got = _draw(rng_b, indices, batch)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert rng_a.random() == rng_b.random()  # same stream position afterwards


# ---- sgd -------------------------------------------------------------------

def flat(grads):
    """Per-layer (dW, db) pairs as one vector laid out like ``MlpParams.flat``."""
    return np.concatenate([a.ravel() for pair in grads for a in pair])


def test_sgd_zero_lr_no_change():
    params = init_mlp(ModelSpec((3, 4, 2), 1, 0.0), derive_rng(1))
    before = [W.copy() for W, _ in params.layers]
    grads = [(np.ones_like(W), np.ones_like(b)) for W, b in params.layers]
    sgd_step(params, flat(grads), 0.0, 0.5)
    assert all(np.array_equal(W, old) for (W, _), old in zip(params.layers, before))


def test_sgd_arithmetic():
    params = init_mlp(ModelSpec((1, 1, 1), 1, 0.0), derive_rng(2))
    W = params.layers[0][0]
    W[0, 0] = 1.0
    grads = [(np.array([[2.0]]), np.zeros(1)), (np.zeros((1, 1)), np.zeros(1))]
    sgd_step(params, flat(grads), 0.1, 0.0)
    assert W[0, 0] == pytest.approx(0.8, abs=1e-15)


def test_sgd_pure_decay():
    params = init_mlp(ModelSpec((1, 1, 1), 1, 0.0), derive_rng(3))
    W = params.layers[0][0]
    W[0, 0] = 1.0
    grads = [(np.zeros((1, 1)), np.zeros(1)), (np.zeros((1, 1)), np.zeros(1))]
    sgd_step(params, flat(grads), 0.1, 0.5)
    assert W[0, 0] == pytest.approx(0.95, abs=1e-15)


def test_sgd_decay_applies_to_biases():
    params = init_mlp(ModelSpec((1, 1, 1), 1, 0.0), derive_rng(4))
    params.layers[0][1][0] = 2.0
    grads = [(np.zeros((1, 1)), np.zeros(1)), (np.zeros((1, 1)), np.zeros(1))]
    sgd_step(params, flat(grads), 0.1, 0.5)
    assert params.layers[0][1][0] == pytest.approx(1.9, abs=1e-15)


def test_sgd_rejects_non_finite_gradient():
    params = init_mlp(ModelSpec((2, 2, 2), 1, 0.0), derive_rng(5))
    grads = [(np.full((2, 2), np.nan), np.zeros(2)), (np.zeros((2, 2)), np.zeros(2))]
    with pytest.raises(TrainingDiverged):
        sgd_step(params, flat(grads), 0.1, 0.0)


EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-3, -1.5, 3.0, 1e200, -1e300, 1.7e308]


@settings(max_examples=80, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 5), min_size=3, max_size=4),
    data=st.data(),
    lr=st.sampled_from([0.0, -0.0, 1e-3, 0.5, 1e300]),
    weight_decay=st.sampled_from([0.0, 1e-4, 0.5, 1e300]),
)
def test_flat_sgd_step_equals_per_tensor_update(sizes, data, lr, weight_decay):
    params = init_mlp(ModelSpec(sizes, 1, 0.0), derive_rng(0))
    values = st.one_of(st.sampled_from(EXTREMES), st.floats(allow_nan=False, allow_infinity=False))

    def draw(shape):
        return data.draw(arrays(np.float64, shape, elements=values))

    theta = [(draw(W.shape), draw(b.shape)) for W, b in params.layers]
    grads = [(draw(W.shape), draw(b.shape)) for W, b in params.layers]
    for (W, b), (W0, b0) in zip(params.layers, theta):
        W[...], b[...] = W0, b0
    with np.errstate(over="ignore", invalid="ignore"):
        for (W, b), (dW, db) in zip(theta, grads):
            W -= lr * (dW + weight_decay * W)
            b -= lr * (db + weight_decay * b)
        sgd_step(params, flat(grads), lr, weight_decay, np.empty_like(params.flat))
    assert np.array_equal(params.flat.view(np.uint64), flat(theta).view(np.uint64))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", [0, -1])
def test_non_finite_gradient_raises_and_leaves_params(bad, at):
    params = init_mlp(ModelSpec((3, 4, 2), 1, 0.0), derive_rng(6))
    before = params.flat.copy()
    grad = np.zeros_like(params.flat)
    grad[at] = bad
    with pytest.raises(TrainingDiverged, match=r"^non-finite gradient in sgd_step$"):
        sgd_step(params, grad, 0.1, 0.5, np.empty_like(grad))
    assert np.array_equal(params.flat.view(np.uint64), before.view(np.uint64))


# ---- one cell --------------------------------------------------------------

def test_train_round_snapshot_count_and_structure():
    pool = blob_pool()
    cfg = TrainConfig(epochs=8, batch_size=16, n_checkpoints=3)
    traj, history = train_stack([pool], ModelSpec((2, 8, 2)), cfg, [0])[0]
    final = traj.snapshots[-1]
    assert len(traj) == 3
    assert len(history) == 8
    shapes = [W.shape for W, _ in final.layers]
    for snap in traj.snapshots:
        assert [W.shape for W, _ in snap.layers] == shapes


def test_train_round_deterministic():
    pool = blob_pool()
    cfg = TrainConfig(epochs=4, batch_size=16, n_checkpoints=2)
    a_traj, a_hist = train_stack([pool], ModelSpec((2, 8, 2)), cfg, [5])[0]
    b_traj, b_hist = train_stack([pool], ModelSpec((2, 8, 2)), cfg, [5])[0]
    a_final, b_final = a_traj.snapshots[-1], b_traj.snapshots[-1]
    for (Wa, ba), (Wb, bb) in zip(a_final.layers, b_final.layers):
        assert np.array_equal(Wa, Wb) and np.array_equal(ba, bb)
    for sa, sb in zip(a_traj.snapshots, b_traj.snapshots):
        assert all(np.array_equal(x, y) for (x, _), (y, _) in zip(sa.layers, sb.layers))
    assert a_hist == b_hist


@pytest.fixture
def forbid_steps(monkeypatch):
    import allab.trainer as trainer

    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(trainer, "forward", no_step)


@pytest.mark.parametrize("bad", [2, -1])
def test_out_of_range_label_raises_before_step_zero(forbid_steps, bad):
    pool = blob_pool()
    pool.labels = pool.labels.copy()
    pool.labels[pool.labeled_idx[5]] = bad
    with pytest.raises(IndexError, match=rf"^label {bad} out of range \[0, 2\)$"):
        train_stack([pool], ModelSpec((2, 8, 2)), TrainConfig(epochs=2, n_checkpoints=1), [0])


def test_feature_width_checked_before_step_zero(forbid_steps):
    with pytest.raises(DimensionError, match=r"pool features \(100, 2\) .* input width 3"):
        train_stack([blob_pool()], ModelSpec((3, 8, 2)), TrainConfig(epochs=2, n_checkpoints=1), [0])


@pytest.mark.parametrize("lam, rate", [(0.0, 0.0), (0.0, 0.5), (0.1, 0.0), (0.1, 0.5)])
def test_each_step_goes_through_the_traced_entry_points(monkeypatch, lam, rate):
    # a benchmark tracer wraps these names in allab.trainer; each step must call them
    import allab.trainer as trainer

    calls = {"forward": 0, "backward": 0, "sgd_step": 0}

    def counting(name):
        original = getattr(trainer, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(trainer, name, counting(name))
    pool = blob_pool()
    cfg = TrainConfig(epochs=4, batch_size=16, n_checkpoints=2, mmd_weight=lam)
    train_stack([pool], ModelSpec((2, 8, 8, 2), dropout_rate=rate), cfg, [0])
    steps = cfg.epochs * steps_per_epoch(len(pool.labeled_idx), cfg.batch_size)
    assert calls == {
        "forward": (2 if lam > 0 or rate > 0 else 1) * steps,
        "backward": (2 if lam > 0 else 1) * steps,
        "sgd_step": steps,
    }


def test_train_round_empty_labeled_errors():
    pool = blob_pool()
    pool.unlabeled_idx = pool.labeled_idx
    pool.labeled_idx = np.empty(0, dtype=np.int64)
    with pytest.raises(PoolError):
        train_stack([pool], ModelSpec((2, 8, 2)), TrainConfig(epochs=2, n_checkpoints=1), [0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_round_divergence_names_step():
    pool = blob_pool()
    cfg = TrainConfig(epochs=4, batch_size=16, n_checkpoints=2, base_lr=1e12)
    with pytest.raises(TrainingDiverged, match=r"step \d+"):
        train_stack([pool], ModelSpec((2, 8, 2)), cfg, [0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_names_non_finite_ce():
    pool = blob_pool()
    pool.features = pool.features.copy()
    cfg = TrainConfig(epochs=4, batch_size=16, n_checkpoints=2, base_lr=0.01)
    for bad in (np.inf, np.nan):  # ReLU passes NaN through, so both reach the loss
        pool.features[pool.labeled_idx] = bad
        with pytest.raises(TrainingDiverged, match=r"^non-finite CE at step 0 \(lr=0\.01\)$"):
            train_stack([pool], ModelSpec((2, 8, 2)), cfg, [0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_names_non_finite_mmd_term():
    # finite labeled rows, infinite unlabeled rows: only the pool batch is poisoned
    pool = blob_pool()
    pool.features = np.concatenate([pool.features, np.full((60, 2), np.inf)])
    pool.labels = np.concatenate([pool.labels, np.zeros(60, dtype=pool.labels.dtype)])
    pool.unlabeled_idx = np.arange(len(pool.features) - 60, len(pool.features))
    cfg = TrainConfig(epochs=4, batch_size=16, n_checkpoints=2, kernel=(1.0,))
    with pytest.raises(TrainingDiverged, match=r"^non-finite MMD\^2 term at step 0 \(lr=0\.001\)$"):
        train_stack([pool], ModelSpec((2, 8, 2)), cfg, [0])


def test_divergence_names_non_finite_gradient(monkeypatch):
    import allab.trainer as trainer

    def nan_backward(*args, out, **kwargs):
        grads = backward(*args, out=out, **kwargs)
        out.flat[0] = np.nan  # poison the round's gradient buffer
        return grads

    monkeypatch.setattr(trainer, "backward", nan_backward)
    cfg = TrainConfig(epochs=4, batch_size=16, n_checkpoints=2, mmd_weight=0.0)
    with pytest.raises(TrainingDiverged, match=r"^non-finite gradient at step 0 \(lr=0\.001\)$"):
        train_stack([blob_pool()], ModelSpec((2, 8, 2)), cfg, [0])


def ce_only_reference(pool, sizes, cfg, seed):
    """Independent plain-CE loop following the documented stream contract:
    batches for the labeled and pool draws are taken in that order from the
    "batch" stream (the pool draw is made and discarded), parameters come from
    the "init" stream, and no dropout stream is touched at rate 0."""
    rng_init = derive_rng(seed, "init")
    rng_batch = derive_rng(seed, "batch")
    params = init_mlp(ModelSpec(sizes, 1, 0.0), rng_init)
    labeled = np.asarray(pool.labeled_idx)
    both = np.sort(np.concatenate([labeled, np.asarray(pool.unlabeled_idx)]))
    spe = steps_per_epoch(len(labeled), cfg.batch_size)
    for step in range(cfg.epochs * spe):
        lr = old_cyclic_lr(step, spe, cfg)
        idx_l = rng_batch.choice(labeled, size=cfg.batch_size, replace=len(labeled) < cfg.batch_size)
        rng_batch.choice(both, size=cfg.batch_size, replace=len(both) < cfg.batch_size)
        _, logits, cache = forward(params, pool.features[idx_l], train_mode=True)
        _, _, dlogits = softmax_cross_entropy(logits, pool.labels[idx_l])
        grads = backward(params, cache, dlogits)
        for (W, b), (dW, db) in zip(params.layers, grads):
            W -= lr * (dW + cfg.weight_decay * W)
            b -= lr * (db + cfg.weight_decay * b)
    return params


def test_lambda_zero_bit_identical_to_plain_ce():
    pool = blob_pool(seed=3)
    cfg = TrainConfig(epochs=6, batch_size=16, n_checkpoints=3, mmd_weight=0.0)
    traj, history = train_stack([pool], ModelSpec((2, 8, 2)), cfg, [11])[0]
    final = traj.snapshots[-1]
    ref = ce_only_reference(pool, (2, 8, 2), cfg, 11)
    for (W, b), (Wr, br) in zip(final.layers, ref.layers):
        assert np.array_equal(W, Wr)
        assert np.array_equal(b, br)
    assert all(h.mean_mmd2 == 0.0 for h in history)  # the term is off, so never evaluated


def full_step_reference(pool, spec, cfg, seed):
    """The training loop that runs every step in full: pool-batch forward,
    kernel and MMD^2 at any weight, and a pool-batch backward through the
    head with zero logit gradient.  Returns the final and snapshot weights."""
    rng_init = derive_rng(seed, "init")
    rng_batch = derive_rng(seed, "batch")
    rng_drop = derive_rng(seed, "dropout")
    params = init_mlp(spec, rng_init)
    labeled = np.asarray(pool.labeled_idx)
    both = np.sort(np.concatenate([labeled, np.asarray(pool.unlabeled_idx)]))
    spe = steps_per_epoch(len(labeled), cfg.batch_size)
    snap_at = set(snapshot_steps(cfg.epochs, spe, cfg.n_checkpoints))
    sigmas, snaps = None, []
    for step in range(cfg.epochs * spe):
        lr = old_cyclic_lr(step, spe, cfg)
        idx_l = rng_batch.choice(labeled, size=cfg.batch_size, replace=len(labeled) < cfg.batch_size)
        idx_p = rng_batch.choice(both, size=cfg.batch_size, replace=len(both) < cfg.batch_size)
        Z_l, logits, cache_l = forward(params, pool.features[idx_l], train_mode=True, rng=rng_drop)
        Z_p, _, cache_p = forward(params, pool.features[idx_p], train_mode=True, rng=rng_drop)
        if sigmas is None:
            sigmas = (median_heuristic(Z_p),)
        _, _, dlogits = softmax_cross_entropy(logits, pool.labels[idx_l])
        _, dZ_l, dZ_p = mmd2_biased_with_grad(Z_l, Z_p, sigmas)
        if cfg.mmd_weight > 0:
            grads = backward(params, cache_l, dlogits, dZ=cfg.mmd_weight * dZ_l)
            grads_p = backward(params, cache_p, np.zeros_like(logits), dZ=cfg.mmd_weight * dZ_p)
            grads = [(dW + dW2, db + db2) for (dW, db), (dW2, db2) in zip(grads, grads_p)]
        else:
            grads = backward(params, cache_l, dlogits)
        for (W, b), (dW, db) in zip(params.layers, grads):
            W -= lr * (dW + cfg.weight_decay * W)
            b -= lr * (db + cfg.weight_decay * b)
        if step in snap_at:
            snaps.append([(W.copy(), b.copy()) for W, b in params.layers])
    return params.layers, snaps


@settings(max_examples=25, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 6), min_size=2, max_size=3),
    split_at=st.integers(0, 1),
    rate=st.sampled_from([0.0, 0.3, 0.5]),
    lam=st.sampled_from([0.0, 0.5]),
    seed=st.integers(0, 2**31),
)
def test_trimmed_step_bit_identical_to_full_step(sizes, split_at, rate, lam, seed):
    # covers lam 0 with dropout, where the pool-batch forward only advances
    # the dropout stream, and lam > 0, where the pool backward stops at Z
    rng = derive_rng(seed, "data")
    d, C = int(rng.integers(1, 4)), int(rng.integers(2, 4))
    spec = ModelSpec((d, *sizes, C), split_index=min(1 + split_at, len(sizes)), dropout_rate=rate)
    n = 60
    pool = PoolState(
        features=rng.standard_normal((n, d)),
        labels=rng.integers(0, C, size=n),
        class_count=C,
        labeled_idx=np.arange(0, 20),
        unlabeled_idx=np.arange(20, 50),
        test_idx=np.arange(50, 60),
    )
    cfg = TrainConfig(epochs=4, batch_size=8, base_lr=0.05, mmd_weight=lam, n_checkpoints=2)
    traj, _ = train_stack([pool], spec, cfg, [seed])[0]
    final = traj.snapshots[-1]
    ref_final, ref_snaps = full_step_reference(pool, spec, cfg, seed)
    for got, want in zip([final.layers, *[s.layers for s in traj.snapshots]], [ref_final, *ref_snaps]):
        for (W, b), (W_ref, b_ref) in zip(got, want, strict=True):
            assert np.array_equal(W, W_ref) and np.array_equal(b, b_ref)


def skewed_pool(seed, per_class=300, n_lab_per_class=32):
    """Separable 2-blob data whose labeled subset is shifted along the
    class-irrelevant direction, so the labeled and pool feature distributions
    start visibly apart."""
    ds = synth_blobs(2, per_class, 2, 4.0, derive_rng(seed, "data"))
    c0 = ds.features[ds.labels == 0].mean(axis=0)
    c1 = ds.features[ds.labels == 1].mean(axis=0)
    v = c1 - c0
    perp = np.array([-v[1], v[0]]) / np.linalg.norm(v)
    perm = derive_rng(seed, "perm").permutation(2 * per_class)
    test, rest = perm[:40], perm[40:]
    lab = []
    for c in (0, 1):
        cand = rest[ds.labels[rest] == c]
        lab.append(cand[np.argsort(ds.features[cand] @ perp)[:n_lab_per_class]])
    lab = np.concatenate(lab)
    return PoolState(
        ds.features, ds.labels, 2, lab, np.setdiff1d(rest, lab), np.sort(test)
    )


def test_train_round_loss_decreases_with_regularizer():
    # CE and the logged feature discrepancy both end below their first epoch
    for seed in range(5):
        pool = skewed_pool(seed)
        cfg = TrainConfig(epochs=20, batch_size=4, base_lr=0.05, mmd_weight=0.1, n_checkpoints=5)
        _, history = train_stack([pool], ModelSpec((2, 8, 2)), cfg, [seed])[0]
        assert history[-1].mean_ce < history[0].mean_ce, f"seed {seed}"
        assert history[-1].mean_mmd2 < history[0].mean_mmd2, f"seed {seed}"


def test_median_kernel_frozen_at_first_batch():
    # an explicit-bandwidth run with the same seed matches the median run only
    # if the frozen median equals that bandwidth; verify freeze by replaying
    pool = blob_pool(seed=6)
    cfg = TrainConfig(epochs=4, batch_size=16, n_checkpoints=2, kernel="median")
    traj_a, hist_a = train_stack([pool], ModelSpec((2, 8, 2)), cfg, [21])[0]
    final_a = traj_a.snapshots[-1]

    # replay the first step's draws to recover the frozen bandwidth
    from allab.mmd import median_heuristic

    rng_init = derive_rng(21, "init")
    rng_batch = derive_rng(21, "batch")
    params = init_mlp(ModelSpec((2, 8, 2), 1, 0.0), rng_init)
    labeled = np.asarray(pool.labeled_idx)
    both = np.sort(np.concatenate([labeled, np.asarray(pool.unlabeled_idx)]))
    rng_batch.choice(labeled, size=16, replace=False)
    idx_p = rng_batch.choice(both, size=16, replace=False)
    Z_p, _, _ = forward(params, pool.features[idx_p], train_mode=True)
    sigma = median_heuristic(Z_p)

    cfg_explicit = TrainConfig(epochs=4, batch_size=16, n_checkpoints=2, kernel=(sigma,))
    traj_b, hist_b = train_stack([pool], ModelSpec((2, 8, 2)), cfg_explicit, [21])[0]
    final_b = traj_b.snapshots[-1]
    assert hist_a == hist_b
    for (Wa, _), (Wb, _) in zip(final_a.layers, final_b.layers):
        assert np.array_equal(Wa, Wb)


def test_kernel_names_resolve_to_the_median_or_the_three_scale_set():
    Z = np.array([[0.0], [0.8]])  # one pairwise distance, so the median is 0.8
    assert _resolve_kernel(TrainConfig(kernel="median"), Z) == (0.8,)
    assert _resolve_kernel(TrainConfig(kernel="median3"), Z) == (0.4, 0.8, 1.6)
    assert _resolve_kernel(TrainConfig(kernel=(0.5, 2)), Z) == (0.5, 2.0)


# ---- stacks ----------------------------------------------------------------

def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


class RecordedStreams:
    """Patches ``trainer.derive_rng`` to keep every generator it makes, by its
    (seed, tag) path."""

    def __init__(self, monkeypatch):
        import allab.trainer as trainer

        self.made = {}
        real = trainer.derive_rng

        def recording(seed, *path):
            self.made[(seed, *path)] = g = real(seed, *path)
            return g

        monkeypatch.setattr(trainer, "derive_rng", recording)

    def take(self):
        made, self.made = self.made, {}
        return made


@settings(max_examples=30, deadline=None)
@given(
    R=st.integers(1, 4),
    hidden=st.lists(st.integers(1, 6), min_size=1, max_size=3),
    split_at=st.integers(0, 2),
    lam=st.sampled_from([0.0, 0.1]),
    rate=st.sampled_from([0.0, 0.5]),
    kernel=st.sampled_from(["median", "median3", (0.7, 2.0)]),
    shared=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_stack_equals_its_cells_trained_alone(R, hidden, split_at, lam, rate, kernel, shared, seed):
    # each cell has its own seed, labeled set and pool size; the features are
    # one shared array or one standardized copy per cell (as per repeat)
    rng = derive_rng(seed, "data")
    d, C, n = int(rng.integers(1, 4)), int(rng.integers(2, 4)), 60
    spec = ModelSpec((d, *hidden, C), split_index=min(1 + split_at, len(hidden)), dropout_rate=rate)
    base, labels = rng.standard_normal((n, d)), rng.integers(0, C, size=n)
    pools = []
    for r in range(R):
        perm = rng.permutation(n)
        features = base if shared else (base - rng.uniform(-1, 1, d)) * rng.uniform(0.5, 2.0, d)
        pools.append(PoolState(
            features=features, labels=labels, class_count=C, labeled_idx=perm[:20],
            unlabeled_idx=np.sort(perm[20 : 30 + int(rng.integers(0, 21))]), test_idx=perm[50:],
        ))

    cfg = TrainConfig(
        epochs=4, batch_size=8, base_lr=0.05, mmd_weight=lam, n_checkpoints=2, kernel=kernel
    )
    seeds = [seed + r for r in range(R)]

    with pytest.MonkeyPatch.context() as mp:
        streams = RecordedStreams(mp)
        stacked = train_stack(pools, spec, cfg, seeds)
        stacked_streams = streams.take()
        alone = [train_stack([p], spec, cfg, [s])[0] for p, s in zip(pools, seeds)]
        alone_streams = streams.take()

    for (traj, history), (traj_a, history_a) in zip(stacked, alone, strict=True):
        assert len(traj) == len(traj_a) == 2
        for snap, snap_a in zip(traj.snapshots, traj_a.snapshots):
            assert np.array_equal(bits(snap.flat), bits(snap_a.flat))
            assert not snap.flat.flags.writeable
        assert history == history_a
    # every stream was left where training the cell alone leaves it
    assert stacked_streams.keys() == alone_streams.keys()
    for path, g in stacked_streams.items():
        assert g.bit_generator.state == alone_streams[path].bit_generator.state, path


def test_stack_cells_must_share_everything_but_the_seed():
    pool, spec = blob_pool(), ModelSpec((2, 8, 2))
    cfg = TrainConfig(epochs=2, n_checkpoints=1)
    train_stack([pool, pool], spec, cfg, [0, 5])  # seeds may differ
    with pytest.raises(ValueError, match="one seed per pool"):
        train_stack([pool, pool], spec, cfg, [0])
    short = replace(pool, labeled_idx=pool.labeled_idx[:-1])
    with pytest.raises(ValueError, match=r"labeled sets of one size, got \[80, 79\]"):
        train_stack([pool, short], spec, cfg, [0, 0])


def test_stack_checks_every_cell_before_step_zero(forbid_steps):
    pool = blob_pool()
    bad = replace(pool, labels=pool.labels.copy())
    bad.labels[bad.labeled_idx[3]] = 2
    with pytest.raises(IndexError, match=r"^label 2 out of range \[0, 2\)$"):
        train_stack([pool, bad], ModelSpec((2, 8, 2)), TrainConfig(epochs=2, n_checkpoints=1), [0, 0])
