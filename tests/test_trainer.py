"""Schedule arithmetic, SGD semantics, and the training-loop RNG contract."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from allab.dataio import Dataset, synth_blobs
from allab.errors import DimensionError, PoolError, TrainingDiverged
from allab.layers import softmax_cross_entropy
from allab.mmd import median_heuristic, mmd2_biased_with_grad
from allab.model import ModelSpec, backward, cell, forward, init_mlp
from allab.pool import PoolState, init_pool
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
from test_layers import Replay
from test_model import float_dtypes, spy_float_dtypes


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
    with pytest.raises(ValueError, match=r"^kernel: must be .* or a bandwidth list, got array"):
        TrainConfig(kernel=np.array([0.5, 1.5]))  # a list or tuple only, as in JSON


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

def test_one_cell_keeps_n_checkpoints_of_one_shape():
    pool = blob_pool()
    cfg = TrainConfig(epochs=8, batch_size=16, n_checkpoints=3)
    traj, history = train_stack([pool], ModelSpec((2, 8, 2)), cfg, [0])[0]
    final = cell(traj, -1)
    assert len(traj.flat) == 3
    assert len(history) == 8
    shapes = [W.shape for W, _ in final.layers]
    for k in range(3):
        assert [W.shape for W, _ in cell(traj, k).layers] == shapes


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("cells", [1, 2])
def test_a_trajectory_is_a_read_only_copy_of_the_parameters_at_the_snapshot_steps(
    monkeypatch, dtype, cells
):
    # the parameters after every step, recorded: row k of a cell's trajectory
    # is its row of them after step snapshot_steps(...)[k]
    import allab.trainer as trainer

    real_step, after, trained = trainer.sgd_step, [], []

    def recording_step(params, *args):
        params = real_step(params, *args)
        trained[:] = [params.flat]
        after.append(params.flat.copy())
        return params

    monkeypatch.setattr(trainer, "sgd_step", recording_step)
    pools = [blob_pool(seed=s) for s in range(cells)]
    pools = [replace(pool, features=pool.features.astype(dtype)) for pool in pools]
    spec, cfg = ModelSpec((2, 8, 2)), TrainConfig(epochs=6, batch_size=16, n_checkpoints=3)
    result = train_stack(pools, spec, cfg, list(range(cells)))
    steps = snapshot_steps(6, steps_per_epoch(80, 16), 3)
    assert len(after) == 6 * steps_per_epoch(80, 16)
    for r, (traj, _) in enumerate(result):
        assert traj.flat.shape == (3, spec.n_params)
        assert traj.flat.dtype == dtype
        assert np.array_equal(traj.flat, np.stack([after[step][r] for step in steps]))
        assert not np.shares_memory(traj.flat, trained[0])
        with pytest.raises(ValueError, match="read-only"):
            traj.flat[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            cell(traj, -1).layers[0][0][...] = 0.0


def test_one_cell_training_is_deterministic():
    pool = blob_pool()
    cfg = TrainConfig(epochs=4, batch_size=16, n_checkpoints=2)
    a_traj, a_hist = train_stack([pool], ModelSpec((2, 8, 2)), cfg, [5])[0]
    b_traj, b_hist = train_stack([pool], ModelSpec((2, 8, 2)), cfg, [5])[0]
    a_final, b_final = cell(a_traj, -1), cell(b_traj, -1)
    for (Wa, ba), (Wb, bb) in zip(a_final.layers, b_final.layers):
        assert np.array_equal(Wa, Wb) and np.array_equal(ba, bb)
    for k in range(2):
        sa, sb = cell(a_traj, k), cell(b_traj, k)
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


def test_raw_pixel_features_rejected_before_step_zero(forbid_steps):
    # init_pool keeps the dataset's own features, which for IDX data are its
    # uint8 pixels and not their values; only start_partition divides them
    pixels = derive_rng(4, "pixels").integers(0, 256, (100, 3)).astype(np.uint8)
    pool = init_pool(Dataset(pixels, np.arange(100) % 2, 2), 10, 0.2, derive_rng(5))
    with pytest.raises(DimensionError, match=r"^pool features are uint8, not floating point$"):
        train_stack([pool], ModelSpec((3, 8, 2)), TrainConfig(epochs=2, n_checkpoints=1), [0])


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
    assert calls == {"forward": steps, "backward": steps, "sgd_step": steps}


def test_empty_labeled_set_is_an_error():
    pool = blob_pool()
    pool.unlabeled_idx = pool.labeled_idx
    pool.labeled_idx = np.empty(0, dtype=np.int64)
    with pytest.raises(PoolError):
        train_stack([pool], ModelSpec((2, 8, 2)), TrainConfig(epochs=2, n_checkpoints=1), [0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_names_the_step():
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
        _, dlogits = softmax_cross_entropy(logits, pool.labels[idx_l])
        grads = backward(params, cache, dlogits)
        for (W, b), (dW, db) in zip(params.layers, grads):
            W -= lr * (dW + cfg.weight_decay * W)
            b -= lr * (db + cfg.weight_decay * b)
    return params


def test_lambda_zero_bit_identical_to_plain_ce():
    pool = blob_pool(seed=3)
    cfg = TrainConfig(epochs=6, batch_size=16, n_checkpoints=3, mmd_weight=0.0)
    traj, history = train_stack([pool], ModelSpec((2, 8, 2)), cfg, [11])[0]
    final = cell(traj, -1)
    ref = ce_only_reference(pool, (2, 8, 2), cfg, 11)
    for (W, b), (Wr, br) in zip(final.layers, ref.layers):
        assert np.array_equal(W, Wr)
        assert np.array_equal(b, br)
    assert all(h.mean_mmd2 == 0.0 for h in history)  # the term is off, so never evaluated


def full_step_reference(pool, spec, cfg, seed, thetas=None):
    """The training loop that runs every step in full and in two passes:
    pool-batch forward, kernel and MMD^2 at any weight, and a pool-batch
    backward through the head with zero logit gradient, added to the labeled
    batch's.  The dropout masks follow the stream contract: at weight 0 the
    labeled pass's, then the pool pass's; above it one draw per hidden layer
    over both batches' rows, labeled rows first.  Returns the final and
    snapshot weights, and every step's gradient as one vector (see
    :func:`flat`).  With ``thetas``, step k starts from the parameter vector
    ``thetas[k]`` instead of where step k - 1 left them."""
    rng_init = derive_rng(seed, "init")
    rng_batch = derive_rng(seed, "batch")
    rng_drop = derive_rng(seed, "dropout")
    params = init_mlp(spec, rng_init)
    labeled = np.asarray(pool.labeled_idx)
    both = np.sort(np.concatenate([labeled, np.asarray(pool.unlabeled_idx)]))
    B = cfg.batch_size
    spe = steps_per_epoch(len(labeled), B)
    snap_at = set(snapshot_steps(cfg.epochs, spe, cfg.n_checkpoints))
    sigmas, snaps, step_grads = None, [], []
    for step in range(cfg.epochs * spe):
        if thetas is not None:
            params.flat[...] = thetas[step]
        lr = old_cyclic_lr(step, spe, cfg)
        idx_l = rng_batch.choice(labeled, size=B, replace=len(labeled) < B)
        idx_p = rng_batch.choice(both, size=B, replace=len(both) < B)
        rng_l = rng_p = rng_drop
        if cfg.mmd_weight > 0 and spec.dropout_rate > 0:
            draws = [rng_drop.random((2 * B, h)) for h in spec.layer_sizes[1:-1]]
            rng_l, rng_p = Replay(u[:B] for u in draws), Replay(u[B:] for u in draws)
        Z_l, logits, cache_l = forward(params, pool.features[idx_l], train_mode=True, rng=rng_l)
        Z_p, _, cache_p = forward(params, pool.features[idx_p], train_mode=True, rng=rng_p)
        if sigmas is None:
            sigmas = (median_heuristic(Z_p),)
        _, dlogits = softmax_cross_entropy(logits, pool.labels[idx_l])
        _, dZ = mmd2_biased_with_grad(np.concatenate([Z_l, Z_p]), B, sigmas)
        dZ_l, dZ_p = dZ[:B], dZ[B:]
        if cfg.mmd_weight > 0:
            grads = backward(params, cache_l, dlogits, dZ=cfg.mmd_weight * dZ_l)
            grads_p = backward(params, cache_p, np.zeros_like(logits), dZ=cfg.mmd_weight * dZ_p)
            grads = [(dW + dW2, db + db2) for (dW, db), (dW2, db2) in zip(grads, grads_p)]
        else:
            grads = backward(params, cache_l, dlogits)
        step_grads.append(flat(grads))
        for (W, b), (dW, db) in zip(params.layers, grads):
            W -= lr * (dW + cfg.weight_decay * W)
            b -= lr * (db + cfg.weight_decay * b)
        if step in snap_at:
            snaps.append([(W.copy(), b.copy()) for W, b in params.layers])
    return params.layers, snaps, step_grads


def recorded_steps(pool, spec, cfg, seed):
    """Per step of training one cell: the parameter and gradient vectors
    ``train_stack`` hands ``sgd_step``, as that cell's (P,) vectors."""
    import allab.trainer as trainer

    steps = []

    def recording(params, grad, *args):
        steps.append((params.flat.reshape(-1).copy(), grad.reshape(-1).copy()))
        return sgd_step(params, grad, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trainer, "sgd_step", recording)
        train_stack([pool], spec, cfg, [seed])
    return steps


def random_step_case(sizes, split_at, rate, lam, seed):
    """A random spec, a 60-point pool and a short config for the step properties."""
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
    return pool, spec, cfg


def trained_and_reference_layers(pool, spec, cfg, seed):
    """Pairs of (trained, reference) weights: the final ones, then each snapshot's."""
    traj, _ = train_stack([pool], spec, cfg, [seed])[0]
    ref_final, ref_snaps, _ = full_step_reference(pool, spec, cfg, seed)
    got = [cell(traj, k).layers for k in (-1, *range(len(traj.flat)))]
    for layers, ref_layers in zip(got, [ref_final, *ref_snaps], strict=True):
        for (W, b), (W_ref, b_ref) in zip(layers, ref_layers, strict=True):
            yield W, W_ref
            yield b, b_ref


step_cases = dict(
    sizes=st.lists(st.integers(1, 6), min_size=2, max_size=3),
    split_at=st.integers(0, 1),
    rate=st.sampled_from([0.0, 0.3, 0.5]),
    seed=st.integers(0, 2**31),
)


@settings(max_examples=25, deadline=None)
@given(**step_cases)
def test_trimmed_step_bit_identical_to_full_step(sizes, split_at, rate, seed):
    # at lam 0 no pool batch is gathered or run, and with dropout its masks
    # are drawn and dropped: the same stream consumption as the pool forward
    pool, spec, cfg = random_step_case(sizes, split_at, rate, 0.0, seed)
    for got, want in trained_and_reference_layers(pool, spec, cfg, seed):
        assert np.array_equal(got, want)


@settings(max_examples=25, deadline=None)
@given(**step_cases)
# a zero-initialized bias drifts to about 1e-19, a pre-activation sits on
# the ReLU kink, and a last-bit difference flips its relu_backward mask:
# the two trajectories part there by 2e-4, while every step's gradients,
# taken from the same parameters, agree to 1.4e-17
@example(sizes=[2, 2, 1], split_at=1, rate=0.0, seed=4233)
def test_fused_step_close_to_two_pass_step(sizes, split_at, rate, seed):
    # at lam > 0 one pass over both batches sums each parameter gradient over
    # 2B rows where the two-pass step adds two B-row sums: the last bits may
    # move, so each step is compared from the parameters train_stack had
    pool, spec, cfg = random_step_case(sizes, split_at, rate, 0.5, seed)
    steps = recorded_steps(pool, spec, cfg, seed)
    _, _, want = full_step_reference(pool, spec, cfg, seed, thetas=[theta for theta, _ in steps])
    for (_, got), grad in zip(steps, want, strict=True):
        np.testing.assert_allclose(got, grad, rtol=1e-9, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(**step_cases, lam=st.sampled_from([0.0, 0.5]))
def test_float32_step_close_to_float64_step(sizes, split_at, rate, lam, seed):
    # each float32 step's gradient against the float64 two-pass gradient from
    # the same parameters and inputs, within 2e-3 * max(1, max |g|) per
    # entry.  The MMD^2 term computes in float32 on centred batches, so its
    # rounding scales with the features' spread, not their norms; a cell
    # whose median bandwidth froze far below that spread (dead ReLU units at
    # the first step) computes it in float64.  The rest is float32 rounding
    # in the layers, which the kernel carries on.  At lam 0.5, over 72,000
    # steps of 6,000 such cases, the error stayed under 7.2e-5 *
    # max(1, max |g|); with the term in float32 for every cell, 4 of 2,000
    # cases went past the bound, the worst to 1.7e-2
    pool, spec, cfg = random_step_case(sizes, split_at, rate, lam, seed)
    pool = replace(pool, features=pool.features.astype(np.float32))
    steps = recorded_steps(pool, spec, cfg, seed)
    _, _, want = full_step_reference(pool, spec, cfg, seed, thetas=[theta for theta, _ in steps])
    for (theta, got), grad in zip(steps, want, strict=True):
        assert theta.dtype == got.dtype == np.float32
        np.testing.assert_allclose(got, grad, rtol=0, atol=2e-3 * max(1.0, np.abs(grad).max()))


@pytest.mark.parametrize("lam, rate", [(0.1, 0.0), (0.0, 0.5), (0.1, 0.5)])
@pytest.mark.parametrize("cells", [1, 2])
def test_float32_training_stays_float32(monkeypatch, lam, rate, cells):
    # a stray float64 array (a mask, a buffer) widens what it touches and
    # keeps every value, only slower: every float array into and out of the
    # step's calls must be float32
    import allab.trainer as trainer

    names = ("forward", "backward", "softmax_cross_entropy", "sgd_step")
    seen = spy_float_dtypes(monkeypatch, trainer, names)
    # the MMD^2 term gets float64 bandwidths and, once per step, the
    # forward pass's own float32 Z, with the 16 labeled rows first; the
    # value and gradient it gives are float32
    features, mmd_seen = [], []
    spied_forward, real_mmd = trainer.forward, trainer.mmd2_biased_with_grad

    def keep_features(*args, **kwargs):
        result = spied_forward(*args, **kwargs)
        features.append(result[0])
        return result

    def spy_mmd(Z, a, sigmas):
        result = real_mmd(Z, a, sigmas)
        mmd_seen.append((Z is features[-1], a, float_dtypes([Z, result])))
        return result

    monkeypatch.setattr(trainer, "forward", keep_features)
    monkeypatch.setattr(trainer, "mmd2_biased_with_grad", spy_mmd)
    pools = [blob_pool(seed=s) for s in range(cells)]
    pools = [replace(pool, features=pool.features.astype(np.float32)) for pool in pools]
    spec = ModelSpec((2, 6, 5, 2), 1, rate)
    cfg = TrainConfig(epochs=2, batch_size=16, n_checkpoints=1, mmd_weight=lam, kernel="median3")
    trained = train_stack(pools, spec, cfg, list(range(cells)))
    assert {name for name, _ in seen} == set(names)
    steps = sum(name == "sgd_step" for name, _ in seen)
    assert len(mmd_seen) == (steps if lam > 0 else 0) and len(features) == steps
    assert all(dtypes == {np.dtype(np.float32)} for _, dtypes in seen), seen
    assert all(call == (True, 16, {np.dtype(np.float32)}) for call in mmd_seen), mmd_seen
    for trajectory, _ in trained:
        assert trajectory.flat.dtype == np.float32


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


def test_ce_and_mmd2_fall_with_the_regularizer():
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
    final_a = cell(traj_a, -1)

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
    final_b = cell(traj_b, -1)
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


@settings(max_examples=40, deadline=None)
@given(
    R=st.integers(1, 4),
    hidden=st.lists(st.integers(1, 6), min_size=1, max_size=3),
    split_at=st.integers(0, 2),
    lam=st.sampled_from([0.0, 0.1]),
    rate=st.sampled_from([0.0, 0.5]),
    kernel=st.sampled_from(["median", "median3", (0.7, 2.0)]),
    shared=st.booleans(),
    dtype=st.sampled_from([np.float64, np.float32]),
    seed=st.integers(0, 2**31),
)
def test_stack_equals_its_cells_trained_alone(R, hidden, split_at, lam, rate, kernel, shared, dtype, seed):
    # each cell has its own seed, labeled set and pool size; the features are
    # one shared array or one standardized copy per cell (as per repeat), in
    # the dtype the models train in (float32 is the harness's)
    rng = derive_rng(seed, "data")
    d, C, n = int(rng.integers(1, 4)), int(rng.integers(2, 4)), 60
    spec = ModelSpec((d, *hidden, C), split_index=min(1 + split_at, len(hidden)), dropout_rate=rate)
    base, labels = rng.standard_normal((n, d)).astype(dtype), rng.integers(0, C, size=n)
    pools = []
    for r in range(R):
        perm = rng.permutation(n)
        features = base
        if not shared:
            features = ((base - rng.uniform(-1, 1, d)) * rng.uniform(0.5, 2.0, d)).astype(dtype)
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
        assert len(traj.flat) == len(traj_a.flat) == 2
        assert traj.flat.dtype == traj_a.flat.dtype == dtype
        assert np.array_equal(bits(traj.flat), bits(traj_a.flat))
        assert not traj.flat.flags.writeable
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


@pytest.mark.parametrize("dtypes, named", [
    ((np.float64, np.float32), "float32 and float64"),
    ((np.float32, np.float64, np.float64), "float32 and float64"),
    ((np.float16,), "float16"),
])
def test_a_stack_of_mixed_or_unsupported_feature_dtypes_is_refused_before_any_draw(
    forbid_steps, monkeypatch, dtypes, named
):
    import allab.trainer as trainer

    def no_draw(*args, **kwargs):
        raise AssertionError("a stream was derived")

    monkeypatch.setattr(trainer, "derive_rng", no_draw)
    pool = blob_pool()
    pools = [replace(pool, features=pool.features.astype(dtype)) for dtype in dtypes]
    with pytest.raises(DimensionError, match=rf"^a stack's features need one dtype, float64 or float32, got {named}$"):
        train_stack(pools, ModelSpec((2, 8, 2)), TrainConfig(epochs=2, n_checkpoints=1), [0] * len(pools))


def test_a_model_trains_in_its_features_dtype():
    # the spec names no dtype: float64 features train a float64 model and
    # float32 ones a float32 model, from the same draws rounded
    pool, spec, cfg = blob_pool(), ModelSpec((2, 8, 2)), TrainConfig(epochs=2, n_checkpoints=1)
    finals = {}
    for dtype in (np.float64, np.float32):
        ((trajectory, _),) = train_stack([replace(pool, features=pool.features.astype(dtype))], spec, cfg, [0])
        assert trajectory.flat.dtype == np.dtype(dtype)
        finals[dtype] = trajectory.flat[-1]
    np.testing.assert_allclose(finals[np.float32], finals[np.float64], rtol=0, atol=1e-5)


def test_stack_checks_every_cell_before_step_zero(forbid_steps):
    pool = blob_pool()
    bad = replace(pool, labels=pool.labels.copy())
    bad.labels[bad.labeled_idx[3]] = 2
    with pytest.raises(IndexError, match=r"^label 2 out of range \[0, 2\)$"):
        train_stack([pool, bad], ModelSpec((2, 8, 2)), TrainConfig(epochs=2, n_checkpoints=1), [0, 0])
