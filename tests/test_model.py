"""Network assembly, forward/backward, snapshots, dropout passes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allab.errors import DimensionError
from allab.layers import affine_backward, softmax, softmax_cross_entropy
from allab.model import (
    CheckpointSet,
    MlpParams,
    ModelSpec,
    avg_predict,
    backward,
    dropout_probs,
    forward,
    init_mlp,
    predict_proba,
    snapshot,
)
from allab.seeding import derive_rng
from allab.trainer import sgd_step

from test_layers import fd_grad, rel_err


def small_net(seed=0, sizes=(3, 4, 2), split=1, rate=0.0):
    return init_mlp(sizes, split, rate, derive_rng(seed))


# ---- spec / init -----------------------------------------------------------

def test_model_spec_split_bounds():
    ModelSpec((4, 8, 3), split_index=1)
    ModelSpec((4, 8, 8, 3), split_index=2)
    with pytest.raises(ValueError):
        ModelSpec((4, 8, 3), split_index=0)
    with pytest.raises(ValueError):
        ModelSpec((4, 8, 3), split_index=2)  # head would be empty


def test_init_shapes_mnist_default():
    params = init_mlp((784, 128, 10), 1, 0.0, derive_rng(0))
    assert [W.shape for W, _ in params.layers] == [(784, 128), (128, 10)]
    assert [b.shape for _, b in params.layers] == [(128,), (10,)]
    Z, logits, _ = forward(params, np.zeros((2, 784)))
    assert Z.shape == (2, 128) and logits.shape == (2, 10)


def test_init_same_seed_identical():
    a = init_mlp((5, 6, 3), 1, 0.0, derive_rng(9))
    b = init_mlp((5, 6, 3), 1, 0.0, derive_rng(9))
    for (Wa, ba), (Wb, bb) in zip(a.layers, b.layers):
        assert np.array_equal(Wa, Wb) and np.array_equal(ba, bb)


def test_init_weight_variance():
    params = init_mlp((1000, 1000, 2), 1, 0.0, derive_rng(1))
    W = params.layers[0][0]  # 1e6 entries
    target = 2.0 / 1000
    assert abs(W.var() - target) <= 0.1 * target
    assert not params.layers[0][1].any()  # zero biases


# ---- forward ---------------------------------------------------------------

def test_forward_zero_params_uniform():
    params = MlpParams([(np.zeros((4, 5)), np.zeros(5)), (np.zeros((5, 3)), np.zeros(3))], 1, 0.0)
    Z, logits, _ = forward(params, np.ones((2, 4)))
    assert not logits.any() and not Z.any()
    P = predict_proba(params, np.ones((2, 4)))
    assert np.allclose(P, 1 / 3)
    entropy = -(P * np.log(P)).sum(axis=1)
    assert np.allclose(entropy, np.log(3), atol=1e-12)


def test_forward_eval_deterministic():
    params = small_net(2)
    X = derive_rng(3).standard_normal((5, 3))
    a = forward(params, X)
    b = forward(params, X)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_forward_input_width_checked():
    with pytest.raises(DimensionError):
        forward(small_net(), np.ones((2, 7)))


def test_forward_feature_layer_before_dropout():
    # dropout sits after the feature activation, so Z is mask-independent
    params = small_net(4, sizes=(3, 6, 6, 2), split=1, rate=0.6)
    X = derive_rng(5).standard_normal((8, 3))
    Z_eval, logits_eval, _ = forward(params, X)
    Z_train, logits_train, cache = forward(params, X, train_mode=True, rng=derive_rng(6))
    assert np.array_equal(Z_train, Z_eval)
    assert not np.array_equal(logits_train, logits_eval)  # downstream masks differ
    assert cache.dropout_masks[0] is not None


def test_forward_dropout_draw_order():
    # one mask per hidden layer, drawn in layer order from the given stream
    params = small_net(7, sizes=(3, 4, 5, 2), split=1, rate=0.5)
    X = np.ones((2, 3))
    _, _, cache = forward(params, X, train_mode=True, rng=derive_rng(8))
    rng = derive_rng(8)
    m1 = (rng.random((2, 4)) >= 0.5) / 0.5
    m2 = (rng.random((2, 5)) >= 0.5) / 0.5
    assert np.array_equal(cache.dropout_masks[0], m1)
    assert np.array_equal(cache.dropout_masks[1], m2)


# ---- predict_proba ---------------------------------------------------------

def test_predict_rows_normalized():
    params = small_net(10, sizes=(4, 8, 5))
    P = predict_proba(params, derive_rng(11).standard_normal((20, 4)))
    assert np.abs(P.sum(axis=1) - 1).max() <= 1e-12
    assert (P >= 0).all()


def test_predict_matches_forward_softmax():
    params = small_net(12)
    X = derive_rng(13).standard_normal((6, 3))
    _, logits, _ = forward(params, X)
    shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
    assert np.abs(predict_proba(params, X) - shifted / shifted.sum(axis=1, keepdims=True)).max() <= 1e-15


# ---- backward --------------------------------------------------------------

def test_backward_feature_gradient_injection():
    # loss = <V, Z>: backward with zero dlogits and dZ=V must match differences
    for attempt in range(20):
        params = small_net(100 + attempt)
        X = derive_rng(200 + attempt).standard_normal((4, 3))
        if np.abs(forward(params, X)[2].pre_activations[0]).min() > 1e-3:
            break
    V = derive_rng(14).standard_normal((4, 4))

    def loss():
        Z, _, _ = forward(params, X)
        return float((Z * V).sum())

    _, logits, cache = forward(params, X, train_mode=True)
    grads = backward(params, cache, np.zeros_like(logits), dZ=V)
    for li in range(len(params.layers)):
        assert rel_err(grads[li][0], fd_grad(loss, params.layers[li][0])) <= 1e-5
        assert rel_err(grads[li][1], fd_grad(loss, params.layers[li][1])) <= 1e-5


def full_backward_reference(params, cache, dlogits, dZ=None):
    """Backward through every layer, input-layer dX included, as a plain chain rule."""
    n_layers = len(params.layers)
    grads = [None] * n_layers
    upstream = np.asarray(dlogits, dtype=np.float64)
    for i in range(n_layers, 0, -1):
        W, _ = params.layers[i - 1]
        if i < n_layers:
            mask = cache.dropout_masks[i - 1]
            if mask is not None:
                upstream = upstream * mask
            if dZ is not None and i == params.split_index:
                upstream = upstream + dZ
            upstream = np.where(cache.pre_activations[i - 1] > 0, upstream, 0.0)
        upstream, dW, db = affine_backward(cache.inputs[i - 1], W, upstream)
        grads[i - 1] = (dW, db)
    return grads


@st.composite
def nets(draw):
    """A small random MLP (any depth >= 2, any split, optional dropout) and a forward pass."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=3, max_size=5))
    split = draw(st.integers(1, len(sizes) - 2))
    rate = draw(st.sampled_from([0.0, 0.3, 0.5]))
    n = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**31))
    params = init_mlp(sizes, split, rate, derive_rng(seed, "init"))
    rng = derive_rng(seed, "data")
    X = rng.standard_normal((n, sizes[0]))
    Z, logits, cache = forward(params, X, train_mode=True, rng=derive_rng(seed, "dropout"))
    return params, cache, rng.standard_normal(logits.shape), rng.standard_normal(Z.shape)


@settings(max_examples=60, deadline=None)
@given(net=nets())
def test_feature_only_backward_equals_zero_dlogits_backward(net):
    params, cache, _, dZ = net
    got = backward(params, cache, None, dZ=dZ)
    want = full_backward_reference(params, cache, np.zeros_like(cache.pre_activations[-1]), dZ)
    assert len(got) == params.split_index
    for (dW, db), (dW_ref, db_ref) in zip(got, want):
        assert np.array_equal(dW, dW_ref) and np.array_equal(db, db_ref)


@settings(max_examples=60, deadline=None)
@given(net=nets(), with_dZ=st.booleans())
def test_backward_without_input_dX_equals_full_chain_rule(net, with_dZ):
    params, cache, dlogits, dZ = net
    dZ = dZ if with_dZ else None
    got = backward(params, cache, dlogits, dZ=dZ)
    want = full_backward_reference(params, cache, dlogits, dZ)
    for (dW, db), (dW_ref, db_ref) in zip(got, want, strict=True):
        assert np.array_equal(dW, dW_ref) and np.array_equal(db, db_ref)


def test_backward_needs_some_upstream_gradient():
    params = small_net()
    _, _, cache = forward(params, np.ones((2, 3)), train_mode=True)
    with pytest.raises(ValueError):
        backward(params, cache, None)


# ---- snapshots and avg_predict ---------------------------------------------

def test_snapshot_restore_roundtrip():
    # a snapshot is MlpParams holding equal copies, and predicts the same bits
    params = small_net(15, sizes=(3, 5, 4, 2), split=2, rate=0.25)
    X = derive_rng(16).standard_normal((5, 3))
    snap = snapshot(params)
    assert isinstance(snap, MlpParams)
    assert (snap.split_index, snap.dropout_rate) == (2, 0.25)
    for (W, b), (Ws, bs) in zip(params.layers, snap.layers, strict=True):
        assert np.array_equal(W, Ws) and np.array_equal(b, bs)
        assert not np.shares_memory(W, Ws) and not np.shares_memory(b, bs)
    assert np.array_equal(predict_proba(snap, X), predict_proba(params, X))


def test_snapshot_isolated_from_training():
    params = small_net(17)
    X = derive_rng(18).standard_normal((6, 3))
    y = derive_rng(19).integers(0, 2, 6)
    before = predict_proba(params, X)
    snap = snapshot(params)

    for _ in range(10):
        _, logits, cache = forward(params, X, train_mode=True)
        _, _, dlogits = softmax_cross_entropy(logits, y)
        sgd_step(params, backward(params, cache, dlogits), 0.5, 0.0)
    assert not np.array_equal(predict_proba(params, X), before)
    assert np.array_equal(predict_proba(snap, X), before)


def test_snapshots_differ_after_nonzero_step():
    params = small_net(20)
    s1 = snapshot(params)
    grads = [(np.ones_like(W), np.ones_like(b)) for W, b in params.layers]
    sgd_step(params, grads, 0.1, 0.0)
    s2 = snapshot(params)
    assert not np.array_equal(s1.layers[0][0], s2.layers[0][0])
    # the recorded snapshot moved by exactly -lr * g
    assert np.allclose(s2.layers[0][0], s1.layers[0][0] - 0.1, atol=1e-15)


def test_snapshot_arrays_read_only():
    snap = snapshot(small_net(21))
    for W, b in snap.layers:
        for target in (W, b):
            before = target.copy()
            with pytest.raises(ValueError, match="read-only"):
                target[0] = 5.0
            with pytest.raises(ValueError, match="read-only"):
                target += 1.0
            assert np.array_equal(target, before)


def test_sgd_step_on_snapshot_raises():
    snap = snapshot(small_net(24))
    kept = [(W.copy(), b.copy()) for W, b in snap.layers]
    grads = [(np.ones_like(W), np.ones_like(b)) for W, b in snap.layers]
    with pytest.raises(ValueError, match="read-only"):
        sgd_step(snap, grads, 0.1, 0.0)
    for (W, b), (Wk, bk) in zip(snap.layers, kept, strict=True):
        assert np.array_equal(W, Wk) and np.array_equal(b, bk)


def avg_predict_by_copies(trajectory, X):
    """The old checkpoint average: each snapshot copied back into writable
    parameters, then predicted from."""
    acc = None
    for snap in trajectory.snapshots:
        params = MlpParams(
            [(W.copy(), b.copy()) for W, b in snap.layers], snap.split_index, snap.dropout_rate
        )
        P = predict_proba(params, X)
        acc = P if acc is None else acc + P
    return acc / len(trajectory)


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 7), min_size=1, max_size=3),
    n_snaps=st.integers(1, 5),
    n=st.integers(1, 40),
    scale=st.sampled_from([0.1, 1.0, 30.0]),
    seed=st.integers(0, 2**31),
)
def test_avg_predict_on_read_only_snapshots_matches_copies(sizes, n_snaps, n, scale, seed):
    rng = derive_rng(seed)
    d, C = int(rng.integers(1, 6)), int(rng.integers(2, 6))
    params = init_mlp((d, *sizes, C), int(rng.integers(1, len(sizes) + 1)), 0.0, rng)
    snaps = []
    for _ in range(n_snaps):
        for W, b in params.layers:  # move the weights between checkpoints
            W += scale * rng.standard_normal(W.shape)
            b += scale * rng.standard_normal(b.shape)
        snaps.append(snapshot(params))
    traj = CheckpointSet(tuple(snaps))
    X = scale * rng.standard_normal((n, d))
    got, want = avg_predict(traj, X), avg_predict_by_copies(traj, X)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# ---- dropout passes --------------------------------------------------------

def dropout_probs_reference(params, X, passes, rng):
    """One full train-mode forward and softmax per pass."""
    return np.stack(
        [softmax(forward(params, X, train_mode=True, rng=rng)[1]) for _ in range(passes)]
    )


@settings(max_examples=80, deadline=None)
@given(
    hidden=st.lists(st.integers(1, 8), min_size=1, max_size=2),
    rate=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    n=st.integers(1, 12),
    passes=st.integers(2, 5),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    special=st.sampled_from([None, 0.0, -0.0, np.nan, np.inf]),
    seed=st.integers(0, 2**31),
)
def test_dropout_probs_equals_forward_per_pass(hidden, rate, n, passes, scale, special, seed):
    rng = derive_rng(seed, "init")
    d, C = int(rng.integers(1, 6)), int(rng.integers(2, 6))
    params = init_mlp((d, *hidden, C), 1, rate, rng)
    X = scale * rng.standard_normal((n, d))
    if special is not None:  # signed zeros and non-finite values through the mask
        X[rng.random(X.shape) < 0.3] = special
    got_rng, want_rng = derive_rng(seed, "dropout"), derive_rng(seed, "dropout")
    with np.errstate(invalid="ignore", over="ignore"):
        got = dropout_probs(params, X, passes, got_rng)
        want = dropout_probs_reference(params, X, passes, want_rng)
    assert got.shape == (passes, n, C)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("shape", [(1, 1), (7, 3), (64, 33)])
def test_random_into_buffer_draws_as_random_of_shape(shape):
    into, fresh = derive_rng(5), derive_rng(5)
    buf = np.empty(shape)
    for _ in range(3):
        into.random(out=buf)
        assert np.array_equal(buf.view(np.uint64), fresh.random(shape).view(np.uint64))
    assert into.bit_generator.state == fresh.bit_generator.state


def test_dropout_probs_input_width_checked():
    with pytest.raises(DimensionError):
        dropout_probs(small_net(rate=0.5), np.zeros((2, 5)), 2, derive_rng(0))
