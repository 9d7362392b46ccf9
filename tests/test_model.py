"""Network assembly, forward/backward, trajectories of checkpoints, dropout passes."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allab import acquisition, model
from allab.acquisition import coreset_acquire
from allab.errors import DimensionError, TrainingDiverged
from allab.layers import affine_backward, affine_forward, relu, softmax, softmax_cross_entropy
from allab.model import (
    GATHER_BYTES,
    ForwardCache,
    MlpParams,
    ModelSpec,
    avg_predict,
    backward,
    cell,
    dropout_probs,
    forward,
    init_mlp,
    predict_proba,
    row_blocks,
    zeros_like,
)
from allab.pool import PoolState, evaluate
from allab.seeding import derive_rng
from allab.trainer import sgd_step

from test_layers import fd_grad, rel_err


def small_net(seed=0, sizes=(3, 4, 2), split=1, rate=0.0):
    return init_mlp(ModelSpec(sizes, split, rate), derive_rng(seed))


def trajectory_of(*models) -> MlpParams:
    """A trajectory as the trainer returns one: a read-only (K, P) stack whose
    row k is a copy of model k's vector."""
    flat = np.stack([m.flat for m in models])
    flat.flags.writeable = False
    return MlpParams(models[0].spec, flat)


# ---- spec / init -----------------------------------------------------------

def test_model_spec_split_bounds():
    ModelSpec((4, 8, 3), split_index=1)
    ModelSpec((4, 8, 8, 3), split_index=2)
    with pytest.raises(ValueError):
        ModelSpec((4, 8, 3), split_index=0)
    with pytest.raises(ValueError):
        ModelSpec((4, 8, 3), split_index=2)  # head would be empty


def test_init_shapes_mnist_default():
    params = init_mlp(ModelSpec((784, 128, 10), 1, 0.0), derive_rng(0))
    assert [W.shape for W, _ in params.layers] == [(784, 128), (128, 10)]
    assert [b.shape for _, b in params.layers] == [(128,), (10,)]
    Z, logits, _ = forward(params, np.zeros((2, 784)))
    assert Z.shape == (2, 128) and logits.shape == (2, 10)


def test_init_same_seed_identical():
    a = init_mlp(ModelSpec((5, 6, 3), 1, 0.0), derive_rng(9))
    b = init_mlp(ModelSpec((5, 6, 3), 1, 0.0), derive_rng(9))
    for (Wa, ba), (Wb, bb) in zip(a.layers, b.layers):
        assert np.array_equal(Wa, Wb) and np.array_equal(ba, bb)


def test_init_weight_variance():
    params = init_mlp(ModelSpec((1000, 1000, 2), 1, 0.0), derive_rng(1))
    W = params.layers[0][0]  # 1e6 entries
    target = 2.0 / 1000
    assert abs(W.var() - target) <= 0.1 * target
    assert not params.layers[0][1].any()  # zero biases


# ---- the flat parameter vector ---------------------------------------------

@settings(max_examples=40, deadline=None)
@given(sizes=st.lists(st.integers(1, 9), min_size=3, max_size=5), seed=st.integers(0, 2**31))
def test_init_mlp_draws_as_per_layer_code(sizes, seed):
    rng, ref_rng = derive_rng(seed, "init"), derive_rng(seed, "init")
    params = init_mlp(ModelSpec(sizes, 1, 0.0), rng)
    for (W, b), fan_in, fan_out in zip(params.layers, sizes[:-1], sizes[1:], strict=True):
        W_ref = ref_rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in)
        assert np.array_equal(W.view(np.uint64), W_ref.view(np.uint64))
        assert np.array_equal(b.view(np.uint64), np.zeros(fan_out).view(np.uint64))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(sizes=st.lists(st.integers(1, 9), min_size=3, max_size=5), seed=st.integers(0, 2**31))
def test_layers_are_views_of_the_flat_vector(sizes, seed):
    params = init_mlp(ModelSpec(sizes, 1, 0.0), derive_rng(seed, "init"))
    flat = params.flat
    assert flat.dtype == np.float64 and flat.flags.c_contiguous
    assert params.spec.layer_sizes == tuple(sizes)
    pieces = [a for pair in params.layers for a in pair]
    assert all(a.base is flat for a in pieces)
    assert sum(a.size for a in pieces) == flat.size
    laid_out = np.concatenate([a.ravel() for a in pieces])
    assert np.array_equal(laid_out.view(np.uint64), flat.view(np.uint64))
    flat[:] = np.arange(flat.size)  # a write to the vector shows through every view, in layout order
    assert np.array_equal(np.concatenate([a.ravel() for a in pieces]), np.arange(flat.size))


@settings(max_examples=40, deadline=None)
@given(sizes=st.lists(st.integers(1, 9), min_size=3, max_size=5), seed=st.integers(0, 2**31))
def test_snapshot_is_a_read_only_copy_of_the_vector(sizes, seed):
    # a checkpoint is a row of a read-only trajectory: it, and every view
    # ``cell`` and ``layers`` make of it, refuse writes
    params = init_mlp(ModelSpec(sizes, 1, 0.0), derive_rng(seed, "init"))
    trajectory = trajectory_of(params, params)
    for k in range(2):
        snap = cell(trajectory, k)
        assert np.array_equal(snap.flat.view(np.uint64), params.flat.view(np.uint64))
        assert snap.spec.layer_sizes == params.spec.layer_sizes
        assert not np.shares_memory(snap.flat, params.flat)
        for target in (snap.flat, *(a for pair in snap.layers for a in pair)):
            assert np.shares_memory(target, trajectory.flat)
            assert not np.shares_memory(target, params.flat)
            with pytest.raises(ValueError, match="read-only"):
                target[0] = 5.0
    params.flat += 1.0  # training the source leaves the trajectory as it was
    assert not np.array_equal(trajectory.flat[0], params.flat)


@pytest.mark.parametrize(
    "layers",
    [
        [],
        [(np.zeros((4, 5)), np.zeros(5)), (np.zeros((4, 3)), np.zeros(3))],  # 5 -> 4
        [(np.zeros((4, 5)), np.zeros(4)), (np.zeros((5, 3)), np.zeros(3))],  # bias of 4
        [(np.zeros((4, 5)), np.zeros(5)), (np.zeros((5, 2)), np.zeros(2))],  # 2 classes
        [(np.zeros(5), np.zeros(5)), (np.zeros((5, 3)), np.zeros(3))],  # 1-D weights
    ],
)
def test_hand_built_params_must_chain(layers):
    # laid out one after another, pieces that do not chain as (4, 5, 3) leave
    # a vector of the wrong length for that spec
    flat = np.concatenate([np.zeros(0), *(a.ravel() for pair in layers for a in pair)])
    with pytest.raises(DimensionError, match=r"do not fit layer sizes \(4, 5, 3\)"):
        MlpParams(ModelSpec((4, 5, 3)), flat)


@pytest.mark.parametrize("split_index", [0, 2])
def test_hand_built_params_need_features_and_a_head(split_index):
    with pytest.raises(ValueError, match=r"split_index must be in \[1, 2\)"):
        ModelSpec((2, 3, 2), split_index)


def test_hand_built_params_wrap_their_vector():
    flat = np.arange(13.0)
    params = MlpParams(ModelSpec((2, 3, 1)), flat)
    assert params.flat is flat
    assert all(a.base is flat for pair in params.layers for a in pair)
    assert np.array_equal(params.layers[1][0].ravel(), [9.0, 10.0, 11.0])
    with pytest.raises(DimensionError):  # neither one model's vector nor a stack of them
        MlpParams(ModelSpec((2, 3, 1)), np.zeros((2, 1, 13)))


# ---- forward ---------------------------------------------------------------

def test_forward_zero_params_uniform():
    params = MlpParams(ModelSpec((4, 5, 3), 1, 0.0), np.zeros(4 * 5 + 5 + 5 * 3 + 3))
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


def test_forward_at_rate_zero_passes_activations_on_and_draws_nothing():
    params = small_net(4, sizes=(3, 6, 5, 2), rate=0.0)
    rng = derive_rng(6)
    _, _, cache = forward(params, derive_rng(5).standard_normal((8, 3)), train_mode=True, rng=rng)
    assert cache.dropout_masks == [None, None]
    assert cache.inputs[1] is cache.activations[0] and cache.inputs[2] is cache.activations[1]
    assert rng.bit_generator.state == derive_rng(6).bit_generator.state


def test_forward_dropout_needs_an_rng_and_a_rate_below_one():
    with pytest.raises(ValueError, match="rate > 0 requires an rng"):
        forward(small_net(rate=0.5), np.ones((2, 3)), train_mode=True)
    forward(small_net(rate=0.5), np.ones((2, 3)))  # eval mode draws no masks
    for rate in (1.0, -0.1):
        with pytest.raises(ValueError, match=r"dropout_rate must be in \[0, 1\)"):
            ModelSpec((3, 4, 2), 1, rate)


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


def eval_forward_reference(params, X):
    """Eval-mode forward written out in full: every pre-activation computed
    from the params and X and kept, each ReLU a new array, no dropout.
    Returns (Z, logits, hidden inputs, pre-activations)."""
    a, spec = np.asarray(X, dtype=np.float64), params.spec
    inputs, pres = [], []
    *hidden, (W_out, b_out) = params.layers
    for i, (W, b) in enumerate(hidden, start=1):
        inputs.append(a)
        pres.append(affine_forward(a, W, b))
        a = relu(pres[-1])
        if i == spec.split_index:
            Z = a
    return Z, affine_forward(a, W_out, b_out), inputs, pres


def predict_proba_reference(params, X):
    """Softmax of the reference logits into a new array."""
    return softmax(eval_forward_reference(params, X)[1])


def random_net_and_input(hidden, cells, rate, n, scale, special, seed):
    """A random MLP with the given hidden widths (a stack when ``cells`` is
    set) and a batch for it, a share of whose entries is ``special``."""
    rng = derive_rng(seed, "init")
    d, C = int(rng.integers(1, 6)), int(rng.integers(2, 6))
    spec = ModelSpec((d, *hidden, C), int(rng.integers(1, len(hidden) + 1)), rate)
    shape = (n, d) if cells is None else (cells, n, d)
    if cells is None:
        params = init_mlp(spec, rng)
    else:
        params = MlpParams(spec, np.stack([init_mlp(spec, rng).flat for _ in range(cells)]))
    X = scale * rng.standard_normal(shape)
    if special is not None:  # signed zeros and non-finite values through every layer
        X[rng.random(X.shape) < 0.3] = special
    return params, X


@settings(max_examples=80, deadline=None)
@given(
    hidden=st.lists(st.integers(1, 8), min_size=1, max_size=3),
    cells=st.sampled_from([None, 1, 3]),
    rate=st.sampled_from([0.0, 0.5]),
    n=st.integers(1, 12),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    special=st.sampled_from([None, 0.0, -0.0, np.nan, np.inf, -np.inf]),
    seed=st.integers(0, 2**31),
)
def test_eval_forward_and_predict_equal_the_cache_building_forward(
    hidden, cells, rate, n, scale, special, seed
):
    params, X = random_net_and_input(hidden, cells, rate, n, scale, special, seed)
    with np.errstate(invalid="ignore", over="ignore"):
        Z, logits, cache = forward(params, X)
        want_Z, want_logits, _, _ = eval_forward_reference(params, X)
        want_P = predict_proba_reference(params, X) if cells is None else None
    assert cache is None
    assert np.array_equal(Z.view(np.uint64), want_Z.view(np.uint64))
    assert np.array_equal(logits.view(np.uint64), want_logits.view(np.uint64))
    if cells is None and np.isfinite(want_P).all():
        assert np.array_equal(predict_proba(params, X).view(np.uint64), want_P.view(np.uint64))
    elif cells is None:  # quietly: the check, not a RuntimeWarning, reports it
        with pytest.raises(TrainingDiverged, match="^non-finite predictions$"):
            predict_proba(params, X)


@settings(max_examples=80, deadline=None)
@given(
    hidden=st.lists(st.integers(1, 8), min_size=1, max_size=3),
    cells=st.sampled_from([None, 1, 3]),
    n=st.integers(1, 12),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    special=st.sampled_from([None, 0.0, -0.0, np.nan, np.inf, -np.inf]),
    seed=st.integers(0, 2**31),
)
def test_train_forward_at_rate_zero_equals_eval_forward(hidden, cells, n, scale, special, seed):
    params, X = random_net_and_input(hidden, cells, 0.0, n, scale, special, seed)
    with np.errstate(invalid="ignore", over="ignore"):
        Z, logits, cache = forward(params, X, train_mode=True)
        eval_Z, eval_logits, _ = forward(params, X)
        _, _, inputs, pres = eval_forward_reference(params, X)
    assert np.array_equal(Z.view(np.uint64), eval_Z.view(np.uint64))
    assert np.array_equal(logits.view(np.uint64), eval_logits.view(np.uint64))
    # the cache is what backward reads: each hidden layer's input, activation
    # and (at rate 0, no) mask, then the head's input, the last activation
    assert cache.dropout_masks == [None] * len(hidden)
    assert cache.inputs[-1] is cache.activations[-1]
    for a, h, want_a, pre in zip(cache.inputs[:-1], cache.activations, inputs, pres, strict=True):
        assert np.array_equal(a.view(np.uint64), want_a.view(np.uint64))
        assert np.array_equal(h.view(np.uint64), relu(pre).view(np.uint64))
        assert np.array_equal(h > 0, pre > 0)  # the mask relu_backward reads


# ---- backward --------------------------------------------------------------

def test_backward_feature_gradient_injection():
    # loss = <V, Z>: backward with zero dlogits and dZ=V must match differences
    for attempt in range(20):
        params = small_net(100 + attempt)
        X = derive_rng(200 + attempt).standard_normal((4, 3))
        if np.abs(affine_forward(X, *params.layers[0])).min() > 1e-3:
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


def train_forward_reference(params, X, rng):
    """Train-mode forward written out in full from the params, X and the
    dropout stream ``rng``: every pre-activation recomputed and kept, each
    ReLU and each dropped-out activation a new array, each mask redrawn as
    ``(rng.random(shape) >= rate) / (1 - rate)``.  Returns (layer inputs,
    pre-activations, masks); no ``ForwardCache`` is read."""
    a, rate = np.asarray(X, dtype=np.float64), params.spec.dropout_rate
    inputs, pres, masks = [], [], []
    for W, b in params.layers[:-1]:
        inputs.append(a)
        pres.append(a @ W + b)
        a = np.where(pres[-1] > 0, pres[-1], 0.0)
        mask = (rng.random(a.shape) >= rate) / (1.0 - rate) if rate > 0 else None
        masks.append(mask)
        a = a if mask is None else a * mask
    inputs.append(a)
    return inputs, pres, masks


def full_backward_reference(params, ref, dlogits, dZ=None):
    """Backward through every layer, input-layer dX included, as a plain chain
    rule on a :func:`train_forward_reference` pass ``ref``."""
    inputs, pres, masks = ref
    n_layers = len(params.layers)
    grads = [None] * n_layers
    upstream = np.asarray(dlogits, dtype=np.float64)
    for i in range(n_layers, 0, -1):
        W, _ = params.layers[i - 1]
        if i < n_layers:
            mask = masks[i - 1]
            if mask is not None:
                upstream = upstream * mask
            if dZ is not None and i == params.spec.split_index:
                upstream = upstream + dZ
            upstream = np.where(pres[i - 1] > 0, upstream, 0.0)
        upstream, dW, db = affine_backward(inputs[i - 1], W, upstream)
        grads[i - 1] = (dW, db)
    return grads


@st.composite
def nets(draw):
    """A small random MLP (any depth >= 2, any split, optional dropout), a
    train-mode forward pass and its reference, and upstream gradients."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=3, max_size=5))
    split = draw(st.integers(1, len(sizes) - 2))
    rate = draw(st.sampled_from([0.0, 0.3, 0.5]))
    n = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**31))
    params = init_mlp(ModelSpec(sizes, split, rate), derive_rng(seed, "init"))
    rng = derive_rng(seed, "data")
    X = rng.standard_normal((n, sizes[0]))
    Z, logits, cache = forward(params, X, train_mode=True, rng=derive_rng(seed, "dropout"))
    ref = train_forward_reference(params, X, derive_rng(seed, "dropout"))
    return params, cache, ref, rng.standard_normal(logits.shape), rng.standard_normal(Z.shape)


@settings(max_examples=60, deadline=None)
@given(net=nets(), with_dZ=st.booleans())
def test_backward_without_input_dX_equals_full_chain_rule(net, with_dZ):
    params, cache, ref, dlogits, dZ = net
    dZ = dZ if with_dZ else None
    out = zeros_like(params)
    out.flat[:] = np.nan  # backward must write every entry
    got = backward(params, cache, dlogits, dZ=dZ, out=out)
    want = full_backward_reference(params, ref, dlogits, dZ)
    for (dW, db), (dW_ref, db_ref) in zip(got, want, strict=True):
        assert np.array_equal(dW, dW_ref) and np.array_equal(db, db_ref)
    assert got is out.layers


# ---- trajectories and avg_predict ------------------------------------------

def test_snapshot_is_an_equal_copy_that_predicts_alike():
    # a trajectory's row is MlpParams holding equal copies, and predicts the same bits
    params = small_net(15, sizes=(3, 5, 4, 2), split=2, rate=0.25)
    X = derive_rng(16).standard_normal((5, 3))
    snap = cell(trajectory_of(params), 0)
    assert isinstance(snap, MlpParams)
    assert (snap.spec.split_index, snap.spec.dropout_rate) == (2, 0.25)
    for (W, b), (Ws, bs) in zip(params.layers, snap.layers, strict=True):
        assert np.array_equal(W, Ws) and np.array_equal(b, bs)
        assert not np.shares_memory(W, Ws) and not np.shares_memory(b, bs)
    assert np.array_equal(predict_proba(snap, X), predict_proba(params, X))


def test_snapshot_isolated_from_training():
    params = small_net(17)
    X = derive_rng(18).standard_normal((6, 3))
    y = derive_rng(19).integers(0, 2, 6)
    before = predict_proba(params, X)
    snap = cell(trajectory_of(params), 0)

    for _ in range(10):
        _, logits, cache = forward(params, X, train_mode=True)
        _, dlogits = softmax_cross_entropy(logits, y)
        grad = zeros_like(params)
        backward(params, cache, dlogits, out=grad)
        sgd_step(params, grad.flat, 0.5, 0.0)
    assert not np.array_equal(predict_proba(params, X), before)
    assert np.array_equal(predict_proba(snap, X), before)


def test_snapshots_differ_after_nonzero_step():
    params = small_net(20)
    first = MlpParams(params.spec, params.flat.copy())
    sgd_step(params, np.ones_like(params.flat), 0.1, 0.0)
    trajectory = trajectory_of(first, params)
    s1, s2 = cell(trajectory, 0), cell(trajectory, 1)
    assert not np.array_equal(s1.layers[0][0], s2.layers[0][0])
    # the recorded snapshot moved by exactly -lr * g
    assert np.allclose(s2.layers[0][0], s1.layers[0][0] - 0.1, atol=1e-15)


def test_snapshot_arrays_read_only():
    snap = cell(trajectory_of(small_net(21)), 0)
    for W, b in snap.layers:
        for target in (W, b):
            before = target.copy()
            with pytest.raises(ValueError, match="read-only"):
                target[0] = 5.0
            with pytest.raises(ValueError, match="read-only"):
                target += 1.0
            assert np.array_equal(target, before)


def test_sgd_step_on_snapshot_raises():
    snap = cell(trajectory_of(small_net(24)), 0)
    kept = [(W.copy(), b.copy()) for W, b in snap.layers]
    with pytest.raises(ValueError, match="read-only"):
        sgd_step(snap, np.ones_like(snap.flat), 0.1, 0.0)
    for (W, b), (Wk, bk) in zip(snap.layers, kept, strict=True):
        assert np.array_equal(W, Wk) and np.array_equal(b, bk)


def avg_predict_by_copies(trajectory, X):
    """The old checkpoint average: each checkpoint copied back into writable
    parameters, predicted from by the reference forward, and summed and
    divided into new arrays."""
    acc = None
    for row in trajectory.flat:
        params = MlpParams(trajectory.spec, row.copy())
        P = predict_proba_reference(params, X)
        acc = P if acc is None else acc + P
    return acc / len(trajectory.flat)


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
    params = init_mlp(ModelSpec((d, *sizes, C), int(rng.integers(1, len(sizes) + 1)), 0.0), rng)
    snaps = []
    for _ in range(n_snaps):
        for W, b in params.layers:  # move the weights between checkpoints
            W += scale * rng.standard_normal(W.shape)
            b += scale * rng.standard_normal(b.shape)
        snaps.append(MlpParams(params.spec, params.flat.copy()))
    traj = trajectory_of(*snaps)
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
    params = init_mlp(ModelSpec((d, *hidden, C), 1, rate), rng)
    X = scale * rng.standard_normal((n, d))
    if special is not None:  # signed zeros and non-finite values through the mask
        X[rng.random(X.shape) < 0.3] = special
    got_rng, want_rng = derive_rng(seed, "dropout"), derive_rng(seed, "dropout")
    with np.errstate(invalid="ignore", over="ignore"):
        want = dropout_probs_reference(params, X, passes, want_rng)
    # the passes up to the first with a non-finite probability, which raises
    finite = [bool(np.isfinite(P).all()) for P in want]
    first_bad = finite.index(False) if False in finite else passes
    got_passes = dropout_probs(params, X, passes, got_rng)
    got = np.array([P.copy() for _, P in zip(range(first_bad), got_passes)]).reshape(first_bad, n, C)
    assert np.array_equal(got.view(np.uint64), want[:first_bad].view(np.uint64))
    if first_bad < passes:
        with pytest.raises(TrainingDiverged, match="^non-finite predictions$"):
            next(got_passes)
    else:
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "sizes",
    [
        (6, 256, 40),  # one later layer, the head: 256-row blocks
        (6, 128, 64, 5),  # two
        (6, 96, 100, 16, 3),  # three
        (6, 64, 200, 4),  # float64 over 192 units: one block; float32: 401-row blocks
    ],
)
def test_dropout_probs_across_mask_blocks_equals_forward_per_pass(sizes, dtype):
    n = 900  # the selection: 3 or 4 blocks of the first later product, or one
    rng = derive_rng(sum(sizes), "init")
    params = init_mlp(ModelSpec(sizes, 1, 0.5), rng)
    params = MlpParams(params.spec, params.flat.astype(dtype))
    X = rng.standard_normal((n + 100, sizes[0]))
    rows = rng.permutation(n + 100)[:n]
    W2 = params.layers[1][0]
    blocks = len(row_blocks(n, *W2.shape, W2.itemsize, floor_bytes=0)) - 1
    assert blocks == 1 if dtype == np.float64 and W2.shape[1] > 192 else blocks >= 3
    got_rng, want_rng = derive_rng(7, "dropout"), derive_rng(7, "dropout")
    want = dropout_probs_reference(params, X[rows], 3, want_rng)
    got = np.stack([P.copy() for P in dropout_probs(params, X, 3, got_rng, rows)])
    assert np.array_equal(got.view(np.uint8), want.view(np.uint8))
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


def test_a_stack_holds_copies_of_its_cells_and_views_them():
    cells = [init_mlp(ModelSpec((3, 4, 2), 1, 0.0), derive_rng(r)) for r in range(3)]
    stacked = MlpParams(cells[0].spec, np.stack([c.flat for c in cells]))
    assert stacked.flat.shape == (3, cells[0].flat.size)
    for (W, b), sizes in zip(stacked.layers, [(3, 4), (4, 2)]):
        assert W.shape == (3, *sizes) and b.shape == (3, sizes[1])
        assert np.shares_memory(W, stacked.flat) and np.shares_memory(b, stacked.flat)
    for r, c in enumerate(cells):
        one = cell(stacked, r)
        assert np.shares_memory(one.flat, stacked.flat)
        assert not np.shares_memory(one.flat, c.flat)
        assert np.array_equal(one.flat, c.flat)
        for (W, b), (Wc, bc) in zip(one.layers, c.layers):
            assert np.array_equal(W, Wc) and np.array_equal(b, bc)
    with pytest.raises(DimensionError, match="does not match first layer"):
        forward(stacked, np.zeros((2, 5, 3)))  # a batch for 2 cells, not 3


# ---- float32 ---------------------------------------------------------------

def float_dtypes(obj) -> set:
    """The dtypes of every float array and numpy float scalar in ``obj``,
    looking into tuples, lists, dicts, forward caches and parameters."""
    if isinstance(obj, (np.ndarray, np.floating)):
        return {obj.dtype} if obj.dtype.kind == "f" else set()
    if isinstance(obj, (tuple, list)):
        return set().union(*map(float_dtypes, obj))
    if isinstance(obj, dict):
        return float_dtypes(list(obj.values()))
    if isinstance(obj, ForwardCache):
        return float_dtypes([obj.inputs, obj.activations, obj.dropout_masks])
    if isinstance(obj, MlpParams):
        return float_dtypes(obj.flat)
    return set()


def spy_float_dtypes(monkeypatch, module, names) -> list:
    """Wraps each named function of ``module``; the returned list gets, per
    call, its name and the float dtypes of its arguments and result."""
    seen = []

    def spying(fn):
        def spy(*args, **kwargs):
            result = fn(*args, **kwargs)
            seen.append((fn.__name__, float_dtypes([args, kwargs, result])))
            return result
        return spy

    for name in names:
        monkeypatch.setattr(module, name, spying(getattr(module, name)))
    return seen


def test_float32_model_computes_in_float32(monkeypatch):
    # a stray float64 array anywhere would widen everything after it, or be
    # cast back into a float32 output, and keep every value, only slower:
    # every float array the layer primitives get or give must be float32

    primitives = (
        "affine_forward", "affine_backward", "relu", "relu_backward", "dropout_mask", "softmax"
    )
    seen = spy_float_dtypes(monkeypatch, model, primitives)
    spec = ModelSpec((3, 5, 4, 2), 1, 0.5)
    params = MlpParams(spec, init_mlp(spec, derive_rng(0)).flat.astype(np.float32))
    twin = init_mlp(spec, derive_rng(0))
    assert params.flat.dtype == np.float32 and twin.flat.dtype == np.float64
    assert params.flat.tobytes() == twin.flat.astype(np.float32).tobytes()  # same draws, rounded
    X = derive_rng(1).standard_normal((6, 3))
    # a float64 input is cast to the model's dtype
    Z, logits, cache = forward(params, X, train_mode=True, rng=derive_rng(2))
    arrays = [Z, logits, *cache.inputs, *cache.activations, *cache.dropout_masks]
    arrays += [a for pair in backward(params, cache, np.ones_like(logits), dZ=np.ones_like(Z)) for a in pair]
    arrays += [predict_proba(params, X), avg_predict(trajectory_of(params, params), X)]
    arrays += list(dropout_probs(params, X, 2, derive_rng(3)))
    assert [a.dtype for a in arrays] == [np.float32] * len(arrays)
    assert {name for name, _ in seen} == set(primitives)
    assert all(dtypes == {np.dtype(np.float32)} for _, dtypes in seen), seen

    # the dropout stream contract holds in either dtype: float64 draws, so
    # the same entries kept and the stream left at the same place
    rng32, rng64 = derive_rng(2), derive_rng(2)
    _, _, cache32 = forward(params, X, train_mode=True, rng=rng32)
    _, _, cache64 = forward(twin, X, train_mode=True, rng=rng64)
    for m32, m64 in zip(cache32.dropout_masks, cache64.dropout_masks, strict=True):
        assert np.array_equal(m32 != 0, m64 != 0)
    assert rng32.bit_generator.state == rng64.bit_generator.state


@pytest.mark.parametrize("dtype", [np.float16, np.int64, np.uint8, np.complex128])
def test_params_must_be_float64_or_float32(dtype):
    with pytest.raises(DimensionError, match=f"parameters are {np.dtype(dtype)}, not float64 or float32"):
        MlpParams(ModelSpec((2, 3, 1)), np.zeros(13, dtype))


def test_a_model_computes_in_its_vectors_dtype_and_a_stack_in_one():
    # the spec names no dtype: init draws float64, a float32 model is its
    # vector rounded, and a stack, a trajectory included, is one array of one dtype
    spec = ModelSpec((2, 3, 1))
    wide = init_mlp(spec, derive_rng(0))
    narrow = MlpParams(spec, wide.flat.astype(np.float32))
    X = derive_rng(1).standard_normal((4, 2))
    assert wide.flat.dtype == np.float64
    assert predict_proba(wide, X).dtype == np.float64 and predict_proba(narrow, X).dtype == np.float32
    assert avg_predict(trajectory_of(narrow, narrow), X).dtype == np.float32
    assert avg_predict(trajectory_of(wide, wide), X).dtype == np.float64


# ---- scoring selected rows -------------------------------------------------
# Given rows, X[rows] is gathered block by block and run through the network
# in groups of blocks; every scoring path must give what copying X[rows] out
# first gives.

def block_rows(width, out_width, itemsize):
    """The most rows one block takes, by the rule ``row_blocks`` documents."""
    macs = -(-(2 << 20) // (width * out_width))
    return max(256, GATHER_BYTES // (width * itemsize), macs, 2 * out_width + 1)


def test_row_blocks_of_the_image_pool():
    # a 784-128 float32 layer: 2 MiB of input is 668 rows
    assert block_rows(784, 128, 4) == 668
    assert row_blocks(668, 784, 128, 4) == [0, 668]
    assert row_blocks(669, 784, 128, 4) == [0, 334, 669]
    assert np.diff(row_blocks(4900, 784, 128, 4)).tolist() == [612, 613] * 4
    # float64 rows are twice as wide: 334 rows
    assert row_blocks(335, 784, 128, 8) == [0, 167, 335]


@pytest.mark.parametrize("width, out_width", [(8, 64), (32, 64), (32, 16), (2, 64)])
def test_a_narrow_selection_is_one_block(width, out_width):
    # every selection of the narrow benchmark pools, up to 8,000 rows
    assert row_blocks(8000, width, out_width, 4) == [0, 8000]
    assert row_blocks(8000, width, out_width, 8) == [0, 8000]


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(0, 10**6),
    width=st.integers(1, 4096),
    out_width=st.integers(1, 512),
    itemsize=st.sampled_from([4, 8]),
)
def test_row_blocks_are_near_equal_and_never_a_short_tail(n, width, out_width, itemsize):
    bounds = row_blocks(n, width, out_width, itemsize)
    sizes = np.diff(bounds)
    per = block_rows(width, out_width, itemsize)
    whole = one_block(itemsize, out_width)
    assert bounds[0] == 0 and bounds[-1] == n and len(sizes) == (1 if whole else max(1, -(-n // per)))
    assert sizes.max() - sizes.min() <= 1
    assert sizes.min() >= min(n, 128)
    if len(sizes) > 1:
        assert sizes.max() <= per
        # above OpenBLAS's small-matrix kernel, which sums in another order,
        # and more rows than columns, which two threads split as the whole
        assert sizes.min() * width * out_width > 100**3
        assert sizes.min() > out_width


def one_block(itemsize, out_width):
    """Whether ``row_blocks`` scores every row in one block: for single-unit
    first layers and float64 ones of over 192 units, where a row of a block's
    product can differ in its last bits from that row of the whole product
    on OpenBLAS 0.3.31 (README)."""
    return out_width == 1 or (itemsize == 8 and out_width > 192)


def same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    width=st.sampled_from([8, 32, 784]),
    dtype=st.sampled_from([np.float32, np.float64]),
    regime=st.sampled_from(["1-9 rows", "one block", "per - 1", "per", "per + 1", "3-8 blocks"]),
    negative=st.booleans(),
    data=st.data(),
)
def test_scoring_rows_equals_scoring_the_gathered_rows(width, dtype, regime, negative, data):
    # narrow inputs make long blocks; their hidden widths stay small so the
    # (n, h) activations do too
    first = data.draw(st.integers(1, 256 if width == 784 else 64), label="first hidden width")
    more = st.integers(1, 128 if width == 784 else 32)
    hidden = [first] + data.draw(st.lists(more, max_size=1), label="more hidden")
    rng = derive_rng(data.draw(st.integers(0, 2**31), label="seed"), "rows")
    C = int(rng.integers(2, 11))
    spec = ModelSpec((width, *hidden, C), int(rng.integers(1, len(hidden) + 1)), 0.5)
    itemsize = np.dtype(dtype).itemsize
    per = block_rows(width, first, itemsize)
    n = {"1-9 rows": int(rng.integers(1, 10)), "one block": int(rng.integers(10, min(per, 3000))),
         "per - 1": per - 1, "per": per, "per + 1": per + 1,
         "3-8 blocks": int(rng.integers(2 * per + 1, 8 * per + 1)) if width == 784 else per + 1}[regime]
    N = n + int(rng.integers(0, 50))
    X = rng.standard_normal((N, width)).astype(dtype)
    rows = rng.permutation(N)[:n]  # unsorted, as acquisition orders its picks
    if negative:
        rows[rng.random(n) < 0.5] -= N  # X[rows] reads these from the end
    params = MlpParams(spec, init_mlp(spec, rng).flat.astype(dtype, copy=False))
    snaps = []
    for _ in range(3):
        params.flat += np.asarray(0.1 * rng.standard_normal(params.flat.shape), dtype)
        snaps.append(MlpParams(spec, params.flat.copy()))
    trajectory, gathered = trajectory_of(*snaps), X[rows]
    blocks = len(row_blocks(n, width, first, itemsize)) - 1
    if one_block(itemsize, first):
        assert blocks == 1
    else:
        assert blocks == {"per + 1": 2, "3-8 blocks": -(-n // per) if width == 784 else 2}.get(regime, 1)

    got = [*forward(params, X, rows=rows)[:2], avg_predict(trajectory, X, rows)]
    want = [*forward(params, gathered)[:2], avg_predict(trajectory, gathered)]
    got_rng, want_rng = derive_rng(7), derive_rng(7)
    got += [P.copy() for P in dropout_probs(params, X, 3, got_rng, rows)]
    want += [P.copy() for P in dropout_probs(params, gathered, 3, want_rng)]
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert all(same_bits(g, w) for g, w in zip(got, want, strict=True))
    # core-set's features, and so its picks and scores, as the gathering code
    pool = PoolState(X, np.zeros(N, dtype=np.int64), 2, rows[:3], rows[3:], rows[:0])
    if n > 3:
        picked = coreset_acquire(params, pool, 3)
        with mock.patch.object(acquisition, "forward", lambda p, X, rows: forward(p, X[rows])):
            want_picked = coreset_acquire(params, pool, 3)
        assert same_bits(picked.selected, want_picked.selected)
        assert same_bits(picked.scores, want_picked.scores)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("sizes", [(784, 128, 10), (784, 192, 128, 5), (784, 160, 3)])
def test_scoring_in_groups_of_blocks_equals_scoring_the_gathered_rows(sizes, dtype):
    # 4,900 image rows run through the later layers in two to five groups,
    # each at least the least block of every later product; heads of few
    # classes are where smaller groups moved bits
    spec = ModelSpec(sizes, len(sizes) - 2, 0.0)
    rng = derive_rng(3, "groups")
    X = rng.standard_normal((5000, 784)).astype(dtype)
    rows = rng.permutation(5000)[:4900]
    snaps = [MlpParams(spec, init_mlp(spec, derive_rng(4, k)).flat.astype(dtype)) for k in range(3)]
    with mock.patch.object(model, "_network", wraps=model._network) as network:
        got = [*forward(snaps[0], X, rows=rows)[:2], avg_predict(trajectory_of(*snaps), X, rows)]
    assert 0 < max(call.args[1].shape[0] for call in network.call_args_list) < 4900
    want = [*forward(snaps[0], X[rows])[:2], avg_predict(trajectory_of(*snaps), X[rows])]
    assert all(same_bits(g, w) for g, w in zip(got, want, strict=True))


def test_gathering_into_the_models_dtype_reads_no_stale_bits():
    # take casts float64 rows into a float32 buffer by way of a copy of the
    # buffer's old contents; an uninitialized buffer holding signalling-NaN
    # bits (here a freed 128-byte block, which numpy's small-block cache hands
    # to the next array of that size) warned "invalid value encountered in cast"
    params = small_net(rate=0.5, sizes=(4, 8, 2))
    params = MlpParams(params.spec, params.flat.astype(np.float32))
    X, rows = derive_rng(1).standard_normal((20, 4)), np.arange(8)
    for call in (lambda: forward(params, X, rows=rows), lambda: avg_predict(trajectory_of(params), X, rows)):
        stale = np.full(8 * 4, 0x7FA00000, np.uint32)  # the buffer's 8 x 4 float32 bytes
        del stale
        call()


@pytest.mark.parametrize("n", [5, 700])  # one block, and two
@pytest.mark.parametrize("bad", [800, -801])
def test_rows_out_of_range_raise_index_error(n, bad):
    params = init_mlp(ModelSpec((784, 128, 10), 1, 0.5), derive_rng(0))
    params = MlpParams(params.spec, params.flat.astype(np.float32))
    X = derive_rng(1).standard_normal((800, 784)).astype(np.float32)
    rows = np.append(np.arange(n - 1), bad)
    with pytest.raises(IndexError):
        forward(params, X, rows=rows)
    with pytest.raises(IndexError):
        dropout_probs(params, X, 2, derive_rng(2), rows)


@pytest.mark.parametrize("with_rows", [False, True])
def test_scoring_rejects_pixels_as_the_trainer_does(with_rows):
    # uint8 pixels are not feature values until divided by 255: every entry
    # point raises the trainer's DimensionError, and none scores them raw
    params = small_net(rate=0.5)
    pixels = derive_rng(1).integers(0, 256, (6, 3)).astype(np.uint8)
    rows = np.arange(4) if with_rows else None
    pool = PoolState(pixels, np.arange(6) % 2, 2, np.arange(2), np.arange(2, 4), np.arange(4, 6))
    trajectory = trajectory_of(params)
    calls = [
        lambda: forward(params, pixels, rows=rows),
        lambda: predict_proba(params, pixels),
        lambda: avg_predict(trajectory, pixels, rows),
        lambda: list(dropout_probs(params, pixels, 2, derive_rng(2), rows)),
        lambda: evaluate(trajectory, pool),
    ]
    if not with_rows:
        calls.append(lambda: forward(params, pixels, train_mode=True, rng=derive_rng(2)))
    for call in calls:
        with pytest.raises(DimensionError, match=r"^pool features are uint8, not floating point$"):
            call()


def test_rows_are_for_eval_mode():
    with pytest.raises(ValueError, match="eval-mode"):
        forward(small_net(), np.ones((4, 3)), train_mode=True, rng=derive_rng(0), rows=np.arange(2))


def test_rows_input_width_checked():
    params = init_mlp(ModelSpec((784, 128, 10), 1, 0.0), derive_rng(0))
    params = MlpParams(params.spec, params.flat.astype(np.float32))
    for n in (5, 700):  # one block, and two
        with pytest.raises(DimensionError):
            forward(params, np.zeros((800, 783), np.float32), rows=np.arange(n))
