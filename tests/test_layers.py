"""Layer primitives against closed forms, brute-force loops, and differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from allab import layers
from allab.layers import (
    affine_backward,
    affine_forward,
    check_labels,
    dropout_mask,
    relu,
    relu_backward,
    softmax,
    softmax_cross_entropy,
)


def fd_grad(f, x, h=1e-6):
    """Central finite differences of a scalar function, entry by entry."""
    g = np.zeros_like(x)
    flat, out = x.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = f()
        flat[i] = keep - h
        down = f()
        flat[i] = keep
        out[i] = (up - down) / (2 * h)
    return g


def rel_err(a, b):
    a, b = np.ravel(a), np.ravel(b)
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)


def matmul_loops(X, W, b):
    """Independent triple-loop affine reference."""
    n, d = X.shape
    m = W.shape[1]
    Y = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = b[j]
            for k in range(d):
                acc += X[i, k] * W[k, j]
            Y[i, j] = acc
    return Y


# ---- affine ----------------------------------------------------------------

def test_affine_identity():
    assert np.array_equal(
        affine_forward(np.array([[1.0, 2.0]]), np.eye(2), np.zeros(2)), [[1.0, 2.0]]
    )


def test_affine_zero_weights_returns_bias():
    assert np.array_equal(
        affine_forward(np.array([[1.0, 2.0]]), np.zeros((2, 2)), np.array([3.0, 4.0])),
        [[3.0, 4.0]],
    )


def test_affine_matches_triple_loop():
    rng = np.random.default_rng(0)
    X, W, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 2)), rng.standard_normal(2)
    assert rel_err(affine_forward(X, W, b), matmul_loops(X, W, b)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 5), d=st.integers(1, 5), m=st.integers(1, 5), seed=st.integers(0, 2**31)
)
def test_affine_matches_triple_loop_property(n, d, m, seed):
    rng = np.random.default_rng(seed)
    X, W, b = rng.standard_normal((n, d)), rng.standard_normal((d, m)), rng.standard_normal(m)
    assert rel_err(affine_forward(X, W, b), matmul_loops(X, W, b)) <= 1e-12


def test_affine_backward_zero_upstream():
    dX, dW, db = affine_backward(np.ones((3, 2)), np.ones((2, 4)), np.zeros((3, 4)))
    assert not dX.any() and not dW.any() and not db.any()


def test_affine_backward_scalar_chain():
    dX, dW, db = affine_backward(np.array([[2.0]]), np.array([[3.0]]), np.array([[1.0]]))
    assert dX == [[3.0]] and dW == [[2.0]] and db == [1.0]


def test_affine_backward_matches_differences():
    rng = np.random.default_rng(1)
    X, W, b = rng.standard_normal((5, 3)), rng.standard_normal((3, 4)), rng.standard_normal(4)
    V = rng.standard_normal((5, 4))
    loss = lambda: float((affine_forward(X, W, b) * V).sum())
    dX, dW, db = affine_backward(X, W, V)
    assert rel_err(dX, fd_grad(loss, X)) <= 1e-6
    assert rel_err(dW, fd_grad(loss, W)) <= 1e-6
    assert rel_err(db, fd_grad(loss, b)) <= 1e-6


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 6), d=st.integers(1, 6), m=st.integers(1, 6), seed=st.integers(0, 2**31)
)
def test_affine_backward_without_input_grad_same_weight_grads(n, d, m, seed):
    rng = np.random.default_rng(seed)
    X, W, dY = rng.standard_normal((n, d)), rng.standard_normal((d, m)), rng.standard_normal((n, m))
    _, dW, db = affine_backward(X, W, dY)
    no_dX, dW2, db2 = affine_backward(X, W, dY, input_grad=False)
    assert no_dX is None
    assert np.array_equal(dW, dW2) and np.array_equal(db, db2)


# ---- relu ------------------------------------------------------------------

def test_relu_values_and_zero_convention():
    X = np.array([[-1.0, 0.0, 2.0]])
    assert np.array_equal(relu(X), [[0.0, 0.0, 2.0]])
    assert np.array_equal(relu_backward(X, np.array([[1.0, 1.0, 1.0]])), [[0.0, 0.0, 1.0]])


def test_relu_all_negative():
    X = np.full((2, 3), -4.0)
    assert not relu(X).any()
    assert not relu_backward(X, np.ones((2, 3))).any()


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


relu_inputs = hnp.arrays(
    np.float64,
    hnp.array_shapes(max_dims=2, max_side=12),
    elements=st.one_of(
        st.sampled_from([0.0, -0.0, np.inf, -np.inf]),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
)


@settings(max_examples=200, deadline=None)
@given(X=relu_inputs, seed=st.integers(0, 2**31))
def test_relu_bit_identical_to_where_form(X, seed):
    # forward: every bit as np.where(X > 0, X, 0.0), -0.0 and exact 0 included
    assert np.array_equal(bits(relu(X)), bits(np.where(X > 0, X, 0.0)))
    # backward: finite upstream gives the same values; a blocked entry of a
    # negative upstream is -0.0 where np.where wrote 0.0, so compare zeros by value
    rng = np.random.default_rng(seed)
    dY = rng.standard_normal(X.shape) * 10.0 ** rng.integers(-300, 300, X.shape)
    dY[rng.random(X.shape) < 0.2] = -0.0
    got, want = relu_backward(X, dY), np.where(X > 0, dY, 0.0)
    assert np.array_equal(got, want)
    nonzero = want != 0
    assert np.array_equal(bits(got[nonzero]), bits(want[nonzero]))


@settings(max_examples=200, deadline=None)
@given(
    X=hnp.arrays(
        np.float64,
        hnp.array_shapes(max_dims=3, max_side=8),
        elements=st.one_of(st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]), st.floats()),
    ),
    seed=st.integers(0, 2**31),
)
def test_relu_backward_reads_the_relu_input_or_output_alike(X, seed):
    # max(x, 0) > 0 exactly where x > 0, so a forward pass may keep the output only
    rng = np.random.default_rng(seed)
    dY = rng.standard_normal(X.shape)
    dY[rng.random(X.shape) < 0.2] = -0.0
    assert np.array_equal(bits(relu_backward(relu(X), dY)), bits(relu_backward(X, dY)))


def test_relu_passes_nan_through():
    # max(NaN, 0) is NaN, so bad data is not silently zeroed on the way to the loss
    X = np.array([[np.nan, -1.0, 2.0]])
    assert np.isnan(relu(X)[0, 0])
    assert np.array_equal(relu(X)[0, 1:], [0.0, 2.0])


# ---- softmax and cross-entropy ---------------------------------------------

def softmax_inline(logits):
    """The softmax that predict_proba and bald_acquire each wrote out inline."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


logit_rows = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 8), st.integers(1, 6)),
    elements=st.one_of(
        st.sampled_from([0.0, -0.0, 1e300, -1e300, 709.0, -745.0, 1e-300]),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # max - min may overflow to -inf
@settings(max_examples=200, deadline=None)
@given(logits=logit_rows)
def test_softmax_bit_identical_to_inline_form(logits):
    got = softmax(logits)
    assert np.array_equal(bits(got), bits(softmax_inline(logits)))
    assert np.isfinite(got).all()
    assert np.abs(got.sum(axis=1) - 1.0).max() <= 1e-12


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # max - min may overflow to -inf
@settings(max_examples=100, deadline=None)
@given(logits=logit_rows, seed=st.integers(0, 2**31))
def test_out_buffers_give_the_allocating_bits(logits, seed):
    rng = np.random.default_rng(seed)
    n, m = logits.shape
    X, W, b = rng.standard_normal((n, 3)), rng.standard_normal((3, m)), rng.standard_normal(m)
    buf = np.empty((n, m))
    assert affine_forward(X, W, b, out=buf) is buf
    assert np.array_equal(bits(buf), bits(X @ W + b))
    assert relu(buf, out=buf) is buf
    assert np.array_equal(bits(buf), bits(np.maximum(X @ W + b, 0.0)))
    assert np.array_equal(bits(softmax(logits, out=buf)), bits(softmax_inline(logits)))
    in_place = logits.copy()
    assert softmax(in_place, out=in_place) is in_place
    assert np.array_equal(bits(in_place), bits(softmax_inline(logits)))


def softmax_row_max_form(logits):
    """softmax as it was before its row max came from the transpose."""
    e = np.subtract(logits, logits.max(axis=1, keepdims=True))
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


@settings(max_examples=200, deadline=None)
@given(data=st.data(), width=st.sampled_from([1, 2, 10, 100]), n=st.integers(1, 12),
       dtype=st.sampled_from([np.float32, np.float64]))
def test_softmax_bit_identical_to_the_row_max_form(data, width, n, dtype):
    # the row max picks either zero among ±0; subtracting either from x gives
    # the same exp, so the probabilities keep their bits
    logits = data.draw(hnp.arrays(dtype, (n, width), elements=st.one_of(
        st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 88.0, -104.0]),
        st.floats(allow_nan=False, allow_infinity=False, width=np.finfo(dtype).bits),
    )))
    with np.errstate(all="ignore"):  # inf - inf, NaN rows, overflowing spreads
        want = softmax_row_max_form(logits)
        assert softmax(logits).tobytes() == want.tobytes()
        in_place = logits.copy()
        assert softmax(in_place, out=in_place) is in_place
        assert in_place.tobytes() == want.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # 1e308 - -1e308 overflows to inf
def test_softmax_extreme_rows():
    logits = np.array([[1e308, -1e308, 0.0], [-1e308, -1e308, -1e308], [1000.0, 999.0, 0.0]])
    P = softmax(logits)
    assert np.array_equal(P[0], [1.0, 0.0, 0.0])
    assert np.allclose(P[1], 1.0 / 3.0, rtol=0, atol=1e-15)
    assert P[2, 0] == pytest.approx(1.0 / (1.0 + np.exp(-1.0)), rel=1e-15)
    assert np.array_equal(bits(P), bits(softmax_inline(logits)))


def test_softmax_ce_symmetric_two_logits():
    loss, dlogits = softmax_cross_entropy(np.zeros((1, 2)), np.array([0]))
    assert loss == pytest.approx(np.log(2), abs=1e-12)
    assert np.allclose(dlogits, [[-0.5, 0.5]])


def test_softmax_ce_saturated_no_overflow():
    loss, dlogits = softmax_cross_entropy(np.array([[1000.0, 0.0]]), np.array([0]))
    assert 0 <= loss <= 1e-12
    assert np.isfinite(dlogits).all()


def test_softmax_ce_gradient_matches_differences():
    rng = np.random.default_rng(2)
    logits = rng.standard_normal((4, 3)) * 2
    labels = rng.integers(0, 3, 4)
    loss = lambda: softmax_cross_entropy(logits, labels)[0]
    _, dlogits = softmax_cross_entropy(logits, labels)
    assert rel_err(dlogits, fd_grad(loss, logits)) <= 1e-6


def test_softmax_ce_label_out_of_range():
    with pytest.raises(IndexError, match=r"label 3"):
        check_labels(np.array([0, 3]), 3)
    with pytest.raises(IndexError):
        check_labels(np.array([-1]), 3)


def test_softmax_ce_mean_reduction():
    # two identical rows give the same loss as one; gradient carries 1/n
    one = softmax_cross_entropy(np.array([[1.0, -1.0]]), np.array([1]))
    two = softmax_cross_entropy(np.array([[1.0, -1.0]] * 2), np.array([1, 1]))
    assert two[0] == pytest.approx(one[0], abs=1e-15)
    assert np.allclose(two[1], np.vstack([one[1], one[1]]) / 2)


# ---- dropout masks ---------------------------------------------------------

def test_dropout_mask_kept_entries_scaled():
    out = np.full((20, 20), np.nan)
    mask = dropout_mask(0.5, np.random.default_rng(5), out)
    assert mask is out and set(np.unique(mask)) == {0.0, 2.0}
    want = (np.random.default_rng(5).random((20, 20)) >= 0.5) / 0.5
    assert np.array_equal(mask, want)


def test_dropout_mask_keep_fraction_monte_carlo():
    mask = dropout_mask(0.5, np.random.default_rng(6), np.empty((1000, 1000)))
    keep = (mask != 0).mean()
    assert abs(keep - 0.5) <= 0.002


# ---- stacks: one function serves one model and R cells --------------------------

def param_views(flat, d, m, pad):
    """(R, d, m) weights and (R, m) biases viewing an (R, P) array with ``pad``
    other parameters on each side, as a stack of MlpParams lays them out."""
    R = flat.shape[0]
    return flat[:, pad : pad + d * m].reshape(R, d, m), flat[:, pad + d * m : pad + d * m + m]


@settings(max_examples=80, deadline=None)
@given(
    R=st.integers(1, 4),
    n=st.integers(1, 40),
    d=st.integers(1, 20),
    m=st.integers(1, 12),
    pad=st.integers(0, 3),
    seed=st.integers(0, 2**31),
)
def test_stacked_bodies_equal_each_slice_alone(R, n, d, m, pad, seed):
    rng = np.random.default_rng(seed)
    P = 2 * pad + d * m + m
    X = np.maximum(rng.standard_normal((R, n, d)), 0.0)  # exact zeros, as after a ReLU
    W, b = param_views(rng.standard_normal((R, P)), d, m, pad)
    dY = rng.standard_normal((R, n, m)) * 10.0 ** rng.integers(-5, 5, (R, n, m))
    dY[rng.random(dY.shape) < 0.2] = -0.0
    labels = rng.integers(0, m, (R, n))

    Y = affine_forward(X, W, b)
    dX, dW, db = affine_backward(X, W, dY, True)
    written = param_views(np.full((R, P), np.nan), d, m, pad)
    affine_backward(X, W, dY, False, out=written)
    blocked = relu_backward(Y, dY)
    loss, dlogits = softmax_cross_entropy(Y, labels)
    probs = softmax(Y)

    for r in range(R):
        Xr, Wr, br, dYr = (a[r].copy() for a in (X, W, b, dY))
        Yr = affine_forward(Xr, Wr, br)
        dXr, dWr, dbr = affine_backward(Xr, Wr, dYr, True)
        loss_r, dlogits_r = softmax_cross_entropy(Yr, labels[r].copy())
        pairs = [
            (Y[r], Yr), (dX[r], dXr), (dW[r], dWr), (db[r], dbr),
            (written[0][r], dWr), (written[1][r], dbr),
            (blocked[r], relu_backward(Yr, dYr)),
            (loss[r], loss_r), (dlogits[r], dlogits_r), (probs[r], softmax(Yr)),
        ]
        for got, want in pairs:
            assert np.array_equal(bits(got), bits(want))


@settings(max_examples=40, deadline=None)
@given(R=st.integers(1, 4), n=st.integers(1, 10), m=st.integers(1, 6), seed=st.integers(0, 2**31))
def test_stacked_dropout_draws_each_cell_from_its_own_generator(R, n, m, seed):
    gens = [np.random.default_rng([seed, r]) for r in range(R)]
    mask = dropout_mask(0.5, gens, np.empty((R, n, m), np.float32))
    # a tuple is a per-cell sequence too
    twins = tuple(np.random.default_rng([seed, r]) for r in range(R))
    assert np.array_equal(bits(dropout_mask(0.5, twins, np.empty((R, n, m), np.float32))), bits(mask))
    for r in range(R):
        g = np.random.default_rng([seed, r])
        want = dropout_mask(0.5, g, np.empty((n, m), np.float32))
        assert np.array_equal(bits(mask[r]), bits(want))
        assert gens[r].random() == g.random()  # the same amount was drawn


class Replay:
    """Stands in for a dropout generator: each ``random(out=...)`` fills
    ``out`` with the next ``out.size`` numbers of one flat stream drawn
    beforehand, the given arrays' entries in C order."""

    def __init__(self, draws):
        self.stream = np.concatenate([np.zeros(0)] + [np.ravel(u) for u in draws])
        self.used = 0

    def random(self, out):
        out[...] = self.stream[self.used : self.used + out.size].reshape(out.shape)
        self.used += out.size


def test_dropout_mask_reads_any_non_sequence_as_one_generator():
    draws = np.random.default_rng(7).random((2, 3, 4))
    mask = dropout_mask(0.25, Replay([draws]), np.empty((2, 3, 4)))
    assert np.array_equal(mask, (draws >= 0.25) / 0.75)
    # a float32 mask spanning several draw blocks reads the stream block by block
    wide = np.random.default_rng(8).random((7 * layers._DRAW_BLOCK // 20 + 7, 10))
    replay = Replay([wide])
    mask = dropout_mask(0.25, replay, np.empty(wide.shape, np.float32))
    assert replay.used == wide.size
    assert np.array_equal(mask, (wide >= 0.25).astype(np.float32) * np.float32(1 / 0.75))
    with pytest.raises(ValueError):  # a sequence needs one generator per leading index
        dropout_mask(0.25, [Replay([draws[0]])], np.empty((2, 3, 4)))


def whole_array_mask(rate, rng, out):
    """dropout_mask as it was before drawing block by block: every draw of
    ``out`` in one float64 array, then compared into ``out``."""
    draws = np.empty(out.shape)
    if isinstance(rng, list):
        for g, cell in zip(rng, draws, strict=True):
            g.random(out=cell)
    else:
        rng.random(out=draws)
    np.greater_equal(draws, rate, out=out)
    out *= 1.0 / (1.0 - rate)
    return out


@settings(max_examples=60, deadline=None)
@given(
    width=st.sampled_from([1, 3, 10, 64, 1000, layers._DRAW_BLOCK, layers._DRAW_BLOCK + 1]),
    # a mask of about half, one, one-plus-a-row or several blocks' draws
    blocks=st.sampled_from([0.5, 1.0, 2.0, 3.5]),
    extra_rows=st.integers(-1, 1),
    cells=st.sampled_from([None, 1, 3]),  # None: one generator for the whole mask
    dtype=st.sampled_from([np.float32, np.float64]),
    rate=st.sampled_from([0.1, 0.5, 0.9]),
    seed=st.integers(0, 2**31),
)
def test_blocked_dropout_mask_is_the_whole_array_draw(width, blocks, extra_rows, cells, dtype, rate, seed):
    block_rows = max(1, layers._DRAW_BLOCK // width)
    n = max(1, int(blocks * block_rows) + extra_rows)
    shape = (n, width) if cells is None else (cells, n, width)
    gens = lambda: (np.random.default_rng(seed) if cells is None
                    else [np.random.default_rng([seed, r]) for r in range(cells)])
    got_rng, want_rng = gens(), gens()
    got = dropout_mask(rate, got_rng, np.full(shape, np.nan, dtype))
    want = whole_array_mask(rate, want_rng, np.full(shape, np.nan, dtype))
    assert got.dtype == dtype and got.tobytes() == want.tobytes()
    listed = (lambda r: [r]) if cells is None else list
    for g, h in zip(listed(got_rng), listed(want_rng)):
        assert g.random() == h.random()  # each generator drew as much
