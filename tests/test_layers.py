"""Layer primitives against closed forms, brute-force loops, and differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from allab.errors import DimensionError
from allab.layers import (
    affine_backward,
    affine_forward,
    dropout,
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
        affine_forward([[1.0, 2.0]], np.eye(2), [0.0, 0.0]), [[1.0, 2.0]]
    )


def test_affine_zero_weights_returns_bias():
    assert np.array_equal(
        affine_forward([[1.0, 2.0]], np.zeros((2, 2)), [3.0, 4.0]), [[3.0, 4.0]]
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


def test_affine_shape_mismatch():
    with pytest.raises(DimensionError):
        affine_forward(np.ones((2, 3)), np.ones((4, 2)), np.ones(2))
    with pytest.raises(DimensionError):
        affine_forward(np.ones((2, 3)), np.ones((3, 2)), np.ones(5))


def test_affine_backward_zero_upstream():
    dX, dW, db = affine_backward(np.ones((3, 2)), np.ones((2, 4)), np.zeros((3, 4)))
    assert not dX.any() and not dW.any() and not db.any()


def test_affine_backward_scalar_chain():
    dX, dW, db = affine_backward([[2.0]], [[3.0]], [[1.0]])
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


def test_affine_backward_without_input_grad_checks_shapes():
    with pytest.raises(DimensionError):
        affine_backward(np.ones((2, 3)), np.ones((4, 2)), np.ones((2, 2)), input_grad=False)
    with pytest.raises(DimensionError):
        affine_backward(np.ones((2, 3)), np.ones((3, 2)), np.ones((2, 5)), input_grad=False)


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # 1e308 - -1e308 overflows to inf
def test_softmax_extreme_rows():
    logits = np.array([[1e308, -1e308, 0.0], [-1e308, -1e308, -1e308], [1000.0, 999.0, 0.0]])
    P = softmax(logits)
    assert np.array_equal(P[0], [1.0, 0.0, 0.0])
    assert np.allclose(P[1], 1.0 / 3.0, rtol=0, atol=1e-15)
    assert P[2, 0] == pytest.approx(1.0 / (1.0 + np.exp(-1.0)), rel=1e-15)
    assert np.array_equal(bits(P), bits(softmax_inline(logits)))


def test_softmax_ce_symmetric_two_logits():
    loss, probs, dlogits = softmax_cross_entropy(np.zeros((1, 2)), [0])
    assert loss == pytest.approx(np.log(2), abs=1e-12)
    assert np.allclose(probs, [[0.5, 0.5]])
    assert np.allclose(dlogits, [[-0.5, 0.5]])


def test_softmax_ce_saturated_no_overflow():
    loss, probs, _ = softmax_cross_entropy(np.array([[1000.0, 0.0]]), [0])
    assert 0 <= loss <= 1e-12
    assert np.isfinite(probs).all()


def test_softmax_ce_gradient_matches_differences():
    rng = np.random.default_rng(2)
    logits = rng.standard_normal((4, 3)) * 2
    labels = rng.integers(0, 3, 4)
    loss = lambda: softmax_cross_entropy(logits, labels)[0]
    _, _, dlogits = softmax_cross_entropy(logits, labels)
    assert rel_err(dlogits, fd_grad(loss, logits)) <= 1e-6


def test_softmax_ce_label_out_of_range():
    with pytest.raises(IndexError, match=r"label 3"):
        softmax_cross_entropy(np.zeros((2, 3)), [0, 3])
    with pytest.raises(IndexError):
        softmax_cross_entropy(np.zeros((1, 3)), [-1])


def test_softmax_ce_mean_reduction():
    # two identical rows give the same loss as one; gradient carries 1/n
    one = softmax_cross_entropy(np.array([[1.0, -1.0]]), [1])
    two = softmax_cross_entropy(np.array([[1.0, -1.0]] * 2), [1, 1])
    assert two[0] == pytest.approx(one[0], abs=1e-15)
    assert np.allclose(two[2], np.vstack([one[2], one[2]]) / 2)


# ---- dropout ---------------------------------------------------------------

def test_dropout_rate_zero_identity():
    X = np.random.default_rng(3).standard_normal((4, 5))
    Y, mask = dropout(X, 0.0, rng=None, train_mode=True)
    assert np.array_equal(Y, X) and mask is None


def test_dropout_eval_identity_any_rate():
    X = np.random.default_rng(4).standard_normal((4, 5))
    Y, mask = dropout(X, 0.9, rng=None, train_mode=False)
    assert np.array_equal(Y, X) and mask is None


def test_dropout_kept_entries_scaled():
    X = np.ones((20, 20))
    Y, mask = dropout(X, 0.5, rng=np.random.default_rng(5), train_mode=True)
    assert set(np.unique(Y)) <= {0.0, 2.0}
    assert np.array_equal(Y, X * mask)


def test_dropout_keep_fraction_monte_carlo():
    X = np.ones((1000, 1000))
    Y, _ = dropout(X, 0.5, rng=np.random.default_rng(6), train_mode=True)
    keep = (Y != 0).mean()
    assert abs(keep - 0.5) <= 0.002


def test_dropout_bad_arguments():
    with pytest.raises(ValueError):
        dropout(np.ones((2, 2)), 1.0)
    with pytest.raises(ValueError):
        dropout(np.ones((2, 2)), -0.1)
    with pytest.raises(ValueError):
        dropout(np.ones((2, 2)), 0.5, rng=None, train_mode=True)
