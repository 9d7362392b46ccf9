"""Kernel and two-sample statistics against closed forms and loop oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from allab.errors import DimensionError
from allab.mmd import (
    _ROW_BLOCK,
    median_heuristic,
    mmd2_biased,
    mmd2_biased_with_grad,
    rbf_kernel,
    sq_dists,
    sq_norms,
)

from test_layers import fd_grad, rel_err


def kernel_loops(A, B, sigmas):
    """Scalar-loop kernel reference."""
    K = np.zeros((len(A), len(B)))
    for i, x in enumerate(A):
        for j, y in enumerate(B):
            d2 = float(((x - y) ** 2).sum())
            K[i, j] = sum(np.exp(-d2 / (2 * s * s)) for s in sigmas) / len(sigmas)
    return K


def mmd2_loops(A, B, sigmas):
    K_aa = kernel_loops(A, A, sigmas)
    K_ab = kernel_loops(A, B, sigmas)
    K_bb = kernel_loops(B, B, sigmas)
    return K_aa.mean() - 2 * K_ab.mean() + K_bb.mean()


# ---- kernel matrix ---------------------------------------------------------

def test_kernel_self_similarity_is_one():
    K = rbf_kernel([[1.0, 2.0]], [[1.0, 2.0]], (0.7,))
    assert K.shape == (1, 1) and K[0, 0] == 1.0


def test_kernel_closed_form_at_two_sigma_squared():
    sigma = 1.3
    a = np.zeros((1, 2))
    b = np.array([[sigma * np.sqrt(2.0), 0.0]])  # ||a-b||^2 = 2 sigma^2
    K = rbf_kernel(a, b, (sigma,))
    assert K[0, 0] == pytest.approx(np.exp(-1), abs=1e-12)


def test_kernel_transpose_symmetry():
    rng = np.random.default_rng(0)
    A, B = rng.standard_normal((5, 3)), rng.standard_normal((4, 3))
    sigmas = (0.5, 1.0, 2.0)
    assert np.abs(rbf_kernel(A, B, sigmas) - rbf_kernel(B, A, sigmas).T).max() <= 1e-15


def test_kernel_multi_bandwidth_is_mean_of_singles():
    rng = np.random.default_rng(1)
    A, B = rng.standard_normal((4, 2)), rng.standard_normal((3, 2))
    combined = rbf_kernel(A, B, (0.5, 2.0))
    singles = (
        rbf_kernel(A, B, (0.5,)) + rbf_kernel(A, B, (2.0,))
    ) / 2
    assert np.abs(combined - singles).max() <= 1e-15


def test_kernel_matches_loop_reference():
    rng = np.random.default_rng(2)
    A, B = rng.standard_normal((6, 4)), rng.standard_normal((5, 4))
    sigmas = (0.7, 1.9)
    assert rel_err(rbf_kernel(A, B, sigmas), kernel_loops(A, B, sigmas)) <= 1e-12


def test_kernel_entries_in_unit_interval():
    rng = np.random.default_rng(3)
    K = rbf_kernel(rng.standard_normal((8, 3)), rng.standard_normal((8, 3)), (1.0,))
    assert (K > 0).all() and (K <= 1).all()


# ---- squared discrepancy ---------------------------------------------------

def test_mmd2_identical_batches_is_zero():
    Z = np.random.default_rng(4).standard_normal((7, 3))
    assert abs(mmd2_biased(Z, Z, (1.1,))) <= 1e-12


def test_mmd2_singleton_closed_form():
    sigma = 0.9
    z1 = np.zeros((1, 3))
    z2 = np.array([[sigma * np.sqrt(2.0), 0.0, 0.0]])
    expect = 2.0 - 2.0 * np.exp(-1)  # ~1.264241
    assert mmd2_biased(z1, z2, (sigma,)) == pytest.approx(expect, abs=1e-12)


def test_mmd2_row_permutation_invariant():
    rng = np.random.default_rng(5)
    A, B = rng.standard_normal((6, 2)), rng.standard_normal((4, 2))
    sigmas = (0.5, 1.0, 2.0)
    base = mmd2_biased(A, B, sigmas)
    assert mmd2_biased(A[::-1], B, sigmas) == pytest.approx(base, abs=1e-12)
    assert mmd2_biased(A, B[rng.permutation(4)], sigmas) == pytest.approx(base, abs=1e-12)


def test_mmd2_argument_symmetry():
    rng = np.random.default_rng(6)
    A, B = rng.standard_normal((5, 3)), rng.standard_normal((3, 3))
    sigmas = (0.8,)
    assert mmd2_biased(A, B, sigmas) == pytest.approx(mmd2_biased(B, A, sigmas), abs=1e-12)


def test_mmd2_matches_loop_reference():
    rng = np.random.default_rng(7)
    A, B = rng.standard_normal((6, 4)), rng.standard_normal((8, 4)) + 0.5
    sigmas = (0.6, 1.2, 2.4)
    got = mmd2_biased(A, B, sigmas)
    assert got == pytest.approx(mmd2_loops(A, B, sigmas), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.just(3)),
               elements=st.floats(-5, 5, allow_nan=False)),
    hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.just(3)),
               elements=st.floats(-5, 5, allow_nan=False)),
)
def test_mmd2_nonnegative_property(A, B):
    assert mmd2_biased(A, B, (0.5, 1.5)) >= -1e-12


def test_mmd2_dimension_mismatch():
    with pytest.raises(DimensionError):
        mmd2_biased(np.ones((2, 3)), np.ones((2, 4)), (1.0,))
    with pytest.raises(DimensionError, match="must be 2-D"):
        mmd2_biased(np.ones((2, 3, 4)), np.ones((2, 5, 4)), (1.0,))
    with pytest.raises(ValueError):
        mmd2_biased(np.ones((0, 3)), np.ones((2, 3)), (1.0,))


# ---- gradients -------------------------------------------------------------

def with_grad(A, B, sigmas):
    """``mmd2_biased_with_grad`` on the joint batch of A's rows then B's: the
    value and the gradient's two halves."""
    value, dZ = mmd2_biased_with_grad(np.concatenate([A, B], axis=-2), A.shape[-2], sigmas)
    return value, dZ[..., : A.shape[-2], :], dZ[..., A.shape[-2] :, :]


def test_grad_vanishes_at_identical_batches():
    Z = np.random.default_rng(8).standard_normal((5, 3))
    _, dA, dB = with_grad(Z, Z.copy(), (1.0,))
    assert np.abs(dA).max() <= 1e-10
    assert np.abs(dB).max() <= 1e-10


@pytest.mark.parametrize("sigmas", [(1.3,), (0.5, 1.0, 2.0)])
def test_grad_matches_differences(sigmas):
    rng = np.random.default_rng(9)
    A = rng.standard_normal((6, 3))
    B = rng.standard_normal((8, 3)) + 0.3
    _, dA, dB = with_grad(A, B, sigmas)
    assert rel_err(dA, fd_grad(lambda: mmd2_biased(A, B, sigmas), A)) <= 1e-5
    assert rel_err(dB, fd_grad(lambda: mmd2_biased(A, B, sigmas), B)) <= 1e-5


def test_grad_flows_to_both_batches():
    rng = np.random.default_rng(10)
    _, dA, dB = with_grad(rng.standard_normal((4, 2)), rng.standard_normal((5, 2)) + 1.0, (0.9,))
    assert np.abs(dA).max() > 0 and np.abs(dB).max() > 0


def test_grad_decays_with_huge_bandwidth():
    rng = np.random.default_rng(11)
    A, B = rng.standard_normal((5, 3)), rng.standard_normal((4, 3)) + 2.0
    _, dA, dB = with_grad(A, B, (1e6,))
    assert np.abs(dA).max() <= 1e-9
    assert np.abs(dB).max() <= 1e-9


def test_value_with_grad_consistent():
    # the value is the reference's up to float64 rounding, and the gradient
    # is the reference's central differences
    rng = np.random.default_rng(12)
    A, B = rng.standard_normal((5, 2)), rng.standard_normal((6, 2))
    sigmas = (0.55, 1.1, 2.2)
    val, dA, dB = with_grad(A, B, sigmas)
    assert val.dtype == dA.dtype == np.float64
    assert val == pytest.approx(mmd2_biased(A, B, sigmas), abs=1e-15)
    Z = np.concatenate([A, B])
    assert rel_err(np.concatenate([dA, dB]), fd_grad(lambda: mmd2_biased(Z[:5], Z[5:], sigmas), Z)) <= 1e-8


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def term_scale(X, a, sigmas):
    """The largest sum of magnitudes behind an entry of the gradient of X's
    first a rows against the rest, ``sum_j |M_pj| (|x_pk| + |x_jk|)``, M the
    bandwidths' weighted kernel sum: the size its rounding scales with."""
    w = np.r_[np.full(a, 1.0 / a), np.full(len(X) - a, 1.0 / (len(X) - a))]
    M = sum(2.0 / (s * s) * rbf_kernel(X, X, (s,)) for s in sigmas) * np.outer(w, w) / len(sigmas)
    return (M @ np.abs(X) + M.sum(axis=1)[:, None] * np.abs(X)).max()


@settings(max_examples=60, deadline=None)
@given(
    R=st.integers(1, 10),
    a=st.integers(1, 40),
    b=st.integers(1, 40),
    h=st.integers(1, 129),
    offset=st.floats(1.0, 1e4),
    spread=st.floats(1e-2, 10.0),
    three=st.booleans(),
    dead=st.booleans(),
    dtype=st.sampled_from([np.float64, np.float32]),
    seed=st.integers(0, 2**31),
)
def test_value_and_gradient_match_the_reference_and_central_differences(
    R, a, b, h, offset, spread, three, dead, dtype, seed
):
    # batches far from the origin (|z|^2 / sigma^2 up to about 4e12), with
    # bandwidths near the median distance, in float64 and float32.  ``dead``
    # makes most rows one point, as dead units do, keeping each batch's
    # first row.  Against the float64 reference on the same rows, from the
    # dtype's epsilon: the value within 2^6 eps (its weights' magnitudes sum
    # to 4), and each gradient entry within 2^6 eps * term_scale, the float64
    # gradient within 1e-6 * term_scale of the reference's central
    # differences.  Over 1,500 such cases the worst were 12 eps, 6.7 eps and
    # 4e-9.
    rng = np.random.default_rng(seed)
    Z = offset + spread * rng.standard_normal((R, a + b, h))
    if dead:
        gone = rng.random(a + b) < 0.8
        gone[[0, a]] = False
        Z[:, gone] = offset
    Z = Z.astype(dtype)
    medians = spread * np.sqrt(h) * rng.uniform(0.5, 2.0, R)
    per_cell = [(s / 2.0, s, 2.0 * s) if three else (s,) for s in medians]
    value, dZ = mmd2_biased_with_grad(Z, a, list(np.array(per_cell).T[:, :, None, None]))
    assert value.shape == (R,) and value.dtype == dZ.dtype == dtype
    eps = np.finfo(dtype).eps
    for r in range(R):
        # the reference on the cell's rows centred in float64, which moves no
        # distance but keeps float64's digits for the differences
        X = Z[r].astype(np.float64)
        X -= X.mean(axis=0)
        reference = lambda: mmd2_biased(X[:a], X[a:], per_cell[r])
        assert abs(value[r] - reference()) <= 2**6 * eps
        _, g = mmd2_biased_with_grad(X, a, per_cell[r])
        scale = term_scale(X, a, per_cell[r])
        assert np.abs(dZ[r] - g).max() <= 2**6 * eps * scale
        step = 1e-5 * per_cell[r][0]
        for i, j in zip(rng.integers(0, a + b, 3), rng.integers(0, h, 3)):
            keep = X[i, j]
            X[i, j] = keep + step
            up = reference()
            X[i, j] = keep - step
            down = reference()
            X[i, j] = keep
            assert abs((up - down) / (2 * step) - g[i, j]) <= 1e-6 * scale


@settings(max_examples=60, deadline=None)
@given(
    R=st.integers(1, 4),
    a=st.integers(1, 40),
    b=st.integers(1, 40),
    d=st.integers(1, 9),
    bandwidths=st.sampled_from(["one", "three", "list"]),
    dtype=st.sampled_from([np.float64, np.float32]),
    seed=st.integers(0, 2**31),
)
def test_stacked_value_and_gradient_equal_each_cell_alone(R, a, b, d, bandwidths, dtype, seed):
    # feature-like batches (exact zeros from the ReLU) and a different
    # bandwidth set per cell, as the trainer's median heuristic gives
    rng = np.random.default_rng(seed)
    A = np.maximum(rng.standard_normal((R, a, d)) * rng.uniform(0.1, 3.0), 0.0).astype(dtype)
    B = np.maximum(rng.standard_normal((R, b, d)) + rng.uniform(-1.0, 1.0), 0.0).astype(dtype)
    Z = np.concatenate([A, B], axis=1)
    sigmas = rng.uniform(0.05, 20.0, R).tolist()  # floats, as the median heuristic returns
    per_cell = [
        {"one": (s,), "three": (s / 2.0, s, 2.0 * s), "list": (0.5, 2.0)}[bandwidths]
        for s in sigmas
    ]
    columns = np.array(per_cell).T[:, :, None, None]  # as the trainer
    value, dZ = mmd2_biased_with_grad(Z, a, list(columns))
    assert value.shape == (R,)
    assert value.dtype == dZ.dtype == dtype
    norms = (A * A).sum(axis=-1)
    gram = sq_dists(A, A, norms, norms)  # the symmetric A @ A.T product, per cell
    for r in range(R):
        v, g = mmd2_biased_with_grad(Z[r].copy(), a, per_cell[r])
        assert v.dtype == g.dtype == dtype
        assert bits(value[r]) == bits(v)
        assert np.array_equal(bits(dZ[r]), bits(g))
        Ar = A[r].copy()
        norms_r = (Ar * Ar).sum(axis=-1)
        assert np.array_equal(bits(gram[r]), bits(sq_dists(Ar, Ar, norms_r, norms_r)))


def test_a_cell_with_a_bandwidth_far_below_its_spread_computes_in_float64():
    # cell 1 is nearly one point plus two far rows, with the bandwidth the
    # median heuristic gives such a batch: in float32 its distances' rounding
    # would reach the kernel, so its results are its rows' float64 results,
    # rounded; the other cells keep their float32 results
    rng = np.random.default_rng(14)
    Z = rng.standard_normal((3, 12, 4))
    Z[1] = 1e-3 * Z[1] + 2.0
    Z[1, [3, 9]] += rng.standard_normal((2, 4))
    Z = Z.astype(np.float32)
    s = median_heuristic(Z[1])
    per_cell = [(0.5, 2.0), (s, 2.0 * s), (1.0, 3.0)]
    value, dZ = mmd2_biased_with_grad(Z, 6, list(np.array(per_cell).T[:, :, None, None]))
    assert value.dtype == dZ.dtype == np.float32
    for r in range(3):
        want = mmd2_biased_with_grad(Z[r].astype(np.float64) if r == 1 else Z[r], 6, per_cell[r])
        for got, w in zip((value[r], dZ[r]), want, strict=True):
            assert np.array_equal(bits(got), bits(np.asarray(w).astype(np.float32)))


def two_matrix_sq_dists(A, B, aa, bb):
    """sq_dists as it was: the norm sums and the cross products in two
    full matrices."""
    d2 = aa[..., :, None] + bb[..., None, :]
    cross = A @ B.swapaxes(-1, -2)
    cross *= 2.0
    d2 -= cross
    return np.maximum(d2, 0.0, out=d2)


@settings(max_examples=60, deadline=None)
@given(
    cells=st.sampled_from([None, 1, 3]),
    n=st.sampled_from([1, 2, _ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1, 2 * _ROW_BLOCK + 3]),
    m=st.integers(1, 12),
    d=st.integers(1, 9),
    same=st.booleans(),
    relu_like=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_sq_dists_equals_the_two_matrix_form(cells, n, m, d, same, relu_like, seed):
    rng = np.random.default_rng(seed)
    lead = () if cells is None else (cells,)
    A = rng.standard_normal((*lead, n, d)) * rng.uniform(0.1, 3.0)
    B = A if same else rng.standard_normal((*lead, m, d)) + rng.uniform(-1.0, 1.0)
    if relu_like:  # the exact and signed zeros of feature batches
        A = np.maximum(A, 0.0)
        A[A == 0.0] = -0.0
        B = A if same else np.maximum(B, 0.0)
    aa = sq_norms(A)
    bb = aa if same else sq_norms(B)
    got, want = sq_dists(A, B, aa, bb), two_matrix_sq_dists(A, B, aa, bb)
    assert got.shape == want.shape
    assert np.array_equal(bits(got), bits(want))


# ---- median heuristic ------------------------------------------------------

def test_median_three_points_1d():
    # distances {1, 2, 3} -> median 2
    assert median_heuristic(np.array([[0.0], [1.0], [3.0]])) == pytest.approx(2.0, abs=1e-12)


def test_median_fallbacks():
    assert median_heuristic(np.zeros((1, 4))) == 1.0
    assert median_heuristic(np.zeros((0, 4))) == 1.0
    assert median_heuristic(np.ones((6, 2))) == 1.0  # all identical points


def test_median_matches_brute_force_scan():
    rng = np.random.default_rng(13)
    Z = rng.standard_normal((9, 4))
    dists = [
        float(np.sqrt(((Z[i] - Z[j]) ** 2).sum()))
        for i in range(9)
        for j in range(i + 1, 9)
    ]
    assert len(dists) == 9 * 8 // 2
    assert median_heuristic(Z) == pytest.approx(float(np.median(dists)), rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(2, 30), d=st.integers(1, 3))
def test_median_heuristic_is_np_median_to_the_last_bit(data, n, d):
    # distances that tie, are zero, inf or NaN, with odd and even pair counts
    Z = data.draw(hnp.arrays(np.float64, (n, d), elements=st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, 2.0, np.inf, np.nan]), st.floats(-1e3, 1e3))))
    with np.errstate(invalid="ignore", over="ignore"):
        d2 = sq_dists(Z, Z, sq_norms(Z), sq_norms(Z))
        want = float(np.median(np.sqrt(d2[np.triu_indices(n, k=1)])))
        got = median_heuristic(Z)
    assert np.float64(got).tobytes() == np.float64(1.0 if want <= 0.0 else want).tobytes()
