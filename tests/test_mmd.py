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

def test_grad_vanishes_at_identical_batches():
    Z = np.random.default_rng(8).standard_normal((5, 3))
    _, dA, dB = mmd2_biased_with_grad(Z, Z.copy(), (1.0,))
    assert np.abs(dA).max() <= 1e-10
    assert np.abs(dB).max() <= 1e-10


@pytest.mark.parametrize("sigmas", [(1.3,), (0.5, 1.0, 2.0)])
def test_grad_matches_differences(sigmas):
    rng = np.random.default_rng(9)
    A = rng.standard_normal((6, 3))
    B = rng.standard_normal((8, 3)) + 0.3
    _, dA, dB = mmd2_biased_with_grad(A, B, sigmas)
    assert rel_err(dA, fd_grad(lambda: mmd2_biased(A, B, sigmas), A)) <= 1e-5
    assert rel_err(dB, fd_grad(lambda: mmd2_biased(A, B, sigmas), B)) <= 1e-5


def test_grad_flows_to_both_batches():
    rng = np.random.default_rng(10)
    _, dA, dB = mmd2_biased_with_grad(
        rng.standard_normal((4, 2)), rng.standard_normal((5, 2)) + 1.0, (0.9,)
    )
    assert np.abs(dA).max() > 0 and np.abs(dB).max() > 0


def test_grad_decays_with_huge_bandwidth():
    rng = np.random.default_rng(11)
    A, B = rng.standard_normal((5, 3)), rng.standard_normal((4, 3)) + 2.0
    _, dA, dB = mmd2_biased_with_grad(A, B, (1e6,))
    assert np.abs(dA).max() <= 1e-9
    assert np.abs(dB).max() <= 1e-9


def test_value_with_grad_consistent():
    rng = np.random.default_rng(12)
    A, B = rng.standard_normal((5, 2)), rng.standard_normal((6, 2))
    sigmas = (0.55, 1.1, 2.2)
    val, dA, dB = mmd2_biased_with_grad(A, B, sigmas)
    assert val == pytest.approx(mmd2_biased(A, B, sigmas), abs=1e-15)
    _, dA2, dB2 = old_grad_terms(A, B, sigmas)
    assert same_bits(dA, dA2) and same_bits(dB, dB2)


def old_sq_dists(A, B):
    """The distance computation before norms were shared (kept as the reference)."""
    aa = (A * A).sum(axis=1)[:, None]
    bb = (B * B).sum(axis=1)[None, :]
    return np.maximum(aa + bb - 2.0 * (A @ B.T), 0.0)


def old_grad_terms(A, B, sigmas):
    """``mmd2_biased_with_grad`` as it was before its passes were trimmed."""
    a, b = A.shape[0], B.shape[0]
    d2_aa, d2_ab, d2_bb = old_sq_dists(A, A), old_sq_dists(A, B), old_sq_dists(B, B)
    value, dA, dB = 0.0, np.zeros_like(A), np.zeros_like(B)
    for sigma in sigmas:
        inv2s2 = 1.0 / (2.0 * sigma * sigma)
        K_aa = np.exp(-d2_aa * inv2s2)
        K_ab = np.exp(-d2_ab * inv2s2)
        K_bb = np.exp(-d2_bb * inv2s2)
        value += K_aa.mean() - 2.0 * K_ab.mean() + K_bb.mean()
        inv_s2 = 1.0 / (sigma * sigma)
        row_aa, row_ab = K_aa.sum(axis=1), K_ab.sum(axis=1)
        col_ab, row_bb = K_ab.sum(axis=0), K_bb.sum(axis=1)
        dA += (-2.0 / (a * a) * inv_s2) * (row_aa[:, None] * A - K_aa @ A)
        dA += (2.0 / (a * b) * inv_s2) * (row_ab[:, None] * A - K_ab @ B)
        dB += (-2.0 / (b * b) * inv_s2) * (row_bb[:, None] * B - K_bb @ B)
        dB += (2.0 / (a * b) * inv_s2) * (col_ab[:, None] * B - K_ab.T @ A)
    m = float(len(sigmas))
    return value / m, dA / m, dB / m


def same_bits(x, y):
    """Bit-for-bit equality, signed zeros included: both sum from +0.0."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


@settings(max_examples=80, deadline=None)
@given(
    a=st.integers(1, 70),
    b=st.integers(1, 70),
    d=st.integers(1, 9),
    relu_like=st.booleans(),
    sigma=st.floats(0.05, 20.0),
    three=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_grad_terms_bit_identical_to_untrimmed(a, b, d, relu_like, sigma, three, seed):
    # unequal batch sizes, 1 or 3 bandwidths; relu_like batches carry the exact
    # zeros (dead units, -0.0 pre-activations clipped) that feature batches have
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((a, d)) * rng.uniform(0.1, 3.0)
    B = rng.standard_normal((b, d)) + rng.uniform(-1.0, 1.0)
    if relu_like:
        A, B = np.maximum(A, 0.0), np.maximum(B, 0.0)
        A[:, rng.random(d) < 0.3] = 0.0
        B[rng.random(B.shape) < 0.1] = -0.0
    sigmas = (sigma / 2.0, sigma, 2.0 * sigma) if three else (sigma,)
    got, want = mmd2_biased_with_grad(A, B, sigmas), old_grad_terms(A, B, sigmas)
    for g, w in zip(got, want, strict=True):
        assert same_bits(g, w)


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


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
    sigmas = rng.uniform(0.05, 20.0, R).tolist()  # floats, as the median heuristic returns
    per_cell = [
        {"one": (s,), "three": (s / 2.0, s, 2.0 * s), "list": (0.5, 2.0)}[bandwidths]
        for s in sigmas
    ]
    columns = np.array(per_cell).T[:, :, None, None]  # as the trainer
    value, dA, dB = mmd2_biased_with_grad(A, B, list(columns))
    assert value.shape == (R,)
    assert value.dtype == dA.dtype == dB.dtype == dtype
    norms = (A * A).sum(axis=-1)
    gram = sq_dists(A, A, norms, norms)  # the symmetric A @ A.T product, per cell
    for r in range(R):
        Ar, Br = A[r].copy(), B[r].copy()
        v, gA, gB = mmd2_biased_with_grad(Ar, Br, per_cell[r])
        assert v.dtype == gA.dtype == gB.dtype == dtype
        assert bits(value[r]) == bits(v)
        assert np.array_equal(bits(dA[r]), bits(gA))
        assert np.array_equal(bits(dB[r]), bits(gB))
        norms_r = (Ar * Ar).sum(axis=-1)
        assert np.array_equal(bits(gram[r]), bits(sq_dists(Ar, Ar, norms_r, norms_r)))


@settings(max_examples=60, deadline=None)
@given(
    R=st.integers(1, 3),
    a=st.integers(1, 30),
    b=st.integers(1, 30),
    d=st.integers(1, 9),
    offset=st.floats(0.0, 1e3),
    spread=st.floats(1e-3, 1.0),
    seed=st.integers(0, 2**31),
)
def test_float32_batches_get_the_float64_results_rounded(R, a, b, d, offset, spread, seed):
    # features far from the origin, with bandwidths far below their norms
    # (||z||^2 / sigma^2 up to about 1e13), where float32 distances would
    # lose every kernel entry: the term computes in float64, so float32
    # batches get what the same values in float64 give, rounded
    rng = np.random.default_rng(seed)
    A = (offset + spread * rng.standard_normal((R, a, d))).astype(np.float32)
    B = (offset + spread * rng.standard_normal((R, b, d))).astype(np.float32)
    sigmas = list(spread * rng.uniform(0.5, 2.0, (2, R, 1, 1)))
    got = mmd2_biased_with_grad(A, B, sigmas)
    want = mmd2_biased_with_grad(A.astype(np.float64), B.astype(np.float64), sigmas)
    for g, w in zip(got, want, strict=True):
        assert g.dtype == np.float32
        assert np.array_equal(bits(g), bits(w.astype(np.float32)))


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
