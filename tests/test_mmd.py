"""Kernel and two-sample statistics against closed forms and loop oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from allab.errors import DimensionError
from allab.mmd import (
    KernelSpec,
    _grad_terms,
    median_heuristic,
    mmd2_biased,
    mmd2_biased_with_grad,
    rbf_kernel,
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


# ---- KernelSpec ------------------------------------------------------------

def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(())
    with pytest.raises(ValueError):
        KernelSpec((1.0, 0.0))
    with pytest.raises(ValueError):
        KernelSpec((np.inf,))
    assert KernelSpec.around(0.8).bandwidths == (0.4, 0.8, 1.6)
    assert KernelSpec.single(2).bandwidths == (2.0,)


# ---- kernel matrix ---------------------------------------------------------

def test_kernel_self_similarity_is_one():
    K = rbf_kernel([[1.0, 2.0]], [[1.0, 2.0]], KernelSpec.single(0.7))
    assert K.shape == (1, 1) and K[0, 0] == 1.0


def test_kernel_closed_form_at_two_sigma_squared():
    sigma = 1.3
    a = np.zeros((1, 2))
    b = np.array([[sigma * np.sqrt(2.0), 0.0]])  # ||a-b||^2 = 2 sigma^2
    K = rbf_kernel(a, b, KernelSpec.single(sigma))
    assert K[0, 0] == pytest.approx(np.exp(-1), abs=1e-12)


def test_kernel_transpose_symmetry():
    rng = np.random.default_rng(0)
    A, B = rng.standard_normal((5, 3)), rng.standard_normal((4, 3))
    spec = KernelSpec((0.5, 1.0, 2.0))
    assert np.abs(rbf_kernel(A, B, spec) - rbf_kernel(B, A, spec).T).max() <= 1e-15


def test_kernel_multi_bandwidth_is_mean_of_singles():
    rng = np.random.default_rng(1)
    A, B = rng.standard_normal((4, 2)), rng.standard_normal((3, 2))
    combined = rbf_kernel(A, B, KernelSpec((0.5, 2.0)))
    singles = (
        rbf_kernel(A, B, KernelSpec.single(0.5)) + rbf_kernel(A, B, KernelSpec.single(2.0))
    ) / 2
    assert np.abs(combined - singles).max() <= 1e-15


def test_kernel_matches_loop_reference():
    rng = np.random.default_rng(2)
    A, B = rng.standard_normal((6, 4)), rng.standard_normal((5, 4))
    sigmas = (0.7, 1.9)
    assert rel_err(rbf_kernel(A, B, KernelSpec(sigmas)), kernel_loops(A, B, sigmas)) <= 1e-12


def test_kernel_entries_in_unit_interval():
    rng = np.random.default_rng(3)
    K = rbf_kernel(rng.standard_normal((8, 3)), rng.standard_normal((8, 3)), KernelSpec.single(1.0))
    assert (K > 0).all() and (K <= 1).all()


# ---- squared discrepancy ---------------------------------------------------

def test_mmd2_identical_batches_is_zero():
    Z = np.random.default_rng(4).standard_normal((7, 3))
    assert abs(mmd2_biased(Z, Z, KernelSpec.single(1.1))) <= 1e-12


def test_mmd2_singleton_closed_form():
    sigma = 0.9
    z1 = np.zeros((1, 3))
    z2 = np.array([[sigma * np.sqrt(2.0), 0.0, 0.0]])
    expect = 2.0 - 2.0 * np.exp(-1)  # ~1.264241
    assert mmd2_biased(z1, z2, KernelSpec.single(sigma)) == pytest.approx(expect, abs=1e-12)


def test_mmd2_row_permutation_invariant():
    rng = np.random.default_rng(5)
    A, B = rng.standard_normal((6, 2)), rng.standard_normal((4, 2))
    spec = KernelSpec.around(1.0)
    base = mmd2_biased(A, B, spec)
    assert mmd2_biased(A[::-1], B, spec) == pytest.approx(base, abs=1e-12)
    assert mmd2_biased(A, B[rng.permutation(4)], spec) == pytest.approx(base, abs=1e-12)


def test_mmd2_argument_symmetry():
    rng = np.random.default_rng(6)
    A, B = rng.standard_normal((5, 3)), rng.standard_normal((3, 3))
    spec = KernelSpec.single(0.8)
    assert mmd2_biased(A, B, spec) == pytest.approx(mmd2_biased(B, A, spec), abs=1e-12)


def test_mmd2_matches_loop_reference():
    rng = np.random.default_rng(7)
    A, B = rng.standard_normal((6, 4)), rng.standard_normal((8, 4)) + 0.5
    sigmas = (0.6, 1.2, 2.4)
    got = mmd2_biased(A, B, KernelSpec(sigmas))
    assert got == pytest.approx(mmd2_loops(A, B, sigmas), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.just(3)),
               elements=st.floats(-5, 5, allow_nan=False)),
    hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.just(3)),
               elements=st.floats(-5, 5, allow_nan=False)),
)
def test_mmd2_nonnegative_property(A, B):
    assert mmd2_biased(A, B, KernelSpec((0.5, 1.5))) >= -1e-12


def test_mmd2_dimension_mismatch():
    with pytest.raises(DimensionError):
        mmd2_biased(np.ones((2, 3)), np.ones((2, 4)), KernelSpec.single(1.0))
    with pytest.raises(ValueError):
        mmd2_biased(np.ones((0, 3)), np.ones((2, 3)), KernelSpec.single(1.0))


# ---- gradients -------------------------------------------------------------

def test_grad_vanishes_at_identical_batches():
    Z = np.random.default_rng(8).standard_normal((5, 3))
    _, dA, dB = mmd2_biased_with_grad(Z, Z.copy(), KernelSpec.single(1.0))
    assert np.abs(dA).max() <= 1e-10
    assert np.abs(dB).max() <= 1e-10


@pytest.mark.parametrize("sigmas", [(1.3,), (0.5, 1.0, 2.0)])
def test_grad_matches_differences(sigmas):
    rng = np.random.default_rng(9)
    A = rng.standard_normal((6, 3))
    B = rng.standard_normal((8, 3)) + 0.3
    spec = KernelSpec(sigmas)
    _, dA, dB = mmd2_biased_with_grad(A, B, spec)
    assert rel_err(dA, fd_grad(lambda: mmd2_biased(A, B, spec), A)) <= 1e-5
    assert rel_err(dB, fd_grad(lambda: mmd2_biased(A, B, spec), B)) <= 1e-5


def test_grad_flows_to_both_batches():
    rng = np.random.default_rng(10)
    _, dA, dB = mmd2_biased_with_grad(
        rng.standard_normal((4, 2)), rng.standard_normal((5, 2)) + 1.0, KernelSpec.single(0.9)
    )
    assert np.abs(dA).max() > 0 and np.abs(dB).max() > 0


def test_grad_decays_with_huge_bandwidth():
    rng = np.random.default_rng(11)
    A, B = rng.standard_normal((5, 3)), rng.standard_normal((4, 3)) + 2.0
    _, dA, dB = mmd2_biased_with_grad(A, B, KernelSpec.single(1e6))
    assert np.abs(dA).max() <= 1e-9
    assert np.abs(dB).max() <= 1e-9


def test_value_with_grad_consistent():
    rng = np.random.default_rng(12)
    A, B = rng.standard_normal((5, 2)), rng.standard_normal((6, 2))
    spec = KernelSpec.around(1.1)
    val, dA, dB = mmd2_biased_with_grad(A, B, spec)
    assert val == pytest.approx(mmd2_biased(A, B, spec), abs=1e-15)
    _, dA2, dB2 = old_grad_terms(A, B, spec)
    assert same_bits(dA, dA2) and same_bits(dB, dB2)


def old_sq_dists(A, B):
    """The distance computation before norms were shared (kept as the reference)."""
    aa = (A * A).sum(axis=1)[:, None]
    bb = (B * B).sum(axis=1)[None, :]
    return np.maximum(aa + bb - 2.0 * (A @ B.T), 0.0)


def old_grad_terms(A, B, spec):
    """``_grad_terms`` as it was before its passes were trimmed."""
    a, b = A.shape[0], B.shape[0]
    d2_aa, d2_ab, d2_bb = old_sq_dists(A, A), old_sq_dists(A, B), old_sq_dists(B, B)
    value, dA, dB = 0.0, np.zeros_like(A), np.zeros_like(B)
    for sigma in spec.bandwidths:
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
    m = float(len(spec.bandwidths))
    return value / m, dA / m, dB / m


def same_bits(x, y):
    """Bit-for-bit equality, except that a zero may differ in sign: the old
    code started its sums from +0.0, which turns an all-zero -0.0 sum into
    +0.0.  Adding 0.0 maps -0.0 to +0.0 and leaves every other value as is."""
    x = np.asarray(x, dtype=np.float64) + 0.0
    y = np.asarray(y, dtype=np.float64) + 0.0
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
    spec = KernelSpec.around(sigma) if three else KernelSpec.single(sigma)
    got, want = _grad_terms(A, B, spec), old_grad_terms(A, B, spec)
    for g, w in zip(got, want, strict=True):
        assert same_bits(g, w)


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
