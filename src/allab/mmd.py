"""RBF-kernel two-sample machinery.

Kernel convention, used everywhere in this package including the median
heuristic:

    k_sigma(x, y) = exp(-||x - y||^2 / (2 sigma^2))

Bandwidths are a tuple of positive, finite floats: a configured list is
checked where it enters (``trainer.TrainConfig``), and the median heuristic
never returns 0; with several, the effective kernel is the mean of the
per-bandwidth kernels.  The squared-discrepancy estimator is the biased
V-statistic (all kernel entries, diagonals included), which is the squared
distance between empirical kernel mean embeddings and hence nonnegative up to
float rounding:

    mmd2(A, B) = mean(K_AA) - 2 mean(K_AB) + mean(K_BB)

Gradients flow to both sample batches, since during training both are produced
by the same feature extractor.  ``mmd2_biased_with_grad`` is the one value and
gradient implementation: the trainer calls it every step, and the gradient
audit checks it against :func:`mmd2_biased`.  It takes the bandwidths
themselves, as per-cell columns for a stack of R cells' batch pairs (each
cell's results are bit for bit those of its own 2-D call), and checks
nothing; the reference functions check their batches.

Squared distances (:func:`sq_dists`, shared with core-set acquisition and
the median heuristic) are written over their cross-product matrix, so each
(n, m) distance matrix is one array.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

__all__ = [
    "rbf_kernel",
    "mmd2_biased",
    "mmd2_biased_with_grad",
    "median_heuristic",
    "sq_norms",
    "sq_dists",
]


def _check_batches(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float64 2-D batches (n, h) of one feature width, neither empty."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.ndim != 2 or B.ndim != 2:
        raise DimensionError(f"batches must be 2-D, got {A.shape} and {B.shape}")
    if A.shape[1] != B.shape[1]:
        raise DimensionError(f"feature dimensions differ: {A.shape} vs {B.shape}")
    if len(A) == 0 or len(B) == 0:
        raise ValueError("empty batch")
    return A, B


def sq_norms(A: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each row (of each cell, for a stack)."""
    return (A * A).sum(axis=-1)


# rows of a distance matrix per block of norm sums in sq_dists
_ROW_BLOCK = 256


def sq_dists(A: np.ndarray, B: np.ndarray, aa: np.ndarray, bb: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, clipped at 0 against rounding.

    ``aa`` and ``bb`` are the rows' squared norms (:func:`sq_norms`).  A and
    B may be stacks; with B the same array as A, ``np.matmul`` computes the
    Gram matrix with a symmetric rank-k update, per cell of a stack too.
    Entry (i, j) is ``(aa_i + bb_j) - 2 (A @ B.T)_ij``, written over the
    cross products ``_ROW_BLOCK`` rows at a time, so the call holds one
    (n, m) matrix and a block of sums beside it.
    """
    d2 = A @ B.swapaxes(-1, -2)
    for i in range(0, d2.shape[-2], _ROW_BLOCK):
        rows = d2[..., i : i + _ROW_BLOCK, :]
        rows *= 2.0
        np.subtract(aa[..., i : i + _ROW_BLOCK, None] + bb[..., None, :], rows, out=rows)
    return np.maximum(d2, 0.0, out=d2)


def rbf_kernel(A: np.ndarray, B: np.ndarray, sigmas: tuple[float, ...]) -> np.ndarray:
    """Kernel matrix K[i, j] = mean_sigma exp(-||A_i - B_j||^2 / (2 sigma^2))."""
    A, B = _check_batches(A, B)
    d2 = sq_dists(A, B, sq_norms(A), sq_norms(B))
    K = np.zeros_like(d2)
    for sigma in sigmas:
        K += np.exp(-d2 / (2.0 * sigma * sigma))
    return K / len(sigmas)


def mmd2_biased(Z_L: np.ndarray, Z_star: np.ndarray, sigmas: tuple[float, ...]) -> float:
    """Biased squared-MMD estimate between two feature batches."""
    Z_L, Z_star = _check_batches(Z_L, Z_star)
    K_ll = rbf_kernel(Z_L, Z_L, sigmas)
    K_ls = rbf_kernel(Z_L, Z_star, sigmas)
    K_ss = rbf_kernel(Z_star, Z_star, sigmas)
    return float(K_ll.mean() - 2.0 * K_ls.mean() + K_ss.mean())


def mmd2_biased_with_grad(
    A: np.ndarray, B: np.ndarray, sigmas
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Value and the analytic partials with respect to both batches, in one pass.

    A (..., a, h) and B (..., b, h) are batches of one float dtype, 2-D or
    stacked, and every result has that dtype.  ``sigmas`` holds the m
    bandwidths in order: floats for 2-D batches, or for a stack (R, 1, 1)
    float64 arrays, one bandwidth per cell.  The value is a 0-d array, or one
    value per cell.

    The term is computed in float64 whatever the batches' dtype, and only
    its results are rounded to it.  In float32 the squared distances
    ``|a|^2 + |b|^2 - 2 a.b`` would lose about 6e-8 |z|^2 each, and so would
    the gradient's ``rowsum(K) A - K @ A``; the kernel divides both by
    sigma^2, so with a bandwidth far below the feature norms (a small
    configured one, or a median shrunk by dead units) the float32 gradient
    is wrong by much more than its rounding.  The (a + b)^2 h-sized products
    here cost little next to the model's layers.

    For a single bandwidth, differentiating the three V-statistic terms gives

        dA_p = -(2 / (a^2 s^2)) (rowsum(K_AA)_p A_p - (K_AA @ A)_p)
               +(2 / (a b s^2)) (rowsum(K_AB)_p A_p - (K_AB @ B)_p)

    and symmetrically for B with K_AB transposed.  Multi-bandwidth kernels
    average the per-bandwidth values and gradients: every bandwidth adds its
    terms to sums that start at zero, in bandwidth order.
    Each batch's row norms are computed once for all three distance matrices.
    """
    dtype = A.dtype
    A, B = A.astype(np.float64, copy=False), B.astype(np.float64, copy=False)
    a, b = A.shape[-2], B.shape[-2]
    norms_a, norms_b = sq_norms(A), sq_norms(B)
    d2_aa = sq_dists(A, A, norms_a, norms_a)
    d2_ab = sq_dists(A, B, norms_a, norms_b)
    d2_bb = sq_dists(B, B, norms_b, norms_b)

    matrix = (-2, -1)  # the mean over each cell's whole matrix
    value, dA, dB = 0.0, np.zeros_like(A), np.zeros_like(B)
    for sigma in sigmas:
        neg_inv2s2 = -1.0 / (2.0 * sigma * sigma)
        K_aa = np.exp(d2_aa * neg_inv2s2)
        K_ab = np.exp(d2_ab * neg_inv2s2)
        K_bb = np.exp(d2_bb * neg_inv2s2)
        value += K_aa.mean(axis=matrix) - 2.0 * K_ab.mean(axis=matrix) + K_bb.mean(axis=matrix)

        inv_s2 = 1.0 / (sigma * sigma)
        row_aa = K_aa.sum(axis=-1)
        row_ab = K_ab.sum(axis=-1)
        col_ab = K_ab.sum(axis=-2)
        row_bb = K_bb.sum(axis=-1)
        dA += (-2.0 / (a * a) * inv_s2) * (row_aa[..., None] * A - K_aa @ A)
        dA += (2.0 / (a * b) * inv_s2) * (row_ab[..., None] * A - K_ab @ B)
        dB += (-2.0 / (b * b) * inv_s2) * (row_bb[..., None] * B - K_bb @ B)
        dB += (2.0 / (a * b) * inv_s2) * (col_ab[..., None] * B - K_ab.swapaxes(-1, -2) @ A)

    m = len(sigmas)
    return tuple(x.astype(dtype, copy=False) for x in (value / m, dA / m, dB / m))


def median_heuristic(Z: np.ndarray) -> float:
    """Median of all n(n-1)/2 pairwise Euclidean distances.

    Falls back to 1.0 when fewer than two points exist or the median distance
    is 0 (e.g. all points identical), so the result is always a valid
    bandwidth.
    """
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2:
        raise DimensionError(f"median_heuristic expects a 2-D batch, got {Z.shape}")
    n = Z.shape[0]
    if n < 2:
        return 1.0
    norms = sq_norms(Z)
    d2 = sq_dists(Z, Z, norms, norms)
    iu = np.triu_indices(n, k=1)
    med = float(np.median(np.sqrt(d2[iu])))
    if med <= 0.0:
        return 1.0
    return med
