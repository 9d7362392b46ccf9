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
audit checks it against :func:`mmd2_biased`.  It checks nothing; the float64
reference functions check their batches.

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


def mmd2_biased_with_grad(Z: np.ndarray, a: int, sigmas) -> tuple[np.ndarray, np.ndarray]:
    """Value and the analytic gradient with respect to the joint batch, in one pass.

    Z (..., a + b, h), 2-D or stacked, holds the a rows of the first batch
    then the b rows of the second; both results have its float dtype, and
    the value its leading shape.  ``sigmas`` holds the m bandwidths: floats
    for a 2-D batch, or (R, 1, 1) float64 arrays, one bandwidth per cell.

    The kernel depends only on differences, so the term computes in Z's
    dtype from each cell's centred rows X and one (a + b)^2 distance matrix.
    With w = 1/a on the first batch's rows and -1/b on the second's, and K_s
    the kernel matrix of bandwidth s, the value is sum_s w.K_s w / m, and
    gradient row p is sum_j M_pj (x_p - x_j) = w_p ((C w)_p x_p - (C @ wX)_p),
    with M = diag(w) C diag(w) and C = sum_s (-2 / s^2) K_s / m.  Bandwidth
    coefficients are rounded to the dtype from float64, as a 2-D call's
    floats are, so each cell's results are bit for bit its own 2-D call's.

    Centring makes the rounding of distances, about (|x_i|^2 + |x_j|^2) eps,
    and of the gradient, about |M| |x| eps, scale with the batches' spread.
    Below float64, a cell whose widest centred row's squared norm exceeds
    2^10 times its smallest squared bandwidth (one frozen while the features
    were nearly one point, say) gets its rows' float64 results, rounded:
    divided by s^2, that rounding would reach every entry.
    """
    dtype = Z.dtype
    X = Z - Z.mean(axis=-2, keepdims=True)
    n, m = X.shape[-2], len(sigmas)
    w = np.full(n, -1.0 / (n - a), dtype)
    w[:a] = 1.0 / a
    norms = sq_norms(X)
    narrow = norms.max(axis=-1) > 2**10 * np.min(sigmas, axis=0).reshape(norms.shape[:-1]) ** 2
    d2 = sq_dists(X, X, norms, norms)
    value = C = 0.0
    for sigma in sigmas:
        inv_s2 = 1.0 / (sigma * sigma)
        K = np.exp(d2 * np.asarray(-0.5 * inv_s2, dtype))
        value += ((K @ w) * w).sum(axis=-1)
        K *= np.asarray(-2.0 * inv_s2, dtype)
        C += K
    wX = X * w[:, None]
    X *= (C @ w)[..., None]
    X -= C @ wX
    X *= w[:, None] / m
    value /= m
    if dtype != np.float64 and narrow.any():
        wide_value, wide_dZ = mmd2_biased_with_grad(Z.astype(np.float64), a, sigmas)
        value = np.where(narrow, wide_value, value).astype(dtype)
        X = np.where(narrow[..., None, None], wide_dZ, X).astype(dtype)
    return value, X


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
    # np.median's bits without its numpy.ma import: a NaN sorts last, and (x + x) / 2 is x
    m = n * (n - 1) // 2
    part = np.partition(np.sqrt(d2[np.triu_indices(n, k=1)]), [(m - 1) // 2, m // 2, m - 1])
    med = float(part[-1] if np.isnan(part[-1]) else (part[(m - 1) // 2] + part[m // 2]) / 2.0)
    if med <= 0.0:
        return 1.0
    return med
