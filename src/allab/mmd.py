"""RBF-kernel two-sample machinery.

Kernel convention, used everywhere in this package including the median
heuristic:

    k_sigma(x, y) = exp(-||x - y||^2 / (2 sigma^2))

A KernelSpec may carry several bandwidths; the effective kernel is the mean of
the per-bandwidth kernels.  The squared-discrepancy estimator is the biased
V-statistic (all kernel entries, diagonals included), which is the squared
distance between empirical kernel mean embeddings and hence nonnegative up to
float rounding:

    mmd2(A, B) = mean(K_AA) - 2 mean(K_AB) + mean(K_BB)

Gradients flow to both sample batches, since during training both are produced
by the same feature extractor.  ``mmd2_biased_with_grad``, the per-step call of
the trainer, does one pass of kernels per bandwidth over distance matrices
built from each batch's row norms, computed once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

__all__ = [
    "KernelSpec",
    "rbf_kernel",
    "mmd2_biased",
    "mmd2_biased_with_grad",
    "median_heuristic",
]


@dataclass(frozen=True)
class KernelSpec:
    """One or more RBF bandwidths; the kernel is the mean over them."""

    bandwidths: tuple[float, ...]

    def __post_init__(self):
        if len(self.bandwidths) == 0:
            raise ValueError("KernelSpec needs at least one bandwidth")
        for s in self.bandwidths:
            if not (np.isfinite(s) and s > 0):
                raise ValueError(f"bandwidths must be positive and finite, got {s}")
        object.__setattr__(self, "bandwidths", tuple(float(s) for s in self.bandwidths))

    @classmethod
    def single(cls, sigma: float) -> "KernelSpec":
        return cls((float(sigma),))

    @classmethod
    def around(cls, sigma: float) -> "KernelSpec":
        """The three-scale set {sigma/2, sigma, 2*sigma}."""
        return cls((sigma / 2.0, float(sigma), 2.0 * sigma))


def _check_batches(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.ndim != 2 or B.ndim != 2:
        raise DimensionError(f"batches must be 2-D, got {A.shape} and {B.shape}")
    if A.shape[1] != B.shape[1]:
        raise DimensionError(
            f"feature dimensions differ: {A.shape} vs {B.shape}"
        )
    if A.shape[0] == 0 or B.shape[0] == 0:
        raise ValueError("empty batch")
    return A, B


def _sq_norms(A: np.ndarray) -> np.ndarray:
    return (A * A).sum(axis=1)


def _sq_dists(A: np.ndarray, B: np.ndarray, aa: np.ndarray, bb: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, clipped at 0 against rounding.

    ``aa`` and ``bb`` are the rows' squared norms (:func:`_sq_norms`).
    """
    d2 = aa[:, None] + bb[None, :]
    cross = A @ B.T
    cross *= 2.0
    d2 -= cross
    return np.maximum(d2, 0.0, out=d2)


def rbf_kernel(A: np.ndarray, B: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Kernel matrix K[i, j] = mean_sigma exp(-||A_i - B_j||^2 / (2 sigma^2))."""
    A, B = _check_batches(A, B)
    d2 = _sq_dists(A, B, _sq_norms(A), _sq_norms(B))
    K = np.zeros_like(d2)
    for sigma in spec.bandwidths:
        K += np.exp(-d2 / (2.0 * sigma * sigma))
    return K / len(spec.bandwidths)


def mmd2_biased(Z_L: np.ndarray, Z_star: np.ndarray, spec: KernelSpec) -> float:
    """Biased squared-MMD estimate between two feature batches."""
    Z_L, Z_star = _check_batches(Z_L, Z_star)
    K_ll = rbf_kernel(Z_L, Z_L, spec)
    K_ls = rbf_kernel(Z_L, Z_star, spec)
    K_ss = rbf_kernel(Z_star, Z_star, spec)
    return float(K_ll.mean() - 2.0 * K_ls.mean() + K_ss.mean())


def _grad_terms(
    A: np.ndarray, B: np.ndarray, spec: KernelSpec
) -> tuple[float, np.ndarray, np.ndarray]:
    """Shared value + gradient computation; one pass of kernels per bandwidth.

    For a single bandwidth, differentiating the three V-statistic terms gives

        dA_p = -(2 / (a^2 s^2)) (rowsum(K_AA)_p A_p - (K_AA @ A)_p)
               +(2 / (a b s^2)) (rowsum(K_AB)_p A_p - (K_AB @ B)_p)

    and symmetrically for B with K_AB transposed.  Multi-bandwidth kernels
    average the per-bandwidth values and gradients, summed in bandwidth
    order; a single bandwidth needs neither the running sums nor the average.
    Each batch's row norms are computed once for all three distance matrices.
    """
    a, b = A.shape[0], B.shape[0]
    norms_a, norms_b = _sq_norms(A), _sq_norms(B)
    d2_aa = _sq_dists(A, A, norms_a, norms_a)
    d2_ab = _sq_dists(A, B, norms_a, norms_b)
    d2_bb = _sq_dists(B, B, norms_b, norms_b)

    for k, sigma in enumerate(spec.bandwidths):
        neg_inv2s2 = -1.0 / (2.0 * sigma * sigma)
        K_aa = np.exp(d2_aa * neg_inv2s2)
        K_ab = np.exp(d2_ab * neg_inv2s2)
        K_bb = np.exp(d2_bb * neg_inv2s2)
        v = K_aa.mean() - 2.0 * K_ab.mean() + K_bb.mean()

        inv_s2 = 1.0 / (sigma * sigma)
        row_aa = K_aa.sum(axis=1)
        row_ab = K_ab.sum(axis=1)
        col_ab = K_ab.sum(axis=0)
        row_bb = K_bb.sum(axis=1)
        gA = (-2.0 / (a * a) * inv_s2) * (row_aa[:, None] * A - K_aa @ A)
        gB = (-2.0 / (b * b) * inv_s2) * (row_bb[:, None] * B - K_bb @ B)
        if k == 0:
            value, dA, dB = v, gA, gB
        else:
            value += v
            dA += gA
            dB += gB
        dA += (2.0 / (a * b) * inv_s2) * (row_ab[:, None] * A - K_ab @ B)
        dB += (2.0 / (a * b) * inv_s2) * (col_ab[:, None] * B - K_ab.T @ A)

    m = len(spec.bandwidths)
    if m == 1:
        return value, dA, dB
    return value / m, dA / m, dB / m


def mmd2_biased_with_grad(
    Z_L: np.ndarray, Z_star: np.ndarray, spec: KernelSpec
) -> tuple[float, np.ndarray, np.ndarray]:
    """Value and the analytic partials with respect to both batches, in one pass.

    The one gradient entry point: the trainer calls it every step, and the
    gradient audit checks it against :func:`mmd2_biased`.
    """
    Z_L, Z_star = _check_batches(Z_L, Z_star)
    return _grad_terms(Z_L, Z_star, spec)


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
    norms = _sq_norms(Z)
    d2 = _sq_dists(Z, Z, norms, norms)
    iu = np.triu_indices(n, k=1)
    med = float(np.median(np.sqrt(d2[iu])))
    if med <= 0.0:
        return 1.0
    return med
