"""Finite-difference verification of every analytic gradient in the package.

Central differences with step h=1e-6 against the closed-form backward passes,
suite by suite: affine, relu, softmax cross-entropy, dropout (mask frozen),
the kernel two-sample term, and the full composite objective through a small
network.  Each suite calls the same functions the training step calls.
``perturb`` poisons the first analytic gradient entry and must make
the check fail; it exists so the failure path itself is testable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import (
    affine_backward,
    affine_forward,
    dropout_mask,
    relu,
    relu_backward,
    softmax_cross_entropy,
)
from .mmd import mmd2_biased, mmd2_biased_with_grad
from .model import ModelSpec, backward, forward, init_mlp
from .seeding import derive_rng

__all__ = ["CheckRecord", "central_diff", "rel_error", "run_gradcheck", "DEFAULT_TOL"]

DEFAULT_TOL = 1e-5
_H = 1e-6


@dataclass(frozen=True)
class CheckRecord:
    suite: str
    instance: str
    rel_err: float


def central_diff(f, x: np.ndarray, h: float = _H) -> np.ndarray:
    """Elementwise central difference of a scalar function of an array."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    out = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = f()
        flat[i] = keep - h
        down = f()
        flat[i] = keep
        out[i] = (up - down) / (2.0 * h)
    return g


def rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    a = np.asarray(analytic, dtype=np.float64).ravel()
    b = np.asarray(numeric, dtype=np.float64).ravel()
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)


class _Collector:
    def __init__(self, perturb: float):
        self.records: list[CheckRecord] = []
        self._poison = perturb

    def add(self, suite: str, instance: str, analytic: np.ndarray, numeric: np.ndarray):
        analytic = np.array(analytic, dtype=np.float64)
        if self._poison:
            analytic.reshape(-1)[0] += self._poison
            self._poison = 0.0  # first gradient only
        self.records.append(CheckRecord(suite, instance, rel_error(analytic, numeric)))


def _suite_affine(col: _Collector, rng: np.random.Generator):
    shapes = [(5, 4, 3), (2, 7, 1), (1, 3, 6), (6, 6, 6), (3, 1, 2)]
    shapes += [tuple(rng.integers(1, 9, size=3)) for _ in range(15)]
    for i, (n, d, m) in enumerate(shapes):
        X = rng.standard_normal((n, d))
        W = rng.standard_normal((d, m))
        b = rng.standard_normal(m)
        V = rng.standard_normal((n, m))  # random linear functional makes the loss scalar
        loss = lambda: float((affine_forward(X, W, b) * V).sum())
        dX, dW, db = affine_backward(X, W, V)
        col.add("affine", f"{i}/dX", dX, central_diff(loss, X))
        col.add("affine", f"{i}/dW", dW, central_diff(loss, W))
        col.add("affine", f"{i}/db", db, central_diff(loss, b))


def _suite_relu(col: _Collector, rng: np.random.Generator):
    for i in range(20):
        X = rng.standard_normal((4, 6))
        X += np.where(X >= 0, 0.1, -0.1)  # keep clear of the kink
        V = rng.standard_normal(X.shape)

        loss = lambda: float((relu(X) * V).sum())
        col.add("relu", str(i), relu_backward(X, V), central_diff(loss, X))


def _suite_softmax_ce(col: _Collector, rng: np.random.Generator):
    shapes = [(4, 3), (1, 2), (6, 5), (3, 10), (8, 4)]
    shapes += [(int(n), int(c)) for n, c in zip(rng.integers(1, 9, 15), rng.integers(2, 11, 15))]
    for i, (n, c) in enumerate(shapes):
        logits = rng.standard_normal((n, c)) * 3.0
        labels = rng.integers(0, c, size=n)
        loss = lambda: softmax_cross_entropy(logits, labels)[0]
        _, dlogits = softmax_cross_entropy(logits, labels)
        col.add("softmax_ce", str(i), dlogits, central_diff(loss, logits))


def _suite_dropout(col: _Collector, rng: np.random.Generator):
    for i in range(21):
        rate = (0.2, 0.5, 0.8)[i % 3]
        X = rng.standard_normal((5, 7))
        mask = dropout_mask(rate, derive_rng(1000 + i), np.empty_like(X))
        V = rng.standard_normal(X.shape)
        loss = lambda: float((X * mask * V).sum())  # mask frozen, only X varies
        col.add("dropout", f"{i}/rate{rate}", V * mask, central_diff(loss, X))


def _suite_mmd(col: _Collector, rng: np.random.Generator):
    # stacks of R cells of a + b rows, as the trainer passes them; cell r's bandwidths x (1 + r/2)
    kernels = [("single", (1.3,)), ("triple", (0.5, 1.0, 2.0)), ("around", (0.4, 0.8, 1.6))]
    shapes = [(1, 6, 4, 3), (1, 3, 5, 2), (1, 8, 8, 5), (1, 2, 2, 1), (1, 5, 1, 4), (1, 1, 6, 3),
              (1, 7, 3, 6), (3, 5, 4, 4)]
    for name, sigmas in kernels:
        for j, (R, a, b, d) in enumerate(shapes):
            Z = rng.standard_normal((R, a + b, d))
            Z[:, a:] += 0.5
            per_cell = [tuple(s * (1 + r / 2) for s in sigmas) for r in range(R)]
            _, dZ = mmd2_biased_with_grad(Z, a, list(np.array(per_cell).T[:, :, None, None]))
            for r, cell_sigmas in enumerate(per_cell):
                loss = lambda: mmd2_biased(Z[r, :a], Z[r, a:], cell_sigmas)
                col.add("mmd", f"{name}/{j}/{r}", dZ[r], central_diff(loss, Z[r]))


def _composite_instance(seed: int):
    """A [4, 8, 3] network plus batches whose pre-activations avoid the relu kink."""
    for attempt in range(100):
        rng = derive_rng(seed, "gradcheck", attempt)
        params = init_mlp(ModelSpec((4, 8, 3), split_index=1), rng)
        X_l = rng.standard_normal((5, 4))
        y = rng.integers(0, 3, size=5)
        X_p = rng.standard_normal((5, 4)) + 0.3
        W1, b1 = params.layers[0]
        margin = min(float(np.abs(affine_forward(X, W1, b1)).min()) for X in (X_l, X_p))
        if margin > 1e-3:
            return params, X_l, y, X_p
    raise AssertionError("could not draw a kink-free composite instance")


def _suite_composite(col: _Collector, seed: int):
    sigmas = (1.1,)
    lam = 0.7
    for s in range(20):
        params, X_l, y, X_p = _composite_instance(seed + s)

        def loss():
            Z_l, logits, _ = forward(params, X_l)
            Z_p, _, _ = forward(params, X_p)
            ce, _ = softmax_cross_entropy(logits, y)
            return ce + lam * mmd2_biased(Z_l, Z_p, sigmas)

        # as in the trainer: one pass over the labeled rows, then the pool rows,
        # whose logits get zero gradient
        n = len(X_l)
        Z, logits, cache = forward(params, np.concatenate([X_l, X_p]), train_mode=True)
        dlogits = np.zeros_like(logits)
        _, dlogits[:n] = softmax_cross_entropy(logits[:n], y)
        _, dZ = mmd2_biased_with_grad(Z, n, sigmas)
        grads = backward(params, cache, dlogits, dZ=lam * dZ)
        for li, (dW, db) in enumerate(grads):
            col.add("composite", f"{s}/W{li}", dW, central_diff(loss, params.layers[li][0]))
            col.add("composite", f"{s}/b{li}", db, central_diff(loss, params.layers[li][1]))


def run_gradcheck(
    seed: int = 0, perturb: float = 0.0, tol: float = DEFAULT_TOL
) -> tuple[list[CheckRecord], bool]:
    """Run every suite; returns (records, all_within_tol)."""
    col = _Collector(perturb)
    _suite_affine(col, derive_rng(seed, "gradcheck", "affine"))
    _suite_relu(col, derive_rng(seed, "gradcheck", "relu"))
    _suite_softmax_ce(col, derive_rng(seed, "gradcheck", "softmax"))
    _suite_dropout(col, derive_rng(seed, "gradcheck", "dropout"))
    _suite_mmd(col, derive_rng(seed, "gradcheck", "mmd"))
    _suite_composite(col, seed)
    ok = all(r.rel_err <= tol for r in col.records)
    return col.records, ok
