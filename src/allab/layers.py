"""Dense layer primitives with analytic gradients.

Matrices are row-major ``numpy`` arrays of 64-bit floats throughout; a batch
of n examples with d features is an (n, d) array.  Every operation here is a
pure function of its inputs (plus an explicitly passed generator for dropout),
so the primitives are safe to call from multiple threads on disjoint data.
``affine_forward``, ``relu`` and ``softmax`` take an optional ``out`` buffer,
so a loop can reuse its arrays; the result is the same either way.

Gradient conventions:
    - ReLU derivative at exactly 0 is 0.
    - softmax_cross_entropy returns the mean loss over the batch, so its
      logit gradient already carries the 1/n factor.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

__all__ = [
    "affine_forward",
    "affine_backward",
    "relu",
    "relu_backward",
    "softmax",
    "softmax_cross_entropy",
    "dropout",
]


def _as_matrix(name: str, a: np.ndarray, ndim: int = 2) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != ndim:
        raise DimensionError(f"{name} must be {ndim}-D, got shape {a.shape}")
    return a


def affine_forward(
    X: np.ndarray, W: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Fully-connected layer: Y = X @ W + b.

    X: (n, d), W: (d, m), b: (m,).  Returns (n, m), written into ``out``
    when one is given.
    """
    X = _as_matrix("X", X)
    W = _as_matrix("W", W)
    b = _as_matrix("b", b, ndim=1)
    if X.shape[1] != W.shape[0]:
        raise DimensionError(f"affine_forward: X {X.shape} does not chain with W {W.shape}")
    if b.shape[0] != W.shape[1]:
        raise DimensionError(f"affine_forward: b {b.shape} does not match W {W.shape}")
    Y = np.matmul(X, W, out=out)
    Y += b
    return Y


def affine_backward(
    X: np.ndarray, W: np.ndarray, dY: np.ndarray, input_grad: bool = True
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients of an affine layer given upstream dY = dL/dY.

        dX = dY @ W.T        (n, d)
        dW = X.T @ dY        (d, m)
        db = column sums of dY   (m,)

    With ``input_grad`` false, dX is not computed and comes back as None
    (a network's first layer has no use for it); the shapes are checked
    either way.
    """
    X = _as_matrix("X", X)
    W = _as_matrix("W", W)
    dY = _as_matrix("dY", dY)
    if X.shape[1] != W.shape[0]:
        raise DimensionError(f"affine_backward: X {X.shape} does not chain with W {W.shape}")
    if dY.shape != (X.shape[0], W.shape[1]):
        raise DimensionError(
            f"affine_backward: dY {dY.shape} does not match X {X.shape} @ W {W.shape}"
        )
    dX = dY @ W.T if input_grad else None
    dW = X.T @ dY
    db = dY.sum(axis=0)
    return dX, dW, db


def relu(X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise max(x, 0), written into ``out`` when one is given (it may be X).

    NaN passes through (max(NaN, 0) is NaN), so bad inputs stay visible
    downstream instead of being zeroed.
    """
    return np.maximum(X, 0.0, out=out)


def relu_backward(X: np.ndarray, dY: np.ndarray) -> np.ndarray:
    """Upstream gradient dY passed only where the input X was strictly positive.

    Equal in value to ``np.where(X > 0, dY, 0.0)``; a blocked entry of
    negative dY comes out as -0.0 rather than 0.0.
    """
    return dY * (X > 0)


def softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise class probabilities, each row shifted by its max so exp cannot overflow.

    Written into ``out`` when one is given (it may be ``logits``).
    """
    logits = np.asarray(logits, dtype=np.float64)
    e = np.subtract(logits, logits.max(axis=1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy of row-wise softmax probabilities.

    logits: (n, C); labels: n integer class ids in [0, C).

    Returns (loss, probs, dlogits) with

        probs   = exp of the log-sum-exp log-probabilities (equal in value to
                  :func:`softmax`, not always in the last bit)
        loss    = -(1/n) sum_i log probs[i, labels[i]]
        dlogits = (probs - onehot(labels)) / n
    """
    logits = _as_matrix("logits", logits)
    labels = np.asarray(labels)
    n, C = logits.shape
    if labels.shape != (n,):
        raise DimensionError(f"labels shape {labels.shape} does not match logits {logits.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= C):
        bad = labels[(labels < 0) | (labels >= C)][0]
        raise IndexError(f"label {bad} out of range [0, {C})")

    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_norm
    probs = np.exp(log_probs)

    rows = np.arange(n)
    loss = float(-log_probs[rows, labels].mean())
    dlogits = probs.copy()
    dlogits[rows, labels] -= 1.0
    dlogits /= n
    return loss, probs, dlogits


def dropout(
    X: np.ndarray,
    rate: float,
    rng: np.random.Generator | None = None,
    train_mode: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Inverted dropout.

    In train mode each entry is kept with probability 1-rate and scaled by
    1/(1-rate); the returned mask already carries that scale, so the backward
    pass is ``dX = dY * mask``.  Eval mode (or rate 0) is the identity and
    consumes no random numbers; the mask is then None.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    X = np.asarray(X, dtype=np.float64)
    if not train_mode or rate == 0.0:
        return X, None
    if rng is None:
        raise ValueError("dropout in train mode with rate > 0 requires an rng")
    keep = rng.random(X.shape) >= rate
    mask = keep / (1.0 - rate)
    return X * mask, mask
