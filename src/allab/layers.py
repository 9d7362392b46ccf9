"""Dense layer primitives with analytic gradients.

Matrices are row-major ``numpy`` arrays of one float dtype, float64 or
float32 (a model's parameter vector's), which every primitive keeps; a batch
of n examples with d features is an (n, d) array.  Every operation here is a
pure function of its inputs (plus an explicitly passed generator for
:func:`dropout_mask`, the one dropout primitive) and of the BLAS setup:
OpenBLAS sums wide products (a 784-wide GEMM, say) in an order that depends
on its thread count, so their last bits do too.

The primitives also take a stack: R cells' batches as (R, n, d), with W
(R, d, m) and b (R, m).  Each cell's slice of the result is bit for bit what
the 2-D call on that slice gives (``np.matmul`` runs the same BLAS call per
slice; every reduction runs along the same axis), so one function serves the
single model and the stack.  ``affine_forward``, ``relu`` and ``softmax`` take
an optional ``out`` buffer, so a loop can reuse its arrays; the result is the
same either way.

Each primitive has one implementation, and the training step, the prediction
paths and the gradient audit all call it.  The primitives do not check their
operands: float arrays of one dtype whose shapes chain.  The shapes are checked where
they enter the package, once: the parameter shapes when an ``MlpParams`` is
built, a network's input in ``model.forward``, and each training cell's
labels (:func:`check_labels`) and feature width once per round.

Gradient conventions:
    - ReLU derivative at exactly 0 is 0; ``relu_backward`` reads the same
      mask from the ReLU's input or output, so ``relu`` may run in place.
    - softmax_cross_entropy returns the mean loss over the batch, so its
      logit gradient already carries the 1/n factor.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

__all__ = [
    "affine_forward",
    "affine_backward",
    "relu",
    "relu_backward",
    "softmax",
    "softmax_cross_entropy",
    "check_labels",
    "dropout_mask",
]


def affine_forward(
    X: np.ndarray, W: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Fully-connected layer: Y = X @ W + b.

    X: (n, d), W: (d, m), b: (m,), or stacks of them.  Returns (n, m),
    written into ``out`` when one is given.
    """
    Y = np.matmul(X, W, out=out)
    Y += b[..., None, :]
    return Y


def affine_backward(
    X: np.ndarray, W: np.ndarray, dY: np.ndarray, input_grad: bool = True, out=None
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients of an affine layer given upstream dY = dL/dY.

        dX = dY @ W.T        (n, d)
        dW = X.T @ dY        (d, m)
        db = column sums of dY   (m,)

    With ``input_grad`` false, dX is not computed and comes back as None (a
    network's first layer has no use for it).  ``out``, when given, is a
    (dW, db) pair of buffers the two parameter gradients are written into;
    the values are the same either way.
    """
    dW, db = (None, None) if out is None else out
    dX = dY @ W.swapaxes(-1, -2) if input_grad else None
    dW = np.matmul(X.swapaxes(-1, -2), dY, out=dW)
    db = dY.sum(axis=-2, out=db)
    return dX, dW, db


def relu(X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise max(x, 0), written into ``out`` when one is given (it may be X).

    NaN passes through (max(NaN, 0) is NaN), so bad inputs stay visible
    downstream instead of being zeroed.
    """
    return np.maximum(X, 0.0, out=out)


def relu_backward(X: np.ndarray, dY: np.ndarray) -> np.ndarray:
    """Upstream gradient dY passed only where X is strictly positive.

    X may be the ReLU's input or its output: max(x, 0) > 0 exactly where
    x > 0, ±0 and NaN included.  Equal in value to ``np.where(X > 0, dY, 0)``;
    a blocked entry of negative dY comes out as -0.0 rather than 0.0.
    """
    return dY * (X > 0)


def softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise class probabilities, each row shifted by its max so exp cannot overflow.

    Written into ``out`` when one is given (it may be ``logits``).  The row max is taken down a
    contiguous copy of the transpose, since numpy is slow along short rows; a max is exact in any order.
    """
    row_max = np.ascontiguousarray(logits.swapaxes(-1, -2)).max(axis=-2)
    e = np.subtract(logits, row_max[..., None], out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def check_labels(labels: np.ndarray, class_count: int) -> None:
    """Raise IndexError naming the first label outside [0, class_count)."""
    if labels.size and (labels.min() < 0 or labels.max() >= class_count):
        bad = labels[(labels < 0) | (labels >= class_count)][0]
        raise IndexError(f"label {bad} out of range [0, {class_count})")


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mean cross-entropy of row-wise softmax probabilities.

    logits: (n, C); labels: n integer class ids in [0, C) (see
    :func:`check_labels`); or a stack of them, (R, n, C) and (R, n).

    Returns (loss, dlogits) with

        probs   = exp of the log-sum-exp log-probabilities (equal in value to
                  :func:`softmax`, not always in the last bit)
        loss    = -(1/n) sum_i log probs[i, labels[i]], a 0-d array, or one
                  loss per cell of a stack
        dlogits = (probs - onehot(labels)) / n, written over probs' array
    """
    n, C = logits.shape[-2:]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - log_norm

    # (row, label) pairs of every cell, addressed in the (R * n, C) view
    rows, flat_labels = np.arange(labels.size), labels.reshape(-1)
    loss = -log_probs.reshape(-1, C)[rows, flat_labels].reshape(labels.shape).mean(axis=-1)
    dlogits = np.exp(log_probs)
    dlogits.reshape(-1, C)[rows, flat_labels] -= 1.0
    dlogits /= n
    return loss, dlogits


_DRAW_BLOCK = 16384  # float64 draws per block of a mask of another dtype: 128 KiB


def dropout_mask(
    rate: float,
    rng: np.random.Generator | Sequence[np.random.Generator],
    out: np.ndarray,
) -> np.ndarray:
    """Inverted dropout's mask, computed in ``out`` and returned: each entry
    is 1/(1-rate) where its draw is >= rate, else 0, so a train-mode pass
    applies it as ``h * mask`` and its backward pass as ``dY * mask``.

    ``rng`` is one generator, which fills the whole of ``out`` as
    ``rng.random(out.shape)`` would, or a list or tuple of one generator per
    index of ``out``'s leading axis (per cell of a stack), each filling its
    slice.  The draws are float64 whatever ``out``'s dtype (a generator fills
    float32 only by drawing differently), so a float32 mask keeps the float64
    one's entries.  A float64 ``out`` is drawn in place, any other through one
    reused block of whole rows, at most ``_DRAW_BLOCK`` draws or one row, in C
    order: the same numbers in the same order, and each generator ends in the
    same state."""
    stacked = isinstance(rng, (list, tuple))
    cells = zip(rng, out, strict=True) if stacked else [(rng, out)]
    if out.dtype == np.float64:
        for g, draws in cells:
            g.random(out=draws)
        np.greater_equal(out, rate, out=out)
    else:
        width = out.shape[-1]  # the block holds no more rows than one generator fills
        block_rows = min(math.prod(out.shape[stacked:-1]), _DRAW_BLOCK // max(1, width))
        block = np.empty((max(1, block_rows), width))
        for g, target in cells:
            rows = target.reshape(-1, width, copy=False)
            for start in range(0, len(rows), len(block)):
                draws = block[: len(rows) - start]
                g.random(out=draws)
                np.greater_equal(draws, rate, out=rows[start : start + len(block)])
    out *= 1.0 / (1.0 - rate)
    return out
