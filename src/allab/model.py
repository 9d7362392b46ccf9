"""MLP backbone with an explicit feature-extractor split.

The network is a stack of affine layers with ReLU after every layer except the
last.  ``split_index`` counts the layers that form the feature extractor: the
features Z are the post-ReLU activations after that layer (captured before any
dropout).  Dropout, when enabled, is applied after each hidden activation in
train mode only; eval mode is fully deterministic.  ``dropout_probs`` runs
many train-mode passes (BALD's) with the same results and random draws as
that many ``forward`` calls, computing the dropout-free first layer once.

The hidden activations are ``layers.relu`` and its gradient
``layers.relu_backward``, the same pair the gradient audit checks.  ReLU is
max(x, 0), so a NaN feature stays NaN through the network and shows up as a
non-finite loss; it is not zeroed away.  Data files are checked for
non-finite cells when they are loaded.

A checkpoint is an ``MlpParams`` whose arrays are read-only copies, so later
training steps cannot reach it and anything that writes to it raises.  A
``CheckpointSet`` is one training trajectory's checkpoints; ``avg_predict``
predicts with their mean.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError
from .layers import affine_backward, affine_forward, dropout, relu, relu_backward, softmax

__all__ = [
    "ModelSpec",
    "MlpParams",
    "CheckpointSet",
    "ForwardCache",
    "init_mlp",
    "forward",
    "backward",
    "predict_proba",
    "snapshot",
    "avg_predict",
    "dropout_probs",
]


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description: layer sizes, feature split, dropout rate."""

    layer_sizes: tuple[int, ...]
    split_index: int = 1
    dropout_rate: float = 0.0

    def __post_init__(self):
        if len(self.layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if any(int(s) < 1 for s in self.layer_sizes):
            raise ValueError(f"layer sizes must be positive, got {self.layer_sizes}")
        n_layers = len(self.layer_sizes) - 1
        if not 1 <= self.split_index < n_layers:
            raise ValueError(
                f"split_index must be in [1, {n_layers}) so the head is nonempty, "
                f"got {self.split_index}"
            )
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        object.__setattr__(self, "layer_sizes", tuple(int(s) for s in self.layer_sizes))


@dataclass
class MlpParams:
    """Layer weights/biases plus the feature-extractor split.

    ``layers[i]`` is (W, b) with W of shape (d_i, d_{i+1}) and b of shape
    (d_{i+1},).  Mutated in place only by the trainer; a :func:`snapshot`'s
    arrays are read-only.
    """

    layers: list[tuple[np.ndarray, np.ndarray]]
    split_index: int
    dropout_rate: float = 0.0


@dataclass(frozen=True)
class CheckpointSet:
    """Ordered parameter snapshots harvested along one training trajectory."""

    snapshots: tuple[MlpParams, ...]

    def __post_init__(self):
        if len(self.snapshots) == 0:
            raise ValueError("CheckpointSet must be nonempty")
        shapes = [tuple(W.shape for W, _ in s.layers) for s in self.snapshots]
        if any(sh != shapes[0] for sh in shapes):
            raise ValueError("snapshots are not structurally identical")

    def __len__(self) -> int:
        return len(self.snapshots)


@dataclass
class ForwardCache:
    """Intermediates needed by backward: per-layer inputs, pre-activations, masks."""

    inputs: list[np.ndarray] = field(default_factory=list)
    pre_activations: list[np.ndarray] = field(default_factory=list)
    dropout_masks: list[np.ndarray | None] = field(default_factory=list)


def init_mlp(
    layer_sizes,
    split_index: int,
    dropout_rate: float,
    rng: np.random.Generator,
) -> MlpParams:
    """Fresh parameters: ReLU-scaled Gaussian weights (variance 2/fan_in), zero biases."""
    spec = ModelSpec(tuple(layer_sizes), split_index, dropout_rate)
    layers = []
    for fan_in, fan_out in zip(spec.layer_sizes[:-1], spec.layer_sizes[1:]):
        W = rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in)
        b = np.zeros(fan_out)
        layers.append((W, b))
    return MlpParams(layers, spec.split_index, spec.dropout_rate)


def _checked_input(params: MlpParams, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != params.layers[0][0].shape[0]:
        raise DimensionError(
            f"input {X.shape} does not match first layer {params.layers[0][0].shape}"
        )
    return X


def forward(
    params: MlpParams,
    X: np.ndarray,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray, ForwardCache]:
    """Run the network, returning (Z, logits, cache).

    Z is the feature activation after layer ``split_index`` (post-ReLU,
    pre-dropout).  The cache supports :func:`backward`.  Only train-mode
    dropout consumes random numbers.
    """
    X = _checked_input(params, X)
    n_layers = len(params.layers)
    cache = ForwardCache()
    a = X
    Z = None
    for i, (W, b) in enumerate(params.layers, start=1):
        cache.inputs.append(a)
        pre = affine_forward(a, W, b)
        if i == n_layers:
            cache.pre_activations.append(pre)
            cache.dropout_masks.append(None)
            logits = pre
            break
        cache.pre_activations.append(pre)
        h = relu(pre)
        if i == params.split_index:
            Z = h
        h, mask = dropout(h, params.dropout_rate, rng=rng, train_mode=train_mode)
        cache.dropout_masks.append(mask)
        a = h
    assert Z is not None  # guaranteed by split_index < n_layers
    return Z, logits, cache


def backward(
    params: MlpParams,
    cache: ForwardCache,
    dlogits: np.ndarray | None,
    dZ: np.ndarray | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Parameter gradients for one forward pass.

    ``dlogits`` is the loss gradient at the output layer; ``dZ``, when given,
    is an extra loss gradient injected at the feature activation (used for the
    squared-MMD term, which attaches to Z rather than the logits).

    With ``dlogits`` None the loss reaches the network only through ``dZ``:
    the pass starts at layer ``split_index`` and returns the gradients of the
    ``split_index`` extractor layers alone (the head's would be exact zeros).
    """
    n_layers = len(params.layers)
    if dlogits is None:
        if dZ is None:
            raise ValueError("backward needs dlogits, dZ or both")
        top, upstream = params.split_index, None
    else:
        top, upstream = n_layers, np.asarray(dlogits, dtype=np.float64)
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * top  # type: ignore[list-item]
    for i in range(top, 0, -1):
        W, _ = params.layers[i - 1]
        if i < n_layers:
            mask = cache.dropout_masks[i - 1]
            if mask is not None and upstream is not None:
                upstream = upstream * mask
            if dZ is not None and i == params.split_index:
                upstream = dZ if upstream is None else upstream + dZ
            upstream = relu_backward(cache.pre_activations[i - 1], upstream)
        dX, dW, db = affine_backward(cache.inputs[i - 1], W, upstream, input_grad=i > 1)
        grads[i - 1] = (dW, db)
        upstream = dX
    return grads


def predict_proba(params: MlpParams, X: np.ndarray) -> np.ndarray:
    """Row-stochastic class probabilities (eval mode, no dropout)."""
    _, logits, _ = forward(params, X, train_mode=False)
    return softmax(logits)


def snapshot(params: MlpParams) -> MlpParams:
    """Deep copy of the current parameters with read-only arrays."""
    copies = []
    for W, b in params.layers:
        Wc, bc = W.copy(), b.copy()
        Wc.flags.writeable = False
        bc.flags.writeable = False
        copies.append((Wc, bc))
    return MlpParams(copies, params.split_index, params.dropout_rate)


def avg_predict(trajectory: CheckpointSet, X: np.ndarray) -> np.ndarray:
    """Mean class probabilities over every checkpoint in the trajectory."""
    if len(trajectory) == 0:
        raise ValueError("empty trajectory")
    acc = None
    for snap in trajectory.snapshots:
        P = predict_proba(snap, X)
        acc = P if acc is None else acc + P
    return acc / len(trajectory)


def dropout_probs(
    params: MlpParams, X: np.ndarray, passes: int, rng: np.random.Generator
) -> np.ndarray:
    """(passes, n, C) class probabilities from train-mode dropout passes.

    Pass t is bit for bit ``softmax`` of the logits of
    ``forward(params, X, train_mode=True, rng=rng)``, and the passes draw the
    same numbers from ``rng`` in the same order, given ``dropout_rate`` > 0
    (at rate 0 ``forward`` draws nothing).  Dropout acts only after each
    hidden ReLU, so the first layer's ``relu(X @ W1 + b1)`` is the same in
    every pass and is computed once.  Each later layer's dropout mask and
    pre-activation buffers are allocated once per call; the passes write
    into them and allocate no large array.
    """
    X = _checked_input(params, X)
    n, n_layers = X.shape[0], len(params.layers)
    rate = params.dropout_rate
    W1, b1 = params.layers[0]
    first = relu(affine_forward(X, W1, b1))
    later = params.layers[1:]
    buffers = [(np.empty((n, W.shape[0])), np.empty((n, W.shape[1]))) for W, _ in later]
    probs = np.empty((passes, n, later[-1][0].shape[1]))
    for t in range(passes):
        a = first
        for i, ((W, b), (mask, pre)) in enumerate(zip(later, buffers), start=2):
            # layers.dropout's arithmetic in place: the draws of rng.random(a.shape),
            # mask = keep / (1 - rate) (1.0 * (1 / (1 - rate)) is that exactly), a * mask
            rng.random(out=mask)
            np.greater_equal(mask, rate, out=mask)
            mask *= 1.0 / (1.0 - rate)
            np.multiply(a, mask, out=mask)
            a = affine_forward(mask, W, b, out=pre)
            if i < n_layers:
                relu(a, out=a)
        softmax(a, out=probs[t])
    return probs
