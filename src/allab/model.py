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

An ``MlpParams`` is a ``ModelSpec`` (layer sizes, split, dropout rate) plus
one contiguous float64 vector, ``flat``, of every weight and bias; its
``layers`` are (W, b) views into it, so the trainer updates all of them in
one vectorized step.  The vector's length is checked against the spec when
it is built, and ``forward`` and ``dropout_probs`` check their input; the
per-layer math is the ``layers`` primitives, which re-check nothing.
``backward`` writes the gradients into an ``MlpParams`` of the same layout
(see ``zeros_like``), or adds them to one.

A stack of R cells' parameters is an ``MlpParams`` whose ``flat`` is an
(R, P) array, one row per cell; its views carry the leading R axis, W as
(R, d_i, d_{i+1}) and b as (R, d_{i+1}).  ``forward`` and ``backward`` run a
stack on (R, n, d) batches with the same code, since the ``layers``
primitives take a leading stack axis, and cell r's results are bit for bit
those of running cell r alone.  ``stack`` builds one from single cells of one
spec and ``cell`` reads one back.

A checkpoint is an ``MlpParams`` whose vector is a read-only copy, so later
training steps cannot reach it and anything that writes to it raises.  A
``CheckpointSet`` is one training trajectory's checkpoints; ``avg_predict``
predicts with their mean.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError
from .layers import affine_backward, affine_forward, dropout, dropout_mask, relu, relu_backward, softmax

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
    "zeros_like",
    "stack",
    "cell",
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

    @property
    def n_params(self) -> int:
        """The length of one model's parameter vector, ``MlpParams.flat``."""
        s = self.layer_sizes
        return sum((d_in + 1) * d_out for d_in, d_out in zip(s[:-1], s[1:]))


class MlpParams:
    """A model's parameters: its ``spec`` and one contiguous float64 vector.

    ``flat`` holds layer by layer each W (row-major) and then its b.
    ``layers[i]`` is (W, b), views into ``flat`` with W of shape
    (d_i, d_{i+1}) and b of shape (d_{i+1},), where ``spec.layer_sizes`` is
    (d_0, ..., d_L).  ``flat`` is wrapped, not copied: (P,) for one model,
    (R, P) for a stack of R; a vector of any other length than ``spec``'s
    parameter count raises DimensionError.  Mutated in place only by the
    trainer; a :func:`snapshot`'s vector and views are read-only.
    """

    def __init__(self, spec: ModelSpec, flat: np.ndarray):
        if flat.ndim not in (1, 2) or flat.shape[-1] != spec.n_params:
            raise DimensionError(f"parameters {flat.shape} do not fit layer sizes {spec.layer_sizes}")
        self.spec = spec
        self.flat = flat
        self.layers = _views(flat, spec.layer_sizes)


def _views(flat: np.ndarray, sizes) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (W, b) views of a vector laid out like ``MlpParams.flat``, or of
    each row of a stack of them (the views then lead with the stack axis)."""
    views, at, lead = [], 0, flat.shape[:-1]
    for d_in, d_out in zip(sizes[:-1], sizes[1:]):
        W = flat[..., at : at + d_in * d_out].reshape(*lead, d_in, d_out)
        at += d_in * d_out
        views.append((W, flat[..., at : at + d_out]))
        at += d_out
    return views


@dataclass(frozen=True)
class CheckpointSet:
    """Ordered parameter snapshots harvested along one training trajectory."""

    snapshots: tuple[MlpParams, ...]

    def __post_init__(self):
        if len(self.snapshots) == 0:
            raise ValueError("CheckpointSet must be nonempty")
        if any(s.spec != self.snapshots[0].spec for s in self.snapshots):
            raise ValueError("snapshots are not structurally identical")

    def __len__(self) -> int:
        return len(self.snapshots)


@dataclass
class ForwardCache:
    """Intermediates needed by backward: per-layer inputs, pre-activations, masks."""

    inputs: list[np.ndarray] = field(default_factory=list)
    pre_activations: list[np.ndarray] = field(default_factory=list)
    dropout_masks: list[np.ndarray | None] = field(default_factory=list)


def init_mlp(spec: ModelSpec, rng: np.random.Generator) -> MlpParams:
    """Fresh parameters: ReLU-scaled Gaussian weights (variance 2/fan_in), zero biases."""
    params = MlpParams(spec, np.zeros(spec.n_params))
    for W, _ in params.layers:
        W[...] = rng.standard_normal(W.shape) * np.sqrt(2.0 / W.shape[0])
    return params


def _checked_input(params: MlpParams, X: np.ndarray) -> np.ndarray:
    """X as float64: (n, d_0) for one model, (R, n, d_0) for a stack of R."""
    X = np.asarray(X, dtype=np.float64)
    lead, width = params.flat.shape[:-1], params.spec.layer_sizes[0]
    if X.shape[:-2] != lead or X.ndim != len(lead) + 2 or X.shape[-1] != width:
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
    dropout consumes random numbers.  For a stack, X is (R, n, d_0) and
    ``rng`` one generator per cell (see ``layers.dropout``).
    """
    a = _checked_input(params, X)
    spec = params.spec
    cache = ForwardCache()
    *hidden, (W_out, b_out) = params.layers
    for i, (W, b) in enumerate(hidden, start=1):  # one of them is split_index
        cache.inputs.append(a)
        pre = affine_forward(a, W, b)
        cache.pre_activations.append(pre)
        h = relu(pre)
        if i == spec.split_index:
            Z = h
        a, mask = dropout(h, spec.dropout_rate, rng=rng, train_mode=train_mode)
        cache.dropout_masks.append(mask)
    cache.inputs.append(a)
    logits = affine_forward(a, W_out, b_out)
    cache.pre_activations.append(logits)
    cache.dropout_masks.append(None)
    return Z, logits, cache


def backward(
    params: MlpParams,
    cache: ForwardCache,
    dlogits: np.ndarray | None,
    dZ: np.ndarray | None = None,
    out: MlpParams | None = None,
    add: bool = False,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Parameter gradients for one forward pass, as ``out.layers``.

    ``dlogits`` is the loss gradient at the output layer; ``dZ``, when given,
    is an extra loss gradient injected at the feature activation (used for the
    squared-MMD term, which attaches to Z rather than the logits).

    With ``dlogits`` None the loss reaches the network only through ``dZ``:
    the pass starts at layer ``split_index`` and returns the gradients of the
    ``split_index`` extractor layers alone (the head's would be exact zeros).

    ``out`` is laid out like ``params`` (``zeros_like(params)`` when None).
    The gradients are written into its (W, b) views, or with ``add`` added to
    what they hold: the trainer adds the pool batch's extractor gradients to
    the labeled batch's this way, bit for bit ``dW + dW_pool``.  Layers the
    pass does not reach are left as they are.
    """
    n_layers, split = len(params.layers), params.spec.split_index
    if dlogits is None:
        if dZ is None:
            raise ValueError("backward needs dlogits, dZ or both")
        top, upstream = split, None
    else:
        top, upstream = n_layers, dlogits
    grads = (zeros_like(params) if out is None else out).layers[:top]
    for i in range(top, 0, -1):
        W, _ = params.layers[i - 1]
        if i < n_layers:
            mask = cache.dropout_masks[i - 1]
            if mask is not None and upstream is not None:
                upstream = upstream * mask
            if dZ is not None and i == split:
                upstream = dZ if upstream is None else upstream + dZ
            upstream = relu_backward(cache.pre_activations[i - 1], upstream)
        if add:
            dX, dW, db = affine_backward(cache.inputs[i - 1], W, upstream, i > 1)
            gW, gb = grads[i - 1]
            gW += dW
            gb += db
        else:
            dX, _, _ = affine_backward(cache.inputs[i - 1], W, upstream, i > 1, out=grads[i - 1])
        upstream = dX
    return grads


def predict_proba(params: MlpParams, X: np.ndarray) -> np.ndarray:
    """Row-stochastic class probabilities (eval mode, no dropout)."""
    _, logits, _ = forward(params, X, train_mode=False)
    return softmax(logits)


def snapshot(params: MlpParams) -> MlpParams:
    """One copy of the parameter vector; it and its (W, b) views are read-only."""
    flat = params.flat.copy()
    flat.flags.writeable = False  # and so are the views of it
    return MlpParams(params.spec, flat)


def zeros_like(params: MlpParams) -> MlpParams:
    """Zero parameters laid out like ``params``: a gradient buffer for :func:`backward`."""
    return MlpParams(params.spec, np.zeros_like(params.flat))


def stack(cells) -> MlpParams:
    """The stack of single models of one spec: row r of ``flat`` is a copy of
    ``cells[r].flat``."""
    spec = cells[0].spec
    if any(c.spec != spec for c in cells):
        raise DimensionError("a stack's cells need the same layer sizes, split and dropout rate")
    return MlpParams(spec, np.stack([c.flat for c in cells]))


def cell(params: MlpParams, r: int) -> MlpParams:
    """Cell r of a stack: its row of ``flat``, a view, not a copy.  A single
    model is a stack of one."""
    return MlpParams(params.spec, params.flat.reshape(-1, params.flat.shape[-1])[r])


def avg_predict(trajectory: CheckpointSet, X: np.ndarray) -> np.ndarray:
    """Mean class probabilities over every checkpoint in the trajectory."""
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
    rate = params.spec.dropout_rate
    W1, b1 = params.layers[0]
    first = relu(affine_forward(X, W1, b1))
    later = params.layers[1:]
    buffers = [(np.empty((n, W.shape[0])), np.empty((n, W.shape[1]))) for W, _ in later]
    probs = np.empty((passes, n, later[-1][0].shape[1]))
    for t in range(passes):
        a = first
        for i, ((W, b), (mask, pre)) in enumerate(zip(later, buffers), start=2):
            # layers.dropout with its mask and output in one reused buffer
            np.multiply(a, dropout_mask(rate, rng, mask), out=mask)
            a = affine_forward(mask, W, b, out=pre)
            if i < n_layers:
                relu(a, out=a)
        softmax(a, out=probs[t])
    return probs
