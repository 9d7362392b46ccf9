"""MLP backbone with an explicit feature-extractor split.

The network is a stack of affine layers with ReLU after every layer except the
last.  ``split_index`` counts the layers that form the feature extractor: the
features Z are the post-ReLU activations after that layer (captured before any
dropout).  Dropout, when enabled, is applied after each hidden activation in
train mode only, as ``h * mask`` with the mask drawn by
``layers.dropout_mask``, the one dropout primitive; eval mode is fully
deterministic.  ``dropout_probs`` runs many train-mode passes (BALD's) with
the same results and random draws as that many ``forward`` calls, computing
the dropout-free first layer once.

``forward`` applies each hidden ReLU in place, in both modes.  Train mode
keeps a ``ForwardCache`` of exactly what ``backward`` reads; ``relu_backward``
reads an activation's sign, which is its pre-activation's.  Scoring keeps no
training state: an eval-mode ``forward`` (prediction, core-set features)
returns None in the cache's place and draws no dropout, so it holds a layer's
input and output (and Z), not every layer.  ``predict_proba`` softmaxes its
logits in place, ``avg_predict`` sums its checkpoints' probabilities into the
first one's array, and ``dropout_probs`` yields its passes one at a time from
reused buffers.  Given ``rows``, they gather ``X[rows]`` block by block.

The hidden activations are ``layers.relu`` and its gradient
``layers.relu_backward``, the same pair the gradient audit checks.  ReLU is
max(x, 0), so a NaN feature stays NaN through the network and shows up as a
non-finite loss; it is not zeroed away.  Data files are checked for
non-finite cells when they are loaded.

An ``MlpParams`` is a ``ModelSpec`` (layer sizes, split, dropout rate)
plus one contiguous float64 or float32 vector, ``flat``, of every weight and
bias, whose dtype every array the model's training and scoring make has.
Its ``layers`` are (W, b) views into ``flat``, so the trainer updates all of
them in one vectorized step.  ``forward`` and ``dropout_probs`` reject input
that is not floating point (:func:`check_floating`, the trainer's check too)
and cast the rest to that dtype; the per-layer math is the ``layers``
primitives, which re-check nothing.  ``backward`` writes the gradients into
an ``MlpParams`` of the same layout (see ``zeros_like``).

A stack of R cells' parameters is an ``MlpParams`` whose ``flat`` is an
(R, P) array, one row per cell; its views carry the leading R axis, W as
(R, d_i, d_{i+1}) and b as (R, d_{i+1}).  ``forward`` and ``backward`` run a
stack on (R, n, d) batches with the same code, since the ``layers``
primitives take a leading stack axis, and cell r's results are bit for bit
those of running cell r alone.  ``cell`` reads one cell back, as a view.

A training trajectory is a stack too: row k of its (K, P) ``flat`` is
checkpoint k, a copy the trainer made and marked read-only, so later training
steps cannot reach it and anything that writes to it raises.
``avg_predict`` predicts with the mean over its rows, and
``cell(trajectory, -1)`` is the final model.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, TrainingDiverged
from .layers import affine_backward, affine_forward, dropout_mask, relu, relu_backward, softmax

__all__ = [
    "ModelSpec",
    "MlpParams",
    "ForwardCache",
    "init_mlp",
    "check_floating",
    "forward",
    "backward",
    "predict_proba",
    "zeros_like",
    "cell",
    "avg_predict",
    "dropout_probs",
]


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description: layer sizes, feature split and dropout rate."""

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
    """A model's parameters: its ``spec`` and one contiguous vector.

    ``flat``, float64 or float32 (the model computes in its dtype), holds
    layer by layer each W (row-major) and then its b.  ``layers[i]`` is
    (W, b), views into ``flat`` with W of shape (d_i, d_{i+1}) and b of
    shape (d_{i+1},), where ``spec.layer_sizes`` is (d_0, ..., d_L).
    ``flat`` is wrapped, not copied: (P,) for one model, (R, P) for a stack
    of R; a vector of any other length than ``spec``'s parameter count, or
    of any other dtype, raises DimensionError.  Mutated in place only by the
    trainer; a trajectory's vector and views are read-only.
    """

    def __init__(self, spec: ModelSpec, flat: np.ndarray):
        if flat.ndim not in (1, 2) or flat.shape[-1] != spec.n_params:
            raise DimensionError(f"parameters {flat.shape} do not fit layer sizes {spec.layer_sizes}")
        if flat.dtype not in (np.float64, np.float32):
            raise DimensionError(f"parameters are {flat.dtype}, not float64 or float32")
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


@dataclass
class ForwardCache:
    """What ``backward`` reads of a train-mode pass: every layer's input (the
    head's last), and each hidden layer's activation and mask (None at rate 0)."""

    inputs: list[np.ndarray] = field(default_factory=list)
    activations: list[np.ndarray] = field(default_factory=list)
    dropout_masks: list[np.ndarray | None] = field(default_factory=list)


def init_mlp(spec: ModelSpec, rng: np.random.Generator) -> MlpParams:
    """Fresh float64 parameters: ReLU-scaled Gaussian weights (variance
    2/fan_in), zero biases.  A float32 model's are these rounded."""
    flat = np.zeros(spec.n_params)
    for W, _ in _views(flat, spec.layer_sizes):
        W[...] = rng.standard_normal(W.shape) * np.sqrt(2.0 / W.shape[0])
    return MlpParams(spec, flat)


GATHER_BYTES = 2 << 20  # the most first-layer input a scoring call gathers at once


def _row_blocks(n: int, width: int, out_width: int, itemsize: int) -> list[int]:
    """Bounds of the near-equal blocks n rows are scored in by a (width, out_width)
    first layer: at most the larger of ``GATHER_BYTES``, 256 rows, 2^21 multiply-adds
    and 2 * out_width + 1 rows each, and at least half that; one block for a
    single-unit layer and a float64 one of over 192 units (see README)."""
    macs = -(-(2 << 20) // (width * out_width))
    per = max(256, GATHER_BYTES // (width * itemsize), macs, 2 * out_width + 1)
    count = 1 if out_width == 1 or (itemsize == 8 and out_width > 192) else max(1, -(-n // per))
    return [n * i // count for i in range(count + 1)]


def _first_affine(params: MlpParams, X: np.ndarray, rows) -> np.ndarray:
    """``X @ W1 + b1``, or ``X[rows] @ W1 + b1`` of one model gathered block by block."""
    W1, b1 = params.layers[0]
    if rows is None:
        return affine_forward(_checked_input(params, X), W1, b1)
    X = check_floating(X)  # before the gather casts it into the buffer
    if len(rows) and (np.min(rows) < -len(X) or np.max(rows) >= len(X)):
        raise IndexError(f"rows out of range for {len(X)} rows")  # take's "wrap" would not
    bounds = _row_blocks(len(rows), *W1.shape, W1.itemsize)
    out = np.empty((len(rows), W1.shape[1]), W1.dtype)
    buf = np.empty((bounds[-1] - bounds[-2], *X.shape[1:]), W1.dtype)  # the last block is the longest
    for start, stop in zip(bounds[:-1], bounds[1:]):
        block = np.take(X, rows[start:stop], axis=0, out=buf[: stop - start], mode="wrap")
        affine_forward(_checked_input(params, block), W1, b1, out=out[start:stop])
    return out


def check_floating(X: np.ndarray) -> np.ndarray:
    """X as an array, once its dtype is floating point: uint8 pixels, say, are
    not feature values until divided (``dataio.feature_values``)."""
    X = np.asarray(X)
    if not np.issubdtype(X.dtype, np.floating):
        raise DimensionError(f"pool features are {X.dtype}, not floating point")
    return X


def _checked_input(params: MlpParams, X: np.ndarray) -> np.ndarray:
    """X in the parameters' dtype: (n, d_0) for one model, (R, n, d_0) for a stack of R."""
    X = check_floating(X).astype(params.flat.dtype, copy=False)
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
    rng: np.random.Generator | Sequence[np.random.Generator] | None = None,
    rows=None,
) -> tuple[np.ndarray, np.ndarray, ForwardCache | None]:
    """Run the network, returning (Z, logits, cache).

    Z is the feature activation after layer ``split_index`` (post-ReLU,
    pre-dropout).  Each ReLU is applied in place on its fresh pre-activation,
    whose bits Z keeps, since later layers write new arrays.  Train mode
    draws the dropout masks and builds the cache :func:`backward` reads; eval
    mode returns None for it.  For a stack, X is (R, n, d_0) and ``rng`` one
    generator per cell (see ``layers.dropout_mask``).  Given ``rows``, eval mode runs on X[rows].
    """
    if train_mode and rows is not None:
        raise ValueError("rows selects the input of an eval-mode pass only")
    rate = params.spec.dropout_rate if train_mode else 0.0
    if rate > 0 and rng is None:
        raise ValueError("dropout with rate > 0 requires an rng")
    a = _checked_input(params, X) if rows is None else None
    cache = ForwardCache() if train_mode else None
    *hidden, (W_out, b_out) = params.layers
    for i, (W, b) in enumerate(hidden, start=1):  # one of them is split_index
        h = _first_affine(params, X, rows) if a is None else affine_forward(a, W, b)
        relu(h, out=h)
        if i == params.spec.split_index:
            Z = h
        mask = dropout_mask(rate, rng, np.empty_like(h)) if rate > 0 else None
        if train_mode:
            cache.inputs.append(a)
            cache.activations.append(h)
            cache.dropout_masks.append(mask)
        a = h if mask is None else h * mask
    if train_mode:
        cache.inputs.append(a)
    return Z, affine_forward(a, W_out, b_out), cache


def backward(
    params: MlpParams,
    cache: ForwardCache,
    dlogits: np.ndarray,
    dZ: np.ndarray | None = None,
    out: MlpParams | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Parameter gradients for one forward pass, as ``out.layers``.

    ``dlogits`` is the loss gradient at the output layer; ``dZ``, when given,
    is an extra loss gradient injected at the feature activation (used for the
    squared-MMD term, which attaches to Z rather than the logits).  Rows that
    reach the loss only through ``dZ`` (the trainer's pool batch) get zero
    rows in ``dlogits``.

    ``out`` is laid out like ``params`` (``zeros_like(params)`` when None);
    every gradient is written into its (W, b) views.
    """
    n_layers, split = len(params.layers), params.spec.split_index
    grads = (zeros_like(params) if out is None else out).layers
    upstream = dlogits
    for i in range(n_layers, 0, -1):
        W, _ = params.layers[i - 1]
        if i < n_layers:
            mask = cache.dropout_masks[i - 1]
            if mask is not None:
                upstream = upstream * mask
            if dZ is not None and i == split:
                upstream = upstream + dZ
            upstream = relu_backward(cache.activations[i - 1], upstream)
        upstream, _, _ = affine_backward(cache.inputs[i - 1], W, upstream, i > 1, out=grads[i - 1])
    return grads


# scoring's float overflow and invalid results, which the finiteness check reports
_QUIET = {"over": "ignore", "invalid": "ignore"}


def _finite(P: np.ndarray) -> np.ndarray:
    """P, once every probability is finite: a model whose logits overflow has diverged."""
    if not np.isfinite(P).all():
        raise TrainingDiverged("non-finite predictions")
    return P


def predict_proba(params: MlpParams, X: np.ndarray, rows=None) -> np.ndarray:
    """Row-stochastic class probabilities of X or X[rows] (eval mode, no
    dropout); any non-finite one raises TrainingDiverged."""
    with np.errstate(**_QUIET):
        _, logits, _ = forward(params, X, rows=rows)
        P = softmax(logits, out=logits)
    return _finite(P)


def zeros_like(params: MlpParams) -> MlpParams:
    """Zero parameters laid out like ``params``: a gradient buffer for :func:`backward`."""
    return MlpParams(params.spec, np.zeros_like(params.flat))


def cell(params: MlpParams, r: int) -> MlpParams:
    """Cell r of a stack: its row of ``flat``, a view, not a copy.  A single
    model is a stack of one."""
    return MlpParams(params.spec, params.flat.reshape(-1, params.flat.shape[-1])[r])


def avg_predict(trajectory: MlpParams, X: np.ndarray, rows=None) -> np.ndarray:
    """Mean class probabilities of X or X[rows] over a trajectory, a nonempty
    (K, P) stack of checkpoints: their probabilities summed in row order into
    the first one's array, then divided by K."""
    if trajectory.flat.ndim != 2 or len(trajectory.flat) == 0:
        raise ValueError(
            f"a trajectory is a nonempty (K, P) stack, got parameters {trajectory.flat.shape}"
        )
    acc = predict_proba(cell(trajectory, 0), X, rows)
    for k in range(1, len(trajectory.flat)):
        acc += predict_proba(cell(trajectory, k), X, rows)
    acc /= len(trajectory.flat)
    return acc


def dropout_probs(
    params: MlpParams, X: np.ndarray, passes: int, rng: np.random.Generator, rows=None
) -> Iterator[np.ndarray]:
    """The (n, C) class probabilities of ``passes`` train-mode dropout passes
    over X, or over ``X[rows]``, one pass at a time.

    Pass t is bit for bit ``softmax`` of the logits of
    ``forward(params, X, train_mode=True, rng=rng)``, and the passes draw the
    same numbers from ``rng`` in the same order, given ``dropout_rate`` > 0
    (at rate 0 ``forward`` draws nothing).  Dropout acts only after each
    hidden ReLU, so the first layer's ``relu(X @ W1 + b1)`` is the same in
    every pass; it is computed once, when this is called, together with the
    input check.  The later layers share one dropout-mask buffer and each
    has one pre-activation buffer; every pass writes into them, and its
    probabilities overwrite the last layer's buffer, which is what is
    yielded.  A caller that keeps a pass must copy it before the next.  A
    pass with a non-finite probability raises TrainingDiverged.
    """
    with np.errstate(**_QUIET):
        first = _first_affine(params, X, rows)
        relu(first, out=first)
    return _dropout_passes(first, params.layers[1:], params.spec.dropout_rate, passes, rng)


def _dropout_passes(first, later, rate, passes, rng) -> Iterator[np.ndarray]:
    n, dtype = first.shape[0], first.dtype
    shared = np.empty(n * max(W.shape[0] for W, _ in later), dtype)
    masks = [shared[: n * W.shape[0]].reshape(n, W.shape[0]) for W, _ in later]
    pres = [np.empty((n, W.shape[1]), dtype) for W, _ in later]
    for _ in range(passes):
        with np.errstate(**_QUIET):
            a = first
            for i, ((W, b), mask, pre) in enumerate(zip(later, masks, pres), start=1):
                # forward's train-mode dropout, its mask and output in the shared buffer
                np.multiply(a, dropout_mask(rate, rng, mask), out=mask)
                a = affine_forward(mask, W, b, out=pre)
                if i < len(later):
                    relu(a, out=a)
            P = softmax(a, out=a)
        yield _finite(P)
