"""SGD training of the joint objective with trajectory checkpointing.

Per step the loss is

    L = CE(batch from the labeled set) + mmd_weight * MMD^2(Z_L, Z_P)

where Z_L are the features of the labeled batch and Z_P the features of an
independent batch drawn from the whole pool (labeled + unlabeled).  The
learning rate is constant for the first half of the epochs, then cycles:
the second half is split into ``n_checkpoints`` near-equal runs of steps,
the rate decays linearly from ``base_lr`` to ``base_lr * lr_floor_ratio``
within each run and resets at the next.  The parameters after the last step
of run k are checkpoint k: row k of the trajectory, a read-only
(n_checkpoints, P) stack (see ``model``).

RNG-consumption contract (what a bit-identical reference must reproduce):
per step, first the labeled-batch indices are drawn, then the pool-batch
indices, each from the "batch" stream exactly as
``rng.choice(indices, batch_size, replace=len(indices) < batch_size)`` draws
it; the pool batch is drawn even when ``mmd_weight`` is 0.  Dropout masks,
when the model has a positive rate, come from the separate "dropout" stream,
one draw per hidden layer per step.  At ``mmd_weight`` > 0 each draw covers
both batches' rows, labeled rows first; at 0 it covers the labeled batch,
and after the labeled pass the pool batch's masks are drawn, one per hidden
layer, and dropped.  Parameter initialization uses the "init" stream.  All
three streams derive from the cell's seed, which ``train_stack`` takes per
cell next to the one ``TrainConfig`` of the round.

``train_stack`` trains one such cell, or several in lockstep.  Every cell
keeps its own three streams and consumes each of them exactly as it would
alone: per step, cell by cell, its labeled then its pool batch from its
"batch" stream, and per hidden layer its masks from its "dropout" stream.
The streams of different cells never mix, so the interleaving of cells
changes no draw.

Each step runs one forward and one backward pass.  At ``mmd_weight`` > 0
they run over one (R, 2 * batch, d) buffer, the labeled rows then the pool
rows: the CE reads the first ``batch`` logits, the MMD^2 term compares the
two halves of Z, taking Z whole, and the backward pass takes the CE
gradient on the labeled rows, zero on the pool rows, and the MMD^2 gradient
of both halves at Z.  At ``mmd_weight`` 0 only the labeled rows go through the network,
and the kernel, the MMD^2 value and its gradient are never computed; the
logged mean MMD^2 is 0.0.

The step works on a stack of R cells' vectors laid out like
``MlpParams.flat``, an (R, P) array, and on (R, rows, d) batches, so each
numpy call of a step serves all R cells, a stack of one included.  A stack
trains in its features' dtype: its float64 initial parameters are cast to it
once, and each round's gradient buffer (``zeros_like``, written by the
backward pass), update scratch, batch and head-gradient buffers have it, so
float32 features train in float32, the MMD^2 term on centred batches
included (see ``mmd.mmd2_biased_with_grad``).  Every cell's labels and
feature width are checked once per round, before step 0, and the kernel
bandwidths are resolved once, at the first step; the step then calls
``layers.softmax_cross_entropy`` and ``mmd.mmd2_biased_with_grad``, which
check nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, FieldError, PoolError, TrainingDiverged, at_least, check_kind, check_kinds
from .layers import check_labels, dropout_mask, softmax_cross_entropy
from .mmd import median_heuristic, mmd2_biased_with_grad
from .model import MlpParams, ModelSpec, backward, check_floating, forward, init_mlp, zeros_like
from .seeding import derive_rng

__all__ = [
    "TrainConfig",
    "EpochStats",
    "lr_schedule",
    "cycle_bounds",
    "snapshot_steps",
    "steps_per_epoch",
    "sgd_step",
    "train_stack",
]


@dataclass(frozen=True)
class TrainConfig:
    """All knobs of one training round.  ``kernel`` is ``median``, ``median3`` or
    a nonempty list of positive, finite bandwidths, kept as a tuple of floats."""

    epochs: int = 100
    base_lr: float = 1e-3
    batch_size: int = 64
    mmd_weight: float = 0.1
    weight_decay: float = 1e-4
    n_checkpoints: int = 5
    lr_floor_ratio: float = 0.1
    kernel: str | tuple[float, ...] = "median"

    def __post_init__(self):
        check_kinds(self)
        if self.epochs < 2 or self.epochs % 2 != 0:
            raise FieldError("epochs", f"must be even and >= 2, got {self.epochs}")
        at_least(self, 2, "batch_size")
        at_least(self, 1, "n_checkpoints")
        at_least(self, 0, "mmd_weight", "weight_decay")
        if self.epochs < 2 * self.n_checkpoints:
            raise FieldError(
                "epochs",
                f"must be >= 2 * n_checkpoints = {2 * self.n_checkpoints} "
                f"so each cycle spans a full epoch, got {self.epochs}",
            )
        if self.base_lr <= 0:
            raise FieldError("base_lr", f"must be positive, got {self.base_lr}")
        if not 0.0 < self.lr_floor_ratio <= 1.0:
            raise FieldError("lr_floor_ratio", f"must be in (0, 1], got {self.lr_floor_ratio}")
        if isinstance(self.kernel, (tuple, list)):
            kernel = check_kind(self.kernel, "tuple[float, ...]", "kernel")
            for i, sigma in enumerate(kernel):
                if not 0.0 < sigma < np.inf:
                    raise FieldError(f"kernel[{i}]", f"bandwidths must be positive and finite, got {sigma}")
            object.__setattr__(self, "kernel", kernel)
        elif not isinstance(self.kernel, str) or self.kernel not in ("median", "median3"):
            raise FieldError(
                "kernel", f"must be 'median', 'median3' or a bandwidth list, got {self.kernel!r}"
            )


@dataclass
class EpochStats:
    epoch: int
    mean_ce: float
    mean_mmd2: float
    lr: float  # rate at the epoch's final step


def steps_per_epoch(n_labeled: int, batch_size: int) -> int:
    """ceil(|labeled| / batch_size), at least 1."""
    return max(1, -(-n_labeled // batch_size))


def cycle_bounds(epochs: int, spe: int, n_checkpoints: int) -> list[tuple[int, int]]:
    """Half-open [start, end) step ranges of the second-half learning-rate cycles.

    The second half of training (steps epochs/2 * spe onward) is split into
    n_checkpoints contiguous runs whose lengths differ by at most one, the
    longer runs first.
    """
    half = (epochs // 2) * spe
    total = epochs * spe
    span = total - half
    base, extra = divmod(span, n_checkpoints)
    bounds = []
    start = half
    for i in range(n_checkpoints):
        length = base + (1 if i < extra else 0)
        bounds.append((start, start + length))
        start += length
    return bounds


def snapshot_steps(epochs: int, spe: int, n_checkpoints: int) -> list[int]:
    """Steps (0-based) after whose update a checkpoint is saved: each cycle's last step."""
    return [end - 1 for _, end in cycle_bounds(epochs, spe, n_checkpoints)]


def lr_schedule(spe: int, config: TrainConfig) -> list[float]:
    """Learning rate at every 0-based global step of a round.

    Constant ``base_lr`` through the first half of the epochs; in the second
    half, linear decay from ``base_lr`` to ``base_lr * lr_floor_ratio`` within
    each cycle, resetting at each cycle start.  A one-step cycle sits at the
    floor.
    """
    base = config.base_lr
    floor = base * config.lr_floor_ratio
    rates = [base] * ((config.epochs // 2) * spe)
    for start, end in cycle_bounds(config.epochs, spe, config.n_checkpoints):
        length = end - start
        if length == 1:
            rates.append(floor)
        else:
            rates.extend(base + (floor - base) * (k / (length - 1)) for k in range(length))
    return rates


def sgd_step(
    params: MlpParams,
    grad: np.ndarray,
    lr: float,
    weight_decay: float,
    scratch: np.ndarray | None = None,
) -> MlpParams:
    """In-place update theta <- theta - lr * (g + weight_decay * theta).

    ``grad`` is laid out like ``params.flat``.  The whole vector is updated
    at once, bit for bit as each tensor's ``W -= lr * (dW + weight_decay * W)``
    (the same operations, each commutative); ``scratch``, a vector of the same
    size, holds the step when given.  A non-finite gradient raises
    TrainingDiverged and leaves the parameters as they were.
    """
    theta = params.flat
    if grad.shape != theta.shape:
        raise ValueError(f"gradient shape {grad.shape} does not match parameters {theta.shape}")
    if not np.isfinite(grad).all():
        raise TrainingDiverged("non-finite gradient in sgd_step")
    step = np.multiply(theta, weight_decay, out=scratch)
    step += grad
    step *= lr
    theta -= step
    return params


def _draw(rng: np.random.Generator, indices: np.ndarray, batch_size: int) -> np.ndarray:
    """The draw ``rng.choice(indices, batch_size, replace=len(indices) < batch_size)``
    makes, without its per-call conversion of ``indices``: the same indices from
    the same consumption of the stream."""
    n = len(indices)
    if n < batch_size:
        return indices[rng.integers(0, n, batch_size)]
    return indices[rng.choice(n, batch_size, replace=False)]


def _resolve_kernel(config: TrainConfig, first_pool_features: np.ndarray) -> tuple[float, ...]:
    if isinstance(config.kernel, tuple):
        return config.kernel
    sigma = median_heuristic(first_pool_features)
    if config.kernel == "median3":
        return (sigma / 2.0, sigma, 2.0 * sigma)
    return (sigma,)


def _check_cell(pool, model_spec: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """The pool's labeled indices and features, once its labels and features' width and float dtype fit."""
    labeled = np.asarray(pool.labeled_idx)
    if len(labeled) == 0:
        raise PoolError("cannot train with an empty labeled set")
    features = pool.features
    if features.ndim != 2 or features.shape[1] != model_spec.layer_sizes[0]:
        raise DimensionError(
            f"pool features {features.shape} do not match the model's input width "
            f"{model_spec.layer_sizes[0]}"
        )
    features = check_floating(features)
    check_labels(pool.labels[labeled], model_spec.layer_sizes[-1])
    return labeled, features


def train_stack(
    pools,
    model_spec: ModelSpec,
    config: TrainConfig,
    seeds,
) -> list[tuple[MlpParams, list[EpochStats]]]:
    """Train one fresh model per (pool, seed) cell, all cells in lockstep.

    The cells share ``config`` and the models train in their features' one
    dtype, float64 or float32; the labeled sets have one size, so all run
    the same steps.  Each step draws every cell's batches from the cell's own
    streams, gathers them into one (R, rows, d) stack and runs the forward
    pass, loss, MMD^2 term, backward pass and SGD update once for all R
    cells, each with its own kernel bandwidths.  Returns per cell, in order,
    bit for bit what training that cell alone
    (``train_stack([pool], model_spec, config, [seed])[0]``) returns: the
    checkpoint trajectory and the per-epoch mean CE / mean MMD^2 /
    learning-rate history.  The trajectory is a read-only (n_checkpoints, P)
    stack whose row k is a copy of the parameters after step
    ``snapshot_steps(...)[k]``; the cells' trajectories are the rows of one
    (R, n_checkpoints, P) array, filled one column per checkpoint.  The last
    cycle ends at the last step, so the last row is the final parameters.
    Unless given explicitly, a cell's bandwidths come from the median
    heuristic on its first pool batch's features, frozen for the whole
    round.  A cell whose loss, MMD^2 term or gradient goes non-finite stops
    the whole stack.
    """
    if len(pools) != len(seeds) or not pools:
        raise ValueError(f"need one seed per pool, got {len(pools)} pools and {len(seeds)} seeds")
    labeled, features = zip(*(_check_cell(pool, model_spec) for pool in pools))
    if len({len(idx) for idx in labeled}) != 1:
        raise ValueError(
            f"the cells of a stack need labeled sets of one size, got {[len(i) for i in labeled]}"
        )
    dtypes = " and ".join(sorted({f.dtype.name for f in features}))
    if dtypes not in ("float32", "float64"):
        raise DimensionError(f"a stack's features need one dtype, float64 or float32, got {dtypes}")
    dtype = features[0].dtype

    R, B, d = len(pools), config.batch_size, model_spec.layer_sizes[0]
    rngs_batch = [derive_rng(seed, "batch") for seed in seeds]
    rngs_drop = [derive_rng(seed, "dropout") for seed in seeds]
    params = np.stack([init_mlp(model_spec, derive_rng(seed, "init")).flat for seed in seeds])
    params = MlpParams(model_spec, params.astype(dtype, copy=False))  # frees the float64 draws
    grad, scratch = zeros_like(params), np.empty_like(params.flat)

    spe = steps_per_epoch(len(labeled[0]), B)
    rates = lr_schedule(spe, config)
    steps = snapshot_steps(config.epochs, spe, config.n_checkpoints)
    snap_at = {step: k for k, step in enumerate(steps)}  # checkpoint k is copied after step steps[k]
    trajectories = np.empty((R, config.n_checkpoints, model_spec.n_params), dtype)

    lam = config.mmd_weight
    # at lam > 0 one buffer holds each cell's labeled rows, then its pool rows
    n = 2 * B if lam > 0 else B
    X = np.empty((R, n, d), dtype)  # the batches, gathered per step
    y_l = np.empty((R, B), dtype=np.intp)
    # the head's upstream gradient: the CE's on the labeled rows, 0 on the pool rows
    dlogits_all = np.zeros((R, n, model_spec.layer_sizes[-1]), dtype)
    rate = model_spec.dropout_rate
    # at lam 0 the pool batch's masks are drawn and dropped, keeping the
    # dropout stream in step; float64 buffers, so the draws go straight in
    pool_masks = []
    if lam == 0 and rate > 0:
        pool_masks = [np.empty((R, B, h)) for h in model_spec.layer_sizes[1:-1]]
    # what each cell's draws read and the rows of the batch buffers they fill
    gather = list(zip(rngs_batch, labeled, [p.pool_idx for p in pools], features,
                      [p.labels for p in pools], X, y_l))
    sigmas = None  # the bandwidths, frozen at the first pool batch
    history: list[list[EpochStats]] = [[] for _ in range(R)]
    ce_sum, mmd_sum = np.zeros(R), np.zeros(R)
    for step, lr in enumerate(rates):
        for rng, cell_labeled, cell_both, cell_features, cell_labels, x, y in gather:
            idx_l = _draw(rng, cell_labeled, B)
            idx_p = _draw(rng, cell_both, B)
            # the drawn indices are in range, so "clip" changes none; unlike the
            # default "raise" it writes straight into ``out`` with no staging copy
            cell_features.take(idx_l, axis=0, out=x[:B], mode="clip")
            y[:] = cell_labels[idx_l]
            if lam > 0:
                cell_features.take(idx_p, axis=0, out=x[B:], mode="clip")

        Z, logits, cache = forward(params, X, train_mode=True, rng=rngs_drop)
        for mask in pool_masks:
            dropout_mask(rate, rngs_drop, mask)
        ce, dlogits = softmax_cross_entropy(logits[:, :B, :], y_l)
        if not np.isfinite(ce).all():
            raise TrainingDiverged(f"non-finite CE at step {step} (lr={lr:g})")

        if lam > 0:
            if sigmas is None:
                per_cell = [_resolve_kernel(config, z) for z in Z[:, B:, :]]
                # the k-th bandwidth is an (R, 1, 1) column, one per cell
                sigmas = list(np.array(per_cell).T[:, :, None, None])
            m2, dZ = mmd2_biased_with_grad(Z, B, sigmas)
            if not np.isfinite(lam * m2).all():
                raise TrainingDiverged(f"non-finite MMD^2 term at step {step} (lr={lr:g})")
            dZ *= lam
            mmd_sum += m2
        else:
            dZ = None
        dlogits_all[:, :B, :] = dlogits
        backward(params, cache, dlogits_all, dZ=dZ, out=grad)

        try:
            params = sgd_step(params, grad.flat, lr, config.weight_decay, scratch)
        except TrainingDiverged:
            raise TrainingDiverged(f"non-finite gradient at step {step} (lr={lr:g})") from None
        if step in snap_at:
            trajectories[:, snap_at[step]] = params.flat

        ce_sum += ce
        if (step + 1) % spe == 0:
            ce_mean, mmd_mean = ce_sum / spe, mmd_sum / spe
            for r in range(R):
                history[r].append(EpochStats(step // spe, float(ce_mean[r]), float(mmd_mean[r]), lr))
            ce_sum, mmd_sum = np.zeros(R), np.zeros(R)
    trajectories.flags.writeable = False  # and so is every view of it
    return [(MlpParams(model_spec, trajectories[r]), history[r]) for r in range(R)]
