"""SGD training of the joint objective with trajectory checkpointing.

Per step the loss is

    L = CE(batch from the labeled set) + mmd_weight * MMD^2(Z_L, Z_P)

where Z_L are the features of the labeled batch and Z_P the features of an
independent batch drawn from the whole pool (labeled + unlabeled).  The
learning rate is constant for the first half of the epochs, then cycles:
the second half is split into ``n_checkpoints`` near-equal runs of steps,
the rate decays linearly from ``base_lr`` to ``base_lr * lr_floor_ratio``
within each run and resets at the next, and parameters are snapshotted at
the last step of every run.

RNG-consumption contract (what a bit-identical reference must reproduce):
per step, first the labeled-batch indices are drawn, then the pool-batch
indices, each from the "batch" stream exactly as
``rng.choice(indices, batch_size, replace=len(indices) < batch_size)`` draws
it; the pool batch is drawn even when ``mmd_weight`` is 0.  Dropout masks,
when the model has a positive rate, come from the separate "dropout" stream,
one draw per hidden layer per forward pass, labeled batch first.  Parameter
initialization uses the "init" stream.  All three streams derive from the
cell's seed, which ``train_stack`` takes per cell next to the one
``TrainConfig`` of the round.

``train_stack`` trains one such cell, or several in lockstep.  Every cell
keeps its own three streams and consumes each of them exactly as it would
alone: per step, cell by cell, its labeled then its pool batch from its
"batch" stream, and per hidden layer its mask of the labeled pass and, later,
of the pool pass from its "dropout" stream.  The streams of different cells
never mix, so the interleaving of cells changes no draw.

Only work that changes the parameters is done.  The pool batch is run
through the network only when ``mmd_weight`` > 0 or the model has dropout
(its forward pass then consumes the dropout stream, as the contract says);
at ``mmd_weight`` 0 the kernel, the MMD^2 value and its gradient are never
computed and the logged mean MMD^2 is 0.0.  The pool batch's backward pass
starts at the feature layer, since the MMD^2 term does not reach the head.

The step works on a stack of R cells' vectors laid out like
``MlpParams.flat``, an (R, P) array, and on (R, batch, d) batches, so each
numpy call of a step serves all R cells; a single cell needs no stack axis
and runs on its (P,) vector and 2-D batches.  Each round allocates one gradient
buffer (``zeros_like``), which the labeled batch's backward pass writes and
the pool batch's adds into, one scratch array for the update and the batch
buffers.  Every cell's labels and feature width are checked once per round,
before step 0, and the kernel bandwidths are resolved once, at the first
step; the step then calls ``layers.softmax_cross_entropy`` and
``mmd.mmd2_biased_with_grad``, which check nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, FieldError, PoolError, TrainingDiverged
from .layers import check_labels, softmax_cross_entropy
from .mmd import check_bandwidths, median_heuristic, mmd2_biased_with_grad
from .model import (
    CheckpointSet,
    MlpParams,
    ModelSpec,
    backward,
    cell,
    forward,
    init_mlp,
    snapshot,
    stack,
    zeros_like,
)
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
    """All knobs of one training round."""

    epochs: int = 100
    base_lr: float = 1e-3
    batch_size: int = 64
    mmd_weight: float = 0.1
    weight_decay: float = 1e-4
    n_checkpoints: int = 5
    lr_floor_ratio: float = 0.1
    kernel: str | tuple[float, ...] = "median"

    def __post_init__(self):
        if self.epochs < 2 or self.epochs % 2 != 0:
            raise ValueError(f"epochs must be even and >= 2, got {self.epochs}")
        if self.epochs < 2 * self.n_checkpoints:
            raise ValueError(
                f"epochs ({self.epochs}) must be >= 2 * n_checkpoints "
                f"({self.n_checkpoints}) so each cycle spans a full epoch"
            )
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.base_lr <= 0:
            raise ValueError(f"base_lr must be positive, got {self.base_lr}")
        if self.mmd_weight < 0:
            raise ValueError(f"mmd_weight must be >= 0, got {self.mmd_weight}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.n_checkpoints < 1:
            raise ValueError(f"n_checkpoints must be >= 1, got {self.n_checkpoints}")
        if not 0.0 < self.lr_floor_ratio <= 1.0:
            raise ValueError(f"lr_floor_ratio must be in (0, 1], got {self.lr_floor_ratio}")
        if isinstance(self.kernel, (tuple, list, np.ndarray)):
            key = "kernel"  # a bad entry is named by its index, an empty list as a whole
            try:
                for i, sigma in enumerate(self.kernel):
                    key = f"kernel[{i}]"
                    check_bandwidths((sigma,))
                object.__setattr__(self, "kernel", check_bandwidths(self.kernel))
            except ValueError as e:
                raise FieldError(key, str(e)) from None
        elif self.kernel not in ("median", "median3"):
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


def _check_cell(pool, model_spec: ModelSpec) -> np.ndarray:
    """The pool's labeled indices, once its labels and feature width fit the model."""
    labeled = np.asarray(pool.labeled_idx)
    if len(labeled) == 0:
        raise PoolError("cannot train with an empty labeled set")
    features = pool.features
    if features.ndim != 2 or features.shape[1] != model_spec.layer_sizes[0]:
        raise DimensionError(
            f"pool features {features.shape} do not match the model's input width "
            f"{model_spec.layer_sizes[0]}"
        )
    check_labels(pool.labels[labeled], model_spec.layer_sizes[-1])
    return labeled


def train_stack(
    pools,
    model_spec: ModelSpec,
    config: TrainConfig,
    seeds,
) -> list[tuple[CheckpointSet, list[EpochStats]]]:
    """Train one fresh model per (pool, seed) cell, all cells in lockstep.

    The cells share ``config`` and the pools' labeled sets must have one
    size, so every cell runs the same steps at the same rates.  Each
    step draws every cell's batches from the cell's own streams, gathers them
    into (R, batch, d) stacks and runs the forward pass, loss, MMD^2 term,
    backward pass and SGD update once for all R cells, each with its own
    kernel bandwidths.  Returns per cell, in order, bit for bit what training
    that cell alone (``train_stack([pool], model_spec, config, [seed])[0]``)
    returns: the checkpoint trajectory (exactly ``n_checkpoints`` snapshots
    at the documented cycle-end steps) and the per-epoch mean CE / mean
    MMD^2 / learning-rate history.  The last cycle ends at the last step, so
    the last checkpoint is the final parameters.  Unless given
    explicitly, a cell's bandwidths come from the median heuristic on its
    first pool batch's features, frozen for the whole round.  A cell whose
    loss, MMD^2 term or gradient goes non-finite stops the whole stack.
    """
    if len(pools) != len(seeds) or not pools:
        raise ValueError(f"need one seed per pool, got {len(pools)} pools and {len(seeds)} seeds")
    labeled = [_check_cell(pool, model_spec) for pool in pools]
    if len({len(idx) for idx in labeled}) != 1:
        raise ValueError(
            f"the cells of a stack need labeled sets of one size, got {[len(i) for i in labeled]}"
        )
    both = [
        np.sort(np.concatenate([idx, np.asarray(pool.unlabeled_idx)]))
        for idx, pool in zip(labeled, pools)
    ]
    features = [np.asarray(pool.features, dtype=np.float64) for pool in pools]

    R, B, d = len(pools), config.batch_size, model_spec.layer_sizes[0]
    # several cells are stacked on a leading axis; one cell runs on plain 2-D
    # arrays, since the stack axis adds a fixed cost to every numpy call
    lead = (R,) if R > 1 else ()
    rngs_batch = [derive_rng(seed, "batch") for seed in seeds]
    rngs_drop = [derive_rng(seed, "dropout") for seed in seeds]
    inits = [init_mlp(model_spec, derive_rng(seed, "init")) for seed in seeds]
    params = stack(inits) if lead else inits[0]
    cells = [cell(params, r) for r in range(R)]  # views that follow the in-place updates
    grad, scratch = zeros_like(params), np.empty_like(params.flat)

    spe = steps_per_epoch(len(labeled[0]), B)
    rates = lr_schedule(spe, config)
    snap_at = set(snapshot_steps(config.epochs, spe, config.n_checkpoints))

    lam = config.mmd_weight
    pool_pass = lam > 0 or model_spec.dropout_rate > 0  # at lam 0: keeps the dropout stream in step
    X_l, X_p = np.empty((2, *lead, B, d))  # the batches, gathered per step
    y_l = np.empty((*lead, B), dtype=np.intp)
    # what each cell's draws read and the rows of the batch buffers they fill
    gather = list(zip(
        rngs_batch, labeled, both, features, [pool.labels for pool in pools],
        X_l.reshape(R, B, d), X_p.reshape(R, B, d), y_l.reshape(R, B),
    ))
    sigmas = None  # the bandwidths, frozen at the first pool batch
    snaps: list[list[MlpParams]] = [[] for _ in range(R)]
    history: list[list[EpochStats]] = [[] for _ in range(R)]
    ce_sum, mmd_sum = np.zeros(lead), np.zeros(lead)
    for step, lr in enumerate(rates):
        for rng, cell_labeled, cell_both, cell_features, cell_labels, x_l, x_p, y in gather:
            idx_l = _draw(rng, cell_labeled, B)
            idx_p = _draw(rng, cell_both, B)
            # the drawn indices are in range, so "clip" changes none; unlike the
            # default "raise" it writes straight into ``out`` with no staging copy
            cell_features.take(idx_l, axis=0, out=x_l, mode="clip")
            y[:] = cell_labels[idx_l]
            if pool_pass:
                cell_features.take(idx_p, axis=0, out=x_p, mode="clip")

        Z_l, logits, cache_l = forward(params, X_l, train_mode=True, rng=rngs_drop)
        if pool_pass:
            Z_p, _, cache_p = forward(params, X_p, train_mode=True, rng=rngs_drop)
        ce, _, dlogits = softmax_cross_entropy(logits, y_l)
        if not np.isfinite(ce).all():
            raise TrainingDiverged(f"non-finite CE at step {step} (lr={lr:g})")

        if lam > 0:
            if sigmas is None:
                per_cell = [_resolve_kernel(config, Z) for Z in Z_p.reshape(R, B, -1)]
                # a stack's k-th bandwidth is an (R, 1, 1) column, one per cell
                sigmas = list(np.array(per_cell).T[:, :, None, None]) if lead else per_cell[0]
            m2, dZ_l, dZ_p = mmd2_biased_with_grad(Z_l, Z_p, sigmas)
            if not np.isfinite(lam * m2).all():
                raise TrainingDiverged(f"non-finite MMD^2 term at step {step} (lr={lr:g})")
            backward(params, cache_l, dlogits, dZ=lam * dZ_l, out=grad)
            backward(params, cache_p, None, dZ=lam * dZ_p, out=grad, add=True)
            mmd_sum += m2
        else:
            backward(params, cache_l, dlogits, out=grad)

        try:
            params = sgd_step(params, grad.flat, lr, config.weight_decay, scratch)
        except TrainingDiverged:
            raise TrainingDiverged(f"non-finite gradient at step {step} (lr={lr:g})") from None
        if step in snap_at:
            for r in range(R):
                snaps[r].append(snapshot(cells[r]))

        ce_sum += ce
        if (step + 1) % spe == 0:
            ce_mean, mmd_mean = (ce_sum / spe).reshape(R), (mmd_sum / spe).reshape(R)
            for r in range(R):
                history[r].append(EpochStats(step // spe, float(ce_mean[r]), float(mmd_mean[r]), lr))
            ce_sum, mmd_sum = np.zeros(lead), np.zeros(lead)
    return [(CheckpointSet(tuple(snaps[r])), history[r]) for r in range(R)]
