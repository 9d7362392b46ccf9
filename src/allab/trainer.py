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
it; the pool batch is drawn even when ``mmd_weight`` is 0.  Dropout masks, when the model has a
positive rate, come from the separate "dropout" stream, one draw per hidden
layer per forward pass, labeled batch first.  Parameter initialization uses
the "init" stream.  All three streams derive from ``TrainConfig.seed``.

Only work that changes the parameters is done.  The pool batch is run
through the network only when ``mmd_weight`` > 0 or the model has dropout
(its forward pass then consumes the dropout stream, as the contract says);
at ``mmd_weight`` 0 the kernel, the MMD^2 value and its gradient are never
computed and the logged mean MMD^2 is 0.0.  The pool batch's backward pass
starts at the feature layer, since the MMD^2 term does not reach the head.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PoolError, TrainingDiverged
from .layers import softmax_cross_entropy
from .mmd import KernelSpec, median_heuristic, mmd2_biased_with_grad
from .model import CheckpointSet, MlpParams, ModelSpec, backward, forward, init_mlp, snapshot
from .seeding import derive_rng

__all__ = [
    "TrainConfig",
    "EpochStats",
    "lr_schedule",
    "cycle_bounds",
    "snapshot_steps",
    "steps_per_epoch",
    "sgd_step",
    "train_round",
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
    seed: int = 0

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
        if isinstance(self.kernel, str):
            if self.kernel not in ("median", "median3"):
                raise ValueError(f"kernel must be 'median', 'median3' or a bandwidth list")
        else:
            object.__setattr__(self, "kernel", tuple(float(s) for s in self.kernel))
            KernelSpec(self.kernel)  # validates positivity


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
    grads: list[tuple[np.ndarray, np.ndarray]],
    lr: float,
    weight_decay: float,
) -> MlpParams:
    """In-place update theta <- theta - lr * (g + weight_decay * theta)."""
    for (W, b), (dW, db) in zip(params.layers, grads):
        if dW.shape != W.shape or db.shape != b.shape:
            raise ValueError(f"gradient shape {dW.shape}/{db.shape} does not match parameters")
        if not (np.isfinite(dW).all() and np.isfinite(db).all()):
            raise TrainingDiverged("non-finite gradient in sgd_step")
        W -= lr * (dW + weight_decay * W)
        b -= lr * (db + weight_decay * b)
    return params


def _draw(rng: np.random.Generator, indices: np.ndarray, batch_size: int) -> np.ndarray:
    """The draw ``rng.choice(indices, batch_size, replace=len(indices) < batch_size)``
    makes, without its per-call conversion of ``indices``: the same indices from
    the same consumption of the stream."""
    n = len(indices)
    if n < batch_size:
        return indices[rng.integers(0, n, batch_size)]
    return indices[rng.choice(n, batch_size, replace=False)]


def _resolve_kernel(config: TrainConfig, first_pool_features: np.ndarray) -> KernelSpec:
    if isinstance(config.kernel, tuple):
        return KernelSpec(config.kernel)
    sigma = median_heuristic(first_pool_features)
    if config.kernel == "median3":
        return KernelSpec.around(sigma)
    return KernelSpec.single(sigma)


def train_round(
    pool,
    model_spec: ModelSpec,
    config: TrainConfig,
) -> tuple[MlpParams, CheckpointSet, list[EpochStats]]:
    """Train a freshly initialized model on the pool's labeled set.

    Returns the final parameters, the checkpoint trajectory (exactly
    ``n_checkpoints`` snapshots at the documented cycle-end steps), and
    per-epoch mean CE / mean MMD^2 / learning-rate history.  The kernel
    bandwidth, unless given explicitly, is the median heuristic on the
    features of the first pool batch, frozen for the whole round.
    """
    labeled = np.asarray(pool.labeled_idx)
    if len(labeled) == 0:
        raise PoolError("cannot train with an empty labeled set")
    both = np.sort(np.concatenate([labeled, np.asarray(pool.unlabeled_idx)]))

    rng_init = derive_rng(config.seed, "init")
    rng_batch = derive_rng(config.seed, "batch")
    rng_drop = derive_rng(config.seed, "dropout")
    params = init_mlp(
        model_spec.layer_sizes, model_spec.split_index, model_spec.dropout_rate, rng_init
    )

    spe = steps_per_epoch(len(labeled), config.batch_size)
    rates = lr_schedule(spe, config)
    snap_at = set(snapshot_steps(config.epochs, spe, config.n_checkpoints))

    kernel: KernelSpec | None = None
    features, labels = pool.features, pool.labels
    lam = config.mmd_weight
    snaps: list[MlpParams] = []
    history: list[EpochStats] = []
    ce_sum = mmd_sum = 0.0
    for step, lr in enumerate(rates):
        idx_l = _draw(rng_batch, labeled, config.batch_size)
        idx_p = _draw(rng_batch, both, config.batch_size)

        Z_l, logits, cache_l = forward(params, features[idx_l], train_mode=True, rng=rng_drop)
        if lam > 0 or model_spec.dropout_rate > 0:  # at lam 0: keeps the dropout stream in step
            Z_p, _, cache_p = forward(params, features[idx_p], train_mode=True, rng=rng_drop)
        ce, _, dlogits = softmax_cross_entropy(logits, labels[idx_l])
        if not np.isfinite(ce):
            raise TrainingDiverged(f"non-finite CE at step {step} (lr={lr:g})")

        if lam > 0:
            if kernel is None:
                kernel = _resolve_kernel(config, Z_p)
            m2, dZ_l, dZ_p = mmd2_biased_with_grad(Z_l, Z_p, kernel)
            if not np.isfinite(lam * m2):
                raise TrainingDiverged(f"non-finite MMD^2 term at step {step} (lr={lr:g})")
            grads = backward(params, cache_l, dlogits, dZ=lam * dZ_l)
            grads_p = backward(params, cache_p, None, dZ=lam * dZ_p)
            grads[: len(grads_p)] = [
                (dW + dW2, db + db2) for (dW, db), (dW2, db2) in zip(grads, grads_p)
            ]
        else:
            m2 = 0.0
            grads = backward(params, cache_l, dlogits)

        try:
            params = sgd_step(params, grads, lr, config.weight_decay)
        except TrainingDiverged:
            raise TrainingDiverged(f"non-finite gradient at step {step} (lr={lr:g})") from None
        if step in snap_at:
            snaps.append(snapshot(params))

        ce_sum += ce
        mmd_sum += m2
        if (step + 1) % spe == 0:
            history.append(EpochStats(step // spe, ce_sum / spe, mmd_sum / spe, lr))
            ce_sum = mmd_sum = 0.0
    return params, CheckpointSet(tuple(snaps)), history
