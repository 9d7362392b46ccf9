"""Scoring and selection of unlabeled examples, and the method table.

Methods:
    mpts     - entropy of the prediction averaged over the training
               trajectory's checkpoints (the package's headline strategy)
    random   - uniform sample without replacement
    entropy  - the same over the last checkpoint alone, the final model
    bald     - mutual information between prediction and dropout masks,
               estimated from T stochastic forward passes
    coreset  - greedy k-center in the final model's feature space

``METHODS`` maps each name to its :class:`Method`: how it trains, what it is
evaluated with, and how it picks.  It is the one place per-method rules live.

All entropies are in nats.  Selection is pure top-k on the scores; ties break
toward the lower pool index.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import PoolError
from .mmd import sq_dists, sq_norms
from .model import CheckpointSet, MlpParams, avg_predict, dropout_probs, forward

__all__ = [
    "AcquisitionResult",
    "entropy_scores",
    "select_top_k",
    "random_acquire",
    "entropy_acquire",
    "bald_acquire",
    "coreset_acquire",
    "acquire",
    "Method",
    "METHODS",
]


@dataclass
class AcquisitionResult:
    """Outcome of one acquisition round.

    ``selected`` holds pool indices in pick order.  ``scores[i]`` is the
    score of pool index ``scored[i]``: ``scored`` is the pool's unlabeled_idx
    for score-ranked methods, ``selected`` (one max-min distance per pick)
    for coreset, and empty for random.
    """

    scored: np.ndarray
    scores: np.ndarray
    selected: np.ndarray


def entropy_scores(P: np.ndarray) -> np.ndarray:
    """Shannon entropy of each probability row, in nats; 0*ln 0 counts as 0."""
    P = np.asarray(P, dtype=np.float64)
    sums = P.sum(axis=1)
    bad = np.flatnonzero(~(np.abs(sums - 1.0) <= 1e-6))  # NaN sums fail too
    if bad.size:
        raise ValueError(f"row {bad[0]} is not a probability vector (sums to {sums[bad[0]]!r})")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(P > 0, P * np.log(P), 0.0)
    return -terms.sum(axis=1)


def select_top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k largest scores, descending score then ascending index.

    k larger than the score count is clamped.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    scores = np.asarray(scores, dtype=np.float64)
    order = np.lexsort((np.arange(len(scores)), -scores))
    return order[: min(k, len(scores))]


def _require_unlabeled(pool) -> np.ndarray:
    unlabeled = np.asarray(pool.unlabeled_idx)
    if len(unlabeled) == 0:
        raise PoolError("unlabeled pool is empty")
    return unlabeled


def entropy_acquire(trajectory: CheckpointSet, pool, budget: int) -> AcquisitionResult:
    """Top-budget by entropy of the checkpoint-averaged prediction."""
    unlabeled = _require_unlabeled(pool)
    scores = entropy_scores(avg_predict(trajectory, pool.features[unlabeled]))
    picks = select_top_k(scores, budget)
    return AcquisitionResult(unlabeled, scores, unlabeled[picks])


def random_acquire(pool, budget: int, rng: np.random.Generator) -> AcquisitionResult:
    """Uniform sample without replacement from the unlabeled pool."""
    unlabeled = _require_unlabeled(pool)
    k = min(budget, len(unlabeled))
    picks = rng.choice(unlabeled, size=k, replace=False)
    return AcquisitionResult(unlabeled[:0], np.empty(0), picks)


def bald_acquire(
    final: MlpParams,
    pool,
    budget: int,
    passes: int,
    rng: np.random.Generator,
) -> AcquisitionResult:
    """Mutual-information scores from stochastic dropout passes.

    score = H(mean of the per-pass probabilities) - mean per-pass entropy,
    which is nonnegative (Jensen) up to float noise.  The passes are
    ``model.dropout_probs``: the same draws and probabilities as ``passes``
    train-mode ``forward`` calls, with the first layer computed once.
    """
    if final.spec.dropout_rate <= 0:
        raise ValueError("bald_acquire requires a model with dropout_rate > 0")
    if passes < 2:
        raise ValueError(f"bald_acquire needs at least 2 passes, got {passes}")
    unlabeled = _require_unlabeled(pool)
    scores = bald_scores_from_probs(dropout_probs(final, pool.features[unlabeled], passes, rng))
    picks = select_top_k(scores, budget)
    return AcquisitionResult(unlabeled, scores, unlabeled[picks])


def bald_scores_from_probs(stack: np.ndarray) -> np.ndarray:
    """Mutual information from a (passes, n, C) probability stack."""
    mean_entropy = np.stack([entropy_scores(stack[t]) for t in range(stack.shape[0])]).mean(axis=0)
    return entropy_scores(stack.mean(axis=0)) - mean_entropy


def coreset_acquire(final: MlpParams, pool, budget: int) -> AcquisitionResult:
    """Greedy k-center in the final model's feature space.

    Each pick maximizes the minimum Euclidean distance to the labeled points
    plus the picks so far; ties break toward the lower pool index.  The score
    recorded for each pick is that max-min distance.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    unlabeled = _require_unlabeled(pool)
    labeled = np.asarray(pool.labeled_idx)
    Z_u, _, _ = forward(final, pool.features[unlabeled])
    if len(labeled):
        Z_l, _, _ = forward(final, pool.features[labeled])
        min_dist = np.sqrt(sq_dists(Z_u, Z_l, sq_norms(Z_u), sq_norms(Z_l)).min(axis=1))
    else:
        min_dist = np.full(len(unlabeled), np.inf)

    k = min(budget, len(unlabeled))
    picked_pos: list[int] = []
    pick_dists: list[float] = []
    # buffers reused by every pick
    gap, dist_new, masked = np.empty_like(Z_u), np.empty(len(unlabeled)), np.empty(len(unlabeled))
    for _ in range(k):
        np.copyto(masked, min_dist)
        masked[picked_pos] = -np.inf
        pos = int(np.argmax(masked))  # first max = lowest pool index on ties
        picked_pos.append(pos)
        pick_dists.append(float(min_dist[pos]))
        np.subtract(Z_u, Z_u[pos], out=gap)
        np.square(gap, out=gap)
        np.sqrt(gap.sum(axis=1, out=dist_new), out=dist_new)
        np.minimum(min_dist, dist_new, out=min_dist)
    selected = unlabeled[np.array(picked_pos)]
    return AcquisitionResult(selected, np.array(pick_dists), selected)


@dataclass(frozen=True)
class Method:
    """The per-method rules of one experiment cell.

    ``trains_with_mmd``: trains with the configured MMD^2 weight; otherwise
    the weight is 0.  ``bald_dropout``: the model carries the configured
    ``bald_dropout`` rate; otherwise it has no dropout.  ``on_trajectory``:
    evaluated and scored with the whole checkpoint trajectory; otherwise with
    its last checkpoint alone, the final model.  ``pick(pool, budget,
    trajectory, rng, bald_passes)`` makes one round's acquisition.
    """

    trains_with_mmd: bool
    bald_dropout: bool
    on_trajectory: bool
    pick: Callable[..., AcquisitionResult]


METHODS: dict[str, Method] = {
    # name: Method(trains_with_mmd, bald_dropout, on_trajectory,
    #              pick(pool, budget, trajectory, rng, bald_passes))
    "mpts": Method(True, False, True, lambda p, k, tr, rng, T: entropy_acquire(tr, p, k)),
    "random": Method(False, False, False, lambda p, k, tr, rng, T: random_acquire(p, k, rng)),
    "entropy": Method(False, False, False, lambda p, k, tr, rng, T: entropy_acquire(tr, p, k)),
    "bald": Method(False, True, False, lambda p, k, tr, rng, T: bald_acquire(tr.snapshots[-1], p, k, T, rng)),
    "coreset": Method(False, False, False, lambda p, k, tr, rng, T: coreset_acquire(tr.snapshots[-1], p, k)),
}


def acquire(
    method: str,
    pool,
    budget: int,
    trajectory: CheckpointSet,
    rng: np.random.Generator,
    bald_passes: int = 20,
) -> AcquisitionResult:
    """One acquisition round by the named method's ``pick``."""
    if method not in METHODS:
        raise ValueError(f"unknown acquisition method: {method!r}")
    return METHODS[method].pick(pool, budget, trajectory, rng, bald_passes)
