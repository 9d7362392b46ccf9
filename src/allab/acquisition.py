"""Scoring and selection of unlabeled examples, and the method table.

Methods:
    mpts     - entropy of the prediction averaged over the training
               trajectory's checkpoints (the package's headline strategy)
    random   - uniform sample without replacement
    entropy  - the same over the last checkpoint alone, the final model
    bald     - mutual information between prediction and dropout masks,
               estimated from T stochastic forward passes, consumed one pass
               at a time into running sums
    coreset  - greedy k-center in the final model's feature space, from its
               |unlabeled| x |labeled| distances, one row block at a time

``METHODS`` maps each name to its :class:`Method`: how it trains, what it is
evaluated with, and how it picks.  It is the one place per-method rules live.
A trajectory is what ``trainer.train_stack`` returns, a read-only (K, P)
stack of K checkpoints (see ``model``).  The entropy methods score with
``avg_predict`` over its rows (``entropy`` gets a one-row stack, the final
model); ``bald`` and ``coreset`` take its last row, ``cell(trajectory, -1)``.

All entropies are in nats.  Selection is pure top-k on the scores; ties break
toward the lower pool index.  Scoring holds what it reads: eval-mode ``model``
calls, which keep no backward cache, read the scored rows of ``pool.features``
block by block (their ``rows``), holding only BALD's layer outputs (no mask)
and core-set's features, which they reuse, as (n, hidden) arrays.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import PoolError
from .mmd import sq_dists, sq_norms
from .model import MlpParams, avg_predict, cell, dropout_probs, forward, row_blocks

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
    """Shannon entropy of each probability row, in nats; 0*ln 0 counts as 0.
    A row that does not sum to 1 within 1e-6, or has a negative entry, raises ValueError."""
    P = np.asarray(P)
    sums = P.sum(axis=1, dtype=np.float64)
    # NaN sums fail too, and so does a row with a negative entry
    bad = np.flatnonzero(~(np.abs(sums - 1.0) <= 1e-6) | (P < 0).any(axis=1))
    if bad.size:
        i = bad[0]
        least = P[i].astype(np.float64).min()  # the float64 row's, to the sign of a zero
        raise ValueError(f"row {i} is not a probability vector (sums to {sums[i]}, least entry {least})")
    return _entropy(P)


def _entropy(P: np.ndarray, terms: np.ndarray | None = None) -> np.ndarray:
    """-sum(P ln P) of each row of P, unchecked, in float64 whatever P's dtype: the terms are made in
    place (in ``terms``, an (n, C) float64 buffer, if given) as bit for bit ``np.where(P > 0, P ln P, 0)``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.log(P, out=terms, dtype=np.float64)
        terms *= P
    terms[~(P > 0)] = 0.0
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


def entropy_acquire(trajectory: MlpParams, pool, budget: int) -> AcquisitionResult:
    """Top-budget by entropy of the prediction averaged over the trajectory's checkpoints."""
    unlabeled = _require_unlabeled(pool)
    scores = entropy_scores(avg_predict(trajectory, pool.features, unlabeled))
    picks = select_top_k(scores, budget)
    return AcquisitionResult(unlabeled, scores, unlabeled[picks])


def random_acquire(pool, budget: int, rng: np.random.Generator) -> AcquisitionResult:
    """Uniform sample without replacement from the unlabeled pool."""
    unlabeled = _require_unlabeled(pool)
    k = min(budget, len(unlabeled))
    picks = rng.choice(unlabeled, size=k, replace=False)
    return AcquisitionResult(unlabeled[:0], np.empty(0), picks)


_ENTROPY_ROWS = 1024  # rows per block of a BALD pass's float64 entropy terms


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
    train-mode ``forward`` calls, with the first layer computed once.  They
    are consumed as they come: running sums of the probabilities and of the
    entropies, added in pass order and divided by ``passes`` at the end, so
    no more than one pass is held at a time.  They are bit for bit the means
    over a stack of every pass, as numpy sums a stack's outer axis in order,
    except for a lone unlabeled point: numpy sums a single column pairwise,
    so its score may differ in the last bit (its pick cannot).  A pass's
    entropy, unchecked as ``dropout_probs`` found it finite, goes by row
    blocks; the probability check runs once, on the mean.
    """
    if final.spec.dropout_rate <= 0:
        raise ValueError("bald_acquire requires a model with dropout_rate > 0")
    if passes < 2:
        raise ValueError(f"bald_acquire needs at least 2 passes, got {passes}")
    unlabeled = _require_unlabeled(pool)
    prob_sum = np.zeros((len(unlabeled), final.spec.layer_sizes[-1]))
    entropy_sum, terms = np.zeros(len(unlabeled)), np.empty_like(prob_sum[:_ENTROPY_ROWS])
    for P in dropout_probs(final, pool.features, passes, rng, unlabeled):
        prob_sum += P
        for start in range(0, len(P), _ENTROPY_ROWS):
            block = P[start : start + _ENTROPY_ROWS]
            entropy_sum[start : start + len(block)] += _entropy(block, terms[: len(block)])
    prob_sum /= passes
    entropy_sum /= passes
    scores = entropy_scores(prob_sum) - entropy_sum
    picks = select_top_k(scores, budget)
    return AcquisitionResult(unlabeled, scores, unlabeled[picks])


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
    Z_u, _, _ = forward(final, pool.features, rows=unlabeled)
    if len(labeled):
        Z_l, _, _ = forward(final, pool.features, rows=labeled)
        min_dist = _min_dists(Z_u, Z_l)
    else:
        min_dist = np.full(len(unlabeled), np.inf, Z_u.dtype)

    k = min(budget, len(unlabeled))
    picked_pos: list[int] = []
    pick_dists: list[float] = []
    # buffers reused by every pick, in the model's dtype
    gap, dist_new, masked = np.empty_like(Z_u), np.empty_like(min_dist), np.empty_like(min_dist)
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


def _min_dists(Z_u: np.ndarray, Z_l: np.ndarray) -> np.ndarray:
    """Each row of Z_u's least distance to Z_l, one block of its rows (``row_blocks``) at a time."""
    bounds = row_blocks(len(Z_u), *Z_l.shape[::-1], Z_u.itemsize, floor_bytes=0)
    norms_u, norms_l, least = sq_norms(Z_u), sq_norms(Z_l), np.empty(len(Z_u), Z_u.dtype)
    for start, stop in zip(bounds[:-1], bounds[1:]):
        sq_dists(Z_u[start:stop], Z_l, norms_u[start:stop], norms_l).min(axis=1, out=least[start:stop])
    return np.sqrt(least, out=least)


@dataclass(frozen=True)
class Method:
    """The per-method rules of one experiment cell.

    ``trains_with_mmd``: trains with the configured MMD^2 weight; otherwise
    the weight is 0.  ``bald_dropout``: the model carries the configured
    ``bald_dropout`` rate; otherwise it has no dropout.  ``on_trajectory``:
    evaluated and scored with the whole checkpoint trajectory; otherwise with
    its last row alone, the final model.  ``pick(pool, budget,
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
    "bald": Method(False, True, False, lambda p, k, tr, rng, T: bald_acquire(cell(tr, -1), p, k, T, rng)),
    "coreset": Method(False, False, False, lambda p, k, tr, rng, T: coreset_acquire(cell(tr, -1), p, k)),
}


def acquire(
    method: str,
    pool,
    budget: int,
    trajectory: MlpParams,
    rng: np.random.Generator,
    bald_passes: int = 20,
) -> AcquisitionResult:
    """One acquisition round by the named method's ``pick``."""
    if method not in METHODS:
        raise ValueError(f"unknown acquisition method: {method!r}")
    return METHODS[method].pick(pool, budget, trajectory, rng, bald_passes)
