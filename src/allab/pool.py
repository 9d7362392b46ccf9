"""Pool state: a partition's features plus its disjoint labeled/unlabeled/test index sets."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, PoolError
from .model import MlpParams, avg_predict

__all__ = [
    "PoolState",
    "init_pool",
    "label_points",
    "evaluate",
]


@dataclass
class PoolState:
    """Features and ground-truth labels with the current index partition.

    The indices are positions in ``features`` and ``labels``.  labeled_idx
    records acquisition order (earliest first); unlabeled_idx and test_idx
    stay in ascending order.  Labels of unlabeled points stand in for the
    annotation oracle and are only read when a point is moved to the labeled
    set or the test set is scored.  ``dataset_rows`` is the sorted dataset
    row of each position when the features hold only some rows (a
    standardized partition, see ``experiment.start_partition``); when None,
    position i is dataset row i.
    """

    features: np.ndarray
    labels: np.ndarray
    class_count: int
    labeled_idx: np.ndarray
    unlabeled_idx: np.ndarray
    test_idx: np.ndarray
    dataset_rows: np.ndarray | None = None

    @property
    def pool_idx(self) -> np.ndarray:
        """The pool's rows, labeled and unlabeled, in ascending order."""
        return np.sort(np.concatenate([self.labeled_idx, self.unlabeled_idx]))


def init_pool(
    dataset,
    initial_count: int,
    test_fraction: float,
    rng: np.random.Generator,
    pool_size: int | None = None,
    restrict_classes=None,
) -> PoolState:
    """Build the starting partition for one experiment repeat.

    The test set is the dataset's designated split when it has one, otherwise
    a seeded holdout of ``test_fraction``.  The remaining pool is optionally
    subsampled to ``pool_size``, then ``initial_count`` points are drawn
    uniformly (unstratified) as the initial labeled set.  ``restrict_classes``
    limits that initial draw to the given class ids (biased-start mode).

    A split that leaves no test set or no pool, a ``restrict_classes`` id
    outside [0, class_count), or fewer eligible pool points than
    ``initial_count``, is a :class:`ConfigError` naming the config field
    (``$.dataset.test_fraction`` or, for an empty designated split,
    ``$.dataset.test_images_path``; ``$.bias_classes``; ``$.initial_count``).
    """
    n = dataset.features.shape[0]
    all_idx = np.arange(n)
    if dataset.designated_test_idx is not None:
        test_idx = np.sort(np.asarray(dataset.designated_test_idx))
        if len(test_idx) == 0:
            raise ConfigError("$.dataset.test_images_path: the designated test split has no rows")
        pool_idx = np.setdiff1d(all_idx, test_idx)
    else:
        n_test = int(round(n * test_fraction))
        if not 0 < n_test < n:
            raise ConfigError(
                f"$.dataset.test_fraction: {test_fraction} of {n} points holds out "
                f"{n_test}, which leaves no pool or no test set"
            )
        test_idx = np.sort(rng.choice(all_idx, size=n_test, replace=False))
        pool_idx = np.setdiff1d(all_idx, test_idx)

    if pool_size is not None and pool_size < len(pool_idx):
        pool_idx = np.sort(rng.choice(pool_idx, size=pool_size, replace=False))

    candidates = pool_idx
    if restrict_classes is not None:
        allowed = set(int(c) for c in restrict_classes)
        for c in sorted(allowed):
            if not 0 <= c < dataset.class_count:
                raise ConfigError(
                    f"$.bias_classes: class id {c} not in [0, {dataset.class_count})"
                )
        candidates = pool_idx[np.isin(dataset.labels[pool_idx], sorted(allowed))]
    if initial_count > len(candidates):
        raise ConfigError(
            f"$.initial_count: {initial_count} exceeds the {len(candidates)} eligible pool points"
        )
    labeled = np.sort(rng.choice(candidates, size=initial_count, replace=False))
    unlabeled = np.setdiff1d(pool_idx, labeled)
    return PoolState(
        features=dataset.features,
        labels=dataset.labels,
        class_count=dataset.class_count,
        labeled_idx=labeled,
        unlabeled_idx=unlabeled,
        test_idx=test_idx,
    )


def label_points(pool: PoolState, indices) -> PoolState:
    """Move the given indices from the unlabeled to the labeled set.

    Appends in the given order, so labeled_idx records acquisition history.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if len(indices) == 0:
        return pool
    if len(np.unique(indices)) != len(indices):
        raise PoolError("duplicate indices in labeling request")
    missing = indices[~np.isin(indices, pool.unlabeled_idx)]
    if len(missing):
        raise PoolError(f"index {missing[0]} is not unlabeled")
    keep = ~np.isin(pool.unlabeled_idx, indices)
    return replace(
        pool,
        labeled_idx=np.concatenate([pool.labeled_idx, indices]),
        unlabeled_idx=pool.unlabeled_idx[keep],
    )


def evaluate(trajectory: MlpParams, pool: PoolState) -> float:
    """Test-set accuracy of ``avg_predict`` over the trajectory's K checkpoints,
    the rows of its (K, P) stack; a one-row stack is the final model alone.

    Argmax ties resolve to the lowest class index.
    """
    if len(pool.test_idx) == 0:
        raise PoolError("empty test set")
    pred = avg_predict(trajectory, pool.features, pool.test_idx).argmax(axis=1)
    return float((pred == pool.labels[pool.test_idx]).mean())
