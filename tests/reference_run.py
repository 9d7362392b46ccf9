"""A whole run as one plain loop, the reference ``run_experiment`` is checked
against (``test_reference_run.py``).

:func:`reference_run` follows the contract the README documents, one cell at
a time instead of in stacks and cell by cell instead of round by round.  For
each method, repeat and round, in that nesting order:

- the repeat's partition is ``init_pool`` on the ``("pool", repeat)`` stream,
  and its features are the float64 values (uint8 IDX pixels over 255),
  standardized with the statistics of the partition's pool rows or initial
  labeled rows when ``standardize`` is on, rounded to float32;
- the cell trains alone, ``train_stack`` with one pool, on the
  ``("train", method, repeat, round)`` seed: only ``mpts`` with ``lambda``
  and only ``bald`` with the ``bald_dropout`` rate, every model in its features' float32;
- it is evaluated with its whole trajectory (``mpts``) or its last
  checkpoint, and but in the last round it acquires on the
  ``("acquire", method, repeat, round)`` stream and labels its picks.

It calls the package's primitives (data loading, ``init_pool``,
``train_stack``, ``evaluate``, ``acquire``, ``label_points``) and nothing of
``experiment``: not its partitioning, standardization, stacking, round loop
or score writer.
"""

import csv
from dataclasses import replace

import numpy as np

from allab.acquisition import acquire
from allab.dataio import load_mnist, synth_blobs
from allab.model import MlpParams, ModelSpec
from allab.pool import evaluate, init_pool, label_points
from allab.seeding import derive_int, derive_rng
from allab.trainer import train_stack


def load(cfg):
    """The config's dataset: seeded blobs, or IDX pixels over 255."""
    d = cfg.dataset
    if d.kind == "synthetic":
        return synth_blobs(d.class_count, d.per_class, d.dim, d.separation, derive_rng(cfg.master_seed, "data"))
    assert d.kind == "mnist", d.kind
    return load_mnist(d.images_path, d.labels_path, d.test_images_path, d.test_labels_path)


def partition_features(dataset, start, mode) -> np.ndarray:
    """The float64 feature values, standardized by the partition's
    statistics rows unless ``mode`` is "none", rounded to float32."""
    values = dataset.features.astype(np.float64) / (255.0 if dataset.features.dtype == np.uint8 else 1.0)
    if mode != "none":
        rows = np.union1d(start.labeled_idx, start.unlabeled_idx) if mode == "pool" else start.labeled_idx
        mean, std = values[rows].mean(axis=0), values[rows].std(axis=0)
        constant = std == 0.0  # such features are neither centred nor scaled
        values = (values - np.where(constant, 0.0, mean)) / np.where(constant, 1.0, std)
    return values.astype(np.float32)


def write_scores(path, result) -> None:
    """``pool_index,score,selected`` per scored point, or per pick with an
    empty score when nothing was scored (random)."""
    chosen = set(result.selected.tolist())
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["pool_index", "score", "selected"])
        if len(result.scored) == 0:
            w.writerows([idx, "", 1] for idx in result.selected.tolist())
        for idx, score in zip(result.scored.tolist(), result.scores.tolist()):
            w.writerow([idx, score, int(idx in chosen)])


def reference_run(cfg, score_dir=None) -> list[tuple]:
    """Every (method, repeat, round) row as the tuple of ``RoundLog``'s fields,
    sorted by (method, repeat, round); with ``score_dir``, each acquisition's
    ``scores_<method>_rep<R>_round<T>.csv`` is written there."""
    dataset = load(cfg)
    rows = []
    for method in cfg.methods:
        for repeat in range(cfg.repeats):
            pool_seed = derive_int(cfg.master_seed, "pool", repeat)
            pool = init_pool(
                dataset,
                cfg.initial_count,
                cfg.dataset.test_fraction,
                derive_rng(pool_seed),
                pool_size=cfg.dataset.pool_size,
                restrict_classes=cfg.bias_classes,
            )
            pool = replace(pool, features=partition_features(dataset, pool, cfg.dataset.standardize))
            sizes, split = cfg.model.resolve(pool.features.shape[1], pool.class_count)
            rate = cfg.model.bald_dropout if method == "bald" else 0.0
            spec = ModelSpec(sizes, split, rate)
            train = replace(cfg.train, mmd_weight=cfg.train.mmd_weight if method == "mpts" else 0.0)
            for t in range(cfg.rounds):
                seed = derive_int(cfg.master_seed, "train", method, repeat, t)
                ((trajectory, _),) = train_stack([pool], spec, train, [seed])
                if method != "mpts":
                    trajectory = MlpParams(spec, trajectory.flat[-1:])
                accuracy = evaluate(trajectory, pool)
                rows.append((method, repeat, pool_seed, t, len(pool.labeled_idx), accuracy, 0.0))
                if t == cfg.rounds - 1:
                    break
                rng = derive_rng(cfg.master_seed, "acquire", method, repeat, t)
                result = acquire(method, pool, cfg.budget, trajectory, rng, bald_passes=cfg.model.bald_passes)
                if score_dir is not None:
                    write_scores(score_dir / f"scores_{method}_rep{repeat}_round{t}.csv", result)
                pool = label_points(pool, result.selected)
    return sorted(rows, key=lambda row: (row[0], row[1], row[3]))
