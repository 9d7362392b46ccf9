"""Active-learning harness: paired repeats, per-cell seeding, deterministic outputs.

One experiment is a grid of (method, repeat) cells sharing a dataset.  All
cells of a repeat start from the same labeled/unlabeled/test partition, so
method comparisons are paired.  Every random draw flows from the master seed
through tagged streams (see ``seeding``), which makes the emitted result rows
an exact function of (config, master_seed) regardless of worker count or
execution order.
"""

from __future__ import annotations

import csv
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .acquisition import METHODS, AcquisitionResult, acquire
from .config import ExperimentConfig, config_to_json
from .dataio import Dataset, load_csv, load_mnist, standardize, synth_blobs
from .errors import ConfigError, FormatError
from .model import ModelSpec
from .pool import PoolState, evaluate, init_pool, label_points
from .seeding import derive_int, derive_rng
from .trainer import train_round

__all__ = [
    "RoundLog",
    "RESULTS_HEADER",
    "load_dataset",
    "start_partition",
    "run_cell",
    "run_experiment",
    "write_results_csv",
    "write_results_json",
    "read_results_csv",
    "compute_curves",
    "write_curves_csv",
]

RESULTS_HEADER = ("method", "repeat", "round", "labeled_count", "accuracy", "wall_time_s")
CURVES_HEADER = ("method", "round", "labeled_count", "mean_accuracy", "std_accuracy", "repeats")


@dataclass(frozen=True)
class RoundLog:
    """One (method, repeat, round) measurement.

    ``wall_time_seconds`` is a reserved field, always 0.0: result files must be
    exact functions of (config, master seed), so live timings appear only in
    progress lines.
    """

    method: str
    repeat: int
    repeat_seed: int
    round: int
    labeled_count: int
    test_accuracy: float
    wall_time_seconds: float = 0.0


def load_dataset(cfg: ExperimentConfig) -> Dataset:
    d = cfg.dataset
    if d.kind == "synthetic":
        return synth_blobs(
            d.class_count, d.per_class, d.dim, d.separation, derive_rng(cfg.master_seed, "data")
        )
    if d.kind == "mnist":
        return load_mnist(d.images_path, d.labels_path, d.test_images_path, d.test_labels_path)
    if d.kind == "csv":
        return load_csv(d.path, d.label_column)
    raise ConfigError(f"unknown dataset kind {d.kind!r}")


def start_partition(dataset: Dataset, cfg: ExperimentConfig, repeat: int) -> PoolState:
    """The repeat's starting partition, standardized if enabled; every
    method's cell of the repeat starts from it and shares its features.

    Standardization statistics are fitted inside the partition (pool rows or
    initial labeled rows) so the test set never leaks into them.
    """
    start = init_pool(
        dataset,
        cfg.initial_count,
        cfg.dataset.test_fraction,
        derive_rng(derive_int(cfg.master_seed, "pool", repeat)),
        pool_size=cfg.dataset.pool_size,
        restrict_classes=cfg.bias_classes,
    )
    mode = cfg.dataset.standardize
    if mode == "none":
        return start
    if mode == "pool":
        stats_rows = np.sort(np.concatenate([start.labeled_idx, start.unlabeled_idx]))
    else:  # labeled
        stats_rows = start.labeled_idx
    scaled, _, _ = standardize(dataset, stats_rows)
    return replace(start, features=scaled.features)


def run_cell(
    dataset: Dataset,
    cfg: ExperimentConfig,
    method: str,
    repeat: int,
    start: PoolState,
    progress=None,
    score_dir=None,
) -> list[RoundLog]:
    """All rounds of one (method, repeat) cell, from the repeat's ``start``.

    Each round trains a fresh model on the current labeled set, evaluates on
    the held-out test set, and then (except after the last round) acquires
    ``budget`` new labels.  How the method trains and what it is evaluated
    with come from its entry in ``acquisition.METHODS``.
    """
    rules = METHODS[method]
    repeat_seed = derive_int(cfg.master_seed, "pool", repeat)
    pool = start
    layer_sizes, split = cfg.model.resolve(dataset.features.shape[1], dataset.class_count)
    spec = ModelSpec(layer_sizes, split, cfg.model.bald_dropout if rules.bald_dropout else 0.0)
    mmd_weight = cfg.train.mmd_weight if rules.trains_with_mmd else 0.0
    logs: list[RoundLog] = []
    for t in range(cfg.rounds):
        started = time.monotonic()
        seed = derive_int(cfg.master_seed, "train", method, repeat, t)
        final, trajectory, _ = train_round(
            pool, spec, replace(cfg.train, mmd_weight=mmd_weight, seed=seed)
        )
        accuracy = evaluate(trajectory if rules.on_trajectory else final, pool)
        logs.append(RoundLog(method, repeat, repeat_seed, t, len(pool.labeled_idx), accuracy))
        if progress is not None:
            progress(
                f"[{method} rep {repeat} round {t}] labeled={len(pool.labeled_idx)} "
                f"accuracy={accuracy:.4f} ({time.monotonic() - started:.1f}s)"
            )
        if t == cfg.rounds - 1:
            break
        rng = derive_rng(cfg.master_seed, "acquire", method, repeat, t)
        result = acquire(
            method, pool, cfg.budget, final, trajectory, rng, bald_passes=cfg.model.bald_passes
        )
        if score_dir is not None:
            _dump_scores(Path(score_dir), result, pool, repeat, t)
        pool = label_points(pool, result.selected)
    return logs


def _dump_scores(score_dir: Path, result: AcquisitionResult, pool: PoolState, repeat: int, t: int):
    """Per-round score trace: one row per scored point, selection flagged."""
    score_dir.mkdir(parents=True, exist_ok=True)
    path = score_dir / f"scores_{result.method}_rep{repeat}_round{t}.csv"
    chosen = set(int(i) for i in result.selected)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["pool_index", "score", "selected"])
        if len(result.scores) == len(pool.unlabeled_idx):  # score-ranked methods
            for idx, s in zip(pool.unlabeled_idx.tolist(), result.scores.tolist()):
                w.writerow([idx, float(s), int(idx in chosen)])
        else:  # random (no scores) / coreset (one score per pick)
            scores = result.scores.tolist() or [""] * len(result.selected)
            for idx, s in zip(result.selected.tolist(), scores):
                w.writerow([idx, s, 1])


def _check_budget(cfg: ExperimentConfig, start: PoolState) -> None:
    """Fail before any training when the acquisitions would exhaust the pool;
    every repeat's ``start`` partition has the same pool size."""
    available = len(start.labeled_idx) + len(start.unlabeled_idx)
    need = cfg.initial_count + cfg.budget * (cfg.rounds - 1)
    if need > available:
        raise ConfigError(
            f"$.budget: initial_count {cfg.initial_count} + budget {cfg.budget} x "
            f"{cfg.rounds - 1} acquisitions = {need} labels, but the pool has "
            f"only {available} points"
        )


def run_experiment(
    cfg: ExperimentConfig, jobs: int = 1, progress=None, dataset: Dataset | None = None
) -> list[RoundLog]:
    """Run every (method, repeat) cell and return rows sorted by
    (method, repeat, round).  ``jobs`` > 1 fans cells out over threads; the
    returned rows are identical either way.  ``dataset`` is the config's
    already loaded dataset; without it the run loads its own."""
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    if dataset is None:
        dataset = load_dataset(cfg)
    # each repeat's partition is drawn once, before any cell trains, so a pool
    # too small for the config or a feature split beyond the default hidden
    # layers fails as a ConfigError up front
    starts = [start_partition(dataset, cfg, r) for r in range(cfg.repeats)]
    _check_budget(cfg, starts[0])
    cfg.model.resolve(dataset.features.shape[1], dataset.class_count)
    score_dir = Path(cfg.output_dir) if cfg.dump_scores else None
    cells = [(m, r) for m in cfg.methods for r in range(cfg.repeats)]

    def run(cell):
        method, repeat = cell
        return run_cell(dataset, cfg, method, repeat, starts[repeat], progress, score_dir)

    if jobs == 1:
        per_cell = [run(c) for c in cells]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool_exec:
            per_cell = list(pool_exec.map(run, cells))
    logs = [log for cell_logs in per_cell for log in cell_logs]
    logs.sort(key=lambda g: (g.method, g.repeat, g.round))
    return logs


def write_results_csv(logs: list[RoundLog], path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(RESULTS_HEADER)
        for g in logs:
            w.writerow(
                [g.method, g.repeat, g.round, g.labeled_count, g.test_accuracy, g.wall_time_seconds]
            )


def write_results_json(logs: list[RoundLog], cfg: ExperimentConfig, path) -> None:
    """JSON mirror of the results CSV with the resolved config embedded."""
    data = {"config": json.loads(config_to_json(cfg)), "rows": [asdict(g) for g in logs]}
    with open(path, "w") as f:
        f.write(json.dumps(data, indent=2, sort_keys=True) + "\n")


def read_results_csv(path) -> list[RoundLog]:
    """Load result rows back; repeat_seed is not stored in the CSV and reads as 0."""
    rows: list[RoundLog] = []
    try:
        f = open(path, newline="")
    except OSError as e:
        raise FormatError(f"{path}: cannot read: {e.strerror or e}") from None
    with f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != list(RESULTS_HEADER):
            raise FormatError(f"{path}: row 1: expected header {','.join(RESULTS_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(RESULTS_HEADER):
                raise FormatError(f"{path}: row {lineno}: expected {len(RESULTS_HEADER)} fields")
            try:
                rows.append(
                    RoundLog(row[0], int(row[1]), 0, int(row[2]), int(row[3]), float(row[4]), float(row[5]))
                )
            except ValueError as e:
                raise FormatError(f"{path}: row {lineno}: {e}") from None
    return rows


def compute_curves(logs: list[RoundLog]) -> list[tuple]:
    """Learning-curve summary: per (method, round), mean and population std of
    accuracy over repeats.  Paired repeats must agree on labeled_count."""
    groups: dict[tuple[str, int], list[RoundLog]] = {}
    for g in logs:
        groups.setdefault((g.method, g.round), []).append(g)
    out = []
    for (method, rnd) in sorted(groups):
        members = groups[(method, rnd)]
        counts = {m.labeled_count for m in members}
        if len(counts) != 1:
            raise FormatError(
                f"labeled_count differs across repeats for {method} round {rnd}: {sorted(counts)}"
            )
        acc = np.array([m.test_accuracy for m in members])
        out.append(
            (method, rnd, counts.pop(), float(acc.mean()), float(acc.std()), len(members))
        )
    return out


def write_curves_csv(curves: list[tuple], path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(CURVES_HEADER)
        for row in curves:
            w.writerow(list(row))
