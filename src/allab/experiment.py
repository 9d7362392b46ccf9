"""Active-learning harness: paired repeats, per-cell seeding, deterministic outputs.

One experiment is a grid of (method, repeat) cells sharing a dataset.  All
cells of a repeat start from the same labeled/unlabeled/test partition, so
method comparisons are paired.  Every random draw flows from the master seed
through tagged streams (see ``seeding``), which makes the emitted result rows
an exact function of (config, master_seed) regardless of execution order.

The loop is round-major.  Cells whose methods' rules in
``acquisition.METHODS`` give the same model (layer sizes, split, dropout
rate) and the same MMD^2 weight form one stack; on ``configs/bias4.json``
these are the 5 ``mpts`` cells and the 10 ``random`` and ``entropy`` cells.
In each round every stack trains its cells in lockstep with
``trainer.train_stack`` (bit for bit what training each cell alone gives),
then each of its cells is evaluated, acquires its next labels and drops its
trajectory before the next stack trains.  Every stack runs in the calling
thread, in the order of ``_stacks``.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .acquisition import METHODS, AcquisitionResult, acquire
from .config import ExperimentConfig, config_to_json
from .dataio import Dataset, load_csv, load_mnist, standardize, synth_blobs
from .errors import ConfigError, FormatError, TrainingDiverged
from .model import CheckpointSet, ModelSpec
from .pool import PoolState, evaluate, init_pool, label_points
from .seeding import derive_int, derive_rng
from .trainer import train_stack

__all__ = [
    "RoundLog",
    "RESULTS_HEADER",
    "load_dataset",
    "start_partition",
    "make_output_dir",
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
    return load_csv(d.path, d.label_column)


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
    return replace(start, features=standardize(dataset.features, stats_rows))


def make_output_dir(cfg: ExperimentConfig) -> Path:
    """Create ``cfg.output_dir`` and its parents; a path that cannot be made a
    directory is a ConfigError naming ``$.output_dir``."""
    out = Path(cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"$.output_dir: cannot make directory {str(out)!r}: {e.strerror or e}") from None
    return out


@dataclass
class _Cell:
    """One (method, repeat) cell: its current partition and its rows so far."""

    method: str
    repeat: int
    repeat_seed: int
    pool: PoolState
    logs: list[RoundLog]


@dataclass
class _Stack:
    """Cells that train with the same model and MMD^2 weight."""

    spec: ModelSpec
    mmd_weight: float
    cells: list[_Cell]


def _stacks(cfg: ExperimentConfig, starts: list[PoolState]) -> list[_Stack]:
    """Every (method, repeat) cell, grouped by the model and MMD^2 weight its
    method's rules give."""
    layer_sizes, split = cfg.model.resolve(starts[0].features.shape[1], starts[0].class_count)
    stacks: dict[tuple[ModelSpec, float], _Stack] = {}
    for method in cfg.methods:
        rules = METHODS[method]
        spec = ModelSpec(layer_sizes, split, cfg.model.bald_dropout if rules.bald_dropout else 0.0)
        mmd_weight = cfg.train.mmd_weight if rules.trains_with_mmd else 0.0
        group = stacks.setdefault((spec, mmd_weight), _Stack(spec, mmd_weight, []))
        group.cells.extend(
            _Cell(method, r, derive_int(cfg.master_seed, "pool", r), starts[r], [])
            for r in range(cfg.repeats)
        )
    return list(stacks.values())


def _run_round(
    group: _Stack, t: int, cfg: ExperimentConfig, progress=None, score_dir: Path | None = None
) -> None:
    """Round t of every cell of the stack: train them together, then one by
    one evaluate on the held-out test set and (except after the last round)
    acquire ``budget`` new labels.  A cell is evaluated and scored with its
    trajectory when ``acquisition.METHODS`` marks its method ``on_trajectory``,
    otherwise with the trajectory's last checkpoint, the final model."""
    started = time.monotonic()
    train = replace(cfg.train, mmd_weight=group.mmd_weight)
    seeds = [derive_int(cfg.master_seed, "train", c.method, c.repeat, t) for c in group.cells]
    try:
        trained = train_stack([c.pool for c in group.cells], group.spec, train, seeds)
    except TrainingDiverged as e:
        cells = ", ".join(f"{c.method} rep {c.repeat}" for c in group.cells)
        raise TrainingDiverged(f"round {t}, {cells}: {e}") from None
    train_s = time.monotonic() - started
    for c, (trajectory, _) in zip(group.cells, trained):
        if not METHODS[c.method].on_trajectory:
            trajectory = CheckpointSet(trajectory.snapshots[-1:])
        evaluated = time.monotonic()
        accuracy = evaluate(trajectory, c.pool)
        c.logs.append(RoundLog(c.method, c.repeat, c.repeat_seed, t, len(c.pool.labeled_idx), accuracy))
        if progress is not None:
            progress(
                f"[{c.method} rep {c.repeat} round {t}] labeled={len(c.pool.labeled_idx)} "
                f"accuracy={accuracy:.4f} ({train_s + time.monotonic() - evaluated:.1f}s)"
            )
        if t == cfg.rounds - 1:
            continue
        rng = derive_rng(cfg.master_seed, "acquire", c.method, c.repeat, t)
        result = acquire(c.method, c.pool, cfg.budget, trajectory, rng, bald_passes=cfg.model.bald_passes)
        if score_dir is not None:
            _dump_scores(score_dir, c.method, result, c.repeat, t)
        c.pool = label_points(c.pool, result.selected)


def _dump_scores(score_dir: Path, method: str, result: AcquisitionResult, repeat: int, t: int):
    """Per-round score trace: one row per scored point, selection flagged."""
    path = score_dir / f"scores_{method}_rep{repeat}_round{t}.csv"
    chosen = set(result.selected.tolist())
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["pool_index", "score", "selected"])
        if len(result.scored):
            for idx, s in zip(result.scored.tolist(), result.scores.tolist()):
                w.writerow([idx, s, int(idx in chosen)])
        else:  # random scores nothing: its picks, with an empty score
            w.writerows([idx, "", 1] for idx in result.selected.tolist())


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
    """Run every (method, repeat) cell in the calling thread and return rows
    sorted by (method, repeat, round).  ``jobs`` must be at least 1 and
    selects nothing otherwise; it is kept so callers that pass it still run.
    ``dataset`` is the config's already loaded dataset; without it the run
    loads its own.

    ``progress``, when given, gets one line per cell and round.  Its time
    field is the wall time of training the cell's stack plus evaluating the
    cell.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    if dataset is None:
        dataset = load_dataset(cfg)
    # each repeat's partition is drawn once, before any cell trains, so a pool
    # too small for the config, a feature split beyond the default hidden
    # layers or an output directory that cannot be made fails as a
    # ConfigError up front
    starts = [start_partition(dataset, cfg, r) for r in range(cfg.repeats)]
    # the cells need only their partitions, so with standardize on a dataset
    # loaded here is freed before any cell trains
    del dataset
    _check_budget(cfg, starts[0])
    stacks = _stacks(cfg, starts)
    score_dir = make_output_dir(cfg) if cfg.dump_scores else None
    for t in range(cfg.rounds):
        for group in stacks:
            _run_round(group, t, cfg, progress, score_dir)
    logs = [log for group in stacks for c in group.cells for log in c.logs]
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
