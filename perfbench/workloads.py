"""Workload definitions and seeded input generation.

Each workload is an allab experiment config plus the ``--jobs`` value it runs
at.  Inputs are a pure function of the workload and the benchmark seed: the
seed becomes the config's ``master_seed`` and, for the image workload, also
seeds the IDX stand-in generator.  Configs and data files are written into a
caller-supplied directory; generating them is not part of any timed region.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = ("image784", "bias4-par", "baselines5")


def jobs_for(workload: str) -> int:
    return len(os.sched_getaffinity(0)) if workload == "bias4-par" else 1


def _image_config(seed: int, paths: dict) -> dict:
    return {
        "methods": ["mpts", "random"],
        "dataset": {
            "kind": "mnist",
            "images_path": paths["train_images"],
            "labels_path": paths["train_labels"],
            "test_images_path": paths["test_images"],
            "test_labels_path": paths["test_labels"],
            "pool_size": 5000,
            "standardize": "pool",
        },
        "initial_count": 100,
        "budget": 100,
        "rounds": 5,
        "repeats": 1,
        "train": {"epochs": 30, "batch_size": 64, "base_lr": 1e-3, "lambda": 0.1,
                  "n_checkpoints": 2},
        "master_seed": seed,
    }


def _bias4_config(seed: int) -> dict:
    # the shipped biased-start config, copied so later edits to the repo's
    # configs cannot silently change the workload
    return {
        "methods": ["mpts", "random", "entropy"],
        "dataset": {"kind": "synthetic", "class_count": 4, "per_class": 250, "dim": 8,
                    "separation": 6.0},
        "initial_count": 20,
        "budget": 20,
        "rounds": 5,
        "repeats": 5,
        "bias_classes": [0, 1],
        "train": {"epochs": 30, "batch_size": 32, "base_lr": 0.003, "lambda": 0.1,
                  "n_checkpoints": 5},
        "master_seed": seed,
    }


def _baselines_config(seed: int) -> dict:
    return {
        "methods": ["mpts", "random", "entropy", "bald", "coreset"],
        "dataset": {"kind": "synthetic", "class_count": 10, "per_class": 600, "dim": 32,
                    "separation": 4.0},
        "initial_count": 50,
        "budget": 50,
        "rounds": 4,
        "repeats": 1,
        # base_lr 0.01 rather than the default 1e-3: at 1e-3 twenty epochs leave
        # the net so undertrained that final accuracy swings 0.39-0.57 by seed
        "train": {"epochs": 20, "batch_size": 64, "base_lr": 0.01, "lambda": 0.1,
                  "n_checkpoints": 5},
        "model": {"bald_passes": 20},
        "master_seed": seed,
    }


def make_inputs(workload: str, seed: int, workdir: Path) -> Path:
    """Write the workload's config (and data files) under ``workdir``; return the config path."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "image784":
        doc = _image_config(seed, write_image_pool(workdir, seed))
    elif workload == "bias4-par":
        doc = _bias4_config(seed)
    elif workload == "baselines5":
        doc = _baselines_config(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    doc["output_dir"] = str(workdir / "out")
    path = workdir / "config.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def _write_idx_images(path: Path, pixels: np.ndarray) -> None:
    n, rows, cols = pixels.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        f.write(np.ascontiguousarray(pixels, dtype=np.uint8).tobytes())


def _write_idx_labels(path: Path, labels: np.ndarray) -> None:
    with open(path, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, len(labels)))
        f.write(np.ascontiguousarray(labels, dtype=np.uint8).tobytes())


def write_image_pool(workdir: Path, seed: int, n_train: int = 6000, n_test: int = 2000) -> dict:
    """Synthetic 28x28 ten-class pool written as IDX train/test pairs.

    The same recipe as the repository's 784-d image acceptance pool: each
    class is a sparse high-contrast pixel mask; most samples sit on a single
    template, the rest interpolate between a random class pair with a per-pair
    label boundary.  Only the generator seed differs.
    """
    noise, pure_frac, k = 8, 0.83, 392
    a_lo, a_hi, tau_lo, tau_hi = 0.40, 0.60, 0.42, 0.58
    rng = np.random.default_rng([seed, 784])
    masks = np.zeros((10, 784))
    for c in range(10):
        masks[c, rng.choice(784, size=k, replace=False)] = 255.0
    tau = rng.uniform(tau_lo, tau_hi, size=(10, 10))

    def gen(n):
        y1 = rng.integers(0, 10, n)
        y2 = (y1 + rng.integers(1, 10, n)) % 10
        lo, hi = np.minimum(y1, y2), np.maximum(y1, y2)
        is_core = rng.uniform(size=n) < pure_frac
        alpha = rng.uniform(a_lo, a_hi, n)
        label = np.where(is_core, y1, np.where(alpha < tau[lo, hi], lo, hi))
        w = np.where(is_core, 0.0, alpha)[:, None]
        X = (1 - w) * masks[np.where(is_core, y1, lo)] + w * masks[hi]
        X += noise * rng.standard_normal((n, 784))
        return np.clip(np.rint(X), 0, 255).astype(np.uint8).reshape(n, 28, 28), label

    paths = {name: str(workdir / f"{name}.idx")
             for name in ("train_images", "train_labels", "test_images", "test_labels")}
    X, y = gen(n_train)
    _write_idx_images(Path(paths["train_images"]), X)
    _write_idx_labels(Path(paths["train_labels"]), y)
    X, y = gen(n_test)
    _write_idx_images(Path(paths["test_images"]), X)
    _write_idx_labels(Path(paths["test_labels"]), y)
    return paths
