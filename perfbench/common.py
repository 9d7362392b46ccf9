"""Helpers shared by the benchmark driver, the worker and the self-tests."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def import_allab():
    """Import allab from this checkout's ``src``, never from an installed copy."""
    if not (SRC / "allab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no allab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import allab

    if Path(allab.__file__).resolve().parent != SRC / "allab":
        raise SystemExit(f"perfbench: imported allab from {allab.__file__}, not from {SRC}")
    return allab


def check_results(path, config: dict) -> tuple[float, str]:
    """Validate a results CSV against its config; return (final_accuracy, sha256).

    Raises ValueError naming the first problem.  final_accuracy is the mean
    last-round test accuracy of the config's first method over repeats.
    """
    raw = Path(path).read_bytes()
    rows = list(csv.reader(io.StringIO(raw.decode("utf-8"))))
    header = ["method", "repeat", "round", "labeled_count", "accuracy", "wall_time_s"]
    if not rows or rows[0] != header:
        raise ValueError(f"{path}: bad header {rows[:1]}")
    methods, repeats, rounds = config["methods"], config["repeats"], config["rounds"]
    expected = [(m, r, t) for m in sorted(methods) for r in range(repeats) for t in range(rounds)]
    body = rows[1:]
    if len(body) != len(expected):
        raise ValueError(f"{path}: {len(body)} rows, expected {len(expected)}")
    final = []
    for lineno, (row, (m, r, t)) in enumerate(zip(body, expected), start=2):
        if len(row) != len(header):
            raise ValueError(f"{path}: row {lineno}: {len(row)} fields")
        try:
            key = (row[0], int(row[1]), int(row[2]))
            labeled, accuracy, wall = int(row[3]), float(row[4]), float(row[5])
        except ValueError as e:
            raise ValueError(f"{path}: row {lineno}: {e}") from None
        if key != (m, r, t):
            raise ValueError(f"{path}: row {lineno}: got {key}, expected {(m, r, t)}")
        if labeled != config["initial_count"] + t * config["budget"]:
            raise ValueError(f"{path}: row {lineno}: labeled_count {labeled}")
        if not 0.0 <= accuracy <= 1.0 or wall != 0.0:
            raise ValueError(f"{path}: row {lineno}: accuracy {accuracy}, wall {wall}")
        if m == methods[0] and t == rounds - 1:
            final.append(accuracy)
    return float(np.mean(final)), hashlib.sha256(raw).hexdigest()


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(jobs: dict) -> dict:
    """What the numbers depend on besides the code: cores, libraries, thread settings."""
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": _git_commit(),
        "jobs": jobs,
    }


def load_golden() -> dict:
    return json.loads((BENCH_DIR / "golden.json").read_text())
