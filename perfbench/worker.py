"""One measured, untraced run of allab in a fresh process.

    python3 perfbench/worker.py CONFIG JOBS RESULTS_CSV

Times ``parse_config`` + ``load_dataset`` several times (set-up), then one
``run_experiment`` call, writes the rows with ``write_results_csv`` and prints
one JSON line with the timings and this process's peak resident memory.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

from common import import_allab

# Set-up is repeated for at least half a second and its median reported: on
# the synthetic workloads one set-up takes ~0.3 ms and single timings wander
# by 2x with the machine's state over a fraction of a second.
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 0.5


def _hwm_kib() -> int:
    """This process's peak resident memory (VmHWM), in KiB."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    config_path, jobs, results_csv = argv[0], int(argv[1]), argv[2]
    import_allab()
    from allab.config import parse_config
    from allab.experiment import load_dataset, run_experiment, write_results_csv

    setups = []
    started = time.perf_counter()
    while len(setups) < SETUP_MIN_REPEATS or time.perf_counter() - started < SETUP_MIN_SECONDS:
        t0 = time.perf_counter()
        cfg = parse_config(config_path)
        dataset = load_dataset(cfg)
        setups.append(time.perf_counter() - t0)
        del dataset

    t0 = time.perf_counter()
    logs = run_experiment(cfg, jobs=jobs)
    wall = time.perf_counter() - t0
    write_results_csv(logs, results_csv)
    print(json.dumps({"setup_s": statistics.median(setups), "wall_s": wall, "hwm_kib": _hwm_kib()}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
