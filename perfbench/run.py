"""allab benchmark: end-to-end runs in fresh processes, or one traced process.

    python3 perfbench/run.py --workload image784 --seed 0 --seconds 25 --trace 0

``--trace 0`` repeats measured runs, each in a fresh ``worker.py`` process,
until ``--seconds`` have passed, and reports medians of ``wall_s``,
``setup_s``, ``peak_rss_mb`` and ``final_accuracy``.  ``--trace 1`` alternates
untraced and traced ``run_experiment`` calls at ``jobs=1`` in this process
for the same time and reports the per-layer metrics of ``tracing.py``.
``--workload all`` runs every workload in turn and prefixes each metric with
its workload's name.

Every run's ``results.csv`` is checked; at the golden seed its sha256 must
match ``golden.json``, and at any seed all runs must agree.  The last line
of output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from common import BENCH_DIR, ROOT, check_results, environment, import_allab, load_golden
from workloads import WORKLOADS, jobs_for, make_inputs

MIN_RUNS = 2
GIVE_UP_S = 150.0  # start no run after this, and stop a worker still running then
RSS_SAMPLE_S = 0.1
PAGE_KIB = os.sysconf("SC_PAGE_SIZE") // 1024
OUT_DIR = ROOT / ".perfbench_out"
TMP_ROOT = ROOT / ".perfbench_tmp"


class RunChecker:
    """Checks each run's results.csv and pins every digest in the set to one value."""

    def __init__(self, config: dict, expected_digest: str | None):
        self.config = config
        self.digest = expected_digest
        self.attempted = 0
        self.failed = 0

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"run failed: {reason}", flush=True)

    def check(self, results_csv) -> float | None:
        """Final accuracy of a passing run, or None (counted as failed)."""
        try:
            accuracy, digest = check_results(results_csv, self.config)
            if self.digest is None:
                self.digest = digest
            if digest != self.digest:
                raise ValueError(f"results.csv sha256 {digest} != {self.digest}")
        except (OSError, ValueError) as e:
            self.fail(f"check: {e}")
            return None
        self.attempted += 1
        return accuracy


def _tree_rss_kib(root: int) -> int:
    """Resident memory of process ``root`` plus all its live descendants, from /proc."""
    parent_of, rss = {}, {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", "rb") as f:
                    stat = f.read()
            except OSError:  # exited while we looked
                continue
            fields = stat[stat.rindex(b")") + 2:].split()  # fields from "state" on
            parent_of[int(entry)] = int(fields[1])
            rss[int(entry)] = int(fields[21]) * PAGE_KIB

    def in_tree(pid):
        for _ in range(64):
            if pid == root:
                return True
            if pid not in parent_of:
                return False
            pid = parent_of[pid]
        return False

    return sum(kib for pid, kib in rss.items() if in_tree(pid))


def _measured_run(config_path: Path, jobs: int, timeout: float) -> dict:
    """One worker process; returns its timings and peak RSS, or raises RuntimeError.

    Peak RSS is the larger of the worker's own high-water mark and the largest
    sampled sum over the worker and its descendants, so processes the program
    starts are counted too.
    """
    workdir = config_path.parent
    results = workdir / "out" / "results.csv"
    results.parent.mkdir(exist_ok=True)
    results.unlink(missing_ok=True)
    tree_peak_kib = 0
    with open(workdir / "worker.out", "w+") as out, open(workdir / "worker.err", "w+") as err:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "worker.py"), str(config_path), str(jobs),
             str(results)],
            stdout=out, stderr=err, cwd=ROOT)
        started = time.monotonic()
        try:
            while proc.poll() is None:
                if time.monotonic() - started > timeout:
                    raise RuntimeError(f"worker still running after {timeout:.0f}s")
                tree_peak_kib = max(tree_peak_kib, _tree_rss_kib(proc.pid))
                time.sleep(RSS_SAMPLE_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        out.seek(0)
        err.seek(0)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}: {err.read()[-2000:]}")
        timings = json.loads(out.read().strip().splitlines()[-1])
    timings["peak_rss_mb"] = max(timings.pop("hwm_kib"), tree_peak_kib) / 1024.0
    timings["results"] = results
    return timings


def run_untraced(workload: str, config_path: Path, checker: RunChecker, seconds: float,
                 give_up: float) -> dict:
    jobs = jobs_for(workload)
    deadline = time.monotonic() + seconds
    samples = []
    while (checker.attempted < MIN_RUNS or time.monotonic() < deadline) \
            and time.monotonic() < give_up:
        try:
            run = _measured_run(config_path, jobs, give_up - time.monotonic())
        except RuntimeError as e:
            checker.fail(str(e))
            continue
        run["final_accuracy"] = checker.check(run["results"])
        print(f"run {checker.attempted}: wall {run['wall_s']:.3f}s setup {run['setup_s']:.6f}s "
              f"rss {run['peak_rss_mb']:.1f}MB accuracy {run['final_accuracy']}", flush=True)
        if run["final_accuracy"] is not None:
            samples.append(run)
    units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "final_accuracy": "fraction"}
    return {name: (statistics.median(r[name] for r in samples) if samples else 0.0, unit)
            for name, unit in units.items()}


def run_traced(config_path: Path, checker: RunChecker, seconds: float, give_up: float,
               spans_path: Path) -> dict:
    """Alternate untraced and traced in-process runs; per-layer metrics from the traced ones."""
    import allab.experiment as experiment
    from allab.config import parse_config
    from tracing import COUNT_METRICS, LAYER_METRICS, Tracer, allab_bindings, layer_metrics

    results = config_path.parent / "out" / "results.csv"
    results.parent.mkdir(exist_ok=True)

    def timed_run() -> float | None:
        """Wall time of one checked run_experiment call, or None if it failed."""
        try:
            cfg = parse_config(str(config_path))
            t0 = time.perf_counter()
            logs = experiment.run_experiment(cfg, jobs=1)
            wall = time.perf_counter() - t0
            experiment.write_results_csv(logs, results)
        except Exception as e:  # a broken program is a failed run, not a crashed benchmark
            checker.fail(f"{type(e).__name__}: {e}")
            return None
        return wall if checker.check(results) is not None else None

    untraced, traced, absent = [], [], []
    deadline = time.monotonic() + seconds
    while (checker.attempted < 2 * MIN_RUNS or time.monotonic() < deadline) \
            and time.monotonic() < give_up:
        wall = timed_run()
        if wall is not None:
            untraced.append(wall)
        before = allab_bindings()
        with Tracer() as tracer:
            wall = timed_run()
        if allab_bindings() != before:
            raise RuntimeError("tracer left wrapped functions behind")
        if wall is None:
            continue
        if not traced:
            tracer.write(spans_path)
        absent = tracer.absent
        traced.append((wall, layer_metrics(tracer.spans)))
        print(f"pair {len(traced)}: untraced {untraced[-1] if untraced else float('nan'):.3f}s "
              f"traced {wall:.3f}s", flush=True)

    if absent:
        print(f"absent (reported as 0): {', '.join(absent)}", flush=True)
    differing = [name for name in COUNT_METRICS if len({m[name] for _, m in traced}) > 1]
    if differing:
        checker.failed += 1  # the set is inconsistent: charge one of its runs
        print(f"counts differ between traced runs: {', '.join(differing)}", flush=True)
    metrics = {name: (statistics.median(m[name] for _, m in traced) if traced else 0.0, unit)
               for name, unit in LAYER_METRICS.items() if name != "trace.overhead_s"}
    overhead = (statistics.median(w for w, _ in traced) - statistics.median(untraced)
                if traced and untraced else 0.0)
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """Generate one workload's inputs, run it, print its report; return (checker, metrics)."""
    give_up = time.monotonic() + GIVE_UP_S
    golden = load_golden()
    expected = golden["sha256"].get(workload) if seed == golden["seed"] else None
    TMP_ROOT.mkdir(exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=TMP_ROOT) as tmp:
        config_path = make_inputs(workload, seed, Path(tmp))
        checker = RunChecker(json.loads(config_path.read_text()), expected)
        if trace:
            spans = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
            metrics = run_traced(config_path, checker, seconds, give_up, spans)
            print(f"spans written to {spans.relative_to(ROOT)}", flush=True)
        else:
            metrics = run_untraced(workload, config_path, checker, seconds, give_up)

    print(f"workload {workload} seed {seed} trace {trace} jobs {1 if trace else jobs_for(workload)} "
          f"digest {checker.digest} error_share {checker.failed / max(checker.attempted, 1):.3f} "
          f"({checker.failed}/{checker.attempted})")
    for name, (value, unit) in metrics.items():
        computed = " (computed from array shapes)" if unit in ("rows", "mflop") else ""
        print(f"{name:40s} {value:.6g} {unit}{computed}")
    return checker, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_allab()
    print("env " + json.dumps(environment({w: jobs_for(w) for w in WORKLOADS}), sort_keys=True),
          flush=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for workload in workloads:
        checker, values = run_workload(workload, args.seed, args.seconds, args.trace)
        attempted += checker.attempted
        failed += checker.failed
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update({prefix + name: {"value": value, "unit": unit}
                        for name, (value, unit) in values.items()})
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
