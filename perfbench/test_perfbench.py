"""Self-tests of the benchmark's tracer and output check.

    python3 -m pytest perfbench -q

They use a tiny experiment, not the benchmark workloads, so they take seconds.
"""

from __future__ import annotations

import os
import subprocess
import sys

from common import import_allab

import_allab()

import allab.model  # noqa: E402
import allab.trainer  # noqa: E402
from allab.config import parse_config  # noqa: E402
from allab.experiment import run_experiment, write_results_csv  # noqa: E402
from run import RunChecker, _tree_rss_kib  # noqa: E402
from tracing import COUNT_METRICS, TARGETS, Tracer, allab_bindings, layer_metrics  # noqa: E402

TINY = {
    "methods": ["mpts", "bald"],
    "dataset": {"kind": "synthetic", "class_count": 3, "per_class": 40, "dim": 4,
                "separation": 5.0},
    "initial_count": 10,
    "budget": 10,
    "rounds": 2,
    "repeats": 1,
    "train": {"epochs": 4, "batch_size": 8, "lambda": 0.1, "n_checkpoints": 2},
    "model": {"hidden": [8, 8], "bald_passes": 3},
    "master_seed": 3,
}


def _traced_run(targets=TARGETS):
    with Tracer(targets) as tracer:
        logs = run_experiment(parse_config(TINY), jobs=1)
    return tracer, logs


def test_tracer_wraps_every_binding_and_restores_originals():
    before = allab_bindings()
    original = allab.model.forward
    with Tracer() as tracer:
        assert allab.trainer.forward is not original  # imported copies are wrapped too
        run_experiment(parse_config(TINY), jobs=1)
    assert allab_bindings() == before
    assert allab.model.forward is original
    assert not tracer.absent
    assert any(span[0] == "model.forward" for span in tracer.spans)


def test_two_traced_runs_give_identical_counts():
    first = layer_metrics(_traced_run()[0].spans)
    second = layer_metrics(_traced_run()[0].spans)
    assert {m: first[m] for m in COUNT_METRICS} == {m: second[m] for m in COUNT_METRICS}
    assert first["trainer.steps"] > 0
    assert first["mmd.useful_ratio"] == 0.5  # mpts trains with lambda, bald does not


def test_removed_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(allab.model, "restore")
    targets = {**TARGETS, "model.renamed_away": None}
    tracer, logs = _traced_run(targets)
    assert logs
    assert set(tracer.absent) == {"model.restore", "model.renamed_away"}
    metrics = layer_metrics(tracer.spans)
    assert metrics["model.restore.calls"] == 0


def _write_tiny_results(path):
    write_results_csv(run_experiment(parse_config(TINY), jobs=1), path)
    return bytearray(path.read_bytes())


def test_corrupted_results_csv_counts_as_failure(tmp_path):
    results = tmp_path / "results.csv"
    raw = _write_tiny_results(results)
    checker = RunChecker(TINY, expected_digest=None)
    assert checker.check(results) is not None

    # change the last digit of the first accuracy: still well-formed, wrong digest
    lines = raw.split(b"\r\n")
    fields = lines[1].split(b",")
    fields[4] = fields[4][:-1] + str((int(fields[4][-1:]) + 1) % 10).encode()
    lines[1] = b",".join(fields)
    results.write_bytes(b"\r\n".join(lines))
    assert checker.check(results) is None

    results.write_bytes(bytes(raw[: len(raw) // 2]))
    assert checker.check(results) is None
    assert (checker.attempted, checker.failed) == (3, 2)


def test_golden_digest_mismatch_counts_as_failure(tmp_path):
    results = tmp_path / "results.csv"
    _write_tiny_results(results)
    checker = RunChecker(TINY, expected_digest="0" * 64)
    assert checker.check(results) is None
    assert checker.failed == 1


def test_tree_rss_counts_child_processes():
    own = _tree_rss_kib(os.getpid())
    child = subprocess.Popen(
        [sys.executable, "-c",
         "import sys, time; b = b'x' * (64 << 20); print('ready', flush=True); time.sleep(30)"],
        stdout=subprocess.PIPE, text=True)
    try:
        assert child.stdout.readline().strip() == "ready"
        assert _tree_rss_kib(os.getpid()) - own > 60 << 10
    finally:
        child.kill()
        child.wait(timeout=10)
    assert child.poll() is not None
