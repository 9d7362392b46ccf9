"""End-to-end acceptance gate: eight pinned criteria, one test per criterion.

Each test enforces its own wall-clock budget and frozen tolerances.  The
conftest hook prints a one-line PASS/FAIL verdict per criterion after the run.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from allab.acquisition import (
    bald_acquire,
    coreset_acquire,
    entropy_acquire,
    entropy_scores,
    select_top_k,
)
from allab.config import parse_config
from allab.dataio import load_csv, load_mnist
from allab.errors import FormatError
from allab.experiment import run_experiment
from allab.gradcheck import run_gradcheck
from allab.mmd import mmd2_biased
from allab.model import CheckpointSet, ModelSpec, forward, init_mlp, predict_proba, snapshot
from allab.pool import PoolState
from allab.seeding import derive_rng
from allab.trainer import TrainConfig, snapshot_steps, train_stack
from idx_files import write_idx_images, write_idx_labels

REPO = Path(__file__).resolve().parent.parent


# --- criterion 1: every analytic gradient survives a finite-difference audit ---


def test_criterion_1_gradients():
    t0 = time.monotonic()
    records, ok = run_gradcheck(seed=0)
    worst = max(r.rel_err for r in records)
    assert ok, f"gradient audit failed, worst rel err {worst:.3e}"
    assert worst <= 1e-5
    # >= 20 independently seeded instances per suite (instance id strips the
    # per-gradient suffix, e.g. "7/dW" -> "7")
    per_suite: dict[str, set] = {}
    for r in records:
        per_suite.setdefault(r.suite, set()).add(r.instance.rsplit("/", 1)[0])
    for suite in ("affine", "relu", "softmax_ce", "dropout", "mmd", "composite"):
        assert len(per_suite[suite]) >= 20, f"{suite}: {len(per_suite[suite])} instances"
    assert time.monotonic() - t0 < 30.0


# --- criterion 2: the two-sample statistic against closed forms ---


def test_criterion_2_mmd_oracle():
    t0 = time.monotonic()
    rng = derive_rng(11, "mmd-oracle")
    sigmas = (1.3,)

    for _ in range(20):  # identical samples: exactly zero up to accumulation noise
        A = rng.standard_normal((int(rng.integers(1, 9)), int(rng.integers(1, 6))))
        assert abs(mmd2_biased(A, A.copy(), sigmas)) <= 1e-12

    for _ in range(50):  # nonnegativity, symmetry, row-order invariance
        d = int(rng.integers(1, 6))
        A = rng.standard_normal((int(rng.integers(1, 10)), d))
        B = rng.standard_normal((int(rng.integers(1, 10)), d)) + 0.3
        v = mmd2_biased(A, B, sigmas)
        assert v >= -1e-12
        assert abs(v - mmd2_biased(B, A, sigmas)) <= 1e-12
        pa, pb = rng.permutation(len(A)), rng.permutation(len(B))
        assert abs(v - mmd2_biased(A[pa], B[pb], sigmas)) <= 1e-12

    # singletons separated by squared distance 2*sigma^2: statistic is
    # 2 - 2*exp(-1) for any bandwidth sigma
    for sigma in (1.0, 1.3, 0.25):
        z1 = np.zeros((1, 4))
        z2 = np.zeros((1, 4))
        z2[0, 0] = math.sqrt(2.0) * sigma
        got = mmd2_biased(z1, z2, (sigma,))
        assert abs(got - (2.0 - 2.0 * math.exp(-1.0))) <= 1e-12
    assert time.monotonic() - t0 < 5.0


# --- criterion 3: acquisition scores against brute-force references ---


def _toy_pool(rng: np.random.Generator, n_unlabeled: int, d: int, C: int) -> PoolState:
    n_labeled, n_test = 8, 5
    total = n_unlabeled + n_labeled + n_test
    X = rng.standard_normal((total, d))
    y = rng.integers(0, C, size=total).astype(np.int64)
    perm = rng.permutation(total)
    labeled = np.sort(perm[:n_labeled])
    test = np.sort(perm[n_labeled : n_labeled + n_test])
    unlabeled = np.setdiff1d(np.arange(total), np.concatenate([labeled, test]))
    return PoolState(X, y, C, labeled, unlabeled, test)


def _coreset_brute(params, pool: PoolState, budget: int) -> np.ndarray:
    """Literal greedy k-center: per step, recompute every candidate's min
    distance to the covered set and take the first maximum."""
    Z_u, _, _ = forward(params, pool.features[pool.unlabeled_idx])
    Z_l, _, _ = forward(params, pool.features[pool.labeled_idx])
    covered = [z for z in Z_l]
    chosen: list[int] = []
    avail = list(range(len(Z_u)))
    for _ in range(min(budget, len(Z_u))):
        best_pos, best_val = -1, -np.inf
        for pos in avail:
            if covered:
                dmin = min(float(np.linalg.norm(Z_u[pos] - c)) for c in covered)
            else:
                dmin = np.inf
            if dmin > best_val:
                best_pos, best_val = pos, dmin
        chosen.append(best_pos)
        avail.remove(best_pos)
        covered.append(Z_u[best_pos])
    return pool.unlabeled_idx[np.array(chosen)]


def _plain_entropy(P: np.ndarray) -> np.ndarray:
    return -(P * np.log(P)).sum(axis=1)  # strictly positive rows only


def test_criterion_3_acquisition_oracles():
    t0 = time.monotonic()
    rng = derive_rng(21, "acq-oracle")

    # (a) a one-checkpoint trajectory must reproduce plain entropy acquisition
    # index for index
    for _ in range(50):
        d, C = int(rng.integers(3, 7)), int(rng.integers(2, 6))
        pool = _toy_pool(rng, int(rng.integers(20, 81)), d, C)
        params = init_mlp(ModelSpec((d, 8, C), 1, 0.0), rng)
        budget = int(rng.integers(1, 11))
        a = entropy_acquire(CheckpointSet((snapshot(params),)), pool, budget)
        scores = entropy_scores(predict_proba(params, pool.features[pool.unlabeled_idx]))
        assert np.array_equal(a.selected, pool.unlabeled_idx[select_top_k(scores, budget)])
        assert np.array_equal(a.scores, scores)

    # (b) greedy k-center equals the brute-force per-step argmax
    for _ in range(50):
        d, C = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        pool = _toy_pool(rng, int(rng.integers(5, 38)), d, C)  # n_unlabeled <= 50
        params = init_mlp(ModelSpec((d, 6, C), 1, 0.0), rng)
        budget = int(rng.integers(1, min(6, len(pool.unlabeled_idx)) + 1))
        got = coreset_acquire(params, pool, budget)
        assert np.array_equal(got.selected, _coreset_brute(params, pool, budget))

    # (c) dropout-disagreement scores equal a replayed brute-force mutual
    # information and are nonnegative up to float noise
    for i in range(20):
        d, C = int(rng.integers(3, 7)), int(rng.integers(2, 6))
        pool = _toy_pool(rng, int(rng.integers(15, 40)), d, C)
        params = init_mlp(ModelSpec((d, 10, C), 1, 0.5), rng)
        passes, budget = 7, 5
        got = bald_acquire(params, pool, budget, passes, derive_rng(900 + i, "bald"))
        replay = derive_rng(900 + i, "bald")
        X = pool.features[pool.unlabeled_idx]
        stack = []
        for _ in range(passes):
            _, logits, _ = forward(params, X, train_mode=True, rng=replay)
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            stack.append(e / e.sum(axis=1, keepdims=True))
        stack = np.array(stack)
        want = _plain_entropy(stack.mean(axis=0)) - np.array(
            [_plain_entropy(stack[t]) for t in range(passes)]
        ).mean(axis=0)
        assert np.max(np.abs(got.scores - want)) <= 1e-12
        assert got.scores.min() >= -1e-9
        order = np.lexsort((np.arange(len(want)), -want))[:budget]
        assert np.array_equal(got.selected, pool.unlabeled_idx[order])

    # (d) entropy stays inside [0, ln C] on 10^4 random rows, extremes included
    C = 10
    P = rng.dirichlet(np.full(C, 0.5), size=10_000)
    P[0] = 0.0
    P[0, 3] = 1.0  # one-hot row: entropy 0
    P[1] = 1.0 / C  # uniform row: entropy ln C
    H = entropy_scores(P)
    assert H.min() >= 0.0
    assert H.max() <= math.log(C) + 1e-12
    assert H[0] == 0.0
    assert abs(H[1] - math.log(C)) <= 1e-12
    assert time.monotonic() - t0 < 30.0


# --- criterion 4: run-to-run and thread-count determinism of the CLI ---


def test_criterion_4_cli_determinism(tmp_path):
    t0 = time.monotonic()
    cfg = REPO / "configs" / "smoke.json"
    blobs = []
    for name, jobs in (("a1", "1"), ("b1", "1"), ("a4", "4"), ("b4", "4")):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "allab", "run", "--config", str(cfg),
             "--out", str(out), "--jobs", jobs],
            capture_output=True, text=True, cwd=REPO,
        )
        assert proc.returncode == 0, proc.stderr
        blobs.append((out / "results.csv").read_bytes())
    assert blobs[0] == blobs[1], "two --jobs 1 runs differ"
    assert blobs[2] == blobs[3], "two --jobs 4 runs differ"
    assert blobs[0] == blobs[2], "--jobs 1 and --jobs 4 differ"
    assert time.monotonic() - t0 < 120.0


# --- criterion 5: recovery from a class-biased initial pool on 4 blobs ---


def test_criterion_5_biased_start_recovery():
    t0 = time.monotonic()
    cfg = parse_config(str(REPO / "configs" / "bias4.json"))
    logs = run_experiment(cfg, jobs=4)
    last = max(l.round for l in logs)
    final = {(l.method, l.repeat): l.test_accuracy for l in logs if l.round == last}
    reps = sorted({l.repeat for l in logs})

    def mean_final(method: str) -> float:
        return float(np.mean([final[(method, r)] for r in reps]))

    assert mean_final("mpts") >= mean_final("random"), (
        mean_final("mpts"), mean_final("random"))
    wins = sum(final[("mpts", r)] >= final[("entropy", r)] for r in reps)
    assert wins >= 3, f"beats the entropy baseline in only {wins}/5 repeats"
    assert time.monotonic() - t0 < 300.0


# --- criterion 6: 784-d image pool at the pinned budget/architecture ---


def _make_image_pool(dirpath) -> dict:
    """Synthetic 28x28 ten-class pool written as IDX pairs.

    Each class is a sparse high-contrast pixel mask; most samples sit on a
    single template (cores), the rest interpolate between a random class pair
    with the class boundary displaced per pair, so boundary-band labels carry
    information a prototype rule cannot recover.
    """
    noise, pure_frac, k = 8, 0.83, 392
    a_lo, a_hi, tau_lo, tau_hi = 0.40, 0.60, 0.42, 0.58
    n_train, n_test = 6000, 2000
    rng = derive_rng(777, "standin9", int(noise), int(pure_frac * 100),
                     int(a_lo * 100), int(tau_lo * 100))
    M = np.zeros((10, 784))
    for c in range(10):
        M[c, rng.choice(784, size=k, replace=False)] = 255.0
    tau = rng.uniform(tau_lo, tau_hi, size=(10, 10))

    def gen(n):
        y1 = rng.integers(0, 10, n)
        y2 = (y1 + rng.integers(1, 10, n)) % 10
        a_ = np.minimum(y1, y2)
        b_ = np.maximum(y1, y2)
        is_core = rng.uniform(size=n) < pure_frac
        alpha = rng.uniform(a_lo, a_hi, n)
        lab = np.where(alpha < tau[a_, b_], a_, b_)
        lab = np.where(is_core, y1, lab)
        w = np.where(is_core, 0.0, alpha)[:, None]
        X = (1 - w) * M[np.where(is_core, y1, a_)] + w * M[b_] \
            + noise * rng.standard_normal((n, 784))
        return np.clip(np.rint(X), 0, 255).astype(np.uint8).reshape(n, 28, 28), lab.astype(np.uint8)

    Xtr, ytr = gen(n_train)
    Xte, yte = gen(n_test)
    paths = {name: os.path.join(dirpath, name) for name in ("tri", "trl", "tei", "tel")}
    write_idx_images(paths["tri"], Xtr)
    write_idx_labels(paths["trl"], ytr)
    write_idx_images(paths["tei"], Xte)
    write_idx_labels(paths["tel"], yte)
    return paths


def test_criterion_6_image_benchmark(tmp_path):
    t0 = time.monotonic()
    paths = _make_image_pool(tmp_path)
    doc = {
        "methods": ["mpts", "random"],
        "dataset": {"kind": "mnist", "images_path": paths["tri"], "labels_path": paths["trl"],
                    "test_images_path": paths["tei"], "test_labels_path": paths["tel"],
                    "pool_size": 5000, "standardize": "pool"},
        "initial_count": 100, "budget": 100, "rounds": 5, "repeats": 5,
        "train": {"epochs": 30, "batch_size": 64, "base_lr": 1e-3, "lambda": 0.1,
                  "n_checkpoints": 2},
        "master_seed": 0,
    }
    cfg = parse_config(doc)
    # the pinned architecture: 784 inputs resolve to [784, 128, 10]
    assert cfg.model.resolve(784, 10) == ((784, 128, 10), 1)
    logs = run_experiment(cfg, jobs=4)

    acc: dict[str, dict[int, list[float]]] = {}
    for l in logs:
        acc.setdefault(l.method, {}).setdefault(l.round, []).append(l.test_accuracy)
    for method in ("mpts", "random"):
        means = [float(np.mean(acc[method][t])) for t in range(5)]
        gains = [b - a for a, b in zip(means, means[1:])]
        assert all(g > 0 for g in gains), f"{method} not strictly increasing: {means}"
    final_gap = float(np.mean(acc["mpts"][4])) - float(np.mean(acc["random"][4]))
    assert final_gap >= 0.0, f"final-round means: gap {final_gap:+.4f}"
    assert time.monotonic() - t0 < 1200.0


# --- criterion 7: checkpoint schedule and zero-weight equivalence ---


def _ce_only_reference(pool: PoolState, layer_sizes, cfg: TrainConfig, seed: int):
    """Plain-CE training loop written from the documented contract, with no
    regularizer machinery at all.  Returns (layers, snapshots, snapshot steps)."""
    labeled = np.asarray(pool.labeled_idx)
    both = np.sort(np.concatenate([labeled, np.asarray(pool.unlabeled_idx)]))
    r_init = derive_rng(seed, "init")
    layers = []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        layers.append((r_init.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in),
                       np.zeros(fan_out)))
    r_batch = derive_rng(seed, "batch")

    spe = max(1, -(-len(labeled) // cfg.batch_size))
    half = (cfg.epochs // 2) * spe
    total = cfg.epochs * spe
    base_len, extra = divmod(total - half, cfg.n_checkpoints)
    bounds, start = [], half
    for i in range(cfg.n_checkpoints):
        length = base_len + (1 if i < extra else 0)
        bounds.append((start, start + length))
        start += length
    snap_at = {end - 1 for _, end in bounds}
    floor = cfg.base_lr * cfg.lr_floor_ratio

    n_layers = len(layers)
    snaps, snap_steps = [], []
    for step in range(total):
        if step < half:
            lr = cfg.base_lr
        else:
            for s0, s1 in bounds:
                if s0 <= step < s1:
                    length = s1 - s0
                    if length == 1:
                        lr = floor
                    else:
                        lr = cfg.base_lr + (floor - cfg.base_lr) * ((step - s0) / (length - 1))
                    break
        idx_l = r_batch.choice(labeled, size=cfg.batch_size,
                               replace=len(labeled) < cfg.batch_size)
        r_batch.choice(both, size=cfg.batch_size, replace=len(both) < cfg.batch_size)
        # ^ the contract draws a pool batch every step even when it is unused

        a = np.asarray(pool.features[idx_l], dtype=np.float64)
        inputs, pres = [], []
        for li, (W, b) in enumerate(layers):
            inputs.append(a)
            pre = a @ W + b
            pres.append(pre)
            if li < n_layers - 1:
                a = np.where(pre > 0, pre, 0.0)
        logits = pres[-1]
        n = logits.shape[0]
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_norm = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        probs = np.exp(shifted - log_norm)
        dlogits = probs.copy()
        dlogits[np.arange(n), pool.labels[idx_l]] -= 1.0
        dlogits /= n

        upstream = dlogits
        grads = [None] * n_layers
        for li in range(n_layers - 1, -1, -1):
            if li < n_layers - 1:
                upstream = np.where(pres[li] > 0, upstream, 0.0)
            grads[li] = (inputs[li].T @ upstream, upstream.sum(axis=0))
            upstream = upstream @ layers[li][0].T
        for (W, b), (dW, db) in zip(layers, grads):
            W -= lr * (dW + cfg.weight_decay * W)
            b -= lr * (db + cfg.weight_decay * b)
        if step in snap_at:
            snaps.append([(W.copy(), b.copy()) for W, b in layers])
            snap_steps.append(step)
    return layers, snaps, snap_steps


def test_criterion_7_checkpoint_schedule():
    t0 = time.monotonic()
    rng = derive_rng(31, "sched")
    d, C = 6, 3
    X = rng.standard_normal((60, d))
    y = rng.integers(0, C, size=60).astype(np.int64)
    pool = PoolState(X, y, C, np.arange(40), np.arange(40, 60),
                     np.empty(0, dtype=np.int64))

    cfg = TrainConfig(epochs=100, base_lr=0.005, batch_size=10, mmd_weight=0.0,
                      weight_decay=1e-4, n_checkpoints=5)
    # 40 labeled / batch 10 -> 4 steps per epoch, 400 total; the second half
    # splits into 5 cycles of 40 with a snapshot after each cycle's last step
    assert snapshot_steps(100, 4, 5) == [239, 279, 319, 359, 399]

    traj, _ = train_stack([pool], ModelSpec((d, 12, C), split_index=1), cfg, [3])[0]
    final = traj.snapshots[-1]
    assert len(traj) == 5

    ref_layers, ref_snaps, ref_steps = _ce_only_reference(pool, (d, 12, C), cfg, 3)
    assert ref_steps == [239, 279, 319, 359, 399]
    for snap, ref in zip(traj.snapshots, ref_snaps):
        for (W, b), (Wr, br) in zip(snap.layers, ref):
            assert np.array_equal(W, Wr) and np.array_equal(b, br), \
                "zero-weight run deviates from the plain-CE reference"
    for (W, b), (Wr, br) in zip(final.layers, ref_layers):
        assert np.array_equal(W, Wr) and np.array_equal(b, br)
    assert time.monotonic() - t0 < 60.0


# --- criterion 8: data formats round-trip and fail with positions ---


def test_criterion_8_data_formats(tmp_path):
    t0 = time.monotonic()
    rng = derive_rng(41, "formats")
    pixels = rng.integers(0, 256, size=(7, 28, 28)).astype(np.uint8)
    labels = rng.integers(0, 10, size=7).astype(np.uint8)
    img_a, lab_a = tmp_path / "a-images.idx", tmp_path / "a-labels.idx"
    write_idx_images(img_a, pixels)
    write_idx_labels(lab_a, labels)

    ds = load_mnist(img_a, lab_a)
    assert np.array_equal(ds.features, pixels.reshape(7, 784) / 255.0)
    assert np.array_equal(ds.labels, labels)
    # byte-exact round trip through parse + re-serialize
    img_b, lab_b = tmp_path / "b-images.idx", tmp_path / "b-labels.idx"
    write_idx_images(img_b, np.rint(ds.features * 255.0).astype(np.uint8).reshape(7, 28, 28))
    write_idx_labels(lab_b, ds.labels.astype(np.uint8))
    assert img_b.read_bytes() == img_a.read_bytes()
    assert lab_b.read_bytes() == lab_a.read_bytes()

    bad_magic = tmp_path / "magic.idx"
    raw = bytearray(img_a.read_bytes())
    raw[2] = 0xFF
    bad_magic.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=r"byte 0: bad magic"):
        load_mnist(bad_magic, lab_a)

    truncated = tmp_path / "trunc.idx"
    truncated.write_bytes(img_a.read_bytes()[:-3])
    with pytest.raises(FormatError, match=r"expected \d+ bytes"):
        load_mnist(truncated, lab_a)

    short_labels = tmp_path / "short-labels.idx"
    write_idx_labels(short_labels, labels[:6])
    with pytest.raises(FormatError, match=r"label count 6 does not match image count 7"):
        load_mnist(img_a, short_labels)

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b,label\n1,2,0\n3,4,1\n5,6\n")
    with pytest.raises(FormatError, match=r"row 4: has 2 cells, header has 3"):
        load_csv(ragged)

    alpha = tmp_path / "alpha.csv"
    alpha.write_text("a,b,label\n1,x,0\n")
    with pytest.raises(FormatError, match=r"row 2, column 2: non-numeric feature cell 'x'"):
        load_csv(alpha)
    assert time.monotonic() - t0 < 30.0
