"""Harness behavior: pairing, determinism, parallel equivalence, curve math."""

from dataclasses import replace

import numpy as np
import pytest

import allab.experiment as experiment
from allab.acquisition import METHODS
from allab.config import parse_config
from allab.errors import ConfigError, FormatError
from allab.seeding import derive_int
from allab.experiment import (
    RESULTS_HEADER,
    RoundLog,
    compute_curves,
    load_dataset,
    read_results_csv,
    run_experiment,
    start_partition,
    write_curves_csv,
    write_results_csv,
    write_results_json,
)


def small_doc():
    return {
        "methods": ["random"],
        "dataset": {
            "kind": "synthetic",
            "class_count": 2,
            "per_class": 40,
            "dim": 2,
            "separation": 8.0,
        },
        "initial_count": 10,
        "budget": 5,
        "rounds": 3,
        "repeats": 2,
        "train": {"epochs": 2, "batch_size": 8, "n_checkpoints": 1, "base_lr": 0.1},
        "model": {"hidden": [8]},
    }


# ---- dataset / pool plumbing ----------------------------------------------

def test_load_dataset_is_seed_deterministic():
    cfg = parse_config(small_doc())
    a = load_dataset(cfg)
    b = load_dataset(cfg)
    assert np.array_equal(a.features, b.features)
    other = load_dataset(parse_config({**small_doc(), "master_seed": 1}))
    assert not np.array_equal(a.features, other.features)


def test_build_pool_standardize_modes():
    doc = small_doc()
    cfg = parse_config(doc)
    dataset = load_dataset(cfg)
    raw = dataset.features.copy()

    plain = start_partition(dataset, cfg, 0)
    assert np.array_equal(plain.features, dataset.features)

    pooled = start_partition(dataset, replace(cfg, dataset=replace(cfg.dataset, standardize="pool")), 0)
    rows = np.sort(np.concatenate([pooled.labeled_idx, pooled.unlabeled_idx]))
    assert np.abs(pooled.features[rows].mean(axis=0)).max() <= 1e-12
    assert np.abs(pooled.features[rows].std(axis=0) - 1.0).max() <= 1e-12
    # partition identical to the unstandardized build (same rng consumption)
    assert np.array_equal(pooled.labeled_idx, plain.labeled_idx)

    lab = start_partition(dataset, replace(cfg, dataset=replace(cfg.dataset, standardize="labeled")), 0)
    assert np.abs(lab.features[lab.labeled_idx].mean(axis=0)).max() <= 1e-12
    assert np.abs(lab.features[lab.labeled_idx].std(axis=0) - 1.0).max() <= 1e-12
    # the dataset's own features are left as they were
    assert np.array_equal(dataset.features, raw)


def test_starting_partition_drawn_once_per_repeat(monkeypatch):
    calls = []

    def counting_init_pool(*args, **kwargs):
        calls.append(1)
        return real_init_pool(*args, **kwargs)

    real_init_pool = experiment.init_pool
    monkeypatch.setattr(experiment, "init_pool", counting_init_pool)
    cfg = parse_config({**small_doc(), "methods": ["random", "entropy", "coreset"], "rounds": 1})
    logs = run_experiment(cfg)
    assert len(calls) == cfg.repeats
    assert len(logs) == 3 * cfg.repeats


def test_standardized_once_per_repeat(monkeypatch):
    calls = []

    def counting_standardize(*args, **kwargs):
        calls.append(1)
        return real_standardize(*args, **kwargs)

    real_standardize = experiment.standardize
    monkeypatch.setattr(experiment, "standardize", counting_standardize)
    doc = small_doc()
    cfg = parse_config({**doc, "methods": ["random", "entropy"], "rounds": 1,
                        "dataset": {**doc["dataset"], "standardize": "pool"}})
    logs = run_experiment(cfg)
    assert len(calls) == cfg.repeats
    assert len(logs) == 2 * cfg.repeats


def test_stacked_round_takes_its_rules_from_the_method_table(monkeypatch):
    # give "random" the trajectory method's training, BALD's dropout and
    # trajectory evaluation; the harness must follow the table, not the name
    seen = []

    def spy_train_stack(pools, spec, config, seeds):
        out = real_train_stack(pools, spec, config, seeds)
        seen.extend((spec.dropout_rate, config.mmd_weight) for _ in seeds)
        return out

    def spy_evaluate(predictor, pool):
        seen.append(len(predictor))
        return real_evaluate(predictor, pool)

    real_train_stack, real_evaluate = experiment.train_stack, experiment.evaluate
    monkeypatch.setattr(experiment, "train_stack", spy_train_stack)
    monkeypatch.setattr(experiment, "evaluate", spy_evaluate)
    train = {**small_doc()["train"], "lambda": 0.3, "epochs": 4, "n_checkpoints": 2}
    cfg = parse_config({**small_doc(), "rounds": 1, "repeats": 1, "train": train})

    run_experiment(cfg)
    assert seen == [(0.0, 0.0), 1]  # the last checkpoint alone

    seen.clear()
    rules = replace(METHODS["random"], trains_with_mmd=True, bald_dropout=True, on_trajectory=True)
    monkeypatch.setitem(METHODS, "random", rules)
    run_experiment(cfg)
    assert seen == [(cfg.model.bald_dropout, 0.3), cfg.train.n_checkpoints]


# ---- run_experiment --------------------------------------------------------

def test_labeled_counts_step_by_budget():
    logs = run_experiment(parse_config(small_doc()))
    for g in logs:
        assert g.labeled_count == 10 + 5 * g.round
    assert len(logs) == 1 * 2 * 3  # methods x repeats x rounds


def test_single_round_beats_chance_on_separable_data():
    # five different master seeds; well-separated blobs; random acquisition
    for seed in range(5):
        doc = {**small_doc(), "rounds": 1, "repeats": 1, "master_seed": seed}
        doc["train"] = {"epochs": 6, "batch_size": 8, "n_checkpoints": 1, "base_lr": 0.1}
        logs = run_experiment(parse_config(doc))
        assert len(logs) == 1
        assert logs[0].test_accuracy > 0.5, f"seed {seed}"


def test_identical_config_identical_logs(tmp_path):
    cfg = parse_config(small_doc())
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a == b  # frozen dataclasses: field-exact
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_results_csv(a, pa)
    write_results_csv(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_parallel_jobs_match_sequential():
    doc = {**small_doc(), "methods": ["random", "entropy"], "repeats": 2}
    cfg = parse_config(doc)
    assert run_experiment(cfg, jobs=1) == run_experiment(cfg, jobs=4)


def test_jobs_must_be_positive():
    with pytest.raises(ConfigError):
        run_experiment(parse_config(small_doc()), jobs=0)


def test_methods_share_initial_partition_within_repeat():
    doc = {**small_doc(), "methods": ["random", "entropy", "coreset"], "repeats": 2, "rounds": 1}
    logs = run_experiment(parse_config(doc))
    by_repeat = {}
    for g in logs:
        by_repeat.setdefault(g.repeat, set()).add(g.repeat_seed)
    for repeat, seeds in by_repeat.items():
        assert len(seeds) == 1, f"repeat {repeat} mixes pool seeds"
    assert by_repeat[0] != by_repeat[1]


def test_all_methods_run_through_the_harness():
    doc = {
        **small_doc(),
        "methods": ["mpts", "random", "entropy", "bald", "coreset"],
        "repeats": 1,
        "rounds": 2,
    }
    logs = run_experiment(parse_config(doc))
    assert len(logs) == 5 * 1 * 2
    assert [g.method for g in logs] == sorted(g.method for g in logs)
    for g in logs:
        assert 0.0 <= g.test_accuracy <= 1.0
        assert g.wall_time_seconds == 0.0  # reserved field stays zero


def test_score_dumps_written_per_round(tmp_path):
    doc = {
        **small_doc(),
        "methods": ["entropy", "random", "coreset"],
        "repeats": 1,
        "rounds": 2,
        "dump_scores": True,
        "output_dir": str(tmp_path),
    }
    cfg = parse_config(doc)
    run_experiment(cfg)
    # only non-final rounds acquire -> one file per method
    files = sorted(p.name for p in tmp_path.glob("scores_*.csv"))
    assert files == [
        "scores_coreset_rep0_round0.csv",
        "scores_entropy_rep0_round0.csv",
        "scores_random_rep0_round0.csv",
    ]
    ent = (tmp_path / "scores_entropy_rep0_round0.csv").read_text().splitlines()
    assert ent[0] == "pool_index,score,selected"
    body = [line.split(",") for line in ent[1:]]
    assert len(body) == 54  # 80 - 16 test - 10 labeled
    assert sum(int(r[2]) for r in body) == 5  # exactly budget selected
    rnd = (tmp_path / "scores_random_rep0_round0.csv").read_text().splitlines()
    assert len(rnd) == 1 + 5  # only the picks, no scores
    assert all(line.endswith(",1") for line in rnd[1:])


def test_coreset_dump_pairs_each_pick_with_its_distance(tmp_path, monkeypatch):
    # 30 points: 6 test, 8 labeled, 16 unlabeled; round 1's 8 picks take the
    # whole remaining pool, so picks and unlabeled set hold the same points
    results = []

    def spy_acquire(*args, **kwargs):
        results.append(real_acquire(*args, **kwargs))
        return results[-1]

    real_acquire = experiment.acquire
    monkeypatch.setattr(experiment, "acquire", spy_acquire)
    dataset = {**small_doc()["dataset"], "class_count": 3, "per_class": 10, "test_fraction": 0.2}
    doc = {**small_doc(), "methods": ["coreset"], "dataset": dataset, "initial_count": 8,
           "budget": 8, "rounds": 3, "repeats": 1, "dump_scores": True, "output_dir": str(tmp_path)}
    run_experiment(parse_config(doc))
    assert [len(r.selected) for r in results] == [8, 8]
    for t, result in enumerate(results):
        rows = (tmp_path / f"scores_coreset_rep0_round{t}.csv").read_text().splitlines()[1:]
        # one row per pick, in pick order, each with that pick's max-min distance
        assert rows == [f"{i},{s!r},1" for i, s in zip(result.selected.tolist(), result.scores.tolist())]


def test_score_directory_that_cannot_be_made_fails_before_training(tmp_path, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("a cell trained")

    monkeypatch.setattr(experiment, "train_stack", no_training)
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker, blocker / "scores"):  # a regular file, a path under one
        cfg = parse_config({**small_doc(), "dump_scores": True, "output_dir": str(out)})
        with pytest.raises(ConfigError, match=r"^\$\.output_dir: cannot make directory"):
            run_experiment(cfg)


def stack_spy(monkeypatch):
    """Record, for every train_stack call, its cells' seeds, its model's
    dropout rate, its MMD^2 weight and the thread it ran on."""
    import threading

    calls = []

    def spy(pools, spec, config, seeds):
        calls.append((list(seeds), spec.dropout_rate, config.mmd_weight,
                      threading.current_thread() is threading.main_thread()))
        return real(pools, spec, config, seeds)

    real = experiment.train_stack
    monkeypatch.setattr(experiment, "train_stack", spy)
    return calls


def test_cells_with_the_same_training_rules_train_as_one_stack(monkeypatch):
    calls = stack_spy(monkeypatch)
    doc = {**small_doc(), "methods": ["mpts", "random", "entropy", "bald", "coreset"],
           "repeats": 2, "rounds": 2}
    cfg = parse_config(doc)
    logs = run_experiment(cfg, jobs=3)
    seed = lambda method, r, t: derive_int(cfg.master_seed, "train", method, r, t)
    for t in range(2):
        want = [
            # (cells, dropout, lambda): mpts alone trains with lambda, bald alone
            # has dropout, the three others share a model and lambda 0
            ([seed("mpts", r, t) for r in range(2)], 0.0, cfg.train.mmd_weight),
            ([seed(m, r, t) for m in ("random", "entropy", "coreset") for r in range(2)], 0.0, 0.0),
            ([seed("bald", r, t) for r in range(2)], cfg.model.bald_dropout, 0.0),
        ]
        # round-major: every stack of round 0 trains before any of round 1;
        # stacks of several cells run in the calling thread at any --jobs
        assert [c[:3] for c in calls[3 * t : 3 * t + 3]] == want
        assert all(c[3] for c in calls[3 * t : 3 * t + 3])
    assert logs == run_experiment(cfg, jobs=1)


def test_jobs_fan_out_only_cells_that_train_alone(monkeypatch):
    calls = stack_spy(monkeypatch)
    doc = {**small_doc(), "methods": ["mpts", "random", "entropy"], "repeats": 1, "rounds": 1}
    cfg = parse_config(doc)
    logs = run_experiment(cfg, jobs=2)
    by_size = sorted((len(seeds), main) for seeds, _, _, main in calls)
    assert by_size == [(1, False), (2, True)]  # mpts on a worker; random + entropy stacked
    calls.clear()
    assert run_experiment(cfg, jobs=1) == logs
    assert all(main for *_, main in calls)


# ---- results serialization -------------------------------------------------

def sample_logs():
    return [
        RoundLog("entropy", 0, 11, 0, 10, 0.5),
        RoundLog("entropy", 0, 11, 1, 15, 0.625),
        RoundLog("entropy", 1, 12, 0, 10, 0.7),
        RoundLog("entropy", 1, 12, 1, 15, 0.875),
    ]


def test_results_csv_roundtrip(tmp_path):
    p = tmp_path / "r.csv"
    write_results_csv(sample_logs(), p)
    lines = p.read_text().splitlines()
    assert lines[0] == ",".join(RESULTS_HEADER)
    assert lines[1] == "entropy,0,0,10,0.5,0.0"
    back = read_results_csv(p)
    for orig, got in zip(sample_logs(), back):
        assert (got.method, got.repeat, got.round) == (orig.method, orig.repeat, orig.round)
        assert got.labeled_count == orig.labeled_count
        assert got.test_accuracy == orig.test_accuracy  # float(str(x)) round-trips
        assert got.repeat_seed == 0  # not stored in the CSV


def test_results_csv_rejects_malformed(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("method,round\n")
    with pytest.raises(FormatError, match="row 1: expected header"):
        read_results_csv(p)
    p.write_text(",".join(RESULTS_HEADER) + "\nentropy,0,0,10,0.5\n")
    with pytest.raises(FormatError, match="row 2: expected 6 fields"):
        read_results_csv(p)
    p.write_text(",".join(RESULTS_HEADER) + "\nentropy,0,0,ten,0.5,0.0\n")
    with pytest.raises(FormatError, match="row 2"):
        read_results_csv(p)


def test_results_json_mirror(tmp_path):
    import json

    cfg = parse_config(small_doc())
    p = tmp_path / "r.json"
    write_results_json(sample_logs(), cfg, p)
    data = json.loads(p.read_text())
    assert data["config"]["budget"] == 5
    assert data["config"]["train"]["lambda"] == 0.1
    assert len(data["rows"]) == 4
    assert data["rows"][0]["test_accuracy"] == 0.5
    assert data["rows"][0]["repeat_seed"] == 11  # JSON keeps full provenance


# ---- curves ----------------------------------------------------------------

def test_compute_curves_mean_and_population_std(tmp_path):
    curves = compute_curves(sample_logs())
    assert curves == [
        ("entropy", 0, 10, 0.6, pytest.approx(0.1), 2),
        ("entropy", 1, 15, 0.75, pytest.approx(0.125), 2),
    ]
    p = tmp_path / "c.csv"
    write_curves_csv(curves, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "method,round,labeled_count,mean_accuracy,std_accuracy,repeats"
    assert lines[1].startswith("entropy,0,10,0.6,")


def test_compute_curves_rejects_unpaired_counts():
    logs = sample_logs()
    logs.append(RoundLog("entropy", 2, 13, 0, 99, 0.5))
    with pytest.raises(FormatError, match="labeled_count differs"):
        compute_curves(logs)


def test_compute_curves_sorted_by_method_then_round():
    logs = [
        RoundLog("random", 0, 1, 1, 15, 0.5),
        RoundLog("entropy", 0, 1, 0, 10, 0.5),
        RoundLog("random", 0, 1, 0, 10, 0.5),
        RoundLog("entropy", 0, 1, 1, 15, 0.5),
    ]
    keys = [(c[0], c[1]) for c in compute_curves(logs)]
    assert keys == [("entropy", 0), ("entropy", 1), ("random", 0), ("random", 1)]
