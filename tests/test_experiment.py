"""Harness behavior: pairing, determinism, parallel equivalence, curve math."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import allab.experiment as experiment
from allab.acquisition import METHODS
from allab.config import parse_config
from allab.dataio import Dataset, feature_values, standardize
from allab.errors import ConfigError, FormatError, TrainingDiverged
from allab.seeding import derive_int, derive_rng
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

    def partition(mode, stats_rows=None):
        """The float32 partition, whose features are the float64 ones, raw
        or standardized on ``stats_rows(start)``, rounded; and those float64
        features."""
        mode_cfg = replace(cfg, dataset=replace(cfg.dataset, standardize=mode))
        start = start_partition(dataset, mode_cfg, 0)
        wide = dataset.features
        if stats_rows is not None:
            wide = standardize(dataset.features, stats_rows(start), np.float64)
        assert start.features.dtype == np.float32
        assert start.features.tobytes() == wide.astype(np.float32).tobytes()
        return start, wide

    plain, _ = partition("none")

    def pool_rows(start):
        return np.sort(np.concatenate([start.labeled_idx, start.unlabeled_idx]))

    pooled, wide = partition("pool", pool_rows)
    rows = pool_rows(pooled)
    assert np.abs(wide[rows].mean(axis=0)).max() <= 1e-12
    assert np.abs(wide[rows].std(axis=0) - 1.0).max() <= 1e-12
    # partition identical to the unstandardized build (same rng consumption)
    assert np.array_equal(pooled.labeled_idx, plain.labeled_idx)

    lab, wide = partition("labeled", lambda start: start.labeled_idx)
    assert np.abs(wide[lab.labeled_idx].mean(axis=0)).max() <= 1e-12
    assert np.abs(wide[lab.labeled_idx].std(axis=0) - 1.0).max() <= 1e-12
    # the dataset's own features are left as they were
    assert np.array_equal(dataset.features, raw)


# IDX data keeps its pixels as uint8 and divides them by 255 only when a
# partition's features are made; every partition must be, bit for bit, what
# the float64 features pixels / 255.0 gave when the loader divided them

MODES = ("none", "pool", "labeled")


def _float64_partition_features(values, start, mode):
    """``start_partition``'s float32 features computed from float64 feature
    values as the loader's float64 features were: a cast, or ``(X - m) / s``
    with ``ndarray.std`` statistics of the partition's rows, rounded."""
    if mode == "none":
        return values.astype(np.float32)
    rows = start.labeled_idx
    if mode == "pool":
        rows = np.sort(np.concatenate([start.labeled_idx, start.unlabeled_idx]))
    mean, std = values[rows].mean(axis=0), values[rows].std(axis=0)
    constant = std == 0.0
    return ((values - np.where(constant, 0.0, mean)) / np.where(constant, 1.0, std)).astype(np.float32)


def _pixel_and_value_datasets(pixels, labels):
    """The dataset the IDX loader gives for ``pixels`` (uint8 features), and
    one holding their float64 values, as a CSV or synthetic dataset holds its
    features."""
    return (Dataset(pixels, labels, 3), Dataset(pixels / 255.0, labels, 3))


@st.composite
def _pixel_columns(draw):
    """Random uint8 pixels with a constant column and an all-255 column."""
    n, d = draw(st.integers(12, 40)), draw(st.integers(2, 6))
    pixels = draw(hnp.arrays(np.uint8, (n, d), elements=st.sampled_from([0, 255]) | st.integers(0, 255)))
    constant, full = draw(st.permutations(range(d)))[:2]
    pixels[:, constant] = draw(st.integers(0, 255))
    pixels[:, full] = 255
    return pixels, draw(hnp.arrays(np.int64, n, elements=st.integers(0, 2)))


@settings(max_examples=60, deadline=None)
@given(_pixel_columns())
def test_pixel_partitions_are_bitwise_the_float64_values_partitions(data):
    pixels, labels = data
    before = pixels.copy()
    raw, values = _pixel_and_value_datasets(pixels, labels)
    base = replace(parse_config(small_doc()), initial_count=3)
    for mode in MODES:
        cfg = replace(base, dataset=replace(base.dataset, standardize=mode))
        got, ref = start_partition(raw, cfg, 0), start_partition(values, cfg, 0)
        assert got.labeled_idx.tolist() == ref.labeled_idx.tolist()
        assert got.unlabeled_idx.tolist() == ref.unlabeled_idx.tolist()
        expected = _float64_partition_features(values.features, ref, mode).tobytes()
        assert got.features.dtype == np.float32 and got.features.tobytes() == expected, mode
        # float64 features (CSV and synthetic data) give the same bits as before
        assert ref.features.dtype == np.float32 and ref.features.tobytes() == expected, mode
    assert pixels.tobytes() == before.tobytes()


@settings(max_examples=40, deadline=None)
@given(_pixel_columns(), st.sampled_from([None, 8, 20]))
def test_partition_positions_hold_their_dataset_rows_bit_for_bit(data, pool_size):
    # a standardized partition holds its pool and test rows alone: position i
    # is dataset row dataset_rows[i], whose standardized features and label it
    # holds bit for bit, and its index sets are the dataset rows' positions
    pixels, labels = data
    raw = Dataset(pixels, labels, 3)
    base = replace(parse_config(small_doc()), initial_count=3)
    for mode in MODES:
        cfg = replace(base, dataset=replace(base.dataset, standardize=mode, pool_size=pool_size))
        start = start_partition(raw, cfg, 0)
        if mode == "none":  # positions are dataset rows, and every row is held
            plain = start
            assert start.dataset_rows is None and np.array_equal(start.labels, labels)
            assert start.features.tobytes() == feature_values(pixels, np.float32).tobytes()
            continue
        rows, sets = start.dataset_rows, ("labeled_idx", "unlabeled_idx", "test_idx")
        assert rows.tolist() == sorted(np.concatenate([getattr(plain, name) for name in sets]).tolist())
        assert len(start.features) == len(start.labels) == len(rows)
        full = standardize(pixels, plain.pool_idx if mode == "pool" else plain.labeled_idx, np.float32)
        for name in sets:
            at = getattr(start, name)
            assert rows[at].tolist() == getattr(plain, name).tolist(), (mode, name)
            assert start.features[at].tobytes() == full[rows[at]].tobytes(), (mode, name)
            assert start.labels[at].tolist() == labels[rows[at]].tolist(), (mode, name)


@pytest.mark.parametrize("mode", MODES)
def test_run_partitions_pixels_as_their_float64_values(monkeypatch, mode):
    # run_experiment makes its own float32 array without standardization
    pixels = derive_rng(5, "pixels").integers(0, 256, (60, 6)).astype(np.uint8)
    raw, values = _pixel_and_value_datasets(pixels, np.arange(60) % 3)
    doc = small_doc()
    cfg = parse_config({**doc, "rounds": 1, "dataset": {**doc["dataset"], "standardize": mode}})
    partitioned, real_stacks = [], experiment._stacks

    def recording_stacks(cfg, starts):
        partitioned.append(starts)
        return real_stacks(cfg, starts)

    monkeypatch.setattr(experiment, "_stacks", recording_stacks)
    run_experiment(cfg, dataset=raw)
    ((got, *_),) = partitioned
    expected = _float64_partition_features(values.features, got, mode)
    assert got.features.dtype == np.float32 and got.features.tobytes() == expected.tobytes()


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


@pytest.mark.parametrize("stage", ["evaluate", "acquire"])
def test_a_cell_whose_scoring_diverges_is_named_with_its_round(monkeypatch, stage):
    # one stack of four cells, scored in order: the fifth call is round 1's first cell
    calls, real = [], getattr(experiment, stage)

    def diverging(*args, **kwargs):
        calls.append(1)
        if len(calls) == 5:
            raise TrainingDiverged("non-finite predictions")
        return real(*args, **kwargs)

    monkeypatch.setattr(experiment, stage, diverging)
    cfg = parse_config({**small_doc(), "methods": ["random", "entropy"]})
    with pytest.raises(TrainingDiverged, match=r"^round 1, random rep 0: non-finite predictions$"):
        run_experiment(cfg)


def test_stacked_round_takes_its_rules_from_the_method_table(monkeypatch):
    # give "random" the trajectory method's training, BALD's dropout and
    # trajectory evaluation; the harness must follow the table, not the name
    seen = []

    def spy_train_stack(pools, spec, config, seeds):
        out = real_train_stack(pools, spec, config, seeds)
        seen.extend((spec.dropout_rate, config.mmd_weight) for _ in seeds)
        return out

    def spy_evaluate(predictor, pool):
        seen.append(len(predictor.flat))
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


@pytest.mark.parametrize("mode, arrays", [("none", 1), ("pool", 2)])
def test_the_harness_trains_and_scores_in_float32(monkeypatch, mode, arrays):
    # one float32 feature array per standardized repeat, or one for every
    # repeat without standardization, shared by the cells; float32 models,
    # and float32 trajectories handed to every acquisition
    trained, acquired = [], []
    real_train_stack, real_acquire = experiment.train_stack, experiment.acquire

    def spy_train_stack(pools, spec, config, seeds):
        result = real_train_stack(pools, spec, config, seeds)
        trained.append(([p.features for p in pools], {trajectory.flat.dtype for trajectory, _ in result}))
        return result

    def spy_acquire(method, pool, budget, trajectory, rng, bald_passes):
        acquired.append((pool.features.dtype, {trajectory.flat.dtype}))
        return real_acquire(method, pool, budget, trajectory, rng, bald_passes=bald_passes)

    monkeypatch.setattr(experiment, "train_stack", spy_train_stack)
    monkeypatch.setattr(experiment, "acquire", spy_acquire)
    doc = {**small_doc(), "methods": ["mpts", "random", "bald", "coreset"], "rounds": 2}
    doc["dataset"] = {**doc["dataset"], "standardize": mode}
    run_experiment(parse_config(doc))
    f32 = np.dtype(np.float32)
    assert len(trained) == 3 * 2 and len(acquired) == 4 * 2
    assert all(snaps == {f32} for _, snaps in trained)
    features = [f for cells, _ in trained for f in cells]
    assert {f.dtype for f in features} == {f32}
    # made once: every cell, in every round, holds its repeat's array
    assert len({id(f) for f in features}) == arrays
    assert acquired == [(f32, {f32})] * 8


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
        # round-major: every stack of round 0 trains before any of round 1,
        # all in the calling thread
        assert [c[:3] for c in calls[3 * t : 3 * t + 3]] == want
        assert all(c[3] for c in calls[3 * t : 3 * t + 3])
    assert logs == run_experiment(cfg, jobs=1)


def test_jobs_run_every_stack_on_the_main_thread(monkeypatch):
    calls = stack_spy(monkeypatch)
    doc = {**small_doc(), "methods": ["mpts", "random"], "repeats": 1, "rounds": 2}
    cfg = parse_config(doc)
    logs = run_experiment(cfg, jobs=2)
    assert [len(seeds) for seeds, *_ in calls] == [1, 1, 1, 1]  # two one-cell stacks, two rounds
    assert all(main for *_, main in calls)
    assert run_experiment(cfg, jobs=1) == logs


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
