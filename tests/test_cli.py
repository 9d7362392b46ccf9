"""End-user surface: subcommands, exit codes, emitted files.

Runs ``main(argv)`` in-process (capsys captures output); a couple of cases
also exercise the installed console path via ``python -m allab``.
"""

import json
import subprocess
import sys

import pytest

from allab.cli import OUT_ENV, main


def write_config(tmp_path, **over):
    doc = {
        "methods": ["random", "entropy"],
        "dataset": {
            "kind": "synthetic",
            "class_count": 2,
            "per_class": 40,
            "dim": 2,
            "separation": 8.0,
        },
        "initial_count": 10,
        "budget": 5,
        "rounds": 2,
        "repeats": 2,
        "train": {"epochs": 2, "batch_size": 8, "n_checkpoints": 1, "base_lr": 0.1},
        "model": {"hidden": [8]},
        "output_dir": str(tmp_path / "results"),
    }
    doc.update(over)
    p = tmp_path / "config.json"
    p.write_text(json.dumps(doc))
    return p


# ---- run -------------------------------------------------------------------

def test_run_writes_all_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "results"
    assert (out / "results.csv").exists()
    assert (out / "results.json").exists()
    assert (out / "resolved_config.json").exists()
    lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 2 * 2  # header + methods x repeats x rounds
    stdout = capsys.readouterr().out
    assert "wrote" in stdout
    assert "[random rep 0 round 0]" in stdout  # progress lines
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["budget"] == 5


def test_run_twice_identical_bytes(tmp_path):
    cfg = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out_b)]) == 0
    # CSV ignores the output path; the JSON mirror embeds output_dir, so
    # compare it across two runs into the same directory instead
    assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()
    first_json = (out_a / "results.json").read_bytes()
    assert main(["run", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert (out_a / "results.json").read_bytes() == first_json


def test_run_seed_override_changes_results(tmp_path):
    cfg = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(out_a), "--seed", "7"]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out_b), "--seed", "8"]) == 0
    assert (out_a / "results.csv").read_bytes() != (out_b / "results.csv").read_bytes()
    echoed = json.loads((out_a / "resolved_config.json").read_text())
    assert echoed["master_seed"] == 7


def test_run_out_env_fallback(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv(OUT_ENV, str(env_dir))
    assert main(["run", "--config", str(cfg)]) == 0
    assert (env_dir / "results.csv").exists()


def test_run_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, typo=1)
    assert main(["run", "--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_missing_dataset_file_exits_3(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        dataset={"kind": "csv", "path": str(tmp_path / "nope.csv")},
    )
    assert main(["run", "--config", str(cfg)]) == 3
    assert "format error" in capsys.readouterr().err
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2,3\n4,5,6\n")  # all-numeric first row: no header
    cfg = write_config(tmp_path, dataset={"kind": "csv", "path": str(bad)})
    assert main(["run", "--config", str(cfg)]) == 3
    assert "format error" in capsys.readouterr().err
    bad.write_text("y\n" + "".join(f"{i % 2}\n" for i in range(40)))  # the label column alone
    assert main(["run", "--config", str(cfg)]) == 3
    assert f"format error: {bad}: row 1: no feature column" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_divergence_exits_4(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        train={"epochs": 2, "batch_size": 8, "n_checkpoints": 1, "base_lr": 1e150},
    )
    assert main(["run", "--config", str(cfg)]) == 4
    err = capsys.readouterr().err
    assert "training diverged: round 0, " in err
    assert "random rep 0" in err and "entropy rep 1" in err
    assert "non-finite" in err


def test_run_budget_exhausting_pool_exits_2_before_training(tmp_path, capsys):
    # 40 points, 8 held out: 10 + 30 x 3 labels cannot come from 32 pool points
    cfg = write_config(
        tmp_path,
        dataset={"kind": "synthetic", "class_count": 2, "per_class": 20, "dim": 2, "separation": 8.0},
        initial_count=10,
        budget=30,
        rounds=4,
        repeats=1,
    )
    assert main(["run", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "config error: $.budget:" in captured.err
    assert "32 points" in captured.err
    assert "round" not in captured.out  # no cell trained
    assert not (tmp_path / "results" / "results.csv").exists()


def test_run_non_finite_csv_cell_exits_3(tmp_path, capsys):
    data = tmp_path / "data.csv"
    rows = [f"{i}.5,{'inf' if i == 7 else 1.0},{i % 2}" for i in range(40)]
    data.write_text("\n".join(["x1,x2,y", *rows]) + "\n")
    cfg = write_config(tmp_path, dataset={"kind": "csv", "path": str(data)}, repeats=1)
    assert main(["run", "--config", str(cfg)]) == 3
    assert "row 9, column 2: non-finite feature cell 'inf'" in capsys.readouterr().err


@pytest.fixture
def forbid_training(monkeypatch):
    import allab.experiment

    def no_training(*args, **kwargs):
        raise AssertionError("a cell trained")

    monkeypatch.setattr(allab.experiment, "train_stack", no_training)


@pytest.mark.parametrize(
    "over, field",
    [
        # 2 x 20 blobs, 8 held out: class 0 keeps fewer than 20 pool points
        ({"bias_classes": [0], "initial_count": 20}, "$.initial_count:"),
        ({"dataset": {"kind": "synthetic", "class_count": 2, "per_class": 20, "dim": 2,
                      "separation": 8.0, "test_fraction": 0.001}}, "$.dataset.test_fraction:"),
    ],
)
def test_run_pool_too_small_exits_2_before_training(tmp_path, capsys, forbid_training, over, field):
    doc = {
        "dataset": {"kind": "synthetic", "class_count": 2, "per_class": 20, "dim": 2, "separation": 8.0},
        "repeats": 1,
        **over,
    }
    assert main(["run", "--config", str(write_config(tmp_path, **doc))]) == 2
    captured = capsys.readouterr()
    assert f"config error: {field}" in captured.err
    assert "unexpected error" not in captured.err
    assert not (tmp_path / "results" / "results.csv").exists()


@pytest.mark.parametrize("bad", [7, -1])
def test_run_bias_class_out_of_range_exits_2_before_training(tmp_path, capsys, forbid_training, bad):
    dataset = {"kind": "synthetic", "class_count": 4, "per_class": 40, "dim": 2, "separation": 8.0}
    cfg = write_config(tmp_path, dataset=dataset, bias_classes=[bad], repeats=1)
    assert main(["run", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert f"config error: $.bias_classes: class id {bad} not in [0, 4)" in captured.err
    assert "$.initial_count" not in captured.err
    assert not (tmp_path / "results" / "results.csv").exists()


def test_run_unknown_kernel_name_exits_2(tmp_path, capsys, forbid_training):
    cfg = write_config(tmp_path, train={"kernel": "gauss"})
    assert main(["run", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert (
        "config error: $.train.kernel: must be 'median', 'median3' or a bandwidth list, got 'gauss'"
        in captured.err
    )


def test_run_bad_bandwidth_names_its_index_and_exits_2(tmp_path, capsys, forbid_training):
    cfg = write_config(tmp_path, train={"kernel": [0.5, 0]})
    assert main(["run", "--config", str(cfg)]) == 2
    assert (
        "config error: $.train.kernel[1]: bandwidths must be positive and finite, got 0.0"
        in capsys.readouterr().err
    )


def test_run_synthetic_size_below_one_exits_2(tmp_path, capsys, forbid_training):
    cfg = write_config(tmp_path, dataset={"kind": "synthetic", "class_count": 0})
    assert main(["run", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "config error: $.dataset.class_count: must be >= 1, got 0" in captured.err
    assert "unexpected error" not in captured.err


def test_run_split_index_beyond_default_hidden_exits_2_before_training(
    tmp_path, capsys, forbid_training
):
    # hidden null on 2-d blobs resolves to [64, 64], known only once the data is loaded
    cfg = write_config(tmp_path, model={"split_index": 3})
    assert main(["run", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "config error: $.model.split_index:" in captured.err
    assert "[64, 64]" in captured.err
    assert "unexpected error" not in captured.err
    assert not (tmp_path / "results" / "results.csv").exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_run_jobs_below_one_exits_2_before_any_work(tmp_path, capsys, forbid_training, jobs):
    cfg = write_config(tmp_path)
    with pytest.raises(SystemExit) as exited:
        main(["run", "--config", str(cfg), "--jobs", jobs])
    assert exited.value.code == 2
    assert f"argument --jobs: must be >= 1, got {jobs}" in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("under_file", [False, True])
def test_run_output_directory_that_cannot_be_made_exits_2_before_training(
    tmp_path, capsys, forbid_training, under_file
):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "out" if under_file else blocker
    cfg = write_config(tmp_path)
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"config error: $.output_dir: cannot make directory {str(out)!r}" in captured.err
    assert "unexpected error" not in captured.err
    assert blocker.read_text() == ""


def test_run_pool_too_small_in_a_later_repeat_exits_2_before_training(tmp_path, capsys, forbid_training):
    # class 0 keeps 20 minus its share of the 8 random test points, so
    # initial_count 16 fits some repeats and not others; find a master seed
    # whose first repeat fits and whose second does not
    import allab.experiment
    from allab.config import parse_config
    from allab.errors import ConfigError

    over = {
        "dataset": {"kind": "synthetic", "class_count": 2, "per_class": 20, "dim": 2, "separation": 8.0},
        "bias_classes": [0],
        "initial_count": 16,
        "budget": 1,
        "repeats": 2,
    }

    def fits(cfg, dataset, repeat):
        try:
            allab.experiment.start_partition(dataset, cfg, repeat)
            return True
        except ConfigError:
            return False

    for seed in range(100):
        path = write_config(tmp_path, master_seed=seed, **over)
        cfg = parse_config(path)
        dataset = allab.experiment.load_dataset(cfg)
        if fits(cfg, dataset, 0) and not fits(cfg, dataset, 1):
            break
    else:
        pytest.fail("no seed splits the repeats")
    assert main(["run", "--config", str(path)]) == 2
    assert "config error: $.initial_count: 16 exceeds" in capsys.readouterr().err


def test_run_pool_error_exits_5(tmp_path, capsys, monkeypatch):
    import allab.cli
    from allab.errors import PoolError

    def empty_pool(*args, **kwargs):
        raise PoolError("unlabeled pool is empty")

    monkeypatch.setattr(allab.cli, "run_experiment", empty_pool)
    assert main(["run", "--config", str(write_config(tmp_path))]) == 5
    assert "pool error: unlabeled pool is empty" in capsys.readouterr().err


def test_run_results_parse_back(tmp_path):
    from allab.experiment import read_results_csv

    cfg = write_config(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 0
    rows = read_results_csv(tmp_path / "results" / "results.csv")
    assert {r.method for r in rows} == {"random", "entropy"}
    assert all(r.labeled_count in (10, 15) for r in rows)


def test_run_csv_dataset_emits_label_mapping(tmp_path):
    data = tmp_path / "data.csv"
    lines = ["x1,x2,y"]
    for i in range(60):
        lines.append(f"{i % 7}.5,{(i * 3) % 5}.25,{'abc'[i % 3]}")
    data.write_text("\n".join(lines) + "\n")
    cfg = write_config(
        tmp_path,
        dataset={"kind": "csv", "path": str(data)},
        initial_count=8,
        budget=4,
        repeats=1,
    )
    assert main(["run", "--config", str(cfg)]) == 0
    mapping = json.loads((tmp_path / "results" / "label_names.json").read_text())
    assert mapping == {"class_ids": {"a": 0, "b": 1, "c": 2}}


def test_run_parses_a_csv_once(tmp_path, monkeypatch):
    import allab.experiment

    calls = []

    def counting_load_csv(*args, **kwargs):
        calls.append(1)
        return real_load_csv(*args, **kwargs)

    real_load_csv = allab.experiment.load_csv
    monkeypatch.setattr(allab.experiment, "load_csv", counting_load_csv)
    data = tmp_path / "data.csv"
    data.write_text("\n".join(["x1,x2,y", *(f"{i % 7}.5,{i % 5},{'ab'[i % 2]}" for i in range(60))]) + "\n")
    cfg = write_config(tmp_path, dataset={"kind": "csv", "path": str(data)}, initial_count=8, repeats=1)
    assert main(["run", "--config", str(cfg)]) == 0
    assert len(calls) == 1
    mapping = json.loads((tmp_path / "results" / "label_names.json").read_text())
    assert mapping == {"class_ids": {"a": 0, "b": 1}}


# ---- gradcheck -------------------------------------------------------------

def test_gradcheck_passes_and_is_reproducible(capsys):
    assert main(["gradcheck"]) == 0
    first = capsys.readouterr().out
    assert "gradcheck PASS" in first
    assert main(["gradcheck"]) == 0
    assert capsys.readouterr().out == first


def test_gradcheck_negative_control(capsys):
    assert main(["gradcheck", "--perturb", "1.0"]) == 1
    assert "gradcheck FAIL" in capsys.readouterr().out


# ---- curves ----------------------------------------------------------------

def test_curves_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 0
    out_csv = tmp_path / "curves.csv"
    code = main(
        ["curves", "--results", str(tmp_path / "results" / "results.csv"), "--out", str(out_csv)]
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "method,round,labeled_count,mean_accuracy,std_accuracy,repeats"
    assert len(lines) == 1 + 2 * 2  # methods x rounds
    assert all(line.endswith(",2") for line in lines[1:])  # repeats column


def test_curves_on_missing_file_exits_3(tmp_path, capsys):
    assert main(["curves", "--results", str(tmp_path / "no.csv"), "--out", str(tmp_path / "o")]) == 3
    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n")
    assert main(["curves", "--results", str(bad), "--out", str(tmp_path / "o")]) == 3
    assert "format error" in capsys.readouterr().err


def test_curves_out_that_cannot_be_written_exits_2(tmp_path, capsys):
    results = tmp_path / "results.csv"
    results.write_text("method,repeat,round,labeled_count,accuracy,wall_time_s\nmpts,0,0,10,0.5,0.0\n")
    for out in (tmp_path / "missing" / "curves.csv", tmp_path):  # no such directory; a directory
        assert main(["curves", "--results", str(results), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: --out: cannot write {str(out)!r}: "), err


# ---- module entry point ----------------------------------------------------

def test_python_dash_m_entry(tmp_path):
    cfg = write_config(tmp_path, repeats=1, methods=["random"])
    proc = subprocess.run(
        [sys.executable, "-m", "allab", "run", "--config", str(cfg), "--out", str(tmp_path / "m")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "m" / "results.csv").exists()
    help_proc = subprocess.run(
        [sys.executable, "-m", "allab", "--help"], capture_output=True, text=True
    )
    assert help_proc.returncode == 0
    for sub in ("run", "gradcheck", "curves"):
        assert sub in help_proc.stdout
