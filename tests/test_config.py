"""Strict JSON config parsing: defaults, path-addressed errors, echo."""

import dataclasses
import json

import pytest

from allab.config import (
    DatasetConfig,
    ExperimentConfig,
    ModelConfig,
    config_to_json,
    parse_config,
)
from allab.errors import ConfigError
from allab.trainer import TrainConfig


def test_minimal_config_gets_documented_defaults():
    cfg = parse_config({"methods": ["random"]})
    assert cfg.train.epochs == 100
    assert cfg.train.batch_size == 64
    assert cfg.train.base_lr == 1e-3
    assert cfg.train.mmd_weight == 0.1
    assert cfg.repeats == 5
    assert cfg.rounds == 5
    assert cfg.initial_count == 100
    assert cfg.budget == 100
    assert cfg.dataset.kind == "synthetic"
    assert cfg.dataset.standardize == "none"
    assert cfg.methods == ("random",)


def test_methods_are_required():
    with pytest.raises(ConfigError, match=r"\$\.methods: required"):
        parse_config({})


def test_unknown_key_names_its_path():
    with pytest.raises(ConfigError, match=r"\$\.train\.lambda_: unknown key"):
        parse_config({"methods": ["random"], "train": {"lambda_": 0.2}})
    with pytest.raises(ConfigError, match=r"\$\.train\.seed: unknown key"):
        parse_config({"methods": ["random"], "train": {"seed": 3}})
    with pytest.raises(ConfigError, match=r"\$\.extra: unknown key"):
        parse_config({"methods": ["random"], "extra": 1})


def test_budget_zero_violates_invariant():
    with pytest.raises(ConfigError, match=r"\$\.budget: must be >= 1"):
        parse_config({"methods": ["random"], "budget": 0})


def test_method_validation():
    with pytest.raises(ConfigError, match=r"\$\.methods\[1\]: unknown method 'margin'"):
        parse_config({"methods": ["random", "margin"]})
    with pytest.raises(ConfigError, match=r"\$\.methods\[1\]: duplicate"):
        parse_config({"methods": ["mpts", "mpts"]})
    with pytest.raises(ConfigError, match="nonempty list"):
        parse_config({"methods": []})


def test_lambda_key_maps_to_mmd_weight():
    cfg = parse_config({"methods": ["mpts"], "train": {"lambda": 0.25}})
    assert cfg.train.mmd_weight == 0.25


def test_kernel_accepts_name_or_bandwidth_list():
    cfg = parse_config({"methods": ["mpts"], "train": {"kernel": "median3"}})
    assert cfg.train.kernel == "median3"
    cfg = parse_config({"methods": ["mpts"], "train": {"kernel": [0.5, 1.0, 2.0]}})
    assert cfg.train.kernel == (0.5, 1.0, 2.0)
    with pytest.raises(ConfigError, match=r"\$\.train\.kernel"):
        parse_config({"methods": ["mpts"], "train": {"kernel": 7}})


def test_unknown_kernel_name_names_the_field_and_value():
    with pytest.raises(
        ConfigError,
        match=r"^\$\.train\.kernel: must be 'median', 'median3' or a bandwidth list, got 'gauss'$",
    ):
        parse_config({"methods": ["mpts"], "train": {"kernel": "gauss"}})


def test_bad_bandwidth_names_its_index_and_value():
    with pytest.raises(
        ConfigError, match=r"^\$\.train\.kernel\[1\]: bandwidths must be positive and finite, got 0\.0$"
    ):
        parse_config({"methods": ["mpts"], "train": {"kernel": [0.5, 0]}})
    with pytest.raises(ConfigError, match=r"^\$\.train\.kernel\[0\]: .* got -inf$"):
        parse_config({"methods": ["mpts"], "train": {"kernel": [-float("inf"), 1.0]}})


def test_empty_kernel_list_is_a_type_error():
    with pytest.raises(ConfigError, match=r"^\$\.train\.kernel: expected a nonempty list of numbers"):
        parse_config({"methods": ["mpts"], "train": {"kernel": []}})


def test_train_invariant_errors_carry_path_prefix():
    with pytest.raises(ConfigError, match=r"\$\.train: epochs"):
        parse_config({"methods": ["random"], "train": {"epochs": 7}})


def test_dataset_kind_and_requirements():
    with pytest.raises(ConfigError, match=r"\$\.dataset\.kind"):
        parse_config({"methods": ["random"], "dataset": {"kind": "imagenet"}})
    with pytest.raises(ConfigError, match="mnist needs"):
        parse_config({"methods": ["random"], "dataset": {"kind": "mnist"}})
    with pytest.raises(ConfigError, match="csv needs path"):
        parse_config({"methods": ["random"], "dataset": {"kind": "csv"}})


@pytest.mark.parametrize("name", ["class_count", "per_class", "dim"])
def test_synthetic_sizes_below_one_are_rejected(name):
    with pytest.raises(ConfigError, match=rf"^\$\.dataset\.{name}: must be >= 1, got 0$"):
        parse_config({"methods": ["random"], "dataset": {name: 0}})


def test_csv_defaults_to_pool_standardization():
    cfg = parse_config(
        {"methods": ["random"], "dataset": {"kind": "csv", "path": "x.csv"}}
    )
    assert cfg.dataset.standardize == "pool"
    # explicit override survives
    cfg = parse_config(
        {
            "methods": ["random"],
            "dataset": {"kind": "csv", "path": "x.csv", "standardize": "none"},
        }
    )
    assert cfg.dataset.standardize == "none"


def test_type_mismatches_name_the_path():
    with pytest.raises(ConfigError, match=r"\$\.rounds: expected an integer"):
        parse_config({"methods": ["random"], "rounds": 2.5})
    with pytest.raises(ConfigError, match=r"\$\.rounds: expected an integer"):
        parse_config({"methods": ["random"], "rounds": True})
    with pytest.raises(ConfigError, match=r"\$\.dump_scores: expected true/false"):
        parse_config({"methods": ["random"], "dump_scores": "yes"})


# one broken rule per case: (section, the fields set, the JSON key the error
# names or None for a rule over several fields, the message)
BROKEN_RULES = [
    ("dataset", {"kind": "imagenet"}, "kind", "must be synthetic, mnist or csv, got 'imagenet'"),
    ("dataset", {"standardize": "bogus"}, "standardize", "must be none, pool or labeled, got 'bogus'"),
    ("dataset", {"test_fraction": 1.0}, "test_fraction", "must be in (0, 1), got 1.0"),
    ("dataset", {"pool_size": 0}, "pool_size", "must be >= 1, got 0"),
    ("dataset", {"per_class": 0}, "per_class", "must be >= 1, got 0"),
    ("dataset", {"kind": "mnist", "images_path": "i"}, None, "mnist needs images_path and labels_path"),
    ("dataset", {"kind": "mnist", "images_path": "i", "labels_path": "l", "test_labels_path": "t"},
     None, "test_images_path and test_labels_path go together"),
    ("dataset", {"kind": "csv"}, None, "csv needs path"),
    ("model", {"hidden": (8, 0)}, "hidden", "sizes must be >= 1, got [8, 0]"),
    ("model", {"hidden": (8,), "split_index": 2}, "split_index", "must be in [1, 1], got 2"),
    ("model", {"split_index": 0, "hidden": (8,)}, "split_index", "must be in [1, 1], got 0"),
    ("model", {"bald_dropout": 0.0}, "bald_dropout", "must be in (0, 1), got 0.0"),
    ("model", {"bald_passes": 1}, "bald_passes", "must be >= 2, got 1"),
    ("train", {"kernel": "gauss"}, "kernel", "must be 'median', 'median3' or a bandwidth list, got 'gauss'"),
    ("train", {"kernel": (0.5, 0.0)}, "kernel[1]", "bandwidths must be positive and finite, got 0.0"),
    ("train", {"kernel": (-float("inf"), 1.0)}, "kernel[0]", "bandwidths must be positive and finite, got -inf"),
    ("", {"initial_count": 0}, "initial_count", "must be >= 1, got 0"),
    ("", {"budget": 0}, "budget", "must be >= 1, got 0"),
    ("", {"rounds": 0}, "rounds", "must be >= 1, got 0"),
    ("", {"repeats": 0}, "repeats", "must be >= 1, got 0"),
    ("", {"methods": ("random", "margin")}, "methods[1]",
     "unknown method 'margin' (choices: mpts, random, entropy, bald, coreset)"),
    ("", {"methods": ("mpts", "mpts")}, "methods[1]", "duplicate method 'mpts'"),
]
# rules a JSON config breaks first as a type error (a nonempty list is expected)
BROKEN_RULES_IN_PYTHON_ONLY = [
    ("", {"methods": ()}, "methods", "must name at least one method"),
    ("train", {"kernel": ()}, "kernel", "need at least one bandwidth"),
]
SECTIONS = {"": ExperimentConfig, "dataset": DatasetConfig, "model": ModelConfig, "train": TrainConfig}


def _cases(cases):
    ids = [f"{section or '$'}.{key or '+'.join(fields)}" for section, fields, key, _ in cases]
    return pytest.mark.parametrize("section, fields, key, message", cases, ids=ids)


def _stock(section: str, **fields):
    """The section's dataclass built from ``fields``; an experiment gets methods."""
    if section == "":
        fields = {"methods": ("random",), **fields}
    return SECTIONS[section](**fields)


def _expected(key, message):
    return message if key is None else f"{key}: {message}"


@_cases(BROKEN_RULES)
def test_broken_rule_in_json_names_its_path(section, fields, key, message):
    doc = {k: list(v) if isinstance(v, tuple) else v for k, v in fields.items()}
    where = "$" + "".join(f".{name}" for name in (section, key) if name)
    with pytest.raises(ConfigError) as e:
        parse_config({"methods": ["random"], **({section: doc} if section else doc)})
    assert str(e.value) == f"{where}: {message}"


@_cases(BROKEN_RULES + BROKEN_RULES_IN_PYTHON_ONLY)
def test_broken_rule_fails_a_config_built_in_python(section, fields, key, message):
    with pytest.raises(ValueError) as e:
        _stock(section, **fields)
    assert str(e.value) == _expected(key, message)


@_cases(BROKEN_RULES + BROKEN_RULES_IN_PYTHON_ONLY)
def test_broken_rule_fails_a_replaced_config(section, fields, key, message):
    good = _stock(section)
    with pytest.raises(ValueError) as e:
        dataclasses.replace(good, **fields)
    assert str(e.value) == _expected(key, message)


def test_csv_dataset_built_in_python_equals_the_parsed_one():
    built = DatasetConfig(kind="csv", path="x.csv")
    assert built.standardize == "pool"
    assert built == parse_config({"methods": ["random"], "dataset": {"kind": "csv", "path": "x.csv"}}).dataset
    assert DatasetConfig(kind="csv", path="x.csv", standardize="none").standardize == "none"
    assert DatasetConfig().standardize == "none"


def test_parse_from_string_and_file(tmp_path):
    doc = {"methods": ["random"], "master_seed": 9}
    from_dict = parse_config(doc)
    from_str = parse_config(json.dumps(doc))
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    from_file = parse_config(str(p))
    assert from_dict == from_str == from_file
    with pytest.raises(ConfigError, match="malformed JSON"):
        parse_config("{not json")
    with pytest.raises(ConfigError, match="cannot read config"):
        parse_config(str(tmp_path / "missing.json"))


def test_model_resolution_defaults():
    m = ModelConfig()
    assert m.resolve(784, 10) == ((784, 128, 10), 1)
    assert m.resolve(8, 4) == ((8, 64, 64, 4), 2)
    custom = ModelConfig(hidden=(32, 16, 8), split_index=2)
    assert custom.resolve(5, 3) == ((5, 32, 16, 8, 3), 2)


def test_model_resolution_rejects_split_beyond_default_hidden():
    # the default hidden sizes depend on the input width, known only at load time
    cfg = parse_config({"methods": ["random"], "model": {"split_index": 2}})
    assert cfg.model.resolve(8, 4) == ((8, 64, 64, 4), 2)
    with pytest.raises(ConfigError, match=r"^\$\.model\.split_index: .*\[128\].*got 2$"):
        cfg.model.resolve(784, 10)


def test_model_config_validation():
    with pytest.raises(ConfigError, match=r"\$\.model\.split_index"):
        parse_config(
            {"methods": ["random"], "model": {"hidden": [8], "split_index": 2}}
        )
    with pytest.raises(ConfigError, match=r"\$\.model\.bald_dropout"):
        parse_config({"methods": ["bald"], "model": {"bald_dropout": 1.0}})
    with pytest.raises(ConfigError, match=r"\$\.model\.bald_passes"):
        parse_config({"methods": ["bald"], "model": {"bald_passes": 1}})


def test_bias_classes_parsing():
    cfg = parse_config({"methods": ["random"], "bias_classes": [0, 2]})
    assert cfg.bias_classes == (0, 2)
    assert parse_config({"methods": ["random"]}).bias_classes is None


def test_config_to_json_is_deterministic_and_renames_lambda():
    cfg = parse_config({"methods": ["mpts", "random"], "train": {"lambda": 0.3}})
    echo = config_to_json(cfg)
    assert echo == config_to_json(cfg)
    data = json.loads(echo)
    assert data["train"]["lambda"] == 0.3
    assert "mmd_weight" not in data["train"]
    assert "seed" not in data["train"]
    # echo reparses to the same config
    assert parse_config(data) == cfg


def test_default_experiment_config_mirrors_parse_defaults():
    # the dataclass defaults and the parser defaults must agree
    parsed = parse_config({"methods": ["random"]})
    stock = ExperimentConfig(methods=("random",))
    assert parsed == stock


# every configurable field set to a value other than its default
EVERY_FIELD = {
    "dataset": {
        "kind": "mnist", "pool_size": 300, "standardize": "labeled", "test_fraction": 0.3,
        "class_count": 3, "per_class": 50, "dim": 5, "separation": 2.5,
        "images_path": "train-images", "labels_path": "train-labels",
        "test_images_path": "test-images", "test_labels_path": "test-labels",
        "path": "table.csv", "label_column": "y",
    },
    "initial_count": 10, "budget": 7, "rounds": 3, "repeats": 2,
    "methods": ["mpts", "bald"],
    "train": {
        "epochs": 20, "base_lr": 0.01, "batch_size": 16, "lambda": 0.5, "weight_decay": 0.001,
        "n_checkpoints": 2, "lr_floor_ratio": 0.5, "kernel": [0.5, 2.0],
    },
    "model": {"hidden": [32, 16], "split_index": 1, "bald_dropout": 0.25, "bald_passes": 5},
    "bias_classes": [0, 2], "master_seed": 11, "output_dir": "elsewhere", "dump_scores": True,
}


def test_every_field_round_trips():
    cfg = parse_config(EVERY_FIELD)
    assert parse_config(json.loads(config_to_json(cfg))) == cfg


def test_every_field_config_covers_every_field():
    # a field whose annotation the parser has no kind for fails only when its
    # key is set, so the round-trip config above must set every field
    cfg = parse_config(EVERY_FIELD)
    exempt = {(ExperimentConfig, "dataset"), (ExperimentConfig, "train"), (ExperimentConfig, "model")}
    sections = [
        (ExperimentConfig, EVERY_FIELD, cfg),
        (DatasetConfig, EVERY_FIELD["dataset"], cfg.dataset),
        (TrainConfig, EVERY_FIELD["train"], cfg.train),
        (ModelConfig, EVERY_FIELD["model"], cfg.model),
    ]
    for cls, doc, parsed in sections:
        for f in dataclasses.fields(cls):
            if (cls, f.name) in exempt:
                continue
            key = "lambda" if f.name == "mmd_weight" else f.name
            assert key in doc, f"{cls.__name__}.{f.name} is not set"
            if f.default is not dataclasses.MISSING:
                assert getattr(parsed, f.name) != f.default, f"{cls.__name__}.{f.name} is the default"
