"""Experiment configuration: JSON schema, strict parsing, provenance echo.

The dataclasses are the schema: a field's name is its JSON key, its annotation
is the JSON kind, and its default is the value used when the key is absent.
Each dataclass checks its own rules in ``__post_init__``, the kinds of its
fields first (``errors.check_kinds``, which also stores each value in its one
form: tuples, and floats for float fields), so configs built in Python or by
``dataclasses.replace`` get the checks and the values a parsed one gets.  A
broken rule is always a FieldError naming one field.  The parser only maps
JSON keys to fields: it passes the values as they are, rejects unknown keys
(typo safety) and missing required ones, and names the JSON path of every
error, a FieldError's field under its JSON key.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import cache

from .acquisition import METHODS
from .errors import ConfigError, FieldError, at_least, check_kinds
from .trainer import TrainConfig

__all__ = ["DatasetConfig", "ModelConfig", "ExperimentConfig", "parse_config", "config_to_json"]

# TrainConfig fields whose JSON key is not their name: the MMD weight is keyed "lambda"
_TRAIN_KEYS = {"mmd_weight": "lambda"}

_fields = cache(fields)  # dataclasses.fields rebuilds its tuple on every call


def _check_split(split: int, hidden: tuple[int, ...]) -> None:
    if not 1 <= split <= len(hidden):
        raise FieldError(
            "split_index", f"must be in [1, {len(hidden)}] for the hidden sizes {list(hidden)}, got {split}"
        )


@dataclass(frozen=True)
class DatasetConfig:
    kind: str = "synthetic"
    pool_size: int | None = None
    # "none" | "pool" | "labeled"; left unset, "pool" when kind is csv, else "none"
    standardize: str | None = None
    test_fraction: float = 0.2
    # synthetic
    class_count: int = 4
    per_class: int = 250
    dim: int = 8
    separation: float = 6.0
    # mnist
    images_path: str | None = None
    labels_path: str | None = None
    test_images_path: str | None = None
    test_labels_path: str | None = None
    # csv
    path: str | None = None
    label_column: str = "last"

    def __post_init__(self):
        check_kinds(self)
        if self.kind not in ("synthetic", "mnist", "csv"):
            raise FieldError("kind", f"must be synthetic, mnist or csv, got {self.kind!r}")
        if self.standardize is None:
            object.__setattr__(self, "standardize", "pool" if self.kind == "csv" else "none")
        elif self.standardize not in ("none", "pool", "labeled"):
            raise FieldError("standardize", f"must be none, pool or labeled, got {self.standardize!r}")
        if not 0.0 < self.test_fraction < 1.0:
            raise FieldError("test_fraction", f"must be in (0, 1), got {self.test_fraction}")
        for name in {"mnist": ("images_path", "labels_path"), "csv": ("path",)}.get(self.kind, ()):
            if getattr(self, name) is None:
                raise FieldError(name, f"required when kind is {self.kind}")
        pair = ("test_images_path", "test_labels_path")
        for name, other in (pair, pair[::-1]):
            if self.kind == "mnist" and getattr(self, name) is None and getattr(self, other) is not None:
                raise FieldError(name, f"required with {other}")
        at_least(self, 1, "pool_size", "class_count", "per_class", "dim")


@dataclass(frozen=True)
class ModelConfig:
    hidden: tuple[int, ...] | None = None  # None: [128] for 784-d inputs, else [64, 64]
    split_index: int | None = None  # None: feature layer = last hidden layer
    bald_dropout: float = 0.5
    bald_passes: int = 20

    def __post_init__(self):
        check_kinds(self)
        if self.hidden is not None:
            if any(h < 1 for h in self.hidden):
                raise FieldError("hidden", f"sizes must be >= 1, got {list(self.hidden)}")
            if self.split_index is not None:
                _check_split(self.split_index, self.hidden)
        if not 0.0 < self.bald_dropout < 1.0:
            raise FieldError("bald_dropout", f"must be in (0, 1), got {self.bald_dropout}")
        at_least(self, 2, "bald_passes")

    def resolve(self, input_dim: int, class_count: int) -> tuple[tuple[int, ...], int]:
        """Concrete (layer_sizes, split_index) for a dataset's dimensions.

        A split_index outside the resolved hidden layers is a ConfigError; with
        ``hidden`` null those layers are known only once the data is loaded.
        """
        hidden = self.hidden
        if hidden is None:
            hidden = (128,) if input_dim == 784 else (64, 64)
        split = self.split_index if self.split_index is not None else len(hidden)
        try:
            _check_split(split, hidden)
        except FieldError as e:
            raise ConfigError(f"$.model.{e}") from None
        return (input_dim, *hidden, class_count), split


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    initial_count: int = 100
    budget: int = 100
    rounds: int = 5
    repeats: int = 5
    methods: tuple[str, ...] = field(kw_only=True)  # required
    train: TrainConfig = field(default_factory=TrainConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    bias_classes: tuple[int, ...] | None = None
    master_seed: int = 0
    output_dir: str = "results"
    dump_scores: bool = False

    def __post_init__(self):
        check_kinds(self)
        at_least(self, 1, "initial_count", "budget", "rounds", "repeats")
        for i, m in enumerate(self.methods):
            if m not in METHODS:
                raise FieldError(f"methods[{i}]", f"unknown method {m!r} (choices: {', '.join(METHODS)})")
            if m in self.methods[:i]:
                raise FieldError(f"methods[{i}]", f"duplicate method {m!r}")


class _Node:
    """One JSON object being consumed key-by-key; leftovers are errors."""

    def __init__(self, data, path: str):
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: expected an object, got {type(data).__name__}")
        self._data = dict(data)
        self._path = path

    def child(self, key: str) -> "_Node":
        return _Node(self._data.pop(key, {}), f"{self._path}.{key}")

    def build(self, cls, keys: dict | None = None, **given):
        """One ``cls`` from this object's keys.

        Fields in ``given`` are taken as passed.  Every other field gets the
        value of its key (its name, or ``keys[name]``) as it is, and ``cls``
        checks it; an absent key leaves the field's default, and a field
        without one is required.  A rule that ``cls`` breaks, a FieldError,
        is reported as this object's path and the field's JSON key.
        """
        keys = keys or {}
        for f in _fields(cls):
            key = keys.get(f.name, f.name)
            if f.name in given:
                continue
            if key in self._data:
                given[f.name] = self._data.pop(key)
            elif f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{self._path}.{key}: required key missing")
        if self._data:
            raise ConfigError(f"{self._path}.{min(self._data)}: unknown key")
        try:
            return cls(**given)
        except FieldError as e:
            raise ConfigError(f"{self._path}.{keys.get(e.key, e.key)}: {e.message}") from None


def parse_config(source) -> ExperimentConfig:
    """Parse a config from a UTF-8 JSON file's path (a leading byte-order mark is
    dropped, as RFC 8259 allows), a JSON string, or a pre-loaded dict."""
    if isinstance(source, dict):
        data = source
    else:
        if isinstance(source, str) and source.lstrip().startswith("{"):
            try:
                data = json.loads(source)
            except json.JSONDecodeError as e:
                raise ConfigError(f"malformed JSON: {e}") from None
        else:
            try:
                with open(source, encoding="utf-8-sig") as f:
                    data = json.load(f)
            except OSError as e:
                raise ConfigError(f"cannot read config: {e}") from None
            except UnicodeDecodeError as e:
                raise ConfigError(f"{source}: not UTF-8 text: {e.reason}") from None
            except json.JSONDecodeError as e:
                raise ConfigError(f"{source}: malformed JSON: {e}") from None

    root = _Node(data, "$")
    return root.build(
        ExperimentConfig,
        dataset=root.child("dataset").build(DatasetConfig),
        train=root.child("train").build(TrainConfig, _TRAIN_KEYS),
        model=root.child("model").build(ModelConfig),
    )


def config_to_json(cfg: ExperimentConfig) -> str:
    """Deterministic, fully-resolved JSON echo of a config."""
    data = asdict(cfg)
    for name, key in _TRAIN_KEYS.items():
        data["train"][key] = data["train"].pop(name)
    return json.dumps(data, indent=2, sort_keys=True) + "\n"
