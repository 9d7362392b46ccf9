"""Exception types shared across the package, and the kind check of config fields.

The CLI maps these onto distinct exit codes (listed in the ``cli`` module docstring).
"""

from dataclasses import fields
from functools import cache


class DimensionError(ValueError):
    """Operand shapes do not agree."""


class ConfigError(ValueError):
    """Invalid experiment configuration (bad JSON, unknown key, broken invariant)."""


class FieldError(ValueError):
    """A config field breaks its dataclass's rule: ``<JSON key>: <message>``."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")


# scalar annotation -> (accepts a value, what the value must be, plural noun)
SCALAR_KINDS = {
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer", "integers"),
    "float": (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), "a number", "numbers"),
    "str": (lambda v: isinstance(v, str), "a string", "strings"),
    "bool": (lambda v: isinstance(v, bool), "true/false", None),
}


def check_kinds(cfg) -> None:
    """Raise FieldError naming the first field of dataclass ``cfg`` whose value
    is not of its annotated kind: a ``SCALAR_KINDS`` scalar, ``X | None``, or
    ``tuple[X, ...]`` (a tuple or list, each item named by its index).  A field
    left at its default, or of another annotation, is not checked here."""
    for name, default, kind in _kinds(type(cfg)):
        value = getattr(cfg, name)
        if value is not default:
            _check_kind(value, kind, name)


@cache
def _kinds(cls) -> tuple[tuple[str, object, str], ...]:
    return tuple((f.name, f.default, f.type) for f in fields(cls))


def _check_kind(value, kind: str, key: str) -> None:
    if kind.endswith(" | None"):
        if value is None:
            return
        kind = kind[: -len(" | None")]
    if kind in SCALAR_KINDS:
        accepts, noun, _ = SCALAR_KINDS[kind]
        if not accepts(value):
            raise FieldError(key, f"expected {noun}, got {value!r}")
    elif kind.startswith("tuple[") and kind.endswith(", ...]"):
        item = kind[len("tuple[") : -len(", ...]")]
        if not isinstance(value, (tuple, list)):
            raise FieldError(key, f"expected a tuple of {SCALAR_KINDS[item][2]}, got {value!r}")
        for i, v in enumerate(value):
            _check_kind(v, item, f"{key}[{i}]")


class FormatError(ValueError):
    """Malformed input data file (IDX or CSV)."""


class PoolError(RuntimeError):
    """Invalid pool-state operation (e.g. labeling an already-labeled index)."""


class TrainingDiverged(RuntimeError):
    """Loss or gradient became non-finite during training."""
