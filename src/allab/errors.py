"""Exception types shared across the package, and the kind and bound checks of
config fields.

A config dataclass raises one kind of error for a broken rule, a FieldError
naming the field, so the parser can put every rule under its JSON key.  The
CLI maps the exception types onto distinct exit codes (listed in the ``cli``
module docstring).
"""

from dataclasses import fields
from functools import cache


class DimensionError(ValueError):
    """Operand shapes do not agree."""


class ConfigError(ValueError):
    """Invalid experiment configuration (bad JSON, unknown key, broken invariant)."""


class FieldError(ValueError):
    """A config field breaks its dataclass's rule: ``<key>: <message>``, where
    ``key`` is the field's name, or an item of it (``hidden[1]``).  It is the
    one exception a config dataclass raises for a broken rule; a rule over
    several fields names the one that must change."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key, self.message = key, message


# scalar annotation -> (accepts a value, what the value must be, plural noun)
_SCALAR_KINDS = {
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer", "integers"),
    "float": (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), "a number", "numbers"),
    "str": (lambda v: isinstance(v, str), "a string", "strings"),
    "bool": (lambda v: isinstance(v, bool), "true/false", None),
}


def check_kinds(cfg) -> None:
    """Check every field of dataclass ``cfg`` against its annotation with
    ``check_kind`` and store the value in its one form; this is the one reader
    of config field annotations.  A field left at its default is not checked."""
    for name, default, kind in _kinds(type(cfg)):
        value = getattr(cfg, name)
        if value is not default:
            object.__setattr__(cfg, name, check_kind(value, kind, name))


@cache
def _kinds(cls) -> tuple[tuple[str, object, str], ...]:
    return tuple((f.name, f.default, f.type) for f in fields(cls))


def check_kind(value, kind: str, key: str):
    """``value`` in its one form for annotation ``kind``, or a FieldError naming ``key``:
    a float for ``float`` (an integer too), a tuple for ``tuple[X, ...]`` (from a
    nonempty tuple or list, a bad item named by its index), and None also for
    ``X | None``.  Any other annotation is not checked here."""
    if kind.endswith(" | None"):
        if value is None:
            return None
        kind = kind[: -len(" | None")]
    if kind.startswith("tuple[") and kind.endswith(", ...]"):
        item = kind[len("tuple[") : -len(", ...]")]
        if not isinstance(value, (tuple, list)) or not value:
            raise FieldError(key, f"expected a nonempty list of {_SCALAR_KINDS[item][2]}, got {value!r}")
        return tuple(check_kind(v, item, f"{key}[{i}]") for i, v in enumerate(value))
    if kind in _SCALAR_KINDS:
        accepts, noun, _ = _SCALAR_KINDS[kind]
        if not accepts(value):
            raise FieldError(key, f"expected {noun}, got {value!r}")
        if kind == "float":
            return float(value)
    return value


def at_least(cfg, low: int, *names: str) -> None:
    """A FieldError for the first of the fields ``names`` of ``cfg`` below ``low``;
    None passes."""
    for name in names:
        value = getattr(cfg, name)
        if value is not None and value < low:
            raise FieldError(name, f"must be >= {low}, got {value}")


class FormatError(ValueError):
    """Malformed input data file (IDX or CSV)."""


class PoolError(RuntimeError):
    """Invalid pool-state operation (e.g. labeling an already-labeled index)."""


class TrainingDiverged(RuntimeError):
    """Loss or gradient became non-finite during training."""
