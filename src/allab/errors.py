"""Exception types shared across the package.

The CLI maps these onto distinct exit codes (listed in the ``cli`` module docstring).
"""


class DimensionError(ValueError):
    """Operand shapes do not agree."""


class ConfigError(ValueError):
    """Invalid experiment configuration (bad JSON, unknown key, broken invariant)."""


class FieldError(ValueError):
    """A config field breaks its dataclass's rule: ``<JSON key>: <message>``."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")


class FormatError(ValueError):
    """Malformed input data file (IDX or CSV)."""


class PoolError(RuntimeError):
    """Invalid pool-state operation (e.g. labeling an already-labeled index)."""


class TrainingDiverged(RuntimeError):
    """Loss or gradient became non-finite during training."""
