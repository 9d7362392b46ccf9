"""Deterministic random-number streams.

All randomness in the package flows through numpy's PCG64 generator.  Streams
for distinct purposes are derived from one master seed by hashing a tag path
(a purpose string followed by integer indices) into the SeedSequence entropy,
so a cell's streams are the same however the cells are stacked or ordered,
and distinct streams do not overlap.

Derivation rule: each string component is replaced by the first 8 bytes of its
SHA-256 digest (big-endian unsigned); integer components are used as-is.  The
resulting word list seeds a ``numpy.random.SeedSequence``.  Distinct tag paths
therefore yield independent streams, and the same (master_seed, path) always
yields the same stream on every platform.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["derive_int", "derive_rng", "derive_seed_words"]

_MASK64 = (1 << 64) - 1


def _component_word(part: str | int) -> int:
    if isinstance(part, bool):  # bool is an int subclass; reject to avoid surprises
        raise TypeError("seed path components must be str or int, not bool")
    if isinstance(part, int):
        return part & _MASK64
    if isinstance(part, str):
        digest = hashlib.sha256(part.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")
    raise TypeError(f"seed path components must be str or int, got {type(part).__name__}")


def derive_seed_words(master_seed: int, *path: str | int) -> list[int]:
    """Return the entropy word list for (master_seed, path)."""
    return [int(master_seed) & _MASK64] + [_component_word(p) for p in path]


def derive_rng(master_seed: int, *path: str | int) -> np.random.Generator:
    """Create a PCG64 generator for the given purpose path.

    Example: ``derive_rng(seed, "train", "mpts", repeat, round)``.
    """
    seq = np.random.SeedSequence(derive_seed_words(master_seed, *path))
    return np.random.Generator(np.random.PCG64(seq))


def derive_int(master_seed: int, *path: str | int) -> int:
    """Collapse (master_seed, path) into one 63-bit integer seed.

    Used where an interface wants a plain scalar seed (for example a training
    configuration) rather than a generator; feeding the result back through
    ``derive_rng(value)`` gives a stream fully determined by it.
    """
    seq = np.random.SeedSequence(derive_seed_words(master_seed, *path))
    return int(seq.generate_state(1, np.uint64)[0] >> np.uint64(1))

