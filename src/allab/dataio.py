"""Dataset ingestion: MNIST-style IDX files, CSV tables, synthetic blobs.

Parsers reject malformed input with positional diagnostics (byte offsets for
IDX, row/column numbers for CSV) and never silently truncate.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError

__all__ = [
    "Dataset",
    "IMAGE_MAGIC",
    "LABEL_MAGIC",
    "load_mnist",
    "load_csv",
    "synth_blobs",
    "standardize",
]

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


@dataclass
class Dataset:
    features: np.ndarray  # (n, d) float64, finite
    labels: np.ndarray  # (n,) int64 in [0, class_count)
    class_count: int
    designated_test_idx: np.ndarray | None = None
    label_names: list[str] | None = None  # original CSV label strings, index = class id


def _read_u32s(raw: bytes, path, offset: int, count: int) -> tuple[int, ...]:
    end = offset + 4 * count
    if end > len(raw):
        raise FormatError(f"{path}: byte {offset}: truncated header (need {end} bytes)")
    return struct.unpack_from(f">{count}I", raw, offset)


def _read_bytes(path) -> bytes:
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as e:
        raise FormatError(f"{path}: cannot read: {e.strerror or e}") from None


def _parse_idx_pair(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """One big-endian IDX image/label file pair as (n, rows * cols) uint8
    pixels, flattened row-major, and int64 labels; the counts must agree."""
    raw = _read_bytes(images_path)
    (magic,) = _read_u32s(raw, images_path, 0, 1)
    if magic != IMAGE_MAGIC:
        raise FormatError(
            f"{images_path}: byte 0: bad magic 0x{magic:08x} (expected 0x{IMAGE_MAGIC:08x})"
        )
    count, rows, cols = _read_u32s(raw, images_path, 4, 3)
    expected = 16 + count * rows * cols
    if len(raw) != expected:
        raise FormatError(
            f"{images_path}: byte {min(len(raw), expected)}: "
            f"expected {expected} bytes for {count} images of {rows}x{cols}, got {len(raw)}"
        )
    pixels = np.frombuffer(raw, dtype=np.uint8, offset=16).reshape(count, rows * cols)

    raw_l = _read_bytes(labels_path)
    (magic_l,) = _read_u32s(raw_l, labels_path, 0, 1)
    if magic_l != LABEL_MAGIC:
        raise FormatError(
            f"{labels_path}: byte 0: bad magic 0x{magic_l:08x} (expected 0x{LABEL_MAGIC:08x})"
        )
    (count_l,) = _read_u32s(raw_l, labels_path, 4, 1)
    if len(raw_l) != 8 + count_l:
        raise FormatError(
            f"{labels_path}: byte {min(len(raw_l), 8 + count_l)}: "
            f"expected {8 + count_l} bytes for {count_l} labels, got {len(raw_l)}"
        )
    if count_l != count:
        raise FormatError(
            f"{labels_path}: byte 4: label count {count_l} does not match image count {count}"
        )
    return pixels, np.frombuffer(raw_l, dtype=np.uint8, offset=8).astype(np.int64)


def load_mnist(images_path, labels_path, test_images_path=None, test_labels_path=None) -> Dataset:
    """IDX train files plus an optional designated test split, concatenated.

    Each split's pixels are divided by 255 straight into its rows of the one
    float64 feature array (the uint8 -> float64 cast is exact).
    """
    pairs = [(images_path, *_parse_idx_pair(images_path, labels_path))]
    if test_images_path is not None:
        pairs.append((test_images_path, *_parse_idx_pair(test_images_path, test_labels_path)))
    n_train, width = pairs[0][1].shape
    labels = np.concatenate([labels for _, _, labels in pairs])
    features = np.empty((len(labels), width))
    at = 0
    for path, pixels, _ in pairs:
        if pixels.shape[1] != width:
            raise FormatError(
                f"{path}: byte 8: {pixels.shape[1]} pixels per image, the train images have {width}"
            )
        np.divide(pixels, 255.0, out=features[at:at + len(pixels)])
        at += len(pixels)
    return Dataset(
        features=features,
        labels=labels,
        class_count=int(labels.max()) + 1 if len(labels) else 0,
        designated_test_idx=None if len(pairs) == 1 else np.arange(n_train, len(labels)),
    )


def load_csv(path, label_column: str = "last") -> Dataset:
    """Parse a rectangular CSV with a header row.

    Feature cells must be finite numbers (``nan`` and ``inf`` are rejected).
    Label values (any strings) are mapped to 0..C-1 in first-appearance
    order; the mapping is kept on the dataset as ``label_names``.  Row/column
    positions in error messages are 1-based, with the header as row 1.
    """
    try:
        with open(path, newline="") as f:
            reader = csv.reader(f)
            rows = list(reader)
    except OSError as e:
        raise FormatError(f"{path}: cannot read: {e.strerror or e}") from None
    if not rows:
        raise FormatError(f"{path}: empty file")
    header = rows[0]
    if all(_is_number(c) for c in header):
        raise FormatError(f"{path}: row 1: expected a header row, found only numbers")
    if label_column == "last":
        label_pos = len(header) - 1
    else:
        if label_column not in header:
            raise FormatError(f"{path}: row 1: no column named {label_column!r}")
        label_pos = header.index(label_column)
    if len(header) < 2:
        raise FormatError(f"{path}: row 1: no feature column, only the label column {header[label_pos]!r}")

    feature_pos = [i for i in range(len(header)) if i != label_pos]
    features = np.empty((len(rows) - 1, len(feature_pos)))
    label_names: list[str] = []
    mapping: dict[str, int] = {}
    labels = np.empty(len(rows) - 1, dtype=np.int64)
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise FormatError(
                f"{path}: row {r}: has {len(row)} cells, header has {len(header)}"
            )
        for j, c in enumerate(feature_pos):
            cell = row[c]
            try:
                features[r - 2, j] = float(cell)
            except ValueError:
                raise FormatError(
                    f"{path}: row {r}, column {c + 1}: non-numeric feature cell {cell!r}"
                ) from None
        raw_label = row[label_pos]
        if raw_label not in mapping:
            mapping[raw_label] = len(label_names)
            label_names.append(raw_label)
        labels[r - 2] = mapping[raw_label]
    if features.shape[0] == 0:
        raise FormatError(f"{path}: no data rows after the header")
    bad = np.argwhere(~np.isfinite(features))
    if len(bad):
        i, j = (int(k) for k in bad[0])
        raise FormatError(
            f"{path}: row {i + 2}, column {feature_pos[j] + 1}: "
            f"non-finite feature cell {rows[i + 1][feature_pos[j]]!r}"
        )

    return Dataset(
        features=features,
        labels=labels,
        class_count=len(label_names),
        label_names=label_names,
    )


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def synth_blobs(
    class_count: int,
    per_class: int,
    dim: int,
    separation: float,
    rng: np.random.Generator,
) -> Dataset:
    """Isotropic unit-variance Gaussian blobs at seeded random centers.

    Centers are standard normal draws scaled by ``separation``; points are
    generated class-blocked (all of class 0 first, and so on).
    """
    if class_count < 1 or per_class < 1 or dim < 1:
        raise ValueError("class_count, per_class and dim must all be >= 1")
    centers = rng.standard_normal((class_count, dim)) * separation
    features = np.empty((class_count * per_class, dim))
    labels = np.empty(class_count * per_class, dtype=np.int64)
    for c in range(class_count):
        block = slice(c * per_class, (c + 1) * per_class)
        features[block] = centers[c] + rng.standard_normal((per_class, dim))
        labels[block] = c
    return Dataset(
        features=features,
        labels=labels,
        class_count=class_count,
    )


def standardize(X: np.ndarray, stats_rows: np.ndarray) -> np.ndarray:
    """Per-feature standardization x' = (x - mean) / std of every row of X,
    as a new array.

    Statistics come from the rows ``stats_rows``; std is the population
    convention (divide by n).  Features with zero std are left untouched
    (neither centered nor scaled).
    """
    # the std is computed in place on a copy of the statistics rows, step for
    # step as ndarray.std does it (so bit for bit), and the copy is freed
    # before the output is built
    src = X[np.asarray(stats_rows)]
    mean = src.mean(axis=0)
    src -= mean
    np.square(src, out=src)
    std = np.sqrt(src.sum(axis=0) / len(src))  # population: ddof=0
    del src
    constant = std == 0.0
    scaled = np.subtract(X, np.where(constant, 0.0, mean))
    scaled /= np.where(constant, 1.0, std)
    return scaled
