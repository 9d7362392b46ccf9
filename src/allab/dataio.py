"""Dataset ingestion: MNIST-style IDX files, CSV tables, synthetic blobs.

Parsers reject malformed input with positional diagnostics (byte offsets for
IDX, row/column numbers for CSV) and never silently truncate.  CSV files are
UTF-8.  IDX files are read straight into one preallocated uint8 pixel array
once their headers check out; uint8 features are such pixels (``_full_scale``).
"""

from __future__ import annotations

import csv
import math
import os
import stat
import struct
from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from .errors import FormatError

__all__ = [
    "Dataset",
    "IMAGE_MAGIC",
    "LABEL_MAGIC",
    "load_mnist",
    "load_csv",
    "read_csv_rows",
    "synth_blobs",
    "feature_values",
    "standardize",
]

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


@dataclass
class Dataset:
    """A loaded dataset of float64 CSV or synthetic features, or uint8 IDX pixels
    (see :func:`feature_values`); ``experiment.start_partition`` makes them float32."""

    features: np.ndarray  # (n, d) float64, finite, or uint8 pixels
    labels: np.ndarray  # (n,) int64 in [0, class_count)
    class_count: int
    designated_test_idx: np.ndarray | None = None
    label_names: list[str] | None = None  # original CSV label strings, index = class id


def _open_idx(files: ExitStack, path, magic: int, n_dims: int):
    """Open an IDX file on ``files`` and read its big-endian header; the
    magic must match and the file's length must be the header's and the
    body's.  Returns the file, left at its first body byte, and the dims."""
    try:
        f = files.enter_context(open(path, "rb"))
        st = os.fstat(f.fileno())
        if not stat.S_ISREG(st.st_mode):  # a pipe's length is unknown until it is read
            raise FormatError(f"{path}: not a regular file")
        head = f.read(4 + 4 * n_dims)
    except OSError as e:
        raise FormatError(f"{path}: cannot read: {e.strerror or e}") from None
    if len(head) < 4:
        raise FormatError(f"{path}: byte 0: truncated header (need 4 bytes)")
    (got,) = struct.unpack_from(">I", head)
    if got != magic:
        raise FormatError(f"{path}: byte 0: bad magic 0x{got:08x} (expected 0x{magic:08x})")
    if len(head) < 4 + 4 * n_dims:
        raise FormatError(f"{path}: byte 4: truncated header (need {4 + 4 * n_dims} bytes)")
    dims = struct.unpack_from(f">{n_dims}I", head, 4)
    expected = len(head) + math.prod(dims)  # one byte per pixel or label
    if st.st_size != expected:
        what = f"{dims[0]} images of {dims[1]}x{dims[2]}" if n_dims == 3 else f"{dims[0]} labels"
        raise FormatError(
            f"{path}: byte {min(st.st_size, expected)}: "
            f"expected {expected} bytes for {what}, got {st.st_size}"
        )
    return f, dims


def load_mnist(images_path, labels_path, test_images_path=None, test_labels_path=None) -> Dataset:
    """IDX train files plus an optional designated test split, concatenated.

    Every header and file length is checked (train images, train labels, test
    images, test labels, then the test width) before each file is read straight
    into its rows of one uint8 array.  The pixels stay uint8, divided by 255
    only when a partition's features are made (:func:`feature_values`).
    """
    pairs = [(images_path, labels_path), (test_images_path, test_labels_path)]
    with ExitStack() as files:
        splits = []  # (images path, images file, labels file, count, width)
        for img_path, lab_path in pairs[: 1 if test_images_path is None else 2]:
            img, (count, rows, cols) = _open_idx(files, img_path, IMAGE_MAGIC, 3)
            lab, (count_l,) = _open_idx(files, lab_path, LABEL_MAGIC, 1)
            if count_l != count:
                raise FormatError(
                    f"{lab_path}: byte 4: label count {count_l} does not match image count {count}"
                )
            splits.append((img_path, img, lab, count, rows * cols))
        width = splits[0][4]
        for path, _, _, _, w in splits:
            if w != width:
                raise FormatError(f"{path}: byte 8: {w} pixels per image, the train images have {width}")
        pixels = np.empty((sum(split[3] for split in splits), width), dtype=np.uint8)
        labels = np.empty(len(pixels), dtype=np.uint8)
        try:
            for (_, img, lab, count, _), start in zip(splits, (0, splits[0][3])):
                for f, body in ((img, pixels[start:start + count]), (lab, labels[start:start + count])):
                    if f.readinto(body) != body.nbytes:  # the file shrank after its length was checked
                        raise FormatError(f"{f.name}: shorter than its checked length")
        except OSError as e:
            raise FormatError(f"{f.name}: cannot read: {e.strerror or e}") from None
    return Dataset(
        features=pixels,
        labels=labels.astype(np.int64),
        class_count=int(labels.max()) + 1 if len(labels) else 0,
        designated_test_idx=None if len(splits) == 1 else np.arange(splits[0][3], len(labels)),
    )


def read_csv_rows(path) -> list[list[str]]:
    """Every row of a UTF-8 CSV file, less a leading byte-order mark; one that cannot
    be read, is not UTF-8 or breaks the CSV reader (a field over its size limit,
    say) is a FormatError naming it."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as f:
            reader = csv.reader(f)
            return list(reader)
    except OSError as e:
        raise FormatError(f"{path}: cannot read: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not UTF-8 text: {e.reason}") from None
    except csv.Error as e:
        raise FormatError(f"{path}: line {reader.line_num}: {e}") from None


def load_csv(path, label_column: str = "last") -> Dataset:
    """Parse a rectangular CSV with a header row.

    Feature cells must be finite numbers (``nan`` and ``inf`` are rejected).
    Label values (any strings) are mapped to 0..C-1 in first-appearance
    order; the mapping is kept on the dataset as ``label_names``.  Row/column
    positions in error messages are 1-based, with the header as row 1.
    """
    rows = read_csv_rows(path)
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


# rows of the float64 block in which standardize and feature_values compute
_ROW_BLOCK = 256


def _full_scale(X: np.ndarray) -> float:
    """X's values are X over this: uint8 features are IDX pixels, values pixels / 255."""
    return 255.0 if X.dtype == np.uint8 else 1.0


def _value_blocks(X: np.ndarray, rows, buf: np.ndarray):
    """The float64 feature values of X[rows] (of every row of X when rows is
    None), ``len(buf)`` rows at a time, each block written into buf's leading rows."""
    full, n = _full_scale(X), len(X) if rows is None else len(rows)
    for i in range(0, n, len(buf)):
        part = X[i : i + len(buf)] if rows is None else X[rows[i : i + len(buf)]]
        yield np.divide(part, full, out=buf[: len(part)])


def _write_scaled(X: np.ndarray, shift, scale, dtype, rows=None) -> np.ndarray:
    """(X[rows]'s values - shift) / scale (every row's when rows is None) as a
    new ``dtype`` array, computed in float64 ``_ROW_BLOCK`` rows at a time: a
    float32 result is the float64 one rounded (beyond float32's range, to
    +-inf), and no full float64 copy is made."""
    out = np.empty((len(X) if rows is None else len(rows), X.shape[1]), dtype)
    buf = np.empty((min(_ROW_BLOCK, len(out)), X.shape[1]))
    for i, block in zip(range(0, len(out), _ROW_BLOCK), _value_blocks(X, rows, buf)):
        block -= shift
        block /= scale
        out[i : i + len(block)] = block
    return out


def feature_values(X: np.ndarray, dtype) -> np.ndarray:
    """X's feature values as ``dtype`` (uint8 pixels over 255, other features as
    they are): X itself when it is of that dtype, otherwise a new array."""
    if X.dtype == dtype:
        return X
    return _write_scaled(X, 0.0, 1.0, dtype)


def _column_sums(X: np.ndarray, rows: np.ndarray, buf: np.ndarray, centre=None) -> np.ndarray:
    """The column sums of the values of X[rows], or of their squared
    deviations from ``centre``, in float64, bit for bit numpy's axis-0 sum of
    them all: that sum adds the rows one by one in order, so each block after
    the first is summed with the running sums as its first row, ``buf[0]``;
    the blocks are written into ``buf[1:]``."""
    sums = None
    for block in _value_blocks(X, rows, buf[1:]):
        if centre is not None:
            block -= centre
            np.square(block, out=block)
        if sums is not None:
            buf[0] = sums
            block = buf[: len(block) + 1]
        sums = block.sum(axis=0)
    return sums


def standardize(X: np.ndarray, stats_rows: np.ndarray, dtype, rows=None) -> np.ndarray:
    """Per-feature standardization v' = (v - mean) / std of the feature values
    v of X's sorted rows ``rows`` (of every row when rows is None), as a new
    ``(len(rows), d)`` array of ``dtype``.

    Statistics come from the rows ``stats_rows``; std is the population
    convention (divide by n).  Features with zero std are left untouched
    (neither centered nor scaled).  X may be uint8 pixels; everything is
    computed in float64, as ``_write_scaled`` does.
    """
    # the mean and the std are ndarray.std's steps (so its bits), taken in two
    # passes over float64 blocks of the statistics rows; numpy sums a single
    # column pairwise, not row by row, so a one-column input is one block.  The
    # block is freed before the output is built
    stats_rows = np.asarray(stats_rows)
    n, d = len(stats_rows), X.shape[1]
    buf = np.empty((1 + (n if d == 1 else min(_ROW_BLOCK, n)), d))
    mean = _column_sums(X, stats_rows, buf) / n
    std = np.sqrt(_column_sums(X, stats_rows, buf, mean) / n)  # population: ddof=0
    del buf
    constant = std == 0.0
    return _write_scaled(X, np.where(constant, 0.0, mean), np.where(constant, 1.0, std), dtype, rows)
