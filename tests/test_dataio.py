"""Byte-level IDX fixtures, CSV diagnostics, synthetic blob determinism."""

import errno
import io
import os
import re
import struct
import tempfile
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from allab import dataio
from allab.dataio import (
    IMAGE_MAGIC,
    Dataset,
    LABEL_MAGIC,
    feature_values,
    load_csv,
    load_mnist,
    standardize,
    synth_blobs,
)
from allab.errors import FormatError
from allab.seeding import derive_rng
from idx_files import write_idx_images, write_idx_labels


def idx_fixture(tmp_path, pixels, labels):
    """Write an image/label IDX pair byte-by-byte, bypassing our writers."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    n, rows, cols = pixels.shape
    img = tmp_path / "imgs.idx"
    lab = tmp_path / "labs.idx"
    img.write_bytes(struct.pack(">IIII", IMAGE_MAGIC, n, rows, cols) + pixels.tobytes())
    lab.write_bytes(
        struct.pack(">II", LABEL_MAGIC, n) + np.asarray(labels, dtype=np.uint8).tobytes()
    )
    return img, lab


# ---- IDX -------------------------------------------------------------------

def _assert_pixel_features(ds, pixels):
    """The dataset holds the (n, rows * cols) pixels as uint8, and its feature
    values, ``feature_values(features, float64)``, are ``pixels / 255.0`` bit
    for bit."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    pixels = pixels.reshape(len(pixels), np.prod(pixels.shape[1:], dtype=int))
    assert ds.features.dtype == np.uint8 and ds.features.shape == pixels.shape
    assert np.array_equal(ds.features, pixels)
    assert feature_values(ds.features, np.float64).tobytes() == (pixels / 255.0).tobytes()


def test_idx_two_image_fixture(tmp_path):
    pixels = np.array(
        [
            [[0, 128], [255, 3]],
            [[7, 0], [0, 200]],
        ],
        dtype=np.uint8,
    )
    img, lab = idx_fixture(tmp_path, pixels, [4, 9])
    ds = load_mnist(img, lab)
    assert ds.features.shape == (2, 4)
    _assert_pixel_features(ds, pixels)
    assert ds.labels.tolist() == [4, 9]
    assert ds.class_count == 10  # max label + 1


def test_idx_roundtrip_through_writers(tmp_path):
    rng = derive_rng(0)
    pixels = rng.integers(0, 256, size=(5, 3, 3)).astype(np.uint8)
    labels = rng.integers(0, 7, size=5).astype(np.uint8)
    ref_img, ref_lab = idx_fixture(tmp_path, pixels, labels)
    out_img = tmp_path / "out_imgs.idx"
    out_lab = tmp_path / "out_labs.idx"
    write_idx_images(out_img, pixels)
    write_idx_labels(out_lab, labels)
    assert out_img.read_bytes() == ref_img.read_bytes()
    assert out_lab.read_bytes() == ref_lab.read_bytes()
    _assert_pixel_features(load_mnist(out_img, out_lab), pixels)


def test_idx_wrong_magic(tmp_path):
    img, lab = idx_fixture(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0])
    broken = tmp_path / "bad.idx"
    broken.write_bytes(struct.pack(">I", 0xDEADBEEF) + img.read_bytes()[4:])
    with pytest.raises(FormatError, match="byte 0.*magic"):
        load_mnist(broken, lab)
    broken_l = tmp_path / "badl.idx"
    broken_l.write_bytes(struct.pack(">I", IMAGE_MAGIC) + lab.read_bytes()[4:])
    with pytest.raises(FormatError, match="byte 0.*magic"):
        load_mnist(img, broken_l)


def test_idx_truncated_and_trailing(tmp_path):
    img, lab = idx_fixture(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])
    short = tmp_path / "short.idx"
    short.write_bytes(img.read_bytes()[:-3])
    with pytest.raises(FormatError, match="byte"):
        load_mnist(short, lab)
    long = tmp_path / "long.idx"
    long.write_bytes(img.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="expected 24 bytes"):
        load_mnist(long, lab)
    header_only = tmp_path / "hdr.idx"
    header_only.write_bytes(img.read_bytes()[:10])
    with pytest.raises(FormatError, match="truncated header"):
        load_mnist(header_only, lab)


def test_idx_count_mismatch(tmp_path):
    img, _ = idx_fixture(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])
    lab3 = tmp_path / "three.idx"
    write_idx_labels(lab3, np.array([0, 1, 2], dtype=np.uint8))
    with pytest.raises(FormatError, match="label count 3 does not match image count 2"):
        load_mnist(img, lab3)


def test_mnist_designated_test_concatenation(tmp_path):
    rng = derive_rng(1)
    tr_img, tr_lab = idx_fixture(
        tmp_path, rng.integers(0, 256, (4, 2, 2)).astype(np.uint8), [0, 1, 2, 0]
    )
    te_dir = tmp_path / "te"
    te_dir.mkdir()
    te_img, te_lab = idx_fixture(
        te_dir, rng.integers(0, 256, (3, 2, 2)).astype(np.uint8), [2, 1, 0]
    )
    ds = load_mnist(tr_img, tr_lab, te_img, te_lab)
    assert ds.features.shape == (7, 4)
    assert ds.designated_test_idx.tolist() == [4, 5, 6]
    assert ds.class_count == 3


def test_mnist_test_split_of_another_width(tmp_path):
    tr_img, tr_lab = idx_fixture(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])
    te_dir = tmp_path / "te"
    te_dir.mkdir()
    te_img, te_lab = idx_fixture(te_dir, np.zeros((1, 3, 3), dtype=np.uint8), [0])
    with pytest.raises(FormatError, match=r"imgs.idx: byte 8: 9 pixels per image, the train images have 4"):
        load_mnist(tr_img, tr_lab, te_img, te_lab)


def _reference_load_mnist(splits):
    """The loader as it was before it wrote into one preallocated array: per
    split astype(float64) then /255, and the splits stacked with vstack."""
    parsed = []
    for pixels, labels in splits:
        count, rows, cols = pixels.shape
        labels = labels.astype(np.int64)
        features = pixels.reshape(count, rows * cols).astype(np.float64) / 255.0
        parsed.append(Dataset(features, labels, int(labels.max()) + 1 if count else 0))
    if len(parsed) == 1:
        return parsed[0]
    train, test = parsed
    n_train = train.features.shape[0]
    return Dataset(
        features=np.vstack([train.features, test.features]),
        labels=np.concatenate([train.labels, test.labels]),
        class_count=max(train.class_count, test.class_count),
        designated_test_idx=np.arange(n_train, n_train + test.features.shape[0]),
    )


def _assert_same_dataset(got, ref, splits):
    """``got`` holds the splits' pixels, and its feature values are the
    reference's float64 features bit for bit."""
    _assert_pixel_features(got, np.concatenate([pixels for pixels, _ in splits]))
    values = feature_values(got.features, np.float64)
    assert values.dtype == ref.features.dtype and values.shape == ref.features.shape
    assert values.tobytes() == ref.features.tobytes()
    assert got.labels.dtype == ref.labels.dtype and got.labels.tolist() == ref.labels.tolist()
    assert got.class_count == ref.class_count
    if ref.designated_test_idx is None:
        assert got.designated_test_idx is None
    else:
        assert got.designated_test_idx.dtype == ref.designated_test_idx.dtype
        assert got.designated_test_idx.tolist() == ref.designated_test_idx.tolist()


_pixel = st.sampled_from([0, 255]) | st.integers(0, 255)


@st.composite
def _idx_splits(draw):
    """A train split and, half the time, a test split of 0 or 1 images."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    splits = []
    for count in (draw(st.integers(0, 5)), draw(st.none() | st.integers(0, 1))):
        if count is not None:
            pixels = draw(hnp.arrays(np.uint8, (count, rows, cols), elements=_pixel))
            labels = draw(hnp.arrays(np.uint8, count, elements=st.integers(0, 9)))
            splits.append((pixels, labels))
    return splits


@settings(max_examples=60, deadline=None)
@given(_idx_splits())
def test_mnist_loader_is_bitwise_the_astype_divide_vstack_parse(splits):
    with tempfile.TemporaryDirectory() as d:
        paths = []
        for k, (pixels, labels) in enumerate(splits):
            split_dir = Path(d) / str(k)
            split_dir.mkdir()
            paths.extend(idx_fixture(split_dir, pixels, labels))
        _assert_same_dataset(load_mnist(*paths), _reference_load_mnist(splits), splits)
        _assert_same_dataset(load_mnist(*paths[:2]), _reference_load_mnist(splits[:1]), splits[:1])


def _reference_read_u32s(raw: bytes, path, offset: int, count: int) -> tuple[int, ...]:
    end = offset + 4 * count
    if end > len(raw):
        raise FormatError(f"{path}: byte {offset}: truncated header (need {end} bytes)")
    return struct.unpack_from(f">{count}I", raw, offset)


def _reference_read_bytes(path) -> bytes:
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as e:
        raise FormatError(f"{path}: cannot read: {e.strerror or e}") from None


def _reference_parse_idx_pair(images_path, labels_path):
    raw = _reference_read_bytes(images_path)
    (magic,) = _reference_read_u32s(raw, images_path, 0, 1)
    if magic != IMAGE_MAGIC:
        raise FormatError(
            f"{images_path}: byte 0: bad magic 0x{magic:08x} (expected 0x{IMAGE_MAGIC:08x})"
        )
    count, rows, cols = _reference_read_u32s(raw, images_path, 4, 3)
    expected = 16 + count * rows * cols
    if len(raw) != expected:
        raise FormatError(
            f"{images_path}: byte {min(len(raw), expected)}: "
            f"expected {expected} bytes for {count} images of {rows}x{cols}, got {len(raw)}"
        )
    pixels = np.frombuffer(raw, dtype=np.uint8, offset=16).reshape(count, rows * cols)

    raw_l = _reference_read_bytes(labels_path)
    (magic_l,) = _reference_read_u32s(raw_l, labels_path, 0, 1)
    if magic_l != LABEL_MAGIC:
        raise FormatError(
            f"{labels_path}: byte 0: bad magic 0x{magic_l:08x} (expected 0x{LABEL_MAGIC:08x})"
        )
    (count_l,) = _reference_read_u32s(raw_l, labels_path, 4, 1)
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


def _reference_parse_mnist(images_path, labels_path, test_images_path=None, test_labels_path=None):
    """The IDX loader as it was before it read into one preallocated array:
    each file read whole into ``bytes``, each pair parsed in turn, and the
    splits concatenated."""
    pairs = [(images_path, *_reference_parse_idx_pair(images_path, labels_path))]
    if test_images_path is not None:
        pairs.append((test_images_path, *_reference_parse_idx_pair(test_images_path, test_labels_path)))
    n_train, width = pairs[0][1].shape
    for path, pixels, _ in pairs:
        if pixels.shape[1] != width:
            raise FormatError(
                f"{path}: byte 8: {pixels.shape[1]} pixels per image, the train images have {width}"
            )
    labels = np.concatenate([labels for _, _, labels in pairs])
    return Dataset(
        features=np.concatenate([pixels for _, pixels, _ in pairs]),
        labels=labels,
        class_count=int(labels.max()) + 1 if len(labels) else 0,
        designated_test_idx=None if len(pairs) == 1 else np.arange(n_train, len(labels)),
    )


def _load_closing_every_file(*paths):
    """``load_mnist(*paths)``, or the FormatError it raised; every file it
    opened is closed when it returns or raises."""
    opened = []

    def tracking_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    with mock.patch.object(dataio, "open", tracking_open, create=True):
        try:
            result = load_mnist(*paths)
        except FormatError as e:
            result = e
    assert opened and all(f.closed for f in opened)
    return result


def _idx_file_bytes(pixels, labels):
    return (
        struct.pack(">IIII", IMAGE_MAGIC, *pixels.shape) + pixels.tobytes(),
        struct.pack(">II", LABEL_MAGIC, len(labels)) + labels.tobytes(),
    )


@st.composite
def _corrupted_idx_files(draw):
    """The bytes of a train pair and, half the time, a test pair (of zero
    images or more, and possibly of another width), with one to three
    corruptions drawn over any of the files."""
    shapes = [(draw(st.integers(0, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        same_width = draw(st.booleans())
        rows, cols = shapes[0][1:] if same_width else (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
        shapes.append((draw(st.integers(0, 2)), rows, cols))
    files = []
    for shape in shapes:
        pixels = draw(hnp.arrays(np.uint8, shape, elements=_pixel))
        labels = draw(hnp.arrays(np.uint8, shape[0], elements=st.integers(0, 9)))
        files.extend(_idx_file_bytes(pixels, labels))
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(files) - 1))
        raw = files[k]
        kind = draw(st.sampled_from(["truncate", "trailing", "magic", "count"]))
        if kind == "truncate":
            raw = raw[:draw(st.integers(0, max(len(raw) - 1, 0)))]
        elif kind == "trailing":
            raw = raw + draw(st.binary(min_size=1, max_size=4))
        else:
            at = 0 if kind == "magic" else 4
            word = draw(st.sampled_from([IMAGE_MAGIC, LABEL_MAGIC, 0]) | st.integers(0, 6))
            raw = raw[:at] + struct.pack(">I", word) + raw[at + 4:]
        files[k] = raw
    return files


@settings(max_examples=300, deadline=None)
@given(_corrupted_idx_files())
def test_mnist_loader_fails_as_the_whole_file_parse_and_closes_every_file(files):
    with tempfile.TemporaryDirectory() as d:
        paths = []
        for k, raw in enumerate(files):
            paths.append(Path(d) / f"{k}.idx")
            paths[-1].write_bytes(raw)
        got = _load_closing_every_file(*paths)
        try:
            ref = _reference_parse_mnist(*paths)
        except FormatError as e:
            assert isinstance(got, FormatError) and str(got) == str(e)
            return
    assert not isinstance(got, FormatError), got
    assert got.features.dtype == ref.features.dtype and got.features.shape == ref.features.shape
    assert got.features.tobytes() == ref.features.tobytes()
    assert got.labels.dtype == ref.labels.dtype and got.labels.tolist() == ref.labels.tolist()
    assert got.class_count == ref.class_count
    if ref.designated_test_idx is None:
        assert got.designated_test_idx is None
    else:
        assert got.designated_test_idx.tolist() == ref.designated_test_idx.tolist()


def test_idx_directory_cannot_be_read(tmp_path):
    img, lab = idx_fixture(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0])
    with pytest.raises(FormatError, match=rf"^{re.escape(str(tmp_path))}: cannot read: Is a directory$"):
        load_mnist(tmp_path, lab)
    with pytest.raises(FormatError, match=rf"^{re.escape(str(tmp_path))}: cannot read: Is a directory$"):
        load_mnist(img, tmp_path)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
@pytest.mark.parametrize("which", [0, 1])
def test_idx_fifo_is_refused_by_name(tmp_path, which):
    # a FIFO's length is unknown until it is read to its end, so it cannot
    # be checked before the pixels are read: it is refused, not truncated
    paths = list(idx_fixture(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0]))
    fifo = tmp_path / "fifo.idx"
    os.mkfifo(fifo)
    data, paths[which] = paths[which].read_bytes(), fifo

    def write_the_file_into_the_fifo():
        # the writer then closes, so a loader that read the FIFO would reach
        # its end and the test would fail instead of hanging
        try:
            with open(fifo, "wb") as w:
                w.write(data)
        except BrokenPipeError:  # the loader closed its end unread
            pass

    writer = threading.Thread(target=write_the_file_into_the_fifo, daemon=True)
    writer.start()
    got = _load_closing_every_file(*paths)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert isinstance(got, FormatError) and str(got) == f"{fifo}: not a regular file"


def test_idx_file_that_shrinks_after_its_check_is_refused(tmp_path, monkeypatch):
    img, lab = idx_fixture(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])
    full_size = img.stat().st_size
    img.write_bytes(img.read_bytes()[:-1])
    real_fstat = os.fstat

    def fstat_of_the_full_file(fd):
        st = real_fstat(fd)
        if st.st_ino != img.stat().st_ino:
            return st
        return os.stat_result(tuple(st)[:6] + (full_size,) + tuple(st)[7:10])

    monkeypatch.setattr(os, "fstat", fstat_of_the_full_file)
    with pytest.raises(FormatError, match=rf"^{re.escape(str(img))}: shorter than its checked length$"):
        load_mnist(img, lab)


def test_idx_read_error_in_a_body_is_a_format_error(tmp_path):
    img, lab = idx_fixture(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])

    class FailingBodyReads(io.BufferedReader):
        def readinto(self, buffer):
            raise OSError(errno.EIO, os.strerror(errno.EIO))

    def open_failing_body_reads(path, mode):
        return FailingBodyReads(io.FileIO(path, mode))

    with mock.patch.object(dataio, "open", open_failing_body_reads, create=True):
        with pytest.raises(FormatError, match=rf"^{re.escape(str(img))}: cannot read: {os.strerror(errno.EIO)}$"):
            load_mnist(img, lab)


# ---- CSV -------------------------------------------------------------------

def test_csv_label_mapping_first_appearance(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("x1,x2,y\n1.0,2.0,a\n3.5,4.0,b\n0.0,-1.0,a\n")
    ds = load_csv(p)
    assert ds.labels.tolist() == [0, 1, 0]
    assert ds.class_count == 2
    assert ds.label_names == ["a", "b"]
    assert np.array_equal(ds.features, [[1.0, 2.0], [3.5, 4.0], [0.0, -1.0]])


def test_csv_named_label_column(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("y,x1\nfoo,1.0\nbar,2.0\n")
    ds = load_csv(p, label_column="y")
    assert ds.labels.tolist() == [0, 1]
    assert ds.features.tolist() == [[1.0], [2.0]]
    with pytest.raises(FormatError, match="row 1: no column named 'z'"):
        load_csv(p, label_column="z")


def test_csv_openml_155_shape(tmp_path):
    # 10 numeric inputs, 9 label categories
    rng = derive_rng(2)
    lines = ["f0,f1,f2,f3,f4,f5,f6,f7,f8,f9,class"]
    for i in range(45):
        vals = ",".join(f"{v:.3f}" for v in rng.standard_normal(10))
        lines.append(f"{vals},c{i % 9}")
    p = tmp_path / "openml155.csv"
    p.write_text("\n".join(lines) + "\n")
    ds = load_csv(p)
    assert ds.features.shape == (45, 10)
    assert ds.class_count == 9


def test_csv_missing_header(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("1.0,2.0,3\n4.0,5.0,6\n")
    with pytest.raises(FormatError, match="row 1.*header"):
        load_csv(p)


def test_csv_empty_and_headers_only(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("")
    with pytest.raises(FormatError, match="empty"):
        load_csv(p)
    p.write_text("a,b,y\n")
    with pytest.raises(FormatError, match="no data rows"):
        load_csv(p)


def test_csv_label_column_alone_is_no_table(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("y\na\nb\n")
    with pytest.raises(FormatError, match=r"t\.csv: row 1: no feature column, only the label column 'y'$"):
        load_csv(p)


def test_csv_ragged_row_position(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("x1,x2,y\n1.0,2.0,a\n3.0,b\n")
    with pytest.raises(FormatError, match="row 3: has 2 cells, header has 3"):
        load_csv(p)


def test_csv_non_numeric_cell_position(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("x1,x2,y\n1.0,oops,a\n")
    with pytest.raises(FormatError, match="row 2, column 2: non-numeric"):
        load_csv(p)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "1e999"])
def test_csv_non_finite_cell_position(tmp_path, cell):
    # label first, so the reported column is the file's, not the feature index
    p = tmp_path / "t.csv"
    p.write_text(f"y,x1,x2\na,1.0,2.0\nb,3.0,{cell}\n")
    with pytest.raises(FormatError, match=rf"t\.csv: row 3, column 3: non-finite feature cell '{cell}'"):
        load_csv(p, label_column="y")


# ---- synth_blobs -----------------------------------------------------------

def test_blobs_same_seed_identical():
    a = synth_blobs(3, 20, 4, 5.0, derive_rng(3))
    b = synth_blobs(3, 20, 4, 5.0, derive_rng(3))
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert a.labels.tolist() == [c for c in range(3) for _ in range(20)]


def test_blobs_zero_separation_is_unlearnable():
    ds = synth_blobs(4, 100, 3, 0.0, derive_rng(4))
    # nearest-centroid on shared-center blobs: chance-level accuracy
    centroids = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(4)])
    d2 = ((ds.features[:, None, :] - centroids[None]) ** 2).sum(axis=2)
    acc = (d2.argmin(axis=1) == ds.labels).mean()
    assert acc < 0.45  # near 1/4, far from separable


def test_blobs_wide_separation_is_linearly_separable():
    ds = synth_blobs(2, 100, 2, 20.0, derive_rng(5))
    c0 = ds.features[ds.labels == 0].mean(axis=0)
    c1 = ds.features[ds.labels == 1].mean(axis=0)
    w = c1 - c0
    t = (ds.features - (c0 + c1) / 2.0) @ w
    acc = ((t > 0).astype(int) == ds.labels).mean()
    assert acc > 0.99


def test_blobs_rejects_bad_counts():
    with pytest.raises(ValueError):
        synth_blobs(0, 10, 2, 1.0, derive_rng(6))
    with pytest.raises(ValueError):
        synth_blobs(2, 10, 0, 1.0, derive_rng(6))


# ---- standardize -----------------------------------------------------------

def test_standardize_hand_fixture_population_std():
    out = standardize(np.array([[0.0], [2.0]]), np.arange(2), np.float64)
    assert out.tolist() == [[-1.0], [1.0]]  # std over n, not n-1


def test_standardize_constant_feature_untouched():
    out = standardize(np.array([[5.0, 1.0], [5.0, 3.0]]), np.arange(2), np.float64)
    assert out[:, 0].tolist() == [5.0, 5.0]
    assert out[:, 1].tolist() == [-1.0, 1.0]


def test_standardize_idempotent_on_normalized():
    rng = derive_rng(7)
    out = standardize(rng.standard_normal((200, 3)) * 4 + 1, np.arange(200), np.float64)
    again = standardize(out, np.arange(200), np.float64)
    assert np.abs(out.mean(axis=0)).max() <= 1e-12
    assert np.abs(out.std(axis=0) - 1.0).max() <= 1e-12
    assert np.allclose(again, out, atol=1e-12)


def test_standardize_stats_rows_subset():
    X = np.array([[0.0], [2.0], [100.0]])
    out = standardize(X, stats_rows=np.array([0, 1]), dtype=np.float64)
    # statistics from rows {0,1} (mean 1, std 1) applied to every row, including row 2
    assert out.tolist() == [[-1.0], [1.0], [99.0]]


def _reference_standardize(X, stats_rows):
    """Standardization as it was before the std was computed in place:
    ``src.std`` on the gathered rows of X's values (uint8 pixels over 255)
    and ``(X - m) / s`` in one expression."""
    if X.dtype == np.uint8:
        X = X / 255.0
    src = X[np.asarray(stats_rows)]
    mean = src.mean(axis=0)
    std = src.std(axis=0)
    constant = std == 0.0
    return (X - np.where(constant, 0.0, mean)) / np.where(constant, 1.0, std)


def _assert_standardize_matches_reference(X, stats_rows, rows=None):
    """float64 output is the reference bit for bit, float32 output the
    reference rounded to float32 (so it is computed in float64), values
    beyond float32's range included: they round to +-inf, as a cast does.
    Given ``rows``, the output is the reference's rows ``rows``."""
    before = X.copy()
    ref = _reference_standardize(X, stats_rows)
    if rows is not None:
        ref = ref[rows]
    out = standardize(X, stats_rows, np.float64, rows)
    assert out.shape == ref.shape and out.tobytes() == ref.tobytes()
    with np.errstate(over="ignore"):  # a std of 1e-65 scales a 1e3 entry past 3.4e38
        narrow, rounded = standardize(X, stats_rows, np.float32, rows), ref.astype(np.float32)
    assert narrow.dtype == np.float32 and narrow.tobytes() == rounded.tobytes()
    assert X.tobytes() == before.tobytes()


@st.composite
def _standardize_inputs(draw):
    """Features of up to 40 rows drawn entry by entry, or seeded float or
    uint8 pixel features of over one and up to three ``_ROW_BLOCK``s of rows,
    the statistics taken in blocks of that many; widths from 1, some columns
    constant, statistics rows with repeats, and sorted rows to write."""
    d = draw(st.just(1) | st.integers(1, 12))
    if draw(st.booleans()):
        n = draw(st.integers(1, 40))
        X = draw(hnp.arrays(np.float64, (n, d), elements=st.floats(-1e3, 1e3, allow_subnormal=False)))
        stats_rows = draw(st.none() | st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
        keep = draw(hnp.arrays(bool, n))
    else:
        n = draw(st.integers(dataio._ROW_BLOCK + 1, 3 * dataio._ROW_BLOCK))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        if draw(st.booleans()):
            X = rng.integers(0, 256, (n, d), dtype=np.uint8)
        else:
            scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
            X = rng.standard_normal((n, d)) * scale + rng.uniform(-1e3, 1e3, d)
        count = draw(st.integers(1, 2 * n))
        stats_rows = draw(st.sampled_from([None, rng.integers(0, n, count).tolist()]))
        keep = rng.random(n) < draw(st.sampled_from([0.1, 0.5, 0.9]))
    constant = draw(hnp.arrays(bool, d))
    X[:, constant] = X[0, constant]
    rows = np.flatnonzero(keep)
    return X, list(range(n)) if stats_rows is None else stats_rows, rows


@settings(max_examples=150, deadline=None)
@given(_standardize_inputs())
def test_standardize_is_bitwise_the_std_then_divide_reference(inputs):
    X, stats_rows, rows = inputs
    _assert_standardize_matches_reference(X, stats_rows)
    _assert_standardize_matches_reference(X, stats_rows[:1])
    _assert_standardize_matches_reference(X, stats_rows, rows)


def test_standardize_bitwise_on_an_image_sized_pool():
    rng = derive_rng(8)
    pixels = np.floor(rng.uniform(0, 256, (600, 784))).astype(np.uint8)
    pixels[:, :40] = 0  # the always-blank border pixels of digit images
    X = pixels / 255.0
    for stats_rows in (np.sort(rng.choice(600, 450, replace=False)), np.arange(len(X))):
        _assert_standardize_matches_reference(X, stats_rows)
        # the uint8 pixels over 255 are standardized as their float64 values are
        for dtype in (np.float64, np.float32):
            from_pixels = standardize(pixels, stats_rows, dtype)
            assert from_pixels.tobytes() == standardize(X, stats_rows, dtype).tobytes()
