"""Byte-level IDX fixtures, CSV diagnostics, synthetic blob determinism."""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from allab.dataio import (
    IMAGE_MAGIC,
    Dataset,
    LABEL_MAGIC,
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
    assert np.array_equal(ds.features, pixels.reshape(2, 4) / 255.0)
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
    ds = load_mnist(out_img, out_lab)
    assert np.array_equal(ds.features * 255.0, pixels.reshape(5, 9).astype(np.float64))


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


def _assert_same_dataset(got, ref):
    assert got.features.dtype == ref.features.dtype and got.features.shape == ref.features.shape
    assert got.features.tobytes() == ref.features.tobytes()
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
        _assert_same_dataset(load_mnist(*paths), _reference_load_mnist(splits))
        _assert_same_dataset(load_mnist(*paths[:2]), _reference_load_mnist(splits[:1]))


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
    out = standardize(np.array([[0.0], [2.0]]), np.arange(2))
    assert out.tolist() == [[-1.0], [1.0]]  # std over n, not n-1


def test_standardize_constant_feature_untouched():
    out = standardize(np.array([[5.0, 1.0], [5.0, 3.0]]), np.arange(2))
    assert out[:, 0].tolist() == [5.0, 5.0]
    assert out[:, 1].tolist() == [-1.0, 1.0]


def test_standardize_idempotent_on_normalized():
    rng = derive_rng(7)
    out = standardize(rng.standard_normal((200, 3)) * 4 + 1, np.arange(200))
    again = standardize(out, np.arange(200))
    assert np.abs(out.mean(axis=0)).max() <= 1e-12
    assert np.abs(out.std(axis=0) - 1.0).max() <= 1e-12
    assert np.allclose(again, out, atol=1e-12)


def test_standardize_stats_rows_subset():
    X = np.array([[0.0], [2.0], [100.0]])
    out = standardize(X, stats_rows=np.array([0, 1]))
    # statistics from rows {0,1} (mean 1, std 1) applied to every row, including row 2
    assert out.tolist() == [[-1.0], [1.0], [99.0]]


def _reference_standardize(X, stats_rows):
    """Standardization as it was before the std was computed in place:
    ``src.std`` on the gathered rows and ``(X - m) / s`` in one expression."""
    src = X[np.asarray(stats_rows)]
    mean = src.mean(axis=0)
    std = src.std(axis=0)
    constant = std == 0.0
    return (X - np.where(constant, 0.0, mean)) / np.where(constant, 1.0, std)


def _assert_standardize_matches_reference(X, stats_rows):
    before = X.copy()
    out = standardize(X, stats_rows)
    ref = _reference_standardize(X, stats_rows)
    assert out.shape == ref.shape and out.tobytes() == ref.tobytes()
    assert X.tobytes() == before.tobytes()


@st.composite
def _standardize_inputs(draw):
    n, d = draw(st.integers(1, 40)), draw(st.integers(1, 12))
    X = draw(hnp.arrays(np.float64, (n, d), elements=st.floats(-1e3, 1e3, allow_subnormal=False)))
    constant = draw(hnp.arrays(bool, d))
    X[:, constant] = X[0, constant]
    stats_rows = draw(st.none() | st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
    return X, list(range(n)) if stats_rows is None else stats_rows


@settings(max_examples=150, deadline=None)
@given(_standardize_inputs())
def test_standardize_is_bitwise_the_std_then_divide_reference(inputs):
    X, stats_rows = inputs
    _assert_standardize_matches_reference(X, stats_rows)
    _assert_standardize_matches_reference(X, stats_rows[:1])


def test_standardize_bitwise_on_an_image_sized_pool():
    rng = derive_rng(8)
    X = np.floor(rng.uniform(0, 256, (600, 784))) / 255.0
    X[:, :40] = 0.0  # the always-blank border pixels of digit images
    _assert_standardize_matches_reference(X, np.sort(rng.choice(600, 450, replace=False)))
    _assert_standardize_matches_reference(X, np.arange(len(X)))
