"""Byte-level IDX fixtures, CSV diagnostics, synthetic blob determinism."""

import struct

import numpy as np
import pytest

from allab.dataio import (
    IMAGE_MAGIC,
    LABEL_MAGIC,
    load_csv,
    load_mnist,
    load_mnist_idx,
    standardize,
    synth_blobs,
    write_idx_images,
    write_idx_labels,
)
from allab.errors import FormatError
from allab.seeding import derive_rng


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
    ds = load_mnist_idx(img, lab)
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
    ds = load_mnist_idx(out_img, out_lab)
    assert np.array_equal(ds.features * 255.0, pixels.reshape(5, 9).astype(np.float64))


def test_idx_wrong_magic(tmp_path):
    img, lab = idx_fixture(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0])
    broken = tmp_path / "bad.idx"
    broken.write_bytes(struct.pack(">I", 0xDEADBEEF) + img.read_bytes()[4:])
    with pytest.raises(FormatError, match="byte 0.*magic"):
        load_mnist_idx(broken, lab)
    broken_l = tmp_path / "badl.idx"
    broken_l.write_bytes(struct.pack(">I", IMAGE_MAGIC) + lab.read_bytes()[4:])
    with pytest.raises(FormatError, match="byte 0.*magic"):
        load_mnist_idx(img, broken_l)


def test_idx_truncated_and_trailing(tmp_path):
    img, lab = idx_fixture(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])
    short = tmp_path / "short.idx"
    short.write_bytes(img.read_bytes()[:-3])
    with pytest.raises(FormatError, match="byte"):
        load_mnist_idx(short, lab)
    long = tmp_path / "long.idx"
    long.write_bytes(img.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="expected 24 bytes"):
        load_mnist_idx(long, lab)
    header_only = tmp_path / "hdr.idx"
    header_only.write_bytes(img.read_bytes()[:10])
    with pytest.raises(FormatError, match="truncated header"):
        load_mnist_idx(header_only, lab)


def test_idx_count_mismatch(tmp_path):
    img, _ = idx_fixture(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])
    lab3 = tmp_path / "three.idx"
    write_idx_labels(lab3, np.array([0, 1, 2], dtype=np.uint8))
    with pytest.raises(FormatError, match="label count 3 does not match image count 2"):
        load_mnist_idx(img, lab3)


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

def _plain(features):
    from allab.dataio import Dataset

    features = np.asarray(features, dtype=np.float64)
    return Dataset("t", features, np.zeros(len(features), dtype=np.int64), 1)


def test_standardize_hand_fixture_population_std():
    out, mean, std = standardize(_plain([[0.0], [2.0]]))
    assert out.features.tolist() == [[-1.0], [1.0]]  # std over n, not n-1
    assert mean.tolist() == [1.0]
    assert std.tolist() == [1.0]


def test_standardize_constant_feature_untouched():
    out, _, std = standardize(_plain([[5.0, 1.0], [5.0, 3.0]]))
    assert out.features[:, 0].tolist() == [5.0, 5.0]
    assert out.features[:, 1].tolist() == [-1.0, 1.0]
    assert std[0] == 0.0


def test_standardize_idempotent_on_normalized():
    rng = derive_rng(7)
    out, _, _ = standardize(_plain(rng.standard_normal((200, 3)) * 4 + 1))
    again, mean2, std2 = standardize(out)
    assert np.abs(mean2).max() <= 1e-12
    assert np.abs(std2 - 1.0).max() <= 1e-12
    assert np.allclose(again.features, out.features, atol=1e-12)


def test_standardize_stats_rows_subset():
    X = np.array([[0.0], [2.0], [100.0]])
    out, mean, std = standardize(_plain(X), stats_rows=np.array([0, 1]))
    # statistics from rows {0,1} applied to every row, including row 2
    assert mean.tolist() == [1.0]
    assert out.features.tolist() == [[-1.0], [1.0], [99.0]]
