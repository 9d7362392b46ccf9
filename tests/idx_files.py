"""IDX test fixtures: writers that invert ``allab.dataio``'s parser, and the
synthetic 784-d image pool that criterion 6 and a golden digest train on."""

import os
import struct

import numpy as np

from allab.dataio import IMAGE_MAGIC, LABEL_MAGIC
from allab.seeding import derive_rng


def write_idx_images(path, pixels) -> None:
    """Serialize (n, rows, cols) uint8 pixels to an IDX image file."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    n, rows, cols = pixels.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IMAGE_MAGIC, n, rows, cols))
        f.write(pixels.tobytes())


def write_idx_labels(path, labels) -> None:
    """Serialize uint8 labels to an IDX label file."""
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">II", LABEL_MAGIC, len(labels)))
        f.write(labels.tobytes())


def make_image_pool(dirpath) -> dict:
    """Synthetic 28x28 ten-class pool written as IDX pairs.

    Each class is a sparse high-contrast pixel mask; most samples sit on a
    single template (cores), the rest interpolate between a random class pair
    with the class boundary displaced per pair, so boundary-band labels carry
    information a prototype rule cannot recover.
    """
    noise, pure_frac, k = 8, 0.83, 392
    a_lo, a_hi, tau_lo, tau_hi = 0.40, 0.60, 0.42, 0.58
    n_train, n_test = 6000, 2000
    rng = derive_rng(777, "standin9", int(noise), int(pure_frac * 100),
                     int(a_lo * 100), int(tau_lo * 100))
    M = np.zeros((10, 784))
    for c in range(10):
        M[c, rng.choice(784, size=k, replace=False)] = 255.0
    tau = rng.uniform(tau_lo, tau_hi, size=(10, 10))

    def gen(n):
        y1 = rng.integers(0, 10, n)
        y2 = (y1 + rng.integers(1, 10, n)) % 10
        a_ = np.minimum(y1, y2)
        b_ = np.maximum(y1, y2)
        is_core = rng.uniform(size=n) < pure_frac
        alpha = rng.uniform(a_lo, a_hi, n)
        lab = np.where(alpha < tau[a_, b_], a_, b_)
        lab = np.where(is_core, y1, lab)
        w = np.where(is_core, 0.0, alpha)[:, None]
        X = (1 - w) * M[np.where(is_core, y1, a_)] + w * M[b_] \
            + noise * rng.standard_normal((n, 784))
        return np.clip(np.rint(X), 0, 255).astype(np.uint8).reshape(n, 28, 28), lab.astype(np.uint8)

    Xtr, ytr = gen(n_train)
    Xte, yte = gen(n_test)
    paths = {name: os.path.join(dirpath, name) for name in ("tri", "trl", "tei", "tel")}
    write_idx_images(paths["tri"], Xtr)
    write_idx_labels(paths["trl"], ytr)
    write_idx_images(paths["tei"], Xte)
    write_idx_labels(paths["tel"], yte)
    return paths
