"""IDX writers for test fixtures: the inverse of ``allab.dataio``'s parser."""

import struct

import numpy as np

from allab.dataio import IMAGE_MAGIC, LABEL_MAGIC


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
