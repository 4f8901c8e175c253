"""Dataset ingestion.

IDX files (the MNIST container format) are parsed strictly: big-endian
magics, declared counts and payload sizes are all validated, and parse
errors name the offending field and byte offset. Pixels are scaled to
[0, 1] by 1/255 and kept as float64.
"""

from __future__ import annotations

import gzip
import hashlib
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .linalg import rng_stream

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


class IdxParseError(ValueError):
    """IDX container violated the format; message carries field and offset."""


@dataclass
class Dataset:
    """Flat feature matrix plus labels, partitioned by split tags."""

    inputs: np.ndarray  # (N, D) float64
    labels: np.ndarray  # (N,) int64
    num_classes: int
    splits: dict[str, np.ndarray] = field(default_factory=dict)
    source_digests: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not self.splits:
            self.splits = {"train": np.arange(self.inputs.shape[0])}

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]

    def arrays(self, tag: str) -> tuple[np.ndarray, np.ndarray]:
        idx = self.splits[tag]
        return self.inputs[idx], self.labels[idx]

    def count(self, tag: str) -> int:
        return int(self.splits[tag].size) if tag in self.splits else 0


def _open_maybe_gzip(path: str, mode: str = "rb"):
    if str(path).endswith((".gz", ".gzip")):
        return gzip.open(path, mode)
    return open(path, mode)


def _read_exact(f, n: int, what: str, offset: int) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise IdxParseError(
            f"truncated file while reading {what} at byte offset {offset}:"
            f" wanted {n} bytes, got {len(data)}"
        )
    return data


def load_idx_images(path: str) -> np.ndarray:
    """Read an IDX image file into a (N, rows*cols) float64 array in [0, 1]."""
    with _open_maybe_gzip(path) as f:
        magic, n, rows, cols = struct.unpack(">IIII", _read_exact(f, 16, "image header", 0))
        if magic != IMAGE_MAGIC:
            raise IdxParseError(
                f"magic mismatch at byte offset 0: got 0x{magic:08x},"
                f" expected 0x{IMAGE_MAGIC:08x} for images"
            )
        payload = _read_exact(f, n * rows * cols, "pixel data", 16)
        extra = f.read(1)
        if extra:
            raise IdxParseError(f"trailing bytes after pixel data at offset {16 + n * rows * cols}")
    raw = np.frombuffer(payload, dtype=np.uint8).reshape(n, rows * cols)
    return raw.astype(np.float64) / 255.0


def load_idx_labels(path: str) -> np.ndarray:
    """Read an IDX label file into a (N,) int64 array."""
    with _open_maybe_gzip(path) as f:
        magic, n = struct.unpack(">II", _read_exact(f, 8, "label header", 0))
        if magic != LABEL_MAGIC:
            raise IdxParseError(
                f"magic mismatch at byte offset 0: got 0x{magic:08x},"
                f" expected 0x{LABEL_MAGIC:08x} for labels"
            )
        payload = _read_exact(f, n, "label data", 8)
        extra = f.read(1)
        if extra:
            raise IdxParseError(f"trailing bytes after label data at offset {8 + n}")
    return np.frombuffer(payload, dtype=np.uint8).astype(np.int64)


def file_digest(path: str) -> str:
    """sha256 hex digest of a file's bytes."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def load_idx(images_path: str, labels_path: str, tag: str = "train") -> Dataset:
    """Load a paired image/label IDX file set under one split tag."""
    inputs = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if inputs.shape[0] != labels.shape[0]:
        raise IdxParseError(
            f"count mismatch: image file declares {inputs.shape[0]} items,"
            f" label file declares {labels.shape[0]}"
        )
    num_classes = int(labels.max()) + 1 if labels.size else 0
    return Dataset(
        inputs,
        labels,
        num_classes,
        splits={tag: np.arange(inputs.shape[0])},
        source_digests={
            os.path.basename(images_path): file_digest(images_path),
            os.path.basename(labels_path): file_digest(labels_path),
        },
    )


def write_idx_images(path: str, images: np.ndarray) -> None:
    """Serialize uint8 images (N, rows, cols) or flat (N, D) with square D."""
    images = np.asarray(images)
    if images.dtype != np.uint8:
        raise ValueError("IDX images must be uint8")
    if images.ndim == 2:
        side = int(round(images.shape[1] ** 0.5))
        if side * side != images.shape[1]:
            raise ValueError("flat images must have a square pixel count")
        images = images.reshape(images.shape[0], side, side)
    n, rows, cols = images.shape
    with _open_maybe_gzip(path, "wb") as f:
        f.write(struct.pack(">IIII", IMAGE_MAGIC, n, rows, cols))
        f.write(images.tobytes())


def write_idx_labels(path: str, labels: np.ndarray) -> None:
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() > 255:
        raise ValueError("IDX labels must fit in a byte")
    with _open_maybe_gzip(path, "wb") as f:
        f.write(struct.pack(">II", LABEL_MAGIC, labels.shape[0]))
        f.write(labels.astype(np.uint8).tobytes())


def quantize_pixels(inputs: np.ndarray) -> np.ndarray:
    """Invert the 1/255 scaling back to uint8 (exact for loaded data)."""
    return np.rint(inputs * 255.0).astype(np.uint8)


MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


def _resolve(data_dir: str, stem: str) -> str:
    for cand in (stem, stem + ".gz"):
        p = os.path.join(data_dir, cand)
        if os.path.exists(p):
            return p
    raise FileNotFoundError(f"missing {stem}[.gz] under {data_dir}")


def load_mnist_dir(data_dir: str) -> Dataset:
    """Load the four standard MNIST IDX files into train + test tags."""
    train = load_idx(
        _resolve(data_dir, MNIST_FILES["train_images"]),
        _resolve(data_dir, MNIST_FILES["train_labels"]),
        tag="train",
    )
    test = load_idx(
        _resolve(data_dir, MNIST_FILES["test_images"]),
        _resolve(data_dir, MNIST_FILES["test_labels"]),
        tag="test",
    )
    inputs = np.concatenate([train.inputs, test.inputs])
    labels = np.concatenate([train.labels, test.labels])
    splits = {
        "train": np.arange(train.n),
        "test": np.arange(train.n, train.n + test.n),
    }
    digests = {**train.source_digests, **test.source_digests}
    return Dataset(inputs, labels, max(train.num_classes, test.num_classes), splits, digests)


def split_train_dev(dataset: Dataset, dev_size: int, seed: int) -> Dataset:
    """Carve a deterministic shuffled dev split out of the train tag."""
    train_idx = dataset.splits["train"]
    if dev_size >= train_idx.size:
        raise ValueError(f"dev_size {dev_size} >= train size {train_idx.size}")
    order = rng_stream(seed, "train-dev-split").permutation(train_idx.size)
    shuffled = train_idx[order]
    splits = dict(dataset.splits)
    splits["dev"] = np.sort(shuffled[:dev_size])
    splits["train"] = np.sort(shuffled[dev_size:])
    return Dataset(
        dataset.inputs, dataset.labels, dataset.num_classes, splits, dataset.source_digests
    )
