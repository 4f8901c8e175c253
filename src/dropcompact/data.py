"""Dataset ingestion.

IDX files (the MNIST container format) are parsed strictly: big-endian
magics, declared counts and payload sizes are all validated, and parse
errors name the offending field and byte offset. Payloads are read in
bounded chunks, so a header that declares more bytes than its file holds
fails as truncated without allocating what it declares.

Pixels are scaled to [0, 1] by 1/255 and kept as float64, in one copy:
``load_mnist_dir`` divides the uint8 payloads of both image files
straight into one preallocated (N_train + N_test, D) array. A split of a
Dataset is a row index into that array; ``Dataset.arrays`` returns views
for a split whose rows are one ascending run (the test split), and the
trainer gathers its minibatches from the full array, so no split is
copied whole.
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
READ_CHUNK = 1 << 20  # bytes per read of an IDX payload


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
        """The split's inputs and labels: views of the dataset's arrays when
        its rows are one ascending run, gathered copies otherwise."""
        idx = self.splits[tag]
        rows = slice(idx[0], idx[-1] + 1) if idx.size and (np.diff(idx) == 1).all() else idx
        return self.inputs[rows], self.labels[rows]

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


def _read_payload(f, n: int, what: str, offset: int) -> np.ndarray:
    """The n payload bytes after a header, as uint8, then check the file ends.

    Read in chunks of at most READ_CHUNK bytes, so what is allocated never
    exceeds what the file holds."""
    buf = bytearray()
    while len(buf) < n:
        chunk = f.read(min(n - len(buf), READ_CHUNK))
        if not chunk:
            raise IdxParseError(
                f"truncated file while reading {what} at byte offset {offset}:"
                f" wanted {n} bytes, got {len(buf)}"
            )
        buf += chunk
    if f.read(1):
        raise IdxParseError(f"trailing bytes after {what} at offset {offset + n}")
    return np.frombuffer(buf, dtype=np.uint8)


def _read_pixels(path: str) -> np.ndarray:
    """The uint8 pixels of an IDX image file, shaped (N, rows*cols)."""
    with _open_maybe_gzip(path) as f:
        magic, n, rows, cols = struct.unpack(">IIII", _read_exact(f, 16, "image header", 0))
        if magic != IMAGE_MAGIC:
            raise IdxParseError(
                f"magic mismatch at byte offset 0: got 0x{magic:08x},"
                f" expected 0x{IMAGE_MAGIC:08x} for images"
            )
        pixels = _read_payload(f, n * rows * cols, "pixel data", 16)
    return pixels.reshape(n, rows * cols)


def load_idx_images(path: str) -> np.ndarray:
    """Read an IDX image file into a (N, rows*cols) float64 array in [0, 1]."""
    return _read_pixels(path) / 255.0


def load_idx_labels(path: str) -> np.ndarray:
    """Read an IDX label file into a (N,) int64 array."""
    with _open_maybe_gzip(path) as f:
        magic, n = struct.unpack(">II", _read_exact(f, 8, "label header", 0))
        if magic != LABEL_MAGIC:
            raise IdxParseError(
                f"magic mismatch at byte offset 0: got 0x{magic:08x},"
                f" expected 0x{LABEL_MAGIC:08x} for labels"
            )
        return _read_payload(f, n, "label data", 8).astype(np.int64)


def _check_counts(n_images: int, n_labels: int) -> None:
    if n_images != n_labels:
        raise IdxParseError(
            f"count mismatch: image file declares {n_images} items,"
            f" label file declares {n_labels}"
        )


def _num_classes(labels: np.ndarray) -> int:
    return int(labels.max()) + 1 if labels.size else 0


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
    _check_counts(inputs.shape[0], labels.shape[0])
    return Dataset(
        inputs,
        labels,
        _num_classes(labels),
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
    """Load the four standard MNIST IDX files into train + test tags.

    Both image files are scaled into one preallocated float64 array, so
    the load holds that array and the uint8 payloads, and nothing more."""
    paths = {key: _resolve(data_dir, stem) for key, stem in MNIST_FILES.items()}
    train_px, test_px = (_read_pixels(paths[f"{tag}_images"]) for tag in ("train", "test"))
    train_lab, test_lab = (load_idx_labels(paths[f"{tag}_labels"]) for tag in ("train", "test"))
    _check_counts(train_px.shape[0], train_lab.shape[0])
    _check_counts(test_px.shape[0], test_lab.shape[0])
    if train_px.shape[1] != test_px.shape[1]:
        raise IdxParseError(
            f"width mismatch: train images have {train_px.shape[1]} pixels,"
            f" test images {test_px.shape[1]}"
        )
    digests = {os.path.basename(p): file_digest(p) for p in paths.values()}
    n_train = train_px.shape[0]
    inputs = np.empty((n_train + test_px.shape[0], train_px.shape[1]))
    np.divide(train_px, 255.0, out=inputs[:n_train])
    np.divide(test_px, 255.0, out=inputs[n_train:])
    labels = np.concatenate([train_lab, test_lab])
    splits = {"train": np.arange(n_train), "test": np.arange(n_train, inputs.shape[0])}
    return Dataset(inputs, labels, _num_classes(labels), splits, digests)


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
