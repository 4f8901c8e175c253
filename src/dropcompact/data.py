"""Dataset ingestion.

IDX files (the MNIST container format) are parsed strictly: big-endian
magics, declared counts and payload sizes are all validated, and parse
errors name the offending field and byte offset. Payloads are read in
bounded chunks, so a header that declares more bytes than its file holds
fails as truncated without allocating what it declares.

Pixels stay uint8, as the files hold them: ``load_mnist_dir`` reads the
payloads of both image files into one buffer, which becomes the dataset's
``features`` without a copy. ``as_float`` is the one conversion rule: it
scales uint8 rows by 1/255 into float64 and passes float rows through, and
the trainer applies it only to the rows it has just gathered (a minibatch,
or a chunk of an evaluated split). A split of a Dataset is a row index into
``features``, and every consumer gathers its rows through it, so no split is
copied whole or held as float64.
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


def as_float(x: np.ndarray) -> np.ndarray:
    """Rows of a Dataset's features as float64 network inputs: uint8 pixels
    divided by 255 (a new array), float rows as they are (no copy)."""
    return x / 255.0 if x.dtype == np.uint8 else x


@dataclass
class Dataset:
    """Feature matrix plus labels, partitioned by split tags.

    ``features`` holds uint8 pixels (as loaded from IDX files) or float64
    values (generated data); ``inputs`` is every row through ``as_float``.
    For pixels that builds a new float64 array eight times the size, so
    training and evaluation gather rows from ``features`` instead and
    convert only those."""

    features: np.ndarray  # (N, D) uint8 pixels or float64
    labels: np.ndarray  # (N,) int64
    num_classes: int
    splits: dict[str, np.ndarray] = field(default_factory=dict)
    source_digests: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not self.splits:
            self.splits = {"train": np.arange(self.features.shape[0])}

    @property
    def inputs(self) -> np.ndarray:
        """Every row through ``as_float``; the package itself never reads it."""
        return as_float(self.features)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

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


def _read_payload(f, n: int, what: str, offset: int, buf: bytearray) -> bytearray:
    """Append the n payload bytes after a header to buf, then check the file ends.

    Read in chunks of at most READ_CHUNK bytes, so what is allocated never
    exceeds what the file holds."""
    start = len(buf)
    while len(buf) - start < n:
        chunk = f.read(min(n - (len(buf) - start), READ_CHUNK))
        if not chunk:
            raise IdxParseError(
                f"truncated file while reading {what} at byte offset {offset}:"
                f" wanted {n} bytes, got {len(buf) - start}"
            )
        buf += chunk
    if f.read(1):
        raise IdxParseError(f"trailing bytes after {what} at offset {offset + n}")
    return buf


def _read_images(paths: dict[str, str]) -> tuple[np.ndarray, list[int]]:
    """The uint8 pixels of IDX image files (by split tag), stacked in file
    order as one (N, rows*cols) array, and each file's image count.

    Every payload is read into one buffer, which the array wraps without a
    copy. Each header's width is checked against the first's before its
    payload is read."""
    buf, counts, width, first = bytearray(), [], 0, ""
    for tag, path in paths.items():
        with _open_maybe_gzip(path) as f:
            magic, n, rows, cols = struct.unpack(">IIII", _read_exact(f, 16, "image header", 0))
            if magic != IMAGE_MAGIC:
                raise IdxParseError(
                    f"magic mismatch at byte offset 0: got 0x{magic:08x},"
                    f" expected 0x{IMAGE_MAGIC:08x} for images"
                )
            if not counts:
                width, first = rows * cols, tag
            elif rows * cols != width:
                raise IdxParseError(
                    f"width mismatch: {first} images have {width} pixels,"
                    f" {tag} images {rows * cols}"
                )
            _read_payload(f, n * width, "pixel data", 16, buf)
        counts.append(n)
    return np.frombuffer(buf, dtype=np.uint8).reshape(sum(counts), width), counts


def load_idx_labels(path: str) -> np.ndarray:
    """Read an IDX label file into a (N,) int64 array."""
    with _open_maybe_gzip(path) as f:
        magic, n = struct.unpack(">II", _read_exact(f, 8, "label header", 0))
        if magic != LABEL_MAGIC:
            raise IdxParseError(
                f"magic mismatch at byte offset 0: got 0x{magic:08x},"
                f" expected 0x{LABEL_MAGIC:08x} for labels"
            )
        labels = _read_payload(f, n, "label data", 8, bytearray())
    return np.frombuffer(labels, dtype=np.uint8).astype(np.int64)


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

    Both image payloads are read into one uint8 buffer that becomes the
    dataset's features, so the load holds the file bytes once."""
    paths = {key: _resolve(data_dir, stem) for key, stem in MNIST_FILES.items()}
    # digests first, so their read buffers are freed before the pixels arrive
    digests = {os.path.basename(p): file_digest(p) for p in paths.values()}
    features, (n_train, n_test) = _read_images(
        {tag: paths[f"{tag}_images"] for tag in ("train", "test")}
    )
    train_lab, test_lab = (load_idx_labels(paths[f"{tag}_labels"]) for tag in ("train", "test"))
    _check_counts(n_train, train_lab.shape[0])
    _check_counts(n_test, test_lab.shape[0])
    labels = np.concatenate([train_lab, test_lab])
    splits = {"train": np.arange(n_train), "test": np.arange(n_train, n_train + n_test)}
    return Dataset(features, labels, _num_classes(labels), splits, digests)


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
        dataset.features, dataset.labels, dataset.num_classes, splits, dataset.source_digests
    )
