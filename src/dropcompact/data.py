"""Dataset ingestion.

IDX files (the MNIST container format) are parsed strictly: big-endian
magics, declared counts and payload sizes are all validated, and parse
errors name the offending field and byte offset. Payloads are read in
bounded chunks, so a header that declares more bytes than its file holds
fails as truncated without allocating what it declares. ``load_mnist_dir``
raises ``DataError`` for every fault of its files: a missing file, a read
that fails, a damaged ``.gz`` and a format violation alike.

Pixels stay uint8, as the files hold them: ``load_mnist_dir`` reads the
payloads of both image files into one buffer, which becomes the dataset's
``features`` without a copy; the label files go through the same reader.
``as_float`` is the one conversion rule: it scales uint8 rows by 1/255 into
float64 and passes float rows through, and the trainer applies it only to
the rows it has just gathered (a minibatch, or a chunk of an evaluated
split). A split is a row index into ``features``, and every consumer
gathers its rows through it, so no split is copied whole or held as float64.
"""

from __future__ import annotations

import gzip
import hashlib
import math
import os
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .linalg import rng_stream

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801
READ_CHUNK = 1 << 20  # bytes per read of an IDX payload


class DataError(ValueError):
    """A data file is missing, unreadable or malformed; a format violation's
    message names the field and byte offset."""


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


def _read_payload(f, n: int, what: str, offset: int, buf: bytearray) -> bytearray:
    """Append the next n bytes of f, which start at byte offset, to buf.

    Read in chunks of at most READ_CHUNK bytes, so what is allocated never
    exceeds what the file holds."""
    start = len(buf)
    while len(buf) - start < n:
        chunk = f.read(min(n - (len(buf) - start), READ_CHUNK))
        if not chunk:
            raise DataError(
                f"truncated file while reading {what} at byte offset {offset}:"
                f" wanted {n} bytes, got {len(buf) - start}"
            )
        buf += chunk
    return buf


def _read_idx(paths: dict[str, str], magic: int, kind: str) -> tuple[np.ndarray, list[int]]:
    """The uint8 payloads of IDX files of one kind (by split tag), stacked in
    file order as one (N, width) array, and each file's item count.

    The magic's low byte is the dimension count, which sets the header size;
    the width is the product of the dimensions after the item count (1 for
    labels). Every payload is read into one buffer, which the array wraps
    without a copy. Each header's width is checked against the first's
    before its payload is read."""
    fmt = f">{(magic & 0xFF) + 1}I"  # magic, item count, then the dimensions
    head = struct.calcsize(fmt)
    buf, counts, width, first = bytearray(), [], 0, ""
    for tag, path in paths.items():
        with _open_maybe_gzip(path) as f:
            header = _read_payload(f, head, f"{kind} header", 0, bytearray())
            got, n, *dims = struct.unpack(fmt, header)
            if got != magic:
                raise DataError(
                    f"magic mismatch at byte offset 0: got 0x{got:08x},"
                    f" expected 0x{magic:08x} for {kind}s"
                )
            if not counts:
                width, first = math.prod(dims), tag
            elif math.prod(dims) != width:
                raise DataError(
                    f"width mismatch: {first} {kind}s have {width} bytes,"
                    f" {tag} {kind}s {math.prod(dims)}"
                )
            _read_payload(f, n * width, f"{kind} data", head, buf)
            if f.read(1):
                raise DataError(f"trailing bytes after {kind} data at offset {head + n * width}")
        counts.append(n)
    return np.frombuffer(buf, dtype=np.uint8).reshape(sum(counts), width), counts


def _num_classes(labels: np.ndarray) -> int:
    return int(labels.max()) + 1 if labels.size else 0


def file_digest(path: str) -> str:
    """sha256 hex digest of a file's bytes."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_idx(path: str, magic: int, array: np.ndarray) -> None:
    """Write an IDX file: the magic and array.shape as header, then array's bytes."""
    if array.ndim != magic & 0xFF:
        raise ValueError(f"IDX magic 0x{magic:08x} needs {magic & 0xFF} dimensions")
    with _open_maybe_gzip(path, "wb") as f:
        f.write(struct.pack(f">{array.ndim + 1}I", magic, *array.shape))
        f.write(memoryview(np.ascontiguousarray(array)))


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
    _write_idx(path, IMAGE_MAGIC, images)


def write_idx_labels(path: str, labels: np.ndarray) -> None:
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() > 255):
        raise ValueError("IDX labels must fit in a byte")
    _write_idx(path, LABEL_MAGIC, labels.astype(np.uint8))


def quantize_pixels(inputs: np.ndarray) -> np.ndarray:
    """Invert the 1/255 scaling back to uint8 (exact for loaded data).

    Rows are converted in chunks of at most READ_CHUNK float64 bytes, so the
    only full-size array is the uint8 result."""
    out = np.empty(inputs.shape, dtype=np.uint8)
    step = max(1, READ_CHUNK // (8 * max(1, math.prod(inputs.shape[1:]))))
    for start in range(0, inputs.shape[0], step):
        chunk = inputs[start : start + step] * 255.0
        out[start : start + step] = np.rint(chunk, out=chunk)
    return out


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
    raise DataError(f"missing {stem}[.gz] under {data_dir}")


def load_mnist_dir(data_dir: str) -> Dataset:
    """Load the four standard MNIST IDX files into train + test tags.

    Both image payloads are read into one uint8 buffer that becomes the
    dataset's features, so the load holds the file bytes once; both label
    payloads are read the same way, through the same reader. Any fault of
    the files raises DataError."""
    paths = {key: _resolve(data_dir, stem) for key, stem in MNIST_FILES.items()}
    tags = ("train", "test")
    try:
        # digests first, so their read buffers are freed before the pixels arrive
        digests = {os.path.basename(p): file_digest(p) for p in paths.values()}
        features, counts = _read_idx({t: paths[f"{t}_images"] for t in tags}, IMAGE_MAGIC, "image")
        labels, label_counts = _read_idx(
            {t: paths[f"{t}_labels"] for t in tags}, LABEL_MAGIC, "label"
        )
    except (OSError, EOFError, zlib.error) as e:  # the last two from a damaged .gz
        raise DataError(str(e)) from e
    if counts != label_counts:
        raise DataError(
            f"count mismatch: image files declare {counts} items,"
            f" label files declare {label_counts}"
        )
    labels = labels.ravel().astype(np.int64)
    n_train, n_test = counts
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
