import contextlib
import io
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_mnist_dir_oracle, synth_blobs, write_mnist_dir
from dropcompact.checkpoint import Checkpoint, save_checkpoint
from dropcompact.cli import main
from dropcompact.data import (
    IdxParseError,
    load_idx_labels,
    load_mnist_dir,
    quantize_pixels,
    split_train_dev,
    write_idx_images,
    write_idx_labels,
)
from dropcompact.linalg import rng_stream
from dropcompact.network import init_mlp
from dropcompact.retention import RetentionParams


TRAIN_IMAGES, TRAIN_LABELS = "train-images-idx3-ubyte", "train-labels-idx1-ubyte"


@pytest.fixture
def idx_files(tmp_path):
    """The bytes of four MNIST files by name, written under tmp_path, whose
    train and test pairs both hold the same 40 random 5x5 images and labels."""
    rng = rng_stream(0, "idx")
    images = rng.integers(0, 256, size=(40, 5, 5), dtype=np.uint8)
    labels = rng.integers(0, 10, size=40).astype(np.uint8)
    for stem in ("train", "t10k"):
        write_idx_images(str(tmp_path / f"{stem}-images-idx3-ubyte"), images)
        write_idx_labels(str(tmp_path / f"{stem}-labels-idx1-ubyte"), labels)
    return {p.name: p.read_bytes() for p in tmp_path.iterdir()}


def load_with(files, name=None, blob=b""):
    """load_mnist_dir of the files, with the one called name replaced by blob."""
    with mnist_dir_with(files, name, blob) as d:
        return load_mnist_dir(d)


class TestIdxRoundTrip:
    def test_bytes_identical_after_reserialize(self, idx_files, tmp_path):
        ds = load_with(idx_files)
        train = ds.splits["train"]
        x = ds.inputs[train]
        assert x.min() >= 0.0 and x.max() <= 1.0
        assert np.isfinite(x).all()
        ip2, lp2 = tmp_path / "imgs2", tmp_path / "labs2"
        write_idx_images(str(ip2), quantize_pixels(x))
        write_idx_labels(str(lp2), ds.labels[train])
        assert idx_files[TRAIN_IMAGES] == ip2.read_bytes()
        assert idx_files[TRAIN_LABELS] == lp2.read_bytes()

    def test_gzip_suffix_roundtrip(self, tmp_path):
        images = rng_stream(1, "g").integers(0, 256, size=(7, 4, 4), dtype=np.uint8)
        for stem in ("train", "t10k"):
            write_idx_images(str(tmp_path / f"{stem}-images-idx3-ubyte.gz"), images)
            write_idx_labels(str(tmp_path / f"{stem}-labels-idx1-ubyte.gz"), np.arange(7))
        loaded = load_mnist_dir(str(tmp_path))
        x = loaded.inputs[loaded.splits["train"]]
        assert np.array_equal(quantize_pixels(x).reshape(7, 4, 4), images)

    def test_magic_mismatch_names_field(self, idx_files, tmp_path):
        with pytest.raises(IdxParseError, match="magic mismatch"):
            load_with(idx_files, TRAIN_IMAGES, idx_files[TRAIN_LABELS])
        with pytest.raises(IdxParseError, match="magic mismatch"):
            load_idx_labels(str(tmp_path / TRAIN_IMAGES))

    # each test below damages one file of an otherwise valid set

    def test_truncated_file_names_offset(self, idx_files):
        blob = struct.pack(">IIII", 0x803, 10, 5, 5) + b"\x00" * 30  # should be 250 bytes
        with pytest.raises(IdxParseError, match="offset 16"):
            load_with(idx_files, TRAIN_IMAGES, blob)

    def test_oversized_header_is_truncation(self, idx_files):
        # 1.5 TiB declared over a 24-byte payload fails as truncated,
        # without allocating what the header declares
        blob = struct.pack(">IIII", 0x803, 6, 1 << 16, 1 << 22) + b"\x00" * 24
        with pytest.raises(IdxParseError, match="wanted 1649267441664 bytes, got 24"):
            load_with(idx_files, TRAIN_IMAGES, blob)

    def test_count_mismatch_rejected(self, idx_files, tmp_path):
        lp2 = tmp_path / "short_labels"
        write_idx_labels(str(lp2), np.arange(10, dtype=np.uint8))
        with pytest.raises(IdxParseError, match="count mismatch"):
            load_with(idx_files, TRAIN_LABELS, lp2.read_bytes())

    def test_trailing_bytes_rejected(self, idx_files):
        with pytest.raises(IdxParseError, match="trailing"):
            load_with(idx_files, TRAIN_IMAGES, idx_files[TRAIN_IMAGES] + b"\x00")


class TestMnistDir:
    def test_loads_four_files_with_tags(self, tmp_path):
        write_mnist_dir(tmp_path, 30, 12, side=3, seed=2)
        ds = load_mnist_dir(str(tmp_path))
        assert ds.count("train") == 30 and ds.count("test") == 12
        assert len(ds.source_digests) == 4

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="train-images"):
            load_mnist_dir(str(tmp_path))

    @pytest.mark.parametrize("suffix", ["", ".gz"], ids=["plain", "gz"])
    def test_inputs_byte_equal_to_oracle(self, tmp_path, suffix):
        write_mnist_dir(tmp_path, 30, 12, side=3, seed=4, suffix=suffix)
        ds = load_mnist_dir(str(tmp_path))
        inputs, labels = load_mnist_dir_oracle(str(tmp_path))
        assert ds.inputs.dtype == inputs.dtype and ds.inputs.shape == inputs.shape
        assert ds.inputs.tobytes() == inputs.tobytes()
        assert np.array_equal(ds.labels, labels) and ds.labels.dtype == labels.dtype

    @pytest.mark.parametrize("suffix", ["", ".gz"], ids=["plain", "gz"])
    def test_peak_memory_is_one_float_copy(self, tmp_path, suffix):
        # the uint8 pixels once, plus one read chunk (READ_CHUNK, 1 MiB) and
        # the buffer's growth slack; a copy of the pixels, or any float64
        # array of them, exceeds the bound. 10000 images keep the fixed
        # chunk small against the pixels (2500 read 1.34-1.39x).
        write_mnist_dir(tmp_path, 8000, 2000, side=28, seed=5, suffix=suffix)
        tracemalloc.start()
        try:
            ds = load_mnist_dir(str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pixels = ds.labels.size * ds.dim  # bytes of the uint8 payloads
        assert peak < 1.3 * pixels, (peak, pixels)
        assert ds.features.dtype == np.uint8 and ds.features.nbytes == pixels

    def test_width_mismatch_rejected(self, tmp_path):
        write_mnist_dir(tmp_path, 5, 4, side=3, seed=6, test_side=4)
        with pytest.raises(IdxParseError, match="width mismatch"):
            load_mnist_dir(str(tmp_path))


@pytest.fixture(scope="module")
def tiny_mnist(tmp_path_factory):
    """The bytes of four tiny MNIST files (6 train, 3 test 2x2 images) by name,
    and a checkpoint that fits them."""
    root = tmp_path_factory.mktemp("tiny_mnist")
    write_mnist_dir(root, 6, 3, side=2, seed=7)
    files = {p.name: p.read_bytes() for p in sorted(root.iterdir())}
    params = init_mlp((4, 3, 10), "relu", seed=1)
    ckpt = str(root / "tiny.dckp")
    save_checkpoint(ckpt, Checkpoint(
        params=params, pi=RetentionParams.constant(params, 1.0), config={"dev_size": 0},
        seed=1, epoch=0))
    return files, ckpt


@contextlib.contextmanager
def mnist_dir_with(files, name, blob):
    """A directory holding the files, with the one called name replaced by blob."""
    with tempfile.TemporaryDirectory() as d:
        for n, b in files.items():
            Path(d, n).write_bytes(blob if n == name else b)
        yield d


def load_or_none(files, name, blob):
    """load_mnist_dir of the files with one replaced; None on IdxParseError.
    Any other exception fails the calling test."""
    with mnist_dir_with(files, name, blob) as d:
        try:
            return load_mnist_dir(d)
        except IdxParseError:
            return None


FILE_NAMES = sorted(f"{p}-{k}-idx{i}-ubyte" for p in ("train", "t10k")
                    for k, i in (("images", 3), ("labels", 1)))


class TestIdxFuzz:
    """Damaged IDX files give IdxParseError (exit 3 through main) and
    nothing else: no other exception, no allocation of what a damaged
    header declares."""

    def test_every_truncation_rejected(self, tiny_mnist):
        files, _ = tiny_mnist
        for name, blob in files.items():
            for cut in range(len(blob)):
                assert load_or_none(files, name, blob[:cut]) is None, (name, cut)

    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(FILE_NAMES), offset=st.integers(0, 15),
           flip=st.integers(1, 255))
    def test_header_byte_flip(self, tiny_mnist, name, offset, flip):
        files, _ = tiny_mnist
        blob = bytearray(files[name])
        blob[offset % (16 if "images" in name else 8)] ^= flip
        ds = load_or_none(files, name, bytes(blob))
        if ds is not None:
            assert ds.count("train") + ds.count("test") == ds.features.shape[0] == ds.labels.size
            assert 0.0 <= ds.inputs.min() and ds.inputs.max() <= 1.0

    @settings(max_examples=50, deadline=None)
    @given(name=st.sampled_from(FILE_NAMES), cut=st.integers(0, 39))
    def test_truncated_file_eval_exits_3(self, tiny_mnist, name, cut):
        files, ckpt = tiny_mnist
        err = io.StringIO()
        with mnist_dir_with(files, name, files[name][: cut % len(files[name])]) as d, \
                contextlib.redirect_stderr(err):
            code = main(["eval", "--checkpoint", ckpt, "--data-dir", d])
        lines = err.getvalue().strip().splitlines()
        assert code == 3 and len(lines) == 1 and lines[0].startswith("data error: "), lines


class TestSplit:
    def test_sizes_and_partition(self):
        ds = synth_blobs(100, 3, 4, separation=3.0, seed=0)
        out = split_train_dev(ds, 60, seed=1)
        assert out.count("train") == 240 and out.count("dev") == 60
        merged = np.sort(np.concatenate([out.splits["train"], out.splits["dev"]]))
        assert np.array_equal(merged, np.arange(300))

    def test_zero_dev(self):
        ds = synth_blobs(10, 2, 3, separation=3.0, seed=0)
        out = split_train_dev(ds, 0, seed=1)
        assert out.count("train") == 20 and out.count("dev") == 0

    def test_deterministic(self):
        ds = synth_blobs(50, 2, 3, separation=3.0, seed=0)
        a = split_train_dev(ds, 20, seed=9)
        b = split_train_dev(ds, 20, seed=9)
        assert np.array_equal(a.splits["dev"], b.splits["dev"])
        c = split_train_dev(ds, 20, seed=10)
        assert not np.array_equal(a.splits["dev"], c.splits["dev"])

    def test_oversized_dev_rejected(self):
        ds = synth_blobs(10, 2, 3, separation=3.0, seed=0)
        with pytest.raises(ValueError):
            split_train_dev(ds, 20, seed=0)


class TestBlobs:
    def test_wide_separation_nearest_centroid(self):
        ds = synth_blobs(200, 4, 6, separation=10.0, seed=3)
        x, y = ds.inputs, ds.labels
        centroids = np.stack([x[y == c].mean(axis=0) for c in range(4)])
        pred = np.linalg.norm(x[:, None, :] - centroids[None], axis=2).argmin(axis=1)
        assert (pred == y).mean() > 0.99

    def test_zero_separation_near_chance(self):
        ds = synth_blobs(300, 3, 5, separation=0.0, seed=4)
        x, y = ds.inputs, ds.labels
        centroids = np.stack([x[y == c].mean(axis=0) for c in range(3)])
        pred = np.linalg.norm(x[:, None, :] - centroids[None], axis=2).argmin(axis=1)
        acc = (pred == y).mean()
        assert abs(acc - 1.0 / 3.0) < 0.1

    def test_deterministic(self):
        a = synth_blobs(20, 2, 4, separation=2.0, seed=5)
        b = synth_blobs(20, 2, 4, separation=2.0, seed=5)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)

    def test_class_count_validated(self):
        with pytest.raises(ValueError):
            synth_blobs(10, 1, 3, separation=1.0, seed=0)
