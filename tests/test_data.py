import struct
from pathlib import Path

import numpy as np
import pytest

from conftest import synth_blobs
from dropcompact.data import (
    IdxParseError,
    load_idx,
    load_idx_images,
    load_idx_labels,
    load_mnist_dir,
    quantize_pixels,
    split_train_dev,
    write_idx_images,
    write_idx_labels,
)
from dropcompact.linalg import rng_stream


@pytest.fixture
def idx_pair(tmp_path):
    rng = rng_stream(0, "idx")
    images = rng.integers(0, 256, size=(40, 5, 5), dtype=np.uint8)
    labels = rng.integers(0, 10, size=40).astype(np.uint8)
    ip, lp = tmp_path / "imgs", tmp_path / "labs"
    write_idx_images(str(ip), images)
    write_idx_labels(str(lp), labels)
    return str(ip), str(lp), images, labels


class TestIdxRoundTrip:
    def test_bytes_identical_after_reserialize(self, idx_pair, tmp_path):
        ip, lp, _, _ = idx_pair
        ds = load_idx(ip, lp)
        assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0
        assert np.isfinite(ds.inputs).all()
        ip2, lp2 = tmp_path / "imgs2", tmp_path / "labs2"
        write_idx_images(str(ip2), quantize_pixels(ds.inputs))
        write_idx_labels(str(lp2), ds.labels)
        assert Path(ip).read_bytes() == ip2.read_bytes()
        assert Path(lp).read_bytes() == lp2.read_bytes()

    def test_gzip_suffix_roundtrip(self, tmp_path):
        images = rng_stream(1, "g").integers(0, 256, size=(7, 4, 4), dtype=np.uint8)
        p = tmp_path / "imgs.gz"
        write_idx_images(str(p), images)
        loaded = load_idx_images(str(p))
        assert np.array_equal(quantize_pixels(loaded).reshape(7, 4, 4), images)

    def test_magic_mismatch_names_field(self, idx_pair):
        ip, lp, _, _ = idx_pair
        with pytest.raises(IdxParseError, match="magic mismatch"):
            load_idx_images(lp)  # label magic in image position
        with pytest.raises(IdxParseError, match="magic mismatch"):
            load_idx_labels(ip)

    def test_truncated_file_names_offset(self, tmp_path):
        p = tmp_path / "trunc"
        with open(p, "wb") as f:
            f.write(struct.pack(">IIII", 0x803, 10, 5, 5))
            f.write(b"\x00" * 30)  # should be 250 bytes
        with pytest.raises(IdxParseError, match="offset 16"):
            load_idx_images(str(p))

    def test_count_mismatch_rejected(self, idx_pair, tmp_path):
        ip, _, _, _ = idx_pair
        lp2 = tmp_path / "short_labels"
        write_idx_labels(str(lp2), np.arange(10, dtype=np.uint8))
        with pytest.raises(IdxParseError, match="count mismatch"):
            load_idx(ip, str(lp2))

    def test_trailing_bytes_rejected(self, idx_pair, tmp_path):
        ip, _, images, _ = idx_pair
        p = tmp_path / "padded"
        with open(ip, "rb") as f:
            blob = f.read()
        with open(p, "wb") as f:
            f.write(blob + b"\x00")
        with pytest.raises(IdxParseError, match="trailing"):
            load_idx_images(str(p))


class TestMnistDir:
    def test_loads_four_files_with_tags(self, tmp_path):
        rng = rng_stream(2, "md")
        for stem, n in (("train", 30), ("t10k", 12)):
            imgs = rng.integers(0, 256, size=(n, 3, 3), dtype=np.uint8)
            labs = rng.integers(0, 10, size=n).astype(np.uint8)
            write_idx_images(str(tmp_path / f"{stem}-images-idx3-ubyte"), imgs)
            write_idx_labels(str(tmp_path / f"{stem}-labels-idx1-ubyte"), labs)
        ds = load_mnist_dir(str(tmp_path))
        assert ds.count("train") == 30 and ds.count("test") == 12
        assert len(ds.source_digests) == 4

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="train-images"):
            load_mnist_dir(str(tmp_path))


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
