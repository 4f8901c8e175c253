import builtins
import contextlib
import io
import json
import os
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dropcompact import checkpoint
from dropcompact.checkpoint import (
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from dropcompact.cli import main, write_histogram_csv, write_manifest, write_metrics_csv
from dropcompact.data import write_idx_images, write_idx_labels
from dropcompact.network import init_mlp
from dropcompact.retention import RetentionParams
from dropcompact.trainer import EpochReport, TrainConfig


def small_checkpoint():
    params = init_mlp((6, 5, 3), "sigmoid", seed=4)
    pi = RetentionParams([np.ones(6), np.full(5, 0.25)])
    return Checkpoint(
        params=params,
        pi=pi,
        config=TrainConfig(layer_dims=(6, 5, 3)).to_dict(),
        seed=17,
        epoch=9,
        best_metrics={"epoch": 7, "dev_err": 4.5, "dev_loss": 0.21},
        compaction_history=[{"mode": "prune", "threshold": 0.5}],
    )


@pytest.fixture
def ckpt():
    return small_checkpoint()


class TestRoundTrip:
    def test_exact_values_restored(self, ckpt, tmp_path):
        path = tmp_path / "c.dckp"
        save_checkpoint(str(path), ckpt)
        loaded = load_checkpoint(str(path))
        for a, b in zip(loaded.params.weights, ckpt.params.weights):
            assert np.array_equal(a, b)
        for a, b in zip(loaded.pi.layers, ckpt.pi.layers):
            assert np.array_equal(a, b)
        assert loaded.config == ckpt.config
        assert loaded.seed == 17 and loaded.epoch == 9
        assert loaded.best_metrics == ckpt.best_metrics
        assert loaded.compaction_history == ckpt.compaction_history
        assert loaded.params.hidden_activations == ("sigmoid",)

    def test_resave_byte_identical(self, ckpt, tmp_path):
        p1, p2 = tmp_path / "a.dckp", tmp_path / "b.dckp"
        save_checkpoint(str(p1), ckpt)
        save_checkpoint(str(p2), load_checkpoint(str(p1)))
        assert p1.read_bytes() == p2.read_bytes()

    def test_version_mismatch_rejected(self, ckpt, tmp_path):
        path = tmp_path / "c.dckp"
        save_checkpoint(str(path), ckpt)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version 99"):
            load_checkpoint(str(path))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "c.dckp"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(str(path))

    def test_truncated_payload_rejected(self, ckpt, tmp_path):
        path = tmp_path / "c.dckp"
        save_checkpoint(str(path), ckpt)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(str(path))


def _edit_header(blob: bytes, edit) -> bytes:
    """Rewrite the JSON header of a saved container through edit(header)."""
    hlen = struct.unpack("<I", blob[8:12])[0]
    header = json.loads(blob[12 : 12 + hlen])
    edit(header)
    new = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return blob[:8] + struct.pack("<I", len(new)) + new + blob[12 + hlen :]


class TestMalformed:
    @pytest.fixture
    def blob(self, ckpt, tmp_path):
        path = tmp_path / "good.dckp"
        save_checkpoint(str(path), ckpt)
        return path.read_bytes()

    def test_every_truncation_rejected(self, blob, tmp_path):
        path = tmp_path / "c.dckp"
        for n in range(len(blob)):
            path.write_bytes(blob[:n])
            with pytest.raises(CheckpointError):
                load_checkpoint(str(path))

    @pytest.mark.parametrize("offset", [12, 13, -1])
    def test_corrupt_header_byte_rejected(self, blob, tmp_path, offset):
        hlen = struct.unpack("<I", blob[8:12])[0]
        bad = bytearray(blob)
        bad[offset % (12 + hlen)] ^= 0xFF
        path = tmp_path / "c.dckp"
        path.write_bytes(bytes(bad))
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("key", ["layer_dims", "arrays", "config", "hidden_activations"])
    def test_missing_header_field_rejected(self, blob, tmp_path, key):
        path = tmp_path / "c.dckp"
        path.write_bytes(_edit_header(blob, lambda h: h.pop(key)))
        with pytest.raises(CheckpointError, match=key):
            load_checkpoint(str(path))

    def test_inconsistent_layer_dims_rejected(self, blob, tmp_path):
        path = tmp_path / "c.dckp"
        path.write_bytes(_edit_header(blob, lambda h: h["layer_dims"].append(4)))
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("damage", ["truncate", "flip"])
    def test_compact_exits_2(self, blob, tmp_path, damage, capsys):
        path = tmp_path / "c.dckp"
        if damage == "truncate":
            path.write_bytes(blob[:6])
        else:
            path.write_bytes(blob[:12] + b"\xff" + blob[13:])
        out = str(tmp_path / "o")
        assert main(["compact", "--checkpoint", str(path), "--mode", "prune", "--out", out]) == 2
        assert "config error" in capsys.readouterr().err


class _FailingFile:
    """File whose second write raises, as a full disk or a kill would."""

    def __init__(self, f):
        self._f, self._writes = f, 0

    def write(self, data):
        self._writes += 1
        if self._writes > 1:
            raise OSError("disk full")
        return self._f.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


def write_eval_inputs(src, ckpt):
    """ckpt (with no dev split) saved as src/c.dckp, and a 2x3-pixel IDX
    data dir in src that it can evaluate."""
    save_checkpoint(str(src / "c.dckp"), replace(ckpt, config={**ckpt.config, "dev_size": 0}))
    rng = np.random.default_rng(0)
    for stem in ("train", "t10k"):
        write_idx_images(str(src / f"{stem}-images-idx3-ubyte"),
                         rng.integers(0, 256, size=(8, 2, 3), dtype=np.uint8))
        write_idx_labels(str(src / f"{stem}-labels-idx1-ubyte"), np.arange(8) % 3)


@pytest.fixture
def eval_inputs(ckpt, tmp_path):
    """ckpt saved to disk, a 2x3-pixel IDX data dir it can evaluate, and a
    metrics.csv for report, outside the directory the writers write to."""
    src = tmp_path / "inputs"
    src.mkdir()
    write_eval_inputs(src, ckpt)
    write_metrics_csv(str(src / "metrics.csv"), "r", "plain", [TestAtomicWrites.REPORT])
    return src


class TestAtomicWrites:
    REPORT = EpochReport(0, 0.5, 0.4, 3.0, 0.45, 3.5, (5,), 45, (0,) * 19 + (5,), 0.01)
    # name -> (file written, call writing it into directory d from the inputs in s)
    WRITERS = {
        "checkpoint": ("out", lambda d, s, ck: save_checkpoint(str(d / "out"), ck)),
        "metrics": ("out", lambda d, s, ck: write_metrics_csv(
            str(d / "out"), "r", "plain", [TestAtomicWrites.REPORT])),
        "histogram": ("out", lambda d, s, ck: write_histogram_csv(
            str(d / "out"), [TestAtomicWrites.REPORT])),
        "manifest": ("out", lambda d, s, ck: write_manifest(str(d / "out"), {"a": 1, "b": 2})),
        "eval": ("eval.csv", lambda d, s, ck: main(
            ["eval", "--checkpoint", str(s / "c.dckp"), "--data-dir", str(s), "--out", str(d)])),
        "plot_data": ("plot_data.csv", lambda d, s, ck: main(
            ["report", str(s / "metrics.csv"), "--out", str(d)])),
    }
    APPENDS = {"eval"}  # keeps what the file held and adds its rows, without the header

    @staticmethod
    def _temp_files(d):
        return [p.name for p in d.iterdir() if p.name.startswith(".")]

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_failed_write_keeps_previous_file(
        self, writer, ckpt, eval_inputs, tmp_path, monkeypatch
    ):
        name, write = self.WRITERS[writer]
        out = tmp_path / "o"
        out.mkdir()
        (out / name).write_bytes(b"previous contents\r\n")

        def failing_open(file, mode="r", *args, **kwargs):
            f = builtins.open(file, mode, *args, **kwargs)
            return _FailingFile(f) if name in os.path.basename(file) else f

        monkeypatch.setattr(checkpoint, "open", failing_open, raising=False)
        with pytest.raises(OSError, match="disk full"):
            write(out, eval_inputs, ckpt)
        assert (out / name).read_bytes() == b"previous contents\r\n"
        assert self._temp_files(out) == []

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_success_replaces_file(self, writer, ckpt, eval_inputs, tmp_path):
        name, write = self.WRITERS[writer]
        out, fresh = tmp_path / "o", tmp_path / "fresh"
        out.mkdir()
        fresh.mkdir()
        (out / name).write_bytes(b"previous contents\r\n")
        write(out, eval_inputs, ckpt)
        write(fresh, eval_inputs, ckpt)
        want = (fresh / name).read_bytes()
        if writer in self.APPENDS:
            want = b"previous contents\r\n" + want.split(b"\r\n", 1)[1]
        assert (out / name).read_bytes() == want != b"previous contents\r\n"
        assert self._temp_files(out) == self._temp_files(fresh) == []


def run_main(argv):
    """main(argv)'s exit code and the lines it printed to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue().strip().splitlines()


class TestRetentionOutOfRange:
    """A retention entry outside [0, 1], NaN included, makes a checkpoint
    malformed: nothing evaluates or compacts it."""

    @pytest.fixture
    def nan_path(self, ckpt, eval_inputs):
        path = eval_inputs / "nan.dckp"
        pi = RetentionParams([np.ones(6), np.array([0.25, np.nan, 0.25, 0.25, 0.25])])
        save_checkpoint(str(path), replace(ckpt, pi=pi, config={**ckpt.config, "dev_size": 0}))
        return path

    def test_load_rejects_nan(self, nan_path):
        with pytest.raises(CheckpointError, match="retention vector 1 leaves"):
            load_checkpoint(str(nan_path))

    @pytest.mark.parametrize("command", ["eval", "compact"])
    def test_cli_exits_2(self, command, nan_path, eval_inputs, tmp_path):
        out = tmp_path / "o"
        argv = {
            "eval": ["eval", "--data-dir", str(eval_inputs)],
            "compact": ["compact", "--mode", "prune", "--out", str(out)],
        }[command]
        code, lines = run_main(argv + ["--checkpoint", str(nan_path)])
        assert code == 2 and len(lines) == 1 and lines[0].startswith("config error: "), lines
        assert not out.exists()


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A directory holding a small checkpoint (c.dckp) and data it can
    evaluate, and the checkpoint's bytes."""
    src = tmp_path_factory.mktemp("ckpt_fuzz")
    write_eval_inputs(src, small_checkpoint())
    return src, (src / "c.dckp").read_bytes()


class TestCheckpointFuzz:
    """A damaged checkpoint either still evaluates (exit 0) or is a config
    error (exit 2, one line); no exception gets out of main."""

    @settings(max_examples=300, deadline=None)
    @given(where=st.integers(0, 1 << 16), flip=st.integers(1, 255))
    def test_byte_flip_eval(self, fuzz_inputs, where, flip):
        src, blob = fuzz_inputs
        bad = bytearray(blob)
        bad[where % len(bad)] ^= flip
        path = src / "flipped.dckp"
        path.write_bytes(bytes(bad))
        code, lines = run_main(["eval", "--checkpoint", str(path), "--data-dir", str(src)])
        assert code in (0, 2), (code, lines)
        if code == 2:
            assert len(lines) == 1 and lines[0].startswith("config error: "), lines

