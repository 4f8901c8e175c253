import builtins
import json
import struct

import numpy as np
import pytest

from dropcompact import checkpoint
from dropcompact.checkpoint import (
    Checkpoint,
    CheckpointError,
    export_text,
    load_checkpoint,
    save_checkpoint,
)
from dropcompact.cli import main, write_histogram_csv, write_manifest, write_metrics_csv
from dropcompact.network import init_mlp
from dropcompact.retention import RetentionParams
from dropcompact.trainer import EpochReport, TrainConfig


@pytest.fixture
def ckpt():
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


class TestTextExport:
    def test_hex_floats_roundtrip(self, ckpt):
        doc = json.loads(export_text(ckpt))
        arr = doc["arrays"]["weight_0"]
        values = np.array([float.fromhex(v) for v in arr["values"]]).reshape(arr["shape"])
        assert np.array_equal(values, ckpt.params.weights[0])
        assert doc["config"] == ckpt.config


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


class TestAtomicWrites:
    REPORT = EpochReport(0, 0.5, 0.4, 3.0, 0.45, 3.5, (5,), 45, (0,) * 19 + (5,), 0.01)
    WRITERS = {
        "checkpoint": lambda path, ck: save_checkpoint(path, ck),
        "metrics": lambda path, ck: write_metrics_csv(path, "r", "plain", [TestAtomicWrites.REPORT]),
        "histogram": lambda path, ck: write_histogram_csv(path, [TestAtomicWrites.REPORT]),
        "manifest": lambda path, ck: write_manifest(path, {"a": 1, "b": 2}),
    }

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_failed_write_keeps_previous_file(self, writer, ckpt, tmp_path, monkeypatch):
        path = tmp_path / "out"
        path.write_bytes(b"previous contents")
        monkeypatch.setattr(
            checkpoint, "open", lambda *a, **k: _FailingFile(builtins.open(*a, **k)), raising=False
        )
        with pytest.raises(OSError, match="disk full"):
            self.WRITERS[writer](str(path), ckpt)
        assert path.read_bytes() == b"previous contents"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_success_replaces_file(self, writer, ckpt, tmp_path):
        path, fresh = tmp_path / "out", tmp_path / "fresh"
        path.write_bytes(b"previous contents")
        self.WRITERS[writer](str(path), ckpt)
        self.WRITERS[writer](str(fresh), ckpt)
        assert path.read_bytes() == fresh.read_bytes() != b"previous contents"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh", "out"]
