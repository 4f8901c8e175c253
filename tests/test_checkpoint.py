import builtins
import contextlib
import io
import json
import os
import struct
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak
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

    def test_file_shrunk_after_fstat_rejected(self, ckpt, tmp_path, monkeypatch):
        # every length check passes against the stale size, so only the short
        # read of the last payload shows that its bytes are gone
        path = tmp_path / "c.dckp"
        save_checkpoint(str(path), ckpt)
        path.write_bytes(path.read_bytes()[:-8])
        fstat = os.fstat
        with monkeypatch.context() as m:
            m.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=fstat(fd).st_size + 8))
            with pytest.raises(CheckpointError, match="truncated payload"):
                load_checkpoint(str(path))

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_path_rejected(self, tmp_path, kind):
        # the loader reports the OSError of a path it cannot read as its own error
        path = tmp_path / "c.dckp"
        if kind == "directory":
            path.mkdir()
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(str(path))
        assert str(info.value).startswith(f"cannot read checkpoint {path}: ")
        assert isinstance(info.value.__cause__, OSError)


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

    @pytest.mark.parametrize("key", ["layer_dims", "arrays", "config", "hidden_activations",
                                     "best_metrics", "compaction_history"])
    def test_missing_header_field_rejected(self, blob, tmp_path, key):
        path = tmp_path / "c.dckp"
        path.write_bytes(_edit_header(blob, lambda h: h.pop(key)))
        with pytest.raises(CheckpointError, match=key):
            load_checkpoint(str(path))

    def test_header_not_an_object_rejected(self, blob, tmp_path):
        hlen = struct.unpack("<I", blob[8:12])[0]
        path = tmp_path / "c.dckp"
        path.write_bytes(blob[:8] + struct.pack("<I", 2) + b"[]" + blob[12 + hlen :])
        with pytest.raises(CheckpointError, match="not a JSON object"):
            load_checkpoint(str(path))

    def test_inconsistent_layer_dims_rejected(self, blob, tmp_path):
        path = tmp_path / "c.dckp"
        path.write_bytes(_edit_header(blob, lambda h: h["layer_dims"].append(4)))
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    @staticmethod
    def _refused(tmp_path, data, match):
        path = tmp_path / "c.dckp"
        path.write_bytes(data)
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("dims", [[6, 4, 3], [7, 5, 3], [6, 5, 2], [6.0, 5, 3],
                                      [6, True, 3], [6, 5, False]],
                             ids=lambda dims: json.dumps(dims, separators=(",", ":")))
    def test_layer_dims_other_than_widths_rejected(self, blob, tmp_path, dims):
        # the arrays are those of a 6-5-3 net
        self._refused(tmp_path, _edit_header(blob, lambda h: h.update(layer_dims=dims)),
                      "layer_dims")

    # edit of the 6-5-3 net's array list -> float64 payloads appended to match it
    ARRAY_EDITS = {
        "extra-entry": (lambda a: a.append({"name": "retention_2", "shape": [3]}), 3),
        "weight_0-twice": (lambda a: a.append({"name": "weight_0", "shape": [5, 6]}), 30),
        "weight_0-bias_0-swapped": (lambda a: a.insert(0, a.pop(1)), 0),
    }

    @pytest.mark.parametrize("case", sorted(ARRAY_EDITS))
    def test_arrays_other_than_saved_rejected(self, blob, tmp_path, case):
        edit, extra = self.ARRAY_EDITS[case]
        bad = _edit_header(blob, lambda h: edit(h["arrays"])) + bytes(8 * extra)
        self._refused(tmp_path, bad, "checkpoint arrays")

    def test_arrays_other_than_saved_eval_exits_2(self, eval_inputs):
        edit, extra = self.ARRAY_EDITS["weight_0-twice"]
        path = eval_inputs / "twice.dckp"
        blob = (eval_inputs / "c.dckp").read_bytes()
        path.write_bytes(_edit_header(blob, lambda h: edit(h["arrays"])) + bytes(8 * extra))
        code, lines = run_main(["eval", "--checkpoint", str(path), "--data-dir", str(eval_inputs)])
        assert code == 2 and len(lines) == 1, (code, lines)
        assert lines[0].startswith("config error: checkpoint arrays "), lines

    @pytest.mark.parametrize("key", ["seed", "epoch"])
    @pytest.mark.parametrize("value", [True, False])
    def test_bool_integer_field_rejected(self, blob, tmp_path, key, value):
        self._refused(tmp_path, _edit_header(blob, lambda h: h.update({key: value})), key)

    def test_bool_shape_dimension_rejected(self, tmp_path):
        # a 6-1-3 net, whose bias_0 has shape [1]: true stands for the 1
        params = init_mlp((6, 1, 3), "sigmoid", seed=4)
        path = tmp_path / "narrow.dckp"
        save_checkpoint(str(path), Checkpoint(
            params=params, pi=RetentionParams.constant(params, 1.0), config={}, seed=0, epoch=0))

        def edit(header):
            assert header["arrays"][1] == {"name": "bias_0", "shape": [1]}
            header["arrays"][1]["shape"] = [True]

        self._refused(tmp_path, _edit_header(path.read_bytes(), edit), "bad array entry")

    # a dtype would be ignored: every payload is read as float64
    @pytest.mark.parametrize("edit, match", [
        (lambda h: h.update(extra=1), r"unknown checkpoint header fields \['extra'\]"),
        (lambda h: h["arrays"][0].update(dtype="<f4"), "bad array entry"),
    ], ids=["header", "array-entry"])
    def test_key_save_does_not_write_rejected(self, blob, tmp_path, edit, match):
        self._refused(tmp_path, _edit_header(blob, edit), match)

    @pytest.mark.parametrize("version", [7, 0, 2, 1.0, True, "1"])
    def test_format_version_other_than_saved_rejected(self, blob, tmp_path, version):
        self._refused(tmp_path, _edit_header(blob, lambda h: h.update(format_version=version)),
                      "format_version")

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


def big_checkpoint():
    """A checkpoint of about 1.8 MB whose arrays are mostly one weight matrix."""
    params = init_mlp((100, 2000, 10), "relu", seed=5)
    return Checkpoint(
        params=params, pi=RetentionParams.constant(params, 0.75), config={}, seed=5, epoch=1
    )


def array_bytes(ckpt) -> int:
    return sum(a.nbytes for a in [*ckpt.params.weights, *ckpt.params.biases, *ckpt.pi])


class TestPayloadMemory:
    """Payloads go straight between file and array: no copy of their bytes."""

    def test_round_trip_over_one_mib(self, tmp_path):
        ckpt = big_checkpoint()
        assert array_bytes(ckpt) > 1 << 20
        p1, p2 = tmp_path / "a.dckp", tmp_path / "b.dckp"
        save_checkpoint(str(p1), ckpt)
        loaded = load_checkpoint(str(p1))
        for a, b in zip([*loaded.params.weights, *loaded.params.biases, *loaded.pi],
                        [*ckpt.params.weights, *ckpt.params.biases, *ckpt.pi]):
            assert a.dtype == np.float64 and a.shape == b.shape and np.array_equal(a, b)
        save_checkpoint(str(p2), loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_peak_is_its_arrays(self, tmp_path):
        ckpt = big_checkpoint()
        path = str(tmp_path / "c.dckp")
        save_checkpoint(path, ckpt)
        peak = traced_peak(load_checkpoint, path)
        assert peak <= 1.1 * array_bytes(ckpt), (peak, array_bytes(ckpt))

    def test_save_peak_below_one_mib(self, tmp_path):
        ckpt = big_checkpoint()
        peak = traced_peak(save_checkpoint, str(tmp_path / "c.dckp"), ckpt)
        assert peak < 1 << 20, peak


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
    REPORT = EpochReport(0, 0.5, 0.4, 3.0, 0.45, 3.5, (5,), 45, (0,) * 19 + (5,))
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
    COMMANDS = {"eval", "plot_data"}  # written by a command run through main

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
        if writer in self.COMMANDS:  # main maps the OSError to exit 2
            assert write(out, eval_inputs, ckpt) == 2
        else:
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


def _poisoned(arrays, i, value):
    """Copies of arrays with the first entry of arrays[i] set to value."""
    out = [a.copy() for a in arrays]
    out[i].flat[0] = value
    return out


def _with_params(ck, **fields):
    return replace(ck, params=replace(ck.params, **fields))


class TestMalformedContents:
    """A file whose header and payload agree, but whose arrays no net can
    use, is a config error: eval exits 2 with one line. So is a valid file
    with a byte appended, and a path that does not exist."""

    # damage to the valid 6-5-3 sigmoid checkpoint -> part of the message
    CASES = {
        "nan-weight": (lambda ck: _with_params(
            ck, weights=_poisoned(ck.params.weights, 0, np.nan)), "non-finite parameter"),
        "inf-bias": (lambda ck: _with_params(
            ck, biases=_poisoned(ck.params.biases, 1, np.inf)), "non-finite parameter"),
        "bias-length": (lambda ck: _with_params(
            ck, biases=[np.zeros(4), ck.params.biases[1]]), "bias shape (4,)"),
        "fan-in": (lambda ck: _with_params(
            ck, weights=[ck.params.weights[0], np.zeros((3, 4))]), "fan-in"),
        "extra-activation": (lambda ck: _with_params(
            ck, hidden_activations=("sigmoid", "sigmoid")), "one activation per hidden layer"),
        "tanh": (lambda ck: _with_params(ck, hidden_activations=("tanh",)), "'tanh'"),
        "retention-2d": (lambda ck: replace(
            ck, pi=RetentionParams([np.ones(6), np.full((1, 5), 0.25)])), "1-D"),
        "retention-width": (lambda ck: replace(
            ck, pi=RetentionParams([np.ones(6), np.full(4, 0.25)])), "vs width 5"),
    }

    @staticmethod
    def _eval_error(path, src):
        code, lines = run_main(["eval", "--checkpoint", str(path), "--data-dir", str(src)])
        assert code == 2 and len(lines) == 1 and lines[0].startswith("config error: "), lines
        return lines[0]

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_eval_exits_2(self, case, eval_inputs):
        damage, message = self.CASES[case]
        path = eval_inputs / "bad.dckp"
        save_checkpoint(str(path), damage(load_checkpoint(str(eval_inputs / "c.dckp"))))
        assert message in self._eval_error(path, eval_inputs)

    def test_appended_byte_exits_2(self, eval_inputs):
        path = eval_inputs / "long.dckp"
        path.write_bytes((eval_inputs / "c.dckp").read_bytes() + b"\0")
        assert "trailing bytes" in self._eval_error(path, eval_inputs)

    def test_missing_path_exits_2(self, eval_inputs):
        path = eval_inputs / "absent.dckp"
        assert "cannot read checkpoint" in self._eval_error(path, eval_inputs)


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A directory holding a small checkpoint (c.dckp) and data it can
    evaluate, and the checkpoint's bytes."""
    src = tmp_path_factory.mktemp("ckpt_fuzz")
    write_eval_inputs(src, small_checkpoint())
    return src, (src / "c.dckp").read_bytes()


@pytest.mark.parametrize("key", ["best_metrics", "compaction_history"])
def test_eval_of_header_without_bookkeeping_exits_2(fuzz_inputs, key):
    # every save_checkpoint writes both fields, so a header without one is damaged
    src, blob = fuzz_inputs
    path = src / f"no_{key}.dckp"
    path.write_bytes(_edit_header(blob, lambda h: h.pop(key)))
    code, lines = run_main(["eval", "--checkpoint", str(path), "--data-dir", str(src)])
    assert code == 2 and len(lines) == 1, (code, lines)
    assert lines[0].startswith("config error: ") and key in lines[0], lines


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)


def _json_edits(value):
    """JSON values to put in place of value: any value, and ones Python
    finds equal to it, or to one element of it (an int as a float or a
    bool, a list with one element so edited)."""
    edits = _JSON
    if type(value) is int:
        edits |= st.sampled_from([float(value)] + [bool(value)] * (value in (0, 1)))
    if type(value) is list and value:
        edits |= st.integers(0, len(value) - 1).flatmap(
            lambda i: _json_edits(value[i]).map(lambda v: value[:i] + [v] + value[i + 1 :]))
    return edits


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

    def test_every_truncation_eval(self, fuzz_inputs):
        src, blob = fuzz_inputs
        path = src / "truncated.dckp"
        wrong = {}
        for size in range(len(blob)):
            path.write_bytes(blob[:size])
            try:
                code, lines = run_main(["eval", "--checkpoint", str(path), "--data-dir", str(src)])
            except Exception as e:  # recorded with its size, as a finding
                code, lines = None, [repr(e)]
            if code != 2 or len(lines) != 1 or not lines[0].startswith("config error: "):
                wrong[size] = (code, lines)
        assert wrong == {}

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_load_accepts_only_what_save_writes(self, fuzz_inputs, data):
        # one header field, or one array entry's name or shape, replaced by
        # a drawn JSON value; or a drawn key (None below) added with one
        src, blob = fuzz_inputs
        hlen = struct.unpack("<I", blob[8:12])[0]
        header = json.loads(blob[12 : 12 + hlen])
        where = data.draw(st.sampled_from(
            [(key,) for key in [*sorted(header), None]]
            + [("arrays", i, key) for i in range(len(header["arrays"]))
               for key in ("name", "shape", None)]
        ))
        *parents, last = where

        def parent(h):
            for key in parents:
                h = h[key]
            return h

        if last is None:
            last = data.draw(st.text().filter(lambda k: k not in parent(header)))
            value = data.draw(_JSON)
        else:
            value = data.draw(_json_edits(parent(header)[last]))
        edited = _edit_header(blob, lambda h: parent(h).__setitem__(last, value))
        path = src / "edited.dckp"
        path.write_bytes(edited)
        code, lines = run_main(["eval", "--checkpoint", str(path), "--data-dir", str(src)])
        assert code in (0, 2), (code, lines)
        if code == 2:
            assert len(lines) == 1 and lines[0].startswith("config error: "), lines
        try:
            loaded = load_checkpoint(str(path))
        except CheckpointError:
            return
        resaved = src / "resaved.dckp"
        save_checkpoint(str(resaved), loaded)
        assert resaved.read_bytes() == edited, (where, value)

    @settings(max_examples=60, deadline=None)
    @given(
        entry=st.integers(0, 4),
        huge=st.lists(st.integers(1 << 32, 1 << 80), min_size=2, max_size=3),
        zero_at=st.integers(0, 3),
    )
    def test_unbuildable_shape_rejected(self, fuzz_inputs, entry, huge, zero_at):
        # the zero makes the declared payload 0 bytes, so the shape passes
        # the length check; the other dimensions' product overflows numpy
        src, blob = fuzz_inputs
        shape = huge[:zero_at] + [0] + huge[zero_at:]

        def edit(header):
            header["arrays"][entry]["shape"] = shape

        path = src / "shape.dckp"
        path.write_bytes(_edit_header(blob, edit))
        with pytest.raises(CheckpointError, match="bad shape"):
            load_checkpoint(str(path))
