import csv
import hashlib
import struct

import numpy as np
import pytest

from conftest import make_teacher_dataset
from dropcompact.checkpoint import load_checkpoint, save_checkpoint
from dropcompact.cli import config_hash, main, write_metrics_csv
from dropcompact.data import quantize_pixels, write_idx_images, write_idx_labels
from dropcompact.trainer import TrainConfig, run_training


@pytest.fixture(scope="session")
def data_dir(tmp_path_factory):
    """Fabricated 7x7-pixel IDX dataset with teacher-generated labels."""
    root = tmp_path_factory.mktemp("idxdata")
    ds = make_teacher_dataset(1300, dim=49, classes=10, seed=42)
    imgs = quantize_pixels(ds.inputs).reshape(-1, 7, 7)
    write_idx_images(str(root / "train-images-idx3-ubyte"), imgs[:1000])
    write_idx_labels(str(root / "train-labels-idx1-ubyte"), ds.labels[:1000])
    write_idx_images(str(root / "t10k-images-idx3-ubyte"), imgs[1000:])
    write_idx_labels(str(root / "t10k-labels-idx1-ubyte"), ds.labels[1000:])
    return str(root)


def write_config(path, **overrides):
    defaults = dict(
        regime="plain",
        layer_dims="49,12,10",
        epochs=2,
        batch_size=64,
        lr=0.02,
        momentum=0.9,
        seed=3,
        dev_size=200,
        patience=50,
    )
    defaults.update(overrides)
    with open(path, "w") as f:
        f.write("# test config\n")
        for k, v in defaults.items():
            f.write(f"{k} = {v}\n")
    return str(path)


class TestTrain:
    def test_plain_run_writes_artifacts(self, data_dir, tmp_path):
        cfg = write_config(tmp_path / "c.ini")
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--data-dir", data_dir, "--out", str(out)]) == 0
        for name in (
            "checkpoint_final.dckp",
            "checkpoint_best.dckp",
            "metrics.csv",
            "retention_hist.csv",
            "manifest.txt",
        ):
            assert (out / name).exists()
        rows = list(csv.DictReader(open(out / "metrics.csv")))
        assert len(rows) == 2
        assert rows[0]["regime"] == "plain"
        assert int(rows[0]["n_weights"]) == 49 * 12 + 12 * 10

    def test_repeat_run_identical_metrics_bytes(self, data_dir, tmp_path):
        cfg = write_config(tmp_path / "c.ini")
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["train", "--config", cfg, "--data-dir", data_dir, "--out", str(out1)]) == 0
        assert main(["train", "--config", cfg, "--data-dir", data_dir, "--out", str(out2)]) == 0
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
        assert (out1 / "manifest.txt").read_bytes() == (out2 / "manifest.txt").read_bytes()
        assert (out1 / "checkpoint_best.dckp").read_bytes() == (
            out2 / "checkpoint_best.dckp"
        ).read_bytes()

    def test_unknown_config_key_exit_2(self, data_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.ini", learning_rate=0.1)
        assert main(["train", "--config", cfg, "--data-dir", data_dir]) == 2
        assert "learning_rate" in capsys.readouterr().err

    def test_malformed_line_exit_2(self, data_dir, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("regime plain\n")
        assert main(["train", "--config", str(path), "--data-dir", data_dir]) == 2

    def test_missing_data_exit_3(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini")
        assert main(["train", "--config", cfg, "--data-dir", str(tmp_path / "nowhere")]) == 3

    def test_zero_epochs_untrained_checkpoint(self, data_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.ini", epochs=0, dev_size=0)
        out = tmp_path / "run0"
        assert main(["train", "--config", cfg, "--data-dir", data_dir, "--out", str(out)]) == 0
        assert main(
            ["eval", "--checkpoint", str(out / "checkpoint_final.dckp"), "--data-dir", data_dir,
             "--split", "test"]
        ) == 0
        err = float(capsys.readouterr().out.split("error_pct=")[1].split()[0])
        assert 75.0 <= err <= 97.0  # untrained 10-class net sits near 90%

    def test_seed_and_regime_overrides(self, data_dir, tmp_path):
        cfg = write_config(tmp_path / "c.ini")
        out = tmp_path / "ovr"
        assert main(
            ["train", "--config", cfg, "--data-dir", data_dir, "--out", str(out),
             "--seed", "9", "--regime", "dropout"]
        ) == 0
        rows = list(csv.DictReader(open(out / "metrics.csv")))
        assert rows[0]["regime"] == "dropout"
        assert "-s9-" in rows[0]["run_id"]


@pytest.fixture(scope="session")
def trained(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    write_config(out / "c.ini", epochs=3)
    assert main(["train", "--config", str(out / "c.ini"), "--data-dir", data_dir,
                 "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="session")
def trained_deep(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained_c")
    write_config(out / "c.ini", layer_dims="49,10,10,10", epochs=2)
    assert main(["train", "--config", str(out / "c.ini"), "--data-dir", data_dir,
                 "--out", str(out)]) == 0
    return out


class TestEval:
    def test_eval_prints_metrics(self, trained, data_dir, capsys):
        assert main(
            ["eval", "--checkpoint", str(trained / "checkpoint_best.dckp"),
             "--data-dir", data_dir, "--split", "test"]
        ) == 0
        out = capsys.readouterr().out
        assert "error_pct=" in out and "avg_loss=" in out

    def test_eval_deterministic_output(self, trained, data_dir, capsys):
        args = ["eval", "--checkpoint", str(trained / "checkpoint_best.dckp"),
                "--data-dir", data_dir, "--split", "test"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_missing_split_exit_3(self, trained, data_dir):
        assert main(
            ["eval", "--checkpoint", str(trained / "checkpoint_best.dckp"),
             "--data-dir", data_dir, "--split", "bogus"]
        ) == 3

    def test_version_mismatch_exit_2(self, trained, data_dir, tmp_path):
        src = (trained / "checkpoint_best.dckp").read_bytes()
        bad = tmp_path / "bad.dckp"
        bad.write_bytes(src[:4] + struct.pack("<I", 99) + src[8:])
        assert main(
            ["eval", "--checkpoint", str(bad), "--data-dir", data_dir, "--split", "test"]
        ) == 2


class TestCompact:
    def test_svd_mode_weight_count(self, trained_deep, tmp_path):
        out = tmp_path / "svd"
        assert main(
            ["compact", "--checkpoint", str(trained_deep / "checkpoint_best.dckp"),
             "--mode", "svd", "--rank", "2", "--out", str(out)]
        ) == 0
        ck = load_checkpoint(str(out / "checkpoint_compacted.dckp"))
        assert ck.params.layer_dims == (49, 10, 2, 10, 10)
        assert sum(w.size for w in ck.params.weights) == 49 * 10 + 10 * 2 + 2 * 10 + 10 * 10

    def test_prune_all_ones_noop(self, trained_deep, tmp_path):
        out = tmp_path / "prune"
        assert main(
            ["compact", "--checkpoint", str(trained_deep / "checkpoint_best.dckp"),
             "--mode", "prune", "--threshold", "0.5", "--out", str(out)]
        ) == 0
        ck = load_checkpoint(str(out / "checkpoint_compacted.dckp"))
        assert ck.params.layer_dims == (49, 10, 10, 10)

    def test_prune_empty_layer_exit_4(self, trained_deep, tmp_path):
        ck = load_checkpoint(str(trained_deep / "checkpoint_best.dckp"))
        ck.pi.layers[1][:] = 0.0
        dead = tmp_path / "dead.dckp"
        save_checkpoint(str(dead), ck)
        assert main(
            ["compact", "--checkpoint", str(dead), "--mode", "prune",
             "--threshold", "0.5", "--out", str(tmp_path / "x")]
        ) == 4

    def test_resume_finetunes_compacted_net(self, trained_deep, data_dir, tmp_path):
        out = tmp_path / "svd2"
        assert main(
            ["compact", "--checkpoint", str(trained_deep / "checkpoint_best.dckp"),
             "--mode", "svd", "--rank", "3", "--out", str(out)]
        ) == 0
        cfg = write_config(tmp_path / "ft.ini", epochs=1, regime="plain")
        ftout = tmp_path / "ft"
        assert main(
            ["train", "--config", cfg, "--data-dir", data_dir, "--out", str(ftout),
             "--resume", str(out / "checkpoint_compacted.dckp")]
        ) == 0
        ck = load_checkpoint(str(ftout / "checkpoint_final.dckp"))
        assert ck.params.layer_dims == (49, 10, 3, 10, 10)


class TestBench:
    def test_csv_output_and_flop_determinism(self, capsys):
        args = ["bench", "--shape", "16,32,8", "--reps", "30", "--batch", "1"]
        assert main(args) == 0
        out1 = capsys.readouterr().out
        assert main(args) == 0
        out2 = capsys.readouterr().out
        rows1 = list(csv.DictReader(out1.splitlines()))
        rows2 = list(csv.DictReader(out2.splitlines()))
        assert rows1[0]["flops_per_example"] == rows2[0]["flops_per_example"] == str(16 * 32 + 32 * 8)

    def test_ref_shape_ratio_fields(self, capsys):
        assert main(
            ["bench", "--shape", "16,64,8", "--ref-shape", "16,32,8", "--reps", "30"]
        ) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        by_shape = {r["shape"]: r for r in rows}
        want = (16 * 32 + 32 * 8) / (16 * 64 + 64 * 8)
        assert float(by_shape["16x64x8"]["flop_ratio_vs_ref"]) == pytest.approx(want)

    def test_low_reps_exit_2(self):
        assert main(["bench", "--shape", "16,32,8", "--reps", "10"]) == 2

    def test_bad_shape_exit_2(self):
        assert main(["bench", "--shape", "16", "--reps", "30"]) == 2


class TestReport:
    def _write_metrics(self, path, run_id, regime, rows):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(
                ["run_id", "regime", "epoch", "train_loss", "dev_loss", "dev_err",
                 "test_loss", "test_err", "n_weights", "units_l1"]
            )
            for epoch, dev_err, test_err, test_loss in rows:
                w.writerow([run_id, regime, epoch, 0.5, 0.4, dev_err, test_loss, test_err, 1000, 10])

    def test_aggregates_best_rows(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self._write_metrics(a, "r1", "plain", [(0, 5.0, 6.0, 0.30), (1, 4.0, 5.0, 0.20)])
        self._write_metrics(b, "r2", "plain", [(0, 3.0, 4.0, 0.10), (1, 3.5, 4.5, 0.15)])
        out = tmp_path / "rep"
        assert main(["report", str(a), str(b), "--out", str(out)]) == 0
        rows = list(csv.DictReader(open(out / "plot_data.csv")))
        assert len(rows) == 1
        # best rows: epoch 1 of r1 (err 5.0) and epoch 0 of r2 (err 4.0)
        assert float(rows[0]["mean_test_err"]) == pytest.approx(4.5)
        assert float(rows[0]["std_test_err"]) == pytest.approx(np.std([5.0, 4.0], ddof=1))

    def test_single_run_std_zero(self, tmp_path):
        a = tmp_path / "a.csv"
        self._write_metrics(a, "r1", "dropout", [(0, 5.0, 6.0, 0.3)])
        out = tmp_path / "rep"
        assert main(["report", str(a), "--out", str(out)]) == 0
        rows = list(csv.DictReader(open(out / "plot_data.csv")))
        assert float(rows[0]["std_test_err"]) == 0.0

    def test_mixed_regimes_grouped(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self._write_metrics(a, "r1", "plain", [(0, 5.0, 6.0, 0.3)])
        self._write_metrics(b, "r2", "compaction", [(0, 4.0, 5.0, 0.2)])
        out = tmp_path / "rep"
        assert main(["report", str(a), str(b), "--out", str(out)]) == 0
        rows = list(csv.DictReader(open(out / "plot_data.csv")))
        assert sorted(r["regime"] for r in rows) == ["compaction", "plain"]

    def test_inconsistent_header_exit_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        with open(bad, "w", newline="") as f:
            csv.writer(f).writerow(["run", "loss"])
        assert main(["report", str(bad)]) == 3


class TestGoldenMetricsBytes:
    """Pins the metrics.csv bytes of two small runs, so a speed-up of the
    training loop that drifts a single bit fails here.

    The compaction run has active units in epochs 0-1, prunes in both and
    has no active hidden unit in epochs 2-3; the dropout run gates the
    input with retention exactly 1. The digests were taken with numpy 2.4
    and its bundled OpenBLAS on x86-64; another BLAS may round differently.
    """

    BASE = dict(
        layer_dims=(64, 20, 20, 10), epochs=4, batch_size=64, lr=0.01,
        momentum=0.9, l2=1e-4, seed=5, dev_size=0, patience=50,
    )
    GOLDEN = {
        "compaction": "12236d4517a393080fa765ce8e8c120fbb1690f567724dc5bca40d1c91dec52c",
        "dropout": "957e74b223e1eae802d603e7033bd560ae52859aaad660c2e0df497a7011a926",
    }

    @pytest.mark.parametrize(
        "regime, extra",
        [
            ("compaction", dict(retention_lr=1e-4)),
            ("dropout", dict(dropout_retention=0.5, input_retention=1.0)),
        ],
    )
    def test_metrics_sha256(self, small_teacher_ds, tmp_path, regime, extra):
        cfg = TrainConfig(regime=regime, **extra, **self.BASE)
        result = run_training(small_teacher_ds, cfg)
        path = tmp_path / "metrics.csv"
        write_metrics_csv(
            str(path), f"{regime}-s{cfg.seed}-{config_hash(cfg)[:8]}", regime, result.reports
        )
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.GOLDEN[regime]
