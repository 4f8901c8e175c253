import contextlib
import csv
import dataclasses
import glob
import gzip
import io
import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_teacher_dataset
from dropcompact import cli
from dropcompact.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from dropcompact.cli import config_hash, main, parse_config_file, write_metrics_csv
from dropcompact.data import quantize_pixels, write_idx_images, write_idx_labels
from dropcompact.network import init_mlp
from dropcompact.retention import RetentionParams
from dropcompact.trainer import REGIMES, TrainConfig, run_training

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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


def write_metrics(path, run_id, regime, rows):
    """A metrics.csv with one (epoch, dev_err, test_err, test_loss) per row."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(
            ["run_id", "regime", "epoch", "train_loss", "dev_loss", "dev_err",
             "test_loss", "test_err", "n_weights", "units_l1"]
        )
        for epoch, dev_err, test_err, test_loss in rows:
            w.writerow([run_id, regime, epoch, 0.5, 0.4, dev_err, test_loss, test_err, 1000, 10])


def read_csv_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


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
        rows = read_csv_rows(out / "metrics.csv")
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

    @pytest.mark.parametrize("contents", [[], ["notes.txt"]])
    def test_failed_run_keeps_an_out_dir_that_existed(self, tmp_path, contents):
        cfg = write_config(tmp_path / "c.ini")
        out = tmp_path / "run"
        out.mkdir()
        for name in contents:
            (out / name).write_text("kept\n")
        assert main(["train", "--config", cfg, "--data-dir", str(tmp_path / "nowhere"),
                     "--out", str(out)]) == 3
        assert sorted(os.listdir(out)) == contents

    def test_failed_run_keeps_the_dirs_it_made_and_filled(self, data_dir, tmp_path, monkeypatch,
                                                          capsys):
        def disk_full(path, entries):
            raise OSError("disk full")

        # the manifest is written after the checkpoints, so both new
        # directories are no longer empty when the run fails
        monkeypatch.setattr(cli, "write_manifest", disk_full)
        cfg = write_config(tmp_path / "c.ini", epochs=1)
        out = tmp_path / "new" / "run"
        assert main(["train", "--config", cfg, "--data-dir", data_dir, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: cannot write output: disk full\n"
        assert sorted(os.listdir(out)) == ["checkpoint_best.dckp", "checkpoint_final.dckp",
                                           "metrics.csv", "retention_hist.csv"]
        load_checkpoint(str(out / "checkpoint_final.dckp"))

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

    @pytest.mark.parametrize("regime", ["plain", "compaction"])
    def test_net_without_hidden_layer(self, data_dir, tmp_path, regime):
        cfg = write_config(tmp_path / "c.ini", regime=regime, layer_dims="49,10")
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--data-dir", data_dir, "--out", str(out)]) == 0
        header = next(iter(read_csv_rows(out / "metrics.csv"))).keys()
        assert not [k for k in header if k.startswith("units_l")], header
        ckpt = str(out / "checkpoint_final.dckp")
        assert main(["eval", "--checkpoint", ckpt, "--data-dir", data_dir]) == 0
        assert main(["compact", "--checkpoint", ckpt, "--mode", "prune",
                     "--out", str(tmp_path / "c")]) == 0
        assert main(["report", str(out / "metrics.csv")]) == 0

    def test_seed_overrides_config(self, data_dir, tmp_path):
        cfg = write_config(tmp_path / "c.ini", regime="dropout")
        out = tmp_path / "ovr"
        assert main(
            ["train", "--config", cfg, "--data-dir", data_dir, "--out", str(out), "--seed", "9"]
        ) == 0
        rows = read_csv_rows(out / "metrics.csv")
        assert rows[0]["regime"] == "dropout"
        assert "-s9-" in rows[0]["run_id"]

    @pytest.mark.parametrize("key, value", [
        ("samples_per_example", 1), ("retention_batch_size", 0),
        ("plateau_halving", "off"), ("plateau_threshold", 0.005),
    ])
    def test_deleted_key_is_a_config_error(self, data_dir, tmp_path, capsys, key, value):
        # each at its old default, so only the key itself can be at fault
        cfg = write_config(tmp_path / "c.ini", **{key: value})
        assert main(["train", "--config", cfg, "--data-dir", data_dir]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: ") and key in lines[0], lines

    def test_manifest_records_code_version(self, trained):
        digest = hashlib.sha256()
        for path in sorted(glob.glob(os.path.join(REPO_ROOT, "src", "dropcompact", "*.py"))):
            with open(path, "rb") as f:
                digest.update(os.path.basename(path).encode() + b"\0" + f.read())
        lines = (trained / "manifest.txt").read_text().splitlines()
        assert f"code_version={digest.hexdigest()}" in lines

    def test_no_regime_flag(self, data_dir, tmp_path, capsys):
        # the config's regime key is the one way to set it
        cfg = write_config(tmp_path / "c.ini")
        with pytest.raises(SystemExit) as e:
            main(["train", "--config", cfg, "--data-dir", data_dir, "--regime", "dropout"])
        assert e.value.code == 2
        assert "--regime" in capsys.readouterr().err

    def test_run_without_dev_split_says_it_kept_the_last_epoch(self, data_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.ini", epochs=2, dev_size=0)
        assert main(["train", "--config", cfg, "--data-dir", data_dir,
                     "--out", str(tmp_path / "run")]) == 0
        line = capsys.readouterr().out.strip()
        assert line.endswith("2 epochs, final weights 708, no dev split, kept the last epoch, 1")
        assert "nan" not in line


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

    # a checkpoint header's config as written while TrainConfig had 27
    # fields: every key, here at the default of that time
    CONFIG_WITH_27_KEYS = {
        "regime": "plain", "layer_dims": [784, 100, 100, 10], "hidden_activation": "relu",
        "epochs": 20, "batch_size": 128, "lr": 0.001, "momentum": 0.9, "l2": 0.0,
        "annealing_epochs": 4, "dropout_retention": 0.5, "input_retention": 1.0,
        "retention_init": 0.5, "prior_alpha": 0.9, "prior_beta": 0.9,
        "gamma_mode": "multiple_of_t", "gamma": 1.0, "retention_lr": 2e-7,
        "control_variate": 1.0, "importance_clamp": 100.0, "retention_batch_size": 0,
        "samples_per_example": 1, "prune_threshold": 0.05, "patience": 8,
        "plateau_halving": False, "plateau_threshold": 0.005, "seed": 0, "dev_size": 10000,
    }

    def test_checkpoint_with_all_27_keys_evals_alike(self, trained, data_dir, tmp_path):
        ck = load_checkpoint(str(trained / "checkpoint_best.dckp"))
        full = {**self.CONFIG_WITH_27_KEYS, **ck.config}
        assert len(full) == 27 and len(ck.config) < 27
        written = []
        for name, config in (("full", full), ("set", ck.config)):
            path = tmp_path / name / "checkpoint_best.dckp"
            path.parent.mkdir()
            save_checkpoint(str(path), dataclasses.replace(ck, config=config))
            assert main(["eval", "--checkpoint", str(path), "--data-dir", data_dir,
                         "--split", "test", "--out", str(tmp_path / name)]) == 0
            written.append((tmp_path / name / "eval.csv").read_bytes())
        assert written[0] == written[1]

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

    def test_svd_records_one_rank_per_matrix(self, tmp_path):
        params = init_mlp((8, 6, 6, 6, 3), "relu", seed=3)
        path = str(tmp_path / "parent.dckp")
        save_checkpoint(path, Checkpoint(params=params, pi=RetentionParams.constant(params, 1.0),
                                         config={}, seed=0, epoch=0))
        for name, rank, ranks in (("given", ["--rank", "2"], [2, 2]), ("default", [], [1, 1])):
            out = tmp_path / name
            argv = ["compact", "--checkpoint", path, "--mode", "svd", *rank, "--out", str(out)]
            assert main(argv) == 0
            report = json.loads((out / "compaction_report.json").read_text())
            history = load_checkpoint(str(out / "checkpoint_compacted.dckp")).compaction_history
            assert report["ranks"] == history[-1]["ranks"] == ranks

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
        ck.pi = RetentionParams([ck.pi[0], np.zeros(10), ck.pi[2]])
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

    def test_checkpoint_shape(self, trained_deep, capsys):
        ckpt = str(trained_deep / "checkpoint_best.dckp")
        assert main(["bench", "--checkpoint", ckpt, "--reps", "30", "--batch", "1,4"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        dims = load_checkpoint(ckpt).params.layer_dims
        assert [r["shape"] for r in rows] == ["x".join(map(str, dims))] * 2
        assert [r["batch"] for r in rows] == ["1", "4"]

    def test_low_reps_exit_2(self):
        assert main(["bench", "--shape", "16,32,8", "--reps", "10"]) == 2

    def test_bad_shape_exit_2(self):
        assert main(["bench", "--shape", "16", "--reps", "30"]) == 2

    @pytest.mark.parametrize("reps, code", [("30", 0), ("3", 2)])
    def test_module_entry_point(self, reps, code):
        # README's `python -m dropcompact.cli`, in a child that imports only src/
        run = subprocess.run(
            [sys.executable, "-m", "dropcompact.cli", "bench", "--shape", "16,8,4",
             "--reps", reps],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
        )
        assert run.returncode == code, run.stderr
        if code == 0:
            assert run.stdout.splitlines()[0] == ",".join(cli.BENCH_CSV_HEADER)
        else:
            assert run.stderr.startswith("config error:"), run.stderr


class TestReport:
    def test_aggregates_best_rows(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_metrics(a, "r1", "plain", [(0, 5.0, 6.0, 0.30), (1, 4.0, 5.0, 0.20)])
        write_metrics(b, "r2", "plain", [(0, 3.0, 4.0, 0.10), (1, 3.5, 4.5, 0.15)])
        out = tmp_path / "rep"
        assert main(["report", str(a), str(b), "--out", str(out)]) == 0
        rows = read_csv_rows(out / "plot_data.csv")
        assert len(rows) == 1
        # best rows: epoch 1 of r1 (err 5.0) and epoch 0 of r2 (err 4.0)
        assert float(rows[0]["mean_test_err"]) == pytest.approx(4.5)
        assert float(rows[0]["std_test_err"]) == pytest.approx(np.std([5.0, 4.0], ddof=1))

    def test_single_run_std_zero(self, tmp_path):
        a = tmp_path / "a.csv"
        write_metrics(a, "r1", "dropout", [(0, 5.0, 6.0, 0.3)])
        out = tmp_path / "rep"
        assert main(["report", str(a), "--out", str(out)]) == 0
        rows = read_csv_rows(out / "plot_data.csv")
        assert float(rows[0]["std_test_err"]) == 0.0

    def test_mixed_regimes_grouped(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_metrics(a, "r1", "plain", [(0, 5.0, 6.0, 0.3)])
        write_metrics(b, "r2", "compaction", [(0, 4.0, 5.0, 0.2)])
        out = tmp_path / "rep"
        assert main(["report", str(a), str(b), "--out", str(out)]) == 0
        rows = read_csv_rows(out / "plot_data.csv")
        assert sorted(r["regime"] for r in rows) == ["compaction", "plain"]

    def test_metrics_saved_with_bom_report_alike(self, tmp_path):
        plain, bom = tmp_path / "plain" / "metrics.csv", tmp_path / "bom" / "metrics.csv"
        plain.parent.mkdir()
        bom.parent.mkdir()
        write_metrics(plain, "r1", "plain", [(0, 5.0, 6.0, 0.3), (1, 4.0, 5.0, 0.2)])
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for path in (plain, bom):
            assert main(["report", str(path), "--out", str(path.parent / "rep")]) == 0
        written = [(p.parent / "rep" / "plot_data.csv").read_bytes() for p in (plain, bom)]
        assert written[0] == written[1]

    def test_manifest_records_every_input(self, tmp_path):
        """Inputs that share a basename are keyed by their path relative to
        the inputs' common directory, so each gets its own digest."""
        for run in ("ra", "rb"):
            (tmp_path / run).mkdir()
            write_metrics(tmp_path / run / "metrics.csv", run, "plain", [(0, 5.0, 6.0, 0.3)])
        out = tmp_path / "rep"
        assert main(["report", str(tmp_path / "ra" / "metrics.csv"),
                     str(tmp_path / "rb" / "metrics.csv"), "--out", str(out)]) == 0
        lines = (out / "report_manifest.txt").read_text().splitlines()
        inputs = [line.split("=")[0] for line in lines if line.startswith("input_")]
        assert inputs == [f"input_{os.path.join('ra', 'metrics.csv')}",
                          f"input_{os.path.join('rb', 'metrics.csv')}"]

    def test_no_dev_run_reports_the_best_checkpoint_epoch(self, data_dir, tmp_path):
        """Without a dev split train keeps its last epoch in
        checkpoint_best.dckp, and report picks the same epoch."""
        cfg = write_config(tmp_path / "c.ini", epochs=4, dev_size=0)
        run = tmp_path / "run"
        assert main(["train", "--config", cfg, "--data-dir", data_dir, "--out", str(run)]) == 0
        ck = load_checkpoint(str(run / "checkpoint_best.dckp"))
        assert ck.epoch == ck.best_metrics["epoch"] == 3
        test_err = {int(r["epoch"]): r["test_err"] for r in read_csv_rows(run / "metrics.csv")}
        assert test_err[3] != test_err[0]
        out = tmp_path / "rep"
        assert main(["report", str(run / "metrics.csv"), "--out", str(out)]) == 0
        assert read_csv_rows(out / "plot_data.csv")[0]["mean_test_err"] == test_err[3]

    def test_inconsistent_header_exit_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        with open(bad, "w", newline="") as f:
            csv.writer(f).writerow(["run", "loss"])
        assert main(["report", str(bad)]) == 3


class TestNumericFailure:
    @pytest.fixture(scope="class")
    def teacher_dir(self, small_teacher_ds, tmp_path_factory):
        """small_teacher_ds as MNIST files: train and dev rows as the train
        file, test rows as the t10k file."""
        root = tmp_path_factory.mktemp("teacher_idx")
        ds = small_teacher_ds
        imgs = quantize_pixels(ds.inputs).reshape(-1, 8, 8)
        for prefix, rows in (
            ("train", np.sort(np.concatenate([ds.splits["train"], ds.splits["dev"]]))),
            ("t10k", ds.splits["test"]),
        ):
            write_idx_images(str(root / f"{prefix}-images-idx3-ubyte"), imgs[rows])
            write_idx_labels(str(root / f"{prefix}-labels-idx1-ubyte"), ds.labels[rows])
        return str(root)

    def test_divergent_run_exits_5_without_checkpoint(self, teacher_dir, tmp_path, capsys):
        # lr 1e3 with L2 drives the parameters to NaN within epoch 0; every
        # numpy warning on the way raises here, so none may reach stderr
        cfg = write_config(tmp_path / "diverge.ini", layer_dims="64,20,20,10", lr=1e3,
                           l2=1e-4, dev_size=600)
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["train", "--config", cfg, "--data-dir", teacher_dir, "--out", str(out)])
        assert code == 5
        assert not list(out.glob("*.dckp"))
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("numeric error: non-finite") and "epoch 0" in lines[0]


class TestGoldenMetricsBytes:
    """Pins the metrics.csv bytes of one small run per regime, so a speed-up
    of the training loop that drifts a single bit fails here.

    The compaction run has active units in epochs 0-1, prunes in both and
    has no active hidden unit in epochs 2-3; the dropout run gates the
    input with retention exactly 1; the annealed run's hidden retention
    goes 0.5, 0.75, 1, 1 over its epochs; the plain run gates only its
    input. The digests were taken with numpy 2.4 and its bundled OpenBLAS
    on x86-64; another BLAS may round differently. Each run_id carries the
    hash of the config's non-default keys.
    """

    BASE = dict(
        layer_dims=(64, 20, 20, 10), epochs=4, batch_size=64, lr=0.01,
        momentum=0.9, l2=1e-4, seed=5, dev_size=0, patience=50,
    )
    GOLDEN = {
        "compaction": "0f00c27d21aa22fcd83e6a48333cf169c78097849cba09980b03222f4ee89785",
        "dropout": "4987a9539caa2e70ad275a89e5c149f253dfa12bf39442c655d111a858bc03df",
        "annealed": "b78ecca2703c5c6d896bd8fd9e93c87354a04300317004eef3c393d132f1f5f2",
        "plain": "197a5cfe675fd5e2a847b663b08bedb21a354490ba641977ea147dc87e689625",
    }

    @pytest.mark.parametrize(
        "regime, extra",
        [
            ("compaction", dict(retention_lr=1e-4)),
            ("dropout", dict(dropout_retention=0.5, input_retention=1.0)),
            ("annealed", dict(annealing_epochs=2)),
            ("plain", dict(input_retention=0.8)),
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


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestGoldenOutputBytes:
    """Pins the bytes of every file eval, compact, bench and report write.
    The digests were taken before these writers moved behind one atomic
    CSV writer, with the numpy build of TestGoldenMetricsBytes."""

    GOLDEN = {
        "eval": {
            "eval.csv": "1ecc2eb2b6a0843a7a93eccc58848bffb14912614c373d2d134f94036073277b",
            "eval_manifest.txt": "a5d08212d741358b28da57c1921444a2d9f28e8c21a163e15384f608deb4492f",
        },
        "compact-prune": {
            "checkpoint_compacted.dckp":
                "f3e8523fe999f6fbc68df97422cc5a7a3023de2ed63cdac0464260aa2a516306",
            "compaction_report.json":
                "f409798d174398d1bba3ae02e6209dd9af932b8d1a59c01b8b8262fb7bdc6844",
            "compact_manifest.txt":
                "02da8573dd87b7f8ac01a93cb46f23ef9e9106fcca0a29666067eb65bd3598af",
        },
        "compact-svd": {
            "checkpoint_compacted.dckp":
                "931cbf32ce966a3c5057a7d0ea6181e3fcbbc1a974246afaa984676751a45c09",
            "compaction_report.json":
                "7d79ec39d1003a63e234dd827931923840dbdb8732b4a59f922706ad38659ed6",
            "compact_manifest.txt":
                "7ee66880a545cbeb07d089111c7e365ecf731f829c9be254e1fcdda33de0019c",
        },
        "report": {
            "plot_data.csv": "fa965bf75dd43dead4fabdb1715778bbf069453e3173845bbae734f5e5a9b131",
            "report_manifest.txt":
                "1ed325af31d3fd6c4931275a265da8ebeaaba4de6e9f4867d66fb4108570d4e4",
        },
        "bench": (
            "9081bed37085c5e6e7393907bf7ad05386c5241cf686fe4f4cc7c40ae93d73b7",
            "fae089c1aa5ed57cadedee17c415215a15eb508d3aa7854b59a482dfe061af4e",
        ),
    }

    def test_eval_twice_appends(self, trained, data_dir, tmp_path):
        out = tmp_path / "ev"
        args = ["eval", "--checkpoint", str(trained / "checkpoint_best.dckp"),
                "--data-dir", data_dir, "--split", "test", "--out", str(out)]
        assert main(args) == 0
        assert main(args) == 0
        assert len(read_csv_rows(out / "eval.csv")) == 2
        got = {n: sha256_of(out / n) for n in ("eval.csv", "eval_manifest.txt")}
        assert got == self.GOLDEN["eval"]

    @pytest.mark.parametrize("mode", ["prune", "svd"])
    def test_compact(self, trained_deep, tmp_path, mode):
        ck = load_checkpoint(str(trained_deep / "checkpoint_best.dckp"))
        ck.pi = RetentionParams([ck.pi[0], np.linspace(0.05, 1.0, 10), np.linspace(1.0, 0.05, 10)])
        src = tmp_path / "src.dckp"
        save_checkpoint(str(src), ck)
        out = tmp_path / "cp"
        assert main(["compact", "--checkpoint", str(src), "--mode", mode,
                     "--threshold", "0.5", "--out", str(out)]) == 0
        names = ("checkpoint_compacted.dckp", "compaction_report.json", "compact_manifest.txt")
        assert {n: sha256_of(out / n) for n in names} == self.GOLDEN[f"compact-{mode}"]

    def test_report(self, tmp_path):
        a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
        write_metrics(a, "r1", "plain", [(0, 5.0, 6.0, 0.30), (1, 4.0, 5.0, 0.20)])
        write_metrics(b, "r2", "plain", [(0, 3.0, 4.0, 0.10), (1, 3.5, 4.5, 0.15)])
        write_metrics(c, "r3", "compaction", [(0, float("nan"), 7.0, 0.4), (1, 2.5, 3.0, 0.1)])
        out = tmp_path / "rep"
        assert main(["report", str(a), str(b), str(c), "--out", str(out)]) == 0
        got = {n: sha256_of(out / n) for n in ("plot_data.csv", "report_manifest.txt")}
        assert got == self.GOLDEN["report"]

    TIMING = ("min_s", "median_s", "p95_s", "throughput_eps", "speedup_vs_ref")

    def test_bench_out(self, tmp_path, capsys):
        out = tmp_path / "b" / "bench.csv"
        assert main(["bench", "--shape", "16,32,8", "--ref-shape", "16,64,8",
                     "--batch", "1,4", "--reps", "30", "--out", str(out)]) == 0
        with open(out, newline="") as f:
            text = f.read()
        assert capsys.readouterr().out == text
        rows = list(csv.reader(text.splitlines()))
        keep = [i for i, name in enumerate(rows[0]) if name not in self.TIMING]
        pinned = [rows[0]] + [[r[i] for i in keep] for r in rows[1:]]
        digest = hashlib.sha256(repr(pinned).encode()).hexdigest()
        manifest = sha256_of(tmp_path / "b" / "bench.csv.manifest.txt")
        assert (digest, manifest) == self.GOLDEN["bench"]


SHIPPED_CONFIGS = sorted(
    os.path.relpath(os.path.join(d, n), REPO_ROOT)
    for d in (os.path.join(REPO_ROOT, "configs"), os.path.join(REPO_ROOT, "perfbench", "configs"))
    for n in os.listdir(d)
    if n.endswith(".ini")
)


class TestShippedConfigHash:
    """config_hash names a run in run_id and the manifest by the keys a
    config sets away from their defaults; pinned per shipped config."""

    GOLDEN = {
        "configs/mnist_large_compaction.ini":
            "d9660c03299de7a758038e8b6734c15934c1de84e4328fa104fe3ed998131152",
        "configs/mnist_large_plain.ini":
            "a7dbb835c76749f13e7396371c420117c14887c1fa3d54a01bd76fa73ced00d9",
        "configs/mnist_small_annealed.ini":
            "83734a14806534e3a8e2208637187656e85432eabba3e9fd6fc72143148c2d66",
        "configs/mnist_small_compaction.ini":
            "20cf3e1dc05f2bdd54b6c99af232a92d63e1883d0c5822162e1f0aaa8b657f6f",
        "configs/mnist_small_dropout.ini":
            "7c1dec49823a1be4805a79393428357738674975717a9c69bc3f71bb230df2e6",
        "configs/mnist_small_plain.ini":
            "173749ad18158f63c5667435f0d764c275e27df8dc3b26eb5aee417c4e2056b7",
        "configs/mnist_small_svd_finetune.ini":
            "3ac0d09fd414de15eec0ba0118094ef98795a97712c355f03a72d8aecffae6a4",
        "perfbench/configs/train_compaction.ini":
            "8dfba79847f53e8e5573f6bc0d2549b9770da6bf77faeb10b4668b1688e32592",
    }

    @pytest.mark.parametrize("rel", SHIPPED_CONFIGS)
    def test_config_hash(self, rel):
        cfg = TrainConfig.from_dict(parse_config_file(os.path.join(REPO_ROOT, rel)))
        assert config_hash(cfg) == self.GOLDEN[rel]

    FIELDS = {f.name: f for f in dataclasses.fields(TrainConfig)}

    @settings(max_examples=60, deadline=None)
    @given(rel=st.sampled_from(SHIPPED_CONFIGS), data=st.data())
    def test_default_lines_leave_the_hash(self, tmp_path_factory, rel, data):
        path = os.path.join(REPO_ROOT, rel)
        omitted = sorted(set(self.FIELDS) - set(parse_config_file(path)))
        keys = data.draw(st.lists(st.sampled_from(omitted), unique=True))
        lines = [
            f"{k} = {','.join(map(str, d)) if isinstance(d, tuple) else d}\n"
            for k in keys for d in [self.FIELDS[k].default]
        ]
        copy = tmp_path_factory.mktemp("defaults") / "c.ini"
        with open(path, encoding="utf-8") as f:
            copy.write_text(f.read() + "".join(lines), encoding="utf-8")
        want = TrainConfig.from_dict(parse_config_file(path))
        got = TrainConfig.from_dict(parse_config_file(str(copy)))
        assert got.to_dict() == want.to_dict()
        assert config_hash(got) == config_hash(want) == self.GOLDEN[rel]

    VALUES = {
        int: st.integers(0, 10**6),
        float: st.one_of(st.floats(0.0, 1.0), st.floats(1.0, 1e3)),
        "regime": st.sampled_from(REGIMES),
        "hidden_activation": st.sampled_from(["relu", "sigmoid"]),
        "gamma_mode": st.sampled_from(["multiple_of_t", "absolute"]),
        "layer_dims": st.lists(st.integers(1, 2000), min_size=2, max_size=5).map(tuple),
    }

    @settings(max_examples=150, deadline=None)
    @given(rel=st.sampled_from(SHIPPED_CONFIGS), data=st.data())
    def test_one_changed_key_moves_the_hash(self, rel, data):
        cfg = TrainConfig.from_dict(parse_config_file(os.path.join(REPO_ROOT, rel)))
        key = data.draw(st.sampled_from(sorted(self.FIELDS)))
        kind = key if key in self.VALUES else type(self.FIELDS[key].default)
        value = data.draw(self.VALUES[kind])
        assume(value != getattr(cfg, key))
        try:
            changed = dataclasses.replace(cfg, **{key: value})
        except ValueError:
            assume(False)
        assert config_hash(changed) != config_hash(cfg)

    @pytest.mark.parametrize("rel", SHIPPED_CONFIGS)
    def test_to_dict_round_trips(self, rel):
        # as a checkpoint header stores the config and eval reads it back
        cfg = TrainConfig.from_dict(parse_config_file(os.path.join(REPO_ROOT, rel)))
        back = TrainConfig.from_dict(cfg.to_dict())
        assert back == cfg
        assert config_hash(back) == config_hash(cfg)

    @pytest.mark.parametrize("rel", SHIPPED_CONFIGS)
    def test_copy_saved_with_bom_parses_alike(self, rel, tmp_path):
        path = os.path.join(REPO_ROOT, rel)
        copy = tmp_path / "bom.ini"
        with open(path, "rb") as f:
            copy.write_bytes(b"\xef\xbb\xbf" + f.read())
        assert parse_config_file(str(copy)) == parse_config_file(path)


@pytest.fixture(scope="session")
def odd_checkpoints(tmp_path_factory):
    """Checkpoints that load but do not fit data_dir or an SVD, or whose
    header config holds a split key of the wrong type."""
    root = tmp_path_factory.mktemp("odd")
    paths = {}
    for name, dims, config in (
        ("wide", (784, 5, 10), {"dev_size": 0}),
        ("few_classes", (49, 5, 3), {"dev_size": 0}),
        ("one_hidden", (49, 5, 10), {"dev_size": 0}),
        ("dev_size_float", (49, 5, 10), {"dev_size": 1.5}),
        ("dev_size_null", (49, 5, 10), {"dev_size": None}),
        ("dev_size_object", (49, 5, 10), {"dev_size": {}}),
        ("seed_float", (49, 5, 10), {"dev_size": 0, "seed": 1.5}),
    ):
        params = init_mlp(dims, "relu", seed=1)
        paths[name] = str(root / f"{name}.dckp")
        save_checkpoint(paths[name], Checkpoint(
            params=params, pi=RetentionParams.constant(params, 1.0), config=config,
            seed=1, epoch=0))
    return paths


class TestExitCodes:
    """Malformed input exits with its documented code and one line on
    stderr, never with a traceback."""

    CASES = {
        "threshold-1.5": (["compact", "--checkpoint", "{deep}", "--mode", "prune",
                           "--threshold", "1.5", "--out", "{tmp}/o"], 2),
        "svd-rank-0": (["compact", "--checkpoint", "{deep}", "--mode", "svd",
                        "--rank", "0", "--out", "{tmp}/o"], 2),
        "svd-rank-99": (["compact", "--checkpoint", "{deep}", "--mode", "svd",
                         "--rank", "99", "--out", "{tmp}/o"], 2),
        "svd-one-hidden": (["compact", "--checkpoint", "{one_hidden}", "--mode", "svd",
                            "--out", "{tmp}/o"], 2),
        "eval-input-width": (["eval", "--checkpoint", "{wide}", "--data-dir", "{data}"], 2),
        "eval-classes": (["eval", "--checkpoint", "{few_classes}", "--data-dir", "{data}"], 2),
        "eval-truncated-gzip": (["eval", "--checkpoint", "{deep}", "--data-dir", "{tmp}/gz"], 3),
        # a header config whose dev_size or seed is not an int
        "eval-dev-size-float": (["eval", "--checkpoint", "{dev_size_float}",
                                 "--data-dir", "{data}"], 2),
        "eval-dev-size-null": (["eval", "--checkpoint", "{dev_size_null}",
                                "--data-dir", "{data}"], 2),
        "eval-dev-size-object": (["eval", "--checkpoint", "{dev_size_object}",
                                  "--data-dir", "{data}"], 2),
        "eval-seed-float": (["eval", "--checkpoint", "{seed_float}", "--data-dir", "{data}"], 2),
        "report-epoch-word": (["report", "{tmp}/epoch_word.csv"], 3),
        "report-short-row": (["report", "{tmp}/short_row.csv"], 3),
        "report-header-only": (["report", "{tmp}/header_only.csv"], 3),
        "report-missing": (["report", "{tmp}/absent.csv"], 3),
        "bench-no-shape": (["bench", "--reps", "30"], 2),
        "bench-batch-comma": (["bench", "--shape", "16,32,8", "--reps", "30", "--batch", ","], 2),
        "train-duplicate-key": (["train", "--config", "{tmp}/dup.ini",
                                 "--data-dir", "{tmp}/none"], 2),
        "train-missing-config": (["train", "--config", "{tmp}/absent.ini",
                                  "--data-dir", "{data}"], 2),
        "train-lr-nan": (["train", "--config", "{tmp}/lr_nan.ini", "--data-dir", "{tmp}/none"], 2),
        "train-retention-batch": (["train", "--config", "{tmp}/rb.ini",
                                   "--data-dir", "{tmp}/none"], 2),
        "train-dev-size": (["train", "--config", "{tmp}/dev.ini", "--data-dir", "{tmp}/none"], 2),
        "train-clamp-0": (["train", "--config", "{tmp}/clamp.ini", "--data-dir", "{tmp}/none"], 2),
        "train-unallocatable": (["train", "--config", "{tmp}/huge.ini", "--data-dir", "{data}",
                                 "--out", "{tmp}/o"], 2),
        "train-missing-data": (["train", "--config", "{tmp}/ok.ini", "--data-dir", "{tmp}/none",
                                "--out", "{tmp}/o/run"], 3),
        # a train image file of 0 images, with and without a dev split to take from it
        "train-empty-train": (["train", "--config", "{tmp}/ok.ini", "--data-dir", "{tmp}/empty",
                               "--out", "{tmp}/o/run"], 3),
        "train-empty-train-no-dev": (["train", "--config", "{tmp}/no_dev.ini",
                                      "--data-dir", "{tmp}/empty", "--out", "{tmp}/o/run"], 3),
        "train-dev-size-1000": (["train", "--config", "{tmp}/dev_1000.ini", "--data-dir", "{data}",
                                 "--out", "{tmp}/o/run"], 2),
        # an --out that is an existing file, or lies under one
        "out-file-train": (["train", "--config", "{tmp}/ok.ini", "--data-dir", "{data}",
                            "--out", "{tmp}/taken"], 2),
        "out-file-eval": (["eval", "--checkpoint", "{deep}", "--data-dir", "{data}",
                           "--out", "{tmp}/taken"], 2),
        "out-file-compact": (["compact", "--checkpoint", "{deep}", "--mode", "prune",
                              "--out", "{tmp}/taken"], 2),
        "out-file-bench": (["bench", "--shape", "16,32,8", "--reps", "30",
                            "--out", "{tmp}/taken/bench.csv"], 2),
        "bench-bad-shape-out": (["bench", "--shape", "16", "--reps", "30",
                                 "--out", "{tmp}/o/b.csv"], 2),
        "out-file-report": (["report", "{tmp}/ok.csv", "--out", "{tmp}/taken"], 2),
        # an --out that exists, where an output file's path is a directory
        "unwritable-train": (["train", "--config", "{tmp}/ok.ini", "--data-dir", "{data}",
                              "--out", "{tmp}/busy"], 2),
        "unwritable-eval": (["eval", "--checkpoint", "{deep}", "--data-dir", "{data}",
                             "--out", "{tmp}/busy"], 2),
        "unwritable-compact": (["compact", "--checkpoint", "{deep}", "--mode", "prune",
                                "--out", "{tmp}/busy"], 2),
        "unwritable-bench": (["bench", "--shape", "16,32,8", "--reps", "30",
                              "--out", "{tmp}/busy/bench.csv"], 2),
        "unwritable-report": (["report", "{tmp}/ok.csv", "--out", "{tmp}/busy"], 2),
    }

    @pytest.fixture
    def inputs(self, tmp_path, trained_deep, data_dir, odd_checkpoints):
        header = ",".join(
            ["run_id", "regime", "epoch", "train_loss", "dev_loss", "dev_err",
             "test_loss", "test_err", "n_weights"]
        )
        (tmp_path / "epoch_word.csv").write_text(f"{header}\nr,plain,zero,1,1,1,1,1,10\n")
        (tmp_path / "short_row.csv").write_text(f"{header}\nr,plain,0,1\n")
        shutil.copytree(data_dir, tmp_path / "gz")
        images = tmp_path / "gz" / "train-images-idx3-ubyte"
        (tmp_path / "gz" / "train-images-idx3-ubyte.gz").write_bytes(
            gzip.compress(images.read_bytes())[:-100]
        )
        images.unlink()
        write_metrics(tmp_path / "header_only.csv", "r", "plain", [])
        write_config(tmp_path / "lr_nan.ini", lr="nan")
        with open(write_config(tmp_path / "dup.ini"), "a") as f:
            f.write("lr = 0.05\n")
        write_config(tmp_path / "rb.ini", retention_batch_size=-5)  # a deleted key
        write_config(tmp_path / "dev.ini", dev_size=-1)
        write_config(tmp_path / "clamp.ini", importance_clamp=0)
        # a 49 x 2**52 weight matrix is 1.5 EiB, beyond any address space,
        # so its allocation fails at once
        write_config(tmp_path / "huge.ini", layer_dims=f"49,{2**52},10")
        write_config(tmp_path / "ok.ini", epochs=1)
        write_config(tmp_path / "no_dev.ini", epochs=1, dev_size=0)
        write_config(tmp_path / "dev_1000.ini", epochs=1, dev_size=1000)  # data_dir's train size
        shutil.copytree(data_dir, tmp_path / "empty")
        write_idx_images(str(tmp_path / "empty" / "train-images-idx3-ubyte"),
                         np.zeros((0, 7, 7), dtype=np.uint8))
        write_idx_labels(str(tmp_path / "empty" / "train-labels-idx1-ubyte"), [])
        write_metrics(tmp_path / "ok.csv", "r", "plain", [(0, 5.0, 6.0, 0.3)])
        (tmp_path / "taken").write_text("a file, not a directory\n")
        for name in ("checkpoint_final.dckp", "eval.csv", "checkpoint_compacted.dckp",
                     "bench.csv", "report_manifest.txt"):
            (tmp_path / "busy" / name).mkdir(parents=True)
        return dict(odd_checkpoints, tmp=str(tmp_path), data=data_dir,
                    deep=str(trained_deep / "checkpoint_best.dckp"))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_code(self, case, inputs, capsys):
        argv, code = self.CASES[case]
        assert main([a.format(**inputs) for a in argv]) == code
        out, err = capsys.readouterr()
        lines = err.strip().splitlines()
        prefix = {2: "config error: ", 3: "data error: "}[code]
        assert len(lines) == 1 and lines[0].startswith(prefix), lines
        assert out == ""  # a command prints its result only once its files are written
        # no case's --out existed before, and a failing command leaves none behind
        assert not os.path.exists(os.path.join(inputs["tmp"], "o"))


# keys whose values set a valid run's cost, each drawn from a small range
SMALL_KEYS = {
    "epochs": st.integers(0, 3),
    "layer_dims": st.tuples(
        st.sampled_from([6, 6, 6, 5]), st.lists(st.integers(0, 8), max_size=3), st.integers(3, 5)
    ).map(lambda d: ",".join(map(str, [d[0], *d[1], d[2]]))),
    "batch_size": st.integers(1, 16),
    "dev_size": st.integers(0, 12),
}
# a value of the key's type, mostly in its valid range
PLAUSIBLE = {
    int: st.integers(1, 20).map(str),
    float: st.floats(0.0, 1.0).map(repr),
    "regime": st.sampled_from(REGIMES),
    "hidden_activation": st.sampled_from(["relu", "sigmoid"]),
    "gamma_mode": st.sampled_from(["multiple_of_t", "absolute"]),
}
ANY_VALUE = st.one_of(
    st.integers(-(2**70), 2**70).map(str),
    st.floats().map(repr),
    st.text(max_size=8),
)
DEFAULTS = TrainConfig()
OTHER_KEYS = sorted({f.name for f in dataclasses.fields(TrainConfig)} - set(SMALL_KEYS))


@st.composite
def config_texts(draw):
    """Config text: every small-range key, some other keys with a plausible
    value or any value, and now and then a line of any text."""
    lines = [f"{k} = {draw(v)}" for k, v in SMALL_KEYS.items()]
    for key in draw(st.lists(st.sampled_from(OTHER_KEYS), max_size=6, unique=True)):
        kind = key if key in PLAUSIBLE else type(getattr(DEFAULTS, key))
        value = ANY_VALUE if draw(st.integers(0, 3)) == 0 else PLAUSIBLE[kind]
        lines.append(f"{key} = {draw(value)}")
    if draw(st.integers(0, 9)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.text(max_size=20)))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def tiny_idx_dir(tmp_path_factory):
    """An IDX directory of 16 train and 8 test 2x3-pixel images, 3 classes."""
    root = tmp_path_factory.mktemp("tiny_idx")
    rng = np.random.default_rng(5)
    for stem, n in (("train", 16), ("t10k", 8)):
        write_idx_images(str(root / f"{stem}-images-idx3-ubyte"),
                         rng.integers(0, 256, size=(n, 2, 3), dtype=np.uint8))
        write_idx_labels(str(root / f"{stem}-labels-idx1-ubyte"), np.arange(n) % 3)
    return root


class TestConfigFuzz:
    """Any config text through train exits with a documented code and at
    most one line on stderr, never with a traceback."""

    PREFIX = {2: "config error: ", 3: "data error: ", 4: "structural error: ",
              5: "numeric error: "}

    @settings(max_examples=150, deadline=None)
    @given(text=config_texts())
    def test_train_exit_codes(self, tiny_idx_dir, tmp_path_factory, text):
        work = tmp_path_factory.mktemp("fuzz")
        (work / "c.ini").write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["train", "--config", str(work / "c.ini"), "--data-dir", str(tiny_idx_dir),
                         "--out", str(work / "out")])
        lines = err.getvalue().strip().splitlines()
        if code == 0:
            assert lines == []
        else:
            assert code in self.PREFIX and len(lines) == 1, (code, lines)
            assert lines[0].startswith(self.PREFIX[code]), lines
