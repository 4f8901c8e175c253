import csv
import gzip
import hashlib
import os
import shutil
import struct
import warnings

import numpy as np
import pytest

from conftest import make_teacher_dataset
from dropcompact.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from dropcompact.cli import config_hash, main, parse_config_file, write_metrics_csv
from dropcompact.data import quantize_pixels, write_idx_images, write_idx_labels
from dropcompact.network import init_mlp
from dropcompact.retention import RetentionParams
from dropcompact.trainer import TrainConfig, run_training

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

    def test_seed_and_regime_overrides(self, data_dir, tmp_path):
        cfg = write_config(tmp_path / "c.ini")
        out = tmp_path / "ovr"
        assert main(
            ["train", "--config", cfg, "--data-dir", data_dir, "--out", str(out),
             "--seed", "9", "--regime", "dropout"]
        ) == 0
        rows = read_csv_rows(out / "metrics.csv")
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

    def test_low_reps_exit_2(self):
        assert main(["bench", "--shape", "16,32,8", "--reps", "10"]) == 2

    def test_bad_shape_exit_2(self):
        assert main(["bench", "--shape", "16", "--reps", "30"]) == 2


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
    on x86-64; another BLAS may round differently.
    """

    BASE = dict(
        layer_dims=(64, 20, 20, 10), epochs=4, batch_size=64, lr=0.01,
        momentum=0.9, l2=1e-4, seed=5, dev_size=0, patience=50,
    )
    GOLDEN = {
        "compaction": "12236d4517a393080fa765ce8e8c120fbb1690f567724dc5bca40d1c91dec52c",
        "dropout": "957e74b223e1eae802d603e7033bd560ae52859aaad660c2e0df497a7011a926",
        "annealed": "71bce2e857975c821af39a391c754390d1d82e04afaac0ecb9da7b2e176b4f3d",
        "plain": "9245b130140d596f32f359534211226a7676c5b1d7c41bfef1931d8118049588",
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
            "eval_manifest.txt": "a424f35b7e1807a1cc726f898162437f4a3e681e8a9996f53e5f971ecfb793bc",
        },
        "compact-prune": {
            "checkpoint_compacted.dckp":
                "11d7df19e2e4e470c2f8e42482e76e1187a1cd9bbe9d1eb2920eeff443402abd",
            "compaction_report.json":
                "f409798d174398d1bba3ae02e6209dd9af932b8d1a59c01b8b8262fb7bdc6844",
            "compact_manifest.txt":
                "d549248388264646248921c00aaef50a15b2553598ad5365f9ce58ca716015c6",
        },
        "compact-svd": {
            "checkpoint_compacted.dckp":
                "6ddb10d630c4c4314021cb9bdff395e20462458b55e688f0c7d108182bcf809e",
            "compaction_report.json":
                "7d79ec39d1003a63e234dd827931923840dbdb8732b4a59f922706ad38659ed6",
            "compact_manifest.txt":
                "075bd795a024624139fb6dcaec4a138c35de4a3c4403531106a81b4bf86041e8",
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
    """config_hash names a run in run_id and the manifest; pinned per shipped config."""

    GOLDEN = {
        "configs/mnist_large_compaction.ini":
            "a3d95e48c5fff5cc4c1dada1d6a6fac96429ff7492153609774733fce0190f2f",
        "configs/mnist_large_plain.ini":
            "5c5822ea5207f79f52a6def82caf77e9fef3a8d6397893403402e00fa182c35d",
        "configs/mnist_small_annealed.ini":
            "1244f41f14b057e7d92828262b9ed266945d8a74ebfacbde3e5dbeb8c1a6fb37",
        "configs/mnist_small_compaction.ini":
            "e84c35490ebcbea217113cb74d96489cf2117db3026b1246751a5779537cea62",
        "configs/mnist_small_dropout.ini":
            "64949d61cdeb3db79df80c439317c28fb0365424a54c9e4e6c14fb7fe93504b8",
        "configs/mnist_small_plain.ini":
            "b6b0eb190840b7779d9bad36d0bdb2ba0b11f1acaae0c634d622e581c4197c7f",
        "configs/mnist_small_svd_finetune.ini":
            "1fb37761ead67fb4777de8c65e444545ad482aaf2484bba777397f9c2e82d4a8",
        "perfbench/configs/train_compaction.ini":
            "6d4832398e225d7e12697216231ca6ae9bfdf6d9be8d73ccfe70c822d32477bd",
    }

    @pytest.mark.parametrize("rel", SHIPPED_CONFIGS)
    def test_config_hash(self, rel):
        cfg = TrainConfig.from_dict(parse_config_file(os.path.join(REPO_ROOT, rel)))
        assert config_hash(cfg) == self.GOLDEN[rel]


@pytest.fixture(scope="session")
def odd_checkpoints(tmp_path_factory):
    """Checkpoints that load but do not fit data_dir or an SVD."""
    root = tmp_path_factory.mktemp("odd")
    paths = {}
    for name, dims in (("wide", (784, 5, 10)), ("few_classes", (49, 5, 3)),
                       ("one_hidden", (49, 5, 10))):
        params = init_mlp(dims, "relu", seed=1)
        paths[name] = str(root / f"{name}.dckp")
        save_checkpoint(paths[name], Checkpoint(
            params=params, pi=RetentionParams.constant(params, 1.0), config={"dev_size": 0},
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
        "report-epoch-word": (["report", "{tmp}/epoch_word.csv"], 3),
        "report-short-row": (["report", "{tmp}/short_row.csv"], 3),
        "train-lr-nan": (["train", "--config", "{tmp}/lr_nan.ini", "--data-dir", "{tmp}/none"], 2),
        "train-retention-batch": (["train", "--config", "{tmp}/rb.ini",
                                   "--data-dir", "{tmp}/none"], 2),
        "train-dev-size": (["train", "--config", "{tmp}/dev.ini", "--data-dir", "{tmp}/none"], 2),
        "train-clamp-0": (["train", "--config", "{tmp}/clamp.ini", "--data-dir", "{tmp}/none"], 2),
        # an --out that is an existing file, or lies under one
        "out-file-train": (["train", "--config", "{tmp}/ok.ini", "--data-dir", "{data}",
                            "--out", "{tmp}/taken"], 2),
        "out-file-eval": (["eval", "--checkpoint", "{deep}", "--data-dir", "{data}",
                           "--out", "{tmp}/taken"], 2),
        "out-file-compact": (["compact", "--checkpoint", "{deep}", "--mode", "prune",
                              "--out", "{tmp}/taken"], 2),
        "out-file-bench": (["bench", "--shape", "16,32,8", "--reps", "30",
                            "--out", "{tmp}/taken/bench.csv"], 2),
        "out-file-report": (["report", "{tmp}/ok.csv", "--out", "{tmp}/taken"], 2),
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
        write_config(tmp_path / "lr_nan.ini", lr="nan")
        write_config(tmp_path / "rb.ini", retention_batch_size=-5)
        write_config(tmp_path / "dev.ini", dev_size=-1)
        write_config(tmp_path / "clamp.ini", importance_clamp=0)
        write_config(tmp_path / "ok.ini", epochs=1)
        write_metrics(tmp_path / "ok.csv", "r", "plain", [(0, 5.0, 6.0, 0.3)])
        (tmp_path / "taken").write_text("a file, not a directory\n")
        return dict(odd_checkpoints, tmp=str(tmp_path), data=data_dir,
                    deep=str(trained_deep / "checkpoint_best.dckp"))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_code(self, case, inputs, capsys):
        argv, code = self.CASES[case]
        assert main([a.format(**inputs) for a in argv]) == code
        lines = capsys.readouterr().err.strip().splitlines()
        prefix = {2: "config error: ", 3: "data error: "}[code]
        assert len(lines) == 1 and lines[0].startswith(prefix), lines
