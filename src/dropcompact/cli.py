"""Command-line entry point.

Subcommands: train, eval, compact, bench, report. Configuration is a flat
key=value text file with a fixed key set (unknown keys fail fast). Every
training run writes checkpoints, a per-epoch metrics CSV, a retention
histogram CSV and a manifest recording the config hash, seed and data
digests, so identical manifests imply identical metrics bytes. Every
output file is written through ``checkpoint.atomic_open``.

Exit codes: 0 success, 2 config error, 3 data error, 4 structural error;
``main`` is the one place that maps exceptions to them.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import math
import os
import sys
import zlib
from dataclasses import replace

import numpy as np

from . import kernels
from .bench import multi_worker_throughput, time_forward
from .checkpoint import Checkpoint, atomic_open, load_checkpoint, save_checkpoint
from .compaction import (
    EmptyLayerError,
    absorb_retention,
    count_weights,
    prune_units,
    svd_compact,
)
from .data import Dataset, IdxParseError, file_digest, load_mnist_dir, split_train_dev
from .retention import RetentionParams
from .trainer import (
    EpochReport,
    HISTOGRAM_BINS,
    TrainConfig,
    check_data_fits,
    evaluate,
    run_training,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_STRUCTURAL = 4

METRICS_FIXED = (
    "run_id",
    "regime",
    "epoch",
    "train_loss",
    "dev_loss",
    "dev_err",
    "test_loss",
    "test_err",
    "n_weights",
)

# the METRICS_FIXED columns report reads as numbers, with their types
REPORT_NUMERIC = {
    "epoch": int,
    "dev_err": float,
    "dev_loss": float,
    "test_err": float,
    "test_loss": float,
    "n_weights": float,
}

EVAL_CSV_HEADER = ("checkpoint", "split", "error_pct", "avg_loss", "n_weights")

BENCH_CSV_HEADER = (
    "shape",
    "batch",
    "reps",
    "backend",
    "min_s",
    "median_s",
    "p95_s",
    "throughput_eps",
    "flops_per_example",
    "flop_ratio_vs_ref",
    "speedup_vs_ref",
)

PLOT_CSV_HEADER = (
    "regime",
    "n_runs",
    "mean_weights",
    "mean_test_err",
    "std_test_err",
    "mean_test_loss",
    "std_test_loss",
)


class ConfigError(ValueError):
    pass


class DataError(ValueError):
    pass


def parse_config_file(path: str) -> dict[str, str]:
    """Flat key = value lines; '#' and ';' start comments; no sections."""
    raw: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    for lineno, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].split(";", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line.strip()!r}")
        key, value = text.split("=", 1)
        key = key.strip()
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value.strip()
    return raw


def config_hash(cfg: TrainConfig) -> str:
    blob = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _fmt(v: float) -> str:
    return repr(float(v))


def _write_csv(path: str, header, rows, append: bool = False) -> None:
    """Write header and rows to path through atomic_open. With append, a
    file that already has content keeps its bytes and gains only the rows."""
    old = ""
    if append and os.path.exists(path):
        with open(path, newline="") as f:
            old = f.read()
    with atomic_open(path, "w", newline="") as f:
        f.write(old)
        csv.writer(f).writerows(rows if old else [header, *rows])


def write_metrics_csv(path: str, run_id: str, regime: str, reports: list[EpochReport]) -> None:
    n_hidden = len(reports[0].unit_counts) if reports else 0
    header = list(METRICS_FIXED) + [f"units_l{i + 1}" for i in range(n_hidden)]
    rows = [
        [run_id, regime, r.epoch]
        + [_fmt(v) for v in (r.train_loss, r.dev_loss, r.dev_err, r.test_loss, r.test_err)]
        + [r.n_weights]
        + list(r.unit_counts)
        for r in reports
    ]
    _write_csv(path, header, rows)


def write_histogram_csv(path: str, reports: list[EpochReport]) -> None:
    rows = [
        [r.epoch, _fmt(b / HISTOGRAM_BINS), _fmt((b + 1) / HISTOGRAM_BINS), count]
        for r in reports
        for b, count in enumerate(r.histogram)
    ]
    _write_csv(path, ["epoch", "bin_lo", "bin_hi", "count"], rows)


def write_manifest(path: str, entries: dict) -> None:
    with atomic_open(path, "w", encoding="utf-8") as f:
        for key in sorted(entries):
            f.write(f"{key}={entries[key]}\n")


def _data_digests(dataset: Dataset) -> dict[str, str]:
    """Manifest entries naming the digest of every source data file."""
    return {f"data_{name}": digest for name, digest in dataset.source_digests.items()}


def _load_dataset(data_dir: str, cfg: TrainConfig) -> Dataset:
    try:
        ds = load_mnist_dir(data_dir)
    except (OSError, EOFError, zlib.error) as e:  # the last two from a damaged .gz
        raise DataError(str(e)) from e
    return split_train_dev(ds, cfg.dev_size, cfg.seed) if cfg.dev_size > 0 else ds


def _load_checkpoint_arg(path: str) -> Checkpoint:
    """load_checkpoint for a path given on the command line."""
    try:
        return load_checkpoint(path)
    except OSError as e:
        raise ConfigError(f"cannot read checkpoint {path}: {e}") from e


def _checkpoint_from_result(cfg: TrainConfig, result, epoch: int, best: bool) -> Checkpoint:
    params = result.best_params if best else result.final_params
    pi = result.best_pi if best else result.final_pi
    best_metrics = {}
    if result.best_epoch >= 0 and result.reports:
        rep = result.reports[result.best_epoch - result.reports[0].epoch]
        best_metrics = {
            "epoch": result.best_epoch,
            "dev_err": rep.dev_err,
            "dev_loss": rep.dev_loss,
        }
    return Checkpoint(
        params=params,
        pi=pi,
        config=cfg.to_dict(),
        seed=cfg.seed,
        epoch=epoch,
        best_metrics=best_metrics,
        compaction_history=[],
    )


def cmd_train(args) -> int:
    cfg = TrainConfig.from_dict(parse_config_file(args.config))
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.regime is not None:
        cfg = replace(cfg, regime=args.regime)
    cfg.validate()

    init_params = init_pi = None
    if args.resume:
        ck = _load_checkpoint_arg(args.resume)
        init_params, init_pi = ck.params, ck.pi
        cfg = replace(cfg, layer_dims=ck.params.layer_dims)

    dataset = _load_dataset(args.data_dir, cfg)
    result = run_training(dataset, cfg, init_params=init_params, init_pi=init_pi)

    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    run_id = f"{cfg.regime}-s{cfg.seed}-{config_hash(cfg)[:8]}"
    last_epoch = result.reports[-1].epoch if result.reports else -1
    save_checkpoint(
        os.path.join(out, "checkpoint_final.dckp"),
        _checkpoint_from_result(cfg, result, last_epoch, best=False),
    )
    save_checkpoint(
        os.path.join(out, "checkpoint_best.dckp"),
        _checkpoint_from_result(cfg, result, result.best_epoch, best=True),
    )
    write_metrics_csv(os.path.join(out, "metrics.csv"), run_id, cfg.regime, result.reports)
    write_histogram_csv(os.path.join(out, "retention_hist.csv"), result.reports)
    manifest = {
        "run_id": run_id,
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "backend": kernels.backend_name(),
        "regime": cfg.regime,
    }
    if args.resume:
        manifest["resumed_from"] = file_digest(args.resume)
    manifest.update(_data_digests(dataset))
    write_manifest(os.path.join(out, "manifest.txt"), manifest)

    if result.reports:
        rep = result.reports[-1]
        best = result.reports[result.best_epoch - result.reports[0].epoch]
        print(
            f"run {run_id}: {len(result.reports)} epochs, final weights {rep.n_weights},"
            f" best dev {best.dev_err:.2f}%/{best.dev_loss:.4f} at epoch {result.best_epoch}"
        )
    else:
        print(f"run {run_id}: 0 epochs (checkpoint holds the initialized model)")
    return EXIT_OK


def cmd_eval(args) -> int:
    ck = _load_checkpoint_arg(args.checkpoint)
    dataset = _load_dataset(args.data_dir, TrainConfig.from_dict(ck.config))
    if dataset.count(args.split) == 0:
        raise DataError(f"split {args.split!r} is empty or missing")
    check_data_fits(dataset, ck.params.layer_dims)
    err, loss = evaluate(ck.params, ck.pi, dataset.arrays(args.split))
    n_weights = count_weights(ck.params)
    print(
        f"checkpoint={os.path.basename(args.checkpoint)} split={args.split}"
        f" error_pct={_fmt(err)} avg_loss={_fmt(loss)} n_weights={n_weights}"
    )
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        row = [os.path.basename(args.checkpoint), args.split, _fmt(err), _fmt(loss), n_weights]
        _write_csv(os.path.join(args.out, "eval.csv"), EVAL_CSV_HEADER, [row], append=True)
        manifest = {
            "command": "eval",
            "checkpoint": file_digest(args.checkpoint),
            "split": args.split,
            "backend": kernels.backend_name(),
            **_data_digests(dataset),
        }
        write_manifest(os.path.join(args.out, "eval_manifest.txt"), manifest)
    return EXIT_OK


def cmd_compact(args) -> int:
    ck = _load_checkpoint_arg(args.checkpoint)

    before = count_weights(ck.params)
    if args.mode == "prune":
        pruned, kept_pi, report = prune_units(ck.params, ck.pi, args.threshold)
        params = absorb_retention(pruned, kept_pi)
        history_entry = {
            "mode": "prune",
            "threshold": args.threshold,
            "kept": report.kept,
            "removed": report.removed,
            "weights_before": report.weights_before,
            "weights_after": report.weights_after,
        }
        print(f"prune: {report.summary()}")
    else:
        absorbed = absorb_retention(ck.params, ck.pi)
        if args.rank is not None:
            ranks = args.rank
        else:
            dims = absorbed.layer_dims
            ranks = [
                math.ceil(dims[i] / 8) for i in range(1, absorbed.n_layers - 1)
            ]
        params = svd_compact(absorbed, ranks)
        after = count_weights(params)
        rank_list = [int(ranks)] if np.isscalar(ranks) else [int(r) for r in ranks]
        history_entry = {
            "mode": "svd",
            "ranks": rank_list,
            "weights_before": before,
            "weights_after": after,
        }
        print(
            f"svd: ranks {ranks}, weights {before} -> {after}"
            f" ({before / after:.2f}x), dims {'x'.join(map(str, params.layer_dims))}"
        )

    pi = RetentionParams.constant(params, 1.0, 1.0)
    config = dict(ck.config)
    config["layer_dims"] = list(params.layer_dims)
    out_ck = Checkpoint(
        params=params,
        pi=pi,
        config=config,
        seed=ck.seed,
        epoch=ck.epoch,
        best_metrics=ck.best_metrics,
        compaction_history=list(ck.compaction_history) + [history_entry],
    )
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "checkpoint_compacted.dckp")
    save_checkpoint(path, out_ck)
    with atomic_open(os.path.join(args.out, "compaction_report.json"), "w") as f:
        json.dump(history_entry, f, sort_keys=True, indent=1)
    write_manifest(
        os.path.join(args.out, "compact_manifest.txt"),
        {
            "command": "compact",
            "mode": args.mode,
            "checkpoint": file_digest(args.checkpoint),
            "threshold": args.threshold,
            "rank": args.rank if args.rank is not None else "auto",
        },
    )
    print(f"wrote {path}")
    return EXIT_OK


def _parse_shape(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.replace("x", ",").split(",") if p.strip())


def cmd_bench(args) -> int:
    if args.checkpoint:
        shape = _load_checkpoint_arg(args.checkpoint).params.layer_dims
    elif args.shape:
        shape = _parse_shape(args.shape)
    else:
        raise ConfigError("bench needs --shape or --checkpoint")
    ref_shape = _parse_shape(args.ref_shape) if args.ref_shape else None
    batches = [int(b) for b in args.batch.split(",") if b.strip()]
    if not batches:
        raise ConfigError(f"bad --batch {args.batch!r}")

    results = []  # (BenchResult, flop_ratio_vs_ref, speedup_vs_ref)
    for batch in batches:
        res = time_forward(shape, batch=batch, reps=args.reps, seed=args.seed)
        if ref_shape:
            ref = time_forward(ref_shape, batch=batch, reps=args.reps, seed=args.seed)
            results.append((ref, _fmt(1.0), _fmt(1.0)))
            results.append((res, _fmt(ref.flops / res.flops), _fmt(res.speedup_vs(ref))))
        else:
            results.append((res, "", ""))
        if args.workers > 1:
            eps = multi_worker_throughput(
                shape, batch=batch, reps=args.reps, workers=args.workers, seed=args.seed
            )
            print(
                f"# workers={args.workers} backend={res.backend} batch={batch}"
                f" aggregate_throughput={eps:.1f} examples/s",
                file=sys.stderr,
            )

    rows = [
        ["x".join(map(str, r.shape)), r.batch, r.reps, r.backend, _fmt(r.min_s),
         _fmt(r.median_s), _fmt(r.p95_s), _fmt(r.throughput), r.flops, ratio, speedup]
        for r, ratio, speedup in results
    ]
    csv.writer(sys.stdout).writerows([BENCH_CSV_HEADER, *rows])
    for r, _, speedup in results:
        note = f" speedup_vs_ref={speedup}" if speedup else ""
        print(
            f"# {'x'.join(map(str, r.shape))} batch={r.batch} [{r.backend}]"
            f" median={r.median_s * 1e3:.3f}ms throughput={r.throughput:.1f}/s"
            f" flops={r.flops}{note}",
            file=sys.stderr,
        )
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        _write_csv(args.out, BENCH_CSV_HEADER, rows)
        write_manifest(
            args.out + ".manifest.txt",
            {
                "command": "bench",
                "shape": "x".join(map(str, shape)),
                "ref_shape": "x".join(map(str, ref_shape)) if ref_shape else "",
                "batch": "+".join(map(str, batches)),
                "reps": args.reps,
                "seed": args.seed,
                "backends": kernels.backend_name(),
            },
        )
    return EXIT_OK


def _best_row(rows: list[dict]) -> dict:
    def key(r):
        return (
            r["dev_err"] if not math.isnan(r["dev_err"]) else float("inf"),
            r["dev_loss"] if not math.isnan(r["dev_loss"]) else float("inf"),
            r["epoch"],
        )

    return min(rows, key=key)


def cmd_report(args) -> int:
    runs: dict[str, list[dict]] = {}
    for path in args.metrics:
        try:
            with open(path, newline="") as f:
                reader = csv.DictReader(f)
                names = tuple(reader.fieldnames or ())
                if names[: len(METRICS_FIXED)] != METRICS_FIXED:
                    raise DataError(f"{path}: inconsistent metrics header {names[:9]}")
                for row in reader:
                    try:
                        row.update({k: conv(row[k]) for k, conv in REPORT_NUMERIC.items()})
                    except (TypeError, ValueError) as e:
                        raise DataError(f"{path}:{reader.line_num}: bad metrics row: {e}") from e
                    runs.setdefault(row["run_id"], []).append(row)
        except (OSError, UnicodeDecodeError, csv.Error) as e:
            raise DataError(f"cannot read {path}: {e}") from e
    if not runs:
        raise DataError("no metrics rows found")

    groups: dict[str, list[dict]] = {}
    for rows in runs.values():
        best = _best_row(rows)
        groups.setdefault(best["regime"], []).append(best)

    out_rows = []
    print(f"{'regime':<12} {'runs':>4} {'#weights':>12} {'test err% ':>16} {'test loss':>18}")
    for regime in sorted(groups):
        rows = groups[regime]
        weights = np.array([r["n_weights"] for r in rows])
        err = np.array([r["test_err"] for r in rows])
        loss = np.array([r["test_loss"] for r in rows])
        ddof = 1 if len(rows) > 1 else 0
        stats = (weights.mean(), err.mean(), err.std(ddof=ddof), loss.mean(), loss.std(ddof=ddof))
        out_rows.append([regime, len(rows)] + [_fmt(v) for v in stats])
        mean_w, mean_e, std_e, mean_l, std_l = stats
        print(
            f"{regime:<12} {len(rows):>4} {mean_w:>12.1f} {mean_e:>8.3f} ± {std_e:<6.3f}"
            f" {mean_l:>9.4f} ± {std_l:<7.4f}"
        )

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_manifest(
            os.path.join(args.out, "report_manifest.txt"),
            {
                "command": "report",
                **{f"input_{os.path.basename(p)}": file_digest(p) for p in args.metrics},
            },
        )
        _write_csv(os.path.join(args.out, "plot_data.csv"), PLOT_CSV_HEADER, out_rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dropcompact", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a model per config file")
    t.add_argument("--config", required=True)
    t.add_argument("--data-dir", required=True)
    t.add_argument("--out", default=None)
    t.add_argument("--resume", default=None, help="checkpoint to fine-tune from")
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--regime", choices=("plain", "dropout", "annealed", "compaction"))
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data-dir", required=True)
    e.add_argument("--split", default="test")
    e.add_argument("--out", default=None)
    e.set_defaults(func=cmd_eval)

    c = sub.add_parser("compact", help="prune or SVD-factorize a checkpoint")
    c.add_argument("--checkpoint", required=True)
    c.add_argument("--mode", choices=("prune", "svd"), required=True)
    c.add_argument("--threshold", type=float, default=0.5)
    c.add_argument("--rank", type=int, default=None)
    c.add_argument("--out", required=True)
    c.set_defaults(func=cmd_compact)

    b = sub.add_parser("bench", help="forward-pass latency microbenchmark")
    b.add_argument("--shape", default=None, help="e.g. 544,1536,1536,1536,1536,2500")
    b.add_argument("--checkpoint", default=None)
    b.add_argument("--ref-shape", default=None)
    b.add_argument("--batch", default="1", help="batch size, or comma list like 1,128")
    b.add_argument("--reps", type=int, default=100)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--workers", type=int, default=1)
    b.add_argument("--out", default=None)
    b.set_defaults(func=cmd_bench)

    r = sub.add_parser("report", help="aggregate metrics CSVs by regime")
    r.add_argument("metrics", nargs="+")
    r.add_argument("--out", default=None)
    r.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    logging.basicConfig(
        level=logging.INFO, stream=sys.stderr, format="%(levelname)s %(message)s"
    )
    args = build_parser().parse_args(argv)
    # ConfigError, CheckpointError and the library's range checks are all
    # ValueErrors, so anything not classified as data or structure is config
    try:
        return args.func(args)
    except (DataError, IdxParseError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except EmptyLayerError as e:
        print(f"structural error: {e}", file=sys.stderr)
        return EXIT_STRUCTURAL
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
