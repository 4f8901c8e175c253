"""The benchmark's metric table: names, units, directions and targets.

``BENCHMARK.json`` at the repository root repeats the workload, end-to-end
and per-layer entries of this table; ``perfbench/tests/test_schema.py`` keeps the two
in step. The extra fields here (which end-to-end metric and workload a
per-layer metric should move, the issue-facing names printed next to the
generic ones) have no place in ``BENCHMARK.json``, whose keys are fixed.
"""

from __future__ import annotations

WORKLOADS = {
    "train-compaction": (
        "dropcompact train on the 50k x 784 teacher surrogate: the only path through "
        "Bernoulli draws, retention sweeps, backward, sgd_step and prune_units"
    ),
    "serve-b1": (
        "784-50-50-10 child of a pruned 784-100-100-10 parent at batch 1 through evaluate: "
        "per-call Python and allocation overhead dominate, GEMM speed hardly matters"
    ),
    "serve-b128": (
        "544-768x4-2500 child of 544-1536x4-2500 at batch 128 through evaluate: BLAS GEMM "
        "dominates, so overhead-only changes stay flat and GEMM-rate changes show"
    ),
}

# name, unit, better, bound. Every workload reports every one of these; what
# an "operation" is depends on the workload (see METRICS.md). Over ten seeds
# the timings spread (quartile distance over median) by up to 8.3% on the
# 2-core reference box, so their bounds are three times that.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p90_ms", "ms", "lower", 0.25),
]

# The names the benchmark's issue uses, printed beside the generic metric.
ISSUE_NAMES = {
    "train-compaction": {
        "throughput_per_s": "train.examples_per_s",
        "latency_p50_ms": "train.call_p50_ms",
        "latency_p90_ms": "train.call_p90_ms",
    },
    "serve-b1": {
        "throughput_per_s": "serve.rows_per_s",
        "latency_p50_ms": "serve.latency_p50_ms",
        "latency_p90_ms": "serve.latency_p90_ms",
    },
}
ISSUE_NAMES["serve-b128"] = ISSUE_NAMES["serve-b1"]

# Highest hidden-layer index and weight-layer count across the workloads'
# models, and the epoch count of configs/train_compaction.ini.
MAX_HIDDEN = 4
MAX_WEIGHT_LAYERS = 6
EPOCHS = 4

TRAIN = "throughput_per_s@train-compaction"
B1 = "latency_p50_ms@serve-b1"
B128 = "throughput_per_s@serve-b128"
SETUP_SERVE = "setup_s@serve-b1,serve-b128"

# name, unit, better, the end-to-end metric(s) @ workload(s) it should move.
PER_LAYER = [
    ("data.load_s", "s", "lower", TRAIN),
    ("data.bytes_read", "B", "lower", TRAIN),
    ("linalg.bernoulli.calls", "count", "lower", TRAIN),
    ("linalg.bernoulli.self_s", "s", "lower", TRAIN),
    ("linalg.bernoulli.draws", "count", "lower", TRAIN),
    ("linalg.bernoulli.useful_ratio", "ratio", "higher", TRAIN),
    ("kernels.gate_act.calls", "count", "lower", f"{B1};{TRAIN}"),
    ("kernels.gate_act.self_s", "s", "lower", f"{B1};{TRAIN}"),
    ("kernels.gate_act.bytes", "B", "lower", f"{B1};{TRAIN}"),
    ("kernels.act_grad.calls", "count", "lower", TRAIN),
    ("kernels.act_grad.self_s", "s", "lower", TRAIN),
    ("kernels.act_grad.bytes", "B", "lower", TRAIN),
    ("kernels.mask_score.calls", "count", "lower", TRAIN),
    ("kernels.mask_score.self_s", "s", "lower", TRAIN),
    ("kernels.mask_score.bytes", "B", "lower", TRAIN),
    ("network.forward.calls", "count", "lower", f"{B1};{B128};{TRAIN}"),
    ("network.forward.rows", "count", "lower", f"{B1};{B128};{TRAIN}"),
    ("network.forward.self_s", "s", "lower", f"{B1};{B128};{TRAIN}"),
    ("network.forward.macs", "count", "lower", f"{B1};{B128};{TRAIN}"),
]
PER_LAYER += [
    (f"network.forward.macs.l{i}", "count", "lower", f"{B128};{TRAIN}")
    for i in range(MAX_WEIGHT_LAYERS)
]
PER_LAYER += [
    ("network.forward.gflops", "GMAC/s", "higher", f"{B128};{TRAIN}"),
    ("network.backward.calls", "count", "lower", TRAIN),
    ("network.backward.self_s", "s", "lower", TRAIN),
    ("network.backward.macs", "count", "lower", TRAIN),
    ("retention.sample_block.calls", "count", "lower", TRAIN),
    ("retention.sample_block.self_s", "s", "lower", TRAIN),
    ("retention.update.calls", "count", "lower", TRAIN),
    ("retention.update.self_s", "s", "lower", TRAIN),
    ("retention.update.forward_macs", "count", "lower", TRAIN),
]
PER_LAYER += [
    (f"retention.active_fraction.e{k}", "ratio", "lower", TRAIN) for k in range(EPOCHS)
]
PER_LAYER += [
    ("retention.clamped", "count", "lower", TRAIN),
    ("retention.floored", "count", "lower", TRAIN),
    ("phase.mask_sampling_s", "s", "lower", TRAIN),
    ("phase.forward_s", "s", "lower", TRAIN),
    ("phase.backward_s", "s", "lower", TRAIN),
    ("phase.sgd_step_s", "s", "lower", TRAIN),
    ("phase.retention_sweep_s", "s", "lower", TRAIN),
    ("phase.prune_s", "s", "lower", TRAIN),
    ("phase.eval_s", "s", "lower", TRAIN),
    ("phase.other_s", "s", "lower", TRAIN),
    ("trainer.run_training_s", "s", "lower", TRAIN),
]
PER_LAYER += [(f"trainer.epoch_s.e{k}", "s", "lower", TRAIN) for k in range(EPOCHS)]
PER_LAYER += [
    ("trainer.sgd_step.calls", "count", "lower", TRAIN),
    ("trainer.sgd_step.bytes", "B", "lower", TRAIN),
    ("trainer.evaluate.calls", "count", "lower", B1),
    ("trainer.evaluate.self_s", "s", "lower", B1),
    ("compaction.prune.calls", "count", "lower", "train.final_weights@train-compaction"),
    ("compaction.prune.self_s", "s", "lower", f"{TRAIN};{SETUP_SERVE}"),
]
PER_LAYER += [
    (f"compaction.units_kept.l{i}", "count", "lower", "train.final_weights@train-compaction")
    for i in range(1, MAX_HIDDEN + 1)
]
PER_LAYER += [
    ("compaction.flop_ratio", "ratio", "higher", "latency_p50_ms@serve-b1,serve-b128"),
    ("compaction.parent_p50_ms", "ms", "lower", "none (reference for measured_speedup)"),
    ("compaction.measured_speedup", "ratio", "higher", "latency_p50_ms@serve-b1,serve-b128"),
    ("checkpoint.save.calls", "count", "lower", f"{SETUP_SERVE};{TRAIN}"),
    ("checkpoint.save.s", "s", "lower", f"{SETUP_SERVE};{TRAIN}"),
    ("checkpoint.save.bytes", "B", "lower", f"{SETUP_SERVE};{TRAIN}"),
    ("checkpoint.load.calls", "count", "lower", SETUP_SERVE),
    ("checkpoint.load.s", "s", "lower", SETUP_SERVE),
    ("cli.train_s", "s", "lower", TRAIN),
    ("cli.other_s", "s", "lower", TRAIN),
    ("bench.prealloc_p50_ms", "ms", "lower", "none (microbenchmark beside the eval path)"),
    ("trace.overhead_pct", "%", "lower", "none (traced minus untraced time per operation)"),
    ("trace.spans", "count", "lower", "none (spans recorded in the traced run)"),
]


def benchmark_json() -> dict:
    """The content ``BENCHMARK.json`` must have."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 25,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }
