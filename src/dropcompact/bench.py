"""Inference-latency microbenchmark.

Times ``network.forward_batch`` as ``evaluate`` calls it (the pass ``eval``
runs) on a Glorot-initialized model over fixed random inputs: with the
gates of the all-ones retention that a compacted checkpoint carries, which
are all None, and no trace kept. The analytic multiply-accumulate count per
example is reported next to the measured latency; shape pairs can then be
compared as FLOP ratio vs measured speedup.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import kernels, network
from .linalg import rng_stream
from .retention import RetentionParams

MIN_REPS = 30
WARMUP_PASSES = 10
ACTIVATION = "relu"  # of the hidden layers of the timed model


@dataclass
class BenchResult:
    shape: tuple[int, ...]
    batch: int
    reps: int
    backend: str
    min_s: float
    median_s: float
    p95_s: float
    throughput: float  # examples per second at the median
    flops: int  # multiply-accumulates per example

    def speedup_vs(self, ref: "BenchResult") -> float:
        """How much faster this shape runs than the reference (>1 = faster)."""
        return ref.median_s / self.median_s


def flop_count(shape) -> int:
    """Multiply-accumulates per example: sum of D_l * D_{l-1}."""
    dims = tuple(int(d) for d in shape)
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError(f"bad shape {dims}")
    return int(sum(dims[i] * dims[i + 1] for i in range(len(dims) - 1)))


def _make_runner(params: network.MlpParams, x: np.ndarray):
    """Closure running the eval forward pass once on ``x``."""
    gates = RetentionParams.constant(params, 1.0).scaled_gates()
    forward = network.forward_batch
    return lambda: forward(params, x, gates, trace=False)


def time_forward(
    shape,
    batch: int = 1,
    reps: int = 100,
    seed: int = 0,
) -> BenchResult:
    """Median/min/p95 latency of one forward pass at the given batch size,
    after WARMUP_PASSES untimed passes."""
    if reps < MIN_REPS:
        raise ValueError(f"reps must be >= {MIN_REPS}")
    if batch < 1:
        raise ValueError("batch must be >= 1")
    params = network.init_mlp(shape, ACTIVATION, seed)
    dims = params.layer_dims
    run = _make_runner(params, rng_stream(seed, "bench-x").random((batch, dims[0])))

    for _ in range(WARMUP_PASSES):
        run()
    times = np.empty(reps)
    for i in range(reps):
        t0 = time.perf_counter()
        run()
        times[i] = time.perf_counter() - t0
    median = float(np.median(times))
    return BenchResult(
        shape=dims,
        batch=batch,
        reps=reps,
        backend=kernels.backend_name(),
        min_s=float(times.min()),
        median_s=median,
        p95_s=float(np.percentile(times, 95)),
        throughput=batch / median if median > 0 else float("inf"),
        flops=flop_count(dims),
    )

