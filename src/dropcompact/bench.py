"""Inference-latency microbenchmark.

Times ``network.forward_batch``, the forward pass that ``eval`` runs, on a
Glorot-initialized model over fixed random inputs, with the all-ones gates
that a compacted checkpoint carries. The analytic multiply-accumulate count
per example is reported next to the measured latency; shape pairs can then
be compared as FLOP ratio vs measured speedup.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from . import kernels, network
from .linalg import rng_stream

MIN_REPS = 30
WARMUP_PASSES = 10


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
    # a compacted checkpoint stores all-ones retention, which eval passes as gates
    gates = [np.ones(d) for d in params.layer_dims[:-1]]
    forward = network.forward_batch
    return lambda: forward(params, x, gates)


def time_forward(
    shape,
    batch: int = 1,
    reps: int = 100,
    seed: int = 0,
    activation: str = "relu",
    warmup: int = WARMUP_PASSES,
) -> BenchResult:
    """Median/min/p95 latency of one forward pass at the given batch size."""
    if reps < MIN_REPS:
        raise ValueError(f"reps must be >= {MIN_REPS}")
    if batch < 1:
        raise ValueError("batch must be >= 1")
    params = network.init_mlp(shape, activation, seed)
    dims = params.layer_dims
    run = _make_runner(params, rng_stream(seed, "bench-x").random((batch, dims[0])))

    for _ in range(warmup):
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


def multi_worker_throughput(
    shape,
    batch: int = 1,
    reps: int = 100,
    workers: int = 2,
    seed: int = 0,
    activation: str = "relu",
) -> float:
    """Aggregate examples/sec with `workers` threads each running the eval
    forward pass on its own inputs; reported separately from latency stats."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    params = network.init_mlp(shape, activation, seed)
    dims = params.layer_dims
    runners = [
        _make_runner(params, rng_stream(seed, "bench-x", w).random((batch, dims[0])))
        for w in range(workers)
    ]
    for run in runners:
        run()  # warm caches before timing

    def work(run):
        for _ in range(reps):
            run()

    threads = [threading.Thread(target=work, args=(r,)) for r in runners]
    t0 = time.perf_counter()
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    elapsed = time.perf_counter() - t0
    return workers * reps * batch / elapsed
