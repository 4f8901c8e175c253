import time

import numpy as np
import pytest

from dropcompact import kernels, network
from dropcompact.bench import (
    MIN_REPS,
    WARMUP_PASSES,
    _make_runner,
    flop_count,
    multi_worker_throughput,
    time_forward,
)
from dropcompact.linalg import rng_stream


class TestFlopCount:
    def test_small_net_macs(self):
        assert flop_count((784, 50, 50, 10)) == 42200

    def test_halving_reduces_adjacent_terms(self):
        full = flop_count((100, 64, 64, 64, 100))
        half = flop_count((100, 64, 32, 64, 100))
        # both terms touching the halved layer shrink by half
        assert full - half == (64 * 64 - 64 * 32) + (64 * 64 - 32 * 64)

    def test_reference_shape_ratio(self):
        big = flop_count((544, 1536, 1536, 1536, 1536, 2500))
        small = flop_count((544, 768, 768, 768, 768, 2500))
        assert big == 11753472 and small == 4107264
        assert big / small == pytest.approx(2.8616, abs=1e-3)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            flop_count((10,))


@pytest.mark.parametrize("backend", [kernels.backend_name()])
class TestTimeForward:
    def test_result_invariants(self, backend):
        res = time_forward((32, 64, 10), batch=1, reps=MIN_REPS)
        assert res.backend == backend
        assert res.min_s <= res.median_s <= res.p95_s
        assert res.reps >= 30
        assert res.flops == flop_count((32, 64, 10))
        assert res.throughput > 0

    def test_batch_mode(self, backend):
        res = time_forward((32, 64, 10), batch=16, reps=MIN_REPS)
        assert res.batch == 16

    def test_timing_stability(self, backend):
        # per-pass time must dwarf timer/scheduler jitter for the 20% bound.
        # The two runs are built as time_forward builds them and timed call
        # by call in turn, so a drift of the machine's speed, which exceeded
        # 20% within a second, reaches both alike.
        shape = (544, 768, 768, 768, 768, 2500)
        x = rng_stream(1, "bench-x").random((1, shape[0]))
        runs = [_make_runner(network.init_mlp(shape, "relu", 1), x.copy()) for _ in range(2)]
        for run in runs:
            for _ in range(WARMUP_PASSES):
                run()
        times = np.empty((60, 2))
        for i in range(60):
            for side, run in enumerate(runs):
                t0 = time.perf_counter()
                run()
                times[i, side] = time.perf_counter() - t0
        a, b = np.median(times, axis=0)
        assert abs(a - b) / max(a, b) < 0.2

    def test_reps_floor_enforced(self, backend):
        with pytest.raises(ValueError):
            time_forward((8, 8, 2), reps=10)


@pytest.fixture
def forward_calls(monkeypatch):
    """Record (layer dims, input shape, gates) of every network.forward_batch call."""
    calls = []
    real = network.forward_batch

    def counting(params, x, gates):
        calls.append((params.layer_dims, x.shape, [g.tolist() for g in gates]))
        return real(params, x, gates)

    monkeypatch.setattr(network, "forward_batch", counting)
    return calls


class TestSinglePath:
    # bench must time network.forward_batch, the pass eval runs, with the
    # all-ones gates that a compacted checkpoint carries
    def test_time_forward_runs_eval_forward(self, forward_calls):
        time_forward((6, 4, 3), batch=2, reps=MIN_REPS)
        assert len(forward_calls) == WARMUP_PASSES + MIN_REPS
        assert forward_calls[0] == ((6, 4, 3), (2, 6), [[1.0] * 6, [1.0] * 4])

    def test_workers_run_eval_forward(self, forward_calls):
        multi_worker_throughput((6, 4, 3), batch=2, reps=5, workers=2)
        assert len(forward_calls) == 2 * (1 + 5)
        assert all(c[:2] == ((6, 4, 3), (2, 6)) for c in forward_calls)


class TestMeasuredVsAnalytic:
    def test_flop_ratio_predicts_latency_direction(self):
        # FLOP ratio 4x; measured ratio should clear the loose 1.5x bound
        big = time_forward((256, 512, 512, 64), batch=1, reps=60, seed=2)
        small = time_forward((128, 256, 256, 32), batch=1, reps=60, seed=2)
        assert big.flops / small.flops >= 2.0
        assert big.median_s / small.median_s >= 1.5


class TestWorkers:
    def test_multi_worker_throughput_positive(self):
        eps = multi_worker_throughput((16, 32, 4), batch=4, reps=40, workers=2)
        assert eps > 0
