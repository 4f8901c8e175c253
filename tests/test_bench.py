import time

import numpy as np
import pytest

from dropcompact import kernels, network, trainer
from dropcompact.bench import (
    MIN_REPS,
    WARMUP_PASSES,
    _make_runner,
    flop_count,
    time_forward,
)
from dropcompact.linalg import rng_stream
from dropcompact.retention import RetentionParams


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


class TestTimeForward:
    def test_result_invariants(self):
        res = time_forward((32, 64, 10), batch=1, reps=MIN_REPS)
        assert res.backend == kernels.backend_name()
        assert res.min_s <= res.median_s <= res.p95_s
        assert res.reps >= 30
        assert res.flops == flop_count((32, 64, 10))
        assert res.throughput > 0

    def test_batch_mode(self):
        res = time_forward((32, 64, 10), batch=16, reps=MIN_REPS)
        assert res.batch == 16

    def test_timing_stability(self):
        # per-pass time must dwarf timer/scheduler jitter for the 20% bound.
        # The two runs are built as time_forward builds them and timed call
        # by call in turn, so a drift of the machine's speed, which exceeded
        # 20% within a second, reaches both alike. The layers are narrow
        # enough that OpenBLAS runs each batch-1 product on the calling
        # thread alone (its worker thread took no CPU time). On a 2-core box
        # its second thread made the 544-768x4-2500 child fail 10 of 20 runs
        # beside two memory-copy loops (gaps up to 68%); this shape passed
        # 100 of 100 runs alone and 100 of 100 under that load (gaps up to
        # 6.2%).
        shape = (90,) + (100, 90) * 5 + (10,)
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
        a, b = np.median(times, axis=0) * 1e3
        gap = abs(a - b) / max(a, b)
        assert gap < 0.2, f"medians {a:.3f} ms and {b:.3f} ms differ by {gap:.1%}"

    def test_reps_floor_enforced(self):
        with pytest.raises(ValueError):
            time_forward((8, 8, 2), reps=10)

    def test_batch_floor_enforced(self):
        with pytest.raises(ValueError, match="batch must be >= 1"):
            time_forward((8, 8, 2), batch=0, reps=MIN_REPS)


def _recording(calls, real):
    """network.forward_batch that records (layer dims, input shape, gates, keywords)."""

    def counting(params, x, gates, **kwargs):
        gate_lists = [None if g is None else np.asarray(g).tolist() for g in gates]
        calls.append((params.layer_dims, x.shape, gate_lists, kwargs))
        return real(params, x, gates, **kwargs)

    return counting


class TestSinglePath:
    # bench must call network.forward_batch exactly as evaluate does on the
    # all-ones retention that a compacted checkpoint carries
    def test_time_forward_runs_eval_forward(self, monkeypatch):
        real = network.forward_batch
        timed, evaluated = [], []
        monkeypatch.setattr(network, "forward_batch", _recording(timed, real))
        monkeypatch.setattr(trainer, "forward_batch", _recording(evaluated, real))
        time_forward((6, 4, 3), batch=2, reps=MIN_REPS)
        assert len(timed) == WARMUP_PASSES + MIN_REPS

        params = network.init_mlp((6, 4, 3), "relu", 0)
        split = (np.ones((2, 6)), np.array([0, 1]))
        trainer.evaluate(params, RetentionParams.constant(params, 1.0), split)
        assert timed[0] == evaluated[0] == ((6, 4, 3), (2, 6), [None, None], {"trace": False})


class TestMeasuredVsAnalytic:
    def test_flop_ratio_predicts_latency_direction(self):
        # FLOP ratio 4x; measured ratio should clear the loose 1.5x bound
        big = time_forward((256, 512, 512, 64), batch=1, reps=60, seed=2)
        small = time_forward((128, 256, 256, 32), batch=1, reps=60, seed=2)
        assert big.flops / small.flops >= 2.0
        assert big.median_s / small.median_s >= 1.5
