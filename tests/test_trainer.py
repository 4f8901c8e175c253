import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import evaluate_oracle, synth_blobs, write_mnist_dir
from dropcompact import trainer
from dropcompact.data import Dataset, load_mnist_dir, split_train_dev
from dropcompact.linalg import rng_stream
from dropcompact.network import Gradients, MlpParams, init_mlp
from dropcompact.retention import RetentionParams
from dropcompact.trainer import (
    NonFiniteError,
    TrainConfig,
    anneal_retention,
    evaluate,
    initial_retention,
    plateau_lr,
    run_training,
    sgd_step,
    train_weights_epoch,
)


def scalar_net(w0: float) -> MlpParams:
    return MlpParams([np.array([[w0]])], [np.zeros(1)], ())


class TestSgdStep:
    def test_plain_sgd_when_momentum_zero(self):
        params = scalar_net(1.0)
        grads = Gradients([np.array([[0.5]])], [np.array([0.25])])
        vel = Gradients.zeros_like(params)
        sgd_step(params, grads, vel, lr=0.1, momentum=0.0, l2=0.0)
        assert params.weights[0][0, 0] == pytest.approx(1.0 - 0.05)
        assert params.biases[0][0] == pytest.approx(-0.025)

    def test_zero_grad_fixed_point(self):
        params = scalar_net(0.7)
        vel = Gradients.zeros_like(params)
        sgd_step(params, Gradients.zeros_like(params), vel, 0.1, 0.9, 0.0)
        assert params.weights[0][0, 0] == 0.7

    def test_two_step_momentum_recurrence(self):
        # f(w) = w^2/2 from w=1, lr 0.1, momentum 0.9: w -> 0.9 -> 0.72
        params = scalar_net(1.0)
        vel = Gradients.zeros_like(params)
        g = Gradients([np.array([[params.weights[0][0, 0]]])], [np.zeros(1)])
        sgd_step(params, g, vel, 0.1, 0.9, 0.0)
        assert params.weights[0][0, 0] == pytest.approx(0.9)
        g = Gradients([np.array([[params.weights[0][0, 0]]])], [np.zeros(1)])
        sgd_step(params, g, vel, 0.1, 0.9, 0.0)
        assert params.weights[0][0, 0] == pytest.approx(0.72)

    def test_l2_applies_to_weights_not_biases(self):
        params = scalar_net(2.0)
        params.biases[0][0] = 3.0
        vel = Gradients.zeros_like(params)
        sgd_step(params, Gradients.zeros_like(params), vel, 0.1, 0.0, l2=0.5)
        assert params.weights[0][0, 0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)
        assert params.biases[0][0] == 3.0

    @pytest.mark.parametrize("l2", [0.0, 3e-4])
    def test_bit_equal_to_formula(self, l2):
        """The in-place step keeps the operation order of the formula."""
        params = init_mlp((7, 5, 3), "relu", seed=12)
        ref = params.copy()
        vel, ref_vel = Gradients.zeros_like(params), Gradients.zeros_like(params)
        rng = rng_stream(13, "sgd")
        for step in range(3):
            g = Gradients(
                [rng.normal(size=w.shape) for w in params.weights],
                [rng.normal(size=b.shape) for b in params.biases],
            )
            scratch = Gradients.zeros_like(params) if step else None
            sgd_step(params, g, vel, 0.03, 0.9, l2, scratch)
            for w, gw, v in zip(ref.weights, g.weights, ref_vel.weights):
                v *= 0.9
                v -= 0.03 * (gw + l2 * w) if l2 != 0.0 else 0.03 * gw
                w += v
            for b, gb, v in zip(ref.biases, g.biases, ref_vel.biases):
                v *= 0.9
                v -= 0.03 * gb
                b += v
        for a, b in zip(params.weights + params.biases + vel.weights + vel.biases,
                        ref.weights + ref.biases + ref_vel.weights + ref_vel.biases):
            assert np.array_equal(a, b)

    def test_shape_mismatch_rejected(self):
        params = scalar_net(1.0)
        bad = Gradients([np.zeros((2, 2))], [np.zeros(1)])
        with pytest.raises(ValueError):
            sgd_step(params, bad, Gradients.zeros_like(params), 0.1, 0.0, 0.0)


class TestSchedules:
    def test_anneal_endpoints_and_midpoint(self):
        cfg = TrainConfig(annealing_epochs=4)
        assert anneal_retention(0, cfg) == 0.5
        assert anneal_retention(2, cfg) == 0.75
        assert anneal_retention(4, cfg) == 1.0
        assert anneal_retention(9, cfg) == 1.0

    def test_plateau_above_threshold_unchanged(self):
        assert plateau_lr([10.0, 9.5], 0.4) == 0.4  # 5% improvement

    def test_plateau_below_threshold_halves(self):
        assert plateau_lr([10.0, 9.99], 0.4) == 0.2  # 0.1% improvement

    def test_three_consecutive_plateaus_eighth(self):
        lr = 0.8
        hist = [10.0]
        for _ in range(3):
            hist.append(hist[-1] * 0.9999)
            lr = plateau_lr(hist, lr)
        assert lr == pytest.approx(0.1)

    def test_single_entry_no_change(self):
        assert plateau_lr([5.0], 0.4) == 0.4


class TestEvaluate:
    def test_perfect_predictor(self):
        # logits = one-hot(label) * 10 via identity-ish construction
        params = MlpParams(
            [np.eye(3) * 10.0], [np.zeros(3)], ()
        )
        x = np.eye(3)[np.array([0, 1, 2, 1])]
        y = np.array([0, 1, 2, 1])
        pi = RetentionParams([np.ones(3)])
        err, loss = evaluate(params, pi, (x, y))
        assert err == 0.0
        assert loss < 1e-3

    def test_uniform_predictor(self):
        params = init_mlp((5, 10), "relu", seed=1)
        params.weights[0][:] = 0.0
        params.biases[0][:] = 0.0
        rng = rng_stream(0, "ev")
        x = rng.normal(size=(200, 5))
        y = np.repeat(np.arange(10), 20)
        pi = RetentionParams([np.ones(5)])
        err, loss = evaluate(params, pi, (x, y))
        assert loss == pytest.approx(np.log(10), abs=1e-12)
        assert err == 90.0  # argmax ties resolve to class 0; labels balanced

    def test_hand_scored_fixture(self):
        params = MlpParams([np.array([[1.0, 0.0], [0.0, 1.0]])], [np.zeros(2)], ())
        x = np.array([[2.0, 0.0], [0.0, 2.0], [2.0, 0.0], [0.0, 2.0], [3.0, 0.0]])
        y = np.array([0, 1, 1, 0, 0])  # 2 of 5 wrong
        pi = RetentionParams([np.ones(2)])
        err, loss = evaluate(params, pi, (x, y))
        assert err == pytest.approx(40.0)
        # losses: -log sigma-softmax for each example, computed by hand
        import math

        l_correct = -math.log(math.exp(2.0) / (math.exp(2.0) + 1.0))
        l_wrong = -math.log(1.0 / (math.exp(2.0) + 1.0))
        l_correct3 = -math.log(math.exp(3.0) / (math.exp(3.0) + 1.0))
        want = (2 * l_correct + 2 * l_wrong + l_correct3) / 5
        assert loss == pytest.approx(want, abs=1e-12)

    def test_empty_split_rejected(self):
        params = init_mlp((2, 2), "relu", seed=1)
        with pytest.raises(ValueError):
            evaluate(params, RetentionParams([np.ones(2)]), (np.zeros((0, 2)), np.zeros(0, int)))


def _retention(kind: str, width: int, rng) -> np.ndarray:
    """A retention vector: all ones, some ones, all zeros or random."""
    if kind == "ones":
        return np.ones(width)
    if kind == "zeros":
        return np.zeros(width)
    v = rng.random(width)
    if kind == "partly_ones":
        v[: (width + 1) // 2] = 1.0
    return v


class TestEvaluateMatchesOracle:
    """evaluate gives the bits of the pass that keeps every activation and
    multiplies by every gate, chunk by chunk, for given rows or gathered ones."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        hidden=st.lists(st.integers(1, 12), max_size=3),
        act=st.sampled_from(("relu", "sigmoid")),
        kinds=st.lists(st.sampled_from(("ones", "partly_ones", "zeros", "random")),
                       min_size=4, max_size=4),
        n=st.integers(1, 70),
        batch_size=st.integers(1, 32),
        pixels=st.booleans(),
        through_rows=st.booleans(),
    )
    def test_bit_equal(self, seed, hidden, act, kinds, n, batch_size, pixels, through_rows):
        rng = rng_stream(seed, "eval-oracle")
        dims = (6, *hidden, 5)
        params = init_mlp(dims, act, seed)
        for b in params.biases:
            b[:] = rng.normal(size=b.shape)
        pi = RetentionParams([_retention(k, d, rng) for k, d in zip(kinds, dims[:-1])])
        total = n + 30
        if pixels:
            x = rng.integers(0, 256, (total, 6), dtype=np.uint8)
        else:
            x = rng.normal(size=(total, 6))
        y = rng.integers(0, 5, total)
        if through_rows:
            rows = rng.choice(total, n, replace=False)
            got = evaluate(params, pi, (x, y), batch_size, rows=rows)
            want = evaluate_oracle(params, pi, (x[rows], y[rows]), batch_size)
        else:
            got = evaluate(params, pi, (x[:n], y[:n]), batch_size)
            want = evaluate_oracle(params, pi, (x[:n], y[:n]), batch_size)
        assert got == want


class TestEvaluateMemory:
    @pytest.mark.parametrize("hidden", [1.0, 0.5])
    def test_holds_two_layers_at_a_time(self, hidden):
        # 64-256x4-512 at batch 128: the float64 input is 64 KiB and the two
        # widest layers 768 KiB; each broadcasting ufunc (bias add, gate
        # multiply) also takes numpy's transient buffer of getbufsize() doubles
        params = init_mlp((64, 256, 256, 256, 256, 512), "relu", seed=3)
        pi = RetentionParams.constant(params, hidden)
        rng = rng_stream(3, "eval-memory")
        x, y = rng.random((128, 64)), rng.integers(0, 512, 128)
        evaluate(params, pi, (x, y))
        bound = x.nbytes + 128 * (512 + 256) * 8 + np.getbufsize() * 8
        tracemalloc.start()
        try:
            evaluate(params, pi, (x, y))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (peak, bound)


class TestTrainEpoch:
    def test_zero_lr_keeps_params(self):
        ds = synth_blobs(30, 2, 4, separation=3.0, seed=0)
        cfg = TrainConfig(regime="plain", layer_dims=(4, 5, 2), epochs=1, batch_size=8, lr=1e-9)
        params = init_mlp((4, 5, 2), "relu", seed=2)
        before = [w.copy() for w in params.weights]
        _, loss = train_weights_epoch(params, initial_retention(params, cfg),
                                      (ds.features, ds.labels), cfg, rng_stream(0, "e"),
                                      lr=0.0, rows=ds.splits["train"])
        assert loss > 0
        for b, w in zip(before, params.weights):
            assert np.array_equal(b, w)

    def test_separable_blobs_reach_zero_error(self):
        ds = synth_blobs(50, 2, 6, separation=10.0, seed=1)
        cfg = TrainConfig(
            regime="plain", layer_dims=(6, 8, 2), epochs=20, batch_size=16,
            lr=0.05, momentum=0.9, seed=3, dev_size=0, patience=100,
        )
        res = run_training(ds, cfg)
        err, _ = evaluate(res.final_params, res.final_pi, (ds.features, ds.labels),
                          rows=ds.splits["train"])
        assert err == 0.0

    def test_multi_sample_plain_equals_single(self):
        # identical all-ones masks make the sample average a no-op
        ds = synth_blobs(40, 2, 5, separation=4.0, seed=6)
        base = dict(regime="plain", layer_dims=(5, 8, 2), epochs=2, batch_size=16,
                    lr=0.02, momentum=0.9, seed=4, dev_size=0)
        one = run_training(ds, TrainConfig(samples_per_example=1, **base))
        two = run_training(ds, TrainConfig(samples_per_example=2, **base))
        for a, b in zip(one.final_params.weights, two.final_params.weights):
            assert np.array_equal(a, b)

    def test_fixed_seed_bit_identical(self):
        ds = synth_blobs(40, 3, 5, separation=4.0, seed=2)
        cfg = TrainConfig(regime="dropout", layer_dims=(5, 12, 3), epochs=3,
                          batch_size=16, lr=0.01, seed=7, dev_size=0)
        a = run_training(ds, cfg)
        b = run_training(ds, cfg)
        for wa, wb in zip(a.final_params.weights, b.final_params.weights):
            assert np.array_equal(wa, wb)
        assert [repr(r) for r in a.reports] == [repr(r) for r in b.reports]


class TestRunTraining:
    def test_compaction_requires_dev(self):
        ds = synth_blobs(40, 2, 4, separation=3.0, seed=3)
        cfg = TrainConfig(regime="compaction", layer_dims=(4, 6, 2), epochs=1)
        with pytest.raises(ValueError, match="dev"):
            run_training(ds, cfg)

    def test_zero_epochs_returns_init(self):
        ds = synth_blobs(40, 2, 4, separation=3.0, seed=4)
        cfg = TrainConfig(regime="plain", layer_dims=(4, 6, 2), epochs=0, seed=5)
        res = run_training(ds, cfg)
        want = init_mlp((4, 6, 2), "relu", seed=5)
        for a, b in zip(res.final_params.weights, want.weights):
            assert np.array_equal(a, b)
        assert res.reports == []

    def test_input_width_mismatch_rejected(self):
        ds = synth_blobs(40, 2, 4, separation=3.0, seed=5)
        cfg = TrainConfig(regime="plain", layer_dims=(5, 6, 2), epochs=1)
        with pytest.raises(ValueError, match="input width"):
            run_training(ds, cfg)

    def test_early_stopping_and_best_selection(self, small_teacher_ds):
        cfg = TrainConfig(
            regime="plain", layer_dims=(64, 16, 10), epochs=60, batch_size=64,
            lr=0.02, momentum=0.9, seed=6, dev_size=0, patience=3,
        )
        res = run_training(small_teacher_ds, cfg)
        if len(res.reports) < 60:  # stopped early: patience epochs after the best
            assert res.reports[-1].epoch - res.best_epoch == cfg.patience
        dev_errs = [r.dev_err for r in res.reports]
        assert res.best_epoch == int(np.argmin(dev_errs))
        assert res.best is res.reports[res.best_epoch]

    def test_train_split_is_never_copied(self):
        # 19000 x 64 train rows (9.7 MB) against a 64-16-10 net: an epoch
        # that gathers its minibatches holds far less than the train split
        ds = split_train_dev(synth_blobs(2000, 10, 64, separation=3.0, seed=10), 1000, seed=10)
        cfg = TrainConfig(
            regime="compaction", layer_dims=(64, 16, 10), epochs=1, batch_size=128,
            lr=0.01, seed=10, dev_size=1000, retention_lr=1e-4,
        )
        train_bytes = ds.count("train") * ds.dim * ds.inputs.itemsize
        tracemalloc.start()
        try:
            run_training(ds, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * train_bytes, (peak, train_bytes)

    @pytest.mark.parametrize("regime", ["plain", "compaction"])
    def test_non_finite_loss_stops_run(self, small_teacher_ds, regime):
        # lr 1e3 with L2 drives the parameters to NaN within epoch 0
        cfg = TrainConfig(
            regime=regime, layer_dims=(64, 20, 20, 10), epochs=3, batch_size=64,
            lr=1e3, l2=1e-4, seed=5, dev_size=600,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError, match="non-finite train loss in epoch 0, weights"):
                run_training(small_teacher_ds, cfg)

    def test_histogram_sums_to_maskable_units(self, small_teacher_ds):
        cfg = TrainConfig(
            regime="dropout", layer_dims=(64, 10, 8, 10), epochs=1, batch_size=64,
            lr=0.01, seed=8, dev_size=0,
        )
        res = run_training(small_teacher_ds, cfg)
        assert sum(res.reports[0].histogram) == 18

    def test_annealed_schedule_applied(self, small_teacher_ds):
        cfg = TrainConfig(
            regime="annealed", layer_dims=(64, 10, 10), epochs=6, batch_size=64,
            lr=0.01, seed=9, dev_size=0, annealing_epochs=4,
        )
        res = run_training(small_teacher_ds, cfg)
        # by the final epoch retention is 1.0: histogram mass in the top bin
        assert res.reports[-1].histogram[-1] == 10
        assert res.final_pi[1].min() == 1.0


class TestPixelDataset:
    """A dataset loaded from IDX files: training and evaluation turn only
    the rows they gather into float64, with the bits of float64 inputs."""

    @pytest.fixture(scope="class")
    def pixel_ds(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("pixels")
        write_mnist_dir(root, 15000, 5000, side=16, seed=21)
        return split_train_dev(load_mnist_dir(str(root)), 5000, seed=21)

    def test_bit_equal_to_float_twin(self, pixel_ds):
        twin = Dataset(pixel_ds.inputs, pixel_ds.labels, pixel_ds.num_classes, pixel_ds.splits)
        cfg = TrainConfig(regime="dropout", layer_dims=(256, 16, 10), batch_size=128,
                          lr=0.01, input_retention=0.8, seed=22)
        init = init_mlp(cfg.layer_dims, "relu", cfg.seed)
        pi = initial_retention(init, cfg)
        runs = []
        for ds in (pixel_ds, twin):
            data = (ds.features, ds.labels)
            params, loss = train_weights_epoch(
                init.copy(), pi, data, cfg, rng_stream(cfg.seed, "weights", 0),
                rows=ds.splits["train"],
            )
            scores = [evaluate(params, pi, data, rows=ds.splits[tag]) for tag in ("dev", "test")]
            runs.append((params.weights + params.biases, loss, scores))
        (pa, la, sa), (pb, lb, sb) = runs
        assert la == lb and sa == sb
        assert all(np.array_equal(a, b) for a, b in zip(pa, pb))

    def test_run_holds_less_than_a_float_split(self, pixel_ds):
        # 5000 x 256 pixels in the dev and test splits: a float64 copy of one
        # is 10.2 MB, where converting one 1024-row evaluate chunk holds 2.1 MB
        cfg = TrainConfig(regime="compaction", layer_dims=(256, 16, 10), epochs=1,
                          batch_size=128, lr=0.01, seed=23, dev_size=5000, retention_lr=1e-4)
        smallest = min(pixel_ds.count(tag) for tag in ("train", "dev", "test"))
        float_split = smallest * pixel_ds.dim * np.dtype(np.float64).itemsize
        tracemalloc.start()
        try:
            run_training(pixel_ds, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < float_split, (peak, float_split)

    def test_dev_split_is_never_gathered(self, tmp_path):
        # 14000 x 256 dev pixels are 3.6 MB; evaluating them 1024 rows at a
        # time through their row index holds one 2.1 MB float64 chunk
        write_mnist_dir(tmp_path, 18000, 1000, side=16, seed=24)
        ds = split_train_dev(load_mnist_dir(str(tmp_path)), 14000, seed=24)
        cfg = TrainConfig(regime="compaction", layer_dims=(256, 16, 10), epochs=1,
                          batch_size=128, lr=0.01, seed=24, dev_size=14000, retention_lr=1e-4)
        dev_bytes = ds.count("dev") * ds.dim * ds.features.itemsize
        tracemalloc.start()
        try:
            run_training(ds, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dev_bytes, (peak, dev_bytes)


class TestFrozenSweepSkip:
    """With every hidden unit frozen the retention sweep is skipped, and a
    sweep ends after the batch that freezes the last unit; the prune check
    after it still runs."""

    BASE = dict(
        regime="compaction", layer_dims=(64, 12, 10, 10), batch_size=64, lr=0.01,
        momentum=0.9, seed=14, dev_size=0, patience=50,
    )

    @staticmethod
    def _count_calls(monkeypatch):
        """Per epoch, one flag per retention update (whether it left every
        hidden unit frozen), the epochs that pruned, and the stats object
        each epoch's sweep fills (the one perfbench's tracer reads)."""
        epoch, calls, pruned, stats = [-1], {}, {}, {}
        real_epoch, real_update, real_prune = (
            trainer.train_weights_epoch, trainer.retention_update, trainer.prune_units
        )

        def weights_epoch(*args, **kwargs):
            epoch[0] += 1
            return real_epoch(*args, **kwargs)

        def update(*args, **kwargs):
            stats[epoch[0]] = args[6]
            pi = real_update(*args, **kwargs)
            frozen = not any(pi.active(layer).any() for layer in range(1, len(pi)))
            calls.setdefault(epoch[0], []).append(frozen)
            return pi

        def prune(*args, **kwargs):
            pruned[epoch[0]] = True
            return real_prune(*args, **kwargs)

        monkeypatch.setattr(trainer, "train_weights_epoch", weights_epoch)
        monkeypatch.setattr(trainer, "retention_update", update)
        monkeypatch.setattr(trainer, "prune_units", prune)
        return calls, pruned, stats

    def test_all_frozen_epoch_prunes_without_sweep(self, small_teacher_ds, monkeypatch):
        calls, pruned, _ = self._count_calls(monkeypatch)
        cfg = TrainConfig(epochs=2, **self.BASE)
        params = init_mlp(cfg.layer_dims, "relu", cfg.seed)
        pi = RetentionParams(
            [np.ones(64), np.array([0.0, 1.0] * 6), np.array([1.0] * 7 + [0.0] * 3)]
        )
        res = run_training(small_teacher_ds, cfg, init_params=params, init_pi=pi)
        assert calls == {}
        assert pruned == {0: True}
        assert res.final_params.layer_dims == (64, 6, 7, 10)

    def test_sweeps_stop_once_frozen(self, small_teacher_ds, monkeypatch):
        calls, pruned, stats = self._count_calls(monkeypatch)
        res = run_training(small_teacher_ds, TrainConfig(epochs=4, retention_lr=1e-4, **self.BASE))
        # the epoch-0 sweep would take 47 batches; it ends right after the
        # first one that leaves every unit frozen, and later epochs skip it
        n = len(calls[0])
        assert len(res.reports) == 4 and list(calls) == [0] and n < -(-3000 // 64)
        assert calls[0] == [False] * (n - 1) + [True]
        assert 0 in pruned
        assert stats[0].examples == n * 64
        assert not any(res.final_pi.active(layer).any() for layer in (1, 2))


class TestRegimeDegeneracy:
    def test_compaction_disabled_equals_dropout(self, small_teacher_ds):
        base = dict(
            layer_dims=(64, 12, 12, 10), epochs=3, batch_size=64, lr=0.01,
            momentum=0.9, seed=10, dev_size=0, patience=50,
        )
        a = run_training(small_teacher_ds, TrainConfig(regime="dropout", dropout_retention=0.5, **base))
        b = run_training(
            small_teacher_ds,
            TrainConfig(
                regime="compaction", retention_init=0.5, gamma=0.0,
                gamma_mode="absolute", retention_lr=0.0, **base,
            ),
        )
        for wa, wb in zip(a.final_params.weights, b.final_params.weights):
            assert np.array_equal(wa, wb)
        for ra, rb in zip(a.reports, b.reports):
            assert (ra.train_loss, ra.dev_loss, ra.dev_err) == (rb.train_loss, rb.dev_loss, rb.dev_err)

    def test_plain_equals_all_ones_dropout(self, small_teacher_ds):
        base = dict(
            layer_dims=(64, 12, 10), epochs=3, batch_size=64, lr=0.01,
            momentum=0.9, seed=11, dev_size=0, patience=50,
        )
        a = run_training(small_teacher_ds, TrainConfig(regime="plain", **base))
        b = run_training(
            small_teacher_ds,
            TrainConfig(regime="dropout", dropout_retention=1.0, input_retention=1.0, **base),
        )
        for wa, wb in zip(a.final_params.weights, b.final_params.weights):
            assert np.array_equal(wa, wb)

    def test_plain_trains_with_input_retention(self, small_teacher_ds):
        """input_retention gates the input in every regime, in training as
        well as in the expectation-scaled evaluation."""
        base = dict(
            layer_dims=(64, 12, 10), epochs=3, batch_size=64, lr=0.01, momentum=0.9,
            seed=12, dev_size=0, patience=50, input_retention=0.8,
        )
        a = run_training(small_teacher_ds, TrainConfig(regime="plain", **base))
        b = run_training(
            small_teacher_ds, TrainConfig(regime="dropout", dropout_retention=1.0, **base)
        )
        assert len(a.reports) == 3
        assert [repr(r) for r in a.reports] == [repr(r) for r in b.reports]


NAN = float("nan")


class TestBestEpochRule:
    """beats_best(candidate, best) on (dev_err, dev_loss) pairs."""

    @pytest.mark.parametrize(
        "key, best, want",
        [
            pytest.param((4.0, 0.3), (5.0, 0.1), True, id="lower-error-wins"),
            pytest.param((5.0, 0.2), (5.0, 0.3), True, id="equal-error-lower-loss-wins"),
            pytest.param((5.0, 0.3), (5.0, 0.3), False, id="tie-keeps-earlier"),
            pytest.param((6.0, 0.1), (5.0, 0.3), False, id="higher-error-loses"),
            pytest.param((5.0, 0.3), (NAN, NAN), True, id="nan-best-replaced"),
            pytest.param((NAN, NAN), (NAN, NAN), True, id="no-dev-keeps-last"),
            pytest.param((5.0, 0.3), (4.0, NAN), True, id="half-nan-best-replaced"),
            pytest.param((NAN, NAN), (5.0, 0.3), False, id="nan-candidate-loses"),
            pytest.param((4.0, NAN), (5.0, 0.3), False, id="nan-loss-candidate-loses"),
            pytest.param((NAN, 0.1), (5.0, 0.3), False, id="nan-error-candidate-loses"),
        ],
    )
    def test_rule(self, key, best, want):
        assert trainer.beats_best(key, best) is want

    def test_no_dev_keeps_last_epoch(self):
        ds = synth_blobs(40, 3, 5, separation=4.0, seed=2)
        cfg = TrainConfig(regime="plain", layer_dims=(5, 8, 3), epochs=3, batch_size=16,
                          lr=0.01, seed=7, dev_size=0, patience=1)
        res = run_training(ds, cfg)
        assert len(res.reports) == 3 and res.best is res.reports[-1]
        assert np.array_equal(res.best_params.weights[0], res.final_params.weights[0])


class TestConfig:
    def test_from_dict_unknown_key(self):
        with pytest.raises(ValueError, match="unknown config key"):
            TrainConfig.from_dict({"regime": "plain", "learnig_rate": "0.1"})

    def test_from_dict_coercion(self):
        cfg = TrainConfig.from_dict(
            {
                "regime": "annealed",
                "layer_dims": "784, 100, 100, 10",
                "lr": "0.001",
                "epochs": "5",
                "plateau_halving": "on",
            }
        )
        assert cfg.layer_dims == (784, 100, 100, 10)
        assert cfg.plateau_halving is True
        assert cfg.epochs == 5

    def test_validation_bounds(self):
        with pytest.raises(ValueError):
            TrainConfig(momentum=1.0).validate()
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0).validate()
        with pytest.raises(ValueError):
            TrainConfig(regime="bogus").validate()
        with pytest.raises(ValueError):
            TrainConfig(prior_alpha=1.5).validate()

    @pytest.mark.parametrize(
        "bad",
        [
            dict(lr=float("nan")),
            dict(lr=float("inf")),
            dict(momentum=float("nan")),
            dict(control_variate=float("nan")),
            dict(plateau_threshold=float("-inf")),
            dict(retention_batch_size=-5),
            dict(dev_size=-1),
            dict(importance_clamp=0.0),
        ],
    )
    def test_validation_rejects(self, bad):
        with pytest.raises(ValueError):
            TrainConfig(**bad).validate()

    def test_from_dict_reads_every_key_as_text(self):
        want = TrainConfig(regime="compaction", layer_dims=(8, 4, 3), plateau_halving=True)
        text = {
            k: ",".join(map(str, v)) if isinstance(v, list) else str(v)
            for k, v in want.to_dict().items()
        }
        got = TrainConfig.from_dict(text)
        assert got == want
        assert {k: type(v) for k, v in got.to_dict().items()} == {
            k: type(v) for k, v in want.to_dict().items()
        }
