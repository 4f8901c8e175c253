import numpy as np
import pytest

from conftest import synth_blobs
from dropcompact import trainer
from dropcompact.linalg import rng_stream
from dropcompact.network import Gradients, MlpParams, init_mlp
from dropcompact.retention import RetentionParams
from dropcompact.trainer import (
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


class TestTrainEpoch:
    def test_zero_lr_keeps_params(self):
        ds = synth_blobs(30, 2, 4, separation=3.0, seed=0)
        cfg = TrainConfig(regime="plain", layer_dims=(4, 5, 2), epochs=1, batch_size=8, lr=1e-9)
        params = init_mlp((4, 5, 2), "relu", seed=2)
        before = [w.copy() for w in params.weights]
        x, y = ds.arrays("train")
        _, loss = train_weights_epoch(params, initial_retention(params, cfg), (x, y), cfg,
                                      rng_stream(0, "e"), lr=0.0)
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
        x, y = ds.arrays("train")
        err, _ = evaluate(res.final_params, res.final_pi, (x, y))
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
        assert res.stopped_early or len(res.reports) == 60
        dev_errs = [r.dev_err for r in res.reports]
        assert res.best_epoch == int(np.argmin(dev_errs))

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


class TestFrozenSweepSkip:
    """With every hidden unit frozen the retention sweep is skipped; the
    prune check after it still runs."""

    BASE = dict(
        regime="compaction", layer_dims=(64, 12, 10, 10), batch_size=64, lr=0.01,
        momentum=0.9, seed=14, dev_size=0, patience=50,
    )

    @staticmethod
    def _count_calls(monkeypatch):
        epoch, calls, pruned = [-1], {}, {}
        real_epoch, real_update, real_prune = (
            trainer.train_weights_epoch, trainer.retention_update, trainer.prune_units
        )

        def weights_epoch(*args, **kwargs):
            epoch[0] += 1
            return real_epoch(*args, **kwargs)

        def update(*args, **kwargs):
            calls[epoch[0]] = calls.get(epoch[0], 0) + 1
            return real_update(*args, **kwargs)

        def prune(*args, **kwargs):
            pruned[epoch[0]] = True
            return real_prune(*args, **kwargs)

        monkeypatch.setattr(trainer, "train_weights_epoch", weights_epoch)
        monkeypatch.setattr(trainer, "retention_update", update)
        monkeypatch.setattr(trainer, "prune_units", prune)
        return calls, pruned

    def test_all_frozen_epoch_prunes_without_sweep(self, small_teacher_ds, monkeypatch):
        calls, pruned = self._count_calls(monkeypatch)
        cfg = TrainConfig(epochs=2, **self.BASE)
        params = init_mlp(cfg.layer_dims, "relu", cfg.seed)
        pi = RetentionParams(
            [np.ones(64), np.array([0.0, 1.0] * 6), np.array([1.0] * 7 + [0.0] * 3)]
        )
        res = run_training(small_teacher_ds, cfg, init_params=params, init_pi=pi)
        assert calls == {}
        assert pruned == {0: True}
        assert res.final_params.layer_dims == (64, 6, 7, 10)
        assert res.retention_stats.examples == 0

    def test_sweeps_stop_once_frozen(self, small_teacher_ds, monkeypatch):
        calls, pruned = self._count_calls(monkeypatch)
        res = run_training(small_teacher_ds, TrainConfig(epochs=4, retention_lr=1e-4, **self.BASE))
        batches = -(-3000 // 64)
        assert len(res.reports) == 4 and calls == {0: batches}
        assert 0 in pruned
        assert res.retention_stats.examples == 3000
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
