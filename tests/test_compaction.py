import numpy as np
import pytest

from dropcompact.compaction import (
    EmptyLayerError,
    absorb_retention,
    count_weights,
    prune_units,
    svd_compact,
)
from dropcompact.linalg import rng_stream
from dropcompact.network import backward_batch, forward_batch, init_mlp
from dropcompact.retention import RetentionParams


def ones_pi(params):
    return RetentionParams([np.ones(d) for d in params.layer_dims[:-1]])


def batch_expected_logits(params, pi, xs):
    return forward_batch(params, xs, list(pi)).logits


class TestPrune:
    def test_index_bookkeeping(self):
        params = init_mlp((3, 4, 2), "relu", seed=1)
        pi = RetentionParams([np.ones(3), np.array([1.0, 0.0, 1.0, 0.0])])
        pruned, new_pi, report = prune_units(params, pi, 0.5)
        assert pruned.layer_dims == (3, 2, 2)
        assert np.array_equal(pruned.weights[0], params.weights[0][[0, 2]])
        assert np.array_equal(pruned.weights[1], params.weights[1][:, [0, 2]])
        assert np.array_equal(pruned.biases[0], params.biases[0][[0, 2]])
        assert np.array_equal(new_pi[1], np.ones(2))
        assert report.kept == [2]
        assert report.removed == [2]
        # old unit -> new unit (-1 for removed), derived from the kept indices
        unit_map = np.full(4, -1)
        unit_map[report.kept_indices[1]] = np.arange(report.kept_indices[1].size)
        assert np.array_equal(unit_map, [0, -1, 1, -1])

    def test_threshold_zero_noop(self):
        params = init_mlp((3, 5, 2), "relu", seed=2)
        pi = RetentionParams([np.ones(3), np.full(5, 0.3)])
        pruned, _, report = prune_units(params, pi, 0.0)
        assert pruned.layer_dims == params.layer_dims
        assert report.removed == [0]

    def test_pruning_tiny_pi_barely_moves_outputs(self):
        params = init_mlp((6, 8, 4), "relu", seed=3)
        pi_vec = np.ones(8)
        pi_vec[[2, 5]] = 1e-7
        pi = RetentionParams([np.ones(6), pi_vec])
        pruned, new_pi, _ = prune_units(params, pi, 1e-6)
        xs = rng_stream(4, "p").normal(size=(50, 6))
        before = batch_expected_logits(params, pi, xs)
        after = batch_expected_logits(pruned, new_pi, xs)
        assert np.abs(before - after).max() < 1e-6
        # guard-band prune may not cost more than 1e-6 evaluation loss
        from dropcompact.retention import RetentionParams as RP
        from dropcompact.trainer import evaluate
        ys = np.zeros(50, dtype=int)
        _, loss_before = evaluate(params, pi, (xs, ys))
        _, loss_after = evaluate(pruned, new_pi, (xs, ys))
        assert loss_after <= loss_before + 1e-6

    def test_empty_layer_aborts(self):
        params = init_mlp((3, 4, 2), "relu", seed=5)
        pi = RetentionParams([np.ones(3), np.zeros(4)])
        with pytest.raises(EmptyLayerError, match="layer 1"):
            prune_units(params, pi, 0.5)

    def test_bad_threshold(self):
        params = init_mlp((3, 4, 2), "relu", seed=6)
        with pytest.raises(ValueError):
            prune_units(params, ones_pi(params), 1.0)

    def test_weight_count_consistency(self):
        params = init_mlp((10, 8, 6, 4), "relu", seed=7)
        h1, h2 = np.ones(8), np.ones(6)
        h1[[1, 3, 4]] = 0.0
        h2[[0]] = 0.0
        pi = RetentionParams([np.ones(10), h1, h2])
        before = count_weights(params)
        pruned, _, report = prune_units(params, pi, 0.5)
        # interior layer: each removed unit drops (fan_in + fan_out) weights,
        # computed against the sizes that remain on its neighbor layers
        expect = before - 3 * (10 + 6) - 1 * (8 - 3 + 4)
        assert count_weights(pruned) == expect
        assert report.weights_after == expect


class TestAbsorb:
    def test_identity_when_ones(self):
        params = init_mlp((3, 5, 2), "relu", seed=8)
        absorbed = absorb_retention(params, ones_pi(params))
        for a, b in zip(absorbed.weights, params.weights):
            assert np.array_equal(a, b)

    def test_half_retention_halves_columns(self):
        params = init_mlp((3, 5, 2), "relu", seed=9)
        pi = RetentionParams([np.ones(3), np.full(5, 0.5)])
        absorbed = absorb_retention(params, pi)
        assert np.array_equal(absorbed.weights[1], params.weights[1] * 0.5)
        xs = rng_stream(10, "a").normal(size=(20, 3))
        want = batch_expected_logits(params, pi, xs)
        got = batch_expected_logits(absorbed, ones_pi(params), xs)
        assert np.abs(want - got).max() < 1e-12

    def test_input_scaling_folds_into_first_matrix(self):
        params = init_mlp((4, 3, 2), "sigmoid", seed=11)
        pi = RetentionParams([np.array([0.2, 0.4, 1.0, 0.8]), np.ones(3)])
        absorbed = absorb_retention(params, pi)
        xs = rng_stream(12, "a").normal(size=(20, 4))
        want = batch_expected_logits(params, pi, xs)
        got = batch_expected_logits(absorbed, ones_pi(params), xs)
        assert np.abs(want - got).max() < 1e-12

    def test_binary_pi_prune_then_absorb_matches(self):
        for seed in range(5):
            params = init_mlp((7, 9, 8, 5), "relu", seed=seed)
            rng = rng_stream(seed, "bin")
            pi = RetentionParams(
                [
                    np.ones(7),
                    (rng.random(9) < 0.6).astype(float),
                    (rng.random(8) < 0.6).astype(float),
                ]
            )
            if pi[1].sum() == 0 or pi[2].sum() == 0:
                continue
            pruned, kept_pi, _ = prune_units(params, pi, 0.5)
            plain = absorb_retention(pruned, kept_pi)
            xs = rng.normal(size=(1000, 7))
            want = batch_expected_logits(params, pi, xs)
            got = batch_expected_logits(plain, ones_pi(plain), xs)
            assert np.abs(want - got).max() < 1e-9


class TestSvdCompact:
    def test_full_rank_identical_outputs(self):
        params = init_mlp((6, 8, 8, 4), "relu", seed=13)
        compacted = svd_compact(params, 8)
        assert compacted.layer_dims == (6, 8, 8, 8, 4)
        assert compacted.hidden_activations == ("relu", "linear", "relu")
        xs = rng_stream(14, "s").normal(size=(50, 6))
        want = batch_expected_logits(params, ones_pi(params), xs)
        got = batch_expected_logits(compacted, ones_pi(compacted), xs)
        assert np.abs(want - got).max() < 1e-8

    def test_small_net_table_count(self):
        params = init_mlp((784, 50, 50, 10), "relu", seed=15)
        assert count_weights(params) == 42200
        compacted = svd_compact(params, 7)
        assert compacted.layer_dims == (784, 50, 7, 50, 10)
        assert count_weights(compacted) == 40400

    def test_h100_table_count(self):
        params = init_mlp((784, 100, 100, 10), "relu", seed=16)
        compacted = svd_compact(params, 13)
        assert count_weights(compacted) == 82000

    def test_large_net_table_count(self):
        params = init_mlp((784, 400, 400, 10), "relu", seed=17)
        assert count_weights(params) == 477600
        compacted = svd_compact(params, 50)
        assert count_weights(compacted) == 357600

    def test_decreasing_rank_monotone(self, small_teacher_ds):
        from dropcompact.trainer import TrainConfig, evaluate, run_training

        cfg = TrainConfig(
            regime="plain", layer_dims=(64, 16, 16, 10), epochs=8, batch_size=64,
            lr=0.02, momentum=0.9, seed=18, dev_size=0,
        )
        res = run_training(small_teacher_ds, cfg)
        ds = small_teacher_ds
        counts, losses = [], []
        for k in (16, 8, 4, 2):
            compacted = svd_compact(res.final_params, k)
            counts.append(count_weights(compacted))
            _, loss = evaluate(compacted, ones_pi(compacted), (ds.features, ds.labels),
                               rows=ds.splits["train"])
            losses.append(loss)
        assert all(a > b for a, b in zip(counts, counts[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_rank_out_of_range(self):
        params = init_mlp((6, 8, 8, 4), "relu", seed=19)
        with pytest.raises(ValueError):
            svd_compact(params, 9)
        with pytest.raises(ValueError):
            svd_compact(params, 0)

    def test_no_hidden_to_hidden_matrix(self):
        params = init_mlp((6, 8, 4), "relu", seed=20)
        with pytest.raises(ValueError, match="no hidden-to-hidden"):
            svd_compact(params, 2)

    def test_factorized_net_is_trainable(self):
        params = init_mlp((5, 6, 6, 3), "relu", seed=21)
        compacted = svd_compact(params, 3)
        x = rng_stream(22, "t").normal(size=5)
        masks = [np.ones(d) for d in compacted.layer_dims[:-1]]
        losses, grads = backward_batch(compacted, x[None], np.array([1]), masks)
        assert np.isfinite(losses[0])
        assert any(np.abs(g).max() > 0 for g in grads.weights)


class TestCountWeights:
    def test_cited_counts(self):
        assert count_weights(init_mlp((784, 50, 50, 10), "relu", seed=0)) == 42200
        assert count_weights(init_mlp((784, 400, 400, 10), "relu", seed=0)) == 477600
