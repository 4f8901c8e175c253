import numpy as np
import pytest

from conftest import traced_peak
from dropcompact.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from dropcompact.cli import main
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
from dropcompact.trainer import TrainConfig, run_training


def ones_pi(params):
    return RetentionParams([np.ones(d) for d in params.layer_dims[:-1]])


def batch_expected_logits(params, pi, xs):
    return forward_batch(params, xs, list(pi)).logits


def arrays(params):
    return [*params.weights, *params.biases]


def shares_any(a, params) -> bool:
    return any(np.shares_memory(a, b) for b in arrays(params))


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

    def test_shares_what_it_does_not_scale(self):
        params = init_mlp((3, 5, 4, 2), "relu", seed=9)
        pi = RetentionParams([np.ones(3), np.full(5, 0.5), np.ones(4)])
        absorbed = absorb_retention(params, pi)
        kept = [absorbed.weights[0], absorbed.weights[2], *absorbed.biases]
        for a, src in zip(kept, [params.weights[0], params.weights[2], *params.biases]):
            assert np.shares_memory(a, src) and not a.flags.writeable
        assert not shares_any(absorbed.weights[1], params)

    def test_write_into_shared_array_raises(self):
        params = init_mlp((3, 5, 2), "relu", seed=8)
        absorbed = absorb_retention(params, ones_pi(params))
        for a in arrays(absorbed):
            with pytest.raises(ValueError, match="read-only"):
                a += 1.0
        assert np.array_equal(absorbed.weights[0], params.weights[0])

    def test_training_an_absorbed_net_leaves_its_source(self, small_teacher_ds):
        cfg = TrainConfig(regime="plain", layer_dims=(64, 16, 10), epochs=1, batch_size=64,
                          lr=0.02, momentum=0.9, seed=24, dev_size=0)
        params = init_mlp(cfg.layer_dims, "relu", seed=24)
        before = [a.tobytes() for a in arrays(params)]
        absorbed = absorb_retention(params, ones_pi(params))
        assert all(np.shares_memory(a, b) for a, b in zip(arrays(absorbed), arrays(params)))
        res = run_training(small_teacher_ds, cfg, init_params=absorbed)
        assert not np.array_equal(res.params.weights[0], params.weights[0])
        assert [a.tobytes() for a in arrays(params)] == before

    def test_absorbing_a_pruned_binary_net_allocates_no_child(self):
        # a binary retention keeping every other hidden unit: after pruning every
        # retention entry is exactly 1, so the absorb step allocates views and
        # small checks, bounded at 1% of the child's bytes, not a second child
        parent = init_mlp((512, 1024, 1024, 100), "relu", seed=25)
        every_other = (np.arange(1024) % 2 == 0).astype(float)
        pi = RetentionParams([np.ones(512), every_other, every_other])
        pruned, kept_pi, _ = prune_units(parent, pi, 0.5)
        child_bytes = sum(a.nbytes for a in arrays(pruned))
        assert child_bytes > 4 << 20
        assert traced_peak(absorb_retention, pruned, kept_pi) < 0.01 * child_bytes

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
        compacted = svd_compact(params, ones_pi(params), [8] * (params.n_layers - 2))
        assert compacted.layer_dims == (6, 8, 8, 8, 4)
        assert compacted.hidden_activations == ("relu", "linear", "relu")
        xs = rng_stream(14, "s").normal(size=(50, 6))
        want = batch_expected_logits(params, ones_pi(params), xs)
        got = batch_expected_logits(compacted, ones_pi(compacted), xs)
        assert np.abs(want - got).max() < 1e-8

    def test_small_net_table_count(self):
        params = init_mlp((784, 50, 50, 10), "relu", seed=15)
        assert count_weights(params) == 42200
        compacted = svd_compact(params, ones_pi(params), [7] * (params.n_layers - 2))
        assert compacted.layer_dims == (784, 50, 7, 50, 10)
        assert count_weights(compacted) == 40400

    def test_h100_table_count(self):
        params = init_mlp((784, 100, 100, 10), "relu", seed=16)
        compacted = svd_compact(params, ones_pi(params), [13] * (params.n_layers - 2))
        assert count_weights(compacted) == 82000

    def test_large_net_table_count(self):
        params = init_mlp((784, 400, 400, 10), "relu", seed=17)
        assert count_weights(params) == 477600
        compacted = svd_compact(params, ones_pi(params), [50] * (params.n_layers - 2))
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
            compacted = svd_compact(res.params, res.pi, [k] * (res.params.n_layers - 2))
            counts.append(count_weights(compacted))
            _, loss = evaluate(compacted, ones_pi(compacted), (ds.features, ds.labels),
                               rows=ds.splits["train"])
            losses.append(loss)
        assert all(a > b for a, b in zip(counts, counts[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_rank_out_of_range(self):
        params = init_mlp((6, 8, 8, 4), "relu", seed=19)
        with pytest.raises(ValueError):
            svd_compact(params, ones_pi(params), [9] * (params.n_layers - 2))
        with pytest.raises(ValueError):
            svd_compact(params, ones_pi(params), [0] * (params.n_layers - 2))
        with pytest.raises(ValueError, match="need 1 ranks, got 2"):
            svd_compact(params, ones_pi(params), [2, 2])

    def test_frobenius_error_is_tail_energy(self):
        # the two factors of matrix 1 multiply to the rank-k truncation of
        # the absorbed matrix, so what they miss is its tail energy
        params = init_mlp((5, 12, 8, 3), "relu", seed=6)
        rng = rng_stream(6, "s")
        pi = RetentionParams([np.ones(5), rng.uniform(0.1, 1.0, 12), np.ones(8)])
        absorbed = params.weights[1] * pi[1][None, :]
        u, s, vt = np.linalg.svd(absorbed, full_matrices=False)
        for k in (1, 3, 6):
            compacted = svd_compact(params, pi, [k])
            product = compacted.weights[2] @ compacted.weights[1]
            assert np.abs(product - (u[:, :k] * s[:k]) @ vt[:k]).max() < 1e-10
            err = np.linalg.norm(absorbed - product)
            assert err == pytest.approx(np.sqrt((s[k:] ** 2).sum()), abs=1e-8)

    def test_no_hidden_to_hidden_matrix(self):
        params = init_mlp((6, 8, 4), "relu", seed=20)
        with pytest.raises(ValueError, match="no hidden-to-hidden"):
            svd_compact(params, ones_pi(params), [2] * (params.n_layers - 2))

    def test_shares_what_it_does_not_factorize(self):
        params = init_mlp((6, 8, 8, 8, 4), "relu", seed=26)
        compacted = svd_compact(params, ones_pi(params), [3, 8])
        # produced layers: W0, (factor, W1 with its bias), (factor, W2 with its bias), W3
        for i, src in ((0, 0), (5, 3)):
            w = compacted.weights[i]
            assert np.shares_memory(w, params.weights[src]) and not w.flags.writeable
        for i, src in ((0, 0), (2, 1), (4, 2), (5, 3)):
            b = compacted.biases[i]
            assert np.shares_memory(b, params.biases[src]) and not b.flags.writeable
        for i in (1, 2, 3, 4):
            w = compacted.weights[i]
            assert not shares_any(w, params) and w.flags.writeable and w.flags.c_contiguous

    def test_cli_peak_holds_one_scaled_matrix(self, tmp_path):
        # 32-512x4-40 keeping every other hidden unit, so every matrix that
        # reads a hidden layer is scaled. `compact --mode svd` may hold the
        # loaded parent, its result, one scaled 512x512 matrix and the u and
        # vt of its SVD, plus 1 MiB (headers, the digest's read chunk); with
        # every scaled copy alive at once it held about two matrices more
        width = 512
        parent = init_mlp((32, width, width, width, width, 40), "relu", seed=27)
        every_other = (np.arange(width) % 2 == 0).astype(float)
        pi = RetentionParams([np.ones(32)] + [every_other] * 4)
        path = str(tmp_path / "parent.dckp")
        save_checkpoint(path, Checkpoint(params=parent, pi=pi, config={}, seed=0, epoch=0))
        argv = ["compact", "--checkpoint", path, "--mode", "svd", "--rank", "32",
                "--out", str(tmp_path / "out")]
        assert main(argv) == 0  # one-time allocations (imports, caches) fall outside the trace
        child = load_checkpoint(str(tmp_path / "out" / "checkpoint_compacted.dckp")).params
        matrix = width * width * 8
        bound = sum(a.nbytes for a in arrays(parent) + arrays(child)) + 3 * matrix + (1 << 20)
        assert traced_peak(main, argv) < bound

    def test_factorized_net_is_trainable(self):
        params = init_mlp((5, 6, 6, 3), "relu", seed=21)
        compacted = svd_compact(params, ones_pi(params), [3] * (params.n_layers - 2))
        x = rng_stream(22, "t").normal(size=5)
        masks = [np.ones(d) for d in compacted.layer_dims[:-1]]
        losses, grads = backward_batch(compacted, x[None], np.array([1]), masks)
        assert np.isfinite(losses[0])
        assert any(np.abs(g).max() > 0 for g in grads.weights)


class TestCountWeights:
    def test_cited_counts(self):
        assert count_weights(init_mlp((784, 50, 50, 10), "relu", seed=0)) == 42200
        assert count_weights(init_mlp((784, 400, 400, 10), "relu", seed=0)) == 477600
