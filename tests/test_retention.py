import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FrozenUnitError,
    importance_weight,
    mask_block_oracle,
    mask_score,
    prior_score,
    retention_update_oracle,
    softmax,
)
from dropcompact import retention
from dropcompact.linalg import bernoulli_matrix, rng_stream
from dropcompact.network import forward_batch, init_mlp
from dropcompact.retention import (
    GUARD_EPS,
    PROB_FLOOR,
    RetentionParams,
    RetentionStats,
    retention_update,
    sample_mask_block,
)
from dropcompact.trainer import TrainConfig, evaluate


@pytest.fixture
def estimator_fixture():
    """2-3-3-2 sigmoid net: 6 maskable hidden units, input gates pinned to 1."""
    params = init_mlp((2, 3, 3, 2), "sigmoid", seed=11)
    pi = RetentionParams(
        [np.ones(2), np.array([0.6, 0.5, 0.7]), np.array([0.4, 0.55, 0.65])]
    )
    x = rng_stream(5, "x").normal(size=2)
    return params, pi, x, 1


def hidden_masks(pi):
    """Every (masks, probability) pair over the hidden units, with the
    input mask all ones."""
    hidden_sizes = [pi[layer].size for layer in range(1, len(pi))]
    for bits in itertools.product([0.0, 1.0], repeat=sum(hidden_sizes)):
        masks = [np.ones(pi[0].size)]
        at = 0
        prob = 1.0
        for layer in range(1, len(pi)):
            m = np.array(bits[at : at + pi[layer].size])
            at += pi[layer].size
            masks.append(m)
            prob *= float(np.prod(np.where(m == 1.0, pi[layer], 1.0 - pi[layer])))
        yield masks, prob


def enumerate_exact_delta(params, pi, x, k, control):
    """Exact expectation of the per-example data term over all hidden masks."""
    acc = [np.zeros(pi[layer].size) for layer in range(1, len(pi))]
    for masks, prob in hidden_masks(pi):
        w = importance_weight(params, pi, x, k, masks)
        scores = mask_score(masks, pi)
        for i, layer in enumerate(range(1, len(pi))):
            acc[i] += prob * (w - control) * scores[layer]
    return acc


class TestValueSemantics:
    """A RetentionParams owns read-only copies of its vectors, so the gates
    derived from them are computed once and can never go stale."""

    def test_write_raises(self):
        pi = RetentionParams([np.ones(2), np.full(3, 0.5)])
        with pytest.raises(ValueError, match="read-only"):
            pi[1][0] = 0.2
        with pytest.raises(ValueError, match="read-only"):
            pi.layers[0][:] = 0.0
        assert np.array_equal(pi[1], np.full(3, 0.5))

    def test_vector_count_mismatch_rejected(self):
        params = init_mlp((2, 3, 4), "relu", seed=1)
        with pytest.raises(ValueError, match="need 2 retention vectors, got 1"):
            RetentionParams([np.ones(2)]).validate(params)

    def test_caller_array_is_copied(self):
        v = np.full(3, 0.5)
        pi = RetentionParams([np.ones(2), v])
        assert v.flags.writeable
        v[0] = 0.9
        assert pi[1][0] == 0.5

    def test_scaled_gates_computed_once(self):
        pi = RetentionParams([np.ones(2), np.full(3, 0.5)])
        gates = pi.scaled_gates()
        assert gates[0] is None and gates[1] is pi[1]
        assert pi.scaled_gates() is gates

    def test_evaluate_scans_each_vector_once(self, monkeypatch):
        calls = []
        all_ones = retention._all_ones
        monkeypatch.setattr(retention, "_all_ones", lambda v: calls.append(1) or all_ones(v))
        params = init_mlp((6, 5, 4, 3), "relu", seed=36)
        pi = RetentionParams([np.ones(6), np.full(5, 0.5), np.ones(4)])
        rng = rng_stream(36, "requests")
        for _ in range(100):
            evaluate(params, pi, (rng.normal(size=(1, 6)), rng.integers(0, 3, 1)))
        assert len(calls) <= len(pi)


class TestSampling:
    def test_degenerate(self):
        pi = RetentionParams([np.ones(4), np.zeros(3)])
        masks = sample_mask_block(pi, 2, rng_stream(0, "s"))
        assert masks[0] is None  # all-ones gate
        assert np.array_equal(masks[1], np.zeros((2, 3)))

    def test_empirical_retention(self):
        pi = RetentionParams([np.full(6, 0.5)])
        block = sample_mask_block(pi, 100_000, rng_stream(1, "s"))[0]
        assert np.abs(block.mean(axis=0) - 0.5).max() < 0.01


class TestFrozenLayerDraws:
    """A frozen unit's mask is deterministic: 0 in the lower guard band, 1
    in the upper one. A layer whose every unit is frozen at 1 draws nothing
    and returns None, but leaves the generator exactly where drawing it
    would have."""

    PI = RetentionParams(
        [np.ones(5), np.array([0.3, 0.9, 0.5]), np.ones(4), np.array([0.2, 1.0, 0.0, 0.7])]
    )

    @pytest.mark.parametrize("prefix", ["fresh", "integers", "permutation"])
    def test_matches_drawing_every_layer(self, prefix):
        rng, ref = rng_stream(3, "mb"), rng_stream(3, "mb")
        for g in (rng, ref):
            if prefix == "integers":
                g.integers(0, 10)  # leaves a buffered 32-bit half-word
            elif prefix == "permutation":
                g.permutation(1001)
        got = sample_mask_block(self.PI, 7, rng)
        want = [bernoulli_matrix(v, 7, ref) for v in self.PI]
        assert got[0] is None and got[2] is None
        for layer in (1, 3):
            assert np.array_equal(got[layer], want[layer])
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.integers(0, 1 << 20) == ref.integers(0, 1 << 20)
        assert np.array_equal(rng.random(9), ref.random(9))

    def test_other_bit_generators_rejected(self):
        # only a PCG64 stream can be advanced past an all-ones layer's draws;
        # a layer that draws refuses one too, so the rule holds for any retention
        for pi in (self.PI, RetentionParams(self.PI.layers[1:2])):
            with pytest.raises(ValueError, match="PCG64"):
                sample_mask_block(pi, 6, np.random.Generator(np.random.MT19937(4)))

    def test_no_bernoulli_call_for_all_ones_layers(self, monkeypatch):
        calls = []

        def counting(p, n_rows, rng):
            calls.append(p.size)
            return bernoulli_matrix(p, n_rows, rng)

        monkeypatch.setattr(retention, "bernoulli_matrix", counting)
        sample_mask_block(self.PI, 5, rng_stream(0, "mb"))
        assert calls == [3, 4]

    def test_upper_guard_band_layer_draws_nothing(self):
        pi = RetentionParams([np.full(5, 1.0 - GUARD_EPS / 2), np.array([0.3, 0.9, 0.5])])
        rng, ref = rng_stream(3, "mb"), rng_stream(3, "mb")
        got = sample_mask_block(pi, 7, rng)
        want = [bernoulli_matrix(v, 7, ref) for v in pi]
        assert got[0] is None
        assert np.array_equal(got[1], want[1])
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_guard_band_units_snap(self):
        p = np.array([GUARD_EPS / 2, 0.5, 1.0 - GUARD_EPS / 2])
        # on this stream a draw from the unsnapped p puts a 1 in column 0 (row 308)
        assert bernoulli_matrix(p, 400, rng_stream(1745, "band"))[:, 0].any()
        rng, ref = rng_stream(1745, "band"), rng_stream(1745, "band")
        (got,) = sample_mask_block(RetentionParams([p]), 400, rng)
        want = bernoulli_matrix(p, 400, ref)
        assert not got[:, 0].any()
        assert got[:, 2].all()
        assert np.array_equal(got[:, 1], want[:, 1])
        assert rng.bit_generator.state == ref.bit_generator.state


class TestGuardBandBoundary:
    """RetentionParams.active is the one frozen-unit rule: each edge of the
    guard band is frozen, the next double inside it is active, and the mask
    draw and the update both follow it."""

    EDGES = np.array([
        0.0, GUARD_EPS, np.nextafter(GUARD_EPS, 1.0), 0.5,
        np.nextafter(1.0 - GUARD_EPS, 0.0), 1.0 - GUARD_EPS, 1.0,
    ])
    ACTIVE = [False, False, True, True, True, False, False]

    def test_active(self):
        pi = RetentionParams([np.ones(3), self.EDGES])
        assert pi.active(1).tolist() == self.ACTIVE
        assert pi.any_active()
        frozen = RetentionParams([np.ones(3), self.EDGES[~np.array(self.ACTIVE)]])
        assert not frozen.any_active()

    def test_frozen_columns_constant_and_oracle_equal(self):
        pi = RetentionParams([np.ones(3), self.EDGES])
        rng, ref_rng = rng_stream(41, "edge"), rng_stream(41, "edge")
        got, want = sample_mask_block(pi, 50, rng), mask_block_oracle(pi, 50, ref_rng)
        assert got[0] is None and np.array_equal(want[0], np.ones((50, 3)))
        assert np.array_equal(got[1], want[1])
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert not got[1][:, :2].any() and got[1][:, 5:].all()

    def test_update_holds_frozen_and_moves_active(self):
        params = init_mlp((3, 7, 2), "sigmoid", seed=42)
        pi = RetentionParams([np.ones(3), self.EDGES])
        data = rng_stream(43, "edge")
        x, ks = data.normal(size=(6, 3)), data.integers(0, 2, size=6)
        cfg = TrainConfig(retention_lr=0.01, control_variate=1.0)
        masks = sample_mask_block(pi, 6, rng_stream(44, "edge"))
        new = retention_update(pi, params, (x, ks), cfg, 2.0, masks, RetentionStats())
        active = np.array(self.ACTIVE)
        assert np.array_equal(new[1][~active], self.EDGES[~active])
        assert (new[1][active] != self.EDGES[active]).all()


class TestRetentionUpdateMatchesOracle:
    """sample_mask_block skips frozen layers' draws, and retention_update
    skips frozen layers' score kernel and, with input retention 1, the
    second layer-0 GEMM. Each must leave the masks, the update, the stats
    and the generator bit-identical."""

    HIDDEN = {
        "fractional": ([0.3, 0.6, 0.5, 0.8, 0.45], [0.5, 0.35, 0.7, 0.6]),
        "frozen_high": ([1.0, 0.6, 1.0, 1.0 - GUARD_EPS / 2, 0.45], [1.0, 0.35, 0.7, 1.0]),
        "frozen_low": ([0.0, 0.6, 0.5, GUARD_EPS / 2, 0.45], [0.5, 0.0, 0.7, 0.6]),
        "layer1_all_ones": ([1.0] * 5, [0.5, 0.35, 0.7, 0.6]),
        "layer2_zeros_ones": ([0.3, 0.6, 0.5, 0.8, 0.45], [1.0, 0.0, 1.0, 0.0]),
        "all_frozen": ([1.0, 0.0, 1.0, 1.0, 0.0], [1.0] * 4),
    }

    @pytest.mark.parametrize("activation", ["relu", "sigmoid"])
    @pytest.mark.parametrize("input_retention", [1.0, 0.8])
    @pytest.mark.parametrize("hidden", sorted(HIDDEN))
    def test_bit_equal(self, activation, input_retention, hidden):
        params = init_mlp((6, 5, 4, 3), activation, seed=31)
        for b in params.biases:
            b[:] = rng_stream(32, "bias", b.size).normal(size=b.shape)
        h1, h2 = self.HIDDEN[hidden]
        pi = RetentionParams([np.full(6, input_retention), np.array(h1), np.array(h2)])
        ref_pi = pi
        data = rng_stream(33, "data")
        cfg = TrainConfig(retention_lr=0.02, control_variate=1.0, importance_clamp=3.0)
        rng, ref_rng = rng_stream(34, "ru"), rng_stream(34, "ru")
        stats, ref_stats = RetentionStats(), RetentionStats()
        for _ in range(4):
            x = data.normal(size=(9, 6))
            ks = data.integers(0, 3, size=9)
            masks, ref_masks = sample_mask_block(pi, 9, rng), mask_block_oracle(ref_pi, 9, ref_rng)
            pi = retention_update(pi, params, (x, ks), cfg, 2.0, masks, stats)
            ref_pi = retention_update_oracle(
                ref_pi, params, (x, ks), cfg, 2.0, ref_masks, ref_stats
            )
            for got, want in zip(pi, ref_pi):
                assert np.array_equal(got, want)
        assert stats == ref_stats
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_no_hidden_layer(self):
        params = init_mlp((6, 3), "relu", seed=35)
        pi = RetentionParams([np.ones(6)])
        x, ks = rng_stream(36, "x").normal(size=(5, 6)), np.arange(5) % 3
        cfg = TrainConfig(retention_lr=0.1)
        masks = sample_mask_block(pi, 5, rng_stream(37, "ru"))
        ref_masks = mask_block_oracle(pi, 5, rng_stream(37, "ru"))
        got = retention_update(pi, params, (x, ks), cfg, 1.0, masks, RetentionStats())
        want = retention_update_oracle(pi, params, (x, ks), cfg, 1.0, ref_masks, RetentionStats())
        assert np.array_equal(got[0], want[0])

    def test_oracle_draws_the_package_masks(self):
        # the oracle's dense draw is sample_mask_block's, an all-ones block
        # for each None, and leaves its generator in the same state
        for input_retention in (1.0, 0.8):
            for h1, h2 in self.HIDDEN.values():
                pi = RetentionParams([np.full(6, input_retention), np.array(h1), np.array(h2)])
                rng, ref_rng = rng_stream(34, "ru"), rng_stream(34, "ru")
                got, want = sample_mask_block(pi, 9, rng), mask_block_oracle(pi, 9, ref_rng)
                for m, ref in zip(got, want):
                    assert np.array_equal(np.ones_like(ref) if m is None else m, ref)
                assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestMaskScore:
    def test_point_values(self):
        pi = RetentionParams([np.array([0.5, 0.5, 0.8])])
        scores = mask_score([np.array([1.0, 0.0, 0.0])], pi)[0]
        assert scores[0] == pytest.approx(2.0)
        assert scores[1] == pytest.approx(-2.0)
        assert scores[2] == pytest.approx(-5.0)

    def test_zero_mean_monte_carlo(self):
        rng = rng_stream(2, "ms")
        p = rng.uniform(0.1, 0.9, size=8)
        pi = RetentionParams([p])
        block = sample_mask_block(pi, 200_000, rng)[0]
        scores = mask_score([block], pi)[0]
        se = scores.std(axis=0) / np.sqrt(block.shape[0])
        assert np.all(np.abs(scores.mean(axis=0)) < 4 * se + 1e-12)

    def test_frozen_units_report_zero(self):
        pi = RetentionParams([np.array([0.0, 1.0, 0.5])])
        scores = mask_score([np.array([0.0, 1.0, 1.0])], pi)[0]
        assert scores[0] == 0.0 and scores[1] == 0.0
        assert scores[2] == pytest.approx(2.0)


class TestPriorScore:
    def test_symmetric_midpoint_zero(self):
        assert prior_score(0.5, 0.9, 0.9, 3.0) == 0.0

    def test_value_and_finite_difference(self):
        got = prior_score(0.25, 0.9, 0.9, 1.0)
        assert got == pytest.approx(-0.4 + 0.1 / 0.75, abs=1e-12)

        def log_density(p):
            return (0.9 - 1) * np.log(p) + (0.9 - 1) * np.log(1 - p)

        h = 1e-7
        fd = (log_density(0.25 + h) - log_density(0.25 - h)) / (2 * h)
        assert got == pytest.approx(fd, rel=1e-6)

    def test_linear_in_gamma(self):
        for p in (0.2, 0.5, 0.77):
            one = prior_score(p, 0.9, 0.9, 1.0)
            two = prior_score(p, 0.9, 0.9, 2.0)
            assert two == pytest.approx(2 * one, abs=1e-12)

    def test_sign_structure_bimodal(self):
        for p in (0.05, 0.2, 0.45):
            assert prior_score(p, 0.9, 0.9, 1.0) < 0
        for p in (0.55, 0.8, 0.95):
            assert prior_score(p, 0.9, 0.9, 1.0) > 0

    def test_guard_band_raises(self):
        with pytest.raises(FrozenUnitError):
            prior_score(0.0, 0.9, 0.9, 1.0)
        with pytest.raises(FrozenUnitError):
            prior_score(1.0 - GUARD_EPS / 2, 0.9, 0.9, 1.0)


class TestImportanceWeight:
    def test_identity_when_masks_match_pi(self, fixture_net_232):
        ones = [np.ones(2), np.ones(3)]
        pi = RetentionParams(ones)
        w = importance_weight(fixture_net_232, pi, np.array([0.3, -0.2]), 0, ones)
        assert w == 1.0

    def test_irrelevant_unit_gives_weight_one(self):
        params = init_mlp((2, 3, 2), "relu", seed=21)
        params.weights[1][:, 0] = 0.0  # unit 0 never reaches the logits
        pi = RetentionParams([np.ones(2), np.array([0.5, 1.0, 1.0])])
        x = np.array([0.7, -0.4])
        for bit in (0.0, 1.0):
            masks = [np.ones(2), np.array([bit, 1.0, 1.0])]
            w = importance_weight(params, pi, x, 1, masks)
            assert w == pytest.approx(1.0, abs=1e-12)

    def test_matches_scalar_oracle_ratio(self, fixture_net_232):
        from conftest import scalar_forward_oracle

        pi_vecs = [np.full(2, 0.8), np.full(3, 0.6)]
        pi = RetentionParams(pi_vecs)
        x = rng_stream(3, "iw").normal(size=2)
        masks = [np.ones(2), np.array([1.0, 0.0, 1.0])]
        k = 0
        _, _, probs_m = scalar_forward_oracle(fixture_net_232, x, masks)
        _, _, probs_e = scalar_forward_oracle(fixture_net_232, x, pi_vecs)
        want = probs_m[k] / probs_e[k]
        got = importance_weight(fixture_net_232, pi, x, k, masks)
        assert got == pytest.approx(want, abs=1e-12)

    def test_clamp(self, fixture_net_232):
        pi = RetentionParams([np.ones(2), np.full(3, 0.5)])
        x = np.array([50.0, -50.0])
        masks = [np.ones(2), np.ones(3)]
        w = importance_weight(fixture_net_232, pi, x, 0, masks, clamp=1.5)
        assert w <= 1.5


class TestRetentionUpdate:
    def test_no_signal_no_change(self):
        params = init_mlp((2, 4, 2), "relu", seed=23)
        params.weights[1][:] = 0.0  # logits ignore every maskable unit
        pi = RetentionParams([np.ones(2), np.full(4, 0.35)])
        cfg = TrainConfig(retention_lr=0.1, control_variate=1.0)
        x = rng_stream(4, "ru").normal(size=(8, 2))
        masks = sample_mask_block(pi, 8, rng_stream(5, "ru"))
        new = retention_update(
            pi, params, (x, np.zeros(8, dtype=int)), cfg, 0.0, masks, RetentionStats()
        )
        assert np.array_equal(new[1], pi[1])

    def test_prior_only_pushes_down_below_half(self):
        params = init_mlp((2, 4, 2), "relu", seed=25)
        params.weights[1][:] = 0.0  # kill the data term so only the prior acts
        pi = RetentionParams([np.ones(2), np.full(4, 0.25)])
        cfg = TrainConfig(retention_lr=1e-3)
        x = rng_stream(6, "ru").normal(size=(4, 2))
        masks = sample_mask_block(pi, 4, rng_stream(7, "ru"))
        new = retention_update(
            pi, params, (x, np.zeros(4, dtype=int)), cfg, 5.0, masks, RetentionStats()
        )
        assert np.all(new[1] < 0.25)
        # the payoff is exactly 0, so the step is the prior's derivative,
        # checked against the scalar oracle that TestPriorScore ties to
        # finite differences
        step = (new[1] - pi[1]) / cfg.retention_lr
        np.testing.assert_allclose(step, prior_score(0.25, 0.9, 0.9, 5.0), rtol=1e-9)

    def test_empty_batch_rejected(self, estimator_fixture):
        params, pi, x, k = estimator_fixture
        cfg = TrainConfig(retention_lr=1e-3)
        with pytest.raises(ValueError, match="non-empty"):
            retention_update(
                pi, params, (np.zeros((0, 2)), np.zeros(0, dtype=int)),
                cfg, 1.0, sample_mask_block(pi, 0, rng_stream(8, "ru")), RetentionStats(),
            )

    @pytest.mark.parametrize("control", [0.0, 1.0])
    def test_exact_expectation_matches_enumeration(self, estimator_fixture, control):
        # the update is a function of its masks, so the package's step under
        # each of the 64 hidden masks, weighted by that mask's probability,
        # sums to the estimator's exact expectation
        params, pi, x, k = estimator_fixture
        cfg = TrainConfig(retention_lr=1e-6, control_variate=control)
        exact = enumerate_exact_delta(params, pi, x, k, control)
        got = [np.zeros(pi[layer].size) for layer in (1, 2)]
        for masks, prob in hidden_masks(pi):
            row_masks = [None] + [m[None, :] for m in masks[1:]]  # pi[0] is all ones
            new = retention_update(
                pi, params, (x[None, :], np.array([k])), cfg, 0.0, row_masks, RetentionStats()
            )
            for i, layer in enumerate((1, 2)):
                got[i] += prob * (new[layer] - pi[layer]) / cfg.retention_lr
        for g, e in zip(got, exact):
            np.testing.assert_allclose(g, e, rtol=1e-7)

    def test_monte_carlo_matches_enumeration(self, estimator_fixture):
        params, pi, x, k = estimator_fixture
        exact = enumerate_exact_delta(params, pi, x, k, control=1.0)
        n = 30_000
        rng = rng_stream(9, "mc")
        xs = np.tile(x, (n, 1))
        ks = np.full(n, k)
        # one-draw-per-example estimate via block sampling, mirroring the update
        masks = sample_mask_block(pi, n, rng)
        p_m = softmax(forward_batch(params, xs, masks).logits)[np.arange(n), ks]
        p_e = softmax(forward_batch(params, xs, list(pi)).logits)[np.arange(n), ks]
        w = np.clip(p_m / p_e, 0.0, 100.0)
        for i, layer in enumerate((1, 2)):
            scores = mask_score([masks[layer]], RetentionParams([pi[layer]]))[0]
            terms = (w - 1.0)[:, None] * scores
            mean = terms.mean(axis=0)
            se = terms.std(axis=0, ddof=1) / np.sqrt(n)
            assert np.all(np.abs(mean - exact[i]) < 3.5 * se)

    def test_stats_add_clamped_and_floored_in_place(self):
        params = init_mlp((4, 6, 3), "relu", seed=12)
        params.weights[1] *= 1e3  # most labels get a probability below PROB_FLOOR
        pi = RetentionParams([np.ones(4), np.ones(6)])  # no draws, so every w is exactly 1
        cfg = TrainConfig(retention_lr=0.1, importance_clamp=0.5)
        stats, floored, data = RetentionStats(), 0, rng_stream(12, "x")
        for _ in range(2):
            x, ks = data.normal(size=(10, 4)), data.integers(0, 3, size=10)
            p = softmax(forward_batch(params, x, [None, None]).logits)[np.arange(10), ks]
            floored += 2 * int((p < PROB_FLOOR).sum())  # the masked and the scaled pass
            retention_update(pi, params, (x, ks), cfg, 1.0, [None, None], stats)
        assert 0 < floored < 40
        assert stats == RetentionStats(clamped=20, floored=floored)

    def test_weight_at_the_clamp_is_not_clamped(self):
        # with every retention exactly 1 both passes run the same gates, so
        # every w is exactly 1.0: at a clamp of 1.0 none counts as clamped
        params = init_mlp((4, 6, 5, 3), "relu", seed=45)
        pi = RetentionParams([np.ones(4), np.ones(6), np.ones(5)])
        cfg = TrainConfig(retention_lr=0.1, importance_clamp=1.0)
        x, ks = rng_stream(45, "x").normal(size=(8, 4)), np.arange(8) % 3
        masks = sample_mask_block(pi, 8, rng_stream(46, "ru"))
        assert masks == [None, None, None]
        stats = RetentionStats()
        new = retention_update(pi, params, (x, ks), cfg, 1.0, masks, stats)
        assert stats == RetentionStats(clamped=0, floored=0)
        assert all(np.array_equal(got, want) for got, want in zip(new, pi))

    def test_frozen_units_stay_frozen(self, estimator_fixture):
        params, pi, x, k = estimator_fixture
        frozen = RetentionParams([np.ones(2), np.array([0.0, 1.0, 0.5]), np.array([1.0, 1.0, 1.0])])
        cfg = TrainConfig(retention_lr=0.5)
        xs = np.tile(x, (8, 1))
        masks = sample_mask_block(frozen, 8, rng_stream(11, "ru"))
        new = retention_update(
            frozen, params, (xs, np.full(8, k)), cfg, 10.0, masks, RetentionStats()
        )
        assert new[1][0] == 0.0 and new[1][1] == 1.0
        assert np.array_equal(new[2], np.ones(3))

    @settings(max_examples=30, deadline=None)
    @given(lr=st.floats(1e-6, 1e3), seed=st.integers(0, 1000))
    def test_clip_keeps_unit_interval(self, lr, seed):
        params = init_mlp((2, 3, 3, 2), "sigmoid", seed=11)
        pi = RetentionParams(
            [np.ones(2), np.array([0.6, 0.5, 0.7]), np.array([0.4, 0.55, 0.65])]
        )
        x = rng_stream(5, "x").normal(size=2)
        cfg = TrainConfig(retention_lr=lr)
        xs = np.tile(x, (4, 1))
        masks = sample_mask_block(pi, 4, rng_stream(seed, "clip"))
        new = retention_update(pi, params, (xs, np.full(4, 1)), cfg, 100.0, masks, RetentionStats())
        for layer in range(len(new)):
            assert new[layer].min() >= 0.0 and new[layer].max() <= 1.0


class TestControlVariate:
    def test_expectation_independent_of_control(self, estimator_fixture):
        params, pi, x, k = estimator_fixture
        e0 = enumerate_exact_delta(params, pi, x, k, control=0.0)
        e1 = enumerate_exact_delta(params, pi, x, k, control=1.0)
        for a, b in zip(e0, e1):
            assert np.abs(a - b).max() < 1e-10

    def test_variance_reduction(self, estimator_fixture):
        params, pi, x, k = estimator_fixture
        n = 20_000
        rng = rng_stream(13, "var")
        xs = np.tile(x, (n, 1))
        ks = np.full(n, k)
        masks = sample_mask_block(pi, n, rng)
        p_m = softmax(forward_batch(params, xs, masks).logits)[np.arange(n), ks]
        p_e = softmax(forward_batch(params, xs, list(pi)).logits)[np.arange(n), ks]
        w = np.clip(p_m / p_e, 0.0, 100.0)
        scores = np.concatenate(
            [mask_score([masks[layer]], RetentionParams([pi[layer]]))[0] for layer in (1, 2)],
            axis=1,
        )
        var0 = ((w - 0.0)[:, None] * scores).var(axis=0, ddof=1).sum()
        var1 = ((w - 1.0)[:, None] * scores).var(axis=0, ddof=1).sum()
        assert var1 < var0
