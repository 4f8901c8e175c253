import numpy as np
import pytest

from dropcompact.linalg import (
    bernoulli_matrix,
    glorot_uniform,
    rng_stream,
    truncated_svd,
)


class TestGlorot:
    def test_symmetric_fans_limit_one(self):
        w = glorot_uniform(3, 3, rng_stream(0, "g"))
        assert w.shape == (3, 3)
        assert np.abs(w).max() <= 1.0

    def test_limit_value(self):
        limit = np.sqrt(6.0 / (784 + 100))
        assert limit == pytest.approx(0.0823853, abs=1e-6)
        w = glorot_uniform(784, 100, rng_stream(1, "g"))
        assert w.shape == (100, 784)
        assert np.abs(w).max() <= limit

    def test_mean_within_three_sigma(self):
        w = glorot_uniform(1000, 1000, rng_stream(2, "g"))
        limit = np.sqrt(6.0 / 2000)
        sigma_mean = (limit / np.sqrt(3.0)) / 1000.0  # uniform std / sqrt(n)
        assert abs(w.mean()) < 3 * sigma_mean

    def test_zero_fan_rejected(self):
        with pytest.raises(ValueError):
            glorot_uniform(0, 3, rng_stream(0, "g"))


class TestTruncatedSvd:
    def test_discarded_singular_value(self):
        u, s, v = truncated_svd(np.diag([3.0, 2.0, 1.0]), 2)
        assert np.allclose(s, [3.0, 2.0])
        recon = u @ np.diag(s) @ v.T
        err = np.linalg.norm(np.diag([3.0, 2.0, 1.0]) - recon)
        assert err == pytest.approx(1.0, abs=1e-10)

    def test_rank_one_exact(self):
        rng = rng_stream(3, "s")
        w = np.outer(rng.normal(size=6), rng.normal(size=4))
        u, s, v = truncated_svd(w, 1)
        assert np.linalg.norm(w - u @ np.diag(s) @ v.T) < 1e-10

    def test_squared_values_match_eigensolver(self):
        rng = rng_stream(4, "s")
        w = rng.normal(size=(10, 10))
        _, s, _ = truncated_svd(w, 4)
        eig = np.sort(np.linalg.eigvalsh(w.T @ w))[::-1][:4]
        assert np.abs(s**2 - eig).max() < 1e-8

    def test_orthonormal_columns(self):
        rng = rng_stream(5, "s")
        w = rng.normal(size=(9, 6))
        u, s, v = truncated_svd(w, 4)
        assert np.abs(u.T @ u - np.eye(4)).max() < 1e-8
        assert np.abs(v.T @ v - np.eye(4)).max() < 1e-8
        assert np.all(np.diff(s) <= 1e-12) and s.min() >= 0

    def test_full_rank_reconstructs(self):
        for seed in range(4):
            rng = rng_stream(seed, "fr")
            m, n = rng.integers(2, 17, size=2)
            w = rng.normal(size=(m, n))
            k = min(m, n)
            u, s, v = truncated_svd(w, k)
            assert np.linalg.norm(w - u @ np.diag(s) @ v.T) < 1e-8

    def test_frobenius_error_is_tail_energy(self):
        rng = rng_stream(6, "s")
        w = rng.normal(size=(8, 12))
        full_s = np.linalg.svd(w, compute_uv=False)
        for k in (1, 3, 6):
            u, s, v = truncated_svd(w, k)
            err = np.linalg.norm(w - u @ np.diag(s) @ v.T)
            assert err == pytest.approx(np.sqrt((full_s[k:] ** 2).sum()), abs=1e-8)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            truncated_svd(np.eye(3), 4)
        with pytest.raises(ValueError):
            truncated_svd(np.eye(3), 0)


class TestBernoulli:
    def test_degenerate(self):
        rng = rng_stream(0, "b")
        assert np.array_equal(bernoulli_matrix(np.ones(3), 2, rng), np.ones((2, 3)))
        assert np.array_equal(bernoulli_matrix(np.zeros(2), 2, rng), np.zeros((2, 2)))

    def test_empirical_mean(self):
        rng = rng_stream(1, "b")
        draws = bernoulli_matrix(np.full(1000, 0.5), 1000, rng)
        assert abs(draws.mean() - 0.5) < 0.002

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_matrix(np.array([0.5, 1.2]), 1, rng_stream(0, "b"))
        with pytest.raises(ValueError):
            bernoulli_matrix(np.array([-0.1]), 1, rng_stream(0, "b"))


class TestRngStreams:
    def test_same_seed_same_stream(self):
        a = rng_stream(42, "x").random(10_000)
        b = rng_stream(42, "x").random(10_000)
        assert np.array_equal(a, b)

    def test_different_ids_differ(self):
        a = rng_stream(42, "x").random(100)
        b = rng_stream(42, "y").random(100)
        c = rng_stream(42, "x", 1).random(100)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_int_and_str_components(self):
        a = rng_stream(7, "epoch", 3).random(5)
        b = rng_stream(7, "epoch", 4).random(5)
        assert not np.array_equal(a, b)
