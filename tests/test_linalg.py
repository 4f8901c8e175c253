import numpy as np
import pytest

from dropcompact.linalg import (
    bernoulli_matrix,
    glorot_uniform,
    rng_stream,
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
