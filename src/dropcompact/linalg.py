"""Dense numeric substrate: seeded RNG streams, Glorot init, Bernoulli
sampling and truncated SVD.

Matrices are plain float64 numpy arrays, row-major, weights shaped
(fan_out, fan_in). All randomness flows through ``rng_stream`` so that any
consumer can be replayed independently of evaluation order.
"""

from __future__ import annotations

import hashlib

import numpy as np

Rng = np.random.Generator


def _stream_key(part) -> int:
    """Stable 32-bit key for a stream-id component (int or str)."""
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFF
    digest = hashlib.sha256(str(part).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


def rng_stream(seed: int, *path) -> Rng:
    """Deterministic child generator for (seed, path).

    Same (seed, path) gives the same PCG64 stream on every platform;
    distinct paths give statistically independent streams.
    """
    keys = tuple(_stream_key(p) for p in path)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=keys)))


def glorot_uniform(fan_in: int, fan_out: int, rng: Rng) -> np.ndarray:
    """Uniform init on [-limit, limit], limit = sqrt(6 / (fan_in + fan_out)).

    Returns a (fan_out, fan_in) weight matrix.
    """
    if fan_in < 1 or fan_out < 1:
        raise ValueError(f"glorot_uniform needs positive fans, got ({fan_in}, {fan_out})")
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in))


def bernoulli_matrix(p: np.ndarray, n_rows: int, rng: Rng) -> np.ndarray:
    """n_rows independent Bernoulli draws of the probability vector p, as a
    float64 0/1 (n_rows, D) block."""
    p = np.asarray(p, dtype=np.float64)
    if p.size and (p.min() < 0.0 or p.max() > 1.0):
        raise ValueError("bernoulli probabilities must lie in [0, 1]")
    return (rng.random((n_rows, p.shape[0])) < p).astype(np.float64)


def truncated_svd(w: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best rank-k factorization of w.

    Returns (u, s, v) with u: (m, k), s: (k,) non-increasing and
    non-negative, v: (n, k); u @ diag(s) @ v.T is the rank-k Frobenius
    optimum. Columns of u and v are orthonormal.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError("truncated_svd expects a 2-D matrix")
    m, n = w.shape
    if not 1 <= k <= min(m, n):
        raise ValueError(f"rank k={k} out of range for {m}x{n} matrix")
    u, s, vt = np.linalg.svd(w, full_matrices=False)
    return u[:, :k].copy(), s[:k].copy(), vt[:k, :].T.copy()
