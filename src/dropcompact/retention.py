"""Per-unit retention probabilities and their stochastic updates.

Each maskable layer carries a probability vector; masks are sampled from
it, and the probabilities themselves are optimized by a score-function
(likelihood-ratio) estimator weighted by how much a sampled mask changes
the predicted label probability, plus the gradient of a sparsity-inducing
powered-beta log-prior. A constant control variate is subtracted from the
payoff weight; it leaves the expected update unchanged and shrinks its
variance.

Units whose probability reaches the guard band around 0 or 1 are frozen:
their mask is deterministic and they take no further updates (the score is
singular at the boundary). A layer whose retention is exactly 1 draws no
mask at all: its RNG stream is advanced past the draws instead, so every
later draw is the one it would have been.

A ``RetentionParams`` is a value: it holds read-only copies of its
vectors, so the gates it derives from them are computed once. To change
retention, build a new one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .linalg import Rng, bernoulli_matrix
from .network import MlpParams, forward_batch

GUARD_EPS = 1e-6
PROB_FLOOR = 1e-30


def _all_ones(v: np.ndarray) -> bool:
    """Whether every entry is exactly 1: such a layer draws no mask and its
    gate needs no multiply (x * 1.0 == x)."""
    return np.count_nonzero(v != 1.0) == 0


@dataclass
class RetentionParams:
    """One probability vector per gated layer (input through last hidden),
    each a read-only float64 copy of the vector it was built from."""

    layers: list[np.ndarray]

    def __post_init__(self):
        # a copy, not a read-only view: the caller's array could still change
        self.layers = [np.array(v, dtype=np.float64) for v in self.layers]
        for v in self.layers:
            v.flags.writeable = False
        self._gates = None

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self):
        return iter(self.layers)

    def __getitem__(self, i):
        return self.layers[i]

    def validate(self, params: MlpParams | None = None) -> None:
        for i, v in enumerate(self.layers):
            if v.ndim != 1 or v.size == 0:
                raise ValueError(f"retention vector {i} must be a non-empty 1-D array")
            if not ((v >= 0.0) & (v <= 1.0)).all():  # a NaN fails both
                raise ValueError(f"retention vector {i} leaves [0, 1]")
        if params is not None:
            dims = params.layer_dims
            if len(self.layers) != params.n_layers:
                raise ValueError(
                    f"need {params.n_layers} retention vectors, got {len(self.layers)}"
                )
            for i, v in enumerate(self.layers):
                if v.shape != (dims[i],):
                    raise ValueError(f"retention vector {i} shape {v.shape} vs width {dims[i]}")

    def scaled_gates(self) -> list[np.ndarray | None]:
        """Gates of the expectation-scaled pass: each retention vector, or
        None where it is all ones, which gives the same bits. Computed on
        the first call; later calls return the same list."""
        if self._gates is None:
            self._gates = [None if _all_ones(v) else v for v in self.layers]
        return self._gates

    def active(self, layer: int) -> np.ndarray:
        """Units still inside the open interval (eps, 1-eps)."""
        v = self.layers[layer]
        return (v > GUARD_EPS) & (v < 1.0 - GUARD_EPS)

    @classmethod
    def constant(cls, params: MlpParams, hidden: float, input_value: float = 1.0):
        dims = params.layer_dims
        vecs = [np.full(dims[0], float(input_value))]
        vecs += [np.full(dims[i], float(hidden)) for i in range(1, params.n_layers)]
        return cls(vecs)


@dataclass
class PriorHyper:
    """Powered-beta hyperparameters: density proportional to
    (p^(alpha-1) (1-p)^(beta-1))^gamma, never normalized."""

    alpha: float
    beta: float
    gamma: float

    def validate(self) -> None:
        if not (0.0 < self.alpha <= 1.0 and 0.0 < self.beta <= 1.0):
            raise ValueError("alpha and beta must lie in (0, 1] for the bimodal regime")
        if self.gamma < 0.0:
            raise ValueError("gamma must be non-negative")


@dataclass
class RetentionUpdateConfig:
    learning_rate: float
    control_variate: float = 1.0
    importance_clamp: float = 100.0

    def validate(self) -> None:
        if self.learning_rate < 0.0:
            raise ValueError("retention learning rate must be non-negative")
        if self.importance_clamp <= 0.0:
            raise ValueError("importance clamp must be positive")


@dataclass
class RetentionStats:
    """Counters for the rare-event guards in the importance weight."""

    examples: int = 0
    clamped: int = 0
    floored: int = 0

    def merge(self, other: "RetentionStats") -> None:
        self.examples += other.examples
        self.clamped += other.clamped
        self.floored += other.floored


def _mask_block(p: np.ndarray, n_rows: int, rng: Rng) -> np.ndarray | None:
    """bernoulli_matrix(p, n_rows, rng), or None (an all-ones gate) when every
    probability is exactly 1.

    For an all-ones layer a PCG64 stream is advanced by the n_rows * D
    doubles the draw would have used (one 64-bit output each), so it ends
    where the draw would have left it, buffered 32-bit half-word included.
    """
    if not _all_ones(p):
        return bernoulli_matrix(p, n_rows, rng)
    bits = rng.bit_generator
    if not isinstance(bits, np.random.PCG64):
        rng.random((n_rows, p.size))
        return None
    before = bits.state
    bits.advance(n_rows * p.size)
    if before["has_uint32"] or before["uinteger"]:
        # advance() clears the buffered half-word; put it back
        after = bits.state
        after["has_uint32"], after["uinteger"] = before["has_uint32"], before["uinteger"]
        bits.state = after
    return None


def sample_mask_block(pi: RetentionParams, n_rows: int, rng: Rng) -> list[np.ndarray | None]:
    """n_rows independent mask sets as one (n_rows, D_l) block per layer;
    None for a layer whose retention is exactly 1."""
    return [_mask_block(v, n_rows, rng) for v in pi]


def prior_score_vector(p: np.ndarray, hyper: PriorHyper, active: np.ndarray) -> np.ndarray:
    """Vectorized prior derivative with frozen entries zeroed."""
    p_safe = np.clip(p, GUARD_EPS, 1.0 - GUARD_EPS)
    score = hyper.gamma * (
        (hyper.alpha - 1.0) / p_safe - (hyper.beta - 1.0) / (1.0 - p_safe)
    )
    return np.where(active, score, 0.0)


def _label_probs(params, gates, x, ks) -> np.ndarray:
    trace = forward_batch(params, x, list(gates), trace=False)
    return trace.probs[np.arange(x.shape[0]), ks]


def retention_update(
    pi: RetentionParams,
    params: MlpParams,
    batch: tuple[np.ndarray, np.ndarray],
    hyper: PriorHyper,
    cfg: RetentionUpdateConfig,
    rng: Rng,
    stats: RetentionStats | None = None,
) -> RetentionParams:
    """One clipped stochastic update of the retention probabilities.

    The prior derivative seeds the update once; each batch example then
    adds (w - C) times the mask log-prob gradient under its own sampled
    mask, where w compares the masked forward pass against the
    expectation-scaled one. The result is clipped back into [0, 1].
    Hidden layers 1..L-1 are updated; input retention stays fixed.
    """
    x, ks = batch
    x = np.asarray(x, dtype=np.float64)
    ks = np.asarray(ks)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("retention_update needs a non-empty (B, D) batch")
    cfg.validate()
    hyper.validate()

    n_layers = params.n_layers
    update_layers = range(1, n_layers)
    active = {layer: pi.active(layer) for layer in update_layers}

    # masks for every gated layer; frozen units draw deterministically
    mask_blocks = []
    for p in pi:
        p_eff = np.where(p <= GUARD_EPS, 0.0, np.where(p >= 1.0 - GUARD_EPS, 1.0, p))
        mask_blocks.append(_mask_block(p_eff, x.shape[0], rng))
    scaled_gates = pi.scaled_gates()

    if n_layers > 1 and mask_blocks[0] is None and scaled_gates[0] is None:
        # Both passes start from the same ungated input, so layer 0 runs
        # once; the tail nets then do the same operations as full passes.
        z = x @ params.weights[0].T
        z += params.biases[0]
        h = kernels.gate_act(z, None, params.hidden_activations[0], z)
        tail = MlpParams(params.weights[1:], params.biases[1:], params.hidden_activations[1:])
        p_masked = _label_probs(tail, mask_blocks[1:], h, ks)
        p_scaled = _label_probs(tail, scaled_gates[1:], h, ks)
    else:
        p_masked = _label_probs(params, mask_blocks, x, ks)
        p_scaled = _label_probs(params, scaled_gates, x, ks)
    floored = int((p_masked < PROB_FLOOR).sum() + (p_scaled < PROB_FLOOR).sum())
    w = np.maximum(p_masked, PROB_FLOOR) / np.maximum(p_scaled, PROB_FLOOR)
    clamped = int((w > cfg.importance_clamp).sum())
    np.clip(w, 0.0, cfg.importance_clamp, out=w)
    if stats is not None:
        stats.merge(RetentionStats(examples=x.shape[0], clamped=clamped, floored=floored))

    payoff = w - cfg.control_variate
    new_layers = list(pi.layers)
    for layer in update_layers:
        p = pi[layer]
        act = active[layer]
        if not act.any():
            continue  # every term is 0: p + lr * 0 == p
        delta = prior_score_vector(p, hyper, act)
        p_safe = np.clip(p, GUARD_EPS, 1.0 - GUARD_EPS)
        score = np.empty_like(mask_blocks[layer])
        kernels.mask_score_kernel(
            mask_blocks[layer], p_safe, act.astype(np.float64), score
        )
        delta = delta + payoff @ score
        new_layers[layer] = np.clip(p + cfg.learning_rate * delta, 0.0, 1.0)
    return RetentionParams(new_layers)
