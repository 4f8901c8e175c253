"""Per-unit retention probabilities and their stochastic updates.

Each maskable layer carries a probability vector; masks are sampled from
it, and the probabilities themselves are optimized by a score-function
(likelihood-ratio) estimator weighted by how much a sampled mask changes
the predicted label probability, plus the gradient of a sparsity-inducing
powered-beta log-prior. A constant control variate is subtracted from the
payoff weight; it leaves the expected update unchanged and shrinks its
variance.

Units whose probability reaches the guard band around 0 or 1 are frozen
(the score is singular at the boundary). ``RetentionParams.active`` is
the one rule that says which units are; masks and values both read it.
The trainer calls ``sample_mask_block`` for the masks of both the weight
pass and the retention sweep; it snaps a frozen unit's probability to the
nearer of 0 and 1, so its mask is deterministic. A layer whose every
unit snaps to 1 draws no mask at all: its RNG stream is advanced past the
draws instead, so every later draw is the one it would have been.
``retention_update`` draws nothing and holds a frozen unit's value.

A ``RetentionParams`` is a value: it holds read-only copies of its
vectors, so the gates it derives from them are computed once. To change
retention, build a new one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import kernels
from .linalg import Rng, bernoulli_matrix
from .network import MlpParams, forward_batch, log_softmax_pick

if TYPE_CHECKING:  # trainer imports this module
    from .trainer import TrainConfig

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

    def validate(self, params: MlpParams) -> None:
        """Raise ValueError unless there is one non-empty vector per gated
        layer of ``params``, each as wide as its layer, with every entry in
        [0, 1]."""
        dims = params.layer_dims
        if len(self.layers) != params.n_layers:
            raise ValueError(f"need {params.n_layers} retention vectors, got {len(self.layers)}")
        for i, v in enumerate(self.layers):
            if v.ndim != 1 or v.size == 0:
                raise ValueError(f"retention vector {i} must be a non-empty 1-D array")
            if v.shape != (dims[i],):
                raise ValueError(f"retention vector {i} shape {v.shape} vs width {dims[i]}")
            if not ((v >= 0.0) & (v <= 1.0)).all():  # a NaN fails both
                raise ValueError(f"retention vector {i} leaves [0, 1]")

    def scaled_gates(self) -> list[np.ndarray | None]:
        """Gates of the expectation-scaled pass: each retention vector, or
        None where it is all ones, which gives the same bits. Computed on
        the first call; later calls return the same list."""
        if self._gates is None:
            self._gates = [None if _all_ones(v) else v for v in self.layers]
        return self._gates

    def active(self, layer: int) -> np.ndarray:
        """Units still inside the open interval (eps, 1-eps); the rest are frozen."""
        v = self.layers[layer]
        return (v > GUARD_EPS) & (v < 1.0 - GUARD_EPS)

    def any_active(self) -> bool:
        """Whether any hidden unit (layer 1 on) is still active."""
        return any(self.active(layer).any() for layer in range(1, len(self.layers)))

    @classmethod
    def constant(cls, params: MlpParams, hidden: float, input_value: float = 1.0):
        dims = params.layer_dims
        vecs = [np.full(dims[0], float(input_value))]
        vecs += [np.full(dims[i], float(hidden)) for i in range(1, params.n_layers)]
        return cls(vecs)


@dataclass
class RetentionStats:
    """Counters for the rare-event guards in the importance weight, which
    ``retention_update`` adds to in place."""

    clamped: int = 0
    floored: int = 0


def sample_mask_block(pi: RetentionParams, n_rows: int, rng: Rng) -> list[np.ndarray | None]:
    """n_rows independent mask sets as one (n_rows, D_l) block per layer,
    drawn by bernoulli_matrix with each frozen unit's probability snapped to
    the nearer of 0 and 1; None (an all-ones gate) for a layer whose every
    snapped probability is 1.

    For an all-ones layer the PCG64 stream is advanced by the n_rows * D
    doubles the draw would have used (one 64-bit output each), so it ends
    where the draw would have left it, buffered 32-bit half-word included.
    Every stream comes from ``rng_stream``; another bit generator is a
    ValueError.
    """
    bits = rng.bit_generator
    if not isinstance(bits, np.random.PCG64):
        raise ValueError(f"mask draws need a PCG64 stream, got {type(bits).__name__}")
    blocks = []
    for layer, v in enumerate(pi):
        p = np.where(pi.active(layer), v, v >= 0.5)
        if not _all_ones(p):
            blocks.append(bernoulli_matrix(p, n_rows, rng))
            continue
        before = bits.state
        bits.advance(n_rows * p.size)
        if before["has_uint32"] or before["uinteger"]:
            # advance() clears the buffered half-word; put it back
            after = bits.state
            after["has_uint32"], after["uinteger"] = before["has_uint32"], before["uinteger"]
            bits.state = after
        blocks.append(None)
    return blocks


def _label_probs(params, gates, x, ks) -> np.ndarray:
    """p(k) per row under the given gates: the exp(logits - row max) that
    log_softmax_pick leaves in the logits, over its row sum."""
    e = forward_batch(params, x, list(gates), trace=False).logits
    log_softmax_pick(e, ks)
    return e[np.arange(x.shape[0]), ks] / np.add.reduce(e, axis=-1)


def retention_update(
    pi: RetentionParams,
    params: MlpParams,
    batch: tuple[np.ndarray, np.ndarray],
    cfg: TrainConfig,
    prior_strength: float,
    masks: list[np.ndarray | None],
    stats: RetentionStats,
) -> RetentionParams:
    """One clipped stochastic update of the retention probabilities.

    The prior derivative seeds the update once; each batch example then
    adds (w - C) times the mask log-prob gradient under its own row of
    ``masks``, which the caller draws with ``sample_mask_block``, where w
    compares the masked forward pass against the expectation-scaled one.
    The result is clipped back into [0, 1]. Hidden layers 1..L-1 are
    updated; input retention and frozen units keep their values. The
    clamped and floored importance weights are added to ``stats``.

    The step size, control variate C, importance clamp and the prior's
    alpha and beta come from ``cfg``. ``prior_strength`` is the prior's
    gamma as the run resolved it from ``cfg.gamma`` and ``cfg.gamma_mode``.
    """
    x, ks = batch
    x = np.asarray(x, dtype=np.float64)
    ks = np.asarray(ks)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("retention_update needs a non-empty (B, D) batch")

    scaled_gates = pi.scaled_gates()

    if params.n_layers > 1 and masks[0] is None and scaled_gates[0] is None:
        # Both passes start from the same ungated input, so layer 0 runs
        # once, as the one-matrix head net; the tail nets then do the same
        # operations as full passes.
        head = MlpParams(params.weights[:1], params.biases[:1], ())
        z = forward_batch(head, x, [None], trace=False).logits
        h = kernels.gate_act(z, None, params.hidden_activations[0])
        tail = MlpParams(params.weights[1:], params.biases[1:], params.hidden_activations[1:])
        p_masked = _label_probs(tail, masks[1:], h, ks)
        p_scaled = _label_probs(tail, scaled_gates[1:], h, ks)
    else:
        p_masked = _label_probs(params, masks, x, ks)
        p_scaled = _label_probs(params, scaled_gates, x, ks)
    stats.floored += int((p_masked < PROB_FLOOR).sum() + (p_scaled < PROB_FLOOR).sum())
    w = np.maximum(p_masked, PROB_FLOOR) / np.maximum(p_scaled, PROB_FLOOR)
    stats.clamped += int((w > cfg.importance_clamp).sum())
    np.clip(w, 0.0, cfg.importance_clamp, out=w)

    payoff = w - cfg.control_variate
    new_layers = list(pi.layers)
    for layer in range(1, params.n_layers):
        p = pi[layer]
        act = pi.active(layer)
        if not act.any():
            continue  # a fully frozen layer keeps its vector
        p_safe = np.where(act, p, 0.5)  # frozen lanes' results are discarded below
        # d/dp of the log-prior, density proportional to
        # (p^(alpha-1) (1-p)^(beta-1))^gamma and never normalized
        delta = prior_strength * (
            (cfg.prior_alpha - 1.0) / p_safe - (cfg.prior_beta - 1.0) / (1.0 - p_safe)
        )
        delta = delta + payoff @ kernels.mask_score_kernel(masks[layer], p_safe)
        new_layers[layer] = np.where(act, np.clip(p + cfg.retention_lr * delta, 0.0, 1.0), p)
    return RetentionParams(new_layers)
