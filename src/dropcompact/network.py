"""Multilayer perceptron with per-unit gating.

Two forward modes share one recursion: the stochastic pass multiplies each
layer's activation by a sampled binary mask, the deterministic pass by the
retention probabilities themselves (so prediction needs a single pass).
Backprop returns exact gradients of the softmax cross-entropy for a fixed
mask draw.

Layer convention: dims = (D0, ..., DL); weights[i] has shape
(dims[i+1], dims[i]); gates apply to layers 0..L-1 (input through last
hidden), never to the logits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .linalg import glorot_uniform, rng_stream

HIDDEN_ACTIVATIONS = ("relu", "sigmoid", "linear")


@dataclass
class MlpParams:
    """weights[i]: (dims[i+1], dims[i]); hidden_activations[i] acts on layer i+1."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    hidden_activations: tuple[str, ...]

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return tuple([self.weights[0].shape[1]] + [w.shape[0] for w in self.weights])

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def num_classes(self) -> int:
        return self.weights[-1].shape[0]

    def validate(self) -> None:
        if not self.weights or len(self.weights) != len(self.biases):
            raise ValueError("weights/biases layer counts differ")
        if len(self.hidden_activations) != self.n_layers - 1:
            raise ValueError("need one activation per hidden layer")
        for act in self.hidden_activations:
            if act not in HIDDEN_ACTIVATIONS:
                raise ValueError(f"unknown activation {act!r}")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise ValueError(f"layer {i + 1}: bias shape {b.shape} vs weight {w.shape}")
            if i > 0 and w.shape[1] != self.weights[i - 1].shape[0]:
                raise ValueError(f"layer {i + 1}: fan-in does not match previous layer")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {i + 1}: non-finite parameter")

    def copy(self) -> "MlpParams":
        return MlpParams(
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            tuple(self.hidden_activations),
        )


@dataclass
class Gradients:
    """Per-layer weight/bias gradients; also reused as momentum state."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @classmethod
    def zeros_like(cls, params: MlpParams) -> "Gradients":
        # plain np.zeros: gradient buffers must be C-order for np.dot(out=)
        return cls(
            [np.zeros(w.shape) for w in params.weights],
            [np.zeros(b.shape) for b in params.biases],
        )

    def scale(self, c: float) -> "Gradients":
        for w in self.weights:
            w *= c
        for b in self.biases:
            b *= c
        return self


@dataclass
class BatchTrace:
    """Per-row trace: gated activations per layer and output logits, each
    with a leading batch axis."""

    activations: list[np.ndarray]
    logits: np.ndarray

    @property
    def probs(self) -> np.ndarray:
        """Class probabilities, computed afresh on each access."""
        return softmax(self.logits)


def init_mlp(layer_dims, hidden_activation: str, seed: int) -> MlpParams:
    """Glorot-uniform weights, zero biases; one RNG stream per layer."""
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError(f"bad layer dims {dims}")
    weights, biases = [], []
    for i in range(len(dims) - 1):
        rng = rng_stream(seed, "init", i)
        weights.append(glorot_uniform(dims[i], dims[i + 1], rng))
        biases.append(np.zeros(dims[i + 1]))
    params = MlpParams(weights, biases, (hidden_activation,) * (len(dims) - 2))
    params.validate()
    return params


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax_pick(logits: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """log p(k) per row via log-sum-exp, without forming probabilities."""
    m = logits.max(axis=-1)
    lse = m + np.log(np.exp(logits - m[..., None]).sum(axis=-1))
    picked = logits[np.arange(logits.shape[0]), ks]
    return picked - lse


def _check_gates(params: MlpParams, gates, batch: int) -> None:
    dims = params.layer_dims
    if len(gates) != params.n_layers:
        raise ValueError(f"need {params.n_layers} gate vectors, got {len(gates)}")
    for layer, g in enumerate(gates):
        if g is None:
            continue
        if g.shape not in ((dims[layer],), (batch, dims[layer])):
            raise ValueError(f"gate {layer} shape {g.shape} vs layer width {dims[layer]}")


def forward_batch(params: MlpParams, x: np.ndarray, gates) -> BatchTrace:
    """Shared recursion over a (B, D0) block; gates[l] is None, (D_l,) or (B, D_l)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.layer_dims[0]:
        raise ValueError(f"input shape {x.shape} vs input width {params.layer_dims[0]}")
    _check_gates(params, gates, x.shape[0])

    h = x if gates[0] is None else x * gates[0]
    activations = [h]
    n = params.n_layers
    for i in range(n - 1):
        z = h @ params.weights[i].T
        z += params.biases[i]
        h = np.empty_like(z)
        kernels.gate_act(z, gates[i + 1], params.hidden_activations[i], h)
        activations.append(h)
    logits = h @ params.weights[n - 1].T
    logits += params.biases[n - 1]
    return BatchTrace(activations, logits)


def backward_batch(params: MlpParams, x, ks, gates) -> tuple[np.ndarray, Gradients]:
    """Per-example losses and summed (not averaged) exact gradients.

    Gates must be binary masks: the activation derivative is reconstructed
    from the gated outputs, which is only valid for 0/1 gates.
    """
    trace = forward_batch(params, x, gates)
    b = trace.logits.shape[0]
    ks = np.asarray(ks)
    if ks.min() < 0 or ks.max() >= params.num_classes:
        raise ValueError("class index out of range")
    losses = -log_softmax_pick(trace.logits, ks)

    grads = Gradients.zeros_like(params)
    delta = trace.probs
    delta[np.arange(b), ks] -= 1.0
    n = params.n_layers
    for i in range(n - 1, -1, -1):
        np.dot(delta.T, trace.activations[i], out=grads.weights[i])
        delta.sum(axis=0, out=grads.biases[i])
        if i == 0:
            break
        e = delta @ params.weights[i]
        dfac = np.empty_like(e)
        kernels.act_grad(trace.activations[i], gates[i], params.hidden_activations[i - 1], dfac)
        delta = e * dfac
    return losses, grads
