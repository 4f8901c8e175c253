"""Multilayer perceptron with per-unit gating.

Two forward modes share one recursion: the stochastic pass multiplies each
layer's activation by a sampled binary mask, the deterministic pass by the
retention probabilities themselves (so prediction needs a single pass).
Backprop returns exact gradients of the softmax cross-entropy for a fixed
mask draw.

``forward_batch`` keeps every layer's gated activation in its trace by
default, since backprop reads them. With ``trace=False`` it holds one layer
at a time: each layer's activation is computed in place in its GEMM output,
which replaces the previous layer's, and only the logits are returned. The
logits and the bits are the same either way; evaluation uses this mode.

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


def _all_finite(a: np.ndarray) -> bool:
    """Whether no entry of a is NaN or infinite. min and max propagate NaN,
    so both are finite exactly when every entry is, and unlike
    ``np.isfinite(a).all()`` nothing the size of a is allocated."""
    return a.size == 0 or bool(np.isfinite(a.min()) and np.isfinite(a.max()))


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
            if not (_all_finite(w) and _all_finite(b)):
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
    """Per-row trace: gated activations per layer (empty when the pass kept
    no trace) and output logits, each with a leading batch axis."""

    activations: list[np.ndarray]
    logits: np.ndarray


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


def log_softmax_pick(logits: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """log p(k) per row via log-sum-exp, without forming probabilities.

    Overwrites ``logits`` with exp(logits - row max), so it allocates
    nothing logits-sized; read anything else from them first. Dividing
    what it leaves by its row sum gives the class probabilities, the one
    softmax of the package (``backward_batch``, the retention sweep)."""
    # the reductions .max and .sum dispatch to (so the same bits), called
    # without the Python wrappers they pass through on the way
    m = np.maximum.reduce(logits, axis=-1)
    picked = logits[np.arange(logits.shape[0]), ks]
    logits -= m[..., None]
    np.exp(logits, out=logits)
    lse = m + np.log(np.add.reduce(logits, axis=-1))
    return picked - lse


def _check_gates(params: MlpParams, gates, batch: int) -> None:
    if len(gates) != params.n_layers:
        raise ValueError(f"need {params.n_layers} gate vectors, got {len(gates)}")
    for layer, g in enumerate(gates):
        if g is None:
            continue
        width = params.weights[layer].shape[1]
        if g.shape not in ((width,), (batch, width)):
            raise ValueError(f"gate {layer} shape {g.shape} vs layer width {width}")


def forward_batch(params: MlpParams, x: np.ndarray, gates, trace: bool = True) -> BatchTrace:
    """Shared recursion over a (B, D0) block; gates[l] is None, (D_l,) or (B, D_l).

    With ``trace=False`` no activation outlives the layer that reads it, and
    the returned trace holds only the logits."""
    x = np.asarray(x, dtype=np.float64)
    weights, biases = params.weights, params.biases
    width = weights[0].shape[1]
    if x.ndim != 2 or x.shape[1] != width:
        raise ValueError(f"input shape {x.shape} vs input width {width}")
    _check_gates(params, gates, x.shape[0])

    h = x if gates[0] is None else x * gates[0]
    del x  # the pass reads only h from here on
    activations = [h] if trace else []
    for i, act in enumerate(params.hidden_activations):
        z = h @ weights[i].T
        z += biases[i]
        h = kernels.gate_act(z, gates[i + 1], act)
        if trace:
            activations.append(h)
    logits = h @ weights[-1].T
    logits += biases[-1]
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
    delta = trace.logits  # exp(logits - row max), made the probabilities in place
    delta /= np.add.reduce(delta, axis=-1)[:, None]

    # every entry is overwritten by np.dot(out=) or sum(out=) below
    grads = Gradients(
        [np.empty(w.shape) for w in params.weights], [np.empty(b.shape) for b in params.biases]
    )
    delta[np.arange(b), ks] -= 1.0
    n = params.n_layers
    for i in range(n - 1, -1, -1):
        np.dot(delta.T, trace.activations[i], out=grads.weights[i])
        delta.sum(axis=0, out=grads.biases[i])
        if i == 0:
            break
        act = params.hidden_activations[i - 1]
        delta = kernels.act_grad(delta @ params.weights[i], trace.activations[i], gates[i], act)
    return losses, grads
