"""Elementwise kernels around the matrix products.

Matrix products go through BLAS (``np.dot``); the activation, gating,
derivative and mask-score loops around them are vectorized numpy. The
activation and derivative kernels work in place on the array they are
given and return it.
"""

from __future__ import annotations

import numpy as np

def gate_act(z, gate, act):
    """z = gate * act(z), in place over a (B, D) block, for act "relu",
    "sigmoid" or "linear"; returns z.

    gate may be None (no masking), a (D,) vector or a (B, D) matrix.
    """
    if act == "relu":
        np.maximum(z, 0.0, out=z)
    elif act == "sigmoid":
        np.negative(z, out=z)
        with np.errstate(over="ignore"):
            np.exp(z, out=z)
        z += 1.0
        np.divide(1.0, z, out=z)
    if gate is not None:
        z *= gate
    return z


def act_grad(e, h, gate, act):
    """e *= derivative of (gate * activation) w.r.t. the pre-activation, in
    place; returns e.

    Valid for binary gates only: ``h`` is the already-gated output, so
    relu and sigmoid derivatives can be recovered from it directly.
    """
    if act == "relu":
        e *= h > 0.0
    elif act == "sigmoid":
        e *= (1.0 - h) * h
    elif gate is not None:
        e *= gate
    return e


def mask_score_kernel(masks, p):
    """Bernoulli log-prob gradient m/p - (1-m)/(1-p), as a new array."""
    score = masks / p
    score -= (1.0 - masks) / (1.0 - p)
    return score


def backend_name() -> str:
    """Name of the numeric backend, recorded in manifests and bench output."""
    return "numpy"
