"""Elementwise kernels around the matrix products.

Matrix products go through BLAS (``np.dot``); the activation, gating,
derivative and mask-score loops around them are vectorized numpy writing
into caller-provided output buffers.
"""

from __future__ import annotations

import numpy as np

def gate_act(z, gate, act, out):
    """out = gate * act(z), elementwise over a (B, D) block, for act
    "relu", "sigmoid" or "linear".

    gate may be None (no masking), a (D,) vector or a (B, D) matrix.
    """
    if act == "relu":
        np.maximum(z, 0.0, out=out)
    elif act == "sigmoid":
        np.negative(z, out=out)
        with np.errstate(over="ignore"):
            np.exp(out, out=out)
        out += 1.0
        np.divide(1.0, out, out=out)
    else:
        if out is not z:
            out[...] = z
    if gate is not None:
        out *= gate
    return out


def act_grad(h, gate, act, out):
    """Derivative of (gate * activation) w.r.t. the pre-activation.

    Valid for binary gates only: ``h`` is the already-gated output, so
    relu and sigmoid derivatives can be recovered from it directly.
    """
    if act == "relu":
        out[...] = h > 0.0
    elif act == "sigmoid":
        np.subtract(1.0, h, out=out)
        out *= h
    else:
        if gate is None:
            out[...] = 1.0
        else:
            out[...] = gate
    return out


def mask_score_kernel(masks, pi, active, out):
    """Bernoulli log-prob gradient m/p - (1-m)/(1-p); 0 on inactive units."""
    np.divide(masks, pi, out=out)
    tmp = (1.0 - masks) / (1.0 - pi)
    out -= tmp
    out *= active
    return out


def backend_name() -> str:
    """Name of the numeric backend, recorded in manifests and bench output."""
    return "numpy"
