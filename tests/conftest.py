"""Shared fixtures and independent oracles.

The oracles here are deliberately dumb: pure-python per-neuron loops and
finite differences. They never call into the package's fast paths, so
agreement is meaningful. The one exception is retention_update_oracle, a
frozen copy of an older, simpler retention update that the package's
version must match bit for bit.
"""

import math

import numpy as np
import pytest

from dropcompact import kernels
from dropcompact.data import Dataset, split_train_dev
from dropcompact.linalg import bernoulli_matrix, rng_stream
from dropcompact.network import MlpParams, forward_batch, init_mlp
from dropcompact.retention import (
    GUARD_EPS,
    PROB_FLOOR,
    RetentionParams,
    RetentionStats,
    prior_score_vector,
)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def _act_scalar(name, z):
    if name == "relu":
        return z if z > 0.0 else 0.0
    if name == "sigmoid":
        return 1.0 / (1.0 + math.exp(-z))
    return z


def scalar_forward_oracle(params: MlpParams, x, gates):
    """Per-neuron forward pass; returns (activations, logits, probs)."""
    dims = params.layer_dims
    h = [gates[0][j] * x[j] for j in range(dims[0])]
    hs = [list(h)]
    for layer in range(params.n_layers - 1):
        w, b = params.weights[layer], params.biases[layer]
        nxt = []
        for u in range(dims[layer + 1]):
            z = b[u]
            for j in range(dims[layer]):
                z += w[u, j] * h[j]
            nxt.append(gates[layer + 1][u] * _act_scalar(params.hidden_activations[layer], z))
        h = nxt
        hs.append(list(h))
    w, b = params.weights[-1], params.biases[-1]
    logits = []
    for u in range(dims[-1]):
        z = b[u]
        for j in range(dims[-2]):
            z += w[u, j] * h[j]
        logits.append(z)
    mx = max(logits)
    exps = [math.exp(v - mx) for v in logits]
    s = sum(exps)
    return hs, logits, [e / s for e in exps]


def finite_diff_grads(loss_fn, params: MlpParams, h=1e-6):
    """Central finite differences of loss_fn() w.r.t. every weight and bias."""
    grads_w, grads_b = [], []
    for w in params.weights:
        g = np.zeros_like(w)
        flat = w.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            lp = loss_fn()
            flat[idx] = orig - h
            lm = loss_fn()
            flat[idx] = orig
            g.ravel()[idx] = (lp - lm) / (2 * h)
        grads_w.append(g)
    for b in params.biases:
        g = np.zeros_like(b)
        for idx in range(b.size):
            orig = b[idx]
            b[idx] = orig + h
            lp = loss_fn()
            b[idx] = orig - h
            lm = loss_fn()
            b[idx] = orig
            g[idx] = (lp - lm) / (2 * h)
        grads_b.append(g)
    return grads_w, grads_b


def grad_close(analytic, numeric, rel=1e-4, abs_tol=1e-7):
    """Relative agreement with an absolute floor near zero."""
    denom = np.maximum(np.abs(numeric), np.abs(analytic))
    gap = np.abs(analytic - numeric)
    return bool(np.all((gap <= abs_tol) | (gap <= rel * denom)))


# ---------------------------------------------------------------------------
# retention estimator oracles: scalar and list forms of the quantities the
# package computes batched, and the update as it was before frozen layers
# stopped drawing masks
# ---------------------------------------------------------------------------

class FrozenUnitError(ValueError):
    """Raised when a scalar score is requested inside the guard band."""


def mask_score(masks, pi: RetentionParams) -> list[np.ndarray]:
    """Gradient of the mask log-probability w.r.t. each retention entry:
    m/p - (1-m)/(1-p), per layer, for (D,) or (B, D) masks. Frozen units
    report 0."""
    out = []
    for layer, m in enumerate(masks):
        m = np.asarray(m, dtype=np.float64)
        active = pi.active(layer).astype(np.float64)
        p_safe = np.clip(pi[layer], GUARD_EPS, 1.0 - GUARD_EPS)
        out.append((m / p_safe - (1.0 - m) / (1.0 - p_safe)) * active)
    return out


def prior_score(pi_value: float, hyper) -> float:
    """Derivative of the unnormalized log-prior at one probability value."""
    if not GUARD_EPS < pi_value < 1.0 - GUARD_EPS:
        raise FrozenUnitError(f"retention value {pi_value} is inside the guard band")
    return hyper.gamma * (
        (hyper.alpha - 1.0) / pi_value - (hyper.beta - 1.0) / (1.0 - pi_value)
    )


def _label_prob(params, gates, x, k) -> float:
    return float(forward_batch(params, x[None, :], list(gates)).probs[0, k])


def importance_weight(params, pi, x, k, masks, clamp=100.0) -> float:
    """Ratio of the masked to the expectation-scaled label probability,
    both floored before dividing, clamped to [0, clamp]."""
    x = np.asarray(x, dtype=np.float64)
    num = max(_label_prob(params, masks, x, k), PROB_FLOOR)
    den = max(_label_prob(params, pi, x, k), PROB_FLOOR)
    return float(min(num / den, clamp))


def retention_update_oracle(pi, params, batch, hyper, cfg, rng, stats=None):
    """retention_update with a Bernoulli draw for every layer and two full
    forward passes; the package's version must match it bit for bit."""
    x, ks = batch
    x = np.asarray(x, dtype=np.float64)
    ks = np.asarray(ks)
    rows = np.arange(x.shape[0])
    mask_blocks = []
    for p in pi:
        p_eff = np.where(p <= GUARD_EPS, 0.0, np.where(p >= 1.0 - GUARD_EPS, 1.0, p))
        mask_blocks.append(bernoulli_matrix(p_eff, x.shape[0], rng))
    p_masked = forward_batch(params, x, mask_blocks).probs[rows, ks]
    p_scaled = forward_batch(params, x, list(pi)).probs[rows, ks]
    floored = int((p_masked < PROB_FLOOR).sum() + (p_scaled < PROB_FLOOR).sum())
    w = np.maximum(p_masked, PROB_FLOOR) / np.maximum(p_scaled, PROB_FLOOR)
    clamped = int((w > cfg.importance_clamp).sum())
    np.clip(w, 0.0, cfg.importance_clamp, out=w)
    if stats is not None:
        stats.merge(RetentionStats(examples=x.shape[0], clamped=clamped, floored=floored))
    payoff = w - cfg.control_variate
    new_layers = [v.copy() for v in pi.layers]
    for layer in range(1, params.n_layers):
        p = pi[layer]
        act = pi.active(layer)
        delta = prior_score_vector(p, hyper, act)
        p_safe = np.clip(p, GUARD_EPS, 1.0 - GUARD_EPS)
        score = np.empty_like(mask_blocks[layer])
        kernels.mask_score_kernel(mask_blocks[layer], p_safe, act.astype(np.float64), score)
        delta = delta + payoff @ score
        new_layers[layer] = np.clip(p + cfg.learning_rate * delta, 0.0, 1.0)
    return RetentionParams(new_layers)


# ---------------------------------------------------------------------------
# synthetic data: inputs labelled by a frozen teacher net, and Gaussian blobs
# ---------------------------------------------------------------------------

def make_teacher_dataset(n, dim=784, classes=10, seed=0, quantize=True):
    rng = rng_stream(seed, "teacher-x")
    basis = rng.normal(size=(40, dim))
    coef = rng.normal(size=(n, 40)) / 6.0
    x = coef @ basis + 0.5 + 0.05 * rng.normal(size=(n, dim))
    np.clip(x, 0.0, 1.0, out=x)
    if quantize:
        x = np.rint(x * 255.0) / 255.0
    teacher = init_mlp((dim, 100, 100, classes), "relu", seed=777)
    logits = forward_batch(teacher, x, [None] * 3).logits
    z = (logits - logits.mean(axis=0)) / logits.std(axis=0)
    return Dataset(x, z.argmax(axis=1).astype(np.int64), classes)


def synth_blobs(n_per_class, classes, dim, separation, seed) -> Dataset:
    """Gaussian clusters (unit variance) at random direction centers scaled
    to the given separation; labels are the cluster ids."""
    if classes < 2:
        raise ValueError("need at least two classes")
    rng = rng_stream(seed, "blobs")
    centers = rng.normal(size=(classes, dim))
    norms = np.linalg.norm(centers, axis=1, keepdims=True)
    centers = np.where(norms > 0, centers / norms, centers) * separation
    inputs = np.empty((classes * n_per_class, dim))
    labels = np.empty(classes * n_per_class, dtype=np.int64)
    for c in range(classes):
        block = slice(c * n_per_class, (c + 1) * n_per_class)
        inputs[block] = centers[c] + rng.normal(size=(n_per_class, dim))
        labels[block] = c
    order = rng.permutation(inputs.shape[0])
    return Dataset(inputs[order], labels[order], classes)


@pytest.fixture(scope="session")
def small_teacher_ds():
    """Fast structured dataset: 3000 train / 600 dev / 600 test, 64-dim."""
    ds = make_teacher_dataset(4200, dim=64, classes=10, seed=3)
    ds = split_train_dev(ds, 600, seed=3)
    idx = ds.splits["train"]
    ds.splits["test"] = idx[3000:]
    ds.splits["train"] = idx[:3000]
    return ds


@pytest.fixture
def fixture_net_232():
    """Deterministic 2-3-2 relu net used by several oracle tests."""
    return init_mlp((2, 3, 2), "relu", seed=11)
