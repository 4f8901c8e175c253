"""Shared fixtures and independent oracles.

The oracles here are deliberately dumb: pure-python per-neuron loops and
finite differences. They never call into the package's fast paths, so
agreement is meaningful.
"""

import math

import numpy as np
import pytest

from dropcompact.data import Dataset, split_train_dev
from dropcompact.linalg import rng_stream
from dropcompact.network import MlpParams, forward_batch, init_mlp


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
# synthetic data with genuine structure (labels from a frozen teacher net)
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
