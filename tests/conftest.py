"""Shared fixtures and independent oracles.

The oracles here are deliberately dumb: pure-python per-neuron loops and
finite differences. They never call into the package's fast paths, so
agreement is meaningful. The exceptions are retention_update_oracle and
evaluate_oracle, frozen copies of an older, simpler retention update and
evaluation that the package's versions must match bit for bit.
"""

import gzip
import importlib.util
import math
import os
import struct
import tracemalloc

import numpy as np
import pytest

from dropcompact.data import Dataset, as_float, split_train_dev, write_idx_images, write_idx_labels
from dropcompact.linalg import bernoulli_matrix, rng_stream
from dropcompact.network import MlpParams, forward_batch, init_mlp
from dropcompact.retention import GUARD_EPS, PROB_FLOOR, RetentionParams


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


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


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


def prior_score(pi_value: float, alpha: float, beta: float, gamma: float) -> float:
    """Derivative of the unnormalized log-prior (p^(alpha-1) (1-p)^(beta-1))^gamma
    at one probability value."""
    if not GUARD_EPS < pi_value < 1.0 - GUARD_EPS:
        raise FrozenUnitError(f"retention value {pi_value} is inside the guard band")
    return gamma * ((alpha - 1.0) / pi_value - (beta - 1.0) / (1.0 - pi_value))


def _label_prob(params, gates, x, k) -> float:
    return float(softmax(forward_batch(params, x[None, :], list(gates)).logits)[0, k])


def importance_weight(params, pi, x, k, masks, clamp=100.0) -> float:
    """Ratio of the masked to the expectation-scaled label probability,
    both floored before dividing, clamped to [0, clamp]."""
    x = np.asarray(x, dtype=np.float64)
    num = max(_label_prob(params, masks, x, k), PROB_FLOOR)
    den = max(_label_prob(params, pi, x, k), PROB_FLOOR)
    return float(min(num / den, clamp))


def mask_block_oracle(pi, n_rows, rng) -> list[np.ndarray]:
    """A Bernoulli draw for every layer, all-ones layers included, from the
    guard-band-snapped probabilities; sample_mask_block must draw the same
    masks (None for an all-ones block) and leave rng in the same state."""
    masks = []
    for p in pi:
        p_eff = np.where(p <= GUARD_EPS, 0.0, np.where(p >= 1.0 - GUARD_EPS, 1.0, p))
        masks.append(bernoulli_matrix(p_eff, n_rows, rng))
    return masks


def retention_update_oracle(pi, params, batch, cfg, prior_strength, mask_blocks, stats):
    """retention_update under dense masks for every layer (as
    mask_block_oracle draws them) and two full forward passes; the
    package's version must match it bit for bit."""
    x, ks = batch
    x = np.asarray(x, dtype=np.float64)
    ks = np.asarray(ks)
    rows = np.arange(x.shape[0])
    p_masked = softmax(forward_batch(params, x, mask_blocks).logits)[rows, ks]
    p_scaled = softmax(forward_batch(params, x, list(pi)).logits)[rows, ks]
    stats.floored += int((p_masked < PROB_FLOOR).sum() + (p_scaled < PROB_FLOOR).sum())
    w = np.maximum(p_masked, PROB_FLOOR) / np.maximum(p_scaled, PROB_FLOOR)
    stats.clamped += int((w > cfg.importance_clamp).sum())
    np.clip(w, 0.0, cfg.importance_clamp, out=w)
    payoff = w - cfg.control_variate
    new_layers = [v.copy() for v in pi.layers]
    for layer in range(1, params.n_layers):
        p = pi[layer]
        act = pi.active(layer)
        p_safe = np.clip(p, GUARD_EPS, 1.0 - GUARD_EPS)
        prior = prior_strength * (
            (cfg.prior_alpha - 1.0) / p_safe - (cfg.prior_beta - 1.0) / (1.0 - p_safe)
        )
        delta = np.where(act, prior, 0.0)
        m = mask_blocks[layer]
        score = (m / p_safe - (1.0 - m) / (1.0 - p_safe)) * act
        delta = delta + payoff @ score
        new_layers[layer] = np.clip(p + cfg.retention_lr * delta, 0.0, 1.0)
    return RetentionParams(new_layers)


# ---------------------------------------------------------------------------
# evaluation oracle: the expectation-scaled evaluation as it was before the
# pass stopped keeping a trace and the loss started overwriting the logits
# ---------------------------------------------------------------------------

def _activation(z, act):
    """relu, sigmoid or linear (identity) of z."""
    if act == "relu":
        return np.maximum(z, 0.0)
    if act == "sigmoid":
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(-z))
    return z


def evaluate_oracle(params: MlpParams, pi: RetentionParams, split, batch_size=1024):
    """(error rate %, mean cross-entropy) over pre-gathered (x, y), with
    every retention vector as a gate, every activation kept and the loss
    taken from a separate exp temporary; the package's evaluate must match
    it bit for bit."""
    x, y = split
    gates = list(pi)
    wrong = 0
    loss_sum = 0.0
    for start in range(0, y.shape[0], batch_size):
        xb = as_float(x[start : start + batch_size])
        h = xb * gates[0]
        for i in range(params.n_layers - 1):
            z = h @ params.weights[i].T
            z += params.biases[i]
            h = _activation(z, params.hidden_activations[i]) * gates[i + 1]
        logits = h @ params.weights[-1].T
        logits += params.biases[-1]
        yb = y[start : start + batch_size]
        wrong += int((logits.argmax(axis=1) != yb).sum())
        m = logits.max(axis=-1)
        lse = m + np.log(np.exp(logits - m[..., None]).sum(axis=-1))
        loss_sum += float(-(logits[np.arange(logits.shape[0]), yb] - lse).sum())
    n = y.shape[0]
    return 100.0 * wrong / n, loss_sum / n


# ---------------------------------------------------------------------------
# IDX files: random MNIST directories, and a float64 loader (astype / 255,
# then concatenate) that the package's scaled pixels must match bit for bit
# ---------------------------------------------------------------------------

def write_mnist_dir(root, n_train, n_test, side, seed, suffix="", test_side=None):
    """The four MNIST files of random side x side images and labels 0-9."""
    rng = rng_stream(seed, "mnist-dir")
    for prefix, n, s in (("train", n_train, side), ("t10k", n_test, test_side or side)):
        imgs = rng.integers(0, 256, size=(n, s, s), dtype=np.uint8)
        write_idx_images(str(root / f"{prefix}-images-idx3-ubyte{suffix}"), imgs)
        write_idx_labels(str(root / f"{prefix}-labels-idx1-ubyte{suffix}"), rng.integers(0, 10, n))


def _idx_payload(path, header_size):
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rb") as f:
        blob = f.read()
    return blob[:header_size], np.frombuffer(blob[header_size:], dtype=np.uint8)


def load_mnist_dir_oracle(data_dir):
    """(inputs, labels) of the four MNIST files of data_dir: each image
    file as astype(float64) / 255.0, train and test then concatenated."""
    def path(stem):
        plain = os.path.join(data_dir, stem)
        return plain if os.path.exists(plain) else plain + ".gz"

    inputs, labels = [], []
    for prefix in ("train", "t10k"):
        header, pixels = _idx_payload(path(f"{prefix}-images-idx3-ubyte"), 16)
        _, n, rows, cols = struct.unpack(">IIII", header)
        inputs.append(pixels.reshape(n, rows * cols).astype(np.float64) / 255.0)
        labels.append(_idx_payload(path(f"{prefix}-labels-idx1-ubyte"), 8)[1].astype(np.int64))
    return np.concatenate(inputs), np.concatenate(labels)


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------

def traced_peak(fn, *args) -> int:
    """The peak of the memory fn(*args) allocated, in bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# synthetic data: inputs labelled by a frozen teacher net, and Gaussian blobs
# ---------------------------------------------------------------------------

def _load_surrogate():
    """perfbench/surrogate.py, loaded by its path: the tests and the benchmark
    share one generator, and perfbench/ stays off sys.path."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "surrogate.py")
    spec = importlib.util.spec_from_file_location("perfbench_surrogate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


make_teacher_dataset = _load_surrogate().make_teacher_dataset


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
