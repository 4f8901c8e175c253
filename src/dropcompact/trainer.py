"""Training regimes and orchestration.

One engine covers four regimes: plain SGD, fixed dropout, annealed dropout
(retention ramped to 1 over the first epochs), and compaction (weight
epochs alternating with retention sweeps and unit removal). Weight updates
are SGD with momentum and L2 on weights only; evaluation always uses the
expectation-scaled deterministic pass.

Randomness is split into named per-epoch streams (shuffling + mask draws
for weight epochs, a separate stream for retention sweeps) so regimes that
should coincide do so bit-for-bit under a shared seed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields
from typing import get_type_hints

import numpy as np

from .compaction import count_weights, prune_units
from .data import Dataset
from .linalg import Rng, rng_stream
from .network import (
    Gradients,
    MlpParams,
    backward_batch,
    forward_batch,
    init_mlp,
    log_softmax_pick,
)
from .retention import (
    PriorHyper,
    RetentionParams,
    RetentionStats,
    RetentionUpdateConfig,
    retention_update,
    sample_mask_block,
)

log = logging.getLogger("dropcompact")

REGIMES = ("plain", "dropout", "annealed", "compaction")
HISTOGRAM_BINS = 20


@dataclass
class TrainConfig:
    """Flat experiment configuration; every field maps to one config-file key."""

    regime: str = "plain"
    layer_dims: tuple[int, ...] = (784, 100, 100, 10)
    hidden_activation: str = "relu"
    epochs: int = 20
    batch_size: int = 128
    lr: float = 0.001
    momentum: float = 0.9
    l2: float = 0.0
    annealing_epochs: int = 4
    dropout_retention: float = 0.5
    input_retention: float = 1.0
    retention_init: float = 0.5
    prior_alpha: float = 0.9
    prior_beta: float = 0.9
    gamma_mode: str = "multiple_of_t"  # or "absolute"
    gamma: float = 1.0
    retention_lr: float = 2e-7
    control_variate: float = 1.0
    importance_clamp: float = 100.0
    retention_batch_size: int = 0  # 0: reuse batch_size
    samples_per_example: int = 1
    prune_threshold: float = 0.05
    patience: int = 8
    plateau_halving: bool = False
    plateau_threshold: float = 0.005
    seed: int = 0
    dev_size: int = 10000

    def validate(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"{f.name} must be finite, got {v}")
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        if len(self.layer_dims) < 2 or any(d < 1 for d in self.layer_dims):
            raise ValueError(f"bad layer_dims {self.layer_dims}")
        if self.hidden_activation not in ("relu", "sigmoid"):
            raise ValueError(f"unknown hidden_activation {self.hidden_activation!r}")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.l2 < 0:
            raise ValueError("l2 must be non-negative")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size must be >= 1 and epochs >= 0")
        if self.annealing_epochs < 1:
            raise ValueError("annealing_epochs must be >= 1")
        for name in ("dropout_retention", "input_retention", "retention_init"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.gamma_mode not in ("multiple_of_t", "absolute"):
            raise ValueError(f"unknown gamma_mode {self.gamma_mode!r}")
        if self.gamma < 0 or self.retention_lr < 0:
            raise ValueError("gamma and retention_lr must be non-negative")
        if not 0.0 <= self.prune_threshold < 1.0:
            raise ValueError("prune_threshold must lie in [0, 1)")
        if self.samples_per_example < 1 or self.patience < 1:
            raise ValueError("samples_per_example and patience must be >= 1")
        if self.importance_clamp <= 0:
            raise ValueError("importance_clamp must be positive")
        if self.retention_batch_size < 0 or self.dev_size < 0:
            raise ValueError("retention_batch_size and dev_size must be >= 0")
        PriorHyper(self.prior_alpha, self.prior_beta, max(self.gamma, 0.0)).validate()

    @classmethod
    def from_dict(cls, raw: dict) -> "TrainConfig":
        """Build from string-keyed values (config file); unknown keys are errors."""
        known = get_type_hints(cls)
        kwargs = {}
        for key, value in raw.items():
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
            kwargs[key] = _coerce(key, value, known[key])
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out


def _coerce(key: str, value, kind):
    """A config-file string as the type of field ``key``; other values as given."""
    if not isinstance(value, str):
        return value
    text = value.strip()
    if kind is bool:
        low = text.lower()
        if low in ("on", "true", "1", "yes"):
            return True
        if low in ("off", "false", "0", "no"):
            return False
        raise ValueError(f"bad boolean for {key!r}: {value!r}")
    if kind in (int, float, str):
        return kind(text)
    return tuple(int(p) for p in text.replace(",", " ").split())  # layer_dims


@dataclass
class EpochReport:
    epoch: int
    train_loss: float
    dev_loss: float
    dev_err: float
    test_loss: float
    test_err: float
    unit_counts: tuple[int, ...]
    n_weights: int
    histogram: tuple[int, ...]
    lr: float


@dataclass
class TrainResult:
    final_params: MlpParams
    final_pi: RetentionParams
    best_params: MlpParams
    best_pi: RetentionParams
    best_epoch: int
    reports: list[EpochReport]
    retention_stats: RetentionStats
    stopped_early: bool
    final_lr: float


def sgd_step(
    params: MlpParams,
    grads: Gradients,
    velocity: Gradients,
    lr: float,
    momentum: float,
    l2: float,
    scratch: Gradients | None = None,
) -> tuple[MlpParams, Gradients]:
    """v <- momentum*v - lr*(g + l2*W); W <- W + v. Biases skip L2.

    The products go in place through ``scratch`` (parameter-shaped buffers,
    allocated here when not given), in the operation order of the formula,
    so the result is bit-identical to it.
    """
    if scratch is None:
        scratch = Gradients.zeros_like(params)
    for w, g, v, t in zip(params.weights, grads.weights, velocity.weights, scratch.weights):
        if w.shape != g.shape or w.shape != v.shape:
            raise ValueError("gradient/velocity shape mismatch")
        v *= momentum
        if l2 != 0.0:
            np.multiply(w, l2, out=t)
            t += g
            t *= lr
        else:
            np.multiply(g, lr, out=t)
        v -= t
        w += v
    for b, g, v, t in zip(params.biases, grads.biases, velocity.biases, scratch.biases):
        if b.shape != g.shape or b.shape != v.shape:
            raise ValueError("gradient/velocity shape mismatch")
        v *= momentum
        np.multiply(g, lr, out=t)
        v -= t
        b += v
    return params, velocity


def anneal_retention(epoch: int, cfg: TrainConfig) -> float:
    """Linear ramp from 0.5 to 1.0 over the first annealing_epochs epochs."""
    if epoch < 0:
        raise ValueError("epoch must be non-negative")
    return 0.5 + 0.5 * min(epoch / cfg.annealing_epochs, 1.0)


def initial_retention(params: MlpParams, cfg: TrainConfig) -> RetentionParams:
    hidden = {
        "plain": 1.0,
        "dropout": cfg.dropout_retention,
        "annealed": anneal_retention(0, cfg),
        "compaction": cfg.retention_init,
    }[cfg.regime]
    return RetentionParams.constant(params, hidden, cfg.input_retention)


def _gates_for_batch(pi: RetentionParams, b: int, regime: str, rng: Rng):
    if regime == "plain":
        return [None] * len(pi)
    return sample_mask_block(pi, b, rng)


def train_weights_epoch(
    params: MlpParams,
    pi: RetentionParams,
    data: tuple[np.ndarray, np.ndarray],
    cfg: TrainConfig,
    rng: Rng,
    velocity: Gradients | None = None,
    lr: float | None = None,
) -> tuple[MlpParams, float]:
    """One shuffled pass of masked minibatch SGD; returns the mean loss."""
    x, y = data
    t = y.shape[0]
    if t == 0:
        raise ValueError("empty training data")
    if velocity is None:
        velocity = Gradients.zeros_like(params)
    step_lr = cfg.lr if lr is None else lr
    scratch = Gradients.zeros_like(params)
    order = rng.permutation(t)
    total = 0.0
    for start in range(0, t, cfg.batch_size):
        idx = order[start : start + cfg.batch_size]
        xb, yb = x[idx], y[idx]
        grads: Gradients | None = None
        for _ in range(cfg.samples_per_example):
            gates = _gates_for_batch(pi, idx.size, cfg.regime, rng)
            losses, g = backward_batch(params, xb, yb, gates)
            total += float(losses.sum())
            if grads is None:
                grads = g
            else:
                for acc, new in zip(grads.weights + grads.biases, g.weights + g.biases):
                    acc += new
        grads.scale(1.0 / (idx.size * cfg.samples_per_example))
        sgd_step(params, grads, velocity, step_lr, cfg.momentum, cfg.l2, scratch)
    return params, total / (t * cfg.samples_per_example)


def evaluate(
    params: MlpParams,
    pi: RetentionParams,
    split: tuple[np.ndarray, np.ndarray],
    batch_size: int = 1024,
) -> tuple[float, float]:
    """(error rate %, mean cross-entropy) under the expectation-scaled pass."""
    x, y = split
    if y.shape[0] == 0:
        raise ValueError("empty evaluation split")
    gates = list(pi)
    wrong = 0
    loss_sum = 0.0
    for start in range(0, y.shape[0], batch_size):
        xb, yb = x[start : start + batch_size], y[start : start + batch_size]
        trace = forward_batch(params, xb, gates)
        wrong += int((trace.logits.argmax(axis=1) != yb).sum())
        loss_sum += float(-log_softmax_pick(trace.logits, yb).sum())
    n = y.shape[0]
    return 100.0 * wrong / n, loss_sum / n


def plateau_lr(history: list[float], lr: float, threshold: float = 0.005) -> float:
    """Halve lr when the latest relative dev improvement is below threshold."""
    if len(history) < 2:
        return lr
    prev, cur = history[-2], history[-1]
    if prev <= 0:
        return lr * 0.5 if cur >= prev else lr
    improvement = (prev - cur) / prev
    return lr * 0.5 if improvement < threshold else lr


def retention_histogram(pi: RetentionParams, bins: int = HISTOGRAM_BINS) -> tuple[int, ...]:
    """Histogram of hidden-layer retention values over [0, 1]."""
    values = np.concatenate([pi[layer] for layer in range(1, len(pi))])
    counts, _ = np.histogram(values, bins=bins, range=(0.0, 1.0))
    return tuple(int(c) for c in counts)


def _prior_for(cfg: TrainConfig, train_size: int) -> PriorHyper:
    gamma = cfg.gamma * train_size if cfg.gamma_mode == "multiple_of_t" else cfg.gamma
    hyper = PriorHyper(cfg.prior_alpha, cfg.prior_beta, gamma)
    hyper.validate()
    return hyper


def _slice_velocity(velocity: Gradients, kept: list[np.ndarray]) -> Gradients:
    weights = [
        velocity.weights[i][np.ix_(kept[i + 1], kept[i])]
        for i in range(len(velocity.weights))
    ]
    biases = [velocity.biases[i][kept[i + 1]] for i in range(len(velocity.biases))]
    return Gradients(weights, biases)


def check_data_fits(dataset: Dataset, layer_dims) -> None:
    """Raise ValueError unless the data's width and classes fit layer_dims."""
    if dataset.dim != layer_dims[0]:
        raise ValueError(
            f"input width {dataset.dim} does not match layer_dims[0]={layer_dims[0]}"
        )
    if dataset.num_classes > layer_dims[-1]:
        raise ValueError(
            f"{dataset.num_classes} classes exceed output width {layer_dims[-1]}"
        )


def run_training(
    dataset: Dataset,
    cfg: TrainConfig,
    init_params: MlpParams | None = None,
    init_pi: RetentionParams | None = None,
) -> TrainResult:
    """Full training run: weight epochs, optional retention sweeps and
    pruning, dev-based model selection and early stopping."""
    cfg.validate()
    if dataset.count("train") == 0:
        raise ValueError("dataset has no train split")
    has_dev = dataset.count("dev") > 0
    if cfg.regime == "compaction" and not has_dev:
        raise ValueError("compaction regime requires a non-empty dev split")
    check_data_fits(dataset, cfg.layer_dims)

    params = init_params.copy() if init_params else init_mlp(
        cfg.layer_dims, cfg.hidden_activation, cfg.seed
    )
    pi = init_pi.copy() if init_pi else initial_retention(params, cfg)
    pi.validate(params)
    velocity = Gradients.zeros_like(params)

    x_train, y_train = dataset.arrays("train")
    dev = dataset.arrays("dev") if has_dev else None
    test = dataset.arrays("test") if dataset.count("test") > 0 else None

    hyper = _prior_for(cfg, y_train.shape[0])
    rcfg = RetentionUpdateConfig(
        cfg.retention_lr, cfg.control_variate, cfg.importance_clamp
    )
    stats_total = RetentionStats()

    lr = cfg.lr
    reports: list[EpochReport] = []
    best_key: tuple[float, float] | None = None
    best_params, best_pi, best_epoch = params.copy(), pi.copy(), -1
    since_best = 0
    stopped_early = False
    dev_err_history: list[float] = []

    for epoch in range(cfg.epochs):
        if cfg.regime == "annealed":
            level = anneal_retention(epoch, cfg)
            for layer in range(1, len(pi)):
                pi.layers[layer][:] = level

        params, train_loss = train_weights_epoch(
            params,
            pi,
            (x_train, y_train),
            cfg,
            rng_stream(cfg.seed, "weights", epoch),
            velocity=velocity,
            lr=lr,
        )

        if cfg.regime == "compaction":
            # With every hidden unit frozen each update is p + lr * 0 == p,
            # and the sweep's stream feeds nothing else: skip the sweep.
            if any(pi.active(layer).any() for layer in range(1, len(pi))):
                stats = RetentionStats()
                rng_r = rng_stream(cfg.seed, "retention", epoch)
                order = rng_r.permutation(y_train.shape[0])
                rb = cfg.retention_batch_size or cfg.batch_size
                for start in range(0, order.size, rb):
                    idx = order[start : start + rb]
                    pi = retention_update(
                        pi, params, (x_train[idx], y_train[idx]), hyper, rcfg, rng_r, stats
                    )
                stats_total.merge(stats)
                if stats.clamped:
                    log.debug("epoch %d: clamped %d importance weights", epoch, stats.clamped)

            prunable = any(
                (pi[layer] < cfg.prune_threshold).any() for layer in range(1, len(pi))
            )
            if prunable:
                params, pi, report = prune_units(params, pi, cfg.prune_threshold)
                velocity = _slice_velocity(velocity, report.kept_indices)
                log.info("epoch %d: pruned to %s", epoch, report.summary())

        dev_err, dev_loss = evaluate(params, pi, dev) if dev else (float("nan"), float("nan"))
        test_err, test_loss = (
            evaluate(params, pi, test) if test else (float("nan"), float("nan"))
        )
        reports.append(
            EpochReport(
                epoch=epoch,
                train_loss=train_loss,
                dev_loss=dev_loss,
                dev_err=dev_err,
                test_loss=test_loss,
                test_err=test_err,
                unit_counts=tuple(params.layer_dims[1:-1]),
                n_weights=count_weights(params),
                histogram=retention_histogram(pi),
                lr=lr,
            )
        )
        log.info(
            "epoch %d [%s]: train %.4f dev %.4f/%.2f%% units %s lr %.2e",
            epoch,
            cfg.regime,
            train_loss,
            dev_loss,
            dev_err,
            "x".join(map(str, params.layer_dims[1:-1])),
            lr,
        )

        if dev:
            key = (dev_err, dev_loss)
            if best_key is None or key < best_key:
                best_key, best_epoch = key, epoch
                best_params, best_pi = params.copy(), pi.copy()
                since_best = 0
            else:
                since_best += 1
            dev_err_history.append(dev_err)
            if cfg.plateau_halving:
                lr = plateau_lr(dev_err_history, lr, cfg.plateau_threshold)
            if since_best >= cfg.patience:
                stopped_early = True
                break
        else:
            best_params, best_pi, best_epoch = params.copy(), pi.copy(), epoch

    return TrainResult(
        final_params=params,
        final_pi=pi,
        best_params=best_params,
        best_pi=best_pi,
        best_epoch=best_epoch,
        reports=reports,
        retention_stats=stats_total,
        stopped_early=stopped_early,
        final_lr=lr,
    )
