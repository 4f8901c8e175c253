"""Training regimes and orchestration.

One engine covers four regimes: plain SGD, fixed dropout, annealed dropout
(retention ramped to 1 over the first epochs), and compaction (weight
epochs alternating with retention sweeps and unit removal). Every regime
draws its training gates from its retention vectors (plain SGD has hidden
retention 1, so only input_retention gates it). Weight updates are SGD with
momentum and L2 on weights only; evaluation always uses the
expectation-scaled deterministic pass.

Randomness is split into named per-epoch streams (shuffling + mask draws
for weight epochs, a separate stream for retention sweeps) so regimes that
should coincide do so bit-for-bit under a shared seed.

Every split is a row index into the dataset's features. Minibatches and
the chunks of an evaluated split are gathered through it, so no split is
ever copied whole, and each is turned into float64 by ``data.as_float``
only then. A non-finite loss or parameter stops the run with
NonFiniteError.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields
from itertools import chain, repeat
from typing import get_type_hints

import numpy as np

from .compaction import count_weights, prune_units, slice_units
from .data import Dataset, as_float
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
NO_SCORE = (math.nan, math.nan)  # (error, loss) of a split that is absent


class NonFiniteError(FloatingPointError):
    """A loss or parameter of a run stopped being finite; the message names
    the epoch and the phase."""


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
    best: EpochReport | None  # None when no epoch ran
    reports: list[EpochReport]

    @property
    def best_epoch(self) -> int:
        return self.best.epoch if self.best else -1


def beats_best(key: tuple[float, float], best: tuple[float, float]) -> bool:
    """Whether a (dev_err, dev_loss) pair beats the best one so far.

    The lower pair wins and a tie keeps the earlier epoch. A best with a
    NaN (no dev split, or no epoch yet) is always replaced, so a run
    without a dev split keeps its last epoch; a candidate with a NaN never
    beats a finite best.
    """
    if any(math.isnan(v) for v in best):
        return True
    return not any(math.isnan(v) for v in key) and key < best


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
    steps = chain(
        zip(params.weights, grads.weights, velocity.weights, scratch.weights, repeat(l2)),
        zip(params.biases, grads.biases, velocity.biases, scratch.biases, repeat(0.0)),
    )
    for w, g, v, t, decay in steps:
        if w.shape != g.shape or w.shape != v.shape:
            raise ValueError("gradient/velocity shape mismatch")
        v *= momentum
        if decay != 0.0:
            np.multiply(w, decay, out=t)
            t += g
            t *= lr
        else:
            np.multiply(g, lr, out=t)
        v -= t
        w += v
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


def _minibatches(data: tuple[np.ndarray, np.ndarray], rows: np.ndarray, rng: Rng, size: int):
    """Each minibatch ``(inputs, labels)`` of one shuffled pass over ``rows``
    of ``data``, gathered and put through ``as_float`` as it is taken.

    The permutation is over ``rows.size`` and is drawn from ``rng`` when the
    first batch is taken."""
    x, y = data
    order = rng.permutation(rows.size)
    for start in range(0, rows.size, size):
        idx = rows[order[start : start + size]]
        yield as_float(x[idx]), y[idx]


def train_weights_epoch(
    params: MlpParams,
    pi: RetentionParams,
    data: tuple[np.ndarray, np.ndarray],
    cfg: TrainConfig,
    rng: Rng,
    velocity: Gradients | None = None,
    lr: float | None = None,
    rows: np.ndarray | None = None,
) -> tuple[MlpParams, float]:
    """One shuffled pass of masked minibatch SGD over ``rows`` of ``data``
    (every row when None); returns the mean loss."""
    if rows is None:
        rows = np.arange(data[1].shape[0])
    t = rows.size
    if t == 0:
        raise ValueError("empty training data")
    if velocity is None:
        velocity = Gradients.zeros_like(params)
    step_lr = cfg.lr if lr is None else lr
    scratch = Gradients.zeros_like(params)
    total = 0.0
    for xb, yb in _minibatches(data, rows, rng, cfg.batch_size):
        grads: Gradients | None = None
        for _ in range(cfg.samples_per_example):
            gates = sample_mask_block(pi, yb.size, rng)
            losses, g = backward_batch(params, xb, yb, gates)
            total += float(losses.sum())
            if grads is None:
                grads = g
            else:
                for acc, new in zip(grads.weights + grads.biases, g.weights + g.biases):
                    acc += new
        grads.scale(1.0 / (yb.size * cfg.samples_per_example))
        sgd_step(params, grads, velocity, step_lr, cfg.momentum, cfg.l2, scratch)
    return params, total / (t * cfg.samples_per_example)


def evaluate(
    params: MlpParams,
    pi: RetentionParams,
    split: tuple[np.ndarray, np.ndarray],
    batch_size: int = 1024,
    rows: np.ndarray | None = None,
) -> tuple[float, float]:
    """(error rate %, mean cross-entropy) under the expectation-scaled pass.

    Scores ``rows`` of ``split`` (every row when None), gathered one chunk
    at a time, so a split given by its row index is never copied whole.
    The rows may be raw dataset features: each chunk goes through
    ``as_float`` as it is evaluated. The pass keeps no trace and skips the
    multiply of every all-ones gate, and the loss overwrites the logits, so
    a chunk holds at most two layers' activations at once."""
    x, y = split
    n = y.shape[0] if rows is None else rows.size
    if n == 0:
        raise ValueError("empty evaluation split")
    gates = pi.scaled_gates()
    wrong = 0
    loss_sum = 0.0
    for start in range(0, n, batch_size):
        stop = start + batch_size
        chunk = slice(start, stop) if rows is None else rows[start:stop]
        yb = y[chunk]
        logits = forward_batch(params, as_float(x[chunk]), gates, trace=False).logits
        # the argmax comes first: log_softmax_pick overwrites the logits
        wrong += np.count_nonzero(logits.argmax(axis=1) != yb)
        loss_sum -= float(np.add.reduce(log_softmax_pick(logits, yb)))
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
    """Histogram of hidden-layer retention values over [0, 1]; all zeros
    for a net without a hidden layer."""
    values = np.concatenate([np.empty(0), *pi.layers[1:]])
    counts, _ = np.histogram(values, bins=bins, range=(0.0, 1.0))
    return tuple(int(c) for c in counts)


def _prior_for(cfg: TrainConfig, train_size: int) -> PriorHyper:
    gamma = cfg.gamma * train_size if cfg.gamma_mode == "multiple_of_t" else cfg.gamma
    hyper = PriorHyper(cfg.prior_alpha, cfg.prior_beta, gamma)
    hyper.validate()
    return hyper


def _any_active(pi: RetentionParams) -> bool:
    """Whether any hidden unit's retention is still inside (eps, 1 - eps)."""
    return any(pi.active(layer).any() for layer in range(1, len(pi)))


def _check_finite(epoch: int, phase: str, **values) -> None:
    """Raise NonFiniteError unless every value (a float, or a list of
    arrays) is finite."""
    for name, value in values.items():
        arrays = value if isinstance(value, list) else [value]
        if not all(np.isfinite(a).all() for a in arrays):
            raise NonFiniteError(
                f"non-finite {name.replace('_', ' ')} in epoch {epoch}, {phase} phase"
            )


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
    pi = init_pi or initial_retention(params, cfg)
    pi.validate(params)
    velocity = Gradients.zeros_like(params)

    # every split is gathered from the full features through its row index;
    # the prior's scale and the sweep's permutation are over the train count
    data = (dataset.features, dataset.labels)
    train_rows = dataset.splits["train"]

    hyper = _prior_for(cfg, train_rows.size)
    rcfg = RetentionUpdateConfig(
        cfg.retention_lr, cfg.control_variate, cfg.importance_clamp
    )

    lr = cfg.lr
    reports: list[EpochReport] = []
    best: EpochReport | None = None
    best_params, best_pi = params.copy(), pi
    since_best = 0

    for epoch in range(cfg.epochs):
        if cfg.regime == "annealed":
            level = anneal_retention(epoch, cfg)
            pi = RetentionParams([pi[0]] + [np.full(v.shape, level) for v in pi.layers[1:]])

        params, train_loss = train_weights_epoch(
            params,
            pi,
            data,
            cfg,
            rng_stream(cfg.seed, "weights", epoch),
            velocity=velocity,
            lr=lr,
            rows=train_rows,
        )
        _check_finite(
            epoch, "weights", train_loss=train_loss, parameters=params.weights + params.biases
        )

        if cfg.regime == "compaction":
            # With every hidden unit frozen each update is p + lr * 0 == p,
            # and the sweep's stream feeds nothing else: the sweep ends at
            # the first batch that finds no active unit.
            stats = RetentionStats()
            rng_r = rng_stream(cfg.seed, "retention", epoch)
            rb = cfg.retention_batch_size or cfg.batch_size
            for batch in _minibatches(data, train_rows, rng_r, rb):
                if not _any_active(pi):
                    break
                pi = retention_update(pi, params, batch, hyper, rcfg, rng_r, stats)
            if stats.clamped:
                log.debug("epoch %d: clamped %d importance weights", epoch, stats.clamped)

            prunable = any(
                (pi[layer] < cfg.prune_threshold).any() for layer in range(1, len(pi))
            )
            if prunable:
                params, pi, report = prune_units(params, pi, cfg.prune_threshold)
                velocity = Gradients(
                    *slice_units(velocity.weights, velocity.biases, report.kept_indices)
                )
                log.info("epoch %d: pruned to %s", epoch, report.summary())

        _check_finite(epoch, "retention", retention=pi.layers)

        scores = {
            tag: evaluate(params, pi, data, rows=dataset.splits[tag])
            for tag in ("dev", "test")
            if dataset.count(tag)
        }
        _check_finite(epoch, "evaluation", **{f"{tag}_loss": s[1] for tag, s in scores.items()})
        dev_err, dev_loss = scores.get("dev", NO_SCORE)
        test_err, test_loss = scores.get("test", NO_SCORE)
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

        if beats_best((dev_err, dev_loss), (best.dev_err, best.dev_loss) if best else NO_SCORE):
            best = reports[-1]
            best_params, best_pi = params.copy(), pi
            since_best = 0
        else:
            since_best += 1
        if cfg.plateau_halving:
            lr = plateau_lr([r.dev_err for r in reports], lr, cfg.plateau_threshold)
        if since_best >= cfg.patience:
            break

    return TrainResult(
        final_params=params,
        final_pi=pi,
        best_params=best_params,
        best_pi=best_pi,
        best=best,
        reports=reports,
    )
