"""Training regimes and orchestration.

One engine covers four regimes: plain SGD, fixed dropout, annealed dropout
(retention ramped to 1 over the first epochs), and compaction (weight
epochs alternating with retention sweeps and unit removal). Every regime
draws its training gates from its retention vectors (plain SGD has hidden
retention 1, so only input_retention gates it). Weight updates are SGD with
momentum and L2 on weights only; evaluation always uses the
expectation-scaled deterministic pass.

A run is a TrainState that ``run_epoch`` advances one epoch at a time;
``run_training`` builds the first state and steps it until the epochs or
the patience run out.

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
    _all_finite,
    backward_batch,
    forward_batch,
    init_mlp,
    log_softmax_pick,
)
from .retention import RetentionParams, RetentionStats, retention_update, sample_mask_block

log = logging.getLogger("dropcompact")

REGIMES = ("plain", "dropout", "annealed", "compaction")
HISTOGRAM_BINS = 20
EVAL_BATCH = 1024  # rows evaluate scores per forward pass
NO_SCORE = (math.nan, math.nan)  # (error, loss) of a split that is absent


class NonFiniteError(FloatingPointError):
    """A loss or parameter of a run stopped being finite; the message names
    the epoch and the phase."""


@dataclass(frozen=True)
class TrainConfig:
    """Flat experiment configuration; every field maps to one config-file key.
    Checked when built (``dataclasses.replace`` included): a bad field
    raises ValueError."""

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
    prune_threshold: float = 0.05
    patience: int = 8
    seed: int = 0
    dev_size: int = 10000

    def __post_init__(self):
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
        if not (0.0 < self.prior_alpha <= 1.0 and 0.0 < self.prior_beta <= 1.0):
            raise ValueError("prior_alpha and prior_beta must lie in (0, 1]")
        if self.gamma_mode not in ("multiple_of_t", "absolute"):
            raise ValueError(f"unknown gamma_mode {self.gamma_mode!r}")
        if self.gamma < 0 or self.retention_lr < 0:
            raise ValueError("gamma and retention_lr must be non-negative")
        if not 0.0 <= self.prune_threshold < 1.0:
            raise ValueError("prune_threshold must lie in [0, 1)")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.importance_clamp <= 0:
            raise ValueError("importance_clamp must be positive")
        for name in ("dev_size", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @classmethod
    def from_dict(cls, raw: dict) -> "TrainConfig":
        """Build from a config file's strings or a checkpoint header's JSON
        values (see ``_coerce``); unknown keys are errors."""
        known = get_type_hints(cls)
        kwargs = {}
        for key, value in raw.items():
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
            kwargs[key] = _coerce(key, value, known[key])
        return cls(**kwargs)

    def to_dict(self) -> dict:
        """The fields whose value differs from the default (a tuple as a
        list), so a config names a run by what it sets, and a field that
        every config leaves at its default can go without moving that name."""
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if v != f.default:
                out[f.name] = list(v) if isinstance(v, tuple) else v
        return out


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _coerce(key: str, value, kind):
    """Field ``key`` of type ``kind`` from a config-file string, or from a
    value that already has that type: an int (not a bool) for an int field,
    an int or a float for a float field (as a float), and a list or tuple of
    ints for layer_dims (as a tuple). Any other value, an int beyond the
    float range for a float field included, is a ValueError."""
    if isinstance(value, str):
        text = value.strip()
        if kind in (int, float, str):
            return kind(text)
        return tuple(int(p) for p in text.replace(",", " ").split())  # layer_dims
    if kind is int and _is_int(value):
        return value
    if kind is float and (_is_int(value) or isinstance(value, float)):
        try:
            return float(value)
        except OverflowError:
            pass
    if kind not in (int, float, str) and isinstance(value, (list, tuple)):
        if all(map(_is_int, value)):
            return tuple(value)
    raise ValueError(f"config key {key!r} cannot be {value!r}")


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


@dataclass
class TrainState:
    """A run between two epochs; ``run_epoch`` advances it in place."""

    params: MlpParams
    pi: RetentionParams
    velocity: Gradients  # the momentum of sgd_step, shaped like params
    best: EpochReport | None  # None until an epoch has run
    best_params: MlpParams
    best_pi: RetentionParams
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
    scratch: Gradients,
) -> None:
    """In place: v <- momentum*v - lr*(g + l2*W); W <- W + v. Biases skip L2.

    The products go in place through ``scratch`` (parameter-shaped
    buffers), in the operation order of the formula, so the result is
    bit-identical to it.
    """
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
    velocity: Gradients,
    rows: np.ndarray,
) -> float:
    """One shuffled pass of masked minibatch SGD at step size ``cfg.lr`` over
    ``rows`` of ``data``, training ``params`` and carrying the momentum
    ``velocity`` in place; returns the mean loss."""
    t = rows.size
    if t == 0:
        raise ValueError("empty training data")
    scratch = Gradients.zeros_like(params)
    total = 0.0
    for xb, yb in _minibatches(data, rows, rng, cfg.batch_size):
        gates = sample_mask_block(pi, yb.size, rng)
        losses, grads = backward_batch(params, xb, yb, gates)
        total += float(losses.sum())
        grads.scale(1.0 / yb.size)
        sgd_step(params, grads, velocity, cfg.lr, cfg.momentum, cfg.l2, scratch)
    return total / t


def evaluate(
    params: MlpParams,
    pi: RetentionParams,
    split: tuple[np.ndarray, np.ndarray],
    rows: np.ndarray | None = None,
) -> tuple[float, float]:
    """(error rate %, mean cross-entropy) under the expectation-scaled pass.

    Scores ``rows`` of ``split`` (every row when None), gathered EVAL_BATCH
    rows at a time, so a split given by its row index is never copied whole.
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
    for start in range(0, n, EVAL_BATCH):
        stop = start + EVAL_BATCH
        chunk = slice(start, stop) if rows is None else rows[start:stop]
        yb = y[chunk]
        logits = forward_batch(params, as_float(x[chunk]), gates, trace=False).logits
        # the argmax comes first: log_softmax_pick overwrites the logits
        wrong += np.count_nonzero(logits.argmax(axis=1) != yb)
        loss_sum -= float(np.add.reduce(log_softmax_pick(logits, yb)))
    return 100.0 * wrong / n, loss_sum / n


def retention_histogram(pi: RetentionParams) -> tuple[int, ...]:
    """Histogram of hidden-layer retention values in HISTOGRAM_BINS equal
    bins over [0, 1]; all zeros for a net without a hidden layer."""
    values = np.concatenate([np.empty(0), *pi.layers[1:]])
    counts, _ = np.histogram(values, bins=HISTOGRAM_BINS, range=(0.0, 1.0))
    return tuple(int(c) for c in counts)


def _check_finite(epoch: int, phase: str, **values) -> None:
    """Raise NonFiniteError unless every value (a float, or a list of
    arrays) is finite."""
    for name, value in values.items():
        arrays = value if isinstance(value, list) else [np.asarray(value)]
        if not all(_all_finite(a) for a in arrays):
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


def run_epoch(state: TrainState, epoch: int, dataset: Dataset, cfg: TrainConfig) -> EpochReport:
    """Epoch ``epoch`` of ``cfg``'s regime on ``dataset``: a weight pass, for
    compaction a retention sweep and the removal of dead units, the dev and
    test scores, and the best-epoch bookkeeping.
    Advances ``state`` in place and returns the epoch's report."""
    # every split is gathered from the full features through its row index;
    # the prior's scale and the sweep's permutation are over the train count
    data = (dataset.features, dataset.labels)
    train_rows = dataset.splits["train"]
    if cfg.regime == "annealed":
        level = anneal_retention(epoch, cfg)
        state.pi = RetentionParams(
            [state.pi[0]] + [np.full(v.shape, level) for v in state.pi.layers[1:]]
        )

    train_loss = train_weights_epoch(
        state.params,
        state.pi,
        data,
        cfg,
        rng_stream(cfg.seed, "weights", epoch),
        velocity=state.velocity,
        rows=train_rows,
    )
    _check_finite(
        epoch, "weights", train_loss=train_loss,
        parameters=state.params.weights + state.params.biases,
    )

    if cfg.regime == "compaction":
        strength = cfg.gamma * train_rows.size if cfg.gamma_mode == "multiple_of_t" else cfg.gamma
        # With every hidden unit frozen retention_update returns pi
        # unchanged, and the sweep's stream feeds nothing else: the sweep
        # ends at the first batch that finds no active unit.
        stats = RetentionStats()
        rng_r = rng_stream(cfg.seed, "retention", epoch)
        for batch in _minibatches(data, train_rows, rng_r, cfg.batch_size):
            if not state.pi.any_active():
                break
            masks = sample_mask_block(state.pi, batch[1].size, rng_r)
            state.pi = retention_update(state.pi, state.params, batch, cfg, strength, masks, stats)
        if stats.clamped:
            log.debug("epoch %d: clamped %d importance weights", epoch, stats.clamped)

        if any((v < cfg.prune_threshold).any() for v in state.pi.layers[1:]):
            state.params, state.pi, pruned = prune_units(
                state.params, state.pi, cfg.prune_threshold
            )
            state.velocity = Gradients(
                *slice_units(state.velocity.weights, state.velocity.biases, pruned.kept_indices)
            )
            log.info("epoch %d: pruned to %s", epoch, pruned.summary())

    params, pi = state.params, state.pi
    _check_finite(epoch, "retention", retention=pi.layers)

    scores = {
        tag: evaluate(params, pi, data, rows=dataset.splits[tag])
        for tag in ("dev", "test")
        if dataset.count(tag)
    }
    _check_finite(epoch, "evaluation", **{f"{tag}_loss": s[1] for tag, s in scores.items()})
    dev_err, dev_loss = scores.get("dev", NO_SCORE)
    test_err, test_loss = scores.get("test", NO_SCORE)
    report = EpochReport(
        epoch=epoch,
        train_loss=train_loss,
        dev_loss=dev_loss,
        dev_err=dev_err,
        test_loss=test_loss,
        test_err=test_err,
        unit_counts=tuple(params.layer_dims[1:-1]),
        n_weights=count_weights(params),
        histogram=retention_histogram(pi),
    )
    state.reports.append(report)
    log.info(
        "epoch %d [%s]: train %.4f dev %.4f/%.2f%% units %s",
        epoch,
        cfg.regime,
        train_loss,
        dev_loss,
        dev_err,
        "x".join(map(str, params.layer_dims[1:-1])),
    )

    best = state.best
    if beats_best((dev_err, dev_loss), (best.dev_err, best.dev_loss) if best else NO_SCORE):
        state.best, state.best_params, state.best_pi = report, params.copy(), pi
    return report


def run_training(
    dataset: Dataset,
    cfg: TrainConfig,
    init_params: MlpParams | None = None,
    init_pi: RetentionParams | None = None,
) -> TrainState:
    """Full training run: ``run_epoch`` until ``cfg.epochs`` have run or
    ``cfg.patience`` epochs in a row have not beaten the best one."""
    if dataset.count("train") == 0:
        raise ValueError("dataset has no train split")
    if cfg.regime == "compaction" and not dataset.count("dev"):
        raise ValueError("compaction regime requires a non-empty dev split")
    check_data_fits(dataset, cfg.layer_dims)

    params = init_params.copy() if init_params else init_mlp(
        cfg.layer_dims, cfg.hidden_activation, cfg.seed
    )
    pi = init_pi or initial_retention(params, cfg)
    pi.validate(params)
    # best_params starts as params itself: the first epoch always beats
    # NO_SCORE and replaces it with a copy
    state = TrainState(params, pi, Gradients.zeros_like(params), None, params, pi, [])
    for epoch in range(cfg.epochs):
        run_epoch(state, epoch, dataset, cfg)
        if epoch - state.best_epoch >= cfg.patience:
            break
    return state
