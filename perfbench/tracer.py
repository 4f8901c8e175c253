"""Spans recorded from outside the package, and the per-layer metrics built
from them.

``install`` wraps public functions of the ``dropcompact`` modules at the
names their callers look up (``trainer.forward_batch`` for ``evaluate``,
``network.forward_batch`` for ``backward_batch``, ``retention.forward_batch``
for the retention sweep, and so on). Each call becomes a span: name, start,
end, parent span, operation id and a few counts taken from the arguments.
Spans stay in memory until the run ends. A name that no longer resolves is
reported and every metric built from it is left out, never counted as 0.

Bytes are computed from argument shapes (``nbytes`` of the operands each
call reads and writes), not measured.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from dropcompact.retention import GUARD_EPS

from spec import EPOCHS, MAX_HIDDEN, MAX_WEIGHT_LAYERS, PER_LAYER

NAME, START, END, PARENT, OP, META = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = 0

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn: Callable, name: str, pre=None, post=None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = pre(args, kwargs) if pre else None
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if post:
                rec[META] = post(args, kwargs, result, state)
            return result

        return traced


# -- counts taken at each hook ----------------------------------------------

def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs.get(name)


def _forward_meta(args, kwargs, result, state):
    return (_arg(args, kwargs, 1, "x").shape[0], _arg(args, kwargs, 0, "params").layer_dims)


def _kernel_bytes(args, kwargs, result, state):
    return sum(a.nbytes for a in args if isinstance(a, np.ndarray))


def _bernoulli_meta(args, kwargs, result, state):
    p = np.asarray(_arg(args, kwargs, 0, "p"))
    rows = int(_arg(args, kwargs, 1, "n_rows"))
    useful = int(np.count_nonzero((p > GUARD_EPS) & (p < 1.0 - GUARD_EPS)))
    return (rows * p.size, rows * useful)


def _sgd_bytes(args, kwargs, result, state):
    params, grads, velocity = args[:3]
    return sum(
        a.nbytes
        for group in (params, grads, velocity)
        for a in list(group.weights) + list(group.biases)
    )


def _stats_before(args, kwargs):
    stats = _arg(args, kwargs, 6, "stats")
    return None if stats is None else (stats, stats.clamped, stats.floored)


def _stats_delta(args, kwargs, result, state):
    if state is None:
        return (0, 0)
    stats, clamped, floored = state
    return (stats.clamped - clamped, stats.floored - floored)


def _prune_meta(args, kwargs, result, state):
    return tuple(result[2].kept)


def _active_fraction(args, kwargs, result, state):
    pi = _arg(args, kwargs, 0, "pi")
    hidden = range(1, len(pi))
    total = sum(pi[layer].size for layer in hidden)
    return sum(int(pi.active(layer).sum()) for layer in hidden) / total if total else 0.0


def _save_bytes(args, kwargs, result, state):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


def _load_bytes(args, kwargs, result, state):
    return result.inputs.size + result.labels.size + 2 * (16 + 8)  # pixels, labels, headers


@dataclass(frozen=True)
class Hook:
    target: str  # "module:attribute", the name a caller looks up
    span: str
    pre: Callable | None = None
    post: Callable | None = None


HOOKS = [
    Hook("dropcompact.cli:load_mnist_dir", "data.load", post=_load_bytes),
    Hook("dropcompact.cli:run_training", "trainer.run_training"),
    Hook("dropcompact.cli:save_checkpoint", "checkpoint.save", post=_save_bytes),
    Hook("dropcompact.checkpoint:save_checkpoint", "checkpoint.save", post=_save_bytes),
    Hook("dropcompact.checkpoint:load_checkpoint", "checkpoint.load"),
    Hook("dropcompact.trainer:train_weights_epoch", "trainer.weights_epoch"),
    Hook("dropcompact.trainer:sample_mask_block", "retention.sample_block"),
    Hook("dropcompact.trainer:backward_batch", "network.backward", post=_forward_meta),
    Hook("dropcompact.trainer:sgd_step", "trainer.sgd_step", post=_sgd_bytes),
    Hook("dropcompact.trainer:retention_update", "retention.update",
         pre=_stats_before, post=_stats_delta),
    Hook("dropcompact.trainer:prune_units", "compaction.prune", post=_prune_meta),
    Hook("dropcompact.compaction:prune_units", "compaction.prune", post=_prune_meta),
    Hook("dropcompact.trainer:evaluate", "trainer.evaluate"),
    Hook("dropcompact.trainer:retention_histogram", "trainer.epoch_end", post=_active_fraction),
    Hook("dropcompact.trainer:forward_batch", "network.forward", post=_forward_meta),
    Hook("dropcompact.network:forward_batch", "network.forward", post=_forward_meta),
    Hook("dropcompact.retention:forward_batch", "network.forward", post=_forward_meta),
    Hook("dropcompact.retention:bernoulli_matrix", "linalg.bernoulli", post=_bernoulli_meta),
    Hook("dropcompact.kernels:gate_act", "kernels.gate_act", post=_kernel_bytes),
    Hook("dropcompact.kernels:act_grad", "kernels.act_grad", post=_kernel_bytes),
    Hook("dropcompact.kernels:mask_score_kernel", "kernels.mask_score", post=_kernel_bytes),
]

# per-layer metrics a workload measures itself and passes to per_layer()
EXTRA = ("compaction.flop_ratio", "compaction.parent_p50_ms", "compaction.measured_speedup",
         "bench.prealloc_p50_ms", "trace.overhead_pct")

PHASE_SPANS = (
    "retention.sample_block", "network.forward", "network.backward", "trainer.sgd_step",
    "retention.update", "compaction.prune", "trainer.evaluate", "trainer.run_training",
)

# metric-name prefix -> spans it is built from
DEPENDS = [
    ("data.", ("data.load",)),
    ("linalg.bernoulli", ("linalg.bernoulli",)),
    ("kernels.gate_act", ("kernels.gate_act",)),
    ("kernels.act_grad", ("kernels.act_grad",)),
    ("kernels.mask_score", ("kernels.mask_score",)),
    ("network.forward", ("network.forward",)),
    ("network.backward", ("network.backward",)),
    ("retention.sample_block", ("retention.sample_block",)),
    ("retention.update.forward_macs", ("retention.update", "network.forward")),
    ("retention.update", ("retention.update",)),
    ("retention.clamped", ("retention.update",)),
    ("retention.floored", ("retention.update",)),
    ("retention.active_fraction", ("trainer.epoch_end",)),
    ("phase.", PHASE_SPANS),
    ("trainer.run_training_s", ("trainer.run_training",)),
    ("trainer.epoch_s", ("trainer.weights_epoch", "trainer.run_training")),
    ("trainer.sgd_step", ("trainer.sgd_step",)),
    ("trainer.evaluate", ("trainer.evaluate",)),
    ("compaction.prune", ("compaction.prune",)),
    ("compaction.units_kept", ("compaction.prune",)),
    ("checkpoint.save", ("checkpoint.save",)),
    ("checkpoint.load", ("checkpoint.load",)),
    ("cli.", ("trainer.run_training", "data.load", "checkpoint.save")),
]


def install(tracer: Tracer, hooks=HOOKS):
    """Wrap every hook target; returns (restore, names that did not resolve)."""
    originals, unresolved = [], []
    for hook in hooks:
        modname, attr = hook.target.split(":")
        try:
            module = importlib.import_module(modname)
        except ImportError:
            unresolved.append(hook)
            continue
        fn = getattr(module, attr, None)
        if not callable(fn):
            unresolved.append(hook)
            continue
        originals.append((module, attr, fn))
        setattr(module, attr, tracer.wrap(fn, hook.span, hook.pre, hook.post))

    def restore():
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)

    return restore, unresolved


# -- aggregation ------------------------------------------------------------

def _macs(rows: int, dims) -> list[int]:
    return [rows * dims[i] * dims[i + 1] for i in range(len(dims) - 1)]


def per_layer(tracer: Tracer, extra: dict, unresolved_spans=()) -> dict[str, float]:
    """Every metric of spec.PER_LAYER: from the spans, or from ``extra`` for
    the ones a workload measures itself; metrics built from an unresolved
    span are left out."""
    spans = tracer.spans
    n = len(spans)
    dur = np.array([s[END] - s[START] for s in spans]) if n else np.zeros(0)
    child = np.zeros(n)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    self_t = dur - child

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def dur_sum(ids):
        return float(dur[ids].sum())

    def total(name):
        return dur_sum(idx(name))

    def self_total(name):
        return float(self_t[idx(name)].sum())

    def metas(name):
        return [spans[i][META] for i in idx(name)]

    m: dict[str, float] = {}
    m["data.load_s"] = total("data.load")
    m["data.bytes_read"] = sum(metas("data.load"))

    draws = metas("linalg.bernoulli")
    n_draws = sum(d[0] for d in draws)
    m["linalg.bernoulli.calls"] = len(draws)
    m["linalg.bernoulli.self_s"] = self_total("linalg.bernoulli")
    m["linalg.bernoulli.draws"] = n_draws
    m["linalg.bernoulli.useful_ratio"] = sum(d[1] for d in draws) / n_draws if n_draws else 0.0

    for kern in ("gate_act", "act_grad", "mask_score"):
        name = f"kernels.{kern}"
        m[f"{name}.calls"] = len(idx(name))
        m[f"{name}.self_s"] = self_total(name)
        m[f"{name}.bytes"] = sum(metas(name))

    fwd = idx("network.forward")
    layer_macs = np.zeros(MAX_WEIGHT_LAYERS)
    for i in fwd:
        rows, dims = spans[i][META]
        macs = _macs(rows, dims)
        layer_macs[: len(macs)] += macs
    fwd_self = self_total("network.forward")
    m["network.forward.calls"] = len(fwd)
    m["network.forward.rows"] = sum(spans[i][META][0] for i in fwd)
    m["network.forward.self_s"] = fwd_self
    m["network.forward.macs"] = int(layer_macs.sum())
    for i in range(MAX_WEIGHT_LAYERS):
        m[f"network.forward.macs.l{i}"] = int(layer_macs[i])
    m["network.forward.gflops"] = layer_macs.sum() / fwd_self / 1e9 if fwd_self > 0 else 0.0

    bwd_macs = 0
    for rows, dims in metas("network.backward"):
        macs = _macs(rows, dims)
        bwd_macs += 2 * sum(macs) - macs[0]  # weight grads everywhere, deltas below layer 0
    m["network.backward.calls"] = len(idx("network.backward"))
    m["network.backward.self_s"] = self_total("network.backward")
    m["network.backward.macs"] = bwd_macs

    def parent_name(i):
        p = spans[i][PARENT]
        return spans[p][NAME] if p >= 0 else ""

    m["retention.sample_block.calls"] = len(idx("retention.sample_block"))
    m["retention.sample_block.self_s"] = self_total("retention.sample_block")
    m["retention.update.calls"] = len(idx("retention.update"))
    m["retention.update.self_s"] = self_total("retention.update")
    m["retention.update.forward_macs"] = sum(
        sum(_macs(*spans[i][META])) for i in fwd if parent_name(i) == "retention.update"
    )
    fractions = metas("trainer.epoch_end")
    for k in range(EPOCHS):
        m[f"retention.active_fraction.e{k}"] = fractions[k] if k < len(fractions) else 0.0
    deltas = metas("retention.update")
    m["retention.clamped"] = sum(d[0] for d in deltas)
    m["retention.floored"] = sum(d[1] for d in deltas)

    # phases partition the (last) run_training span by time containment
    runs = idx("trainer.run_training")
    run_s, phases = 0.0, {}
    if runs:
        r = spans[runs[-1]]
        run_s = r[END] - r[START]

        def inside(name):
            return [i for i in idx(name) if spans[i][START] >= r[START] and spans[i][END] <= r[END]]

        fwd_in_bwd = [i for i in inside("network.forward") if parent_name(i) == "network.backward"]
        phases["forward"] = dur_sum(fwd_in_bwd)
        phases["mask_sampling"] = dur_sum(inside("retention.sample_block"))
        phases["backward"] = dur_sum(inside("network.backward")) - phases["forward"]
        phases["sgd_step"] = dur_sum(inside("trainer.sgd_step"))
        phases["retention_sweep"] = dur_sum(inside("retention.update"))
        phases["prune"] = dur_sum(inside("compaction.prune"))
        phases["eval"] = dur_sum(inside("trainer.evaluate"))
        phases["other"] = run_s - sum(phases.values())
        epochs = [spans[i][START] for i in inside("trainer.weights_epoch")] + [r[END]]
    else:
        epochs = []
    for ph in ("mask_sampling", "forward", "backward", "sgd_step", "retention_sweep",
               "prune", "eval", "other"):
        m[f"phase.{ph}_s"] = phases.get(ph, 0.0)
    m["trainer.run_training_s"] = run_s
    for k in range(EPOCHS):
        m[f"trainer.epoch_s.e{k}"] = epochs[k + 1] - epochs[k] if k + 1 < len(epochs) else 0.0

    m["trainer.sgd_step.calls"] = len(idx("trainer.sgd_step"))
    m["trainer.sgd_step.bytes"] = sum(metas("trainer.sgd_step"))
    m["trainer.evaluate.calls"] = len(idx("trainer.evaluate"))
    m["trainer.evaluate.self_s"] = self_total("trainer.evaluate")

    kept = metas("compaction.prune")
    m["compaction.prune.calls"] = len(kept)
    m["compaction.prune.self_s"] = self_total("compaction.prune")
    for i in range(1, MAX_HIDDEN + 1):
        m[f"compaction.units_kept.l{i}"] = kept[-1][i - 1] if kept and i <= len(kept[-1]) else 0

    m["checkpoint.save.calls"] = len(idx("checkpoint.save"))
    m["checkpoint.save.s"] = total("checkpoint.save")
    m["checkpoint.save.bytes"] = sum(metas("checkpoint.save"))
    m["checkpoint.load.calls"] = len(idx("checkpoint.load"))
    m["checkpoint.load.s"] = total("checkpoint.load")

    cli = idx("cli.main")
    cli_s = total("cli.main")
    m["cli.train_s"] = cli_s
    covered = sum(
        dur[i] for i in range(n)
        if spans[i][NAME] in ("trainer.run_training", "data.load", "checkpoint.save")
        and spans[i][PARENT] in cli
    )
    m["cli.other_s"] = cli_s - covered if cli else 0.0

    m["trace.spans"] = n
    m.update(extra)

    gone = set(unresolved_spans)
    out = {}
    for name, *_ in PER_LAYER:
        needs = next((spans_ for prefix, spans_ in DEPENDS if name.startswith(prefix)), ())
        if gone.intersection(needs):
            continue
        out[name] = float(m[name])
    return out
