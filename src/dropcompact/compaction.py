"""Structural surgery on trained networks.

Pruning deletes whole units (matrix rows plus the matching downstream
columns), absorption folds retention scaling into the next layer's
weights, and the SVD path replaces a hidden-to-hidden matrix with a
rank-k linear bottleneck pair. Weight counts exclude biases throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import MlpParams
from .retention import RetentionParams


class EmptyLayerError(RuntimeError):
    """Pruning would remove every unit of a hidden layer."""


@dataclass
class CompactionReport:
    kept: list[int]
    removed: list[int]
    weights_before: int
    weights_after: int
    kept_indices: list[np.ndarray]

    @property
    def compression_ratio(self) -> float:
        """Original weights per remaining weight (>= 1 after pruning)."""
        return self.weights_before / self.weights_after

    def summary(self) -> str:
        layers = ", ".join(
            f"L{i + 1}: kept {k} removed {r}"
            for i, (k, r) in enumerate(zip(self.kept, self.removed))
        )
        return (
            f"{layers}; weights {self.weights_before} -> {self.weights_after}"
            f" ({self.compression_ratio:.2f}x)"
        )


def count_weights(params: MlpParams) -> int:
    """Total weight-matrix entries; biases excluded by convention."""
    return int(sum(w.size for w in params.weights))


def slice_units(
    weights: list[np.ndarray], biases: list[np.ndarray], keep: list[np.ndarray]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The entries of the kept units: matrix i keeps rows keep[i + 1] and
    columns keep[i], bias i keeps entries keep[i + 1]. Works on parameters
    and on parameter-shaped state such as momentum velocity."""
    return (
        [w[np.ix_(keep[i + 1], keep[i])] for i, w in enumerate(weights)],
        [b[keep[i + 1]] for i, b in enumerate(biases)],
    )


def prune_units(
    params: MlpParams, pi: RetentionParams, threshold: float
) -> tuple[MlpParams, RetentionParams, CompactionReport]:
    """Remove hidden units whose retention probability is below threshold.

    Deletes the unit's weight row, bias entry, downstream weight columns
    and retention entry. Input and output layers are never pruned. Raises
    EmptyLayerError if a hidden layer would lose every unit.
    """
    if not 0.0 <= threshold < 1.0:
        raise ValueError(f"prune threshold {threshold} outside [0, 1)")
    pi.validate(params)
    dims = params.layer_dims
    n = params.n_layers

    keep: list[np.ndarray] = [np.arange(dims[0])]
    for layer in range(1, n):
        kept = np.flatnonzero(pi[layer] >= threshold)
        if kept.size == 0:
            raise EmptyLayerError(
                f"pruning at threshold {threshold} empties hidden layer {layer}"
            )
        keep.append(kept)
    keep.append(np.arange(dims[n]))  # output layer untouched

    weights, biases = slice_units(params.weights, params.biases, keep)
    pruned = MlpParams(weights, biases, tuple(params.hidden_activations))
    new_pi = RetentionParams([pi[layer][keep[layer]] for layer in range(n)])

    report = CompactionReport(
        kept=[int(keep[layer].size) for layer in range(1, n)],
        removed=[int(dims[layer] - keep[layer].size) for layer in range(1, n)],
        weights_before=count_weights(params),
        weights_after=count_weights(pruned),
        kept_indices=keep,
    )
    return pruned, new_pi, report


def _shared(a: np.ndarray) -> np.ndarray:
    """A read-only view of a: the result shares its memory, and a write
    through it raises instead of changing a."""
    view = a.view()
    view.flags.writeable = False
    return view


def _absorbed(w: np.ndarray, gate: np.ndarray | None) -> np.ndarray:
    """w with column u scaled by gate[u]; a read-only view of w for a None
    gate (retention exactly 1)."""
    return _shared(w) if gate is None else w * gate[None, :]


def absorb_retention(params: MlpParams, pi: RetentionParams) -> MlpParams:
    """Fold retention scaling into the consuming weight matrices.

    Column u of the matrix reading layer l is scaled by that layer's
    retention probability, so a plain all-ones forward pass reproduces the
    expectation-scaled one.

    Only what changes is copied. A matrix whose input layer's retention is
    exactly 1 (a ``None`` gate of ``pi.scaled_gates()``; x * 1.0 == x) and
    every bias are read-only views of ``params``' arrays; the other
    matrices are new arrays. To train the result in place, copy it first
    (``run_training`` does).
    """
    pi.validate(params)
    weights = [_absorbed(w, gate) for w, gate in zip(params.weights, pi.scaled_gates())]
    biases = [_shared(b) for b in params.biases]
    return MlpParams(weights, biases, tuple(params.hidden_activations))


def svd_compact(params: MlpParams, pi: RetentionParams, bottleneck) -> MlpParams:
    """Fold ``pi`` into the weights as ``absorb_retention`` does, and
    replace each hidden-to-hidden matrix by a rank-k linear bottleneck.

    ``bottleneck`` is a sequence with one rank per hidden-to-hidden
    matrix. Each matrix W, scaled only now, so that at most one scaled
    copy is alive, becomes the pair (sqrt(s) V^T, U sqrt(s)):
    a new zero-bias linear layer of width k followed by a layer carrying
    the original bias and activation. The result approximates the
    expectation-scaled original and is meant to be fine-tuned.

    The factors and the zero biases are new C-order arrays; every other
    matrix and bias is what ``absorb_retention`` would return. Copy the
    result before training it in place (``run_training`` does). The full
    u and vt of each SVD are deleted once its factors are built, so they
    do not stay alive beside the next scaled matrix and its SVD.
    """
    pi.validate(params)
    gates = pi.scaled_gates()
    n = params.n_layers
    targets = list(range(1, n - 1))  # matrices touching only hidden layers
    if not targets:
        raise ValueError("network has no hidden-to-hidden matrix to factorize")
    ranks = [int(k) for k in bottleneck]
    if len(ranks) != len(targets):
        raise ValueError(f"need {len(targets)} ranks, got {len(ranks)}")
    for i, k in zip(targets, ranks):
        lo = min(params.weights[i].shape)
        if not 1 <= k <= lo:
            raise ValueError(f"rank {k} out of range for matrix {i + 1} ({lo} max)")

    weights: list[np.ndarray] = []
    biases: list[np.ndarray] = []
    produced_acts: list[str | None] = []  # activation of each produced layer
    rank_of = dict(zip(targets, ranks))
    for i in range(n):
        act = params.hidden_activations[i] if i < n - 1 else None
        if i in rank_of:
            k = rank_of[i]
            u, s, vt = np.linalg.svd(_absorbed(params.weights[i], gates[i]), full_matrices=False)
            root = np.sqrt(s[:k])
            # (k, D_in) zero-bias linear factor; keep C-order for the trainer
            weights.append(np.ascontiguousarray(root[:, None] * vt[:k]))
            biases.append(np.zeros(k))
            produced_acts.append("linear")
            weights.append(np.ascontiguousarray(u[:, :k] * root[None, :]))  # (D_out, k)
            del u, vt  # the full factors go before the next matrix is scaled
            biases.append(_shared(params.biases[i]))
            produced_acts.append(act)
        else:
            weights.append(_absorbed(params.weights[i], gates[i]))
            biases.append(_shared(params.biases[i]))
            produced_acts.append(act)
    assert produced_acts[-1] is None
    out = MlpParams(weights, biases, tuple(produced_acts[:-1]))
    out.validate()
    return out
