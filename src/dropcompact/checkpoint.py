"""Versioned binary checkpoint container.

Layout: 4-byte magic, little-endian uint32 version and header length, a
canonical JSON header (sorted keys, no whitespace) describing config,
bookkeeping and the array manifest, then each array as raw little-endian
float64 bytes in manifest order. Canonical encoding makes
save -> load -> save byte-identical.

Payloads move between file and array without a copy of their bytes:
``save_checkpoint`` writes each array's own buffer, and ``load_checkpoint``
reads each payload straight into the array it returns. That array is
allocated only after its length has been checked against the bytes left
in the file, so a corrupt length never sizes a buffer.
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .network import MlpParams
from .retention import RetentionParams

MAGIC = b"DCPK"
FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """Container is malformed or has an unsupported version."""


# header fields and their JSON types
_HEADER_FIELDS = {
    "layer_dims": list,
    "hidden_activations": list,
    "config": dict,
    "seed": int,
    "epoch": int,
    "arrays": list,
    "best_metrics": dict,
    "compaction_history": list,
}


@contextmanager
def atomic_open(path: str, mode: str = "w", **kwargs):
    """open(path, mode) for writing, where path changes only if the block
    completes: the data goes to a temporary file in the same directory,
    which replaces path on success and is removed on any error."""
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


@dataclass
class Checkpoint:
    params: MlpParams
    pi: RetentionParams
    config: dict
    seed: int
    epoch: int
    best_metrics: dict = field(default_factory=dict)
    compaction_history: list = field(default_factory=list)


def _manifest(ckpt: Checkpoint) -> list[tuple[str, np.ndarray]]:
    arrays = []
    for i, (w, b) in enumerate(zip(ckpt.params.weights, ckpt.params.biases)):
        arrays.append((f"weight_{i}", w))
        arrays.append((f"bias_{i}", b))
    for layer, v in enumerate(ckpt.pi.layers):
        arrays.append((f"retention_{layer}", v))
    return arrays


def save_checkpoint(path: str, ckpt: Checkpoint) -> None:
    arrays = _manifest(ckpt)
    header = {
        "format_version": FORMAT_VERSION,
        "layer_dims": list(ckpt.params.layer_dims),
        "hidden_activations": list(ckpt.params.hidden_activations),
        "config": ckpt.config,
        "seed": int(ckpt.seed),
        "epoch": int(ckpt.epoch),
        "best_metrics": ckpt.best_metrics,
        "compaction_history": ckpt.compaction_history,
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", FORMAT_VERSION, len(blob)))
        f.write(blob)
        for _, a in arrays:
            f.write(memoryview(np.ascontiguousarray(a, dtype="<f8")))


def _parse_header(blob: bytes) -> tuple[dict, list[tuple[str, tuple[int, ...]]]]:
    """Decode and type-check the JSON header; returns it and the array manifest."""
    try:
        header = json.loads(blob.decode("utf-8"))
    except ValueError as e:  # UnicodeDecodeError and JSONDecodeError
        raise CheckpointError(f"corrupt checkpoint header: {e}") from e
    if not isinstance(header, dict):
        raise CheckpointError("checkpoint header is not a JSON object")
    for key, kind in _HEADER_FIELDS.items():
        if not isinstance(header.get(key), kind):
            raise CheckpointError(
                f"checkpoint header field {key!r} missing or not a {kind.__name__}"
            )
    manifest = []
    for entry in header["arrays"]:
        shape = entry.get("shape") if isinstance(entry, dict) else None
        if not (
            isinstance(shape, list)
            and all(isinstance(d, int) and d >= 0 for d in shape)
            and isinstance(entry.get("name"), str)
        ):
            raise CheckpointError(f"bad array entry {entry!r} in checkpoint header")
        manifest.append((entry["name"], tuple(shape)))
    return header, manifest


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint; a path that cannot be opened or read, and malformed
    content of any kind, raise CheckpointError."""
    try:
        with open(path, "rb") as f:
            size = os.fstat(f.fileno()).st_size

            def check_left(n: int, what: str) -> None:
                # checked before reading so a corrupt length never sizes a buffer
                if n > size - f.tell():
                    raise CheckpointError(f"truncated {what}")

            def take(n: int, what: str) -> bytes:
                check_left(n, what)
                return f.read(n)

            magic = f.read(4)
            if magic != MAGIC:
                raise CheckpointError(f"bad checkpoint magic {magic!r}")
            version, hlen = struct.unpack("<II", take(8, "container header"))
            if version != FORMAT_VERSION:
                raise CheckpointError(
                    f"checkpoint version {version} unsupported (expected {FORMAT_VERSION})"
                )
            header, manifest = _parse_header(take(hlen, "checkpoint header"))
            arrays = {}
            for name, shape in manifest:
                what = f"payload for array {name}"
                check_left(8 * math.prod(shape), what)
                try:
                    a = np.empty(shape, dtype="<f8")
                except ValueError as e:  # e.g. a zero dimension beside a huge one
                    raise CheckpointError(f"bad shape {list(shape)} for array {name}: {e}") from e
                if f.readinto(a) != a.nbytes:
                    raise CheckpointError(f"truncated {what}")
                arrays[name] = a
            if f.read(1):
                raise CheckpointError("trailing bytes after checkpoint payload")
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e

    try:
        n_layers = len(header["layer_dims"]) - 1
        params = MlpParams(
            [arrays[f"weight_{i}"] for i in range(n_layers)],
            [arrays[f"bias_{i}"] for i in range(n_layers)],
            tuple(header["hidden_activations"]),
        )
        params.validate()
        pi = RetentionParams([arrays[f"retention_{layer}"] for layer in range(n_layers)])
        pi.validate(params)
    except (KeyError, ValueError) as e:
        raise CheckpointError(f"inconsistent checkpoint contents: {e}") from e
    return Checkpoint(
        params=params,
        pi=pi,
        config=header["config"],
        seed=header["seed"],
        epoch=header["epoch"],
        best_metrics=header["best_metrics"],
        compaction_history=header["compaction_history"],
    )
