"""Versioned binary checkpoint container.

Layout: 4-byte magic, little-endian uint32 version and header length, a
canonical JSON header (sorted keys, no whitespace) describing config,
bookkeeping and the array manifest, then each array as raw little-endian
float64 bytes in manifest order, which ``_array_names`` fixes: each
layer's weight matrix and bias in turn, then every retention vector.
Canonical encoding makes save -> load -> save byte-identical, and the
loader refuses a header that save would not write: a ``format_version``
other than FORMAT_VERSION, a missing field or one of another JSON type
(true and false are not integers), a key that save does not write, in
the header or in an array entry, array names or an order other than
those of ``len(layer_dims) - 1`` layers, and a ``layer_dims`` other than
the arrays' widths.

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
from dataclasses import dataclass, field, fields

import numpy as np

from .network import MlpParams
from .retention import RetentionParams

MAGIC = b"DCPK"
FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """Container is malformed or has an unsupported version."""


# header fields and their JSON types
_HEADER_FIELDS = {
    "format_version": int,
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


def _array_names(n_layers: int) -> list[str]:
    """Names of a net's arrays in payload order."""
    pairs = [name for i in range(n_layers) for name in (f"weight_{i}", f"bias_{i}")]
    return pairs + [f"retention_{i}" for i in range(n_layers)]


def save_checkpoint(path: str, ckpt: Checkpoint) -> None:
    params = ckpt.params
    payloads = [a for pair in zip(params.weights, params.biases) for a in pair]
    arrays = list(zip(_array_names(params.n_layers), payloads + ckpt.pi.layers, strict=True))
    header = {
        "format_version": FORMAT_VERSION,
        "layer_dims": list(params.layer_dims),
        "hidden_activations": list(params.hidden_activations),
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


def _is_dims(v) -> bool:
    """Whether v is a JSON list of non-negative integers (not true or false)."""
    return type(v) is list and all(type(d) is int and d >= 0 for d in v)


def _parse_header(blob: bytes) -> tuple[dict, list[tuple[str, tuple[int, ...]]]]:
    """Decode the JSON header and check it against the schema that
    save_checkpoint writes; returns it and the array manifest."""
    try:
        header = json.loads(blob.decode("utf-8"))
    except ValueError as e:  # UnicodeDecodeError and JSONDecodeError
        raise CheckpointError(f"corrupt checkpoint header: {e}") from e
    if type(header) is not dict:
        raise CheckpointError("checkpoint header is not a JSON object")
    unknown = sorted(header.keys() - _HEADER_FIELDS.keys())
    if unknown:
        raise CheckpointError(f"unknown checkpoint header fields {unknown}")
    for key, kind in _HEADER_FIELDS.items():
        if type(header.get(key)) is not kind:
            raise CheckpointError(
                f"checkpoint header field {key!r} missing or not a {kind.__name__}"
            )
    if header["format_version"] != FORMAT_VERSION:
        raise CheckpointError(f"checkpoint header format_version"
                              f" {header['format_version']} is not {FORMAT_VERSION}")
    dims = header["layer_dims"]
    if not _is_dims(dims):
        raise CheckpointError(f"checkpoint layer_dims {dims!r} are not widths")
    manifest = []
    for entry in header["arrays"]:
        if not (type(entry) is dict and entry.keys() == {"name", "shape"}
                and _is_dims(entry["shape"])):
            raise CheckpointError(f"bad array entry {entry!r} in checkpoint header")
        manifest.append((entry["name"], tuple(entry["shape"])))
    got, names = [name for name, _ in manifest], _array_names(len(dims) - 1)
    if got != names:
        raise CheckpointError(f"checkpoint arrays {got} are not {names} of layer_dims {dims}")
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
            arrays = []
            for name, shape in manifest:
                what = f"payload for array {name}"
                check_left(8 * math.prod(shape), what)
                try:
                    a = np.empty(shape, dtype="<f8")
                except ValueError as e:  # e.g. a zero dimension beside a huge one
                    raise CheckpointError(f"bad shape {list(shape)} for array {name}: {e}") from e
                if f.readinto(a) != a.nbytes:
                    raise CheckpointError(f"truncated {what}")
                arrays.append(a)
            if f.read(1):
                raise CheckpointError("trailing bytes after checkpoint payload")
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e

    # the names are _array_names(n): n weight and bias pairs, then n retentions
    dims = header["layer_dims"]
    n = len(dims) - 1
    try:
        params = MlpParams(arrays[0:2 * n:2], arrays[1:2 * n:2],
                           tuple(header["hidden_activations"]))
        params.validate()
        if dims != list(params.layer_dims):
            raise ValueError(f"layer_dims {dims} vs array widths {list(params.layer_dims)}")
        pi = RetentionParams(arrays[2 * n:])
        pi.validate(params)
    except ValueError as e:
        raise CheckpointError(f"inconsistent checkpoint contents: {e}") from e
    own = {f.name for f in fields(Checkpoint)}
    return Checkpoint(params, pi, **{k: header[k] for k in _HEADER_FIELDS if k in own})
