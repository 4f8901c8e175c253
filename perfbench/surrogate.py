"""The teacher surrogate the train workload learns, written as MNIST IDX files.

``make_teacher_dataset`` is a copy of the generator in ``tests/conftest.py``
(the data acceptance criterion 2 trains on); ``perfbench/tests/test_surrogate.py``
checks that the two stay byte-identical. Run as a script it writes the
four IDX files; the train workload runs it in a child process, so the
generator's own memory peak stays out of the workload's ``peak_rss_mb``.

    PYTHONPATH=src python3 perfbench/surrogate.py --seed 1 --n-train 60000 --n-test 10000 --out DIR
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from dropcompact.data import (
    MNIST_FILES,
    Dataset,
    quantize_pixels,
    write_idx_images,
    write_idx_labels,
)
from dropcompact.linalg import rng_stream
from dropcompact.network import forward_batch, init_mlp


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


def write_mnist_dir(out: str, seed: int, n_train: int, n_test: int) -> None:
    """The first n_train rows become the train files, the rest the t10k files."""
    ds = make_teacher_dataset(n_train + n_test, seed=seed)
    pixels = quantize_pixels(ds.inputs)
    os.makedirs(out, exist_ok=True)
    for part, rows in (("train", slice(0, n_train)), ("test", slice(n_train, None))):
        write_idx_images(os.path.join(out, MNIST_FILES[f"{part}_images"]), pixels[rows])
        write_idx_labels(os.path.join(out, MNIST_FILES[f"{part}_labels"]), ds.labels[rows])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n-train", type=int, required=True)
    p.add_argument("--n-test", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    write_mnist_dir(args.out, args.seed, args.n_train, args.n_test)
    return 0


if __name__ == "__main__":
    sys.exit(main())
