"""Machine facts recorded with every result.

Two results are only compared when every fact in ``COMPARED`` matches; the
commit and the source digest identify the code under test and are expected
to differ between the two sides of a comparison.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform

import numpy as np

COMPARED = ("nproc", "blas_vendor", "blas_version", "blas_threads", "numpy", "python", "backend")


def _openblas_threads() -> int:
    """Thread count of the OpenBLAS numpy was built with; -1 if not found."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return -1


def _git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def _source_digest(root: str) -> str:
    """sha256 over the package sources, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "dropcompact", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def machine_facts(root: str, backend: str) -> dict:
    """backend: ``kernels.backend_name()`` of the package under test."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas_vendor": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _openblas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "backend": backend,
        "git_commit": _git_commit(root),
        "src_sha256": _source_digest(root),
    }


def mismatches(a: dict, b: dict) -> list[str]:
    """Compared facts on which two results disagree, as readable lines."""
    return [f"{k}: {a.get(k)!r} != {b.get(k)!r}" for k in COMPARED if a.get(k) != b.get(k)]
