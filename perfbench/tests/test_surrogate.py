"""The benchmark trains on the same surrogate acceptance criterion 2 uses."""

import importlib.util
import os

import numpy as np

from dropcompact.data import load_mnist_dir
from surrogate import make_teacher_dataset, write_mnist_dir

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _repo_generator():
    spec = importlib.util.spec_from_file_location(
        "repo_tests_conftest", os.path.join(ROOT, "tests", "conftest.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.make_teacher_dataset


def test_arrays_byte_identical_to_the_test_suite_generator():
    reference = _repo_generator()
    for seed in (0, 5):
        want = reference(300, seed=seed)
        got = make_teacher_dataset(300, seed=seed)
        assert got.inputs.tobytes() == want.inputs.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()
        assert got.num_classes == want.num_classes


def test_idx_files_hold_the_generated_arrays(tmp_path):
    write_mnist_dir(str(tmp_path), seed=2, n_train=200, n_test=50)
    loaded = load_mnist_dir(str(tmp_path))
    ds = make_teacher_dataset(250, seed=2)
    assert loaded.inputs.tobytes() == ds.inputs.tobytes()
    assert np.array_equal(loaded.labels, ds.labels)
    assert loaded.count("train") == 200 and loaded.count("test") == 50
