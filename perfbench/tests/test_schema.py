"""Shape of the benchmark's output and of BENCHMARK.json; never timings.

The workloads run here on small inputs (``TINY``) so the whole file takes
well under a minute; the metric names, units and checks are the same as in
a full run.
"""

import json
import math
import os
import re

import numpy as np
import pytest

import compare
import run
import spec
import tracer as tr
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

TINY_SERVE = {
    "serve-b1": workloads.ServeSizes((784, 100, 100, 10), 1, pool_rows=64),
    "serve-b128": workloads.ServeSizes((544, 64, 64, 64, 64, 250), 128, pool_rows=512),
}


def _tiny_train_config(tmp_path) -> str:
    """The workload's config on 1200 train / 300 dev examples, with steps large
    enough that the net beats chance and units get pruned within 4 epochs."""
    with open(workloads.TRAIN_CONFIG) as f:
        text = f.read()
    for key, value in (("dev_size", "300"), ("retention_lr", "2e-4"), ("lr", "0.02"),
                       ("batch_size", "32")):
        text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
    path = tmp_path / "tiny.ini"
    path.write_text(text)
    return str(path)


def _run(tmp_path, capsys, workload, trace, seed=3):
    root = tmp_path / "checkout"
    root.mkdir()
    os.symlink(os.path.join(ROOT, "src"), root / "src")
    if workload == "train-compaction":
        # 68% test error on this little data; chance is 90%
        sizes = workloads.TrainSizes(1500, 300, _tiny_train_config(tmp_path), 80.0)
    else:
        sizes = TINY_SERVE[workload]
    cwd = os.getcwd()
    os.chdir(root)
    try:
        code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                         "--trace", str(trace)], sizes=sizes)
    finally:
        os.chdir(cwd)
    out = capsys.readouterr().out
    assert code == 0
    assert not (root / run.WORK_DIR / f"{workload}-s{seed}-t{trace}").exists()
    return out, json.loads(out.strip().splitlines()[-1])


def test_benchmark_json_is_the_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        assert json.load(f) == spec.benchmark_json()


def test_benchmark_json_within_the_contract_limits():
    doc = spec.benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert 1 <= doc["run_seconds"] <= 60
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert len(json.dumps(doc)) <= 64 * 1024


def test_every_per_layer_metric_names_what_it_should_move():
    for name, _, _, target in spec.PER_LAYER:
        assert target, name


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_untraced_output(tmp_path, capsys, workload):
    out, result = _run(tmp_path, capsys, workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    want = {n: u for n, u, _, _ in spec.END_TO_END}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == want
    for m in result["metrics"].values():
        assert math.isfinite(m["value"]) and m["value"] > 0
    # the issue-facing names, each with its value, on the lines before the result
    printed = ["setup_s", "peak_rss_mb", "ops_failed_ratio"]
    printed += list(spec.ISSUE_NAMES[workload].values())
    if workload == "train-compaction":
        printed += ["train.final_test_err_pct", "train.final_weights", "train.metrics_sha256"]
    else:
        printed += ["serve.identity_max_abs", "serve.latency_tail_ms"]
    for name in printed:
        assert re.search(rf"(?m)^{re.escape(name)}\b.* = ", out), name


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_traced_output(tmp_path, capsys, workload):
    out, result = _run(tmp_path, capsys, workload, trace=1)
    assert result["correct"] is True
    want = {n: u for n, u, _, _ in spec.PER_LAYER}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == want
    m = {n: v["value"] for n, v in result["metrics"].items()}
    assert all(math.isfinite(v) for v in m.values())
    assert m["trace.spans"] > 0 and m["network.forward.calls"] > 0
    if workload == "train-compaction":
        phases = sum(v for n, v in m.items() if n.startswith("phase."))
        assert phases == pytest.approx(m["trainer.run_training_s"], rel=1e-9)
        assert m["compaction.prune.calls"] >= 1 and m["linalg.bernoulli.draws"] > 0
        assert m["retention.update.forward_macs"] > 0
    else:
        assert m["linalg.bernoulli.calls"] == 0 and m["trainer.sgd_step.calls"] == 0
        assert m["compaction.measured_speedup"] > 0 and m["checkpoint.load.calls"] == 1
        assert m["compaction.flop_ratio"] > 1


def test_perturbed_child_is_a_counted_failure(tmp_path):
    sizes = TINY_SERVE["serve-b1"]
    parent, pi, child, child_pi = workloads.build_pair(sizes.parent, 4, str(tmp_path))
    requests = workloads.make_requests(sizes.parent, sizes, 4)
    ok = workloads.Outcome()
    workloads.identity_check(parent, pi, child, child_pi, requests, ok)
    assert ok.attempted > 0 and ok.failed == 0
    # a weight of the logit layer fed by a unit the first request activates
    from dropcompact import network
    h = network.forward_batch(child, requests[0][0], list(child_pi)).activations[-1]
    child.weights[-1][0, int(np.argmax(h[0]))] += 1e-3
    bad = workloads.Outcome()
    workloads.identity_check(parent, pi, child, child_pi, requests, bad)
    assert bad.attempted == ok.attempted and bad.failed > 0


def test_unresolved_hook_is_named_and_its_metrics_left_out():
    t = tr.Tracer()
    hooks = tr.HOOKS + [tr.Hook("dropcompact.kernels:no_such_kernel", "kernels.gate_act")]
    restore, unresolved = tr.install(t, hooks)
    try:
        from dropcompact import network
        params = network.init_mlp((4, 3, 2), "relu", 0)
        network.forward_batch(params, np.ones((2, 4)), [None, None])
    finally:
        restore()
    assert [h.target for h in unresolved] == ["dropcompact.kernels:no_such_kernel"]
    metrics = tr.per_layer(t, dict.fromkeys(tr.EXTRA, 1.0), {h.span for h in unresolved})
    assert not any(n.startswith("kernels.gate_act") for n in metrics)
    assert metrics["network.forward.calls"] == 1


def test_compare_refuses_results_from_another_machine(tmp_path, capsys):
    base = {"workload": "serve-b1", "trace": 0, "metrics": {"setup_s": {"value": 1.0}},
            "facts": {k: 1 for k in ("nproc", "blas_vendor", "blas_version", "blas_threads",
                                     "numpy", "python", "backend", "src_sha256")}}
    other = json.loads(json.dumps(base))
    other["facts"]["nproc"] = 8
    paths = []
    for i, doc in enumerate((base, other)):
        paths.append(str(tmp_path / f"r{i}.json"))
        with open(paths[-1], "w") as f:
            json.dump(doc, f)
    assert compare.main(["--base", paths[0], "--head", paths[0]]) == 0
    assert compare.main(["--base", paths[0], "--head", paths[1]]) == 3
    assert "nproc" in capsys.readouterr().err
