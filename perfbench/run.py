"""Run one workload of the benchmark and print its result.

    python3 perfbench/run.py --workload serve-b1 --seed 1 --seconds 25 --trace 0

Run from the repository root: the package is imported from ``src/``. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; with ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones
(see ``spec.py``). The lines before it repeat the metrics with their
units under the issue-facing names, together with the machine facts. The
full result, with the facts and details, is written to
``.perfbench_out/<workload>-s<seed>-t<trace>.json`` (and the spans of a
traced run to ``...-spans.json.gz``); ``compare.py`` reads those files.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import shutil
import sys

WORKLOAD_NAMES = ("train-compaction", "serve-b1", "serve-b128")
OUT_DIR = ".perfbench_out"
WORK_DIR = ".perfbench_work"


def _cap_threads() -> None:
    """One process, no threads beyond OpenBLAS's own, capped at the core count.
    Must run before numpy is imported."""
    n = str(os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n


def main(argv=None, sizes=None) -> int:
    """sizes: smaller workload inputs, for the benchmark's own tests."""
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dropcompact", "__init__.py")):
        print(f"perfbench: no src/dropcompact under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    _cap_threads()
    sys.path.insert(0, os.path.join(root, "src"))

    # imported here: numpy must see the thread caps, and dropcompact the path
    import spec
    import tracer as tr
    import workloads
    from dropcompact import kernels
    from facts import machine_facts

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = os.path.join(root, WORK_DIR, tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    tracer = tr.Tracer() if args.trace else None
    try:
        outcome = workloads.run(args.workload, root, work, args.seed, args.seconds, tracer,
                                sizes)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if tracer is None:
        units = {n: u for n, u, _, _ in spec.END_TO_END}
        metrics = {n: outcome.metrics[n] for n in units}
        names = spec.ISSUE_NAMES[args.workload]
    else:
        unresolved = outcome.info.get("unresolved", [])
        gone = {h.span for h in tr.HOOKS if h.target in unresolved}
        metrics = tr.per_layer(tracer, outcome.extra, gone)
        units = {n: u for n, u, _, _ in spec.PER_LAYER}
        names = {}
        for target in unresolved:
            print(f"unresolved hook: {target} (its metrics are left out)")
    facts = machine_facts(root, kernels.backend_name())

    print(f"# {args.workload} seed={args.seed} trace={args.trace} facts={json.dumps(facts)}")
    for name, value in metrics.items():
        label = f"{names[name]} ({name})" if name in names else name
        print(f"{label} = {value!r} {units[name]}")
    for name, value in outcome.info.items():
        print(f"{name} = {json.dumps(value)}")
    print(f"ops_failed_ratio = {outcome.failed / max(outcome.attempted, 1)!r}"
          f" ({outcome.failed} of {outcome.attempted} attempted)")

    result = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    with open(os.path.join(root, OUT_DIR, f"{tag}.json"), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "facts": facts, "info": outcome.info, **result}, f, indent=1)
    if tracer is not None:
        with gzip.open(os.path.join(root, OUT_DIR, f"{tag}-spans.json.gz"), "wt") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "meta"],
                       "spans": tracer.spans}, f, default=str)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
