"""Summarise or compare result files written by run.py.

    python3 perfbench/compare.py --summary .perfbench_out/*.json
    python3 perfbench/compare.py --base base/*.json --head head/*.json

Results are grouped by workload and trace mode; each metric is given as its
median and quartiles over the files. Files whose machine facts differ
(``facts.COMPARED``) are refused with exit code 3: numbers are only
compared when they come from the same kind of box.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from facts import COMPARED, mismatches


def load(paths: list[str]) -> list[dict]:
    results = []
    for path in paths:
        if path.endswith("-spans.json.gz"):
            continue
        with open(path) as f:
            results.append(json.load(f))
    return results


def refuse_mixed_facts(results: list[dict]) -> list[str]:
    """Mismatch lines between the first result's facts and any other's."""
    first = results[0]["facts"]
    return [line for r in results[1:] for line in mismatches(first, r["facts"])]


def summarise(results: list[dict]) -> dict:
    groups: dict[str, dict[str, list[float]]] = {}
    for r in results:
        key = f"{r['workload']}/trace{r['trace']}"
        for name, m in r["metrics"].items():
            groups.setdefault(key, {}).setdefault(name, []).append(m["value"])
    out = {}
    for key, metrics in sorted(groups.items()):
        out[key] = {}
        for name, values in metrics.items():
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            out[key][name] = {"median": med, "q1": q1, "q3": q3, "n": len(values)}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--summary", nargs="+")
    p.add_argument("--base", nargs="+")
    p.add_argument("--head", nargs="+")
    args = p.parse_args(argv)
    if not args.summary and not (args.base and args.head):
        p.error("give --summary FILES, or --base FILES and --head FILES")

    base = load(args.summary or args.base)
    head = load(args.head) if args.head else []
    problems = refuse_mixed_facts(base + head)
    if problems:
        print("refused: results come from different machines:\n  " + "\n  ".join(problems),
              file=sys.stderr)
        return 3
    facts = {k: base[0]["facts"][k] for k in COMPARED}
    facts["src_sha256"] = sorted({r["facts"]["src_sha256"] for r in base})
    if args.summary:
        print(json.dumps({"facts": facts, "results": summarise(base)}, indent=1))
        return 0

    b, h = summarise(base), summarise(head)
    print(f"{'workload':<28} {'metric':<34} {'base':>12} {'head':>12} {'change':>8}"
          f" {'base IQR':>9}")
    for key in sorted(set(b) & set(h)):
        for name in b[key]:
            if name not in h[key]:
                continue
            bm, hm = b[key][name]["median"], h[key][name]["median"]
            change = f"{100 * (hm - bm) / bm:+.1f}%" if bm else "n/a"
            iqr = f"{100 * (b[key][name]['q3'] - b[key][name]['q1']) / bm:.1f}%" if bm else "n/a"
            print(f"{key:<28} {name:<34} {bm:>12.5g} {hm:>12.5g} {change:>8} {iqr:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
