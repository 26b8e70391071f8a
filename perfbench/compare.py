#!/usr/bin/env python3
"""Compare two sets of stamped benchmark results.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the lines perfbench/run.py appends to
.perfbench_out/results.jsonl. For every workload and end-to-end metric
it prints the median of each side, the change, and the spread of each
side (quartile distance over median), and flags a regression when the
new median is worse than the base median by more than the metric's
bound in BENCHMARK.json.

Results from different host shapes (nproc, CPU model, OCaml version)
are not comparable: the script refuses them and exits 2. It exits 1
when any metric regressed, else 0.
"""

import json
import statistics
import sys

SHAPE = ("nproc", "cpu_model", "ocaml")


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def shapes(records):
    return {tuple(r["host"][k] for k in SHAPE) for r in records}


def spread(values):
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else float("nan")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    seen = shapes(base) | shapes(new)
    if len(seen) != 1:
        print("refusing to compare results from different host shapes:", file=sys.stderr)
        for s in sorted(seen):
            print("  " + ", ".join(f"{k}={v}" for k, v in zip(SHAPE, s)), file=sys.stderr)
        sys.exit(2)
    with open("BENCHMARK.json") as f:
        metrics = json.load(f)["end_to_end"]
    regressed = False
    for workload in sorted({r["workload"] for r in base + new}):
        def values(records, name):
            return [r["report"]["metrics"][name]["value"] for r in records
                    if r["workload"] == workload and r["trace"] == 0]
        print(f"{workload}:")
        for m in metrics:
            b, n = values(base, m["name"]), values(new, m["name"])
            if not b or not n:
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            change = (mn - mb) / mb if mb else float("nan")
            worse = -change if m["better"] == "higher" else change
            flag = "REGRESSION" if worse > m["bound"] else ""
            regressed = regressed or bool(flag)
            print(f"  {m['name']:14s} {mb:14.4f} -> {mn:14.4f} {m['unit']:6s}"
                  f" {change:+8.2%} spread {spread(b):.3f}/{spread(n):.3f}"
                  f" (n={len(b)}/{len(n)}, bound {m['bound']}) {flag}")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
