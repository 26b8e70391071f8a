#!/usr/bin/env python3
"""Sensitivity test: an injected slowdown shows where it should, and only there.

Run from the root of a source checkout (takes about seven minutes):

    python3 perfbench/test_sensitivity.py

Failpoints are armed through the public Rp_fault API (perfbench.exe
--fault SITE:DELAY_US:EVERY, which calls Rp_fault.arm with a Delay
action and an Every trigger):

1. rp_ht.expand.pre, on resize-lookup (in process): every expansion
   sleeps first. writes_s (resizes per second) must get worse by more
   than its bound; ops_s (lookups per second) must not get worse by more
   than its bound, because readers never wait for a resize.
2. rp_ht.stripe.lock, in the server, on every second evaluation: the
   writer lock slows down. On write-evict, write_p50_us must get worse
   by more than its bound while read_p50_us stays within its bound:
   each GET there is its own round trip and never waits for the writer
   lock.

   read_p50_us on read-zipf is measured and printed but not asserted.
   read-zipf pipelines 16 requests per write and the server answers a
   batch with one write, so a delayed SET holds back every GET batched
   with it; a third or more of the batches carry a delayed SET whenever
   enough SETs are delayed to move write-evict's median. GET latency on
   read-zipf therefore moves with this fault too.

The memcached runs on both sides of a comparison go through
`perfbench.exe serve` (the shipped server binary cannot arm a
failpoint), so the two sides differ only in the armed site. Each side
is the median of SEEDS runs. Exits 1 when an asserted check fails.
"""

import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEEDS = [101, 102, 103]
SECONDS = 5


def measure(exe, workload, fault):
    values = {}
    for seed in SEEDS:
        cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(SECONDS),
               "--trace", "0", "--out", run.OUT_DIR]
        if workload != "resize-lookup":
            cmd.append("--serve-self")
        if fault:
            cmd += ["--fault", fault]
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        if p.returncode != 0:
            sys.exit(f"{' '.join(cmd)} failed:\n{p.stdout}{p.stderr}")
        report = json.loads(p.stdout.splitlines()[-1])
        if not report["correct"]:
            sys.exit(f"{' '.join(cmd)} reported incorrect results: {report}")
        for k, v in report["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    return {k: statistics.median(v) for k, v in values.items()}


def main():
    exe = os.path.join(run.build(), "perfbench", "perfbench.exe")
    os.makedirs(run.OUT_DIR, exist_ok=True)
    with open("BENCHMARK.json") as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}

    def worse_by(name, base, faulted):
        """How much worse the faulted median is, as a share of the base."""
        change = (faulted[name] - base[name]) / base[name]
        return -change if spec[name]["better"] == "higher" else change

    failures = []

    def expect(workload, name, base, faulted, moves):
        """moves: True/False is asserted; None only reports."""
        w = worse_by(name, base, faulted)
        bound = spec[name]["bound"]
        if moves is None:
            verdict = "measured only"
        else:
            ok = w > bound if moves else w <= bound
            verdict = f"expect it {'moves' if moves else 'holds'}: {'ok' if ok else 'FAIL'}"
            if not ok:
                failures.append((workload, name))
        print(f"{workload:14s} {name:14s} {base[name]:12.3f} -> {faulted[name]:12.3f}"
              f"  worse by {w:+.3f} (bound {bound}, {verdict})", flush=True)

    base = measure(exe, "resize-lookup", None)
    faulted = measure(exe, "resize-lookup", "rp_ht.expand.pre:5000:1")
    expect("resize-lookup", "writes_s", base, faulted, moves=True)
    expect("resize-lookup", "ops_s", base, faulted, moves=False)

    stripe = "rp_ht.stripe.lock:200:2"
    base = measure(exe, "write-evict", None)
    faulted = measure(exe, "write-evict", stripe)
    expect("write-evict", "write_p50_us", base, faulted, moves=True)
    expect("write-evict", "read_p50_us", base, faulted, moves=False)
    base = measure(exe, "read-zipf", None)
    faulted = measure(exe, "read-zipf", stripe)
    expect("read-zipf", "read_p50_us", base, faulted, moves=None)

    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
