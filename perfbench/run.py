#!/usr/bin/env python3
"""Benchmark entry point: build, run one workload, report one JSON line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload read-zipf --seed 1 --seconds 10 --trace 0

It builds bin/memcached_server.exe and perfbench/perfbench.exe with dune
into .bench_build, stamps the host (nproc, CPU model, OCaml version,
source revision, seed), runs perfbench.exe, checks that its report names
exactly the metrics BENCHMARK.json lists for the trace mode, appends the
stamped report to .perfbench_out/results.jsonl, and prints the report as
the last line of standard output. Any failure exits non-zero without a
report. Compare result files with perfbench/compare.py.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
OUT_DIR = ".perfbench_out"
TARGETS = ["./bin/memcached_server.exe", "./perfbench/perfbench.exe"]
RUN_LIMIT_S = 165.0
BUILD_LIMIT_S = 700.0
SOURCES = ["dune-project", "lib", "bin", "perfbench", "BENCHMARK.json"]


def die(msg, code=2):
    print(msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Build the server and perfbench.exe; return the build's default dir."""
    for f in ["dune-project", "lib", "bin", "BENCHMARK.json"]:
        if not os.path.exists(f):
            die(f"not a source checkout: {f} is missing")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR] + TARGETS
    # No shared build cache: everything the build writes stays in the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=BUILD_LIMIT_S, env=env)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}")
    if p.returncode != 0:
        sys.stderr.write(p.stdout + p.stderr)
        die("build failed")
    return os.path.join(BUILD_DIR, "default")


def _first_line(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return ""


def revision():
    """The git commit when there is one, else a hash of the sources."""
    rev = _first_line(["git", "rev-parse", "HEAD"])
    if rev and os.path.isdir(".git"):
        return rev
    h = hashlib.sha256()
    for top in SOURCES:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs
            if "__pycache__" not in d)
        for path in sorted(paths):
            h.update(path.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "tree:" + h.hexdigest()[:16]


def host_stamp(seed):
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "ocaml": _first_line(["ocamlfind", "ocamlopt", "-version"])
        or _first_line(["ocamlopt", "-version"]),
        "revision": revision(),
        "seed": seed,
    }


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_report(line, trace):
    report = json.loads(line)
    if set(report) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"report keys {sorted(report)}")
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in report["metrics"].items()}
    if got != want:
        raise ValueError(f"metrics differ from BENCHMARK.json: {set(got) ^ set(want)}")
    for k, v in report["metrics"].items():
        if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
            raise ValueError(f"metric {k} is not a finite number")
    if not isinstance(report["attempted"], int) or report["attempted"] < 1:
        raise ValueError("attempted must be a positive integer")
    return report


def kill_group(proc):
    """SIGKILL perfbench.exe's whole session and wait until it is gone."""
    os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["read-zipf", "write-evict", "resize-lookup"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        die("--seconds must be at least 1")

    exe_dir = build()
    stamp = host_stamp(args.seed)
    print("# host " + json.dumps(stamp), flush=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [os.path.join(exe_dir, "perfbench", "perfbench.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", os.path.join(exe_dir, "bin", "memcached_server.exe"),
           "--out", OUT_DIR]
    # Its own session, so a timeout can take down the server child too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        kill_group(proc)
        die("benchmark run timed out", 3)
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(out)
        die(f"perfbench.exe exited with {proc.returncode}", 3)
    try:
        report = check_report(lines[-1], args.trace)
    except (ValueError, KeyError, TypeError) as e:
        sys.stderr.write(out)
        die(f"bad report: {e}", 3)
    for line in lines[:-1]:
        print(line)
    with open(os.path.join(OUT_DIR, "results.jsonl"), "a") as f:
        f.write(json.dumps({"host": stamp, "workload": args.workload,
                            "trace": args.trace, "seconds": args.seconds,
                            "report": report}) + "\n")
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main()
