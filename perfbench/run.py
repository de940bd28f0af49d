#!/usr/bin/env python3
"""Served-path benchmark: builds the library and the benchmark binary, then runs one
workload and prints its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload office6_burst --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

The build goes to .bench_build/perfbench (configured once, then rebuilt
incrementally). The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics of the traced replay with --trace 1, whose
spans are written to .bench_build/perfbench/spans/<workload>.jsonl.

--self-check runs every workload of BENCHMARK.json for one second with
both trace settings and fails unless each run is correct and emits exactly
the metrics BENCHMARK.json names, with their units.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "served_bench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no library sources under {ROOT / 'src'}; nothing to build")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "served_bench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def src_hash():
    """SHA-256 over the library sources (the checkout may not be a git tree)."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "none"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "none"


def run_binary(workload, seed, seconds, trace, capture):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace),
           "--git-sha", git_sha(), "--src-hash", src_hash()]
    if trace:
        spans = BUILD / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans / f"{workload}.jsonl")]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return None


def self_check():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = subprocess.run([str(BINARY), "--list"], capture_output=True,
                            text=True).stdout.split()
    ok = True
    for wl in spec["workloads"]:
        if wl["name"] not in listed:
            log(f"workload {wl['name']} is not implemented")
            ok = False
            continue
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            proc = run_binary(wl["name"], 1, 1, trace, capture=True)
            if proc is None or proc.returncode != 0 or not proc.stdout.strip():
                log(f"{wl['name']} trace={trace}: run failed")
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            problems = []
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"result keys {sorted(result)}")
            if result["correct"] is not True:
                problems.append("correctness checks failed")
            if result["failed"] != 0:
                problems.append(f"{result['failed']} failed operations")
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
                problems.append(f"missing {missing} extra {extra} unit mismatch {units}")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"self-check {wl['name']} trace={trace}: {status}")
            ok = ok and not problems
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()

    if not args.self_check and not args.workload:
        ap.error("--workload is required")
    if not build():
        return 1
    if args.self_check:
        return 0 if self_check() else 1
    proc = run_binary(args.workload, args.seed, args.seconds, args.trace,
                      capture=False)
    return 1 if proc is None else proc.returncode


if __name__ == "__main__":
    sys.exit(main())
