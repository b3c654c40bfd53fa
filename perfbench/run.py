#!/usr/bin/env python3
"""Build the swve benchmark from source and run one workload.

    python3 perfbench/run.py --workload search|pairwise --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
library and the benchmark (into $CARGO_TARGET_DIR, default .bench_build);
later calls only rebuild what changed. Build output goes to stderr. The
benchmark's own output goes to stdout, and its last line is one JSON object
with `correct`, `attempted`, `failed` and `metrics` — the end-to-end metrics
of BENCHMARK.json with --trace 0, the per-layer ones with --trace 1.
Result files and span dumps land in .bench_out/.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def build(build_dir):
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        rc = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr).returncode
        if rc != 0:
            return False
    rc = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "swve_perfbench",
         "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr).returncode
    return rc == 0


def declared_metrics(trace):
    """Metric names and units BENCHMARK.json declares for this mode, or
    None without a BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Why the result line breaks the output contract, or None."""
    try:
        res = json.loads(line)
    except json.JSONDecodeError:
        return "last line is not JSON"
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        return f"unexpected result keys {sorted(res)}"
    want = declared_metrics(trace)
    if want is not None:
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        if got != want:
            return f"metrics {got} differ from BENCHMARK.json {want}"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["search", "pairwise"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    if not build(build_dir):
        return fail("build failed (this needs the repository's sources next "
                    "to perfbench/)")

    out_dir = os.path.join(ROOT, ".bench_out")
    cmd = [os.path.join(build_dir, "swve_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    why = check_result(lines[-1], args.trace == 1)
    if why:
        return fail(f"{why} (exit code {proc.returncode})")
    # A run whose correctness gates failed still reports, with
    # "correct": false, and exits non-zero.
    print(lines[-1], flush=True)
    return 0 if proc.returncode == 0 else fail("a correctness gate failed")


if __name__ == "__main__":
    sys.exit(main())
