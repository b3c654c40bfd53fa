#!/usr/bin/env python3
"""Soft benchmark-regression gate for the bench-smoke CI lane.

Compares a fresh ``fig13_scenarios --json`` report against the committed
``bench/baseline.json`` and *warns* (exit 0) when a throughput metric
(GCUPS, serving QPS, dedup ratio) dropped by more than the threshold. CI
runners are noisy shared machines, so this lane never fails the build on a
slowdown -- it annotates the run so a human looks at the artifact.
Structural problems (missing file, malformed JSON, a correctness sentinel
-- ``packing/topk_identical`` (the batch search on a length-skewed
database vs the diagonal engine), ``shard/topk_identical``,
``serve/topk_identical``, or ``db/topk_identical`` -- flipping to 0, or a
baseline metric missing from the new report) DO fail, because those are
bugs, not noise.

Usage:
    check_regression.py CURRENT.json [--baseline bench/baseline.json]
                        [--threshold 0.15] [--hard]

``--hard`` turns warnings into a non-zero exit, for local A/B runs on a
quiet machine. Stdlib only; no third-party packages.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("current", help="fresh --json report to check")
    ap.add_argument("--baseline", default="bench/baseline.json")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="fractional GCUPS drop that triggers a warning")
    ap.add_argument("--hard", action="store_true",
                    help="exit non-zero on regressions instead of warning")
    args = ap.parse_args()

    base = load(args.baseline).get("metrics", {})
    cur = load(args.current).get("metrics", {})
    if not base or not cur:
        print("error: baseline or current report has no 'metrics' object",
              file=sys.stderr)
        return 2

    # Correctness sentinels: the batch search on the length-skewed database
    # and at every shard count must agree with the diagonal engine on the
    # top-k, responses decoded off the serving wire must match in-process
    # submissions, and a search through an mmap'd swve db artifact must
    # return the owned packing's exact hits.
    for sentinel, what in (("packing/topk_identical",
                            "skewed-db batch search vs diagonal engine"),
                           ("shard/topk_identical",
                            "batch search at S=1,2 vs diagonal engine"),
                           ("serve/topk_identical", "wire vs in-process"),
                           ("db/topk_identical", "mapped artifact vs owned")):
        if cur.get(sentinel, 1) != 1:
            print(f"FAIL: {sentinel} == 0 ({what} disagree on top-k)")
            return 1

    regressions = []
    rows = []
    for key, old in sorted(base.items()):
        # Higher-is-better throughput metrics get the warn gate; p99
        # latencies, efficiencies, and sentinels are informational.
        if not any(tag in key for tag in ("gcups", "qps", "dedup_ratio")):
            continue
        if key not in cur:
            print(f"FAIL: metric '{key}' present in baseline but missing from "
                  f"{args.current} (renamed key? refresh the baseline)")
            return 1
        new = cur[key]
        ratio = new / old if old > 0 else float("inf")
        rows.append((key, old, new, ratio))
        if old > 0 and ratio < 1.0 - args.threshold:
            regressions.append((key, old, new, ratio))

    width = max((len(k) for k, *_ in rows), default=10)
    print(f"{'metric':<{width}}  {'baseline':>9}  {'current':>9}  ratio")
    for key, old, new, ratio in rows:
        flag = "  <-- regression" if (key, old, new, ratio) in regressions else ""
        print(f"{key:<{width}}  {old:9.3f}  {new:9.3f}  {ratio:5.2f}{flag}")

    if regressions:
        for key, old, new, ratio in regressions:
            # ::warning:: renders as an annotation in GitHub Actions.
            print(f"::warning title=bench regression::{key} dropped "
                  f"{(1 - ratio) * 100:.1f}% ({old:.2f} -> {new:.2f} GCUPS)")
        print(f"\n{len(regressions)} metric(s) regressed more than "
              f"{args.threshold * 100:.0f}%"
              + ("" if args.hard else " (soft gate: not failing the build)"))
        return 1 if args.hard else 0

    print("\nno regressions beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
