#!/usr/bin/env python3
"""Compare benchmark result files of a base and a changed build.

    python3 perfbench/compare.py --base .bench_out_a/result-search-*.json \
        --new .bench_out_b/result-search-*.json

Each side is one or more result files written by a run (see README.md). The
script prints, per metric, each side's median and quartiles and the change
of the medians as a share of the base median, and flags end-to-end metrics
that got worse by more than BENCHMARK.json's bound.

It refuses to compare (exit 2) when the files disagree on workload, trace
mode, or host fingerprint: CPU model, ISA flags, CPU count, cache sizes,
database residues and artifact bytes. Numbers from different machines or
different inputs say nothing about a change.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


class Refused(Exception):
    pass


def load(paths):
    return [json.load(open(p)) for p in paths]


def identity(result):
    """What two results must share to be comparable."""
    return (result["workload"], result["trace"],
            json.dumps(result["fingerprint"], sort_keys=True))


def check_comparable(results):
    ids = {identity(r) for r in results}
    if len(ids) != 1:
        lines = "\n  ".join(sorted(str(i) for i in ids))
        raise Refused(f"results are not comparable:\n  {lines}")


def bounds():
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    spec = json.load(open(path))
    return {m["name"]: m for m in spec["end_to_end"]}


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q = statistics.quantiles(values, n=4)
        return med, q[0], q[2]
    return med, med, med


def compare(base, new):
    """Rows of (metric, base summary, new summary, change, verdict)."""
    check_comparable(base + new)
    section = "per_layer" if base[0]["trace"] else "end_to_end"
    limits = bounds()
    rows = []
    for name in base[0][section]:
        b = [r[section][name]["value"] for r in base
             if r[section][name]["value"] is not None]
        n = [r[section][name]["value"] for r in new
             if r[section][name]["value"] is not None]
        if not b or not n:
            continue
        sb, sn = summary(b), summary(n)
        change = (sn[0] - sb[0]) / sb[0] if sb[0] else 0.0
        verdict = ""
        spec = limits.get(name)
        if spec and section == "end_to_end":
            worse = -change if spec["better"] == "higher" else change
            verdict = "WORSE" if worse > spec["bound"] else "ok"
        rows.append((name, sb, sn, change, verdict))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args()
    try:
        rows = compare(load(args.base), load(args.new))
    except Refused as e:
        print(f"compare: refused: {e}", file=sys.stderr)
        return 2
    print(f"{'metric':32s} {'base median [q1, q3]':>34s} "
          f"{'new median [q1, q3]':>34s} {'change':>8s}")
    worse = False
    for name, sb, sn, change, verdict in rows:
        print(f"{name:32s} {sb[0]:12.5g} [{sb[1]:.4g}, {sb[2]:.4g}] "
              f"{sn[0]:12.5g} [{sn[1]:.4g}, {sn[2]:.4g}] {change:+8.3f} "
              f"{verdict}")
        worse |= verdict == "WORSE"
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
