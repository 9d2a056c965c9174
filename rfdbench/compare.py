#!/usr/bin/env python3
"""Compares two sets of benchmark runs.

    python3 rfdbench/compare.py BASE.jsonl NEW.jsonl

Each file holds one JSON line per run, as `rfdbench/run.py --all --out`
writes them ({"workload","seed","trace","result"}). For every workload and
every metric of either set, prints each set's median and quartiles (Python's
statistics.quantiles, n=4) and the spread (interquartile distance over the
median). For the end-to-end metrics of BENCHMARK.json it then says whether
the sets agree within the metric's bound: the new median is no worse than
the base median by more than the bound, each spread (except setup_s) stays
within the bound, and the share of failed operations is the same. Exits 0
when every metric agrees, 1 otherwise.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            runs.setdefault(rec["workload"], []).append(rec["result"])
    return runs


def summary(values):
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    spread = (q3 - q1) / q2 if q2 else 0.0
    return q1, q2, q3, spread


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return failed / attempted if attempted else 0.0


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base, new = load(argv[1]), load(argv[2])
    all_agree = True
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base or workload not in new:
            print("%s: missing from %s" % (
                workload, argv[1] if workload not in base else argv[2]))
            all_agree = False
            continue
        b_runs, n_runs = base[workload], new[workload]
        share_ok = failed_share(b_runs) == failed_share(n_runs)
        all_agree = all_agree and share_ok
        print("== %s (%d vs %d runs; failed share %.6g vs %.6g%s)" % (
            workload, len(b_runs), len(n_runs), failed_share(b_runs),
            failed_share(n_runs), "" if share_ok else " DIFFERS"))
        print("   %-26s %-42s %-42s %s" % (
            "metric", "base q1 / median / q3 (spread)",
            "new q1 / median / q3 (spread)", "verdict"))
        names = sorted(set().union(*[r["metrics"] for r in b_runs + n_runs]))
        for name in names:
            bv = [r["metrics"][name]["value"] for r in b_runs
                  if name in r["metrics"]]
            nv = [r["metrics"][name]["value"] for r in n_runs
                  if name in r["metrics"]]
            if not bv or not nv:
                continue
            b, n = summary(bv), summary(nv)
            verdict = ""
            if name in bounds:
                bound = bounds[name]["bound"]
                lower = bounds[name]["better"] == "lower"
                worse = ((n[1] - b[1]) if lower else (b[1] - n[1]))
                rel = worse / b[1] if b[1] else 0.0
                ok = rel <= bound
                if name != "setup_s":
                    ok = ok and b[3] <= bound and n[3] <= bound
                verdict = "%s (worse by %+.1f%%, bound %.0f%%)" % (
                    "agree" if ok else "DISAGREE", 100 * rel, 100 * bound)
                all_agree = all_agree and ok
            print("   %-26s %-42s %-42s %s" % (
                name,
                "%.4g / %.4g / %.4g (%.1f%%)" % (b[0], b[1], b[2], 100 * b[3]),
                "%.4g / %.4g / %.4g (%.1f%%)" % (n[0], n[1], n[2], 100 * n[3]),
                verdict))
    print("sets agree within the bounds of BENCHMARK.json" if all_agree
          else "sets DISAGREE")
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
