#!/usr/bin/env python3
"""Compares two sets of bench_e2e runs against the bounds in BENCHMARK.json.

    python3 bench/e2e/compare.py --base A/*.json [--head B/*.json]

Each file is a report bench_e2e wrote with --json (run.py keeps them under
.bench_build/bench_e2e/runs/). Runs are grouped by workload; pass the files
of each set in the order they ran, so the i-th base run pairs with the i-th
head run (alternate the two sides when measuring).

It prints a row for every (workload, metric) pair of BENCHMARK.json that
the reports carry: the end-to-end metrics, then the per-layer keys. Each row
gives each side's median, quartiles and spread (interquartile range /
median) and, with --head, the share of pairs the head run wins. A row is,
in this order:
  regression  head's median is worse than base's by more than the bound
              (end-to-end metrics only: per-layer keys have no bound);
  unresolved  either side's spread exceeds the bound, and not every head
              run beats every base run;
  gain        head wins at least 9 of 10 pairs and the medians differ by
              more than the base runs' interquartile range;
  same        otherwise.
With --base only, it prints the spreads and marks an end-to-end row
unsteady when its spread exceeds the bound (setup_s excepted: its bound is
on the median). Exits 1 when any row is a regression or unsteady.
"""
import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(paths):
    """workload -> metric -> [values in file order]."""
    runs = defaultdict(lambda: defaultdict(list))
    for p in paths:
        report = json.loads(Path(p).read_text(encoding="utf-8"))
        if report.get("self_test"):
            continue
        for key, value in report.items():
            for prefix in ("metric.", "layer."):
                if key.startswith(prefix):
                    runs[report["workload"]][key[len(prefix):]].append(value)
    return runs


def stats(values):
    """median, q1, q3 and spread ((q3 - q1) / median)."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def better(a, b, direction):
    return a < b if direction == "lower" else a > b


def verdict(base, head, metric):
    bound, direction = metric.get("bound"), metric["better"]
    bmed, bq1, bq3, bspread = stats(base)
    hmed, _, _, hspread = stats(head)
    pairs = list(zip(base, head))
    wins = sum(better(h, b, direction) for b, h in pairs)
    worse_by = (hmed - bmed) / abs(bmed) if direction == "lower" else \
        (bmed - hmed) / abs(bmed)
    all_better = all(better(h, b, direction) for h in head for b in base)
    if bound is not None and worse_by > bound:
        v = "regression"
    elif bound is not None and (bspread > bound or hspread > bound) and \
            not all_better:
        v = "unresolved"
    elif wins >= 0.9 * len(pairs) and abs(hmed - bmed) > bq3 - bq1 and \
            better(hmed, bmed, direction):
        v = "gain"
    else:
        v = "same"
    return v, wins, len(pairs)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--head", nargs="+")
    ap.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = ap.parse_args()
    spec = json.loads(Path(args.benchmark).read_text(encoding="utf-8"))
    base = load(args.base)
    head = load(args.head) if args.head else None
    failing = 0
    print(f"{'workload':15s} {'metric':36s} {'base median [q1, q3] spread':>44s}"
          + (f" {'head median [q1, q3] spread':>44s} {'wins':>7s}"
             if head else "") + "  verdict")
    for w in spec["workloads"]:
        name = w["name"]
        for m in spec["end_to_end"] + spec["per_layer"]:
            b = base.get(name, {}).get(m["name"])
            if not b:
                continue
            med, q1, q3, spread = stats(b)
            row = (f"{name:15s} {m['name']:36s} "
                   f"{med:14.6g} [{q1:11.6g}, {q3:11.6g}] {spread:6.3f}")
            if head is None:
                gated = "bound" in m and m["name"] != "setup_s"
                steady = not gated or spread <= m["bound"]
                failing += not steady
                print(row + ("  unsteady" if not steady
                             else "  ok" if gated else ""))
                continue
            h = head.get(name, {}).get(m["name"])
            if not h:
                print(row + "  (no head runs)")
                continue
            hmed, hq1, hq3, hspread = stats(h)
            v, wins, pairs = verdict(b, h, m)
            failing += v == "regression"
            print(row + f" {hmed:14.6g} [{hq1:11.6g}, {hq3:11.6g}] "
                  f"{hspread:6.3f} {wins:3d}/{pairs:<3d}  {v}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
