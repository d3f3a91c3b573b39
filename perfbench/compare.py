#!/usr/bin/env python3
"""Compares two result sets of the end-to-end benchmark: a parent and a change.

  python3 perfbench/compare.py parent.jsonl change.jsonl

Each set is a JSON-lines file written by `run.py --out`, or a directory of
them. Untraced runs are grouped by workload; within a workload the i-th
parent run pairs with the i-th change run, so run the two sides alternately
(parent first in one pair, change first in the next) with the same seeds.

For every workload x end-to-end metric of BENCHMARK.json it prints both
medians and quartiles, the win fraction over pairs (ties count for neither)
and a verdict:

  improved    the change wins >= 90% of pairs and the medians differ by more
              than the parent's interquartile range; or, where the parent's
              spread exceeds the bound, every change run beats every parent
              run
  unresolved  the parent's spread (IQR / median) exceeds the metric's bound
  worse       the change's median is worse than the parent's by more than
              the bound
  unchanged   otherwise

The verdict is `missing` where one side has no runs of a workload, and
`unpaired` where the two sides ran a workload a different number of times.
It exits 1 when any verdict is `worse`, `missing` or `unpaired`, or any
change run reported a wrong outcome, else 0: a change that crashes or stalls
a workload leaves that workload without change runs, and fails too.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load(path):
    """{workload: [record, ...]} of the untraced runs, in file order."""
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path)
                       if f.endswith(".jsonl"))
    runs = {}
    for name in files:
        with open(name) as f:
            for line in f:
                if not line.strip():
                    continue
                record = json.loads(line)
                if record["meta"]["trace"]:
                    continue
                runs.setdefault(record["meta"]["workload"], []).append(record)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def better(a, b, direction):
    """True when value a is strictly better than value b."""
    return a > b if direction == "higher" else a < b


def verdict(parent, change, spec):
    direction, bound = spec["better"], spec["bound"]
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    pairs = list(zip(parent, change))
    wins = sum(better(c, p, direction) for p, c in pairs)
    win_frac = wins / len(pairs) if pairs else 0.0
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else 0.0
    if p_med:
        worse_share = (c_med - p_med) / abs(p_med)
        if direction == "higher":
            worse_share = -worse_share
    else:
        worse_share = 0.0 if c_med == p_med else float("inf")
    all_better = (all(better(c, p, direction) for c in change for p in parent)
                  if parent and change else False)
    if (win_frac >= 0.9 and better(c_med, p_med, direction)
            and abs(c_med - p_med) > p_q3 - p_q1):
        outcome = "improved"
    elif spread > bound:
        outcome = "improved" if all_better else "unresolved"
    elif worse_share > bound:
        outcome = "worse"
    else:
        outcome = "unchanged"
    c_q1, c_q3 = quartiles(change)
    return {
        "parent_median": p_med, "parent_q1": p_q1, "parent_q3": p_q3,
        "change_median": c_med, "change_q1": c_q1, "change_q3": c_q3,
        "pairs": len(pairs), "win_frac": win_frac, "parent_spread": spread,
        "worse_share": worse_share, "bound": bound, "verdict": outcome,
    }


def compare(parent_runs, change_runs, specs):
    rows = []
    for workload in sorted(set(parent_runs) | set(change_runs)):
        parent = parent_runs.get(workload, [])
        change = change_runs.get(workload, [])
        failed = sum(r["result"]["failed"] for r in change)
        for spec in specs:
            name = spec["name"]
            p = [r["result"]["metrics"][name]["value"] for r in parent]
            c = [r["result"]["metrics"][name]["value"] for r in change]
            row = {"workload": workload, "metric": name,
                   "change_failed": failed}
            if not p or not c:
                row["verdict"] = "missing"
            elif len(p) != len(c):
                row["verdict"] = "unpaired"
            else:
                row.update(verdict(p, c, spec))
            rows.append(row)
    return rows


def main():
    parser = argparse.ArgumentParser(
        description="Compare parent and change runs of the benchmark.")
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--json", action="store_true",
                        help="print the rows as JSON instead of a table")
    args = parser.parse_args()

    with open(BENCH) as f:
        specs = json.load(f)["end_to_end"]
    rows = compare(load(args.parent), load(args.change), specs)
    if args.json:
        print(json.dumps(rows, indent=1))
    else:
        print(f"{'workload':13} {'metric':17} {'parent med [q1,q3]':>34} "
              f"{'change med [q1,q3]':>34} {'win':>5} {'n':>3}  verdict")
        for r in rows:
            if r["verdict"] in ("missing", "unpaired"):
                print(f"{r['workload']:13} {r['metric']:17} {'':>34} {'':>34} "
                      f"{'':>5} {'':>3}  {r['verdict']}")
                continue
            parent = (f"{r['parent_median']:.4g} [{r['parent_q1']:.4g},"
                      f"{r['parent_q3']:.4g}]")
            change = (f"{r['change_median']:.4g} [{r['change_q1']:.4g},"
                      f"{r['change_q3']:.4g}]")
            print(f"{r['workload']:13} {r['metric']:17} {parent:>34} "
                  f"{change:>34} {r['win_frac']:5.2f} {r['pairs']:3d}  "
                  f"{r['verdict']}")
    bad = any(r["verdict"] in ("worse", "missing", "unpaired")
              or r["change_failed"] for r in rows)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
