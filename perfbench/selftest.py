#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark; takes about a minute.

  python3 perfbench/selftest.py

Checks, on tiny preloads and 1-second windows:
  1. every workload finishes in seconds, untraced and traced, reports every
     metric of BENCHMARK.json, and has no wrong outcome;
  2. a planted wrong value (--plant-wrong-values) shows up as failed > 0,
     correct = false and ok_frac < 1, on every workload;
  3. a planted regression (--plant-delay-ns) is flagged `worse` by
     compare.py, and the same runs with the sides swapped read `improved`;
  4. compare.py fails on a change set that lacks a workload (`missing`) or
     has a different number of runs of one (`unpaired`).
Exits 0 when every check holds. Run records go to <build dir>/selftest.
"""
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RECORDS = 20000
SECONDS = 1
TINY_RUN_LIMIT_S = 60  # Includes the first build's link, not a full build.

failures = []


def check(ok, message):
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        failures.append(message)


def run(workload, seed, trace=0, out=None, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(SECONDS),
           "--trace", str(trace), "--records", str(RECORDS), *extra]
    if out:
        cmd += ["--out", out]
    start = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    elapsed = time.monotonic() - start
    if done.returncode != 0:
        return None, elapsed
    return json.loads(done.stdout.strip().splitlines()[-1]), elapsed


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    work = os.path.join(ROOT, target, "selftest")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    # Builds once, outside the timed runs.
    build = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                            "--workload", workloads[0], "--seed", "1",
                            "--seconds", "0.2", "--records", "2000"],
                           cwd=ROOT, capture_output=True, text=True,
                           check=False)
    check(build.returncode == 0, "benchmark binary builds and runs")
    if build.returncode != 0:
        print(build.stderr[-3000:])
        return 1

    tiny = os.path.join(work, "tiny.jsonl")
    for workload in workloads:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, elapsed = run(workload, 1, trace=trace, out=tiny)
            names = {m["name"] for m in bench[key]}
            check(result is not None and elapsed < TINY_RUN_LIMIT_S,
                  f"{workload} trace={trace} tiny run finishes "
                  f"({elapsed:.1f} s)")
            if result is None:
                continue
            check(result["correct"] and result["failed"] == 0,
                  f"{workload} trace={trace} has no wrong outcome")
            check(set(result["metrics"]) == names,
                  f"{workload} trace={trace} reports every {key} metric")

    for workload in workloads:
        result, _ = run(workload, 2, extra=["--plant-wrong-values"])
        check(result is not None and not result["correct"]
              and result["failed"] > 0
              and result["metrics"]["ok_frac"]["value"] < 1,
              f"{workload} planted wrong values are counted as failed")

    # Alternate sides, as compare.py expects of real parent/change sets.
    parent = os.path.join(work, "parent.jsonl")
    change = os.path.join(work, "change.jsonl")
    for seed in (11, 12, 13):
        sides = [(parent, ()), (change, ("--plant-delay-ns", "2000"))]
        if seed % 2 == 0:
            sides.reverse()
        for out, extra in sides:
            run("write-hot", seed, out=out, extra=extra)
    for (a, b), expect in (((parent, change), "worse"),
                           ((change, parent), "improved")):
        done = subprocess.run([sys.executable, os.path.join(HERE, "compare.py"),
                               a, b, "--json"], capture_output=True, text=True,
                              check=False)
        rows = json.loads(done.stdout) if done.stdout else []
        verdicts = {r["metric"]: r["verdict"] for r in rows}
        for metric in ("throughput_ops_s", "p50_ns"):
            check(verdicts.get(metric) == expect,
                  f"compare.py calls a planted 2 us delay per request "
                  f"{expect} on {metric} (got {verdicts.get(metric)})")
        if expect == "worse":
            check(done.returncode == 1, "compare.py exits 1 on a regression")

    # One write-hot run against three, and no runs at all of the others.
    done = subprocess.run([sys.executable, os.path.join(HERE, "compare.py"),
                           parent, tiny, "--json"], capture_output=True,
                          text=True, check=False)
    rows = json.loads(done.stdout) if done.stdout else []
    verdicts = {(r["workload"], r["verdict"]) for r in rows}
    others = [w for w in workloads if w != "write-hot"]
    check(done.returncode == 1
          and ("write-hot", "unpaired") in verdicts
          and all((w, "missing") in verdicts for w in others),
          "compare.py exits 1 on missing and unpaired workloads")

    print(f"{len(failures)} failed" if failures
          else "all self-test checks hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
