#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark for one workload.

Run from the root of a checkout:

  python3 perfbench/run.py --workload write-hot --seed 1 --seconds 30 --trace 0

The benchmark binary (perfbench_e2e) is built from this checkout's sources
into $CARGO_TARGET_DIR (default .bench_build). The last line of stdout is the
result: {"correct", "attempted", "failed", "metrics"}, where metrics are the
end-to-end metrics of BENCHMARK.json with --trace 0 and its per-layer
metrics with --trace 1. The line before it carries the run metadata and the
binary's details (p99.9 with its sample count, per-slice values, sources of
the per-layer samples). --out FILE also appends both, as one JSON line, to
FILE; compare.py reads such files.
"""
import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = "perfbench_e2e"
BUILD_TYPE = "RelWithDebInfo"
# A run must end within 180 s; this leaves headroom for start-up.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures once, then (re)builds the binary; returns its path."""
    bdir = build_dir()
    cache = os.path.join(bdir, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", bdir, "--target", TARGET, "-j", "3"])
    for step in steps:
        try:
            # Build output goes to stderr: stdout is reserved for results.
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build step {step[:2]} failed: {err}")
        if done.returncode != 0:
            fail(f"build step {' '.join(step[:2])} exited {done.returncode}")
    return os.path.join(bdir, TARGET)


def source_digest():
    """sha256 over the sources the binary is built from: src/, perfbench/."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def metric_specs(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--records", type=int,
                        help="override the workload's preload size")
    parser.add_argument("--plant-wrong-values", action="store_true",
                        help="corrupt some values before the run (self-test)")
    parser.add_argument("--plant-delay-ns", type=int,
                        help="busy-wait inside every request (self-test)")
    parser.add_argument("--out", help="append the full record to this file")
    args = parser.parse_args()

    specs = metric_specs(args.trace)
    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.records:
        cmd += ["--records", str(args.records)]
    if args.plant_wrong_values:
        cmd.append("--plant-wrong-values")
    if args.plant_delay_ns:
        cmd += ["--plant-delay-ns", str(args.plant_delay_ns)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{TARGET} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{TARGET} exited {done.returncode}")
    raw = json.loads(lines[-1])

    metrics = {}
    for spec in specs:
        name = spec["name"]
        if name not in raw["metrics"]:
            fail(f"{TARGET} did not report metric {name}")
        metrics[name] = {"value": raw["metrics"][name], "unit": spec["unit"]}
    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    meta = {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "workload": raw["workload"],
        "seed": raw["seed"],
        "records": raw["records"],
        "clients": raw["clients"],
        "shards": raw["shards"],
        "seconds": raw["seconds"],
        "trace": raw["trace"],
        "build": raw["build"],
    }
    record = {"meta": meta, "details": raw["details"]}
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps({**record, "result": result}) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
