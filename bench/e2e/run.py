#!/usr/bin/env python3
"""Entry point of the pcw end-to-end benchmark.

    python3 bench/e2e/run.py --workload NAME|all --seed N --seconds S --trace 0|1
                             [--json PATH] [--smoke]

Run it from the repository root. It configures an ordinary build of the
tree with bench/e2e/CMakeLists.txt injected (see there) in the build
directory (.bench_build, or $CARGO_TARGET_DIR when set) unless one is
configured there already, lets CMake bring pcw_bench and pcwd up to date,
runs each workload in its own child process with a scratch directory
under the build directory (generated input frames are cached in
<build>/inputs until pcw_bench is rebuilt), relays the
`workload metric value unit` rows, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics. --trace 1 reruns the workload
traced and reports the per-layer metrics; its Chrome trace lands in
<build>/traces/<workload>-<seed>.json. --json appends one record per
workload run (host block included) to a JSON list for compare.py.
Exit status: 0 when every check passed, 1 otherwise, 2 on bad usage or
an incomplete source tree.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("nyx_overlap", "nyx_filter", "nyx_raw", "vpic_overlap", "nyx_restart",
             "store_mixed")
HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(code)


def mtime(path):
    return os.stat(path).st_mtime_ns if os.path.exists(path) else None


def build(build_dir):
    """Brings pcw_bench and pcwd up to date; returns their paths."""
    bench = os.path.join(build_dir, "pcw_bench")
    pcwd = os.path.join(build_dir, "tools", "pcwd")
    env = dict(os.environ)
    env.setdefault("CMAKE_BUILD_PARALLEL_LEVEL", str(min(4, os.cpu_count() or 1)))
    cmds = [["cmake", "--build", build_dir, "--target", "pcw_bench", "pcwd"]]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmds.insert(0, ["cmake", "-S", ".", "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                        "-DPCW_BUILD_TESTS=OFF", "-DPCW_BUILD_BENCH=OFF",
                        "-DPCW_BUILD_EXAMPLES=OFF",
                        "-DCMAKE_PROJECT_pcw_INCLUDE=" + os.path.join(HERE, "CMakeLists.txt")])
    before = mtime(bench)
    for cmd in cmds:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    if mtime(bench) != before:
        # Cached frames came from the previous build's generator.
        shutil.rmtree(os.path.join(build_dir, "inputs"), ignore_errors=True)
    return bench, pcwd


def run_workload(bench, pcwd, build_dir, args, workload):
    """Runs one workload in a child process; returns its record."""
    run_dir = os.path.join(build_dir, "run", f"{workload}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [bench, "--workload", workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--dir", run_dir, "--pcwd", pcwd,
           "--inputs", os.path.join(build_dir, "inputs")]
    if args.smoke:
        cmd.append("--smoke")
    trace_path = None
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir, f"{workload}-{args.seed}.json")
        cmd += ["--trace", trace_path]
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        fail(f"{workload} did not finish within {CHILD_TIMEOUT_S} s")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"{workload} (exit {child.returncode}) printed no result")
    host = {}
    for line in lines[:-1]:
        if line.startswith("host "):
            host = json.loads(line[len("host "):])
        else:
            print(line)
    return {"workload": workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "trace_file": trace_path, "host": host,
            "exit": child.returncode, **result}


def missing_metrics(records, trace):
    """(workload, metric) pairs BENCHMARK.json names that a run did not print."""
    if not os.path.isfile("BENCHMARK.json"):
        return []
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    return [(r["workload"], n) for r in records for n in names if n not in r["metrics"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="append run records to this JSON list")
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, 1 s per workload")
    args = ap.parse_args()
    if args.smoke:
        args.seconds = min(args.seconds, 1.0)

    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")
            and os.path.isdir("include")):
        fail("run from the root of a complete pcw source tree", code=2)
    # Relative paths keep pcwd's Unix socket paths short wherever the
    # checkout lives.
    build_dir = os.path.relpath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    bench, pcwd = build(build_dir)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    records = [run_workload(bench, pcwd, build_dir, args, w) for w in workloads]

    if args.json:
        previous = []
        if os.path.exists(args.json):
            with open(args.json) as f:
                previous = json.load(f)
        with open(args.json, "w") as f:
            json.dump(previous + records, f, indent=1)

    missing = missing_metrics(records, args.trace)
    for workload, name in missing:
        print(f"error: {workload} did not report {name}", file=sys.stderr)
    correct = not missing and all(r["correct"] and r["exit"] == 0 for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m
                   for r in records for name, m in r["metrics"].items()}
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
