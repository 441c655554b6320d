#!/usr/bin/env python3
"""Perf-ratchet for the checked-in BENCH_*.json baselines.

One gate for all three perf surfaces (replacing the inline python that
used to live in ci.yml):

  * schema + scenario/stage coverage of every checked-in baseline, so a
    baseline regeneration can never silently drop a scenario;
  * the same validation for the CI smoke runs (``--smoke-dir``), plus a
    smoke-tolerant throughput ratchet: a smoke run may be slower than the
    committed baseline (tiny inputs, cold caches, shared runners), but a
    serial-throughput drop of more than RATCHET (3x) fails the job (for
    the read bench, restart throughput relative to the same run's
    in-memory decode);
  * bench-specific invariants: compress must scale with threads at least
    COMPRESS_SCALING_SHARE as well as quantize, sparse reads must decode strictly fewer
    blocks than the container holds, the serial full restart must stay
    within RESTART_DECODE_FACTOR of decoding the same blobs from memory
    on the non-smoke baseline, the temporal predictor must keep its
    >= 1.3x ratio edge over per-step spatial on the non-smoke baseline,
    and every restart verification must be bit-exact.

Usage:
  tools/check_bench.py --baseline-dir . [--smoke-dir build] [--bench NAME ...]

Exit code 0 = all gates green; 1 = any violation (each is printed).
"""

import argparse
import json
import os
import sys

RATCHET = 3.0  # smoke serial throughput may not drop below baseline/3

# Telemetry-overhead gates (non-smoke baseline only; smoke timings are
# noise). DORMANT_FLOOR pins the serial t1 throughput the kernels must
# hold: with tracing off, the instrumented kernels may cost at most 2%
# against it. Raised with the SIMD kernel rewrite (see docs/kernels.md);
# set below the worst of repeated runs on the reference host because the
# virtualized runners show large run-to-run variance. TRACED_OVERHEAD
# bounds the armed cost: compress_traced (buffered tracing on) vs
# compress on the same run.
DORMANT_FLOOR = {"compress": 260.0, "decompress": 620.0}  # MB/s, t1
DORMANT_TOLERANCE = 1.02
TRACED_OVERHEAD = 1.10

# Restart-vs-decode gate (non-smoke baseline only): serial full_restart
# seconds over the decode_ref row's (the same blobs decoded from memory
# by every rank). Seven runs on a 4-core AVX-512 host measured 1.24-1.45
# after restart began decoding in place through the lane kernels; the
# per-block scalar path it replaced measured 2.48-2.96, so 1.8 leaves
# room for host noise while a return of that gap fails.
RESTART_DECODE_FACTOR = 1.8

# Compress-scales-like-quantize gate (non-smoke baseline only): the
# 4-thread/1-thread speedup of the `compress` row must reach this share
# of the `quantize` row's. Every compress stage runs in the per-block
# fan-out since container v5 retired the serial whole-payload LZ pass;
# a serial stage creeping back in shows here first.
COMPRESS_SCALING_SHARE = 0.8

PROBLEMS = []


def problem(msg):
    PROBLEMS.append(msg)
    print(f"FAIL: {msg}")


def ok(msg):
    print(f"ok: {msg}")


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        problem(f"{path}: unreadable ({e})")
        return None


def rows(doc, **match):
    out = []
    for r in doc.get("results", []):
        if all(r.get(k) == v for k, v in match.items()):
            out.append(r)
    return out


# --- per-bench validation rules --------------------------------------------


def check_kernels(doc, path, smoke):
    if doc.get("schema") != "pcw.bench_kernels.v1":
        problem(f"{path}: schema {doc.get('schema')!r}")
        return
    # Host facts make the throughput rows interpretable: a slow row on a
    # 1-core runner or a PCW_SIMD=off run is expected, not a regression.
    host = doc.get("case", {}).get("host", {})
    if not isinstance(host.get("cpu_count"), int) or host["cpu_count"] < 1:
        problem(f"{path}: case.host.cpu_count missing or invalid: {host!r}")
        return
    for key in ("simd_detected", "simd_active"):
        if not isinstance(host.get(key), str) or not host[key]:
            problem(f"{path}: case.host.{key} missing: {host!r}")
            return
    ok(f"{path}: host {host['cpu_count']} cpu(s), simd {host['simd_active']} "
       f"(detected {host['simd_detected']})")
    stages = {r["stage"] for r in doc.get("results", [])}
    want = {"quantize", "encode", "compress", "decompress", "compress_traced"}
    if not stages >= want:
        problem(f"{path}: stages {sorted(stages)} lack {sorted(want - stages)}")
        return
    t1 = {r["stage"]: r["mb_per_s"]
          for r in doc.get("results", []) if r.get("threads") == 1}
    if not smoke:
        # Dormant telemetry must stay free: serial throughput within 2%
        # of the pre-telemetry floor.
        for stage, floor in sorted(DORMANT_FLOOR.items()):
            mb = t1.get(stage, 0.0)
            if mb <= 0 or floor / mb > DORMANT_TOLERANCE:
                problem(f"{path}: {stage} t1 {mb:.1f} MB/s vs dormant floor "
                        f"{floor:.1f} MB/s (> {DORMANT_TOLERANCE:.2f}x cost)")
                return
        # Armed (buffered) tracing may cost at most 10% over dormant.
        traced = t1.get("compress_traced", 0.0)
        dormant = t1.get("compress", 0.0)
        if traced <= 0 or dormant <= 0 or dormant / traced > TRACED_OVERHEAD:
            problem(f"{path}: compress_traced t1 {traced:.1f} MB/s vs compress "
                    f"{dormant:.1f} MB/s (> {TRACED_OVERHEAD:.2f}x overhead)")
            return
        ok(f"{path}: telemetry gates green (dormant within "
           f"{DORMANT_TOLERANCE:.2f}x floor, traced {dormant / traced:.3f}x)")
        t4 = {r["stage"]: r["mb_per_s"]
              for r in doc.get("results", []) if r.get("threads") == 4}
        if any(t1.get(k, 0.0) <= 0 or t4.get(k, 0.0) <= 0
               for k in ("compress", "quantize")):
            problem(f"{path}: compress/quantize need 1- and 4-thread rows")
            return
        c_speedup = t4["compress"] / t1["compress"]
        q_speedup = t4["quantize"] / t1["quantize"]
        if c_speedup < COMPRESS_SCALING_SHARE * q_speedup:
            problem(f"{path}: compress 4t/1t speedup {c_speedup:.2f}x < "
                    f"{COMPRESS_SCALING_SHARE:.2f} x quantize's {q_speedup:.2f}x")
            return
        ok(f"{path}: compress scales {c_speedup:.2f}x at 4 threads vs quantize "
           f"{q_speedup:.2f}x (>= {COMPRESS_SCALING_SHARE:.2f} share)")
        # The stage rows time the calls compress makes; report how far
        # their sum is from the end-to-end row (codebook + assembly).
        stage_s = {r["stage"]: r["seconds"]
                   for r in doc.get("results", []) if r.get("threads") == 1}
        gap = 1.0 - (stage_s["quantize"] + stage_s["encode"]) / stage_s["compress"]
        ok(f"{path}: t1 quantize + encode = {100 * (1 - gap):.1f}% of compress")
    ok(f"{path}: pcw.bench_kernels.v1, stages {sorted(stages)}")


def check_read(doc, path, smoke):
    if doc.get("schema") != "pcw.bench_read.v1":
        problem(f"{path}: schema {doc.get('schema')!r}")
        return
    scenarios = {r["scenario"] for r in doc.get("results", [])}
    want = {"full_restart", "repartition", "sparse_slice"}
    if not scenarios >= want:
        problem(f"{path}: scenarios {sorted(scenarios)} lack {sorted(want - scenarios)}")
        return
    sparse = [r for r in rows(doc, scenario="sparse_slice") if r["label"] != "full_ref"]
    # The property the block index exists for: sparse slices decode
    # strictly fewer blocks than the container holds.
    if not sparse or not all(r["blocks_decoded"] < r["blocks_total"] for r in sparse):
        problem(f"{path}: sparse_slice rows not strictly partial: {sparse}")
        return
    # Checksums must stay off the hot path: the blob-CRC verified restart
    # may cost at most 5% over the unverified one. Timing-sensitive, so
    # the bar holds on the real baseline; smoke runs only need the rows.
    verify = rows(doc, scenario="full_restart", label="serial_verify")
    noverify = rows(doc, scenario="full_restart", label="serial_noverify")
    if len(verify) != 1 or len(noverify) != 1:
        problem(f"{path}: full_restart needs one serial_verify + one "
                f"serial_noverify row")
        return
    overhead = verify[0]["seconds"] / noverify[0]["seconds"]
    if not smoke and overhead > 1.05:
        problem(f"{path}: verification overhead {overhead:.3f}x > 1.05x")
        return
    serial = rows(doc, scenario="full_restart", label="serial")
    ref = rows(doc, scenario="full_restart", label="decode_ref")
    if len(serial) != 1 or len(ref) != 1:
        problem(f"{path}: full_restart needs one serial + one decode_ref row")
        return
    gap = serial[0]["seconds"] / ref[0]["seconds"]
    if not smoke and gap > RESTART_DECODE_FACTOR:
        problem(f"{path}: serial restart {gap:.3f}x the in-memory decode "
                f"> {RESTART_DECODE_FACTOR:.2f}x")
        return
    ok(f"{path}: pcw.bench_read.v1, scenarios {sorted(scenarios)}, "
       f"verify overhead {overhead:.3f}x, restart/decode {gap:.3f}x")


def check_timeseries(doc, path, smoke):
    if doc.get("schema") != "pcw.bench_timeseries.v1":
        problem(f"{path}: schema {doc.get('schema')!r}")
        return
    scenarios = {r["scenario"] for r in doc.get("results", [])}
    want = {"write_series", "restart_mid_chain", "sparse_step_read"}
    if not scenarios >= want:
        problem(f"{path}: scenarios {sorted(scenarios)} lack {sorted(want - scenarios)}")
        return
    if not all(r.get("bit_exact", False) for r in rows(doc, scenario="restart_mid_chain")):
        problem(f"{path}: restart verification not bit-exact")
        return
    sparse = rows(doc, scenario="sparse_step_read")
    if not sparse or not all(r["blocks_decoded"] < r["blocks_total"] for r in sparse):
        problem(f"{path}: sparse_step_read rows not strictly partial: {sparse}")
        return
    temporal = rows(doc, scenario="write_series", label="temporal")
    spatial = rows(doc, scenario="write_series", label="spatial")
    if len(temporal) != 1 or len(spatial) != 1:
        problem(f"{path}: write_series needs exactly one temporal + one spatial row")
        return
    gain = temporal[0]["ratio"] / spatial[0]["ratio"]
    # The acceptance bar holds on the real (non-smoke) baseline; the tiny
    # smoke series is validated for coverage but its gain is reported only.
    if not smoke and gain < 1.3:
        problem(f"{path}: temporal ratio gain {gain:.2f}x < 1.3x")
        return
    ok(f"{path}: pcw.bench_timeseries.v1, temporal gain {gain:.2f}x")


# Serial-throughput extractors for the ratchet: {key: (value, unit)},
# higher is better.
def serial_metrics(name, doc):
    if name == "kernels":
        return {
            f"{r['stage']} t1": (r["mb_per_s"], "MB/s")
            for r in doc.get("results", [])
            if r.get("threads") == 1
        }
    if name == "read":
        # Restart speed relative to decoding the same blobs from memory in
        # the same run. The smoke checkpoint is too small for absolute MB/s
        # to compare with the full baseline: its fixed per-blob and per-run
        # costs alone put it several times below the baseline's rate.
        serial = rows(doc, scenario="full_restart", label="serial")
        ref = rows(doc, scenario="full_restart", label="decode_ref")
        if len(serial) != 1 or len(ref) != 1 or serial[0]["seconds"] <= 0:
            return {}
        return {"full_restart serial vs decode_ref":
                (ref[0]["seconds"] / serial[0]["seconds"], "x")}
    if name == "timeseries":
        return {
            f"write_series {r['label']}": (r["mb_per_s"], "MB/s")
            for r in rows(doc, scenario="write_series")
        }
    return {}


BENCHES = {
    "kernels": check_kernels,
    "read": check_read,
    "timeseries": check_timeseries,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline-dir", default=".",
                    help="directory of the checked-in BENCH_*.json (default .)")
    ap.add_argument("--smoke-dir", default=None,
                    help="directory of CI smoke BENCH_*.json; enables the ratchet")
    ap.add_argument("--bench", action="append", choices=sorted(BENCHES),
                    help="restrict to specific benches (default: all)")
    args = ap.parse_args()

    names = args.bench or sorted(BENCHES)
    for name in names:
        fname = f"BENCH_{name}.json"
        check = BENCHES[name]

        base_path = os.path.join(args.baseline_dir, fname)
        base = load(base_path)
        if base is not None:
            if base.get("case", {}).get("smoke"):
                problem(f"{base_path}: checked-in baseline is a --smoke run")
            else:
                check(base, base_path, smoke=False)

        if args.smoke_dir is None:
            continue
        smoke_path = os.path.join(args.smoke_dir, fname)
        smoke = load(smoke_path)
        if smoke is None:
            continue
        check(smoke, smoke_path, smoke=True)

        if base is None:
            continue
        base_m = serial_metrics(name, base)
        smoke_m = serial_metrics(name, smoke)
        for key, (base_v, unit) in sorted(base_m.items()):
            if key not in smoke_m:
                problem(f"{smoke_path}: smoke run dropped metric '{key}'")
                continue
            smoke_v = smoke_m[key][0]
            if smoke_v <= 0 or base_v / smoke_v > RATCHET:
                problem(f"{smoke_path}: {key} {smoke_v:.3g} {unit} vs baseline "
                        f"{base_v:.3g} {unit} (> {RATCHET:.0f}x regression)")
            else:
                ok(f"{smoke_path}: {key} {smoke_v:.3g} {unit} within "
                   f"{RATCHET:.0f}x of baseline {base_v:.3g} {unit}")

    if PROBLEMS:
        print(f"\n{len(PROBLEMS)} perf-gate violation(s)")
        return 1
    print("\nall perf gates green")
    return 0


if __name__ == "__main__":
    sys.exit(main())
