#!/usr/bin/env python3
"""Summarize or compare sets of pcw end-to-end benchmark runs.

Inputs are the JSON lists bench/e2e/run.py writes with --json (one record
per workload run; the records of several files are pooled).

    compare.py RUNS.json [...]
        Per workload and metric: median, first and third quartile, and the
        spread (Q3 - Q1) / median over the runs.

    compare.py --base A.json [...] --head B.json [...] [--bench BENCHMARK.json]
        Checks that the head set agrees with the base set: for every
        end-to-end metric in BENCHMARK.json, the head median may be worse
        than the base median by at most the metric's bound. A metric whose
        spread on either side exceeds its bound is "unresolved" unless
        every head run beats every base run. Per-layer metrics are listed
        side by side without a verdict. Exit status 1 if any metric
        regressed.

Quartiles are Python's statistics.quantiles(values, n=4).
"""

import argparse
import json
import os
import statistics
import sys


def load(paths):
    """{workload: {metric: [values]}} plus {metric: unit}."""
    values, units = {}, {}
    for path in paths:
        with open(path) as f:
            records = json.load(f)
        for rec in records if isinstance(records, list) else [records]:
            for name, m in rec["metrics"].items():
                values.setdefault(rec["workload"], {}).setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
    return values, units


def stats(v):
    med = statistics.median(v)
    q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
    return med, q1, q3, (q3 - q1) / abs(med) if med else 0.0


def summarize(values, units):
    for workload in sorted(values):
        print(f"{workload}")
        for name, v in values[workload].items():
            med, q1, q3, spread = stats(v)
            print(f"  {name:28s} {med:12.6g} {units[name]:6s} "
                  f"Q1 {q1:12.6g}  Q3 {q3:12.6g}  spread {spread:6.1%}  n={len(v)}")


def compare(base, head, units, bench):
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    regressed = 0
    for workload in sorted(set(base) & set(head)):
        print(f"{workload}")
        for name in base[workload]:
            if name not in head[workload]:
                continue
            b, h = base[workload][name], head[workload][name]
            mb, _, _, sb = stats(b)
            mh, _, _, sh = stats(h)
            row = f"  {name:28s} base {mb:12.6g}  head {mh:12.6g} {units[name]:6s}"
            if name not in bounds:
                print(row)
                continue
            spec = bounds[name]
            lower = spec["better"] == "lower"
            worse = ((mh - mb) if lower else (mb - mh)) / abs(mb) if mb else 0.0
            beats = (max(h) < min(b)) if lower else (min(h) > max(b))
            if max(sb, sh) > spec["bound"] and not beats:
                verdict = "unresolved"
            elif worse > spec["bound"]:
                verdict = "REGRESSED"
                regressed += 1
            elif worse < -spec["bound"]:
                verdict = "improved"
            else:
                verdict = "same"
            print(f"{row}  worse {worse:+7.1%} (bound {spec['bound']:.0%}, spread "
                  f"{sb:.1%}/{sh:.1%})  {verdict}")
    return regressed


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("runs", nargs="*", help="run files to summarize")
    ap.add_argument("--base", nargs="+", default=[])
    ap.add_argument("--head", nargs="+", default=[])
    ap.add_argument("--bench", default="BENCHMARK.json")
    args = ap.parse_args()
    if args.runs:
        values, units = load(args.runs)
        summarize(values, units)
        return 0
    if not args.base or not args.head:
        ap.error("give run files to summarize, or both --base and --head")
    if not os.path.exists(args.bench):
        ap.error(f"{args.bench} not found (pass --bench)")
    with open(args.bench) as f:
        bench = json.load(f)
    base, units = load(args.base)
    head, head_units = load(args.head)
    units.update(head_units)
    return 1 if compare(base, head, units, bench) else 0


if __name__ == "__main__":
    sys.exit(main())
