"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/run.py --compare BASE NEW

BASE and NEW are result files written by ``run.py`` (``perfbench/out/
result-*.json``), JSON lists of such records, or directories holding them.
For each workload and metric it prints the median of each side, each side's
quartile spread (the distance between the first and third quartile of its
runs, as a share of their median), the number of runs behind it, and the
ratio NEW / BASE with BASE as its base.  An end-to-end metric whose spread
on either side is wider than its bound in BENCHMARK.json is marked
``unresolved``: its runs vary more than the change the bound allows, so the
ratio alone says neither gain nor loss.
"""

from __future__ import annotations

import glob
import json
import os
import statistics

COMPARABLE = ("nproc", "python", "numpy", "scipy", "blas", "blas_threads", "mdsr_numba_enabled")


def load(path):
    files = sorted(glob.glob(os.path.join(path, "result-*.json"))) if os.path.isdir(path) else [path]
    records = []
    for name in files:
        with open(name, encoding="utf-8") as fh:
            data = json.load(fh)
        records.extend(data if isinstance(data, list) else [data])
    if not records:
        raise SystemExit(f"error: no results in {path}")
    return records


def summary(records):
    """{workload: {metric: (median, spread, unit, runs)}} over every record;
    the spread is None with fewer than two runs."""
    values = {}
    for rec in records:
        for name, m in rec["metrics"].items():
            values.setdefault(rec["workload"], {}).setdefault(name, (m["unit"], []))[1].append(
                m["value"])
    out = {}
    for wl, ms in values.items():
        out[wl] = {}
        for name, (unit, v) in ms.items():
            med = statistics.median(v)
            spread = None
            if len(v) >= 2 and med:
                q1, _, q3 = statistics.quantiles(v, n=4)
                spread = (q3 - q1) / abs(med)
            out[wl][name] = (med, spread, unit, len(v))
    return out


def main(base_path, new_path, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    base, new = load(base_path), load(new_path)
    for key in COMPARABLE:
        seen = {json.dumps(r["machine"].get(key), sort_keys=True) for r in base + new}
        if len(seen) > 1:
            print(f"warning: machine fact {key!r} differs between runs: {sorted(seen)}")
    failed = sum(r["failed"] for r in base), sum(r["failed"] for r in new)
    print(f"failed requests: base {failed[0]}, new {failed[1]}")
    b, n = summary(base), summary(new)

    def fmt(spread):
        return f"{spread:7.3f}" if spread is not None else "      -"

    print(f"{'workload':8s} {'metric':36s} {'unit':6s} {'base':>12s} {'spread':>7s} "
          f"{'new':>12s} {'spread':>7s} {'new/base':>9s}  runs")
    for wl in sorted(set(b) & set(n)):
        for name in sorted(set(b[wl]) & set(n[wl])):
            bv, bs, unit, bn = b[wl][name]
            nv, ns, _, nn = n[wl][name]
            if bv == nv == 0:      # a layer this workload does not use
                continue
            ratio = f"{nv / bv:9.3f}" if bv else "        -"
            note = ""
            if name in bounds and any(x is not None and x > bounds[name] for x in (bs, ns)):
                note = f"  unresolved: spread above bound {bounds[name]}"
            print(f"{wl:8s} {name:36s} {unit:6s} {bv:12.6g} {fmt(bs)} {nv:12.6g} {fmt(ns)} "
                  f"{ratio}  {bn}/{nn}{note}")
    return 0
