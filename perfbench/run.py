"""mdsr benchmark: four seeded closed-loop workloads against the public API.

    python3 perfbench/run.py --workload invert --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --replay main:17 --workload invert --seed 1
    python3 perfbench/run.py --compare BASE NEW

A run builds the workload's models, draws its inputs from the seed, warms up,
then sends requests one at a time (one caller, closed loop) for ``--seconds``
and checks every result.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` sends every input twice, once traced and once
not, and reports the per-layer metrics.  BLAS threading is left as the
program gets it; the machine facts record it.  The last line of standard output is the
result as one JSON object; the full record, with machine facts and any failed
request's replay key, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 5         # fresh interpreters timed for setup_s; the median is reported
WARMUP_REQUESTS = 2
MIN_REQUESTS = 100       # so latency_p90_ms has at least 10 requests above it
COUNT_PREFIX = 12        # traced requests whose per-request counts are reported
STREAMS = {"main": 0, "trace": 1, "warmup": 2}


def import_mdsr():
    """Import ``mdsr.cli`` from this checkout's ``src``; return the seconds it took."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "mdsr", "__init__.py")):
        sys.exit(f"error: no mdsr sources under {src}")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import mdsr.cli  # noqa: F401  (every CLI call pays this import)
    elapsed = time.perf_counter() - start
    import mdsr
    if os.path.dirname(os.path.abspath(mdsr.__file__)) != os.path.join(src, "mdsr"):
        sys.exit(f"error: imported mdsr from {mdsr.__file__}, not from {src}")
    return elapsed


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def measure_setup(workload, seed):
    """Wall times from starting a fresh interpreter to its models being built."""
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            proc.stdout.close()
            if proc.wait(timeout=60) != 0 or line != "ready":
                sys.exit(f"error: setup probe failed ({line!r}, exit {proc.returncode})")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        times.append(elapsed)
    return times


def make_pool(wl, ctx, seed, stream, size):
    import numpy as np
    rng = np.random.default_rng([seed, STREAMS[stream]])
    return [wl.make_input(ctx, rng) for _ in range(size)]


def run_loop(wl, ctx, pool, seconds, min_requests, stream, tracer=None):
    """Closed loop, one caller: the next request starts when the previous one
    and its check have finished.  Only the request itself is timed.

    With a tracer every input is sent twice in a row, once with the tracer
    installed and once without, the traced one first on every other input,
    so both halves see the same inputs and the same moments of the machine.
    """
    untraced, traced, failures, within = [], [], [], 0
    loop_start = time.perf_counter()
    i = 0
    while i < min_requests or time.perf_counter() - loop_start < seconds:
        inp = pool[i % len(pool)]
        modes = (False,) if tracer is None else ((True, False) if i % 2 == 0 else (False, True))
        for trace in modes:
            error = None
            if trace:
                tracer.install()
            start = time.perf_counter()
            if trace:
                tracer.begin(i, start)
            try:
                out = wl.run(ctx, inp)
            except Exception as exc:  # a request that raises is counted as failed
                error = f"{type(exc).__name__}: {exc}"
            stop = time.perf_counter()
            if trace:
                tracer.end(stop)
                tracer.uninstall()
            (traced if trace else untraced).append(stop - start)
            ok, in_tol, detail = False, False, error
            if error is None:
                try:
                    ok, in_tol, detail = wl.check(ctx, inp, out)
                except Exception as exc:  # output the check cannot read fails it
                    detail = f"check raised {type(exc).__name__}: {exc}"
            within += bool(ok and in_tol)
            if not ok:
                failures.append({"replay": f"{stream}:{i % len(pool)}", "traced": trace,
                                 "detail": detail})
        i += 1
    return {"latencies": untraced, "traced": traced, "failures": failures, "within": within,
            "wrapped": i > len(pool)}


def check_spans(tracer, stresses):
    """Per-layer metrics of a traced run, and what is wrong with its spans
    (None when nothing is): a span check failed, or a layer the workload
    stresses recorded nothing."""
    import tracing
    try:
        metrics = tracing.layer_metrics(tracer.spans, COUNT_PREFIX)
    except ValueError as exc:
        return {}, str(exc)
    silent = [name for name in stresses if not metrics.get(name)]
    return metrics, (f"no spans for stressed layer metrics {silent}" if silent else None)


def run_workload(args, spec, import_s):
    import numpy as np

    import machine
    from workloads import WORKLOADS, pool_size

    wl = WORKLOADS[args.workload]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    if not args.trace:
        record["setup_s_samples"] = measure_setup(args.workload, args.seed)
    os.makedirs(OUT, exist_ok=True)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        ctx = wl.setup(args.seed, workdir)
        warmup = make_pool(wl, ctx, args.seed, "warmup", WARMUP_REQUESTS)
        # a traced run sends each input twice, so it needs half the inputs
        pool_s = args.seconds / 2 if args.trace else args.seconds
        pool = make_pool(wl, ctx, args.seed, "main", pool_size(args.workload, pool_s))
        run_loop(wl, ctx, warmup, 0, WARMUP_REQUESTS, "warmup")
        origin = time.perf_counter()
        main = run_loop(wl, ctx, pool, args.seconds,
                        COUNT_PREFIX if args.trace else MIN_REQUESTS, "main", tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = len(main["latencies"]) + len(main["traced"])
    failures = main["failures"]
    lat_ms = [1e3 * x for x in main["latencies"]]
    record.update(attempted=attempted, failed=len(failures), failures=failures,
                  pool_wrapped=main["wrapped"])

    span_error = None
    if not args.trace:
        metrics = {
            "latency_p50_ms": statistics.median(lat_ms),
            "latency_p90_ms": float(np.percentile(lat_ms, 90)),
            "throughput_per_s": len(lat_ms) / sum(main["latencies"]),
            "within_tol_ratio": main["within"] / len(lat_ms),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(record["setup_s_samples"]),
        }
        declared = spec["end_to_end"]
    else:
        metrics, span_error = check_spans(tracer, wl.STRESSES)
        metrics["cli.import_s"] = import_s
        metrics["error_ratio"] = len(failures) / attempted
        metrics["trace.overhead_ms"] = (statistics.median(1e3 * x for x in main["traced"])
                                        - statistics.median(lat_ms))
        declared = spec["per_layer"]
        name = f"trace-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(os.path.join(OUT, name), origin)
        record["spans_file"] = name
        record["spans"] = len(tracer.spans)
        record["span_error"] = span_error

    record["requests_timed"] = len(lat_ms)
    record["metrics"] = {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                         for m in declared}
    record["correct"] = not failures and span_error is None
    record["machine"] = machine.facts()
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for m in declared:
        print(f"{args.workload:7s} {m['name']:36s} {record['metrics'][m['name']]['value']:14.6g} "
              f"{m['unit']}")
    for f in failures[:10]:
        print(f"failed request {f['replay']}: {f['detail']}", file=sys.stderr)
    if span_error:
        print(f"spans: {span_error}", file=sys.stderr)
    print(json.dumps({"correct": record["correct"], "attempted": attempted,
                      "failed": len(failures), "metrics": record["metrics"]}))


def smoke(spec):
    """A tiny instance of every workload, each input sent untraced and traced;
    exit 1 on any failed request, on a span check that fails, or on a
    declared per-layer metric no workload produces."""
    import tracing
    from workloads import WORKLOADS

    bad, produced = 0, {"cli.import_s", "error_ratio", "trace.overhead_ms"}
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        for name, wl in WORKLOADS.items():
            ctx = wl.setup(0, workdir)
            pool = make_pool(wl, ctx, 0, "main", 2)
            tracer = tracing.Tracer()
            run = run_loop(wl, ctx, pool, 0, 2, "main", tracer)
            metrics, span_error = check_spans(tracer, wl.STRESSES)
            produced.update(k for k, v in metrics.items() if v)
            failures = run["failures"]
            bad += len(failures) + (span_error is not None)
            print(f"{name}: {4 - len(failures)}/4 requests passed, {len(tracer.spans)} spans, "
                  f"layers {sorted({k.split('.')[0] for k, v in metrics.items() if v})}")
            for f in failures:
                print(f"  failed {f['replay']}: {f['detail']}")
            if span_error:
                print(f"  spans: {span_error}")
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in produced]
    if missing:
        print(f"per-layer metrics no workload produced: {missing}")
    return 1 if bad or missing else 0


def replay(args):
    """Re-run one request by its replay key and print its check."""
    from workloads import WORKLOADS

    stream, index = args.replay.split(":")
    wl = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        ctx = wl.setup(args.seed, workdir)
        inp = make_pool(wl, ctx, args.seed, stream, int(index) + 1)[-1]
        ok, in_tol, detail = wl.check(ctx, inp, wl.run(ctx, inp))
    print(f"{args.workload} seed {args.seed} {args.replay}: ok={ok} within_tol={in_tol} {detail}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["invert", "survey", "oracle", "pump"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny instance of every workload")
    parser.add_argument("--replay", metavar="STREAM:INDEX",
                        help="re-run one request named in a result's failures")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="result files or directories to compare")
    args = parser.parse_args()

    spec = load_spec()
    if args.compare:
        import compare
        return compare.main(*args.compare, spec)
    import_s = import_mdsr()
    if args.smoke:
        return smoke(spec)
    if not args.workload:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.replay:
        return replay(args)
    run_workload(args, spec, import_s)
    return 0


if __name__ == "__main__":
    sys.exit(main())
