"""Per-layer spans recorded from outside the program.

The traced run rebinds, on the ``mdsr`` modules, the names that callers look
up (``mdsr.fitting.synth_spectrum``, ``mdsr.levels.wigner3j``, ...), so every
call through them records a span.  Nothing under ``src/`` is changed.  Spans
stay in memory and are written out once, when the run ends.

A span is ``[name, start, end, parent, request, extra]``: ``parent`` is the
index of the enclosing span (the request span for top-level calls, -1 for a
request span) and ``extra`` holds a count read at the boundary (grid points,
bytes written, fit iterations).  A layer is the part of a span name before
the first dot; a span's self time is its duration minus its children's, and
the request span's own self time is the unwrapped remainder.

Every name in ``TARGETS`` must exist: a function that moved or was renamed
would otherwise lose its spans silently, its time falling into the caller's.
"""

from __future__ import annotations

import gzip
import importlib
import json
import os
from time import perf_counter

REQUEST = "request"


def _points(args, kwargs, result):
    deltas = kwargs["deltas"] if "deltas" in kwargs else args[2]
    return len(deltas)


def _bytes_written(args, kwargs, result):
    return os.path.getsize(kwargs["path"] if "path" in kwargs else args[1])


def _fit_outcome(args, kwargs, result):
    return {"iterations": result.iterations, "converged": bool(result.converged)}


# (owner, attribute the caller looks up, span name, extra recorder)
TARGETS = [
    ("mdsr.levels", "wigner3j", "angular.wigner3j", None),
    ("mdsr.levels", "wigner6j", "angular.wigner6j", None),
    ("mdsr.levels", "build_level_scheme", "levels.build_level_scheme", None),
    ("mdsr.config", "build_level_scheme", "levels.build_level_scheme", None),
    ("mdsr.config:RunConfig", "experiment_model", "config.experiment_model", None),
    ("mdsr.spectrum", "synth_spectrum", "spectrum.synth_spectrum", None),
    ("mdsr.fitting", "synth_spectrum", "spectrum.synth_spectrum", None),
    ("mdsr.spectrum", "susceptibility_grid", "spectrum.susceptibility_grid", _points),
    ("mdsr.spectrum", "add_noise", "spectrum.add_noise", None),
    ("mdsr.fitting", "fit_populations", "fitting.fit_populations", _fit_outcome),
    ("mdsr.bloch", "weak_probe_coherences", "bloch.weak_probe_coherences", None),
    ("mdsr.bloch", "build_hamiltonian", "bloch.build_hamiltonian", None),
    ("mdsr.bloch", "build_liouvillian", "bloch.build_liouvillian", None),
    ("mdsr.bloch", "steady_state", "bloch.steady_state", None),
    ("mdsr.bloch", "lambda_coherence_analytic", "bloch.lambda_coherence_analytic", None),
    ("mdsr.pumping", "design_pump", "pumping.design_pump", None),
    ("mdsr.pumping", "pump_rate_matrix", "pumping.pump_rate_matrix", None),
    ("mdsr.pumping", "evolve_populations", "pumping.evolve_populations", None),
    ("mdsr.io", "write_spectrum", "io.write_spectrum", _bytes_written),
    ("mdsr.io", "read_spectrum", "io.read_spectrum", None),
]


def _owner(path):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans for calls made while a request is open.

    The wrappers are made once; ``install`` and ``uninstall`` only swap the
    module attributes, so a run can trace every other request.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._request = None
        self._swaps = []
        for owner_path, attr, name, extra in TARGETS:
            owner = _owner(owner_path)
            if attr not in vars(owner):
                raise AttributeError(f"{owner_path} has no attribute {attr!r} to trace as {name}")
            original = vars(owner)[attr]
            self._swaps.append((owner, attr, original, self._wrap(original, name, extra)))

    def install(self):
        for owner, attr, _original, wrapped in self._swaps:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original, _wrapped in self._swaps:
            setattr(owner, attr, original)

    def _wrap(self, fn, name, extra):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1], self._request, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if extra is not None:
                # read after the span closes; the request's remainder absorbs it
                span[5] = extra(args, kwargs, result)
            return result

        return traced

    def begin(self, request_id, start):
        self._request = request_id
        self._stack.append(len(self.spans))
        self.spans.append([REQUEST, start, 0.0, -1, request_id, None])

    def end(self, stop):
        self.spans[self._stack.pop()][2] = stop
        self._request = None

    def write(self, path, origin):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({
                "columns": ["id", "name", "start_s", "end_s", "parent", "request", "extra"],
                "spans": [[i, n, s - origin, e - origin, p, r, x]
                          for i, (n, s, e, p, r, x) in enumerate(self.spans)],
            }, fh)


def per_request(spans):
    """Per-request totals ``{request: {(kind, name): value}}``.  Kinds:
    ``calls`` and ``s`` (total duration) per span name, ``self_s`` per span
    name and ``layer_self_s`` per layer.  The request span's self time is
    the unwrapped remainder.

    Raises ValueError when a span's self time is negative (its children
    overlap or outlast it) or when a span belongs to another request than
    its parent.
    """
    child_s = [0.0] * len(spans)
    for name, start, end, parent, rid, _x in spans:
        if parent >= 0:
            if spans[parent][4] != rid:
                raise ValueError(f"span {name} of request {rid} has a parent "
                                 f"{spans[parent][0]} of request {spans[parent][4]}")
            child_s[parent] += end - start
    totals = {}
    for i, (name, start, end, _parent, rid, _x) in enumerate(spans):
        duration = end - start
        self_s = duration - child_s[i]
        if self_s < -1e-9:
            raise ValueError(f"span {name} of request {rid}: children cover "
                             f"{child_s[i]:.6f} s of its {duration:.6f} s")
        row = totals.setdefault(rid, {})
        for key, value in ((("calls", name), 1), (("s", name), duration),
                           (("self_s", name), self_s),
                           (("layer_self_s", name.split(".", 1)[0]), self_s)):
            row[key] = row.get(key, 0) + value
    return totals


def layer_metrics(spans, count_requests):
    """Per-request layer metrics from the spans of a traced run.

    Times (``*.ms``, ``*.self_ms``) are means over every traced request.
    Counts are means over the first ``count_requests`` requests, a prefix
    fixed by the seed, so they repeat exactly between runs with one seed.
    """
    totals = per_request(spans)
    rids = sorted(totals)
    prefix = set(rids[:count_requests])

    def time_ms(key):
        return 1e3 * sum(totals[r].get(key, 0.0) for r in rids) / len(rids)

    def per_prefix(values):
        return sum(values) / len(prefix)

    def extras(name):
        return [s[5] for s in spans if s[0] == name and s[4] in prefix]

    points = extras("spectrum.susceptibility_grid")
    fits = extras("fitting.fit_populations")
    fit_evals = sum(1 for s in spans if s[0] == "spectrum.synth_spectrum" and s[4] in prefix
                    and spans[s[3]][0] == "fitting.fit_populations")
    out = {
        "spectrum.points_per_call": sum(points) / len(points) if points else 0.0,
        "fitting.forward_evals_per_fit": fit_evals / len(fits) if fits else 0.0,
        "fitting.iterations": sum(f["iterations"] for f in fits) / len(fits) if fits else 0.0,
        "fitting.converged_ratio": sum(f["converged"] for f in fits) / len(fits) if fits else 0.0,
        "io.bytes": per_prefix(extras("io.write_spectrum")),
        "trace.unwrapped_ms": time_ms(("self_s", REQUEST)),
    }
    suffix = {"calls": ".calls", "s": ".ms", "self_s": ".self_ms", "layer_self_s": ".self_ms"}
    for key in {k for row in totals.values() for k in row}:
        kind, name = key
        if kind == "calls":
            out[name + suffix[kind]] = per_prefix(totals[r].get(key, 0) for r in prefix)
        else:
            out[name + suffix[kind]] = time_ms(key)
    return out
