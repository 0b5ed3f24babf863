"""Spans around the library's layer boundaries, installed from outside.

The tracer replaces public functions on the library's module objects
with thin wrappers that record one span per call (name, start, end,
parent span, run id). It edits no library source: it patches module
attributes in the child process that runs one traced repetition, and
restores them afterwards. Spans stay in memory until the repetition
ends; then they are written out and reduced to per-layer metrics.

A call that a module makes through a name it bound with ``from ...
import`` is not seen, because the patch replaces the attribute of the
defining module only. Where a layer metric needs such a call, the
importing module's binding is patched as well (``distance.minimize`` and
``cli.write_bundle``).
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import os
import statistics
import time
import tracemalloc
from collections import defaultdict

from workloads import within_bracket

LAYERS = ("qalgebra", "heisenberg", "geometry", "distance", "pansu",
          "growth", "acceptance", "cli", "reports")

# reported one by one; every other function shows in its layer's totals
NAMED_FUNCTIONS = ("qalgebra.tsallis_entropy", "qalgebra.composition_defect",
                   "heisenberg.mul", "heisenberg.exp_mul",
                   "geometry.holonomy", "geometry.frame_at",
                   "pansu.pansu_derivative")

NORMS = ("l2", "l1", "linf")

# radius of the extra, allocation-traced word_ball pass; tracemalloc
# slows the search about fivefold, so it runs after the timed spans
ALLOC_RADIUS = 20


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        # each span: [name, start, end, parent index or -1, info or None]
        self.spans = []
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, on_return=None):
        """``fn`` recording one span per call; ``on_return(args, kwargs,
        result)`` may attach extra info to the span."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_return is not None:
                rec[4] = on_return(args, kwargs, result)
            return result
        return traced

    def _replace(self, container, key, value):
        original = container[key]
        container[key] = value
        self._undo.append((container, key, original))

    def install(self, lib):
        """Wrap every public function of the nine layer modules, plus
        the boundaries the layer metrics need."""
        for layer in LAYERS:
            module = getattr(lib, layer)
            names = vars(module)
            for attr, fn in list(names.items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                self._replace(names, attr,
                              self.wrap(name, fn, _RETURN_INFO.get(name)))
        self._replace(vars(lib.distance), "minimize",
                      self.wrap("distance.lbfgs", lib.distance.minimize,
                                _lbfgs_info))
        self._replace(vars(lib.cli), "write_bundle",
                      self.wrap("reports.write_bundle", lib.cli.write_bundle,
                                _bundle_info))
        handlers = lib.cli._HANDLERS
        for command, (module, handler) in list(handlers.items()):
            self._replace(handlers, command,
                          (module, self.wrap("cli.handler", handler)))
        criteria = lib.acceptance.CRITERIA
        for i, fn in enumerate(criteria):
            self._replace(criteria, i,
                          self.wrap(f"acceptance.c{i + 1:02d}", fn))

    def uninstall(self):
        while self._undo:
            container, key, original = self._undo.pop()
            container[key] = original

    def dump(self, path, origin):
        """Write the spans as gzipped JSON lines, times in seconds
        relative to ``origin``."""
        with gzip.open(path, "wt") as fh:
            for i, (name, start, end, parent, info) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name,
                                     "start": start - origin,
                                     "end": end - origin, "parent": parent,
                                     "run": self.run_id, "info": info}))
                fh.write("\n")


# ---------------------------------------------------------------------------
# extra info recorded at selected boundaries

def _distance_info(args, kwargs, result):
    return {"norm": kwargs.get("norm", "l2"), "value": result.value,
            "lower": result.lower, "upper": result.upper,
            "degraded": result.degraded}


def _lbfgs_info(args, kwargs, result):
    maxiter = kwargs.get("options", {}).get("maxiter")
    return {"nit": int(result.nit),
            "maxiter_hit": maxiter is not None and result.nit >= maxiter}


def _word_ball_info(args, kwargs, result):
    return {"group": args[0], "elements": int(result.counts[-1])}


def _bundle_info(args, kwargs, result):
    return {"bytes": os.path.getsize(result)}


_RETURN_INFO = {"distance.cc_distance": _distance_info,
                "growth.word_ball": _word_ball_info}


# ---------------------------------------------------------------------------
# reduction to per-layer metrics

def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, wall_s):
    """Per-layer metrics of one traced repetition; ``wall_s`` is its wall
    time, so the time outside every span is the benchmark's own."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    layer_of = [s[0].split(".", 1)[0] for s in spans]
    children = defaultdict(list)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        children[s[3]].append(i)
        by_name[s[0]].append(i)

    def under(i, name):
        return sum(dur[c] for c in children[i] if spans[c][0] == name)

    m = {}
    # self time: a span's duration minus the part its children cover
    self_s = dict.fromkeys(LAYERS, 0.0)
    for i in range(n):
        self_s[layer_of[i]] += dur[i] - sum(dur[c] for c in children[i])
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = self_s[layer]
    m["layer.perfbench.self_s"] = max(
        wall_s - sum(dur[i] for i in children[-1]), 0.0)

    # distance: solves asked for from outside the distance layer; the
    # profile build's own solves count towards its build time instead
    def outside_distance(i):
        p = spans[i][3]
        while p >= 0:
            if layer_of[p] == "distance":
                return False
            p = spans[p][3]
        return True

    solves = [i for i in by_name["distance.cc_distance"]
              if outside_distance(i)]
    lbfgs_s = 0.0
    for norm in NORMS:
        idx = [i for i in solves if spans[i][4]["norm"] == norm]
        rounds = [c for i in idx for c in children[i]
                  if spans[c][0] == "distance.lbfgs"]
        lbfgs_s += sum(dur[c] for c in rounds)
        m[f"distance.cc_distance.{norm}.ms_p50"] = \
            _median([dur[i] * 1e3 for i in idx])
        m[f"distance.lbfgs.{norm}.iters_per_solve"] = \
            _ratio(sum(spans[c][4]["nit"] for c in rounds), len(idx))
        m[f"distance.lbfgs.{norm}.rounds_per_solve"] = \
            _ratio(len(rounds), len(idx))
        m[f"distance.lbfgs.{norm}.maxiter_hit_ratio"] = \
            _ratio(sum(spans[c][4]["maxiter_hit"] for c in rounds),
                   len(rounds))
    m["distance.lbfgs.time_share"] = \
        _ratio(lbfgs_s, sum(dur[i] for i in solves))
    infos = [spans[i][4] for i in solves]
    m["distance.degraded_ratio"] = \
        _ratio(sum(x["degraded"] for x in infos), len(infos))
    m["distance.bracket_violations"] = sum(
        not within_bracket(x["value"], x["lower"], x["upper"]) for x in infos)
    m["distance.radial_profile.build_s"] = \
        sum(dur[i] for i in by_name["distance.radial_profile"])
    m["distance.ball_volume_fit.membership_s"] = sum(
        dur[i] - under(i, "distance.radial_profile")
        for i in by_name["distance.ball_volume_fit"])

    # growth
    balls = by_name["growth.word_ball"]
    for group in ("heis_Z", "z3"):
        idx = [i for i in balls if spans[i][4]["group"] == group]
        m[f"growth.word_ball.{group}.us_per_element"] = 1e6 * _ratio(
            sum(dur[i] for i in idx),
            sum(spans[i][4]["elements"] for i in idx))
    m["growth.word_ball.elements"] = sum(spans[i][4]["elements"]
                                         for i in balls)
    m["growth.generator_robustness.non_table_s"] = sum(
        dur[i] - under(i, "growth.word_ball")
        for i in by_name["growth.generator_robustness"])
    m["growth.word_norm.ms_p50"] = \
        _median([dur[i] * 1e3 for i in by_name["growth.word_norm"]])

    # acceptance: one span per criterion function
    for k in range(1, 13):
        m[f"acceptance.c{k:02d}.s"] = \
            sum(dur[i] for i in by_name[f"acceptance.c{k:02d}"])

    # small layers: outermost calls into the layer, and named functions
    for layer in ("qalgebra", "heisenberg", "geometry", "pansu"):
        outer = [i for i in range(n) if layer_of[i] == layer and
                 (spans[i][3] < 0 or layer_of[spans[i][3]] != layer)]
        m[f"{layer}.calls"] = len(outer)
        m[f"{layer}.us_per_call"] = \
            1e6 * _ratio(sum(dur[i] for i in outer), len(outer))
    for fname in NAMED_FUNCTIONS:
        idx = by_name[fname]
        m[f"{fname}.calls"] = len(idx)
        m[f"{fname}.us_per_call"] = \
            1e6 * _ratio(sum(dur[i] for i in idx), len(idx))

    # cli and reports
    m["cli.run.overhead_ms"] = 1e3 * sum(
        dur[i] - under(i, "cli.handler") for i in by_name["cli.run"])
    writes = by_name["reports.write_bundle"]
    m["reports.write_bundle.ms"] = 1e3 * sum(dur[i] for i in writes)
    m["reports.bundle_bytes"] = sum(spans[i][4]["bytes"] for i in writes)
    m["trace.spans"] = n
    return m


def word_ball_peak_bytes(lib):
    """Peak traced allocation of one heis_Z word_ball, per element."""
    growth = lib.growth
    tracemalloc.start()
    try:
        table = growth.word_ball("heis_Z",
                                 growth.STANDARD_GENERATORS["heis_Z"],
                                 ALLOC_RADIUS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / table.counts[-1]
