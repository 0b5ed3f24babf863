"""The benchmark's workloads: inputs from a seed, the measured body, and
the oracle checks that decide which operations failed.

Each workload is closed-loop with one caller: the next library call
starts when the previous one returns. A workload object has

* ``make_inputs(seed, scratch)``: everything the library will receive,
  derived from the seed alone (this is part of set-up time);
* ``run(lib, inputs, scratch)``: the measured body, returning raw outputs
  and the benchmark's own timings around each library call;
* ``check(inputs, out)``: one record per operation attempted, each with
  ``ok`` (every check passed) and ``oracle_ok`` (the value agrees with
  its independent oracle; a miss makes the run incorrect);
* ``samples(inputs, out, ops)``: raw numbers behind the workload's own
  metrics, timed by the benchmark around its own calls; ``reduce_samples``
  pools them over a run's repetitions into ``WORKLOAD_METRICS``.

Why these three:

* ``release-gate`` is ``verify-all``, the command every user and every
  change runs, and the only workload where qalgebra, heisenberg,
  geometry, pansu, acceptance, cli and reports do any work.
* ``distance-survey`` is the only workload where the l1/linf solver runs,
  and it also uses the distance layer in bulk (Monte Carlo membership
  after a one-off profile build); growth does no work in it.
* ``lattice-growth`` is almost all breadth-first search, with memory
  growing like r^4, and word_norm's early exit uses the same search
  differently; distance does no work in it.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import time
from collections import defaultdict

import numpy as np

import oracle

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def within_bracket(value, lower, upper):
    """lower <= value <= upper, up to a relative rounding slack of 1e-12."""
    slack = 1e-12 * max(1.0, abs(value))
    return lower - slack <= value <= upper + slack


def _op(name, ok, oracle_ok=True, **detail):
    return {"op": name, "ok": bool(ok and oracle_ok),
            "oracle_ok": bool(oracle_ok), **detail}


# ---------------------------------------------------------------------------

class ReleaseGate:
    """``verify-all`` at the default seed through ``cli.run``.

    The gate's input is fixed by design (its bundle must be
    byte-identical across runs of one commit), so the seed is recorded
    but selects nothing.
    """

    name = "release-gate"

    def make_inputs(self, seed, scratch):
        outdir = os.path.join(scratch, "verify-all")
        os.makedirs(outdir, exist_ok=True)
        return {"output_dir": outdir,
                "digest_store": os.path.join(os.path.dirname(scratch),
                                             "verify-all-digests.json"),
                "source": source_digest(os.path.join(ROOT, "src"))}

    def run(self, lib, inputs, scratch):
        config = {"seed": lib.acceptance.DEFAULT_SEED,
                  "output_dir": inputs["output_dir"], "format": "json"}
        bundle = lib.cli.run("verify-all", config)
        path = os.path.join(inputs["output_dir"], "verify-all.bundle.json")
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        return {"criteria": [(rec["id"], rec["name"], rec["passed"])
                             for rec in bundle.payload["criteria"]],
                "bundle_sha256": digest}

    def check(self, inputs, out):
        ops = [_op(f"criterion {cid:02d} {name}", passed, passed)
               for cid, name, passed in out["criteria"]]
        # criterion 13 across benchmark runs: the first run of a source
        # tree records its bundle digest, every later run must match it
        try:
            with open(inputs["digest_store"]) as fh:
                store = json.load(fh)
        except FileNotFoundError:
            store = {}
        expected = store.setdefault(inputs["source"], out["bundle_sha256"])
        tmp = inputs["digest_store"] + f".{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(store, fh, indent=1, sort_keys=True)
        os.replace(tmp, inputs["digest_store"])
        same = expected == out["bundle_sha256"]
        ops.append(_op("criterion 13 bundle determinism", same, same,
                       sha256=out["bundle_sha256"], expected=expected))
        return ops

    def samples(self, inputs, out, ops):
        return {}


# ---------------------------------------------------------------------------

class DistanceSurvey:
    """Seeded l2 / l1 / linf distance solves at the default segment count,
    then one cold Monte Carlo volume fit of the l2 ball."""

    name = "distance-survey"
    PAIRS = {"l2": {"generic": 32, "vertical": 4, "near_vertical": 4},
             "l1": {"generic": 4, "vertical": 1, "near_vertical": 1},
             "linf": {"generic": 4, "vertical": 1, "near_vertical": 1}}
    VOLUME_RADII = (0.5, 1.0, 1.5, 2.0)
    VOLUME_SAMPLES = 1_000_000
    VOLUME_SIGMAS = 4.0
    L2_MAX_EXCESS = 1e-3

    @staticmethod
    def _pair(rng, kind):
        a = tuple(float(c) for c in rng.uniform(-1.5, 1.5, 3))
        if kind == "generic":
            delta = tuple(float(c) for c in rng.uniform(-1.5, 1.5, 3))
        else:
            z = float(rng.uniform(0.25, 2.0)) * float(rng.choice([-1.0, 1.0]))
            if kind == "vertical":
                delta = (0.0, 0.0, z)
            else:
                rho = 10.0 ** float(rng.uniform(-3.0, -1.5)) * abs(z) ** 0.5
                ang = float(rng.uniform(0.0, 2.0 * np.pi))
                delta = (rho * float(np.cos(ang)), rho * float(np.sin(ang)), z)
        return a, oracle.heis_mul(a, delta)

    def make_inputs(self, seed, scratch):
        rng = np.random.default_rng([seed, 2])
        solves = []
        for norm, mix in self.PAIRS.items():
            for kind, count in mix.items():
                for _ in range(count):
                    a, b = self._pair(rng, kind)
                    solves.append({"norm": norm, "kind": kind, "a": a,
                                   "b": b})
        order = rng.permutation(len(solves))
        solves = [solves[i] for i in order]
        return {"solves": solves,
                "volume_seed": int(rng.integers(0, 2 ** 31 - 1))}

    def run(self, lib, inputs, scratch):
        cc_distance = lib.distance.cc_distance
        results = []
        for s in inputs["solves"]:
            t0 = time.perf_counter()
            res = cc_distance(s["a"], s["b"], norm=s["norm"])
            elapsed = time.perf_counter() - t0
            results.append({"seconds": elapsed, "value": res.value,
                            "lower": res.lower, "upper": res.upper,
                            "degraded": res.degraded})
        t0 = time.perf_counter()
        fit = lib.distance.ball_volume_fit(
            "cc", self.VOLUME_RADII, self.VOLUME_SAMPLES,
            seed=inputs["volume_seed"])
        volume_s = time.perf_counter() - t0
        return {"solves": results, "volume_fit_s": volume_s,
                "volumes": list(fit.volumes),
                "std_errors": list(fit.std_errors)}

    def check(self, inputs, out):
        ops = []
        for s, r in zip(inputs["solves"], out["solves"]):
            value = r["value"]
            in_bracket = within_bracket(value, r["lower"], r["upper"])
            oracle_ok, rel_err = True, None
            if s["norm"] == "l2":
                exact = oracle.l2_pair_distance(s["a"], s["b"])
                rel_err = (value - exact) / exact
                oracle_ok = -1e-9 <= rel_err <= self.L2_MAX_EXCESS
            ops.append(_op(f"{s['norm']} {s['kind']} solve",
                           in_bracket and not r["degraded"], oracle_ok,
                           value=value, lower=r["lower"], upper=r["upper"],
                           degraded=r["degraded"], rel_err=rel_err))
        v1 = oracle.unit_ball_volume()
        sigmas = [abs(v - v1 * rad ** 4) / se for v, se, rad in
                  zip(out["volumes"], out["std_errors"], self.VOLUME_RADII)]
        ok = max(sigmas) <= self.VOLUME_SIGMAS
        ops.append(_op("cc volume fit", ok, ok, sigmas=sigmas))
        return ops

    def samples(self, inputs, out, ops):
        l2, other, rel = [], [], []
        for s, r, op in zip(inputs["solves"], out["solves"], ops):
            if s["norm"] == "l2":
                l2.append(r["seconds"] * 1e3)
                rel.append(abs(op["rel_err"]))
            else:
                other.append(r["seconds"] * 1e3)
        return {"ccdist_l2_ms": l2, "ccdist_nonsmooth_ms": other,
                "ccdist_l2_rel_err": rel,
                "volume_fit_s": [out["volume_fit_s"]]}


# ---------------------------------------------------------------------------

def _heis_inverse(g):
    a, c, b = g
    return (-a, -c, a * c - b)


class LatticeGrowth:
    """Whole-ball enumeration, generator robustness and early-exit
    word-norm queries in the integer Heisenberg group and Z^3.

    Ball radii are fixed so the search does the same work for every seed;
    the seed picks the word-norm query elements, one of each true norm
    12..18.
    """

    name = "lattice-growth"
    HEIS_RADIUS = 34
    Z3_RADIUS = 40
    ROBUSTNESS_RADIUS = 18
    ROBUSTNESS_GENERATORS = ((1, 0, 0), (0, 1, 0), (1, 1, 1))
    ROBUSTNESS_MAX_GAP = 0.3   # criterion 12's threshold
    QUERY_NORMS = range(12, 19)   # one element each, queried as g, g^-1

    def make_inputs(self, seed, scratch):
        rng = np.random.default_rng([seed, 3])
        levels = oracle.heis_ball_levels(max(self.QUERY_NORMS))
        queries = []
        for n in self.QUERY_NORMS:
            g = levels[n][int(rng.integers(len(levels[n])))]
            queries.append({"element": g, "norm": n})
            queries.append({"element": _heis_inverse(g), "norm": n})
        counts = np.cumsum([len(lv) for lv in levels]).tolist()
        return {"queries": queries, "heis_counts": counts}

    def run(self, lib, inputs, scratch):
        growth = lib.growth
        std = growth.STANDARD_GENERATORS
        timings = {}
        t0 = time.perf_counter()
        heis = growth.word_ball("heis_Z", std["heis_Z"], self.HEIS_RADIUS)
        timings["heis_ball_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        z3 = growth.word_ball("z3", std["z3"], self.Z3_RADIUS)
        timings["z3_ball_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        rob = growth.generator_robustness("heis_Z", std["heis_Z"],
                                          self.ROBUSTNESS_GENERATORS,
                                          self.ROBUSTNESS_RADIUS)
        timings["robustness_s"] = time.perf_counter() - t0
        norms, query_ms = [], []
        for q in inputs["queries"]:
            t0 = time.perf_counter()
            norms.append(growth.word_norm(q["element"], "heis_Z",
                                          radius_cap=max(self.QUERY_NORMS)))
            query_ms.append((time.perf_counter() - t0) * 1e3)
        return {"heis_counts": list(heis.counts), "z3_counts": list(z3.counts),
                "coverage_ok": rob.coverage_ok,
                "exponent_gap": rob.exponent_gap, "norms": norms,
                "query_ms": query_ms, **timings}

    def check(self, inputs, out):
        heis = out["heis_counts"]
        known = inputs["heis_counts"]
        heis_ok = heis[:3] == [1, 5, 17] and heis[:len(known)] == known
        z3_ok = out["z3_counts"] == [oracle.octahedral_count(r)
                                     for r in range(self.Z3_RADIUS + 1)]
        rob_ok = (out["coverage_ok"]
                  and out["exponent_gap"] <= self.ROBUSTNESS_MAX_GAP)
        ops = [_op("heis_Z word_ball counts", heis_ok, heis_ok),
               _op("z3 word_ball counts", z3_ok, z3_ok),
               _op("heis_Z generator robustness", rob_ok, rob_ok,
                   exponent_gap=out["exponent_gap"],
                   coverage_ok=out["coverage_ok"])]
        for i, (q, got) in enumerate(zip(inputs["queries"], out["norms"])):
            partner = out["norms"][i ^ 1]   # g and g^-1 sit side by side
            ok = got == q["norm"] and got == partner
            ops.append(_op(f"word_norm {q['element']}", ok, ok, norm=got,
                           expected=q["norm"]))
        return ops

    def samples(self, inputs, out, ops):
        elements = out["heis_counts"][-1] + out["z3_counts"][-1]
        bfs_s = out["heis_ball_s"] + out["z3_ball_s"]
        return {"bfs_us_per_element": [bfs_s / elements * 1e6],
                "robustness_s": [out["robustness_s"]],
                "word_norm_ms": out["query_ms"]}


WORKLOADS = {w.name: w for w in (ReleaseGate(), DistanceSurvey(),
                                 LatticeGrowth())}

# metric -> (the samples it reduces, statistic). A run pools the samples
# of its untraced repetitions; a metric whose samples a workload does not
# produce reads 0 there.
WORKLOAD_METRICS = {
    "ccdist_l2_ms_p50": ("ccdist_l2_ms", "p50"),
    "ccdist_l2_ms_p75": ("ccdist_l2_ms", "p75"),
    "ccdist_nonsmooth_ms_p50": ("ccdist_nonsmooth_ms", "p50"),
    "ccdist_l2_rel_err_max": ("ccdist_l2_rel_err", "max"),
    "volume_fit_s": ("volume_fit_s", "p50"),
    "bfs_us_per_element": ("bfs_us_per_element", "p50"),
    "robustness_s": ("robustness_s", "p50"),
    "word_norm_ms_p50": ("word_norm_ms", "p50"),
}

_STATISTICS = {"p50": statistics.median,
               "p75": lambda v: float(np.percentile(v, 75)),
               "max": max}


def reduce_samples(per_rep):
    """``WORKLOAD_METRICS`` from the ``samples`` of several repetitions."""
    pooled = defaultdict(list)
    for samples in per_rep:
        for key, values in samples.items():
            pooled[key].extend(values)
    return {name: _STATISTICS[stat](pooled[key]) if pooled[key] else 0.0
            for name, (key, stat) in WORKLOAD_METRICS.items()}


def source_digest(src_dir):
    """sha256 over the library sources, naming one version of the code."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(src_dir)):
        dirnames.sort()
        for fn in sorted(filenames):
            if fn.endswith(".py"):
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, src_dir).encode())
                with open(path, "rb") as fh:
                    h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()

