"""carnot-lab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout and imports the library from its
``src`` directory. Each repetition of the workload runs in a fresh,
single-threaded child process (BLAS/OpenMP thread variables set to 1 in
the child only), so caches start cold as they do for a CLI user.
Repetitions run closed-loop, one at a time; another one starts only while
it is expected to end within S seconds, and at least one always runs.
Set-up time is the median over at least five children: the repetitions,
plus set-up-only children when there are fewer than five repetitions.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: medians
over the repetitions. ``--trace 1`` runs the same untraced repetitions
and then one traced repetition, and reports the per-layer metrics of
BENCHMARK.json: those of the traced repetition, the workload's own
timings from the untraced ones, and the tracing overhead between them.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a table of every metric with
its unit goes to standard error. ``attempted`` counts the operations of
one pass of the workload and ``failed`` those that failed any check in
any repetition; ``correct`` is false when a value disagrees with its
independent oracle (see workloads.py). The full record, with the
machine description and every operation checked, is written to
``perfbench/out/``. ``--workload all`` runs every workload in turn and
prints one table for all of them.

The benchmark controls only its own processes and their environment: it
does no CPU pinning, drops no file cache and sets no machine-wide
setting, so other load on the machine shows in its numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

from workloads import WORKLOADS, reduce_samples

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")

SETUP_SAMPLES = 5         # set-up-only children make up the difference
RUN_DEADLINE_S = 170.0    # the whole run, set-up probes included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def machine():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "platform": platform.platform()}


class Runner:
    def __init__(self, workload, seed, deadline):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=SRC,
                        **{var: "1" for var in THREAD_VARS})

    def child(self, tag, *extra):
        """Run one child; returns its record plus its set-up time and
        its whole duration, both timed from the spawn."""
        out = os.path.join(OUT, f"{self.workload}-seed{self.seed}-{tag}.json")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run deadline reached")
        cmd = [sys.executable, CHILD, "--workload", self.workload,
               "--seed", str(self.seed), "--out", out, *extra]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT,
                                  stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"child {tag} exceeded the run deadline") \
                from exc
        ended = time.monotonic()
        if proc.returncode != 0:
            raise BenchError(f"child {tag} exited with {proc.returncode}")
        with open(out) as fh:
            record = json.load(fh)
        os.remove(out)
        record["setup_s"] = record["ready"] - spawned
        record["duration_s"] = ended - spawned
        return record


def run_workload(workload, seed, seconds, trace):
    """All children of one run; returns (result line, full record)."""
    runner = Runner(workload, seed, time.monotonic() + RUN_DEADLINE_S)
    reps = []
    measure_start = time.monotonic()
    while True:
        rep = runner.child(f"rep{len(reps)}", "--rep", str(len(reps)))
        reps.append(rep)
        now = time.monotonic()
        if (now - measure_start + rep["duration_s"] > seconds
                or now + rep["duration_s"] > runner.deadline):
            break
    setups = [rep["setup_s"] for rep in reps] + [
        runner.child(f"setup{i}", "--setup-only")["setup_s"]
        for i in range(SETUP_SAMPLES - len(reps))]
    traced = runner.child("traced", "--rep", str(len(reps)), "--trace", "1") \
        if trace else None
    result, own = summarize(reps, setups, traced, load_spec())
    checked = reps + ([traced] if traced else [])
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "machine": machine(), "result": result,
              "setup_s": setups, "workload_metrics": own,
              "reps": [{k: v for k, v in r.items() if k != "ops"}
                       for r in checked],
              "failed_ops": [op for r in checked for op in r["ops"]
                             if not op["ok"]]}
    return result, record


def summarize(reps, setups, traced, spec):
    """The result line of a run from its children's records, and the
    workload's own metrics. ``traced`` is None for an untraced run."""
    # every repetition attempts the same operations in the same order; an
    # operation fails if it fails in any of them, so the counts do not
    # depend on how many repetitions fitted into the run
    passes = [rep["ops"] for rep in reps + ([traced] if traced else [])]
    if len({len(ops) for ops in passes}) != 1:
        raise BenchError("repetitions attempted different operations")
    result = {"correct": all(op["oracle_ok"] for ops in passes for op in ops),
              "attempted": len(passes[0]),
              "failed": sum(not all(ops[i]["ok"] for ops in passes)
                            for i in range(len(passes[0])))}
    wall_s = _median(r["wall_s"] for r in reps)
    own = reduce_samples(r["samples"] for r in reps)
    if traced:
        metrics = dict(traced["layer_metrics"], **own)
        metrics["trace.wall_s"] = traced["wall_s"]
        metrics["trace.untraced_wall_s"] = wall_s
        metrics["trace.overhead_ratio"] = traced["wall_s"] / wall_s - 1.0
        wanted = spec["per_layer"]
    else:
        metrics = {"setup_s": _median(setups), "wall_s": wall_s,
                   "peak_rss_mb": _median(r["peak_rss_mb"] for r in reps)}
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    result["metrics"] = {m["name"]: {"value": metrics[m["name"]],
                                     "unit": m["unit"]} for m in wanted}
    return result, own


def _median(values):
    return statistics.median(list(values))


def table(workload, result, record):
    """Every metric of the run with its unit, then each failed operation."""
    lines = [f"== {workload}  seed={record['seed']}  trace={record['trace']}"
             f"  children={len(record['reps'])}"
             f"  attempted={result['attempted']}  failed={result['failed']}"
             f"  correct={result['correct']}"]
    rows = dict(result["metrics"])
    if not record["trace"]:
        units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
        rows.update({k: {"value": v, "unit": units[k]}
                     for k, v in record["workload_metrics"].items() if v})
    for name, m in rows.items():
        lines.append(f"  {name:48s} {m['value']:>14.6g} {m['unit']}")
    for op in record["failed_ops"]:
        detail = {k: v for k, v in op.items() if k not in ("op", "ok")}
        lines.append(f"  FAILED {op['op']}: {json.dumps(detail)}")
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "carnot_lab", "__init__.py")):
        print(f"no carnot_lab sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("--seconds must be at least 1", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    results = {}
    for name in names:
        try:
            result, record = run_workload(name, args.seed, args.seconds,
                                          args.trace)
        except BenchError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        path = os.path.join(
            OUT, f"result-{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump(record, fh, indent=1)
        print(table(name, result, record),
              file=sys.stdout if len(names) > 1 else sys.stderr)
        results[name] = result
    print(json.dumps(results if len(names) > 1 else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
