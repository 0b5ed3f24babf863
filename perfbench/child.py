"""One repetition of one workload, in a fresh process.

Started by ``run.py`` with the library's ``src`` directory on
PYTHONPATH and the BLAS/OpenMP thread variables set to 1. It imports the
library, builds the inputs from the seed (set-up), runs the measured body
with or without tracing, checks the outputs against the oracles, and
writes one JSON record to ``--out``. ``--setup-only`` stops after set-up.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import time

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_library():
    """The carnot_lab package with its nine layer modules imported, taken
    from this checkout's ``src``."""
    import carnot_lab
    for layer in tracing.LAYERS:
        importlib.import_module(f"carnot_lab.{layer}")
    src = os.path.join(ROOT, "src")
    if os.path.commonpath([os.path.abspath(carnot_lab.__file__), src]) != src:
        raise SystemExit(f"carnot_lab was imported from {carnot_lab.__file__},"
                         f" not from {src}")
    return carnot_lab


def measure(lib, wl, inputs, scratch, run_id=None, spans_path=None):
    """Run the workload body once and check it. With a ``run_id`` the
    run is traced, and its spans are written to ``spans_path``."""
    tracer = None
    if run_id is not None:
        tracer = tracing.Tracer(run_id)
        tracer.install(lib)
    t0 = time.perf_counter()
    try:
        out = wl.run(lib, inputs, scratch)
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops = wl.check(inputs, out)
    record = {"wall_s": wall, "peak_rss_mb": rss_mb, "ops": ops,
              "samples": wl.samples(inputs, out, ops)}
    if tracer is not None:
        layer = tracing.layer_metrics(tracer.spans, wall)
        layer["growth.word_ball.peak_bytes_per_element"] = (
            tracing.word_ball_peak_bytes(lib)
            if layer["growth.word_ball.elements"] else 0.0)
        record["layer_metrics"] = layer
        if spans_path is not None:
            tracer.dump(spans_path, t0)
    return record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True,
                    choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rep", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    lib = load_library()
    wl = workloads.WORKLOADS[args.workload]
    scratch = os.path.join(os.path.dirname(os.path.abspath(args.out)),
                           f"scratch-{os.getpid()}")
    os.makedirs(scratch)
    try:
        inputs = wl.make_inputs(args.seed, scratch)
        record = {"ready": time.monotonic()}
        if not args.setup_only:
            run_id = f"{wl.name}/seed{args.seed}/rep{args.rep}" \
                if args.trace else None
            spans = os.path.splitext(args.out)[0] + ".spans.jsonl.gz"
            record.update(measure(lib, wl, inputs, scratch, run_id, spans))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(args.out, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
