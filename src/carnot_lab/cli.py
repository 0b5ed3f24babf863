"""Command-line entry point for reproducible experiment runs.

Every subcommand resolves its configuration (flags take precedence over
the CARNOT_LAB_OUTPUT environment variable, then over a flat key = value
config file, then over built-in defaults), dispatches to the owning
module, writes a deterministic ReportBundle plus a volatile meta sidecar
into the output directory, and prints a short summary.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import acceptance, discrepancies, distance, geometry, growth, \
    heisenberg, pansu, qalgebra
from .errors import BudgetError, ConvergenceError, DomainError
from .reports import ReportBundle, canonical_json, emit_plot_table, \
    read_bundle, write_bundle

ENV_OUTPUT = "CARNOT_LAB_OUTPUT"

COMMANDS = ("entropy", "qadd", "group", "ccdist", "holonomy", "volume",
            "pansu", "growth", "verify-all")


class _InputError(DomainError):
    """A command input rejected where it is parsed; like a usage error,
    it ends the CLI with exit 2 rather than as a module error."""


class CommandError(Exception):
    def __init__(self, module, message, payload=None):
        super().__init__(message)
        self.module = module
        self.payload = payload or {}


def _json_safe(obj):
    """Make payload values canonical-JSON friendly (no NaN/inf, no numpy
    scalars)."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if math.isnan(v):
            return None
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _json_safe(obj.tolist())
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


# ---------------------------------------------------------------------------
# payload builders, one per command

def _parse_weights(spec_str, renormalize):
    if spec_str.startswith("uniform"):
        n = int(spec_str[len("uniform"):] or 2)
        if n < 1:
            raise DomainError("uniform preset needs n >= 1")
        return np.full(n, 1.0 / n)
    if os.path.exists(spec_str) or spec_str.endswith((".json", ".csv")):
        return qalgebra.load_distribution(spec_str, renormalize=renormalize)
    weights = [float(tok) for tok in spec_str.split(",") if tok.strip()]
    return qalgebra.as_distribution(weights, renormalize=renormalize)


def _cmd_entropy(cfg):
    w = _parse_weights(cfg["dist"], cfg["renormalize"])
    q = cfg["q"]
    return {
        "weights": list(w),
        "q": q,
        "tsallis": qalgebra.tsallis_entropy(w, q),
        "bgs": qalgebra.bgs_entropy(w),
        "rescaled": qalgebra.rescaled_entropy(w, q),
        "abe": qalgebra.abe_entropy(w, q),
    }


def _cmd_qadd(cfg):
    return {"result": qalgebra.q_add(cfg["x"], cfg["y"], cfg["q"])}


def _load_json(text, where):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _InputError(f"{where} is not valid JSON: {text!r}") from exc


def _parse_element(data, where):
    """A group element with finite coordinates, given as JSON text or as
    a parsed record."""
    if isinstance(data, str):
        data = _load_json(data, where)
    try:
        el = heisenberg.element_from_json(data)
    except (TypeError, ValueError, OverflowError) as exc:
        raise _InputError(f"{where}: not a group element, got {data!r}") \
            from exc
    if not all(math.isfinite(c) for c in el):
        raise _InputError(f"{where}: coordinates must be finite, got {data!r}")
    return el


def _element_json(el):
    if isinstance(el, heisenberg.HeisMatrix):
        return heisenberg.matrix_to_json(el)
    if isinstance(el, heisenberg.HeisPoint):
        return heisenberg.point_to_json(el)
    return {"alpha": el.alpha, "beta": el.beta, "gamma": el.gamma}


def _cmd_group(cfg):
    op = cfg["op"]
    g1 = _parse_element(cfg["g1"], "--g1")
    g2 = _parse_element(cfg["g2"], "--g2") if cfg.get("g2") else None
    M, P = heisenberg.HeisMatrix, heisenberg.HeisPoint
    if op == "mul":
        if isinstance(g1, M) and isinstance(g2, M):
            result = heisenberg.mul(g1, g2)
        elif isinstance(g1, P) and isinstance(g2, P):
            result = heisenberg.exp_mul(g1, g2)
        else:
            raise DomainError("mul needs two elements in the same coordinates")
    elif op == "inv":
        result = heisenberg.inv(g1) if isinstance(g1, M) \
            else heisenberg.exp_inv(g1)
    elif op == "commutator":
        if isinstance(g1, P) and isinstance(g2, P):
            result = heisenberg.matrix_to_point(
                heisenberg.commutator(heisenberg.point_to_matrix(g1),
                                      heisenberg.point_to_matrix(g2)))
        elif isinstance(g1, M) and isinstance(g2, M):
            result = heisenberg.commutator(g1, g2)
        else:
            raise DomainError("commutator needs two elements in the same "
                              "coordinates")
    elif op == "exp":
        if not isinstance(g1, heisenberg.LieVector):
            raise DomainError("exp needs an algebra element "
                              '{"alpha":..,"beta":..,"gamma":..}')
        result = heisenberg.exp_map(g1)
    elif op == "log":
        if not isinstance(g1, M):
            raise DomainError('log needs a matrix element {"a":..,"c":..,"b":..}')
        result = heisenberg.log_map(g1)
    else:
        raise DomainError(f"unknown group op {op!r}")
    return {"op": op, "result": _element_json(result)}


def _ccdist_point(data, where):
    """A ccdist endpoint: a point {"x":..,"y":..,"z":..}."""
    el = _parse_element(data, where)
    if not isinstance(el, heisenberg.HeisPoint):
        raise _InputError(f'{where}: expected a point {{"x":..,"y":..,"z":..}}'
                          f", got {data!r}")
    return el


def _cmd_ccdist(cfg):
    if cfg.get("pairs"):
        with open(cfg["pairs"]) as fh:
            records = _load_json(fh.read(), cfg["pairs"])
        if not isinstance(records, list) or \
                not all(isinstance(rec, dict) for rec in records):
            raise _InputError(f"{cfg['pairs']}: expected a JSON list of "
                              '{"A":..,"B":..} records')
        pairs = [(_ccdist_point(rec.get("A"), f"pairs[{i}].A"),
                  _ccdist_point(rec.get("B"), f"pairs[{i}].B"))
                 for i, rec in enumerate(records)]
    elif cfg.get("a") is None or cfg.get("b") is None:
        raise _InputError("ccdist needs --a and --b, or --pairs")
    else:
        pairs = [(_ccdist_point(cfg["a"], "--a"),
                  _ccdist_point(cfg["b"], "--b"))]
    out = []
    first_witness = None
    for a, b in pairs:
        res = distance.cc_distance(a, b, segments=cfg["segments"],
                                   norm=cfg["norm"],
                                   endpoint_tol=cfg["tol"])
        if first_witness is None:
            first_witness = res.witness
        out.append({"A": heisenberg.point_to_json(a),
                    "B": heisenberg.point_to_json(b),
                    "dist": res.value, "lower": res.lower,
                    "upper": res.upper,
                    "endpoint_error": res.endpoint_error,
                    "degraded": res.degraded})
    payload = {"pairs": out,
               "degraded": any(rec["degraded"] for rec in out),
               "norm": cfg["norm"], "segments": cfg["segments"]}
    if cfg.get("emit_path") and first_witness is not None:
        rows = geometry.sample_path(first_witness)
        with open(cfg["emit_path"], "w") as fh:
            fh.write("t,x,y,z\n")
            for row in rows:
                fh.write(",".join(repr(float(c)) for c in row) + "\n")
        payload["witness_csv"] = cfg["emit_path"]
    return payload


def _load_planar_csv(path):
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line[0].isalpha():
                continue
            cols = [float(c) for c in line.split(",")]
            if len(cols) == 2:
                rows.append(cols)
            elif len(cols) == 4:
                rows.append(cols[1:3])
            else:
                raise DomainError(f"{path}: rows must be x,y or t,x,y,z")
    return np.asarray(rows)


def _cmd_holonomy(cfg):
    if cfg.get("path"):
        loop = _load_planar_csv(cfg["path"])
    else:
        preset = cfg["loop"]
        n = cfg["samples"]
        r = cfg["radius"]
        if preset == "circle":
            theta = np.linspace(0.0, 2.0 * np.pi, n + 1)
            loop = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
            loop[-1] = loop[0]
        elif preset == "square":
            loop = r * np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]],
                                dtype=float)
        elif preset == "point":
            loop = np.zeros((2, 2))
        else:
            raise DomainError(f"unknown loop preset {preset!r}")
    area, length, defect = geometry.isoperimetric_check(loop)
    return {"holonomy": area, "area": area, "length": length,
            "isoperimetric_defect": defect, "samples": int(len(loop))}


def _cmd_volume(cfg):
    radii = [float(tok) for tok in str(cfg["radii"]).split(",")]
    fit = distance.ball_volume_fit(cfg["metric"], radii, cfg["samples"],
                                   cfg["seed"])
    return {"metric": fit.metric, "exponent": fit.exponent,
            "intercept": fit.intercept, "max_residual": fit.max_residual,
            "radii": list(fit.radii), "volumes": list(fit.volumes),
            "hits": list(fit.hits), "std_errors": list(fit.std_errors),
            "samples": fit.samples, "seed": fit.seed}


def _parse_map(spec_str):
    if spec_str == "identity":
        return lambda x: x
    if spec_str == "square":
        return lambda x: x * x
    for prefix in ("custom-polynomial", "poly"):
        if spec_str.startswith(prefix):
            rest = spec_str[len(prefix):].lstrip(":=, ")
            coeffs = [float(tok) for tok in rest.split(",") if tok.strip()]
            if not coeffs:
                raise DomainError("polynomial map needs coefficients c0,c1,..")
            rev = coeffs[::-1]
            return lambda x: float(np.polyval(rev, x))
    raise DomainError(f"unknown map spec {spec_str!r}")


def _cmd_pansu(cfg):
    fn = _parse_map(cfg["map"])
    base = tuple(float(tok) for tok in cfg["base"].split(","))
    if len(base) != 3:
        raise DomainError("base must be three comma-separated coordinates")
    gmap = pansu.GroupMap(cfg["kind"], fn)
    sched = pansu.BlowupSchedule(
        pansu.default_blowup_schedule(cfg["schedule"]), cfg["convention"])
    matrix, diag = pansu.pansu_derivative(gmap, base, sched)
    # an infinite order marks an entry whose quotient is already constant
    order = {direction: {k: "exact" if v == math.inf else v
                         for k, v in orders.items()}
             for direction, orders in diag.items()}
    return {"matrix": matrix.tolist(), "per_entry_order": order,
            "kind": cfg["kind"], "convention": cfg["convention"],
            "base": list(base)}


def _parse_generators(text):
    gens = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [int(tok) for tok in chunk.split(",")]
        if len(parts) != 3:
            raise DomainError(f"generator {chunk!r} is not a,c,b")
        gens.append(tuple(parts))
    if not gens:
        raise DomainError("no generators given")
    return tuple(gens)


def _cmd_growth(cfg):
    # an unknown group gets no standard set and is rejected by word_ball
    gens = _parse_generators(str(cfg["gens"])) if cfg.get("gens") \
        else growth.STANDARD_GENERATORS.get(cfg["group"], ())
    table = growth.word_ball(cfg["group"], gens, cfg["radius"],
                             mem_budget_mb=cfg.get("mem_budget"))
    payload = table.to_payload()
    window = cfg.get("fit_window")
    if window:
        lo, hi = (int(tok) for tok in str(window).split(","))
        d, c, resid = growth.growth_fit(table, lo, hi)
        payload["fit"] = {"window": [lo, hi], "exponent": d, "prefactor": c,
                          "max_residual": resid}
    if cfg.get("compare_gens"):
        other = _parse_generators(str(cfg["compare_gens"]))
        report = growth.generator_robustness(cfg["group"], gens, other,
                                             cfg["radius"])
        payload["robustness"] = {
            "exponents": list(report.exponents),
            "exponent_gap": report.exponent_gap,
            "count_ratio_bounds": list(report.count_ratio_bounds),
            "coverage_ok": report.coverage_ok,
            "fit_window": list(report.fit_window),
        }
    return payload


def _cmd_verify_all(cfg):
    records = acceptance.run_all(cfg["seed"])
    for rec in records:
        status = "PASS" if rec["passed"] else "FAIL"
        print(f"{status}  criterion {rec['id']:2d}  {rec['name']}")
    all_passed = all(rec["passed"] for rec in records)
    return {"criteria": records, "all_passed": all_passed,
            "seed": cfg["seed"]}


_HANDLERS = {
    "entropy": ("q_algebra", _cmd_entropy),
    "qadd": ("q_algebra", _cmd_qadd),
    "group": ("heisenberg_group", _cmd_group),
    "ccdist": ("subriemannian", _cmd_ccdist),
    "holonomy": ("subriemannian", _cmd_holonomy),
    "volume": ("subriemannian", _cmd_volume),
    "pansu": ("pansu", _cmd_pansu),
    "growth": ("cayley_growth", _cmd_growth),
    "verify-all": ("cli_reports", _cmd_verify_all),
}


def run(command, config) -> ReportBundle:
    """Dispatch a command, write its bundle, and return it.

    ``config`` must carry the command parameters plus ``output_dir`` and
    ``format``; the bundle echoes it verbatim (minus unset keys). Module
    failures raise CommandError; an input rejected where the command
    parses it raises DomainError.
    """
    if command not in _HANDLERS:
        raise CommandError("cli_reports", f"unknown command {command!r}")
    module, handler = _HANDLERS[command]
    t0 = time.perf_counter()
    try:
        payload = _json_safe(handler(config))
    except _InputError:
        raise
    except BudgetError as exc:
        partial = exc.partial.to_payload() if exc.partial is not None else {}
        raise CommandError(module, str(exc),
                           {"partial": _json_safe(partial)}) from exc
    except (DomainError, ConvergenceError, OSError, ValueError) as exc:
        raise CommandError(module, str(exc)) from exc
    wall = time.perf_counter() - t0
    # delivery-only keys do not affect the payload and would tie the
    # bundle bytes to a filesystem location, so they stay out of the echo
    config_echo = {k: v for k, v in sorted(config.items())
                   if v is not None and k not in ("output_dir", "format")}
    bundle = ReportBundle(command=command, config=_json_safe(config_echo),
                          payload=payload,
                          ledger_entries=discrepancies.entries_for(command),
                          wall_time=wall)
    try:
        write_bundle(bundle, config["output_dir"])
        if config.get("format") == "csv":
            csv_text = emit_plot_table(bundle)
            csv_path = os.path.join(config["output_dir"],
                                    f"{command}.table.csv")
            with open(csv_path, "w") as fh:
                fh.write(csv_text)
    except (OSError, ValueError) as exc:
        # ValueError: a payload with no tabular form asked for as csv
        raise CommandError("cli_reports", str(exc)) from exc
    return bundle


# ---------------------------------------------------------------------------
# argument parsing and config-file resolution

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="carnot-lab",
        description="experiments in deformed entropy composition and "
                    "group-based sub-Riemannian geometry")
    parser.add_argument("--output-dir", default=None,
                        help="directory for result bundles "
                             f"(default '.', env {ENV_OUTPUT} overrides)")
    parser.add_argument("--config", default=None,
                        help="flat key = value config file")
    parser.add_argument("--format", default=None, choices=["json", "csv"],
                        help="persistence format (csv adds a plot table)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("entropy", help="entropy values of a distribution")
    p.add_argument("--dist", default=None,
                   help="uniformN preset, JSON/CSV file, or w1,w2,..")
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--renormalize", action=argparse.BooleanOptionalAction,
                   default=None)

    p = sub.add_parser("qadd", help="deformed sum of two reals")
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--y", type=float, default=None)
    p.add_argument("--q", type=float, default=None)

    p = sub.add_parser("group", help="group arithmetic on JSON elements")
    p.add_argument("op", choices=["mul", "inv", "commutator", "exp", "log"])
    p.add_argument("--g1", required=True)
    p.add_argument("--g2", default=None)

    p = sub.add_parser("ccdist", help="distance between two points")
    p.add_argument("--a", default=None, help='{"x":..,"y":..,"z":..}')
    p.add_argument("--b", default=None)
    p.add_argument("--pairs", default=None,
                   help="JSON file [{A:..,B:..},..] for a survey")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--segments", type=int, default=None,
                   help="l2 time slots; l1 and linf are exact and ignore it")
    p.add_argument("--norm", default=None, choices=list(geometry.HORIZONTAL_NORMS))
    p.add_argument("--emit-path", default=None,
                   help="write the witness trajectory CSV here")

    p = sub.add_parser("holonomy", help="vertical displacement of a loop")
    p.add_argument("--path", default=None, help="planar loop CSV")
    p.add_argument("--loop", default=None,
                   choices=["circle", "square", "point"])
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--radius", type=float, default=None)

    p = sub.add_parser("volume", help="Monte Carlo ball-volume scaling")
    p.add_argument("--metric", default=None, choices=["cc", "euclidean"])
    p.add_argument("--radii", default=None, help="r1,r2,r3,..")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("pansu", help="blow-up derivative of an entrywise map")
    p.add_argument("--map", default=None,
                   help="square | identity | custom-polynomial:c0,c1,..")
    p.add_argument("--base", default=None, help="x,y,z")
    p.add_argument("--kind", default=None, choices=list(pansu.MAP_KINDS))
    p.add_argument("--convention", default=None,
                   choices=list(pansu.CONVENTIONS))
    p.add_argument("--schedule", type=int, default=None,
                   help="number of halving levels")

    p = sub.add_parser("growth", help="word-metric ball growth")
    p.add_argument("--group", default=None,
                   choices=list(growth.GROUP_LAWS))
    p.add_argument("--radius", type=int, default=None)
    p.add_argument("--gens", default=None, help="a,c,b;a,c,b;..")
    p.add_argument("--fit-window", default=None, help="rmin,rmax")
    p.add_argument("--mem-budget", type=int, default=None, help="MB")
    p.add_argument("--compare-gens", default=None,
                   help="second generating set for a robustness report")

    p = sub.add_parser("verify-all", help="run the release-gate checks")
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("plot-table", help="render a bundle as CSV")
    p.add_argument("bundle")
    p.add_argument("-o", "--out", default=None)
    return parser


DEFAULTS = {
    "entropy": {"dist": "uniform2", "q": 1.0, "renormalize": False},
    "qadd": {"x": 0.0, "y": 0.0, "q": 1.0},
    "group": {},
    "ccdist": {"tol": distance.DEFAULT_ENDPOINT_TOL,
               "segments": distance.DEFAULT_SEGMENTS, "norm": "l2"},
    "holonomy": {"loop": "circle", "samples": 10_000, "radius": 1.0},
    "volume": {"metric": "cc", "radii": "0.5,1,2", "samples": 100_000,
               "seed": 12345},
    "pansu": {"map": "identity", "base": "0,0,0",
              "kind": "heis_to_abelian", "convention": "source_graded",
              "schedule": 20},
    "growth": {"group": "heis_Z", "radius": 12},
    "verify-all": {"seed": acceptance.DEFAULT_SEED},
}


def parse_config_file(path):
    """Flat ``key = value`` lines; values read as JSON scalars when they
    parse, raw strings otherwise. '#' starts a comment."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            value = value.strip()
            try:
                out[key] = json.loads(value)
            except json.JSONDecodeError:
                out[key] = value
    return out


def resolve_config(args):
    """Merge defaults < config file < environment < explicit flags."""
    cfg = dict(DEFAULTS.get(args.command, {}))
    cfg["output_dir"] = "."
    cfg["format"] = "json"
    if args.config:
        cfg.update(parse_config_file(args.config))
    if os.environ.get(ENV_OUTPUT):
        cfg["output_dir"] = os.environ[ENV_OUTPUT]
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        cfg[key] = value
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "plot-table":
        try:
            text = emit_plot_table(read_bundle(args.bundle))
        except (ValueError, OSError) as exc:
            print(canonical_json({"error": {"module": "cli_reports",
                                            "message": str(exc)}}),
                  file=sys.stderr)
            return 3
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0

    try:
        cfg = resolve_config(args)
        bundle = run(args.command, cfg)
    except CommandError as exc:
        err = {"error": {"module": exc.module, "message": str(exc),
                         **({"payload": exc.payload} if exc.payload else {})}}
        print(canonical_json(err), file=sys.stderr)
        return 3
    except DomainError as exc:
        print(canonical_json({"error": {"module": "cli_reports",
                                        "message": str(exc)}}),
              file=sys.stderr)
        return 2

    summary = {k: bundle.payload[k] for k in list(bundle.payload)[:6]
               if not isinstance(bundle.payload[k], (list, dict))}
    print(canonical_json({"command": bundle.command, "summary": summary,
                          "bundle": f"{bundle.command}.bundle.json",
                          "sha256": bundle.digest()}))
    if args.command == "verify-all" and not bundle.payload["all_passed"]:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
