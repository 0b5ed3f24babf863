"""Command-line entry point for reproducible experiment runs.

Every subcommand resolves its configuration (flags take precedence over
the CARNOT_LAB_OUTPUT environment variable, then over a flat key = value
config file, then over built-in defaults), dispatches to the owning
module, writes a deterministic ReportBundle plus a volatile meta sidecar
into the output directory, and prints a short summary.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
import warnings

import numpy as np

from . import acceptance, discrepancies, distance, geometry, growth, \
    heisenberg, pansu, qalgebra
from .errors import BudgetError, DomainError
from .reports import ReportBundle, canonical_json, emit_plot_table, \
    read_bundle, write_bundle

ENV_OUTPUT = "CARNOT_LAB_OUTPUT"


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
    if isinstance(obj, np.ndarray):
        return _json_safe(obj.tolist())
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float):
        if math.isnan(obj):
            return None
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
    return obj


# ---------------------------------------------------------------------------
# payload builders, one per command

def _parse_weights(spec_str, renormalize):
    if spec_str.startswith("uniform"):
        n = int(spec_str[len("uniform"):] or 2)
        if n < 1:
            raise DomainError("uniform preset needs n >= 1")
        # every weight is echoed into the bundle, so the size has a cap
        if n > 10 ** 6:
            raise _InputError(f"uniform preset takes n <= 1e6, got {n}")
        return np.full(n, 1.0 / n)
    if os.path.exists(spec_str) or spec_str.endswith((".json", ".csv")):
        return qalgebra.load_distribution(spec_str, renormalize=renormalize)
    weights = [float(tok) for tok in spec_str.split(",") if tok.strip()]
    return qalgebra.as_distribution(weights, renormalize=renormalize)


def _cmd_entropy(cfg):
    w = _parse_weights(cfg["dist"], cfg["renormalize"])
    q = cfg["q"]
    # far from q = 1 the power sum can leave the float range; the
    # entropy then reads as infinite, without numpy's warning
    with np.errstate(over="ignore"):
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


def _point_commutator(p1, p2):
    return heisenberg.matrix_to_point(heisenberg.commutator(
        heisenberg.point_to_matrix(p1), heisenberg.point_to_matrix(p2)))


_M, _P = heisenberg.HeisMatrix, heisenberg.HeisPoint
# op -> (operand count, function per operand type, refusal); the two
# operands of a binary op share their type
_GROUP_OPS = {
    "mul": (2, {_M: heisenberg.mul, _P: heisenberg.exp_mul},
            "mul needs two elements in the same coordinates"),
    "inv": (1, {_M: heisenberg.inv, _P: heisenberg.exp_inv},
            "inv needs a group element, not an algebra element"),
    "commutator": (2, {_M: heisenberg.commutator, _P: _point_commutator},
                   "commutator needs two elements in the same coordinates"),
    "exp": (1, {heisenberg.LieVector: heisenberg.exp_map},
            'exp needs an algebra element {"alpha":..,"beta":..,"gamma":..}'),
    "log": (1, {_M: heisenberg.log_map},
            'log needs a matrix element {"a":..,"c":..,"b":..}'),
}


def _cmd_group(cfg):
    op = cfg["op"]
    g1 = _parse_element(cfg["g1"], "--g1")
    g2 = _parse_element(cfg["g2"], "--g2") if cfg.get("g2") else None
    if op not in _GROUP_OPS:
        raise DomainError(f"unknown group op {op!r}")
    arity, by_type, refusal = _GROUP_OPS[op]
    if type(g1) not in by_type or (arity == 2 and type(g2) is not type(g1)):
        raise DomainError(refusal)
    result = by_type[type(g1)](*(g1, g2)[:arity])
    return {"op": op, "result": result._asdict()}


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
        out.append({"A": a._asdict(), "B": b._asdict(),
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
        if isinstance(r, bool) or not isinstance(r, (int, float)) \
                or not math.isfinite(r):
            raise _InputError(f"radius must be a finite number, got {r!r}")
        if preset == "circle":
            # the loop is streamed in blocks; its size shares the volume cap
            if isinstance(n, bool) or not isinstance(n, int) \
                    or not 1 <= n <= distance.MAX_SAMPLES:
                raise _InputError(f"samples must be an integer in "
                                  f"[1, 1e7], got {n!r}")
            with np.errstate(over="ignore", invalid="ignore"):
                check = geometry.circle_isoperimetric_check(r, n)
            return _holonomy_payload(*check, n + 1)
        elif preset == "square":
            loop = r * np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]],
                                dtype=float)
        elif preset == "point":
            loop = np.zeros((2, 2))
        else:
            raise DomainError(f"unknown loop preset {preset!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        check = geometry.isoperimetric_check(loop)
    return _holonomy_payload(*check, len(loop))


def _holonomy_payload(area, length, defect, samples):
    if not math.isfinite(area):
        raise _InputError(f"the loop's enclosed area is not a finite float "
                          f"(got {area!r}); scale it down")
    return {"holonomy": area, "area": area, "length": length,
            "isoperimetric_defect": defect, "samples": int(samples)}


def _cmd_volume(cfg):
    radii = _floats(str(cfg["radii"]).split(","), cfg["radii"])
    fit = distance.ball_volume_fit(cfg["metric"], radii, cfg["samples"],
                                   cfg["seed"])
    return dataclasses.asdict(fit)


def _floats(tokens, spec):
    try:
        return [float(tok) for tok in tokens]
    except ValueError as exc:
        raise _InputError(f"expected comma-separated numbers, got "
                          f"{spec!r}") from exc


def _parse_map(spec_str):
    # every map is a polynomial, so its blow-up derivative is exact
    if spec_str == "identity":
        return np.polynomial.Polynomial([0.0, 1.0])
    if spec_str == "square":
        return np.polynomial.Polynomial([0.0, 0.0, 1.0])
    for prefix in ("custom-polynomial", "poly"):
        if spec_str.startswith(prefix):
            rest = spec_str[len(prefix):].lstrip(":=, ")
            coeffs = _floats([tok for tok in rest.split(",") if tok.strip()],
                             spec_str)
            if not coeffs:
                raise _InputError("polynomial map needs coefficients c0,c1,..")
            if not all(map(math.isfinite, coeffs)):
                raise _InputError(f"polynomial coefficients must be finite, "
                                  f"got {spec_str!r}")
            return np.polynomial.Polynomial(coeffs)
    raise _InputError(f"unknown map spec {spec_str!r}")


def _cmd_pansu(cfg):
    fn = _parse_map(cfg["map"])
    base = tuple(_floats(cfg["base"].split(","), cfg["base"]))
    if len(base) != 3:
        raise _InputError("base must be three comma-separated coordinates")
    if not all(map(math.isfinite, base)):
        raise _InputError(f"base coordinates must be finite, got "
                          f"{cfg['base']!r}")
    gmap = pansu.GroupMap(cfg["kind"], fn)
    matrix = pansu.pansu_derivative(gmap, base,
                                    convention=cfg["convention"])
    return {"matrix": matrix.tolist(), "kind": cfg["kind"],
            "convention": cfg["convention"], "base": list(base)}


def _parse_generators(text):
    gens = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        gens.append(_ints(chunk, 3, "generator a,c,b"))
    if not gens:
        raise _InputError("no generators given")
    return tuple(gens)


def _ints(text, n, what):
    """The n comma-separated integers of ``text``; anything else is a
    usage error naming ``what``."""
    try:
        values = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        values = ()
    if len(values) != n:
        raise _InputError(f"{what} takes {n} comma-separated integers, "
                          f"got {text!r}")
    return values


def _cmd_growth(cfg):
    # every text is parsed before the search; an unknown group gets no
    # standard set and is rejected by word_ball
    gens = _parse_generators(str(cfg["gens"])) if cfg.get("gens") \
        else growth.STANDARD_GENERATORS.get(cfg["group"], ())
    other = _parse_generators(str(cfg["compare_gens"])) \
        if cfg.get("compare_gens") else None
    window = _ints(str(cfg["fit_window"]), 2, "fit window rmin,rmax") \
        if cfg.get("fit_window") else None
    # a fit the radius cannot hold is refused before the search, not
    # after it; the robustness report fits over radii 1..radius
    radius = cfg["radius"]
    if isinstance(radius, int):
        if window and not 1 <= window[0] < window[1] <= radius:
            raise _InputError(f"fit window {window[0]},{window[1]} needs "
                              f"1 <= rmin < rmax <= radius {radius}")
        if other is not None and radius < 2:
            raise _InputError(f"--compare-gens needs radius >= 2, got "
                              f"{radius}")
    report = None
    if other is not None:
        # the report's coverage_ok carries the non-generating warning
        # into the summary, so stderr stays free for JSON errors
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            report = growth.generator_robustness(
                cfg["group"], gens, other, radius,
                mem_budget_mb=cfg.get("mem_budget"))
        # its first table is word_ball's for --gens: one search, not two
        table = report.tables[0]
    else:
        table = growth.word_ball(cfg["group"], gens, radius,
                                 mem_budget_mb=cfg.get("mem_budget"))
    payload = table.to_payload()
    if window:
        lo, hi = window
        d, c, resid = growth.growth_fit(table, lo, hi)
        payload["fit"] = {"window": [lo, hi], "exponent": d, "prefactor": c,
                          "max_residual": resid}
    if report is not None:
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
    except (DomainError, OSError, ValueError) as exc:
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

class _Parser(argparse.ArgumentParser):
    """Usage errors end as one JSON line with exit 2, like every other
    rejected input, instead of argparse's usage text. A parser keeps its
    flags by destination and its subcommands by name, so that config-file
    values go through the same type and choices as the command line."""

    def __init__(self, *args, **kwargs):
        self.flags = {}
        self.commands = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.flags[action.dest] = action
        return action

    def add_subparsers(self, **kwargs):
        action = super().add_subparsers(**kwargs)
        self.commands = action.choices
        return action

    def error(self, message):
        raise _InputError(f"{self.prog}: {message}")

    def parse_args(self, args=None, namespace=None):
        ns = super().parse_args(args, namespace)
        for key, value in vars(ns).items():
            # argparse before 3.12 reads "--opt=--" as an empty list
            if isinstance(value, list):
                self.error(f"argument --{key.replace('_', '-')}: "
                           f"expected one value")
        return ns


def _build_parser():
    parser = _Parser(
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
                   help="l2 time slots, at most 1e6; l1 and linf are exact "
                        "and ignore it")
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

    p = sub.add_parser("growth", help="word-metric ball growth")
    p.add_argument("--group", default=None,
                   choices=list(growth.GROUP_LAWS))
    p.add_argument("--radius", type=int, default=None)
    p.add_argument("--gens", default=None, help="a,c,b;a,c,b;..")
    p.add_argument("--fit-window", default=None, help="rmin,rmax")
    p.add_argument("--mem-budget", type=float, default=None, help="MB")
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
              "kind": "heis_to_abelian", "convention": "source_graded"},
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


def _file_value(action, key, value):
    """A config-file value as its flag would give it: a switch takes true
    or false; any other flag takes the text that would follow it on the
    command line (a JSON string's own text, the JSON form of any other
    value) through the flag's type and choices."""
    if action.nargs == 0:
        if not isinstance(value, bool):
            raise _InputError(f"config key {key!r}: expected true or false, "
                              f"got {value!r}")
        return value
    text = value if isinstance(value, str) else json.dumps(value)
    try:
        value = text if action.type is None else action.type(text)
    except (TypeError, ValueError) as exc:
        raise _InputError(f"config key {key!r}: invalid "
                          f"{action.type.__name__} value {text!r}") from exc
    if action.choices is not None and value not in action.choices:
        raise _InputError(f"config key {key!r}: invalid choice {value!r} "
                          f"(choose from {', '.join(action.choices)})")
    return value


def resolve_config(args):
    """Merge defaults < config file < environment < explicit flags.

    A config-file key naming a flag of the command (or a global flag) is
    checked like that flag on the command line; a mismatch, or a key that
    names no such flag, is a usage error.
    """
    cfg = dict(DEFAULTS.get(args.command, {}))
    cfg["output_dir"] = "."
    cfg["format"] = "json"
    if args.config:
        try:
            values = parse_config_file(args.config)
        except (OSError, UnicodeDecodeError) as exc:
            raise _InputError(f"cannot read config file: {exc}") from exc
        parser = _build_parser()
        flags = {**parser.flags, **parser.commands[args.command].flags}
        # --config and --help are flags, but set nothing a file could
        unknown = sorted(set(values) - (set(flags) - {"config", "help"}))
        if unknown:
            raise _InputError(f"config key {unknown[0]!r} names no flag of "
                              f"{args.command!r}")
        cfg.update({key: _file_value(flags[key], key, value)
                    for key, value in values.items()})
    if os.environ.get(ENV_OUTPUT):
        cfg["output_dir"] = os.environ[ENV_OUTPUT]
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        cfg[key] = value
    return cfg


def _fail(code, module, message, payload=None):
    """Print one JSON error line to stderr and return the exit code."""
    err = {"module": module, "message": message,
           **({"payload": payload} if payload else {})}
    print(canonical_json({"error": err}), file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _InputError as exc:
        return _fail(2, "cli_reports", str(exc))

    if args.command == "plot-table":
        try:
            text = emit_plot_table(read_bundle(args.bundle))
            if args.out:
                with open(args.out, "w") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
        except (ValueError, OSError) as exc:
            return _fail(3, "cli_reports", str(exc))
        return 0

    try:
        cfg = resolve_config(args)
        bundle = run(args.command, cfg)
    except CommandError as exc:
        return _fail(3, exc.module, str(exc), exc.payload)
    except DomainError as exc:
        return _fail(2, "cli_reports", str(exc))

    summary = {k: bundle.payload[k] for k in list(bundle.payload)[:6]
               if not isinstance(bundle.payload[k], (list, dict))}
    # a generating set that may not generate is growth's degraded result
    if "robustness" in bundle.payload:
        summary["coverage_ok"] = bundle.payload["robustness"]["coverage_ok"]
    print(canonical_json({"command": bundle.command, "summary": summary,
                          "bundle": f"{bundle.command}.bundle.json",
                          "sha256": bundle.digest()}))
    if args.command == "verify-all" and not bundle.payload["all_passed"]:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
