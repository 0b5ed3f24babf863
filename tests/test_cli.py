import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from carnot_lab import cli, growth, pansu, reports
from carnot_lab.cli import CommandError, resolve_config, run
from carnot_lab.reports import read_bundle


def base_cfg(tmp_path, **kw):
    cfg = {"output_dir": str(tmp_path), "format": "json"}
    cfg.update(kw)
    return cfg


# ---------------------------------------------------------------------------
# run() dispatch

def test_entropy_run(tmp_path):
    cfg = base_cfg(tmp_path, dist="uniform2", q=2.0, renormalize=False)
    bundle = run("entropy", cfg)
    assert bundle.payload["tsallis"] == pytest.approx(0.5)
    assert bundle.payload["bgs"] == pytest.approx(math.log(2))
    assert (tmp_path / "entropy.bundle.json").exists()
    assert (tmp_path / "entropy.meta.json").exists()


def test_entropy_inline_and_file(tmp_path):
    cfg = base_cfg(tmp_path, dist="0.2,0.3,0.5", q=1.0, renormalize=False)
    assert run("entropy", cfg).payload["tsallis"] == \
        pytest.approx(1.0296530140645737)
    f = tmp_path / "w.json"
    f.write_text('{"weights": [0.5, 0.5]}')
    cfg = base_cfg(tmp_path, dist=str(f), q=2.0, renormalize=False)
    assert run("entropy", cfg).payload["tsallis"] == pytest.approx(0.5)


def test_qadd_run(tmp_path):
    bundle = run("qadd", base_cfg(tmp_path, x=1.0, y=1.0, q=0.0))
    assert bundle.payload["result"] == 3.0


def test_group_run_matrix_and_point(tmp_path):
    cfg = base_cfg(tmp_path, op="mul", g1='{"a":1,"c":1,"b":1}',
                   g2='{"a":1,"c":1,"b":1}')
    assert run("group", cfg).payload["result"] == {"a": 2.0, "c": 2.0,
                                                   "b": 3.0}
    cfg = base_cfg(tmp_path, op="mul", g1='{"x":1,"y":0,"z":0}',
                   g2='{"x":0,"y":1,"z":0}')
    assert run("group", cfg).payload["result"] == {"x": 1.0, "y": 1.0,
                                                   "z": 0.5}
    cfg = base_cfg(tmp_path, op="inv", g1='{"a":1,"c":1,"b":1}')
    assert run("group", cfg).payload["result"] == {"a": -1.0, "c": -1.0,
                                                   "b": 0.0}
    cfg = base_cfg(tmp_path, op="exp", g1='{"alpha":1,"beta":1,"gamma":0}')
    assert run("group", cfg).payload["result"] == {"a": 1.0, "c": 1.0,
                                                   "b": 0.5}
    cfg = base_cfg(tmp_path, op="log", g1='{"a":1,"c":1,"b":0.5}')
    assert run("group", cfg).payload["result"] == {"alpha": 1.0, "beta": 1.0,
                                                   "gamma": 0.0}
    cfg = base_cfg(tmp_path, op="commutator", g1='{"a":1,"c":0,"b":0}',
                   g2='{"a":0,"c":1,"b":0}')
    assert run("group", cfg).payload["result"] == {"a": 0.0, "c": 0.0,
                                                   "b": 1.0}


def test_group_mixed_coordinates_rejected(tmp_path):
    cfg = base_cfg(tmp_path, op="mul", g1='{"a":1,"c":1,"b":1}',
                   g2='{"x":0,"y":1,"z":0}')
    with pytest.raises(CommandError):
        run("group", cfg)


_G1 = {"matrix": '{"a":1.5,"c":-2,"b":0.25}',
       "point": '{"x":1.5,"y":-2,"z":0.25}',
       "algebra": '{"alpha":1.5,"beta":-2,"gamma":0.25}'}
_G2 = {"matrix": '{"a":-0.5,"c":3,"b":1}', "point": '{"x":-0.5,"y":3,"z":1}',
       "algebra": '{"alpha":-0.5,"beta":3,"gamma":1}', "none": None}
_SAME_COORDS = "{} needs two elements in the same coordinates"
# op -> result per --g1 kind (for a binary op, only with a --g2 of that
# kind), or the refusal for any other operand
_GROUP_RESULTS = {
    "mul": ({"matrix": {"a": 1.0, "c": 1.0, "b": 5.75},
             "point": {"x": 1.0, "y": 1.0, "z": 3.0}},
            _SAME_COORDS.format("mul")),
    "inv": ({"matrix": {"a": -1.5, "c": 2.0, "b": -3.25},
             "point": {"x": -1.5, "y": 2.0, "z": -0.25}},
            "inv needs a group element, not an algebra element"),
    "commutator": ({"matrix": {"a": 0.0, "c": 0.0, "b": 3.5},
                    "point": {"x": 0.0, "y": 0.0, "z": 3.5}},
                   _SAME_COORDS.format("commutator")),
    "exp": ({"algebra": {"a": 1.5, "c": -2.0, "b": -1.25}},
            'exp needs an algebra element {"alpha":..,"beta":..,"gamma":..}'),
    "log": ({"matrix": {"alpha": 1.5, "beta": -2.0, "gamma": 1.75}},
            'log needs a matrix element {"a":..,"c":..,"b":..}'),
}


@pytest.mark.parametrize("g2", list(_G2))
@pytest.mark.parametrize("g1", list(_G1))
@pytest.mark.parametrize("op", list(_GROUP_RESULTS))
def test_group_every_op_and_operand_kind(tmp_path, op, g1, g2):
    results, refusal = _GROUP_RESULTS[op]
    cfg = base_cfg(tmp_path, op=op, g1=_G1[g1], g2=_G2[g2])
    if g1 in results and (op not in ("mul", "commutator") or g2 == g1):
        assert run("group", cfg).payload == {"op": op, "result": results[g1]}
    else:
        with pytest.raises(CommandError) as info:
            run("group", cfg)
        assert (info.value.module, str(info.value)) == \
            ("heisenberg_group", refusal)


def test_ccdist_run_single_and_survey(tmp_path):
    cfg = base_cfg(tmp_path, a='{"x":0,"y":0,"z":0}', b='{"x":1,"y":0,"z":0}',
                   tol=1e-6, segments=32, norm="l2")
    bundle = run("ccdist", cfg)
    rec = bundle.payload["pairs"][0]
    assert rec["dist"] == pytest.approx(1.0, abs=1e-3)
    assert rec["lower"] <= rec["dist"] <= rec["upper"] + 1e-9

    pairs_file = tmp_path / "pairs.json"
    pairs_file.write_text(json.dumps([
        {"A": {"x": 0, "y": 0, "z": 0}, "B": {"x": 0, "y": 0, "z": 1}},
        {"A": {"x": 0, "y": 0, "z": 0}, "B": {"x": 0.5, "y": 0.5, "z": 0}},
    ]))
    cfg = base_cfg(tmp_path, pairs=str(pairs_file), tol=1e-6, segments=32,
                   norm="l2")
    bundle = run("ccdist", cfg)
    assert len(bundle.payload["pairs"]) == 2
    assert bundle.payload["pairs"][0]["dist"] == \
        pytest.approx(2 * math.sqrt(math.pi), abs=2e-2)


def test_ccdist_emit_path(tmp_path):
    out_csv = tmp_path / "witness.csv"
    cfg = base_cfg(tmp_path, a='{"x":0,"y":0,"z":0}', b='{"x":1,"y":0,"z":0}',
                   tol=1e-6, segments=16, norm="l2", emit_path=str(out_csv))
    run("ccdist", cfg)
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "t,x,y,z"
    last = [float(v) for v in lines[-1].split(",")]
    assert last[1] == pytest.approx(1.0, abs=1e-9)


def test_holonomy_run_presets(tmp_path):
    cfg = base_cfg(tmp_path, loop="circle", samples=10_000, radius=1.0)
    assert run("holonomy", cfg).payload["holonomy"] == \
        pytest.approx(math.pi, abs=1e-5)
    cfg = base_cfg(tmp_path, loop="square", samples=10, radius=1.0)
    assert run("holonomy", cfg).payload["holonomy"] == pytest.approx(1.0)
    cfg = base_cfg(tmp_path, loop="point", samples=10, radius=1.0)
    assert run("holonomy", cfg).payload["holonomy"] == 0.0


def test_holonomy_run_csv_path(tmp_path):
    f = tmp_path / "loop.csv"
    f.write_text("x,y\n0,0\n1,0\n1,1\n0,1\n0,0\n")
    cfg = base_cfg(tmp_path, path=str(f), loop=None, samples=None,
                   radius=None)
    assert run("holonomy", cfg).payload["holonomy"] == pytest.approx(1.0)
    # 4-column trajectory format is accepted too
    g = tmp_path / "loop4.csv"
    g.write_text("t,x,y,z\n0,0,0,0\n1,1,0,0\n2,1,1,0\n3,0,1,0\n4,0,0,0\n")
    cfg = base_cfg(tmp_path, path=str(g), loop=None, samples=None,
                   radius=None)
    assert run("holonomy", cfg).payload["holonomy"] == pytest.approx(1.0)


def test_volume_run(tmp_path):
    cfg = base_cfg(tmp_path, metric="euclidean", radii="1,2,4",
                   samples=20_000, seed=3)
    bundle = run("volume", cfg)
    assert bundle.payload["exponent"] == pytest.approx(3.0, abs=0.1)
    assert len(bundle.payload["volumes"]) == 3


def test_pansu_run(tmp_path):
    cfg = base_cfg(tmp_path, map="square", base="1,1,1",
                   kind="abelian_to_abelian", convention="source_graded")
    bundle = run("pansu", cfg)
    matrix = np.array(bundle.payload["matrix"])
    assert np.allclose(matrix, 2.0 * np.eye(3), atol=1e-8)
    cfg = base_cfg(tmp_path, map="custom-polynomial:0,3", base="0,0,0",
                   kind="heis_to_abelian", convention="source_graded")
    matrix = np.array(run("pansu", cfg).payload["matrix"])
    assert np.allclose(matrix, np.diag([3.0, 3.0, 0.0]), atol=1e-8)


def test_growth_run(tmp_path):
    cfg = base_cfg(tmp_path, group="heis_Z", radius=2)
    bundle = run("growth", cfg)
    assert bundle.payload["counts"] == [1, 5, 17]
    cfg = base_cfg(tmp_path, group="z3", radius=14, fit_window="10,14")
    bundle = run("growth", cfg)
    assert bundle.payload["fit"]["exponent"] == pytest.approx(3.0, abs=0.15)


def test_growth_run_custom_and_compare(tmp_path):
    cfg = base_cfg(tmp_path, group="heis_Z", radius=14,
                   gens="1,0,0;0,1,0", compare_gens="1,0,0;0,1,0;1,1,1",
                   fit_window="8,14")
    bundle = run("growth", cfg)
    assert bundle.payload["robustness"]["exponent_gap"] <= 0.3
    assert bundle.payload["robustness"]["coverage_ok"] is True


def test_growth_budget_error(tmp_path):
    # the budget prices the search of a set that is not the standard one
    cfg = base_cfg(tmp_path, group="heis_Z", radius=40, mem_budget=0.15,
                   gens="1,0,0;0,1,0;1,1,1")
    with pytest.raises(CommandError) as info:
        run("growth", cfg)
    assert "partial" in info.value.payload
    assert info.value.module == "cayley_growth"
    # with --compare-gens the budget also prices the spheres the report
    # keeps, so the search for --gens stops no later
    with pytest.raises(CommandError) as compare:
        run("growth", dict(cfg, compare_gens="1,0,0;0,1,0"))
    assert compare.value.module == "cayley_growth"
    counts = compare.value.payload["partial"]["counts"]
    assert counts == info.value.payload["partial"]["counts"][:len(counts)]


def test_main_growth_budget_covers_the_compared_set(tmp_path, capsys):
    # --gens fits the budget at radius 14; the compared set, searched
    # while the first ball is held, does not: exit 3 with its partial
    argv = ["--output-dir", str(tmp_path), "growth", "--radius", "14",
            "--compare-gens", "1,0,0;0,1,0;1,1,1"]
    assert cli.main(argv + ["--mem-budget", "0.15"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert err["module"] == "cayley_growth"
    partial = err["payload"]["partial"]
    assert len(partial["generators"]) == 6
    assert 1 < len(partial["counts"]) <= 14
    assert not (tmp_path / "growth.bundle.json").exists()
    assert cli.main(argv) == 0


def test_unknown_command(tmp_path):
    with pytest.raises(CommandError):
        run("frobnicate", base_cfg(tmp_path))


# ---------------------------------------------------------------------------
# bundles: round trip, determinism, plot tables

def test_bundle_roundtrip(tmp_path):
    cfg = base_cfg(tmp_path, dist="uniform2", q=2.0, renormalize=False)
    bundle = run("entropy", cfg)
    back = read_bundle(tmp_path / "entropy.bundle.json")
    assert back.config == bundle.to_dict()["config"]
    assert back.payload == bundle.payload
    assert back.digest() == bundle.digest()


def test_bundle_determinism_bytes(tmp_path):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    for d in (d1, d2):
        run("growth", base_cfg(d, group="heis_Z", radius=6))
    b1 = (d1 / "growth.bundle.json").read_bytes()
    b2 = (d2 / "growth.bundle.json").read_bytes()
    assert b1 == b2


def test_plot_table_growth(tmp_path):
    bundle = run("growth", base_cfg(tmp_path, group="heis_Z", radius=2))
    csv_text = reports.emit_plot_table(bundle)
    assert csv_text.splitlines()[0] == "r,count"
    assert csv_text.splitlines()[1] == "0,1"
    assert csv_text.splitlines()[3] == "2,17"


def test_plot_table_volume_and_survey(tmp_path):
    bundle = run("volume", base_cfg(tmp_path, metric="euclidean",
                                    radii="1,2,4", samples=20_000, seed=3))
    lines = reports.emit_plot_table(bundle).splitlines()
    assert lines[0] == "log_r,log_volume,fit_log_volume"
    assert len(lines) == 4

    pairs_file = tmp_path / "pairs.json"
    pairs_file.write_text(json.dumps(
        [{"A": {"x": 0, "y": 0, "z": 0}, "B": {"x": 1, "y": 0, "z": 0}}]))
    bundle = run("ccdist", base_cfg(tmp_path, pairs=str(pairs_file), tol=1e-6,
                                    segments=16, norm="l2"))
    lines = reports.emit_plot_table(bundle).splitlines()
    assert lines[0] == "pair,lower,value,upper"


def test_plot_table_rejects_non_tabular(tmp_path):
    bundle = run("qadd", base_cfg(tmp_path, x=1.0, y=2.0, q=1.0))
    with pytest.raises(ValueError):
        reports.emit_plot_table(bundle)


def test_csv_format_writes_table(tmp_path):
    run("growth", base_cfg(tmp_path, group="heis_Z", radius=2, format="csv"))
    assert (tmp_path / "growth.table.csv").read_text().startswith("r,count")


# ---------------------------------------------------------------------------
# CLI surface

def test_main_entropy(tmp_path, capsys):
    code = cli.main(["--output-dir", str(tmp_path), "entropy",
                     "--dist", "uniform2", "--q", "2"])
    assert code == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["command"] == "entropy"
    assert (tmp_path / "entropy.bundle.json").exists()


def test_main_error_payload(tmp_path, capsys):
    code = cli.main(["--output-dir", str(tmp_path), "entropy",
                     "--dist", "0.5,0.6", "--q", "2"])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["module"] == "q_algebra"


def test_main_volume_rejects_non_finite_radii(tmp_path, capsys):
    for radii in ("1,2,nan", "1,2,inf"):
        code = cli.main(["--output-dir", str(tmp_path), "volume",
                         "--radii", radii])
        assert code == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert "finite" in err["error"]["message"]


def test_main_plot_table(tmp_path, capsys):
    cli.main(["--output-dir", str(tmp_path), "growth", "--radius", "2"])
    capsys.readouterr()
    code = cli.main(["plot-table", str(tmp_path / "growth.bundle.json")])
    assert code == 0
    assert capsys.readouterr().out.startswith("r,count")


def test_main_plot_table_refuses_what_it_cannot_render(tmp_path, capsys):
    cli.main(["--output-dir", str(tmp_path), "growth", "--radius", "2"])
    capsys.readouterr()
    good = str(tmp_path / "growth.bundle.json")
    bundle = json.loads((tmp_path / "growth.bundle.json").read_text())
    cases = {"list": [1, 2], "no-keys": {"command": "growth"},
             "list-payload": {**bundle, "payload": [1]},
             "bad-rows": {**bundle, "payload": {"pairs": [1]}}}
    argvs = []
    for name, data in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        argvs.append(["plot-table", str(path)])
    # an output path that is a directory
    argvs.append(["plot-table", good, "-o", str(tmp_path)])
    for argv in argvs:
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code == 3, argv
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["module"] == "cli_reports"


def test_config_file_and_precedence(tmp_path, monkeypatch):
    conf = tmp_path / "lab.conf"
    conf.write_text("q = 2.0\ndist = uniform2  # comment\n")
    parser = cli._build_parser()
    args = parser.parse_args(["--config", str(conf), "entropy"])
    cfg = resolve_config(args)
    assert cfg["q"] == 2.0 and cfg["dist"] == "uniform2"
    # flag beats file
    args = parser.parse_args(["--config", str(conf), "entropy", "--q", "3"])
    assert resolve_config(args)["q"] == 3.0
    # env var sets the output dir, flags still win
    monkeypatch.setenv(cli.ENV_OUTPUT, str(tmp_path / "envdir"))
    args = parser.parse_args(["entropy"])
    assert resolve_config(args)["output_dir"] == str(tmp_path / "envdir")
    args = parser.parse_args(["--output-dir", str(tmp_path / "flagdir"),
                              "entropy"])
    assert resolve_config(args)["output_dir"] == str(tmp_path / "flagdir")


def test_config_file_rejects_garbage(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("this line has no equals sign\n")
    parser = cli._build_parser()
    args = parser.parse_args(["--config", str(conf), "entropy"])
    with pytest.raises(Exception):
        resolve_config(args)


def test_json_safe_sanitizes():
    safe = cli._json_safe({"a": np.float64(1.5), "b": float("inf"),
                           "c": float("nan"), "d": np.int64(3),
                           "e": [np.bool_(True)]})
    assert safe == {"a": 1.5, "b": "inf", "c": None, "d": 3, "e": [True]}
    # canonical JSON must accept everything that comes out
    reports.canonical_json(safe)


def _main_with_config(tmp_path, capsys, command, line, *argv):
    # run one command with a one-line config file; return the exit code
    # and the one JSON line it printed
    conf = tmp_path / f"{command}.conf"
    conf.write_text(line + "\n")
    code = cli.main(["--output-dir", str(tmp_path), "--config", str(conf),
                     command, *argv])
    captured = capsys.readouterr()
    lines = (captured.out + captured.err).splitlines()
    assert len(lines) == 1, (line, lines)
    return code, json.loads(lines[0])


def test_main_growth_config_errors(tmp_path, capsys):
    # a value its flag's type or choices refuse is a usage error, as on
    # the command line; a value of the right type that growth refuses is
    # growth's error
    for line in ("radius = 2.5", 'group = "so3"', "radius = true",
                 'mem_budget = "x"'):
        code, out = _main_with_config(tmp_path, capsys, "growth", line)
        assert code == 2, line
        assert out["error"]["module"] == "cli_reports"
        assert line.split()[0] in out["error"]["message"]
    # text that does not parse as a generating set or a window is
    # refused where growth parses it, as a usage error
    for line, words in (("gens = 5", "generator a,c,b takes 3"),
                        ("fit_window = 10", "window")):
        code, out = _main_with_config(tmp_path, capsys, "growth", line)
        assert code == 2, line
        assert out["error"]["module"] == "cli_reports"
        assert words in out["error"]["message"], line
    code, out = _main_with_config(tmp_path, capsys, "growth",
                                  'fit_window = "5,2"')
    assert code == 3
    assert out["error"]["module"] == "cayley_growth"


def test_main_config_values_go_through_their_flags(tmp_path, capsys):
    # each of these one-line files used to end in a traceback
    for command, line in (("volume", "seed = 1.5"), ("entropy", "q = [1]"),
                          ("verify-all", "seed = 1.5")):
        code, out = _main_with_config(tmp_path, capsys, command, line)
        assert code == 2, line
        assert "config key" in out["error"]["message"]
    # the text a flag would get reaches the command, which refuses it:
    # entropy as a module error, pansu where it parses its base
    code, out = _main_with_config(tmp_path, capsys, "entropy", "dist = 5")
    assert code == 3 and out["error"]["module"] == "q_algebra"
    code, out = _main_with_config(tmp_path, capsys, "pansu", "base = [1,2,3]")
    assert code == 2 and out["error"]["module"] == "cli_reports"
    assert "'[1, 2, 3]'" in out["error"]["message"]
    # as --x "1" does, a JSON string reads through the flag's type
    code, out = _main_with_config(tmp_path, capsys, "qadd", 'x = "1"')
    assert code == 0 and out["summary"]["result"] == 1.0
    # a switch takes a JSON boolean, a JSON object is an element's text
    code, out = _main_with_config(tmp_path, capsys, "entropy",
                                  "renormalize = 1")
    assert code == 2
    code, out = _main_with_config(tmp_path, capsys, "entropy",
                                  "renormalize = true", "--dist", "1,3")
    assert code == 0
    code, out = _main_with_config(tmp_path, capsys, "group",
                                  'g2 = {"a": 1, "c": 2, "b": 3}',
                                  "mul", "--g1", '{"a":1,"c":0,"b":0}')
    assert code == 0
    payload = read_bundle(str(tmp_path / "group.bundle.json")).payload
    assert payload["result"] == {"a": 2.0, "c": 2.0, "b": 5.0}


def test_main_config_key_naming_no_flag_is_a_usage_error(tmp_path, capsys):
    # a misspelt key used to run with the default and be echoed
    code, out = _main_with_config(tmp_path, capsys, "qadd", "xs = 5",
                                  "--y", "2")
    assert code == 2
    assert out["error"]["module"] == "cli_reports"
    assert "'xs'" in out["error"]["message"]
    assert not (tmp_path / "qadd.bundle.json").exists()
    # a flag of another command is no flag of this one; a file can name
    # neither another file nor --help
    for line in ("seed = 5", 'config = "other.conf"', "help = true"):
        code, out = _main_with_config(tmp_path, capsys, "qadd", line)
        assert code == 2, line
        assert repr(line.split()[0]) in out["error"]["message"]


def test_main_unreadable_config_file_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "latin1.conf"
    bad.write_bytes(b"q = 2 # \xe9\n")
    for path in (tmp_path / "missing.conf", tmp_path, bad):
        code = cli.main(["--output-dir", str(tmp_path), "--config",
                         str(path), "qadd"])
        assert code == 2, path
        assert json.loads(capsys.readouterr().err)["error"]["message"]


def test_main_growth_answers_the_standard_set_in_closed_form(
        tmp_path, capsys, monkeypatch):
    # far past any search: |B_3000| of heis_Z's standard set, exact; a
    # search that far would hold gigabytes, so one fails at once
    def no_search(*args, **kwargs):
        raise AssertionError("searched a standard set")

    monkeypatch.setattr(growth, "_spheres", no_search)
    assert cli.main(["--output-dir", str(tmp_path), "growth",
                     "--radius", "3000"]) == 0
    counts = json.loads(
        (tmp_path / "growth.bundle.json").read_text())["payload"]["counts"]
    assert len(counts) == 3001
    assert counts[-1] == 34_869_765_881_001


def test_main_growth_refuses_huge_radius_up_front(tmp_path, capsys):
    # the key radix is bounded from the radius before the search starts
    for group in ("heis_Z", "z3"):
        for radius in ("100000000", "1" + "0" * 30):
            code = cli.main(["--output-dir", str(tmp_path), "growth",
                             "--group", group, "--radius", radius])
            assert code == 3, (group, radius)
            err = json.loads(capsys.readouterr().err.strip())
            assert err["error"]["module"] == "cayley_growth"
            assert "int64" in err["error"]["message"]
    assert not (tmp_path / "growth.bundle.json").exists()


def test_main_growth_non_generating_compare_is_one_json_line(tmp_path,
                                                             capsys):
    # the coverage warning becomes coverage_ok: false in the summary
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["--output-dir", str(tmp_path), "growth",
                         "--compare-gens", "1,0,0", "--radius", "4"])
    assert code == 0
    assert caught == []
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["summary"]["coverage_ok"] is False
    bundle = read_bundle(str(tmp_path / "growth.bundle.json"))
    assert bundle.payload["robustness"]["coverage_ok"] is False


def test_growth_compare_searches_each_set_once(tmp_path, monkeypatch):
    # the table for --gens is the robustness report's first table
    searches = []
    spheres = growth._spheres

    def counted(law, gens, *args, **kwargs):
        searches.append(gens)
        return spheres(law, gens, *args, **kwargs)

    monkeypatch.setattr(growth, "_spheres", counted)
    bundle = run("growth", base_cfg(tmp_path, group="heis_Z", radius=10,
                                    compare_gens="1,0,0;0,1,0;1,1,1"))
    assert len(searches) == 2
    assert bundle.payload["counts"] == list(growth.word_ball(
        "heis_Z", growth.STANDARD_GENERATORS["heis_Z"], 10).counts)


def test_main_volume_and_growth_refuse_malformed_text_as_usage_errors(
        tmp_path, capsys):
    # refused where the radii, the window or the generators are parsed,
    # before any work
    for argv, words in ((["volume", "--radii", "a,b"], "'a,b'"),
                        (["volume", "--radii", "1,,2"], "'1,,2'"),
                        (["growth", "--fit-window", "x"], "'x'"),
                        (["growth", "--gens", "1,2"], "'1,2'"),
                        (["growth", "--gens", "1,0,0;x,0,0"], "'x,0,0'"),
                        (["growth", "--compare-gens", ";"], "no generators"),
                        (["growth", "--radius", "100000000",
                          "--fit-window", "1,2,3"], "'1,2,3'")):
        code = cli.main(["--output-dir", str(tmp_path), *argv])
        assert code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["module"] == "cli_reports", argv
        assert words in err["message"], argv
    assert not (tmp_path / "volume.bundle.json").exists()
    assert not (tmp_path / "growth.bundle.json").exists()


def test_main_volume_refuses_radii_without_log_spread(tmp_path, capsys):
    code = cli.main(["--output-dir", str(tmp_path), "volume", "--radii",
                     "1,1.0000000000000002,1.0000000000000004",
                     "--samples", "10000"])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert "degenerate" in err["error"]["message"]
    assert not (tmp_path / "volume.bundle.json").exists()


def test_main_growth_refuses_int64_overflow(tmp_path, capsys):
    # the search refuses generators whose coordinates would leave int64;
    # like a memory-budget stop, this is the growth module's error
    for big in ("1000000000000", "1" + "0" * 20):
        code = cli.main(["--output-dir", str(tmp_path), "growth",
                         "--gens", f"1,0,0;0,1,0;{big},0,0",
                         "--radius", "4"])
        assert code == 3, big
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["module"] == "cayley_growth"
        assert "int64" in err["error"]["message"]
    assert not (tmp_path / "growth.bundle.json").exists()


def test_main_holonomy_rejects_non_finite_area(tmp_path, capsys):
    # the squared radius overflows: a JSON error, not null values
    code = cli.main(["--output-dir", str(tmp_path), "holonomy",
                     "--loop", "circle", "--radius", "1e200"])
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert json.loads(err)["error"]["message"]
    assert not (tmp_path / "holonomy.bundle.json").exists()


def test_main_entropy_overflowing_sum_is_one_json_error(tmp_path, capsys):
    code = cli.main(["--output-dir", str(tmp_path), "entropy",
                     "--dist", "1e308,1e308", "--q", "2"])
    assert code == 3
    # stderr holds the JSON error alone, with no numpy warning before it
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["module"] == "q_algebra"


def test_main_ccdist_rejects_bad_points(tmp_path, capsys):
    origin = '{"x":0,"y":0,"z":0}'
    bad = ['{"x":NaN,"y":0,"z":0}', '{"x":0,"y":Infinity,"z":0}',
           '{"x":0,"y":0,"z":1e400}', '{"a":0,"c":0,"b":1}', "not json"]
    argvs = [["--a", b, "--b", origin] for b in bad]
    argvs += [["--a", origin, "--b", b] for b in bad]
    argvs.append(["--b", origin])
    for i, records in enumerate([
            [{"A": {"a": 0, "c": 0, "b": 0}, "B": {"a": 1, "c": 0, "b": 0}}],
            [{"A": {"x": 0, "y": 0, "z": 0},
              "B": {"x": float("nan"), "y": 0, "z": 0}}],
            [{"A": {"x": 0, "y": 0, "z": 0}}],
            {"A": {"x": 0, "y": 0, "z": 0}, "B": {"x": 1, "y": 0, "z": 0}}]):
        pairs = tmp_path / f"pairs{i}.json"
        pairs.write_text(json.dumps(records))
        argvs.append(["--pairs", str(pairs)])
    for argv in argvs:
        code = cli.main(["--output-dir", str(tmp_path), "ccdist", *argv])
        assert code == 2, argv
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["message"]
    assert not (tmp_path / "ccdist.bundle.json").exists()


def test_main_group_rejects_non_finite_elements(tmp_path, capsys):
    argvs = [["inv", "--g1", '{"a":NaN,"c":0,"b":0}'],
             ["mul", "--g1", '{"x":0,"y":0,"z":0}',
              "--g2", '{"x":0,"y":Infinity,"z":0}'],
             ["exp", "--g1", '{"alpha":1e400,"beta":0,"gamma":0}'],
             ["inv", "--g1", '{"a":1%s,"c":0,"b":0}' % ("0" * 400)]]
    for argv in argvs:
        code = cli.main(["--output-dir", str(tmp_path), "group", *argv])
        assert code == 2, argv
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["message"]
    assert not (tmp_path / "group.bundle.json").exists()


def test_main_unreadable_input_file(tmp_path, capsys):
    # a directory where a file is expected is an OSError other than
    # FileNotFoundError; it still ends as a module error
    code = cli.main(["--output-dir", str(tmp_path), "ccdist",
                     "--pairs", str(tmp_path)])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["module"] == "subriemannian"


def test_main_ccdist_rejects_bad_settings(tmp_path, capsys):
    # solver settings out of range, and a difference too large for the
    # normalized solve, end as module errors rather than tracebacks
    origin = '{"x":0,"y":0,"z":0}'
    one = ["--a", origin, "--b", '{"x":1,"y":0,"z":0}']
    argvs = [[*one, "--segments", "0"], [*one, "--segments", "-3"],
             [*one, "--tol", "-1"], [*one, "--tol", "0"],
             [*one, "--tol", "nan"]]
    argvs += [["--a", origin, "--b", '{"x":%s,"y":0,"z":1}' % far]
              for far in ("1e160", "1e200")]
    for argv in argvs:
        code = cli.main(["--output-dir", str(tmp_path), "ccdist", *argv])
        assert code == 3, argv
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["module"] == "subriemannian"
    assert not (tmp_path / "ccdist.bundle.json").exists()


def test_main_unwritable_output(tmp_path, capsys):
    # writing the bundle or its table fails: a module error, no traceback
    blocker = tmp_path / "file"
    blocker.write_text("")
    qadd = ["qadd", "--x", "1", "--y", "1", "--q", "0"]
    for argv in (["--output-dir", str(blocker / "out"), *qadd],
                 ["--output-dir", str(tmp_path), "--format", "csv", *qadd]):
        code = cli.main(argv)
        assert code == 3, argv
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["module"] == "cli_reports"


def test_main_qadd_overflow_is_inf(tmp_path, capsys):
    # an overflowing sum is infinite, not an "exact" label
    code = cli.main(["--output-dir", str(tmp_path), "qadd", "--x", "1e308",
                     "--y", "1e308", "--q", "0"])
    assert code == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["summary"]["result"] == "inf"


@pytest.mark.parametrize("x, y, q, result", [
    ("1e300", "0", "-1e20", 1e300), ("-1e308", "0", "1e8", -1e308),
    ("-1e20", "0", "1e308", -1e20), ("1e308", "1e308", "1e308", "-inf"),
    ("1e200", "1e200", "1", 2e200), ("1e20", "-1", "0", -1.0),
    ("inf", "0", "1", None)])
def test_main_qadd_ends_in_a_number_or_a_json_error(tmp_path, capsys, x, y,
                                                    q, result):
    # a term of each overflows on its own; a zero summand still gives the
    # other one back, ordinary addition stays finite, a sum past the float
    # range is the infinity of its sign, terms that cancel in floats keep
    # their exact sum, and a non-finite summand is refused
    code = cli.main(["--output-dir", str(tmp_path), "qadd", f"--x={x}",
                     f"--y={y}", f"--q={q}"])
    captured = capsys.readouterr()
    lines = (captured.out + captured.err).splitlines()
    assert len(lines) == 1, lines
    record = json.loads(lines[0])
    if result is not None:
        assert code == 0
        assert record["summary"]["result"] == result
    else:
        assert code == 3
        assert record["error"]["module"] == "q_algebra"
        assert not (tmp_path / "qadd.bundle.json").exists()


def test_main_ccdist_fallback_lies_in_its_bracket(tmp_path, capsys):
    # the slot projection misses its tolerance here; the reported value is
    # the segment+loop path's length, and the bracket must hold it
    b = ('{"x":-119354.33185670934,"y":183352.27505853245,'
         '"z":3.0360396502926784e-12}')
    assert cli.main(["--output-dir", str(tmp_path), "ccdist", "--a",
                     '{"x":0,"y":0,"z":0}', "--b", b,
                     "--segments", "1000"]) == 0
    rec = read_bundle(str(tmp_path / "ccdist.bundle.json")) \
        .payload["pairs"][0]
    assert rec["degraded"] is True
    assert rec["lower"] <= rec["dist"] <= rec["upper"]


def test_main_ccdist_summary_shows_degraded(tmp_path, capsys):
    # two slots cannot close a loop around the vertical axis, so that
    # solve falls back to the explicit path; the summary must say so
    base = ["--output-dir", str(tmp_path), "ccdist",
            "--a", '{"x":0,"y":0,"z":0}', "--b", '{"x":0,"y":0,"z":1}']
    for extra, degraded in ((["--segments", "2"], True), ([], False)):
        assert cli.main([*base, *extra]) == 0
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert out["summary"]["degraded"] is degraded


def test_main_refuses_sample_counts_above_the_cap(tmp_path, capsys):
    # refused before anything is allocated, so these sizes are safe to ask
    for n in (10 ** 7 + 1, 10 ** 30):
        code = cli.main(["--output-dir", str(tmp_path), "volume",
                         "--samples", str(n)])
        assert code == 3, n
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["module"] == "subriemannian"
        assert "1e7" in err["error"]["message"]
        code = cli.main(["--output-dir", str(tmp_path), "holonomy",
                         "--samples", str(n)])
        assert code == 2, n
        err = json.loads(capsys.readouterr().err.strip())
        assert "1e7" in err["error"]["message"]
    assert not (tmp_path / "volume.bundle.json").exists()
    assert not (tmp_path / "holonomy.bundle.json").exists()


def test_main_holonomy_refuses_non_positive_samples(tmp_path, capsys):
    for n in ("0", "-5"):
        code = cli.main(["--output-dir", str(tmp_path), "holonomy",
                         "--samples", n])
        assert code == 2, n
        err = json.loads(capsys.readouterr().err.strip())
        assert "samples" in err["error"]["message"]
        assert "Number of samples" not in err["error"]["message"]


def test_main_holonomy_circle_memory_stays_flat(tmp_path):
    # the circle preset is streamed in blocks: built whole, 10^7 samples
    # peaked at 689 MB, against 79 MB at 10^3; one fresh process, whose
    # VmHWM is its own peak (Linux's ru_maxrss keeps the peak of the
    # process that forked it, across exec)
    code = ("import sys\n"
            "from carnot_lab import cli\n"
            "assert cli.main(['--output-dir', sys.argv[1], 'holonomy',"
            " '--loop', 'circle', '--samples', '10000000']) == 0\n"
            "with open('/proc/self/status') as fh:\n"
            "    print(next(ln.split()[1] for ln in fh"
            " if ln.startswith('VmHWM:')))\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                         capture_output=True, text=True, env=env, check=True)
    peak_mb = int(out.stdout.split()[-1]) / 1024  # VmHWM is in kB
    assert peak_mb < 120, f"peak memory {peak_mb:.0f} MB"
    payload = read_bundle(tmp_path / "holonomy.bundle.json").payload
    assert payload["samples"] == 10_000_001
    assert payload["area"] == pytest.approx(math.pi, rel=1e-13, abs=0)
    # the defect keeps its sign: the n-gon's is about pi^3 / (3 n^2)
    n = 10_000_000
    assert payload["isoperimetric_defect"] > 0
    assert payload["isoperimetric_defect"] == \
        pytest.approx(math.pi ** 3 / (3 * n * n), rel=0.5)


def test_main_usage_error_is_one_json_line(tmp_path, capsys):
    for argv in (["qadd", "--x", "abc"], ["group"], ["no-such-command"],
                 ["holonomy", "--loop", "triangle"]):
        assert cli.main(["--output-dir", str(tmp_path), *argv]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["message"]


def test_main_volume_refuses_radii_outside_the_float_range(tmp_path, capsys):
    # 1e-200 used to give exponent null with a log warning, 1e150 an
    # OverflowError traceback, 1e200 numpy's "range exceeds valid bounds"
    for metric, radii in (("cc", "1e-200,2e-200,3e-200"),
                          ("cc", "1e150,2e150,3e150"),
                          ("cc", "1e200,2e200,3e200"),
                          ("euclidean", "1e150,2e150,3e150")):
        code = cli.main(["--output-dir", str(tmp_path), "volume",
                         "--metric", metric, "--radii", radii,
                         "--samples", "10000"])
        assert code == 3, radii
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["module"] == "subriemannian"
        assert "box volume" in err["error"]["message"]
    assert not (tmp_path / "volume.bundle.json").exists()


def test_main_volume_refuses_a_negative_seed(tmp_path, capsys):
    code = cli.main(["--output-dir", str(tmp_path), "volume", "--seed",
                     "-1"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"]["module"] == "subriemannian"
    assert "seed" in err["error"]["message"]
    assert not (tmp_path / "volume.bundle.json").exists()


def test_main_pansu_takes_no_schedule(tmp_path, capsys):
    # the derivative of a polynomial map is exact, with no levels to set
    for n in ("3", "20", "1074", "3000000"):
        code = cli.main(["--output-dir", str(tmp_path), "pansu",
                         "--schedule", n])
        assert code == 2, n
        err = json.loads(capsys.readouterr().err.strip())
        assert "--schedule" in err["error"]["message"]
    conf = tmp_path / "pansu.conf"
    conf.write_text("schedule = 20\n")
    assert cli.main(["--output-dir", str(tmp_path), "--config", str(conf),
                     "pansu"]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert "'schedule'" in err["error"]["message"]
    assert not (tmp_path / "pansu.bundle.json").exists()


def test_main_pansu_refuses_non_finite_coefficients(tmp_path, capsys):
    # refused where the map is parsed, before any work
    for spec in ("poly:nan", "poly:1,inf", "custom-polynomial:0,-inf,1",
                 "poly:1e400,1"):
        code = cli.main(["--output-dir", str(tmp_path), "pansu",
                         "--map", spec])
        assert code == 2, spec
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"]["module"] == "cli_reports"
        assert "finite" in err["error"]["message"]
    assert not (tmp_path / "pansu.bundle.json").exists()


def test_main_pansu_refuses_malformed_input_as_usage_errors(tmp_path,
                                                           capsys):
    # refused where the map or the base is parsed, before any work
    for argv, words in ((["--base", "1,2"], "three"),
                        (["--base", "a,b,c"], "'a,b,c'"),
                        (["--map", "poly:"], "coefficients"),
                        (["--map", "cube"], "'cube'"),
                        (["--base", "nan,0,0"], "finite"),
                        (["--map", "poly:1,inf"], "finite")):
        code = cli.main(["--output-dir", str(tmp_path), "pansu", *argv])
        assert code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["module"] == "cli_reports", argv
        assert words in err["message"], argv
    assert not (tmp_path / "pansu.bundle.json").exists()


def test_main_pansu_refuses_non_finite_bases_and_stays_quiet(tmp_path,
                                                           capsys):
    # refused before any work
    for base in ("inf,0,0", "0,nan,0", "0,0,-inf", "1e400,0,0"):
        code = cli.main(["--output-dir", str(tmp_path), "pansu",
                         "--base", base])
        assert code == 2, base
        err = json.loads(capsys.readouterr().err)
        assert "finite" in err["error"]["message"]
    # a finite base whose quotients overflow: one JSON line, no warnings
    for base in ("1e308,1e308,1e308", "1e300,1e300,1e300"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["--output-dir", str(tmp_path), "pansu",
                             "--base", base, "--map", "square"])
        assert code == 3, base
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
    assert not (tmp_path / "pansu.bundle.json").exists()


def test_main_pansu_answers_polynomial_maps_exactly(tmp_path, capsys):
    # the blow-up limit of a polynomial is taken from its derivative, so
    # bases whose displacements rounding loses are answered exactly: the
    # extrapolation refused the first three and read 1.000000082740371e-10
    # at the last
    for spec, base, matrix in (
            ("identity", "1e16,0,0", [[1, 0, 0], [0, 1, 0], [0, 1e16, 0]]),
            ("identity", "1e300,1e300,1e300",
             [[1, 0, 0], [0, 1, 0], [0, 1e300, 0]]),
            ("poly:1,-2,0.5,0.25", "1000,-2000,500000",
             [[750998, 0, 0], [0, 2997998, 0], [0, 187500499998000, 0]]),
            ("identity", "0,0,1e5", [[1, 0, 0], [0, 1, 0], [0, 0, 0]]),
            ("identity", "1e-10,0,1", [[1, 0, 0], [0, 1, 0], [0, 1e-10, 0]])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["--output-dir", str(tmp_path), "pansu",
                             "--map", spec, "--base", base])
        assert code == 0, base
        captured = capsys.readouterr()
        assert captured.err == ""
        bundle = json.loads((tmp_path / "pansu.bundle.json").read_text())
        assert bundle["payload"]["matrix"] == matrix, base
        assert "schedule" not in bundle["config"]


def test_main_entropy_refuses_uniform_presets_above_the_cap(tmp_path,
                                                            capsys):
    for n in (10 ** 6 + 1, 10 ** 30):
        code = cli.main(["--output-dir", str(tmp_path), "entropy",
                         "--dist", f"uniform{n}"])
        assert code == 2, n
        err = json.loads(capsys.readouterr().err.strip())
        assert "1e6" in err["error"]["message"]
    assert not (tmp_path / "entropy.bundle.json").exists()


# ---------------------------------------------------------------------------
# fuzz of the argv boundary: every input ends in a result or a JSON error

_NUMBERS = st.one_of(
    st.sampled_from(["0", "1", "-1", "2.5", "-0.5", "1e-320", "1e308",
                     "-1e308", "1e400", "-1e400", "nan", "inf", "-inf",
                     "abc", "", "1,2", "0x10", "--", "{}"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10 ** 30, 10 ** 30).map(str))

_JSON_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0, 1, -7, 10 ** 400, "1", None, True, [1]]))


def _element(keys):
    return st.fixed_dictionaries({k: _JSON_VALUES for k in keys}).map(
        lambda d: json.dumps(d))


_ELEMENTS = st.one_of(
    _element("acb"), _element("xyz"), _element(("alpha", "beta", "gamma")),
    _element("ab"), st.sampled_from(["not json", "{", "[]", "1", "null"]))

_SMALL_INTS = st.one_of(st.integers(-10 ** 4, 10 ** 4).map(str),
                        st.sampled_from(["x", "1.5", "1e3", ""]))


def _opt(name, values):
    # --name value, --name=value, or the flag left out
    return st.one_of(st.just([]), values.map(lambda v: [name, v]),
                     values.map(lambda v: [f"{name}={v}"]))


def _always(name, values):
    # --name value or --name=value, never left out
    return st.one_of(values.map(lambda v: [name, v]),
                     values.map(lambda v: [f"{name}={v}"]))


# generating sets: small triples, and malformed, identity, short and
# 10^12-sized ones
_TRIPLES = st.lists(
    st.one_of(st.tuples(*[st.integers(-2, 2)] * 3).map(
                  lambda t: ",".join(map(str, t))),
              st.sampled_from(["0,0,0", "1,0", "1,0,0,0", "x,0,0", "1.5,0,0",
                               "", "1,,0", "1;2", "1000000000000,0,0",
                               "0,0,1000000000000",
                               "1000000000000,1,1000000000000"])),
    min_size=1, max_size=3).map(";".join)

# --radius and --gens: a radius is always given, at most 8 so that a run
# takes milliseconds, or, with the standard set, far beyond what the int64
# keys hold and refused before any search (a set spanning fewer
# dimensions fits such a radius and would search it)
_GROWTH_SIZE = st.one_of(
    st.tuples(_always("--radius", st.sampled_from(
                  [*map(str, range(9)), "-1", "x", "1.5"])),
              _opt("--gens", _TRIPLES)),
    st.tuples(_always("--radius", st.sampled_from(
                  ["100000000", "1" + "0" * 30])), st.just([]))).map(
    lambda parts: parts[0] + parts[1])


# radii and fit windows that do not parse, and windows that do
_MALFORMED_RADII = st.sampled_from(["a,b", "1,,2", "1;2", ",", "1,2,", ""])
_WINDOWS = st.sampled_from(["1,2,3", "5,2", "x", "", "4,", "a,b", "4;8",
                            "1.5,4", "1,4", "2,8", "3,40"])


def _ints(text, n):
    # whether text is n comma-separated integers
    try:
        return len([int(tok) for tok in text.split(",")]) == n
    except ValueError:
        return False


def _malformed(flags):
    """Whether the radii, fit-window, gens or compare-gens text in
    ``flags`` (key -> text) fails to parse: a radius that is not a
    number, a window that is not two integers, a generating set with no
    generator or one that is not three integers. An empty window or
    generating set is not given."""
    try:
        [float(tok) for tok in flags.get("radii", "0").split(",")]
    except ValueError:
        return True
    if flags.get("fit_window") and not _ints(flags["fit_window"], 2):
        return True
    for key in ("gens", "compare_gens"):
        if flags.get(key):
            chunks = [c.strip() for c in flags[key].split(";") if c.strip()]
            if not all(_ints(c, 3) for c in chunks) or not chunks:
                return True
    return False


def _argv_flags(tokens):
    # key -> text of each --flag value or --flag=value among the tokens
    flags = {}
    for i, tok in enumerate(tokens):
        name, eq, value = tok.partition("=")
        if name.startswith("--") and (eq or i + 1 < len(tokens)):
            flags[name[2:].replace("-", "_")] = value if eq else tokens[i + 1]
    return flags


# poly: maps whose coefficients are non-finite or near the float range
_POLY_MAPS = st.lists(
    st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "1e200", "0",
                     "1", "-2", "0.5"]),
    min_size=1, max_size=4).map(lambda cs: "poly:" + ",".join(cs))


def _argv(command, *parts):
    return st.tuples(*parts).map(
        lambda ps: [command, *(tok for part in ps for tok in part)])


_ARGV = st.one_of(
    _argv("entropy",
          _opt("--dist", st.one_of(
              st.lists(_NUMBERS, min_size=1, max_size=4).map(",".join),
              st.sampled_from(["", "0", "-3", "4", "1e3", "x"]).map(
                  lambda n: "uniform" + n))),
          _opt("--q", _NUMBERS),
          st.sampled_from([[], ["--renormalize"], ["--no-renormalize"]])),
    _argv("qadd", _opt("--x", _NUMBERS), _opt("--y", _NUMBERS),
          _opt("--q", _NUMBERS)),
    _argv("group",
          st.sampled_from(["mul", "inv", "commutator", "exp", "log",
                           "pow"]).map(lambda op: [op]),
          _opt("--g1", _ELEMENTS), _opt("--g2", _ELEMENTS)),
    _argv("ccdist", _opt("--a", _ELEMENTS), _opt("--b", _ELEMENTS),
          _opt("--norm", st.sampled_from(["l2", "l1", "linf", "l3"])),
          _opt("--segments", st.sampled_from(
              ["0", "-3", "2", "3", "8", "64", "x", "1.5", "1e3",
               "10000000000000"])),
          _opt("--tol", _NUMBERS)),
    _argv("holonomy",
          _opt("--loop", st.sampled_from(["circle", "square", "point",
                                          "triangle"])),
          _opt("--samples", _SMALL_INTS), _opt("--radius", _NUMBERS)),
    # samples stay at the 1e4 floor, so a run takes milliseconds; half
    # the draws ask for exactly the floor
    _argv("volume",
          _opt("--metric", st.sampled_from(["cc", "euclidean", "l1"])),
          _opt("--radii", st.one_of(_MALFORMED_RADII, st.lists(
              st.one_of(st.floats(1e-3, 1e3).map(repr),
                        st.sampled_from(["1e-200", "3e-78", "1e-77", "1e70",
                                         "1e100", "2.8e102", "1e150",
                                         "1e200"]), _NUMBERS),
              min_size=2, max_size=4).map(",".join))),
          st.sampled_from(["10000", "10000", "9999", "x"]).map(
              lambda n: ["--samples", n]),
          _opt("--seed", _SMALL_INTS)),
    _argv("pansu",
          _opt("--map", st.one_of(
              st.sampled_from(
                  ["identity", "square", "cube", "", "poly:", "poly:x",
                   "poly:1,2,3", "custom-polynomial:0,0,1", "poly:nan",
                   "poly:1e308,1e308", "poly=1e200,0,1e200"]),
              _POLY_MAPS)),
          _opt("--base", st.one_of(
              st.lists(_NUMBERS, min_size=3, max_size=3),
              st.lists(_NUMBERS, min_size=1, max_size=4)).map(",".join)),
          _opt("--kind", st.sampled_from([*pansu.MAP_KINDS, "x"])),
          _opt("--convention", st.sampled_from([*pansu.CONVENTIONS, "y"]))),
    _argv("growth",
          _opt("--group", st.sampled_from(["heis_Z", "z3", "so3", "Z3"])),
          _GROWTH_SIZE, _opt("--compare-gens", _TRIPLES),
          _opt("--fit-window", _WINDOWS),
          _opt("--mem-budget", st.sampled_from(["0", "1", "-1", "64", "x"]))))


def _exact_qadd(tokens):
    # the qadd result the flags ask for: x + y + (1-q) x y over the exact
    # rationals, rounded once; "inf"/"-inf" past the float range
    flags = {"x": 0.0, "y": 0.0, "q": 1.0}
    tokens = iter(tokens)
    for tok in tokens:
        name, eq, value = tok.partition("=")
        flags[name.lstrip("-")] = float(value if eq else next(tokens))
    x, y, q = (Fraction(flags[k]) for k in "xyq")
    exact = x + y + (1 - q) * x * y
    if abs(exact) >= Fraction(sys.float_info.max) + Fraction(2) ** 970:
        return "inf" if exact > 0 else "-inf"
    return float(exact)


# about 40 examples for each of the eight commands
@settings(max_examples=320, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_ARGV)
@example(argv=["qadd", "--x=1e300", "--y=0", "--q=-1e20"])
@example(argv=["qadd", "--x=1e20", "--y=-1", "--q=0"])
@example(argv=["ccdist", "--a", '{"x":0,"y":0,"z":0}',
               "--b", '{"x":0,"y":0,"z":1}'])
def test_main_fuzz_ends_in_result_or_json_error(tmp_path, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--output-dir", str(tmp_path), *argv])
    assert code in (0, 2, 3), (argv, code)
    lines = (out.getvalue() + err.getvalue()).splitlines()
    assert len(lines) == 1, (argv, lines)
    record = json.loads(lines[0])
    assert ("error" in record) == (code != 0), (argv, record)
    # text that does not parse is a usage error
    if argv[0] in ("volume", "growth") and _malformed(_argv_flags(argv[1:])):
        assert code == 2, (argv, record)
    # a NaN result is written as null; exit 0 must carry real values
    if code == 0:
        assert None not in record["summary"].values(), (argv, record)
    # a deformed sum is the exact one, rounded once
    if code == 0 and argv[0] == "qadd":
        assert record["summary"]["result"] == _exact_qadd(argv[1:]), \
            (argv, record)
    # and a distance lies inside its own bracket
    if code == 0 and argv[0] == "ccdist":
        for rec in read_bundle(str(tmp_path / "ccdist.bundle.json")) \
                .payload["pairs"]:
            assert rec["lower"] <= rec["dist"] <= rec["upper"], (argv, rec)


# ---------------------------------------------------------------------------
# fuzz of the config-file boundary: arbitrary JSON values for each
# command's keys, read through the flags' types and choices

_ANY_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-10 ** 30, 10 ** 30),
              st.floats(allow_nan=True, allow_infinity=True),
              st.text(max_size=8)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner,
                                            max_size=3)),
    max_leaves=6)


def _int_text(value):
    # whether the flag's int type would accept the value
    try:
        int(value if isinstance(value, str) else json.dumps(value))
    except ValueError:
        return False
    return True


def _size(*fast):
    # a key that sets the size of a run: values its int type refuses, or
    # sizes that run in milliseconds or are refused up front
    return st.one_of(_ANY_JSON.filter(lambda v: not _int_text(v)),
                     st.sampled_from(fast))


# per command: the argv it always needs, the keys always in its file and
# the keys that may be; the output directory (set on the command line)
# and ccdist's emit_path (a file written wherever it names) are left out,
# and verify-all gets only seeds its int type refuses
_CONFIG_KEYS = {
    "entropy": ([], {}, {"dist": _ANY_JSON, "q": _ANY_JSON,
                         "renormalize": _ANY_JSON}),
    "qadd": ([], {}, {"x": _ANY_JSON, "y": _ANY_JSON, "q": _ANY_JSON}),
    "group": (["inv", "--g1", '{"a":1,"c":0,"b":0}'], {},
              {"g2": _ANY_JSON, "op": _ANY_JSON}),
    "ccdist": ([], {}, {"a": _ANY_JSON, "b": _ANY_JSON, "pairs": _ANY_JSON,
                        "norm": _ANY_JSON, "tol": _ANY_JSON,
                        "segments": _size(2, 8, "64", -1, 0, 10 ** 13)}),
    "holonomy": ([], {}, {"path": _ANY_JSON, "loop": _ANY_JSON,
                          "radius": _ANY_JSON,
                          "samples": _size(0, 10, "100", 10 ** 8)}),
    "volume": ([], {"samples": _size(10_000, "9999", 10 ** 30)},
               {"metric": _ANY_JSON,
                "radii": st.one_of(_ANY_JSON, _MALFORMED_RADII),
                "seed": _ANY_JSON}),
    "pansu": ([], {}, {"map": st.one_of(_ANY_JSON, _POLY_MAPS), "base": _ANY_JSON,
                       "kind": _ANY_JSON, "convention": _ANY_JSON}),
    "growth": ([], {"radius": _size(0, 3, "8", -1, 10 ** 8, 10 ** 30)},
               {"group": _ANY_JSON, "gens": st.one_of(_ANY_JSON, _TRIPLES),
                "fit_window": st.one_of(_ANY_JSON, _WINDOWS),
                "mem_budget": _ANY_JSON,
                "compare_gens": st.one_of(_ANY_JSON, _TRIPLES)}),
    "verify-all": ([], {"seed": _ANY_JSON.filter(
        lambda v: not _int_text(v))}, {}),
}

_CONFIG_DRAWS = st.one_of(*(
    st.tuples(st.just(command), st.just(argv), st.fixed_dictionaries(
        required, optional={**optional, "format": _ANY_JSON}))
    for command, (argv, required, optional) in _CONFIG_KEYS.items()))


# about 25 examples for each of the nine commands
@settings(max_examples=240, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(draw=_CONFIG_DRAWS)
@example(draw=("qadd", [], {"x": 1e300, "y": 0, "q": -1e20}))
def test_main_config_fuzz_ends_in_result_or_json_error(tmp_path, draw):
    command, argv, values = draw
    conf = tmp_path / "fuzz.conf"
    conf.write_text("".join(f"{key} = {json.dumps(value)}\n"
                            for key, value in values.items()))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--output-dir", str(tmp_path), "--config",
                         str(conf), command, *argv])
    assert code in (0, 2, 3), (values, code)
    lines = (out.getvalue() + err.getvalue()).splitlines()
    assert len(lines) == 1, (values, lines)
    record = json.loads(lines[0])
    assert ("error" in record) == (code != 0), (values, record)
    # text that does not parse is a usage error; each value reaches the
    # command as the text its flag would take
    flags = {key: value if isinstance(value, str) else json.dumps(value)
             for key, value in cli.parse_config_file(str(conf)).items()}
    if command in ("volume", "growth") and _malformed(flags):
        assert code == 2, (values, record)
    if code == 0:
        assert None not in record["summary"].values(), (values, record)
