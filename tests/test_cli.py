import json
import math
import os

import numpy as np
import pytest

from carnot_lab import cli, reports
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
                   kind="abelian_to_abelian", convention="source_graded",
                   schedule=20)
    bundle = run("pansu", cfg)
    matrix = np.array(bundle.payload["matrix"])
    assert np.allclose(matrix, 2.0 * np.eye(3), atol=1e-8)
    cfg = base_cfg(tmp_path, map="custom-polynomial:0,3", base="0,0,0",
                   kind="heis_to_abelian", convention="source_graded",
                   schedule=20)
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
    cfg = base_cfg(tmp_path, group="heis_Z", radius=40, mem_budget=1)
    with pytest.raises(CommandError) as info:
        run("growth", cfg)
    assert "partial" in info.value.payload
    assert info.value.module == "cayley_growth"


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


def test_main_growth_config_errors(tmp_path, capsys):
    for line in ("radius = 2.5", 'group = "so3"', "radius = true",
                 'mem_budget = "x"', "gens = 5", "fit_window = 10"):
        conf = tmp_path / "growth.conf"
        conf.write_text(line + "\n")
        code = cli.main(["--output-dir", str(tmp_path), "--config",
                         str(conf), "growth"])
        assert code == 3, line
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["module"] == "cayley_growth"


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
    # the label stays where it has its meaning: an infinite pansu order
    # marks an entry whose blow-up quotient is already constant
    assert cli.main(["--output-dir", str(tmp_path), "pansu"]) == 0
    bundle = json.loads((tmp_path / "pansu.bundle.json").read_text())
    orders = bundle["payload"]["per_entry_order"]["direction_0"]
    assert set(orders.values()) == {"exact"}


def test_main_ccdist_summary_shows_degraded(tmp_path, capsys):
    # two slots cannot close a loop around the vertical axis, so that
    # solve falls back to the explicit path; the summary must say so
    base = ["--output-dir", str(tmp_path), "ccdist",
            "--a", '{"x":0,"y":0,"z":0}', "--b", '{"x":0,"y":0,"z":1}']
    for extra, degraded in ((["--segments", "2"], True), ([], False)):
        assert cli.main([*base, *extra]) == 0
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert out["summary"]["degraded"] is degraded
