"""Self-tests of the benchmark: the oracles, and a reduced-size smoke run
of each workload that checks every metric of BENCHMARK.json is produced.

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py
"""

import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import child  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# oracles

def test_vertical_anchor_is_two_root_pi():
    assert oracle.l2_distance(0.0, 0.0, 1.0) == 2.0 * math.sqrt(math.pi)
    # the arc solution meets the vertical limit continuously
    assert oracle.l2_distance(1e-9, 0.0, 1.0) == pytest.approx(
        2.0 * math.sqrt(math.pi), rel=1e-8)


def test_horizontal_points_are_at_their_planar_distance():
    assert oracle.l2_distance(3.0, 4.0, 0.0) == 5.0
    assert oracle.l2_distance(1.0, 0.0, 1e-12) == pytest.approx(1.0,
                                                                rel=1e-11)


@pytest.mark.parametrize("t", [0.25, 0.5, 2.0, 7.0])
def test_dilation_scales_the_distance(t):
    rng = np.random.default_rng(7)
    for x, y, z in rng.uniform(-2.0, 2.0, (20, 3)):
        d = oracle.l2_distance(x, y, z)
        assert oracle.l2_distance(t * x, t * y, t * t * z) == \
            pytest.approx(t * d, rel=1e-12)


def test_unit_ball_boundary_is_at_distance_one():
    for theta in np.linspace(0.05, math.pi - 0.05, 15):
        rho = math.sin(theta) / theta
        z = (2 * theta - math.sin(2 * theta)) / (8 * theta * theta)
        assert oracle.l2_distance(rho, 0.0, z) == pytest.approx(1.0,
                                                                rel=1e-12)


def test_unit_ball_volume():
    assert oracle.unit_ball_volume() == pytest.approx(0.8258758, abs=1e-7)


def test_oracle_agrees_with_cc_distance():
    from carnot_lab.distance import cc_distance
    rng = np.random.default_rng(3)
    survey = workloads.DistanceSurvey()
    for kind in ("generic", "generic", "vertical", "near_vertical"):
        a, b = survey._pair(rng, kind)
        exact = oracle.l2_pair_distance(a, b)
        value = cc_distance(a, b).value
        assert exact * (1 - 1e-9) <= value <= exact * (1 + 1e-3)


def test_lattice_oracles_match_small_balls():
    from carnot_lab import growth
    levels = oracle.heis_ball_levels(8)
    table = growth.word_ball("heis_Z", growth.STANDARD_GENERATORS["heis_Z"],
                             8)
    assert list(table.counts) == np.cumsum([len(v) for v in levels]).tolist()
    assert [oracle.octahedral_count(r) for r in range(4)] == [1, 7, 25, 63]


# ---------------------------------------------------------------------------
# reduced-size smoke runs

class SmallGate(workloads.ReleaseGate):
    # the fast criteria only; verify-all otherwise takes half a minute
    CRITERIA = (0, 6, 7, 10)

    def run(self, lib, inputs, scratch):
        criteria = lib.acceptance.CRITERIA
        saved = list(criteria)
        criteria[:] = [saved[i] for i in self.CRITERIA]
        try:
            return super().run(lib, inputs, scratch)
        finally:
            criteria[:] = saved


class SmallSurvey(workloads.DistanceSurvey):
    PAIRS = {"l2": {"generic": 1, "vertical": 1}, "l1": {"vertical": 1},
             "linf": {"generic": 1}}
    VOLUME_SAMPLES = 10_000


class SmallLattice(workloads.LatticeGrowth):
    HEIS_RADIUS = 10
    Z3_RADIUS = 10
    ROBUSTNESS_RADIUS = 10
    QUERY_NORMS = range(3, 6)


@pytest.fixture(scope="module")
def lib():
    return child.load_library()


@pytest.mark.parametrize("small", [SmallGate, SmallSurvey, SmallLattice])
def test_smoke_run_reports_every_metric(small, lib, tmp_path):
    wl = small()
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    inputs = wl.make_inputs(1, str(scratch))
    plain = child.measure(lib, wl, inputs, str(scratch))
    traced = child.measure(lib, wl, inputs, str(scratch), run_id="smoke",
                           spans_path=str(tmp_path / "spans.jsonl.gz"))
    spec = run.load_spec()
    result, _ = run.summarize([plain], [0.5], None, spec)
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert result["correct"] and result["attempted"] == len(plain["ops"])
    result, _ = run.summarize([plain], [0.5], traced, spec)
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["attempted"] == len(plain["ops"])
    assert (tmp_path / "spans.jsonl.gz").stat().st_size > 0
    # every patched function is restored after the traced run
    assert not hasattr(lib.distance.cc_distance, "__wrapped__")
    assert not hasattr(lib.acceptance.CRITERIA[0], "__wrapped__")
