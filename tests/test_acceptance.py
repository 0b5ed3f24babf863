"""Release-gate suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s or on
failure) and enforces the criterion's runtime budget.
"""

import dataclasses
import math
import resource
import time

import numpy as np
import pytest

from carnot_lab import acceptance, distance, geometry, growth, heisenberg, \
    pansu, qalgebra
from carnot_lab.cli import run

SEED = acceptance.DEFAULT_SEED


def _gate(fn, budget_s):
    t0 = time.perf_counter()
    rec = fn(SEED)
    elapsed = time.perf_counter() - t0
    status = "PASS" if rec["passed"] else "FAIL"
    print(f"{status}  criterion {rec['id']:2d}  {rec['name']}  "
          f"[{elapsed:.2f}s]  {rec['detail']}")
    assert rec["passed"], rec
    assert elapsed < budget_s, (rec["id"], elapsed, budget_s)
    return rec


def test_criterion_01_q_composition_identity():
    rec = _gate(acceptance.criterion_composition, 0.5)
    assert rec["detail"]["max_defect"] < 1e-10


def test_criterion_01_sees_a_shifted_entropy(monkeypatch):
    # the deformed sum adds the two factors' entropies, so a constant
    # shift of 1e-6 in every entropy leaves a defect far above 1e-10
    tsallis = qalgebra._tsallis
    monkeypatch.setattr(qalgebra, "_tsallis",
                        lambda w, q: tsallis(w, q) + 1e-6)
    rec = acceptance.criterion_composition(SEED)
    assert rec["passed"] is False, rec


def test_criterion_02_abe_identity():
    rec = _gate(acceptance.criterion_abe_identity, 0.5)
    assert rec["detail"]["max_diff_to_bound"] <= 1.0


def test_criterion_02_sees_a_shifted_entropy(monkeypatch):
    # the quotient is computed apart from the entropy kernel, so an
    # entropy off by 0.01 must fail it
    tsallis = qalgebra._tsallis
    monkeypatch.setattr(qalgebra, "_tsallis",
                        lambda w, q: tsallis(w, q) + 0.01)
    rec = acceptance.criterion_abe_identity(SEED)
    assert rec["passed"] is False, rec


def test_criterion_03_bgs_limit():
    _gate(acceptance.criterion_bgs_limit, 0.5)


def test_criterion_03_sees_a_shifted_bgs_entropy(monkeypatch):
    # the bound is 5 h times the curvature, h = 1e-4; a BGS entropy off
    # by 1e-3 exceeds it (one off by 1e-4 need not)
    bgs = qalgebra._bgs
    monkeypatch.setattr(qalgebra, "_bgs", lambda w: bgs(w) + 1e-3)
    rec = acceptance.criterion_bgs_limit(SEED)
    assert rec["passed"] is False, rec


def test_criterion_04_group_exactness():
    rec = _gate(acceptance.criterion_group_exactness, 1.0)
    assert rec["detail"]["double_commutators_trivial"] is True


def test_criterion_05_commutator_oracle():
    rec = _gate(acceptance.criterion_commutator_oracle, 1.0)
    # embedded commutators are the identity, far from the -2xy variant
    assert rec["detail"]["max_identity_deviation"] < 1e-10
    assert rec["detail"]["max_claimed_entry_gap"] > 1.0


def test_criterion_05_sees_a_shifted_central_entry(monkeypatch):
    # the dense products are independent of heisenberg.commutator, whose
    # central entry off by 1e-9 must fail the 1e-10 identity tolerance
    commutator = heisenberg.commutator

    def shifted(g1, g2):
        comm = commutator(g1, g2)
        return comm._replace(b=comm.b + 1e-9)

    monkeypatch.setattr(heisenberg, "commutator", shifted)
    rec = acceptance.criterion_commutator_oracle(SEED)
    assert rec["passed"] is False, rec


def test_criterion_06_left_invariance():
    _gate(acceptance.criterion_left_invariance, 10.0)


def test_criterion_07_holonomy_equals_area():
    _gate(acceptance.criterion_holonomy, 1.0)


def test_criterion_08_distance_anchors():
    rec = _gate(acceptance.criterion_distance_anchors, 10.0)
    # the vertical value is the 64-slot Zenodorus form to a few ulps
    zenodorus = math.sqrt(4.0 * 64 * math.tan(math.pi / 64))
    assert rec["detail"]["zenodorus_gap"] <= 4 * math.ulp(zenodorus)


def test_criterion_09_dilation_homogeneity():
    _gate(acceptance.criterion_dilation_homogeneity, 10.0)


def test_criterion_10_volume_scaling():
    _gate(acceptance.criterion_volume_scaling, 10.0)


def test_criterion_11_pansu_diagonal():
    _gate(acceptance.criterion_pansu_diagonal, 1.0)


def test_criterion_11_sees_a_fault_in_the_closed_form(monkeypatch):
    # the Horner central differences are independent of the closed form:
    # derivatives off by a relative 1e-5 must fail it
    derivative = pansu.pansu_derivative
    monkeypatch.setattr(pansu, "pansu_derivative",
                        lambda *args, **kw: derivative(*args, **kw)
                        * (1.0 + 1e-5))
    rec = acceptance.criterion_pansu_diagonal(SEED)
    assert rec["passed"] is False, rec


def test_criterion_12_discrete_growth():
    _gate(acceptance.criterion_discrete_growth, 10.0)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert peak_mb < 4096, f"peak memory {peak_mb:.0f} MB"


@pytest.mark.parametrize("group", ["heis_Z", "z3"])
def test_criterion_12_sees_a_closed_form_count_off_by_one(monkeypatch,
                                                          group):
    # the closed forms are checked against searches, so one count off
    # by one, at r = 17, must fail it
    standard_ball = growth._standard_ball

    def off_by_one(grp, gens, radius):
        table = standard_ball(grp, gens, radius)
        if grp != group:
            return table
        counts = list(table.counts)
        counts[17] += 1
        return dataclasses.replace(table, counts=tuple(counts))

    monkeypatch.setattr(growth, "_standard_ball", off_by_one)
    rec = acceptance.criterion_discrete_growth(SEED)
    assert rec["passed"] is False, rec
    key = "heis_matches_search" if group == "heis_Z" \
        else "z3_matches_octahedral"
    assert rec["detail"][key] is False


@pytest.mark.filterwarnings("ignore:a generating set:UserWarning")
def test_criterion_12_sees_a_search_that_loses_a_key(monkeypatch):
    # every search that yields S_5 without one of its keys must disagree
    # with the closed form it checks; the ball it loses the key from may
    # also no longer cover the other set's
    spheres = growth._spheres

    def lossy(*args, **kwargs):
        for r, (lo, hi) in enumerate(spheres(*args, **kwargs)):
            if r == 5:
                hi = hi.copy()
                hi[0] -= 1
                keep = lo < hi
                lo, hi = lo[keep], hi[keep]
            yield lo, hi

    monkeypatch.setattr(growth, "_spheres", lossy)
    rec = acceptance.criterion_discrete_growth(SEED)
    assert rec["passed"] is False, rec
    assert rec["detail"]["heis_matches_search"] is False
    assert rec["detail"]["z3_matches_octahedral"] is False


def test_criterion_13_verify_all_determinism(tmp_path):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    for d in (d1, d2):
        bundle = run("verify-all", {"seed": SEED, "output_dir": str(d),
                                    "format": "json"})
        assert bundle.payload["all_passed"] is True
    b1 = (d1 / "verify-all.bundle.json").read_bytes()
    b2 = (d2 / "verify-all.bundle.json").read_bytes()
    identical = b1 == b2
    status = "PASS" if identical else "FAIL"
    print(f"{status}  criterion 13  verify-all determinism "
          f"[{len(b1)} bytes]")
    assert identical


# ---------------------------------------------------------------------------
# per-element reference loops for the criteria that run on whole arrays

def _group_exactness_by_rows(seed):
    rng = acceptance._rng(seed, 4)
    coords = rng.uniform(-2.0, 2.0, (10_000, 9))
    worst = {"assoc": 0.0, "inverse": 0.0, "iso": 0.0, "explog": 0.0}
    for row in coords:
        g1, g2, g3 = (heisenberg.HeisMatrix(*row[k:k + 3]) for k in (0, 3, 6))
        left = heisenberg.mul(heisenberg.mul(g1, g2), g3)
        right = heisenberg.mul(g1, heisenberg.mul(g2, g3))
        worst["assoc"] = max(worst["assoc"],
                             max(abs(a - b) for a, b in zip(left, right)))
        gi = heisenberg.mul(g1, heisenberg.inv(g1))
        worst["inverse"] = max(worst["inverse"], max(abs(c) for c in gi))
        p1 = heisenberg.HeisPoint(*row[0:3])
        p2 = heisenberg.HeisPoint(*row[3:6])
        m1 = heisenberg.point_to_matrix(heisenberg.exp_mul(p1, p2))
        m2 = heisenberg.mul(heisenberg.point_to_matrix(p1),
                            heisenberg.point_to_matrix(p2))
        worst["iso"] = max(worst["iso"],
                           max(abs(a - b) for a, b in zip(m1, m2)))
        v = heisenberg.LieVector(*row[6:9])
        back = heisenberg.log_map(heisenberg.exp_map(v))
        worst["explog"] = max(worst["explog"],
                              max(abs(a - b) for a, b in zip(v, back)))
    ints = acceptance._rng(seed, 41).integers(-50, 51, (2000, 9))
    nilpotent = all(
        heisenberg.double_commutator_check(
            *(heisenberg.HeisMatrix(*r[k:k + 3]) for k in (0, 3, 6)))
        for r in ints)
    detail = {k: float(v) for k, v in worst.items()}
    detail.update({"tolerance": 1e-12, "elements": 10_000,
                   "double_commutators_trivial": nilpotent})
    return detail


def _commutator_oracle_by_rows(seed):
    rng = acceptance._rng(seed, 5)
    xs = rng.uniform(-3.0, 3.0, 10_000)
    ys = rng.uniform(-3.0, 3.0, 10_000)

    def stack_embed(vals):
        m = np.tile(np.eye(3), (len(vals), 1, 1))
        m[:, 0, 1] = m[:, 0, 2] = m[:, 1, 2] = vals
        return m

    sx, sy = stack_embed(xs), stack_embed(ys)
    comm = sx @ sy @ np.linalg.inv(sy @ sx)
    worst = float(np.max(np.abs(comm - np.eye(3))))
    claim_gap = float(np.max(np.abs(-2.0 * xs * ys - comm[:, 0, 2])))
    for x, y in zip(xs, ys):
        fast = heisenberg.commutator(heisenberg.scalar_embed(x),
                                     heisenberg.scalar_embed(y))
        worst = max(worst, max(abs(c) for c in fast))
    return {"max_identity_deviation": worst,
            "max_claimed_entry_gap": claim_gap, "pairs": 10_000}


def _dists_by_rows(rng, lengths):
    """Dirichlet(1) weights for a (k, m) array of lengths, drawn one row
    at a time: class by class in ascending order of the length rows, and
    within a class column by column, row by row."""
    keys = [tuple(int(n) for n in row) for row in lengths]
    dists = [[None] * len(key) for key in keys]
    for key in sorted(set(keys)):
        rows = [i for i, k in enumerate(keys) if k == key]
        for column, n in enumerate(key):
            for i in rows:
                dists[i][column] = rng.dirichlet(np.ones(n))
    return dists


def _composition_by_rows(seed):
    rng = acceptance._rng(seed, 1)
    lengths = rng.integers(2, 7, (1000, 2))
    qs = rng.uniform(0.2, 3.0, 1000)
    worst = 0.0
    for (p, r), q in zip(_dists_by_rows(rng, lengths), qs):
        worst = max(worst, abs(qalgebra.composition_defect(p, r, q)))
    return {"max_defect": worst, "tolerance": 1e-10, "samples": 1000}


def _abe_identity_by_rows(seed):
    rng = acceptance._rng(seed, 2)
    lengths = rng.integers(2, 7, (1000, 1))
    qs = rng.uniform(0.2, 3.0, 1000)
    eps = np.finfo(float).eps
    worst = worst_ratio = 0.0
    for (p,), q in zip(_dists_by_rows(rng, lengths), qs):
        s = qalgebra.tsallis_entropy(p, q)

        def g(x):
            return np.sum(p ** x)

        a = -qalgebra.jackson_quotient(g, 1.0, q)
        rel = abs(a - s) / max(abs(s), 1e-300)
        worst = max(worst, float(rel))
        g_q = g(q)
        bound = (len(p) + 2) * eps * (g_q + 1.0) / abs(g_q - 1.0) + 4.0 * eps
        worst_ratio = max(worst_ratio, float(rel / bound))
    return {"max_rel_diff": worst, "max_diff_to_bound": worst_ratio,
            "samples": 1000}


def _bgs_limit_by_rows(seed):
    rng = acceptance._rng(seed, 3)
    h = 1e-4
    worst_margin = -np.inf
    for (p,) in _dists_by_rows(rng, rng.integers(2, 7, (100, 1))):
        nz = p[p > 0]
        curvature = abs(float(np.sum(nz * np.log(nz) ** 2)))
        gap = abs(qalgebra.tsallis_entropy(p, 1.0 + h)
                  - qalgebra.bgs_entropy(p))
        worst_margin = max(worst_margin, gap - 5.0 * h * curvature)
    return {"h": h, "max_gap_minus_bound": float(worst_margin), "dists": 100}


def _left_invariance_by_rows(seed):
    rng = acceptance._rng(seed, 6)
    worst_frame = 0.0
    for _ in range(1000):
        g = heisenberg.HeisPoint(*rng.uniform(-3, 3, 3))
        p = heisenberg.HeisPoint(*rng.uniform(-3, 3, 3))
        J = heisenberg.left_jacobian(g)
        gp = heisenberg.left_translate(g, p)
        for vec_here, vec_there in zip(geometry.frame_at(p),
                                       geometry.frame_at(gp)):
            worst_frame = max(worst_frame,
                              float(np.max(np.abs(J @ vec_here - vec_there))))
    # the distance half is per pair in the criterion too, on the stream
    # the frame half leaves
    worst_dist = 0.0
    for _ in range(50):
        a = heisenberg.HeisPoint(*rng.uniform(-1.5, 1.5, 3))
        b = heisenberg.HeisPoint(*rng.uniform(-1.5, 1.5, 3))
        g = heisenberg.HeisPoint(*rng.uniform(-1.5, 1.5, 3))
        d0 = distance.cc_distance(a, b).value
        d1 = distance.cc_distance(heisenberg.exp_mul(g, a),
                                  heisenberg.exp_mul(g, b)).value
        worst_dist = max(worst_dist, abs(d1 - d0))
    return {"max_frame_gap": worst_frame, "max_distance_gap": worst_dist,
            "distance_tolerance": 2 * distance.DEFAULT_ENDPOINT_TOL}


def test_batched_criteria_equal_their_per_element_loops():
    for seed in (SEED, 7):
        for criterion, by_rows in (
                (acceptance.criterion_composition, _composition_by_rows),
                (acceptance.criterion_abe_identity, _abe_identity_by_rows),
                (acceptance.criterion_bgs_limit, _bgs_limit_by_rows),
                (acceptance.criterion_group_exactness,
                 _group_exactness_by_rows),
                (acceptance.criterion_commutator_oracle,
                 _commutator_oracle_by_rows),
                (acceptance.criterion_left_invariance,
                 _left_invariance_by_rows)):
            rec = criterion(seed)
            assert rec["detail"] == by_rows(seed), (seed, rec["id"])
