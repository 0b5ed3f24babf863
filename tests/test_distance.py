import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize, minimize_scalar

from carnot_lab import distance as dist
from carnot_lab import geometry as geo
from carnot_lab import growth
from carnot_lab import heisenberg as hg
from carnot_lab.errors import DomainError

O = hg.ORIGIN


def test_zero_distance():
    res = dist.cc_distance(O, O)
    assert res.value == 0.0
    assert res.witness.controls.size == 0


def test_horizontal_anchor():
    res = dist.cc_distance(O, hg.HeisPoint(1.0, 0.0, 0.0))
    assert res.value == pytest.approx(1.0, abs=1e-3)
    assert res.lower == pytest.approx(1.0)
    assert res.value >= res.lower - 1e-12
    assert res.endpoint_error < 1e-6
    assert not res.degraded


def test_vertical_anchor_isoperimetric():
    res = dist.cc_distance(O, hg.HeisPoint(0.0, 0.0, 1.0))
    target = 2.0 * math.sqrt(math.pi)
    assert res.value == pytest.approx(target, abs=2e-2)
    # the lower bracket is the isoperimetric value itself here
    assert res.lower == pytest.approx(target, rel=1e-12)
    assert res.value >= res.lower - 1e-12
    # the slot path approaches from above: the best polygonal loop with
    # N segments is slightly longer than the circle
    assert res.value >= target - 1e-9


def test_witness_integrates_to_target():
    rng = np.random.default_rng(51)
    pairs = [(hg.HeisPoint(*rng.uniform(-1.5, 1.5, 3)),
              hg.HeisPoint(*rng.uniform(-1.5, 1.5, 3))) for _ in range(10)]
    for norm in geo.HORIZONTAL_NORMS:
        for a, b in pairs:
            res = dist.cc_distance(a, b, norm=norm)
            end = geo.integrate_path(res.witness)
            assert np.allclose(end, b, atol=1e-6)
            assert res.witness.start == a
            assert res.value == pytest.approx(
                geo.cc_length(res.witness, norm), rel=1e-12)


def test_value_within_rigorous_sandwich():
    rng = np.random.default_rng(52)
    pairs = [(hg.HeisPoint(*rng.uniform(-1.5, 1.5, 3)),
              hg.HeisPoint(*rng.uniform(-1.5, 1.5, 3))) for _ in range(10)]
    pairs.append((hg.HeisPoint(0.3, -0.2, 0.1),
                  hg.HeisPoint(0.31, -0.19, 1.4)))  # near-vertical
    for norm in geo.HORIZONTAL_NORMS:
        for a, b in pairs:
            res = dist.cc_distance(a, b, norm=norm)
            # against the elementary bounds recomputed independently of
            # the result's own (possibly tightened) bracket
            lo, hi = dist.distance_bounds(hg.exp_mul(hg.exp_inv(a), b), norm)
            assert lo - 1e-9 <= res.value <= hi + 1e-9
            assert res.lower == lo and res.upper <= hi + 1e-15


def test_vertical_sandwich_bounds():
    # sqrt(4 pi z) <= d(0, (0,0,z)) <= 4 sqrt(z), both ends checked
    for z in (0.25, 1.0, 3.0):
        res = dist.cc_distance(O, hg.HeisPoint(0.0, 0.0, z))
        assert res.value >= math.sqrt(4.0 * math.pi * z) - 1e-9
        chow_len = geo.cc_length(geo.chow_connect(O, hg.HeisPoint(0, 0, z)))
        assert chow_len == pytest.approx(4.0 * math.sqrt(z))
        assert res.value <= chow_len + 1e-9


def test_vertical_values_match_busemann():
    # independent oracle: the isoperimetrix of the l1 norm is a square,
    # that of linf a diamond (Busemann 1947; Duchin-Mooney 2014), so
    # d(0, (0, 0, z)) is 4 sqrt|z| for l1 and 2 sqrt(2 |z|) for linf
    for z in (0.25, 1.0, -3.0):
        p = hg.HeisPoint(0.0, 0.0, z)
        assert dist.cc_distance(O, p, norm="l1").value == pytest.approx(
            4.0 * math.sqrt(abs(z)), rel=1e-12)
        assert dist.cc_distance(O, p, norm="linf").value == pytest.approx(
            2.0 * math.sqrt(2.0 * abs(z)), rel=1e-12)


def test_l1_distance_below_word_length():
    # independent oracle: a word in the standard generators of the
    # discrete Heisenberg group is a unit-speed axis path of l1 length
    # |g| to the exponential coordinates (a, c, b - ac/2) of g, so the
    # exact distance can never exceed the word length
    law = growth.GROUP_LAWS["heis_Z"][0]
    gens = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))
    word_length = {(0, 0, 0): 0}
    frontier = [(0, 0, 0)]
    for n in range(1, 13):
        new = []
        for g in frontier:
            for s in gens:
                h = law(g, s)
                if h not in word_length:
                    word_length[h] = n
                    new.append(h)
        frontier = new
    assert len(word_length) == growth.word_ball("heis_Z", gens, 12).counts[-1]
    gaps = []
    for (a, c, b), n in word_length.items():
        p = hg.HeisPoint(a, c, b - 0.5 * a * c)
        gaps.append(n - dist.cc_distance(O, p, norm="l1").value)
    assert min(gaps) >= -1e-12 * 12


_coord = st.floats(-10.0, 10.0, allow_subnormal=False)


@settings(max_examples=300, deadline=None)
@given(a=st.tuples(_coord, _coord, _coord), b=st.tuples(_coord, _coord, _coord),
       norm=st.sampled_from(("l1", "linf")))
def test_l1_linf_witness_is_exact(a, b, norm):
    a, b = hg.HeisPoint(*a), hg.HeisPoint(*b)
    res = dist.cc_distance(a, b, norm=norm)
    assert np.allclose(geo.integrate_path(res.witness), b, rtol=0.0,
                       atol=1e-9)
    assert geo.cc_length(res.witness, norm) == pytest.approx(res.value,
                                                            rel=1e-12)
    assert len(res.witness.controls) <= 4 and not res.degraded
    lo, hi = dist.distance_bounds(hg.exp_mul(hg.exp_inv(a), b), norm)
    assert lo * (1.0 - 1e-12) <= res.value <= hi * (1.0 + 1e-12)


def best_four_piece_l1(x, y, z):
    """Oracle: the shortest path of four alternating axis pieces
    (0, a), (b, 0), (0, c), (d, 0), with a + c = y, b + d = x and
    enclosed area (c (b - d) - a x) / 2 = z, minimized over a by a grid
    and a bounded local search; the family starting along x is the
    mirror image, a path to (y, x, -z). It knows nothing of the three
    cases of the closed form."""
    def length(a, x, y, z):
        c = y - a
        b_minus_d = (2.0 * z + a * x) / c
        return (np.abs(a) + np.abs(c) + np.abs(0.5 * (x + b_minus_d))
                + np.abs(0.5 * (x - b_minus_d)))

    reach = abs(x) + abs(y) + 4.0 * math.sqrt(abs(z))
    best = math.inf
    for args in ((x, y, z), (y, x, -z)):
        grid = np.linspace(-reach, reach, 20_001)
        with np.errstate(divide="ignore", invalid="ignore"):
            values = length(grid, *args)
        values[~np.isfinite(values)] = math.inf
        k = int(np.argmin(values))
        step = grid[1] - grid[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            sol = minimize_scalar(length, args=args, method="bounded",
                                  bounds=(grid[k] - step, grid[k] + step),
                                  options={"xatol": 1e-14})
        best = min(best, values[k], sol.fun if np.isfinite(sol.fun)
                   else math.inf)
    return best


def test_l1_matches_best_four_piece_path():
    # every case of the closed form against a search that does not know
    # the cases; the witnesses lie in the searched family, so a search
    # result below the value would show the value too long
    rng = np.random.default_rng(59)
    for _ in range(200):
        x, y = rng.uniform(-1.0, 1.0, 2)
        z = rng.uniform(-0.5, 0.5)  # 56, 75 and 69 targets per case
        value = dist.cc_distance(O, hg.HeisPoint(x, y, z), norm="l1").value
        assert value == pytest.approx(best_four_piece_l1(x, y, z), rel=1e-9)


def test_l1_cases_meet_continuously():
    # in the reduced frame h >= l > 0, z >= 0: the staircase meets the
    # detour at z = hl/2 (value h + l), the detour meets the square arc
    # at z = h^2 - hl/2 (value 3h - l); on both sides of each boundary
    # the witness reaches its target
    for h, l in ((1.0, 0.3), (2.0, 1.5), (1.0, 1.0), (1.0, 1e-3)):
        for z, value in ((0.5 * h * l, h + l),
                         (h * h - 0.5 * h * l, 3.0 * h - l)):
            for side in (1.0 - 1e-6, 1.0, 1.0 + 1e-6):
                # the swap of x and y composed with a reflection
                for p in ((h, l, z * side), (-l, h, z * side)):
                    res = dist.cc_distance(O, hg.HeisPoint(*p), norm="l1")
                    assert res.value == pytest.approx(value, rel=1e-5)
                    assert np.allclose(geo.integrate_path(res.witness), p,
                                       rtol=0.0, atol=1e-12)


def test_left_invariance_of_value():
    rng = np.random.default_rng(53)
    for _ in range(5):
        a = hg.HeisPoint(*rng.uniform(-1.5, 1.5, 3))
        b = hg.HeisPoint(*rng.uniform(-1.5, 1.5, 3))
        g = hg.HeisPoint(*rng.uniform(-1.5, 1.5, 3))
        d0 = dist.cc_distance(a, b).value
        d1 = dist.cc_distance(hg.exp_mul(g, a), hg.exp_mul(g, b)).value
        assert abs(d1 - d0) < 2e-6


def test_dilation_homogeneity_is_structural():
    rng = np.random.default_rng(54)
    for _ in range(3):
        a = hg.HeisPoint(*rng.uniform(-1.5, 1.5, 3))
        b = hg.HeisPoint(*rng.uniform(-1.5, 1.5, 3))
        d0 = dist.cc_distance(a, b).value
        for t in (0.5, 2.0, 4.0):
            dt = dist.cc_distance(geo.dilate(a, t), geo.dilate(b, t)).value
            # power-of-two dilations rescale the normalized problem
            # exactly, so the solver returns exactly t * d
            assert abs(dt - t * d0) <= 1e-12 * t


def test_norm_choice_bi_lipschitz():
    # fixed sample of 100 point pairs: the two distance functions are
    # bi-Lipschitz with the planar norm-equivalence constants
    rng = np.random.default_rng(55)
    ratios = []
    for _ in range(100):
        a = hg.HeisPoint(*rng.uniform(-1, 1, 3))
        b = hg.HeisPoint(*rng.uniform(-1, 1, 3))
        d2 = dist.cc_distance(a, b, segments=16).value
        d1 = dist.cc_distance(a, b, segments=16, norm="l1").value
        if d2 == 0.0:
            continue
        ratios.append(d1 / d2)
    assert min(ratios) >= 1.0 - 1e-6
    assert max(ratios) <= math.sqrt(2.0) + 2e-2


def max_contact_violation(path):
    rows = geo.sample_path(path, per_segment=4)
    worst = 0.0
    for k in range(len(rows) - 1):
        step = rows[k + 1, 1:] - rows[k, 1:]
        mid = hg.HeisPoint(*(0.5 * (rows[k + 1, 1:] + rows[k, 1:])))
        worst = max(worst, abs(geo.contact_form(mid, step)))
    return worst


def test_produced_paths_are_horizontal():
    # every path the library builds stays tangent to the distribution
    rng = np.random.default_rng(57)
    for _ in range(10):
        a = hg.HeisPoint(*rng.uniform(-2, 2, 3))
        b = hg.HeisPoint(*rng.uniform(-2, 2, 3))
        assert max_contact_violation(geo.chow_connect(a, b)) <= 1e-9
    res = dist.cc_distance(O, hg.HeisPoint(0.3, -0.4, 0.6))
    assert max_contact_violation(res.witness) <= 1e-9


def test_bounds_function():
    lo, hi = dist.distance_bounds((1.0, 0.0, 0.0))
    assert lo == 1.0 and hi == 1.0
    lo, hi = dist.distance_bounds((0.0, 0.0, 1.0))
    assert lo == pytest.approx(2.0 * math.sqrt(math.pi))
    assert hi == pytest.approx(2.0 * math.sqrt(math.pi))
    lo1, hi1 = dist.distance_bounds((1.0, -2.0, 0.5), norm="l1")
    assert lo1 >= 3.0 and hi1 >= lo1
    with pytest.raises(DomainError):
        dist.distance_bounds((0, 0, 1), norm="l7")


def test_degraded_fallback_uses_explicit_connection(monkeypatch):
    # when no l2 slot path reaches the endpoint, the result is the
    # explicit segment+loop path, flagged as degraded
    monkeypatch.setattr(dist, "_solve_normalized", lambda *a, **k: None)
    b = hg.HeisPoint(0.3, 0.2, 0.1)
    res = dist.cc_distance(O, b)
    assert res.degraded
    assert res.value == pytest.approx(
        geo.cc_length(geo.chow_connect(O, b)))
    assert np.allclose(geo.integrate_path(res.witness), b, atol=1e-12)


def test_cc_distance_validation():
    b = hg.HeisPoint(0.3, 0.2, 0.1)
    for bad in (0, -3, True, 2.5, "8", None):
        with pytest.raises(DomainError):
            dist.cc_distance(O, b, segments=bad)
    for bad in (0.0, -1.0, math.nan, math.inf, True, "1e-6"):
        with pytest.raises(DomainError):
            dist.cc_distance(O, b, endpoint_tol=bad)
    assert dist.cc_distance(O, b, segments=np.int64(8)).segments == 8
    # the normalized solve divides by the squared gauge of A^-1 B
    for far in ((1e160, 0.0, 1.0), (1e200, 0.0, 1.0), (0.0, 0.0, math.inf)):
        with pytest.raises(DomainError):
            dist.cc_distance(O, hg.HeisPoint(*far))
    a = hg.HeisPoint(1e200, 1e200, 0.0)  # A^-1 B has z = inf - inf
    with pytest.raises(DomainError):
        dist.cc_distance(a, hg.HeisPoint(1e200, 1e200, 1.0))


def test_tiny_gauge_is_solved():
    # the squared gauge of A^-1 B underflows (it was a ZeroDivisionError):
    # a dilation by t = 2^-530 scales every distance by t
    t = 2.0 ** -530
    for norm in geo.HORIZONTAL_NORMS:
        unit = dist.cc_distance(O, hg.HeisPoint(3.0, 4.0, 1.0), norm=norm)
        tiny = dist.cc_distance(O, hg.HeisPoint(3.0 * t, 4.0 * t, t * t),
                                norm=norm)
        assert tiny.value == pytest.approx(t * unit.value, rel=1e-12)
        flat = dist.cc_distance(O, hg.HeisPoint(0.0, 1.9e-295, 0.0),
                                norm=norm)
        assert flat.value == pytest.approx(1.9e-295, rel=1e-12)


def test_deterministic_repeat():
    a = hg.HeisPoint(0.4, -0.2, 0.3)
    b = hg.HeisPoint(-0.6, 0.5, -0.1)
    r1 = dist.cc_distance(a, b)
    r2 = dist.cc_distance(a, b)
    assert r1.value == r2.value
    assert np.array_equal(r1.witness.controls, r2.witness.controls)


# ---------------------------------------------------------------------------
# exact l2 distance

def test_l2_distance_anchors():
    assert dist.l2_distance(0.0, 1.0) == pytest.approx(
        2.0 * math.sqrt(math.pi), rel=1e-15)
    assert dist.l2_distance(1.7, 0.0) == 1.7
    assert dist.l2_distance(0.0, 0.0) == 0.0


_rho = st.floats(0.0, 10.0, allow_subnormal=False)
_abs_z = st.floats(0.0, 100.0, allow_subnormal=False)


@settings(max_examples=200, deadline=None)
@given(rho=_rho, abs_z=_abs_z, t=st.floats(1e-2, 1e2))
def test_l2_distance_dilation_homogeneity(rho, abs_z, t):
    d = float(dist.l2_distance(rho, abs_z))
    assert dist.l2_distance(t * rho, t * t * abs_z) == pytest.approx(
        t * d, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(rho=_rho, abs_z=_abs_z)
def test_l2_distance_within_elementary_bounds(rho, abs_z):
    lower, upper = dist.distance_bounds((rho, 0.0, abs_z), "l2")
    d = float(dist.l2_distance(rho, abs_z))
    assert lower * (1.0 - 1e-12) <= d <= upper * (1.0 + 1e-12)


def test_l2_distance_matches_optimizer():
    # independent of the closed form: the witness of cc_distance is a
    # feasible path, so its length can only exceed the exact distance
    rng = np.random.default_rng(56)
    pairs = [(hg.HeisPoint(*rng.uniform(-1.5, 1.5, 3)),
              hg.HeisPoint(*rng.uniform(-1.5, 1.5, 3))) for _ in range(7)]
    pairs.append((hg.HeisPoint(0.3, -0.2, 0.1),
                  hg.HeisPoint(0.31, -0.19, 1.4)))  # near-vertical
    for a, b in pairs:
        delta = hg.exp_mul(hg.exp_inv(a), b)
        exact = float(dist.l2_distance(math.hypot(delta.x, delta.y),
                                       abs(delta.z)))
        value = dist.cc_distance(a, b, segments=64).value
        assert exact * (1.0 - 1e-9) <= value <= exact * (1.0 + 1e-3)


# ---------------------------------------------------------------------------
# exact discrete l2 geodesics: the shortest path on the slot grid

def slot_path(U):
    n = len(U) // 2
    return geo.HorizontalPath(O, np.column_stack(
        [U[:n], U[n:], np.full(n, 1.0 / n)]))


def slot_endpoint(U):
    # integrate_path without its Python loop, for SLSQP's many calls:
    # z gathers half the cross product of each slot step with its start
    n = len(U) // 2
    steps = np.column_stack([U[:n], U[n:]]) / n
    starts = np.cumsum(steps, axis=0) - steps
    z = 0.5 * float(np.sum(starts[:, 0] * steps[:, 1]
                           - starts[:, 1] * steps[:, 0]))
    return np.array([*steps.sum(axis=0), z])


def test_vertical_polygon_matches_zenodorus():
    # independent oracle: among n-gons of a given area the regular one is
    # the shortest (Zenodorus), so the best n-slot loop enclosing |z| has
    # length 2 sqrt(n tan(pi/n) |z|)
    for n in (3, 4, 16, 64):
        zenodorus = 2.0 * math.sqrt(n * math.tan(math.pi / n))
        for z in (1.0, -1.0):
            length, _, err = dist._solve_normalized(
                np.array([0.0, 0.0, z]), n, 1e-13)
            assert length == pytest.approx(zenodorus, rel=1e-12)
            assert err <= 1e-13
        for z in (0.25, -3.0):
            value = dist.cc_distance(O, hg.HeisPoint(0.0, 0.0, z),
                                     segments=n).value
            # below five slots the explicit square loop, 4 sqrt|z|, wins
            assert value == pytest.approx(
                min(zenodorus, 4.0) * math.sqrt(abs(z)), rel=1e-12)


def test_slot_polygon_edge_cases():
    def solve(target, n):
        return dist._solve_normalized(np.array(target), n, 1e-13)

    # one slot encloses no area and two slots cannot close a loop
    assert solve([0.6, 0.8, 0.1], 1) is None
    assert solve([0.0, 0.0, 1.0], 2) is None
    # targets in the plane or nearly so take the straight path, targets
    # nearly on the axis the regular polygon
    assert solve([0.6, 0.8, 0.0], 1)[0] == pytest.approx(1.0, rel=1e-15)
    for z in (5e-324, -1e-300):
        assert solve([0.6, 0.8, z], 64)[0] == pytest.approx(1.0, rel=1e-13)
    assert solve([1e-160, 0.0, 1.0], 64)[0] == pytest.approx(
        2.0 * math.sqrt(64 * math.tan(math.pi / 64)), rel=1e-13)
    res = dist.cc_distance(O, hg.HeisPoint(0.0, 0.0, 1.0), segments=2)
    assert res.degraded and res.value == pytest.approx(4.0)
    # so near the axis the two-slot path is too long for a float
    res = dist.cc_distance(O, hg.HeisPoint(1e-154, 0.0, 1.0), segments=2)
    assert res.degraded and res.value == pytest.approx(4.0)


def test_slsqp_finds_no_shorter_slot_path():
    # independent of the closed form: constrained local search over the
    # n slot controls, from seeded random starts, with the endpoint as an
    # equality constraint; the energy is minimized, which at fixed
    # duration also minimizes the length
    rng = np.random.default_rng(58)
    targets = [hg.HeisPoint(*rng.uniform(-1.0, 1.0, 3)) for _ in range(3)]
    targets.append(hg.HeisPoint(0.05, -0.02, 0.8))  # near-vertical
    for n in (8, 16):
        for target in targets:
            value = dist.cc_distance(O, target, segments=n).value
            feasible = 0
            for _ in range(3):
                sol = minimize(
                    lambda U: (float(U @ U) / n, 2.0 * U / n),
                    rng.normal(0.0, 2.0, 2 * n), method="SLSQP", jac=True,
                    constraints={"type": "eq",
                                 "fun": lambda U: slot_endpoint(U) - target},
                    options={"maxiter": 500, "ftol": 1e-14})
                end = geo.integrate_path(slot_path(sol.x))
                if max(abs(np.subtract(end, target))) > 1e-9:
                    continue
                feasible += 1
                length = geo.cc_length(slot_path(sol.x))
                assert length >= value * (1.0 - 1e-9)
            assert feasible, (n, target)


@settings(max_examples=200, deadline=None)
@given(n=st.sampled_from((3, 4, 16, 64)), log_w=st.floats(-30.0, 30.0),
       angle=st.floats(0.0, 6.28), sign=st.sampled_from((1.0, -1.0)))
def test_l2_polygon_between_arc_and_regular_polygon(n, log_w, angle, sign):
    # normalized target of w = |z| / rho^2 in [1e-30, 1e30]; the discrete
    # over the continuous length grows with w towards the vertical ratio
    w = 10.0 ** log_w
    rho = min(1.0, 1.0 / math.sqrt(w))
    target = np.array([rho * math.cos(angle), rho * math.sin(angle),
                       sign * min(w, 1.0)])
    length, U, err = dist._solve_normalized(target, n, 1e-13)
    assert math.isfinite(length) and err <= 1e-13
    end = geo.integrate_path(slot_path(U))
    assert np.allclose(end, target, rtol=0.0, atol=1e-12)
    exact = float(dist.l2_distance(math.hypot(target[0], target[1]),
                                   abs(target[2])))
    ratio = math.sqrt(n * math.tan(math.pi / n) / math.pi)
    assert exact * (1.0 - 1e-12) <= length <= exact * ratio * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# volume scaling

def test_volume_fit_euclidean():
    fit = dist.ball_volume_fit("euclidean", [1.0, 2.0, 4.0], 20_000, seed=5)
    assert fit.exponent == pytest.approx(3.0, abs=0.1)
    # against the exact ball volume (4/3) pi r^3
    for r, v in zip(fit.radii, fit.volumes):
        exact = 4.0 / 3.0 * math.pi * r ** 3
        assert v == pytest.approx(exact, rel=0.05)


def test_volume_fit_cc():
    fit = dist.ball_volume_fit("cc", [0.5, 1.0, 2.0], 20_000, seed=6)
    assert fit.exponent == pytest.approx(4.0, abs=0.3)
    # against the exact volume V1 r^4; the unit ball is the solid of
    # revolution under rho = sin(t)/t, |z| = (2t - sin 2t) / (8 t^2)
    def shell(t):
        rho = math.sin(t) / t
        drho = (t * math.cos(t) - math.sin(t)) / (t * t)
        z = (2.0 * t - math.sin(2.0 * t)) / (8.0 * t * t)
        return -4.0 * math.pi * rho * z * drho

    v1 = quad(shell, 0.0, math.pi)[0]
    assert v1 == pytest.approx(0.8258758, abs=1e-6)
    for r, v, se in zip(fit.radii, fit.volumes, fit.std_errors):
        assert abs(v - v1 * r ** 4) <= 4.0 * se


def test_volume_fit_std_error_scaling():
    f1 = dist.ball_volume_fit("euclidean", [1.0, 2.0, 4.0], 10_000, seed=7)
    f2 = dist.ball_volume_fit("euclidean", [1.0, 2.0, 4.0], 40_000, seed=7)
    for s1, s2 in zip(f1.std_errors, f2.std_errors):
        assert s1 / s2 == pytest.approx(2.0, rel=0.2)


def test_volume_fit_validation():
    with pytest.raises(DomainError):
        dist.ball_volume_fit("euclidean", [1.0, 2.0], 20_000, seed=1)
    with pytest.raises(DomainError):
        dist.ball_volume_fit("euclidean", [1.0, 1.0, 1.0], 20_000, seed=1)
    with pytest.raises(DomainError):
        dist.ball_volume_fit("euclidean", [1.0, 2.0, 4.0], 100, seed=1)
    with pytest.raises(DomainError):
        dist.ball_volume_fit("chebyshev", [1.0, 2.0, 4.0], 20_000, seed=1)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            dist.ball_volume_fit("cc", [1.0, 2.0, bad], 20_000, seed=1)
