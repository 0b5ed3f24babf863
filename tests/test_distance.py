import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq, minimize, minimize_scalar

from carnot_lab import distance as dist
from carnot_lab import geometry as geo
from carnot_lab import growth
from carnot_lab import heisenberg as hg
from carnot_lab.errors import DomainError

O = hg.ORIGIN


def elementary_bounds(delta, norm="l2"):
    """Oracle: (lower, upper) bounds on d(0, delta) from elementary paths.

    Lower: the planar projection of a horizontal path moves no faster
    than the path, and a path closing a vertical gap dz sweeps planar
    area dz against its chord, so the planar isoperimetric inequality
    gives length >= sqrt(4 pi |dz|) - planar_chord. Upper: a straight
    segment to the planar target plus an area-closing loop (circle for
    the l2 norm, square otherwise). For l1 and linf this is the length
    of ``chow_connect``'s path, so the exact distance never exceeds it.
    """
    dx, dy, dz = delta
    planar2 = math.hypot(dx, dy)
    iso = math.sqrt(4.0 * math.pi * abs(dz))
    lower_l2 = max(planar2, iso - planar2)
    if norm == "l2":
        return lower_l2, planar2 + 2.0 * math.sqrt(math.pi * abs(dz))
    if norm == "l1":
        # l1 speed dominates l2 speed, so the l2 lower bound transfers
        return (max(abs(dx) + abs(dy), lower_l2),
                abs(dx) + abs(dy) + 4.0 * math.sqrt(abs(dz)))
    assert norm == "linf"
    return (max(abs(dx), abs(dy), lower_l2 / math.sqrt(2.0)),
            max(abs(dx), abs(dy)) + 4.0 * math.sqrt(abs(dz)))


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
    assert res.lower == pytest.approx(target, rel=1e-12, abs=0)
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
                geo.cc_length(res.witness, norm), rel=1e-12, abs=0)


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
            delta = hg.exp_mul(hg.exp_inv(a), b)
            lo, hi = elementary_bounds(delta, norm)
            assert lo - 1e-9 <= res.value <= hi + 1e-9
            assert res.upper <= hi + 1e-15
            if norm == "l2":
                # the exact continuous distance, above the elementary bound
                exact = float(dist.l2_distance(math.hypot(delta.x, delta.y),
                                               abs(delta.z)))
                assert res.lower == exact and res.lower >= lo - 1e-12
            else:
                # the exact distance, the value itself to rounding
                assert lo - 1e-12 <= res.lower <= res.value
                assert res.lower == pytest.approx(res.value, rel=1e-15, abs=0)


def test_l2_value_within_its_bracket():
    # the bracket holds the reported value exactly, for every norm: from
    # below the independent bound (for l2 the exact continuous distance),
    # capped at the value only within rounding; from above the witness's
    # own length
    rng = np.random.default_rng(53)
    starts = [hg.HeisPoint(*rng.uniform(-1.5, 1.5, 3)) for _ in range(10)]
    pairs = [(a, hg.HeisPoint(*rng.uniform(-1.5, 1.5, 3))) for a in starts]
    # horizontal (dz = 0) and vertical differences from non-origin starts
    pairs += [(a, hg.exp_mul(a, hg.HeisPoint(*rng.uniform(-1.5, 1.5, 2),
                                             0.0))) for a in starts[:5]]
    pairs += [(a, hg.exp_mul(a, hg.HeisPoint(0.0, 0.0, z)))
              for a, z in zip(starts[5:], (0.25, 1.0, -3.0, 0.7, -1.3))]
    pairs += [(O, hg.HeisPoint(0.0, 0.0, z)) for z in (0.25, 1.0, -3.0)]
    pairs += [(O, hg.HeisPoint(*rng.uniform(-1e-3, 1e-3, 2), z))
              for z in (0.5, -2.0)]
    pairs.append((hg.HeisPoint(0.3, -0.2, 0.1),
                  hg.HeisPoint(0.31, -0.19, 1.4)))
    cases = [(norm, 64, a, b) for norm in ("l1", "linf") for a, b in pairs]
    cases += [("l2", n, a, b) for n in (2, 3, 4, 5, 16, 64, 1000)
              for a, b in pairs]
    # the slot projection misses its tolerance at this gauge, so the
    # result falls back to the segment+loop path, longer than the slot
    # polygon
    cases.append(("l2", 1000, O, hg.HeisPoint(-119354.33185670934,
                                              183352.27505853245,
                                              3.0360396502926784e-12)))
    for norm, n, a, b in cases:
        res = dist.cc_distance(a, b, norm=norm, segments=n)
        assert res.lower <= res.value <= res.upper, (norm, n, a, b)
        assert res.upper == res.value
        # and the value against the uncapped bound, at rounding slack
        delta = hg.exp_mul(hg.exp_inv(a), b)
        bound = float(dist.l2_distance(math.hypot(delta.x, delta.y),
                                       abs(delta.z))) if norm == "l2" \
            else elementary_bounds(delta, norm)[0]
        assert bound * (1.0 - 1e-12) <= res.value, (norm, n, a, b)


def test_bracket_holds_at_every_gauge():
    # generic, horizontal and vertical targets at gauges 1e-165 .. 1e153
    # and at the largest height, and for l1 and linf down to the least
    # subnormal, where z is drawn at the gauge itself: the lower bound
    # never passes the value, and for l1 and linf, where both are the
    # exact distance, it meets the value to rounding. Either side
    # evaluated at the raw difference would fail here: the closed form's
    # h l and zeta, or the witness's durations, go subnormal and lose
    # their digits; so would l2's axis value 2 sqrt(pi |z|) if pi |z|
    # were left to under- or overflow
    rng = np.random.default_rng(61)
    cases = [(norm, (0.0, 0.0, z)) for z in (1.7e308, -1e308)
             for norm in geo.HORIZONTAL_NORMS]
    for t in np.logspace(-165, 153, 160):
        x, y, z = rng.uniform(-1.5, 1.5, 3)
        for p in ((t * x, t * y, t * t * z), (t * x, t * y, 0.0),
                  (0.0, 0.0, t * t * z)):
            cases += [(norm, p) for norm in geo.HORIZONTAL_NORMS]
    for t in np.append(np.logspace(-290, -323, 100), (1e-323, 5e-324)):
        x, y, z = rng.uniform(-1.5, 1.5, 3)
        for p in ((t * x, t * y, 0.0), (t * x, 0.0, 0.0), (0.0, 0.0, t * z),
                  (-t, 0.0, 0.0)):
            cases += [(norm, p) for norm in ("l1", "linf")]
    for norm, p in cases:
        res = dist.cc_distance(O, hg.HeisPoint(*p), norm=norm)
        assert res.lower <= res.value, (norm, p)
        if norm != "l2":
            assert res.value - res.lower <= 1e-15 * res.value, (norm, p)


@pytest.mark.parametrize("norm", geo.HORIZONTAL_NORMS)
def test_bracket_shows_a_value_below_the_distance(monkeypatch, norm):
    # the cap absorbs rounding only: a solver that reports a path 1e-9
    # shorter than it is, or a witness 1e-9 too short, leaves the lower
    # bound above the value, here
    solve, geodesic = dist._solve_normalized, dist._l1_geodesic

    def short_solve(*args):
        length, U, err = solve(*args)
        return length * (1.0 - 1e-9), U, err

    def short_geodesic(*args):
        controls = geodesic(*args)
        controls[:, 2] *= 1.0 - 1e-9
        return controls

    monkeypatch.setattr(dist, "_solve_normalized", short_solve)
    monkeypatch.setattr(dist, "_l1_geodesic", short_geodesic)
    # on straight solves, where the lower bound is the distance itself
    for b in (hg.HeisPoint(0.7, -0.4, 0.0), hg.HeisPoint(-2.0, 0.1, 0.0)):
        res = dist.cc_distance(O, b, norm=norm)
        assert res.lower > res.value, (norm, b, res)


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
            4.0 * math.sqrt(abs(z)), rel=1e-12, abs=0)
        assert dist.cc_distance(O, p, norm="linf").value == pytest.approx(
            2.0 * math.sqrt(2.0 * abs(z)), rel=1e-12, abs=0)


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
                                                            rel=1e-12, abs=0)
    assert len(res.witness.controls) <= 4 and not res.degraded
    lo, hi = elementary_bounds(hg.exp_mul(hg.exp_inv(a), b), norm)
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
    lo, hi = elementary_bounds((1.0, 0.0, 0.0))
    assert lo == 1.0 and hi == 1.0
    lo, hi = elementary_bounds((0.0, 0.0, 1.0))
    assert lo == pytest.approx(2.0 * math.sqrt(math.pi))
    assert hi == pytest.approx(2.0 * math.sqrt(math.pi))
    lo1, hi1 = elementary_bounds((1.0, -2.0, 0.5), norm="l1")
    assert lo1 >= 3.0 and hi1 >= lo1


def test_cc_distance_refuses_unknown_norm():
    # refused up front, also for coincident points, which return early
    for b in (hg.HeisPoint(0.3, -0.4, 0.6), O):
        with pytest.raises(DomainError, match="unknown horizontal norm"):
            dist.cc_distance(O, b, norm="l7")


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


def test_chow_length_is_cc_length_of_chow_connect():
    # cc_distance weighs the segment+loop connection by its length in
    # closed form; it is cc_length of the built path bit for bit, for
    # generic, planar and vertical differences at gauges 1e-150 .. 1e150
    rng = np.random.default_rng(71)
    for k in range(3000):
        g = 10.0 ** rng.uniform(-150.0, 150.0)
        a = hg.HeisPoint(*(rng.uniform(-2.0, 2.0, 3) * (g, g, g * g)))
        dx, dy, dz = rng.uniform(-2.0, 2.0, 3) * (g, g, g * g)
        if k % 3 == 0:
            a, b = O, hg.HeisPoint(dx, dy, 0.0)  # planar
        elif k % 3 == 1:
            b = hg.HeisPoint(a.x, a.y, a.z + dz)  # vertical
        else:
            b = hg.exp_mul(a, hg.HeisPoint(dx, dy, dz))
        delta = hg.exp_mul(hg.exp_inv(a), b)
        assert k % 3 != 0 or delta.z == 0.0
        assert k % 3 != 1 or delta.x == delta.y == 0.0
        assert dist._chow_length(delta) == geo.cc_length(
            geo.chow_connect(a, b))


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
        assert tiny.value == pytest.approx(t * unit.value, rel=1e-12, abs=0)
        flat = dist.cc_distance(O, hg.HeisPoint(0.0, 1.9e-295, 0.0),
                                norm=norm)
        assert flat.value == pytest.approx(1.9e-295, rel=1e-12, abs=0)


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
        2.0 * math.sqrt(math.pi), rel=1e-15, abs=0)
    # on the axis also where pi |z| is subnormal or overflows
    for z in (5e-324, 1e-323, 2.5e-323, 3e-310, 7.5e307, 1.7e308):
        assert dist.l2_distance(0.0, z) == pytest.approx(
            2.0 * math.sqrt(math.pi) * math.sqrt(z), rel=1e-15, abs=0)
    assert dist.l2_distance(1.7, 0.0) == 1.7
    assert dist.l2_distance(0.0, 0.0) == 0.0


_rho = st.floats(0.0, 10.0, allow_subnormal=False)
_abs_z = st.floats(0.0, 100.0, allow_subnormal=False)


@settings(max_examples=200, deadline=None)
@given(rho=_rho, abs_z=_abs_z, t=st.floats(1e-2, 1e2))
def test_l2_distance_dilation_homogeneity(rho, abs_z, t):
    d = float(dist.l2_distance(rho, abs_z))
    assert dist.l2_distance(t * rho, t * t * abs_z) == pytest.approx(
        t * d, rel=1e-12, abs=0)


@settings(max_examples=200, deadline=None)
@given(rho=_rho, abs_z=_abs_z)
def test_l2_distance_within_elementary_bounds(rho, abs_z):
    lower, upper = elementary_bounds((rho, 0.0, abs_z), "l2")
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


def test_l2_distance_scalars_equal_the_array_path():
    # two scalars are answered as a Python float, arrays element by
    # element; over a seeded sweep of every branch (the plane, the arc,
    # the closing loop, the axis and both ends of the float range) and
    # the grid of extremes, each array value is the scalar's bit for bit
    rng = np.random.default_rng(61)
    n = 24_000
    rho = rng.uniform(0.0, 3.0, n)
    abs_z = rho * rho * 10.0 ** rng.uniform(-20.0, 20.0, n)
    wide = rng.uniform(0.0, 1.0, (2, n // 4)) * 10.0 ** rng.uniform(
        -320.0, 308.0, (2, n // 4))
    rho[:n // 4], abs_z[:n // 4] = wide
    rho[n // 4:n // 4 + 500] = 0.0  # the axis
    abs_z[n // 4 + 500:n // 4 + 1000] = 0.0  # the plane
    grid = (0.0, 5e-324, 1e-300, 1e-160, 1.0, 1e150, 1e300)
    rho = np.concatenate((rho, np.repeat(grid, len(grid))))
    abs_z = np.concatenate((abs_z, np.tile(grid, len(grid))))
    expected = dist.l2_distance(rho, abs_z)
    got = [dist.l2_distance(r, z) for r, z in zip(rho.tolist(),
                                                  abs_z.tolist())]
    assert all(type(d) is float for d in got)
    assert expected.dtype == float and expected.shape == rho.shape
    assert np.array_equal(np.array(got), expected)
    # a 0-d array gives a 0-d float array; a column and a row broadcast
    # to their grid, a NaN or negative entry to a NaN in its place
    d = dist.l2_distance(np.asarray(rho[7]), np.asarray(abs_z[7]))
    assert d.shape == () and d.dtype == float and d == got[7]
    col = np.array([[0.0], [1.0], [-1.0], [math.nan]])
    row = np.array([0.0, 2.0, 1e-300, -0.5, math.nan])
    d = dist.l2_distance(col, row)
    assert d.shape == (4, 5) and d.dtype == float
    for i, c in enumerate(col[:, 0].tolist()):
        for j, z in enumerate(row.tolist()):
            want = dist.l2_distance(c, z)
            assert d[i, j] == want or math.isnan(d[i, j]) and math.isnan(want)
    assert np.isnan(d[2:]).all() and np.isnan(d[:, 3:]).all()
    assert not np.isnan(d[:2, :3]).any()
    ints = dist.l2_distance(np.arange(3), 1)
    assert ints.dtype == float and ints.shape == (3,)


def test_nan_coordinates_give_nan():
    # one rule for both closed forms: a NaN coordinate makes the distance
    # NaN, on the scalar and on the array path of l2_distance, as does a
    # negative radius or gap; scalars come back as Python floats
    nan = math.nan
    for rho, abs_z in ((1.0, nan), (0.0, nan), (nan, 0.0), (nan, 1.0),
                       (nan, nan), (1.0, -1.0), (-1.0, 1.0), (-1.0, 0.0),
                       (0.0, -1.0), (-1, -1), (-math.inf, 1.0), (nan, -1.0)):
        d = dist.l2_distance(rho, abs_z)
        assert type(d) is float and math.isnan(d)
        d = dist.l2_distance(np.array([rho, 1.0]), np.array([abs_z, 1.0]))
        assert math.isnan(d[0]) and d[1] == dist.l2_distance(1.0, 1.0)
    for point in ((nan, 0.0, 0.0), (0.0, nan, 0.0), (0.0, 0.0, nan),
                  (1.0, nan, 0.0), (nan, 1.0, 0.0), (1.0, 1.0, nan),
                  (nan, nan, nan)):
        assert math.isnan(dist.l1_distance(*point))


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
            assert length == pytest.approx(zenodorus, rel=1e-12, abs=0)
            assert err <= 1e-13
        for z in (0.25, -3.0):
            value = dist.cc_distance(O, hg.HeisPoint(0.0, 0.0, z),
                                     segments=n).value
            # below five slots the explicit square loop, 4 sqrt|z|, wins
            assert value == pytest.approx(
                min(zenodorus, 4.0) * math.sqrt(abs(z)), rel=1e-12, abs=0)


def test_slot_polygon_edge_cases():
    def solve(target, n):
        return dist._solve_normalized(np.array(target), n, 1e-13)

    # one slot encloses no area and two slots cannot close a loop
    assert solve([0.6, 0.8, 0.1], 1) is None
    assert solve([0.0, 0.0, 1.0], 2) is None
    # targets in the plane or nearly so take the straight path, targets
    # nearly on the axis the regular polygon
    assert solve([0.6, 0.8, 0.0], 1)[0] == pytest.approx(1.0, rel=1e-15, abs=0)
    for z in (5e-324, -1e-300):
        assert solve([0.6, 0.8, z], 64)[0] == \
            pytest.approx(1.0, rel=1e-13, abs=0)
    assert solve([1e-160, 0.0, 1.0], 64)[0] == pytest.approx(
        2.0 * math.sqrt(64 * math.tan(math.pi / 64)), rel=1e-13, abs=0)
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


def _turning_reference(w, n):
    """The slot polygon's turning equation solved by brentq, as (Phi,
    2 pi - Phi): in Phi where the root is at most pi, else in 2 pi - Phi,
    so that the unknown is relatively as accurate as brentq makes it.
    The left side is 4 s_1 sum_k s_k s_{k+1} / (8 s_n^2), s_j =
    sin(j Phi / 2n), s_n = sin(Phi / 2) from the smaller of Phi and
    2 pi - Phi."""
    def log_lhs(phi, comp):
        s = np.sin(np.arange(n + 1) * phi / (2 * n))
        s[n] = math.sin(0.5 * min(phi, comp))
        return math.log(0.5 * s[1] * float(s[:-1] @ s[1:]) / s[n] ** 2)

    if log_lhs(math.pi, math.pi) >= math.log(w):
        # the left side is at most Phi / 8 up to pi, so below w at w
        phi = brentq(lambda p: log_lhs(p, 2.0 * math.pi - p) - math.log(w),
                     w, math.pi, xtol=1e-300)
        return phi, 2.0 * math.pi - phi
    # beyond pi the left side is at least 1 / (pi (2 pi - Phi))
    comp = brentq(lambda c: log_lhs(2.0 * math.pi - c, c) - math.log(w),
                  0.5 / (math.pi * w), math.pi, xtol=1e-300)
    return 2.0 * math.pi - comp, comp


@pytest.mark.parametrize("n", [2, 3, 4, 8, 64, 1000])
def test_l2_polygon_turning_matches_brentq(n):
    # Newton's turning against brentq on the same equation, for w = |z| /
    # rho^2 in [1e-30, 1e30]: the polygons' lengths agree within 1e-14
    rng = np.random.default_rng([n, 67])
    for log_w in np.concatenate(([-30.0, 0.0, 30.0],
                                 rng.uniform(-30.0, 30.0, 60))):
        w = 10.0 ** log_w
        rho = min(1.0, 1.0 / math.sqrt(w))
        angle = rng.uniform(0.0, 2.0 * math.pi)
        z = rng.choice([-1.0, 1.0]) * min(w, 1.0)
        U = dist._l2_polygon(
            np.array([rho * math.cos(angle), rho * math.sin(angle), z]), n)
        if U is None:  # two slots too near the axis for a float length
            assert n == 2 and w > 1e15
            continue
        w_hat = abs(z) / rho / rho
        phi, comp = _turning_reference(w_hat, n)
        s = np.sin(np.arange(n + 1) * phi / (2 * n))
        s[n] = math.sin(0.5 * min(phi, comp))
        length = n * math.sqrt(2.0 * abs(z) * s[1] / float(s[:-1] @ s[1:]))
        assert math.hypot(U[0], U[n]) == \
            pytest.approx(length, rel=1e-14, abs=0)


def _turning_sum(turn, small, n):
    """g(Phi) / (small Phi^2) from the n-term sum g = 4 s_1 sum_k s_k
    s_{k+1}, s_j = sin(j Phi / 2n), as ``_turning_reference`` sums it:
    s_n from small = min(Phi, 2 pi - Phi), the sines scaled to peak 1 so
    that no product of them underflows."""
    s = np.sin(np.arange(n + 1) * (turn / (2 * n)))
    s[n] = math.sin(0.5 * small)
    peak = float(s.max())
    s = s / peak
    return (4.0 * (peak / turn) ** 2 * (peak / small)
            * float(s[1]) * float(s[:-1] @ s[1:]))


@pytest.mark.parametrize("n", [2, 3, 4, 8, 64, 1000])
def test_turning_quotient_matches_the_slot_sum(n):
    # the scalar turning evaluation, series below the switch and the
    # difference above it, against the n-term sum of positive terms:
    # both sides of the switch, Phi down to 1e-300 and within 1e-12 of
    # 2 pi, where sin Phi and, for n = 2, sin(Phi/2) come from small
    switch = dist._SERIES_TURN
    rng = np.random.default_rng([n, 29])
    turns = np.concatenate((
        [1e-300, 1e-100, 1e-8, switch * (1.0 - 2.0 ** -52), switch,
         switch * (1.0 + 2.0 ** -52), math.pi],
        10.0 ** rng.uniform(-300.0, 0.0, 40),
        switch + rng.uniform(-1.0, 1.0, 40),
        math.pi + rng.uniform(0.0, math.pi, 40)))
    smalls = np.concatenate(([1e-12, 1e-13, 1e-300],
                             10.0 ** rng.uniform(-12.0, 0.0, 40)))
    cases = [(float(t), min(float(t), 2.0 * math.pi - float(t)))
             for t in turns]
    cases += [(2.0 * math.pi - float(c), float(c)) for c in smalls]
    for turn, small in cases:
        quotient = dist._turning_quotient(turn, small,
                                          math.sin(0.5 * small), n)
        assert quotient == pytest.approx(_turning_sum(turn, small, n),
                                         rel=4e-15, abs=0.0), (turn, small)


def _seeded_polygons(rng, ns, count):
    """Slot polygons of ``_l2_polygon`` for seeded normalized targets of
    w = |z| / rho^2 in [1e-30, 1e30], as (target, n, U)."""
    for n in ns:
        for _ in range(count):
            w = 10.0 ** rng.uniform(-30.0, 30.0)
            rho = min(1.0, 1.0 / math.sqrt(w))
            angle = rng.uniform(0.0, 2.0 * math.pi)
            target = np.array([rho * math.cos(angle), rho * math.sin(angle),
                               rng.choice([-1.0, 1.0]) * min(w, 1.0)])
            U = dist._l2_polygon(target, n)
            if U is not None:
                yield target, n, U


def test_slot_endpoint_matches_integrate_path():
    # the one-prefix-sum endpoint against the path integrator, relative to
    # the path's length (its square for z, an area)
    rng = np.random.default_rng(2929)
    for _, n, U in _seeded_polygons(rng, (2, 3, 4, 8, 64), 40):
        end = dist._slot_endpoint(U, 1.0 / n)
        assert all(type(c) is float for c in end)
        length = geo.cc_length(slot_path(U))
        ref = geo.integrate_path(slot_path(U))
        for got, want, unit in zip(end, ref, (length, length, length ** 2)):
            assert abs(got - want) <= 1e-15 * unit, (n, got, want)


def test_projection_iterates_only_where_the_check_fails(monkeypatch):
    # the exact polygon passes the prefix-sum check without a Jacobian; a
    # control moved by 1e-10 fails it, and Gauss-Newton takes it back
    # within restore_tol
    builds = []
    jacobian = dist._endpoint_jacobian
    monkeypatch.setattr(dist, "_endpoint_jacobian",
                        lambda *a: builds.append(1) or jacobian(*a))
    rng = np.random.default_rng(2930)
    tol = 1e-13
    for target, n, U in _seeded_polygons(rng, (3, 8, 64), 10):
        _, err = dist._project_endpoint(U, target, 1.0 / n, tol)
        assert err <= tol and not builds
        moved = U.copy()
        moved[int(rng.integers(2 * n))] += 1e-10
        assert max(abs(e - c) for e, c in zip(
            dist._slot_endpoint(moved, 1.0 / n), target)) > tol
        projected, err = dist._project_endpoint(moved, target, 1.0 / n, tol)
        assert builds and err <= tol
        end = geo.integrate_path(slot_path(projected))
        assert np.allclose(end, target, rtol=0.0, atol=2.0 * tol)
        builds.clear()


# ---------------------------------------------------------------------------
# volume scaling

def test_volume_fit_euclidean():
    fit = dist.ball_volume_fit("euclidean", [1.0, 2.0, 4.0], 20_000, seed=5)
    assert fit.exponent == pytest.approx(3.0, abs=0.1)
    # against the exact ball volume (4/3) pi r^3
    for r, v in zip(fit.radii, fit.volumes):
        exact = 4.0 / 3.0 * math.pi * r ** 3
        assert v == pytest.approx(exact, rel=0.05)


def _unit_l2_ball_volume():
    # V1 = int_0^pi 4 pi rho z |d rho / dt| dt: the unit ball is the solid
    # of revolution under rho = sin(t)/t, |z| = (2t - sin 2t) / (8 t^2)
    def shell(t):
        rho = math.sin(t) / t
        drho = (t * math.cos(t) - math.sin(t)) / (t * t)
        z = (2.0 * t - math.sin(2.0 * t)) / (8.0 * t * t)
        return -4.0 * math.pi * rho * z * drho

    return quad(shell, 0.0, math.pi)[0]


def test_volume_fit_cc():
    fit = dist.ball_volume_fit("cc", [0.5, 1.0, 2.0], 20_000, seed=6)
    assert fit.exponent == pytest.approx(4.0, abs=0.3)
    # against the exact volume V1 r^4
    v1 = _unit_l2_ball_volume()
    assert v1 == pytest.approx(0.8258758, abs=1e-6)
    for r, v, se in zip(fit.radii, fit.volumes, fit.std_errors):
        assert abs(v - v1 * r ** 4) <= 4.0 * se


@pytest.mark.parametrize("metric", ["cc", "euclidean"])
def test_volume_fit_agrees_with_the_exact_volume(metric):
    # an oracle independent of the sampler: over 20 seeds every volume
    # lies within 5 standard errors of V1 r^4 (the l2 ball, by quadrature)
    # or 4 pi r^3 / 3
    if metric == "cc":
        v1, power = _unit_l2_ball_volume(), 4
    else:
        v1, power = 4.0 * math.pi / 3.0, 3
    radii = (0.5, 1.0, 1.5, 2.0)
    for seed in range(20):
        fit = dist.ball_volume_fit(metric, radii, 10 ** 5, seed=seed)
        for r, v, se in zip(radii, fit.volumes, fit.std_errors):
            assert abs(v - v1 * r ** power) < 5.0 * se


@pytest.mark.parametrize("metric", ["cc", "euclidean"])
def test_volume_fit_radii_keep_their_runs(metric):
    # a radius's hits depend only on the seed and its place in the list:
    # each radius draws from its own spawned generator, so changing the
    # first radius leaves the others' counts as they were
    n = 20_000
    one = dist.ball_volume_fit(metric, (0.5, 1.0, 2.0), n, seed=9)
    other = dist.ball_volume_fit(metric, (0.7, 1.0, 2.0), n, seed=9)
    assert one.hits[1:] == other.hits[1:]


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
    # refused before any sample is drawn, so these sizes allocate nothing
    for bad in (dist.MAX_SAMPLES + 1, 10 ** 30, 2e4, True):
        with pytest.raises(DomainError):
            dist.ball_volume_fit("cc", [1.0, 2.0, 4.0], bad, seed=1)


def test_volume_fit_refuses_seeds_that_are_not_non_negative_ints():
    # None would draw from OS entropy; numpy raised ValueError for -1 and
    # TypeError for 1.5
    for bad in (-1, -2 ** 70, 1.5, 2.0, None, True, False, "7"):
        with pytest.raises(DomainError, match="seed"):
            dist.ball_volume_fit("cc", [1.0, 2.0, 4.0], 10_000, seed=bad)
    one = dist.ball_volume_fit("cc", [1.0, 2.0, 4.0], 10_000, seed=0)
    other = dist.ball_volume_fit("cc", [1.0, 2.0, 4.0], 10_000,
                                 seed=np.int64(0))
    assert one.hits == other.hits


def test_volume_fit_radius_domain(monkeypatch):
    # accepted: radii whose box volume is a finite, normal float, however
    # small or large; the fit is finite, with no float warning (an error
    # under this suite's settings)
    for metric, radii, power in (("cc", (1e-77, 2e-77, 3e-77), 4.0),
                                 ("cc", (1e70, 2e70, 3e70), 4.0),
                                 ("euclidean", (3e-78, 4e-78, 5e-78), 3.0),
                                 ("euclidean", (1e100, 2e100, 2.8e102), 3.0)):
        fit = dist.ball_volume_fit(metric, radii, 10_000, seed=2)
        assert fit.exponent == pytest.approx(power, abs=0.3)
        assert all(0.0 < v < math.inf for v in fit.volumes)

    # refused before anything is drawn: box volumes that underflow to a
    # subnormal or zero, or overflow (8 * r ** 4 raises for 1e150)
    def no_draws(*args, **kwargs):
        raise AssertionError("samples drawn for a refused radius")

    monkeypatch.setattr(dist.np.random, "default_rng", no_draws)
    for metric, bad in (("cc", 1e-200), ("cc", 3e-78), ("cc", 1e100),
                        ("cc", 1e150), ("cc", 1e200),
                        ("euclidean", 1e-200), ("euclidean", 1e-103),
                        ("euclidean", 1e150), ("euclidean", 1e200)):
        with pytest.raises(DomainError, match="box volume"):
            dist.ball_volume_fit(metric, [bad, 2.0 * bad, 3.0 * bad],
                                 dist.MAX_SAMPLES, seed=1)


def _boundary_points(rng, m, r, rel):
    # the sphere of radius r(1 + rel): the unit sphere's meridian
    # (sin t / t, (2t - sin 2t) / (8 t^2)), t in (0, pi), dilated
    t = rng.uniform(0.0, math.pi, m)
    s = r * (1.0 + rel)
    rho = s * np.sin(t) / t
    z = s * s * (2.0 * t - np.sin(2.0 * t)) / (8.0 * t * t)
    angle = rng.uniform(0.0, 2.0 * math.pi, m)
    return (rho * np.cos(angle), rho * np.sin(angle),
            z * rng.choice([-1.0, 1.0], m))


def _partition_region(x, y, z, r, metric="cc"):
    # the region of ball_volume_fit's partition that holds each point: 0
    # certainly inside, 1 open, 2 outside. Its cell is read in floats, as
    # the tables' 1e-12 margin allows; on the rim of the disk their extra
    # cells leave a point open or outside, and the last annulus's inside
    # slab, |z| <= 0, is left open
    lo, hi = (dist._meridian_table() if metric == "cc"
              else dist._sphere_table())
    K = dist._MERIDIAN_CELLS
    zr = r * r if metric == "cc" else r
    cell = np.minimum(np.hypot(x, y) * (K / r), K + 1.0).astype(np.intp)
    az = np.abs(z)
    return np.where(az <= zr * lo[cell], 0,
                    np.where(az <= zr * hi[cell], 1, 2))


def _decided_as(region, exact):
    # every point of the partition's certain regions is decided as the
    # exact distance decides it
    return exact[region == 0].all() and not exact[region == 2].any()


@pytest.mark.parametrize("n, r", [(66770, 1.0), (32768, 0.37), (777, 3.0),
                                  (5000, 1e-70), (5000, 1e70)])
def test_cc_membership_equals_exact_distance(n, r):
    # uniform points of the box, the plane, the axis and the spheres just
    # inside and outside radius r: every point of the partition's inside
    # slabs is inside the ball, every point of its outside region outside
    rng = np.random.default_rng([n, 13])
    x = rng.uniform(-r, r, n)
    y = rng.uniform(-r, r, n)
    z = rng.uniform(-r * r, r * r, n)
    z[:40] = 0.0  # on the plane
    x[40:80] = y[40:80] = 0.0  # on the vertical axis
    m = min(2000, (n - 80) // 2)
    for rel, rows in ((-1e-9, slice(80, 80 + m)),
                      (1e-9, slice(80 + m, 80 + 2 * m))):
        x[rows], y[rows], z[rows] = _boundary_points(rng, m, r, rel)
    exact = dist.l2_distance(np.hypot(x, y), np.abs(z)) <= r
    # the planted points sit on their side of the sphere
    assert exact[80:80 + m].all() and not exact[80 + m:80 + 2 * m].any()
    region = _partition_region(x, y, z, r)
    assert _decided_as(region, exact)
    # the uniform points the partition leaves open are few
    assert np.count_nonzero(region[80 + 2 * m:] == 1) <= max(3, 1e-3 * n)


def _unit_meridian_height(t):
    # |z| on the unit sphere's meridian at half-angle t
    return (2.0 * t - np.sin(2.0 * t)) / (8.0 * t * t)


def test_l2_ball_height_closed_form():
    # the unit sphere's meridian never climbs above 1 / (2 pi), and
    # reaches it at t = pi/2, the top rim (rho, |z|) = (2 / pi, 1 / (2 pi))
    t = np.linspace(0.0, math.pi, 200_001)[1:]
    height = _unit_meridian_height(t)
    top = 1.0 / (2.0 * math.pi)
    assert height.max() <= top * (1.0 + 1e-15)
    assert _unit_meridian_height(0.5 * math.pi) == \
        pytest.approx(top, rel=1e-15, abs=0)
    peak = minimize_scalar(lambda u: -_unit_meridian_height(u),
                           bounds=(1e-3, math.pi), method="bounded",
                           options={"xatol": 1e-10})
    assert peak.x == pytest.approx(0.5 * math.pi, abs=1e-6)
    # the exact distance puts the rim on the unit sphere
    assert dist.l2_distance(2.0 / math.pi, top) == \
        pytest.approx(1.0, rel=1e-14, abs=0)


@pytest.mark.parametrize("r", [1.0, 1e-70, 1e70])
def test_cc_membership_height_screen_on_the_top_rim(r):
    # points planted on the top rim of spheres just outside and just
    # inside radius r, the second pair within the tables' 1e-12 margin,
    # then a run within a few dozen roundings of r, among uniform points
    # of the box. The partition's highest slab, of the peak cell, ends at
    # the ball's height r^2 / (2 pi) plus the table's pad: nothing above
    # it is drawn, and nothing above it is inside
    rng = np.random.default_rng([17, int(math.log10(r)) + 100])
    n, m, ties = 8000, 250, 3000
    x = rng.uniform(-r, r, n)
    y = rng.uniform(-r, r, n)
    z = rng.uniform(-r * r, r * r, n)
    rels = (1e-9, -1e-9, 1e-13, -1e-13)
    s = r * (1.0 + np.concatenate((
        np.repeat(rels, m),
        rng.integers(-64, 65, ties) * np.finfo(float).eps)))
    planted = len(s)
    angle = rng.uniform(0.0, 2.0 * math.pi, planted)
    x[:planted] = 2.0 * s / math.pi * np.cos(angle)
    y[:planted] = 2.0 * s / math.pi * np.sin(angle)
    z[:planted] = s * s / (2.0 * math.pi) * rng.choice([-1.0, 1.0], planted)
    exact = dist.l2_distance(np.hypot(x, y), np.abs(z)) <= r
    for k, rel in enumerate(rels):
        assert (exact[k * m:(k + 1) * m] == (rel < 0)).all()
    _, hi, _ = dist._partition("cc")
    peak = int(2.0 * dist._MERIDIAN_CELLS / math.pi)
    assert hi.max() == hi[peak] == pytest.approx(0.5 / math.pi, rel=1e-9)
    # beyond the margin the rim lies above the top, and nothing above it
    # is inside; every other planted point lies below it
    below = np.abs(z) <= r * r * hi[peak]
    assert not below[:m].any() and below[m:planted].all()
    assert not exact[~below].any()
    region = _partition_region(x, y, z, r)
    # the partition puts the outer rim outside, before the exact tier
    assert (region[:m] == 2).all()
    assert _decided_as(region, exact)


def _unit_meridian_angle(u):
    # t in [0, pi] with sin t / t = u, by bisection: sin t / t decreases
    lo, hi = np.zeros_like(u), np.full_like(u, math.pi)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        above = np.sin(mid) / mid > u
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    return 0.5 * (lo + hi)


def test_meridian_table_is_certified():
    # the unit meridian, walked densely and through every knot and just
    # beside it, lies within the bounds of each cell the 1e-12 margin can
    # read it from, scaled by the margin's dilation (1 -+ 1e-12)^2
    lo, hi = dist._meridian_table()
    K = dist._MERIDIAN_CELLS
    assert lo.shape == hi.shape == (K + 2,)
    assert np.isfinite(lo).all() and np.isfinite(hi).all()
    assert (lo <= hi).all()
    # past the ball, nothing is inside and everything outside
    assert (lo[K - 1:] < 0.0).all() and hi[K + 1] < 0.0
    t = np.concatenate((np.linspace(0.0, math.pi, 200_001)[1:],
                        _unit_meridian_angle(np.outer(
                            np.arange(1, K) / K,
                            (1.0 - 9e-13, 1.0, 1.0 + 9e-13)).ravel())))
    u = np.sin(t) / t
    h = _unit_meridian_height(t)
    for rel in (-1e-12, 0.0, 1e-12):
        cell = np.floor(u * (1.0 + rel) * K).astype(int)
        assert (lo[cell] <= h * (1.0 - 1e-12) ** 2).all()
        assert (hi[cell] >= h * (1.0 + 1e-12) ** 2).all()


@pytest.mark.parametrize("r", [1.0, 1e-70, 1e70])
def test_cc_membership_decides_ties_as_the_exact_distance(r):
    # samples planted where the meridian table is closest to deciding
    # wrongly: the plane and the axis within 64 roundings of the sphere,
    # every knot of the table at the sphere's height and at its cell's
    # bounds, and the top rim across the peak cell; each is decided as
    # the exact distance decides it
    rng = np.random.default_rng([19, int(math.log10(r)) + 100])
    K = dist._MERIDIAN_CELLS
    lo, hi = dist._meridian_table()
    ties = np.arange(-64, 65) * np.finfo(float).eps
    knots = np.arange(K + 1) / K
    peak = int(2.0 * K / math.pi)
    across = np.linspace(peak, peak + 1, 257) / K
    rim = _unit_meridian_height(_unit_meridian_angle(across))
    height = _unit_meridian_height(_unit_meridian_angle(knots))
    u = np.concatenate((
        1.0 + ties,  # the plane
        np.zeros_like(ties),  # the axis
        np.repeat(knots, 5),
        np.repeat(across, 2)))
    h = np.concatenate((
        np.zeros_like(ties),
        (1.0 + ties) / (4.0 * math.pi),
        np.column_stack((
            height, height * (1.0 + rng.choice(ties, K + 1)),
            lo[:K + 1], hi[:K + 1], np.append(lo[0], lo[:K]))).ravel(),
        np.column_stack((rim * (1.0 + rng.choice(ties, 257)),
                         np.full(257, 0.5 / math.pi))).ravel()))
    h = np.abs(h)  # lo = -1 past the ball plants |z| = r^2 there
    angle = rng.uniform(0.0, 2.0 * math.pi, len(u))
    angle[:len(ties)] = 0.0  # the plane's ties stay exact in x
    x, y = r * u * np.cos(angle), r * u * np.sin(angle)
    z = r * r * h * rng.choice([-1.0, 1.0], len(u))
    exact = dist.l2_distance(np.hypot(x, y), np.abs(z)) <= r
    # the plane and the axis straddle the sphere
    for part in (slice(0, len(ties)), slice(len(ties), 2 * len(ties))):
        assert exact[part].any() and not exact[part].all()
    assert _decided_as(_partition_region(x, y, z, r), exact)
    # and every cell's corners, where the partition's slabs come nearest
    # the sphere
    rho, abs_z, inside = _cell_corners("cc", r)
    assert np.array_equal(dist.l2_distance(rho, abs_z) <= r, inside)


def _cell_corners(metric, r):
    # both ends of every annulus at the top of its certainly-inside slab,
    # which must be inside the ball, and one rounding above its open
    # slab, which must be outside: (rho, |z|, inside)
    lo, hi, _ = dist._partition(metric)
    K = dist._MERIDIAN_CELLS
    zr = r * r if metric == "cc" else r
    k = np.arange(K)
    rho = r / K * np.concatenate((k + 1, k, k, k + 1))
    above = hi * (1.0 + np.finfo(float).eps)
    abs_z = zr * np.concatenate((lo, lo, above, above))
    return rho, abs_z, np.repeat([True, False], 2 * K)


@pytest.mark.parametrize("r", [1.0, 1e-70, 1e70])
def test_sphere_partition_corners_decide_as_the_squared_norm(r):
    rho, abs_z, inside = _cell_corners("euclidean", r)
    assert np.array_equal(rho * rho + abs_z * abs_z <= r * r, inside)


def test_sphere_table_is_certified():
    # the Euclidean ball's profile, the unit circle walked densely and
    # through every knot and just beside it, lies within the bounds of
    # each cell the 1e-12 margin can read it from, scaled by the margin's
    # dilation 1 -+ 1e-12
    lo, hi = dist._sphere_table()
    K = dist._MERIDIAN_CELLS
    assert lo.shape == hi.shape == (K + 2,)
    assert np.isfinite(lo).all() and np.isfinite(hi).all()
    assert (lo <= hi).all()
    assert (lo[K - 1:] < 0.0).all() and hi[K + 1] < 0.0
    phi = np.concatenate((np.linspace(0.0, 0.5 * math.pi, 200_001),
                          np.arccos(np.outer(
                              np.arange(1, K) / K,
                              (1.0 - 9e-13, 1.0, 1.0 + 9e-13)).ravel())))
    u, h = np.cos(phi), np.sin(phi)
    for rel in (-1e-12, 0.0, 1e-12):
        cell = np.floor(u * (1.0 + rel) * K).astype(int)
        assert (lo[cell] <= h * (1.0 - 1e-12)).all()
        assert (hi[cell] >= h * (1.0 + 1e-12)).all()


@pytest.mark.parametrize("metric", ["cc", "euclidean"])
def test_partition_brackets_the_exact_volume(metric):
    # an oracle independent of the tables: the unit box has volume 8, so
    # 8 times the share of the inside slabs, and of the inside and open
    # slabs together, bracket the unit ball's volume, V1 by quadrature
    # or 4 pi / 3
    lo, hi, pvals = dist._partition(metric)
    K = dist._MERIDIAN_CELLS
    assert lo.shape == hi.shape == (K,) and pvals.shape == (K + 2,)
    assert (lo >= 0.0).all() and (pvals >= 0.0).all() and pvals[-1] == 0.0
    exact = _unit_l2_ball_volume() if metric == "cc" else 4.0 * math.pi / 3
    inside, open_share = pvals[0], pvals[1:-1].sum()
    assert 8.0 * inside <= exact <= 8.0 * (inside + open_share)
    assert open_share < (2e-4 if metric == "cc" else 1e-3)


def _spy_heights(monkeypatch):
    # every call of the fit's height profile, as (metric, u, height): one
    # per radius, with the open samples' rho / r. The tables are built
    # first, so that only the fit's calls are kept
    dist._partition("cc"), dist._partition("euclidean")
    sent, height = [], dist._height

    def keeping(metric, u):
        sent.append((metric, u, height(metric, u)))
        return sent[-1][2]

    monkeypatch.setattr(dist, "_height", keeping)
    return sent


def _fit_open_samples(metric, radii, samples, seed):
    # the fit's draws replayed: per radius, the samples dealt to the
    # inside slabs and the open samples (rho, |z|)
    lo, hi, pvals = dist._partition(metric)
    K = dist._MERIDIAN_CELLS
    draws = []
    for r, gen in zip(radii, np.random.default_rng(seed).spawn(len(radii))):
        zr = r * r if metric == "cc" else r
        counts = gen.multinomial(samples, pvals)
        cell = np.repeat(np.arange(K), counts[1:-1])
        rho = r / K * np.sqrt(cell * cell
                              + gen.random(len(cell)) * (2 * cell + 1))
        az = zr * (lo[cell] + gen.random(len(cell)) * (hi[cell] - lo[cell]))
        draws.append((int(counts[0]), rho, az))
    return draws


def test_volume_fit_open_share_pinned(monkeypatch):
    # the samples left to the height profile at this seed: about 0.013%
    # of the samples with the meridian table, 2.7% with the path bounds
    # and the half-angle bracket it replaced
    sent = _spy_heights(monkeypatch)
    samples = 10 ** 6
    dist.ball_volume_fit("cc", (0.5, 1, 1.5, 2), samples, seed=7)
    assert len(sent) == 4
    assert 1 <= sum(len(u) for _, u, _ in sent) <= 2e-4 * 4 * samples


def test_volume_fit_draws_only_in_the_open_slabs(monkeypatch):
    # every sample sent to the height profile lies in an open slab of the
    # partition, and the open slabs are drawn in proportion to their
    # shares: those inside the peak cell's radius, about 12% of the open
    # share, get their part of the samples within 5 standard deviations
    sent = _spy_heights(monkeypatch)
    r = 1.5
    dist.ball_volume_fit("cc", (0.5, 1.0, r), 10 ** 6, seed=8)
    _, rho, abs_z = _fit_open_samples("cc", (0.5, 1.0, r), 10 ** 6, 8)[-1]
    metric, u, _ = sent[-1]
    # the replay draws what the fit drew
    assert metric == "cc" and np.array_equal(u, rho / r)
    assert len(rho) > 50
    assert (_partition_region(rho, 0.0, abs_z, r) == 1).all()
    _, _, pvals = dist._partition("cc")
    peak = int(2.0 * dist._MERIDIAN_CELLS / math.pi)
    share = pvals[1:peak + 1].sum() / pvals[1:-1].sum()
    below = np.count_nonzero(rho < r * peak / dist._MERIDIAN_CELLS)
    n = len(rho)
    assert abs(below - share * n) < 5.0 * math.sqrt(n * share * (1 - share))


def _exactly_inside(metric, rho, abs_z, r):
    # the oracles: the exact l2 distance and the squared norm
    if metric == "cc":
        return dist.l2_distance(rho, abs_z) <= r
    return rho * rho + abs_z * abs_z <= r * r


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("metric", ["cc", "euclidean"])
def test_volume_fit_decides_open_samples_as_the_exact_test(metric,
                                                           monkeypatch):
    # the height profile decides every open sample of a seed sweep over
    # radii across the float range as the exact test does: the fit's
    # hits are its inside slabs' samples plus the open samples the exact
    # test puts inside, and each sample sent is decided alike
    sent = _spy_heights(monkeypatch)
    radii, samples = (1e-70, 0.37, 1.5, 1e70), 10 ** 7
    zr = [r * r if metric == "cc" else r for r in radii]
    decided = 0
    for seed in range(12):
        del sent[:]
        fit = dist.ball_volume_fit(metric, radii, samples, seed)
        draws = _fit_open_samples(metric, radii, samples, seed)
        for r, z, hits, (inside, rho, abs_z), (_, u, height) in zip(
                radii, zr, fit.hits, draws, sent):
            assert np.array_equal(u, rho / r)
            exact = _exactly_inside(metric, rho, abs_z, r)
            assert np.array_equal(abs_z <= z * height, exact)
            assert hits == inside + np.count_nonzero(exact)
            decided += len(rho)
    assert decided > 10_000
    monkeypatch.undo()
    # planted in the open slabs: a relative 1e-13 inside and outside the
    # sphere, the axis cell's slab (u = 0) and the rim rho = r, outside
    # unless z = 0; each decided by the height as by the exact test
    lo, hi, _ = dist._partition(metric)
    K = dist._MERIDIAN_CELLS
    rng = np.random.default_rng([23, len(metric)])
    for r in radii:
        z = r * r if metric == "cc" else r
        u = rng.uniform(0.0, 1.0, 4000)
        if metric == "cc":
            t = _unit_meridian_angle(u)
            height = _unit_meridian_height(t)
        else:
            height = np.sqrt(1.0 - u * u)
        s = np.repeat((1.0 - 1e-13, 1.0 + 1e-13), 2000)
        rho = np.concatenate((r * s * u, np.zeros(200), np.full(200, r)))
        abs_z = np.concatenate((
            z * s ** (2 if metric == "cc" else 1) * height,
            z * rng.uniform(lo[0], hi[0], 200),
            z * rng.uniform(0.0, hi[K - 1], 200)))
        abs_z[-1] = 0.0
        # each in the open slab of its cell, where the fit draws |z| / Z
        # in [lo, hi)
        cell = np.minimum(rho * (K / r), K - 1).astype(np.intp)
        assert ((lo[cell] <= abs_z / z) & (abs_z / z <= hi[cell])).all()
        exact = _exactly_inside(metric, rho, abs_z, r)
        assert np.array_equal(
            abs_z <= z * dist._height(metric, rho / r), exact)
        # the spheres' points sit on their side, and the rim is inside
        # only at z = 0
        assert exact[:2000].all() and not exact[2000:4000].any()
        assert exact[-200:].tolist() == [False] * 199 + [True]


def test_volume_fit_hits_pinned():
    # the partition decides each sample of its certain slabs without
    # drawing it: each count stays the one of its draws at this seed
    fit = dist.ball_volume_fit("cc", (0.5, 1, 1.5, 2), 10 ** 6, seed=7)
    assert fit.hits == (102850, 103612, 103474, 104285)


def test_volume_fit_euclidean_hits_pinned():
    fit = dist.ball_volume_fit("euclidean", (0.5, 1, 1.5, 2), 10 ** 6,
                               seed=7)
    assert fit.hits == (524238, 522965, 523220, 521872)


def test_volume_fit_memory_stays_flat():
    # only the open samples are drawn: the whole-array draws of 10^6
    # samples alone held 24 MB
    tracemalloc.start()
    try:
        dist.ball_volume_fit("cc", (0.5, 1, 1.5, 2), 10 ** 6, seed=7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_volume_fit_refuses_radii_without_log_spread(monkeypatch):
    # distinct floats whose logs are one rounding apart leave the slope
    # undetermined; the fit is refused before any sample is drawn
    monkeypatch.setattr(dist.np.random, "default_rng", None)
    for radii in ((1.0, 1.0000000000000002, 1.0000000000000004),
                  (2.0, 2.0, 2.0), (1e300, 1e300, 1.0000000000000002e300)):
        with pytest.raises(DomainError, match="degenerate"):
            dist.ball_volume_fit("cc", radii, 10 ** 4, seed=1)
