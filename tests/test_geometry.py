import math

import numpy as np
import pytest

from carnot_lab import geometry as geo
from carnot_lab import heisenberg as hg
from carnot_lab.errors import DomainError


def shoelace(pts):
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))


def circle(n, r=1.0, ccw=True):
    theta = np.linspace(0.0, 2.0 * np.pi, n + 1)
    if not ccw:
        theta = theta[::-1]
    pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    pts[-1] = pts[0]
    return pts


UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                        [0.0, 0.0]])


# ---------------------------------------------------------------------------
# contact form and frame

def test_contact_form_values():
    o = hg.ORIGIN
    assert geo.contact_form(o, (1.0, 0.0, 0.0)) == 0.0
    assert geo.contact_form(o, (0.0, 0.0, 1.0)) == 1.0
    p = hg.HeisPoint(0.0, 1.0, 0.0)
    assert geo.contact_form(p, (1.0, 0.0, -0.5)) == 0.0


def test_frame_values():
    X, Y, Z = geo.frame_at(hg.ORIGIN)
    assert np.allclose(X, [1, 0, 0]) and np.allclose(Y, [0, 1, 0])
    X, Y, Z = geo.frame_at(hg.HeisPoint(2.0, 4.0, 0.0))
    assert np.allclose(X, [1, 0, -2]) and np.allclose(Y, [0, 1, 1])
    assert np.allclose(Z, [0, 0, 1])


def test_frame_on_columns_is_one_frame_per_point():
    cols = np.random.default_rng(42).uniform(-3, 3, (3, 40))
    fields = geo.frame_at(hg.HeisPoint(*cols))
    for k in range(40):
        point = hg.HeisPoint(*cols[:, k])
        for batched, one in zip(fields, geo.frame_at(point)):
            assert batched.shape == (40, 3)
            assert np.array_equal(batched[k], one)


def test_frame_is_horizontal():
    rng = np.random.default_rng(41)
    for _ in range(200):
        p = hg.HeisPoint(*rng.uniform(-3, 3, 3))
        X, Y, Z = geo.frame_at(p)
        assert geo.contact_form(p, X) == pytest.approx(0.0, abs=1e-15)
        assert geo.contact_form(p, Y) == pytest.approx(0.0, abs=1e-15)
        assert geo.is_horizontal(p, X) and geo.is_horizontal(p, Y)
        assert not geo.is_horizontal(p, Z)


def test_frame_pushforward_under_left_translation():
    # the differential of a left translation carries the frame at p to
    # the frame at the translated point, column for column
    rng = np.random.default_rng(49)
    worst = 0.0
    for _ in range(1000):
        g = hg.HeisPoint(*rng.uniform(-3, 3, 3))
        p = hg.HeisPoint(*rng.uniform(-3, 3, 3))
        J = hg.left_jacobian(g)
        gp = hg.left_translate(g, p)
        for here, there in zip(geo.frame_at(p), geo.frame_at(gp)):
            worst = max(worst, float(np.max(np.abs(J @ here - there))))
    assert worst < 1e-12


def test_frame_flow_commutator_is_vertical():
    # flowing h along X then Y minus Y then X gains h^2 in z: the bracket
    # [X, Y] = Z seen numerically
    h = 1e-3
    p = hg.HeisPoint(0.3, -0.2, 0.1)

    def flow(p, u, v, t):
        return geo.integrate_path(geo.HorizontalPath(p, [[u, v, t]]))

    xy = flow(flow(p, 1, 0, h), 0, 1, h)
    yx = flow(flow(p, 0, 1, h), 1, 0, h)
    gap = np.array(xy) - np.array(yx)
    assert np.allclose(gap[:2], 0.0, atol=1e-15)
    assert gap[2] == pytest.approx(h * h, rel=1e-9)


# ---------------------------------------------------------------------------
# lifts and holonomy

def test_lift_straight_segment():
    lifted = geo.horizontal_lift([[0.0, 0.0], [1.0, 0.0]], 0.0)
    assert np.allclose(lifted[-1], [1.0, 0.0, 0.0])


def test_lift_radial_lines_gain_nothing():
    lifted = geo.horizontal_lift([[0, 0], [0.3, 0.4], [0.6, 0.8]], 0.25)
    assert np.allclose(lifted[:, 2], 0.25)


def test_lift_circle_quadrature():
    lifted = geo.horizontal_lift(circle(10_000), 0.0)
    assert lifted[-1, 2] == pytest.approx(math.pi, abs=1e-5)


def test_lift_is_horizontal_discretely():
    rng = np.random.default_rng(42)
    pts = np.cumsum(rng.uniform(-0.2, 0.2, (50, 2)), axis=0)
    lifted = geo.horizontal_lift(pts, 0.0)
    # each discrete step, evaluated at the segment midpoint, lies in the
    # kernel of the contact form exactly
    for k in range(len(pts) - 1):
        mid = hg.HeisPoint(0.5 * (lifted[k, 0] + lifted[k + 1, 0]),
                           0.5 * (lifted[k, 1] + lifted[k + 1, 1]), 0.0)
        step = lifted[k + 1] - lifted[k]
        assert geo.contact_form(mid, step) == pytest.approx(0.0, abs=1e-15)


def test_lift_needs_two_samples():
    with pytest.raises(DomainError):
        geo.horizontal_lift([[0.0, 0.0]])


def test_holonomy_equals_signed_area():
    assert geo.holonomy(np.zeros((2, 2))) == 0.0
    assert geo.holonomy(UNIT_SQUARE) == pytest.approx(1.0, abs=1e-12)
    assert geo.holonomy(circle(10_000, ccw=False)) == \
        pytest.approx(-math.pi, abs=1e-5)
    rng = np.random.default_rng(43)
    for _ in range(50):
        poly = rng.uniform(-2, 2, (12, 2))
        poly = np.vstack([poly, poly[:1]])
        assert geo.holonomy(poly) == pytest.approx(shoelace(poly), abs=1e-12)


@pytest.mark.parametrize("radius, samples", [
    (2.5, 1), (2.5, 3), (2.5, 10_000), (-1.5, geo._LOOP_BLOCK),
    (2.5, geo._LOOP_BLOCK + 1), (-1.5, 3 * geo._LOOP_BLOCK + 5)])
def test_circle_check_streams_the_whole_loop(radius, samples):
    # the whole loop, as the holonomy preset used to build it
    theta = np.linspace(0.0, 2.0 * np.pi, samples + 1)
    loop = np.column_stack([radius * np.cos(theta), radius * np.sin(theta)])
    loop[-1] = loop[0]
    whole = geo.isoperimetric_check(loop)
    area, length, defect = geo.circle_isoperimetric_check(radius, samples)
    # summed per block and the blocks added exactly: within rounding of
    # the exact sum of the whole loop's shoelace terms, as is the whole
    # loop's pairwise sum, which one block reproduces bit for bit
    terms = 0.5 * (loop[:-1, 0] * loop[1:, 1] - loop[1:, 0] * loop[:-1, 1])
    exact_area = math.fsum(terms)
    assert area == pytest.approx(exact_area, rel=1e-14, abs=0)
    assert whole[0] == pytest.approx(exact_area, rel=1e-14, abs=0)
    if samples <= geo._LOOP_BLOCK:
        assert area == whole[0]
        assert length == whole[1]
    else:
        assert area == pytest.approx(whole[0], rel=1e-12, abs=0)
        assert length == pytest.approx(whole[1], rel=1e-14, abs=0)
    assert defect == pytest.approx(
        whole[1] ** 2 / (4.0 * np.pi) - abs(exact_area), abs=1e-13)


def test_circle_defect_keeps_its_sign():
    # the inscribed n-gon falls short of the circle by about
    # r^2 pi^3 / (3 n^2); at 10^6 samples that is 1e-11 against an area
    # of 20, which a running sum of the area used to swamp
    radius, n = 2.5, 1_000_000
    defect = geo.circle_isoperimetric_check(radius, n)[2]
    assert defect == pytest.approx(radius ** 2 * math.pi ** 3 / (3 * n * n),
                                   rel=0.01)


def test_holonomy_requires_closure():
    with pytest.raises(DomainError):
        geo.holonomy([[0.0, 0.0], [1.0, 0.0]])


def test_isoperimetric_check():
    area, length, defect = geo.isoperimetric_check(circle(20_000))
    assert defect == pytest.approx(0.0, abs=1e-6)
    assert defect >= -1e-9
    area, length, defect = geo.isoperimetric_check(UNIT_SQUARE)
    assert area == 1.0 and length == 4.0
    assert defect == pytest.approx(16.0 / (4.0 * math.pi) - 1.0, abs=1e-12)
    assert geo.isoperimetric_check(np.zeros((2, 2)))[2] == 0.0


# ---------------------------------------------------------------------------
# control paths

def test_path_validation():
    with pytest.raises(DomainError):
        geo.HorizontalPath(hg.ORIGIN, [[1.0, 0.0, -1.0]])
    empty = geo.HorizontalPath(hg.ORIGIN)
    assert empty.duration == 0.0
    assert geo.cc_length(empty) == 0.0
    assert geo.integrate_path(empty) == hg.ORIGIN


def test_cc_length_norms():
    path = geo.HorizontalPath(hg.ORIGIN, [[1.0, 0.0, 1.0]])
    assert geo.cc_length(path, "l2") == 1.0
    path2 = geo.HorizontalPath(hg.ORIGIN, [[3.0, 4.0, 0.5]])
    assert geo.cc_length(path2, "l2") == 2.5
    assert geo.cc_length(path2, "l1") == 3.5
    assert geo.cc_length(path2, "linf") == 2.0
    with pytest.raises(DomainError):
        geo.cc_length(path, "l3")


def test_cc_length_scales_with_dilated_controls():
    # dilating a path scales its controls linearly and its length by t
    rng = np.random.default_rng(50)
    controls = np.column_stack([rng.uniform(-2, 2, 7), rng.uniform(-2, 2, 7),
                                rng.uniform(0.1, 1.0, 7)])
    path = geo.HorizontalPath(hg.ORIGIN, controls)
    for t in (0.5, 2.0, 3.0):
        scaled = controls.copy()
        scaled[:, :2] *= t
        dpath = geo.HorizontalPath(hg.ORIGIN, scaled)
        for norm in geo.HORIZONTAL_NORMS:
            assert geo.cc_length(dpath, norm) == \
                pytest.approx(t * geo.cc_length(path, norm), rel=1e-14, abs=0)
        # and the endpoint is the dilated endpoint
        assert np.allclose(geo.integrate_path(dpath),
                           geo.dilate(geo.integrate_path(path), t),
                           atol=1e-13)


def test_cc_length_circle_controls():
    n = 4096
    theta = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    controls = np.column_stack([-np.sin(theta), np.cos(theta),
                                np.full(n, 2.0 * np.pi / n)])
    path = geo.HorizontalPath(hg.HeisPoint(1.0, 0.0, 0.0), controls)
    assert geo.cc_length(path) == pytest.approx(2.0 * math.pi, rel=1e-9)
    # and it climbs by its enclosed area
    end = geo.integrate_path(path)
    assert end.z == pytest.approx(math.pi, rel=1e-5)


def test_norm_length_ratio_bounds():
    rng = np.random.default_rng(44)
    for _ in range(100):
        controls = np.column_stack([rng.uniform(-2, 2, 10),
                                    rng.uniform(-2, 2, 10),
                                    rng.uniform(0.1, 1.0, 10)])
        path = geo.HorizontalPath(hg.ORIGIN, controls)
        ratio = geo.cc_length(path, "l1") / geo.cc_length(path, "l2")
        assert 1.0 - 1e-12 <= ratio <= math.sqrt(2.0) + 1e-12


def test_integrate_path_examples():
    path = geo.HorizontalPath(hg.ORIGIN, [[1.0, 0.0, 1.0]])
    assert geo.integrate_path(path) == hg.HeisPoint(1.0, 0.0, 0.0)
    square = geo.HorizontalPath(hg.ORIGIN, [[1, 0, 1], [0, 1, 1],
                                            [-1, 0, 1], [0, -1, 1]])
    assert geo.integrate_path(square) == hg.HeisPoint(0.0, 0.0, 1.0)


def test_integrate_path_left_invariance():
    rng = np.random.default_rng(45)
    for _ in range(100):
        controls = np.column_stack([rng.uniform(-1, 1, 6),
                                    rng.uniform(-1, 1, 6),
                                    rng.uniform(0.1, 0.6, 6)])
        start = hg.HeisPoint(*rng.uniform(-2, 2, 3))
        g = hg.HeisPoint(*rng.uniform(-2, 2, 3))
        end = geo.integrate_path(geo.HorizontalPath(start, controls))
        end_moved = geo.integrate_path(
            geo.HorizontalPath(hg.left_translate(g, start), controls))
        assert np.allclose(end_moved, hg.left_translate(g, end), atol=1e-12)


def test_sample_path_is_horizontal_and_consistent():
    rng = np.random.default_rng(46)
    controls = np.column_stack([rng.uniform(-1, 1, 5),
                                rng.uniform(-1, 1, 5),
                                rng.uniform(0.2, 0.7, 5)])
    path = geo.HorizontalPath(hg.HeisPoint(0.5, -0.5, 0.2), controls)
    rows = geo.sample_path(path, per_segment=16)
    assert rows[0, 0] == 0.0
    assert rows[-1, 0] == pytest.approx(path.duration)
    assert np.allclose(rows[-1, 1:], geo.integrate_path(path), atol=1e-12)
    # velocity between consecutive samples stays in the kernel of the
    # contact form at the step midpoint
    worst = 0.0
    for k in range(len(rows) - 1):
        step = rows[k + 1, 1:] - rows[k, 1:]
        mid = hg.HeisPoint(*(0.5 * (rows[k + 1, 1:] + rows[k, 1:])))
        worst = max(worst, abs(geo.contact_form(mid, step)))
    assert worst < 1e-9


# ---------------------------------------------------------------------------
# explicit connection

def test_chow_trivial_and_vertical():
    path = geo.chow_connect(hg.ORIGIN, hg.ORIGIN)
    assert geo.cc_length(path) == 0.0
    up = geo.chow_connect(hg.ORIGIN, hg.HeisPoint(0.0, 0.0, 1.0))
    assert geo.cc_length(up) == pytest.approx(4.0)
    assert np.allclose(geo.integrate_path(up), [0, 0, 1], atol=1e-12)
    down = geo.chow_connect(hg.ORIGIN, hg.HeisPoint(0.0, 0.0, -0.49))
    assert geo.cc_length(down) == pytest.approx(4.0 * math.sqrt(0.49))
    assert np.allclose(geo.integrate_path(down), [0, 0, -0.49], atol=1e-12)


def test_chow_planar():
    target = hg.HeisPoint(0.6, -0.8, 0.0)
    path = geo.chow_connect(hg.ORIGIN, target)
    assert geo.cc_length(path) == pytest.approx(1.0)
    assert np.allclose(geo.integrate_path(path), target, atol=1e-12)


def test_chow_connects_generic_pairs():
    rng = np.random.default_rng(47)
    for _ in range(200):
        a = hg.HeisPoint(*rng.uniform(-3, 3, 3))
        b = hg.HeisPoint(*rng.uniform(-3, 3, 3))
        path = geo.chow_connect(a, b)
        assert path.start == a
        assert np.allclose(geo.integrate_path(path), b, atol=1e-9)


# ---------------------------------------------------------------------------
# dilations

def test_dilate_examples():
    p = hg.HeisPoint(1.0, 1.0, 1.0)
    assert geo.dilate(p, 1.0) == p
    assert geo.dilate(p, 2.0) == hg.HeisPoint(2.0, 2.0, 4.0)
    assert geo.euclidean_dilate((1.0, 1.0, 1.0), 2.0) == (2.0, 2.0, 2.0)
    with pytest.raises(DomainError):
        geo.dilate(p, 0.0)
    with pytest.raises(DomainError):
        geo.euclidean_dilate((1, 1, 1), -2.0)


def test_dilate_is_automorphism():
    rng = np.random.default_rng(48)
    for _ in range(300):
        p = hg.HeisPoint(*rng.uniform(-2, 2, 3))
        q = hg.HeisPoint(*rng.uniform(-2, 2, 3))
        t = rng.uniform(0.2, 4.0)
        lhs = geo.dilate(hg.exp_mul(p, q), t)
        rhs = hg.exp_mul(geo.dilate(p, t), geo.dilate(q, t))
        assert np.allclose(lhs, rhs, atol=1e-12)
