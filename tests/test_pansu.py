import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from carnot_lab import pansu
from carnot_lab import qalgebra as qa
from carnot_lab.errors import DomainError

IDENTITY = Polynomial([0.0, 1.0])
SQUARE = Polynomial([0.0, 0.0, 1.0])


def central_diff(fn, x, h=1e-6):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def test_unknown_convention_is_refused():
    for kind in pansu.MAP_KINDS:
        gmap = pansu.GroupMap(kind, IDENTITY)
        with pytest.raises(DomainError, match="unknown convention"):
            pansu.pansu_derivative(gmap, (1.0, 2.0, 3.0),
                                   convention="graded")


def test_group_map_validation():
    with pytest.raises(DomainError):
        pansu.GroupMap("heis_to_euclid", IDENTITY)


def test_group_map_refuses_a_non_polynomial_fn():
    # only a numpy Polynomial has the exact blow-up derivative
    for fn in (lambda x: x, math.sin, np.poly1d([1.0, 0.0]), None):
        for kind in pansu.MAP_KINDS:
            with pytest.raises(DomainError, match="Polynomial"):
                pansu.GroupMap(kind, fn)


def test_blowup_quotient_diagonal_example():
    # entries (phi(a + t x) - phi(a)) / t for the additive source
    gmap = pansu.GroupMap("abelian_to_abelian", SQUARE)
    q = pansu.blowup_quotient(gmap, (1.0, 1.0, 1.0), (1.0, 0.0, 0.0), 0.1)
    assert q[0] == pytest.approx(2.1, abs=1e-12)
    assert q[1] == q[2] == 0.0


def test_blowup_quotient_constant_map():
    gmap = pansu.GroupMap("abelian_to_abelian", Polynomial([7.0]))
    q = pansu.blowup_quotient(gmap, (0.3, 0.1, -0.2), (1.0, 1.0, 1.0), 0.25)
    assert np.allclose(q, 0.0)


def test_blowup_quotient_linear_convention_shape():
    # at the identity under the linear convention the entries are
    # phi(t dx)/t, phi(t dy)/t, phi(t dz)/t
    phi = Polynomial([0.0, 1.0, 0.0, -1.0 / 6.0])  # sin's cubic Taylor
    gmap = pansu.GroupMap("heis_to_abelian", phi)
    t = 0.125
    d = (0.5, -1.0, 2.0)
    q = pansu.blowup_quotient(gmap, (0.0, 0.0, 0.0), d, t, "source_linear")
    expect = [phi(t * c) / t for c in d]
    assert np.allclose(q, expect, atol=1e-15)


def test_blowup_quotient_graded_center():
    gmap = pansu.GroupMap("heis_to_abelian", IDENTITY)
    t = 0.01
    q = pansu.blowup_quotient(gmap, (0.0, 0.0, 0.0), (0.0, 0.0, 1.0), t,
                              "source_graded")
    assert q[2] == pytest.approx(t)  # t^2 / t, dies linearly


def test_blowup_dilation_equivariance():
    # q(t s, dir) = q(t, delta_s dir) / s: source dilations compose and
    # the target rescaling contributes the extra 1/s
    gmap = pansu.GroupMap("heis_to_abelian", Polynomial([0.0, 0.5, 1.0]))
    rng = np.random.default_rng(61)
    for conv in pansu.CONVENTIONS:
        for _ in range(20):
            base = tuple(rng.uniform(-1, 1, 3))
            d = tuple(rng.uniform(-1, 1, 3))
            t, s = rng.uniform(0.05, 0.5, 2)
            if conv == "source_graded":
                ds = (s * d[0], s * d[1], s * s * d[2])
            else:
                ds = (s * d[0], s * d[1], s * d[2])
            lhs = pansu.blowup_quotient(gmap, base, d, t * s, conv)
            rhs = pansu.blowup_quotient(gmap, base, ds, t, conv) / s
            assert np.allclose(lhs, rhs, atol=1e-10)


def test_pansu_derivative_identity_map():
    gmap = pansu.GroupMap("abelian_to_abelian", IDENTITY)
    matrix = pansu.pansu_derivative(gmap, (0.2, -0.4, 0.9))
    assert np.allclose(matrix, np.eye(3), atol=1e-12)


def test_pansu_derivative_square_diagonal():
    gmap = pansu.GroupMap("abelian_to_abelian", SQUARE)
    matrix = pansu.pansu_derivative(gmap, (1.0, 1.0, 1.0))
    assert np.allclose(matrix, 2.0 * np.eye(3), atol=1e-8)


def test_pansu_derivative_matches_finite_differences():
    rng = np.random.default_rng(62)
    fn = Polynomial([0.0, -2.0, 0.25, 1.0])
    gmap = pansu.GroupMap("abelian_to_abelian", fn)
    for _ in range(20):
        base = tuple(rng.uniform(-2, 2, 3))
        matrix = pansu.pansu_derivative(gmap, base)
        fd = np.diag([central_diff(fn, b) for b in base])
        assert np.allclose(matrix, fd, atol=1e-6)


def test_pansu_identity_graded_kills_center():
    gmap = pansu.GroupMap("heis_to_abelian", IDENTITY)
    matrix = pansu.pansu_derivative(gmap, (0.0, 0.0, 0.0))
    assert np.allclose(matrix, np.diag([1.0, 1.0, 0.0]), atol=1e-10)


def test_pansu_identity_linear_keeps_center():
    gmap = pansu.GroupMap("heis_to_abelian", IDENTITY)
    matrix = pansu.pansu_derivative(gmap, (0.0, 0.0, 0.0),
                                    convention="source_linear")
    assert np.allclose(matrix, np.eye(3), atol=1e-10)


def test_homomorphism_quotients_are_t_independent():
    gmap = pansu.GroupMap("heis_to_abelian", IDENTITY)
    qs = np.array([pansu.blowup_quotient(gmap, (0, 0, 0), (1.0, 0.5, 0.0), t)
                   for t in 2.0 ** -np.arange(1, 21)])
    assert float(np.var(qs[:, 0])) < 1e-12
    assert float(np.var(qs[:, 1])) < 1e-12


def test_base_beyond_the_schedules_resolution_is_refused():
    # 1e16 + 1/2 rounds to 1e16, so the identity's entry x would read 0.0
    # instead of 1.0; at 1e300 every entry would read 0
    for kind in pansu.MAP_KINDS:
        gmap = pansu.GroupMap(kind, IDENTITY)
        for base in ((1e16, 0.0, 0.0), (1e300, 1e300, 1e300)):
            with pytest.raises(DomainError, match="base x = 1e.*resolution"):
                pansu.blowup_quotient(gmap, base, (1.0, 0.0, 0.0), 0.5)
    # 2^-20 is still a multiple of one ulp of 1e9: the base is kept
    gmap = pansu.GroupMap("heis_to_abelian", IDENTITY)
    q = pansu.blowup_quotient(gmap, (1e9, 0.0, 0.0), (1.0, 0.0, 0.0),
                              2.0 ** -20)
    assert q.tolist() == [1.0, 0.0, 0.0]
    # t^2 = 2^-40 is below half an ulp of z = 1e5; t = 2^-20 is not
    with pytest.raises(DomainError, match="base z = 100000.0.*t = 9.5"):
        pansu.blowup_quotient(gmap, (0.0, 0.0, 1e5), (0.0, 0.0, 1.0),
                              2.0 ** -20)
    q = pansu.blowup_quotient(gmap, (0.0, 0.0, 1e5), (0.0, 0.0, 1.0),
                              2.0 ** -20, "source_linear")
    assert q.tolist() == [0.0, 0.0, 1.0]


_POLYNOMIALS = (IDENTITY, SQUARE,
                Polynomial([1.0, -2.0, 0.5, 0.25]))


def _exact_limit(coeffs, kind, convention, base, j):
    """Column j of the blow-up derivative in rational arithmetic.

    Along the unit direction e_j the quotient of a degree-d polynomial is
    a polynomial in t of degree at most 2d - 1 (d - 1, except the graded
    vertical step t^2), so its values at t = 1..2d interpolate it exactly
    and Lagrange's formula at t = 0 gives the limit.
    """
    cs = [Fraction(c) for c in coeffs]
    base = [Fraction(float(v)) for v in base]

    def f(x):
        return sum(ck * x ** k for k, ck in enumerate(cs))

    f_base = [f(v) for v in base]
    graded = kind == "heis_to_abelian" and convention == "source_graded"
    nodes = range(1, 2 * len(cs) - 1)
    limit = [Fraction(0)] * 3
    for ti in nodes:
        weight = Fraction(1)
        for tk in nodes:
            if tk != ti:
                weight *= Fraction(tk, tk - ti)
        disp = [0, 0, 0]
        disp[j] = ti * ti if j == 2 and graded else ti
        if kind == "heis_to_abelian":
            disp[2] += base[0] * disp[1]
        for i in range(3):
            if disp[i]:
                limit[i] += weight * (f(base[i] + disp[i]) - f_base[i]) / ti
    return limit


def test_polynomial_closed_form_matches_the_exact_limit():
    # Horner's rule evaluates d = f' within 2m eps sum |d_k| |x|^k for
    # degree m = deg f - 1 (the coefficients k c_k are exact here); one
    # more rounding for a d(b). So every entry of the closed form lies
    # within 2 deg(f) eps w R(|x|) of the exact limit, with R the
    # derivative's coefficients in absolute value, w = |a| for the entry
    # a d(b) and 1 otherwise
    rng = np.random.default_rng(281)
    eps = np.finfo(float).eps
    cases = 0
    for _ in range(67):
        base = tuple(rng.uniform(-1.0, 1.0, 3)
                     * 10.0 ** rng.integers(-2, 2, 3))
        a, c, b = base
        for kind in pansu.MAP_KINDS:
            for conv in pansu.CONVENTIONS:
                for poly in _POLYNOMIALS:
                    closed = pansu.pansu_derivative(
                        pansu.GroupMap(kind, poly), base, conv)
                    r = Polynomial(np.abs(poly.deriv().coef))
                    scale = [r(abs(a)), r(abs(c)), r(abs(b))]
                    for j in range(3):
                        exact = _exact_limit(poly.coef, kind, conv, base, j)
                        for i in range(3):
                            w = abs(a) if (i, j) == (2, 1) else 1.0
                            tol = 2 * poly.degree() * eps * w * scale[i]
                            err = abs(Fraction(closed[i, j]) - exact[i])
                            assert err <= tol, (kind, conv, poly, base, i, j)
                    cases += 1
    assert cases == 804


def test_polynomial_closed_form_is_exact_in_both_conventions():
    # f' = -2 + x + 0.75 x^2; the vertical row is (0, a f'(b), kappa f'(b))
    cubic = Polynomial([1.0, -2.0, 0.5, 0.25])
    base = (1.3, -0.7, 2.1)
    d = [-2.0 + x + 0.75 * x * x for x in base]
    for conv, kappa in (("source_graded", 0.0), ("source_linear", 1.0)):
        matrix = pansu.pansu_derivative(
            pansu.GroupMap("heis_to_abelian", cubic), base, conv)
        expect = [[d[0], 0, 0], [0, d[1], 0], [0, base[0] * d[2], kappa * d[2]]]
        assert np.allclose(matrix, expect, rtol=1e-15, atol=0.0)
        matrix = pansu.pansu_derivative(
            pansu.GroupMap("abelian_to_abelian", cubic), base, conv)
        assert np.allclose(matrix, np.diag(d), rtol=1e-15, atol=0.0)


def test_polynomial_closed_form_answers_where_the_quotient_refuses():
    # bases whose displacements rounding loses at some t: the fixed-t
    # quotient refuses them, the closed form reads no quotient
    cubic = Polynomial([1.0, -2.0, 0.5, 0.25])
    for fn, base, (direction, t), expect in (
            (IDENTITY, (1e16, 0.0, 0.0), ((1.0, 0.0, 0.0), 0.5),
             [[1, 0, 0], [0, 1, 0], [0, 1e16, 0]]),
            (IDENTITY, (1e300, 1e300, 1e300), ((1.0, 0.0, 0.0), 0.5),
             [[1, 0, 0], [0, 1, 0], [0, 1e300, 0]]),
            (cubic, (1000.0, -2000.0, 5e5), ((0.0, 0.0, 1.0), 2.0 ** -20),
             [[750998, 0, 0], [0, 2997998, 0], [0, 187500499998000, 0]])):
        gmap = pansu.GroupMap("heis_to_abelian", fn)
        with pytest.raises(DomainError, match="resolution"):
            pansu.blowup_quotient(gmap, base, direction, t)
        assert pansu.pansu_derivative(gmap, base).tolist() == expect, base
    # the sheared entry a f'(b) is exact where a is far below b
    gmap = pansu.GroupMap("heis_to_abelian", IDENTITY)
    assert pansu.pansu_derivative(gmap, (1e-10, 0.0, 1.0)).tolist() == \
        [[1, 0, 0], [0, 1, 0], [0, 1e-10, 0]]


def test_polynomial_closed_form_refuses_non_finite_entries_quietly():
    square = SQUARE
    heis, abelian = pansu.MAP_KINDS
    cases = (
        # 2a overflows
        (square, (1e308, 0.0, 0.0), heis, "inf"),
        (square, (1e308, 0.0, 0.0), abelian, "inf"),
        # f'(b) = 2e308 overflows where the matrix keeps it
        (square, (0.0, 0.0, 1e308), abelian, "inf"),
        # a f'(b) = 1e300 * 2e300 overflows
        (square, (1e300, 1.0, 1e300), heis, "inf"),
        # the derivative's coefficient 2e308 overflows: inf * 0 is NaN
        (Polynomial([0.0, 1e308, 1e308]), (0.0, 0.0, 0.0), heis, "nan"),
        (Polynomial([0.0, 1e308, 1e308]), (0.0, 0.0, 0.0), abelian, "nan"))
    for fn, base, kind, entry in cases:
        for conv in pansu.CONVENTIONS:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError, match="not finite") as exc:
                    pansu.pansu_derivative(pansu.GroupMap(kind, fn), base,
                                           conv)
            assert entry in str(exc.value), (fn, base, kind, conv)
    # at a = 0 the entry a f'(b) is a literal 0, not 0 * inf: the exact
    # matrix is 0 under source_graded, and source_linear keeps f'(b)
    gmap = pansu.GroupMap(heis, square)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        matrix = pansu.pansu_derivative(gmap, (0.0, 0.0, 1e308))
        assert matrix.tolist() == [[0.0] * 3] * 3
        with pytest.raises(DomainError, match="not finite") as exc:
            pansu.pansu_derivative(gmap, (0.0, 0.0, 1e308),
                                   convention="source_linear")
    assert "inf" in str(exc.value) and "nan" not in str(exc.value)


def test_jackson_profile_linear():
    # a linear map's Jackson quotients are all its slope
    f = lambda x: 3.0 * x - 1.0
    for t in 1.0 + 2.0 ** -np.arange(1, 21):
        assert qa.jackson_quotient(f, 2.0, t) == pytest.approx(3.0, abs=1e-12)
