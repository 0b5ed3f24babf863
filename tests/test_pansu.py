import math
import warnings

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from carnot_lab import pansu
from carnot_lab._extrapolation import STEPS
from carnot_lab import qalgebra as qa
from carnot_lab.errors import ConvergenceError, DomainError


def central_diff(fn, x, h=1e-6):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def test_unknown_convention_is_refused():
    for fn in (lambda x: x, Polynomial([0.0, 1.0])):
        for kind in pansu.MAP_KINDS:
            gmap = pansu.GroupMap(kind, fn)
            with pytest.raises(DomainError, match="unknown convention"):
                pansu.pansu_derivative(gmap, (1.0, 2.0, 3.0),
                                       convention="graded")


def test_group_map_validation():
    with pytest.raises(DomainError):
        pansu.GroupMap("heis_to_euclid", lambda x: x)


def test_blowup_quotient_diagonal_example():
    # entries (phi(a + t x) - phi(a)) / t for the additive source
    gmap = pansu.GroupMap("abelian_to_abelian", lambda x: x * x)
    q = pansu.blowup_quotient(gmap, (1.0, 1.0, 1.0), (1.0, 0.0, 0.0), 0.1)
    assert q[0] == pytest.approx(2.1, abs=1e-12)
    assert q[1] == q[2] == 0.0


def test_blowup_quotient_constant_map():
    gmap = pansu.GroupMap("abelian_to_abelian", lambda x: 7.0)
    q = pansu.blowup_quotient(gmap, (0.3, 0.1, -0.2), (1.0, 1.0, 1.0), 0.25)
    assert np.allclose(q, 0.0)


def test_blowup_quotient_linear_convention_shape():
    # at the identity under the linear convention the entries are
    # phi(t dx)/t, phi(t dy)/t, phi(t dz)/t
    phi = lambda x: math.sin(x)
    gmap = pansu.GroupMap("heis_to_abelian", phi)
    t = 0.125
    d = (0.5, -1.0, 2.0)
    q = pansu.blowup_quotient(gmap, (0.0, 0.0, 0.0), d, t, "source_linear")
    expect = [phi(t * c) / t for c in d]
    assert np.allclose(q, expect, atol=1e-15)


def test_blowup_quotient_graded_center():
    gmap = pansu.GroupMap("heis_to_abelian", lambda x: x)
    t = 0.01
    q = pansu.blowup_quotient(gmap, (0.0, 0.0, 0.0), (0.0, 0.0, 1.0), t,
                              "source_graded")
    assert q[2] == pytest.approx(t)  # t^2 / t, dies linearly


def test_blowup_dilation_equivariance():
    # q(t s, dir) = q(t, delta_s dir) / s: source dilations compose and
    # the target rescaling contributes the extra 1/s
    gmap = pansu.GroupMap("heis_to_abelian", lambda x: x * x + 0.5 * x)
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
    gmap = pansu.GroupMap("abelian_to_abelian", lambda x: x)
    matrix = pansu.pansu_derivative(gmap, (0.2, -0.4, 0.9))
    assert np.allclose(matrix, np.eye(3), atol=1e-12)


def test_pansu_derivative_square_diagonal():
    gmap = pansu.GroupMap("abelian_to_abelian", lambda x: x * x)
    matrix = pansu.pansu_derivative(gmap, (1.0, 1.0, 1.0))
    assert np.allclose(matrix, 2.0 * np.eye(3), atol=1e-8)


def test_pansu_derivative_matches_finite_differences():
    rng = np.random.default_rng(62)
    fn = lambda x: x ** 3 - 2.0 * x + 0.25 * x * x
    gmap = pansu.GroupMap("abelian_to_abelian", fn)
    for _ in range(20):
        base = tuple(rng.uniform(-2, 2, 3))
        matrix = pansu.pansu_derivative(gmap, base)
        fd = np.diag([central_diff(fn, b) for b in base])
        assert np.allclose(matrix, fd, atol=1e-6)


def test_pansu_derivative_evaluates_the_base_once_per_direction():
    # 20 levels and the base, three entries each, in each of 3 directions
    calls = []

    def fn(x):
        calls.append(x)
        return x * x

    gmap = pansu.GroupMap("heis_to_abelian", fn)
    pansu.pansu_derivative(gmap, (0.5, -1.0, 2.0))
    assert len(calls) == 3 * (3 * 20 + 3)


def test_pansu_identity_graded_kills_center():
    gmap = pansu.GroupMap("heis_to_abelian", lambda x: x)
    matrix = pansu.pansu_derivative(gmap, (0.0, 0.0, 0.0))
    assert np.allclose(matrix, np.diag([1.0, 1.0, 0.0]), atol=1e-10)


def test_pansu_identity_linear_keeps_center():
    gmap = pansu.GroupMap("heis_to_abelian", lambda x: x)
    matrix = pansu.pansu_derivative(gmap, (0.0, 0.0, 0.0),
                                    convention="source_linear")
    assert np.allclose(matrix, np.eye(3), atol=1e-10)


def test_homomorphism_quotients_are_t_independent():
    gmap = pansu.GroupMap("heis_to_abelian", lambda x: x)
    qs = np.array([pansu.blowup_quotient(gmap, (0, 0, 0), (1.0, 0.5, 0.0), t)
                   for t in 2.0 ** -np.arange(1, 21)])
    assert float(np.var(qs[:, 0])) < 1e-12
    assert float(np.var(qs[:, 1])) < 1e-12


def test_base_beyond_the_schedules_resolution_is_refused():
    # 1e16 + 1/2 rounds to 1e16, so the identity's entry (0, 0) read 0.0
    # instead of 1.0; at 1e300 the whole diagonal read 0
    for kind in pansu.MAP_KINDS:
        gmap = pansu.GroupMap(kind, lambda x: x)
        for base in ((1e16, 0.0, 0.0), (1e300, 1e300, 1e300)):
            with pytest.raises(DomainError, match="resolution"):
                pansu.pansu_derivative(gmap, base)
    # 2^-20 is still a multiple of one ulp of 1e9: the base is kept
    gmap = pansu.GroupMap("heis_to_abelian", lambda x: x)
    matrix = pansu.pansu_derivative(gmap, (1e9, 0.0, 0.0))
    assert np.allclose(matrix, [[1, 0, 0], [0, 1, 0], [0, 1e9, 0]],
                       rtol=1e-12, atol=0.0)
    with pytest.raises(DomainError, match="base x = 1e"):
        pansu.blowup_quotient(gmap, (1e16, 0.0, 0.0), (1.0, 0.0, 0.0), 0.5)


def test_only_the_levels_the_extrapolation_reads_must_resolve():
    # the finest levels lose these bases' displacements (t^2 = 2^-40 is
    # below half an ulp of z = 1e5; 1e-10 t is below one ulp of z = 1),
    # but each entry's extrapolation stops on the coarse levels, so the
    # matrices are the ones computed before the resolution check
    gmap = pansu.GroupMap("heis_to_abelian", lambda x: x)
    with pytest.raises(DomainError, match="base z"):
        pansu.blowup_quotient(gmap, (0.0, 0.0, 1e5), (0.0, 0.0, 1.0),
                              2.0 ** -20)
    matrix = pansu.pansu_derivative(gmap, (0.0, 0.0, 1e5))
    assert matrix.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 0]]
    matrix = pansu.pansu_derivative(gmap, (1e-10, 0.0, 1.0))
    assert matrix.tolist() == [[1, 0, 0], [0, 1, 0],
                               [0, 1.000000082740371e-10, 0]]
    # a level that is read and lost still refuses: z = 1e15 rounds away
    # t^2 = 1/16, the second level of the vertical entry
    with pytest.raises(DomainError, match="t = 0.25"):
        pansu.pansu_derivative(gmap, (0.0, 0.0, 1e15))


_POLYNOMIALS = (Polynomial([0.0, 1.0]), Polynomial([0.0, 0.0, 1.0]),
                Polynomial([1.0, -2.0, 0.5, 0.25]))


def test_polynomial_closed_form_matches_richardson():
    # the same polynomial as a plain callable takes the extrapolation
    rng = np.random.default_rng(281)
    cases = 0
    for _ in range(67):
        base = tuple(rng.uniform(-1.0, 1.0, 3)
                     * 10.0 ** rng.integers(-2, 2, 3))
        for kind in pansu.MAP_KINDS:
            for conv in pansu.CONVENTIONS:
                for poly in _POLYNOMIALS:
                    exact = pansu.pansu_derivative(
                        pansu.GroupMap(kind, poly), base, conv)
                    approx = pansu.pansu_derivative(
                        pansu.GroupMap(kind, lambda x, p=poly: p(x)), base,
                        conv)
                    tol = 1e-8 * np.maximum(1.0, np.abs(exact))
                    assert np.all(np.abs(exact - approx) <= tol), \
                        (kind, conv, poly, base)
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


def test_polynomial_closed_form_answers_where_richardson_refuses():
    identity = Polynomial([0.0, 1.0])
    cubic = Polynomial([1.0, -2.0, 0.5, 0.25])
    for fn, base, expect in (
            (identity, (1e16, 0.0, 0.0), [[1, 0, 0], [0, 1, 0], [0, 1e16, 0]]),
            (identity, (1e300, 1e300, 1e300),
             [[1, 0, 0], [0, 1, 0], [0, 1e300, 0]]),
            (cubic, (1000.0, -2000.0, 5e5),
             [[750998, 0, 0], [0, 2997998, 0], [0, 187500499998000, 0]])):
        callable_map = pansu.GroupMap("heis_to_abelian", lambda x, p=fn: p(x))
        with pytest.raises(DomainError, match="resolution"):
            pansu.pansu_derivative(callable_map, base)
        gmap = pansu.GroupMap("heis_to_abelian", fn)
        assert pansu.pansu_derivative(gmap, base).tolist() == expect, base
    # where the extrapolation stops early it is off by 8e-8 relative
    gmap = pansu.GroupMap("heis_to_abelian", identity)
    assert pansu.pansu_derivative(gmap, (1e-10, 0.0, 1.0)).tolist() == \
        [[1, 0, 0], [0, 1, 0], [0, 1e-10, 0]]


def test_polynomial_closed_form_refuses_non_finite_entries_quietly():
    square = Polynomial([0.0, 0.0, 1.0])
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


def test_divergent_entry_is_named():
    gmap = pansu.GroupMap("heis_to_abelian",
                          lambda x: math.sqrt(abs(x)))
    with pytest.raises(ConvergenceError, match="'x'"):
        pansu.blowup_limit(gmap, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    # a constant infinite quotient sequence has no finite limit either
    gmap = pansu.GroupMap("abelian_to_abelian",
                          lambda x: 0.0 if x == 1.0 else math.inf)
    with pytest.raises(ConvergenceError, match="'x'"):
        pansu.pansu_derivative(gmap, (1.0, 1.0, 1.0))


def test_jackson_profile_linear():
    # a linear map's Jackson quotients are all its slope, and so is the limit
    f = lambda x: 3.0 * x - 1.0
    for t in 1.0 + STEPS:
        assert qa.jackson_quotient(f, 2.0, t) == pytest.approx(3.0, abs=1e-12)
    assert qa.jackson_derivative(f, 2.0) == pytest.approx(3.0, abs=1e-12)
