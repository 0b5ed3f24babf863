import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from carnot_lab import qalgebra as qa
from carnot_lab.errors import DomainError


def direct_tsallis(p, q):
    # literal evaluation, the independent route for q away from 1
    return (1.0 - sum(w ** q for w in p)) / (q - 1.0)


def direct_bgs(p):
    return -sum(w * math.log(w) for w in p if w > 0)


# ---------------------------------------------------------------------------
# distributions

def test_distribution_validation():
    with pytest.raises(DomainError):
        qa.as_distribution([])
    with pytest.raises(DomainError):
        qa.as_distribution([0.5, -0.1, 0.6])
    with pytest.raises(DomainError):
        qa.as_distribution([0.5, 0.6])
    w = qa.as_distribution([0.5, 0.6], renormalize=True)
    assert abs(w.sum() - 1.0) < 1e-15


def test_distribution_files(tmp_path):
    j = tmp_path / "d.json"
    j.write_text('{"weights": [0.25, 0.75]}')
    assert np.allclose(qa.load_distribution(j), [0.25, 0.75])
    c = tmp_path / "d.csv"
    c.write_text("0.2\n0.3\n0.5\n")
    assert np.allclose(qa.load_distribution(c), [0.2, 0.3, 0.5])
    with pytest.raises(DomainError):
        qa.load_distribution(tmp_path / "d.txt")
    # a file holds one distribution: nested lists are flattened, and
    # weights that are no list of numbers are refused
    j.write_text('{"weights": [[0.25, 0.25], [0.25, 0.25]]}')
    assert qa.load_distribution(j).shape == (4,)
    for bad in ('{}', '{"a": 1}', '[{"b": 2}]'):
        j.write_text('{"weights": %s}' % bad)
        with pytest.raises(DomainError):
            qa.load_distribution(j)


# ---------------------------------------------------------------------------
# entropies

def test_tsallis_examples():
    assert qa.tsallis_entropy([0.5, 0.5], 2.0) == pytest.approx(0.5, abs=1e-15)
    assert qa.tsallis_entropy([1.0], 3.0) == 0.0
    assert qa.tsallis_entropy([0.5, 0.5], 1.0 + 1e-12) == \
        pytest.approx(math.log(2.0), abs=1e-9)


def test_tsallis_matches_direct_formula():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = rng.dirichlet(np.ones(rng.integers(2, 7)))
        q = rng.uniform(0.2, 3.0)
        if abs(q - 1.0) < 1e-3:
            continue
        assert qa.tsallis_entropy(p, q) == \
            pytest.approx(direct_tsallis(p, q), rel=1e-10, abs=1e-12)


def test_tsallis_nonnegative_for_positive_q():
    rng = np.random.default_rng(8)
    for _ in range(200):
        p = rng.dirichlet(np.ones(rng.integers(2, 7)))
        q = rng.uniform(0.05, 4.0)
        assert qa.tsallis_entropy(p, q) >= -1e-15


def test_tsallis_domain_errors():
    with pytest.raises(DomainError):
        qa.tsallis_entropy([1.0, 0.0], -0.5)   # 0^q undefined for q <= 0
    with pytest.raises(DomainError):
        qa.tsallis_entropy([0.5, 0.5], float("inf"))
    # zero weights are fine for positive q
    assert qa.tsallis_entropy([1.0, 0.0], 2.0) == 0.0


def test_bgs_examples():
    assert qa.bgs_entropy([0.5, 0.5]) == pytest.approx(math.log(2.0))
    assert qa.bgs_entropy([1.0, 0.0]) == 0.0
    val = qa.bgs_entropy([0.2, 0.3, 0.5])
    assert val == pytest.approx(direct_bgs([0.2, 0.3, 0.5]), abs=1e-14)
    assert val == pytest.approx(1.0296530140645737, abs=1e-12)


def test_bgs_bounded_by_log_n():
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        p = rng.dirichlet(np.ones(n))
        s = qa.bgs_entropy(p)
        assert -1e-15 <= s <= math.log(n) + 1e-12


def test_rescaled_entropy():
    assert qa.rescaled_entropy([0.5, 0.5], 2.0) == pytest.approx(-0.5)
    assert qa.rescaled_entropy([0.3, 0.7], 1.0) == 0.0
    p = [0.25, 0.75]
    assert qa.rescaled_entropy(p, 0.5) == \
        pytest.approx(0.5 * qa.tsallis_entropy(p, 0.5), rel=1e-14, abs=0)


def test_continuity_at_q_one():
    rng = np.random.default_rng(10)
    for _ in range(20):
        p = rng.dirichlet(np.ones(4))
        s1 = qa.bgs_entropy(p)
        curvature = abs(sum(w * math.log(w) ** 2 for w in p if w > 0))
        for h in (1e-3, 1e-4, 1e-5):
            for q in (1.0 + h, 1.0 - h):
                assert abs(qa.tsallis_entropy(p, q) - s1) <= 0.6 * h * curvature


# ---------------------------------------------------------------------------
# deformed additions

def test_q_add_examples():
    assert qa.q_add(3.0, 4.0, 1.0) == 7.0
    assert qa.q_add(0.0, 2.75, 0.3) == 2.75
    assert qa.q_add(1.0, 1.0, 0.0) == 3.0


def test_product_add():
    assert qa.product_add(0.0, 5.0) == 5.0
    assert qa.product_add(1.0, 1.0) == 3.0
    a = qa.product_add(qa.product_add(1.0, 2.0), 3.0)
    b = qa.product_add(1.0, qa.product_add(2.0, 3.0))
    assert a == b == 23.0


def test_q_add_group_laws():
    rng = np.random.default_rng(11)
    for _ in range(300):
        x, y, z = rng.uniform(-2, 2, 3)
        q = rng.uniform(-1, 3)
        assert qa.q_add(x, y, q) == pytest.approx(qa.q_add(y, x, q), abs=1e-12)
        assert qa.q_add(qa.q_add(x, y, q), z, q) == \
            pytest.approx(qa.q_add(x, qa.q_add(y, z, q), q), abs=1e-12)
        if abs(1 + (1 - q) * x) > 1e-6:
            xin = qa.q_add_inverse(x, q)
            assert qa.q_add(x, xin, q) == pytest.approx(0.0, abs=1e-12)


def test_q_add_zero_is_neutral():
    # 0 is the neutral element for every finite q, also where (1-q) x
    # alone would overflow
    values = [0.0, -0.0, 1e-300, -2.5, 7.0, 1e20, -1e20, 1e300, -1e308,
              1.7976931348623157e308]
    qs = [1.0, 0.0, 0.5, 3.0, -1e20, 1e8, 1e308, -1e308]
    for x in values:
        for q in qs:
            assert qa.q_add(x, 0.0, q) == x, (x, q)
            assert qa.q_add(0.0, x, q) == x, (x, q)


def test_q_add_refuses_overflow_with_opposite_signs():
    # x + y overflows to +inf and (1-q) x y to -inf in floats; the exact
    # sum is about -1e924, past the float range, so it is -inf
    assert qa.q_add(1e308, 1e308, 1e308) == -math.inf
    # overflow of one sign is the infinite value it tends to
    assert qa.q_add(1e308, 1e308, 0.0) == math.inf
    assert qa.q_add(1e308, 1e308, -1e308) == math.inf


def test_q_add_keeps_a_finite_sum_of_large_summands():
    # x y alone overflows in both, the deformed sum does not
    assert qa.q_add(1e200, 1e200, 1.0) == 2e200
    s = qa.q_add(1.5e154, 1.5e154, 0.5)
    assert s == pytest.approx(1.125e308 + 3e154, rel=1e-15, abs=0)
    assert qa.q_add(1.5e154, 1.5e154, 1.5) == -s


def _exact_terms(x, y, q):
    # x, y and (1-q) x y as exact rationals
    x, y, q = Fraction(x), Fraction(y), Fraction(q)
    return x, y, (1 - q) * x * y


def test_q_add_keeps_a_finite_sum_where_one_term_overflows():
    # (1-q) x overflows in each, the deformed sum does not; against exact
    # rational arithmetic, within half an ulp of the exact sum
    eps = Fraction(sys.float_info.epsilon)
    for x, y, q in ((1e300, 1e-300, -1e20), (-1e300, 1e-300, -1e20),
                    (1e300, -1e-300, -1e20), (1e250, -1e-100, 1e100),
                    (1.7e308, 0.5, 3.0), (-1e308, 1e-12, -1e8)):
        assert not math.isfinite(x + y + (1.0 - q) * x * y)
        s = qa.q_add(x, y, q)
        assert math.isfinite(s), (x, y, q)
        exact = sum(_exact_terms(x, y, q))
        assert abs(Fraction(s) - exact) <= eps / 2 * abs(exact), \
            (x, y, q, s)
    assert qa.q_add(1e300, 1e-300, -1e20) == 1e300
    # the terms 1.7e308, 0.5 and -1.7e308 cancel to the middle one
    assert qa.q_add(1.7e308, 0.5, 3.0) == 0.5


def test_q_add_inverse_where_the_denominator_overflows():
    # 1 + (1-q) x overflows; the true inverse, about -1/(1-q), does not
    eps = Fraction(sys.float_info.epsilon)
    for x, q in ((1e200, -1e200), (1e308, -1e308), (-1e300, 1e10)):
        xin = qa.q_add_inverse(x, q)
        exact = -Fraction(x) / (1 + (1 - Fraction(q)) * Fraction(x))
        assert abs(Fraction(xin) - exact) <= 2 * eps * abs(exact), (x, q)
        # and it is an inverse: the sum vanishes to within its terms
        s = qa.q_add(x, xin, q)
        assert abs(s) <= 4 * eps * sum(map(abs, _exact_terms(x, xin, q))), \
            (x, q, s)


_MAX = Fraction(sys.float_info.max)
# half the spacing of the floats at the top of their range: a rational
# this far past the largest float rounds (ties to even) to infinity
_HALF_TOP_ULP = Fraction(2) ** 970


def _rounded(r):
    # the float nearest the rational r, or the infinity of r's sign past
    # the float range
    if abs(r) >= _MAX + _HALF_TOP_ULP:
        return math.inf if r > 0 else -math.inf
    return float(r)


def _check_exact(x, y, q):
    # q_add, product_add and q_add_inverse against the exact rationals,
    # rounded once; the inverse is refused only where its exact
    # denominator is 0
    fx, fy, fq = Fraction(x), Fraction(y), Fraction(q)
    assert qa.q_add(x, y, q) == _rounded(fx + fy + (1 - fq) * fx * fy), \
        (x, y, q)
    assert qa.product_add(x, y) == _rounded(fx + fy + fx * fy), (x, y)
    d = 1 + (1 - fq) * fx
    if d == 0:
        with pytest.raises(DomainError):
            qa.q_add_inverse(x, q)
    else:
        assert qa.q_add_inverse(x, q) == _rounded(-fx / d), (x, q)


def test_deformed_sums_are_the_exact_sums_rounded_once():
    magnitudes = [0.0, 5e-324, 1e-300, 1.0, 1.5, 1e20, 1e154, 1.5e154,
                  1e200, 1e300, 1e308, sys.float_info.max]
    grid = [s * m for m in magnitudes for s in (1.0, -1.0)]
    for x in grid:
        for y in grid:
            for q in grid:
                _check_exact(x, y, q)
    rng = np.random.default_rng(22)
    signs = rng.choice([-1.0, 1.0], (1000, 3))
    wide = signs * 10.0 ** rng.uniform(-300, 308, (1000, 3))
    for x, y, q in [*rng.uniform(-10, 10, (1000, 3)), *wide]:
        _check_exact(float(x), float(y), float(q))


def test_deformed_sums_keep_digits_where_terms_cancel():
    # the float terms cancel to 0.0 in each; 1 + y = 0 makes the first
    # two exactly -1
    assert qa.q_add(1e20, -1.0, 0.0) == -1.0
    assert qa.product_add(1e20, -1.0) == -1.0
    # M - 1 - (1 - 1e-300) M = 1e-300 M - 1
    assert qa.q_add(sys.float_info.max, -1.0, 1e-300) == 179769312.48623157
    # the exact denominator is 1e-300, not 0
    assert qa.q_add_inverse(-1.0, 1e-300) == 9.999999999999999e+299
    # a numpy float32 summand is taken at its float value
    x32 = np.float32(0.1)
    assert qa.q_add(x32, 0.2, 0.5) == qa.q_add(float(x32), 0.2, 0.5)
    assert qa.q_add(0.2, x32, 0.5) == qa.q_add(0.2, float(x32), 0.5)
    assert qa.q_add_inverse(x32, 0.5) == qa.q_add_inverse(float(x32), 0.5)


def test_q_add_inverse_refuses_non_finite():
    for x in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            qa.q_add_inverse(x, 0.5)


# ---------------------------------------------------------------------------
# products and composition

def test_product_distribution():
    assert np.allclose(qa.product_distribution([1.0], [0.3, 0.7]),
                       [0.3, 0.7])
    assert np.allclose(qa.product_distribution([0.5, 0.5], [0.5, 0.5]),
                       [0.25] * 4)
    rng = np.random.default_rng(12)
    p = rng.dirichlet(np.ones(3))
    r = rng.dirichlet(np.ones(5))
    pr = qa.product_distribution(p, r)
    assert pr.shape == (15,)
    assert pr.sum() == pytest.approx(1.0, abs=1e-12)
    # row-major order: first block is p[0] * r
    assert np.allclose(pr[:5], p[0] * r)


def test_composition_defect_examples():
    assert abs(qa.composition_defect([0.5, 0.5], [0.5, 0.5], 2.0)) < 1e-12
    rng = np.random.default_rng(13)
    p = rng.dirichlet(np.ones(3))
    r = rng.dirichlet(np.ones(4))
    assert abs(qa.composition_defect(p, r, 1.0)) < 1e-12  # BGS additivity
    assert abs(qa.composition_defect(p, r, 0.7)) < 1e-10
    # each factor passes the 1e-12 sum check; their product is formed from
    # the validated factors, not checked again against that tolerance
    edge = [0.5, 0.5 + 0.9e-12]
    assert abs(qa.composition_defect(edge, edge, 2.0)) < 1e-10


def test_composition_defect_fuzz():
    rng = np.random.default_rng(14)
    for _ in range(300):
        p = rng.dirichlet(np.ones(rng.integers(2, 6)))
        r = rng.dirichlet(np.ones(rng.integers(2, 6)))
        q = rng.uniform(0.2, 3.0)
        assert abs(qa.composition_defect(p, r, q)) < 1e-10


def test_rescaled_composition_rule():
    rng = np.random.default_rng(15)
    for _ in range(200):
        p = rng.dirichlet(np.ones(rng.integers(2, 6)))
        r = rng.dirichlet(np.ones(rng.integers(2, 6)))
        q = rng.uniform(0.2, 3.0)
        lhs = qa.rescaled_entropy(qa.product_distribution(p, r), q)
        rhs = qa.product_add(qa.rescaled_entropy(p, q),
                             qa.rescaled_entropy(r, q))
        assert lhs == pytest.approx(rhs, abs=1e-10)


# ---------------------------------------------------------------------------
# Jackson quotient

def test_jackson_quotient_symbolic():
    # f(x) = x^3 at x = 2: quotient is (t^3 - 1) * 8 / ((t - 1) * 2)
    f = lambda x: x ** 3
    for t in (1.5, 1.1, 0.9, 2.0):
        expected = (t ** 3 - 1.0) * 8.0 / ((t - 1.0) * 2.0)
        assert qa.jackson_quotient(f, 2.0, t) == \
            pytest.approx(expected, rel=1e-13, abs=0)


def test_jackson_derivative_errors():
    # the quotient is degenerate at x = 0 and undefined at t = 1
    with pytest.raises(DomainError, match="x = 0"):
        qa.jackson_quotient(lambda x: x, 0.0, 1.5)
    with pytest.raises(DomainError, match="t != 1"):
        qa.jackson_quotient(lambda x: x, 2.0, 1.0)


def test_jackson_quotient_of_moment_function_is_minus_tsallis():
    # the quotient of g(x) = sum p^x at x = 1 with t = q is exactly -S_q
    rng = np.random.default_rng(63)
    for _ in range(20):
        p = rng.dirichlet(np.ones(4))
        q = rng.uniform(0.3, 2.5)
        if abs(q - 1.0) < 1e-3:
            continue
        g = lambda x: float(np.sum(p ** x))
        assert -qa.jackson_quotient(g, 1.0, q) == \
            pytest.approx(qa.tsallis_entropy(p, q), rel=1e-9)


# ---------------------------------------------------------------------------
# quotient form of the entropy

def test_abe_equals_tsallis_exactly():
    rng = np.random.default_rng(16)
    for _ in range(400):
        p = rng.dirichlet(np.ones(rng.integers(2, 7)))
        q = rng.uniform(0.2, 3.0)
        s = qa.tsallis_entropy(p, q)
        a = qa.abe_entropy(p, q)
        assert abs(a - s) <= 1e-13 * max(1.0, abs(s))


def test_abe_examples():
    assert qa.abe_entropy([0.5, 0.5], 2.0) == pytest.approx(0.5, abs=1e-14)
    for q in (0.5, 2.0, 3.0):
        assert qa.abe_entropy([1.0, 0.0], q) == 0.0


def test_abe_is_the_quotient_of_the_moment_function():
    # independent route: the literal quotient of g(x) = sum p^x at x = 1
    p = np.array([0.2, 0.3, 0.5])
    g = lambda x: float(np.sum(p ** x))
    for q in (0.4, 2.0, 2.7):
        assert qa.abe_entropy(p, q) == \
            pytest.approx(-qa.jackson_quotient(g, 1.0, q), rel=1e-11)


def test_abe_bgs_matches_bgs():
    # inside the BGS window the quotient form is its exact q -> 1 limit
    rng = np.random.default_rng(17)
    for _ in range(50):
        p = rng.dirichlet(np.ones(4))
        for q in (1.0, 1.0 + 5e-9, 1.0 - 5e-9):
            assert qa.abe_entropy(p, q) == qa.bgs_entropy(p)
    assert qa.abe_entropy([0.2, 0.8], 1.0) == direct_bgs([0.2, 0.8])


# ---------------------------------------------------------------------------
# rows: a 2-D array is a stack of distributions

def _rows_with_zeros_and_window(rng, n, k=24):
    # k rows of length n, every third with a zero weight when n > 1; q
    # per row, with rows at q = 1 and inside the BGS window
    p = rng.dirichlet(np.ones(n), size=k)
    if n > 1:
        p[::3, 0] = 0.0
        p /= p.sum(axis=1, keepdims=True)
    p = p[np.abs(p.sum(axis=1) - 1.0) <= qa.SUM_TOL]
    q = rng.uniform(0.2, 3.0, len(p))
    q[::4] = 1.0
    q[1::5] = 1.0 + 1e-9
    return p, q


def test_rows_equal_their_one_dimensional_calls():
    rng = np.random.default_rng(18)
    for n in (1, 2, 5, 8, 13, 36):
        p, q = _rows_with_zeros_and_window(rng, n)
        r = rng.dirichlet(np.ones(3), size=len(p))
        calls = [(qa.tsallis_entropy, (p, q)), (qa.tsallis_entropy, (p, 2.5)),
                 (qa.abe_entropy, (p, q)), (qa.rescaled_entropy, (p, q)),
                 (qa.bgs_entropy, (p,)),
                 (qa.composition_defect, (p, r, q)),
                 (qa.product_distribution, (p, r))]
        for fn, args in calls:
            rows = fn(*args)
            assert len(rows) == len(p)
            for i, row in enumerate(rows):
                one = fn(*(a[i] if np.ndim(a) else a for a in args))
                # bit for bit, not approximately
                assert np.array_equal(row, one), (fn.__name__, n, i)
                assert type(one) is (float if np.ndim(row) == 0
                                     else np.ndarray)


def test_one_dimensional_values_are_the_compacted_sums():
    # without zero weights a 1-D value is the sum over the weights as
    # the per-distribution formula forms it, to the last bit
    rng = np.random.default_rng(19)
    for _ in range(300):
        p = rng.dirichlet(np.ones(rng.integers(1, 40)))
        q = rng.uniform(0.2, 3.0)
        s = -float(np.sum(p * np.expm1((q - 1.0) * np.log(p)))) / (q - 1.0)
        assert qa.tsallis_entropy(p, q) == s
        assert qa.bgs_entropy(p) == float(-np.sum(p * np.log(p)))


def test_row_refusals():
    ok = [0.5, 0.5]
    with pytest.raises(DomainError, match="row 1"):
        qa.tsallis_entropy([ok, [1.0, 0.0]], [2.0, -0.5])
    # the same zero weight at a positive q of its own row is fine
    assert list(qa.tsallis_entropy([ok, [1.0, 0.0]], [-0.5, 2.0])) == \
        [qa.tsallis_entropy(ok, -0.5), 0.0]
    for off in (1e-9, -1e-9):
        with pytest.raises(DomainError, match="row 1: weights sum to"):
            qa.as_distribution([ok, [0.5, 0.5 + off]])
        with pytest.raises(DomainError, match="row 1"):
            qa.composition_defect([ok, ok], [ok, [0.5, 0.5 + off]], 2.0)
    with pytest.raises(DomainError, match="row 0: cannot renormalize"):
        qa.as_distribution([[0.0, 0.0], ok], renormalize=True)
    with pytest.raises(DomainError, match="one per row"):
        qa.tsallis_entropy([ok, ok], [2.0, 2.0, 2.0])
    with pytest.raises(DomainError, match="one per row"):
        qa.tsallis_entropy(ok, [2.0])
    with pytest.raises(DomainError, match="finite"):
        qa.abe_entropy([ok, ok], [2.0, math.nan])
    with pytest.raises(DomainError, match="equally many rows"):
        qa.composition_defect([ok, ok], [ok], 2.0)
