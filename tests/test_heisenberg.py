import numpy as np
import pytest

from carnot_lab import heisenberg as hg
from carnot_lab import qalgebra as qa


def dense(g):
    """Independent oracle: the actual 3x3 array of a matrix element."""
    return np.array([[1.0, g.a, g.b],
                     [0.0, 1.0, g.c],
                     [0.0, 0.0, 1.0]])


def from_dense(m):
    assert np.allclose(np.tril(m, -1), 0.0) and np.allclose(np.diag(m), 1.0)
    return hg.HeisMatrix(m[0, 1], m[1, 2], m[0, 2])


def rand_matrix(rng):
    return hg.HeisMatrix(*rng.uniform(-3, 3, 3))


def rand_point(rng):
    return hg.HeisPoint(*rng.uniform(-3, 3, 3))


# ---------------------------------------------------------------------------
# matrix coordinates against the dense oracle

def test_scalar_embed():
    assert hg.scalar_embed(0.0) == hg.IDENTITY
    assert hg.scalar_embed(1.0) == hg.HeisMatrix(1.0, 1.0, 1.0)
    assert hg.scalar_embed(2.0) != hg.scalar_embed(3.0)


def test_mul_against_dense():
    assert hg.mul(hg.scalar_embed(1.0), hg.scalar_embed(1.0)) == \
        hg.HeisMatrix(2.0, 2.0, 3.0)
    rng = np.random.default_rng(21)
    for _ in range(300):
        g1, g2 = rand_matrix(rng), rand_matrix(rng)
        expect = from_dense(dense(g1) @ dense(g2))
        got = hg.mul(g1, g2)
        assert np.allclose(got, expect, atol=1e-13)
        assert hg.mul(g1, hg.IDENTITY) == g1


def test_embedded_product_carries_deformed_sum():
    rng = np.random.default_rng(22)
    for _ in range(100):
        x, y = rng.uniform(-2, 2, 2)
        prod = hg.mul(hg.scalar_embed(x), hg.scalar_embed(y))
        assert prod.a == pytest.approx(x + y, abs=1e-14)
        assert prod.c == pytest.approx(x + y, abs=1e-14)
        assert prod.b == pytest.approx(qa.product_add(x, y), abs=1e-13)


def test_inverse():
    rng = np.random.default_rng(23)
    for _ in range(100):
        x = rng.uniform(-2, 2)
        assert hg.inv(hg.scalar_embed(x)) == hg.HeisMatrix(-x, -x, x * x - x)
        g = rand_matrix(rng)
        assert np.allclose(hg.mul(g, hg.inv(g)), hg.IDENTITY, atol=1e-13)
        assert np.allclose(hg.inv(hg.inv(g)), g, atol=1e-13)
        assert np.allclose(np.linalg.inv(dense(g)), dense(hg.inv(g)),
                           atol=1e-12)
    assert hg.inv(hg.IDENTITY) == hg.IDENTITY


def test_commutator_against_dense():
    e1 = hg.HeisMatrix(1.0, 0.0, 0.0)
    e2 = hg.HeisMatrix(0.0, 1.0, 0.0)
    assert hg.commutator(e1, e2) == hg.HeisMatrix(0.0, 0.0, 1.0)
    rng = np.random.default_rng(24)
    for _ in range(200):
        g1, g2 = rand_matrix(rng), rand_matrix(rng)
        d = dense(g1) @ dense(g2) @ np.linalg.inv(dense(g1)) \
            @ np.linalg.inv(dense(g2))
        got = hg.commutator(g1, g2)
        assert np.allclose(dense(got), d, atol=1e-12)
        assert got.a == 0.0 and got.c == 0.0  # central
        assert hg.commutator(g1, g1) == hg.IDENTITY


def test_embedded_commutator_is_identity():
    # the off-diagonal entries of an embedded scalar coincide, so the
    # central entry a1*c2 - c1*a2 cancels; dense arithmetic agrees
    # (discrepancy entry embed-commutator-central-entry)
    rng = np.random.default_rng(25)
    for _ in range(200):
        x, y = rng.uniform(-3, 3, 2)
        sx, sy = hg.scalar_embed(x), hg.scalar_embed(y)
        assert hg.commutator(sx, sy) == hg.IDENTITY
        d = dense(sx) @ dense(sy) @ np.linalg.inv(dense(sx)) \
            @ np.linalg.inv(dense(sy))
        assert np.allclose(d, np.eye(3), atol=1e-13)


def test_two_step_nilpotency():
    rng = np.random.default_rng(26)
    ints = rng.integers(-30, 31, (500, 9))
    for row in ints:
        g1 = hg.HeisMatrix(*(int(v) for v in row[:3]))
        g2 = hg.HeisMatrix(*(int(v) for v in row[3:6]))
        g3 = hg.HeisMatrix(*(int(v) for v in row[6:9]))
        assert hg.double_commutator_check(g1, g2, g3)
    assert hg.double_commutator_check(hg.IDENTITY, hg.IDENTITY, hg.IDENTITY)


def test_laws_on_coordinate_columns_equal_per_row_results():
    # the laws are elementwise: one call on columns gives, bit for bit,
    # what the per-row calls give
    rows = np.random.default_rng(34).uniform(-3, 3, (500, 6))
    cols = rows.T
    M, P, V = hg.HeisMatrix, hg.HeisPoint, hg.LieVector
    cases = [(hg.mul, (M, M)), (hg.inv, (M,)), (hg.commutator, (M, M)),
             (hg.exp_mul, (P, P)), (hg.exp_inv, (P,)),
             (hg.point_to_matrix, (P,)), (hg.matrix_to_point, (M,)),
             (hg.exp_map, (V,)), (hg.log_map, (M,)),
             (hg.lie_bracket, (V, V))]
    for law, kinds in cases:
        batch = law(*(kind(*cols[3 * i:3 * i + 3])
                      for i, kind in enumerate(kinds)))
        per_row = [law(*(kind(*row[3 * i:3 * i + 3])
                         for i, kind in enumerate(kinds)))
                   for row in rows]
        assert type(batch) is type(per_row[0]), law.__name__
        for k, column in enumerate(batch):
            expected = np.array([r[k] for r in per_row])
            assert np.all(np.broadcast_to(column, expected.shape)
                          == expected), (law.__name__, k)
    batch = hg.scalar_embed(cols[0])
    for k, column in enumerate(batch):
        assert np.all(column == np.array([hg.scalar_embed(x)[k]
                                          for x in rows[:, 0]]))


def test_double_commutator_check_on_a_batch_is_one_bool():
    ints = np.random.default_rng(35).integers(-30, 31, (500, 9)).T
    batch = [hg.HeisMatrix(*ints[k:k + 3]) for k in (0, 3, 6)]
    assert hg.double_commutator_check(*batch) is True
    # one element with an infinite entry is not the identity
    floats = [hg.HeisMatrix(*(c.astype(float) for c in g)) for g in batch]
    floats[2].a[7] = np.inf
    with np.errstate(invalid="ignore"):
        assert hg.double_commutator_check(*floats) is False


def test_associativity():
    rng = np.random.default_rng(27)
    for _ in range(300):
        g1, g2, g3 = (rand_matrix(rng) for _ in range(3))
        left = hg.mul(hg.mul(g1, g2), g3)
        right = hg.mul(g1, hg.mul(g2, g3))
        assert np.allclose(left, right, atol=1e-12)


# ---------------------------------------------------------------------------
# exponential coordinates

def test_exp_mul_examples():
    assert hg.exp_mul(hg.HeisPoint(1, 0, 0), hg.HeisPoint(0, 1, 0)) == \
        hg.HeisPoint(1.0, 1.0, 0.5)
    p = hg.HeisPoint(0.3, -0.7, 1.1)
    assert hg.exp_mul(p, hg.ORIGIN) == p
    assert np.allclose(hg.exp_mul(p, hg.exp_inv(p)), hg.ORIGIN, atol=1e-15)


def test_exp_mul_associativity():
    rng = np.random.default_rng(28)
    for _ in range(300):
        p1, p2, p3 = (rand_point(rng) for _ in range(3))
        left = hg.exp_mul(hg.exp_mul(p1, p2), p3)
        right = hg.exp_mul(p1, hg.exp_mul(p2, p3))
        assert np.allclose(left, right, atol=1e-12)


def test_point_matrix_isomorphism():
    assert hg.point_to_matrix(hg.ORIGIN) == hg.IDENTITY
    assert hg.point_to_matrix(hg.HeisPoint(1, 1, 0)) == \
        hg.HeisMatrix(1.0, 1.0, 0.5)
    rng = np.random.default_rng(29)
    for _ in range(1000):
        p1, p2 = rand_point(rng), rand_point(rng)
        lhs = hg.point_to_matrix(hg.exp_mul(p1, p2))
        rhs = hg.mul(hg.point_to_matrix(p1), hg.point_to_matrix(p2))
        assert np.allclose(lhs, rhs, atol=1e-12)
        assert np.allclose(hg.matrix_to_point(hg.point_to_matrix(p1)), p1,
                           atol=1e-14)
        g = rand_matrix(rng)
        assert np.allclose(hg.point_to_matrix(hg.matrix_to_point(g)), g,
                           atol=1e-14)


# ---------------------------------------------------------------------------
# Lie algebra

def test_lie_bracket_basis():
    X = hg.LieVector(1, 0, 0)
    Y = hg.LieVector(0, 1, 0)
    Z = hg.LieVector(0, 0, 1)
    assert hg.lie_bracket(X, Y) == hg.LieVector(0, 0, 1)
    assert hg.lie_bracket(Y, X) == hg.LieVector(0, 0, -1)
    assert hg.lie_bracket(X, X) == hg.LieVector(0, 0, 0)
    assert hg.lie_bracket(X, Z) == hg.lie_bracket(Y, Z) == \
        hg.LieVector(0, 0, 0)


def test_lie_bracket_matches_dense():
    def dense_n(v):
        return np.array([[0.0, v.alpha, v.gamma],
                         [0.0, 0.0, v.beta],
                         [0.0, 0.0, 0.0]])

    rng = np.random.default_rng(30)
    for _ in range(200):
        v1 = hg.LieVector(*rng.uniform(-2, 2, 3))
        v2 = hg.LieVector(*rng.uniform(-2, 2, 3))
        d = dense_n(v1) @ dense_n(v2) - dense_n(v2) @ dense_n(v1)
        assert np.allclose(dense_n(hg.lie_bracket(v1, v2)), d, atol=1e-13)


def test_exp_log_maps():
    assert hg.exp_map(hg.LieVector(0, 0, 0)) == hg.IDENTITY
    assert hg.exp_map(hg.LieVector(1, 1, 0)) == hg.HeisMatrix(1.0, 1.0, 0.5)

    # truncated series oracle: N^3 = 0 so exp N = I + N + N^2/2 exactly
    def dense_exp(v):
        N = np.array([[0.0, v.alpha, v.gamma],
                      [0.0, 0.0, v.beta],
                      [0.0, 0.0, 0.0]])
        return np.eye(3) + N + 0.5 * (N @ N)

    rng = np.random.default_rng(31)
    for _ in range(300):
        v = hg.LieVector(*rng.uniform(-2, 2, 3))
        g = hg.exp_map(v)
        assert np.allclose(dense(g), dense_exp(v), atol=1e-14)
        assert np.allclose(hg.log_map(g), v, atol=1e-14)
        m = rand_matrix(rng)
        assert np.allclose(hg.exp_map(hg.log_map(m)), m, atol=1e-14)


# ---------------------------------------------------------------------------
# left translations

def test_left_translate_formula():
    rng = np.random.default_rng(32)
    g = hg.HeisPoint(*rng.uniform(-2, 2, 3))
    p = hg.HeisPoint(*rng.uniform(-2, 2, 3))
    moved = hg.left_translate(g, p)
    assert moved.x == pytest.approx(g.x + p.x)
    assert moved.y == pytest.approx(g.y + p.y)
    assert moved.z == pytest.approx(g.z + p.z + 0.5 * (g.x * p.y - g.y * p.x))
    assert hg.left_translate(hg.ORIGIN, p) == p


def test_left_jacobian():
    assert np.allclose(hg.left_jacobian(hg.ORIGIN), np.eye(3))
    rng = np.random.default_rng(33)
    for _ in range(100):
        g = rand_point(rng)
        J = hg.left_jacobian(g)
        assert np.linalg.det(J) == pytest.approx(1.0, abs=1e-14)
        # finite-difference oracle for the differential of p -> g*p
        p = rand_point(rng)
        h = 1e-6
        cols = []
        for e in np.eye(3):
            plus = hg.left_translate(g, hg.HeisPoint(*(np.array(p) + h * e)))
            minus = hg.left_translate(g, hg.HeisPoint(*(np.array(p) - h * e)))
            cols.append((np.array(plus) - np.array(minus)) / (2 * h))
        assert np.allclose(np.column_stack(cols), J, atol=1e-9)


def test_left_jacobian_on_columns_is_one_per_element():
    cols = np.random.default_rng(34).uniform(-3, 3, (3, 50))
    J = hg.left_jacobian(hg.HeisPoint(*cols))
    assert J.shape == (50, 3, 3)
    for k in range(50):
        one = hg.left_jacobian(hg.HeisPoint(*cols[:, k]))
        assert np.array_equal(J[k], one)


# ---------------------------------------------------------------------------
# Abelian comparison group

def test_abelian_group():
    u, v = (1.0, 2.0, 3.0), (-0.5, 1.5, 2.5)
    assert hg.abelian_mul(u, v) == (0.5, 3.5, 5.5)
    assert hg.abelian_mul(u, hg.abelian_inv(u)) == (0.0, 0.0, 0.0)
    assert hg.abelian_commutator(u, v) == (0.0, 0.0, 0.0)
    assert hg.abelian_bracket(hg.LieVector(1, 0, 0),
                              hg.LieVector(0, 1, 0)) == \
        hg.LieVector(0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# JSON forms

def test_element_json_roundtrip():
    # the NamedTuple fields are the JSON keys
    for el in (hg.HeisMatrix(1.0, -2.0, 0.5), hg.HeisPoint(0.1, 0.2, 0.3),
               hg.LieVector(-1.5, 0.25, 4.0)):
        back = hg.element_from_json(el._asdict())
        assert type(back) is type(el) and back == el
    v = hg.element_from_json({"alpha": 1, "beta": 2, "gamma": 3})
    assert v == hg.LieVector(1.0, 2.0, 3.0)
    with pytest.raises(ValueError):
        hg.element_from_json({"a": 1, "b": 2})
