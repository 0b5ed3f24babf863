"""Release-gate checks, runnable both from pytest and from the CLI.

Each criterion function returns a record with deterministic detail
numbers (given the master seed); nothing time-dependent lands in the
record, so a verification bundle is byte-reproducible. Samples are drawn
in blocks, each stream in an order the seed fixes, and checked on whole
arrays. Oracles used here (dense 3x3 matrix products, central finite
differences, breadth-first lattice searches) are deliberately independent
of the code paths they check.
"""

from __future__ import annotations

import math

import numpy as np

from . import distance, geometry, growth, heisenberg, pansu, qalgebra

DEFAULT_SEED = 20250811


def _rng(seed, criterion):
    return np.random.default_rng([seed, criterion])


def _dirichlet_classes(rng, lengths):
    """Dirichlet(1) blocks for a (k, m) array of lengths, one length
    class at a time: for each distinct row of lengths, in ascending
    order, yields the indices of its rows and one block per column,
    drawn column by column with `rng.dirichlet(np.ones(n), size=...)`.
    A block consumes the stream as its rows drawn one by one would."""
    for key in np.unique(lengths, axis=0):
        rows = np.flatnonzero(np.all(lengths == key, axis=1))
        yield rows, [rng.dirichlet(np.ones(n), size=len(rows)) for n in key]


def _record(cid, name, passed, detail):
    return {"id": cid, "name": name, "passed": bool(passed),
            "detail": detail}


# ---------------------------------------------------------------------------
# Criteria 1-3 draw every length, then every q, then the Dirichlet(1)
# weights one block per length class, and evaluate each block in one call
# on rows.

def criterion_composition(seed=DEFAULT_SEED):
    """1: deformed-sum composition of the entropy over products."""
    rng = _rng(seed, 1)
    lengths = rng.integers(2, 7, (1000, 2))
    qs = rng.uniform(0.2, 3.0, 1000)
    worst = max(
        float(np.max(np.abs(qalgebra.composition_defect(p, r, qs[rows]))))
        for rows, (p, r) in _dirichlet_classes(rng, lengths))
    return _record(1, "q-composition identity", worst < 1e-10,
                   {"max_defect": worst, "tolerance": 1e-10, "samples": 1000})


def _quotient_bound(g_q, n):
    """Relative rounding bound of the quotient -(g(q) - g(1)) / (q - 1)
    over n weights, given g(q): each sum g rounds within (n + 2) eps of
    its terms' total, the difference magnifies that by (g(q) + 1) /
    |g(q) - 1|, and the subtraction, q - 1 and the division add 4 eps."""
    eps = np.finfo(float).eps
    return (n + 2) * eps * (g_q + 1.0) / np.abs(g_q - 1.0) + 4.0 * eps


def criterion_abe_identity(seed=DEFAULT_SEED):
    """2: Abe's quotient form -(g(q) - g(1)) / (q - 1), g(x) = sum p_i^x,
    equals the direct form S_q within the quotient's rounding bound."""
    rng = _rng(seed, 2)
    lengths = rng.integers(2, 7, (1000, 1))
    qs = rng.uniform(0.2, 3.0, 1000)
    worst = worst_ratio = 0.0
    for rows, (p,) in _dirichlet_classes(rng, lengths):
        q = qs[rows]
        s = qalgebra.tsallis_entropy(p, q)
        g_q = np.sum(p ** q[:, None], axis=-1)
        a = -(g_q - np.sum(p, axis=-1)) / (q - 1.0)
        rel = np.abs(a - s) / np.maximum(np.abs(s), 1e-300)
        worst = max(worst, float(np.max(rel)))
        ratio = rel / _quotient_bound(g_q, p.shape[-1])
        worst_ratio = max(worst_ratio, float(np.max(ratio)))
    return _record(2, "Abe identity", worst_ratio <= 1.0,
                   {"max_rel_diff": worst, "max_diff_to_bound": worst_ratio,
                    "samples": 1000})


def criterion_bgs_limit(seed=DEFAULT_SEED):
    """3: first-order approach of S_q to the BGS entropy as q -> 1."""
    rng = _rng(seed, 3)
    h = 1e-4
    worst_margin = -np.inf
    ok = True
    for _, (p,) in _dirichlet_classes(rng, rng.integers(2, 7, (100, 1))):
        # Dirichlet(1) weights are positive, so every log is finite
        curvature = np.abs(np.sum(p * np.log(p) ** 2, axis=-1))
        gap = np.abs(qalgebra.tsallis_entropy(p, 1.0 + h)
                     - qalgebra.bgs_entropy(p))
        bound = 5.0 * h * curvature
        ok = ok and bool(np.all(gap <= bound))
        worst_margin = max(worst_margin, float(np.max(gap - bound)))
    return _record(3, "BGS limit", ok,
                   {"h": h, "max_gap_minus_bound": float(worst_margin),
                    "dists": 100})


def _max_gap(u, v):
    # largest |u_k - v_k| over the components and elements of two batches
    return max(float(np.max(np.abs(a - b))) for a, b in zip(u, v))


def criterion_group_exactness(seed=DEFAULT_SEED):
    """4: associativity, inverses, the coordinate isomorphism, exp/log.

    The laws are elementwise, so each runs once on coordinate columns.
    """
    rng = _rng(seed, 4)
    n = 10_000
    cols = rng.uniform(-2.0, 2.0, (n, 9)).T
    g1 = heisenberg.HeisMatrix(*cols[0:3])
    g2 = heisenberg.HeisMatrix(*cols[3:6])
    g3 = heisenberg.HeisMatrix(*cols[6:9])
    left = heisenberg.mul(heisenberg.mul(g1, g2), g3)
    right = heisenberg.mul(g1, heisenberg.mul(g2, g3))
    gi = heisenberg.mul(g1, heisenberg.inv(g1))
    p1 = heisenberg.HeisPoint(*cols[0:3])
    p2 = heisenberg.HeisPoint(*cols[3:6])
    m1 = heisenberg.point_to_matrix(heisenberg.exp_mul(p1, p2))
    m2 = heisenberg.mul(heisenberg.point_to_matrix(p1),
                        heisenberg.point_to_matrix(p2))
    v = heisenberg.LieVector(*cols[6:9])
    back = heisenberg.log_map(heisenberg.exp_map(v))
    worst = {"assoc": _max_gap(left, right),
             "inverse": _max_gap(gi, heisenberg.IDENTITY),
             "iso": _max_gap(m1, m2),
             "explog": _max_gap(v, back)}
    ints = _rng(seed, 41).integers(-50, 51, (2000, 9)).T
    nilpotent = heisenberg.double_commutator_check(
        heisenberg.HeisMatrix(*ints[0:3]), heisenberg.HeisMatrix(*ints[3:6]),
        heisenberg.HeisMatrix(*ints[6:9]))
    passed = max(worst.values()) < 1e-12 and nilpotent
    detail = dict(worst)
    detail.update({"tolerance": 1e-12, "elements": n,
                   "double_commutators_trivial": nilpotent})
    return _record(4, "group exactness", passed, detail)


def criterion_commutator_oracle(seed=DEFAULT_SEED):
    """5: the commutator of two scalar embeddings is the identity.

    Checked against dense 3x3 products with one LAPACK inverse, as
    [x, y] = x y x^-1 y^-1 = (x y) (y x)^-1; the record
    also quantifies how far the '-2xy central entry' variant (see
    discrepancy entry embed-commutator-central-entry) is from what the
    matrices actually do.
    """
    rng = _rng(seed, 5)
    n = 10_000
    xs = rng.uniform(-3.0, 3.0, n)
    ys = rng.uniform(-3.0, 3.0, n)

    def stack_embed(vals):
        m = np.tile(np.eye(3), (len(vals), 1, 1))
        m[:, 0, 1] = vals
        m[:, 0, 2] = vals
        m[:, 1, 2] = vals
        return m

    sx = stack_embed(xs)
    sy = stack_embed(ys)
    comm = sx @ sy @ np.linalg.inv(sy @ sx)
    worst = float(np.max(np.abs(comm - np.eye(3))))
    claim_gap = float(np.max(np.abs(-2.0 * xs * ys - comm[:, 0, 2])))
    fast = heisenberg.commutator(heisenberg.scalar_embed(xs),
                                 heisenberg.scalar_embed(ys))
    worst = max(worst, _max_gap(fast, heisenberg.IDENTITY))
    passed = worst < 1e-10 and claim_gap > 1.0
    return _record(5, "embed commutator oracle", passed,
                   {"max_identity_deviation": worst,
                    "max_claimed_entry_gap": claim_gap,
                    "pairs": 10_000})


def criterion_left_invariance(seed=DEFAULT_SEED):
    """6: frame pushforward identity and distance left-invariance."""
    rng = _rng(seed, 6)
    # the 1,000 (g, p) pairs as coordinate columns, drawn in one block
    pairs = rng.uniform(-3, 3, (1000, 2, 3))
    g = heisenberg.HeisPoint(*pairs[:, 0].T)
    p = heisenberg.HeisPoint(*pairs[:, 1].T)
    here = np.stack(geometry.frame_at(p), axis=-1)
    there = np.stack(geometry.frame_at(heisenberg.left_translate(g, p)),
                     axis=-1)
    # the pushforward of each frame field by each Jacobian, in one product
    pushed = heisenberg.left_jacobian(g) @ here
    worst_frame = float(np.max(np.abs(pushed - there)))
    tol = distance.DEFAULT_ENDPOINT_TOL
    worst_dist = 0.0
    for _ in range(50):
        a = heisenberg.HeisPoint(*rng.uniform(-1.5, 1.5, 3))
        b = heisenberg.HeisPoint(*rng.uniform(-1.5, 1.5, 3))
        g = heisenberg.HeisPoint(*rng.uniform(-1.5, 1.5, 3))
        d0 = distance.cc_distance(a, b).value
        d1 = distance.cc_distance(heisenberg.exp_mul(g, a),
                                  heisenberg.exp_mul(g, b)).value
        worst_dist = max(worst_dist, abs(d1 - d0))
    passed = worst_frame < 1e-12 and worst_dist < 2 * tol
    return _record(6, "left invariance", passed,
                   {"max_frame_gap": worst_frame,
                    "max_distance_gap": worst_dist,
                    "distance_tolerance": 2 * tol})


def criterion_holonomy(seed=DEFAULT_SEED):
    """7: loop holonomy equals enclosed signed area."""
    theta = np.linspace(0.0, 2.0 * np.pi, 10_001)
    circle = np.column_stack([np.cos(theta), np.sin(theta)])
    circle[-1] = circle[0]
    circle_gap = abs(geometry.holonomy(circle) - math.pi)
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                       [0.0, 0.0]])
    square_gap = abs(geometry.holonomy(square) - 1.0)
    passed = circle_gap < 1e-5 and square_gap < 1e-9
    return _record(7, "holonomy equals area", passed,
                   {"circle_gap": circle_gap, "square_gap": square_gap})


def criterion_distance_anchors(seed=DEFAULT_SEED):
    """8: the two analytically forced distance values.

    The record also gives the vertical value's gap to the Zenodorus form
    sqrt(4 n tan(pi / n)) of its n-slot polygon; the pass rule does not
    use it."""
    origin = heisenberg.HeisPoint(0.0, 0.0, 0.0)
    horizontal = distance.cc_distance(origin,
                                      heisenberg.HeisPoint(1.0, 0.0, 0.0))
    vertical = distance.cc_distance(origin,
                                    heisenberg.HeisPoint(0.0, 0.0, 1.0))
    iso = 2.0 * math.sqrt(math.pi)
    n = vertical.segments
    zenodorus = math.sqrt(4.0 * n * math.tan(math.pi / n))
    gap1 = abs(horizontal.value - 1.0)
    gap2 = abs(vertical.value - iso)
    lower_ok = vertical.lower >= iso - 1e-12
    passed = gap1 < 1e-3 and gap2 < 2e-2 and lower_ok
    return _record(8, "distance anchors", passed,
                   {"horizontal_gap": gap1, "vertical_gap": gap2,
                    "vertical_lower": vertical.lower,
                    "isoperimetric_value": iso,
                    "zenodorus_gap": abs(vertical.value - zenodorus)})


def criterion_dilation_homogeneity(seed=DEFAULT_SEED):
    """9: linear scaling of the distance under graded dilations."""
    rng = _rng(seed, 9)
    tol = distance.DEFAULT_ENDPOINT_TOL
    worst = 0.0
    for _ in range(20):
        a = heisenberg.HeisPoint(*rng.uniform(-1.5, 1.5, 3))
        b = heisenberg.HeisPoint(*rng.uniform(-1.5, 1.5, 3))
        d0 = distance.cc_distance(a, b).value
        for t in (0.5, 2.0, 4.0):
            dt = distance.cc_distance(geometry.dilate(a, t),
                                      geometry.dilate(b, t)).value
            worst = max(worst, abs(dt - t * d0) / t)
    return _record(9, "dilation homogeneity", worst < 3 * tol,
                   {"max_scaled_gap": worst, "tolerance": 3 * tol,
                    "pairs": 20})


def criterion_volume_scaling(seed=DEFAULT_SEED):
    """10: Monte Carlo ball-volume exponents (3 Euclidean, 4 horizontal)."""
    eu = distance.ball_volume_fit("euclidean", [1.0, 2.0, 4.0], 100_000,
                                  seed=seed + 10)
    cc = distance.ball_volume_fit("cc", [0.5, 1.0, 2.0], 100_000,
                                  seed=seed + 11)
    passed = abs(eu.exponent - 3.0) <= 0.1 and abs(cc.exponent - 4.0) <= 0.3
    return _record(10, "volume scaling", passed,
                   {"euclidean_exponent": eu.exponent,
                    "cc_exponent": cc.exponent, "samples": 100_000})


def criterion_pansu_diagonal(seed=DEFAULT_SEED):
    """11: diagonal blow-up derivative equals central finite differences."""
    rng = _rng(seed, 11)
    coeffs = [np.array([0.0, 0.0, 1.0]),          # x^2
              np.array([1.0, -2.0, 0.5, 0.25])]   # generic cubic
    worst = 0.0
    for _ in range(20):
        base = tuple(rng.uniform(-2.0, 2.0, 3))
        cs = coeffs[int(rng.integers(0, len(coeffs)))]

        def fn(x, rev=tuple(float(c) for c in cs[::-1])):
            # the central differences' reference: Horner's rule on floats
            y = 0.0
            x = float(x)
            for c in rev:
                y = y * x + c
            return y

        gmap = pansu.GroupMap("abelian_to_abelian",
                              np.polynomial.Polynomial(cs))
        matrix = pansu.pansu_derivative(gmap, base)
        h = 1e-6
        fd = np.diag([(fn(b + h) - fn(b - h)) / (2 * h) for b in base])
        worst = max(worst, float(np.max(np.abs(matrix - fd))))
    return _record(11, "diagonal blow-up derivative", worst < 1e-6,
                   {"max_gap": worst, "bases": 20, "tolerance": 1e-6})


def criterion_discrete_growth(seed=DEFAULT_SEED):
    """12: lattice ball counts, growth degrees, generator robustness.

    The standard sets' balls come in closed form; each is checked
    against a breadth-first search: heis_Z's against the search the
    robustness report runs for the standard set, to r = 22, and Z^3's
    octahedral counts against a search to r = 40.
    """
    heis_std = growth.STANDARD_GENERATORS["heis_Z"]
    z3_std = growth.STANDARD_GENERATORS["z3"]
    heis_table = growth.word_ball("heis_Z", heis_std, 30)
    first = heis_table.counts[:3] == (1, 5, 17)
    d_heis, _, _ = growth.growth_fit(heis_table, 10, 30)

    z3_table = growth.word_ball("z3", z3_std, 40)
    z3_exact = z3_table.counts == growth._search_ball("z3", z3_std, 40).counts
    d_z3, _, _ = growth.growth_fit(z3_table, 10, 40)

    report = growth.generator_robustness(
        "heis_Z", heis_std, (growth.T1, growth.T2, (1, 1, 1)), 22)
    searched = report.tables[0].counts
    heis_exact = heis_table.counts[:len(searched)] == searched

    passed = (first and heis_exact and abs(d_heis - 4.0) <= 0.25
              and z3_exact and abs(d_z3 - 3.0) <= 0.1
              and report.exponent_gap <= 0.3 and report.coverage_ok)
    return _record(12, "discrete growth", passed,
                   {"first_counts": list(heis_table.counts[:3]),
                    "heis_matches_search": heis_exact,
                    "heis_exponent": d_heis, "z3_exponent": d_z3,
                    "z3_matches_octahedral": z3_exact,
                    "robustness_gap": report.exponent_gap})


CRITERIA = [
    criterion_composition,
    criterion_abe_identity,
    criterion_bgs_limit,
    criterion_group_exactness,
    criterion_commutator_oracle,
    criterion_left_invariance,
    criterion_holonomy,
    criterion_distance_anchors,
    criterion_dilation_homogeneity,
    criterion_volume_scaling,
    criterion_pansu_diagonal,
    criterion_discrete_growth,
]


def run_all(seed=DEFAULT_SEED):
    """Run criteria 1-12 and return their records.

    (Byte-reproducibility of the emitted bundle, the 13th gate, is a
    statement about two whole runs and is checked by the callers that
    own file output.)
    """
    return [fn(seed) for fn in CRITERIA]
