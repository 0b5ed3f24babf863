import collections
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import dblquad
from scipy.optimize import brentq

from carnot_lab import distance as dist
from carnot_lab import growth
from carnot_lab import heisenberg as hg
from carnot_lab.errors import BudgetError, DomainError
from carnot_lab.reports import ReportBundle, emit_plot_table


def octahedral_count(r):
    # exact closed-form count of the l1 ball in Z^3
    return (2 * r + 1) * (2 * r * r + 2 * r + 3) // 3


HEIS_MUL, HEIS_INV = growth.GROUP_LAWS["heis_Z"]


def enumerate_words(gens, length, law):
    """Oracle: the set of all products of words up to the given length."""
    seen = {growth.IDENTITY}
    for n in range(1, length + 1):
        for word in itertools.product(gens, repeat=n):
            g = growth.IDENTITY
            for s in word:
                g = law(g, s)
            seen.add(g)
    return seen


def reference_bfs(law, gens, radius):
    """Oracle: a breadth-first search that tests every neighbour against
    the whole ball visited so far. Returns the frontiers, in order."""
    visited = {growth.IDENTITY}
    frontiers = [[growth.IDENTITY]]
    for _ in range(radius):
        new = []
        for g in frontiers[-1]:
            for s in gens:
                h = law(g, s)
                if h not in visited:
                    visited.add(h)
                    new.append(h)
        frontiers.append(new)
    return frontiers


HEIS_GENS = growth.symmetrize_generators(
    "heis_Z", growth.STANDARD_GENERATORS["heis_Z"])

# generating sets beyond the standard ones, with the radius up to which
# every element's word norm is checked against the reference search
RICHER_SETS = [("heis_Z", (growth.T1, growth.T2, (1, 1, 1)), 6),
               ("z3", growth.STANDARD_GENERATORS["z3"]
                + ((1, 1, 0), (0, 1, 1)), 6)]
# mixed signs and larger entries: wide, lopsided key radices; the set
# generates a proper subgroup, so it stays out of the robustness tests
MIXED_SET = ("heis_Z", ((3, -2, 7), (0, 1, -5)), 4)
# sets whose spheres hold few or no runs of consecutive keys: strided
# and skewed heis_Z sets, planes of z3 and a line; every element of B_8
# has its word norm checked
RUNLESS_SETS = [("heis_Z", ((2, 0, 0), (0, 2, 0)), 8),
                ("heis_Z", ((1, 0, 0), (2, 0, 1), (0, 2, 0)), 8),
                ("z3", ((1, 0, 0), (0, 1, 0)), 8),
                ("z3", ((1, 1, 0), (0, 1, 1)), 8),
                ("heis_Z", ((1, 0, 0),), 8)]


def heis_sphere_series(radius):
    """Oracle: the coefficients of the rational sphere growth series of
    heis_Z under the standard generators (Duchin-Shapiro 2019),
    S(x) = (1 + x + 4x^2 + 11x^3 + 8x^4 + 21x^5 + 6x^6 + 9x^7 + x^8)
           / ((1-x)^4 (1+x^2) (1+x+x^2)),
    expanded in integers."""
    num = [1, 1, 4, 11, 8, 21, 6, 9, 1]
    den = [1]
    for factor in ([1, -1],) * 4 + ([1, 0, 1], [1, 1, 1]):
        den = [sum(den[i] * factor[k - i] for i in range(len(den))
                   if 0 <= k - i < len(factor))
               for k in range(len(den) + len(factor) - 1)]
    coef = []
    for k in range(radius + 1):
        coef.append((num[k] if k < len(num) else 0)
                    - sum(den[j] * coef[k - j]
                          for j in range(1, min(k, len(den) - 1) + 1)))
    return coef


# ---------------------------------------------------------------------------
# group laws

def test_heis_law_and_inverse():
    g = (3, -2, 5)
    assert HEIS_MUL(g, HEIS_INV(g)) == growth.IDENTITY
    assert HEIS_MUL(HEIS_INV(g), g) == growth.IDENTITY
    assert HEIS_MUL((1, 0, 0), (0, 1, 0)) == (1, 1, 1)
    assert HEIS_MUL((0, 1, 0), (1, 0, 0)) == (1, 1, 0)


def test_heis_double_commutator_trivial():
    rng = np.random.default_rng(71)
    for _ in range(100):
        g1, g2, g3 = (tuple(int(v) for v in rng.integers(-9, 10, 3))
                      for _ in range(3))

        def comm(a, b):
            return HEIS_MUL(HEIS_MUL(a, b),
                            HEIS_MUL(HEIS_INV(a), HEIS_INV(b)))

        inner = comm(g1, g2)
        assert inner[0] == 0 and inner[1] == 0
        assert comm(g3, inner) == growth.IDENTITY


def test_symmetrize():
    gens = growth.symmetrize_generators("heis_Z", [(1, 0, 0), (0, 1, 0)])
    assert set(gens) == {(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)}
    with pytest.raises(DomainError):
        growth.symmetrize_generators("heis_Z", [(0, 0, 0)])
    with pytest.raises(DomainError):
        growth.symmetrize_generators("so3", [(1, 0, 0)])
    with pytest.raises(DomainError):
        growth.symmetrize_generators("z3", [])


# ---------------------------------------------------------------------------
# word balls

def test_word_ball_first_counts():
    table = growth.word_ball("heis_Z", growth.STANDARD_GENERATORS["heis_Z"], 2)
    assert table.counts == (1, 5, 17)
    assert table.radii == (0, 1, 2)


def test_word_ball_matches_exhaustive_enumeration():
    table = growth.word_ball("heis_Z", growth.STANDARD_GENERATORS["heis_Z"], 4)
    for r in range(5):
        oracle = enumerate_words(HEIS_GENS, r, HEIS_MUL)
        assert table.counts[r] == len(oracle)


def test_word_ball_strictly_increasing_with_frontier_bound():
    table = growth.word_ball("heis_Z", growth.STANDARD_GENERATORS["heis_Z"], 12)
    gens = len(table.generators)
    for r in range(1, 13):
        assert table.counts[r] > table.counts[r - 1]
        assert table.counts[r] <= table.counts[r - 1] * (1 + gens)


def test_search_ball_z3_octahedral_oracle():
    table = growth._search_ball("z3", growth.STANDARD_GENERATORS["z3"], 25)
    for r in range(26):
        assert table.counts[r] == octahedral_count(r)


def test_search_ball_heis_rational_series_oracle():
    table = growth._search_ball("heis_Z",
                                growth.STANDARD_GENERATORS["heis_Z"], 80)
    spheres = np.diff(table.counts, prepend=0).tolist()
    assert spheres == heis_sphere_series(80)


@pytest.mark.parametrize("group,radius", [("heis_Z", 200), ("z3", 60)])
def test_standard_ball_is_the_search(group, radius):
    # the closed form equals the search at every radius up to the last,
    # on the counts and on both reaches: r, and floor(r^2/4) or r
    std = growth.STANDARD_GENERATORS[group]
    searched = growth._search_ball(group, std, radius)
    assert len(searched.runs) == radius + 1
    for r in range(radius + 1):
        table = growth.word_ball(group, std, r)
        assert table.runs == () and not table.truncated
        assert table.radii == searched.radii[:r + 1]
        assert table.generators == searched.generators
        for name in ("counts", "max_abs_horizontal", "max_abs_vertical"):
            assert getattr(table, name) == getattr(searched, name)[:r + 1]
    assert table.max_abs_horizontal[-1] == radius
    assert table.max_abs_vertical[-1] == \
        (radius * radius // 4 if group == "heis_Z" else radius)


def test_word_ball_dispatches_the_standard_sets_to_the_closed_form(
        monkeypatch):
    search = growth._search_ball

    def no_search(*args, **kwargs):
        raise AssertionError("searched a standard set")

    monkeypatch.setattr(growth, "_search_ball", no_search)
    listed = [growth.T1, growth.T2]
    for gens in (listed[::-1], listed + [(-1, 0, 0), (0, -1, 0)],
                 listed * 3 + [(0, -1, 0)], HEIS_GENS[::-1]):
        table = growth.word_ball("heis_Z", gens, 12)
        assert table.runs == ()
        assert table.counts == search("heis_Z", gens, 12).counts
        assert table.generators == growth.symmetrize_generators("heis_Z",
                                                                gens)
    z3 = growth.STANDARD_GENERATORS["z3"]
    table = growth.word_ball("z3", z3[::-1] + z3, 9)
    assert table.runs == () and table.counts[-1] == octahedral_count(9)
    # the budget prices only the search: the closed form is never refused
    table = growth.word_ball("heis_Z", listed, 40, mem_budget_mb=0.0)
    assert table.runs == () and len(table.counts) == 41
    monkeypatch.undo()

    # every other set is searched, never answered by the formula
    def no_formula(*args):
        raise AssertionError("a closed form for a non-standard set")

    monkeypatch.setattr(growth, "_standard_ball", no_formula)
    for group, gens in (("heis_Z", listed + [(1, 1, 1)]),
                        ("heis_Z", [(2, 0, 0), (0, 1, 0)]),
                        ("z3", z3[:2])):
        table = growth.word_ball(group, gens, 6)
        assert len(table.runs) == 7
        assert table.counts == search(group, gens, 6).counts


@pytest.mark.parametrize("group", ["heis_Z", "z3"])
def test_search_ball_runs_per_column(group):
    # a ball of the standard set meets the 2r^2 + 2r + 1 (a, c) columns
    # with |a| + |c| <= r, each in one interval of b (Blachere 2003 on
    # heis_Z, the octahedron on z3), so it holds exactly one run in each
    table = growth._search_ball(group, growth.STANDARD_GENERATORS[group], 40)
    assert table.runs == tuple(2 * r * r + 2 * r + 1 for r in range(41))
    # the runs are a trace of the search, not part of the result
    assert "runs" not in table.to_payload()


@pytest.mark.parametrize("group,gens", [
    ("heis_Z", growth.STANDARD_GENERATORS["heis_Z"]),
    ("z3", growth.STANDARD_GENERATORS["z3"])]
    + [s[:2] for s in RICHER_SETS + [MIXED_SET] + RUNLESS_SETS])
def test_spheres_are_maximal_runs_of_the_reference_frontiers(group, gens):
    # each ball's runs are sorted, disjoint, non-adjacent and nonempty,
    # each lies, with its stop, in one (a, c) column, and together they
    # hold exactly the keys of the reference search's frontiers 0..r, so
    # the keys each ball adds are that frontier
    law, _ = growth.GROUP_LAWS[group]
    sym = growth.symmetrize_generators(group, gens)
    radius = 8
    reach = growth._reach(law, sym, radius)
    wb = growth._radix(reach)[2]
    frontiers = reference_bfs(law, sym, radius)
    balls = list(growth._balls(law, sym, radius, reach))
    assert len(balls) == len(frontiers)
    inner = np.zeros(0, dtype=np.int64)
    for (lo, hi), frontier in zip(balls, frontiers):
        assert lo.dtype == hi.dtype == np.int64 and len(lo) == len(hi)
        assert np.all(lo < hi)
        assert np.all(lo[1:] > hi[:-1])
        assert np.array_equal(lo // wb, (hi - 1) // wb)
        assert np.array_equal(hi // wb, lo // wb)
        keys = np.concatenate([np.arange(a, b) for a, b in zip(lo, hi)])
        sphere = sorted(growth._key(g, reach) for g in frontier)
        assert keys.tolist() == sorted(inner.tolist() + sphere)
        assert np.setdiff1d(keys, inner).tolist() == sphere
        inner = keys


def test_word_ball_anisotropy():
    # the vertical coordinate reach grows quadratically, the horizontal
    # one linearly
    table = growth.word_ball("heis_Z", growth.STANDARD_GENERATORS["heis_Z"], 20)
    r = np.arange(6, 21)
    vert = np.array(table.max_abs_vertical[6:21], dtype=float)
    horiz = np.array(table.max_abs_horizontal[6:21], dtype=float)
    fit_v = np.polyfit(np.log(r), np.log(vert), 1)[0]
    assert abs(fit_v - 2.0) <= 0.2
    assert np.array_equal(horiz, r)


def test_word_ball_determinism():
    t1 = growth.word_ball("heis_Z", growth.STANDARD_GENERATORS["heis_Z"], 10)
    t2 = growth.word_ball("heis_Z", growth.STANDARD_GENERATORS["heis_Z"], 10)
    assert t1.counts == t2.counts
    assert t1.to_payload() == t2.to_payload()


def test_word_ball_budget_error_carries_partial():
    with pytest.raises(BudgetError) as info:
        growth.word_ball("heis_Z", (growth.T1, growth.T2, (1, 1, 1)), 40,
                         mem_budget_mb=0.15)
    partial = info.value.partial
    assert partial is not None and partial.truncated
    assert partial.counts[0] == 1
    assert len(partial.counts) >= 1


def test_word_ball_payload_schema():
    table = growth.word_ball("z3", growth.STANDARD_GENERATORS["z3"], 3)
    payload = table.to_payload()
    assert set(payload) == {"group", "generators", "radii", "counts"}
    assert payload["counts"] == [1, 7, 25, 63]
    csv_text = emit_plot_table(ReportBundle("growth", {}, payload))
    assert csv_text.splitlines()[0] == "r,count"


@pytest.mark.parametrize("group,gens,norm_radius",
                         RICHER_SETS + [MIXED_SET] + RUNLESS_SETS)
def test_word_ball_matches_reference_bfs(group, gens, norm_radius):
    law, _ = growth.GROUP_LAWS[group]
    sym = growth.symmetrize_generators(group, gens)
    frontiers = reference_bfs(law, sym, 8)
    ball, counts, reach_h, reach_v = [], [], [], []
    for frontier in frontiers:
        ball += frontier
        counts.append(len(ball))
        reach_h.append(max(max(abs(g[0]), abs(g[1])) for g in ball))
        reach_v.append(max(abs(g[2]) for g in ball))
    table = growth.word_ball(group, gens, 8)
    assert table.counts == tuple(counts)
    assert table.max_abs_horizontal == tuple(reach_h)
    assert table.max_abs_vertical == tuple(reach_v)
    for level, frontier in enumerate(frontiers[:norm_radius + 1]):
        for g in frontier:
            assert growth.word_norm(g, group, gens, radius_cap=8) == level


@pytest.mark.parametrize("group,gens", [s[:2] for s in RICHER_SETS])
def test_robustness_tables_match_word_ball(group, gens):
    std = growth.STANDARD_GENERATORS[group]
    report = growth.generator_robustness(group, std, gens, 12)
    for table, g in zip(report.tables, (std, gens)):
        assert table.to_payload() == \
            growth.word_ball(group, g, 12).to_payload()


@pytest.mark.parametrize("radius", [2.5, True, -1, "3", None])
def test_growth_rejects_bad_radius(radius):
    std = growth.STANDARD_GENERATORS["z3"]
    with pytest.raises(DomainError):
        growth.word_ball("z3", std, radius)
    with pytest.raises(DomainError):
        growth.word_norm((1, 0, 0), "z3", radius_cap=radius)
    with pytest.raises(DomainError):
        growth.generator_robustness("z3", std, std, radius)


@pytest.mark.parametrize("big", [10 ** 12, 10 ** 20])
def test_growth_refuses_int64_overflow(big):
    # the keys of a level pack all three coordinates into one int64; a
    # level that could overflow is refused before it is computed
    std = growth.STANDARD_GENERATORS["heis_Z"]
    gens = std + ((big, 0, 0),)
    with pytest.raises(DomainError, match="int64"):
        growth.word_ball("heis_Z", gens, 3)
    with pytest.raises(DomainError, match="int64"):
        growth.word_norm((2, 2, 2), "heis_Z", gens, radius_cap=3)
    with pytest.raises(DomainError, match="int64"):
        growth.word_norm((3 * big, 0, 0), "heis_Z", gens, radius_cap=3)
    with pytest.raises(DomainError, match="int64"):
        growth.generator_robustness("heis_Z", std, gens, 4)


def test_growth_refuses_huge_radius_up_front():
    # the radix is bounded from the radius before anything is searched,
    # so a radius the keys cannot hold ends at once
    for group in ("heis_Z", "z3"):
        std = growth.STANDARD_GENERATORS[group]
        for radius in (10 ** 8, 10 ** 30):
            with pytest.raises(DomainError, match="int64"):
                growth.word_ball(group, std, radius)
            with pytest.raises(DomainError, match="int64"):
                growth.word_norm((1, 0, 0), group, radius_cap=radius)
            with pytest.raises(DomainError, match="int64"):
                growth.generator_robustness(group, std, std, radius)


def test_robustness_budget_prices_both_searches():
    std = growth.STANDARD_GENERATORS["heis_Z"]
    other = std + ((1, 1, 1),)
    # the search for the first set also prices the inner ball it keeps
    # for the coverage check, so it stops no later than a search of its
    # ball
    with pytest.raises(BudgetError) as ball:
        growth._search_ball("heis_Z", std, 40, mem_budget_mb=0.15)
    with pytest.raises(BudgetError) as first:
        growth.generator_robustness("heis_Z", std, other, 40,
                                    mem_budget_mb=0.15)
    counts = first.value.partial.counts
    assert first.value.partial.generators == ball.value.partial.generators
    assert counts == ball.value.partial.counts[:len(counts)]
    assert len(counts) < len(ball.value.partial.counts)
    # the first set fits; the second, searched while the first set's
    # ball is held, does not
    growth._search_ball("heis_Z", std, 20, mem_budget_mb=0.15)
    with pytest.raises(BudgetError) as second:
        growth.generator_robustness("heis_Z", std, other, 20,
                                    mem_budget_mb=0.15)
    partial = second.value.partial
    assert partial.truncated
    assert partial.generators == growth.symmetrize_generators("heis_Z",
                                                              other)
    assert partial.counts == \
        growth.word_ball("heis_Z", other, 20).counts[:len(partial.counts)]
    # with room for both searches, the budget changes nothing
    budgeted = growth.generator_robustness("heis_Z", std, other, 20,
                                           mem_budget_mb=0.6)
    free = growth.generator_robustness("heis_Z", std, other, 20)
    assert [t.to_payload() for t in budgeted.tables] == \
        [t.to_payload() for t in free.tables]
    assert (budgeted.exponents, budgeted.coverage_ok) == \
        (free.exponents, free.coverage_ok)
    with pytest.raises(DomainError):
        growth.generator_robustness("heis_Z", std, std, 4, mem_budget_mb=-1)


def test_robustness_refuses_overflowing_common_radix():
    # each set fits its own keys, but not one radix common to both
    std = growth.STANDARD_GENERATORS["z3"]
    with pytest.raises(DomainError, match="int64"):
        growth.generator_robustness("z3", std + ((10 ** 9, 0, 0),),
                                    std + ((0, 0, 10 ** 9),), 2)


def test_growth_validation():
    assert growth.word_ball("z3", growth.STANDARD_GENERATORS["z3"],
                            np.int64(3)).counts == (1, 7, 25, 63)
    with pytest.raises(DomainError):
        growth.word_norm((1, 0, 0), group="so3")
    with pytest.raises(DomainError):
        growth.word_norm((0, 0, 0), group="so3")
    for element in ((1, 0), (1, 0, 0, 0), (1.5, 0, 0), (0, math.nan, 0)):
        with pytest.raises(DomainError):
            growth.word_norm(element)
    with pytest.raises(DomainError):
        growth.symmetrize_generators("z3", [(0.5, 0, 1)])
    # integral values of any numeric type are lattice coordinates
    assert growth.word_norm((np.int64(1), 1.0, 1)) == 2
    assert growth.symmetrize_generators("z3", [(np.int64(1), 0.0, 0)]) == \
        ((1, 0, 0), (-1, 0, 0))
    for budget in ("x", -1, float("nan"), True):
        with pytest.raises(DomainError):
            growth.word_ball("z3", growth.STANDARD_GENERATORS["z3"], 3,
                             mem_budget_mb=budget)


# ---------------------------------------------------------------------------
# word norm

def test_word_norm_examples():
    assert growth.word_norm((0, 0, 0)) == 0
    assert growth.word_norm((1, 1, 1)) == 2    # T1 T2
    assert growth.word_norm((1, 1, 0)) == 2    # T2 T1
    assert growth.word_norm((1, 0, 0)) == 1


def test_word_norm_central_element():
    # the central generator (0,0,1) is the commutator word of length 4
    norm = growth.word_norm((0, 0, 1))
    assert norm is not None and norm <= 4
    # oracle: exhaustive enumeration of short words
    for length in range(norm):
        assert (0, 0, 1) not in enumerate_words(HEIS_GENS, length,
                                                HEIS_MUL)
    assert (0, 0, 1) in enumerate_words(HEIS_GENS, norm, HEIS_MUL)


def test_word_norm_cap():
    assert growth.word_norm((40, 0, 0), radius_cap=5) is None
    # an element beyond int64 lies in no sphere the search can hold
    assert growth.word_norm((10 ** 20, 0, 0), radius_cap=5) is None


@pytest.mark.parametrize("group,gens,radius", [
    ("heis_Z", growth.STANDARD_GENERATORS["heis_Z"], 10)]
    + [s[:2] + (6,) for s in RICHER_SETS + [MIXED_SET]])
def test_word_norm_is_the_reference_sphere_index(group, gens, radius):
    # the meet-in-the-middle search agrees with a whole-ball search on
    # every element of B_radius: cap r finds r, cap r - 1 finds nothing,
    # for odd and even r (the two searches then stop at equal or unequal
    # depths)
    law, _ = growth.GROUP_LAWS[group]
    frontiers = reference_bfs(
        law, growth.symmetrize_generators(group, gens), radius)
    for r, frontier in enumerate(frontiers):
        for g in frontier:
            assert growth.word_norm(g, group, gens, radius_cap=r) == r
            if r:
                assert growth.word_norm(g, group, gens,
                                        radius_cap=r - 1) is None


def test_word_norm_consistent_with_word_enumeration():
    # the norm is the first word length whose exhaustive product set
    # contains the element
    rng = np.random.default_rng(72)
    balls = [enumerate_words(HEIS_GENS, n, HEIS_MUL)
             for n in range(6)]
    for _ in range(30):
        g = (int(rng.integers(-2, 3)), int(rng.integers(-2, 3)),
             int(rng.integers(-2, 3)))
        norm = growth.word_norm(g, radius_cap=12)
        assert norm is not None
        if norm <= 5:
            assert g in balls[norm]
            if norm > 0:
                assert g not in balls[norm - 1]
        else:
            assert g not in balls[5]


@pytest.fixture(scope="module")
def heis_levels():
    """The reference frontiers of B_30 under the standard heis_Z set, by
    the product (a1+a2, c1+c2, b1+b2+a1*c2) on plain tuples."""
    def law(g, s):
        return g[0] + s[0], g[1] + s[1], g[2] + s[2] + g[0] * s[1]
    return reference_bfs(law, HEIS_GENS, 30)


def test_standard_norm_is_the_reference_level_and_nothing_else(heis_levels):
    # each element of B_30 gets its level, and the values <= 30 over a
    # box about B_30 number exactly its spheres; the box holds
    # |a| + |c| <= 30, as every case gives at least |a| + |c|, and
    # |b| <= 450, twice B_30's vertical reach of 225
    norm = growth._standard_norm
    for r, frontier in enumerate(heis_levels):
        assert all(norm("heis_Z", g) == r for g in frontier)
    R = len(heis_levels) - 1
    box = collections.Counter()
    for a in range(-R, R + 1):
        for c in range(abs(a) - R, R - abs(a) + 1):
            box.update(norm("heis_Z", (a, c, b))
                       for b in range(-R * R // 2, R * R // 2 + 1))
    assert [box[r] for r in range(R + 1)] == list(map(len, heis_levels))
    # beyond the search: the value reads (a, c, b) through h, l and
    # d = |2b - ac| alone, so each (h, l, d) stands for its 1, 4 or 8
    # columns (a, c) and its one (d = 0) or two values of b
    R = 60
    spheres = [0] * (R + 1)
    for h in range(R + 1):
        for l in range(min(h, R - h) + 1):
            columns = 1 if h == 0 else 4 if l in (0, h) else 8
            for d in itertools.count(h * l % 2, 2):
                r = norm("heis_Z", (h, l, (d + h * l) // 2))
                if r > R:
                    break
                spheres[r] += columns * (1 if d == 0 else 2)
    assert spheres == heis_sphere_series(R)
    # Z^3: the l1 norm, whose balls are the octahedra
    R = 12
    z3 = collections.Counter(norm("z3", g) for g in itertools.product(
        range(-R, R + 1), repeat=3))
    assert list(itertools.accumulate(z3[r] for r in range(R + 1))) == \
        [octahedral_count(r) for r in range(R + 1)]


def test_standard_norm_is_within_two_of_the_l1_distance(heis_levels):
    # Pansu's limit at finite scale: a word is a unit-speed l1 path to
    # phi(g) = (a, c, b - ac/2), so d_l1(phi(g)) <= |g|, and the
    # standard norm exceeds that distance by less than 2. Both sides
    # keep the symmetries of the square, which permute the standard
    # generators, and inversion, so on B_26 the elements with
    # a >= c >= 0 and 2b >= ac stand for all of it.
    origin = hg.HeisPoint(0.0, 0.0, 0.0)

    def gap(g):
        norm = growth._standard_norm("heis_Z", g)
        a, c, b = g
        d = dist.cc_distance(origin, hg.HeisPoint(a, c, b - a * c / 2),
                             norm="l1").value
        assert d - 1e-12 * norm <= norm < d + 2
        return norm - d

    gaps = [gap(g) for frontier in heis_levels[:27] for g in frontier
            if g[0] >= g[1] >= 0 and 2 * g[2] >= g[0] * g[1]]
    assert len(gaps) > sum(map(len, heis_levels[:27])) // 16
    assert max(gaps) > 1.9
    # far past any search, through all three cases of the distance
    rng = np.random.default_rng(2303)
    cases = collections.Counter()
    for _ in range(2000):
        a, c = (int(x) for x in rng.integers(-10 ** 6, 10 ** 6 + 1, 2))
        b = int(rng.integers(-10 ** 12, 10 ** 12 + 1))
        gap((a, c, b))
        h, l = max(abs(a), abs(c)), min(abs(a), abs(c))
        z = (abs(2 * b - a * c) + h * l) / 2
        cases[(z > h * l) + (z > h * h)] += 1
    assert min(cases[i] for i in range(3)) > 100


def test_pansu_limit_is_the_volume_of_the_l1_ball():
    # Pansu's theorem: |B_r| / r^4 of heis_Z under the standard generators
    # tends to the volume of the unit ball of the l1 CC metric, 31/72.
    # The ball series S(x) / (1 - x) has a pole of order 5 at x = 1, and
    # simple ones at the 4th and 3rd roots of unity, so |B_r| is c r^4 +
    # (a cubic) + (a part of period 12) for every r, and the fourth
    # difference with step 12 is exactly 4! 12^4 c. With the numerator's
    # sum N(1) = 62 and (1 + x^2)(1 + x + x^2) = 6 at x = 1, c = 62 / (6 4!)
    balls = list(itertools.accumulate(heis_sphere_series(59)))
    for r in range(12):
        diff = sum((-1) ** k * math.comb(4, k) * balls[r + 12 * (4 - k)]
                   for k in range(5))
        assert Fraction(diff, 24 * 12 ** 4) == Fraction(62, 6 * 24) \
            == Fraction(31, 72)
    # the ball {l1_distance <= 1}: eight times the integral, over the
    # quadrant x, y >= 0, x + y <= 1, of the height where it reaches 1
    def height(y, x):
        return brentq(lambda z: dist.l1_distance(x, y, z) - 1.0, 0.0, 1.0)

    quadrant, _ = dblquad(height, 0.0, 1.0, 0.0, lambda x: 1.0 - x,
                          epsabs=1e-8)
    assert 8.0 * quadrant == pytest.approx(31 / 72, rel=0.0, abs=1e-9)


def test_word_norm_dispatches_the_standard_sets_to_the_closed_form(
        monkeypatch):
    search = growth._search_norm
    law = growth.GROUP_LAWS["heis_Z"][0]

    def no_search(*args):
        raise AssertionError("searched a standard set")

    monkeypatch.setattr(growth, "_search_norm", no_search)
    listed = [growth.T1, growth.T2]
    for gens in (listed[::-1], listed + [(-1, 0, 0), (0, -1, 0)],
                 listed * 3 + [(0, -1, 0)], HEIS_GENS[::-1]):
        for g in ((3, -2, 5), (0, 0, -7), (-4, 1, 0)):
            assert growth.word_norm(g, "heis_Z", gens, 12) == \
                search(law, HEIS_GENS, g, 12)
    z3 = growth.STANDARD_GENERATORS["z3"]
    assert growth.word_norm((2, -3, 4), "z3", z3[::-1] + z3, 9) == 9
    assert growth.word_norm((2, -3, 4), "z3", z3, 8) is None
    monkeypatch.undo()

    # every other set is searched, never answered by the formula
    def no_formula(*args):
        raise AssertionError("a closed form for a non-standard set")

    monkeypatch.setattr(growth, "_standard_norm", no_formula)
    for gens in (listed + [(1, 1, 1)], [(2, 0, 0), (0, 1, 0)]):
        sym = growth.symmetrize_generators("heis_Z", gens)
        for r, frontier in enumerate(reference_bfs(law, sym, 4)):
            for g in frontier:
                assert growth.word_norm(g, "heis_Z", gens, 4) == r


def test_search_norm_on_the_standard_set_is_the_closed_form(heis_levels):
    # the meet-in-the-middle search, run on the standard set, agrees
    # with the formula on all of B_10 and stops at the cap below it
    law = growth.GROUP_LAWS["heis_Z"][0]
    for r, frontier in enumerate(heis_levels[:11]):
        for g in frontier:
            assert growth._search_norm(law, HEIS_GENS, g, r) == \
                growth._standard_norm("heis_Z", g) == r
            if r:
                assert growth._search_norm(law, HEIS_GENS, g, r - 1) is None

# ---------------------------------------------------------------------------
# growth fitting

def test_growth_fit_synthetic_power_law():
    counts = tuple(7 * r ** 5 if r else 1 for r in range(21))
    table = growth.GrowthTable("z3", (), tuple(range(21)), counts)
    d, c, resid = growth.growth_fit(table, 5, 20)
    assert d == pytest.approx(5.0, abs=1e-12)
    assert c == pytest.approx(7.0, rel=1e-10)
    assert resid < 1e-12


def test_growth_fit_windows_and_errors():
    table = growth.word_ball("z3", growth.STANDARD_GENERATORS["z3"], 12)
    with pytest.raises(DomainError):
        growth.growth_fit(table, 5, 5)
    with pytest.raises(DomainError):
        growth.growth_fit(table, 5, 40)


def test_growth_fit_z3_exponent():
    table = growth.word_ball("z3", growth.STANDARD_GENERATORS["z3"], 40)
    d, _, _ = growth.growth_fit(table, 10, 40)
    assert d == pytest.approx(3.0, abs=0.1)


def test_growth_fit_heis_exponent():
    table = growth.word_ball("heis_Z", growth.STANDARD_GENERATORS["heis_Z"], 25)
    d, _, _ = growth.growth_fit(table, 10, 25)
    assert d == pytest.approx(4.0, abs=0.25)


# ---------------------------------------------------------------------------
# generator robustness

def test_generator_robustness_heis():
    report = growth.generator_robustness(
        "heis_Z", growth.STANDARD_GENERATORS["heis_Z"],
        (growth.T1, growth.T2, (1, 1, 1)), 18)
    assert report.exponent_gap <= 0.3
    assert report.coverage_ok
    # the count ratios bounded away from 0 and infinity are the
    # empirical quasi-isometry witness; the richer set grows faster
    lo, hi = report.count_ratio_bounds
    assert 0.05 < lo <= hi <= 1.0 + 1e-12


def test_generator_robustness_identical_sets():
    report = growth.generator_robustness(
        "z3", growth.STANDARD_GENERATORS["z3"],
        growth.STANDARD_GENERATORS["z3"], 12)
    assert report.exponent_gap == 0.0
    assert report.count_ratio_bounds == (1.0, 1.0)
    assert report.tables[0].counts == report.tables[1].counts


def test_generator_robustness_warns_on_non_generating_set():
    # planar unit vectors never reach the third axis of z3
    with pytest.warns(UserWarning, match="may not generate"):
        report = growth.generator_robustness(
            "z3", growth.STANDARD_GENERATORS["z3"],
            ((1, 0, 0), (0, 1, 0)), 10)
    assert not report.coverage_ok


def test_generator_robustness_z3_diagonals():
    diag = growth.STANDARD_GENERATORS["z3"] + ((1, 1, 0), (0, 1, 1))
    report = growth.generator_robustness(
        "z3", growth.STANDARD_GENERATORS["z3"], diag, 16)
    assert abs(report.exponents[0] - 3.0) <= 0.15
    assert abs(report.exponents[1] - 3.0) <= 0.15
    assert report.exponent_gap <= 0.3
