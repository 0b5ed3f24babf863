"""Word-metric ball growth in integer matrix groups.

Breadth-first expansion over the Cayley graph of the integer Heisenberg
group (coordinates (a, c, b) with product (a1+a2, c1+c2, b1+b2+a1*c2))
or of Z^3, under a symmetric generating set, one ball at a time and
holding only the last. Keys pack (a, c, b) in lexicographic order into
int64, in one mixed radix fixed for the whole search, whose b digit has
one spare value, so no run of consecutive keys crosses from one (a, c)
column to the next. The radix is bounded up front from the radius, and
a search whose keys, with one spare bit, could reach 2^63 is refused
before any int64 arithmetic. A ball is held as its maximal runs of
consecutive keys, two sorted arrays of starts and stops: balls are
solid along b, and the standard heis_Z ball (Blachere 2003) and the
octahedron of Z^3 meet each of the 2r^2 + 2r + 1 columns with
|a| + |c| <= r in one run. Multiplying by a generator shifts both ends
of each run alike, so B_{r+1}, the union of B_r's runs shifted by each
generator and by the identity, comes from one sort of their starts and
one of their stops. A level costs about (|gens| + 1) runs(B_r) sorted
ends and 26 bytes a run of them. On sets whose balls have no runs
(strided, skewed or lower-dimensional sets) every key of B_r is a run:
r^4 of them on heis_Z, against the r^3 keys of a sphere; under
<(2,0,0), (0,2,0)> the search to B_30 takes about 0.2 s and 46 MB of
traced memory, and a memory budget stops it before it runs away.
The standard generating sets, given in any order, with or without their
inverses, are never searched. ``word_ball`` answers them in closed form:
the octahedral numbers on Z^3, and on heis_Z the integer recurrence of
the rational ball series (Duchin-Shapiro 2019). ``word_norm`` answers
them by the l1 norm on Z^3 and Blachere's formula on heis_Z; for any
other set it meets a search from the identity with one from the element
halfway, testing whether two families of runs overlap. Ball
cardinalities grow polynomially, with degree 4 for the Heisenberg
lattice and 3 for Z^3; the degree is a generating-set-independent
invariant, which ``generator_robustness`` checks empirically.
"""

from __future__ import annotations

import math
import numbers
import operator
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, DomainError
from .heisenberg import abelian_inv, abelian_mul, inv, mul

IDENTITY = (0, 0, 0)

#: standard generators: unit steps in the two horizontal slots
T1 = (1, 0, 0)
T2 = (0, 1, 0)

STANDARD_GENERATORS = {
    "heis_Z": (T1, T2),
    "z3": ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
}

_KEY_LIMIT = 2 ** 63  # the keys are int64, with one spare bit
# bytes a level holds per run of its |gens| + 1 neighbour blocks of B_r:
# their sorted starts and stops, the timsort buffer, the union's cut
# mask and indices and the new ball; the peak traced by tracemalloc
# while building the upper half of the levels to r = 40 (r = 24 for the
# strided heis_Z sets) is 20-26 B per block run on sets whose balls hold
# a few hundred runs or more, with or without runs longer than one key
# (on a line, under 100 runs, numpy's fixed costs read up to 42 B)
_BYTES_PER_ROW = 26


# heisenberg's matrix-coordinate law and its Abelian group, on the
# plain int triples the search multiplies
GROUP_LAWS = {"heis_Z": (mul, inv), "z3": (abelian_mul, abelian_inv)}


def _lattice_triple(g, what):
    """``g`` as a triple of ints; a coordinate that is not an integral
    value is rejected, not truncated."""
    g = tuple(g)
    if len(g) != 3 or not all(
            isinstance(c, numbers.Integral) or
            isinstance(c, numbers.Real) and float(c).is_integer() for c in g):
        raise DomainError(f"{what} {g!r} is not an integer triple")
    return tuple(int(c) for c in g)


def symmetrize_generators(group, generators):
    """Close a generator list under inverses, drop identity and
    duplicates, preserving first-seen order (BFS determinism)."""
    if group not in GROUP_LAWS:
        raise DomainError(f"unknown group {group!r}")
    _, inv = GROUP_LAWS[group]
    out = []
    seen = set()
    for g in generators:
        g = _lattice_triple(g, "generator")
        # heis_Z's inverse is a HeisMatrix; the set holds plain triples
        for h in (g, tuple(inv(g))):
            if h == IDENTITY:
                raise DomainError("identity is not an admissible generator")
            if h not in seen:
                seen.add(h)
                out.append(h)
    if not out:
        raise DomainError("empty generating set")
    return tuple(out)


@dataclass(frozen=True)
class GrowthTable:
    """Cumulative ball sizes |B_r| for r = 0..R under a fixed symmetric
    generating set."""
    group: str
    generators: tuple
    radii: tuple
    counts: tuple
    max_abs_horizontal: tuple = ()
    max_abs_vertical: tuple = ()
    truncated: bool = False
    #: maximal runs of consecutive keys the search held for each ball
    #: B_r; empty when no search ran (the standard sets, in closed form)
    runs: tuple = ()

    def to_payload(self) -> dict:
        """Canonical JSON form (deterministic; excludes runs)."""
        return {
            "group": self.group,
            "generators": [list(g) for g in self.generators],
            "radii": list(self.radii),
            "counts": list(self.counts),
        }


def _check_radius(name, value):
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or value < 0:
        raise DomainError(f"{name} must be a non-negative integer, "
                          f"got {value!r}")


def _check_budget(mem_budget_mb):
    if mem_budget_mb is not None and (
            isinstance(mem_budget_mb, bool)
            or not isinstance(mem_budget_mb, numbers.Real)
            or not mem_budget_mb >= 0):
        raise DomainError(f"memory budget must be a non-negative number of "
                          f"MB, got {mem_budget_mb!r}")


def _reach(law, gens, radius, start=IDENTITY):
    """A bound (Python ints) on each |coordinate| of every element within
    ``radius`` steps of ``start``: |start| m^radius under the law, with m
    the generators' coordinate maxima. Both laws are polynomials with
    non-negative coefficients, so the law applied to coordinate maxima
    bounds every product; both are associative, so the power is taken
    by squaring, in about log2(radius) steps."""
    step = tuple(max(abs(s[i]) for s in gens) for i in range(3))
    reach = tuple(abs(c) for c in start)
    radius = int(radius)
    while radius:
        if radius & 1:
            reach = law(reach, step)
        step = law(step, step)
        radius >>= 1
    return reach


def _radix(reach):
    """Mixed radix (w_a, w_c, w_b) = (2 m_a + 1, 2 m_c + 1, 2 m_b + 2) of
    the int64 keys of elements whose |coordinate i| is at most
    ``reach[i]`` (Python ints); the b digit has one spare value, so no run
    of consecutive keys crosses from one (a, c) column to the next.
    Raises DomainError when such a key, with one spare bit, could reach
    2^63.
    """
    ma, mc, mb = reach
    w = (2 * ma + 1, 2 * mc + 1, 2 * mb + 2)
    if 2 * w[0] * w[1] * w[2] > _KEY_LIMIT:
        raise DomainError(f"lattice coordinates up to {reach} do not fit "
                          f"the search's int64 keys")
    return w


def _key(g, reach):
    """The key of the triple ``g`` in the radix of ``reach``, a Python
    int; keys order elements lexicographically by (a, c, b)."""
    ma, mc, mb = reach
    return ((g[0] + ma) * (2 * mc + 1) + g[1] + mc) * (2 * mb + 2) + g[2] + mb


def _union(lo, hi):
    """The maximal runs of the union of the runs [lo_i, hi_i), given
    their starts and their stops each sorted on its own: a maximal run
    stops where the next start lies above every stop so far."""
    edge = np.empty(len(lo) + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.greater(lo[1:], hi[:-1], out=edge[1:-1])
    at = np.flatnonzero(edge)
    return lo[at[:-1]], hi[at[1:] - 1]


def _runs_meet(x, y):
    """Whether some run of ``x`` overlaps some run of ``y``; each a pair
    (starts, stops) of sorted, disjoint runs. A run of ``x`` meets ``y``
    exactly when the first run of ``y`` that stops after its start
    starts before it stops."""
    if len(x[0]) > len(y[0]):
        x, y = y, x
    idx = np.searchsorted(y[1], x[0], side="right")
    hit = idx < len(y[1])
    return bool((y[0][idx[hit]] < x[1][hit]).any())


def _runs_inside(x, ball):
    """Whether every run of ``x`` lies inside one maximal run of
    ``ball``, the runs of ``x`` in any order, those of ``ball`` sorted."""
    idx = np.searchsorted(ball[1], x[0], side="right")
    if (idx == len(ball[1])).any():
        return False
    return bool((ball[0][idx] <= x[0]).all() and (x[1] <= ball[1][idx]).all())


def _balls(law, gens, radius, reach, start=IDENTITY):
    """Balls B_0, ..., B_radius about ``start`` in the Cayley graph,
    each a pair (starts, stops) of sorted int64 arrays: its maximal runs
    [start, stop) of consecutive keys in the radix of ``reach``, which
    must bound every element within ``radius`` of ``start``
    (``_reach``); the radix is checked before any int64 arithmetic. A
    run lies in one (a, c) column, and its stop, one past its last key,
    in the same column, at worst on the spare b digit.

    B_{r+1} is the union of the blocks B_r s over the generators s and
    the identity. Right multiplication by s = (sa, sc, sb) adds
    key(s) - key(e) to each key of a run, plus sc * a on heis_Z: it
    shifts both ends of a run alike, so each block is a sorted family of
    runs, and their union comes from sorting all starts and all stops on
    their own (``_union``).
    """
    _, wc, wb = _radix(reach)
    ma = reach[0]
    origin = _key(IDENTITY, reach)
    # per block, as columns: the slope in a of the b it adds (sc on
    # heis_Z, 0 on Z^3) and its key step, less slope * m_a, since a key's
    # column index key // (w_c w_b) is a + m_a; on keys in range every
    # partial sum below stays within +-2^63
    steps = (IDENTITY,) + tuple(gens)
    slopes = [law((1, 0, 0), s)[2] - s[2] for s in steps]
    shift = np.array([[_key(s, reach) - origin - ma * k]
                      for s, k in zip(steps, slopes)], dtype=np.int64)
    twist = any(slopes)
    slopes = np.array(slopes, dtype=np.int64)[:, None]
    key = _key(start, reach)
    ball = (np.array([key], dtype=np.int64),
            np.array([key + 1], dtype=np.int64))
    for r in range(radius + 1):
        yield ball
        if r == radius:
            return
        lo, hi = ball
        if twist:
            step = slopes * (lo // (wc * wb))
            step += shift
        else:
            step = np.repeat(shift, len(lo), axis=1)
        bhi = (step + hi).ravel()
        bhi.sort(kind="stable")
        step += lo
        blo = step.ravel()
        blo.sort(kind="stable")
        ball = _union(blo, bhi)
        del step, blo, bhi


def _reaches(lo, hi, reach):
    """The largest |a| or |c|, and the largest |b|, over the runs
    [lo, hi) in the radix of ``reach``. Keys order by a first, so the
    first start and the last stop hold the extreme a; a run and its stop
    lie in one (a, c) column, and its ends hold its extreme b."""
    _, wc, wb = _radix(reach)
    ma, mc, mb = reach
    a_lo, a_hi = (int(k) // (wc * wb) - ma for k in (lo[0], hi[-1]))
    ac, b_lo = np.divmod(lo, wb)
    c = ac % wc
    return (max(-a_lo, a_hi, int(c.max()) - mc, mc - int(c.min())),
            max(int((hi % wb).max()) - 1 - mb, mb - int(b_lo.min())))


def _table(group, gens, balls, radius, reach, mem_budget_mb=None,
           keep=None, held=0):
    """GrowthTable of |B_0|..|B_radius| from the balls B_0, B_1, ... in
    the radix of ``reach``; ``keep``, a dict keyed by radii, receives the
    ball of each radius it names. With a memory budget, the bytes held
    while the next level is built are checked before it is built: the
    level itself, the balls kept before it and ``held`` bytes held
    outside the search. BudgetError carries the partial table."""
    counts, max_h, max_v, runs = [], [], [], []
    kept = 0
    for r, (lo, hi) in enumerate(balls):
        n = len(lo)
        counts.append(int((hi - lo).sum()))
        h, v = _reaches(lo, hi, reach)
        max_h.append(h)
        max_v.append(v)
        runs.append(n)
        if keep is not None and r in keep:
            keep[r] = (lo, hi)
            kept += n
        if r == radius:
            break
        if mem_budget_mb is not None:
            # B_r and the balls kept are two 8-byte keys a run
            need = held + 16 * (kept + n) \
                + _BYTES_PER_ROW * (len(gens) + 1) * n
            if need > mem_budget_mb * 2 ** 20:
                break
    table = GrowthTable(group, gens, tuple(range(len(counts))),
                        tuple(counts), tuple(max_h), tuple(max_v),
                        truncated=len(counts) <= radius, runs=tuple(runs))
    if table.truncated:
        raise BudgetError(f"building B_{len(counts)} would hold ~{need} "
                          f"bytes, over the memory budget of "
                          f"{mem_budget_mb} MB", partial=table)
    return table


def _search_ball(group, gens, radius, mem_budget_mb=None) -> GrowthTable:
    """``word_ball`` by breadth-first search, on any generating set.

    Only the runs of the last ball and of its neighbour blocks are held:
    2r^2 + 2r + 1 runs, one per (a, c) column, for the ~r^4 elements of
    B_r under the standard heis_Z set and the ~r^3 under z3's, and every
    key of B_r on sets whose balls have no runs. If a memory budget is given and
    building the next ball would hold more bytes than it allows, a
    BudgetError carrying the partial table is raised; the table's
    ``runs`` gives the runs each ball held. Keys that could leave int64
    within ``radius`` raise DomainError before the search starts.
    """
    _check_radius("radius", radius)
    _check_budget(mem_budget_mb)
    gens = symmetrize_generators(group, gens)
    law, _ = GROUP_LAWS[group]
    reach = _reach(law, gens, radius)
    return _table(group, gens, _balls(law, gens, radius, reach), radius,
                  reach, mem_budget_mb)


def _is_standard(group, gens):
    """Whether the symmetric set ``gens`` is the group's standard set,
    given in any order, with or without its inverses."""
    return set(gens) == set(symmetrize_generators(
        group, STANDARD_GENERATORS[group]))


# heis_Z's ball series under the standard set (Duchin-Shapiro 2019):
# sum_r |B_r| x^r = N(x) / D(x), D = (1-x)^5 (1+x^2) (1+x+x^2)
_HEIS_BALL_NUM = (1, 1, 4, 11, 8, 21, 6, 9, 1)
_HEIS_BALL_DEN = (1, -4, 7, -9, 11, -11, 9, -7, 4, -1)


def _standard_ball(group, gens, radius) -> GrowthTable:
    """The table of the standard set ``gens`` to ``radius``, exact on
    Python ints: on Z^3 the octahedral numbers (2r+1)(2r^2+2r+3)/3 and
    reaches r and r; on heis_Z the counts from the ball series'
    recurrence, D's coefficients on the last nine counts, and reaches r
    and floor(r^2/4)."""
    radii = tuple(range(radius + 1))
    if group == "z3":
        counts = [(2 * r + 1) * (2 * r * r + 2 * r + 3) // 3 for r in radii]
        vertical = radii
    else:
        # nine zero counts before r = 0 start the recurrence
        counts = [0] * 9
        tail = _HEIS_BALL_DEN[:0:-1]
        for r in radii:
            head = _HEIS_BALL_NUM[r] if r < len(_HEIS_BALL_NUM) else 0
            counts.append(head - sum(map(operator.mul, tail, counts[-9:])))
        del counts[:9]
        vertical = tuple(r * r // 4 for r in radii)
    return GrowthTable(group, gens, radii, tuple(counts), radii, vertical)


def word_ball(group, generators, radius, mem_budget_mb=None) -> GrowthTable:
    """All ball cardinalities |B_0|..|B_radius|.

    The standard generating set, given in any order, with or without
    its inverses, is answered in closed form (``_standard_ball``); its
    table's ``runs`` is empty, as no search ran. Every other set is
    searched breadth first (``_search_ball``). A generating set whose
    coordinates could leave the search's int64 keys within ``radius``
    raises DomainError up front, the standard sets too. A memory budget,
    in MB, prices only the search: past it, BudgetError carries the
    partial table. The closed form holds O(radius) ints and is never
    refused by it.
    """
    _check_radius("radius", radius)
    _check_budget(mem_budget_mb)
    gens = symmetrize_generators(group, generators)
    if not _is_standard(group, gens):
        return _search_ball(group, gens, radius, mem_budget_mb)
    law, _ = GROUP_LAWS[group]
    _radix(_reach(law, gens, radius))
    return _standard_ball(group, gens, radius)


def _standard_norm(group, g):
    """Word norm of ``g`` under the group's standard generating set, in
    closed form and exact on Python ints.

    On Z^3 it is |a| + |c| + |b|. On heis_Z (Blachere 2003), with
    h = max(|a|, |c|), l = min(|a|, |c|) and the integer
    Z = (|2b - ac| + hl) / 2, it is h + l for Z <= hl,
    h - l + 2 ceil(Z/h) for Z <= h^2 and 2 ceil(2 sqrt Z) - h - l
    beyond. Z is zeta + hl/2 for the height zeta = |b - ac/2| in
    exponential coordinates, so the cases are those of the l1 distance
    (``distance.l1_distance``) with Z/h and 2 sqrt Z rounded up, and the
    norm exceeds that distance by less than 2.
    """
    a, c, b = g
    if group == "z3":
        return abs(a) + abs(c) + abs(b)
    h, l = max(abs(a), abs(c)), min(abs(a), abs(c))
    z = (abs(2 * b - a * c) + h * l) // 2
    if z <= h * l:
        return h + l
    if z <= h * h:
        return h - l + 2 * -(-z // h)
    return 2 * (math.isqrt(4 * z - 1) + 1) - h - l


def _search_norm(law, gens, target, radius_cap):
    """Word norm of ``target`` under ``gens`` by meeting in the middle,
    or None past ``radius_cap``: a search from the identity and one from
    the target g, in one radix, grow in turn, and the norm is the first k
    at which B_i meets g B_j, with i = ceil(k/2) and j = floor(k/2). A
    geodesic word for g splits after its i-th letter, and a common
    element x = g w with |x| <= i, |w| <= j gives |g| <= i + j, so the
    balls first meet at k = |g|, when some of their runs overlap."""
    inner, outer = radius_cap - radius_cap // 2, radius_cap // 2
    reach = tuple(map(max, _reach(law, gens, inner),
                      _reach(law, gens, outer, target)))
    near = _balls(law, gens, inner, reach)
    far = _balls(law, gens, outer, reach, target)
    s, t = next(near), next(far)
    for k in range(radius_cap + 1):
        if k:
            if k % 2:
                s = next(near)
            else:
                t = next(far)
        if _runs_meet(s, t):
            return k
    return None


def word_norm(element, group="heis_Z", generators=None, radius_cap=20):
    """Minimal word length of ``element``, or None when the cap is hit.

    Refused, with DomainError, wherever ``word_ball`` to the cap is. The
    standard generating set, given in any order, with or without its
    inverses, is answered in closed form (``_standard_norm``); every
    other set by a meet-in-the-middle search (``_search_norm``).
    """
    _check_radius("radius cap", radius_cap)
    target = _lattice_triple(element, "element")
    gens = symmetrize_generators(
        group, generators if generators is not None
        else STANDARD_GENERATORS.get(group, ()))
    law, _ = GROUP_LAWS[group]
    # refused like word_ball to the cap; an element beyond the bound of
    # that ball is not in it
    ball = _reach(law, gens, radius_cap)
    _radix(ball)
    if any(abs(c) > m for c, m in zip(target, ball)):
        return None
    if _is_standard(group, gens):
        norm = _standard_norm(group, target)
        return norm if norm <= radius_cap else None
    return _search_norm(law, gens, target, radius_cap)


def growth_fit(table: GrowthTable, r_min, r_max):
    """Least-squares fit log|B_r| = log c + d log r over [r_min, r_max].

    Returns (d, c, max_residual).
    """
    if not (r_max > r_min >= 1):
        raise DomainError("need r_max > r_min >= 1")
    if r_max > table.radii[-1]:
        raise DomainError(f"table covers r <= {table.radii[-1]}, "
                          f"asked for {r_max}")
    r = np.arange(r_min, r_max + 1, dtype=float)
    y = np.log(np.asarray(table.counts[r_min:r_max + 1], dtype=float))
    design = np.column_stack([np.log(r), np.ones_like(r)])
    (d, logc), *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = float(np.max(np.abs(design @ np.array([d, logc]) - y)))
    return float(d), float(np.exp(logc)), resid


@dataclass(frozen=True)
class RobustnessReport:
    group: str
    radius: int
    fit_window: tuple
    exponents: tuple
    exponent_gap: float
    count_ratio_bounds: tuple
    coverage_ok: bool
    tables: tuple = field(repr=False, default=())


def generator_robustness(group, gens1, gens2, radius,
                         mem_budget_mb=None) -> RobustnessReport:
    """Fit the growth degree under two generating sets and compare.

    The fit window is [min(10, max(1, radius // 2)), radius]. The degree
    is a quasi-isometry invariant, so the two exponents must agree
    closely (the report records their gap and the min/max ratio of
    ball counts as an empirical witness). Coverage is cross-checked: each
    set must reach, within ``radius``, everything the other reaches well
    inside it (half the radius); failing that the report flags the set as
    possibly non-generating. Both searches run in one radix, bounded up
    front from both sets, so their keys compare directly; one search per
    set yields its table and keeps two of its balls, as runs: B_radius
    and the inner ball B_{radius // 2}, which is covered when each of
    its runs lies inside one maximal run of the other set's B_radius. A
    memory budget applies to both searches and prices what the report
    holds while it builds a level: the level, the inner ball the running
    search has kept, and the two balls kept from the search for
    ``gens1`` once it is done, at 16 bytes a run. The search that would
    exceed it raises BudgetError with its partial table.
    """
    _check_radius("radius", radius)
    _check_budget(mem_budget_mb)
    sets = [symmetrize_generators(group, gens) for gens in (gens1, gens2)]
    law, _ = GROUP_LAWS[group]
    reach = tuple(map(max, *(_reach(law, gens, radius) for gens in sets)))
    _radix(reach)
    half = radius // 2
    tables, balls, inner = [], [], []
    held = 0
    for gens in sets:
        keep = {half: None, radius: None}
        tables.append(_table(group, gens, _balls(law, gens, radius, reach),
                             radius, reach, mem_budget_mb, keep=keep,
                             held=held))
        inner.append(keep[half])
        balls.append(keep[radius])
        held += 16 * (len(balls[-1][0]) + len(inner[-1][0]))
    t1, t2 = tables
    lo, hi = min(10, max(1, radius // 2)), radius
    d1, _, _ = growth_fit(t1, lo, hi)
    d2, _, _ = growth_fit(t2, lo, hi)

    coverage_ok = all(_runs_inside(inner[i], balls[1 - i]) for i in (0, 1))
    if not coverage_ok:
        warnings.warn(f"a generating set for {group} misses elements the "
                      f"other reaches within radius {half}; it may not "
                      "generate the group", stacklevel=2)

    ratios = [c1 / c2 for c1, c2 in zip(t1.counts[1:], t2.counts[1:])]
    return RobustnessReport(group, radius, (lo, hi), (d1, d2),
                            abs(d1 - d2), (min(ratios), max(ratios)),
                            coverage_ok, (t1, t2))
