"""Word-metric ball growth in integer matrix groups.

Breadth-first expansion over the Cayley graph of the integer Heisenberg
group (coordinates (a, c, b) with product (a1+a2, c1+c2, b1+b2+a1*c2))
or of Z^3, under a symmetric generating set, one sphere at a time and
holding only the last two spheres. A sphere is a sorted int64 array of
keys that pack (a, c, b) in lexicographic order, in one mixed radix
fixed for the whole search: it is bounded up front from the radius, and
a search whose keys, with one spare bit for a tag, could reach 2^63 is
refused before any int64 arithmetic. Multiplying a sorted sphere by a
generator gives a sorted run of keys, so each new sphere comes from one
stable sort that merges those runs with the two spheres before it, the
tag bit marking which entries are new. ``word_norm`` meets a search
from the identity with one from the element halfway. Ball cardinalities
grow polynomially, with degree 4 for the Heisenberg lattice and 3 for
Z^3; the degree is a generating-set-independent invariant, which
``generator_robustness`` checks empirically.
"""

from __future__ import annotations

import numbers
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, DomainError
from .heisenberg import abelian_inv, abelian_mul

IDENTITY = (0, 0, 0)

#: standard generators: unit steps in the two horizontal slots
T1 = (1, 0, 0)
T2 = (0, 1, 0)

STANDARD_GENERATORS = {
    "heis_Z": (T1, T2),
    "z3": ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
}

_KEY_LIMIT = 2 ** 63  # the tagged keys are int64
# bytes a level holds per row of S_{r-1}, S_r and the |gens| |S_r|
# neighbour block: 8 per tagged key, 8 for its step from the key before
# it, two bool masks and the two spheres themselves; the peak traced by
# tracemalloc while building S_20..S_40 is 20.0-20.6 B per row for
# heis_Z and z3
_BYTES_PER_ROW = 21


def heis_mul(g, s):
    return (g[0] + s[0], g[1] + s[1], g[2] + s[2] + g[0] * s[1])


def heis_inv(g):
    return (-g[0], -g[1], g[0] * g[1] - g[2])


# Z^3 is heisenberg's Abelian group; heis_mul restates heisenberg.mul on
# the plain int tuples the search multiplies
GROUP_LAWS = {"heis_Z": (heis_mul, heis_inv),
              "z3": (abelian_mul, abelian_inv)}


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
        for h in (g, inv(g)):
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
    wall_time: float = 0.0

    def to_payload(self) -> dict:
        """Canonical JSON form (deterministic; excludes wall time)."""
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
    """Mixed radix (w_a, w_c, w_b), w_i = 2 m_i + 1, of the int64 keys of
    elements whose |coordinate i| is at most ``reach[i]`` (Python ints).
    Raises DomainError when such a key, with one spare bit for a tag,
    could reach 2^63.
    """
    w = tuple(2 * m + 1 for m in reach)
    if 2 * w[0] * w[1] * w[2] > _KEY_LIMIT:
        raise DomainError(f"lattice coordinates up to {reach} do not fit "
                          f"the search's int64 keys")
    return w


def _key(g, reach):
    """The key of the triple ``g`` in the radix of ``reach``, a Python
    int; keys order elements lexicographically by (a, c, b)."""
    ma, mc, mb = reach
    return ((g[0] + ma) * (2 * mc + 1) + g[1] + mc) * (2 * mb + 1) + g[2] + mb


def _member(sorted_keys, keys):
    """Mask of the ``keys`` found in the sorted array ``sorted_keys``."""
    idx = np.searchsorted(sorted_keys, keys)
    hit = idx < len(sorted_keys)
    hit[hit] = sorted_keys[idx[hit]] == keys[hit]
    return hit


def _spheres(law, gens, radius, reach, start=IDENTITY):
    """Spheres S_0, ..., S_radius about ``start`` in the Cayley graph,
    each a sorted int64 array of its elements' keys in the radix of
    ``reach``, which must bound every element within ``radius`` of
    ``start`` (``_reach``); the radix is checked before any int64
    arithmetic.

    ``gens`` is symmetric, so a neighbour of S_r lies in S_{r-1}, S_r or
    S_{r+1}; testing it against the first two alone gives the spheres of
    a search that tests against the whole ball. Right multiplication by
    s = (sa, sc, sb) adds key(s) - key(e) to a key, plus sc * a on
    heis_Z, and keeps the (a, c, b) order, so each block S_r s is a
    sorted run. S_{r+1} comes from one stable sort, which merges those
    runs, of the tagged keys 2 k + t: S_{r-1} and S_r with t = 0, the
    blocks with t = 1. A key is in S_{r+1} when its first occurrence
    carries t = 1.
    """
    _, wc, wb = _radix(reach)
    ma = reach[0]
    origin = _key(IDENTITY, reach)
    # per generator, as columns: twice the slope in a of the b it adds
    # (sc on heis_Z, 0 on Z^3) and its tagged key step; on keys in range
    # every partial sum below stays within +-2^63
    slopes = np.array([[2 * (law((1, 0, 0), s)[2] - s[2])] for s in gens],
                      dtype=np.int64)
    steps = np.array([[2 * (_key(s, reach) - origin) + 1] for s in gens],
                     dtype=np.int64)
    twist = slopes.any()
    prev = np.zeros(0, dtype=np.int64)
    sphere = np.array([_key(start, reach)], dtype=np.int64)
    for r in range(radius + 1):
        yield sphere
        if r == radius:
            return
        m, n = len(prev), len(sphere)
        tagged = np.empty(m + (1 + len(gens)) * n, dtype=np.int64)
        np.left_shift(prev, 1, out=tagged[:m])
        twice = tagged[m:m + n]
        np.left_shift(sphere, 1, out=twice)
        blocks = tagged[m + n:].reshape(len(gens), n)
        if twist:
            np.multiply(slopes, sphere // (wc * wb) - ma, out=blocks)
            blocks += twice
        else:
            blocks[:] = twice
        blocks += steps
        tagged.sort(kind="stable")
        # the first occurrence of a key is odd (tag 1) and more than 1
        # above the entry before it exactly when the key is new
        new = np.empty(len(tagged), dtype=bool)
        new[0] = True
        np.greater(tagged[1:] - tagged[:-1], 1, out=new[1:])
        new &= (tagged & 1).astype(bool)
        nxt = tagged[new]
        del tagged, new
        nxt >>= 1
        prev, sphere = sphere, nxt


def _table(group, gens, spheres, radius, reach, mem_budget_mb=None,
           keep=None, held=0):
    """GrowthTable of |B_0|..|B_radius| from the spheres S_0, S_1, ... in
    the radix of ``reach``; ``keep``, a list, receives each sphere.
    With a memory budget, the bytes held while the next level is built
    are checked before it is built: the level itself, the spheres kept
    before it and ``held`` bytes held outside the search. BudgetError
    carries the partial table."""
    t0 = time.perf_counter()
    _, wc, wb = _radix(reach)
    ma, mc, mb = reach
    counts, max_h, max_v = [], [], []
    total = reach_h = reach_v = prev_n = 0
    for r, sphere in enumerate(spheres):
        if keep is not None:
            keep.append(sphere)
        # no sphere is empty: both groups are infinite and torsion-free
        n = len(sphere)
        total += n
        # keys order by a first, so a sphere's ends hold its extreme a
        a_lo, a_hi = (int(k) // (wc * wb) - ma for k in sphere[[0, -1]])
        ac, b = np.divmod(sphere, wb)
        c = ac % wc
        reach_h = max(reach_h, -a_lo, a_hi, int(c.max()) - mc,
                      mc - int(c.min()))
        reach_v = max(reach_v, int(b.max()) - mb, mb - int(b.min()))
        counts.append(total)
        max_h.append(reach_h)
        max_v.append(reach_v)
        if r == radius:
            break
        if mem_budget_mb is not None:
            # S_{r-1} and S_r are priced with the level; the kept spheres
            # before them are 8-byte keys
            kept = total - prev_n - n if keep is not None else 0
            need = held + 8 * kept + _BYTES_PER_ROW * (prev_n + n
                                                       + len(gens) * n)
            if need > mem_budget_mb * 2 ** 20:
                break
        prev_n = n
    table = GrowthTable(group, gens, tuple(range(len(counts))),
                        tuple(counts), tuple(max_h), tuple(max_v),
                        truncated=len(counts) <= radius,
                        wall_time=time.perf_counter() - t0)
    if table.truncated:
        raise BudgetError(f"building S_{len(counts)} would hold ~{need} "
                          f"bytes, over the memory budget of "
                          f"{mem_budget_mb} MB", partial=table)
    return table


def word_ball(group, generators, radius, mem_budget_mb=None) -> GrowthTable:
    """All ball cardinalities |B_0|..|B_radius| by breadth-first search.

    Only the last two spheres and the neighbours of the last are held,
    about r^3 elements rather than the r^4 of the whole ball. If a memory
    budget is given and building the next sphere would hold more bytes
    than it allows, a BudgetError carrying the partial table is raised.
    A generating set whose coordinates could leave the int64 keys within
    ``radius`` raises DomainError before the search starts.
    """
    _check_radius("radius", radius)
    _check_budget(mem_budget_mb)
    gens = symmetrize_generators(group, generators)
    law, _ = GROUP_LAWS[group]
    reach = _reach(law, gens, radius)
    return _table(group, gens, _spheres(law, gens, radius, reach), radius,
                  reach, mem_budget_mb)


def word_norm(element, group="heis_Z", generators=None, radius_cap=20):
    """Minimal word length of ``element``, or None when the cap is hit.

    Meet in the middle: a search from the identity and one from the
    element g, in one radix, grow in turn, and the norm is the first k
    at which S_i meets g S_j, with i = ceil(k/2) and j = floor(k/2). A
    geodesic word for g splits after its i-th letter, and a common
    element x = g w with |x| = i, |w| = j gives |g| <= i + j, so the
    spheres first meet at k = |g|. Each search holds about B_{cap/2}.
    Refused, with DomainError, wherever ``word_ball`` to the cap is.
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
    inner, outer = radius_cap - radius_cap // 2, radius_cap // 2
    reach = tuple(map(max, _reach(law, gens, inner),
                      _reach(law, gens, outer, target)))
    near = _spheres(law, gens, inner, reach)
    far = _spheres(law, gens, outer, reach, target)
    s, t = next(near), next(far)
    for k in range(radius_cap + 1):
        if k:
            if k % 2:
                s = next(near)
            else:
                t = next(far)
        small, large = sorted((s, t), key=len)
        if _member(large, small).any():
            return k
    return None


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


def generator_robustness(group, gens1, gens2, radius, fit_window=None,
                         mem_budget_mb=None) -> RobustnessReport:
    """Fit the growth degree under two generating sets and compare.

    The degree is a quasi-isometry invariant, so the two exponents must
    agree closely (the report records their gap and the min/max ratio of
    ball counts as an empirical witness). Coverage is cross-checked: each
    set must reach, within ``radius``, everything the other reaches well
    inside it (half the radius); failing that the report flags the set as
    possibly non-generating. Both searches run in one radix, bounded up
    front from both sets, so their sorted keys compare directly; one
    search per set yields both its table and its balls. A memory budget
    applies to both searches and prices what the report holds while it
    builds a level: the level, the spheres the running search has kept,
    and the ball and inner ball kept from the search for ``gens1`` once
    it is done. The search that would exceed it raises BudgetError with
    its partial table.
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
        spheres = []
        tables.append(_table(group, gens, _spheres(law, gens, radius, reach),
                             radius, reach, mem_budget_mb, keep=spheres,
                             held=held))
        inner.append(np.concatenate(spheres[:half + 1]))
        ball = np.concatenate(spheres)
        del spheres
        ball.sort(kind="stable")
        balls.append(ball)
        held += 8 * (len(ball) + len(inner[-1]))
    t1, t2 = tables
    lo, hi = fit_window if fit_window is not None \
        else (min(10, max(1, radius // 2)), radius)
    d1, _, _ = growth_fit(t1, lo, hi)
    d2, _, _ = growth_fit(t2, lo, hi)

    coverage_ok = all(_member(balls[1 - i], inner[i]).all() for i in (0, 1))
    if not coverage_ok:
        warnings.warn(f"a generating set for {group} misses elements the "
                      f"other reaches within radius {half}; it may not "
                      "generate the group", stacklevel=2)

    ratios = [c1 / c2 for c1, c2 in zip(t1.counts[1:], t2.counts[1:])]
    return RobustnessReport(group, radius, (lo, hi), (d1, d2),
                            abs(d1 - d2), (min(ratios), max(ratios)),
                            coverage_ok, (t1, t2))
