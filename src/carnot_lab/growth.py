"""Word-metric ball growth in integer matrix groups.

Breadth-first expansion over the Cayley graph of the integer Heisenberg
group (coordinates (a, c, b) with product (a1+a2, c1+c2, b1+b2+a1*c2))
or of Z^3, under a symmetric generating set, one sphere at a time and
holding only the last two spheres, as int64 arrays deduplicated by
sorting packed keys. Ball cardinalities grow
polynomially, with degree 4 for the Heisenberg lattice and 3 for Z^3;
the degree is a generating-set-independent invariant, which
``generator_robustness`` checks empirically.
"""

from __future__ import annotations

import itertools
import numbers
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, DomainError

IDENTITY = (0, 0, 0)

#: standard generators: unit steps in the two horizontal slots
T1 = (1, 0, 0)
T2 = (0, 1, 0)

STANDARD_GENERATORS = {
    "heis_Z": (T1, T2),
    "z3": ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
}

_KEY_LIMIT = 2 ** 63  # the packed keys and coordinates are int64
# bytes a level holds per row of S_{r-1}, S_r and the |gens| |S_r|
# neighbour block: 24 per int64 column (a, c, b) plus 8 per key; the
# peak traced by tracemalloc while building S_30 is 29-31 B per row for
# heis_Z and z3
_BYTES_PER_ROW = 32


def heis_mul(g, s):
    return (g[0] + s[0], g[1] + s[1], g[2] + s[2] + g[0] * s[1])


def heis_inv(g):
    return (-g[0], -g[1], g[0] * g[1] - g[2])


def z3_mul(g, s):
    return (g[0] + s[0], g[1] + s[1], g[2] + s[2])


def z3_inv(g):
    return (-g[0], -g[1], -g[2])


GROUP_LAWS = {"heis_Z": (heis_mul, heis_inv), "z3": (z3_mul, z3_inv)}


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

    def to_csv_rows(self):
        return [("r", "count")] + [(r, c) for r, c in zip(self.radii,
                                                          self.counts)]


def _check_radius(name, value):
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or value < 0:
        raise DomainError(f"{name} must be a non-negative integer, "
                          f"got {value!r}")


def _radix(reach):
    """Mixed radix (w_a, w_c, w_b), w_i = 2 m_i + 1, of the int64 keys of
    elements whose |coordinate i| is at most ``reach[i]`` (Python ints).
    Raises DomainError when such a key, or a coordinate, could reach 2^63.
    """
    w = tuple(2 * m + 1 for m in reach)
    if w[0] * w[1] * w[2] > _KEY_LIMIT:
        raise DomainError(f"lattice coordinates up to {reach} do not fit "
                          f"the search's int64 keys")
    return w


def _pack(cols, reach):
    """One int64 key per column (a, c, b) of ``cols``, in the radix of
    ``_radix(reach)``; distinct elements get distinct keys."""
    ma, mc, mb = reach
    _, wc, wb = _radix(reach)
    a, c, b = cols
    key = a + ma
    key *= wc
    key += c
    key += mc
    key *= wb
    key += b
    key += mb
    return key


def _member(sorted_keys, keys):
    """Mask of the ``keys`` found in the sorted array ``sorted_keys``."""
    idx = np.searchsorted(sorted_keys, keys)
    hit = idx < len(sorted_keys)
    hit[hit] = sorted_keys[idx[hit]] == keys[hit]
    return hit


def _next_sphere(law, gens, prev, sphere, reach):
    """S_{r+1} from S_{r-1} and S_r, with the new coordinate reach.

    Candidates are the neighbours of S_r, deduplicated by sorting their
    keys, less those already in S_{r-1} or S_r (found by binary search);
    np.unique and np.isin hash in numpy 2 and are several times slower.
    """
    # both laws are polynomials with non-negative coefficients, so the
    # law applied to the coordinate maxima bounds every product; the
    # guard refuses a level before any of its int64 arithmetic
    _radix(law(reach, tuple(max(abs(s[i]) for s in gens) for i in range(3))))
    n = sphere.shape[1]
    cand = np.empty((3, len(gens) * n), dtype=np.int64)
    cols = tuple(sphere)
    for j, s in enumerate(gens):
        cand[:, j * n:(j + 1) * n] = law(cols, s)
    reach = tuple(max(m, int(hi), -int(lo)) for m, hi, lo in
                  zip(reach, cand.max(axis=1), cand.min(axis=1)))
    keys = _pack(cand, reach)
    del cand
    keys.sort()
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    near = np.concatenate((_pack(prev, reach), _pack(sphere, reach)))
    near.sort()
    keys = keys[~_member(near, keys)]
    ma, mc, mb = reach
    _, wc, wb = _radix(reach)
    rest, b = np.divmod(keys, wb)
    a, c = np.divmod(rest, wc)
    return np.stack((a - ma, c - mc, b - mb)), reach


def _spheres(law, gens):
    """Spheres S_0, S_1, ... of the Cayley graph, each an int64 array of
    shape (3, n) holding one element (a, c, b) per column, in no
    particular order. ``gens`` is symmetric, so a neighbour of S_r lies
    in S_{r-1}, S_r or S_{r+1}; testing it against the first two alone
    gives the spheres of a search that tests against the whole ball.
    """
    reach = (0, 0, 0)  # largest |coordinate| of every element seen so far
    prev = np.zeros((3, 0), dtype=np.int64)
    sphere = np.zeros((3, 1), dtype=np.int64)
    while True:
        yield sphere
        nxt, reach = _next_sphere(law, gens, prev, sphere, reach)
        prev, sphere = sphere, nxt


def _table(group, gens, spheres, radius, mem_budget_mb=None):
    """GrowthTable of |B_0|..|B_radius| from the spheres S_0, S_1, ....
    With a memory budget, the bytes the next level will hold are checked
    before it is built; BudgetError carries the partial table."""
    t0 = time.perf_counter()
    counts, max_h, max_v = [], [], []
    total = reach_h = reach_v = prev_n = 0
    for r, sphere in enumerate(spheres):
        # no sphere is empty: both groups are infinite and torsion-free
        n = sphere.shape[1]
        total += n
        reach_h = max(reach_h, int(np.abs(sphere[:2]).max()))
        reach_v = max(reach_v, int(np.abs(sphere[2]).max()))
        counts.append(total)
        max_h.append(reach_h)
        max_v.append(reach_v)
        if r == radius:
            break
        if mem_budget_mb is not None:
            held = _BYTES_PER_ROW * (prev_n + n + len(gens) * n)
            if held > mem_budget_mb * 2 ** 20:
                break
        prev_n = n
    table = GrowthTable(group, gens, tuple(range(len(counts))),
                        tuple(counts), tuple(max_h), tuple(max_v),
                        truncated=len(counts) <= radius,
                        wall_time=time.perf_counter() - t0)
    if table.truncated:
        raise BudgetError(f"building S_{len(counts)} would hold ~{held} "
                          f"bytes, over the memory budget of "
                          f"{mem_budget_mb} MB", partial=table)
    return table


def word_ball(group, generators, radius, mem_budget_mb=None) -> GrowthTable:
    """All ball cardinalities |B_0|..|B_radius| by breadth-first search.

    Only the last two spheres and the neighbours of the last are held,
    about r^3 elements rather than the r^4 of the whole ball. If a memory
    budget is given and building the next sphere would hold more bytes
    than it allows, a BudgetError carrying the partial table is raised.
    A generating set whose coordinates would leave int64 within
    ``radius`` raises DomainError.
    """
    _check_radius("radius", radius)
    if mem_budget_mb is not None and (
            isinstance(mem_budget_mb, bool)
            or not isinstance(mem_budget_mb, numbers.Real)
            or not mem_budget_mb >= 0):
        raise DomainError(f"memory budget must be a non-negative number of "
                          f"MB, got {mem_budget_mb!r}")
    gens = symmetrize_generators(group, generators)
    law, _ = GROUP_LAWS[group]
    return _table(group, gens, _spheres(law, gens), radius, mem_budget_mb)


def word_norm(element, group="heis_Z", generators=None, radius_cap=20):
    """Minimal word length of ``element``, or None when the cap is hit.

    The index of the first sphere of ``word_ball``'s search that holds
    the element, so the two agree by construction.
    """
    _check_radius("radius cap", radius_cap)
    target = _lattice_triple(element, "element")
    gens = symmetrize_generators(
        group, generators if generators is not None
        else STANDARD_GENERATORS.get(group, ()))
    law, _ = GROUP_LAWS[group]
    # an element beyond int64 lies in no sphere the search can hold; the
    # search still runs, so that its overflow guard still decides
    column = np.array(target, dtype=np.int64)[:, None] \
        if max(map(abs, target)) < _KEY_LIMIT else None
    spheres = itertools.islice(_spheres(law, gens), radius_cap + 1)
    for r, sphere in enumerate(spheres):
        if column is not None and (sphere == column).all(axis=0).any():
            return r
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


def generator_robustness(group, gens1, gens2, radius,
                         fit_window=None) -> RobustnessReport:
    """Fit the growth degree under two generating sets and compare.

    The degree is a quasi-isometry invariant, so the two exponents must
    agree closely (the report records their gap and the min/max ratio of
    ball counts as an empirical witness). Coverage is cross-checked: each
    set must reach, within ``radius``, everything the other reaches well
    inside it (half the radius); failing that the report flags the set as
    possibly non-generating. One search per set yields both its table
    and its balls, whose elements are compared as int64 keys in one
    radix common to both.
    """
    _check_radius("radius", radius)
    half = radius // 2
    tables, balls, inner = [], [], []
    for gens in (gens1, gens2):
        gens = symmetrize_generators(group, gens)
        law, _ = GROUP_LAWS[group]
        spheres = list(itertools.islice(_spheres(law, gens), radius + 1))
        tables.append(_table(group, gens, spheres, radius))
        inner.append(np.concatenate(spheres[:half + 1], axis=1))
        balls.append(np.concatenate(spheres, axis=1))
    t1, t2 = tables
    lo, hi = fit_window if fit_window is not None \
        else (min(10, max(1, radius // 2)), radius)
    d1, _, _ = growth_fit(t1, lo, hi)
    d2, _, _ = growth_fit(t2, lo, hi)

    reach = tuple(max(int(m1), int(m2)) for m1, m2 in
                  zip(*(np.abs(ball).max(axis=1) for ball in balls)))
    keys = [np.sort(_pack(ball, reach)) for ball in balls]
    coverage_ok = all(_member(keys[1 - i], _pack(inner[i], reach)).all()
                      for i in (0, 1))
    if not coverage_ok:
        warnings.warn(f"a generating set for {group} misses elements the "
                      f"other reaches within radius {half}; it may not "
                      "generate the group", stacklevel=2)

    ratios = [c1 / c2 for c1, c2 in zip(t1.counts[1:], t2.counts[1:])]
    return RobustnessReport(group, radius, (lo, hi), (d1, d2),
                            abs(d1 - d2), (min(ratios), max(ratios)),
                            coverage_ok, (t1, t2))
