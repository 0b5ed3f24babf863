"""Word-metric ball growth in integer matrix groups.

Breadth-first expansion over the Cayley graph of the integer Heisenberg
group (coordinates (a, c, b) with product (a1+a2, c1+c2, b1+b2+a1*c2))
or of Z^3, under a symmetric generating set, one sphere at a time and
holding only the last two spheres. Ball cardinalities grow
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

_BYTES_PER_ELEMENT = 180  # tuple of small ints + set slot, coarse figure


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


def _spheres(law, gens):
    """Spheres S_0, S_1, ... of the Cayley graph, each a list in
    first-seen order. ``gens`` is symmetric, so a neighbour of S_r lies
    in S_{r-1}, S_r or S_{r+1}; testing it against those three alone
    gives the order of a search that tests against the whole ball.
    """
    near = {IDENTITY}  # S_{r-1}, S_r and the part of S_{r+1} found so far
    prev, sphere = [], [IDENTITY]
    while True:
        yield sphere
        nxt = []
        for g in sphere:
            for s in gens:
                h = law(g, s)
                if h not in near:
                    near.add(h)
                    nxt.append(h)
        near.difference_update(prev)
        prev, sphere = sphere, nxt


def _table(group, gens, spheres, radius, mem_budget_mb=None):
    """GrowthTable of |B_0|..|B_radius| from the spheres S_0, S_1, ....
    With a memory budget, the projected ball size is checked before each
    further sphere; BudgetError carries the partial table."""
    t0 = time.perf_counter()
    counts, max_h, max_v = [], [], []
    total = reach_h = reach_v = 0
    for r, sphere in enumerate(spheres):
        # no sphere is empty: both groups are infinite and torsion-free
        total += len(sphere)
        reach_h = max(reach_h, max(max(abs(g[0]), abs(g[1])) for g in sphere))
        reach_v = max(reach_v, max(abs(g[2]) for g in sphere))
        counts.append(total)
        max_h.append(reach_h)
        max_v.append(reach_v)
        if r == radius:
            break
        if mem_budget_mb is not None:
            projected = _project_count(counts, radius)
            if projected * _BYTES_PER_ELEMENT > mem_budget_mb * 2 ** 20:
                break
    table = GrowthTable(group, gens, tuple(range(len(counts))),
                        tuple(counts), tuple(max_h), tuple(max_v),
                        truncated=len(counts) <= radius,
                        wall_time=time.perf_counter() - t0)
    if table.truncated:
        raise BudgetError(f"projected |B_{radius}| ~ {projected} elements "
                          f"exceeds memory budget {mem_budget_mb} MB",
                          partial=table)
    return table


def word_ball(group, generators, radius, mem_budget_mb=None) -> GrowthTable:
    """All ball cardinalities |B_0|..|B_radius| by breadth-first search.

    Deterministic: frontier order is insertion order. Only the last two
    spheres and the one being built are held, about r^3 elements rather
    than the r^4 of the whole ball. If a memory budget is given and the
    projected ball size would exceed it, a BudgetError carrying the
    partial table is raised; the projection still prices the whole ball,
    so the check is conservative.
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


def _project_count(counts, radius):
    """Crude power-law projection of |B_radius| from the counts so far."""
    r_now = len(counts) - 1
    if r_now < 2:
        return counts[-1] * (5 ** (radius - r_now))
    d = np.log(counts[-1] / counts[max(1, r_now // 2)]) / \
        np.log(r_now / max(1, r_now // 2))
    return int(counts[-1] * (radius / r_now) ** max(d, 1.0))


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
    spheres = itertools.islice(_spheres(law, gens), radius_cap + 1)
    for r, sphere in enumerate(spheres):
        if target in sphere:
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
    and its balls.
    """
    _check_radius("radius", radius)
    half = radius // 2
    tables, balls, inner = [], [], []
    for gens in (gens1, gens2):
        gens = symmetrize_generators(group, gens)
        law, _ = GROUP_LAWS[group]
        spheres = list(itertools.islice(_spheres(law, gens), radius + 1))
        tables.append(_table(group, gens, spheres, radius))
        inner.append(set().union(*spheres[:half + 1]))
        balls.append(inner[-1].union(*spheres[half + 1:]))
    t1, t2 = tables
    lo, hi = fit_window if fit_window is not None \
        else (min(10, max(1, radius // 2)), radius)
    d1, _, _ = growth_fit(t1, lo, hi)
    d2, _, _ = growth_fit(t2, lo, hi)

    coverage_ok = inner[0] <= balls[1] and inner[1] <= balls[0]
    if not coverage_ok:
        warnings.warn(f"a generating set for {group} misses elements the "
                      f"other reaches within radius {half}; it may not "
                      "generate the group", stacklevel=2)

    ratios = [c1 / c2 for c1, c2 in zip(t1.counts[1:], t2.counts[1:])]
    return RobustnessReport(group, radius, (lo, hi), (d1, d2),
                            abs(d1 - d2), (min(ratios), max(ratios)),
                            coverage_ok, (t1, t2))
