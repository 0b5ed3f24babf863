"""Blow-up (Pansu-type) derivatives of maps into the Abelian group.

A map applies a scalar function entrywise to the three free coordinates
of a group element and lands in the componentwise-additive comparison
group. Its blow-up quotient at a base point conjugates the map by a
source dilation and the inverse target dilation,

    q(t) = [ f(base . delta_t(dir)) - f(base) ] / t,

and the derivative is the t -> 0+ limit: in closed form for a numpy
``Polynomial`` entry function, whose quotient is a polynomial in t, and
extrapolated entrywise over t = 2^-k, k = 1..20, for any other callable.
On the Abelian source this reproduces the classical diagonal Jacobian;
on the group source with the graded dilation the vertical entry of the
identity map collapses to zero, which is the degenerate-center behavior
the construction is designed to exhibit.

The Jackson derivative of the entropy module is the one-dimensional
analogue, the same extrapolation over t - 1 = 2^-k: its fixed-t quotient
``qalgebra.jackson_quotient`` of g(x) = sum p_i^x at x = 1 with t = q
equals minus the deformed entropy, and ``qalgebra.jackson_derivative``
is its t -> 1 limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._extrapolation import STEPS, richardson_limit
from .errors import ConvergenceError, DomainError
from .heisenberg import abelian_mul, mul

MAP_KINDS = ("heis_to_abelian", "abelian_to_abelian")
CONVENTIONS = ("source_graded", "source_linear")


@dataclass(frozen=True)
class GroupMap:
    """Entrywise map between 3-coordinate groups.

    ``kind`` fixes the source group: the matrix-coordinate group product
    for ``heis_to_abelian``, plain addition for ``abelian_to_abelian``.
    The target is always the additive comparison group.
    """
    kind: str
    fn: Callable[[float], float]

    def __post_init__(self):
        if self.kind not in MAP_KINDS:
            raise DomainError(f"unknown map kind {self.kind!r}")

    def apply(self, coords):
        return np.array([self.fn(coords[0]), self.fn(coords[1]),
                         self.fn(coords[2])], dtype=float)


def _check_convention(convention):
    """Refuse any source dilation convention but the graded one (t^2 on
    the vertical coordinate) and the linear one (t on all three)."""
    if convention not in CONVENTIONS:
        raise DomainError(f"unknown convention {convention!r}")


def _source_dilate(coords, t, convention):
    x, y, z = coords
    if convention == "source_graded":
        return (t * x, t * y, t * t * z)
    return (t * x, t * y, t * z)


# the source group's product: matrix coordinates, or componentwise sums
_SOURCE_MUL = {"heis_to_abelian": mul, "abelian_to_abelian": abelian_mul}


def _quotient(f, base, f_base, direction, t, convention):
    """The fixed-t quotient, given the tuple ``base`` and ``f_base`` =
    f.apply(base), and per coordinate whether its displacement was lost
    to rounding: the dilated direction moves the coordinate, yet the
    moved point equals the base there (a step below about half an ulp of
    the base, such as t = 1/2 against 1e16)."""
    if f.kind == "abelian_to_abelian":
        convention = "source_linear"
    disp = _source_dilate(direction, t, convention)
    moved = _SOURCE_MUL[f.kind](base, disp)
    lost = [d != 0 and m == b for d, m, b in zip(disp, moved, base)]
    return (f.apply(moved) - f_base) / t, lost


def _unresolved(base, i, t):
    return DomainError(
        f"base {_ENTRY_NAMES[i]} = {float(base[i])!r} is beyond the "
        f"schedule's resolution: at t = {float(t)!r} rounding loses its "
        f"displacement")


def blowup_quotient(f: GroupMap, base, direction, t, convention="source_graded"):
    """Single fixed-t term of the blow-up limit, as 3 entries.

    The convention switch concerns the group source only; the Abelian
    source always carries the isotropic (linear) dilations. A base so
    large that base . delta_t(dir) rounds away the displacement in a
    coordinate the direction moves is refused with DomainError.
    """
    if not t > 0:
        raise DomainError("blow-up parameter t must be positive")
    _check_convention(convention)
    base = tuple(base)
    q, lost = _quotient(f, base, f.apply(base), direction, t, convention)
    if any(lost):
        raise _unresolved(base, lost.index(True), t)
    return q


_UNIT_DIRECTIONS = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
_ENTRY_NAMES = ("x", "y", "z")


def blowup_limit(f: GroupMap, base, direction, convention="source_graded"):
    """t -> 0+ limit of the blow-up quotient along one direction over
    t = 2^-k, k = 1..20, taken when two successive extrapolants agree to
    1e-8.

    Returns the limit 3-vector. Entries whose extrapolation fails raise
    ConvergenceError naming the entry; a base that loses its displacement
    to rounding on a level an entry's extrapolation reads raises
    DomainError.
    """
    _check_convention(convention)
    base = tuple(base)
    f_base = f.apply(base)
    terms = [_quotient(f, base, f_base, direction, t, convention)
             for t in STEPS]
    quotients = np.array([q for q, _ in terms])
    lost = np.array([flags for _, flags in terms])

    def check_resolved(i, levels):
        # only the levels the extrapolation read decide the entry
        k = np.flatnonzero(lost[:levels, i])
        if k.size:
            raise _unresolved(base, i, STEPS[k[0]])

    limits = np.empty(3)
    for i, name in enumerate(_ENTRY_NAMES):
        seq = quotients[:, i]
        try:
            limits[i], diag = richardson_limit(seq, tol=1e-8,
                                               what=f"blow-up entry {name!r}")
        except ConvergenceError as exc:
            check_resolved(i, len(seq))
            raise ConvergenceError(
                f"entry {name!r} of the blow-up quotient diverges: {exc}"
            ) from exc
        check_resolved(i, len(diag))
    return limits


def pansu_derivative(f: GroupMap, base, convention="source_graded"):
    """Blow-up derivative matrix at ``base``: column j is the limit along
    the j-th coordinate unit displacement.

    A numpy ``Polynomial`` ``f.fn`` is answered exactly from d = fn' at
    base (a, c, b): diag(d(a), d(c), d(b)) for ``abelian_to_abelian``;
    rows [d(a), 0, 0], [0, d(c), 0], [0, a d(b), kappa d(b)] for
    ``heis_to_abelian``, kappa = 1 under ``source_linear`` and 0 under
    ``source_graded``. A non-finite entry raises DomainError. Any other
    callable is extrapolated by ``blowup_limit``.
    """
    _check_convention(convention)
    if not isinstance(f.fn, np.polynomial.Polynomial):
        return np.column_stack([blowup_limit(f, base, direction, convention)
                                for direction in _UNIT_DIRECTIONS])
    a, c, b = (float(v) for v in base)
    # a derivative past the float range overflows to inf (or NaN) and is
    # refused below, without numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        da, dc, db = (float(v) for v in f.fn.deriv()(np.array([a, c, b])))
    if f.kind == "abelian_to_abelian":
        matrix = np.diag([da, dc, db])
    else:
        # literal 0s, not 0 * d(b), which is NaN for an infinite d(b)
        center = db if convention == "source_linear" else 0.0
        matrix = np.array([[da, 0.0, 0.0], [0.0, dc, 0.0],
                           [0.0, a * db if a else 0.0, center]])
    if not np.all(np.isfinite(matrix)):
        raise DomainError(f"blow-up derivative {matrix.tolist()} at base "
                          f"{(a, c, b)!r} is not finite")
    return matrix
