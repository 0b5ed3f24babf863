"""Blow-up (Pansu-type) derivatives of polynomial maps into the Abelian
group.

A map applies a numpy ``Polynomial`` entrywise to the three free
coordinates of a group element and lands in the componentwise-additive
comparison group. Its blow-up quotient at a base point conjugates the map
by a source dilation and the inverse target dilation,

    q(t) = [ f(base . delta_t(dir)) - f(base) ] / t,

and the derivative is the t -> 0+ limit. For a polynomial entry function
the quotient is a polynomial in t, so the limit is read off the
derivative polynomial in closed form. On the Abelian source this
reproduces the classical diagonal Jacobian; on the group source with the
graded dilation the vertical entry of the identity map collapses to zero,
which is the degenerate-center behavior the construction is designed to
exhibit.

The one-dimensional analogue is the q-difference quotient
``qalgebra.jackson_quotient``: of g(x) = sum p_i^x at x = 1 with t = q it
equals minus the deformed entropy, whose q -> 1 limit is the BGS entropy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .heisenberg import abelian_mul, mul

MAP_KINDS = ("heis_to_abelian", "abelian_to_abelian")
CONVENTIONS = ("source_graded", "source_linear")


@dataclass(frozen=True)
class GroupMap:
    """Entrywise polynomial map between 3-coordinate groups.

    ``kind`` fixes the source group: the matrix-coordinate group product
    for ``heis_to_abelian``, plain addition for ``abelian_to_abelian``.
    The target is always the additive comparison group. ``fn`` must be a
    numpy ``Polynomial``, whose blow-up derivative is exact.
    """
    kind: str
    fn: np.polynomial.Polynomial

    def __post_init__(self):
        if self.kind not in MAP_KINDS:
            raise DomainError(f"unknown map kind {self.kind!r}")
        if not isinstance(self.fn, np.polynomial.Polynomial):
            raise DomainError(f"map function must be a numpy Polynomial, "
                              f"got {type(self.fn).__name__}")

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


def blowup_quotient(f: GroupMap, base, direction, t, convention="source_graded"):
    """Single fixed-t term of the blow-up limit, as 3 entries.

    The convention switch concerns the group source only; the Abelian
    source always carries the isotropic (linear) dilations. A base so
    large that base . delta_t(dir) rounds away the displacement in a
    coordinate the direction moves (a step below about half an ulp of the
    base, such as t = 1/2 against 1e16) is refused with DomainError.
    """
    if not t > 0:
        raise DomainError("blow-up parameter t must be positive")
    _check_convention(convention)
    if f.kind == "abelian_to_abelian":
        convention = "source_linear"
    base = tuple(base)
    disp = _source_dilate(direction, t, convention)
    moved = _SOURCE_MUL[f.kind](base, disp)
    for name, d, m, b in zip("xyz", disp, moved, base):
        if d != 0 and m == b:
            raise DomainError(
                f"base {name} = {float(b)!r} is beyond the quotient's "
                f"resolution: at t = {float(t)!r} rounding loses its "
                f"displacement")
    return (f.apply(moved) - f.apply(base)) / t


def pansu_derivative(f: GroupMap, base, convention="source_graded"):
    """Blow-up derivative matrix at ``base``: column j is the limit along
    the j-th coordinate unit displacement.

    With d = fn' at base (a, c, b) it is diag(d(a), d(c), d(b)) for
    ``abelian_to_abelian``; rows [d(a), 0, 0], [0, d(c), 0],
    [0, a d(b), kappa d(b)] for ``heis_to_abelian``, kappa = 1 under
    ``source_linear`` and 0 under ``source_graded``. A non-finite entry
    raises DomainError.
    """
    _check_convention(convention)
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
