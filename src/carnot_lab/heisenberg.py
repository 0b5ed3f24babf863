"""Arithmetic for the 3-dimensional Heisenberg group.

Two coordinate systems are used throughout:

* matrix coordinates (a, c, b): the unitriangular matrix
  [[1, a, b], [0, 1, c], [0, 0, 1]], with the product law
  (a1, c1, b1) * (a2, c2, b2) = (a1+a2, c1+c2, b1+b2 + a1*c2);
* exponential coordinates (x, y, z) with the symmetric product law
  (x1, y1, z1) * (x2, y2, z2) =
  (x1+x2, y1+y2, z1+z2 + (x1*y2 - x2*y1)/2).

`point_to_matrix` is the group isomorphism between the two. Coordinates
are stored as plain triples; nothing here ever forms a dense matrix (the
dense 3x3 multiply lives in the test suite as an independent oracle).
Every law in the matrix, exponential and Lie sections is elementwise
field arithmetic, so a triple of equal-shape float arrays is a batch of
elements: one call acts on all of them, rounding exactly as the per-element
calls do. Constant fields (the zero entries of a commutator or bracket)
stay scalars and broadcast.

The Abelian comparison group (componentwise translations of R^3) is
provided by the `abelian_*` functions; every commutator there is trivial.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class HeisMatrix(NamedTuple):
    """Unitriangular 3x3 matrix [[1,a,b],[0,1,c],[0,0,1]] as its three
    free entries."""
    a: float
    c: float
    b: float


class HeisPoint(NamedTuple):
    """Point of the group in exponential coordinates."""
    x: float
    y: float
    z: float


class LieVector(NamedTuple):
    """Element alpha*X + beta*Y + gamma*Z of the Lie algebra, in the basis
    X = de/da, Y = de/dc, Z = de/db of strictly-upper-triangular matrices."""
    alpha: float
    beta: float
    gamma: float


IDENTITY = HeisMatrix(0.0, 0.0, 0.0)
ORIGIN = HeisPoint(0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# matrix coordinates

def scalar_embed(x) -> HeisMatrix:
    """Embed a real x as the matrix with all three free entries equal.

    Injective; the product of two embedded reals carries x + y in both
    off-diagonal slots and x + y + x*y (the deformed sum) in the corner.
    """
    return HeisMatrix(x, x, x)


# mul and inv index their operands, so any (a, c, b) triple works: the
# integer lattice search multiplies plain int tuples with them
def mul(g1: HeisMatrix, g2: HeisMatrix) -> HeisMatrix:
    return HeisMatrix(g1[0] + g2[0], g1[1] + g2[1],
                      g1[2] + g2[2] + g1[0] * g2[1])


def inv(g: HeisMatrix) -> HeisMatrix:
    return HeisMatrix(-g[0], -g[1], g[0] * g[1] - g[2])


def commutator(g1: HeisMatrix, g2: HeisMatrix) -> HeisMatrix:
    """Group commutator g1 g2 g1^-1 g2^-1.

    Equals (0, 0, a1*c2 - c1*a2), always central. For two scalar_embed
    arguments a = c on both factors, so the commutator is the identity;
    see discrepancy entry 'embed-commutator-central-entry'.
    """
    return HeisMatrix(0.0, 0.0, g1.a * g2.c - g1.c * g2.a)


def double_commutator_check(g1: HeisMatrix, g2: HeisMatrix,
                            g3: HeisMatrix) -> bool:
    """True iff [g3, [g1, g2]] is the identity, for every element of a
    batch. Holds for all finite inputs: commutators are central, so the
    group is 2-step nilpotent."""
    return all(bool(np.all(c == 0.0))
               for c in commutator(g3, commutator(g1, g2)))


# ---------------------------------------------------------------------------
# exponential coordinates

def exp_mul(p1: HeisPoint, p2: HeisPoint) -> HeisPoint:
    return HeisPoint(p1.x + p2.x, p1.y + p2.y,
                     p1.z + p2.z + 0.5 * (p1.x * p2.y - p2.x * p1.y))


def exp_inv(p: HeisPoint) -> HeisPoint:
    return HeisPoint(-p.x, -p.y, -p.z)


def point_to_matrix(p: HeisPoint) -> HeisMatrix:
    """Group isomorphism from exponential to matrix coordinates:
    (x, y, z) -> (a=x, c=y, b=z + x*y/2)."""
    return HeisMatrix(p.x, p.y, p.z + 0.5 * p.x * p.y)


def matrix_to_point(g: HeisMatrix) -> HeisPoint:
    """Exact inverse of ``point_to_matrix``."""
    return HeisPoint(g.a, g.c, g.b - 0.5 * g.a * g.c)


def left_translate(g: HeisPoint, p: HeisPoint) -> HeisPoint:
    """Left translation p -> g * p in exponential coordinates."""
    return exp_mul(g, p)


def left_jacobian(g: HeisPoint) -> np.ndarray:
    """Differential of the left translation by g, as a 3x3 array.

    Independent of the point the translation acts on; its determinant is
    1, so left translations preserve volume. For coordinate columns (g.x
    and g.y arrays) it is one 3x3 per element, of shape g.x.shape + (3, 3).
    """
    x, y = np.broadcast_arrays(np.asarray(g.x, dtype=float),
                               np.asarray(g.y, dtype=float))
    J = np.zeros(x.shape + (3, 3))
    J[..., 0, 0] = J[..., 1, 1] = J[..., 2, 2] = 1.0
    J[..., 2, 0] = -0.5 * y
    J[..., 2, 1] = 0.5 * x
    return J


# ---------------------------------------------------------------------------
# Lie algebra

def lie_bracket(v1: LieVector, v2: LieVector) -> LieVector:
    """Matrix bracket AB - BA in the (X, Y, Z) basis:
    [X, Y] = Z and every other basis bracket vanishes."""
    return LieVector(0.0, 0.0, v1.alpha * v2.beta - v1.beta * v2.alpha)


def exp_map(v: LieVector) -> HeisMatrix:
    """Exponential of the strictly-upper-triangular matrix N(v).

    N^3 = 0, so exp N = I + N + N^2/2 exactly, giving
    (a=alpha, c=beta, b=gamma + alpha*beta/2).
    """
    return HeisMatrix(v.alpha, v.beta, v.gamma + 0.5 * v.alpha * v.beta)


def log_map(g: HeisMatrix) -> LieVector:
    """Exact inverse of ``exp_map``."""
    return LieVector(g.a, g.c, g.b - 0.5 * g.a * g.c)


# ---------------------------------------------------------------------------
# Abelian comparison group (translations of R^3, diagonal model)

def abelian_mul(u, v):
    """Componentwise sum: the product of the comparison group."""
    return (u[0] + v[0], u[1] + v[1], u[2] + v[2])


def abelian_inv(u):
    return (-u[0], -u[1], -u[2])


def abelian_commutator(u, v):
    """Always the identity: the comparison group is commutative."""
    del u, v
    return (0.0, 0.0, 0.0)


def abelian_bracket(v1, v2):
    """Zero bracket: the comparison Lie algebra is commutative."""
    del v1, v2
    return LieVector(0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# JSON forms used by the CLI: an element's JSON object is its ``_asdict()``

def element_from_json(data: dict):
    """Parse {"a":..,"c":..,"b":..} as HeisMatrix, {"x":..,"y":..,"z":..}
    as HeisPoint, or {"alpha":..,"beta":..,"gamma":..} as LieVector."""
    keys = set(data)
    for cls in (HeisMatrix, HeisPoint, LieVector):
        if keys == set(cls._fields):
            return cls(*(float(data[k]) for k in cls._fields))
    raise ValueError(f"unrecognized group element fields {sorted(keys)}")
