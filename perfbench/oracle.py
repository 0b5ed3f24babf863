"""Exact reference values the benchmark checks the library against.

Nothing here imports ``carnot_lab``: every value is derived from closed
forms, so a defect in the library cannot also hide in its oracle.

* ``l2_distance``: the sub-Riemannian (l2) distance from the origin of
  the Heisenberg group in exponential coordinates, from circular-arc
  geodesics (Gaveau 1977; Montgomery, *A Tour of Subriemannian
  Geometries*, 2002). With rho = |(x, y)| and w = |z| / rho^2, the planar
  projection of a geodesic is an arc of half-angle theta with
  ``(2 theta - sin 2 theta) / (8 sin^2 theta) = w`` and length
  ``rho * theta / sin theta``. theta runs over [0, pi); theta -> pi is
  the vertical limit ``2 sqrt(pi |z|)``.
* ``unit_ball_volume``: Lebesgue volume of the l2 unit ball, by 1-D
  quadrature over its boundary ``rho = sin(theta)/theta``,
  ``z = (2 theta - sin 2 theta) / (8 theta^2)``; ``V(r) = V1 * r^4``.
* ``octahedral_count``: |{v in Z^3 : ||v||_1 <= r}|.
* ``heis_ball_levels``: exact word norms in the integer Heisenberg group
  under the standard generators, by a plain breadth-first search written
  independently of the library's.
"""

from __future__ import annotations

import math

from scipy.integrate import quad
from scipy.optimize import brentq

_PI = math.pi


def _arc_excess(x):
    """x - sin x, accurate for small x (where the subtraction cancels)."""
    if x > 0.5:
        return x - math.sin(x)
    x2 = x * x
    # alternating Taylor series; the x^15 term is below 1e-17 relative
    term, total = x * x2 / 6.0, 0.0
    for k in range(1, 8):
        total += term
        term *= -x2 / ((2 * k + 2) * (2 * k + 3))
    return total


def _w_of_theta(theta):
    return _arc_excess(2.0 * theta) / (8.0 * math.sin(theta) ** 2)


def _w_of_psi(psi):
    # theta = pi - psi, well conditioned as the arc closes into a circle
    return (2.0 * _PI - 2.0 * psi + math.sin(2.0 * psi)) / \
        (8.0 * math.sin(psi) ** 2)


def l2_distance(x, y, z):
    """Exact l2 distance d(0, (x, y, z)) in exponential coordinates."""
    rho = math.hypot(x, y)
    az = abs(z)
    if az == 0.0:
        return rho
    if rho == 0.0:
        return 2.0 * math.sqrt(_PI * az)
    w = az / (rho * rho)
    if w <= _PI / 8.0:
        # w(theta) ~ theta/6 near 0, so [3w/4, pi/2] brackets the root
        theta = brentq(lambda t: _w_of_theta(t) - w, 3.0 * w / 4.0,
                       0.5 * _PI, xtol=1e-300, rtol=9e-16, maxiter=400)
        return rho * theta / math.sin(theta)
    # w(psi) >= pi / (8 psi^2), so w(psi) > w at half of sqrt(pi / (4 w))
    psi = brentq(lambda p: _w_of_psi(p) - w, 0.25 * math.sqrt(_PI / w),
                 0.5 * _PI, xtol=1e-300, rtol=9e-16, maxiter=400)
    return rho * (_PI - psi) / math.sin(psi)


def heis_mul(p, q):
    """Group product in exponential coordinates."""
    return (p[0] + q[0], p[1] + q[1],
            p[2] + q[2] + 0.5 * (p[0] * q[1] - q[0] * p[1]))


def heis_inv(p):
    return (-p[0], -p[1], -p[2])


def l2_pair_distance(a, b):
    """Exact d(a, b) = d(0, a^-1 b)."""
    return l2_distance(*heis_mul(heis_inv(a), b))


def _unit_ball_integrand(theta):
    # boundary of the unit ball: rho(theta) = sin(theta)/theta and
    # z(theta) = (2 theta - sin 2 theta) / (8 theta^2); the ball at radius
    # rho spans |z| <= z(theta), so V1 = int 4 pi rho z |d rho / d theta|
    s, c = math.sin(theta), math.cos(theta)
    rho = s / theta
    drho = (theta * c - s) / (theta * theta)
    z = _arc_excess(2.0 * theta) / (8.0 * theta * theta)
    return 4.0 * _PI * rho * z * -drho


def unit_ball_volume():
    """Volume V1 of the l2 unit ball (about 0.8258758)."""
    value, _ = quad(_unit_ball_integrand, 0.0, _PI, epsabs=1e-14,
                    epsrel=1e-13, limit=200)
    return value


def octahedral_count(r):
    """Exact number of points of Z^3 with l1 norm at most r."""
    return (2 * r + 1) * (2 * r * r + 2 * r + 3) // 3


def heis_ball_levels(radius):
    """Spheres S_0..S_radius of the integer Heisenberg group, matrix
    coordinates (a, c, b) with (a1, c1, b1)(a2, c2, b2) =
    (a1 + a2, c1 + c2, b1 + b2 + a1 c2), standard generators a^+-1,
    c^+-1. Returns a list of sorted lists."""
    gens = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))
    seen = {(0, 0, 0)}
    levels = [[(0, 0, 0)]]
    for _ in range(radius):
        nxt = []
        for g in levels[-1]:
            for s in gens:
                h = (g[0] + s[0], g[1] + s[1], g[2] + s[2] + g[0] * s[1])
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        levels.append(sorted(nxt))
    return levels
