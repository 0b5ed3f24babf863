"""Carnot-Caratheodory distance with exact geodesics.

The distance between A and B is the infimum of horizontal path length.
For the l1 norm it has a closed form: the isoperimetrix of l1 is the
axis-parallel square (Busemann 1947), so geodesics are arcs of that
square, at most four pieces of constant axis control, and the distance is
a three-case formula, ``l1_distance``, in max(|x|, |y|), min(|x|, |y|)
and |z| (Duchin and Mooney 2014). linf reduces to l1 through the
automorphism (x, y, z) -> (x + y, x - y, -2z). For l2 the distance is
approximated from above by direct transcription: N piecewise constant
controls on a unit time grid, whose shortest path is known exactly, an
equilateral polygon of constant turning whose total turning solves one
scalar equation, solved in Python floats; its endpoint is checked from
one prefix sum, and a Gauss-Newton projection onto the endpoint
constraint runs where that check fails. Every value is bracketed from
above by itself, the length of a feasible witness path, and from below
by the exact distance in closed form, ``l1_distance`` or
``l2_distance``, capped within rounding.

Two exact symmetries are used to precondition every solve: the problem is
left-translated so the start is the origin, and rescaled by the
homogeneous gauge max(planar, sqrt|z|) so the target has unit size. Both
are isometries (up to the linear dilation factor), so invariance of the
reported distance under left translation and dilation holds by
construction.

The l2 distance from the origin also has a closed form, ``l2_distance``,
and so does the l2 sphere, a meridian curve turned about the z axis:
at fixed rho the ball of radius r is |z| <= r^2 H(rho / r), H the
meridian's height. A Monte Carlo volume fit cuts its box into slabs
over annuli by a certified table of H (of the circle, for Euclidean
balls), deals the samples among them with one multinomial draw per
radius, and draws only the samples of the slabs the table leaves open,
about one in 7,700 for the l2 ball; each is decided by the height
itself, the one the table bounds.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np
# nothing here calls minimize; the benchmark's tracer wraps distance.minimize
from scipy.optimize import minimize  # noqa: F401

from .errors import DomainError
from .geometry import (HORIZONTAL_NORMS, HorizontalPath, cc_length,
                       chow_connect, integrate_path)
from .heisenberg import ORIGIN, HeisPoint, exp_inv, exp_mul

DEFAULT_SEGMENTS = 64
DEFAULT_ENDPOINT_TOL = 1e-6
# Monte Carlo samples per radius that the fit and the CLI accept (the
# fit's work grows only with the few samples the table leaves open)
MAX_SAMPLES = 10 ** 7
# slots of an l2 transcription that ``cc_distance`` accepts: a solve at
# the cap holds a few arrays of 2e6 floats, ~0.2 GB at its peak
MAX_SEGMENTS = 10 ** 6


@dataclass(frozen=True)
class DistanceResult:
    value: float
    witness: HorizontalPath
    lower: float
    upper: float
    endpoint_error: float
    degraded: bool = False
    norm: str = "l2"
    segments: int = DEFAULT_SEGMENTS


# ---------------------------------------------------------------------------
# transcription machinery (all in normalized coordinates, start = origin)

def _endpoint(u, v, dt):
    X = np.concatenate(([0.0], np.cumsum(u[:-1]))) * dt
    Y = np.concatenate(([0.0], np.cumsum(v[:-1]))) * dt
    ex = dt * u.sum()
    ey = dt * v.sum()
    ez = 0.5 * dt * float(np.sum(X * v - Y * u))
    return np.array([ex, ey, ez]), X, Y


def _endpoint_jacobian(u, v, dt, X, Y):
    n = len(u)
    J = np.zeros((3, 2 * n))
    J[0, :n] = dt
    J[1, n:] = dt
    suffix_v = np.concatenate((np.cumsum(v[::-1])[::-1][1:], [0.0]))
    suffix_u = np.concatenate((np.cumsum(u[::-1])[::-1][1:], [0.0]))
    J[2, :n] = 0.5 * dt * (-Y) + 0.5 * dt * dt * suffix_v
    J[2, n:] = 0.5 * dt * X - 0.5 * dt * dt * suffix_u
    return J


def _slot_endpoint(U, dt):
    """Endpoint (x, y, z) of the slot controls U = (u, v) on slots of
    duration dt from the origin, in Python floats, from one prefix sum."""
    n = len(U) // 2
    uv = U.reshape(2, n)
    C = np.cumsum(uv, axis=1)
    cx, cy = C[:, -1].tolist()
    # z = (dt^2 / 2) sum_k (X_k v_k - Y_k u_k) over the prefix sums X, Y
    # through slot k, which add the zero u_k v_k - v_k u_k to each term
    cz = float(C[0] @ uv[1] - C[1] @ uv[0])
    return dt * cx, dt * cy, 0.5 * dt * dt * cz


def _project_endpoint(U, target, dt, tol):
    """Gauss-Newton projection onto the endpoint constraint.

    The slot polygon meets its target within rounding but near a few
    degenerate ones, so ``_slot_endpoint`` checks it first; only where
    that check fails does Gauss-Newton build its arrays and iterate."""
    (x, y, z), (tx, ty, tz) = _slot_endpoint(U, dt), target.tolist()
    err = max(abs(x - tx), abs(y - ty), abs(z - tz))
    if err <= tol:
        return U, err
    n = len(U) // 2
    for _ in range(30):
        u, v = U[:n], U[n:]
        P, X, Y = _endpoint(u, v, dt)
        err = P - target
        if float(np.max(np.abs(err))) <= tol:
            return U, float(np.max(np.abs(err)))
        J = _endpoint_jacobian(u, v, dt, X, Y)
        try:
            s = np.linalg.solve(J @ J.T + 1e-14 * np.eye(3), err)
        except np.linalg.LinAlgError:
            break
        U = U - J.T @ s
    u, v = U[:n], U[n:]
    P, _, _ = _endpoint(u, v, dt)
    return U, float(np.max(np.abs(P - target)))


# the turning below which g(Phi) = n sin(Phi/n) - sin Phi is summed from
# its series, and the series' terms: at Phi = 2 the next term is below
# 1e-17 of the sum, and above it the difference cancels less than 2 bits
_SERIES_TURN = 2.0
_SERIES_TERMS = 11


@functools.cache
def _turning_series(n):
    """Coefficients, highest first, of g(Phi) / Phi^3 = sum_{j >= 1}
    (-1)^{j+1} (1 - n^{-2j}) Phi^{2j-2} / (2j+1)! as a polynomial in
    Phi^2, for Horner's rule."""
    return tuple((-1) ** (j + 1) * (1.0 - float(n) ** (-2 * j))
                 / math.factorial(2 * j + 1)
                 for j in range(_SERIES_TERMS, 0, -1))


def _turning_quotient(turn, small, half, n):
    """g(Phi) / (small Phi^2) for the n-slot turning equation, g(Phi) =
    n sin(Phi/n) - sin Phi = 4 s_1 sum_k s_k s_{k+1}, s_j = sin(j Phi / 2n),
    at Phi = ``turn`` with small = min(Phi, 2 pi - Phi) and half =
    sin(small / 2), in Python floats.

    Below ``_SERIES_TURN``, where small = Phi, it is g / Phi^3 by the
    alternating series, so nothing cancels and no power of Phi underflows. Above it g is the
    difference itself, with sin Phi = -sin(2 pi - Phi) past pi and, for
    n = 2, sin(Phi / 2) = half, so that it keeps its digits as the loop
    closes; over small, it stays a normal float where 2 pi - Phi is tiny.
    """
    if turn < _SERIES_TURN:
        phi2, quotient = turn * turn, 0.0
        for c in _turning_series(n):
            quotient = quotient * phi2 + c
        return quotient
    g = ((2.0 * half if n == 2 else n * math.sin(turn / n))
         + (-math.sin(small) if turn <= math.pi else math.sin(small)))
    return g / small / (turn * turn)


def _l2_polygon(target, n):
    """Controls of the shortest n-slot l2 path to ``target``, or None when
    no n-slot path reaches it (n = 1 off the plane z = 0, n = 2 on the
    vertical axis) or its length is not a finite float (n = 2 nearly on
    the axis).

    The minimizer is an equilateral polygon of constant turning, controls
    c e^{i s k phi} with s = sign(z), k = 0 .. n-1: inscribed in a circle,
    it encloses the most area against its chord for its length (the
    discrete isoperimetric inequality). Its total turning Phi = n phi in
    [0, 2 pi) solves g(Phi) / (8 sin^2(Phi/2)) = w, with g(Phi) =
    n sin(Phi/n) - sin Phi and w = |z| / rho^2; the left side is monotone
    in Phi and tends to the arc equation of ``l2_distance`` as n grows.
    Newton solves it in t = log(Phi / (2 pi - Phi)), against whose ends
    the log of the left side is nearly linear, from the arc's turning
    2 theta: since n sin(Phi/n) < Phi the root lies above it. A step that
    would leave the proven bracket of the root bisects it instead. Each
    step costs a few scalar sines, ``_turning_quotient``; only the
    controls of the root are arrays.
    """
    x, y, z = (float(c) for c in target)
    rho = math.hypot(x, y)
    w = abs(z) / rho / rho if rho > 0.0 else math.inf
    if z != 0.0 and (n == 1 or (n == 2 and w == math.inf)):
        return None
    if w < sys.float_info.min:
        # w = 0, or subnormal: the straight slot path to every digit
        turn, length = 0.0, rho
    elif w == math.inf:
        # on the vertical axis the polygon closes: Phi = 2 pi, and the
        # length is n sin(pi/n) sqrt(8 |z| / (n sin(2 pi / n)))
        turn = 2.0 * math.pi
        length = n * math.sin(math.pi / n) * math.sqrt(
            8.0 * abs(z) / (n * math.sin(turn / n)))
    else:
        # bracket: the root has Phi >= min(8w, pi), as the continuous arc
        # does, and 2 pi - Phi >= min(pi/2, 1/(2 pi w)), since the left
        # side is at least 1/(pi (2 pi - Phi)) in that range
        log_w = math.log(w)
        a = min(0.0, math.log(4.0 / math.pi) + log_w)
        b = max(math.log(4.0), 2.0 * math.log(2.0 * math.pi) + log_w)
        _, theta, psi = _l2_float(rho, abs(z))
        t = min(max(math.log(theta / psi), a), b)
        # Newton ends after two to six evaluations of g, the last only for
        # the length; bisections alone would narrow the bracket to a
        # rounding in fewer than 64
        last = False
        for _ in range(100):
            # the turning Phi at t, and small = min(Phi, 2 pi - Phi), so
            # that half = sin(Phi/2) keeps its digits as the loop closes
            e = math.exp(-abs(t))
            small = 2.0 * math.pi * e / (1.0 + e)
            big = 2.0 * math.pi / (1.0 + e)
            turn = big if t >= 0.0 else small
            half = math.sin(0.5 * small)
            quotient = _turning_quotient(turn, small, half, n)
            if last:
                break
            # the left side over w, g / (8 half^2 w), as one product of
            # factors that neither under- nor overflow: (small/2) / half
            # lies in [1, pi/2]
            excess = math.log(turn / w * (turn / small) * quotient
                              * (0.5 * small / half) ** 2 * 0.5)
            if excess == 0.0:
                break
            if excess < 0.0:
                a = t
            else:
                b = t
            # d excess / dPhi = g'(Phi) / g(Phi) - cot(Phi/2), where g' =
            # cos(Phi/n) - cos Phi = 2 sin(Phi (n+1) / 2n) sin(Phi (n-1) /
            # 2n), times dPhi/dt = Phi (2 pi - Phi) / (2 pi), with each
            # sine taken over Phi or small so that no factor under- or
            # overflows
            slope = big / (2.0 * math.pi) * (
                2.0 * (math.sin(turn * (n + 1) / (2 * n)) / turn)
                * (math.sin(turn * (n - 1) / (2 * n)) / turn) / quotient
                - math.cos(0.5 * turn) * (small / half))
            step = _quotient(excess, slope)
            # a step within rounding is the last one
            near = 4.0 * sys.float_info.epsilon * max(1.0, abs(t))
            last = abs(step) <= near or b - a <= near
            t -= step
            if not a <= t <= b:  # also a NaN step
                t = 0.5 * (a + b)
        # the length fits both the chord, rho n sin(Phi / 2n) / half, and
        # the area, n sin(Phi / 2n) sqrt(8 |z| / g); t has a rounding of
        # |t| eps, and below pi the chord's form moves the least with it.
        # In Python floats, which overflow to inf without a warning
        s1 = math.sin(turn / (2 * n))
        if t < 0.0:
            length = n * (s1 / half) * rho
        else:
            g = quotient * small * turn * turn
            length = n * s1 * math.sqrt(8.0 * abs(z) / g)
        if not math.isfinite(length):
            return None
    sign = math.copysign(1.0, z)
    step = turn / n
    angle = (math.atan2(y, x) - 0.5 * sign * (turn - step)
             + sign * step * np.arange(n))
    return length * np.concatenate((np.cos(angle), np.sin(angle)))


def _solve_normalized(target, segments, restore_tol):
    """Shortest n-slot l2 controls, as (length, U, endpoint error), or
    None if the exact polygon does not reach the endpoint."""
    U = _l2_polygon(target, segments)
    if U is None:
        return None
    dt = 1.0 / segments
    U, err = _project_endpoint(U, target, dt, restore_tol)
    if not err <= restore_tol:  # also refuses a NaN error
        return None
    n = segments
    return dt * float(np.sum(np.hypot(U[:n], U[n:]))), U, err


def _chow_length(d):
    """Length of ``chow_connect``'s path across the difference d = A^-1 B,
    hypot(dx, dy) + 4 sqrt|dz| summed left to right as ``cc_length`` sums
    its pieces: its value bit for bit, without building the path."""
    side = math.sqrt(abs(d.z))
    return float(np.hypot(d.x, d.y)) + side + side + side + side


def l1_distance(x, y, z):
    """Exact l1 distance from the origin to (x, y, z), in closed form.

    In the reduced frame h = max(|x|, |y|), l = min(|x|, |y|), zeta = |z|
    it is h + l for zeta <= hl/2 (a staircase), h + 2 zeta / h for
    zeta <= h^2 - hl/2 (a detour below the chord) and
    4 sqrt(zeta + hl/2) - h - l beyond (an arc of the square of side
    sqrt(zeta + hl/2)); half the l1 distance to (x + y, x - y, -2z) is the
    linf distance. h l and zeta lose digits where they are subnormal, so
    evaluate it at a normalized target and scale the result. NaN where a
    coordinate is NaN.
    """
    if math.isnan(x) or math.isnan(y):  # max and min would drop it
        return math.nan
    h, l = max(abs(x), abs(y)), min(abs(x), abs(y))
    zeta, m = abs(z), 0.5 * h * l
    if zeta <= m:
        return h + l
    if zeta <= h * h - m:
        return h + 2.0 * zeta / h
    return 4.0 * math.sqrt(zeta + m) - h - l


def _l1_geodesic(target, norm="l1"):
    """Witness controls (u, v, dt) of an l1, or linf, geodesic from the
    origin to ``target``: per case of ``l1_distance``, at most four unit
    axis controls of free duration in the reduced frame, mapped to the
    target by the signed permutation of (x, y) that reduced it; reversing
    the pieces flips the sign of z."""
    x, y, z = (float(c) for c in target)
    if norm == "linf":
        # Phi(x, y, z) = (x + y, x - y, -2z) is an automorphism whose
        # differential doubles linf speeds into l1 speeds, so an l1
        # geodesic to Phi(target), mapped back, is a linf geodesic
        u, v, dt = _l1_geodesic((x + y, x - y, -2.0 * z)).T
        return np.column_stack((0.5 * (u + v), 0.5 * (u - v), dt))
    h, l = max(abs(x), abs(y)), min(abs(x), abs(y))
    zeta, m = abs(z), 0.5 * h * l
    if zeta <= m:
        s = (zeta + m) / l if l > 0.0 else h
        pieces = [(1, 0, s), (0, 1, l), (1, 0, h - s)]
    elif zeta <= h * h - m:
        a = (zeta - m) / h
        pieces = [(0, -1, a), (1, 0, h), (0, 1, l + a)]
    else:
        s = math.sqrt(zeta + m)
        pieces = [(0, -1, s - l), (1, 0, s), (0, 1, s), (-1, 0, s - h)]
    ctl = np.array(pieces, dtype=float)
    ctl = ctl[ctl[:, 2] > 0.0]
    sx, sy = math.copysign(1.0, x), math.copysign(1.0, y)
    swap = abs(y) > abs(x)
    ctl[:, :2] = ctl[:, [1, 0] if swap else [0, 1]] * (sx, sy)
    if (-sx if swap else sx) * sy * z < 0.0:  # the map reverses orientation
        ctl = ctl[::-1]
    return ctl


def cc_distance(A, B, *, segments=DEFAULT_SEGMENTS, norm="l2",
                endpoint_tol=DEFAULT_ENDPOINT_TOL) -> DistanceResult:
    """Distance between the points A and B with a feasible witness path.

    For l1 and linf the value is exact. It is the measured length of the
    witness, an arc of the square (through Phi for linf), whose length
    ``l1_distance`` gives in closed form. As a numerical check, the tests
    find no word of the discrete Heisenberg group, a unit-speed l1 path,
    shorter than the value. ``segments`` is unused for these norms.

    For l2 the value is the length of the witness, the shorter of the
    exact shortest path on ``segments`` equal time slots and the explicit
    segment+loop connection, so it is an upper bound on the true
    distance; ``degraded`` is set when no slot path reaches the endpoint.

    The bracket follows one rule for every norm. ``upper`` is the
    witness's own length, the value. ``lower`` is the exact distance in
    closed form apart from the witness, ``l2_distance`` or ``l1_distance``,
    capped at the value where rounding and the endpoint error put it above
    by a relative 1e-12 at most; a larger excess is a fault. For l1 and
    linf the two agree, so a wrong witness or formula opens the bracket.

    ``norm`` must be one of ``HORIZONTAL_NORMS``, ``segments`` an integer
    in [1, ``MAX_SEGMENTS``], ``endpoint_tol`` positive and finite.
    """
    if isinstance(segments, bool) \
            or not isinstance(segments, numbers.Integral) \
            or not 1 <= segments <= MAX_SEGMENTS:
        raise DomainError(f"segments must be an integer in [1, 1e6], "
                          f"got {segments!r}")
    if isinstance(endpoint_tol, bool) \
            or not isinstance(endpoint_tol, numbers.Real) \
            or not 0.0 < endpoint_tol < math.inf:
        raise DomainError(f"endpoint tolerance must be positive and finite, "
                          f"got {endpoint_tol!r}")
    if norm not in HORIZONTAL_NORMS:
        raise DomainError(f"unknown horizontal norm {norm!r}")
    A = HeisPoint(*A)
    B = HeisPoint(*B)
    delta = exp_mul(exp_inv(A), B)
    if delta == (0.0, 0.0, 0.0):
        return DistanceResult(0.0, HorizontalPath(A), 0.0, 0.0, 0.0,
                              norm=norm, segments=segments)

    scale = max(math.hypot(delta.x, delta.y), math.sqrt(abs(delta.z)))
    if not (math.isfinite(scale * scale) and math.isfinite(delta.z)):
        raise DomainError(f"A^-1 B = {tuple(delta)} is too large to solve: "
                          f"its squared gauge is not a finite float")
    # divide twice where the squared gauge underflows
    that = np.array([delta.x / scale, delta.y / scale,
                     delta.z / (scale * scale)
                     if scale * scale >= sys.float_info.min
                     else delta.z / scale / scale])
    # takes a normalized endpoint error back: x and y by scale, z by scale^2
    err_scale = max(scale, scale * scale)
    degraded = False
    if norm == "l2":
        lower = l2_distance(math.hypot(delta.x, delta.y), abs(delta.z))
        restore_tol = max(5e-16, min(1e-13, endpoint_tol / (10.0 * err_scale)))
        sol = _solve_normalized(that, segments, restore_tol)
        degraded = sol is None
        # the segment+loop connection, unless the slot path is no longer;
        # its path is built only where it wins
        value = _chow_length(delta)
        if not degraded and scale * sol[0] <= value:
            length_hat, U, err_hat = sol
            n = segments
            # rows (scale u_k, scale v_k, 1/n), filled in place
            controls = np.full((3, n), 1.0 / n)
            np.multiply(U.reshape(2, n), scale, out=controls[:2])
            witness = HorizontalPath(A, controls.T)
            value, err = scale * length_hat, err_hat * err_scale
        else:
            witness, err = chow_connect(A, B), 0.0
    else:
        # both at the normalized target: at the raw difference of a tiny
        # gauge the durations, h l and zeta go subnormal and lose digits
        x, y, z = that
        lower = scale * (l1_distance(x, y, z) if norm == "l1"
                         else 0.5 * l1_distance(x + y, x - y, -2.0 * z))
        controls = _l1_geodesic(that, norm)
        path = HorizontalPath(ORIGIN, controls)
        err_hat = float(np.max(np.abs(np.subtract(integrate_path(path),
                                                  that))))
        value, err = scale * cc_length(path, norm), err_hat * err_scale
        controls[:, 2] *= scale
        controls = controls[controls[:, 2] > 0.0]  # lost to underflow
        witness = HorizontalPath(A, controls)
    # the witness is a feasible path, so its length bounds from above; a
    # lower bound above it by rounding only is capped
    lower = float(lower)
    lower = value if value < lower <= value + 1e-12 * value else lower
    return DistanceResult(value, witness, lower, value, err,
                          degraded=degraded, norm=norm, segments=segments)


# ---------------------------------------------------------------------------
# exact l2 distance (circular-arc geodesics)

_NEWTON_STEPS = 5  # reaches 1e-15 relative error for w in [1e-8, 1e8]
# cells of the ball tables over u = rho / r in [0, 1), the annuli of the
# Monte Carlo partition
_MERIDIAN_CELLS = 1 << 11


def _quotient(num, den):
    """num / den as IEEE 754 divides floats: x / 0 is +-inf, 0 / 0 NaN."""
    try:
        return num / den
    except ZeroDivisionError:
        return num * math.copysign(math.inf, den) if num else math.nan


def _l2_float(rho, az):
    """``l2_distance`` at one pair of Python floats rho, az >= 0, with the
    arc's half-angle theta and pi - theta: (distance, theta, pi - theta).

    q = sqrt(w) stays accurate where rho^2 underflows, and the axis value
    where pi |z| would under- or overflow (it is taken 2^600 toward 1).
    Newton runs on the equation times 8 sin^2, finite at both ends, in
    the unknown of its branch, so the second of the two angles keeps its
    digits as the arc closes, and is clipped to a proven bracket of it,
    which also takes a NaN step back to its start."""
    if rho == 0.0 and az == 0.0:
        return rho, 0.0, math.pi
    q = math.sqrt(az) / rho if rho != 0.0 else math.inf
    if math.isinf(q):
        up = 300 if az < 1.0 else -300
        return (math.ldexp(2.0 * math.sqrt(math.pi * math.ldexp(az, 2 * up)),
                           -up), math.pi, 0.0)
    w = q * q
    if 0.0 < w <= math.pi / 8:
        # theta lies in [4w, min(6w, pi/2)]: w(theta) is convex with slope
        # 1/6 at 0 and chord slope 1/4 to pi/2. Newton descends from the
        # top of the bracket
        lo, hi = 4.0 * w, min(6.0 * w, 0.5 * math.pi)
        t = hi
        for _ in range(_NEWTON_STEPS):
            s = math.sin(t)
            n = 2.0 * t - math.sin(2.0 * t)
            qs = q * s
            t -= _quotient(n - 8.0 * (qs * qs),
                           4.0 * s * s - 2.0 * n * math.cos(t) / s)
            # clipped to [lo, hi]; a NaN goes to hi
            t = t if t < hi else hi
            t = t if t > lo else lo
        return rho * t / math.sin(t), t, math.pi - t
    if w > math.pi / 8:
        # psi lies in [p_lo, pi/2], p_lo = sqrt(pi / (4w)): w(psi) is
        # decreasing and at least pi / (4 psi^2). It is convex, so Newton
        # climbs from p_lo without passing the root
        p_lo = 0.5 * math.sqrt(math.pi) / q
        p = p_lo
        for _ in range(_NEWTON_STEPS):
            s = math.sin(p)
            n = 2.0 * math.pi - 2.0 * p + math.sin(2.0 * p)
            qs = q * s
            p += _quotient(n - 8.0 * (qs * qs),
                           4.0 * s * s + 2.0 * n * math.cos(p) / s)
            # clipped to [p_lo, pi/2]; a NaN goes to p_lo
            p = p if p > p_lo else p_lo
            p = p if p < 0.5 * math.pi else 0.5 * math.pi
        return rho * (math.pi - p) / math.sin(p), math.pi - p, p
    return rho, 0.0, math.pi  # w = 0, or rho = az = inf


def l2_distance(rho, abs_z):
    """Exact l2 distance from the origin to points with planar radius
    ``rho`` and vertical gap ``abs_z``; NaN where either is NaN or
    negative. Two scalars give a Python float; arrays are broadcast
    together and give a float array of their shape, element by element.

    Geodesics project to circular arcs (Gaveau 1977; Montgomery 2002).
    With w = abs_z / rho^2 the arc's half-angle theta in [0, pi) solves
    (2 theta - sin 2 theta) / (8 sin^2 theta) = w, and the distance is
    rho theta / sin theta (2 sqrt(pi abs_z) on the vertical axis). Newton
    runs in theta for w <= pi/8, in psi = pi - theta as the arc closes,
    clipped to a proven bracket of the unknown, in Python floats
    (``_l2_float``).
    """
    if not (isinstance(rho, (int, float)) and isinstance(abs_z, (int, float))):
        rho, az = np.broadcast_arrays(np.asarray(rho, dtype=float),
                                      np.asarray(abs_z, dtype=float))
        return np.array([l2_distance(p, q) for p, q in
                         zip(rho.ravel().tolist(), az.ravel().tolist())],
                        dtype=float).reshape(rho.shape)
    if not (rho >= 0 and abs_z >= 0):  # also NaN
        return math.nan
    return _l2_float(float(rho), float(abs_z))[0]


def _meridian(u):
    """The unit l2 sphere's meridian over u = rho / r in [0, 1], an array:
    (t, H), the half-angle t in (0, pi] with sin t = u t, by Newton from
    t = sqrt(6 (1 - u)), to a rounding in five steps, and the height
    H(u) = (2t - sin 2t) / (8 t^2). At u = 1 the meridian meets the plane:
    H = 0 (t is NaN there, where Newton's first step is 0 / 0)."""
    t = np.minimum(np.sqrt(6.0 * (1.0 - u)), np.pi)
    with np.errstate(invalid="ignore"):
        for _ in range(5):
            t = np.minimum(np.pi, t - (np.sin(t) - u * t) / (np.cos(t) - u))
    return t, np.where(u < 1.0, (2.0 * t - np.sin(2.0 * t)) / (8.0 * t * t),
                       0.0)


def _height(metric, u):
    """Height of ``metric``'s unit ball over u = rho / r in [0, 1], an
    array, in units of the box's half-height Z (r^2 for cc, r Euclidean):
    the meridian's H(u), or sqrt(1 - u^2). It is what the ball tables
    bound, and the ball of radius r is {rho <= r, |z| <= Z height}."""
    return _meridian(u)[1] if metric == "cc" else np.sqrt(1.0 - u * u)


@functools.cache
def _meridian_table():
    """Certified bounds (lo, hi) of the l2 ball's height per cell of
    u = rho / r: two arrays of K + 2 entries, K = ``_MERIDIAN_CELLS``,
    built on first use (~0.5 ms).

    The sphere of radius s is the meridian rho = s u, |z| = s^2 H turned
    about the z axis, where u = sin t / t, H = (2t - sin 2t) / (8 t^2)
    and t runs over [0, pi] (Montgomery 2002). At fixed rho the distance
    increases with |z|, so the ball of radius s is {rho <= s, |z| <=
    Z_s(rho)}, Z_s(rho) = s^2 H(rho / s). Since dH/du = -cos t / (2t), H
    rises on [0, 2/pi] from 1/(4 pi) to 1/(2 pi) and falls to 0 at u = 1:
    on cell k, [k/K, (k+1)/K], H lies between the cell's knot values, or
    at most 1/(2 pi) in the cell of 2/pi. The knots come from
    ``_meridian``, whose H also decides the fit's open samples.

    For a point of cell k = floor(rho K / r) and r' = r(1 -+ 1e-12),
    rho / r' lies in the cell widened to [k/K (1 - d), (k+1)/K (1 + d)],
    d = 2e-12, which covers the 1e-12 and the roundings of rho and of the
    index where the cell is read in floats. Below u_{K-1} (1 + d) the
    slope |dH/du| is less than 1 / t_{K-1}, so on the widened cells
    0 .. K - 2 H passes its knot values by less than d / t_{K-1}. The
    dilation, Z_r'(rho) = (r'/r)^2 r^2 H(rho / r'), and the roundings of
    the knots and of r^2 lo and r^2 hi add less than d r^2 / 4, as
    H <= 1 / (2 pi). So
    with pad = d (1 + 1 / t_{K-1}) taken off lo and added to hi,
    r^2 lo[k] <= Z_{r(1-1e-12)}(rho) and r^2 hi[k] >= Z_{r(1+1e-12)}(rho):
    a point with |z| <= r^2 lo[k] is inside the ball of radius
    r(1 - 1e-12), one with |z| > r^2 hi[k] outside that of radius
    r(1 + 1e-12). The widened cells K - 1 and K reach past u = 1, where
    the ball ends: lo = -1, none is inside, and hi is that of cell K - 1,
    since H decreases there. From cell K + 1 on, rho > r(1 + 1e-12) and
    lo = hi = -1: all are outside.
    """
    K = _MERIDIAN_CELLS
    t, knots = _meridian(np.arange(K + 1) / K)
    pad = 2e-12 * (1.0 + 1.0 / t[K - 1])
    lo = np.minimum(knots[:-1], knots[1:]) - pad
    hi = np.maximum(knots[:-1], knots[1:]) + pad
    hi[int(2.0 * K / np.pi)] = 0.5 / np.pi + pad
    lo[-1] = -1.0
    lo, hi = np.append(lo, (-1.0, -1.0)), np.append(hi, (hi[-1], -1.0))
    # every caller shares the cached arrays
    lo.flags.writeable = hi.flags.writeable = False
    return lo, hi


@functools.cache
def _sphere_table():
    """Certified bounds (lo, hi) of the Euclidean ball's height
    sqrt(1 - u^2) per cell of u = rho / r, in units of r, laid out and
    padded as the bounds of ``_meridian_table``: K + 2 entries each.

    The height decreases in u, so on cell k it lies between its values
    at the knots (k+1)/K and k/K. On the cells widened by d = 2e-12 it
    passes them by less than d s, s the slope u / sqrt(1 - u^2) at
    u_{K-1} (1 + d) (about 32), and the dilation and the roundings add
    less than d, as the height is at most 1: pad = d (1 + s). The cells
    past u_{K-1} are set as in ``_meridian_table``.
    """
    K = _MERIDIAN_CELLS
    u = np.arange(K + 1) / K
    knots = _height("euclidean", u)
    edge = (K - 1) / K * (1.0 + 2e-12)
    pad = 2e-12 * (1.0 + edge / math.sqrt(1.0 - edge * edge))
    lo, hi = knots[1:] - pad, knots[:-1] + pad
    lo[-1] = -1.0
    lo, hi = np.append(lo, (-1.0, -1.0)), np.append(hi, (hi[-1], -1.0))
    lo.flags.writeable = hi.flags.writeable = False
    return lo, hi


@functools.cache
def _partition(metric):
    """The partition of the Monte Carlo box of ``metric``'s balls, the
    same at every radius, as (lo, hi, pvals).

    Both balls are solids of revolution whose height scales as the box's
    z half-height Z (r^2 for cc, r for Euclidean), so in units of r and
    Z every box is [-1, 1]^2 x [-1, 1] and every ball the same. Its
    table, ``_meridian_table`` or ``_sphere_table``, cuts the disk
    rho < 1 into K annuli k/K <= rho < (k+1)/K, and each annulus into a
    slab certainly inside the ball, |z| <= lo[k] (lo clipped at 0), an
    open slab, lo[k] < |z| <= hi[k], and the rest, outside; so are the
    box's corners rho >= 1. A slab a < |z| <= b over annulus k takes the
    share pi (2k + 1) (b - a) / (4 K^2) of the box. ``pvals`` lists the
    share of all inside slabs, then those of the K open slabs, then a 0
    that ``multinomial`` reads as the rest.
    """
    lo, hi = _meridian_table() if metric == "cc" else _sphere_table()
    K = _MERIDIAN_CELLS
    lo, hi = np.maximum(lo[:K], 0.0), hi[:K]
    share = np.pi * (2 * np.arange(K) + 1) / (4 * K * K)
    pvals = np.concatenate(([share @ lo], share * (hi - lo), [0.0]))
    lo.flags.writeable = hi.flags.writeable = pvals.flags.writeable = False
    return lo, hi, pvals


# ---------------------------------------------------------------------------
# Monte Carlo volume scaling

@dataclass(frozen=True)
class VolumeFit:
    metric: str
    exponent: float
    intercept: float
    max_residual: float
    radii: tuple
    volumes: tuple
    hits: tuple
    std_errors: tuple
    samples: int
    seed: int


def ball_volume_fit(metric, radii, samples, seed) -> VolumeFit:
    """Monte Carlo volume of metric balls and the log-log scaling fit.

    Euclidean balls are sampled in the cube [-r, r]^3; distance balls in
    the anisotropic box [-r, r]^2 x [-r^2, r^2], with the l2 norm as the
    horizontal one. Expected exponents: 3 for the Euclidean metric, 4 for
    the horizontal one.

    ``_partition`` cuts each box into slabs over annuli certainly inside
    the ball, open and outside. Per radius one multinomial draw deals the
    ``samples`` points among them; only the points of the open slabs
    (about one in 7,700 for cc, one in 1,700 Euclidean) are drawn, rho^2
    uniform on their annulus and |z| on their slab, and each is inside
    if |z| <= Z ``_height``(rho / r), Z the box's half-height: the height
    profile the tables bound, one test for both metrics. The tests find
    these decisions equal to ``l2_distance`` and the squared norm, also
    on points planted a relative 1e-13 off the sphere. The hit count is
    that of ``samples`` uniform points of the box in law,
    Binomial(samples, volume / box), and the work per radius grows only
    with the open points. Each radius draws from its own generator,
    spawned from the one seeded by ``seed``, so its hits depend only on
    the seed and its place in the list.

    Every radius must have a box volume (8 r^3 Euclidean, 8 r^4 cc) that
    is a finite, normal, positive float, so that the volumes, their logs
    and the squares of the samples are all finite, and the fit's design
    [log r, 1] must have rank 2; at most 1e7 samples per radius, at least
    1e4; the seed must be a non-negative integer. Anything else is
    refused before drawing.
    """
    radii = [float(r) for r in radii]
    if len(radii) < 3:
        raise DomainError("need at least 3 radii to fit an exponent")
    if not all(0.0 < r < math.inf for r in radii):
        raise DomainError("radii must be positive and finite")
    logr = np.log(np.asarray(radii))
    design = np.column_stack([logr, np.ones_like(logr)])
    # radii whose logs barely differ leave the slope undetermined
    if np.linalg.matrix_rank(design) < 2:
        raise DomainError("degenerate fit: the logs of the radii have no "
                          "spread")
    if isinstance(samples, bool) or not isinstance(samples, numbers.Integral):
        raise DomainError(f"samples must be an integer, got {samples!r}")
    if samples < 10_000:
        raise DomainError("need at least 1e4 samples per radius")
    if samples > MAX_SAMPLES:
        raise DomainError(f"at most 1e7 samples per radius, got {samples}")
    if metric not in ("cc", "euclidean"):
        raise DomainError(f"unknown metric {metric!r}")
    # None would draw from OS entropy, so the fit could not be replayed
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) \
            or seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    power = 3 if metric == "euclidean" else 4
    boxes = []
    for r in radii:
        try:
            box = 8.0 * r ** power
        except OverflowError:  # Python's float power raises, not inf
            box = math.inf
        if not sys.float_info.min <= box < math.inf:
            raise DomainError(f"radius {r!r} is out of range: its box volume "
                              f"8 r^{power} is not a finite, normal float")
        boxes.append(box)

    rng = np.random.default_rng(seed)
    lo, hi, pvals = _partition(metric)
    K = _MERIDIAN_CELLS
    vols, hit_list, ses = [], [], []
    for r, box, gen in zip(radii, boxes, rng.spawn(len(radii))):
        zr = r if metric == "euclidean" else r * r
        counts = gen.multinomial(samples, pvals)
        cell = np.repeat(np.arange(K), counts[1:-1])
        rho = r / K * np.sqrt(cell * cell
                              + gen.random(len(cell)) * (2 * cell + 1))
        az = zr * (lo[cell] + gen.random(len(cell)) * (hi[cell] - lo[cell]))
        inside = az <= zr * _height(metric, rho / r)
        hits = int(counts[0]) + int(np.count_nonzero(inside))
        frac = hits / samples
        vols.append(box * frac)
        hit_list.append(hits)
        # binomial standard error, propagated to the volume estimate
        ses.append(box * math.sqrt(max(frac * (1.0 - frac), 1e-12) / samples))

    logs = np.log(np.asarray(vols))
    (slope, intercept), *_ = np.linalg.lstsq(design, logs, rcond=None)
    resid = float(np.max(np.abs(design @ np.array([slope, intercept]) - logs)))
    return VolumeFit(metric, float(slope), float(intercept), resid,
                     tuple(radii), tuple(vols), tuple(hit_list), tuple(ses),
                     samples, seed)
