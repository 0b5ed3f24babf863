"""Horizontal geometry of the Heisenberg group.

The horizontal distribution is the kernel of the contact form
dz - (x dy - y dx)/2, spanned by the left-invariant frame
X = (1, 0, -y/2), Y = (0, 1, x/2). Curves tangent to it acquire vertical
displacement equal to the signed area swept by their planar projection,
which is what every construction in this module exploits: lifts, loop
holonomy, the piecewise-constant-control path representation, and the
explicit two-stage connection path between arbitrary endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .heisenberg import HeisPoint, exp_inv, exp_mul

CLOSURE_TOL = 1e-12
# segments of a sampled circle per block of ``circle_isoperimetric_check``
_LOOP_BLOCK = 1 << 16

# horizontal norm -> the speed of the controls (u, v) in it
_SPEEDS = {
    "l2": np.hypot,
    "l1": lambda u, v: np.abs(u) + np.abs(v),
    "linf": lambda u, v: np.maximum(np.abs(u), np.abs(v)),
}
HORIZONTAL_NORMS = tuple(_SPEEDS)


# ---------------------------------------------------------------------------
# contact form and frame

def contact_form(p: HeisPoint, v) -> float:
    """Evaluate dz - (x dy - y dx)/2 at p on the coordinate vector v.

    Zero exactly when v is horizontal at p.
    """
    dx, dy, dz = v
    return float(dz - 0.5 * (p.x * dy - p.y * dx))


def is_horizontal(p: HeisPoint, v, tol=1e-9) -> bool:
    """Whether the coordinate vector v at p lies in the horizontal plane
    (the contact form vanishes on it within tol)."""
    return abs(contact_form(p, v)) <= tol


def frame_at(p: HeisPoint):
    """The left-invariant frame (X, Y, Z) at p as coordinate columns:
    X = (1, 0, -y/2), Y = (0, 1, x/2), Z = (0, 0, 1).

    For coordinate columns (p.x and p.y arrays) each field is one
    3-vector per point, of shape p.x.shape + (3,).
    """
    x, y = np.broadcast_arrays(np.asarray(p.x, dtype=float),
                               np.asarray(p.y, dtype=float))
    one, zero = np.ones(x.shape), np.zeros(x.shape)
    X = np.stack([one, zero, -0.5 * y], axis=-1)
    Y = np.stack([zero, one, 0.5 * x], axis=-1)
    Z = np.stack([zero, zero, one], axis=-1)
    return X, Y, Z


# ---------------------------------------------------------------------------
# lifts and holonomy

def horizontal_lift(planar, z0=0.0):
    """Lift a sampled planar curve to a horizontal curve.

    ``planar`` is an (n, 2) array of (x, y) samples, n >= 2. The vertical
    coordinate accumulates (1/2) int (x dy - y dx) with the midpoint rule,
    which is exact on straight segments; the discretization error for a
    smooth curve sampled with step h is O(h^2). Returns an (n, 3) array.
    """
    pts = np.asarray(planar, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise DomainError("planar curve needs at least 2 (x, y) samples")
    x, y = pts[:, 0], pts[:, 1]
    dz = 0.5 * (x[:-1] * y[1:] - x[1:] * y[:-1])
    z = z0 + np.concatenate(([0.0], np.cumsum(dz)))
    return np.column_stack([x, y, z])


def _shoelace(x, y):
    """Signed area of the closed polygon (x, y), summed pairwise."""
    return 0.5 * np.sum(x[:-1] * y[1:] - x[1:] * y[:-1])


def holonomy(planar_loop) -> float:
    """Vertical displacement of the horizontal lift of a closed planar
    loop; equals the enclosed signed area (shoelace value for polygons)."""
    pts = np.asarray(planar_loop, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise DomainError("loop needs at least 2 (x, y) samples")
    if not np.allclose(pts[0], pts[-1], rtol=0.0, atol=CLOSURE_TOL):
        raise DomainError("loop is not closed (first sample != last)")
    return float(_shoelace(pts[:, 0], pts[:, 1]))


def isoperimetric_check(planar_loop):
    """(area, length, defect) of a closed planar loop, with
    defect = length^2/(4 pi) - |area| >= 0, zero only for circles."""
    pts = np.asarray(planar_loop, dtype=float)
    area = holonomy(pts)
    length = float(np.sum(np.hypot(*np.diff(pts, axis=0).T)))
    defect = length * length / (4.0 * np.pi) - abs(area)
    return area, length, defect


def circle_isoperimetric_check(radius, samples):
    """``isoperimetric_check`` of the circle of ``radius`` through the
    points at the angles np.linspace(0, 2 pi, samples + 1), the last point
    set to the first, built and summed in blocks of ``_LOOP_BLOCK``
    segments so that memory does not grow with ``samples``.

    Each block's points are the whole loop's, bit for bit. Each block's
    shoelace terms and segment lengths are summed pairwise, as
    ``isoperimetric_check`` sums the whole loop's, and the block sums
    added exactly: up to one block the results are the whole loop's bit
    for bit, beyond within rounding, and the defect keeps its sign.
    """
    step = 2.0 * np.pi / samples
    areas, lengths = [], []
    for start in range(0, samples, _LOOP_BLOCK):
        stop = min(start + _LOOP_BLOCK, samples)
        theta = np.arange(start, stop + 1, dtype=float) * step
        x, y = radius * np.cos(theta), radius * np.sin(theta)
        if start == 0:
            first = x[0], y[0]
        if stop == samples:
            x[-1], y[-1] = first
        areas.append(_shoelace(x, y))
        lengths.append(np.sum(np.hypot(np.diff(x), np.diff(y))))
    area, length = math.fsum(areas), math.fsum(lengths)
    defect = length * length / (4.0 * np.pi) - abs(area)
    return area, length, defect


# ---------------------------------------------------------------------------
# piecewise-constant-control paths

@dataclass(frozen=True)
class HorizontalPath:
    """Horizontal curve given by a start point and controls (u, v, dt):
    velocity u X + v Y held for duration dt > 0, per row."""
    start: HeisPoint
    controls: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))

    def __post_init__(self):
        ctl = np.asarray(self.controls, dtype=float).reshape(-1, 3)
        if ctl.size and np.any(ctl[:, 2] <= 0):
            raise DomainError("control durations must be positive")
        object.__setattr__(self, "controls", ctl)

    @property
    def duration(self) -> float:
        return float(self.controls[:, 2].sum()) if self.controls.size else 0.0


def cc_length(path: HorizontalPath, norm="l2") -> float:
    """Length sum_k ||(u_k, v_k)||_norm * dt_k of the control path."""
    if not path.controls.size:
        return 0.0
    if norm not in _SPEEDS:
        raise DomainError(f"unknown horizontal norm {norm!r}")
    u, v, dt = path.controls.T
    return float(np.sum(_SPEEDS[norm](u, v) * dt))


def integrate_path(path: HorizontalPath) -> HeisPoint:
    """Endpoint of the flow p' = u X(p) + v Y(p).

    Each constant-control segment is integrated in closed form: the planar
    motion is a straight segment and the vertical rate (x v - y u)/2 is
    constant along it, so no quadrature error enters.
    """
    x, y, z = path.start
    for u, v, dt in path.controls:
        z += 0.5 * (x * v - y * u) * dt
        x += u * dt
        y += v * dt
    return HeisPoint(x, y, z)


def sample_path(path: HorizontalPath, per_segment=8) -> np.ndarray:
    """Sample the trajectory as (t, x, y, z) rows, ``per_segment`` steps
    per control (plus the start row)."""
    rows = [(0.0, path.start.x, path.start.y, path.start.z)]
    t, p = 0.0, path.start
    for u, v, dt in path.controls:
        for i in range(1, per_segment + 1):
            s = dt * i / per_segment
            rows.append((t + s, p.x + u * s, p.y + v * s,
                         p.z + 0.5 * (p.x * v - p.y * u) * s))
        p = HeisPoint(*rows[-1][1:])
        t += dt
    return np.array(rows)


def square_loop_controls(area: float):
    """Unit-speed square loop enclosing signed area ``area`` (4 segments,
    total length 4 sqrt|area|); empty for area = 0."""
    if area == 0:
        return np.zeros((0, 3))
    s = float(np.sqrt(abs(area)))
    o = 1.0 if area > 0 else -1.0
    return np.array([[1.0, 0.0, s], [0.0, o, s], [-1.0, 0.0, s], [0.0, -o, s]])


def chow_connect(A: HeisPoint, B: HeisPoint) -> HorizontalPath:
    """An explicit finite-length horizontal path from A to B.

    Left-translate to the origin (D = A^-1 B), run one straight horizontal
    segment to the planar target, then close the remaining vertical gap
    (exactly the z component of D) with a square loop whose enclosed area
    equals the gap. Length: ||(dx, dy)||_2 + 4 sqrt|dz|.
    """
    d = exp_mul(exp_inv(A), B)
    rows = square_loop_controls(d.z)
    if d.x != 0 or d.y != 0:
        rows = np.vstack(([[d.x, d.y, 1.0]], rows))
    return HorizontalPath(A, rows)


# ---------------------------------------------------------------------------
# dilations

def dilate(p: HeisPoint, t: float) -> HeisPoint:
    """Graded dilation (x, y, z) -> (t x, t y, t^2 z), t > 0.

    A group automorphism of the exponential-coordinate product; distances
    along horizontal curves scale linearly under it.
    """
    if not t > 0:
        raise DomainError("dilation parameter must be positive")
    return HeisPoint(t * p.x, t * p.y, t * t * p.z)


def euclidean_dilate(p, t: float):
    """Isotropic scaling (t x, t y, t z) of the comparison group, t > 0."""
    if not t > 0:
        raise DomainError("dilation parameter must be positive")
    return (t * p[0], t * p[1], t * p[2])
