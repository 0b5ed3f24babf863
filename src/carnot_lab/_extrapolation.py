"""Richardson extrapolation over geometric step schedules: the one limit
behind both the blow-up and the Jackson derivatives."""

import numpy as np

from .errors import ConvergenceError, DomainError


def geometric_ratio(steps):
    """Common ratio h_k / h_{k+1} of at least 3 finite, nonzero steps that
    shrink geometrically (to a relative 1e-9, and |ratio| > 1); else
    DomainError. A ratio of modulus 1 would make the Richardson factors
    ratio^j - 1 vanish, and a smaller one means the steps grow."""
    steps = np.asarray(steps, dtype=float)
    if steps.ndim != 1 or len(steps) < 3:
        raise DomainError("schedule must hold at least 3 steps")
    if np.any(steps == 0) or not np.all(np.isfinite(steps)):
        raise DomainError("schedule steps must be finite and nonzero")
    r = steps[:-1] / steps[1:]
    if not (np.allclose(r, r[0], rtol=1e-9) and abs(r[0]) > 1.0):
        raise DomainError("schedule must shrink geometrically")
    return float(r[0])


def richardson_limit(values, ratio=2.0, tol=1e-9, what="sequence"):
    """Extrapolate ``values[k] = L + c1*h_k + c2*h_k^2 + ...`` to h -> 0.

    ``values`` must be evaluated on steps h_k shrinking by ``ratio`` per
    index. Returns (limit, diagonal): the diagonal of the tableau holds
    one entry per value read. The tableau stops once two successive
    diagonal entries agree within ``tol`` (absolute, or relative for
    large limits). A constant sequence (to an absolute 1e-300) is exact:
    its first value, and a diagonal as long as the sequence. Fewer than 3
    values raise DomainError; non-finite ones, or no agreement,
    ConvergenceError.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1 or len(vals) < 3:
        raise DomainError("need at least 3 sequence values to extrapolate")
    if np.allclose(vals, vals[0], rtol=0.0, atol=1e-300):
        return vals[0], [vals[0]] * len(vals)
    if not np.all(np.isfinite(vals)):
        raise ConvergenceError(f"{what}: non-finite terms in schedule")
    row = vals.copy()
    diagonal = [row[0]]
    for j in range(1, len(vals)):
        fac = ratio ** j
        row = (fac * row[1:] - row[:-1]) / (fac - 1.0)
        diagonal.append(row[0])
        a, b = diagonal[-2], diagonal[-1]
        if j >= 2 and abs(a - b) <= tol * max(1.0, abs(b)):
            return b, diagonal
    raise ConvergenceError(
        f"{what}: extrapolants did not stabilize "
        f"(last gap {abs(a - b):.3e} > tol {tol:.1e})")

