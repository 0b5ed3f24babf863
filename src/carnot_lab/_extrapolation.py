"""Richardson extrapolation over the steps 2^-k: the one limit behind both
the blow-up and the Jackson derivatives."""

import numpy as np

from .errors import ConvergenceError

# the steps h_k = 2^-k, k = 1..20, that every extrapolated limit reads
STEPS = 2.0 ** -np.arange(1, 21)


def richardson_limit(values, tol=1e-9, what="sequence"):
    """Extrapolate ``values[k] = L + c1*h_k + c2*h_k^2 + ...`` to h -> 0.

    ``values`` must be evaluated on ``STEPS``. Returns (limit,
    diagonal): the diagonal of the tableau holds one entry per value read.
    The tableau stops once two successive diagonal entries agree within
    ``tol`` (absolute, or relative for large limits). A finite constant
    sequence (to an absolute 1e-300) is exact: its first value, and a
    diagonal as long as the sequence. Non-finite values, or no agreement,
    raise ConvergenceError.
    """
    vals = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ConvergenceError(f"{what}: non-finite terms in schedule")
    if np.allclose(vals, vals[0], rtol=0.0, atol=1e-300):
        return vals[0], [vals[0]] * len(vals)
    row = vals.copy()
    diagonal = [row[0]]
    for j in range(1, len(vals)):
        fac = 2.0 ** j
        row = (fac * row[1:] - row[:-1]) / (fac - 1.0)
        diagonal.append(row[0])
        a, b = diagonal[-2], diagonal[-1]
        if j >= 2 and abs(a - b) <= tol * max(1.0, abs(b)):
            return b, diagonal
    raise ConvergenceError(
        f"{what}: extrapolants did not stabilize "
        f"(last gap {abs(a - b):.3e} > tol {tol:.1e})")
