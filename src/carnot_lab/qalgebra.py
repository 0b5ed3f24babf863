"""q-deformed entropy algebra over finite discrete distributions.

The one-parameter entropy family S_q, its Boltzmann-Gibbs-Shannon limit,
the deformed additions that restore additivity over product distributions,
and the q-difference (Jackson) derivative that rewrites S_q as a quotient
of the moment function g(x) = sum_i p_i^x at x = 1.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from ._extrapolation import richardson_limit
from .errors import ConvergenceError, DomainError

SUM_TOL = 1e-12          # admissible deviation of sum(weights) from 1
Q_ONE_WINDOW = 1e-8      # |q-1| below this routes to the BGS branch


# ---------------------------------------------------------------------------
# distributions

def as_distribution(weights, renormalize=False):
    """Validate ``weights`` as a finite probability vector.

    Returns a float ndarray. With ``renormalize`` the vector is scaled to
    unit sum first (for file-sourced data that is only approximately
    normalized); otherwise the sum must already be 1 within 1e-12.
    """
    w = np.asarray(weights, dtype=float).ravel()
    if w.size == 0:
        raise DomainError("empty probability vector")
    if not np.isfinite(w).all():
        raise DomainError("non-finite probability weights")
    if (w < 0).any():
        raise DomainError("negative probability weight")
    with np.errstate(over="ignore"):
        total = w.sum()  # inf is refused below, without numpy's warning
    if renormalize:
        if not 0 < total < math.inf:
            raise DomainError(f"cannot renormalize weights summing to "
                              f"{float(total)!r}")
        w = w / total
    elif abs(total - 1.0) > SUM_TOL:
        raise DomainError(f"weights sum to {float(total)!r}, "
                          f"not 1 within {SUM_TOL}")
    return w


def load_distribution(path, renormalize=False):
    """Read a distribution from ``.json`` ({"weights": [...]}) or ``.csv``
    (one weight per line). The format is inferred from the extension."""
    ext = os.path.splitext(path)[1].lower()
    if ext == ".json":
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict) or "weights" not in data:
            raise DomainError(f"{path}: expected a JSON object with 'weights'")
        return as_distribution(data["weights"], renormalize=renormalize)
    if ext == ".csv":
        rows = []
        with open(path, newline="") as fh:
            for rec in csv.reader(fh):
                if rec:
                    rows.append(float(rec[0]))
        return as_distribution(rows, renormalize=renormalize)
    raise DomainError(f"{path}: unknown distribution format {ext!r}")


def _check_q(q):
    q = float(q)
    if not math.isfinite(q):
        raise DomainError("entropic parameter q must be finite")
    return q


# ---------------------------------------------------------------------------
# entropies

def bgs_entropy(p) -> float:
    """Boltzmann-Gibbs-Shannon entropy -sum p ln p (0 ln 0 := 0, k_B = 1)."""
    w = as_distribution(p)
    nz = w[w > 0]
    return float(-np.sum(nz * np.log(nz)))


def _power_sum_minus_one(w, q):
    # sum_i p_i^q - sum_i p_i, evaluated per term as p*expm1((q-1) ln p).
    # Cancellation-free near q = 1, unlike forming sum(p**q) - 1 directly.
    nz = w[w > 0]
    return float(np.sum(nz * np.expm1((q - 1.0) * np.log(nz))))


def _tsallis(w, q):
    # S_q of an already validated vector w at an already checked q
    if q <= 0 and (w == 0).any():
        raise DomainError("0^q is undefined for q <= 0; drop zero weights")
    if abs(q - 1.0) < Q_ONE_WINDOW:
        return bgs_entropy(w)
    return -_power_sum_minus_one(w, q) / (q - 1.0)


def tsallis_entropy(p, q) -> float:
    """Entropy S_q = (1 - sum_i p_i^q) / (q - 1), k_B = 1.

    |q - 1| < 1e-8 is treated as the q -> 1 limit and returns the BGS
    entropy (the singularity is removable). Zero weights are admissible
    for q > 0 (0^q = 0) and rejected for q <= 0, where 0^q is undefined.
    """
    return _tsallis(as_distribution(p), _check_q(q))


def rescaled_entropy(p, q) -> float:
    """(1-q) S_q, the variable change under which the composition rule for
    independent systems becomes x + y + xy."""
    return (1.0 - _check_q(q)) * tsallis_entropy(p, q)


def abe_entropy(p, q) -> float:
    """S_q written as minus the q-difference quotient of g(x) = sum p_i^x
    at x = 1 with step parameter q: -(g(q) - g(1)) / (q - 1).

    Algebraically identical to ``tsallis_entropy``; the shared per-term
    expm1 kernel keeps the identity exact in floating point. q = 1 (within
    the BGS window) routes to ``abe_bgs_entropy``.
    """
    w = as_distribution(p)
    q = _check_q(q)
    if abs(q - 1.0) < Q_ONE_WINDOW:
        return abe_bgs_entropy(w)
    return _tsallis(w, q)


def abe_bgs_entropy(p, step=1e-5) -> float:
    """-g'(1) for g(x) = sum p_i^x by central difference; the classical
    (ordinary-derivative) counterpart of ``abe_entropy``."""
    w = as_distribution(p)
    nz = w[w > 0]

    def g(x):
        return float(np.sum(nz ** x))

    return -(g(1.0 + step) - g(1.0 - step)) / (2.0 * step)


# ---------------------------------------------------------------------------
# deformed additions

def q_add(x, y, q) -> float:
    """Deformed sum x + y + (1-q) x y; ordinary addition at q = 1."""
    q = _check_q(q)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError("q_add requires finite summands")
    return x + y + (1.0 - q) * x * y


def q_add_inverse(x, q) -> float:
    """The additive inverse of x under q_add: -x / (1 + (1-q) x)."""
    q = _check_q(q)
    d = 1.0 + (1.0 - q) * x
    if d == 0:
        raise DomainError(f"{x} has no q_add inverse at q={q}")
    return -x / d


def product_add(x, y) -> float:
    """x + y + x y, the q = 0 case of ``q_add``.

    This is multiplication transported through w -> 1 + w, and it is the
    composition rule obeyed by ``rescaled_entropy`` over products.
    """
    return q_add(x, y, 0.0)


# ---------------------------------------------------------------------------
# composition over product distributions

def product_distribution(p, r):
    """Outer product {p_i * r_j} flattened in row-major order."""
    wp = as_distribution(p)
    wr = as_distribution(r)
    return np.outer(wp, wr).ravel()


def composition_defect(p, r, q) -> float:
    """S_q(p x r) - [S_q(p) + S_q(r) + (1-q) S_q(p) S_q(r)].

    Identically zero for every pair of distributions: the deformed sum is
    exactly the composition rule of S_q over independent systems.
    """
    q = _check_q(q)
    wp = as_distribution(p)
    sp = _tsallis(wp, q)
    wr = as_distribution(r)
    sr = _tsallis(wr, q)
    spr = _tsallis(np.outer(wp, wr).ravel(), q)
    return spr - q_add(sp, sr, q)


# ---------------------------------------------------------------------------
# Jackson derivative

def jackson_quotient(f, x, t) -> float:
    """The q-difference quotient (f(t x) - f(x)) / (t x - x)."""
    if x == 0:
        raise DomainError("Jackson quotient is degenerate at x = 0")
    if t == 1.0:
        raise DomainError("Jackson quotient needs t != 1")
    return (f(t * x) - f(x)) / (t * x - x)


def default_jackson_schedule(levels=20):
    """t_k = 1 + 2^-k, k = 1..levels, shrinking geometrically toward 1."""
    return 1.0 + 2.0 ** -np.arange(1, levels + 1)


def jackson_derivative(f, x, schedule=None, tol=1e-9) -> float:
    """t -> 1 limit of the q-difference quotient, by Richardson
    extrapolation over a geometric schedule of t values.

    The default schedule is t_k = 1 + 2^-k, k = 1..20; convergence is
    accepted when two successive extrapolants agree to ``tol``. A schedule
    that fails to stabilize raises ConvergenceError.
    """
    if x == 0:
        raise DomainError("Jackson derivative is degenerate at x = 0")
    ts = default_jackson_schedule() if schedule is None else np.asarray(schedule, float)
    if ts.ndim != 1 or len(ts) < 3:
        raise DomainError("schedule must hold at least 3 values of t")
    steps = ts - 1.0
    if np.any(steps == 0) or np.any(~np.isfinite(steps)):
        raise DomainError("schedule values must be finite and different from 1")
    ratios = steps[:-1] / steps[1:]
    if not np.allclose(ratios, ratios[0], rtol=1e-9):
        raise DomainError("schedule must approach 1 geometrically")
    quotients = [jackson_quotient(f, x, t) for t in ts]
    limit, _ = richardson_limit(quotients, ratio=float(ratios[0]), tol=tol,
                                what="jackson derivative")
    return limit
