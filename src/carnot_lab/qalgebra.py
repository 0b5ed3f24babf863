"""q-deformed entropy algebra over finite discrete distributions.

The one-parameter entropy family S_q, its Boltzmann-Gibbs-Shannon limit,
the deformed additions that restore additivity over product distributions,
and the q-difference (Jackson) quotient: S_q is minus the quotient of the
moment function g(x) = sum_i p_i^x at x = 1 with step parameter q.
"""

from __future__ import annotations

import csv
import json
import math
import os
from fractions import Fraction

import numpy as np

from .errors import DomainError

SUM_TOL = 1e-12          # admissible deviation of sum(weights) from 1
Q_ONE_WINDOW = 1e-8      # |q-1| below this routes to the BGS branch


# ---------------------------------------------------------------------------
# distributions

def as_distribution(weights, renormalize=False):
    """Validate ``weights`` as a finite probability vector, or a 2-D array
    as a stack of them, one per row.

    Returns a float ndarray: 2-D for rows of equal length, 1-D for any
    other input, which is flattened. With ``renormalize`` each vector is
    scaled to unit sum first (for file-sourced data that is only
    approximately normalized); otherwise each sum must already be 1
    within 1e-12. A refusal names the first row that fails.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2:
        w = w.ravel()
    if w.size == 0:
        raise DomainError("empty probability vector")
    if not np.isfinite(w).all():
        raise DomainError("non-finite probability weights")
    if (w < 0).any():
        raise DomainError("negative probability weight")
    with np.errstate(over="ignore"):
        total = w.sum(axis=-1)  # inf is refused below, without numpy's warning
    if renormalize:
        bad = ~((0 < total) & (total < math.inf))
    else:
        bad = np.abs(total - 1.0) > SUM_TOL
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        where = f"row {i}: " if w.ndim == 2 else ""
        t = float(np.ravel(total)[i])
        if renormalize:
            raise DomainError(f"{where}cannot renormalize weights summing "
                              f"to {t!r}")
        raise DomainError(f"{where}weights sum to {t!r}, "
                          f"not 1 within {SUM_TOL}")
    if renormalize:
        w = w / np.expand_dims(total, -1)
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
        # a file holds one distribution, whatever the nesting of its list
        try:
            weights = np.asarray(data["weights"], dtype=float).ravel()
        except TypeError as exc:
            raise DomainError(f"{path}: 'weights' must be a list of "
                              f"numbers") from exc
        return as_distribution(weights, renormalize=renormalize)
    if ext == ".csv":
        rows = []
        with open(path, newline="") as fh:
            for rec in csv.reader(fh):
                if rec:
                    rows.append(float(rec[0]))
        return as_distribution(rows, renormalize=renormalize)
    raise DomainError(f"{path}: unknown distribution format {ext!r}")


def _check_q(q, w=None):
    # a float, or for the 2-D weights w an array of one q per row
    if np.ndim(q) == 0:
        q = float(q)
    else:
        q = np.asarray(q, dtype=float)
        if w is None or q.shape != w.shape[:-1]:
            raise DomainError("q must be one number, or one per row of "
                              "the distributions")
    if not np.isfinite(q).all():
        raise DomainError("entropic parameter q must be finite")
    return q


def _value(x):
    # a float for one distribution, the array for rows
    return float(x) if np.ndim(x) == 0 else x


# ---------------------------------------------------------------------------
# entropies

def _positive_sum(w, term):
    # sum over the last axis of term(p) at the positive weights p; a zero
    # weight adds an exact 0.0 in its place, so a row sums in the same
    # order as the 1-D array that holds it
    pos = w > 0
    return np.sum(np.where(pos, term(np.where(pos, w, 1.0)), 0.0), axis=-1)


def _bgs(w):
    return -_positive_sum(w, lambda p: p * np.log(p))


def bgs_entropy(p):
    """Boltzmann-Gibbs-Shannon entropy -sum p ln p (0 ln 0 := 0, k_B = 1).

    A float for one distribution; for a 2-D ``p``, one entropy per row.
    """
    return _value(_bgs(as_distribution(p)))


def _power_sum_minus_one(w, q):
    # sum_i p_i^q - sum_i p_i, evaluated per term as p*expm1((q-1) ln p),
    # q broadcasting against w. Cancellation-free near q = 1, unlike
    # forming sum(p**q) - 1 directly.
    return _positive_sum(w, lambda p: p * np.expm1((q - 1.0) * np.log(p)))


def _tsallis(w, q):
    # S_q along the last axis of validated weights w at checked q (one
    # value, or one per row)
    q = np.asarray(q)
    undefined = (q <= 0) & (w == 0).any(axis=-1)
    if undefined.any():
        where = f"row {np.flatnonzero(undefined)[0]}: " if w.ndim == 2 else ""
        raise DomainError(f"{where}0^q is undefined for q <= 0; drop zero "
                          f"weights")
    near = np.abs(q - 1.0) < Q_ONE_WINDOW
    # rows in the BGS window take the BGS value; 2 stands in for their q
    qs = np.where(near, 2.0, q)
    s = -_power_sum_minus_one(w, qs[..., None]) / (qs - 1.0)
    return np.where(near, _bgs(w), s) if near.any() else s


def tsallis_entropy(p, q):
    """Entropy S_q = (1 - sum_i p_i^q) / (q - 1), k_B = 1.

    |q - 1| < 1e-8 is treated as the q -> 1 limit and returns the BGS
    entropy (the singularity is removable). Zero weights are admissible
    for q > 0 (0^q = 0) and rejected for q <= 0, where 0^q is undefined.

    ``p`` is one distribution (the result is a float) or a 2-D array of
    equal-length distributions, one per row, with ``q`` one number or one
    per row (the result is an array). The window and the refusal apply
    row by row, and each row's value equals the 1-D call on that row.
    """
    w = as_distribution(p)
    return _value(_tsallis(w, _check_q(q, w)))


def rescaled_entropy(p, q):
    """(1-q) S_q, the variable change under which the composition rule for
    independent systems becomes x + y + xy. Takes rows like
    ``tsallis_entropy``."""
    w = as_distribution(p)
    q = _check_q(q, w)
    return _value((1.0 - q) * _tsallis(w, q))


def abe_entropy(p, q):
    """S_q written as minus the q-difference quotient of g(x) = sum p_i^x
    at x = 1 with step parameter q: -(g(q) - g(1)) / (q - 1).

    Algebraically identical to ``tsallis_entropy``, and evaluated as it:
    the per-term expm1 kernel has no cancellation near q = 1, and within
    the BGS window the value is the exact q -> 1 limit, the BGS entropy.
    Takes rows like ``tsallis_entropy``.
    """
    return tsallis_entropy(p, q)


# ---------------------------------------------------------------------------
# deformed additions

def _round(r):
    # the float nearest the exact rational r; past the float range, the
    # infinity of r's sign
    try:
        return float(r)
    except OverflowError:
        return math.inf if r > 0 else -math.inf


def q_add(x, y, q) -> float:
    """Deformed sum x + y + (1-q) x y; ordinary addition at q = 1, and
    q_add(x, 0, q) = x for every finite q. The sum is taken exactly and
    rounded once, so cancelling terms lose no digits (q_add(1e20, -1, 0)
    = -1); past the float range it is the infinity of its sign. Only
    non-finite summands are refused."""
    q = _check_q(q)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError("q_add requires finite summands")
    x, y = Fraction(float(x)), Fraction(float(y))
    return _round(x + y + (1 - Fraction(q)) * x * y)


def q_add_inverse(x, q) -> float:
    """The additive inverse of x under q_add: -x / (1 + (1-q) x), taken
    exactly and rounded once like ``q_add``. Refused where that exact
    denominator is 0."""
    q = _check_q(q)
    if not math.isfinite(x):
        raise DomainError("q_add_inverse requires a finite x")
    fx = Fraction(float(x))
    d = 1 + (1 - Fraction(q)) * fx
    if d == 0:
        raise DomainError(f"{x} has no q_add inverse at q={q}")
    return _round(-fx / d)


def product_add(x, y) -> float:
    """x + y + x y, the q = 0 case of ``q_add``, exact and rounded once
    like it (product_add(1e20, -1) = -1).

    This is multiplication transported through w -> 1 + w, and it is the
    composition rule obeyed by ``rescaled_entropy`` over products.
    """
    return q_add(x, y, 0.0)


# ---------------------------------------------------------------------------
# composition over product distributions

def _factors(p, r):
    # the validated factors of a product: two vectors, or two stacks of
    # equally many rows
    wp, wr = as_distribution(p), as_distribution(r)
    if wp.shape[:-1] != wr.shape[:-1]:
        raise DomainError("a product needs two distributions, or two "
                          "stacks of equally many rows")
    return wp, wr


def _product(wp, wr):
    # {p_i * r_j} in row-major order along the last axis
    return (wp[..., :, None] * wr[..., None, :]).reshape(
        wp.shape[:-1] + (-1,))


def product_distribution(p, r):
    """Outer product {p_i * r_j} flattened in row-major order; row by row
    for two 2-D stacks."""
    return _product(*_factors(p, r))


def composition_defect(p, r, q):
    """S_q(p x r) - [S_q(p) + S_q(r) + (1-q) S_q(p) S_q(r)].

    Identically zero for every pair of distributions: the deformed sum is
    exactly the composition rule of S_q over independent systems. For two
    2-D stacks of equally many rows (lengths n and m) pairs row i with row
    i, with ``q`` one number or one per row, and returns one defect per
    row, each equal to the 1-D call on that pair.
    """
    wp, wr = _factors(p, r)
    q = _check_q(q, wp)
    sp = _tsallis(wp, q)
    sr = _tsallis(wr, q)
    if not (np.isfinite(sp).all() and np.isfinite(sr).all()):
        raise DomainError("q_add requires finite summands")
    spr = _tsallis(_product(wp, wr), q)
    return _value(spr - (sp + sr + (1.0 - q) * sp * sr))


# ---------------------------------------------------------------------------
# Jackson quotient

def jackson_quotient(f, x, t) -> float:
    """The q-difference quotient (f(t x) - f(x)) / (t x - x)."""
    if x == 0:
        raise DomainError("Jackson quotient is degenerate at x = 0")
    if t == 1.0:
        raise DomainError("Jackson quotient needs t != 1")
    return (f(t * x) - f(x)) / (t * x - x)
