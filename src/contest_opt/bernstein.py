"""Degree-(n-1) Bernstein basis and the policy polynomial h.

The basis indexed by rank is ``a_i(x) = C(n-1, i-1) x^(n-i) (1-x)^(i-1)``
for i = 1..n, so ``a_1(x) = x^(n-1)`` and ``a_n(x) = (1-x)^(n-1)``.  The
policy polynomial ``h(x, p) = sum_i a_i(x) p_i`` is strictly increasing in
x whenever p is nontrivial; everything downstream (equilibrium CDF, reduced
objectives, bounds) is built on h, its derivative and its inverse.

h and its derivative are taken by nested multiplication, with no
transcendental call, for n up to `_NESTED_MAX_N`, and refused above it;
basis values are taken in log space.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, isfinite, lgamma

import numpy as np

from .errors import BudgetExceededError, DomainError, RangeError, TrivialPolicyError
from .policy import Policy, is_nontrivial
from .quadrature import _SUM_BLOCK, integrate

TOL_INV = 1e-12
MAX_BISECT = 200
# basis values held at once by `weights_dot_basis`
_BLOCK_ELEMENTS = 1 << 16
# largest n of h, whose `_nested_dot` partial sums are bounded by
# sum_k C(n-1, k) max p <= 2^(n-1) max p, finite in doubles only below n ~ 1020
_NESTED_MAX_N = 1000
# points per block of `_nested_dot`, whose three work vectors then stay in cache
_NESTED_BLOCK = 1 << 14


def check_unit_interval(x: np.ndarray, what: str = "x") -> None:
    """Raise DomainError unless every value of the array x lies in [0, 1].

    min and max carry a NaN through, and a NaN fails both comparisons.
    """
    if x.size and not (x.min() >= 0.0 and x.max() <= 1.0):
        raise DomainError("%s must lie in [0, 1]" % what)


@lru_cache(maxsize=64)
def _log_binomials(n: int) -> np.ndarray:
    # log C(n-1, k) for k = 0..n-1
    return np.array([lgamma(n) - lgamma(k + 1) - lgamma(n - k) for k in range(n)])


def _basis_rows(n: int, flat: np.ndarray, idx: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write a_i(x) into `out`, one row per rank i = idx + 1 and one column
    per point of the 1-d `flat`, and return it.

    Each value is C(n-1, i-1) x^(n-i) (1-x)^(i-1) taken in log space, one
    element at a time, so a row is bit for bit the same whichever other
    rows and points come with it.  Endpoints are patched exactly:
    a_i(0) = [i == n], a_i(1) = [i == 1].
    """
    logc = _log_binomials(n)[idx]
    with np.errstate(divide="ignore", invalid="ignore"):
        logx = np.log(flat)
        log1mx = np.log1p(-flat)
        np.multiply((n - 1 - idx).astype(float)[:, None], logx, out=out)  # n-i
        np.add(logc[:, None], out, out=out)
        out += np.multiply(idx.astype(float)[:, None], log1mx)  # i-1
        np.exp(out, out=out)
    at0 = flat == 0.0
    at1 = flat == 1.0
    if np.any(at0):
        out[:, at0] = (idx == n - 1)[:, None]
    if np.any(at1):
        out[:, at1] = (idx == 0)[:, None]
    return out


def basis_columns(n: int, x, ranks) -> np.ndarray:
    """Basis values a_i(x) for the ranks i in `ranks`: shape
    ``x.shape + (len(ranks),)``, with a scalar x taken as one point.

    A column is bit for bit the same whichever other columns come with it
    (see `_basis_rows`).
    """
    if n < 2:
        raise DomainError("n must be >= 2")
    idx = np.asarray(ranks, dtype=int) - 1
    if np.any(idx < 0) or np.any(idx > n - 1):
        raise DomainError("rank indices must lie in 1..%d" % n)
    x = np.asarray(x, dtype=float)
    check_unit_interval(x)
    flat = np.atleast_1d(x).ravel()
    # one row per rank, so numpy's inner loops run along the points
    out = _basis_rows(n, flat, idx, np.empty((len(idx), flat.size)))
    return np.ascontiguousarray(out.T).reshape((x.shape or (1,)) + (len(idx),))


def basis_matrix(n: int, x: np.ndarray) -> np.ndarray:
    """All basis values at once: shape ``(len(x), n)``, column i-1 is a_i(x).

    Rows sum to one (binomial theorem).  This is `basis_columns` with every
    rank.
    """
    return basis_columns(n, x, np.arange(1, n + 1))


@lru_cache(maxsize=64)
def _binomials(n: int) -> np.ndarray:
    # C(n-1, k) for k = 0..n-1, each rounded once from the exact integer
    return np.array([float(comb(n - 1, k)) for k in range(n)])


def _nested_dot(n: int, x: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """``basis_matrix(n, x) @ coeffs`` by nested multiplication, for an x
    already checked to lie in [0, 1], 1 <= n <= `_NESTED_MAX_N` and
    nonnegative coeffs.

    With N = n-1, s = 1-x and b_k = coeffs[N-k] C(N, k), the sum is
    sum_k b_k x^k s^(N-k).  From acc = b_N it takes acc = acc x + b_k s^(N-k)
    for k = N-1 down to 0, keeping the power of s as it goes: O(n)
    multiply-adds per point, all of nonnegative terms, so nothing cancels.
    Every value depends on its own x alone, whatever the shape of x or the
    blocking, and the ends are exact: x = 0 gives b_0 = coeffs[-1] and
    x = 1 gives b_N = coeffs[0].  Works through blocks of `_NESTED_BLOCK`
    points with the same three work vectors.
    """
    b = coeffs[::-1] * _binomials(n)
    flat = x.ravel()
    out = np.empty(flat.size)
    size = min(flat.size, _NESTED_BLOCK)
    s_work, power_work, term_work = np.empty(size), np.empty(size), np.empty(size)
    for a in range(0, flat.size, _NESTED_BLOCK):
        xb = flat[a:a + _NESTED_BLOCK]
        m = xb.size
        s = np.subtract(1.0, xb, out=s_work[:m])
        power, term = power_work[:m], term_work[:m]
        power[...] = s
        acc = out[a:a + m]
        acc[...] = b[-1]
        for k in range(n - 2, -1, -1):
            acc *= xb
            acc += np.multiply(power, b[k], out=term)
            if k:
                power *= s
    return out.reshape(x.shape)


def weights_dot_basis(n: int, x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``weights @ basis_matrix(n, x)`` for a 1-d x, summed over blocks of
    at most `quadrature._SUM_BLOCK` points and about `_BLOCK_ELEMENTS`
    basis values, so memory does not grow with points times n; each block
    is one `quadrature.integrate` call, one BLAS product."""
    step = max(1, min(_SUM_BLOCK, _BLOCK_ELEMENTS // n))
    total = np.zeros(n)
    for a in range(0, len(x), step):
        total += integrate(basis_matrix(n, x[a:a + step]), weights[a:a + step])
    return total


def basis_integral(n: int, i: int) -> float:
    """Exact moment of any basis element over [0, 1]: always 1/n."""
    if n < 2 or not 1 <= i <= n:
        raise DomainError("rank index i=%d outside 1..%d" % (i, n))
    return 1.0 / n


def _refuse_above_cap(p: Policy) -> None:
    if p.n > _NESTED_MAX_N:
        raise BudgetExceededError("h of n = %d contestants exceeds the cap of n = %d"
                                  % (p.n, _NESTED_MAX_N))


def _h_points(p: Policy, x) -> np.ndarray:
    """x as an array of at least one dimension, for h of p or its inverse;
    a policy of n above `_NESTED_MAX_N` is refused before any array is built."""
    _refuse_above_cap(p)
    return np.atleast_1d(np.asarray(x, dtype=float))


def h_values(p: Policy, x: np.ndarray) -> np.ndarray:
    """h(x, p) at an array x that the caller has checked to lie in [0, 1]:
    `h_eval` without its check, for callers that check once themselves."""
    _refuse_above_cap(p)
    return _nested_dot(p.n, x, p.as_array())


def h_eval(p: Policy, x):
    """Policy polynomial h(x, p); h(0, p) = p_n and h(1, p) = p_1."""
    x_arr = _h_points(p, x)
    check_unit_interval(x_arr)
    values = h_values(p, x_arr)
    return float(values[0]) if np.isscalar(x) or np.asarray(x).ndim == 0 else values


def h_derivative(p: Policy, x):
    """dh/dx, nonnegative everywhere and strictly positive on (0,1) for
    nontrivial p.

    Computed in the telescoped form
    ``(n-1) * sum_k (p_k - p_{k+1}) a_k^{(n-1)}(x)`` over k = 1..n-1, where
    ``a^{(n-1)}`` is the one-degree-lower basis.  The (n-1) prefactor is
    validated against central finite differences in the test suite.
    """
    n = p.n
    x_arr = _h_points(p, x)
    check_unit_interval(x_arr)
    arr = p.as_array()
    diffs = arr[:-1] - arr[1:]  # nonnegative for a valid policy
    values = (n - 1) * _nested_dot(n - 1, x_arr, diffs)
    return float(values[0]) if np.isscalar(x) or np.asarray(x).ndim == 0 else values


def h_inverse(p: Policy, y, tol: float = TOL_INV):
    """Unique x in [0, 1] with h(x, p) = y, by bisection.

    h is strictly increasing for nontrivial p, so bisection converges
    unconditionally; y must lie in [p_n, p_1].  It stops once x is pinned
    within tol/(n-1), after `MAX_BISECT` steps, or once every midpoint it
    keeps equals an end of its bracket: such a bracket no longer moves, so
    the steps left would return that same midpoint.
    """
    if not (tol >= 0.0 and isfinite(tol)):
        raise DomainError("tol must be finite and >= 0, got %r" % (tol,))
    if not is_nontrivial(p):
        raise TrivialPolicyError("h is constant for the all-equal policy")
    y_arr = _h_points(p, y)
    if not np.all(np.isfinite(y_arr)):
        raise RangeError("y must be finite")
    lo_val, hi_val = p.pn, p.p1
    slack = 1e-9 * max(1.0, abs(hi_val))
    if np.any(y_arr < lo_val - slack) or np.any(y_arr > hi_val + slack):
        raise RangeError(
            "y outside [p_n, p_1] = [%.9g, %.9g]" % (lo_val, hi_val)
        )
    y_clip = np.clip(y_arr, lo_val, hi_val)
    at_end = (y_clip == lo_val) | (y_clip == hi_val)  # set exactly after the loop
    lo = np.zeros_like(y_clip)
    hi = np.ones_like(y_clip)
    # dh/dx <= n-1, so an x-interval of tol/(n-1) pins h within tol
    x_tol = tol / max(p.n - 1, 1)
    for _ in range(MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if np.all(at_end | (mid == lo) | (mid == hi)):
            break
        below = h_values(p, mid) < y_clip  # mid lies in [0, 1]
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        if np.max(hi - lo) <= x_tol:
            break
    out = 0.5 * (lo + hi)
    out[y_clip == lo_val] = 0.0
    out[y_clip == hi_val] = 1.0
    return float(out[0]) if np.isscalar(y) or np.asarray(y).ndim == 0 else out
