"""1-D quadrature on [0, 1] with explicit error accounting.

Two rules are supported, and `QuadratureConfig.monotone_error_bound` is
each one's allowance for a monotone integrand f, the bound the optimizer's
certificates rely on.  ``right_riemann`` evaluates at j/m for j = 1..m; its
absolute error is at most |f(1) - f(0)|/m.  ``trapezoid`` is the standard
closed rule on j/m for j = 0..m; its error is at most |f(1) - f(0)|/(2m),
half that (and O(1/m^2) for smooth integrands).  The trapezoid sum T is
the mean of the left and right Riemann sums L and R, and for a monotone f
the integral I lies between L and R, which differ by (f(1) - f(0))/m, so
|T - I| <= |R - L|/2 (Davis & Rabinowitz, *Methods of Numerical
Integration*, 1984, section 2.1).

``exclude_left_endpoint`` acts only under ``trapezoid``: it moves the node
at x = 0 to 1/m, keeping its weight, so integrands with a singularity at
x = 0 are never evaluated there.  That sum is R - (f(1) - f(1/m))/(2m), not
the mean of L and R, so it keeps the full 1/m allowance.  Right-Riemann
nodes start at 1/m, so under ``right_riemann`` the flag changes nothing.

Every sum over the nodes is `integrate`: blocks of `_SUM_BLOCK` nodes, one
BLAS call each, whose sums are added in node order.  The order of a
floating-point sum sets its rounding, so it is fixed here, not by how many
threads the BLAS splits a long dot product over: a sum has the same bits
at every thread count, and up to `_SUM_BLOCK` nodes it is ``values.T @ w``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BudgetExceededError, DomainError

RULES = ("right_riemann", "trapezoid")
# most nodes: each evaluation holds a few doubles per node, and at 10^6 nodes
# `optimize` peaked at 486 MB (grid, n = 5), 190 MB (line) and 166 MB (bnb);
# at 4 x 10^6 the grid took 1.7 GB
MAX_M = 1_000_000
# nodes per block of `integrate`.  On a 2-core VM with numpy 2.4.6's
# OpenBLAS 0.3.31 (Haswell kernels), a dot product gave the same bits at 1
# and 2 BLAS threads up to 10,000 elements and other bits from 10,001 on,
# where OpenBLAS starts splitting it; a (nodes, batch) matrix-vector product
# kept its bits below 460,800 values, 56 columns of a full block.  At
# m = 100,000, one thread, `integrate` took 36 us against one dot's 27 us.
_SUM_BLOCK = 8192


@dataclass(frozen=True)
class QuadratureConfig:
    m: int = 100_000
    rule: str = "right_riemann"
    exclude_left_endpoint: bool = True

    def __post_init__(self) -> None:
        try:
            operator.index(self.m)
        except TypeError:
            raise DomainError("quadrature needs an integer m, got %r" % (self.m,)) from None
        if self.m < 2:
            raise DomainError("quadrature needs m >= 2, got %d" % self.m)
        if self.m > MAX_M:
            raise BudgetExceededError("quadrature of %d nodes exceeds the cap of %d"
                                      % (self.m, MAX_M))
        if self.rule not in RULES:
            raise DomainError("unknown rule %r, expected one of %s" % (self.rule, RULES))

    def nodes_weights(self) -> tuple[np.ndarray, np.ndarray]:
        return _nodes_weights(self.m, self.rule, self.exclude_left_endpoint)

    def monotone_error_bound(self, f0: float = 0.0, f1: float = 1.0) -> float:
        """Rigorous |quadrature - integral| bound for a monotone integrand
        ranging from f0 to f1: |f1 - f0|/(2m) for the trapezoid rule with
        its node at 0, which is the mean of the left and right Riemann sums
        that bracket the integral, and |f1 - f0|/m otherwise.  With the
        left endpoint excluded the trapezoid sum is no such mean (see the
        module docstring), so it keeps /m."""
        if self.rule == "trapezoid" and not self.exclude_left_endpoint:
            return abs(f1 - f0) / (2 * self.m)
        return abs(f1 - f0) / self.m


def integrate(values: np.ndarray, w: np.ndarray):
    """The quadrature sum of `values` over its first axis, the nodes, with
    weights `w`: ``values.T @ w`` for a 1-d array or a (nodes, batch) one.

    Summed in blocks of `_SUM_BLOCK` nodes, each one BLAS call too short
    for OpenBLAS to split over its threads, and the block sums are added in
    node order.  A (nodes, batch) block stays unsplit while it holds fewer
    than 460,800 values; the package's batches hold at most 2^16.
    """
    m = len(w)
    if m <= _SUM_BLOCK:
        return values.T @ w
    k, rest = divmod(m, _SUM_BLOCK)
    full = m - rest
    # k (1 x block) @ (block x batch) products, one BLAS call each, in one
    # stacked call (a Python loop of them cost branch-and-bound 2-3% more
    # CPU); a 1-d array is one column
    blocks = w[:full].reshape(k, 1, _SUM_BLOCK) @ values[:full].reshape(k, _SUM_BLOCK, -1)
    total = np.add.accumulate(blocks)[-1, 0]  # the block sums, added in node order
    if rest:
        total = total + values[full:].T @ w[full:]
    return total if values.ndim > 1 else total[0]


@lru_cache(maxsize=32)
def _nodes_weights(m: int, rule: str, exclude_left: bool) -> tuple[np.ndarray, np.ndarray]:
    if rule == "right_riemann":
        x = np.arange(1, m + 1, dtype=float) / m
        w = np.full(m, 1.0 / m)
    else:
        x = np.arange(0, m + 1, dtype=float) / m
        w = np.full(m + 1, 1.0 / m)
        w[0] = w[-1] = 0.5 / m
        if exclude_left:
            x = x.copy()
            x[0] = 1.0 / m
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w
