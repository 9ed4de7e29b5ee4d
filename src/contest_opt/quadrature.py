"""1-D quadrature on [0, 1] with explicit error accounting.

Two rules are supported.  ``right_riemann`` evaluates at j/m for j = 1..m;
for a monotone integrand f its absolute error is at most (f(1) - f(0))/m,
which is the bound the optimizer's certificates rely on.  ``trapezoid`` is
the standard closed rule (the same monotone bound holds, and the actual
error is O(1/m^2) for smooth integrands).

``exclude_left_endpoint`` acts only under ``trapezoid``: it moves the node
at x = 0 to 1/m, keeping its weight, so integrands with a singularity at
x = 0 are never evaluated there.  Right-Riemann nodes start at 1/m, so
under ``right_riemann`` the flag changes nothing.
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
        ranging from f0 to f1."""
        return abs(f1 - f0) / self.m


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
