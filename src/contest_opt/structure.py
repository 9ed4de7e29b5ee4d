"""Executable checks of the structural mathematics behind the optimizers.

The two-level shape of optimal policies rests on a chain of facts that are
all checkable numerically: the basis kernel ``a_i(1-x)`` has strictly
positive minors (a generalized Vandermonde determinant), which gives a
variation-diminishing transform, which turns the quasiconvex gradient
weight w(x) into a quasiconvex gradient sequence d_i, with tightly
constrained plateau placement.  Independently, integrals of powers of the
symmetric extension of h are Schur-monotone with a direction that flips at
exponent one.  Each link in the chain gets its own reporting operation
here; everything reports, nothing silently asserts.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .bernstein import basis_columns, basis_matrix
from .errors import DomainError
from .objective import ObjectiveSpec, gradient_weight
from .policy import Policy
from .quadrature import integrate

logger = logging.getLogger(__name__)

_GL_NODES = 128


@dataclass(frozen=True)
class SignPattern:
    """Sign-change counts of a sequence: strict (zeros skipped) and maximal
    (zeros free to take either sign)."""

    s_minus: int
    s_plus: int
    pattern: tuple[int, ...]
    all_zero: bool = False


@dataclass(frozen=True)
class QuasiconvexityReport:
    is_quasiconvex: bool
    transition_index: Optional[int]
    plateau_locations: tuple[int, ...] = ()
    violations: tuple[str, ...] = ()


@dataclass(frozen=True)
class SchurDirectionReport:
    direction: str  # "convex" | "concave" | "flat" | "mixed"
    counterexample: Optional[tuple] = None
    trials: int = 0
    seed: int = 0
    worst_margin: float = 0.0


def sign_changes(seq, zero_tol: float = 0.0) -> SignPattern:
    """Count strict and maximal sign changes of a real sequence.

    Entries within ``zero_tol`` of zero count as zeros.  The maximal count
    lets every zero take whichever sign lengthens the alternation, so an
    all-zero sequence degenerates to length - 1.
    """
    values = np.asarray(list(seq), dtype=float)
    if values.size == 0:
        raise DomainError("empty sequence")
    signs = np.where(values > zero_tol, 1, np.where(values < -zero_tol, -1, 0))
    nonzero = signs[signs != 0]
    s_minus = int(np.sum(nonzero[1:] != nonzero[:-1])) if nonzero.size else 0

    # maximal count: dynamic program over the running sign
    best = {1: None, -1: None}
    first = signs[0]
    for s in (1, -1):
        if first == 0 or first == s:
            best[s] = 0
    for raw in signs[1:]:
        nxt = {1: None, -1: None}
        for s in (1, -1):
            if raw != 0 and raw != s:
                continue
            candidates = [
                best[prev] + (1 if prev != s else 0)
                for prev in (1, -1)
                if best[prev] is not None
            ]
            nxt[s] = max(candidates) if candidates else None
        best = nxt
    s_plus = max(v for v in best.values() if v is not None)
    return SignPattern(
        s_minus=s_minus,
        s_plus=int(s_plus),
        pattern=tuple(int(v) for v in nonzero),
        all_zero=bool(nonzero.size == 0),
    )


def _shape_report(values: np.ndarray) -> tuple[list[int], tuple[int, ...], list[str], Optional[int]]:
    """Classify adjacent steps as -1/0/+1, a step within 1e-9 times
    max(1, max |value|) counting as flat, and locate the descent-to-ascent
    transition; any descent after an ascent is a violation.  Returns
    (steps, plateaus, violations, transition), the plateaus being the flat
    steps' 1-based indices."""
    tol = 1e-9 * max(1.0, float(np.max(np.abs(values))))
    diffs = np.diff(values)
    steps = np.where(diffs > tol, 1, np.where(diffs < -tol, -1, 0)).tolist()
    violations = []
    seen_up = None
    for idx, s in enumerate(steps, start=1):
        if s == 1 and seen_up is None:
            seen_up = idx
        if s == -1 and seen_up is not None:
            violations.append(
                "descends at step %d after ascending at step %d" % (idx, seen_up)
            )
    transition = int(np.argmin(values)) + 1 if seen_up is not None else None
    plateaus = tuple(i for i, s in enumerate(steps, start=1) if s == 0)
    return steps, plateaus, violations, transition


@lru_cache(maxsize=None)
def _warn_small_n(n: int) -> None:
    # once per process and n: the checks run this on many policies
    logger.warning(
        "n=%d leaves at most two interior gradient entries; plateau "
        "placement checks are weak this small", n,
    )


def check_gradient_quasiconvexity(d, p: Policy) -> QuasiconvexityReport:
    """Verify the descend-then-ascend shape and plateau placement of a
    gradient sequence.

    Plateaus (adjacent entries equal within `_shape_report`'s tolerance)
    are admitted only where the theory allows them: flanking the
    slope-change index, at the last step of an entirely decreasing
    sequence, or at the first step of an entirely increasing one.  The
    union of those cases is applied permissively and the matching case is
    logged.  A plateau spanning both sides of the slope change is always a
    violation.
    """
    values = np.asarray(list(d), dtype=float)
    if values.size < 1:
        raise DomainError("empty gradient sequence")
    if p.n <= 4:
        _warn_small_n(p.n)
    if values.size == 1:
        return QuasiconvexityReport(True, 1)

    steps, plateaus, violations, transition = _shape_report(values)

    if all(s == 0 for s in steps):
        logger.info("gradient sequence is constant (degenerate quasiconvex case)")
        return QuasiconvexityReport(True, None, plateaus, tuple(violations))

    decreasing = all(s <= 0 for s in steps)
    increasing = all(s >= 0 for s in steps)
    if decreasing:
        allowed = {len(steps)}
        case = "monotone decreasing: plateau only at the final step"
    elif increasing:
        allowed = {1}
        case = "monotone increasing: plateau only at the first step"
    else:
        k = int(np.argmin(values)) + 1  # first minimum: the slope-change index
        transition = k
        allowed = {k - 1, k}
        case = "slope change at %d: plateaus only adjacent to it" % k
        if k in plateaus and k + 1 in plateaus:
            violations.append("plateau spans both sides of the slope change at %d" % k)
    for i in plateaus:
        if i not in allowed:
            violations.append("plateau at step %d outside allowed %s" % (i, sorted(allowed)))
    if not violations:
        logger.info("quasiconvexity case fired: %s", case)
    return QuasiconvexityReport(
        is_quasiconvex=not violations,
        transition_index=transition,
        plateau_locations=plateaus,
        violations=tuple(violations),
    )


def check_weight_quasiconvexity(spec: ObjectiveSpec, beta, p: Policy) -> QuasiconvexityReport:
    """Sample the shared gradient weight at 512 evenly spaced interior
    points of (0, 1) and report its shape.

    For objectives outside the covered class the weight may genuinely fail
    to be quasiconvex; this operation reports what it sees and never
    raises on shape grounds.
    """
    x = np.linspace(0.0, 1.0, 514)[1:-1]
    steps, plateaus, violations, transition = _shape_report(gradient_weight(spec, beta, p, x))
    if all(s == 0 for s in steps):
        return QuasiconvexityReport(True, None, plateaus, ())
    return QuasiconvexityReport(
        is_quasiconvex=not violations,
        transition_index=transition,
        plateau_locations=plateaus,
        violations=tuple(violations),
    )


@lru_cache(maxsize=16)
def _gl_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(_GL_NODES)
    basis = basis_matrix(n, 0.5 * (nodes + 1.0))
    basis.setflags(write=False)
    return basis, 0.5 * weights


def symmetric_power_integral(p_values: np.ndarray, r: float) -> float:
    """Integral over [0,1] of O(x, p)^r, where O sorts p descending and
    applies the rank basis; Gauss-Legendre is exact to machine precision
    for these smooth integrands."""
    p_sorted = np.sort(np.asarray(p_values, dtype=float))[::-1]
    basis, w = _gl_basis(p_sorted.size)
    values = basis @ p_sorted
    return float(integrate(values**r, w))


def schur_direction(r: float, n: int, trials: int = 200, seed: int = 0) -> SchurDirectionReport:
    """Probe the majorization direction of p -> I[O(x, p)^r] empirically.

    Each trial draws a simplex point, applies a Robin-Hood transfer from a
    larger to a smaller coordinate (producing a majorized comparator), and
    signs the difference.  Consistent positive signs mean Schur-convex,
    consistent negative means Schur-concave, all within 1e-9 of zero
    means flat; a sign clash is reported with the offending pair as a
    counterexample.
    """
    if trials < 1:
        raise DomainError("need at least one trial")
    if n < 2:
        raise DomainError("n must be >= 2")
    rng = np.random.default_rng(seed)
    pos = neg = 0
    worst = 0.0
    counterexample = None
    for _ in range(trials):
        p = rng.dirichlet(np.ones(n))
        hi, lo = int(np.argmax(p)), int(np.argmin(p))
        gap = p[hi] - p[lo]
        if gap < 1e-9:
            continue
        transfer = rng.uniform(0.0, gap / 2.0)
        q = p.copy()
        q[hi] -= transfer
        q[lo] += transfer
        diff = symmetric_power_integral(p, r) - symmetric_power_integral(q, r)
        worst = max(worst, abs(diff))
        if diff > 1e-9:
            pos += 1
            if neg and counterexample is None:
                counterexample = (tuple(p), tuple(q), diff)
        elif diff < -1e-9:
            neg += 1
            if pos and counterexample is None:
                counterexample = (tuple(p), tuple(q), diff)
    if pos and neg:
        direction = "mixed"
    elif pos:
        direction = "convex"
    elif neg:
        direction = "concave"
    else:
        direction = "flat"
    return SchurDirectionReport(direction, counterexample, trials, seed, worst)


def vandermonde_minor(n: int, x_points, i_indices) -> float:
    """Determinant of the kernel minor [a_{i_s}(1 - x_l)]_{l,s}.

    The kernel is strictly totally positive, so every such minor should be
    strictly positive; this computes one and leaves the judgment to the
    caller.  Points must be strictly increasing in (0, 1) and indices
    strictly increasing in 1..n-1, at most 6 of each (conditioning).
    """
    x_arr = np.asarray(x_points, dtype=float)
    idx = np.asarray(i_indices, dtype=int)
    if x_arr.size != idx.size:
        raise DomainError("points and indices must have equal length")
    k = x_arr.size
    if not 1 <= k <= 6:
        raise DomainError("minor order must be between 1 and 6, got %d" % k)
    if np.any(x_arr <= 0.0) or np.any(x_arr >= 1.0):
        raise DomainError("points must lie strictly inside (0, 1)")
    if np.any(np.diff(x_arr) <= 0.0):
        raise DomainError("points must be strictly increasing (no duplicates)")
    if np.any(idx < 1) or np.any(idx > n - 1):
        raise DomainError("indices must lie in 1..n-1")
    if np.any(np.diff(idx) <= 0):
        raise DomainError("indices must be strictly increasing (no duplicates)")
    kernel = basis_columns(n, 1.0 - x_arr, idx)
    return float(np.linalg.det(kernel))
