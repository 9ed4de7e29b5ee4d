"""Ordered-simplex prize policies and structure classification.

A policy assigns a prize share to each rank of an ``n``-contestant contest.
Shares must be sorted in non-increasing order and sum to one.  Two named
policies recur everywhere: winner-take-all (``hm``) and uniform-except-last
(``uni``).  The one-parameter family between them, ``two_level(n, p1)``,
is where optima live for the covered objective class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import DomainError, NormalizationViolation, OrderViolation

TOL_ORDER = 1e-12
TOL_SUM = 1e-12


@dataclass(frozen=True)
class Policy:
    """Validated prize vector on the ordered probability simplex."""

    values: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def p1(self) -> float:
        return self.values[0]

    @property
    def pn(self) -> float:
        return self.values[-1]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def __str__(self) -> str:
        return ",".join("%.9g" % v for v in self.values)


@dataclass(frozen=True)
class StructureClass:
    """Shape tag for a policy: HM, UNI, TwoLevel (with top share) or Other."""

    tag: str  # one of "HM", "UNI", "TwoLevel", "Other"
    p1: Optional[float] = None


def make_policy(values: Iterable[float]) -> Policy:
    """Validate a share vector into a :class:`Policy`.

    No silent sorting or renormalization: a vector that is out of order,
    off-sum, or negative is rejected so that construction bugs surface.
    """
    vals = tuple(float(v) for v in values)
    if len(vals) < 2:
        raise DomainError("a policy needs at least 2 ranks, got %d" % len(vals))
    for v in vals:
        if not np.isfinite(v):
            raise DomainError("non-finite share %r" % v)
        if v < -TOL_ORDER:
            raise DomainError("negative share %.3g" % v)
    for i in range(len(vals) - 1):
        if vals[i] < vals[i + 1] - TOL_ORDER:
            raise OrderViolation(
                "shares must be non-increasing: p_%d=%.9g < p_%d=%.9g"
                % (i + 1, vals[i], i + 2, vals[i + 1])
            )
    total = sum(vals)
    if abs(total - 1.0) > TOL_SUM:
        raise NormalizationViolation("shares sum to %.12g, expected 1" % total)
    return Policy(values=tuple(max(v, 0.0) for v in vals))


def hm(n: int) -> Policy:
    """Winner-take-all: the full prize to the top rank."""
    if n < 2:
        raise DomainError("n must be >= 2")
    return Policy((1.0,) + (0.0,) * (n - 1))


def uni(n: int) -> Policy:
    """Equal shares for every rank except the last, which gets nothing."""
    if n < 2:
        raise DomainError("n must be >= 2")
    share = 1.0 / (n - 1)
    return Policy((share,) * (n - 1) + (0.0,))


def two_level(n: int, p1: float) -> Policy:
    """Top share ``p1``, ranks 2..n-1 split the rest evenly, bottom gets zero.

    ``p1`` ranges over [1/(n-1), 1]; the endpoints are exactly ``uni(n)``
    and ``hm(n)``.
    """
    if n < 3:
        raise DomainError("two_level needs n >= 3 (n=2 collapses to hm)")
    lo = 1.0 / (n - 1)
    if not (lo - TOL_ORDER <= p1 <= 1.0 + TOL_ORDER):
        raise DomainError("p1=%.9g outside [%.9g, 1]" % (p1, lo))
    p1 = min(max(p1, lo), 1.0)
    mid = (1.0 - p1) / (n - 2)
    return Policy((p1,) + (mid,) * (n - 2) + (0.0,))


def is_nontrivial(p: Policy) -> bool:
    """True iff some pair of shares differs by more than ``TOL_ORDER``."""
    return (max(p.values) - min(p.values)) > TOL_ORDER


def classify_structure(p: Policy, tol: float = 1e-6) -> StructureClass:
    """Match a policy against the two-level shape, HM/UNI taking precedence.

    TwoLevel requires the bottom share to vanish and the middle ranks to be
    mutually equal, all within ``tol``, which must be finite and
    nonnegative.  Anything else is Other.
    """
    if not (tol >= 0.0 and np.isfinite(tol)):
        raise DomainError("classification tolerance must be finite and >= 0, got %r" % (tol,))
    arr = p.as_array()
    n = p.n
    slack = tol + 1e-12  # guard against float dust in exact-tolerance hits
    if np.max(np.abs(arr - hm(n).as_array())) <= slack:
        return StructureClass("HM", p1=1.0)
    if np.max(np.abs(arr - uni(n).as_array())) <= slack:
        return StructureClass("UNI", p1=1.0 / (n - 1))
    if arr[-1] <= slack:
        middle = arr[1:-1]
        if middle.size == 0 or np.max(np.abs(middle - middle.mean())) <= slack:
            return StructureClass("TwoLevel", p1=float(arr[0]))
    return StructureClass("Other")


def parse_policy(text: str, n: int | None = None) -> Policy:
    """Parse a policy from its textual forms.

    Accepts comma-separated shares ("0.4,0.2,0.2,0.2,0"), or the named
    forms "hm", "uni" and "two:<p1>" when ``n`` is supplied.
    """
    s = text.strip().lower()
    if s in ("hm", "uni") or s.startswith("two:"):
        if n is None:
            raise DomainError("named policy %r needs an explicit n" % text)
        if s == "hm":
            return hm(n)
        if s == "uni":
            return uni(n)
        try:
            p1 = float(s.split(":", 1)[1])
        except ValueError as exc:
            raise DomainError("bad two-level share in %r" % text) from exc
        return two_level(n, p1)
    parts = [piece.strip() for piece in text.split(",")]
    values = []
    for pos, piece in enumerate(parts):
        try:
            values.append(float(piece))
        except ValueError as exc:
            raise DomainError(
                "could not parse share %r at position %d" % (piece, pos + 1)
            ) from exc
    return make_policy(values)
