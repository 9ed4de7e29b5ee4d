"""Designer objectives in equilibrium-free form, and their gradients.

With a zero bottom share, every covered objective is a weighted sum of
integrals of powers of the policy polynomial:

* convex combination of audience welfare and mean quality:
  ``alpha * n * I[h^(1+1/beta)] + (1-alpha) * I[h^(1/beta)]``
* posynomial reward ``sum_j e_j q^(k_j)``:  ``sum_j e_j I[h^(k_j/beta)]``
* top order statistic:  ``n * I[x^(n-1) h^(1/beta)]``
* exponential reward, via its truncated Taylor posynomial
* social welfare: the welfare term plus nonnegative platform terms
  (contestant rents vanish when the bottom share is zero)

where ``I[f] = integral of f over [0,1]``.  Gradients with respect to the
top ``n-1`` shares share a single weight function ``w(x)`` multiplying each
basis element, which is what the structural checks downstream exploit.
Values, gradient weights and lattice brackets alike are sums of terms
``coef * x^a * h^r`` (``_Term``), summed by one kernel: ``_plan`` groups
the terms into polynomials in a root power q = h^e0, and ``_term_values``
sums each by Horner's rule, so an exponential's Taylor terms take one
power of h.  The weight is the sum of each term's slope
``coef * r * x^a * h^(r-1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Union

import numpy as np

from .bernstein import h_eval, weights_dot_basis
from .errors import (
    BudgetExceededError,
    DomainError,
    ReductionPreconditionError,
    TrivialPolicyError,
)
from .policy import Policy, is_nontrivial
from .quadrature import QuadratureConfig, integrate

PN_TOL = 1e-12
# Rounding allowance of `lattice_bracket`: the full value and the bracket sum
# the same groups of one `_plan`, each by Horner's rule of degree at most
# `_HORNER_MAX_DEGREE`, the bracket each sign apart, so they differ by a
# relative error below 1e-13 of the terms' integrated size.  g = B(p - p_n)
# is a sum of nonnegative products, so its rounding is relative too and this
# one allowance covers it.
BRACKET_ROUNDING = 1e-9
# Largest degree in q = g^e0 that `_term_values` sums by Horner's rule, for
# every value, slope, gradient weight and bracket; a term of higher degree,
# or of a negative exponent, takes its own power of g.
# With nonnegative coefficients and q >= 0 the Horner sum of degree d is
# within gamma_2d = 2du / (1 - 2du) of the exact one, relative (Higham,
# Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, ch. 5),
# and q^j carries j times the one power's rounding: below 1e-13 at d = 64.
# Each group is of one sign, so Horner's rule never runs across signs.
_HORNER_MAX_DEGREE = 64
# Most Taylor terms an `Exponential` expands to, over all its rates.  Every
# term past `_HORNER_MAX_DEGREE` takes a power of h at each node: at 100,000
# nodes, with one power per term, `evaluate` of the 2,149 terms of the
# default order at lambda = 709 took 17.5 s CPU and `optimize --method line`
# 99 s.  The cap admits two such rates.
MAX_TAYLOR_TERMS = 5000

# the trapezoid rule at m = 2^16, the config's defaults: an allowance of
# 1/131,072 per unit range, and nodes and weights exact in binary; also
# `optimizer.BNB_QUAD`
DEFAULT_QUAD = QuadratureConfig()


def _check_finite_terms(terms, what: str) -> None:
    if not all(math.isfinite(v) for term in terms for v in term):
        raise DomainError("%s must be finite, got %r" % (what, terms))


def beta_value(beta: float) -> float:
    b = float(beta)
    if not (b > 0 and np.isfinite(b)):
        raise DomainError("beta must be positive and finite, got %r" % (beta,))
    return b


@dataclass(frozen=True)
class ConvexCombo:
    """alpha-weighted mix of audience welfare and mean quality."""

    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise DomainError("alpha must lie in [0, 1], got %r" % (self.alpha,))


@dataclass(frozen=True)
class Posynomial:
    """Reward sum_j e_j q^(k_j) with strictly increasing positive exponents."""

    terms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise DomainError("posynomial needs at least one term")
        _check_finite_terms(self.terms, "posynomial terms")
        ks = [k for _, k in self.terms]
        if any(k <= 0 for k in ks):
            raise DomainError("posynomial exponents must be positive")
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise DomainError("posynomial exponents must be strictly increasing")


@dataclass(frozen=True)
class MaxOrderStat:
    """Expected value of the highest quality among the contestants."""


@dataclass(frozen=True)
class Exponential:
    """Reward sum_l exp(lambda_l * q), evaluated through a Taylor truncation."""

    lambdas: tuple[float, ...]
    truncation_m: int | None = None

    def __post_init__(self) -> None:
        if not self.lambdas or not all(0.0 < l < math.inf for l in self.lambdas):
            raise DomainError("exponential rates must be positive and finite, got %r"
                              % (self.lambdas,))
        try:
            math.fsum(map(math.exp, self.lambdas))
        except OverflowError:
            raise DomainError("exponential rates %r overflow: the sum of exp(lambda) "
                              "exceeds the largest double" % (self.lambdas,)) from None
        if self.truncation_m is not None and self.truncation_m < 1:
            raise DomainError("truncation order must be >= 1")
        count = len(self.lambdas) * (self.order() + 1)
        if count > MAX_TAYLOR_TERMS:
            raise BudgetExceededError("exponential of %d Taylor terms exceeds the cap of %d"
                                      % (count, MAX_TAYLOR_TERMS))

    def order(self) -> int:
        # remainder < 1e-12 for rates up to about 10
        if self.truncation_m is not None:
            return self.truncation_m
        return math.ceil(3 * max(self.lambdas)) + 20


@dataclass(frozen=True)
class SocialWelfare:
    """Audience welfare plus a nonnegative posynomial platform reward.

    Contestant rents equal n times the bottom share, which is zero in the
    reduced form and accounted for explicitly on the full lattice.
    """

    platform_terms: tuple[tuple[float, float], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        _check_finite_terms(self.platform_terms, "platform terms")
        ks = [k for _, k in self.platform_terms]
        if any(e < 0 for e, _ in self.platform_terms):
            raise DomainError("platform term coefficients must be nonnegative")
        if any(k <= 0 for k in ks):
            raise DomainError("platform term exponents must be positive")
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise DomainError("platform term exponents must be strictly increasing")


ObjectiveSpec = Union[ConvexCombo, Posynomial, MaxOrderStat, Exponential, SocialWelfare]


# --- unified term form ------------------------------------------------------
#
# Every objective value is  constant + sum_t coef_t * I[x^xp_t * h^th_t * g^ge_t]
# with g = h - p_n (g == h in the reduced form).  th is 0 or 1: the welfare
# term keeps one plain factor of h = g + p_n even on the full lattice.


class _Term(NamedTuple):
    coef: float
    g_exp: float
    x_pow: float = 0.0
    times_h: bool = False

    @property
    def power(self) -> float:
        """r, the term's total power of h on the reduced domain (g == h)."""
        return self.g_exp + (1.0 if self.times_h else 0.0)


def _terms(spec: ObjectiveSpec, beta: float, n: int) -> tuple[_Term, ...]:
    inv_b = 1.0 / beta
    if isinstance(spec, ConvexCombo):
        out = []
        if spec.alpha > 0.0:
            out.append(_Term(spec.alpha * n, inv_b, times_h=True))
        if spec.alpha < 1.0:
            out.append(_Term(1.0 - spec.alpha, inv_b))
        return tuple(out)
    if isinstance(spec, Posynomial):
        return tuple(_Term(e, k * inv_b) for e, k in spec.terms)
    if isinstance(spec, MaxOrderStat):
        return (_Term(float(n), inv_b, x_pow=float(n - 1)),)
    if isinstance(spec, Exponential):
        out = []
        for lam in spec.lambdas:
            coef = 1.0
            for j in range(spec.order() + 1):
                # the constant term's exponent is 0 even where 1/beta is inf
                out.append(_Term(coef, j * inv_b if j else 0.0))
                coef *= lam / (j + 1)
        return tuple(out)
    if isinstance(spec, SocialWelfare):
        out = [_Term(float(n), inv_b, times_h=True)]
        out.extend(_Term(e, k * inv_b) for e, k in spec.platform_terms)
        return tuple(out)
    raise DomainError("unknown objective spec %r" % (spec,))


def _slope_terms(terms) -> list[_Term]:
    """d/dh of each term on the reduced domain (g == h): coef * x^a * h^r
    gives coef * r * x^a * h^(r-1), and a constant term gives nothing.  A
    term with a plain factor of h, h * h^e, keeps its exponent e as it is,
    so the mix's two slope terms take h^(1/beta) and h^(1/beta - 1).  Where
    1/beta - 1 is no nonnegative multiple of 1/beta, it is a root of its
    own, one below the first, and `_term_values` reads its power off the
    first's (`_power_below`)."""
    return [_Term(t.coef * t.power, t.g_exp if t.times_h else t.g_exp - 1.0, t.x_pow)
            for t in terms if t.power != 0.0]


def _lattice_constant(spec: ObjectiveSpec, n: int, pn: float) -> float:
    # contestant rents; nonzero only off the reduced domain
    return n * pn if isinstance(spec, SocialWelfare) else 0.0


def _power_below(g: np.ndarray, above: np.ndarray, exponent: float) -> np.ndarray:
    """g**exponent from `above` = g**(exponent + 1): above / g where g > 0.
    Where g is 0, negative or nan, np.power takes the node, so an inf or
    nan keeps the sign np.power gives it.  The quotient carries the power's
    rounding and one more, a few units in the last place."""
    if g.min() > 0.0:
        return above / g
    power = np.power(g, exponent)
    np.divide(above, g, out=power, where=g > 0.0)
    return power


class _Group(NamedTuple):
    """x^x_pow * sum_j q^j (a_j + b_j h), q = g^root, of one sign: `top` is
    (a_d, b_d) at the degree d, and `steps` (a_j, b_j, j) for j = d - 1
    down to 1, and to 0 where the group holds a constant."""

    root: float
    x_pow: float
    negative: bool
    degree: int
    top: tuple[float, float]
    steps: tuple[tuple[float, float, int], ...]


def _plan(terms) -> tuple[_Group, ...]:
    """The terms as polynomials in root powers q = g^root, one per root,
    power of x and sign of the coefficient, in the order the terms first
    reach them.  With e0 the smallest positive exponent over all the terms,
    a term whose exponent is j * e0 in floating point for an integer
    0 <= j <= `_HORNER_MAX_DEGREE` takes the root e0; any other, a negative
    one among them, takes its own exponent as its root, with j = 1.  A
    term's coefficient adds to b_j where it has a plain factor of h, else to
    a_j."""
    positive = [t.g_exp for t in terms if t.g_exp > 0.0]
    # with no positive exponent, e0 serves only the constants, j = 0
    e0 = min(positive) if positive else 1.0
    groups: dict[tuple, dict[int, list[float]]] = {}
    for coef, g_exp, x_pow, times_h in terms:
        # a ratio past the bound, or inf or nan from an overflowed exponent,
        # is no j
        ratio = g_exp / e0
        root, j = e0, (round(ratio) if 0.0 <= ratio <= _HORNER_MAX_DEGREE else -1)
        if j < 0 or j * e0 != g_exp:
            root, j = g_exp, 1
        coefs = groups.setdefault((root, x_pow, coef < 0.0), {}).setdefault(j, [0.0, 0.0])
        coefs[times_h] += coef
    plan = []
    for (root, x_pow, negative), coefs in groups.items():
        degree = max(coefs)
        stop = -1 if 0 in coefs else 0
        steps = [(*coefs.get(j, (0.0, 0.0)), j) for j in range(degree - 1, stop, -1)]
        plan.append(_Group(root, x_pow, negative, degree, tuple(coefs[degree]), tuple(steps)))
    return tuple(plan)


def _term_values(plan, x: np.ndarray, g: np.ndarray, pn=0.0,
                 powers: dict | None = None, read_only: bool = False) -> np.ndarray:
    """Sum of a `_plan`'s terms at the nodes, where g = B(p - p_n) and
    h = g + p_n (h == g on the reduced domain, p_n = 0).

    Each group is summed by Horner's rule in its q: from the top degree
    down, add a_j + b_j h as b_j g + (a_j + b_j p_n), so h is never
    formed, and multiply by q while j > 0; then by x^x_pow.  A top b h
    alone on the reduced domain enters as (b q) g, so a lone term sums as
    coef * g^r * h * x^a, in that order.

    `powers` holds the last root power taken, {root: g**root}, for the
    next group of that root; a root one below it reads its power off it
    (`_power_below`).  Callers that sum several plans on the same g pass
    one dict to every call; one power at a time keeps a call's memory at
    one extra array of g's shape.  The memo's arrays are only read: a lone
    unit term's part is the memo's array, and a sum of it alone is a copy,
    or the array itself to a caller that passes `read_only`.

    The sum is bit for bit 0.0 + part_1 + part_2 + ... over the groups, but
    starts from the first part's own array and adds 0.0 only where that can
    hold -0.0: a negative group, since g, h and their powers hold none.
    """
    if not plan:
        return np.zeros_like(g)
    powers = {} if powers is None else powers
    total, owned = None, False
    for root, x_pow, negative, degree, (a, b), steps in plan:
        if degree:
            q = powers.get(root)
            if q is None:
                held = next(iter(powers.items()), None)
                q = (_power_below(g, held[1], root) if held and held[0] - 1.0 == root
                     else np.power(g, root))
                powers.clear()
                powers[root] = q
        fresh = True
        if not b:
            if a == 1.0 and degree == 1 and not steps:
                part, fresh = q, False
            else:
                part = a * q if degree else np.full_like(g, a)
        elif degree and not a and not (pn.any() if isinstance(pn, np.ndarray) else pn):
            part = q * g if b == 1.0 else b * q * g
        else:
            part = b * g
            part += a + b * pn
            if degree:
                part *= q
        for a, b, j in steps:
            if b:
                part += b * g
                part += a + b * pn
            elif a:
                part += a
            if j:
                part *= q
        if x_pow:
            part = np.multiply(part, np.power(x, x_pow), out=part if fresh else None)
            fresh = True
        if total is None:
            total, owned = part, fresh
            if negative:
                total += 0.0
        elif owned:
            total += part
        else:
            total, owned = total + part, True
    return total if owned or read_only else total + 0.0


def _require_reduced(p: Policy) -> None:
    if not is_nontrivial(p):
        raise TrivialPolicyError("reduced objectives need a nontrivial policy")
    if p.pn > PN_TOL:
        raise ReductionPreconditionError(
            "reduced form needs a zero bottom share, got p_n=%.3g" % p.pn
        )


def evaluate(spec: ObjectiveSpec, beta, p: Policy, quad: QuadratureConfig | None = None) -> float:
    """Quadrature value of the reduced objective."""
    b = beta_value(beta)
    _require_reduced(p)
    x, w = (quad or DEFAULT_QUAD).nodes_weights()
    return float(lattice_value(spec, b, h_eval(p, x), 0.0, x, w, p.n))


def evaluate_error_bound(spec: ObjectiveSpec, beta, p: Policy, quad: QuadratureConfig | None = None) -> float:
    """Per-term monotone quadrature error bound for `evaluate`.

    Each |coef| * x^a * h^r factor is monotone on [0,1], so the rule error
    is at most the rule's allowance on its range
    (`QuadratureConfig.monotone_error_bound`); terms add by linearity.
    """
    b = beta_value(beta)
    quad = quad or DEFAULT_QUAD
    bound = 0.0
    for t in _terms(spec, b, p.n):
        top = abs(t.coef) * p.p1 ** t.power
        bottom = abs(t.coef) if t.g_exp == 0.0 and not t.times_h and t.x_pow == 0.0 else 0.0
        bound += quad.monotone_error_bound(bottom, top)
    return bound


def hm_value(spec: ObjectiveSpec, beta, n: int) -> float:
    """Exact objective value of the winner-take-all policy hm(n); no
    quadrature involved.  There h = x^(n-1), so a term coef * x^a * h^r
    integrates to coef / (a + (n-1) r + 1), and the bottom share, and so
    the lattice constant, is 0."""
    if n < 2:
        raise DomainError("n must be >= 2")
    b = beta_value(beta)
    return math.fsum(t.coef / (t.x_pow + (n - 1) * t.power + 1.0) for t in _terms(spec, b, n))


def evaluate_hm_closed_form(alpha: float, beta, n: int) -> float:
    """`hm_value` of the welfare/quality mix:
    ``alpha * beta*n/(beta*n + n - 1) + (1-alpha) * beta/(beta + n - 1)``."""
    return hm_value(ConvexCombo(alpha), beta, n)


def gradient_weight(spec: ObjectiveSpec, beta, p: Policy, x):
    """The common weight w(x) such that d_i = I[w(x) a_i(x)] for i <= n-1."""
    b = beta_value(beta)
    _require_reduced(p)
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    h = np.atleast_1d(h_eval(p, x_arr))
    total = _term_values(_plan(_slope_terms(_terms(spec, b, p.n))), x_arr, h)
    return float(total[0]) if np.isscalar(x) or np.asarray(x).ndim == 0 else total


def gradient(spec: ObjectiveSpec, beta, p: Policy, quad: QuadratureConfig | None = None) -> np.ndarray:
    """Partial derivatives of `evaluate` w.r.t. the top n-1 shares.

    The weight multiplying a_i(x) is identical across i.  For exponents
    below one it is singular at x = 0, the rule's first node, where a_i is
    0 for every i < n, so the sum runs over the nodes x > 0 only: the full
    sum wherever the weight at 0 is finite, and never 0 * inf = nan.
    """
    x, w = (quad or DEFAULT_QUAD).nodes_weights()
    x, w = x[1:], w[1:]
    weight = gradient_weight(spec, beta, p, x)
    return weights_dot_basis(p.n, x, weight * w)[: p.n - 1]


def lattice_value(spec: ObjectiveSpec, beta, g: np.ndarray, pn, x: np.ndarray,
                  w: np.ndarray, n: int):
    """Objective value for arbitrary ordered policies (p_n possibly > 0).

    Works from precomputed values of g = B(p - p_n), the policy polynomial
    of the shifted shares, on quadrature nodes; `g` may be a matrix
    (nodes, batch) with `pn` a batch vector.  Quality-type powers act on g,
    and the welfare term keeps one plain factor h = g + p_n.  With p_n = 0,
    g is h itself.
    """
    b = beta_value(beta)
    pn = np.asarray(pn)
    xcol = x if g.ndim == 1 else x[:, None]
    values = _term_values(_plan(_terms(spec, b, n)), xcol, g, pn)
    return integrate(values, w) + _lattice_constant(spec, n, pn)


def lattice_bracket(spec: ObjectiveSpec, beta, g: np.ndarray, pn, x: np.ndarray,
                    w_low: np.ndarray, w_high: np.ndarray, n: int):
    """Lower and upper bounds on `lattice_value` from a subset of its nodes.

    On an ordered policy the shifted shares p - p_n are nonnegative and
    nonincreasing in rank, so g = B(p - p_n) and h = g + p_n are
    nonnegative and nondecreasing in x, and so is every term factor
    x^a, h, g^r.  So are P, the sum of the positive-coefficient terms, and
    N, the sum of the negative-coefficient terms with their signs flipped.
    Let the nodes s_0 = first < ... < s_K = last be taken from the rule's
    own nodes and W_k be the weight of the rule's nodes in [s_k, s_{k+1}).
    `w_low` puts W_k on s_k and `w_high` puts it on s_{k+1}; both give the
    last node its own weight.  Then P.w_low <= the rule's sum of P <=
    P.w_high, likewise for N, and the value lies in
    [P.w_low - N.w_high, P.w_high - N.w_low] plus the lattice constant.

    P and N are summed as `lattice_value` sums its terms, from one `_plan`
    split by sign: the groups of each sign share e0 and one power memo, so
    an exponential costs one power, not one per Taylor term.

    Both ends are widened by `BRACKET_ROUNDING` times
    P.w_high + N.w_high + |constant|.  `g` holds the policies' values at
    the subset's nodes `x`, shaped as for `lattice_value`.  With every node
    and `w_low` = `w_high` = the rule's weights, the bracket is only the
    rounding allowance wide.
    """
    b = beta_value(beta)
    pn = np.asarray(pn)
    xcol = x if g.ndim == 1 else x[:, None]
    plan = _plan(_terms(spec, b, n))
    powers: dict = {}

    def class_sums(negative: bool):
        groups = tuple(group for group in plan if group.negative == negative)
        if not groups:
            return 0.0, 0.0
        values = _term_values(groups, xcol, g, pn, powers, read_only=True)
        return integrate(values, w_low), integrate(values, w_high)

    # fall_low and fall_high: the falling terms' signed sums, -N.w_low and -N.w_high
    (rise_low, rise_high), (fall_low, fall_high) = class_sums(False), class_sums(True)
    constant = _lattice_constant(spec, n, pn)
    slack = BRACKET_ROUNDING * (rise_high - fall_high + np.abs(constant))
    return (rise_low + fall_high + constant - slack,
            rise_high + fall_low + constant + slack)


def check_posynomial_condition(terms, beta) -> tuple[bool, int | None]:
    """Test the one-sign-change coefficient pattern of e_j (k_j - beta).

    The structural guarantee needs the sequence, taken in increasing-k
    order, to be nonpositive then nonnegative (one-signed included).
    Returns (ok, transition index), the index being the position of the
    last strictly negative entry (0 when none), 1-based.
    """
    b = beta_value(beta)
    terms = tuple(terms)
    ks = [k for _, k in terms]
    if any(y <= x for x, y in zip(ks, ks[1:])):
        raise DomainError("terms must be sorted by strictly increasing exponent")
    signs = [e * (k - b) for e, k in terms]
    last_neg = 0
    for j, s in enumerate(signs, start=1):
        if s < 0:
            last_neg = j
    ok = all(s <= 0 for s in signs[:last_neg])
    return (ok, last_neg if ok else None)


def structural_condition_holds(spec: ObjectiveSpec, beta) -> bool:
    """Whether the two-level optimal-shape guarantee covers this objective."""
    if isinstance(spec, (ConvexCombo, MaxOrderStat, Exponential, SocialWelfare)):
        return True
    if isinstance(spec, Posynomial):
        ok, _ = check_posynomial_condition(spec.terms, beta)
        return ok
    return False


# --- flat key=value config form --------------------------------------------


def parse_objective_config(text: str) -> ObjectiveSpec:
    """Parse "objective=convex alpha=0.24" style strings.

    Forms: convex (alpha=), posynomial (terms=e:k,...), orderstat,
    exp (lambdas=, optional truncation=), social (optional terms=e:k,...).
    A missing, repeated, unread or unparsable key is a DomainError naming it.
    """
    fields: dict[str, str] = {}
    for token in text.split():
        if "=" not in token:
            raise DomainError("expected key=value, got %r" % token)
        key, value = token.split("=", 1)
        if key in fields:
            raise DomainError("%s= given twice in %r" % (key, text))
        fields[key] = value
    kind = fields.pop("objective", None)
    if kind is None:
        raise DomainError("missing objective= in %r" % text)

    def take(key: str) -> str:
        if key not in fields:
            raise DomainError("objective=%s needs %s=" % (kind, key))
        return fields.pop(key)

    def number(key: str, raw: str, cast=float):
        try:
            return cast(raw)
        except ValueError:
            raise DomainError("%s= takes numbers, got %r" % (key, raw)) from None

    def pairs(key: str) -> tuple[tuple[float, float], ...]:
        out = []
        for chunk in take(key).split(","):
            if chunk.count(":") != 1:
                raise DomainError("%s=: bad term %r, expected e:k" % (key, chunk))
            out.append(tuple(number(key, v) for v in chunk.split(":")))
        return tuple(sorted(out, key=lambda ek: ek[1]))

    if kind == "convex":
        spec = ConvexCombo(alpha=number("alpha", take("alpha")))
    elif kind == "posynomial":
        spec = Posynomial(terms=pairs("terms"))
    elif kind == "orderstat":
        spec = MaxOrderStat()
    elif kind == "exp":
        lambdas = tuple(number("lambdas", v) for v in take("lambdas").split(","))
        trunc = number("truncation", take("truncation"), int) if "truncation" in fields else None
        spec = Exponential(lambdas=lambdas, truncation_m=trunc)
    elif kind == "social":
        spec = SocialWelfare(platform_terms=pairs("terms") if "terms" in fields else ())
    else:
        raise DomainError("unknown objective kind %r" % kind)
    if fields:
        raise DomainError("objective=%s does not read %s"
                          % (kind, ", ".join(key + "=" for key in fields)))
    return spec


def format_objective_config(spec: ObjectiveSpec) -> str:
    if isinstance(spec, ConvexCombo):
        return "objective=convex alpha=%.9g" % spec.alpha
    if isinstance(spec, Posynomial):
        return "objective=posynomial terms=" + ",".join(
            "%.9g:%.9g" % ek for ek in spec.terms
        )
    if isinstance(spec, MaxOrderStat):
        return "objective=orderstat"
    if isinstance(spec, Exponential):
        base = "objective=exp lambdas=" + ",".join("%.9g" % l for l in spec.lambdas)
        if spec.truncation_m is not None:
            base += " truncation=%d" % spec.truncation_m
        return base
    if isinstance(spec, SocialWelfare):
        base = "objective=social"
        if spec.platform_terms:
            base += " terms=" + ",".join("%.9g:%.9g" % ek for ek in spec.platform_terms)
        return base
    raise DomainError("unknown objective spec %r" % (spec,))
