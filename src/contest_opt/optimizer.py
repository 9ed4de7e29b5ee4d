"""Policy optimizers: certified 1-D branch-and-bound, line search, grid oracle.

For the welfare/quality mix the optimum is known to sit in the two-level
family (top share p1, equal middle, zero bottom), so optimization reduces
to p1 in [1/(n-1), 1].  On that family h is affine in p1 per x:
``h(x, p1) = c0(x) + c1(x) p1``, which yields computable interval bounds

    L(I) = max(G(l), G(u))
    U(I) = each term at the end of I where its integrand is largest: at u
           where coef * c1 >= 0, at l elsewhere

and the gap contraction  U - L <= how far the objective's terms move over
a step of |I| (`_TwoLevelFamily.step_moves`).  This rise/fall bound is
what `interval_bounds` returns.  Branch-and-bound also splits the terms
by shape: a term coef * x^a * h^r is convex in p1 when coef * (r - 1) >= 0
and concave otherwise.  Over an interval the convex terms lie below their
chord, and the concave ones below the secants through the neighbouring
points on either side, so the lower of the two bounds holds; the root,
which has no neighbours, keeps the rise/fall bound unless no term is
concave.  The active set algorithm bisects the interval with the largest
upper bound until the incumbent is within the (quadrature-adjusted)
tolerance.  The line search finds the best point of its p1 grid with the
same two bounds, dropping grid cells instead of scanning them
(`_grid_argmax`), and refines it where the objective's exact slope in p1
(`_TwoLevelFamily.slope`) crosses zero next to it (`_slope_root`).  Every
call reads values, bounds and step moves from one `_TwoLevelFamily`
(nodes, weights, c0, c1 and the cut where c1 turns nonnegative), built
once per (n, rule) and shared read-only (`_family`).
Both searches and `interval_bounds` read values and bounds through one
kernel, `_BatchSums`, which integrates each term shape on either side of
the cut once per point, so the searches agree bit for bit at any p1.

The grid oracle takes the argmax over the whole ordered lattice without
assuming any structure theorem, so it can confirm, rather than presuppose,
where optima live; bottom shares above zero are handled through the shifted
polynomial g = B(p - p_n), the policy polynomial of the shares less the
bottom one, which is exactly zero on a flat policy.  Rigorous brackets from
every 100th, then every 20th, then every 5th quadrature node rule out most
candidates: after each of these stages the candidate with the largest upper
end is summed at every node, and its value, the incumbent, rules out every
candidate whose upper end lies below it, as the best lower end does.  A last
bracket at every node, only its rounding allowance wide, leaves the
finalists, and only those are summed again term by term.  Each bracket sums
its rising and its falling terms in root form: the terms whose exponents of
g are integer multiples j <= 64 of the smallest, e0, make a polynomial in
q = g^e0, summed by Horner's rule, each other term takes its own power, and
both classes share the powers (`objective.lattice_bracket`).  An
exponential reward so costs one power per node and candidate, not one per
Taylor term.
"""

from __future__ import annotations

import heapq
import json
import math
from functools import cached_property, lru_cache
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

import numpy as np

from .bernstein import basis_columns, basis_matrix
from .errors import BudgetExceededError, DomainError, StructuralConditionError
from .objective import (
    BRACKET_ROUNDING,
    ConvexCombo,
    ObjectiveSpec,
    beta_value,
    evaluate,
    evaluate_error_bound,
    evaluate_hm_closed_form,
    format_objective_config,
    lattice_bracket,
    lattice_value,
    structural_condition_holds,
    _Term,
    _slope_terms,
    _term_values,
    _terms,
)
from .policy import Policy, hm, make_policy, two_level
from .quadrature import QuadratureConfig

BNB_QUAD = QuadratureConfig(m=100_000, rule="right_riemann", exclude_left_endpoint=True)
GRID_QUAD = QuadratureConfig(m=1000, rule="trapezoid", exclude_left_endpoint=False)
LINE_QUAD = QuadratureConfig(m=20_000, rule="right_riemann", exclude_left_endpoint=True)

_LATTICE_GUARD = 10**8
# most points of a line search's p1 grid, 8 bytes each: `optimize --method
# line` peaked at 160 MB with 10^7 and at 864 MB with 10^8
MAX_LINE_STEPS = 10_000_000
# most values of grid_search's (nodes, n) basis.  With 2 candidates,
# 12 million (n = 60, 200,001 nodes) peaked at 286 MB and 6 million at
# 181 MB (n = 60) to 243 MB (n = 6); n = 5 at every node count the rules
# allow is admitted.
MAX_GRID_BASIS = 6_000_000
# grid_search holds about this many (node, candidate) values, 512 kB, per
# temporary.  On the lattice_oracle operations below 1 << 18 took 3% and
# 1 << 20 took 36% more CPU, and larger temporaries stay resident in the
# heap after use.
_GRID_BLOCK_ELEMENTS = 1 << 16
# Node strides of the screening stages of grid_search.  On the fifteen
# lattice_oracle operations of seeds 1-3 (m = 1000, n = 5-6, 0.01 lattice,
# 46,262 or 189,509 candidates), pruning against the incumbent as well as
# the best lower end, strides 100, 20 then 5 left 1 to 426 candidates for
# the full pass, and grid_search's CPU time, geometric mean over the five
# families, fell from 29.7 ms with strides 25 then 5 and no incumbent to
# 16.0 ms (one BLAS thread, 2-core VM).  With the incumbent, on seeds 1, 2
# and 4, 25 then 5 took 29 ms, 50 then 10 24 ms and 100, 20, 5 21 ms.  A
# stride-100 stage rules out little on the posynomial (42,279 of 46,262 left
# on seed 1) but costs about a fifth of a stride-20 one.  Choosing the next
# stride from the fraction a stage keeps did not beat this tuple in a count
# of node evaluations over 25 operations.
_SCREEN_STRIDES = (100, 20, 5)
# most intervals branch-and-bound opens before it gives up uncertified
MAX_BNB_NODES = 200_000


@dataclass(frozen=True)
class Interval:
    """One node of branch-and-bound.  The slopes are those of the concave
    terms' secants through the neighbouring points on the left (ending at
    lo) and on the right (starting at hi); nan where there is none yet."""

    lo: float
    hi: float
    upper: float
    depth: int
    left_slope: float
    right_slope: float


@dataclass(frozen=True)
class BnbConfig:
    epsilon: float
    quad: QuadratureConfig = BNB_QUAD

    def __post_init__(self) -> None:
        if not self.epsilon > 0:
            raise DomainError("epsilon must be positive")


@dataclass
class OptResult:
    policy: Policy
    value: float
    certified_gap: Optional[float]
    nodes_explored: int
    method: str
    certified: bool = False
    max_depth: int = 0
    config: dict = field(default_factory=dict)

    def to_json(self) -> str:
        """The result as one strict JSON object: a value or gap that is not
        finite, which JSON cannot hold, is written as null."""
        def finite(v: Optional[float]) -> Optional[float]:
            return v if v is not None and math.isfinite(v) else None

        payload = {
            "policy": list(self.policy.values),
            "value": finite(self.value),
            "gap": finite(self.certified_gap),
            "certified": self.certified,
            "nodes": self.nodes_explored,
            "method": self.method,
            "config": self.config,
        }
        return json.dumps(payload, sort_keys=True)


def c_decomposition(n: int, x):
    """Split h on the two-level family into c0(x) + c1(x) * p1: the pair
    (c0, c1), floats for a scalar x and arrays otherwise.  The family needs
    n >= 3, as `two_level` does."""
    if n < 3:
        raise DomainError("the two-level family needs n >= 3")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    a1, an = basis_columns(n, x_arr, [1, n]).T
    c0 = (1.0 - a1 - an) / (n - 2)
    c1 = a1 - c0
    if np.ndim(x) == 0:
        return float(c0[0]), float(c1[0])
    return c0, c1


class _EndpointSums(NamedTuple):
    """One objective's value at one top share, then the rise and fall sums
    of its convex terms and of its concave terms there: the first five rows
    of `_BatchSums.at`, as floats or as arrays over several points."""

    value: float
    vex_rise: float
    vex_fall: float
    cav_rise: float
    cav_fall: float

    @property
    def vex(self) -> float:
        return self.vex_rise + self.vex_fall

    @property
    def cav(self) -> float:
        return self.cav_rise + self.cav_fall


def _is_convex(t: _Term) -> bool:
    """On the chain h is affine in p1 at each node, so coef * x^a * h^r is
    convex in p1 when coef * (r - 1) >= 0 and concave otherwise."""
    return t.coef * (t.power - 1.0) >= 0.0


def _rise_column(t: _Term) -> int:
    """The half of the nodes, in (rise, fall) order, that the term grows on
    as p1 grows: 0, from `_TwoLevelFamily.cut` on, where c1 >= 0, for a
    nonnegative coefficient; 1, before it, where c1 <= 0, for a negative
    one, which falls as h rises.  Over [lo, hi] a term's integrand is
    largest at hi on those nodes and at lo on the rest, which is the
    rise/fall bound (`_rise_fall_upper`)."""
    return 0 if t.coef >= 0.0 else 1


class _TwoLevelFamily:
    """The two-level chain h = c0(x) + c1(x)*p1 on the nodes of one rule.

    Up to a positive factor c1 is (n-1) x^(n-1) + (1-x)^(n-1) - 1, convex,
    0 at x = 0 and positive at x = 1, so it changes sign once: it is <= 0
    before the node index `cut` and >= 0 from there on, which the build
    checks.  Every term x^a * h^r is nondecreasing in h, so at each node it
    grows with p1 where its coefficient times c1 is >= 0 and falls
    elsewhere (`_rise_column`).  `shape_sums` integrates each term shape at
    one top share over the nodes on either side of the cut; `_BatchSums`
    combines them into each objective's value, G(p1) = rise + fall summed
    over its terms, and its rise and fall sums per convexity class, from
    which U(lo, hi) = rise(hi) + fall(lo).
    """

    def __init__(self, n: int, quad: QuadratureConfig):
        self.n, self.quad = n, quad
        self.x, self.w = quad.nodes_weights()
        self.c0, self.c1 = c_decomposition(n, self.x)
        falling = np.flatnonzero(self.c1 < 0.0)
        self.cut = int(falling[-1]) + 1 if len(falling) else 0
        if np.any(self.c1[:self.cut] > 0.0):
            raise DomainError("c1 changes sign more than once on the nodes of n=%d, m=%d, "
                              "rule %s; the rise/fall bound needs one cut"
                              % (n, quad.m, quad.rule))
        for arr in (self.c0, self.c1):
            arr.setflags(write=False)

    def value(self, spec: ObjectiveSpec, b: float, p1: float) -> float:
        """The objective at top share p1, summed term by term at each node:
        `lattice_value` on the chain's h."""
        h = self.c1 * p1
        h += self.c0
        return float(lattice_value(spec, b, h, 0.0, self.x, self.w, self.n))

    @cached_property
    def _slope_nodes(self) -> tuple[np.ndarray, ...]:
        """x, c0 and c1 at the nodes where c1 != 0, and c1 * w there: the
        slope's weights.  A node where c1 = 0 adds nothing to the slope,
        though there, as at x = 0 on a trapezoid rule, a term's slope can
        be inf."""
        weights = self.c1 * self.w
        moving = self.c1 != 0.0
        if moving.all():
            return self.x, self.c0, self.c1, weights
        return self.x[moving], self.c0[moving], self.c1[moving], weights[moving]

    def slope(self, spec: ObjectiveSpec, b: float):
        """The exact p1-derivative of `value`'s quadrature sum, as a function
        of p1: the sum over the nodes of w * c1 times each term's slope in
        h, coef * r * x^a * h^(r-1) (`objective._slope_terms`).  The terms
        and weights are built once, here, for every p1 the function is
        called at.  Where h rounds to 0 a slope of power r - 1 < 0 is inf,
        and so may be the sum, whose sign still holds; terms of both signs
        there give nan."""
        terms = _slope_terms(_terms(spec, b, self.n))
        x, c0, c1, weights = self._slope_nodes

        def at(p1: float) -> float:
            h = c1 * p1
            h += c0
            return float(_term_values(terms, x, h, h) @ weights)

        return at

    def shape_sums(self, shapes, p1: float) -> np.ndarray:
        """Integrals of each unit-coefficient term in `shapes` at p1 over the
        nodes from `cut` on and over those before it, in that (rise, fall)
        order, one row each.

        One h and one power memo serve every shape, and each row is two dot
        products of its integrand with the weights, so a row depends on its
        shape and p1 alone, not on the shapes beside it.
        """
        h = self.c1 * p1
        h += self.c0
        powers: dict = {}
        rise, fall = slice(self.cut, None), slice(None, self.cut)
        values = (_term_values([unit], self.x, h, h, powers, read_only=True) for unit in shapes)
        return np.array([(v[rise] @ self.w[rise], v[fall] @ self.w[fall]) for v in values])

    def step_moves(self, spec: ObjectiveSpec, b: float) -> tuple[float, list[tuple[float, float]]]:
        """How far the objective moves when p1 moves by s: at most
        lipschitz * s + sum(k * s**r for k, r in holder).

        A term coef * x^a * h^r with r = g_exp + times_h moves h by c1*s at
        each x, and h stays in [0, 1], so it moves by at most
        |coef| I[x^a |c1|^r] s^r for 0 < r <= 1 and |coef| r I[x^a |c1|] s
        for r > 1; a term with r = 0 is constant.
        """
        lipschitz, holder = 0.0, []
        abs_c1 = np.abs(self.c1)
        for t in _terms(spec, b, self.n):
            r = t.power
            w = self.w * self.x ** t.x_pow if t.x_pow else self.w
            if r > 1.0:
                lipschitz += abs(t.coef) * r * float(abs_c1 @ w)
            elif r > 0.0:
                holder.append((abs(t.coef) * float((abs_c1 ** r) @ w), r))
        return lipschitz, holder

    def error_bound(self, spec: ObjectiveSpec, b: float) -> float:
        """Per-evaluation quadrature allowance; p1 = 1 maximizes every term's range."""
        return evaluate_error_bound(spec, b, hm(self.n), self.quad)


@lru_cache(maxsize=8)
def _family(n: int, quad: QuadratureConfig) -> _TwoLevelFamily:
    """The `_TwoLevelFamily` of (n, quad), built once and shared read-only
    by every caller.  At `BNB_QUAD` a build takes longer than a whole
    branch-and-bound call on n = 4, and the family's c0 and c1 take
    1.6 MB; the nodes and weights are the rule's own cached arrays.

    Eight families hold four n at both default rules that reach here
    (`BNB_QUAD`, `LINE_QUAD`).  Cycling branch-and-bound and a line search
    over n = 4, 5, 6 needs six: with room for four, 50 of 120 such lookups
    rebuilt a family."""
    return _TwoLevelFamily(n, quad)


class _BatchSums:
    """Each objective's sums at points of the two-level chain, for objectives
    that share beta and n: what branch-and-bound, `interval_bounds` and the
    line search's `_grid_argmax` read of the chain.

    Each point is evaluated on its own (`_TwoLevelFamily.shape_sums`), and
    each objective combines the integrals of its own terms in its term
    order, elementwise, so a sum depends on its objective and point alone,
    not on the batch.  A term's whole integral is the sum of its two
    halves, on either side of `_TwoLevelFamily.cut`.  Objectives whose
    terms match in shape, convexity class and rising half
    (`_rise_column`), in order, share one coefficient matrix.
    """

    def __init__(self, fam: _TwoLevelFamily, specs, b: float):
        self.fam, self.count = fam, len(specs)
        terms = [_terms(spec, b, fam.n) for spec in specs]
        # sorted, so that shapes with one power of h sit together
        self.shapes = sorted({replace(t, coef=1.0) for ts in terms for t in ts},
                             key=lambda u: (u.g_exp, u.x_pow, u.times_h))
        row = {unit: i for i, unit in enumerate(self.shapes)}
        groups: dict[tuple, list[int]] = {}
        for k, ts in enumerate(terms):
            key = tuple((row[replace(t, coef=1.0)], _is_convex(t), _rise_column(t)) for t in ts)
            groups.setdefault(key, []).append(k)
        # per term: its shape's row, its class's block of `at` (0 convex,
        # 1 concave), its halves in (rise, fall) order, and its coefficients
        # alone and with their magnitudes
        self.groups = []
        for key, ks in groups.items():
            coefs = np.array([[t.coef for t in terms[k]] for k in ks]).T
            self.groups.append((ks, [(s, 1 - convex, slice(up, None, 1 - 2 * up), c,
                                      np.stack((c, np.abs(c)))[:, None])
                                     for c, (s, convex, up) in zip(coefs, key)]))
        self.no_cav = np.array([all(map(_is_convex, ts)) for ts in terms], dtype=bool)

    def at(self, p1s) -> np.ndarray:
        """(value, vex_rise, vex_fall, cav_rise, cav_fall, size) at each top
        share of `p1s` (rows) for each objective (columns): the first five
        are the fields of `_EndpointSums`, and size integrates the terms
        with their coefficients' magnitudes."""
        halves = np.array([self.fam.shape_sums(self.shapes, p1) for p1 in p1s]).reshape(
            len(p1s), len(self.shapes), 2).transpose(1, 2, 0)  # shape, half, point
        whole = halves[:, 0] + halves[:, 1]
        out = np.empty((6, len(p1s), self.count))
        for ks, adds in self.groups:
            part = np.zeros((6, len(p1s), len(ks)))
            value_size, classes = part[::5], part[1:5].reshape(2, 2, *part.shape[1:])
            for s, block, rise_fall, coef, with_size in adds:
                value_size += whole[s, :, None] * with_size
                classes[block] += halves[s, rise_fall, :, None] * coef
            out[:, :, ks] = part
        return out


def _rise_fall_upper(at_lo: _EndpointSums, at_hi: _EndpointSums):
    """The rise/fall bound over [lo, hi]: every term's rising half at hi and
    its falling half at lo (`_rise_column`)."""
    return at_hi.vex_rise + at_hi.cav_rise + at_lo.vex_fall + at_lo.cav_fall


def _chord_secant_upper(lo, hi, at_lo: _EndpointSums, at_hi: _EndpointSums, left, right):
    """Upper bound over [lo, hi] from the chord of the convex terms plus the
    lower of the concave terms' secants; inf with no secant.

    The left secant passes through (lo, cav(lo)) and the right one through
    (hi, cav(hi)), and a concave function lies below each secant outside
    the two points that define it.  The sum is concave and piecewise
    linear, so its max sits at lo, hi or where the secants cross.  The
    bound is widened by `BRACKET_ROUNDING` times the ends' absolute class
    sums: each secant is extrapolated over at most the width of its base.

    Branch-and-bound passes floats and the line search arrays, bounded
    elementwise; both pass nan for a missing slope, which `np.fmin` and
    `np.fmax` skip.
    """
    width = hi - lo

    def bound_at(t):
        cav = np.fmin(np.fmin(at_lo.cav + left * t, at_hi.cav - right * (width - t)), math.inf)
        return at_lo.vex + (at_hi.vex - at_lo.vex) * (t / width) + cav

    # the secants cross at nan where one is missing, which `np.fmax` takes
    # to the end 0, and at +-inf, an end, where they are parallel
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = np.fmin(np.fmax(np.divide(at_hi.cav - at_lo.cav - right * width, left - right),
                                0.0), width)
    rounding = BRACKET_ROUNDING * (abs(at_lo.vex) + abs(at_lo.cav)
                                   + abs(at_hi.vex) + abs(at_hi.cav))
    return np.fmax(np.fmax(bound_at(0.0), bound_at(width)), bound_at(cross)) + rounding


def interval_bounds(n: int, alpha: float, beta, lo: float, hi: float,
                    quad: QuadratureConfig | None = None) -> tuple[float, float]:
    """(L, U) objective bounds over the p1-interval [lo, hi]: L is the better
    end's value and U the rise/fall bound (`_rise_fall_upper`), at least L."""
    b = beta_value(beta)
    fam = _family(n, quad or BNB_QUAD)
    domain_lo = 1.0 / (n - 1)
    if not domain_lo - 1e-12 <= lo <= hi <= 1.0 + 1e-12:
        raise DomainError("interval [%.9g, %.9g] outside [%.9g, 1]" % (lo, hi, domain_lo))
    ends = _BatchSums(fam, [ConvexCombo(alpha)], b).at([lo, hi])[:5, :, 0].T.tolist()
    at_lo, at_hi = (_EndpointSums(*end) for end in ends)
    lower = max(at_lo.value, at_hi.value)
    return lower, max(_rise_fall_upper(at_lo, at_hi), lower)


def gap_constants(n: int, alpha: float, beta,
                  quad: QuadratureConfig | None = None) -> tuple[float, float]:
    """Constants (C1, C2) bounding U - L by C1*|I| + C2*|I|^(1/beta): the
    family's step moves of the welfare/quality mix, with the terms of
    exponent r > 1 in C1 and the one with r = 1/beta <= 1 in C2."""
    b = beta_value(beta)
    lipschitz, holder = _family(n, quad or BNB_QUAD).step_moves(ConvexCombo(alpha), b)
    return lipschitz, sum((k for k, _ in holder), 0.0)


def branch_and_bound(n: int, alpha: float, beta, cfg: BnbConfig,
                     trace: list | None = None) -> OptResult:
    """Active-set branch-and-bound over the top share of two-level policies.

    Returns a policy whose value is within epsilon of the best two-level
    value, with the quadrature budget folded into the certificate: the
    internal stopping threshold is epsilon minus twice the per-evaluation
    error bound, and the reported gap adds that allowance back.
    """
    b = beta_value(beta)
    config = {
        "n": n, "alpha": alpha, "beta": b, "epsilon": cfg.epsilon,
        "quad_m": cfg.quad.m, "quad_rule": cfg.quad.rule,
    }
    if n == 2:
        # the ordered two-share simplex with zero bottom is the single point
        # (1, 0), whose exact value needs no quadrature
        return OptResult(hm(2), evaluate_hm_closed_form(alpha, b, 2), 0.0, 0,
                         "bnb:n2-shortcut-hm", True, 0, config)

    fam, spec = _family(n, cfg.quad), ConvexCombo(alpha)
    delta = fam.error_bound(spec, b)
    eps_eff = cfg.epsilon - 2.0 * delta
    if eps_eff <= 0:
        raise DomainError(
            "quadrature error budget exhausted: epsilon=%.3g but 2*delta=%.3g; "
            "raise epsilon or the node count" % (cfg.epsilon, 2 * delta)
        )

    batch = _BatchSums(fam, [spec], b)
    sums: dict[float, _EndpointSums] = {}  # five floats per visited endpoint

    def endpoint(p1: float) -> _EndpointSums:
        hit = sums.get(p1)
        if hit is None:
            hit = sums[p1] = _EndpointSums(*batch.at([p1])[:5, 0, 0].tolist())
        return hit

    def value(p1: float) -> float:
        return endpoint(p1).value

    def slope(lo: float, hi: float) -> float:
        """Slope of the concave terms' secant through lo and hi."""
        return (endpoint(hi).cav - endpoint(lo).cav) / (hi - lo)

    def make_interval(lo: float, hi: float, depth: int, left_slope: float,
                      right_slope: float) -> Interval:
        at_lo, at_hi = endpoint(lo), endpoint(hi)
        upper = min(_rise_fall_upper(at_lo, at_hi),
                    float(_chord_secant_upper(lo, hi, at_lo, at_hi, left_slope, right_slope)))
        return Interval(lo, hi, upper, depth, left_slope, right_slope)

    lo0, hi0 = 1.0 / (n - 1), 1.0
    best_p1, best_val = lo0, value(lo0)
    v_hi = value(hi0)
    if trace is not None:
        trace.extend((lo0, hi0))
    if v_hi > best_val:
        best_p1, best_val = hi0, v_hi

    # with no concave term every secant of the concave part is the zero line
    root_slope = 0.0 if batch.no_cav[0] else math.nan
    root = make_interval(lo0, hi0, 0, root_slope, root_slope)
    # ties on the upper bound break toward the leftmost interval
    heap: list[tuple[float, float, Interval]] = [(-root.upper, root.lo, root)]
    nodes = 1
    max_depth = 0
    certified = True
    top_upper = best_val  # heap-exhausted fallback: nothing left active
    while heap:
        _, _, active = heapq.heappop(heap)
        top_upper = active.upper
        if top_upper <= best_val + eps_eff:
            break  # the largest upper bound is within tolerance: done
        if nodes >= MAX_BNB_NODES:
            certified = False
            break
        mid = 0.5 * (active.lo + active.hi)
        if not active.lo < mid < active.hi:
            # float exhaustion: a width-eps interval has U - L far below
            # eps_eff, so dropping it cannot hide a better optimum
            top_upper = best_val
            continue
        v_mid = value(mid)
        if trace is not None:
            trace.append(mid)
        if v_mid > best_val:
            best_p1, best_val = mid, v_mid
        # each child takes the secant through its sibling's ends, and its
        # parent's secant on its other side
        depth = active.depth + 1
        for child in (make_interval(active.lo, mid, depth, active.left_slope, slope(mid, active.hi)),
                      make_interval(mid, active.hi, depth, slope(active.lo, mid), active.right_slope)):
            heapq.heappush(heap, (-child.upper, child.lo, child))
            nodes += 1
            max_depth = max(max_depth, child.depth)

    gap = max(top_upper - best_val, 0.0) + 2.0 * delta
    return OptResult(
        policy=two_level(n, best_p1),
        value=best_val,
        certified_gap=gap,
        nodes_explored=nodes,
        method="bnb",
        certified=certified,
        max_depth=max_depth,
        config=config,
    )


def check_line_steps(steps: int) -> None:
    """Refuse a line-search grid of fewer than 2 or more than `MAX_LINE_STEPS` points."""
    if steps < 2:
        raise DomainError("need at least 2 line-search steps")
    if steps > MAX_LINE_STEPS:
        raise BudgetExceededError("line search of %d steps exceeds the cap of %d"
                                  % (steps, MAX_LINE_STEPS))


def two_level_line_search(spec: ObjectiveSpec, beta, n: int, steps: int = 1000,
                          quad: QuadratureConfig | None = None) -> OptResult:
    """Best point of a uniform p1 grid over the two-level family, refined
    where the objective's slope along the chain crosses zero next to it
    (`_slope_root`).

    Valid only for objectives whose optimum is known to be two-level; other
    posynomials are refused rather than silently searched.  Every accepted
    objective gets a gap certificate: the family's step moves over one
    grid step, plus twice the per-evaluation quadrature allowance, which is
    the whole gap at n = 2, where hm(2) is the only point; a gap or value
    that overflows is reported uncertified.  This is
    `two_level_line_search_batch` on a batch of one.
    """
    return two_level_line_search_batch([spec], beta, n, steps, quad)[0]


def two_level_line_search_batch(specs, beta, n: int, steps: int = 1000,
                                quad: QuadratureConfig | None = None) -> list[OptResult]:
    """`two_level_line_search` for each objective of `specs` at once.

    The objectives share beta, n and the rule, so they share one two-level
    family, one p1 grid and the grid points `_grid_argmax` evaluates: the
    alpha column of a sweep integrates two term shapes per point, whatever
    its number of alphas.  Each objective then gets, in turn, its own
    root search of its slope next to its best grid point
    (`_TwoLevelFamily.slope`, `_slope_root`), one term-by-term value at the
    root (`_TwoLevelFamily.value`), kept where it beats the grid's, and its
    own gap, so every result is bit for bit the single search's.  An
    objective outside the covered class fails the whole batch before any
    grid point is evaluated.
    """
    b = beta_value(beta)
    for spec in specs:
        if not structural_condition_holds(spec, b):
            raise StructuralConditionError(
                "no two-level guarantee for %s: the coefficient sequence "
                "e_j*(k_j - beta) changes sign more than once, so a 1-D search "
                "over top shares may miss the optimum; use grid_search instead"
                % format_objective_config(spec)
            )
    quad = quad or LINE_QUAD
    check_line_steps(steps)
    configs = [{"n": n, "steps": steps, "objective": format_objective_config(spec),
                "beta": b, "quad_m": quad.m, "quad_rule": quad.rule} for spec in specs]
    if n == 2:
        # hm(2) is the only feasible point, so the step moves are 0 and the
        # gap is the quadrature allowance alone
        values = [evaluate(spec, b, hm(2), quad) for spec in specs]
        gaps = [2.0 * evaluate_error_bound(spec, b, hm(2), quad) for spec in specs]
        return [OptResult(hm(2), v, gap, 1, "line:n2-hm", math.isfinite(gap) and math.isfinite(v),
                          0, config) for v, gap, config in zip(values, gaps, configs)]

    fam = _family(n, quad)
    p1_grid = np.linspace(1.0 / (n - 1), 1.0, steps)
    step = (1.0 - 1.0 / (n - 1)) / (steps - 1)
    picks, pick_values = _grid_argmax(fam, specs, b, p1_grid)
    results = []
    for spec, config, best, best_val in zip(specs, configs, picks.tolist(), pick_values.tolist()):
        best_p1 = float(p1_grid[best])
        # an infinite slope is a sign, and a nan one leaves the grid pick
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            root = _slope_root(fam.slope(spec, b), p1_grid, best)
        if root is not None:
            root_val = fam.value(spec, b, root)
            if root_val > best_val:
                best_p1, best_val = root, root_val

        lipschitz, holder = fam.step_moves(spec, b)
        gap = (lipschitz * step + sum(k * step ** r for k, r in holder)
               + 2.0 * fam.error_bound(spec, b))
        # a bound that overflowed certifies nothing
        certified = math.isfinite(gap) and math.isfinite(best_val)
        results.append(OptResult(two_level(n, best_p1), best_val, gap, steps,
                                 "line_search", certified, 0, config))
    return results


# `_slope_root` stops once its bracket is this narrow in p1
_ROOT_XTOL = 1e-13
# most slopes `_slope_root` evaluates inside a bracket; halving alone narrows
# a cell of width 1 to `_ROOT_XTOL` in 44
_ROOT_MAX_EVALS = 100


def _slope_root(slope, p1_grid: np.ndarray, best: int) -> Optional[float]:
    """Where `slope` crosses from + to - between the grid's best point and
    a neighbour, or None.

    From `p1_grid[best]` it steps to the neighbour its slope points to.
    Where the neighbour's slope has the other sign, Illinois regula falsi
    (Dowell & Jarratt, BIT 11, 1971) narrows the bracket: the next point
    is where the chord through the ends' slopes crosses zero, and an end
    kept twice running has its slope halved.  A chord point closer than
    `_ROOT_XTOL` / 2 to an end, as where it rounds onto the end, moves to
    that distance inside, as Brent's zeroin steps at least a tolerance
    (Algorithms for Minimization without Derivatives, 1973): a root that
    close to the end then closes the bracket in one slope, not in one
    halving per bit of the bracket's width.  Where an end's slope is
    infinite, or the chord falls outside the bracket, the midpoint stands
    in.  The last point is returned once the bracket is within
    `_ROOT_XTOL`, or at once where the slope is exactly 0.  None where the
    pick's slope is 0 or nan or points out of the grid, where the
    neighbour's slope keeps the sign, or where a slope inside is nan.
    """
    x = float(p1_grid[best])
    f = slope(x)
    if f > 0.0 and best + 1 < len(p1_grid):
        lo, f_lo, hi = x, f, float(p1_grid[best + 1])
        f_hi = slope(hi)
    elif f < 0.0 and best > 0:
        lo, hi, f_hi = float(p1_grid[best - 1]), x, f
        f_lo = slope(lo)
    else:
        return None
    if not f_lo > 0.0 > f_hi:
        return None
    moved = None  # the end the last point replaced
    for _ in range(_ROOT_MAX_EVALS):
        if hi - lo <= _ROOT_XTOL:
            break
        x = lo + f_lo * (hi - lo) / (f_lo - f_hi)
        if math.isfinite(f_lo - f_hi) and lo <= x <= hi:
            x = min(max(x, lo + 0.5 * _ROOT_XTOL), hi - 0.5 * _ROOT_XTOL)
        else:
            x = 0.5 * (lo + hi)
        f = slope(x)
        if f > 0.0:
            if moved == "lo":
                f_hi *= 0.5
            lo, f_lo, moved = x, f, "lo"
        elif f < 0.0:
            if moved == "hi":
                f_lo *= 0.5
            hi, f_hi, moved = x, f, "hi"
        elif f == 0.0:
            break
        else:
            return None
    return x


# grid points `_grid_argmax` evaluates before it bisects: 2^4 + 1, the points
# of four levels of bisection, in one batch
_GRID_FIRST_BATCH = 17


def _grid_argmax(fam: _TwoLevelFamily, specs, b: float, p1_grid: np.ndarray):
    """Each objective's first best point of `p1_grid` (its index) and value,
    as a full scan would find them, from few evaluated points.

    Cells of grid indices are bisected level by level for all the
    objectives at once, starting from the cells between
    `_GRID_FIRST_BATCH` evenly spread points, which skips the first four
    levels of bisecting the whole grid.  Each cell's bound,
    per objective, is the lower of the rise/fall bound (`_rise_fall_upper`)
    and the convex terms' chord plus the lower of the concave terms'
    secants through the nearest evaluated points outside it
    (`_chord_secant_upper`), widened by `BRACKET_ROUNDING` times the
    terms' absolute size at its ends.  A cell leaves an objective's search
    once its bound is below that objective's best evaluated value, and
    cells still searched by any objective are split at their middle index
    until none has an interior point.  A point never evaluated for an
    objective then lies below one that was, so the first best evaluated
    point is the full scan's.  Values come from `_BatchSums`, so they do
    not depend on the batch either.
    """
    batch = _BatchSums(fam, specs, b)
    steps = len(p1_grid)
    # evaluated grid indices, ascending: at most `_GRID_FIRST_BATCH` spread
    # evenly, a spacing of at least 1 that rounds to distinct indices
    idx = np.round(np.linspace(0, steps - 1, min(steps, _GRID_FIRST_BATCH))).astype(int)
    data = batch.at(p1_grid[idx])
    lo, hi = idx[:-1], idx[1:]
    live = np.ones((len(lo), len(specs)), dtype=bool)  # cell, objective
    while True:
        inner = hi - lo > 1
        lo, hi, live = lo[inner], hi[inner], live[inner]
        if not len(lo):
            break
        at = np.searchsorted(idx, lo), np.searchsorted(idx, hi)
        ends = [_EndpointSums(*data[:5, pos]) for pos in at]
        cav, p1s = data[3] + data[4], p1_grid[idx]

        def secant(a, z):
            # a == z where no point lies beyond the cell on that side: 0/0 is
            # the nan that means no secant
            with np.errstate(invalid="ignore"):
                return (cav[z] - cav[a]) / (p1s[z] - p1s[a])[:, None]

        left = secant(np.maximum(at[0] - 1, 0), at[0])
        right = secant(at[1], np.minimum(at[1] + 1, len(idx) - 1))
        # with no concave term every secant of the concave part is the zero line
        left[:, batch.no_cav] = right[:, batch.no_cav] = 0.0
        upper = np.fmin(_rise_fall_upper(*ends), _chord_secant_upper(
            p1_grid[lo, None], p1_grid[hi, None], *ends, left, right))
        upper += BRACKET_ROUNDING * (data[5, at[0]] + data[5, at[1]])
        live &= upper >= data[0].max(axis=0)
        split = live.any(axis=1)
        lo, hi, live = lo[split], hi[split], live[split]
        if not len(lo):
            break
        mid = (lo + hi) // 2
        order = np.argsort(np.concatenate((idx, mid)))
        idx = np.concatenate((idx, mid))[order]
        data = np.concatenate((data, batch.at(p1_grid[mid])), axis=1)[:, order]
        lo, hi, live = np.concatenate((lo, mid)), np.concatenate((mid, hi)), np.vstack((live, live))
    best = np.argmax(data[0], axis=0)
    return idx[best], data[0, best, np.arange(len(specs))]


def count_lattice_policies(n: int, resolution: int) -> int:
    """Number of ordered share vectors on the 1/resolution lattice.

    Counts partitions of `resolution` into at most n parts: resolution // 2
    + 1 of them at n = 2, else by the standard two-way recurrence, in
    O(n * resolution) time and memory.  No partition has more parts than
    `resolution`, so n counts only up to it.
    """
    if n == 2:
        return resolution // 2 + 1
    n = min(n, resolution)
    table = np.zeros((resolution + 1, n + 1), dtype=object)
    table[0, :] = 1
    for total in range(1, resolution + 1):
        for parts in range(1, n + 1):
            spill = table[total - parts, parts] if total >= parts else 0
            table[total, parts] = table[total, parts - 1] + spill
    return int(table[resolution, n])


def _lattice_exceeds(n: int, resolution: int, guard: int) -> bool:
    """Whether the lattice surely holds more than `guard` candidates, told
    without counting them.  For k <= n, the C(r + k - 1, k - 1) ways to
    split r = `resolution` into k ordered parts sort into partitions of r
    into at most k parts, at most k! ways to each, so C(r + k - 1, k - 1) / k!
    bounds the count from below.  The bound rises in k up to about sqrt(r),
    then falls."""
    last = 0
    for k in range(2, min(n, resolution) + 1):
        bound = math.comb(resolution + k - 1, k - 1) // math.factorial(k)
        if bound > guard:
            return True
        if bound < last:
            break
        last = bound
    return False


@lru_cache(maxsize=4)
def _lattice_matrix(n: int, resolution: int) -> np.ndarray:
    """Every ordered share vector on the 1/resolution lattice, one per row.

    Built level by level: each prefix branches into its admissible next
    shares, from the largest (capped by the previous share and by what is
    left) down to the smallest (the mean of what is left), so rows come in
    decreasing lexicographic order.  Each level keeps only its shares and
    the index of its parent prefix, as int32 (the lattice guard keeps every
    count far below 2^31); the rows are read back through the parents.
    """
    out = np.empty((count_lattice_policies(n, resolution), n))
    parents, shares = [], []
    left = np.array([resolution], dtype=np.int32)  # what the later shares sum to
    cap = left
    for parts in range(n, 1, -1):
        hi = np.minimum(left, cap)
        counts = hi - (-(-left // parts)) + 1  # the next share is at least the mean
        parent = np.repeat(np.arange(len(left), dtype=np.int32), counts)
        step = np.arange(len(parent), dtype=np.int32) - np.repeat(
            (np.cumsum(counts) - counts).astype(np.int32), counts)
        share = hi[parent] - step
        parents.append(parent)
        shares.append(share)
        left, cap = left[parent] - share, share
    out[:, -1] = left
    rows = np.arange(len(left))
    for j in range(n - 2, -1, -1):
        out[:, j] = shares[j][rows]
        rows = parents[j][rows]
    out /= resolution
    out.setflags(write=False)
    return out


def _screen_weights(w: np.ndarray, stride: int):
    """Every `stride`-th node index, plus the last, with the low and high
    weights of `objective.lattice_bracket` over the blocks between them.
    Index arithmetic, not np.unique, which imports numpy.ma on first use."""
    nodes = np.append(np.arange(0, len(w) - 1, stride), len(w) - 1)
    mass = np.add.reduceat(w, nodes)  # block masses; the last is the last weight
    high = np.concatenate(([0.0], mass[:-1]))
    high[-1] += mass[-1]
    return nodes, mass, high


def _shifted(basis: np.ndarray, block: np.ndarray) -> np.ndarray:
    """g = B(p - p_n) at the rows of `basis`, one column per share vector of
    `block`: a sum of nonnegative products, so its rounding is relative."""
    return basis @ (block - block[:, -1:]).T


def grid_search(spec: ObjectiveSpec, beta, n: int, granularity: float,
                quad: QuadratureConfig | None = None) -> OptResult:
    """Exhaustive argmax over every ordered policy on the share lattice.

    Bottom shares are left free (not forced to zero) so the search can
    observe, not assume, where optima sit; values for p_n > 0 come from
    the shifted polynomial g = B(p - p_n), so a flat policy's quality
    terms are exactly zero.  Ties go to the earliest candidate in the fixed
    enumeration order.

    Candidates are screened before they are integrated in full: each stage
    brackets every remaining candidate's quadrature sum from every
    `_SCREEN_STRIDES`-th node (`objective.lattice_bracket`).  The candidate
    with the largest upper end is then summed at every node
    (`lattice_value`), and the best such incumbent so far, or the best
    lower end where that is higher, is the threshold: candidates whose
    upper end lies below it are dropped.  An upper end covers the full sum
    with `BRACKET_ROUNDING` to spare, so a dropped candidate is worth less
    than one that is kept, and the argmax is still the exhaustive one; a
    tie with the threshold survives.  A last stage brackets at every node
    with the rule's own weights, so its bracket is only the rounding
    allowance wide; its survivors are the finalists.  Where a sum
    overflows, a nan upper end drops nothing and is never the incumbent's
    pick, a nan lower end or incumbent is skipped in taking the threshold,
    and an inf value is read as a value, with no numpy warning.
    """
    b = beta_value(beta)
    if not 0 < granularity <= 0.5:
        raise DomainError("granularity must lie in (0, 0.5]")
    resolution = round(1.0 / granularity)
    if abs(resolution * granularity - 1.0) > 1e-9:
        raise DomainError("1/granularity must be an integer, got %r" % granularity)
    # a count takes O(n * resolution) steps, so a lattice that is surely too
    # large is refused before it is counted
    if _lattice_exceeds(n, resolution, _LATTICE_GUARD) or (
            count_lattice_policies(n, resolution) > _LATTICE_GUARD):
        raise BudgetExceededError(
            "lattice holds more than %d candidates; use two_level_line_search "
            "for a 1-D search over top shares instead" % _LATTICE_GUARD
        )
    quad = quad or GRID_QUAD
    config = {"n": n, "granularity": granularity, "objective": format_objective_config(spec),
              "beta": b, "quad_m": quad.m, "quad_rule": quad.rule}
    x, w = quad.nodes_weights()
    if len(x) * n > MAX_GRID_BASIS:
        raise BudgetExceededError("grid basis of %d nodes x %d shares exceeds the cap of %d values"
                                  % (len(x), n, MAX_GRID_BASIS))
    basis = basis_matrix(n, x)
    candidates = _lattice_matrix(n, resolution)

    def over_batches(rows: np.ndarray, nodes: np.ndarray, fn) -> list[np.ndarray]:
        sub = basis[nodes]
        batch = max(1, _GRID_BLOCK_ELEMENTS // len(nodes))
        pieces = []
        for start in range(0, len(rows), batch):
            block = rows[start:start + batch]
            pieces.append(fn(_shifted(sub, block), block[:, -1]))
        return [np.concatenate(parts) for parts in zip(*pieces)]

    # a stage on more than half the nodes would save no work; the last is exact
    stages = [stage for stage in (_screen_weights(w, stride) for stride in _SCREEN_STRIDES)
              if 2 * len(stage[0]) <= len(x)]
    stages.append((np.arange(len(x)), w, w))
    keep, rows = np.arange(len(candidates)), candidates
    incumbent = np.nan
    # a sum that overflows is data: an inf value, or a nan bracket end or
    # incumbent from inf - inf, which rules nothing out and is skipped in
    # taking the threshold
    with np.errstate(over="ignore", invalid="ignore"):
        for nodes, w_low, w_high in stages:
            lower, upper = over_batches(
                rows, nodes,
                lambda g, pn: lattice_bracket(spec, b, g, pn, x[nodes], w_low, w_high, n))
            if len(nodes) < len(x):
                # the exact value of the largest upper end (nan counts as -inf)
                top = rows[[np.argmax(np.fmax(upper, -np.inf))]]
                value = lattice_value(spec, b, _shifted(basis, top), top[:, -1], x, w, n)
                incumbent = np.fmax(incumbent, value[0])
            survive = ~(upper < np.fmax(np.fmax.reduce(lower), incumbent))
            keep, rows = keep[survive], rows[survive]

        final, = over_batches(rows, np.arange(len(x)),
                              lambda g, pn: (lattice_value(spec, b, g, pn, x, w, n),))
    # ties go to the earliest candidate: `keep` is in enumeration order
    best_idx = keep[int(np.argmax(final))]
    best = make_policy(candidates[best_idx])
    return OptResult(best, float(final.max()), None, len(candidates), "grid_search",
                     False, 0, config)
