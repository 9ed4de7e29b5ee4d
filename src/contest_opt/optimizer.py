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
(`_grid_argmax`).  Every call reads values, bounds and step moves from one
`_TwoLevelFamily` (nodes, weights, c0, c1 and the cut where c1 turns
nonnegative), built once per (n, rule) and shared read-only (`_family`).
Both searches and `interval_bounds` read values and bounds through one
kernel, `_BatchSums`, which integrates each term shape on either side of
the cut once per point, so the searches agree bit for bit at any p1.

The grid oracle takes the argmax over the whole ordered lattice without
assuming any structure theorem, so it can confirm, rather than presuppose,
where optima live; bottom shares above zero are handled through the shifted
polynomial g = B(p - p_n), the policy polynomial of the shares less the
bottom one, which is exactly zero on a flat policy.  Rigorous brackets from
every 25th, then every 5th quadrature node rule out most candidates; a last
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
from functools import lru_cache
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
# Node strides of the screening stages of grid_search.  On the ten
# lattice_oracle operations of seeds 1-2 (m = 1000, n = 5-6, 0.01 lattice,
# 46,262 or 189,509 candidates) strides 25 then 5 left 1 to 1,485 candidates
# for the full pass and cut grid_search's CPU time 7- to 25-fold; strides
# 50 then 10 left up to 8,019 and were slower.
_SCREEN_STRIDES = (25, 5)
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
    """Best point of a uniform p1 grid over the two-level family, refined in its cell
    by bounded Brent minimization (`_brent`).

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
    its number of alphas.  Each objective then gets, in turn, bounded Brent
    refinement of its best cell (`_brent`) on its own term-by-term sum
    (`_TwoLevelFamily.value`) and its own gap, so every result is bit for
    bit the single search's.  An objective outside the covered class fails
    the whole batch before any grid point is evaluated.
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
    # each best point's cell, as Python floats: Brent's scalar arithmetic
    # gives the same bits on them and runs about three times faster
    cells = [p1_grid[[max(best - 1, 0), min(best + 1, steps - 1)]].tolist() for best in picks]
    results = []
    for spec, config, best, best_val, (lo, hi) in zip(specs, configs, picks, pick_values, cells):
        x, fun = _brent(lambda p1: -fam.value(spec, b, p1), lo, hi, 1e-10)
        best_p1, best_val = float(p1_grid[best]), float(best_val)
        if -fun > best_val:
            best_p1, best_val = x, -fun

        lipschitz, holder = fam.step_moves(spec, b)
        gap = (lipschitz * step + sum(k * step ** r for k, r in holder)
               + 2.0 * fam.error_bound(spec, b))
        # a bound that overflowed certifies nothing
        certified = math.isfinite(gap) and math.isfinite(best_val)
        results.append(OptResult(two_level(n, best_p1), best_val, gap, steps,
                                 "line_search", certified, 0, config))
    return results


# _brent follows scipy 1.17.1's
# scipy.optimize._optimize._minimize_scalar_bounded, Brent's FMIN (R. P.
# Brent, Algorithms for Minimization without Derivatives, 1973, ch. 5), with
# its constants, order of operations and 500-evaluation cap, on floats.
# SciPy's license:
#
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions
# are met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

_BRENT_MAX_EVALS = 500


def _brent(f, lo: float, hi: float, xatol: float) -> tuple[float, float]:
    """Bounded Brent minimization of `f` over [lo, hi].

    Returns (x, f(x)), the best point and its value, once the bracket is
    within about `xatol` or after `_BRENT_MAX_EVALS` values.  The points
    and the result are those of scipy's ``minimize_scalar(method="bounded")``
    bit for bit: only its numpy calls on scalars are replaced, np.abs by
    abs, np.sign(v) + (v == 0) by 1.0 if v >= 0 else -1.0, and np.maximum
    by max.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = f(x)
    num = 1

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = 1
        # a parabolic step, where the fit is acceptable
        if abs(e) > tol1:
            golden = 0
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat

            if ((abs(p) < abs(0.5 * q * r)) and (p > q * (a - xf))
                    and (p < q * (b - xf))):
                rat = (p + 0.0) / q
                x = xf + rat

                if ((x - a) < tol2) or ((b - x) < tol2):
                    rat = tol1 * (1.0 if xm - xf >= 0 else -1.0)
            else:
                golden = 1

        if golden:  # a golden-section step
            if xf >= xm:
                e = a - xf
            else:
                e = b - xf
            rat = golden_mean * e

        x = xf + (1.0 if rat >= 0 else -1.0) * max(abs(rat), tol1)
        fu = f(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= _BRENT_MAX_EVALS:
            break
    return xf, fx


def _grid_argmax(fam: _TwoLevelFamily, specs, b: float, p1_grid: np.ndarray):
    """Each objective's first best point of `p1_grid` (its index) and value,
    as a full scan would find them, from few evaluated points.

    Cells of grid indices are bisected level by level for all the
    objectives at once, starting from the whole grid.  Each cell's bound,
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
    idx = np.array([0, steps - 1])  # evaluated grid indices, ascending
    data = batch.at(p1_grid[idx])
    lo, hi = idx[:1], idx[1:]
    live = np.ones((1, len(specs)), dtype=bool)  # cell, objective
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

    Counts partitions of `resolution` into at most n parts with the
    standard two-way recurrence, O(n * resolution) time and memory.
    """
    table = np.zeros((resolution + 1, n + 1), dtype=object)
    table[0, :] = 1
    for total in range(1, resolution + 1):
        for parts in range(1, n + 1):
            spill = table[total - parts, parts] if total >= parts else 0
            table[total, parts] = table[total, parts - 1] + spill
    return int(table[resolution, n])


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
    weights of `objective.lattice_bracket` over the blocks between them."""
    nodes = np.unique(np.append(np.arange(0, len(w), stride), len(w) - 1))
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
    `_SCREEN_STRIDES`-th node (`objective.lattice_bracket`) and drops those
    whose upper end lies below the best lower end.  A last stage brackets
    at every node with the rule's own weights, so its bracket is only the
    rounding allowance wide; its survivors are the finalists.  A dropped
    candidate's value is below another's, so the argmax is still the
    exhaustive one; a nan end, where a sum overflows, drops none.
    """
    b = beta_value(beta)
    if not 0 < granularity <= 0.5:
        raise DomainError("granularity must lie in (0, 0.5]")
    resolution = round(1.0 / granularity)
    if abs(resolution * granularity - 1.0) > 1e-9:
        raise DomainError("1/granularity must be an integer, got %r" % granularity)
    total = count_lattice_policies(n, resolution)
    if total > _LATTICE_GUARD:
        raise BudgetExceededError(
            "lattice holds %d candidates (> %d); use two_level_line_search "
            "for a 1-D search over top shares instead" % (total, _LATTICE_GUARD)
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
    for nodes, w_low, w_high in stages:
        lower, upper = over_batches(
            rows, nodes,
            lambda g, pn: lattice_bracket(spec, b, g, pn, x[nodes], w_low, w_high, n))
        # a nan end, from inf - inf where sums overflow, rules nothing out
        survive = ~(upper < lower.max())
        keep, rows = keep[survive], rows[survive]

    final, = over_batches(rows, np.arange(len(x)),
                          lambda g, pn: (lattice_value(spec, b, g, pn, x, w, n),))
    # ties go to the earliest candidate: `keep` is in enumeration order
    best_idx = keep[int(np.argmax(final))]
    best = make_policy(candidates[best_idx])
    return OptResult(best, float(final.max()), None, len(candidates), "grid_search",
                     False, 0, config)
