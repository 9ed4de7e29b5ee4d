"""Policy optimizers: certified 1-D branch-and-bound, line search, grid oracle.

For every objective of the covered class (the welfare/quality mix, order
statistics, exponential and social welfare, and the posynomials whose
coefficients e_j (k_j - beta), by rising k_j, are nonpositive and then
nonnegative) the optimum sits in the two-level family (top share p1, equal
middle, zero bottom), so optimization reduces to p1 in [1/(n-1), 1].  On
that family h is affine in p1 per x: ``h(x, p1) = c0(x) + c1(x) p1``, which
yields computable bounds over an interval I = [l, u] of top shares: the
rise/fall bound

    U(I) = each term at the end of I where its integrand is largest: at u
           where coef * c1 >= 0, at l elsewhere

(`_rise_fall_upper`).  The searches also split the terms by shape: a term
coef * x^a * h^r is convex in p1 when coef * (r - 1) >= 0 and concave
otherwise.  Over an interval the convex terms lie below their chord, and
the concave ones below the secants through the nearest points on either
side, so the lower of the two bounds holds; an interval with no point
beyond it keeps the rise/fall bound unless no term is concave.
Branch-and-bound and the line search are one search (`_chain_search`)
over different grids of top shares: it refuses an objective outside the
class, returns hm(2) with its exact value (`objective.hm_value`) and a gap
of 0 at n = 2, and otherwise bisects the grid level by level, for a batch
of objectives at once (`_bisect`), dropping a cell once its bound is below
the best value plus a (quadrature-adjusted) tolerance.  Every cell is split
or bounded, so the largest bound of a cell that left the search, less the
best value and plus twice the quadrature allowance, is either search's
gap.  The line search refines its best grid point where the objective's
exact slope in p1 (`_TwoLevelFamily.slope`) crosses zero next to it
(`_slope_root`).  Every call reads values and bounds from one
`_TwoLevelFamily` (nodes, weights, c0, c1 and the cut where c1 turns
nonnegative), built once per (n, quadrature) and shared read-only (`_family`),
and every value and bound, a refined root's included, through one kernel,
`_BatchSums`, which integrates each term shape on either side of the cut
once per point, so each pick is scored once, by the sums that ranked it,
and the searches agree bit for bit at any p1.

The grid oracle takes the argmax over the whole ordered lattice without
assuming any structure theorem, so it can confirm, rather than presuppose,
where optima live; bottom shares above zero are handled through the shifted
polynomial g = B(p - p_n), the policy polynomial of the shares less the
bottom one, which is exactly zero on a flat policy.  Rigorous brackets from
every 100th, then every 20th, then every 5th quadrature node rule out most
candidates: after each of these stages the candidate with the largest upper
end is summed at every node, and its value, the incumbent, rules out every
candidate whose upper end lies below it, as the best lower end does.  The
survivors of the last stage are the finalists, each summed once at every
node.  Brackets and values sum their terms through one kernel
(`objective._term_values`): the terms whose exponents of g are integer
multiples j <= 64 of the smallest, e0, make a polynomial in q = g^e0,
summed by Horner's rule, and each other term takes its own power; a
bracket sums its rising and its falling terms apart, sharing the powers
(`objective.lattice_bracket`).  An exponential
reward so costs one power per node and candidate, not one per Taylor term.
"""

from __future__ import annotations

import json
import math
import numbers
from functools import cached_property, lru_cache
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .bernstein import basis_columns, basis_matrix
from .errors import BudgetExceededError, DomainError, StructuralConditionError
from .objective import (
    BRACKET_ROUNDING,
    DEFAULT_QUAD,
    ConvexCombo,
    ObjectiveSpec,
    beta_value,
    evaluate_error_bound,
    format_objective_config,
    hm_value,
    lattice_bracket,
    lattice_value,
    structural_condition_holds,
    _Term,
    _plan,
    _slope_terms,
    _term_values,
    _terms,
)
from .policy import Policy, hm, make_policy, two_level, uni
from .quadrature import QuadratureConfig, integrate

# Every rule is the trapezoid rule with its node at 0 (`quadrature`).
# Branch-and-bound's is `DEFAULT_QUAD`, m = 2^16: an allowance of 1/131,072
# per unit range, nodes k/2^16 and weights 2^-16 and 2^-17 exact in binary,
# and 65,537 nodes, 8 full `integrate` blocks plus one.  The line search's
# m = 2^14 allows 1/32,768.
BNB_QUAD = DEFAULT_QUAD
GRID_QUAD = QuadratureConfig(m=1000)
LINE_QUAD = QuadratureConfig(m=16_384)

# most bytes `_lattice_matrix` may take (`_lattice_bytes`): `optimize
# --method grid` peaked at 211 MB at n = 8, granularity 0.01 (244 MB by that
# count), and at 300 MB at n = 2, granularity 1e-7 (320 MB)
MAX_LATTICE_BYTES = 256 * 2**20
# most points of a line search's p1 grid, 8 bytes each: `optimize --method
# line` peaked at 160 MB with 10^7 and at 864 MB with 10^8
MAX_LINE_STEPS = 10_000_000
# most values of grid_search's (nodes, n) basis.  With 2 candidates,
# 12 million (n = 60, 200,001 nodes) peaked at 286 MB and 6 million at
# 181 MB (n = 60) to 243 MB (n = 6); n = 5 at every node count the rule
# allows is admitted.
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
# most cells branch-and-bound bounds before it gives up uncertified
MAX_BNB_NODES = 200_000
# branch-and-bound's grid: lo + (1 - lo) i / 2^52 for i = 0..2^52 on the
# chain [lo, 1], about one top share per float near p1 = 1
_BNB_GRID_STEPS = 2**52


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
    """The two-level chain h = c0(x) + c1(x)*p1 on the quadrature nodes.

    Up to a positive factor c1 is (n-1) x^(n-1) + (1-x)^(n-1) - 1, convex,
    0 at x = 0 and positive at x = 1, so it changes sign once: it is <= 0
    before the node index `cut` and >= 0 from there on, which the build
    checks.  Every term x^a * h^r is nondecreasing in h, so at each node it
    grows with p1 where its coefficient times c1 is >= 0 and falls
    elsewhere (`_rise_column`).  `shape_sums` integrates each term shape at
    one top share over the nodes on either side of the cut; `_BatchSums`
    combines them into each objective's value, G(p1) = rise + fall summed
    over its terms, its rising and falling parts, from which U(lo, hi) =
    rise(hi) + fall(lo), and its convex and concave parts.
    """

    def __init__(self, n: int, quad: QuadratureConfig):
        self.n, self.quad = n, quad
        self.x, self.w = quad.nodes_weights()
        self.c0, self.c1 = c_decomposition(n, self.x)
        falling = np.flatnonzero(self.c1 < 0.0)
        self.cut = int(falling[-1]) + 1 if len(falling) else 0
        if np.any(self.c1[:self.cut] > 0.0):
            raise DomainError("c1 changes sign more than once on the nodes of n=%d, m=%d; "
                              "the rise/fall bound needs one cut" % (n, quad.m))
        for arr in (self.c0, self.c1):
            arr.setflags(write=False)

    @cached_property
    def _slope_nodes(self) -> tuple[np.ndarray, ...]:
        """x, c0 and c1 at the nodes where c1 != 0, and c1 * w there: the
        slope's weights.  A node where c1 = 0 adds nothing to the slope,
        though there, as at the node x = 0, a term's slope can be inf."""
        moving = self.c1 != 0.0
        return self.x[moving], self.c0[moving], self.c1[moving], (self.c1 * self.w)[moving]

    def slope(self, spec: ObjectiveSpec, b: float):
        """The exact p1-derivative of the value's quadrature sum, as a function
        of p1: the sum over the nodes of w * c1 times each term's slope in
        h, coef * r * x^a * h^(r-1) (`objective._slope_terms`).  The terms
        plan and weights are built once, here, for every p1 the function is
        called at.  Where h rounds to 0 a slope of power r - 1 < 0 is inf,
        and so may be the sum, whose sign still holds; terms of both signs
        there give nan."""
        plan = _plan(_slope_terms(_terms(spec, b, self.n)))
        x, c0, c1, weights = self._slope_nodes

        def at(p1: float) -> float:
            h = c1 * p1
            h += c0
            return float(integrate(_term_values(plan, x, h), weights))

        return at

    def shape_sums(self, plans, p1: float) -> np.ndarray:
        """Integrals of each unit term shape's `_plan` in `plans` at p1 over
        the nodes from `cut` on and over those before it, in that (rise,
        fall) order, one row each.

        One h and one power memo serve every shape, and each row is two dot
        products of its integrand with the weights, so a row depends on its
        shape and p1 alone, not on the shapes beside it.
        """
        h = self.c1 * p1
        h += self.c0
        powers: dict = {}
        rise, fall = slice(self.cut, None), slice(None, self.cut)
        values = (_term_values(plan, self.x, h, 0.0, powers, read_only=True) for plan in plans)
        return np.array([(integrate(v[rise], self.w[rise]), integrate(v[fall], self.w[fall]))
                         for v in values])

    def error_bound(self, spec: ObjectiveSpec, b: float) -> float:
        """Per-evaluation quadrature allowance; p1 = 1 maximizes every term's range."""
        return evaluate_error_bound(spec, b, hm(self.n), self.quad)


@lru_cache(maxsize=8)
def _family(n: int, quad: QuadratureConfig) -> _TwoLevelFamily:
    """The `_TwoLevelFamily` of (n, quad), built once and shared read-only
    by every caller.  At `BNB_QUAD` a build took 5.0 ms CPU (one BLAS
    thread, 2-core VM), more than a whole branch-and-bound call on n = 4
    at epsilon 1e-3 and beta = 0.8 (1.2 ms) and two thirds of one at
    beta = 2.6 (7.6 ms),
    and the family's c0 and c1 take 1.05 MB; the nodes and weights are the
    rule's own cached arrays.

    Eight families hold four n at both default node counts that reach here
    (`BNB_QUAD`, `LINE_QUAD`).  Cycling branch-and-bound and a line search
    over n = 4, 5, 6 needs six: with room for four, 50 of 120 such lookups
    rebuilt a family."""
    return _TwoLevelFamily(n, quad)


class _BatchSums:
    """Each objective's sums at points of the two-level chain, for objectives
    that share beta and n: what both chain searches read of the chain
    (`_bisect`).

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
        units = [[t._replace(coef=1.0) for t in ts] for ts in terms]
        # sorted, so that shapes with one power of h sit together
        shapes = sorted({u for us in units for u in us},
                        key=lambda u: (u.g_exp, u.x_pow, u.times_h))
        self.plans = [_plan([u]) for u in shapes]
        row = {unit: i for i, unit in enumerate(shapes)}
        groups: dict[tuple, list[int]] = {}
        for k, (ts, us) in enumerate(zip(terms, units)):
            key = tuple((row[u], _is_convex(t), _rise_column(t)) for t, u in zip(ts, us))
            groups.setdefault(key, []).append(k)
        # per term: its shape's row; for each row of `at`, what it adds
        # there, picked from its shape's (whole, rise half, fall half, 0);
        # and its coefficients, their magnitudes in the size row
        self.groups = []
        for key, ks in groups.items():
            coefs = np.array([[t.coef for t in terms[k]] for k in ks]).T
            adds = []
            for c, (s, convex, up) in zip(coefs, key):
                picks = [0, 1 + up, 2 - up, 0 if convex else 3, 3 if convex else 0, 0]
                adds.append((s, picks, np.array((c,) * 5 + (np.abs(c),))[:, None]))
            self.groups.append((ks, adds))
        # the cap on each objective's concave part: 0 where no term is concave
        self.cav_cap = np.array([0.0 if all(map(_is_convex, ts)) else np.inf for ts in terms])

    def at(self, p1s) -> np.ndarray:
        """(value, rise, fall, vex, cav, size) at each top share of `p1s`
        (rows) for each objective (columns): the value; its parts that rise
        and that fall as p1 grows, each term's half by `_rise_column`; its
        convex and its concave terms (`_is_convex`); and size, which
        integrates the terms with their coefficients' magnitudes."""
        sums = np.zeros((len(self.plans), 4, len(p1s)))  # shape, (whole, rise, fall, 0), point
        sums[:, 1:3] = np.array([self.fam.shape_sums(self.plans, p1) for p1 in p1s]).reshape(
            len(p1s), len(self.plans), 2).transpose(1, 2, 0)
        np.add(sums[:, 1], sums[:, 2], out=sums[:, 0])
        out = np.empty((6, len(p1s), self.count))
        for ks, adds in self.groups:
            part = np.zeros((6, len(p1s), len(ks)))
            for s, picks, coefs in adds:
                part += sums[s, picks, :, None] * coefs
            if len(ks) == self.count:
                return part
            out[:, :, ks] = part
        return out


def _rise_fall_upper(at_lo, at_hi):
    """The rise/fall bound over [lo, hi] from the `_BatchSums.at` rows at its
    ends: the rising part at hi plus the falling part at lo."""
    return at_hi[1] + at_lo[2]


def _chord_secant_upper(p1s, vex, cav, cav_cap):
    """Upper bound over a cell [lo, hi] from the chord of the convex terms
    plus the lower of the concave terms' secants, capped at `cav_cap` (0
    where no term is concave, else inf, the bound with no secant).

    `p1s` and `cav` hold the top shares and concave sums at the cell's
    `_STENCIL` and `vex` the convex sums at lo and hi, along their first
    axis.  A concave function lies below each secant, through the point
    before and lo or through hi and the point after, outside its base, so
    the bound, concave and piecewise linear, peaks at lo, hi or where the
    secants cross.  An end standing in for an outer point makes its secant
    0/0, a nan that `np.fmin` and `np.fmax` skip.  `_cell_upper` widens
    the bound for rounding.
    """
    (vex_lo, vex_hi), cav_lo, cav_hi = vex, cav[1], cav[2]
    width = p1s[2] - p1s[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        left, right = (cav[1::2] - cav[::2]) / (p1s[1::2] - p1s[::2])
        # the secants cross at nan where one is missing, which `np.fmax`
        # takes to the end 0, and at +-inf, an end, where they are parallel
        cross = np.fmin(np.fmax((cav_hi - cav_lo - right * width) / (left - right), 0.0), width)
        t = np.empty((3,) + np.shape(cross))  # lo, hi and the crossing, as offsets from lo
        t[0], t[1], t[2] = 0.0, width, cross
        concave = np.fmin(np.fmin(cav_lo + left * t, cav_hi - right * (width - t)), cav_cap)
        return np.fmax.reduce(vex_lo + (vex_hi - vex_lo) * (t / width) + concave)


# a cell's stencil, the point before it, its two ends and the point after
# it, as offsets from `searchsorted(lo, side="right")`, one past its lower end
_STENCIL = np.arange(-2, 2)[:, None]


def _cell_upper(p1s: np.ndarray, sums: np.ndarray, cav_cap: np.ndarray) -> np.ndarray:
    """Each cell's upper bound (cell, objective) from the top shares `p1s`
    (4, cell) of its `_STENCIL` and their `_BatchSums.at` rows `sums` (row,
    4, cell, objective): the lower of the rise/fall and the chord-secant
    bounds, widened by `BRACKET_ROUNDING` times the terms' size at the ends
    for the sums' rounding, and the chord-secant bound once more for each
    secant's extrapolation over at most its base's width.
    """
    ends = sums[:, 1:3]
    rounding = BRACKET_ROUNDING * (ends[5, 0] + ends[5, 1])
    chord = _chord_secant_upper(p1s[..., None], ends[3], sums[4], cav_cap)
    return np.fmin(_rise_fall_upper(ends[:, 0], ends[:, 1]), chord + rounding) + rounding


class _Bisection(NamedTuple):
    """The evaluated grid indices, ascending, their top shares and
    `_BatchSums.at` rows (row, point, objective); the top shares in the
    order evaluated; per objective, the largest bound of a cell that left
    its search unsplit, which bounds the objective over the whole grid's
    span; the cells bounded; the levels split; and whether `max_cells`
    stopped the search."""

    idx: np.ndarray
    p1s: np.ndarray
    data: np.ndarray
    trace: list
    leftover: np.ndarray
    cells: int
    levels: int
    capped: bool


def _bisect(batch: _BatchSums, point, idx: np.ndarray, tol=0.0,
            max_cells: float = math.inf) -> _Bisection:
    """Level-wise branch-and-bound over the grid of top shares `point(i)`,
    rising in i, for the objectives of `batch` at once, from the cells
    between the ascending grid indices `idx`.

    A cell stays in an objective's search while its bound (`_cell_upper`,
    through the nearest evaluated points) is at least that objective's
    best value plus `tol`, one for all or one per objective.  Each level
    bounds its cells and splits them at their middle index, each
    objective's top cell first and then, in a second `_BatchSums.at` call,
    the rest that still stay.  A cell with no index inside is bounded but
    never split.  The search stops when no
    cell stays or, capped, before it would bound more than `max_cells`
    cells.  Each cell that leaves an objective's search, dropped, with no
    index inside or left when the search stops, counts its bound for that
    objective as left over, so every cell of the grid is split or counted
    (Shubert, SIAM J. Numer. Anal. 9(3), 1972).
    """
    leftover = np.full(batch.count, -np.inf)
    p1s = point(idx)
    trace = p1s.tolist()
    # the first and the last point are doubled, so that every cell's
    # stencil lies in range, its end standing in where no point lies beyond
    doubled = np.arange(-1, len(idx) + 1).clip(0, len(idx) - 1)
    data = batch.at(p1s)[:, doubled]
    idx, p1s = idx[doubled], p1s[doubled]
    best = data[0].max(axis=0)
    lo, hi = idx[1:-2], idx[2:-1]  # each cell by the grid indices of its ends
    live = np.ones((len(lo), batch.count), dtype=bool)  # cell, objective
    cells = levels = 0
    capped = False
    while len(lo):
        # a doubled first point's stencil starts at its first copy
        near = idx.searchsorted(lo, side="right") + _STENCIL
        upper = _cell_upper(p1s[near], data[:, near], batch.cav_cap)
        upper[~live] = -np.inf
        cells += len(lo)
        inner = hi - lo > 1
        if not inner.all():
            leftover = np.maximum(leftover, upper[~inner].max(axis=0))
            lo, hi, upper = lo[inner], hi[inner], upper[inner]
            if not len(lo):
                break
        live = upper >= best + tol
        stay = live.any(axis=1)
        splits = int(np.count_nonzero(stay))
        if not splits or cells + 2 * splits > max_cells:
            leftover = np.maximum(leftover, upper.max(axis=0))
            capped = splits > 0
            break
        levels += 1
        mids = (lo + hi) // 2
        waves = [stay]
        if splits > 1:
            # each objective's top cell first, then the rest that still stay
            top = np.zeros(len(lo), dtype=bool)
            top[upper.argmax(axis=0)] = True
            waves = [top, ~top]
        added, new_p1s, new_data = [idx], [p1s], [data]
        for wave in waves:
            wave = wave & stay
            if not wave.any():
                continue
            added.append(mids[wave])
            new_p1s.append(point(added[-1]))
            new_data.append(batch.at(new_p1s[-1]))
            trace += new_p1s[-1].tolist()
            best = np.maximum(best, new_data[-1][0].max(axis=0))
            live &= upper >= best + tol
            stay = live.any(axis=1)
        upper[live] = -np.inf
        leftover = np.maximum(leftover, upper.max(axis=0))
        idx = np.concatenate(added)
        order = idx.argsort()
        idx = idx[order]
        p1s = np.concatenate(new_p1s)[order]
        data = np.concatenate(new_data, axis=1)[:, order]
        lo, hi, mids, live = lo[stay], hi[stay], mids[stay], live[stay]
        lo, hi = np.concatenate((lo, mids)), np.concatenate((mids, hi))
        live = np.concatenate((live, live))
    return _Bisection(idx[1:-1], p1s[1:-1], data[:, 1:-1], trace, leftover, cells, levels, capped)


def _chain_search(specs, b: float, n: int, quad: QuadratureConfig, point, idx: np.ndarray,
                  epsilon: float | None = None, max_cells: float = math.inf, refine=None):
    """Both chain searches: `_bisect` over the grid of top shares
    `point(i)` from the grid indices `idx`, for each objective of `specs`.

    An objective outside the class with a two-level optimum fails the
    whole batch before any point is evaluated.  At n = 2 the only feasible
    point is hm(2), whose exact value (`hm_value`) gets a gap of 0.
    Otherwise a cell is dropped once its bound lies below the best value
    plus epsilon less twice the objective's quadrature allowance delta (an
    allowance that takes all of epsilon is refused), or plus 0 without
    epsilon.  `refine(fam, spec, index)`, where given, returns a top share
    near each first best evaluated point, or None; its value, from the
    `_BatchSums` that ranked the grid, is reported where it beats the
    point's.  The gap is the largest bound of a cell that left the search
    less the value, where it is above it, plus 2 delta; a result is
    certified when `max_cells` did not stop the search and its gap and
    value are finite.

    Returns the `_Bisection`, None at n = 2, and per objective (the grid
    index of its first best evaluated point, 0 at n = 2, policy, value,
    gap, certified).
    """
    for spec in specs:
        if not structural_condition_holds(spec, b):
            raise StructuralConditionError(
                "no two-level guarantee for %s: the coefficient sequence "
                "e_j*(k_j - beta) changes sign more than once, so a 1-D search "
                "over top shares may miss the optimum; use grid_search instead"
                % format_objective_config(spec)
            )
    if n == 2:
        # the ordered two-share simplex with zero bottom is the single point (1, 0)
        return None, [(0, hm(2), hm_value(spec, b, 2), 0.0, True) for spec in specs]

    fam = _family(n, quad)
    delta = np.array([fam.error_bound(spec, b) for spec in specs])
    tol = 0.0
    if epsilon is not None:
        tol = epsilon - 2.0 * delta
        if np.any(tol <= 0):
            raise DomainError(
                "quadrature error budget exhausted: epsilon=%.3g but 2*delta=%.3g; "
                "raise epsilon or the node count" % (epsilon, 2.0 * delta.max())
            )
    batch = _BatchSums(fam, specs, b)
    run = _bisect(batch, point, idx, tol, max_cells)
    picks = []
    for k, (spec, best) in enumerate(zip(specs, np.argmax(run.data[0], axis=0).tolist())):
        index, p1, value = int(run.idx[best]), float(run.p1s[best]), float(run.data[0, best, k])
        root = None if refine is None else refine(fam, spec, index)
        if root is not None:
            root_value = float(batch.at([root])[0, 0, k])
            if root_value > value:
                p1, value = root, root_value
        gap = max(float(run.leftover[k]) - value, 0.0) + 2.0 * float(delta[k])
        # a bound that overflowed certifies nothing
        certified = not run.capped and math.isfinite(gap) and math.isfinite(value)
        picks.append((index, two_level(n, p1), value, gap, certified))
    return run, picks


def branch_and_bound(n: int, objective, beta, cfg: BnbConfig,
                     trace: list | None = None) -> OptResult:
    """Branch-and-bound over the top share of two-level policies.

    `objective` is an `ObjectiveSpec` of the class with a two-level optimum;
    a plain number is read as the welfare/quality mix `ConvexCombo` of that
    alpha.  Returns a policy whose value is within epsilon of the best
    two-level value, with the quadrature budget folded into the
    certificate: the internal stopping threshold is epsilon minus twice the
    per-evaluation error bound, and the reported gap adds that allowance
    back (`_chain_search`).  `_bisect` searches the `_BNB_GRID_STEPS` + 1
    grid points from the chain's two ends; a cell of two neighbouring grid
    points, under 2.3e-16 wide, is bounded but not split.
    `nodes_explored` counts the cells bounded, `max_depth` the levels
    split, and `trace` gets the top shares in the order evaluated.
    """
    b = beta_value(beta)
    spec = ConvexCombo(objective) if isinstance(objective, numbers.Real) else objective
    config = {
        "n": n, "objective": format_objective_config(spec), "beta": b, "epsilon": cfg.epsilon,
        "quad_m": cfg.quad.m, "quad_rule": cfg.quad.rule,
    }
    # lo + (1 - lo) is 1 exactly for any lo in [0, 1]
    lo = uni(n).p1
    span = (1.0 - lo) / _BNB_GRID_STEPS
    run, [(_, policy, value, gap, certified)] = _chain_search(
        [spec], b, n, cfg.quad, lambda i: lo + span * i, np.array([0, _BNB_GRID_STEPS]),
        cfg.epsilon, MAX_BNB_NODES)
    if run is None:
        return OptResult(policy, value, gap, 0, "bnb:n2-shortcut-hm", certified, 0, config)
    if trace is not None:
        trace.extend(run.trace)
    return OptResult(policy, value, gap, run.cells, "bnb", certified, run.levels, config)


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
    objective gets a gap certificate (`_chain_search`): the largest bound
    of a cell the grid search left less the value, plus twice the
    per-evaluation quadrature allowance; at n = 2, where hm(2) is the only
    point, the value is exact and the gap 0.  A gap or value that is not
    finite is reported uncertified.  This is `two_level_line_search_batch`
    on a batch of one.
    """
    return two_level_line_search_batch([spec], beta, n, steps, quad)[0]


def _spread(steps: int) -> np.ndarray:
    """The grid indices the line search evaluates, in one batch, before it
    bisects: 2^4 + 1, the points of four levels of bisection, evenly spread
    over a grid of `steps` points, a spacing of at least 1 that rounds to
    distinct indices."""
    return np.round(np.linspace(0, steps - 1, min(steps, 17))).astype(int)


def two_level_line_search_batch(specs, beta, n: int, steps: int = 1000,
                                quad: QuadratureConfig | None = None) -> list[OptResult]:
    """`two_level_line_search` for each objective of `specs` at once.

    The objectives share beta, n and the rule, so they share one two-level
    family, one p1 grid and the grid points `_bisect` evaluates: the alpha
    column of a sweep integrates two term shapes per point, whatever its
    number of alphas.  `_bisect` searches the grid with no tolerance, from
    the `_spread` points, until no cell has an index inside, so a point
    never evaluated for an objective lies below one that was, and the
    first best evaluated point is a full scan's.  Each objective then gets,
    in turn, its own root search of its slope next to that point
    (`_TwoLevelFamily.slope`, `_slope_root`), one value at the root from
    the `_BatchSums` that scored the grid, kept where it beats the grid's,
    and its own gap, so every value and policy is bit for bit the single
    search's.  A gap's cell bounds take their secants through every
    evaluated point, some of them evaluated for the other objectives, so a
    gap in a batch can be tighter than the single search's.
    """
    b = beta_value(beta)
    quad = quad or LINE_QUAD
    check_line_steps(steps)
    p1_grid = np.linspace(uni(n).p1, 1.0, steps)

    def refine(fam, spec, index):
        # an infinite slope is a sign, and a nan one leaves the grid pick
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return _slope_root(fam.slope(spec, b), p1_grid, index)

    run, picks = _chain_search(specs, b, n, quad, p1_grid.__getitem__, _spread(steps),
                               refine=refine)
    nodes, method = (1, "line:n2-hm") if run is None else (steps, "line_search")
    return [OptResult(policy, value, gap, nodes, method, certified, 0,
                      {"n": n, "steps": steps, "objective": format_objective_config(spec),
                       "beta": b, "quad_m": quad.m, "quad_rule": quad.rule})
            for spec, (_, policy, value, gap, certified) in zip(specs, picks)]


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


def _lattice_bytes(n: int, count: int) -> int:
    """Bytes `_lattice_matrix` takes for `count` candidates of n shares, at
    most: 8 n for the rows, 8 (n - 1) for each level's int32 parent and
    share and 40 for temporaries.  It peaked at 44 bytes a candidate at
    n = 2, 71 at n = 5, 110 at n = 8 and 336 at n = 20."""
    return count * (16 * n + 32)


@lru_cache(maxsize=4)
def _lattice_matrix(n: int, resolution: int) -> np.ndarray:
    """Every ordered share vector on the 1/resolution lattice, one per row.

    Built level by level: each prefix branches into its admissible next
    shares, from the largest (capped by the previous share and by what is
    left) down to the smallest (the mean of what is left), so rows come in
    decreasing lexicographic order.  Each level keeps only its shares and
    the index of its parent prefix, as int32 (the byte cap keeps every
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
    tie with the threshold survives.  The survivors of the last stage are
    the finalists, each summed once at every node (`lattice_value`), and
    the best of those sums is the value reported.  Where a sum
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
    # the most candidates of n shares the byte cap admits; a count takes
    # O(n * resolution) steps, so a lattice that surely holds more is refused
    # before it is counted
    allowance = MAX_LATTICE_BYTES // _lattice_bytes(n, 1)
    if (_lattice_exceeds(n, resolution, allowance)
            or count_lattice_policies(n, resolution) > allowance):
        raise BudgetExceededError(
            "lattice holds more than %d candidates of %d shares, which take more than the "
            "cap of %d MB to enumerate; use two_level_line_search for a 1-D search over "
            "top shares instead" % (allowance, n, MAX_LATTICE_BYTES >> 20))
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

    # a stage on more than half the nodes would save no work
    stages = [stage for stage in (_screen_weights(w, stride) for stride in _SCREEN_STRIDES)
              if 2 * len(stage[0]) <= len(x)]
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
            # the value of the largest upper end (nan counts as -inf)
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
