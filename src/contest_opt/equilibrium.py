"""The closed-form symmetric mixed equilibrium and a Monte Carlo validator.

For a nontrivial policy p and cost exponent beta, every contestant plays
the same atomless quality distribution supported on [0, q_max] with
q_max = (p_1 - p_n)^(1/beta).  Its CDF is pinned down by the indifference
condition  p_n + q^beta = h(F(q), p),  so F is the inverse of h composed
with the cost, and the quantile map is  u -> (h(u, p) - p_n)^(1/beta).
That quantile form doubles as the exact sampler.

Only the symmetric profile is characterized here; the simulator validates
that profile and makes no claim about asymmetric play.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bernstein import check_unit_interval, h_inverse, h_values
from .errors import BudgetExceededError, DomainError, RangeError, TrivialPolicyError
from .objective import ConvexCombo, beta_value, evaluate
from .policy import Policy, is_nontrivial
from .quadrature import QuadratureConfig

_SIM_CHUNK = 250_000
# rounds per audit block: bounds the (rounds, n-1) temporaries of the
# opponents' sort, the awarded-rank pick and `_rank_counts`
_AUDIT_ROWS = 16_384
# widest rows `_sorted_rows` orders by a compare-exchange network rather than
# np.sort.  On a 16,384-row block (one CPU, one BLAS thread, numpy 2.4 on an
# AVX-512 VM) the network took 0.04 ms at width 2, 0.15 at 4, 0.48 at 7,
# 0.61-0.68 at 8, 0.80 at 9, 0.92-0.98 at 10 and 1.09-1.19 at 11; np.sort
# took 0.7-1.1 ms at each of these widths but 8, where it took 0.52-0.55.
# So the crossover is at 11, and 8 is the one narrower width np.sort wins.
_NETWORK_WIDTH = 10
# largest CDF table and deviation grid: memory and time grow with each
MAX_TABLE_POINTS = 100_000
MAX_DEVIATION_GRID = 100_000
# largest n x G of the deviation audit, whose tables hold n (G + 1) counts
# per block: n = 40 at the largest grid peaked at 206 MB
MAX_AUDIT_CELLS = 40 * MAX_DEVIATION_GRID
# largest n x rounds of one sampler chunk, whose uniform draws and qualities
# hold about 17 bytes per draw: n = 100 at full chunks peaked at 419 MB
MAX_SIM_DRAWS = 100 * _SIM_CHUNK


@dataclass(frozen=True)
class EquilibriumModel:
    """Symmetric-equilibrium object for a (policy, beta) pair."""

    policy: Policy
    beta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", beta_value(self.beta))
        if not is_nontrivial(self.policy):
            raise TrivialPolicyError(
                "the all-equal policy induces no competition; equilibrium "
                "degenerates to zero effort"
            )

    @property
    def q_max(self) -> float:
        return (self.policy.p1 - self.policy.pn) ** (1.0 / self.beta)


@dataclass(frozen=True)
class SimReport:
    """Monte Carlo summary with standard errors for each estimate."""

    empirical_welfare: float
    empirical_quality: float
    welfare_se: float
    quality_se: float
    max_deviation_gain: float
    deviation_se: float
    samples: int
    seed: int


def cdf(model: EquilibriumModel, q):
    """Equilibrium CDF at quality q, for q in [0, q_max]."""
    q_arr = np.atleast_1d(np.asarray(q, dtype=float))
    if not np.all(np.isfinite(q_arr)):
        raise RangeError("q must be finite")
    qm = model.q_max
    if np.any(q_arr < -1e-15) or np.any(q_arr > qm + 1e-12):
        raise RangeError("q outside the support [0, %.9g]" % qm)
    q_clip = np.clip(q_arr, 0.0, qm)
    y = model.policy.pn + q_clip**model.beta
    # machine-precision inversion keeps the indifference identity
    # h(F(q)) = p_n + q^beta exact to float rounding
    out = np.atleast_1d(h_inverse(model.policy, y, tol=1e-15))
    out[q_clip == 0.0] = 0.0
    out[q_clip == qm] = 1.0
    return float(out[0]) if np.isscalar(q) or np.asarray(q).ndim == 0 else out


def quantile(model: EquilibriumModel, u):
    """Inverse CDF: quality played at quantile u in [0, 1]."""
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    check_unit_interval(u_arr, "quantile argument")
    out = h_values(model.policy, u_arr)
    if model.policy.pn:
        out -= model.policy.pn
        np.clip(out, 0.0, None, out=out)
    out **= 1.0 / model.beta
    return float(out[0]) if np.isscalar(u) or np.asarray(u).ndim == 0 else out


def expected_revenue(p: Policy, f_of_q) -> float:
    """Expected prize of a contestant whose quality sits at CDF level F.

    Equals h(F, p): the rank distribution against n-1 independent draws is
    binomial, and the prize-weighted sum collapses to the policy polynomial.
    """
    f_arr = np.atleast_1d(np.asarray(f_of_q, dtype=float))
    check_unit_interval(f_arr, "CDF level")
    values = h_values(p, f_arr)
    return float(values[0]) if np.isscalar(f_of_q) or np.asarray(f_of_q).ndim == 0 else values


def utility(model: EquilibriumModel, q):
    """Expected payoff of the pure deviation q against the equilibrium field.

    Constant (= p_n) on the support; above q_max the deviator wins the top
    rank outright but overpays, so the payoff falls below p_n.
    """
    q_arr = np.atleast_1d(np.asarray(q, dtype=float))
    if q_arr.size and not q_arr.min() >= 0.0:  # a NaN fails too
        raise DomainError("deviation quality must be nonnegative")
    qm = model.q_max
    inside = q_arr <= qm
    revenue = np.empty_like(q_arr)
    if np.any(inside):
        # cdf's levels lie in [0, 1] by construction
        revenue[inside] = h_values(model.policy, cdf(model, q_arr[inside]))
    revenue[~inside] = model.policy.p1
    out = revenue - q_arr**model.beta
    return float(out[0]) if np.isscalar(q) or np.asarray(q).ndim == 0 else out


def welfare_quality_analytic(p: Policy, beta, quad: QuadratureConfig | None = None) -> tuple[float, float]:
    """(welfare, quality) of the reduced form, n*I[h^(1+1/b)] and I[h^(1/b)]:
    `objective.evaluate` at alpha = 1 and at alpha = 0, which needs a
    nontrivial policy with zero bottom share."""
    return evaluate(ConvexCombo(1.0), beta, p, quad), evaluate(ConvexCombo(0.0), beta, p, quad)


def cdf_table(model: EquilibriumModel, points: int = 101) -> np.ndarray:
    """Uniform q-grid table of (q, F(q)) pairs over the support."""
    if points < 2:
        raise DomainError("need at least 2 table points")
    if points > MAX_TABLE_POINTS:
        raise BudgetExceededError("CDF table of %d points exceeds the cap of %d"
                                  % (points, MAX_TABLE_POINTS))
    q = np.linspace(0.0, model.q_max, points)
    return np.column_stack([q, cdf(model, q)])


def _chunk_seeds(seed: int, chunks: int) -> list[np.random.SeedSequence]:
    return np.random.SeedSequence(seed).spawn(chunks)


def _grid_positions(grid: np.ndarray, values: np.ndarray):
    """``np.searchsorted(grid, values)``, the number of grid points strictly
    below each value, and the grid point at that index (inf past the end).

    For a uniform grid from 0, ``floor(v (size-1) / grid[-1])`` is at most
    two below that count and never above it, so steps up while the next
    grid point is still below v make it exact.
    """
    size = grid.size
    padded = np.append(grid, np.inf)
    scale = (size - 1) / grid[-1] if size > 1 else 0.0
    pos = np.clip(values * scale, 0, size).astype(np.intp)
    while True:
        at = padded[pos]
        up = at < values
        if not up.any():
            return pos, at
        pos += up


@lru_cache(maxsize=None)
def _network_pairs(width: int) -> tuple[tuple[int, int], ...]:
    """Comparator pairs (i, j), i < j, of Batcher's odd-even merge sort of
    `width` keys in the merge-exchange form (Knuth, TAOCP vol. 3, 5.2.2,
    Algorithm M): exchanging each pair into order, in turn, sorts any input."""
    pairs = []
    t = max(width - 1, 0).bit_length()
    p = 1 << t >> 1
    while p:
        q, r, d = 1 << t >> 1, 0, p
        while True:
            pairs.extend((i, i + d) for i in range(width - d) if i & p == r)
            if q == p:
                break
            q, r, d = q >> 1, p, q - p
        p >>= 1
    return tuple(pairs)


def _sorted_rows(rows: np.ndarray) -> np.ndarray:
    """``np.sort(rows, axis=1)``, bit for bit on NaN-free floats with no
    -0.0 (where 0.0 and -0.0 meet, either zero may come out of a
    comparator; the two compare equal).  Rows of at most `_NETWORK_WIDTH`
    are ordered column by column through Batcher's network, two ufunc calls
    per comparator, where np.sort spends about 50 ns a row whatever its
    width."""
    count, width = rows.shape
    if width > _NETWORK_WIDTH:
        return np.sort(rows, axis=1)
    cols = list(rows.T.copy())
    spare = np.empty(count)
    for i, j in _network_pairs(width):
        np.minimum(cols[i], cols[j], out=spare)
        np.maximum(cols[i], cols[j], out=cols[j])
        cols[i], spare = spare, cols[i]
    out = np.empty_like(rows)
    for j, col in enumerate(cols):
        out[:, j] = col
    return out


def _insert_pick(ascending: np.ndarray, last: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Per row, the value at ascending position `index` of that row of
    `ascending` (sorted ascending) with the row's `last` inserted in order:
    ``max(ascending[i-1], min(ascending[i], last))``, taking -inf and +inf
    past the ends.  O(rows), where sorting the rows again would be
    O(rows n log n)."""
    m = ascending.shape[1]
    flat = ascending.ravel()
    at = np.arange(0, flat.size, m)
    at += index
    # an index past either end reads a clipped neighbour, then its infinity
    above = flat.take(at, mode="clip")
    above[index == m] = np.inf
    below = flat.take(at - 1, mode="clip")
    below[index == 0] = -np.inf
    np.minimum(above, last, out=above)
    return np.maximum(below, above, out=above)


def _rank_counts(ascending: np.ndarray, grid: np.ndarray, rng) -> np.ndarray:
    """Integer table counts[k, g]: rounds in which a deviation to grid[g]
    against that round's opponents takes rank k + 1.

    Row r of `ascending` holds round r's opponents sorted ascending, and
    `grid` is ``np.linspace(0, grid[-1], grid.size)``.  The rank is one plus
    the number of opponents strictly above the deviation.  Grid positions
    rise with quality, so each row's positions come sorted too, and give,
    for every order statistic, a histogram whose cumulative sums count the
    rounds it beats at each grid point.  Rounds with an opponent exactly on
    a grid point (a null event) take the per-point rule instead, with the
    tie broken uniformly by `rng`.
    """
    size = grid.size
    below, at = _grid_positions(grid, ascending)
    tied = at == ascending
    tied_rounds = ascending[:0]
    if tied.any():  # rows are copied out only when a round ties
        tie_rows = tied.any(axis=1)
        tied_rounds = ascending[tie_rows]
        below = below[~tie_rows]
    rounds, m = below.shape
    # column j of `below` holds each round's (m - j)-th largest opponent
    hist = np.bincount((below + (size + 1) * np.arange(m)).ravel(),
                       minlength=m * (size + 1)).reshape(m, size + 1)
    beats = rounds - np.cumsum(hist, axis=1)[:, :size]
    at_least = np.vstack([np.full(size, rounds), beats[::-1], np.zeros(size, np.int64)])
    counts = at_least[:-1] - at_least[1:]
    if len(tied_rounds):
        for g, point in enumerate(grid):
            ties = (tied_rounds == point).sum(axis=1)
            rank = (tied_rounds > point).sum(axis=1) + rng.integers(0, ties + 1)
            counts[:, g] += np.bincount(rank, minlength=m + 1)
    return counts


def check_simulate(n: int, samples: int, seed: int, deviation_grid: int = 50) -> None:
    """Refuse the arguments of a `simulate` call with n contestants before
    any work: the sample floor, the deviation grid, every budget and the
    seed."""
    if samples < 1000:
        raise DomainError("need at least 1000 samples, got %d" % samples)
    if deviation_grid < 1:
        raise DomainError("need at least 1 deviation grid point, got %d" % deviation_grid)
    if deviation_grid > MAX_DEVIATION_GRID:
        raise BudgetExceededError("deviation grid of %d points exceeds the cap of %d"
                                  % (deviation_grid, MAX_DEVIATION_GRID))
    if n * deviation_grid > MAX_AUDIT_CELLS:
        raise BudgetExceededError("deviation audit of %d contestants x %d grid points exceeds "
                                  "the cap of %d" % (n, deviation_grid, MAX_AUDIT_CELLS))
    if n * min(samples, _SIM_CHUNK) > MAX_SIM_DRAWS:
        raise BudgetExceededError("%d contestants x %d rounds per chunk exceeds the cap of "
                                  "%d draws" % (n, min(samples, _SIM_CHUNK), MAX_SIM_DRAWS))
    if seed < 0:
        raise DomainError("seed must be >= 0, got %d" % seed)


def simulate(model: EquilibriumModel, samples: int, seed: int,
             deviation_grid: int = 50) -> SimReport:
    """Play the symmetric profile for `samples` rounds and audit it.

    Each round draws n qualities through the quantile map, ranks them, and
    awards the single recommendation to rank k with probability p_k (ties,
    a null event under continuous sampling, are broken uniformly).  The
    report carries the mean awarded quality, the mean quality, and the
    largest payoff gain any pure deviation on a fixed grid (extending past
    q_max) achieves over the equilibrium payoff p_n.

    Samples are partitioned into fixed-size chunks with independent child
    streams of `seed`, and merged by summation, so results are reproducible.
    """
    n = model.policy.n
    check_simulate(n, samples, seed, deviation_grid)
    pvals = model.policy.as_array()
    pn = model.policy.pn
    grid = np.linspace(0.0, model.q_max + 0.2, deviation_grid)
    cost = grid**model.beta

    chunks = math.ceil(samples / _SIM_CHUNK)
    seeds = _chunk_seeds(seed, chunks)
    welfare_sum = welfare_sq = 0.0
    quality_sum = quality_sq = 0.0
    counts = np.zeros((n, deviation_grid), dtype=np.int64)
    done = 0
    for c in range(chunks):
        rounds = min(_SIM_CHUNK, samples - done)
        done += rounds
        rng = np.random.default_rng(seeds[c])
        qualities = quantile(model, rng.random((rounds, n)).ravel()).reshape(rounds, n)
        quality_sum += qualities.sum()
        quality_sq += (qualities**2).sum()
        # rank k + 1, counted from the top, sits at ascending index n - 1 - k
        # of the round's opponents with its last contestant put in
        index = n - 1 - rng.choice(n, size=rounds, p=pvals)
        awarded = np.empty(rounds)
        for start in range(0, rounds, _AUDIT_ROWS):
            block = slice(start, start + _AUDIT_ROWS)
            # one sort of the block's opponents serves the awarded rank and the audit
            opponents = _sorted_rows(qualities[block, : n - 1])
            awarded[block] = _insert_pick(opponents, qualities[block, n - 1], index[block])
            counts += _rank_counts(opponents, grid, rng)
        welfare_sum += awarded.sum()
        welfare_sq += (awarded**2).sum()

    n_rounds = float(samples)
    welfare = welfare_sum / n_rounds
    welfare_se = math.sqrt(max(welfare_sq / n_rounds - welfare**2, 0.0) / n_rounds)
    quality = quality_sum / (n_rounds * n)
    quality_se = math.sqrt(
        max(quality_sq / (n_rounds * n) - quality**2, 0.0) / (n_rounds * n)
    )
    dev_sum = pvals @ counts
    dev_sq = pvals**2 @ counts
    dev_mean = dev_sum / n_rounds - cost
    dev_var = np.maximum(dev_sq / n_rounds - (dev_sum / n_rounds) ** 2, 0.0)
    dev_se = np.sqrt(dev_var / n_rounds)
    best = int(np.argmax(dev_mean))
    return SimReport(
        empirical_welfare=float(welfare),
        empirical_quality=float(quality),
        welfare_se=float(welfare_se),
        quality_se=float(quality_se),
        max_deviation_gain=float(dev_mean[best] - pn),
        deviation_se=float(dev_se[best]),
        samples=samples,
        seed=seed,
    )
