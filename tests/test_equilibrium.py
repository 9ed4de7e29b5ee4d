"""Equilibrium CDF, quantile sampler, payoffs and the Monte Carlo audit."""

import numpy as np
import pytest

from contest_opt import (
    BudgetExceededError,
    DomainError,
    EquilibriumModel,
    QuadratureConfig,
    RangeError,
    TrivialPolicyError,
    basis_matrix,
    cdf,
    cdf_table,
    expected_revenue,
    h_derivative,
    h_eval,
    hm,
    make_policy,
    quantile,
    simulate,
    two_level,
    uni,
    utility,
    welfare_quality_analytic,
)
from contest_opt.equilibrium import (
    _AUDIT_ROWS,
    _NETWORK_WIDTH,
    _SIM_CHUNK,
    MAX_AUDIT_CELLS,
    MAX_DEVIATION_GRID,
    MAX_SIM_DRAWS,
    MAX_TABLE_POINTS,
    _grid_positions,
    _insert_pick,
    _rank_counts,
    _sorted_rows,
)


def random_model(rng, n=5):
    raw = np.sort(rng.dirichlet(np.ones(n)))[::-1]
    return EquilibriumModel(make_policy(raw), rng.uniform(0.5, 4.0))


class TestCdf:
    def test_winner_take_all_power_law(self):
        model = EquilibriumModel(hm(5), 2.0)
        for q in (0.1, 0.5, 0.9):
            assert cdf(model, q) == pytest.approx(q ** (2 / 4), abs=1e-12)

    def test_two_player_linear_cost_identity(self):
        model = EquilibriumModel(hm(2), 1.0)
        assert cdf(model, 0.7) == pytest.approx(0.7, abs=1e-12)

    def test_boundaries(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            model = random_model(rng)
            assert cdf(model, 0.0) == 0.0
            assert cdf(model, model.q_max) == 1.0

    def test_out_of_support(self):
        model = EquilibriumModel(uni(5), 2.0)
        with pytest.raises(RangeError):
            cdf(model, model.q_max + 0.1)

    @pytest.mark.parametrize("q", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_quality_rejected(self, q):
        model = EquilibriumModel(hm(5), 2.0)
        with pytest.raises(RangeError, match="finite"):
            cdf(model, q)
        with pytest.raises(RangeError, match="finite"):
            cdf(model, [0.1, q])

    def test_trivial_policy_rejected(self):
        with pytest.raises(TrivialPolicyError):
            EquilibriumModel(make_policy((0.25,) * 4), 2.0)


class TestQuantile:
    def test_support_endpoint(self):
        model = EquilibriumModel(uni(5), 2.0)
        assert model.q_max == pytest.approx(0.5)
        assert quantile(model, 1.0) == pytest.approx(0.5)

    def test_winner_take_all_midpoint(self):
        model = EquilibriumModel(hm(5), 2.0)
        assert quantile(model, 0.5) == pytest.approx((0.5**4) ** 0.5)

    def test_zero(self):
        rng = np.random.default_rng(8)
        assert quantile(random_model(rng), 0.0) == 0.0

    def test_round_trips(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            model = random_model(rng)
            u = rng.random()
            q = rng.uniform(0, model.q_max)
            assert cdf(model, quantile(model, u)) == pytest.approx(u, abs=1e-10)
            assert quantile(model, cdf(model, q)) == pytest.approx(q, abs=1e-10)


class TestPayoffs:
    def test_revenue_boundaries(self):
        p = make_policy((0.5, 0.3, 0.2, 0.0))
        assert expected_revenue(p, 1.0) == pytest.approx(0.5)
        assert expected_revenue(p, 0.0) == pytest.approx(0.0)

    def test_revenue_uniform_except_last(self):
        assert expected_revenue(uni(5), 0.5) == pytest.approx(0.234375)

    def test_revenue_monotone_in_rank_probability(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            p = make_policy(np.sort(rng.dirichlet(np.ones(5)))[::-1])
            f = np.sort(rng.random(10))
            values = expected_revenue(p, f)
            assert np.all(np.diff(values) >= -1e-12)

    def test_indifference_on_support(self):
        """The payoff of any on-support quality equals the bottom share."""
        rng = np.random.default_rng(16)
        for _ in range(20):
            model = random_model(rng)
            pn = model.policy.pn
            qs = np.linspace(0, model.q_max, 102)[1:-1]
            residual = np.abs(
                np.asarray(expected_revenue(model.policy, cdf(model, qs)))
                - pn
                - qs**model.beta
            )
            assert residual.max() <= 1e-12

    def test_utility_at_zero(self):
        rng = np.random.default_rng(44)
        model = random_model(rng)
        assert utility(model, 0.0) == pytest.approx(model.policy.pn, abs=1e-12)

    def test_utility_overshoot_examples(self):
        model = EquilibriumModel(hm(5), 2.0)
        assert utility(model, 1.0) == pytest.approx(0.0, abs=1e-12)
        model = EquilibriumModel(uni(5), 2.0)
        assert utility(model, 0.7) == pytest.approx(0.25 - 0.49)

    def test_no_profitable_deviation_above_support(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            model = random_model(rng)
            q = model.q_max + rng.uniform(1e-9, 1.0)
            assert utility(model, q) <= model.policy.pn + 1e-12


class TestAnalyticWelfare:
    def test_winner_take_all_values(self):
        w, q = welfare_quality_analytic(hm(5), 2.0, QuadratureConfig(m=50_000))
        assert w == pytest.approx(5 / 7, abs=2e-4)
        assert q == pytest.approx(1 / 3, abs=2e-5)

    def test_unit_cost_quality_is_mean_share(self):
        w, q = welfare_quality_analytic(make_policy((0.6, 0.4, 0.0, 0.0)), 1.0)
        assert q == pytest.approx(0.25, abs=1e-4)


class TestCdfTable:
    def test_columns_and_range(self):
        table = cdf_table(EquilibriumModel(hm(5), 2.0), 11)
        assert table.shape == (11, 2)
        assert table[0, 1] == 0.0
        assert table[-1, 1] == 1.0
        assert np.all(np.diff(table[:, 1]) >= 0)


class TestSimulate:
    def test_matches_analytic_within_three_sigma(self):
        rng = np.random.default_rng(2)
        for p in (hm(5), uni(5), two_level(5, rng.uniform(0.25, 1.0))):
            model = EquilibriumModel(p, 2.0)
            report = simulate(model, 200_000, seed=int(rng.integers(2**31)))
            welfare, quality = welfare_quality_analytic(p, 2.0)
            assert abs(report.empirical_welfare - welfare) <= 3 * report.welfare_se
            assert abs(report.empirical_quality - quality) <= 3 * report.quality_se

    def test_no_deviation_beats_equilibrium(self):
        model = EquilibriumModel(uni(5), 2.0)
        report = simulate(model, 100_000, seed=5)
        assert report.max_deviation_gain <= 3 * report.deviation_se + 1e-3

    def test_deterministic_for_fixed_seed(self):
        model = EquilibriumModel(hm(5), 2.0)
        a = simulate(model, 50_000, seed=9)
        b = simulate(model, 50_000, seed=9)
        assert a == b

    def test_seed_recorded(self):
        model = EquilibriumModel(hm(3), 1.0)
        report = simulate(model, 2000, seed=77)
        assert report.seed == 77 and report.samples == 2000

    def test_minimum_samples(self):
        model = EquilibriumModel(hm(3), 1.0)
        with pytest.raises(Exception):
            simulate(model, 10, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError, match="seed"):
            simulate(EquilibriumModel(hm(5), 2.0), 2000, seed=-1)

    def test_deviation_grid_cap(self):
        model = EquilibriumModel(hm(5), 2.0)
        with pytest.raises(BudgetExceededError, match="deviation grid"):
            simulate(model, 2000, seed=0, deviation_grid=MAX_DEVIATION_GRID + 1)

    @pytest.mark.parametrize("n, grid", [(41, MAX_DEVIATION_GRID), (4001, 1000)])
    def test_audit_cells_cap(self, n, grid):
        """The audit's tables grow with n x G; each grid alone is within its cap."""
        assert n * grid > MAX_AUDIT_CELLS and grid <= MAX_DEVIATION_GRID
        with pytest.raises(BudgetExceededError, match="cap of %d" % MAX_AUDIT_CELLS):
            simulate(EquilibriumModel(hm(n), 2.0), 2000, seed=0, deviation_grid=grid)

    def test_table_cap(self):
        with pytest.raises(BudgetExceededError, match="CDF table"):
            cdf_table(EquilibriumModel(hm(5), 2.0), MAX_TABLE_POINTS + 1)

    @pytest.mark.parametrize("n, samples", [
        (MAX_SIM_DRAWS // _SIM_CHUNK + 1, _SIM_CHUNK),
        (MAX_SIM_DRAWS // _SIM_CHUNK + 1, 10 * _SIM_CHUNK),
        (40_000, 1_000_000),  # n x G = 4,000,000 is within the audit's cap
    ])
    def test_draws_cap(self, n, samples, monkeypatch):
        """A chunk's draws grow with n x rounds; it is refused before any array."""
        assert n * min(samples, _SIM_CHUNK) > MAX_SIM_DRAWS
        monkeypatch.setattr(np.random, "default_rng", None)  # would fail if called
        with pytest.raises(BudgetExceededError, match="cap of %d draws" % MAX_SIM_DRAWS):
            simulate(EquilibriumModel(uni(n), 2.0), samples, seed=0, deviation_grid=100)


def per_point_counts(opponents, grid):
    """counts[k, g] by the per-grid-point loop, for rounds without ties."""
    n = opponents.shape[1] + 1
    counts = np.zeros((n, grid.size), dtype=np.int64)
    for g, point in enumerate(grid):
        counts[:, g] = np.bincount((opponents > point).sum(axis=1), minlength=n)
    return counts


class TestGridPositions:
    """The deviation grid's positions equal `np.searchsorted` exactly."""

    # at size 1000 the last top puts the first estimate two places below
    # the count for 38 values just above a grid point
    @pytest.mark.parametrize("size", [1, 2, 50, 1000])
    @pytest.mark.parametrize("top", [0.2, 1.2, 1.0 / 3.0 + 0.2, 0.0132435482 + 0.2,
                                     0.23681557248910187])
    def test_matches_searchsorted(self, size, top):
        grid = np.linspace(0.0, top, size)
        rng = np.random.default_rng(size)
        values = np.concatenate([
            grid, np.nextafter(grid, -np.inf), np.nextafter(grid, np.inf), [0.0],
            rng.uniform(0.0, top, 5000), rng.uniform(0.0, 1.5 * top, 1000)])
        pos, at = _grid_positions(grid, values)
        assert np.array_equal(pos, np.searchsorted(grid, values))
        assert np.array_equal(at, np.append(grid, np.inf)[pos])


class TestRankCounts:
    """`_rank_counts` takes each round's opponents sorted ascending; the
    reference `per_point_counts` does not depend on their order."""

    GRID = np.linspace(0.0, 1.2, 50)

    @pytest.mark.parametrize("n", [2, 3, 5, 20])
    def test_matches_per_grid_point_loop(self, n):
        rng = np.random.default_rng(n)
        opponents = np.sort(rng.random((3000, n - 1)), axis=1)
        counts = _rank_counts(opponents, self.GRID, rng)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, per_point_counts(opponents, self.GRID))
        assert np.all(counts.sum(axis=0) == 3000)

    @pytest.mark.parametrize("n", [2, 3, 5, 20])
    def test_rounds_tied_with_a_grid_point(self, n):
        rng = np.random.default_rng(100 + n)
        rounds, m = 2000, n - 1
        opponents = rng.random((rounds, m))
        tied = rng.choice(rounds, 300, replace=False)
        opponents[tied, rng.integers(0, m, 300)] = self.GRID[rng.integers(0, 50, 300)]
        # a third of them with a second opponent on the same point
        double = tied[:100]
        opponents[double, -1] = opponents[double, 0] = self.GRID[rng.integers(0, 50, 100)]
        opponents.sort(axis=1)
        counts = _rank_counts(opponents, self.GRID, rng)
        assert np.all(counts.sum(axis=0) == rounds)
        # rounds without a tie are counted exactly ...
        clean = np.setdiff1d(np.arange(rounds), tied)
        extra = counts - per_point_counts(opponents[clean], self.GRID)
        # ... and each tied round ranks between its strict rank and that plus its ties
        ties = opponents[tied]
        for g, point in enumerate(self.GRID):
            low = (ties > point).sum(axis=1)
            high = low + (ties == point).sum(axis=1)
            at_most = np.cumsum(extra[:, g])
            assert np.all(np.cumsum(np.bincount(high, minlength=n)) <= at_most)
            assert np.all(at_most <= np.cumsum(np.bincount(low, minlength=n)))

    def test_ties_are_broken_uniformly(self):
        # one opponent above grid[10], two on it, one below: rank 2, 3 or 4
        rng = np.random.default_rng(7)
        point = self.GRID[10]
        opponents = np.tile([0.01, point, point, 1.1], (3000, 1))
        share = _rank_counts(opponents, self.GRID, rng)[:, 10]
        assert share[0] == share[4] == 0
        assert np.all(np.abs(share[1:4] - 1000) < 5 * np.sqrt(3000 * 2 / 9))


class TestSortedRows:
    @pytest.mark.parametrize("rows", [0, 1, _AUDIT_ROWS])
    @pytest.mark.parametrize("width", range(_NETWORK_WIDTH + 3))
    def test_bits_of_np_sort(self, width, rows):
        """Random and heavily tied values, read as the sampler hands them
        over: a column slice of a wider array, left as it was."""
        rng = np.random.default_rng([width, rows])
        for values in (rng.random((rows, width + 1)),
                       rng.integers(0, 3, (rows, width + 1)).astype(float)):
            block = values[:, :width]
            kept = values.copy()
            got = _sorted_rows(block)
            assert got.shape == block.shape
            assert np.array_equal(got.view(np.int64), np.sort(block, axis=1).view(np.int64))
            assert np.array_equal(values, kept)

    @pytest.mark.parametrize("width", range(2, _NETWORK_WIDTH + 1))
    def test_every_zero_one_row(self, width):
        """A comparator network that sorts every 0-1 input sorts every
        input (Knuth, TAOCP vol. 3, 5.3.4, Theorem Z)."""
        bits = (np.arange(2**width)[:, None] >> np.arange(width)) & 1
        got = _sorted_rows(bits.astype(float))
        assert np.array_equal(got, np.sort(bits, axis=1))


class TestSimulateRecomputed:
    # at n = 2 `_insert_pick` reads +inf past the top of the opponents' sort
    # for the winner, and -inf past its bottom for the loser, whom only
    # p_n > 0 ever awards; n = 3 (p_n > 0) runs two chunks
    @pytest.mark.parametrize("policy, beta, samples, seed", [
        (hm(2), 2.0, 20_000, 5),
        (make_policy((0.7, 0.3)), 1.2, 20_000, 6),
        (make_policy((0.5, 0.3, 0.2)), 1.7, _SIM_CHUNK + 10_001, 31),
        (two_level(20, 0.4), 1.3, 20_000, 8),
        (two_level(_NETWORK_WIDTH + 1, 0.3), 2.2, 20_000, 9),
    ], ids=["n2", "n2_pn", "n3_pn_two_chunks", "n20", "widest_network"])
    def test_bitwise_equal_to_the_seed_sequence_draws(self, policy, beta, samples, seed):
        """Every chunk replayed from its spawned stream, with a full sort of
        each round and the per-point audit."""
        model = EquilibriumModel(policy, beta)
        n, pvals = policy.n, policy.as_array()
        report = simulate(model, samples, seed)
        grid = np.linspace(0.0, model.q_max + 0.2, 50)
        welfare_sum = welfare_sq = quality_sum = quality_sq = 0.0
        dev_sum, dev_sq = np.zeros(50), np.zeros(50)
        chunks = [min(_SIM_CHUNK, samples - done) for done in range(0, samples, _SIM_CHUNK)]
        streams = np.random.SeedSequence(seed).spawn(len(chunks))
        for stream, rounds in zip(streams, chunks):
            rng = np.random.default_rng(stream)
            qualities = quantile(model, rng.random((rounds, n)).ravel()).reshape(rounds, n)
            ranked = -np.sort(-qualities, axis=1)
            awarded = ranked[np.arange(rounds), rng.choice(n, size=rounds, p=pvals)]
            welfare_sum += awarded.sum()
            welfare_sq += (awarded**2).sum()
            quality_sum += qualities.sum()
            quality_sq += (qualities**2).sum()
            for g, point in enumerate(grid):
                prize = pvals[(qualities[:, : n - 1] > point).sum(axis=1)]
                dev_sum[g] += prize.sum()
                dev_sq[g] += (prize**2).sum()
        welfare = welfare_sum / samples
        quality = quality_sum / (samples * n)
        assert report.empirical_welfare == welfare
        assert report.empirical_quality == quality
        assert report.welfare_se == np.sqrt(
            max(welfare_sq / samples - welfare**2, 0.0) / samples)
        assert report.quality_se == np.sqrt(
            max(quality_sq / (samples * n) - quality**2, 0.0) / (samples * n))
        gain = dev_sum / samples - grid**model.beta
        best = int(np.argmax(gain))
        se = np.sqrt(max(dev_sq[best] / samples - (dev_sum[best] / samples) ** 2, 0.0) / samples)
        assert report.max_deviation_gain == pytest.approx(gain[best] - policy.pn, abs=1e-12)
        assert report.deviation_se == pytest.approx(se, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_the_awarded_pick_when_last_ties_an_opponent(self, m):
        """`_insert_pick` reads the full sort of each round at every index,
        also where the last contestant's quality equals an opponent's."""
        rng = np.random.default_rng(m)
        opponents = rng.integers(0, 4, (400, m)) / 4.0  # a few values, many ties
        last = rng.integers(0, 4, 400) / 4.0
        assert np.any(opponents == last[:, None])
        full = np.sort(np.column_stack([opponents, last]), axis=1)
        ascending = np.sort(opponents, axis=1)
        for index in range(m + 1):
            at = np.full(400, index)
            assert np.array_equal(_insert_pick(ascending, last, at), full[:, index])
        mixed = rng.integers(0, m + 1, 400)
        assert np.array_equal(_insert_pick(ascending, last, mixed),
                              full[np.arange(400), mixed])

    def test_empty_deviation_grid_rejected(self):
        with pytest.raises(DomainError):
            simulate(EquilibriumModel(hm(5), 2.0), 2000, seed=0, deviation_grid=0)


NAN = float("nan")


@pytest.mark.parametrize("call", [
    lambda: h_eval(hm(5), NAN),
    lambda: h_derivative(hm(5), NAN),
    lambda: basis_matrix(5, NAN),
    lambda: expected_revenue(hm(5), NAN),
    lambda: quantile(EquilibriumModel(hm(5), 2.0), NAN),
    lambda: utility(EquilibriumModel(hm(5), 2.0), [0.1, NAN]),
], ids=["h_eval", "h_derivative", "basis_matrix", "expected_revenue", "quantile", "utility"])
def test_nan_is_outside_every_domain(call):
    with pytest.raises(DomainError):
        call()
