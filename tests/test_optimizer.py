"""Chain bounds, branch-and-bound, line search and the lattice oracle."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from contest_opt import (
    BnbConfig,
    BudgetExceededError,
    ConvexCombo,
    DomainError,
    Exponential,
    MaxOrderStat,
    Posynomial,
    QuadratureConfig,
    SocialWelfare,
    StructuralConditionError,
    branch_and_bound,
    evaluate,
    grid_search,
    hm,
    two_level,
    two_level_line_search,
    uni,
    verify,
)
from contest_opt.objective import (
    _HORNER_MAX_DEGREE,
    _plan,
    _term_values,
    _terms,
    evaluate_error_bound,
    evaluate_hm_closed_form,
    format_objective_config,
    hm_value,
    lattice_bracket,
    lattice_value,
    structural_condition_holds,
)
from contest_opt import optimizer
from contest_opt.optimizer import (
    BNB_QUAD,
    GRID_QUAD,
    LINE_QUAD,
    MAX_GRID_BASIS,
    MAX_LATTICE_BYTES,
    MAX_LINE_STEPS,
    _BatchSums,
    _TwoLevelFamily,
    _cell_upper,
    _chain_search,
    _chord_secant_upper,
    _family,
    _lattice_matrix,
    _screen_weights,
    _lattice_bytes,
    _lattice_exceeds,
    _rise_fall_upper,
    _slope_root,
    _spread,
    c_decomposition,
    count_lattice_policies,
    two_level_line_search_batch,
)
from contest_opt.bernstein import basis_matrix, h_eval
from contest_opt.quadrature import MAX_M

FAST = QuadratureConfig(m=20_000)


def scan(fam, spec, beta, p1s):
    """One objective's values at every top share of `p1s`, from the sums
    the searches read (`_BatchSums`)."""
    return _BatchSums(fam, [spec], beta).at(p1s)[0, :, 0]


def endpoint(batch, p1):
    """The batch's one objective's `_BatchSums.at` rows at p1: value, its
    rising and falling parts, its convex and concave terms, and size."""
    return batch.at([p1])[:, 0, 0]


def end_bounds(n, alpha, beta, lo, hi, quad):
    """(L, U) over [lo, hi] of the welfare/quality mix from the
    `_BatchSums.at` rows at its ends, as `verify`'s bound-sandwich check
    reads them: L the better end's value and U the rise/fall bound, at
    least L."""
    batch = _BatchSums(_family(n, quad), [ConvexCombo(alpha)], beta)
    at_lo, at_hi = endpoint(batch, lo), endpoint(batch, hi)
    lower = max(float(at_lo[0]), float(at_hi[0]))
    return lower, max(float(_rise_fall_upper(at_lo, at_hi)), lower)


def assert_gaps_cover_a_scan(fam, specs, beta, results, points):
    """No point of a `points`-point scan of the chain, on the searches' own
    rule, lies above a result's value plus its gap less its quadrature
    allowance.  The scan reads the sums the searches read (`_BatchSums`)."""
    p1s = np.linspace(1.0 / (fam.n - 1), 1.0, points)
    scanned = _BatchSums(fam, specs, beta).at(p1s)[0].max(axis=0)
    for spec, result, top in zip(specs, results, scanned):
        assert top <= result.value + result.certified_gap - 2.0 * fam.error_bound(spec, beta), spec


class TestCDecomposition:
    def test_right_endpoint(self):
        c0, c1 = c_decomposition(5, 1.0)
        assert c0 == pytest.approx(0.0) and c1 == pytest.approx(1.0)

    def test_left_endpoint(self):
        c0, c1 = c_decomposition(5, 0.0)
        assert c0 == pytest.approx(0.0) and c1 == pytest.approx(0.0)

    def test_affine_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            n = int(rng.choice([3, 5, 8, 12]))
            x, p1 = rng.random(), rng.uniform(1 / (n - 1), 1.0)
            c0, c1 = c_decomposition(n, x)
            assert c0 + c1 * p1 == pytest.approx(
                h_eval(two_level(n, p1), x), abs=1e-12
            )

    def test_two_players_degenerate(self):
        # n = 2 collapses the family to the single point hm(2), as in `two_level`
        with pytest.raises(DomainError, match="needs n >= 3"):
            c_decomposition(2, np.random.default_rng(5).random(1000))


class TestIntervalBounds:
    def test_zero_width_collapses(self):
        lower, upper = end_bounds(5, 0.3, 2.0, 0.6, 0.6, FAST)
        assert lower == pytest.approx(upper, abs=1e-12)
        assert lower == pytest.approx(
            evaluate(ConvexCombo(0.3), 2.0, two_level(5, 0.6), FAST), abs=1e-12
        )

    def test_full_domain_lower_is_best_endpoint(self):
        lower, _ = end_bounds(5, 0.0, 2.0, 0.25, 1.0, FAST)
        g_uni = evaluate(ConvexCombo(0.0), 2.0, uni(5), FAST)
        g_hm = evaluate(ConvexCombo(0.0), 2.0, hm(5), FAST)
        assert g_uni > g_hm  # convex costs favor spreading exposure
        assert lower == pytest.approx(g_uni, abs=1e-12)

    # (n, alpha, beta, lo, hi) draws of the bound-sandwich check at seeds
    # 120, 136 and 283: with beta < 1 the quality term h^(1/beta) is
    # Lipschitz, not (1/beta)-Hölder, in p1
    LIPSCHITZ_QUALITY = [
        (3, 0.009919352197088727, 0.5770851788161265, 0.5125933415406536, 0.632208756656155),
        (3, 0.0011237177184822977, 0.5625072165385061, 0.5480214050952523, 0.7194312393448415),
        (3, 0.012520048974219988, 0.7570102426645341, 0.6122174815655762, 0.6162833673497403),
    ]

    def test_sandwich_and_contraction(self, holder_constants):
        rng = np.random.default_rng(19)
        draws = []
        for _ in range(40):
            n = int(rng.choice([3, 5, 8]))
            alpha, beta = rng.random(), rng.uniform(0.5, 4.0)
            lo = rng.uniform(1 / (n - 1), 1.0)
            hi = rng.uniform(lo, 1.0)
            draws.append((n, alpha, beta, lo, hi))
        for n, alpha, beta, lo, hi in draws + self.LIPSCHITZ_QUALITY:
            if hi - lo < 1e-6:
                continue
            lower, upper = end_bounds(n, alpha, beta, lo, hi, FAST)
            mid_value = evaluate(ConvexCombo(alpha), beta, two_level(n, 0.5 * (lo + hi)), FAST)
            assert lower <= upper + 1e-12
            assert max(lower, mid_value) <= upper + 1e-9
            c1, c2 = holder_constants(n, alpha, beta, FAST)
            width = hi - lo
            slack = 2 * evaluate_error_bound(ConvexCombo(alpha), beta, hm(n), FAST)
            assert upper - lower <= c1 * width + c2 * width ** (1 / beta) + slack

    def test_upper_is_the_term_form_at_the_pointwise_max(self):
        """U integrates the objective at max(h(lo), h(hi)), whatever the split."""
        rng = np.random.default_rng(23)
        x, w = FAST.nodes_weights()
        for _ in range(40):
            n = int(rng.choice([3, 4, 5, 8, 12]))
            alpha, beta = rng.random(), rng.uniform(0.3, 4.0)
            lo = rng.uniform(1 / (n - 1), 1.0)
            hi = rng.uniform(lo, 1.0)
            c0, c1 = c_decomposition(n, x)
            h_max = np.maximum(c0 + c1 * lo, c0 + c1 * hi)
            want = lattice_value(ConvexCombo(alpha), beta, h_max, 0.0, x, w, n)
            _, upper = end_bounds(n, alpha, beta, lo, hi, FAST)
            assert upper == pytest.approx(want, rel=0.0, abs=1e-12)


class TestChordSecantBound:
    """Branch-and-bound's bound over an interval whose neighbouring points on
    each side define the concave terms' secants, as after a split: each
    secant's base is at least as wide as the interval."""

    QUAD = QuadratureConfig(m=5000)

    def bound(self, batch, lo, hi, left, right):
        """The engine's bound, but for its last rounding allowance, with
        each missing outer point's place taken by the end beside it."""
        stencil = np.array([lo if left is None else left, lo, hi, hi if right is None else right])
        sums = np.array([endpoint(batch, p1) for p1 in stencil]).T  # row, point
        rounding = optimizer.BRACKET_ROUNDING * (sums[5, 1] + sums[5, 2])
        chord = _chord_secant_upper(stencil, sums[3, 1:3], sums[4], math.inf)
        return min(_rise_fall_upper(sums[:, 1], sums[:, 2]), chord + rounding)

    def draws(self):
        """Seeded intervals; every other one holds the line search's optimum."""
        rng = np.random.default_rng(31)
        for k in range(60):
            n = int(rng.integers(3, 13))
            alpha, beta = float(rng.random()), float(rng.uniform(0.3, 4.0))
            domain_lo = 1.0 / (n - 1)
            width = min(10.0 ** rng.uniform(-9.0, -0.5), 1.0 - domain_lo)
            lo = rng.uniform(domain_lo, 1.0 - width)
            if k % 2:
                best = two_level_line_search(ConvexCombo(alpha), beta, n, 101, self.QUAD).policy.p1
                lo = min(max(best - width * rng.random(), domain_lo), 1.0 - width)
            hi = lo + width
            left = lo - width * 2.0 ** rng.integers(0, 4)
            right = hi + width * 2.0 ** rng.integers(0, 4)
            yield (n, alpha, beta, lo, hi, left if left >= domain_lo else None,
                   right if right <= 1.0 else None)
        # an interior optimum (p1 near 0.8295) between two secants
        yield 12, 0.3, 2.5, 0.82, 0.84, 0.80, 0.86
        yield 12, 0.3, 2.5, 0.825, 0.835, 0.805, 0.845
        # n = 6 at p1 = 1: h rounds to exactly 0 near x = 0
        yield 6, 0.0, 4.0, 0.99, 1.0, 0.98, None
        yield 6, 0.24, 2.0, 1.0 - 1e-9, 1.0, 1.0 - 3e-9, None

    def test_bound_holds_and_is_never_looser(self):
        for n, alpha, beta, lo, hi, left, right in self.draws():
            spec, fam = ConvexCombo(alpha), _TwoLevelFamily(n, self.QUAD)
            bound = self.bound(_BatchSums(fam, [spec], beta), lo, hi, left, right)
            p1s = np.append(np.linspace(lo, hi, 198), np.random.default_rng(7).uniform(lo, hi, 2))
            assert scan(fam, spec, beta, p1s).max() <= bound
            assert bound <= end_bounds(n, alpha, beta, lo, hi, self.QUAD)[1]

    @pytest.mark.parametrize("n, alpha, beta", [(5, 0.24, 2.0), (12, 0.3, 2.5), (6, 0.0, 4.0)])
    def test_every_node_bound_holds(self, monkeypatch, n, alpha, beta):
        """Each cell branch-and-bound bounds, one per node, stays under its
        bound, whose secants pass through the points nearest the cell."""
        seen = []

        def recording(p1s, sums, cav_cap):
            upper = _cell_upper(p1s, sums, cav_cap)
            seen.extend(zip(p1s[1].tolist(), p1s[2].tolist(), upper[:, 0].tolist()))
            return upper

        monkeypatch.setattr(optimizer, "_cell_upper", recording)
        quad = QuadratureConfig(m=20_000)
        result = branch_and_bound(n, alpha, beta, BnbConfig(epsilon=1e-3, quad=quad))
        assert result.certified and len(seen) == result.nodes_explored > 1
        fam = _TwoLevelFamily(n, quad)
        for lo, hi, upper in seen:
            assert scan(fam, ConvexCombo(alpha), beta, np.linspace(lo, hi, 50)).max() <= upper


class TestGapConstants:
    """`verify`'s bound-sandwich check: a scan of [lo, hi] lies between the
    interval bounds L and U."""

    @pytest.mark.parametrize("seed", [120, 136, 283])
    def test_bound_sandwich_check_passes(self, seed):
        assert verify.check_bound_sandwich(seed, 200).status == "pass"


class TestOptimizerChecks:
    def test_reference_records_are_pinned(self):
        """The optimizer records of `verify --seed 42 --trials 200`, at the
        CLI's 9 significant digits."""
        records = [(r.name, r.status, "%.9g" % r.worst_margin)
                   for r in verify.run_checks(only="optimizer", seed=42, trials=200)]
        assert records == [
            ("optimizer.affine_decomposition", "pass", "2.77555756e-16"),
            ("optimizer.bound_sandwich", "pass", "-0.000216079255"),
            ("optimizer.bnb_certificate", "pass", "-8.31322566e-09"),
            ("optimizer.line_argmax", "pass", "0"),
        ]


# one objective of each family the line search covers, at beta 0.6 and 2
FIVE_FAMILIES = (
    ConvexCombo(0.24),
    Posynomial(((-1.0, 1.0), (2.0, 3.0))),
    MaxOrderStat(),
    Exponential((1.5,), truncation_m=6),
    SocialWelfare(((1.0, 1.0), (0.5, 2.0))),
)


# the five (n, alpha, beta) strata of the certify_bnb benchmark workload
BNB_DRAWS = ((5, 0.24, 2.0), (4, 0.45, 2.6), (5, 0.50, 2.0), (6, 0.05, 2.5), (4, 0.30, 0.8))


class TestBranchAndBound:
    def test_pure_quality_convex_cost_returns_uniform(self, holder_constants):
        result = branch_and_bound(5, 0.0, 2.0, BnbConfig(epsilon=1e-3))
        assert result.certified and result.certified_gap <= 1e-3
        c1, c2 = holder_constants(5, 0.0, 2.0)
        delta = min(1e-3 / c1 if c1 > 0 else np.inf, (1e-3 / c2) ** 2.0)
        assert 0.25 <= result.policy.p1 <= 0.25 + delta

    def test_pure_welfare_returns_winner_take_all(self):
        result = branch_and_bound(5, 1.0, 2.0, BnbConfig(epsilon=1e-3))
        assert result.policy.p1 == pytest.approx(1.0, abs=5e-3)

    def test_matches_line_search_within_tolerance(self):
        eps = 1e-4
        for n in (3, 5, 8, 12):
            result = branch_and_bound(n, 0.24, 2.0, BnbConfig(epsilon=eps))
            line = two_level_line_search(ConvexCombo(0.24), 2.0, n, steps=2000)
            assert result.certified and result.certified_gap <= eps
            assert result.value >= line.value - eps - line.certified_gap
            assert result.value <= line.value + line.certified_gap + result.certified_gap

    @pytest.mark.parametrize("n, alpha, beta", BNB_DRAWS)
    def test_agrees_with_the_line_search_across_rules(self, n, alpha, beta):
        """Branch-and-bound at `BNB_QUAD`'s m = 2^16 and the line search at
        `LINE_QUAD`'s m = 2^14 bound the same optimum: each value lies
        within both gaps of the other."""
        line = two_level_line_search(ConvexCombo(alpha), beta, n)
        assert line.config["quad_m"] != BNB_QUAD.m and line.certified
        for eps in (1e-3, 1e-4):
            bnb = branch_and_bound(n, alpha, beta, BnbConfig(eps))
            assert bnb.certified and bnb.certified_gap <= eps
            assert abs(bnb.value - line.value) <= bnb.certified_gap + line.certified_gap

    def test_gap_covers_a_dense_scan_of_the_chain(self):
        """No point of a 2,001-point scan of the chain, on the same rule,
        lies above the value plus the gap less its quadrature allowance.
        The scan reads the values both searches read (`_BatchSums`), which
        match `lattice_value` term by term (`TestFactoredScan`) at a
        quarter of its cost."""
        rng = np.random.default_rng(41)
        quad = QuadratureConfig(m=20_000)
        cases = 0
        while cases < 30:
            n = int(rng.choice([3, 4, 5, 7, 10]))
            alpha, beta = float(rng.random()), float(rng.uniform(0.5, 4.0))
            eps = float(rng.choice([1e-2, 1e-3]))
            fam, spec = _family(n, quad), ConvexCombo(alpha)
            delta = fam.error_bound(spec, beta)
            if 2.0 * delta >= eps:
                continue  # refused: the quadrature allowance takes all of epsilon
            result = branch_and_bound(n, alpha, beta, BnbConfig(eps, quad=quad))
            assert result.certified
            p1s = np.linspace(1.0 / (n - 1), 1.0, 2001)
            scanned = _BatchSums(fam, [spec], beta).at(p1s)[0, :, 0].max()
            assert scanned <= result.value + result.certified_gap - 2.0 * delta, (n, alpha, beta)
            cases += 1

    def test_anchor_search_is_pinned(self):
        result = branch_and_bound(5, 0.24, 2.0, BnbConfig(1e-3))
        assert (result.nodes_explored, result.max_depth) == (17, 4)
        assert result.certified

    def test_memory_does_not_grow_with_nodes(self, child_peak_mb):
        """31 nodes at eps 1e-4 keep five floats per endpoint, not five arrays."""
        peak_mb = child_peak_mb(
            "from contest_opt.cli import main\n"
            "assert main(['optimize', '--method', 'bnb', '--n', '5', '--alpha', '0.24',"
            " '--beta', '2', '--epsilon', '1e-4']) == 0\n"
        )
        assert peak_mb < 150

    @pytest.mark.parametrize("alpha, beta", [(1.0, 2.0), (0.0, 0.8), (0.3, 0.8), (1.0, 0.8)])
    def test_no_concave_term_certifies_at_the_root(self, alpha, beta):
        """With every term convex in p1 the chord bounds the root."""
        result = branch_and_bound(5, alpha, beta, BnbConfig(epsilon=1e-3))
        assert result.certified and result.certified_gap <= 1e-3
        assert result.nodes_explored == 1 and result.max_depth == 0

    def test_node_cap_leaves_the_result_uncertified(self, monkeypatch):
        monkeypatch.setattr(optimizer, "MAX_BNB_NODES", 3)
        result = branch_and_bound(5, 0.24, 2.0, BnbConfig(1e-3))
        assert not result.certified
        assert result.nodes_explored == 3 and result.certified_gap > 1e-3

    def test_two_player_shortcut(self):
        result = branch_and_bound(2, 0.5, 2.0, BnbConfig(epsilon=1e-3))
        assert result.policy.values == hm(2).values
        assert "n2" in result.method

    @pytest.mark.parametrize("alpha,beta", [(0.5, 2.0), (0.0, 0.7), (1.0, 3.0)])
    def test_two_player_gap_of_zero_is_exact(self, alpha, beta):
        """The single point's value is the closed form, not a quadrature sum
        that a coarse rule puts off by far more than the gap of 0 it reports."""
        cfg = BnbConfig(epsilon=1e-6, quad=QuadratureConfig(m=100))
        result = branch_and_bound(2, alpha, beta, cfg)
        assert result.value == evaluate_hm_closed_form(alpha, beta, 2)
        assert (result.certified_gap, result.certified) == (0.0, True)

    def test_every_family_is_certified(self):
        """Each family the line search covers, through the same search.  A
        point's sums do not depend on the batch, so one scan of the five
        covers each gap."""
        quad = QuadratureConfig(m=20_000)
        results = [branch_and_bound(5, spec, 2.0, BnbConfig(1e-3, quad=quad))
                   for spec in FIVE_FAMILIES]
        for spec, result in zip(FIVE_FAMILIES, results):
            assert result.certified and result.certified_gap <= 1e-3, spec
            assert result.config["objective"] == format_objective_config(spec)
        assert_gaps_cover_a_scan(_family(5, quad), FIVE_FAMILIES, 2.0, results, 20_001)

    def test_refuses_an_uncovered_posynomial_before_any_scan(self, monkeypatch):
        def no_scan(*args):
            raise AssertionError("evaluated a grid point before the structural check")

        monkeypatch.setattr(_TwoLevelFamily, "shape_sums", no_scan)
        bad = Posynomial(((1.0, 1.0), (-1.0, 2.0), (1.0, 3.0)))
        with pytest.raises(StructuralConditionError):
            branch_and_bound(5, bad, 5.0, BnbConfig(1e-3))

    def test_refuses_exhausted_error_budget(self):
        with pytest.raises(DomainError):
            branch_and_bound(5, 0.5, 2.0, BnbConfig(epsilon=1e-9, quad=QuadratureConfig(m=1000)))
        # at `BNB_QUAD` the anchor's 2 delta is 2.99e-5, the trapezoid rule's
        # half allowance: 3.5e-5 is certified, and 2 delta itself is refused
        two_delta = 2.0 * _family(5, BNB_QUAD).error_bound(ConvexCombo(0.24), 2.0)
        assert 2.99e-5 < two_delta < 3.0e-5
        result = branch_and_bound(5, 0.24, 2.0, BnbConfig(3.5e-5))
        assert result.certified and two_delta <= result.certified_gap <= 3.5e-5
        for eps in (2.99e-5, two_delta):
            with pytest.raises(DomainError, match="quadrature error budget exhausted"):
                branch_and_bound(5, 0.24, 2.0, BnbConfig(eps))

    def test_incumbent_trace_is_monotone(self):
        trace = []
        branch_and_bound(5, 0.4, 1.5, BnbConfig(epsilon=1e-3), trace=trace)
        values = [evaluate(ConvexCombo(0.4), 1.5, two_level(5, p1), FAST) for p1 in trace]
        running = np.maximum.accumulate(values)
        assert np.all(np.diff(running) >= 0)

    def test_json_round_trip(self):
        result = branch_and_bound(5, 0.0, 2.0, BnbConfig(epsilon=1e-3))
        payload = json.loads(result.to_json())
        assert payload["method"] == "bnb" and payload["certified"] is True
        assert payload["policy"] == list(result.policy.values)
        assert payload["gap"] == result.certified_gap


class TestFamilyCache:
    def test_equal_configs_share_one_read_only_family(self):
        fam = _family(5, QuadratureConfig(m=3000))
        assert _family(5, QuadratureConfig(m=3000)) is fam
        assert _family(6, QuadratureConfig(m=3000)) is not fam
        assert 0 < fam.cut < len(fam.x)
        assert np.all(fam.c1[:fam.cut] <= 0.0) and np.all(fam.c1[fam.cut:] >= 0.0)
        for arr in (fam.x, fam.w, fam.c0, fam.c1):
            with pytest.raises(ValueError):
                arr[0] = 0.5

    def test_cold_and_warm_cache_agree(self):
        for n, alpha, beta in BNB_DRAWS:
            for eps in (1e-3, 1e-4):
                _family.cache_clear()
                cold = branch_and_bound(n, alpha, beta, BnbConfig(eps))
                warm = branch_and_bound(n, alpha, beta, BnbConfig(eps))
                assert cold.certified and warm.certified
                assert ((cold.value, cold.certified_gap, cold.nodes_explored)
                        == (warm.value, warm.certified_gap, warm.nodes_explored))
                assert cold.policy.values == warm.policy.values


class TestLineSearch:
    def test_flat_profile_at_unit_cost(self):
        result = two_level_line_search(ConvexCombo(0.0), 1.0, 5, steps=200, quad=FAST)
        assert result.value == pytest.approx(0.2, abs=1e-4)

    def test_refuses_uncovered_posynomial(self):
        bad = Posynomial(((1.0, 1.0), (-1.0, 2.0), (1.0, 3.0)))
        with pytest.raises(StructuralConditionError):
            two_level_line_search(bad, 5.0, 5)

    @pytest.mark.parametrize("beta", [0.6, 2.0])
    @pytest.mark.parametrize("spec", FIVE_FAMILIES)
    def test_every_family_is_certified(self, spec, beta):
        """At 2 and 3 steps no cell has a grid index inside, so every cell
        is bounded and none is split."""
        quad = QuadratureConfig(m=1000)
        results = [two_level_line_search(spec, beta, 5, steps=steps, quad=quad)
                   for steps in (2, 3, 50)]
        assert all(r.certified and math.isfinite(r.certified_gap) for r in results)
        assert_gaps_cover_a_scan(_family(5, quad), [spec] * 3, beta, results, 20_000)

    @pytest.mark.parametrize("spec", FIVE_FAMILIES)
    def test_two_players_are_certified(self, spec):
        """hm(2) is the only feasible point, so its exact value is the
        optimum and the gap is 0; the quadrature value lies within twice
        its allowance of it."""
        quad = QuadratureConfig(m=1000)
        result = two_level_line_search(spec, 2.0, 2, quad=quad)
        assert result.policy.values == hm(2).values
        assert result.value == hm_value(spec, 2.0, 2)
        assert result.certified and result.certified_gap == 0.0
        delta = evaluate_error_bound(spec, 2.0, hm(2), quad)
        assert abs(result.value - evaluate(spec, 2.0, hm(2), quad)) <= 2.0 * delta

    def test_mix_gap_is_pinned(self):
        result = two_level_line_search(ConvexCombo(0.24), 2.0, 5, steps=120,
                                       quad=QuadratureConfig(m=4000))
        # the grid's p1 = 1/4 is the pick, at the bottom of the grid with its
        # slope pointing out: its value is the grid point's own, each term's
        # whole integral the sum of its two halves; the gap is the largest
        # cell bound less that value, plus twice the quadrature allowance
        assert result.value == 0.4445005608541446
        assert result.certified_gap == 0.0005003760785078455

    def test_branch_and_bound_reads_the_same_value_bits(self):
        """Both searches take a point's value from `_BatchSums`' value row:
        at the anchor both pick the grid's first point, p1 = 1/4, and for
        the top order statistic its last, p1 = 1."""
        quad = QuadratureConfig(m=4000)
        # branch-and-bound reads a plain number as the mix of that alpha
        for spec, objective, p1 in ((ConvexCombo(0.24), 0.24, 0.25),
                                    (MaxOrderStat(), MaxOrderStat(), 1.0)):
            line = two_level_line_search(spec, 2.0, 5, steps=120, quad=quad)
            bnb = branch_and_bound(5, objective, 2.0, BnbConfig(1e-2, quad=quad))
            assert bnb.certified and line.policy.p1 == bnb.policy.p1 == p1
            assert line.value.hex() == bnb.value.hex()

    def test_steps_above_the_cap_are_refused(self, monkeypatch):
        monkeypatch.setattr(np, "linspace", None)  # would fail if called
        with pytest.raises(BudgetExceededError, match="cap of %d" % MAX_LINE_STEPS):
            two_level_line_search(ConvexCombo(0.24), 2.0, 5, steps=MAX_LINE_STEPS + 1)

    def test_an_overflowed_gap_is_not_certified(self, monkeypatch):
        """The largest rate's cell bounds stay finite, and so does its gap;
        a bound that overflows still certifies nothing."""
        args = Exponential((709.0,)), 2.0, 5, 20, QuadratureConfig(m=50)
        result = two_level_line_search(*args)
        assert math.isfinite(result.value) and math.isfinite(result.certified_gap)
        assert result.certified
        payload = json.loads(result.to_json(), parse_constant=self.refuse)
        assert payload["gap"] == result.certified_gap and payload["certified"] is True

        bisect = optimizer._bisect

        def overflowed(*bisect_args):
            run = bisect(*bisect_args)
            return run._replace(leftover=np.full_like(run.leftover, math.inf))

        monkeypatch.setattr(optimizer, "_bisect", overflowed)
        result = two_level_line_search(*args)
        assert result.certified_gap == math.inf and not result.certified
        payload = json.loads(result.to_json(), parse_constant=self.refuse)
        assert payload["gap"] is None and payload["certified"] is False

    def test_a_large_rate_gets_a_gap_below_its_value(self):
        """At rate 100 the objective climbs steeply along the chain, and the
        cell bounds still hold its gap below its value."""
        result = two_level_line_search(Exponential((100.0,)), 2.0, 5, steps=100,
                                       quad=QuadratureConfig(m=2000))
        assert result.certified and 0.0 < result.certified_gap < result.value

    @staticmethod
    def refuse(constant):
        raise AssertionError("non-standard JSON constant %s" % constant)

    def test_a_value_that_is_not_finite_is_null_in_json(self):
        result = replace(two_level_line_search(ConvexCombo(0.24), 2.0, 5, steps=20, quad=FAST),
                         value=math.inf)
        assert json.loads(result.to_json(), parse_constant=self.refuse)["value"] is None

    def test_order_statistic_beats_neighbors(self):
        result = two_level_line_search(MaxOrderStat(), 2.0, 5, steps=500, quad=FAST)
        for shift in (-0.02, 0.02):
            p1 = min(max(result.policy.p1 + shift, 0.25), 1.0)
            neighbor = evaluate(MaxOrderStat(), 2.0, two_level(5, p1), FAST)
            assert result.value >= neighbor - 1e-6


class TestLineSearchBatch:
    SPECS = (
        ConvexCombo(0.0),  # alpha = 0 and 1 drop a term
        ConvexCombo(0.24),
        ConvexCombo(1.0),
        MaxOrderStat(),
        Posynomial(((-1.0, 1.0), (2.0, 3.0))),
        SocialWelfare(((1.0, 1.0), (0.5, 2.0))),
    )

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_each_result_is_the_single_search(self, n):
        quad = QuadratureConfig(m=1000)
        batch = two_level_line_search_batch(self.SPECS, 2.0, n, steps=150, quad=quad)
        assert len(batch) == len(self.SPECS)
        assert two_level_line_search_batch([], 2.0, n, steps=150, quad=quad) == []
        for spec, got in zip(self.SPECS, batch):
            want = two_level_line_search(spec, 2.0, n, steps=150, quad=quad)
            assert got.value == want.value
            assert got.policy.values == want.policy.values
            assert (got.method, got.certified, got.config) == (want.method, want.certified,
                                                                want.config)
        # in a batch a gap's secants may pass through other objectives'
        # points, so it may be tighter than the single search's
        if n == 2:
            for spec, got in zip(self.SPECS, batch):
                assert (got.value, got.certified_gap) == (hm_value(spec, 2.0, 2), 0.0)
                delta = evaluate_error_bound(spec, 2.0, hm(2), quad)
                assert abs(got.value - evaluate(spec, 2.0, hm(2), quad)) <= 2.0 * delta
        else:
            assert_gaps_cover_a_scan(_family(n, quad), self.SPECS, 2.0, batch, 3001)

    def test_one_uncovered_objective_fails_the_batch_before_any_scan(self, monkeypatch):
        def no_scan(*args):
            raise AssertionError("evaluated a grid point before the structural check")

        monkeypatch.setattr(_TwoLevelFamily, "shape_sums", no_scan)
        bad = Posynomial(((1.0, 1.0), (-1.0, 2.0), (1.0, 3.0)))
        with pytest.raises(StructuralConditionError):
            two_level_line_search_batch([ConvexCombo(0.5), bad, MaxOrderStat()], 5.0, 5)

    @pytest.mark.parametrize("beta", [0.7, 2.5])
    def test_a_sweep_column_is_its_single_searches(self, beta):
        """Alphas 0 and 1, with one term each, beside interior alphas at the
        sweep's node count."""
        quad = QuadratureConfig(m=5000)
        specs = [ConvexCombo(alpha) for alpha in np.linspace(0.0, 1.0, 13)]
        batch = two_level_line_search_batch(specs, beta, 5, steps=60, quad=quad)
        for spec, got in zip(specs, batch):
            want = two_level_line_search(spec, beta, 5, steps=60, quad=quad)
            assert got.value == want.value
            assert got.policy.values == want.policy.values
            assert got.certified
        assert_gaps_cover_a_scan(_family(5, quad), specs, beta, batch, 3001)


# the five families, with a negative coefficient in a posynomial that the
# structural check covers at both betas below
LINE_SPECS = (
    ConvexCombo(0.0),  # alpha = 0 and 1 drop a term
    ConvexCombo(0.24),
    ConvexCombo(1.0),
    Posynomial(((0.5, 0.5), (1.0, 2.0))),
    Posynomial(((-1.0, 1.0), (2.0, 3.0))),
    MaxOrderStat(),
    Exponential((1.5, 0.5), truncation_m=6),  # the two rates share every shape
    SocialWelfare(((1.0, 1.0), (0.5, 2.0))),
)


def term_sizes(fam, spec, beta, p1s):
    """Each point's terms integrated with their coefficients' magnitudes:
    the scale of its rounding, which a negative coefficient's cancellation
    hides from the value."""
    h = fam.c0[:, None] + fam.c1[:, None] * p1s
    terms = [t._replace(coef=abs(t.coef)) for t in _terms(spec, beta, fam.n)]
    return _term_values(_plan(terms), fam.x[:, None], h).T @ fam.w


class TestReportedValues:
    """Each pick is scored once, by the sums that ranked it: every value the
    chain searches report is `_BatchSums`' value at the reported p1."""

    # at n = 5 and beta = 2 the mix of alpha 0.5 peaks at a root off the
    # grid, p1 0.993077407 (`optimize --method line --n 5 --alpha 0.5`)
    SPECS = FIVE_FAMILIES + (ConvexCombo(0.5),)

    @staticmethod
    def batch_value(spec, beta, n, quad, p1):
        return float(_BatchSums(_family(n, quad), [spec], beta).at([p1])[0, 0, 0])

    def test_every_reported_value_is_the_batch_sum_at_its_p1(self):
        refined = 0
        for n in (4, 5, 6, 7, 8):
            grid = np.linspace(uni(n).p1, 1.0, 1000)
            for beta in (0.8, 2.0, 3.3):
                specs = [spec for spec in self.SPECS if structural_condition_holds(spec, beta)]
                assert len(specs) >= 5
                for spec, line in zip(specs, two_level_line_search_batch(specs, beta, n)):
                    p1 = line.policy.p1
                    refined += p1 not in grid
                    want = self.batch_value(spec, beta, n, LINE_QUAD, p1)
                    assert line.value.hex() == want.hex(), (n, beta, spec)
                for spec in specs:
                    bnb = branch_and_bound(n, spec, beta, BnbConfig(epsilon=1e-3))
                    want = self.batch_value(spec, beta, n, BNB_QUAD, bnb.policy.p1)
                    assert bnb.value.hex() == want.hex(), (n, beta, spec)
        # roots off the line search's grid, scored after the grid's search
        assert refined >= 10


class TestSlope:
    """`_TwoLevelFamily.slope`, which reads a slope term's h^(r-1) off the
    h^r beside it, against one np.power per term."""

    @staticmethod
    def two_powers(fam, spec, beta, p1):
        """The slope with every term's own power of h: the sum of each term's
        coef * r * x^a * h^(r-1) times w * c1 over the nodes where c1 != 0,
        and that sum with the terms' magnitudes."""
        moving = fam.c1 != 0.0
        x, c1w = fam.x[moving], (fam.c1 * fam.w)[moving]
        h = fam.c0[moving] + fam.c1[moving] * p1
        parts = [t.coef * t.power * x ** t.x_pow * np.power(h, t.power - 1.0)
                 for t in _terms(spec, beta, fam.n) if t.power != 0.0]
        return sum(parts) @ c1w, sum(map(np.abs, parts)) @ np.abs(c1w)

    @pytest.mark.parametrize("beta", [0.6, 2.0])
    @pytest.mark.parametrize("n", [3, 5, 12])
    @pytest.mark.parametrize("quad", [QuadratureConfig(m=2000)], ids=["trapezoid_with_zero"])
    def test_one_power_matches_two(self, quad, n, beta):
        """x = 0 is a node of the rule, where c1 = 0 and h = 0:
        it adds nothing to either sum.  At p1 = 1 h can round to 0 or below
        near x = 0, where both sums are inf or nan alike."""
        fam = _TwoLevelFamily(n, quad)
        with np.errstate(divide="ignore", invalid="ignore"):
            for spec in LINE_SPECS:
                slope = fam.slope(spec, beta)
                for p1 in (1.0 / (n - 1), 0.5, 1.0):
                    want, scale = self.two_powers(fam, spec, beta, p1)
                    got = slope(p1)
                    if math.isfinite(want):
                        assert abs(got - want) <= 1e-12 * scale, (spec, p1)
                    else:
                        assert np.array_equal(got, want, equal_nan=True), (spec, p1)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_a_zero_h_keeps_the_infinite_sign(self, monkeypatch, sign):
        """h is exactly 0 at the first node, where c1 != 0: the quality
        term's h^(1/beta - 1) is inf there, not the nan of 0 / 0, and the
        slope is inf with the sign of c1."""

        def chain(n, x):
            c1 = np.where(x < 0.5, -1.0, 1.0) if sign < 0 else np.ones_like(x)
            c0 = np.ones_like(x)
            c0[0] = -0.5 * c1[0]
            return c0, c1

        monkeypatch.setattr(optimizer, "c_decomposition", chain)
        fam = _TwoLevelFamily(5, QuadratureConfig(m=1000))
        assert fam.c0[0] + fam.c1[0] * 0.5 == 0.0
        with np.errstate(divide="ignore"):
            assert fam.slope(ConvexCombo(0.24), 2.0)(0.5) == sign * math.inf


class TestSlopeRoot:
    """`_slope_root` on closed-form slopes over a grid 0.05 apart."""

    GRID = np.linspace(0.25, 1.0, 16)

    @staticmethod
    def counted(fn):
        calls = []

        def slope(p1):
            calls.append(p1)
            return fn(p1)

        return slope, calls

    @pytest.mark.parametrize("root", [0.2713, 0.6123, 0.9871])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_finds_a_known_root(self, root, side):
        """From the grid point on either side of the root, whose slopes
        point toward it."""
        right = int(np.searchsorted(self.GRID, root))
        slope, calls = self.counted(lambda p1: root ** 3 - p1 ** 3)
        got = _slope_root(slope, self.GRID, right - 1 if side == "left" else right)
        assert abs(got - root) <= 1e-13
        assert len(calls) <= 12

    def test_an_infinite_slope_is_a_sign(self):
        """Past the root the slope is -inf, so the chord gives way to halving."""
        slope, calls = self.counted(lambda p1: 0.4213 ** 3 - p1 ** 3 if p1 < 0.43 else -math.inf)
        got = _slope_root(slope, self.GRID, 3)
        assert abs(got - 0.4213) <= 1e-13
        assert len(calls) <= 12

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_a_chord_point_on_the_kept_end_steps_inside(self, side):
        """The root lies 1e-17 inside a grid point, so the first chord point
        rounds onto that end.  Halving toward it took 41 slopes in all; half
        the tolerance inside the end closes the bracket in one, 3 in all."""
        lo, hi = float(self.GRID[6]), float(self.GRID[7])
        if side == "left":
            fn, best, root = (lambda p1: 1e-17 - (p1 - lo)), 6, lo
        else:
            fn, best, root = (lambda p1: (hi - p1) - 1e-17), 7, hi
        f_lo, f_hi = fn(lo), fn(hi)
        assert f_lo > 0.0 > f_hi
        assert lo + f_lo * (hi - lo) / (f_lo - f_hi) == root
        slope, calls = self.counted(fn)
        got = _slope_root(slope, self.GRID, best)
        assert abs(got - root) <= 1e-13
        assert len(calls) == 3

    def test_a_sweep_cell_stops_at_the_tolerance(self, monkeypatch):
        """A cell of the default sweep whose slope reaches -1.0e-15 on its
        12th evaluation: the search stops at the tolerance after 13 slopes
        in all, at the root 0.9994236222667569."""
        seen = []

        def counting(slope, p1_grid, best):
            calls = []

            def counted(p1):
                calls.append(p1)
                return slope(p1)

            seen.append((_slope_root(counted, p1_grid, best), len(calls)))
            return seen[-1][0]

        monkeypatch.setattr(optimizer, "_slope_root", counting)
        alpha, beta = np.linspace(0.05, 1.0, 50)[12], np.linspace(0.1, 5.0, 50)[13]
        two_level_line_search(ConvexCombo(alpha), beta, 5, steps=300,
                              quad=QuadratureConfig(m=5000))
        (root, slopes), = seen
        assert abs(root - 0.9994236222667569) <= 1e-13
        assert slopes <= 14

    @pytest.mark.parametrize("best, fn", [
        (15, lambda p1: 1.0),  # rising at the top of the grid
        (0, lambda p1: -1.0),  # falling at its bottom
        (6, lambda p1: 1.0),  # no sign change at the neighbour
        (6, lambda p1: 0.0),  # the pick is stationary
        (6, lambda p1: math.nan),
        (6, lambda p1: 1.0 if p1 < 0.56 else -1.0 if p1 > 0.58 else math.nan),
    ], ids=["out_of_the_top", "out_of_the_bottom", "no_bracket", "flat", "nan_at_the_pick",
            "nan_inside"])
    def test_no_root_leaves_the_pick(self, best, fn):
        assert _slope_root(fn, self.GRID, best) is None


class TestRefinement:
    """The reported value against a dense scan of the pick's two cells."""

    @pytest.mark.parametrize("beta", [0.6, 2.0, 5.0])
    @pytest.mark.parametrize("n", [3, 5, 12])
    @pytest.mark.parametrize("quad", [QuadratureConfig(m=2000)], ids=["trapezoid_with_zero"])
    def test_no_point_of_the_picks_cells_is_better(self, quad, n, beta):
        """x = 0 is a node of the rule, where c1 = 0 and a slope
        term of power below 0 is inf: the slope sums only the nodes where
        c1 != 0."""
        steps = 40
        fam = _TwoLevelFamily(n, quad)
        p1_grid = np.linspace(1.0 / (n - 1), 1.0, steps)
        specs = [spec for spec in LINE_SPECS if structural_condition_holds(spec, beta)]
        results = two_level_line_search_batch(specs, beta, n, steps, quad)
        _, picks = _chain_search(specs, beta, n, quad, p1_grid.__getitem__, _spread(steps))
        for spec, (best, *_), result in zip(specs, picks, results):
            p1s = np.linspace(p1_grid[max(best - 1, 0)], p1_grid[min(best + 1, steps - 1)], 401)
            h = fam.c0[:, None] + fam.c1[:, None] * p1s
            values = lattice_value(spec, beta, h, 0.0, fam.x, fam.w, n)
            scale = term_sizes(fam, spec, beta, p1s).max()
            assert result.value >= values.max() - 1e-14 * scale, spec


class TestFactoredScan:
    """The line search's grid points: one integral per term shape."""

    @pytest.mark.parametrize("beta", [0.6, 2.0])
    @pytest.mark.parametrize("length", [1, 44, 128])
    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_scan_is_the_per_spec_sum(self, n, length, beta):
        fam = _TwoLevelFamily(n, QuadratureConfig(m=1000))
        p1s = np.linspace(1.0, 1.0 / (n - 1), length)
        h = fam.c0[:, None] + fam.c1[:, None] * p1s
        got = _BatchSums(fam, LINE_SPECS, beta).at(p1s)
        reversed_batch = _BatchSums(fam, LINE_SPECS[::-1], beta).at(p1s)[:, :, ::-1]
        reversed_points = _BatchSums(fam, LINE_SPECS, beta).at(p1s[::-1])[:, ::-1]
        for k, spec in enumerate(LINE_SPECS):
            value, rise, fall, vex, cav, size = got[:, :, k]
            want = lattice_value(spec, beta, h, 0.0, fam.x, fam.w, n)
            assert value.shape == (length,)
            assert np.allclose(size, term_sizes(fam, spec, beta, p1s), rtol=1e-14, atol=0.0)
            assert np.all(np.abs(value - want) <= 1e-14 * size)
            assert np.all(np.abs(rise + fall - want) <= 1e-14 * size)
            assert np.all(np.abs(vex + cav - want) <= 1e-14 * size)
            # a spec's sums depend neither on the batch nor on the other points
            alone = _BatchSums(fam, [spec], beta).at(p1s)[:, :, 0]
            for other in (reversed_batch[:, :, k], reversed_points[:, :, k], alone):
                assert got[:, :, k].tobytes() == other.tobytes()


class TestChainCut:
    """c1 changes sign once on the nodes, so one index splits them into the
    nodes where it is <= 0 and those where it is >= 0."""

    # branch-and-bound's, the line search's and the sweep's node counts, and
    # one that is none of theirs
    @pytest.mark.parametrize("quad", [
        BNB_QUAD, LINE_QUAD, QuadratureConfig(m=5000), QuadratureConfig(m=4000),
    ], ids=["bnb", "line", "sweep", "trapezoid"])
    def test_one_cut_for_every_n(self, quad):
        for n in range(3, 101):
            fam = _TwoLevelFamily(n, quad)
            assert 0 < fam.cut < len(fam.x), n
            assert np.all(fam.c1[:fam.cut] <= 0.0) and np.all(fam.c1[fam.cut:] >= 0.0), n

    def test_branch_and_bound_rule_is_exact_in_binary(self):
        """`BNB_QUAD`'s nodes k/m and weights, 1/m and 1/(2m) at both ends,
        are dyadic, and the node at 0 is kept."""
        x, w = BNB_QUAD.nodes_weights()
        m = BNB_QUAD.m
        assert len(x) == m + 1 and x[0] == 0.0 and x[-1] == 1.0
        assert np.array_equal(x * m, np.arange(m + 1))
        assert w[0] * m == w[-1] * m == 0.5 and np.all(w[1:-1] * m == 1.0)

    def test_a_second_sign_change_is_refused(self, monkeypatch):
        monkeypatch.setattr(optimizer, "c_decomposition",
                            lambda n, x: (np.zeros_like(x), np.cos(6.0 * x)))
        with pytest.raises(DomainError, match="n=5, m=1000; "):
            _TwoLevelFamily(5, QuadratureConfig(m=1000))

    @pytest.mark.parametrize("beta", [0.6, 2.0])
    @pytest.mark.parametrize("n", [3, 5, 12])
    def test_shape_sums_match_masked_weights(self, n, beta):
        fam = _TwoLevelFamily(n, QuadratureConfig(m=3000))
        plans = _BatchSums(fam, LINE_SPECS, beta).plans
        rising = np.arange(len(fam.x)) >= fam.cut
        masked = np.column_stack((np.where(rising, fam.w, 0.0), np.where(rising, 0.0, fam.w)))
        for p1 in (1.0 / (n - 1), 0.4, 1.0):
            h = fam.c0 + fam.c1 * p1
            want = np.array([_term_values(plan, fam.x, h) @ masked for plan in plans])
            got = fam.shape_sums(plans, p1)
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


class TestGridArgmax:
    @pytest.mark.parametrize("beta", [0.6, 2.0])
    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_pick_is_the_exhaustive_scan_best(self, n, beta):
        """The pick is the grid's best point, and the bound lies above a
        dense scan of the whole chain: every cell is split or bounded, one
        with no grid index inside too, as at 2 and 3 steps."""
        quad = QuadratureConfig(m=1000)
        fam = _TwoLevelFamily(n, quad)
        chain = np.linspace(1.0 / (n - 1), 1.0, 2001)
        chain_top = _BatchSums(fam, LINE_SPECS, beta).at(chain)[0].max(axis=0)
        # sizes around the first batch of 17 points, too
        for steps in (2, 3, 7, 16, 17, 18, 33, 150, 1000):
            p1s = np.linspace(1.0 / (n - 1), 1.0, steps)
            run, picks = _chain_search(LINE_SPECS, beta, n, quad, p1s.__getitem__,
                                       _spread(steps))
            assert np.all(chain_top <= run.leftover), steps
            for spec, (pick, _, value, _, _) in zip(LINE_SPECS, picks):
                scanned = scan(fam, spec, beta, p1s)
                scale = term_sizes(fam, spec, beta, p1s).max()
                assert scanned[pick] >= scanned.max() - 1e-12 * scale, (spec, steps)
                assert abs(value - scanned[pick]) <= 1e-12 * scale

    def test_anchor_evaluates_few_points(self, monkeypatch):
        """Pruning, not a full scan, finds the anchor's best of 1000 points."""
        calls = []
        shape_sums = _TwoLevelFamily.shape_sums

        def counting(fam, shapes, p1):
            calls.append(p1)
            return shape_sums(fam, shapes, p1)

        monkeypatch.setattr(_TwoLevelFamily, "shape_sums", counting)
        result = two_level_line_search(ConvexCombo(0.24), 2.0, 5, steps=1000)
        assert result.certified
        assert len(calls) == len(set(calls)) < 60

    @pytest.mark.parametrize("beta", [0.6, 2.0])
    def test_rise_fall_bound_holds_for_negative_coefficients(self, beta):
        """A negative term is largest at the other end of an interval."""
        spec, n = Posynomial(((-1.0, 1.0), (2.0, 3.0))), 5
        fam = _TwoLevelFamily(n, QuadratureConfig(m=1000))
        assert any(t.coef < 0 for t in _terms(spec, beta, n))
        batch = _BatchSums(fam, [spec], beta)
        rng = np.random.default_rng(3)
        for _ in range(40):
            lo, hi = np.sort(rng.uniform(0.25, 1.0, 2))
            p1s = np.linspace(lo, hi, 60)
            at_lo, at_hi = endpoint(batch, lo), endpoint(batch, hi)
            slack = 1e-12 * term_sizes(fam, spec, beta, p1s).max()
            assert scan(fam, spec, beta, p1s).max() <= _rise_fall_upper(at_lo, at_hi) + slack


class TestGridSearch:
    def test_counts_match_enumeration(self):
        assert count_lattice_policies(3, 4) == 4  # 4+0+0, 3+1+0, 2+2+0, 2+1+1
        result = grid_search(ConvexCombo(0.0), 2.0, 3, 0.25, QuadratureConfig(m=200))
        assert result.nodes_explored == 4

    @staticmethod
    def refusal(n: int) -> str:
        """The one lattice refusal, naming the candidates and the MB."""
        return ("more than %d candidates of %d shares, which take more than the cap of %d MB"
                % (MAX_LATTICE_BYTES // _lattice_bytes(n, 1), n, MAX_LATTICE_BYTES >> 20))

    def test_budget_guard(self):
        # 114,281,808 candidates, 16 GB by the byte count: refused before any
        # is enumerated
        assert _lattice_bytes(8, count_lattice_policies(8, 200)) > MAX_LATTICE_BYTES
        with pytest.raises(BudgetExceededError, match=self.refusal(8)):
            grid_search(ConvexCombo(0.0), 2.0, 8, 0.005)

    @pytest.mark.parametrize("n", [2, 3, 5, 60])
    def test_a_huge_lattice_is_refused_before_it_is_counted(self, monkeypatch, n):
        """A count takes n x resolution steps: at 1e-6, n = 3 once took 1.5 s
        and 136 MB to refuse, and each finer decade ten times more."""
        def no_count(*args):
            raise AssertionError("counted the lattice")

        monkeypatch.setattr(optimizer, "count_lattice_policies", no_count)
        with pytest.raises(BudgetExceededError, match=self.refusal(n)):
            grid_search(ConvexCombo(0.0), 2.0, n, 1e-9)

    @pytest.mark.parametrize("n, granularity", [(2, 1e-7), (5, 0.0025), (10, 0.01)])
    def test_a_lattice_above_the_byte_cap_is_refused_before_it_is_built(self, monkeypatch,
                                                                           n, granularity):
        """Each holds far fewer than 10^8 candidates, yet 5,000,001
        candidates at n = 2 peaked at 300 MB when they were enumerated."""
        def no_matrix(*args):
            raise AssertionError("enumerated the lattice")

        monkeypatch.setattr(optimizer, "_lattice_matrix", no_matrix)
        count = count_lattice_policies(n, round(1 / granularity))
        assert count < 10**8 and _lattice_bytes(n, count) > MAX_LATTICE_BYTES
        with pytest.raises(BudgetExceededError, match=self.refusal(n)):
            grid_search(ConvexCombo(0.0), 2.0, n, granularity)

    @pytest.mark.parametrize("n, resolution", [(5, 100), (6, 100), (5, 50), (5, 200), (8, 100)])
    def test_the_byte_cap_admits_the_working_lattices(self, n, resolution):
        """The lattice oracle's benchmark lattices (n = 5 and 6 at 0.01), the
        README's grid example (n = 5 at 0.02), the acceptance suite's 0.005
        lattice and n = 8 at 0.01."""
        assert _lattice_bytes(n, count_lattice_policies(n, resolution)) <= MAX_LATTICE_BYTES

    def test_the_uncounted_refusal_is_a_lower_bound(self):
        for n in range(2, 9):
            for resolution in range(2, 61):
                count = count_lattice_policies(n, resolution)
                for guard in (10, 100, 1000, 10_000):
                    assert not _lattice_exceeds(n, resolution, guard) or count > guard
        # the two-part count is closed form, so a fine two-part lattice is cheap
        for resolution in (2, 3, 10, 11):
            assert count_lattice_policies(2, resolution) == len(
                list(recursive_lattice(resolution, 2, resolution)))
        assert count_lattice_policies(2, 10**9) == 5 * 10**8 + 1

    @pytest.mark.parametrize("n,beta", [(6, 5.0), (7, 2.8), (6, 2.0)])
    def test_flat_policy_is_exactly_zero(self, n, beta):
        """-q is best at zero quality, which only the flat policy reaches:
        its shifted polynomial is exactly zero, so its value is too."""
        result = grid_search(Posynomial(((-1.0, 1.0),)), beta, n, 1 / (5 * n))
        assert result.policy.values == (1.0 / n,) * n
        assert result.value == 0.0

    def test_basis_above_the_cap_is_refused_before_it_is_built(self, monkeypatch):
        from contest_opt import optimizer

        def no_basis(*args):
            raise AssertionError("built the basis")

        monkeypatch.setattr(optimizer, "basis_matrix", no_basis)
        quad = QuadratureConfig(m=200_000)
        with pytest.raises(BudgetExceededError, match="cap of %d" % MAX_GRID_BASIS):
            grid_search(ConvexCombo(0.0), 2.0, 60, 0.5, quad)
        # n = 5 fits at every node count the rule allows (m + 1 nodes)
        assert 5 * (MAX_M + 1) <= MAX_GRID_BASIS

    def test_granularity_must_divide_one(self):
        with pytest.raises(DomainError):
            grid_search(ConvexCombo(0.0), 2.0, 5, 0.03)

    def test_smoke_finds_winner_take_all_for_concave_cost(self):
        result = grid_search(ConvexCombo(0.0), 0.5, 5, 0.05)
        assert result.policy.values == hm(5).values

    def test_bottom_share_left_free(self):
        """Lattice points with positive bottom share are really evaluated:
        the best-of-lattice at unit cost ties 1/n regardless of p_n."""
        result = grid_search(ConvexCombo(0.0), 1.0, 3, 0.25)
        assert result.value == pytest.approx(1 / 3, abs=1e-3)

    def test_full_quadrature_pass_memory_is_bounded(self, child_peak_mb):
        """3765 candidates at 100,001 nodes once asked for one 2.8 GiB array."""
        peak_mb = child_peak_mb(
            "from contest_opt.cli import main\n"
            "assert main(['optimize', '--method', 'grid', '--n', '5', '--alpha', '0',"
            " '--beta', '2', '--granularity', '0.02', '--quad-m', '100000']) == 0\n"
        )
        assert peak_mb < 250


def recursive_lattice(total, parts, cap):
    """The lattice in the order grid_search breaks ties by, first share first."""
    if parts == 1:
        if total <= cap:
            yield (total,)
        return
    for first in range(min(total, cap), math.ceil(total / parts) - 1, -1):
        for rest in recursive_lattice(total - first, parts - 1, first):
            yield (first,) + rest


# every family, social welfare, whose rents make the bottom share count, and
# negative posynomial coefficients: 2q - 3q^2 + 2q^3 still rises in q, while
# q^(1/2) - 2q^2 rises, then falls
SCREEN_SPECS = (
    ConvexCombo(0.3),
    Posynomial(((2.0, 1.0), (-3.0, 2.0), (2.0, 3.0))),
    Posynomial(((1.0, 0.5), (-2.0, 2.0))),
    MaxOrderStat(),
    Exponential((1.5,)),
    SocialWelfare(((0.5, 1.0),)),
)
# the bracket's root form: 1.5/beta is no integer multiple of 1/beta, so that
# posynomial term takes its own power; a Taylor order of 50; an order past the
# degree bound, whose last term takes its own power too; and the welfare
# factor h at a power of q below the top one
ROOT_FORM_SPECS = (
    Posynomial(((1.0, 1.0), (1.0, 1.5))),
    Exponential((10.0,)),
    Exponential((1.5,), _HORNER_MAX_DEGREE + 1),
    SocialWelfare(((0.5, 1.0), (0.5, 2.0))),
)
# node counts that are multiples of neither stride
SCREEN_QUADS = (QuadratureConfig(m=997), QuadratureConfig(m=1003), QuadratureConfig(m=333))


class TestLatticeScreening:
    def test_screen_nodes_are_every_stride_th_and_the_last(self):
        """Index arithmetic gives the nodes np.unique gave, which imports
        numpy.ma on its first call."""
        for count in (1, 2, 3, 99, 100, 101, 1001, 5000):
            w = np.full(count, 1.0 / count)
            for stride in (1, 2, 5, 7, 20, 100):
                nodes, _, _ = _screen_weights(w, stride)
                want = np.unique(np.append(np.arange(0, count, stride), count - 1))
                assert nodes.dtype == want.dtype and np.array_equal(nodes, want), (count, stride)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_enumeration_order_is_the_recursive_one(self, n):
        for resolution in (1, 2, 7, 20, 50):
            want = np.array(list(recursive_lattice(resolution, n, resolution))) / resolution
            got = _lattice_matrix(n, resolution)
            assert got.shape == want.shape == (count_lattice_policies(n, resolution), n)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("quad", SCREEN_QUADS, ids=lambda q: "m%d" % q.m)
    def test_every_value_lies_in_its_bracket(self, quad):
        x, w = quad.nodes_weights()
        # (6, 12) holds the flat policy, whose g is exactly zero
        for n, resolution in ((3, 30), (5, 12), (6, 10), (6, 12)):
            shares = _lattice_matrix(n, resolution)
            pn = shares[:, -1]
            g = basis_matrix(n, x) @ (shares - shares[:, -1:]).T
            assert np.any(pn > 0)
            for spec in SCREEN_SPECS + ROOT_FORM_SPECS:
                for beta in (0.6, 1.0, 2.0, 2.8, 5.0):
                    value = lattice_value(spec, beta, g, pn, x, w, n)
                    for stride in (25, 5, 7):
                        nodes, w_low, w_high = _screen_weights(w, stride)
                        assert nodes[0] == 0 and nodes[-1] == len(x) - 1
                        assert w_low.sum() == pytest.approx(1.0, abs=1e-12)
                        assert w_high.sum() == pytest.approx(1.0, abs=1e-12)
                        lower, upper = lattice_bracket(spec, beta, g[nodes], pn, x[nodes],
                                                       w_low, w_high, n)
                        assert np.all(lower <= value), (spec, beta, stride)
                        assert np.all(value <= upper), (spec, beta, stride)
                    # the bracket's own contract at every node, w_low = w_high
                    # = w, where it is only its rounding allowance wide
                    lower, upper = lattice_bracket(spec, beta, g, pn, x, w, w, n)
                    assert np.all(lower <= value) and np.all(value <= upper), (spec, beta)

    @pytest.mark.parametrize("spec,beta", [(spec, 1.7) for spec in SCREEN_SPECS] + [
        # unit cost: every candidate with p_n = 0 is worth 1/n up to the
        # quadrature error, so hardly any can be ruled out
        (ConvexCombo(0.0), 1.0),
    ] + [(spec, 1.7) for spec in ROOT_FORM_SPECS] + [
        # exponents of g that overflow to inf, alone and beside a subnormal
        # one, so that their ratio to the smallest is nan or inf
        (Posynomial(((1.0, 1e300),)), 1e-10),
        (Posynomial(((1.0, 1e-300), (1.0, 1e300))), 1e-10),
        # coefficients whose sums overflow, so that some bracket ends are
        # inf - inf = nan, which rule nothing out
        (Posynomial(((1e308, 1.0), (1e308, 2.0))), 1.7),
    ] + [
        # the benchmark's five families at other betas
        (ConvexCombo(0.3), 0.9),
        (SCREEN_SPECS[1], 2.6),
        (MaxOrderStat(), 1.2),
        (Exponential((1.3,)), 2.2),
        (SocialWelfare(((0.5, 1.0),)), 0.7),
    ])
    def test_screened_argmax_is_the_exhaustive_one(self, spec, beta):
        x, w = GRID_QUAD.nodes_weights()
        for n, granularity in ((4, 0.05), (5, 0.04), (5, 0.05), (6, 0.05)):
            shares = _lattice_matrix(n, round(1 / granularity))
            g = basis_matrix(n, x) @ (shares - shares[:, -1:]).T
            # the shared kernel warns where a sum overflows; grid_search reads
            # the inf as a value and warns of nothing
            with np.errstate(over="ignore"):
                values = lattice_value(spec, beta, g, shares[:, -1], x, w, n)
            best = int(np.argmax(values))
            result = grid_search(spec, beta, n, granularity)
            assert result.policy.values == tuple(shares[best])
            assert result.value == pytest.approx(values[best], rel=1e-12, abs=0.0)
            assert result.nodes_explored == len(shares)

    @pytest.mark.parametrize("n, granularity, finalists", [(5, 0.04, 36), (4, 0.05, 21)])
    def test_a_nan_lower_end_still_screens(self, monkeypatch, n, granularity, finalists):
        """Sums that overflow leave some lower ends nan; the best lower end
        skips them, so the final pass gets a few of the candidates, not all."""
        spec = Posynomial(((1e308, 1.0), (1e308, 2.0)))
        seen, value, bracket = [], optimizer.lattice_value, optimizer.lattice_bracket

        def spy(spec, beta, g, *args):
            seen.append(g.shape[1])
            return value(spec, beta, g, *args)

        def screen(*args):
            seen.clear()  # values summed before the last bracket are incumbents
            return bracket(*args)

        monkeypatch.setattr(optimizer, "lattice_value", spy)
        monkeypatch.setattr(optimizer, "lattice_bracket", screen)
        result = grid_search(spec, 1.7, n, granularity)
        assert 0 < sum(seen) <= finalists < result.nodes_explored

    @pytest.mark.parametrize("spec,beta", [(SCREEN_SPECS[0], 1.7), (SCREEN_SPECS[1], 2.6),
                                           (MaxOrderStat(), 1.2), (ROOT_FORM_SPECS[1], 1.7)])
    def test_each_finalist_is_summed_once(self, monkeypatch, spec, beta):
        """No bracket takes every node, and the candidates that survive the
        last strided stage are each summed once at every node, after that
        stage's incumbent: as many columns as survivors, all distinct."""
        log, bracket, value = [], optimizer.lattice_bracket, optimizer.lattice_value

        def bracket_spy(spec, beta, g, pn, x, *args):
            lower, upper = bracket(spec, beta, g, pn, x, *args)
            log.append(("bracket", len(x), lower, upper))
            return lower, upper

        def value_spy(spec, beta, g, *args):
            log.append(("value", g.copy(), value(spec, beta, g, *args)))
            return log[-1][2]

        monkeypatch.setattr(optimizer, "lattice_bracket", bracket_spy)
        monkeypatch.setattr(optimizer, "lattice_value", value_spy)
        result = grid_search(spec, beta, 5, 0.04)
        nodes = len(GRID_QUAD.nodes_weights()[0])
        brackets = [entry for entry in log if entry[0] == "bracket"]
        assert all(count < nodes for _, count, _, _ in brackets)
        # after each stage's brackets, one incumbent: one column at every node
        incumbents = [entry[2][0] for before, entry in zip(log, log[1:])
                      if before[0] == "bracket" and entry[0] == "value"]
        assert len(incumbents) == len({count for _, count, _, _ in brackets}) == 3
        last = max(i for i, entry in enumerate(log) if entry[0] == "bracket")
        final = log[last + 2:]
        assert final and all(kind == "value" for kind, *_ in final)
        stage = [entry for entry in brackets if entry[1] == log[last][1]]
        lower, upper = (np.concatenate([entry[k] for entry in stage]) for k in (2, 3))
        threshold = np.fmax(np.fmax.reduce(lower), np.fmax.reduce(incumbents))
        columns = np.concatenate([g for _, g, _ in final], axis=1)
        assert columns.shape == (nodes, np.count_nonzero(~(upper < threshold)))
        assert len(np.unique(columns, axis=1).T) == columns.shape[1] < result.nodes_explored
        assert result.value == max(v.max() for _, _, v in final)

    def spy_upper_ends(self, monkeypatch):
        """Spy on grid_search's brackets: for each stage, by node count, the
        upper ends it computed, in candidate order."""
        uppers, bracket = {}, optimizer.lattice_bracket

        def spy(spec, beta, g, pn, x, *args):
            lower, upper = bracket(spec, beta, g, pn, x, *args)
            uppers.setdefault(len(x), []).append(upper)
            return lower, upper

        monkeypatch.setattr(optimizer, "lattice_bracket", spy)
        return uppers

    def test_all_nan_upper_ends_keep_every_candidate(self, monkeypatch):
        """Huge coefficients of both signs make every upper end inf - inf:
        nothing is ruled out, and the incumbent's pick does not raise."""
        spec = Posynomial(((1e308, 1e-300), (1e308, 2e-300), (-1e308, 3e-300), (-1e308, 4e-300)))
        uppers = self.spy_upper_ends(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"):
            result = grid_search(spec, 1.0, 4, 0.04)
        total = result.nodes_explored
        counts = [sum(u.size for u in parts) for _, parts in sorted(uppers.items())]
        first = np.concatenate(uppers[min(uppers)])
        assert np.all(np.isnan(first))
        assert counts == [total] * len(counts)
        assert result.policy.values == tuple(_lattice_matrix(4, 25)[0])

    @pytest.mark.parametrize("n, granularity", [(5, 0.04), (4, 0.05)])
    def test_an_inf_incumbent_keeps_exactly_the_inf_upper_ends(self, monkeypatch, n, granularity):
        spec = Posynomial(((1e308, 1.0), (1e308, 2.0)))
        uppers, value, incumbents = self.spy_upper_ends(monkeypatch), optimizer.lattice_value, []

        def spy(spec, beta, g, *args):
            out = value(spec, beta, g, *args)
            if not incumbents:
                incumbents.append(out)
            return out

        monkeypatch.setattr(optimizer, "lattice_value", spy)
        grid_search(spec, 1.7, n, granularity)
        assert incumbents[0].tolist() == [np.inf]
        first, second = (np.concatenate(uppers[k]) for k in sorted(uppers)[:2])
        assert not np.any(np.isnan(first))
        assert len(second) == np.sum(first == np.inf) > 0
        assert np.all(second == np.inf)

    @pytest.mark.parametrize("spec, beta, n, granularity", [
        # alpha = 0 at unit cost: every policy with p_n = 0 is worth 1/n,
        # up to the quadrature's rounding
        (ConvexCombo(0.0), 1.0, 5, 0.05),
        (ConvexCombo(0.0), 1.0, 6, 0.05),
        # q^(1e-300) is 1 wherever g > 0: every policy but the flat one is
        # worth exactly the same
        (Posynomial(((1.0, 1e-300),)), 1.0, 5, 0.05),
        (Posynomial(((1.0, 1e-300),)), 1.0, 4, 0.04),
    ], ids=["flat-5", "flat-6", "duplicates-5", "duplicates-4"])
    def test_ties_go_to_the_earliest_candidate(self, spec, beta, n, granularity):
        x, w = GRID_QUAD.nodes_weights()
        shares = _lattice_matrix(n, round(1 / granularity))
        values = lattice_value(spec, beta, basis_matrix(n, x) @ (shares - shares[:, -1:]).T,
                               shares[:, -1], x, w, n)
        result = grid_search(spec, beta, n, granularity)
        earliest = int(np.flatnonzero(values == values.max())[0])
        assert result.policy.values == tuple(shares[earliest])
        if isinstance(spec, Posynomial):
            assert earliest == 0 and np.sum(values == values.max()) >= len(values) - 1

    @pytest.mark.parametrize("spec, powers", [
        (Exponential((1.5,)), 1),
        (Exponential((1.0, 2.5)), 1),
        (SCREEN_SPECS[1], 1),
        (ROOT_FORM_SPECS[3], 1),
        (ROOT_FORM_SPECS[0], 2),
        (ROOT_FORM_SPECS[2], 2),
    ], ids=["exp", "exp_two_rates", "posynomial_both_signs", "social",
            "posynomial_fallback", "exp_past_degree_bound"])
    def test_powers_of_g(self, monkeypatch, spec, powers):
        """Terms of exponents j/beta share one power of g, so the bracket
        of an exponential costs one power, not one per Taylor term; a term
        past the degree bound, or of another exponent, adds its own."""
        x, w = GRID_QUAD.nodes_weights()
        shares = _lattice_matrix(5, 10)
        g = basis_matrix(5, x) @ (shares - shares[:, -1:]).T
        calls, power = [], np.power

        def spy(base, exponent, *args, **kwargs):
            calls.append(exponent)
            return power(base, exponent, *args, **kwargs)

        monkeypatch.setattr(np, "power", spy)
        lattice_bracket(spec, 1.7, g, shares[:, -1], x, w, w, 5)
        assert len(calls) == powers
