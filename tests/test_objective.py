"""Reduced objective evaluation, gradients and the coefficient condition."""

import hashlib
import math

import numpy as np
import pytest

from contest_opt import (
    BudgetExceededError,
    ConvexCombo,
    DomainError,
    Exponential,
    MaxOrderStat,
    Posynomial,
    QuadratureConfig,
    ReductionPreconditionError,
    SocialWelfare,
    TrivialPolicyError,
    basis_matrix,
    check_posynomial_condition,
    evaluate,
    evaluate_hm_closed_form,
    gradient,
    gradient_weight,
    hm,
    make_policy,
    parse_objective_config,
    uni,
)
from contest_opt.bernstein import h_eval
from contest_opt.quadrature import MAX_M
from contest_opt.objective import (
    MAX_TAYLOR_TERMS,
    _Term,
    _plan,
    _slope_terms,
    _term_values,
    _terms,
    evaluate_error_bound,
    format_objective_config,
    hm_value,
    lattice_value,
)

# quality integral of the uniform-except-last policy at cost exponent 2,
# frozen from a 1e6-node right-Riemann sum of the closed-form integrand
# ((1 - (1-x)^4)/4)^(1/2), computed independently of the package
Q_UNI5_B2_ORACLE = 0.4370098421741337
W_UNI5_B2_ORACLE = 0.4682248757664499
ORACLE_QUAD = QuadratureConfig(m=10**6, rule="right_riemann")

FAST = QuadratureConfig(m=20_000)

# the five families, with terms dropped at alpha = 0 and 1, a negative
# coefficient, a power of x and two rates that share every exponent
WEIGHT_SPECS = (
    ConvexCombo(0.0),
    ConvexCombo(0.24),
    ConvexCombo(1.0),
    Posynomial(((0.5, 0.5), (1.0, 2.0))),
    Posynomial(((-1.0, 1.0), (2.0, 3.0))),
    MaxOrderStat(),
    Exponential((1.5, 0.5), truncation_m=6),
    SocialWelfare(((1.0, 1.0), (0.5, 2.0))),
)


def random_reduced_policy(rng, n):
    raw = np.sort(rng.dirichlet(np.ones(n - 1)))[::-1]
    return make_policy(list(raw) + [0.0])


def reduced_integrand(spec, beta, p, x):
    """The objective's integrand at x: `lattice_value` with x as its one
    node, of weight one."""
    xs = np.array([x])
    return float(lattice_value(spec, beta, h_eval(p, xs), 0.0, xs, np.ones(1), p.n))


class TestReducedIntegrand:
    def test_plain_quality_at_unit_cost(self):
        p = make_policy((0.5, 0.3, 0.2, 0.0))
        for x in (0.1, 0.5, 0.9):
            got = reduced_integrand(ConvexCombo(0.0), 1.0, p, x)
            assert got == pytest.approx(float(np.dot(
                [0.5, 0.3, 0.2, 0.0],
                [x**3, 3 * x**2 * (1 - x), 3 * x * (1 - x) ** 2, (1 - x) ** 3])))

    def test_pure_welfare_unit_cost(self):
        got = reduced_integrand(ConvexCombo(1.0), 1.0, hm(5), 0.5)
        assert got == pytest.approx(5 * (0.5**4) ** 2)

    def test_top_order_statistic(self):
        got = reduced_integrand(MaxOrderStat(), 2.0, hm(5), 0.5)
        assert got == pytest.approx(5 * 0.5**4 * (0.5**4) ** 0.5)

    def test_bottom_share_precondition(self):
        with pytest.raises(ReductionPreconditionError):
            evaluate(ConvexCombo(0.0), 1.0, make_policy((0.4, 0.3, 0.3)), FAST)

    def test_trivial_policy_rejected(self):
        with pytest.raises(TrivialPolicyError):
            evaluate(ConvexCombo(0.0), 1.0, make_policy((0.25,) * 4), FAST)


class TestEvaluate:
    def test_mean_share_at_unit_cost(self):
        rng = np.random.default_rng(21)
        for n in (3, 5, 8):
            p = random_reduced_policy(rng, n)
            assert evaluate(ConvexCombo(0.0), 1.0, p, FAST) == pytest.approx(
                1.0 / n, abs=1.0 / FAST.m
            )

    def test_winner_take_all_closed_form(self):
        got = evaluate(ConvexCombo(0.0), 2.0, hm(5), FAST)
        assert got == pytest.approx(1.0 / 3.0, abs=2.0 / FAST.m)

    def test_uniform_except_last_against_oracle(self):
        got = evaluate(ConvexCombo(0.0), 2.0, uni(5), ORACLE_QUAD)
        assert got == pytest.approx(Q_UNI5_B2_ORACLE, abs=1e-12)
        got_w = evaluate(ConvexCombo(1.0), 2.0, uni(5), ORACLE_QUAD)
        assert got_w == pytest.approx(W_UNI5_B2_ORACLE, abs=1e-12)

    def test_alpha_linearity_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = random_reduced_policy(rng, 5)
            alpha, beta = rng.random(), rng.uniform(0.5, 4)
            mixed = evaluate(ConvexCombo(alpha), beta, p, FAST)
            ends = alpha * evaluate(ConvexCombo(1.0), beta, p, FAST) + (1 - alpha) * evaluate(
                ConvexCombo(0.0), beta, p, FAST
            )
            assert mixed == pytest.approx(ends, abs=1e-12)

    def test_quadrature_above_the_cap_is_refused(self):
        assert ORACLE_QUAD.m == MAX_M
        with pytest.raises(BudgetExceededError, match="cap of %d" % MAX_M):
            QuadratureConfig(m=MAX_M + 1)

    @pytest.mark.parametrize("m", [1000.0, 1000.5, "1000"])
    def test_quadrature_of_a_non_integer_size_is_refused(self, m):
        with pytest.raises(DomainError, match="integer"):
            QuadratureConfig(m=m)

    def test_quadrature_takes_a_numpy_integer_size(self):
        assert QuadratureConfig(m=np.int64(1000)).nodes_weights()[0].shape == (1000,)

    def test_riemann_refinement_bound(self):
        """A monotone integrand pins successive Riemann sums together."""
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.choice([3, 5, 8]))
            p = random_reduced_policy(rng, n)
            beta = rng.uniform(0.5, 4)
            m = int(rng.integers(50, 400))
            coarse = evaluate(ConvexCombo(0.0), beta, p, QuadratureConfig(m=m))
            fine = evaluate(ConvexCombo(0.0), beta, p, QuadratureConfig(m=10 * m))
            assert abs(coarse - fine) <= 1.0 / m + 1.0 / (10 * m)

    def test_exponential_truncation_remainder(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            lam = rng.uniform(0.5, 4.0)
            order = int(rng.integers(3, 12))
            p = random_reduced_policy(rng, 5)
            beta = rng.uniform(0.8, 3.0)
            low = evaluate(Exponential((lam,), order), beta, p, FAST)
            high = evaluate(Exponential((lam,), order + 1), beta, p, FAST)
            bound = math.exp(lam) * lam ** (order + 1) / math.factorial(order + 1)
            assert abs(high - low) <= bound


def _memo_edge_cases():
    """(label, terms, x, g, pn) for each way a term sum can start."""
    x = np.linspace(0.01, 1.0, 300)
    rng = np.random.default_rng(9)
    g = np.column_stack([h_eval(random_reduced_policy(rng, 5), x) for _ in range(5)])
    g[:40] = 0.0  # where g vanishes, a negative coefficient gives -0.0
    yield "1d_g", _terms(ConvexCombo(0.24), 2.0, 5), x, g[:, 1], 0.0
    yield "1d_unit_power_alone", [_Term(1.0, 0.5)], x, g[:, 2], 0.0
    xcol = x[:, None]
    yield "constant_first", [_Term(0.7, 0.0), _Term(1.0, 0.5),
                             _Term(2.0, 0.5, times_h=True)], xcol, g, 0.0
    yield "negative_at_zero_g", [_Term(-1.5, 0.5), _Term(-1.0, 3.0)], xcol, g, 0.0
    yield "negative_constant_first", [_Term(-0.25, 0.0), _Term(1.0, 0.5)], xcol, g, 0.0
    pn = np.linspace(0.0, 0.2, g.shape[1])  # h = g + p_n, as on the full lattice
    yield "x_pow_times_h", [_Term(5.0, 0.5, x_pow=4.0, times_h=True),
                            _Term(1.0, 0.5)], xcol, g, pn
    yield "unit_x_pow_times_h", [_Term(1.0, 0.5, x_pow=3.0, times_h=True),
                                 _Term(-2.0, 0.5, x_pow=1.0)], xcol, g, pn
    yield "unit_power_then_more", [_Term(1.0, 0.5), _Term(1.0, 0.5),
                                   _Term(0.3, 0.5, times_h=True)], xcol, g, pn
    # the mix's slope at beta 2: a root one below the memo's, read off it,
    # and a root that is a negative multiple of e0; g > 0, where h^-0.5 is finite
    yield "negative_root_off_the_memo", [_Term(1.2, 0.5), _Term(0.3, -0.5)], xcol, g[40:], 0.0


class TestPowerMemo:
    """`_term_values` on a `_plan`: each group summed by Horner's rule from
    one power of g per root, against one power per term."""

    @staticmethod
    def reference(terms, x, g, pn):
        """The terms summed one at a time, each with its own power of g, from
        0.0, and the same sum of their magnitudes: the scale of the rounding."""
        total, size = np.zeros_like(g), np.zeros_like(g)
        for t in terms:
            part = np.power(g, t.g_exp) if t.g_exp != 0.0 else np.ones_like(g)
            if t.times_h:
                part = part * (g + pn)
            if t.x_pow:
                part = part * np.power(x, t.x_pow)
            total += t.coef * part
            size += abs(t.coef) * part
        return total, size

    @staticmethod
    def check_memo(plan, x, g, pn, memo, read_only):
        """The sum with `memo`, whose arrays are only read and are returned
        only under `read_only`."""
        held = [(power, power.copy()) for power in memo.values()]
        got = _term_values(plan, x, g, pn, memo, read_only)
        for power, bits in held:
            assert power.tobytes() == bits.tobytes()
        for power in memo.values():
            if got is power:
                assert read_only
            else:
                assert not np.shares_memory(got, power)
        return got

    def check_sum(self, terms, x, g, pn):
        """The same bits with an empty memo and a seeded one, within 1e-14
        of the reference's size, and no -0.0."""
        plan = _plan(terms)
        want, size = self.reference(terms, x, g, pn)
        got = self.check_memo(plan, x, g, pn, {}, False)
        assert np.all(np.abs(got - want) <= 1e-14 * size)
        assert not np.any(np.signbit(got) & (got == 0.0))
        # a memo already holding a power of this g from another objective's call
        for read_only in (False, True):
            shared: dict = {}
            _term_values(_plan(_terms(ConvexCombo(0.5), 2.0, 5)), x, g, 0.0, shared)
            assert self.check_memo(plan, x, g, pn, shared, read_only).tobytes() == got.tobytes()
            assert len(shared) <= 1

    @pytest.mark.parametrize("spec", [
        ConvexCombo(0.0), ConvexCombo(0.24), ConvexCombo(1.0), MaxOrderStat(),
        Posynomial(((-1.0, 1.0), (2.0, 3.0))), SocialWelfare(((1.0, 1.0), (0.5, 2.0))),
        Exponential((1.5, 0.5), truncation_m=4),  # its exponents recur, not next to each other
    ])
    def test_same_bits_with_and_without_a_shared_memo(self, spec):
        x = np.linspace(0.01, 1.0, 300)
        rng = np.random.default_rng(5)
        g = np.column_stack([h_eval(random_reduced_policy(rng, 5), x) for _ in range(7)])
        for pn in (0.0, np.linspace(0.0, 0.3, g.shape[1])):
            self.check_sum(_terms(spec, 2.0, 5), x[:, None], g, pn)

    @pytest.mark.parametrize("case", list(_memo_edge_cases()), ids=lambda case: case[0])
    def test_edge_cases_match_the_zero_started_sum(self, case):
        """Each starting shape sums to 0.0 + part_1 + ... up to rounding: a
        negative first part holds +0.0 where g is 0, not -0.0."""
        label, terms, x, g, pn = case
        self.check_sum(terms, x, g, pn)

    def test_a_lone_unit_term_is_the_memo_read_only(self):
        x = np.linspace(0.01, 1.0, 300)
        g = h_eval(uni(5), x)
        memo: dict = {}
        got = _term_values(_plan([_Term(1.0, 0.5)]), x, g, 0.0, memo, read_only=True)
        assert got is memo[0.5]

    def test_a_negative_multiple_of_e0_takes_its_own_root(self):
        """g^0.5 + g^-0.5 at g = 1/4 is 0.5 + 2; -0.5 is -1 times e0 = 0.5,
        no degree of the root e0, so it keeps a group of its own."""
        plan = _plan([_Term(1.0, 0.5), _Term(1.0, -0.5)])
        assert [group.root for group in plan] == [0.5, -0.5]
        assert _term_values(plan, np.ones(1), np.array([0.25]))[0] == 2.5
        # the mix's slope at beta 2 has exponents 0.5 and -0.5
        x = np.linspace(0.01, 1.0, 300)
        p = random_reduced_policy(np.random.default_rng(4), 5)
        h = h_eval(p, x)
        want, size = self.reference(_slope_terms(_terms(ConvexCombo(0.24), 2.0, 5)), x, h, 0.0)
        got = gradient_weight(ConvexCombo(0.24), 2.0, p, x)
        assert np.all(np.abs(got - want) <= 1e-14 * size)

    def test_an_exponential_takes_one_power(self, monkeypatch):
        """Its Taylor terms j/beta, j = 0..25, make one polynomial in
        q = h^(1/beta): one np.power at the nodes, not one per term."""
        calls = []
        power = np.power

        def spy(*args, **kwargs):
            calls.append(args[1:])
            return power(*args, **kwargs)

        monkeypatch.setattr(np, "power", spy)
        evaluate(Exponential((1.5,)), 2.0, uni(5))
        assert calls == [(0.5,)]


class TestClosedForm:
    def test_pure_welfare_two_players(self):
        assert evaluate_hm_closed_form(1.0, 1.0, 2) == pytest.approx(2 / 3)

    def test_pure_quality(self):
        assert evaluate_hm_closed_form(0.0, 2.0, 5) == pytest.approx(1 / 3)

    def test_mixed(self):
        assert evaluate_hm_closed_form(0.5, 1.0, 2) == pytest.approx(7 / 12)

    @pytest.mark.parametrize("n", [2, 5])
    @pytest.mark.parametrize("beta", [1e300, 1e308])
    def test_huge_beta_is_finite(self, n, beta):
        # at 1e308, beta * n overflows; the welfare term's limit is 1
        got = evaluate_hm_closed_form(0.5, beta, n)
        assert math.isfinite(got)
        spec = ConvexCombo(0.5)
        assert abs(got - evaluate(spec, beta, hm(n))) <= evaluate_error_bound(spec, beta, hm(n))

    FIVE = (
        ConvexCombo(0.24),
        Posynomial(((-1.0, 1.0), (2.0, 3.0))),
        MaxOrderStat(),
        Exponential((1.5,), truncation_m=6),
        SocialWelfare(((1.0, 1.0), (0.5, 2.0))),
    )

    @pytest.mark.parametrize("beta", [0.6, 2.0])
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    @pytest.mark.parametrize("spec", FIVE)
    def test_every_family_matches_the_quadrature(self, spec, n, beta):
        got = hm_value(spec, beta, n)
        bound = evaluate_error_bound(spec, beta, hm(n), FAST)
        assert abs(got - evaluate(spec, beta, hm(n), FAST)) <= bound

    def test_the_mix_is_the_two_term_formula(self):
        """Within 1e-15, relative, of alpha * beta n / (beta n + n - 1)
        + (1 - alpha) * beta / (beta + n - 1)."""
        rng = np.random.default_rng(17)
        for _ in range(2000):
            alpha, beta = float(rng.random()), float(10.0 ** rng.uniform(-3.0, 3.0))
            n = int(rng.integers(2, 50))
            want = (alpha * beta * n / (beta * n + n - 1)
                    + (1.0 - alpha) * beta / (beta + n - 1))
            assert abs(hm_value(ConvexCombo(alpha), beta, n) - want) <= 1e-15 * want

    @pytest.mark.parametrize("beta", [1e308, 1e-300])
    @pytest.mark.parametrize("spec", FIVE)
    def test_extreme_betas_are_finite(self, spec, beta):
        for n in (2, 5):
            assert math.isfinite(hm_value(spec, beta, n))

    def test_subnormal_beta_keeps_the_constant_term(self):
        """At beta 5e-324, 1/beta overflows to inf; the constant Taylor term
        of an Exponential keeps exponent 0, where 0 * inf would be nan.  A
        RuntimeWarning from the package fails the test (pyproject.toml)."""
        spec = Exponential((1.5,), truncation_m=6)
        assert hm_value(spec, 5e-324, 5) == 1.0
        assert math.isfinite(evaluate(spec, 5e-324, hm(5)))

    def test_needs_two_players(self):
        with pytest.raises(DomainError, match="n must be >= 2"):
            hm_value(MaxOrderStat(), 2.0, 1)


class TestGradient:
    def test_constant_at_unit_cost_pure_quality(self):
        rng = np.random.default_rng(31)
        for n in (3, 5, 8):
            p = random_reduced_policy(rng, n)
            d = gradient(ConvexCombo(0.0), 1.0, p, FAST)
            np.testing.assert_allclose(d, 1.0 / n, atol=5e-4)

    def test_winner_take_all_beta_closed_form(self):
        """Each entry is 10 * Beta(10-i, i) * C(4, i-1), strictly decreasing."""
        d = gradient(ConvexCombo(1.0), 1.0, hm(5), QuadratureConfig(m=200_000))
        np.testing.assert_allclose(d, [10 / 9, 5 / 9, 5 / 21, 5 / 63], atol=1e-4)
        assert np.all(np.diff(d) < 0)

    def test_matches_directional_finite_differences(self):
        rng = np.random.default_rng(37)
        quad = QuadratureConfig(m=200_000)
        delta = 1e-6
        for _ in range(10):
            n = int(rng.choice([3, 5]))
            alpha, beta = rng.random(), rng.uniform(0.8, 3.0)
            base = np.sort(rng.dirichlet(np.ones(n - 1) * 5))[::-1]
            p = make_policy(list(base) + [0.0])
            d = gradient(ConvexCombo(alpha), beta, p, quad)
            moved = base.copy()
            moved[0] += delta
            moved[-1] -= delta
            if np.any(np.diff(moved) > 0):
                continue
            p_moved = make_policy(list(moved) + [0.0])
            fd = (
                evaluate(ConvexCombo(alpha), beta, p_moved, quad)
                - evaluate(ConvexCombo(alpha), beta, p, quad)
            ) / delta
            assert d[0] - d[n - 2] == pytest.approx(fd, abs=1e-4)

    def test_blocked_sum_matches_one_product(self):
        rng = np.random.default_rng(43)
        for spec, n in ((ConvexCombo(0.3), 5), (MaxOrderStat(), 8), (ConvexCombo(0.0), 399)):
            p = uni(n) if n > 8 else random_reduced_policy(rng, n)
            x, w = FAST.nodes_weights()
            weight = gradient_weight(spec, 2.0, p, x)
            want = (weight * w) @ basis_matrix(n, x)[:, : n - 1]
            np.testing.assert_allclose(gradient(spec, 2.0, p, FAST), want, rtol=1e-12, atol=0.0)

    # sha256 over the hex of every weight below
    WEIGHT_SHA256 = "2faccc201c800c1e57b047265cb3b9b6b32597d2f2de0accc711a79f40965896"

    def test_weight_bits_are_pinned(self):
        """The weight's bits over the five families, seeded reduced policies
        at n = 3-8 and four betas, at nodes that include both ends.  Each
        value is computed pointwise, with no reduction that BLAS threads
        could reorder."""
        rng = np.random.default_rng(61)
        x = np.linspace(0.0, 1.0, 65)
        digest = hashlib.sha256()
        with np.errstate(divide="ignore", invalid="ignore"):
            for n in range(3, 9):
                for p in (uni(n), random_reduced_policy(rng, n), random_reduced_policy(rng, n)):
                    for beta in (0.5, 1.0, 2.0, 2.8):
                        for spec in WEIGHT_SPECS:
                            weights = list(gradient_weight(spec, beta, p, x))
                            weights += [gradient_weight(spec, beta, p, end) for end in (0.0, 1.0)]
                            digest.update(" ".join(map(float.hex, weights)).encode())
        assert digest.hexdigest() == self.WEIGHT_SHA256

    def test_memory_does_not_scale_with_points_times_n(self, child_peak_mb):
        """uni(399) at DEFAULT_QUAD once built a 100,000 x 399 basis (709 MB peak)."""
        peak_mb = child_peak_mb(
            "from contest_opt import ConvexCombo, gradient, uni\n"
            "from contest_opt.objective import DEFAULT_QUAD\n"
            "assert gradient(ConvexCombo(0.0), 2.0, uni(399), DEFAULT_QUAD).shape == (398,)\n"
        )
        assert peak_mb < 250


class TestPosynomialCondition:
    def test_concave_then_convex_reward(self):
        ok, transition = check_posynomial_condition(((2, 1), (-3, 2), (2, 3)), 2.0)
        assert ok and transition == 1

    def test_nonnegative_coefficients_always_pass(self):
        ok, _ = check_posynomial_condition(((1, 1), (2, 2), (0.5, 4)), 7.0)
        assert ok

    def test_double_sign_change_fails(self):
        ok, transition = check_posynomial_condition(((1, 1), (-1, 2), (1, 3)), 5.0)
        assert not ok and transition is None


class TestConfigFormat:
    @pytest.mark.parametrize("text", [
        "objective=convex alpha=0.24",
        "objective=posynomial terms=2:1,-3:2,2:3",
        "objective=orderstat",
        "objective=exp lambdas=1.5",
        "objective=social terms=1:1,0.5:2",
    ])
    def test_round_trip(self, text):
        spec = parse_objective_config(text)
        assert parse_objective_config(format_objective_config(spec)) == spec

    def test_terms_are_sorted_on_parse(self):
        spec = parse_objective_config("objective=posynomial terms=2:3,-3:2,2:1")
        assert spec.terms == ((2.0, 1.0), (-3.0, 2.0), (2.0, 3.0))

    def test_social_welfare_rejects_negative_platform_terms(self):
        with pytest.raises(Exception):
            SocialWelfare(platform_terms=((-1.0, 2.0),))

    @pytest.mark.parametrize("text, key", [
        ("objective=convex", "alpha="),
        ("objective=posynomial", "terms="),
        ("objective=exp", "lambdas="),
        ("objective=convex alpha=abc", "alpha="),
        ("objective=exp lambdas=1 truncation=x", "truncation="),
        ("objective=posynomial terms=1:2:3", "terms="),
        ("objective=orderstat alpha=0.3 lambdas=2", "alpha=, lambdas="),
        ("objective=social alpha=0.3", "alpha="),
        ("objective=convex alpha=0.1 alpha=0.2", "alpha="),
    ])
    def test_bad_keys_name_the_key(self, text, key):
        with pytest.raises(DomainError, match=key):
            parse_objective_config(text)

    @pytest.mark.parametrize("make", [
        lambda v: Posynomial(((1.0, v),)),
        lambda v: Posynomial(((v, 1.0),)),
        lambda v: SocialWelfare(((v, 1.0),)),
        lambda v: SocialWelfare(((1.0, v),)),
        lambda v: Exponential((v,)),
        lambda v: Exponential((1.0, v)),
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_parameters_are_refused(self, make, value):
        with pytest.raises(DomainError, match="finite"):
            make(value)

    def test_exponential_sums_must_not_overflow(self):
        Exponential((709.0, 709.0))  # 2 e^709 is below the largest double
        for lambdas in ((800.0,), (709.0, 709.0, 709.0)):
            with pytest.raises(DomainError, match="overflow"):
                Exponential(lambdas)

    def test_taylor_terms_above_the_cap_are_refused(self):
        # the default order at the largest rate, twice, is admitted
        assert len(_terms(Exponential((709.0, 709.0)), 2.0, 5)) <= MAX_TAYLOR_TERMS
        Exponential((1.0,), truncation_m=MAX_TAYLOR_TERMS - 1)
        for spec in (dict(lambdas=(1.0,), truncation_m=MAX_TAYLOR_TERMS),
                     dict(lambdas=(1.0,), truncation_m=10**8),
                     dict(lambdas=(1.0,) * 250)):  # 24 terms each
            with pytest.raises(BudgetExceededError, match="cap of %d" % MAX_TAYLOR_TERMS):
                Exponential(**spec)

    def test_posynomial_requires_increasing_exponents(self):
        with pytest.raises(Exception):
            Posynomial(terms=((1.0, 2.0), (1.0, 2.0)))
