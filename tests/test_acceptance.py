"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Criterion 6 checks the HM/UNI quality values against their closed forms and
asserts the ratio's 2/sqrt(n) law and its 0.1 crossing between n=398 and 399.
"""

import itertools
import math
import time

import numpy as np
from contest_opt import (
    BnbConfig,
    ConvexCombo,
    EquilibriumModel,
    Exponential,
    MaxOrderStat,
    Posynomial,
    QuadratureConfig,
    branch_and_bound,
    check_gradient_quasiconvexity,
    classify_structure,
    evaluate,
    evaluate_hm_closed_form,
    gradient,
    grid_search,
    hm,
    make_policy,
    schur_direction,
    sign_changes,
    simulate,
    two_level,
    two_level_line_search,
    uni,
    vandermonde_minor,
    welfare_quality_analytic,
)
from contest_opt.optimizer import LINE_QUAD

SMOOTH_QUAD = QuadratureConfig(m=100_000)
DEFAULT_M = 100_000


def verdict(num: int, ok: bool, detail: str) -> None:
    line = "[criterion %02d] %s: %s" % (num, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


def random_reduced_policy(rng, n):
    raw = np.sort(rng.dirichlet(np.ones(n - 1)))[::-1]
    return make_policy(list(raw) + [0.0])


def test_criterion_01_closed_form_agreement():
    start = time.monotonic()
    worst = 0.0
    for alpha, beta, n in itertools.product(
        (0.0, 0.24, 0.5, 1.0), (0.5, 1.0, 2.0, 4.0), (2, 3, 5, 8)
    ):
        got = evaluate(ConvexCombo(alpha), beta, hm(n), SMOOTH_QUAD)
        want = evaluate_hm_closed_form(alpha, beta, n)
        worst = max(worst, abs(got - want))
    elapsed = time.monotonic() - start
    ok = worst <= 2.0 / DEFAULT_M and elapsed < 10.0
    verdict(1, ok, "worst |quadrature-closed|=%.3g (tol %.3g), %.1fs" % (
        worst, 2.0 / DEFAULT_M, elapsed))


def test_criterion_02_flatness_at_unit_cost():
    rng = np.random.default_rng(20260810)
    quad = QuadratureConfig(m=DEFAULT_M)
    worst = 0.0
    for n in (3, 5, 8):
        policies = [hm(n), uni(n)] + [random_reduced_policy(rng, n) for _ in range(10)]
        for p in policies:
            worst = max(worst, abs(evaluate(ConvexCombo(0.0), 1.0, p, quad) - 1.0 / n))
    ok = worst <= 1.0 / DEFAULT_M
    verdict(2, ok, "worst |value - 1/n|=%.3g (tol %.3g)" % (worst, 1.0 / DEFAULT_M))


def test_criterion_03_phase_transition():
    smoke_start = time.monotonic()
    smoke = {
        0.5: grid_search(ConvexCombo(0.0), 0.5, 5, 0.02),
        2.0: grid_search(ConvexCombo(0.0), 2.0, 5, 0.02),
    }
    smoke_elapsed = time.monotonic() - smoke_start
    smoke_tags = {b: classify_structure(r.policy, 0.01).tag for b, r in smoke.items()}

    full_concave = grid_search(ConvexCombo(0.0), 0.5, 5, 0.005)
    full_convex = grid_search(ConvexCombo(0.0), 2.0, 5, 0.005)
    ok = (
        full_concave.policy.values == hm(5).values
        and full_convex.policy.values == uni(5).values
        and smoke_elapsed < 30.0
        and smoke_tags == {0.5: "HM", 2.0: "UNI"}
    )
    verdict(3, ok, "0.005 lattice: beta=0.5 -> %s, beta=2 -> %s; smoke %.1fs tags %s" % (
        full_concave.policy, full_convex.policy, smoke_elapsed, smoke_tags))


def test_criterion_04_two_level_structure():
    tags = {}
    ok = True
    for alpha in (0.1, 0.24, 0.5, 0.9):
        result = grid_search(ConvexCombo(alpha), 2.0, 5, 0.02)
        shape = classify_structure(result.policy, 0.01)
        tags[alpha] = shape.tag
        ok = ok and shape.tag in ("HM", "UNI", "TwoLevel") and result.policy.pn == 0.0
    verdict(4, ok, "0.02 lattice shapes at beta=2: %s" % tags)


def test_criterion_05_bnb_certificates(holder_constants):
    rng = np.random.default_rng(99)
    start = time.monotonic()
    epsilon = 1e-3
    worst_gap = 0.0
    worst_depth_slack = np.inf
    ok = True
    for _ in range(20):
        alpha = float(rng.uniform(0.05, 1.0))
        beta = float(rng.uniform(0.5, 4.0))
        cfg = BnbConfig(epsilon=epsilon)
        result = branch_and_bound(5, alpha, beta, cfg)
        line = two_level_line_search(ConvexCombo(alpha), beta, 5, steps=1000)
        ok = ok and result.certified and result.certified_gap <= epsilon
        ok = ok and result.value >= line.value - epsilon - (line.certified_gap or 0.0)
        worst_gap = max(worst_gap, result.certified_gap)

        c1, c2 = holder_constants(5, alpha, beta)
        delta = (alpha * 5 + 1 - alpha) / cfg.quad.m
        eps_prime = epsilon - 4 * delta  # termination threshold net of quadrature
        domain = 1.0 - 1.0 / 4.0
        levels = [math.log2(c1 * domain / eps_prime)] if c1 > 0 else []
        if c2 > 0:
            levels.append(beta * math.log2(c2 * domain ** (1 / beta) / eps_prime))
        depth_bound = max(levels) + 1
        ok = ok and result.max_depth <= depth_bound
        worst_depth_slack = min(worst_depth_slack, depth_bound - result.max_depth)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    verdict(5, ok, "20 runs: worst gap %.2g <= %.2g, depth slack >= %.1f, %.1fs" % (
        worst_gap, epsilon, worst_depth_slack, elapsed))


def uni_quality_closed_form(beta: float, n: int) -> float:
    """Exact I[h^(1/beta)] of the uniform policy, h = (1 - (1-x)^k)/k, k = n-1.

    With y = 1-x and t = y^k the integral is (1/k) B(1/k, 1+1/beta) scaled by
    k^(-1/beta), i.e. k^(-1/beta) G(1+1/k) G(1+1/beta) / G(1+1/k+1/beta).
    """
    k = n - 1
    return math.exp(
        -math.log(k) / beta
        + math.lgamma(1 + 1 / k)
        + math.lgamma(1 + 1 / beta)
        - math.lgamma(1 + 1 / k + 1 / beta)
    )


def test_criterion_06_price_of_winner_take_all():
    start = time.monotonic()
    beta = 2.0
    ns = (5, 10, 20, 50, 100, 398, 399)
    ratios, exact_ratios = {}, {}
    worst_rel, bounds_ok, law_ok = 0.0, True, True
    for n in ns:
        hm_value = evaluate(ConvexCombo(0.0), beta, hm(n), SMOOTH_QUAD)
        uni_value = evaluate(ConvexCombo(0.0), beta, uni(n), SMOOTH_QUAD)
        hm_exact = evaluate_hm_closed_form(0.0, beta, n)
        uni_exact = uni_quality_closed_form(beta, n)
        worst_rel = max(worst_rel, abs(hm_value / hm_exact - 1), abs(uni_value / uni_exact - 1))
        ratios[n] = hm_value / uni_value
        exact_ratios[n] = hm_exact / uni_exact
        bounds_ok = bounds_ok and uni_value >= 0.25 * (n - 1) ** (-0.5)
        law_ok = law_ok and ratios[n] < 2.0 / math.sqrt(n)
    ordered = [ratios[n] for n in ns]
    monotone = all(b < a for a, b in zip(ordered, ordered[1:]))
    agree = worst_rel <= 1e-6
    crossing = ratios[398] >= 0.1 > ratios[399]
    elapsed = time.monotonic() - start
    table = ", ".join("n=%d:%.7f/%.7f" % (n, ratios[n], exact_ratios[n]) for n in ns)
    ok = monotone and bounds_ok and agree and law_ok and crossing
    verdict(6, ok, (
        "HM/UNI ratio computed/closed {%s}; worst rel err %.2g (tol 1e-6); "
        "monotone=%s, lower-bound=%s, below-2/sqrt(n)=%s, "
        "ratio(398)=%.7f >= 0.1 > ratio(399)=%.7f: %s; %.1fs"
        % (table, worst_rel, monotone, bounds_ok, law_ok,
           ratios[398], ratios[399], crossing, elapsed)))


def test_criterion_07_equilibrium_validation():
    start = time.monotonic()
    model = EquilibriumModel(hm(5), 2.0)
    report = simulate(model, 10**6, seed=2026)
    elapsed = time.monotonic() - start
    w_err = abs(report.empirical_welfare - 5.0 / 7.0)
    q_err = abs(report.empirical_quality - 1.0 / 3.0)
    gain_allow = 3 * report.deviation_se + 1e-3
    ok = (
        w_err <= 3 * report.welfare_se
        and q_err <= 3 * report.quality_se
        and report.max_deviation_gain <= gain_allow
        and elapsed < 30.0
    )
    verdict(7, ok, "W err %.2g<=%.2g, Q err %.2g<=%.2g, dev gain %.2g<=%.2g, %.1fs" % (
        w_err, 3 * report.welfare_se, q_err, 3 * report.quality_se,
        report.max_deviation_gain, gain_allow, elapsed))


def test_criterion_08_gradient_structure():
    rng = np.random.default_rng(8)
    quad = QuadratureConfig(m=20_000)
    failures = 0
    worst_changes = 0
    for _ in range(100):
        n = int(rng.choice([3, 5, 8]))
        alpha, beta = float(rng.random()), float(rng.uniform(0.5, 4.0))
        if rng.integers(2):
            p = two_level(n, float(rng.uniform(1.0 / (n - 1), 1.0)))
        else:
            p = random_reduced_policy(rng, n)
        d = gradient(ConvexCombo(alpha), beta, p, quad)
        if not check_gradient_quasiconvexity(d, p).is_quasiconvex:
            failures += 1
        scale = max(1.0, float(np.max(np.abs(d))))
        for lam in np.linspace(d.min(), d.max(), 50):
            worst_changes = max(worst_changes, sign_changes(d - lam, 1e-12 * scale).s_plus)
    ok = failures == 0 and worst_changes <= 2
    verdict(8, ok, "100 instances: %d quasiconvexity failures, max sign changes %d" % (
        failures, worst_changes))


def test_criterion_09_schur_directions():
    expected = {0.3: "concave", 0.7: "concave", 1.0: "flat", 1.5: "convex", 3.0: "convex"}
    observed = {}
    ok = True
    for r, want in expected.items():
        for n in (3, 5, 8):
            report = schur_direction(r, n, trials=200, seed=9)
            observed[(r, n)] = report.direction
            ok = ok and report.direction == want and report.counterexample is None
    verdict(9, ok, "directions %s" % {k: v for k, v in sorted(observed.items())})


def test_criterion_10_total_positivity():
    rng = np.random.default_rng(10)
    smallest = np.inf
    count = 0
    for n in range(3, 11):
        for k in range(1, min(4, n - 1) + 1):
            draws = 0
            while draws < 100:
                x = np.sort(rng.uniform(0.01, 0.99, size=k))
                if k > 1 and np.any(np.diff(x) < 1e-6):
                    continue
                idx = np.sort(rng.choice(np.arange(1, n), size=k, replace=False))
                smallest = min(smallest, vandermonde_minor(n, x, idx))
                draws += 1
                count += 1
    ok = smallest > 0.0
    verdict(10, ok, "%d minors sampled, smallest %.3g" % (count, smallest))


def test_criterion_11_quadrature_contract():
    rng = np.random.default_rng(11)
    worst_ratio = 0.0
    for _ in range(20):
        n = int(rng.choice([3, 5, 8]))
        p = random_reduced_policy(rng, n)
        beta = float(rng.uniform(0.5, 4.0))
        m = int(rng.integers(50, 500))
        coarse_quad, fine_quad = QuadratureConfig(m=m), QuadratureConfig(m=100 * m)
        coarse = welfare_quality_analytic(p, beta, coarse_quad)
        fine = welfare_quality_analytic(p, beta, fine_quad)
        allowance = coarse_quad.monotone_error_bound() + fine_quad.monotone_error_bound()
        for pick in (1, 0):  # quality integrand, then welfare integrand over n
            diff = abs(coarse[pick] - fine[pick]) / (1 if pick else n)
            worst_ratio = max(worst_ratio, diff / allowance)
    ok = worst_ratio <= 1.0
    verdict(11, ok, "worst |T_m - T_100m| at %.3g of its allowance" % worst_ratio)


def test_criterion_12_generalized_objectives():
    specs = {
        "posynomial": Posynomial(((2.0, 1.0), (-3.0, 2.0), (2.0, 3.0))),
        "orderstat": MaxOrderStat(),
        "exponential": Exponential((1.5,)),
    }
    granularity = 0.02
    quad = QuadratureConfig(m=50_000)
    details, ok = [], True
    for name, spec in specs.items():
        line = two_level_line_search(spec, 2.0, 5, steps=1000)
        grid = grid_search(spec, 2.0, 5, granularity)
        shape = classify_structure(grid.policy, 0.01)
        # first-order lattice error: rounding the optimum onto the lattice
        # moves each share by at most the granularity, and a sum-preserving
        # move changes the value by at most half the gradient spread per
        # unit of l1 movement
        d = gradient(spec, 2.0, line.policy, quad)
        lattice_error = 0.5 * float(d.max() - d.min()) * 5 * granularity + 1e-4
        # the grid's argmax scored on the line search's quadrature, so both
        # values are sums of one rule
        on_line_quad = evaluate(spec, 2.0, grid.policy, LINE_QUAD)
        within = line.value - lattice_error <= grid.value and on_line_quad <= line.value + 1e-6
        ok = ok and shape.tag in ("HM", "UNI", "TwoLevel") and within
        details.append("%s: %s, |line-grid|=%.2g<=%.2g" % (
            name, shape.tag, abs(line.value - grid.value), lattice_error))
    verdict(12, ok, "; ".join(details))
