"""Named, seeded verification checks behind the `verify` CLI command.

Every check returns a machine-readable record (name, status, worst
margin, seed).  Margins are the worst observed value of whatever quantity
the check thresholds, so a run can be audited without rerunning it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import bernstein, equilibrium, objective, optimizer, structure
from .objective import ConvexCombo, Exponential, MaxOrderStat, Posynomial, SocialWelfare
from .policy import Policy, hm, make_policy, two_level, uni
from .quadrature import QuadratureConfig, integrate


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail"
    worst_margin: float
    seed: int


def _result(name: str, ok: bool, margin: float, seed: int) -> CheckResult:
    return CheckResult(name, "pass" if ok else "fail", float(margin), seed)


def _random_policy(rng: np.random.Generator, n: int, zero_bottom: bool = True) -> Policy:
    raw = np.sort(rng.dirichlet(np.ones(n - 1 if zero_bottom else n)))[::-1]
    values = list(raw) + [0.0] if zero_bottom else list(raw)
    return make_policy(values)


def check_partition_of_unity(seed: int, trials: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(max(trials, 1000)):
        n = int(rng.integers(2, 41))
        x = rng.random()
        worst = max(worst, abs(bernstein.basis_matrix(n, np.array([x])).sum() - 1.0))
    return _result("bernstein.partition_of_unity", worst <= 1e-12, worst, seed)


def check_moment_integral(seed: int, trials: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    quad = QuadratureConfig(m=100_000, rule="trapezoid", exclude_left_endpoint=False)
    x, w = quad.nodes_weights()
    worst = 0.0
    for n in (2, 5, 17, 33):
        i = int(rng.integers(1, n + 1))
        numeric = float(integrate(bernstein.basis_matrix(n, x)[:, i - 1], w))
        worst = max(worst, abs(numeric - bernstein.basis_integral(n, i)))
    return _result("bernstein.moment_integral", worst <= 1e-8, worst, seed)


def check_h_monotone(seed: int, trials: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(trials):
        p = _random_policy(rng, int(rng.choice([3, 5, 8])))
        x = np.sort(rng.random(2))
        if x[1] - x[0] < 1e-9:
            continue
        values = bernstein.h_eval(p, x)
        worst = min(worst, values[1] - values[0])
    return _result("bernstein.h_monotone", worst > 0.0, worst, seed)


def check_inverse_roundtrip(seed: int, trials: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        p = _random_policy(rng, int(rng.choice([3, 5, 8])), zero_bottom=bool(rng.integers(2)))
        y = rng.uniform(p.pn, p.p1)
        worst = max(worst, abs(bernstein.h_eval(p, bernstein.h_inverse(p, y)) - y))
    return _result("bernstein.inverse_roundtrip", worst <= 1e-12, worst, seed)


def check_derivative_fd(seed: int, trials: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    delta = 1e-6
    worst = 0.0
    for _ in range(trials):
        p = _random_policy(rng, int(rng.choice([2, 3, 5, 8])), zero_bottom=False)
        x = rng.uniform(2 * delta, 1 - 2 * delta)
        fd = (bernstein.h_eval(p, x + delta) - bernstein.h_eval(p, x - delta)) / (2 * delta)
        worst = max(worst, abs(bernstein.h_derivative(p, x) - fd))
    return _result("bernstein.derivative_fd", worst <= 1e-6, worst, seed)


def h_exact(values, x: float) -> tuple[int, int]:
    """h(x, p) exactly, as (numerator, denominator), for p = `values` (floats
    or dyadic Fractions) and a float x.

    With x = a/d, the numerator is sum_k C(N, k) a^k (d-a)^(N-k) p_{n-k}
    over a common denominator, summed in integers by nested multiplication;
    nothing is normalised, so the cost stays linear in the size of the
    numbers per degree.
    """
    fx = Fraction(x)
    a, d = fx.numerator, fx.denominator
    shares = [Fraction(v) for v in values]
    common = max(f.denominator for f in shares)  # every denominator is a power of 2
    nums = [f.numerator * (common // f.denominator) for f in shares]
    top = len(values) - 1
    acc, power = nums[0], 1
    for k in range(top - 1, -1, -1):
        power *= d - a
        acc = acc * a + math.comb(top, k) * nums[top - k] * power
    return acc, d**top * common


def h_error_ratio(value: float, exact: tuple[int, int], n: int) -> float:
    """|value - exact| over the bound n 2^-52 exact + 1e-300, taken in
    integers: 1 or less meets the bound."""
    num, den = exact
    v, floor = Fraction(value), Fraction(1e-300)
    excess = abs(v.numerator * den - num * v.denominator) * 2**52 * floor.denominator
    bound = (n * num * floor.denominator + floor.numerator * den * 2**52) * v.denominator
    return excess / bound


def check_h_exact(seed: int, trials: int) -> CheckResult:
    """h and dh/dx against exact rational values, at the ends, the extremes
    of the doubles and random points: within n 2^-52 |h| + 1e-300 and
    (n-1) 2^-52 |dh/dx| + 1e-300."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(max(trials // 4, 5)):
        n = int(rng.integers(2, 41))
        p = _random_policy(rng, n, zero_bottom=bool(rng.integers(2)))
        x = np.append([0.0, 1.0, 1e-300, 2.0**-53, 1.0 - 2.0**-53, 0.5], rng.random(4))
        values = p.as_array().tolist()
        diffs = [Fraction(hi) - Fraction(lo) for hi, lo in zip(values, values[1:])]
        for xi, h, slope in zip(x, bernstein.h_eval(p, x), bernstein.h_derivative(p, x)):
            num, den = h_exact(diffs, xi)
            worst = max(worst, h_error_ratio(h, h_exact(values, xi), n),
                        h_error_ratio(slope, ((n - 1) * num, den), n - 1))
    return _result("bernstein.h_exact", worst <= 1.0, worst, seed)


def check_alpha_linearity(seed: int, trials: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    quad = QuadratureConfig(m=5000)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.choice([3, 5, 8]))
        p = _random_policy(rng, n)
        beta = rng.uniform(0.5, 4.0)
        alpha = rng.random()
        mixed = objective.evaluate(ConvexCombo(alpha), beta, p, quad)
        ends = alpha * objective.evaluate(ConvexCombo(1.0), beta, p, quad) + (
            1 - alpha
        ) * objective.evaluate(ConvexCombo(0.0), beta, p, quad)
        worst = max(worst, abs(mixed - ends))
    return _result("objective.alpha_linearity", worst <= 1e-12, worst, seed)


def check_flat_linear_cost(seed: int, trials: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    quad = QuadratureConfig(m=100_000)
    worst = 0.0
    for _ in range(max(trials // 10, 10)):
        n = int(rng.choice([3, 5, 8]))
        p = _random_policy(rng, n)
        worst = max(worst, abs(objective.evaluate(ConvexCombo(0.0), 1.0, p, quad) - 1.0 / n))
    return _result("objective.flat_linear_cost", worst <= 1.0 / quad.m, worst, seed)


def check_riemann_refinement(seed: int, trials: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0  # worst ratio of |difference| to its allowance
    for _ in range(min(trials, 20)):
        n = int(rng.choice([3, 5, 8]))
        p = _random_policy(rng, n)
        beta = rng.uniform(0.5, 4.0)
        m = int(rng.integers(50, 500))
        coarse = objective.evaluate(ConvexCombo(0.0), beta, p, QuadratureConfig(m=m))
        fine = objective.evaluate(ConvexCombo(0.0), beta, p, QuadratureConfig(m=100 * m))
        allowance = 1.0 / m + 1.0 / (100 * m)
        worst = max(worst, abs(coarse - fine) / allowance)
    return _result("objective.riemann_refinement", worst <= 1.0, worst, seed)


def check_gradient_fd(seed: int, trials: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    quad = QuadratureConfig(m=200_000)
    delta = 1e-6
    worst = 0.0
    for _ in range(min(trials, 25)):
        n = int(rng.choice([3, 5]))
        alpha, beta = rng.random(), rng.uniform(0.8, 3.0)
        spec = ConvexCombo(alpha)
        base = np.sort(rng.dirichlet(np.ones(n - 1) * 5.0))[::-1]
        p = make_policy(list(base) + [0.0])
        if n - 1 < 2:
            continue
        i, j = 0, n - 2
        grad = objective.gradient(spec, beta, p, quad)
        moved = base.copy()
        moved[i] += delta
        moved[j] -= delta
        if np.any(np.diff(moved) > 0):
            continue
        p_moved = make_policy(list(moved) + [0.0])
        fd = (objective.evaluate(spec, beta, p_moved, quad) - objective.evaluate(spec, beta, p, quad)) / delta
        worst = max(worst, abs((grad[i] - grad[j]) - fd))
    return _result("objective.gradient_fd", worst <= 1e-4, worst, seed)


def check_exponential_truncation(seed: int, trials: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    quad = QuadratureConfig(m=2000)
    worst = 0.0  # worst observed change over its theoretical allowance
    for _ in range(min(trials, 20)):
        lam = rng.uniform(0.5, 4.0)
        m_order = int(rng.integers(3, 12))
        p = _random_policy(rng, 5)
        beta = rng.uniform(0.8, 3.0)
        low = objective.evaluate(Exponential((lam,), m_order), beta, p, quad)
        high = objective.evaluate(Exponential((lam,), m_order + 1), beta, p, quad)
        allowance = math.exp(lam) * lam ** (m_order + 1) / math.factorial(m_order + 1)
        worst = max(worst, abs(high - low) / allowance)
    return _result("objective.exponential_truncation", worst <= 1.0, worst, seed)


def check_quantile_roundtrip(seed: int, trials: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        p = _random_policy(rng, int(rng.choice([3, 5, 8])), zero_bottom=bool(rng.integers(2)))
        model = equilibrium.EquilibriumModel(p, rng.uniform(0.5, 4.0))
        u = rng.random()
        q = rng.uniform(0.0, model.q_max)
        worst = max(worst, abs(equilibrium.cdf(model, equilibrium.quantile(model, u)) - u))
        worst = max(worst, abs(equilibrium.quantile(model, equilibrium.cdf(model, q)) - q))
    return _result("equilibrium.quantile_roundtrip", worst <= 1e-9, worst, seed)


def check_indifference(seed: int, trials: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(min(trials, 20)):
        p = _random_policy(rng, int(rng.choice([3, 5, 8])), zero_bottom=bool(rng.integers(2)))
        beta = rng.uniform(0.5, 4.0)
        model = equilibrium.EquilibriumModel(p, beta)
        qs = np.linspace(0.0, model.q_max, 102)[1:-1]
        f = equilibrium.cdf(model, qs)
        gap = np.abs(bernstein.h_eval(p, f) - p.pn - qs**beta)
        worst = max(worst, float(gap.max()))
    return _result("equilibrium.indifference", worst <= 1e-12, worst, seed)


def check_no_deviation_above_support(seed: int, trials: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(trials):
        p = _random_policy(rng, int(rng.choice([3, 5, 8])), zero_bottom=bool(rng.integers(2)))
        model = equilibrium.EquilibriumModel(p, rng.uniform(0.5, 4.0))
        q = model.q_max + rng.uniform(1e-9, 1.0)
        worst = max(worst, equilibrium.utility(model, q) - p.pn)
    return _result("equilibrium.no_deviation_above_support", worst <= 1e-12, worst, seed)


def check_revenue_monotone(seed: int, trials: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        p = _random_policy(rng, int(rng.choice([3, 5, 8])), zero_bottom=bool(rng.integers(2)))
        f = np.sort(rng.random(16))
        revenue = np.atleast_1d(equilibrium.expected_revenue(p, f))
        worst = max(worst, float(np.max(-np.diff(revenue), initial=0.0)))
    return _result("equilibrium.revenue_monotone", worst <= 1e-12, worst, seed)


def check_simulation(seed: int, trials: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    beta = 2.0
    policies = [hm(5), uni(5)] + [two_level(5, rng.uniform(0.25, 1.0)) for _ in range(5)]
    samples = max(100_000, trials * 500)
    worst = 0.0  # worst |empirical - analytic| in standard errors
    for p in policies:
        model = equilibrium.EquilibriumModel(p, beta)
        report = equilibrium.simulate(model, samples, int(rng.integers(2**31)))
        welfare, quality = equilibrium.welfare_quality_analytic(p, beta)
        worst = max(worst, abs(report.empirical_welfare - welfare) / report.welfare_se)
        worst = max(worst, abs(report.empirical_quality - quality) / report.quality_se)
    return _result("equilibrium.simulation_matches_analytic", worst <= 3.0, worst, seed)


def check_affine_decomposition(seed: int, trials: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(max(trials, 1000)):
        n = int(rng.choice([3, 5, 8, 12]))
        x = rng.random()
        p1 = rng.uniform(1.0 / (n - 1), 1.0)
        c0, c1 = optimizer.c_decomposition(n, x)
        direct = bernstein.h_eval(two_level(n, p1), x)
        worst = max(worst, abs(c0 + c1 * p1 - direct))
    return _result("optimizer.affine_decomposition", worst <= 1e-12, worst, seed)


def check_bound_sandwich(seed: int, trials: int) -> CheckResult:
    """The largest value of a 101-point scan of [lo, hi] lies below U, the
    rise/fall bound (`optimizer._rise_fall_upper`) or the better end's
    value where that is higher, for random intervals and objectives drawn
    from every family the line search covers (`_line_argmax_specs`); the
    scan and U read one `optimizer._BatchSums`.  The margin is the scan's
    largest excess over U, below 0 where U holds."""
    rng = np.random.default_rng(seed)
    # the sweep's default rule: at m = 20,000 the exponential's draws took
    # the whole `verify --trials 200` to 8.3 s wall on a 2-core VM
    quad = QuadratureConfig(m=5000)
    worst = -np.inf
    for _ in range(min(trials, 40)):
        n, beta = int(rng.choice([3, 5, 8])), float(rng.uniform(0.5, 4.0))
        specs = _line_argmax_specs(rng, beta)
        lo = rng.uniform(1.0 / (n - 1), 1.0)
        hi = rng.uniform(lo, 1.0)
        if not specs or hi - lo < 1e-6:
            continue
        batch = optimizer._BatchSums(optimizer._family(n, quad), specs, beta)
        at = batch.at(np.linspace(lo, hi, 101))  # row, point, objective
        upper = np.maximum(optimizer._rise_fall_upper(at[:, 0], at[:, -1]),
                           np.maximum(at[0, 0], at[0, -1]))
        worst = max(worst, float((at[0].max(axis=0) - upper).max()))
    return _result("optimizer.bound_sandwich", worst <= 1e-9, worst, seed)


def check_bnb_certificate(seed: int, trials: int) -> CheckResult:
    """B&B against its line search on the mix and on `MaxOrderStat`; the
    margin is the lower of the two B&B values less the line's."""
    cfg = optimizer.BnbConfig(epsilon=1e-3, quad=QuadratureConfig(m=50_000))
    ok, margin = True, np.inf
    for spec in (ConvexCombo(0.24), MaxOrderStat()):
        result = optimizer.branch_and_bound(5, spec, 2.0, cfg)
        line = optimizer.two_level_line_search(spec, 2.0, 5, steps=500)
        ok = ok and (
            result.certified
            and result.certified_gap is not None
            and result.certified_gap <= cfg.epsilon
            and result.value >= line.value - cfg.epsilon - line.certified_gap
        )
        margin = min(margin, result.value - line.value)
    return _result("optimizer.bnb_certificate", ok, margin, seed)


def _line_argmax_specs(rng: np.random.Generator, beta: float):
    """One to three objectives the line search covers at beta, from every
    family; a drawn posynomial outside the class is left out."""
    draws = (
        lambda: ConvexCombo(float(rng.random())),
        lambda: Posynomial(((float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.2, 1.5))),
                            (float(rng.uniform(0.1, 2.0)), float(rng.uniform(1.6, 4.0))))),
        lambda: MaxOrderStat(),
        lambda: Exponential((float(rng.uniform(0.2, 3.0)),)),
        lambda: SocialWelfare(((float(rng.random()), float(rng.uniform(0.5, 3.0))),)),
    )
    specs = [draws[int(i)]() for i in rng.integers(0, len(draws), int(rng.integers(1, 4)))]
    return [s for s in specs if objective.structural_condition_holds(s, beta)]


def check_line_argmax(seed: int, trials: int) -> CheckResult:
    """The line search's grid pick (`optimizer._chain_search` on its grid,
    unrefined) is the best point of a full scan of the grid, up to rounding
    ties: the margin is the largest shortfall of the pick's scanned value
    below the scan's best, relative to the terms' integrated magnitudes."""
    rng = np.random.default_rng(seed)
    quad = QuadratureConfig(m=400)
    worst = 0.0
    for _ in range(trials):
        n, beta = int(rng.integers(3, 13)), float(rng.uniform(0.2, 5.0))
        steps = int(rng.choice([2, 3, int(rng.integers(4, 300))]))
        specs = _line_argmax_specs(rng, beta)
        if not specs:
            continue
        fam = optimizer._family(n, quad)
        p1s = np.linspace(1.0 / (n - 1), 1.0, steps)
        _, picks = optimizer._chain_search(specs, beta, n, quad, p1s.__getitem__,
                                           optimizer._spread(steps))
        for spec, (pick, *_) in zip(specs, picks):
            scan = np.array([fam.value(spec, beta, p1) for p1 in p1s])
            best = int(np.argmax(scan))
            scale = optimizer._BatchSums(fam, [spec], beta).at(p1s[[pick, best]])[5].max()
            worst = max(worst, (scan[best] - scan[pick]) / scale)
    return _result("optimizer.line_argmax", worst <= 1e-12, worst, seed)


def check_sign_examples(seed: int, trials: int) -> CheckResult:
    cases = [
        ((1, -2, 3, 0, 4), 2, 4),
        ((1, 1, 1), 0, 0),
        ((0, 1), 0, 1),
        ((0, 0, 0), 0, 2),
    ]
    ok = True
    for seq, sm, sp in cases:
        pattern = structure.sign_changes(seq)
        ok = ok and pattern.s_minus == sm and pattern.s_plus == sp
    return _result("structure.sign_change_examples", ok, 0.0, seed)


def check_vd_sweep(seed: int, trials: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    quad = QuadratureConfig(m=20_000)
    worst = 0
    ok = True
    for _ in range(min(trials, 40)):
        n = int(rng.choice([3, 5, 8]))
        alpha, beta = rng.random(), rng.uniform(0.5, 4.0)
        p = _random_policy(rng, n)
        d = objective.gradient(ConvexCombo(alpha), beta, p, quad)
        lo, hi = float(np.min(d)), float(np.max(d))
        for lam in np.linspace(lo, hi, 50):
            pattern = structure.sign_changes(d - lam, zero_tol=1e-12 * max(1.0, hi))
            worst = max(worst, pattern.s_plus)
            if pattern.s_plus > 2:
                ok = False
            if pattern.s_plus == 2 and pattern.s_minus == 2 and pattern.pattern:
                if pattern.pattern[0] != 1 or pattern.pattern[-1] != 1:
                    ok = False
    return _result("structure.variation_diminishing_sweep", ok, float(worst), seed)


def check_schur_directions(seed: int, trials: int) -> CheckResult:
    expected = {0.3: "concave", 0.7: "concave", 1.0: "flat", 1.5: "convex", 3.0: "convex"}
    ok = True
    worst = 0.0
    for r, want in expected.items():
        for n in (3, 5, 8):
            report = structure.schur_direction(r, n, trials=min(trials, 200), seed=seed)
            if report.direction != want or report.counterexample is not None:
                ok = False
            if want == "flat":
                worst = max(worst, report.worst_margin)
    return _result("structure.schur_directions", ok, worst, seed)


def check_tp_minors(seed: int, trials: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = np.inf
    draws = max(10, min(trials, 100))
    for n in range(3, 11):
        for k in range(1, min(4, n - 1) + 1):
            for _ in range(draws):
                x = np.sort(rng.uniform(0.01, 0.99, size=k))
                if np.any(np.diff(x) <= 1e-6):
                    continue
                idx = np.sort(rng.choice(np.arange(1, n), size=k, replace=False))
                worst = min(worst, structure.vandermonde_minor(n, x, idx))
    return _result("structure.tp_minors", worst > 0.0, float(worst), seed)


def check_gradient_quasiconvexity(seed: int, trials: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    quad = QuadratureConfig(m=20_000)
    ok = True
    failures = 0
    for _ in range(min(trials, 50)):
        n = int(rng.choice([3, 5, 8]))
        alpha, beta = rng.random(), rng.uniform(0.5, 4.0)
        if rng.integers(2):
            p = two_level(n, rng.uniform(1.0 / (n - 1), 1.0))
        else:
            p = _random_policy(rng, n)
        d = objective.gradient(ConvexCombo(alpha), beta, p, quad)
        report = structure.check_gradient_quasiconvexity(d, p)
        if not report.is_quasiconvex:
            ok = False
            failures += 1
    return _result("structure.gradient_quasiconvexity", ok, float(failures), seed)


def check_bnb_visited_quasiconvex(seed: int, trials: int) -> CheckResult:
    quad = QuadratureConfig(m=20_000)
    trace: list[float] = []
    cfg = optimizer.BnbConfig(epsilon=5e-3, quad=quad)
    optimizer.branch_and_bound(5, 0.4, 2.5, cfg, trace=trace)
    ok = True
    failures = 0
    for p1 in trace:
        p = two_level(5, p1)
        d = objective.gradient(ConvexCombo(0.4), 2.5, p, quad)
        if not structure.check_gradient_quasiconvexity(d, p).is_quasiconvex:
            ok = False
            failures += 1
    return _result("structure.bnb_visited_quasiconvex", ok, float(failures), seed)


CHECKS: dict[str, Callable[[int, int], CheckResult]] = {
    "bernstein.partition_of_unity": check_partition_of_unity,
    "bernstein.moment_integral": check_moment_integral,
    "bernstein.h_monotone": check_h_monotone,
    "bernstein.inverse_roundtrip": check_inverse_roundtrip,
    "bernstein.derivative_fd": check_derivative_fd,
    "bernstein.h_exact": check_h_exact,
    "objective.alpha_linearity": check_alpha_linearity,
    "objective.flat_linear_cost": check_flat_linear_cost,
    "objective.riemann_refinement": check_riemann_refinement,
    "objective.gradient_fd": check_gradient_fd,
    "objective.exponential_truncation": check_exponential_truncation,
    "equilibrium.quantile_roundtrip": check_quantile_roundtrip,
    "equilibrium.indifference": check_indifference,
    "equilibrium.no_deviation_above_support": check_no_deviation_above_support,
    "equilibrium.revenue_monotone": check_revenue_monotone,
    "equilibrium.simulation_matches_analytic": check_simulation,
    "optimizer.affine_decomposition": check_affine_decomposition,
    "optimizer.bound_sandwich": check_bound_sandwich,
    "optimizer.bnb_certificate": check_bnb_certificate,
    "optimizer.line_argmax": check_line_argmax,
    "structure.sign_change_examples": check_sign_examples,
    "structure.variation_diminishing_sweep": check_vd_sweep,
    "structure.schur_directions": check_schur_directions,
    "structure.tp_minors": check_tp_minors,
    "structure.gradient_quasiconvexity": check_gradient_quasiconvexity,
    "structure.bnb_visited_quasiconvex": check_bnb_visited_quasiconvex,
}


def run_checks(only: str | None = None, seed: int = 0, trials: int = 200) -> list[CheckResult]:
    results = []
    for name, fn in CHECKS.items():
        if only and only not in name:
            continue
        results.append(fn(seed, trials))
    return results
