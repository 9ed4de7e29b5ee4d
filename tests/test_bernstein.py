"""Basis, policy polynomial, derivative and inverse."""

from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contest_opt import (
    BudgetExceededError,
    DomainError,
    RangeError,
    TrivialPolicyError,
    basis_integral,
    basis_matrix,
    h_derivative,
    h_eval,
    h_inverse,
    hm,
    make_policy,
    uni,
)
from contest_opt import bernstein
from contest_opt.verify import h_error_ratio, h_exact

# independent closed-form inversion of the uniform-except-last polynomial:
# (1 - (1-x)^4)/4 = 0.125  =>  x = 1 - 0.5^(1/4)
UNI5_INVERSE_AT_0125 = 0.1591035847462855


def random_policy(rng, n, zero_bottom=False):
    raw = np.sort(rng.dirichlet(np.ones(n - 1 if zero_bottom else n)))[::-1]
    values = list(raw) + ([0.0] if zero_bottom else [])
    return make_policy(values)


class TestBasisEval:
    def test_first_element_is_power(self):
        assert basis_matrix(5, np.array([0.5]))[0, 0] == pytest.approx(0.0625, abs=1e-15)

    def test_last_element_is_complement_power(self):
        assert basis_matrix(5, np.array([0.25]))[0, 4] == pytest.approx(0.31640625, abs=1e-15)

    def test_partition_of_unity_random(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = int(rng.integers(2, 41))
            x = rng.random()
            total = basis_matrix(n, np.array([x])).sum()
            assert abs(total - 1.0) <= 1e-12

    @given(st.integers(2, 80), st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_partition_of_unity_everywhere(self, n, x):
        total = basis_matrix(n, np.array([x])).sum()
        assert abs(total - 1.0) <= 1e-11

    def test_stable_for_large_degree(self):
        """Log-space binomials keep mid-range elements finite at n = 60+."""
        values = basis_matrix(100, np.array([0.5]))
        assert np.all(np.isfinite(values))
        assert np.all(values >= 0)
        assert values.sum() == pytest.approx(1.0, abs=1e-12)

    def test_endpoints_exact(self):
        at_zero, at_one = basis_matrix(7, np.array([0.0, 1.0]))
        assert at_zero[6] == 1.0 and at_one[0] == 1.0
        assert at_zero[2] == 0.0

    def test_selected_columns_are_the_matrix_columns(self):
        """Each column is bit for bit the same whichever others come with it."""
        x = np.append(np.linspace(0.0, 1.0, 2001), [1e-300, 1.0 - 1e-16])
        for n in range(2, 41):
            full = basis_matrix(n, x)
            for ranks in ([1, n], [n, 1], list(range(1, n + 1, 3))):
                cols = bernstein.basis_columns(n, x, ranks)
                assert np.array_equal(cols, full[:, np.array(ranks) - 1])
        assert bernstein.basis_columns(5, 0.5, [1]).shape == (1, 1)
        with pytest.raises(DomainError):
            bernstein.basis_columns(5, x, [0])
        with pytest.raises(DomainError):
            bernstein.basis_columns(5, x, [6])

    def test_x_out_of_range(self):
        with pytest.raises(DomainError):
            basis_matrix(5, np.array([1.5]))


class TestBasisIntegral:
    def test_closed_form(self):
        assert basis_integral(5, 3) == pytest.approx(0.2)
        assert basis_integral(2, 1) == pytest.approx(0.5)

    def test_sums_to_one(self):
        for n in (2, 5, 9):
            assert sum(basis_integral(n, i) for i in range(1, n + 1)) == pytest.approx(1.0)

    def test_matches_quadrature(self):
        x = np.linspace(0.0, 1.0, 100_001)
        for n in (2, 5, 17, 33):
            for i in (1, (n + 1) // 2, n):
                numeric = np.trapezoid(basis_matrix(n, x)[:, i - 1], x)
                assert abs(numeric - basis_integral(n, i)) <= 1e-8


class TestHEval:
    def test_uniform_except_last_closed_form(self):
        p = uni(5)
        for x in (0.0, 0.1, 0.3, 0.7, 1.0):
            assert h_eval(p, x) == pytest.approx((1 - (1 - x) ** 4) / 4, abs=1e-14)

    def test_winner_take_all_is_pure_power(self):
        assert h_eval(hm(5), 0.3) == pytest.approx(0.3**4, abs=1e-15)

    def test_boundaries(self):
        p = make_policy((0.5, 0.3, 0.2))
        assert h_eval(p, 1.0) == pytest.approx(0.5)
        assert h_eval(p, 0.0) == pytest.approx(0.2)

    def test_strictly_increasing_for_nontrivial(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = random_policy(rng, int(rng.choice([3, 5, 8])))
            x = np.sort(rng.random(2))
            if x[1] - x[0] < 1e-9:
                continue
            lo, hi = h_eval(p, x)
            assert hi > lo


class TestHDerivative:
    def test_winner_take_all(self):
        for n in (3, 5, 8):
            for x in (0.2, 0.5, 0.9):
                assert h_derivative(hm(n), x) == pytest.approx(
                    (n - 1) * x ** (n - 2), rel=1e-12
                )

    def test_trivial_policy_is_flat(self):
        p = make_policy((0.2,) * 5)
        for x in (0.0, 0.4, 1.0):
            assert h_derivative(p, x) == pytest.approx(0.0, abs=1e-15)

    def test_matches_central_differences(self):
        """Finite differences are the arbiter for the derivative formula."""
        rng = np.random.default_rng(123)
        delta = 1e-6
        for _ in range(300):
            p = random_policy(rng, int(rng.choice([2, 3, 5, 8])))
            x = rng.uniform(2 * delta, 1 - 2 * delta)
            fd = (h_eval(p, x + delta) - h_eval(p, x - delta)) / (2 * delta)
            assert h_derivative(p, x) == pytest.approx(fd, abs=1e-6)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(5)
        x = np.linspace(0, 1, 101)
        for _ in range(50):
            p = random_policy(rng, int(rng.choice([3, 5, 8])))
            assert np.all(h_derivative(p, x) >= 0)


class TestHInverse:
    def test_winner_take_all_quarter_root(self):
        assert h_inverse(hm(5), 0.0625) == pytest.approx(0.5, abs=1e-11)

    def test_top_boundary(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = random_policy(rng, 5)
            assert h_inverse(p, p.p1) == pytest.approx(1.0, abs=1e-11)

    def test_uniform_except_last_closed_form(self):
        assert h_inverse(uni(5), 0.125) == pytest.approx(UNI5_INVERSE_AT_0125, abs=1e-11)

    def test_round_trip(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            p = random_policy(rng, int(rng.choice([3, 5, 8])), zero_bottom=bool(rng.integers(2)))
            y = rng.uniform(p.pn, p.p1)
            assert h_eval(p, h_inverse(p, y)) == pytest.approx(y, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(RangeError):
            h_inverse(uni(5), 0.5)

    @pytest.mark.parametrize("y", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_target_rejected(self, y):
        with pytest.raises(RangeError, match="finite"):
            h_inverse(hm(5), y)
        with pytest.raises(RangeError, match="finite"):
            h_inverse(hm(5), [0.5, y])

    def test_trivial_policy_rejected(self):
        with pytest.raises(TrivialPolicyError):
            h_inverse(make_policy((0.25,) * 4), 0.25)

    @pytest.mark.parametrize("tol", [float("nan"), -1e-12, float("inf"), float("-inf")])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(DomainError, match="tol"):
            h_inverse(hm(5), [0.01, 0.5], tol=tol)

    def test_zero_tolerance_stops_when_the_bisection_stalls(self):
        assert h_inverse(hm(5), 0.0625, tol=0.0) == pytest.approx(0.5, abs=1e-15)


def plain_bisection(p, y, steps=bernstein.MAX_BISECT):
    """`steps` bisection steps with no early exit, endpoints set exactly."""
    y = np.clip(np.asarray(y, dtype=float), p.pn, p.p1)
    lo, hi = np.zeros_like(y), np.ones_like(y)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        below = h_eval(p, mid) < y
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    out = 0.5 * (lo + hi)
    out[y == p.pn] = 0.0
    out[y == p.p1] = 1.0
    return out


class TestStalledBisection:
    """Below the spacing of doubles, bisection stops once no bracket moves."""

    @pytest.mark.parametrize("n", [11, 12, 20, 50])
    def test_same_bits_as_every_step(self, monkeypatch, n):
        rng = np.random.default_rng(n)
        for zero_bottom in (True, False):
            p = random_policy(rng, n, zero_bottom=zero_bottom)
            beta = rng.uniform(0.8, 3.0)
            q_max = (p.p1 - p.pn) ** (1.0 / beta)
            # the CDF table's targets, both ends included, and random ones
            y = np.concatenate([p.pn + np.linspace(0.0, q_max, 101) ** beta,
                                rng.uniform(p.pn, p.p1, 50), [p.pn, p.p1]])
            calls = []
            real = bernstein.h_eval
            monkeypatch.setattr(bernstein, "h_eval", lambda *a: calls.append(1) or real(*a))
            x = h_inverse(p, y, tol=1e-15)
            monkeypatch.setattr(bernstein, "h_eval", real)
            assert np.array_equal(x, plain_bisection(p, y))
            assert len(calls) < bernstein.MAX_BISECT // 2

    def test_all_targets_at_the_ends_take_no_step(self, monkeypatch):
        p = uni(12)
        monkeypatch.setattr(bernstein, "h_eval", None)  # would fail if called
        assert np.array_equal(h_inverse(p, [p.pn, p.p1, p.pn], tol=1e-15), [0.0, 1.0, 0.0])


class TestBlockedEvaluation:
    """Work in blocks: values keep the shape of x, and memory does not grow
    with points times n."""

    SHAPES = [(), (1,), (7,), (1000,), (4097,), (4161,), (3, 333), (50, 41), (2, 3, 129)]

    def test_scalar_and_zero_d_inputs_give_floats(self):
        p = uni(20)
        for x in (0.3, np.float64(0.3), np.array(0.3)):
            assert isinstance(h_eval(p, x), float) and isinstance(h_derivative(p, x), float)
            assert h_eval(p, x) == bernstein._nested_dot(20, np.array([0.3]), p.as_array())[0]

    def test_memory_does_not_scale_with_points_times_n(self, child_peak_mb):
        """uni(399) at DEFAULT_QUAD once built a 100,000 x 399 basis (~690 MB)."""
        peak_mb = child_peak_mb(
            "from contest_opt import ConvexCombo, evaluate, uni\n"
            "from contest_opt.objective import DEFAULT_QUAD\n"
            "assert 0.0 < evaluate(ConvexCombo(0.0), 2.0, uni(399), DEFAULT_QUAD) < 1.0\n"
        )
        assert peak_mb < 250


EXTREMES = [0.0, 1.0, 1e-300, 2.0**-53, 1.0 - 2.0**-53, 0.5]


def fraction_h(values, x):
    """h(x, p) as a plain sum of exact fractions."""
    n, fx = len(values), Fraction(x)
    return sum(comb(n - 1, i) * fx ** (n - 1 - i) * (1 - fx) ** i * Fraction(v)
               for i, v in enumerate(values))


def worst_error_ratios(p, x):
    """Largest errors of h and of dh/dx at the points x over their bounds,
    n 2^-52 |h| + 1e-300 and (n-1) 2^-52 |dh/dx| + 1e-300."""
    n, values = p.n, p.as_array().tolist()
    diffs = [Fraction(hi) - Fraction(lo) for hi, lo in zip(values, values[1:])]
    worst_h = worst_slope = 0.0
    for xi, h, slope in zip(x, h_eval(p, x), h_derivative(p, x)):
        num, den = h_exact(diffs, xi)
        worst_h = max(worst_h, h_error_ratio(h, h_exact(values, xi), n))
        worst_slope = max(worst_slope, h_error_ratio(slope, ((n - 1) * num, den), n - 1))
    return worst_h, worst_slope


class TestNestedKernel:
    """h and dh/dx by nested multiplication, against exact rational values."""

    def test_integer_reference_is_the_fraction_sum(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 7, 12):
            values = random_policy(rng, n).as_array().tolist()
            for x in EXTREMES + list(rng.random(3)):
                num, den = h_exact(values, x)
                assert Fraction(num, den) == fraction_h(values, x)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 20, 60])
    def test_within_the_error_bound(self, n):
        rng = np.random.default_rng(n)
        x = np.append(EXTREMES, rng.random(20))
        for p in (uni(n), hm(n), random_policy(rng, n), random_policy(rng, n, zero_bottom=True)):
            assert max(worst_error_ratios(p, x)) <= 1.0

    def test_within_the_error_bound_at_the_split(self):
        """At the largest n that h takes, `_NESTED_MAX_N`, both meet the bound."""
        # exact powers of x = 1e-300 take minutes at this degree
        rng = np.random.default_rng(1000)
        x = np.array([0.0, 1.0, 2.0**-53, 1.0 - 2.0**-53, rng.random()])
        p = random_policy(rng, bernstein._NESTED_MAX_N)
        assert max(worst_error_ratios(p, x)) <= 1.0

    def test_refused_above_the_cap(self, monkeypatch):
        """One above `_NESTED_MAX_N`, h (checked or not), dh/dx and the
        inverse raise BudgetExceededError before any array of points is
        built."""

        class NoArray:
            def __array__(self, *args, **kwargs):
                raise AssertionError("an array of points was built")

        monkeypatch.setattr(bernstein, "_nested_dot", None)  # would fail if called
        p = uni(bernstein._NESTED_MAX_N + 1)
        for fn in (h_eval, bernstein.h_values, h_derivative, h_inverse):
            with pytest.raises(BudgetExceededError, match="cap of n = 1000"):
                fn(p, NoArray())
        # the inverse refuses even targets at the ends, which need no h
        with pytest.raises(BudgetExceededError):
            h_inverse(p, [p.pn, p.p1])

    def test_endpoints_exact(self):
        rng = np.random.default_rng(17)
        for n in (2, 3, 5, 20, 60, 399):
            for p in (uni(n), hm(n), random_policy(rng, n)):
                assert h_eval(p, 0.0) == p.pn and h_eval(p, 1.0) == p.p1

    @pytest.mark.parametrize("shape", TestBlockedEvaluation.SHAPES + [(63,), (64,), (65,), (129,)])
    def test_every_value_is_its_scalar_call(self, monkeypatch, shape):
        """Bits depend neither on the shape of x nor on a point's place in a block."""
        monkeypatch.setattr(bernstein, "_NESTED_BLOCK", 64)
        rng = np.random.default_rng(len(shape) * 1000 + sum(shape))
        for n in (2, 13):
            p = random_policy(rng, n)
            x = rng.random(shape)
            if x.ndim:
                x.flat[::7] = rng.choice(EXTREMES, x.flat[::7].size)
            value, slope = h_eval(p, x), h_derivative(p, x)
            assert np.shape(value) == np.shape(slope) == shape
            scalar = [(h_eval(p, float(xi)), h_derivative(p, float(xi))) for xi in np.ravel(x)]
            assert np.array_equal(np.ravel(value), [v for v, _ in scalar])
            assert np.array_equal(np.ravel(slope), [s for _, s in scalar])

    def test_bits_do_not_depend_on_the_block(self):
        """Points on both sides of a block boundary, moved into other blocks."""
        size = 2 * bernstein._NESTED_BLOCK + 1
        rng = np.random.default_rng(5)
        p = random_policy(rng, 12)
        x = rng.random(size)
        value = h_eval(p, x)
        assert np.array_equal(value[::-1], h_eval(p, x[::-1]))
        assert np.array_equal(value[1:], h_eval(p, x[1:]))
        for i in (0, bernstein._NESTED_BLOCK - 1, bernstein._NESTED_BLOCK, size - 1):
            assert value[i] == h_eval(p, float(x[i]))
