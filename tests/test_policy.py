"""Policy validation, named constructors and structure classification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contest_opt import (
    DomainError,
    NormalizationViolation,
    OrderViolation,
    classify_structure,
    hm,
    is_nontrivial,
    make_policy,
    parse_policy,
    two_level,
    uni,
)


class TestMakePolicy:
    def test_winner_take_all(self):
        assert make_policy((1, 0, 0, 0, 0)).values == (1.0, 0.0, 0.0, 0.0, 0.0)

    def test_uniform_except_last(self):
        assert make_policy((0.25, 0.25, 0.25, 0.25, 0)).values == uni(5).values

    def test_order_violation(self):
        with pytest.raises(OrderViolation):
            make_policy((0.2, 0.3, 0.5))

    def test_sum_violation(self):
        with pytest.raises(NormalizationViolation):
            make_policy((0.5, 0.4, 0.05))

    def test_negative_share(self):
        with pytest.raises(DomainError):
            make_policy((1.2, -0.1, -0.1))

    def test_too_short(self):
        with pytest.raises(DomainError):
            make_policy((1.0,))

    @given(st.integers(2, 10), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_accepts_every_sorted_simplex_vector(self, n, seed):
        rng = np.random.default_rng(seed)
        values = np.sort(rng.dirichlet(np.ones(n)))[::-1]
        p = make_policy(values)
        assert p.n == n


class TestNamedPolicies:
    def test_two_level_endpoints(self):
        assert two_level(5, 0.25).values == uni(5).values
        assert two_level(5, 1.0).values == hm(5).values

    def test_two_level_interior(self):
        np.testing.assert_allclose(two_level(5, 0.4).values, (0.4, 0.2, 0.2, 0.2, 0.0))

    def test_two_level_bounds(self):
        with pytest.raises(DomainError):
            two_level(5, 0.2)
        with pytest.raises(DomainError):
            two_level(5, 1.1)
        with pytest.raises(DomainError):
            two_level(2, 1.0)

    def test_nontriviality(self):
        assert is_nontrivial(hm(5))
        assert not is_nontrivial(make_policy((0.2,) * 5))
        almost = (0.2 + 1e-15, 0.2 - 1e-15, 0.2, 0.2, 0.2)
        assert not is_nontrivial(make_policy(almost))


class TestClassifyStructure:
    def test_two_level_tag(self):
        shape = classify_structure(make_policy((0.4, 0.2, 0.2, 0.2, 0)), 1e-9)
        assert shape.tag == "TwoLevel"
        assert shape.p1 == pytest.approx(0.4)

    def test_other_tag(self):
        assert classify_structure(make_policy((0.4, 0.3, 0.2, 0.1, 0)), 1e-9).tag == "Other"

    def test_named_take_precedence(self):
        assert classify_structure(hm(5), 1e-9).tag == "HM"
        assert classify_structure(uni(5), 1e-9).tag == "UNI"

    def test_two_level_family_always_matches(self):
        for n in (3, 5, 8):
            for p1 in np.linspace(1 / (n - 1), 1.0, 7):
                tag = classify_structure(two_level(n, p1), 1e-9).tag
                assert tag in ("HM", "UNI", "TwoLevel")
        assert classify_structure(two_level(5, 0.4), 1e-9).p1 == pytest.approx(0.4)

    def test_tolerance_semantics(self):
        near_uni = make_policy((0.26, 0.26, 0.24, 0.24, 0.0))
        assert classify_structure(near_uni, 0.01).tag == "UNI"
        assert classify_structure(near_uni, 1e-4).tag == "Other"

    @pytest.mark.parametrize("tol", [float("nan"), -1e-9, float("inf"), float("-inf")])
    def test_tolerance_must_be_finite_and_nonnegative(self, tol):
        with pytest.raises(DomainError, match="tolerance"):
            classify_structure(hm(5), tol)


class TestParsePolicy:
    def test_comma_separated(self):
        assert parse_policy("0.4,0.2,0.2,0.2,0").values == (0.4, 0.2, 0.2, 0.2, 0.0)

    def test_named(self):
        assert parse_policy("hm", 5).values == hm(5).values
        assert parse_policy("uni", 5).values == uni(5).values
        assert parse_policy("two:0.4", 5).values == two_level(5, 0.4).values

    def test_named_needs_n(self):
        with pytest.raises(DomainError):
            parse_policy("hm")

    def test_parse_error_carries_position(self):
        with pytest.raises(DomainError, match="position 2"):
            parse_policy("0.5,x,0.5")

    def test_round_trip_through_str(self):
        p = make_policy((0.4, 0.2, 0.2, 0.2, 0))
        assert parse_policy(str(p)).values == p.values
