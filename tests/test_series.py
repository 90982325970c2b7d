"""Truncated formal power series arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hahnlab.errors import DomainError, ExactInputError, PoleError
from hahnlab.exact import GaussianRational, gr
from hahnlab.series import (FormalSeries, hypergeometric_series,
                            one_minus_t_power)

F = Fraction

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)
gaussians = st.builds(GaussianRational, rationals, rationals)
series6 = st.lists(gaussians, min_size=7, max_size=7).map(lambda c: FormalSeries(c, 6))


def test_constant_and_identity():
    one = FormalSeries.constant(1, 4)
    t = FormalSeries.identity(4)
    assert (one * t).coeffs == t.coeffs
    assert t.valuation() == 1
    assert one.valuation() == 0
    # outside 0..order a coefficient is 0, below as well as above
    assert FormalSeries([1, 2, 3], 2).coeff(-1) == 0
    assert FormalSeries([1, 2, 3], 2).coeff(3) == 0


def test_truncation_to_smaller_order():
    a = FormalSeries([1, 1, 1], 2)
    b = FormalSeries([1, 2], 1)
    assert (a * b).order == 1
    assert (a + b).order == 1
    with pytest.raises(DomainError):
        a.truncate(5)


def test_geometric_series():
    s = one_minus_t_power(-1, 5)
    assert [str(c) for c in s.coeffs] == ["1"] * 6


def test_binomial_power_integer_exponent():
    # (1-t)^3 terminates
    s = one_minus_t_power(3, 5)
    assert [c.re for c in s.coeffs] == [1, -3, 3, -1, 0, 0]


def test_binomial_power_rational_exponent_squares():
    # ((1-t)^(1/2))^2 = 1 - t
    h = one_minus_t_power(F(1, 2), 8)
    assert h * h == FormalSeries([1, -1], 8)


def test_reciprocal_inverts():
    f = FormalSeries([2, 1, F(1, 3), 0, 5], 4)
    assert f * f.reciprocal() == FormalSeries.constant(1, 4)
    with pytest.raises(DomainError):
        FormalSeries([0, 1], 1).reciprocal()


def test_compose_geometric_with_2t():
    # 1/(1-(2t)) = sum 2^k t^k
    geo = one_minus_t_power(-1, 5)
    inner = gr(2) * FormalSeries.identity(5)
    comp = geo.compose(inner)
    assert [c.re for c in comp.coeffs] == [1, 2, 4, 8, 16, 32]


def test_compose_requires_positive_valuation():
    with pytest.raises(DomainError):
        FormalSeries([1, 1], 1).compose(FormalSeries([1, 1], 1))


def test_hypergeometric_exponential():
    # 0F0(u) = e^u
    s = hypergeometric_series([], [], 6)
    assert s.coeffs[3] == gr(F(1, 6))
    assert s.coeffs[5] == gr(F(1, 120))


def test_hypergeometric_1f0_binomial():
    # 1F0(a; u) = (1-u)^{-a}
    a = F(3, 2)
    assert hypergeometric_series([a], [], 7) == one_minus_t_power(-a, 7)


def test_hypergeometric_series_rejects_poles_and_floats():
    # (-2)_k vanishes from k = 3 on; order 2 never reaches it
    assert hypergeometric_series([1], [-2], 2).coeffs == (gr(1), gr(F(-1, 2)), gr(F(1, 2)))
    with pytest.raises(PoleError):
        hypergeometric_series([1], [-2], 3)
    with pytest.raises(ExactInputError):
        hypergeometric_series([0.5], [], 3)


@given(series6, series6, series6)
@settings(max_examples=40, deadline=None)
def test_mul_commutative_associative(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


@given(series6, series6)
@settings(max_examples=40, deadline=None)
def test_add_mul_distribute(a, b):
    assert (a + b) * a == a * a + b * a
