"""Differential calculus on the (1-tanh)^a (1+tanh)^b * q(tanh) algebra."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hahnlab import operator_calculus
from hahnlab.errors import DomainError, ExactInputError, StructureError
from hahnlab.exact import ExactPoly, GaussianRational, gr
from hahnlab.operator_calculus import (SIGN_NOTE, WeightedTanhFunction, d_dx,
                                       derive_recurrence,
                                       hahn_operator_identity_check,
                                       recurrence_check,
                                       shifted_operator_identity_check,
                                       weight_function)
from hahnlab.polynomials import HahnParams, chahn_coeffs_exact
from hahnlab.suites import run_suites

F = Fraction
HALF = F(1, 2)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=8)
small_polys = st.lists(
    st.builds(GaussianRational, rationals, rationals), min_size=1, max_size=4
).map(ExactPoly)


def test_derivative_of_sech():
    # alpha = beta = 1/2 is sech x; d/dx sech = -sech tanh
    f = weight_function(HALF, HALF)
    assert d_dx(f).poly == ExactPoly([0, -1])


def test_derivative_of_tanh_factor():
    # alpha = beta = 0, q = t: d/dx tanh = 1 - tanh^2
    g = WeightedTanhFunction(0, 0, ExactPoly.x())
    assert d_dx(g).poly == ExactPoly([1, 0, -1])


def test_derivative_degree_growth():
    for k in (0, 1, 3, 5):
        f = WeightedTanhFunction(F(1, 3), F(2, 5), ExactPoly([1] * (k + 1)))
        assert d_dx(f).poly.degree <= k + 1


@given(small_polys, small_polys)
@settings(max_examples=40, deadline=None)
def test_product_rule_on_poly_factor(q1, q2):
    alpha, beta = F(1, 3), F(5, 7)
    lhs = d_dx(WeightedTanhFunction(alpha, beta, q1 * q2)).poly
    one_minus_t2 = ExactPoly([1, 0, -1])
    rhs = d_dx(WeightedTanhFunction(alpha, beta, q1)).poly * q2 \
        + q1 * q2.derivative() * one_minus_t2
    assert lhs == rhs


def test_shifted_operator_r0_is_identity():
    assert shifted_operator_identity_check(F(2, 3), F(4, 5), 0).passed


def test_shifted_operator_r1_closed_form():
    # single application: (alpha+beta)(1-t)/2 * w
    alpha, beta = F(1, 3), F(2, 5)
    f = weight_function(alpha, beta)
    applied = WeightedTanhFunction(
        alpha, beta,
        gr(alpha) * f.poly + GaussianRational(HALF) * d_dx(f).poly)
    expected = gr(alpha + beta) * GaussianRational(HALF) * ExactPoly([1, -1])
    assert applied.poly == expected


def test_shifted_operator_grid():
    for r in range(9):
        assert shifted_operator_identity_check(F(3, 4), F(5, 4), r).passed


def test_shifted_operator_cap():
    with pytest.raises(DomainError):
        shifted_operator_identity_check(1, 1, 33)


def test_hahn_operator_n0_trivial():
    assert hahn_operator_identity_check(0, F(1, 3), F(2, 5), F(1, 7), F(3, 8)).passed


def test_hahn_operator_bateman_case():
    # alpha = beta = 1/2, gamma = delta = 0: the sech / Legendre relation
    for n in range(7):
        assert hahn_operator_identity_check(n, HALF, HALF, 0, 0).passed


def test_hahn_operator_pasternack_case():
    # alpha = beta = (m+1)/2, gamma = delta = 0 with m = 1/3
    for n in range(7):
        assert hahn_operator_identity_check(n, F(2, 3), F(2, 3), 0, 0).passed


def test_hahn_operator_parameter_grid():
    tuples = [
        (HALF, HALF, HALF, HALF),
        (F(3, 4), F(5, 4), F(1, 3), F(2, 5)),
        (F(1, 3), F(7, 5), F(3, 7), F(1, 6)),
        (F(2, 3), F(2, 3), 0, 0),
        (F(5, 6), F(1, 6), F(1, 4), F(3, 4)),
    ]
    for alpha, beta, gamma, delta in tuples:
        for n in range(6):
            report = hahn_operator_identity_check(n, alpha, beta, gamma, delta)
            assert report.passed, report.name


def test_hahn_operator_requires_positive_weight():
    with pytest.raises(DomainError):
        hahn_operator_identity_check(1, F(-1, 2), HALF, 0, 0)


def _quoted_d_dx(f):
    """d/dx with the quoted log-derivative factor alpha + beta + (alpha - beta) t."""
    a, b = gr(f.alpha), gr(f.beta)
    poly = ExactPoly([a + b, a - b]) * f.poly + ExactPoly([1, 0, -1]) * f.poly.derivative()
    return WeightedTanhFunction(f.alpha, f.beta, poly)


@pytest.mark.parametrize("check, args", [
    (hahn_operator_identity_check, (2, F(3, 4), F(5, 4), F(1, 3), F(2, 5))),
    (shifted_operator_identity_check, (F(3, 4), F(5, 4), 2)),
], ids=["hahn-operator", "shifted-operator"])
def test_failing_operator_residual_is_in_the_details(monkeypatch, check, args):
    monkeypatch.setattr(operator_calculus, "d_dx", _quoted_d_dx)
    report = check(*args)
    assert report.status == "fail" and report.max_abs_err > 0.0
    assert report.details.startswith(SIGN_NOTE + "; residual ")
    assert len(report.details) > len(SIGN_NOTE + "; residual ")


def test_recurrence_check_passes_and_names_the_case():
    report = recurrence_check("all 1/2", HahnParams(HALF, HALF, HALF, HALF), 1)
    assert report.passed
    assert report.name == "recurrence[all 1/2, n=1]"
    assert report.details == "A_n=1/3"


def test_recurrence_check_reports_a_failed_derivation(monkeypatch):
    def broken(n, params):
        raise StructureError("x p_1 expansion has nonzero coefficients below n-1")

    monkeypatch.setattr(operator_calculus, "derive_recurrence", broken)
    report = recurrence_check("all 1/2", HahnParams(HALF, HALF, HALF, HALF), 1)
    assert report.status == "fail"
    assert report.max_abs_err == report.max_rel_err == float("inf")
    assert "nonzero coefficients" in report.details


def test_recurrence_check_compares_all_three_coefficients():
    """B_n and C_n are compared too, exactly: the details carry A_n alone on
    a pass."""
    conjugate = HahnParams(GaussianRational(HALF, F(1, 4)), GaussianRational(F(3, 4), F(-1, 4)),
                           GaussianRational(HALF, F(-1, 4)), GaussianRational(F(3, 4), F(1, 4)))
    for params in (HahnParams(F(3, 4), F(2, 3), HALF, F(2, 5)), conjugate):
        for n in range(1, 7):
            report = recurrence_check("case", params, n)
            assert report.passed and report.details.startswith("A_n=")


@pytest.mark.parametrize("index", [1, 2], ids=["C_1", "C_2"])
def test_recurrence_suite_fails_on_a_negated_c(monkeypatch, index):
    """The Gram's recurrence with the sign of C_1 or C_2 flipped fails the
    recurrence suite (C_2 reaches no N = 3 Gram of verify --suite all)."""
    real = operator_calculus._chahn_recurrence

    def mutated(N, *params):
        out = real(N, *params)
        if len(out) > index:
            a_n, b_n, c_n = out[index]
            out[index] = (a_n, b_n, -c_n)
        return out

    assert all(r.passed for r in run_suites("recurrence"))
    monkeypatch.setattr(operator_calculus, "_chahn_recurrence", mutated)
    failed = [r.name for r in run_suites("recurrence") if not r.passed]
    assert failed == [f"recurrence[{label}, n={index}]"
                      for label in ("all 1/2", "conjugate pair")]


def test_recurrence_symmetric_halves():
    params = HahnParams(HALF, HALF, HALF, HALF)
    a1, b1, c1 = derive_recurrence(1, params)
    # p_1 = 2x, lc(p_2) = 6, so A_1 = 2/6
    assert a1 == gr(F(1, 3))
    assert b1 == gr(0)


def test_recurrence_symmetric_parity_kills_b():
    params = HahnParams(F(2, 3), F(2, 3), F(2, 3), F(2, 3))
    for n in range(1, 7):
        _, b_n, _ = derive_recurrence(n, params)
        assert b_n == gr(0)


def test_recurrence_leading_coefficient_ratio():
    params = HahnParams(F(1, 2), F(1, 3), F(1, 2), F(1, 3))
    for n in range(1, 9):
        a_n, _, _ = derive_recurrence(n, params)
        expected = chahn_coeffs_exact(n, params).leading_coefficient \
            / chahn_coeffs_exact(n + 1, params).leading_coefficient
        assert a_n == expected


def test_recurrence_three_terms_conjugate_pairs():
    a = GaussianRational(F(1, 2), F(1, 3))
    b = GaussianRational(F(1, 4), F(1, 5))
    params = HahnParams(a, b, a.conjugate(), b.conjugate())
    for n in range(1, 9):
        a_n, b_n, c_n = derive_recurrence(n, params)
        assert a_n and c_n  # nonzero endpoints of the three-term window


def test_recurrence_needs_positive_degree():
    with pytest.raises(DomainError):
        derive_recurrence(0, HahnParams(HALF, HALF, HALF, HALF))


# --- parameters over Q(i) ----------------------------------------------------

_CONJ = (GaussianRational(HALF, F(1, 3)), GaussianRational(HALF, F(-1, 3)),
         GaussianRational(F(1, 4), F(1, 5)), GaussianRational(F(1, 4), F(-1, 5)))


@pytest.mark.parametrize("n", range(5))
def test_hahn_operator_identity_over_gaussian_rationals(n):
    """The identity is algebraic in all four parameters: it holds exactly at
    a conjugate-pair tuple of Q(i), and the name prints the exact values."""
    report = hahn_operator_identity_check(n, *_CONJ)
    assert report.passed and report.max_abs_err == 0.0
    assert "alpha=1/2+1/3i, beta=1/2-1/3i, gamma=1/4+1/5i, delta=1/4-1/5i" in report.name


@pytest.mark.parametrize("r", [0, 1, 4, 8])
def test_shifted_operator_identity_over_gaussian_rationals(r):
    report = shifted_operator_identity_check(_CONJ[0], _CONJ[1], r)
    assert report.passed and report.max_abs_err == 0.0


@pytest.mark.parametrize("check, args", [
    (hahn_operator_identity_check, (1, 0.5, HALF, 0, 0)),
    (hahn_operator_identity_check, (1, HALF, HALF, 0.25, 0)),
    (shifted_operator_identity_check, (HALF, 0.5, 2)),
], ids=["hahn-operator-alpha", "hahn-operator-gamma", "shifted-operator-beta"])
def test_operator_checks_refuse_floats(check, args):
    """A float is not taken at its binary value: ExactInputError."""
    with pytest.raises(ExactInputError):
        check(*args)


def test_hahn_operator_names_the_parameter_outside_re_positive():
    with pytest.raises(DomainError, match=r"^beta must be finite with Re\(beta\) > 0, got"):
        hahn_operator_identity_check(1, HALF, GaussianRational(0, 1), 0, 0)
