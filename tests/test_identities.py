"""Exact generating-function, contiguous and classical-identity checks."""

import math
from fractions import Fraction

import pytest

from hahnlab.errors import DomainError, ExactInputError
from hahnlab.exact import GR_I, ExactPoly, GaussianRational, gr
from hahnlab.identities import (contiguous_check, genfun_chahn_check,
                                genfun_jacobi_check, jacobi_classical_check)
from hahnlab.polynomials import (HahnParams, JacobiParams, chahn_coeffs_exact,
                                 jacobi_coeffs_exact, pasternack_coeffs_exact)

F = Fraction
HALF = F(1, 2)


# --- Jacobi generating functions ---------------------------------------------

def test_genfun_jacobi_order_zero_trivial():
    assert genfun_jacobi_check(1, F(1, 3), F(2, 5), F(1, 7), 0).passed
    assert genfun_jacobi_check(2, F(1, 3), F(2, 5), F(1, 7), 0).passed


def test_genfun_jacobi_at_x_one_collapses():
    # P_n(1) = (gamma+1)_n / n! turns both series into elementary products
    for which in (1, 2):
        assert genfun_jacobi_check(which, F(1, 3), F(3, 4), 1, 12).passed


def test_genfun_jacobi_legendre_sample():
    assert genfun_jacobi_check(1, 0, 0, F(1, 3), 12).passed
    assert genfun_jacobi_check(2, 0, 0, F(1, 3), 12).passed


def test_series_report_flags_mismatch():
    # harness sanity: a one-coefficient perturbation must fail hard and
    # name the offending power
    from hahnlab.identities import _series_report
    from hahnlab.series import FormalSeries
    a = FormalSeries([1, 2, 3], 4)
    b = FormalSeries([1, 2, 4], 4)
    r = _series_report("perturbed", a, b)
    assert not r.passed
    assert "t^2" in r.details


def test_genfun_jacobi_pole():
    with pytest.raises(Exception):
        genfun_jacobi_check(1, -1, 0, F(1, 3), 6)


# --- continuous Hahn generating functions --------------------------------------

def test_genfun_chahn_order_zero():
    assert genfun_chahn_check(1, HALF, HALF, HALF, HALF, F(1, 4), 0).passed
    assert genfun_chahn_check(2, HALF, HALF, HALF, HALF, F(1, 4), 0).passed


def test_genfun_chahn_symmetric_halves_order_ten():
    assert genfun_chahn_check(1, HALF, HALF, HALF, HALF, F(1, 4), 10).passed
    assert genfun_chahn_check(2, HALF, HALF, HALF, HALF, F(1, 4), 10).passed


def test_genfun_chahn_generic_parameters():
    params = (F(3, 4), F(2, 3), F(1, 2), F(2, 5))
    for which in (1, 2):
        assert genfun_chahn_check(which, *params, F(1, 3), 9).passed


def test_genfun_chahn_exponent_note_recorded():
    r = genfun_chahn_check(1, HALF, HALF, HALF, HALF, F(1, 4), 4)
    assert "(1-t)^(1-alpha-beta-gamma-delta)" in r.details


def test_genfun_chahn_first_coefficient_by_hand():
    """n=1 coefficient: (S-1)/((alpha+beta)(alpha+gamma)) * (1/i) * p_1."""
    al = be = ga = de = HALF
    z = F(1, 4)
    p1 = chahn_coeffs_exact(1, HahnParams(al, de, ga, be))(gr(z))
    # (t/i) p_1 / ((alpha+beta)(alpha+gamma)) with S - 1 = 1
    expected = (-GR_I) * p1 / (gr(1) * gr(1))
    # p_1 = 2z at the symmetric half parameters, so the coefficient is -2zi
    assert expected == gr(2 * z) * (-GR_I)


def test_genfun_chahn_bateman_specialization():
    """At all-half parameters the n-th coefficient of the first generating
    function is F_n evaluated at 2iz (the Bateman expansion)."""
    z = F(1, 4)
    params = HahnParams(HALF, HALF, HALF, HALF)
    for n in range(6):
        coeff = (-GR_I) ** n * chahn_coeffs_exact(n, params)(gr(z)) \
            / gr(math.factorial(n))
        f_n = pasternack_coeffs_exact(n, 0)(GaussianRational(0, 2 * z))
        # (S-1)_n / ((a+b)_n (a+g)_n) = 1/n! here; i^n n! F_n(2iz) / n! / i^n = F_n
        assert coeff == f_n


# --- contiguous relations -------------------------------------------------------

def test_contiguous_which2_n0_by_hand():
    # S (alpha+iz) = (alpha+beta)(gamma+alpha) + i p_1, a degree-1 identity
    assert contiguous_check(2, 0, F(1, 3), F(2, 5), F(3, 7), F(1, 6)).passed


def test_contiguous_both_all_halves():
    for n in range(1, 8):
        assert contiguous_check(1, n, HALF, HALF, HALF, HALF).passed
    for n in range(0, 8):
        assert contiguous_check(2, n, HALF, HALF, HALF, HALF).passed


def test_contiguous_generic_grid():
    tuples = [
        (F(3, 4), F(2, 3), F(1, 2), F(2, 5)),
        (F(1, 3), F(7, 5), F(3, 7), F(1, 6)),
        (F(5, 6), F(1, 6), F(5, 4), F(3, 4)),
        (F(2, 5), F(3, 5), F(4, 5), F(6, 5)),
        (F(1, 2), F(1, 3), F(1, 4), F(1, 5)),
    ]
    for params in tuples:
        for n in range(1, 6):
            assert contiguous_check(1, n, *params).passed
            assert contiguous_check(2, n, *params).passed


def test_contiguous_lhs_correction_note():
    r = contiguous_check(1, 2, HALF, HALF, HALF, HALF)
    assert "(alpha+iz)" in r.details


def test_contiguous_which1_needs_positive_n():
    with pytest.raises(DomainError):
        contiguous_check(1, 0, HALF, HALF, HALF, HALF)


# --- classical Jacobi identities --------------------------------------------------

def test_jacobi_derivative_n0():
    assert jacobi_classical_check("derivative", 0, F(1, 3), F(3, 4)).passed


def test_jacobi_derivative_n1_by_hand():
    # d/dx x = 1 = (1/2) * 2 * P_0^{(1,1)}
    assert jacobi_classical_check("derivative", 1, 0, 0).passed
    p = jacobi_coeffs_exact(1, JacobiParams(0, 0))
    assert p.derivative() == ExactPoly.one()


def test_jacobi_identities_grid():
    for n in range(0, 13):
        assert jacobi_classical_check("derivative", n, F(1, 3), F(3, 4)).passed
        assert jacobi_classical_check("eq454", n, F(1, 3), F(3, 4)).passed


def test_jacobi_classical_rejects_unknown():
    with pytest.raises(DomainError):
        jacobi_classical_check("unknown", 1, 0, 0)


# --- parameters over Q(i) ----------------------------------------------------

@pytest.mark.parametrize("which", [1, 2])
@pytest.mark.parametrize("x", [F(1, 3), GaussianRational(0, HALF)], ids=["x=1/3", "x=i/2"])
def test_genfun_jacobi_over_gaussian_rationals(which, x):
    """gamma and x in Q(i): the series identity holds exactly."""
    report = genfun_jacobi_check(which, GaussianRational(F(1, 3), F(1, 4)), HALF, x, 6)
    assert report.passed and report.max_abs_err == 0.0
    assert "gamma=1/3+1/4i" in report.name


@pytest.mark.parametrize("which", ["derivative", "eq454"])
@pytest.mark.parametrize("n", range(4))
def test_jacobi_classical_over_gaussian_rationals(which, n):
    report = jacobi_classical_check(which, n, GaussianRational(F(1, 3), 1), HALF)
    assert report.passed and report.max_abs_err == 0.0


@pytest.mark.parametrize("call", [
    lambda: genfun_jacobi_check(2, 0.1, 0.3, 0.7, 6),
    lambda: genfun_jacobi_check(1, F(1, 3), HALF, 0.5, 4),
    lambda: jacobi_classical_check("eq454", 1, 0.5, 0),
    lambda: jacobi_classical_check("derivative", 2, HALF, math.nan),
], ids=["genfun-jacobi-gamma", "genfun-jacobi-x", "classical-gamma", "classical-delta-nan"])
def test_jacobi_checks_refuse_floats(call):
    """A float is refused, never taken at its binary value (0.1 would have
    passed as 3602879701896397/36028797018963968); NaN too."""
    with pytest.raises(ExactInputError):
        call()
