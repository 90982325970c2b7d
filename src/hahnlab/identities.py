"""Exact verification of generating functions, contiguous relations and
classical Jacobi identities.

Generating functions are compared as truncated formal power series at
fixed rational sample points of the second variable; with order at least
degree + 2 this pins the polynomial coefficient identities while keeping
the arithmetic inside Q(i).  Contiguous relations and Jacobi identities
are compared as exact polynomials.
"""

from __future__ import annotations

from .errors import DomainError, _require_int
from .exact import GR_HALF, GR_I, GR_ONE, ExactPoly, gr
from .polynomials import (EXACT_DEGREE_CAP, HahnParams, JacobiParams, chahn_coeffs_exact,
                          jacobi_coeffs_exact)
from .reports import VerificationReport, exact_report, residual_report
from .series import FormalSeries, _hadamard, hypergeometric_series, one_minus_t_power

GENFUN_EXPONENT_NOTE = (
    "closed form uses (1-t)^(1-alpha-beta-gamma-delta); the exponent "
    "variant -(alpha+beta+gamma+delta)-1 fails already at order 1")

CONTIGUOUS_LHS_NOTE = (
    "left side carries the factor (alpha+iz); the variant with bare iz "
    "drops the alpha term and fails at n=1")


def _first_mismatch(a: FormalSeries, b: FormalSeries) -> str:
    for k in range(min(a.order, b.order) + 1):
        if a.coeff(k) != b.coeff(k):
            return f"t^{k}: {a.coeff(k)} != {b.coeff(k)}"
    return ""


def _series_report(name: str, lhs: FormalSeries, rhs: FormalSeries,
                   note: str = "") -> VerificationReport:
    diff = lhs - rhs
    residual = diff.max_abs_coefficient()
    detail = note
    if residual:
        detail = (note + "; " if note else "") + _first_mismatch(lhs, rhs)
    return exact_report(name, residual, detail)


def genfun_jacobi_check(which: int, gamma, delta, x, order: int) -> VerificationReport:
    """Jacobi generating functions at a fixed sample point x, with gamma,
    delta and x in Q(i); a float raises ExactInputError.

    which=1: (1-t)^(-gamma-delta-1) 2F1(.; 2(x-1)t/(1-t)^2)
             = sum (gamma+delta+1)_n / (gamma+1)_n P_n(x) t^n
    which=2: 0F1(; gamma+1; (x-1)t/2) 0F1(; delta+1; (x+1)t/2)
             = sum P_n(x) t^n / ((gamma+1)_n (delta+1)_n)
    """
    _require_int("which", which, 1, 2)
    g, d, xv = gr(gamma), gr(delta), gr(x)
    name = f"genfun-jacobi-{which}[gamma={g}, delta={d}, x={xv}, order={order}]"
    t = FormalSeries.identity(order)  # refuses an order that is not an int first
    values = [jacobi_coeffs_exact(n, JacobiParams(g, d))(xv) for n in range(order + 1)]

    if which == 1:
        inner = 2 * (xv - 1) * t * one_minus_t_power(-2, order)
        hyper = hypergeometric_series(
            [(g + d + 1) * GR_HALF, (g + d + 2) * GR_HALF], [g + 1], order)
        lhs = one_minus_t_power(-(g + d + 1), order) * hyper.compose(inner)
        # (gamma+delta+1)_n (1)_n / ((gamma+1)_n n!) = (gamma+delta+1)_n / (gamma+1)_n
        weights = hypergeometric_series([g + d + 1, 1], [g + 1], order)
    else:
        s1 = hypergeometric_series([], [g + 1], order).compose((xv - 1) * GR_HALF * t)
        s2 = hypergeometric_series([], [d + 1], order).compose((xv + 1) * GR_HALF * t)
        lhs = s1 * s2
        weights = hypergeometric_series([1], [g + 1, d + 1], order)
    return _series_report(name, lhs, _hadamard(weights, FormalSeries(values, order)))


def genfun_chahn_check(which: int, alpha, beta, gamma, delta, z,
                       order: int) -> VerificationReport:
    """Continuous Hahn generating functions at a fixed rational z.

    which=1: (1-t)^(1-S) 3F2(.; -4t/(1-t)^2)
             = sum (S-1)_n / ((alpha+beta)_n (alpha+gamma)_n) (t/i)^n p_n(z)
             with S = alpha+beta+gamma+delta and p_n(z; alpha, delta, gamma, beta)
    which=2: sum (t/i)^n p_n(z) / ((gamma+alpha)_n (delta+beta)_n (alpha+beta)_n)
             = double series in (alpha+iz)_p (beta-iz)_k, truncated at p+k <= order
    """
    _require_int("which", which, 1, 2)
    al, be, ga, de = gr(alpha), gr(beta), gr(gamma), gr(delta)
    zv = gr(z)
    name = f"genfun-chahn-{which}[alpha={al}, beta={be}, gamma={ga}, delta={de}, z={zv}, order={order}]"
    s_total = al + be + ga + de
    a_iz = al + GR_I * zv
    b_iz = be - GR_I * zv
    params = HahnParams(al, de, ga, be)
    t = FormalSeries.identity(order)  # refuses an order that is not an int first
    p_series = FormalSeries([chahn_coeffs_exact(n, params)(zv) for n in range(order + 1)],
                            order)
    if which == 1:
        inner = gr(-4) * t * one_minus_t_power(-2, order)
        hyper = hypergeometric_series(
            [(s_total - 1) * GR_HALF, s_total * GR_HALF, a_iz],
            [ga + al, al + be], order)
        lhs = one_minus_t_power(GR_ONE - s_total, order) * hyper.compose(inner)
        # (S-1)_n (1)_n / ((alpha+beta)_n (alpha+gamma)_n n!), and (t/i)^n as t -> -it
        weights = hypergeometric_series([s_total - 1, 1], [al + be, ga + al], order)
        rhs = _hadamard(weights, p_series).scale_argument(-GR_I)
        return _series_report(name, lhs, rhs, GENFUN_EXPONENT_NOTE)

    weights = hypergeometric_series([1], [ga + al, de + be, al + be], order)
    lhs = _hadamard(weights, p_series).scale_argument(-GR_I)
    # the double sum is a product of series in t: A_p = (-1)^p (alpha+iz)_p /
    # (p! (gamma+alpha)_p) and B_k = (beta-iz)_k / (k! (delta+beta)_k), with
    # coefficient n then divided by (alpha+beta)_n
    a_series = hypergeometric_series([a_iz], [ga + al], order).scale_argument(-1)
    double = a_series * hypergeometric_series([b_iz], [de + be], order)
    rhs = _hadamard(hypergeometric_series([1], [al + be], order), double)
    return _series_report(name, lhs, rhs)


def contiguous_check(which: int, n: int, alpha, beta, gamma, delta) -> VerificationReport:
    """Relations between three continuous Hahn polynomials, exact in z.

    which=1 (n >= 1):
      (alpha+beta+n)(alpha+iz) p_n(z; alpha,delta,gamma,beta)
        = (alpha+beta)(alpha+iz) p_n(z; alpha+1,delta,gamma-1,beta)
        + i (n+S-1)(alpha+iz)(beta-iz) p_{n-1}(z; alpha+1,delta,gamma,beta+1)
    which=2:
      (2n+S)(alpha+iz) p_n(z; alpha+1,delta,gamma,beta)
        = (alpha+beta+n)(n+gamma+alpha) p_n(z; alpha,delta,gamma,beta)
        + i (n+1) p_{n+1}(z; alpha,delta,gamma,beta)
    """
    _require_int("which", which, 1, 2)
    al, be, ga, de = gr(alpha), gr(beta), gr(gamma), gr(delta)
    name = f"contiguous-{which}[n={n}, alpha={al}, beta={be}, gamma={ga}, delta={de}]"
    s_total = al + be + ga + de
    _require_int("n", n, 2 - which, EXACT_DEGREE_CAP + 1 - which)  # builds p_{n-1} or p_{n+1}
    alpha_plus_iz = ExactPoly([al, GR_I])
    beta_minus_iz = ExactPoly([be, -GR_I])

    if which == 1:
        p_n = chahn_coeffs_exact(n, HahnParams(al, de, ga, be))
        p_shift = chahn_coeffs_exact(n, HahnParams(al + 1, de, ga - 1, be))
        p_lower = chahn_coeffs_exact(n - 1, HahnParams(al + 1, de, ga, be + 1))
        lhs = (al + be + n) * (alpha_plus_iz * p_n)
        rhs = (al + be) * (alpha_plus_iz * p_shift) \
            + (GR_I * (s_total + (n - 1))) * (alpha_plus_iz * (beta_minus_iz * p_lower))
        note = CONTIGUOUS_LHS_NOTE
    else:
        p_n = chahn_coeffs_exact(n, HahnParams(al, de, ga, be))
        p_up = chahn_coeffs_exact(n + 1, HahnParams(al, de, ga, be))
        p_shift = chahn_coeffs_exact(n, HahnParams(al + 1, de, ga, be))
        lhs = (s_total + 2 * n) * (alpha_plus_iz * p_shift)
        rhs = ((al + be + n) * (ga + al + n)) * p_n + (GR_I * (n + 1)) * p_up
        note = ""
    return residual_report(name, lhs - rhs, note)


def jacobi_classical_check(which: str, n: int, gamma, delta) -> VerificationReport:
    """Classical Jacobi identities as exact polynomial statements, with gamma
    and delta in Q(i); a float raises ExactInputError.

    which="derivative": d/dx P_n = (n+gamma+delta+1)/2 * P_{n-1}^{(gamma+1,delta+1)}
    which="eq454":      (n+gamma+1) P_n - (n+1) P_{n+1}
                        = (2n+gamma+delta+2)/2 * (1-x) P_n^{(gamma+1,delta)}
    """
    g, d = gr(gamma), gr(delta)
    name = f"jacobi-classical-{which}[n={n}, gamma={g}, delta={d}]"
    if which == "derivative":
        lhs = jacobi_coeffs_exact(n, JacobiParams(g, d)).derivative()
        if n == 0:
            rhs = ExactPoly.zero()
        else:
            rhs = (n + g + d + 1) * GR_HALF \
                * jacobi_coeffs_exact(n - 1, JacobiParams(g + 1, d + 1))
    elif which == "eq454":
        pn = jacobi_coeffs_exact(n, JacobiParams(g, d))
        pn1 = jacobi_coeffs_exact(n + 1, JacobiParams(g, d))
        lhs = (n + g + 1) * pn - (n + 1) * pn1
        rhs = (2 * n + g + d + 2) * GR_HALF \
            * (ExactPoly([GR_ONE, -GR_ONE]) * jacobi_coeffs_exact(n, JacobiParams(g + 1, d)))
    else:
        raise DomainError("which must be 'derivative' or 'eq454'")
    return residual_report(name, lhs - rhs)
