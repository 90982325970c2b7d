"""Fourier, Mellin and Parseval transform-pair verifications.

Each check computes one side of a transform identity by the nested
trapezoidal rule and the other side in closed form from gamma functions and a
continuous Hahn value, then reports the discrepancy.  The Fourier and
Mellin checks have list forms (fourier_pair_checks, mellin_pair_checks)
that take every row on one weight (alpha, beta) and integrate them in one
pass, the tanh logs once per node and the weight once per frequency; the
scalar checks are their one-row case; each integral gives
quadrature._line_integral only its weight.  The Fourier convention is
F(f)(z) = int e^{-ixz} f(x) dx with Parseval constant 2*pi; a complex z
converges for -2 Re beta < Im z < 2 Re alpha (outside, or near the edges,
the cut-off scan raises QuadratureError).  The Mellin pair is the Fourier
pair after x = e^{-2u}: both of its sides are the Fourier pair's at
z = -2 lambda, scaled by 2^{1-alpha-beta}, where -Re alpha < Im lambda < Re beta.
"""

from __future__ import annotations

import cmath
import math

from .errors import _require, _require_tuple
from .numerics import _weight_memo, gamma_product, log_gamma_complex
from .polynomials import (JacobiParams, _hahn_of_jacobi, _to_complex, chahn_eval,
                          chahn_coeffs_complex, jacobi_coeffs_complex)
from .quadrature import IntegralResult, _line_integral
from .reports import QuadDiagnostics, VerificationReport, integral_report

_LOG_2 = math.log(2.0)

MELLIN_SIGN_NOTE = (
    "closed form often quoted with Gamma(beta - i*lambda); the substitution "
    "x = exp(-2u) reduces the integral to the Fourier pair at z = -2*lambda, "
    "which carries Gamma(beta + i*lambda)")


def tanh_weight_logs(x: float) -> tuple[float, float]:
    """(log(1 - tanh x), log(1 + tanh x)) without cancellation or overflow."""
    ax = abs(x)
    e = math.exp(-2.0 * ax)
    lo = _LOG_2 - 2.0 * ax - math.log1p(e)
    hi = _LOG_2 - math.log1p(e)
    return (lo, hi) if x >= 0.0 else (hi, lo)


def _tanh_product_integral(entries: list, wa: complex, wb: complex) -> list[IntegralResult]:
    """int e^{-ixz} (1 - tanh x)^wa (1 + tanh x)^wb pn(tanh x) pm(tanh x) dx
    over the line for each entry (pn, pm, z) of entries, pn and pm
    coefficient lists: the beta-type integral over [-1, 1] in the variable
    t = tanh x, and its Fourier transform, all on one weight in one pass.

    Each node computes the weight's logs once and the weight once per
    distinct z, _line_integral's key; |e^{-ixz}| = e^{x Im z}, so the weight
    bound takes the largest Im z at x > 0 and the smallest at x < 0.  The
    integrand is analytic in |Im x| < pi/2 and has no reflection symmetry,
    so each level is evaluated at both signs; the first step is at most
    pi/|z|, half a period of the fastest oscillation."""
    freqs = dict.fromkeys(z for *_, z in entries)  # none: _line_integral runs no pass
    hi, lo = max((z.imag for z in freqs), default=0.0), min((z.imag for z in freqs), default=0.0)

    def weights(xs: list) -> dict:
        logs = list(map(tanh_weight_logs, xs))
        return {z: [cmath.exp(-1j * z * x + wa * l1 + wb * l2) for x, (l1, l2) in zip(xs, logs)]
                for z in freqs}

    def weight_bound(x: float) -> float:
        l1, l2 = tanh_weight_logs(x)
        return math.exp(wa.real * l1 + wb.real * l2 + x * (hi if x > 0.0 else lo))

    return _line_integral(entries, math.tanh, weights, weight_bound,
                          math.pi / max([2.0, *map(abs, freqs)]))


def _weighted_jacobi_transform(alpha, beta, cases: list) -> list[IntegralResult]:
    """Quadrature side of the Fourier pair for each (n, gamma, delta, z) of
    cases, on the one weight (alpha, beta): one trapezoid pass."""
    entries = [(jacobi_coeffs_complex(n, JacobiParams(gamma, delta)), [1.0], z)
               for n, gamma, delta, z in cases]
    return _tanh_product_integral(entries, _to_complex(alpha), _to_complex(beta))


def _fourier_closed_form(n, alpha, beta, gamma, delta, z) -> complex:
    al, be = _to_complex(alpha), _to_complex(beta)
    return cmath.exp((al + be - 1) * _LOG_2) \
        * gamma_product([al + 0.5j * z, be - 0.5j * z], [al + be + n]) \
        * (-1j) ** (n % 4) * chahn_eval(n, _hahn_of_jacobi(alpha, beta, gamma, delta), 0.5 * z)


def fourier_pair_checks(alpha, beta, cases: list, tol: float = 1e-8,
                        tol_abs: float = 1e-12) -> list[VerificationReport]:
    """fourier_pair_check(n, alpha, beta, gamma, delta, z) for each
    (n, gamma, delta, z) of cases, in order, with every quadrature side
    from one trapezoid pass on the weight (alpha, beta).  They compute with
    z as the gate's complex value; report names print z as passed."""
    _require("Re > 0 as a double", alpha=alpha, beta=beta)
    cases = [_require_tuple("case", case, 4) for case in cases]
    zs = [_require("finite", gamma=gamma, delta=delta, z=z)[2] for _, gamma, delta, z in cases]
    computed = [(n, gamma, delta, zc) for (n, gamma, delta, _), zc in zip(cases, zs)]
    reports = []
    for (n, gamma, delta, z), zc, lhs in zip(
            cases, zs, _weighted_jacobi_transform(alpha, beta, computed)):
        rhs = _fourier_closed_form(n, alpha, beta, gamma, delta, zc)
        # at z = 0, alpha = beta and gamma = delta the integrand is an even
        # weight times the odd P_n for odd n: the closed form is 0 up to rounding
        vanishes = n % 2 == 1 and zc == 0.0 and alpha == beta and gamma == delta
        diag = QuadDiagnostics(lhs.evaluations, lhs.error_estimate)
        reports.append(integral_report(
            f"fourier-pair[n={n}, z={z}]", abs(lhs.value - rhs),
            0.0 if vanishes else abs(rhs), lhs.mass, tol, tol_abs,
            f"lhs={lhs.value!r} rhs={rhs!r}", diag))
    return reports


def fourier_pair_check(n: int, alpha, beta, gamma, delta, z: float,
                       tol: float = 1e-8, tol_abs: float = 1e-12) -> VerificationReport:
    """Quadrature of e^{-ixz} (1-tanh x)^alpha (1+tanh x)^beta P_n(tanh x)
    against 2^{alpha+beta-1} Gamma(alpha+iz/2) Gamma(beta-iz/2) /
    Gamma(alpha+beta+n) * i^{-n} p_n(z/2)."""
    return fourier_pair_checks(alpha, beta, [(n, gamma, delta, z)], tol, tol_abs)[0]


def mellin_pair_checks(alpha, beta, cases: list, tol: float = 1e-8,
                       tol_abs: float = 1e-12) -> list[VerificationReport]:
    """mellin_pair_check(n, alpha, beta, gamma, delta, lam) for each
    (n, gamma, delta, lam) of cases, in order, with every quadrature side
    from one trapezoid pass on the weight (alpha, beta).  They compute with
    lambda as the gate's complex value; report names print it as passed."""
    al, be = _require("Re > 0 as a double", alpha=alpha, beta=beta)
    cases = [_require_tuple("case", case, 4) for case in cases]
    lams = [_require("finite", gamma=gamma, delta=delta, **{"lambda": lam})[2]
            for _, gamma, delta, lam in cases]
    scale = cmath.exp((1 - al - be) * _LOG_2)
    lhs_all = _weighted_jacobi_transform(alpha, beta, [
        (n, gamma, delta, -2.0 * lc) for (n, gamma, delta, _), lc in zip(cases, lams)])
    reports = []
    for (n, gamma, delta, lam), lc, lhs in zip(cases, lams, lhs_all):
        lhs_value = scale * lhs.value
        rhs_corrected = scale * _fourier_closed_form(n, alpha, beta, gamma, delta, -2.0 * lc)
        err_corrected = abs(lhs_value - rhs_corrected)
        if lc == 0.0:
            which = "conventions coincide at lambda = 0"
        else:
            # the quoted form has Gamma(beta - i lambda) for Gamma(beta + i lambda)
            rhs_quoted = rhs_corrected * gamma_product([be - 1j * lc], [be + 1j * lc])
            rel_quoted = abs(lhs_value - rhs_quoted) / max(abs(rhs_quoted), 1e-300)
            rel_corrected = err_corrected / max(abs(rhs_corrected), 1e-300)
            matches = rel_corrected <= tol or err_corrected <= tol_abs
            which = (f"Gamma(beta + i*lambda) convention "
                     f"{'matches' if matches else 'does not match'} "
                     f"(rel {rel_corrected:.3e}); quoted Gamma(beta - i*lambda) "
                     f"convention off by rel {rel_quoted:.3e}")
        # at lambda = 0, alpha = beta and gamma = delta the integrand is an even
        # weight times the odd P_n for odd n: the closed form is 0 up to rounding
        vanishes = n % 2 == 1 and lc == 0.0 and alpha == beta and gamma == delta
        diag = QuadDiagnostics(lhs.evaluations, lhs.error_estimate)
        reports.append(integral_report(
            f"mellin-pair[n={n}, lambda={lam}]", err_corrected,
            0.0 if vanishes else abs(rhs_corrected), abs(scale) * lhs.mass, tol, tol_abs,
            which + "; " + MELLIN_SIGN_NOTE, diag))
    return reports


def mellin_pair_check(n: int, alpha, beta, gamma, delta, lam: float,
                      tol: float = 1e-8, tol_abs: float = 1e-12) -> VerificationReport:
    """Mellin transform of x^alpha (1+x)^{-alpha-beta} P_n((1-x)/(1+x)) at
    s = -i*lambda: by x = exp(-2u), both sides are the Fourier pair's at
    z = -2*lambda times 2^{1-alpha-beta}.  Pass or fail rests on that
    substitution-consistent Gamma(beta + i*lambda) form alone; the error of
    the often-quoted Gamma(beta - i*lambda) form is in the details."""
    return mellin_pair_checks(alpha, beta, [(n, gamma, delta, lam)], tol, tol_abs)[0]


def _parseval_right(n: int, m: int, alpha, beta, a, b, gamma, delta, c,
                    d) -> IntegralResult:
    """The line integral on the right of the Parseval identity:
    int w(z/2) p_n(z/2) conj q_m(z/2) dz / (Gamma(al+be+n) Gamma(av+bv+m)),
    w the four-gamma weight on (al, be, av, bv) = (alpha, beta, a, b) and
    p_n, q_m the continuous Hahn transforms of the two Jacobi factors,
    built from the parameters as the caller passed them.  parseval_check has
    gated the weight's parameters, so their memo is looked up directly.

    w(z/2) is analytic in |Im z| < 2 min Re(al, be, av, bv).  For real
    parameters w(-z) = conj w(z) and p_n(-x) = (-1)^n conj p_n(x), so the
    integrand at -z is (-1)^(n+m) times the conjugate of the one at z;
    otherwise |w(-z/2)| != |w(z/2)|, and integrate_line bounds both tails.
    At real z, q_m's conjugated coefficients give conj q_m(z/2) bit for bit."""
    cn = chahn_coeffs_complex(n, _hahn_of_jacobi(alpha, beta, gamma, delta))
    cm = chahn_coeffs_complex(m, _hahn_of_jacobi(*(v.conjugate() for v in (a, b, c, d))))
    values = list(map(_to_complex, (alpha, beta, a, b, gamma, delta, c, d)))
    al, be, av, bv = values[:4]
    log_norm = -(log_gamma_complex(al + be + n) + log_gamma_complex(av + bv + m))
    log_weight = _weight_memo(al, be, av, bv)
    real = not any(v.imag for v in values)

    return _line_integral(
        [(cn, [u.conjugate() for u in cm], None)], lambda z: 0.5 * z,
        lambda zs: {None: [cmath.exp(log_weight(0.5 * z) + log_norm) for z in zs]},
        lambda z: math.exp((log_weight(0.5 * z) + log_norm).real),
        2.0 * min(al.real, be.real, av.real, bv.real), [(-1) ** (n + m)] if real else None)[0]


def parseval_check(n: int, m: int, alpha, beta, a, b, gamma, delta, c, d,
                   tol: float = 1e-8, tol_abs: float = 1e-10) -> VerificationReport:
    """Both sides of the Parseval identity for two weighted Jacobi factors,
    for general parameters (no orthogonality specialization imposed)."""
    al, be, av, bv = _require("Re > 0 as a double", alpha=alpha, beta=beta, a=a, b=b)
    _require("finite", gamma=gamma, delta=delta, c=c, d=d)
    name = f"parseval[n={n}, m={m}]"

    # left: 2 pi * integral of the tanh-substituted beta-type integrand
    pn = jacobi_coeffs_complex(n, JacobiParams(gamma, delta))
    pm = jacobi_coeffs_complex(m, JacobiParams(c, d))
    [left] = _tanh_product_integral([(pn, pm, 0.0)], al + av, be + bv)
    lhs_value = 2.0 * math.pi * left.value

    # right: gamma-weighted line integral over the transforms
    right = _parseval_right(n, m, alpha, beta, a, b, gamma, delta, c, d)
    factor = (1j ** ((m - n) % 4)) * cmath.exp((al + av + be + bv - 2) * _LOG_2)
    rhs_value = factor * right.value

    # gamma = c = alpha + a - 1 and delta = d = beta + b - 1 make the left
    # side the Jacobi orthogonality integral of P_n and P_m: 0 for n != m
    vanishes = n != m and gamma == c == alpha + a - 1 and delta == d == beta + b - 1
    abs_err = abs(lhs_value - rhs_value)
    scale = 0.0 if vanishes else max(abs(lhs_value), abs(rhs_value))
    mass = max(2.0 * math.pi * left.mass, abs(factor) * right.mass)
    diag = QuadDiagnostics(left.evaluations + right.evaluations,
                           left.error_estimate + right.error_estimate)
    return integral_report(name, abs_err, scale, mass, tol, tol_abs,
                           f"lhs={lhs_value!r} rhs={rhs_value!r}", diag)
