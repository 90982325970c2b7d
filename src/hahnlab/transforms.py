"""Fourier, Mellin and Parseval transform-pair verifications.

Each check computes one side of a transform identity by the nested
trapezoidal rule and the other side in closed form from gamma functions and a
continuous Hahn value, then reports the discrepancy.  The Fourier
convention is F(f)(z) = int e^{-ixz} f(x) dx with Parseval constant 2*pi.
The Mellin pair is the Fourier pair after x = e^{-2u}: both of its sides
are the Fourier pair's at z = -2 lambda, scaled by 2^{1-alpha-beta}.
"""

from __future__ import annotations

import cmath
import math
from operator import mul

from .errors import DomainError
from .numerics import _hahn_weight_log_of, gamma_product, log_gamma_complex
from .polynomials import (HahnParams, JacobiParams, _stored, _to_complex, chahn_eval,
                          chahn_coeffs_complex, horner_level, jacobi_coeffs_complex)
from .quadrature import IntegralResult, _line_integral
from .reports import (QuadDiagnostics, VerificationReport, integral_report,
                      toleranced_report)

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


def _tanh_product_integral(pn, pm, wa: complex, wb: complex,
                           z: float = 0.0) -> IntegralResult:
    """int e^{-ixz} (1 - tanh x)^wa (1 + tanh x)^wb pn(tanh x) pm(tanh x) dx
    over the line, for coefficient lists pn and pm: the beta-type integral
    over [-1, 1] in the variable t = tanh x, and its Fourier transform.

    The integrand is analytic in |Im x| < pi/2 and has no reflection
    symmetry, so each level is evaluated at both signs; the first step is
    at most pi/|z|, half a period of the oscillation."""
    bound = sum(abs(u) for u in pn) * sum(abs(u) for u in pm)

    def f(xs: list) -> tuple:
        w = [cmath.exp(-1j * z * x + wa * l1 + wb * l2)
             for x, (l1, l2) in zip(xs, map(tanh_weight_logs, xs))]
        ts = list(map(math.tanh, xs))
        terms = list(map(mul, map(mul, w, horner_level(pn, ts)), horner_level(pm, ts)))
        return sum(terms), sum(map(abs, terms))

    def env(x: float) -> float:
        l1, l2 = tanh_weight_logs(abs(x))
        return bound * max(math.exp(wa.real * l1 + wb.real * l2),
                           math.exp(wa.real * l2 + wb.real * l1))

    return _line_integral(f, env, math.pi / max(2.0, abs(z)))


def _require_positive_re(**named):
    for name, value in named.items():
        v = _to_complex(value)
        if not cmath.isfinite(v) or v.real <= 0.0:
            raise DomainError(f"{name} must be finite with Re({name}) positive, "
                              f"got {value!r}")


def _hahn_of_jacobi(alpha, beta, gamma, delta) -> HahnParams:
    """(alpha, delta - beta + 1, gamma - alpha + 1, beta), the continuous Hahn
    parameters of the Fourier pair, formed exactly: a float or complex
    parameter enters at the dyadic rational it stores (_stored), so 1/3 with
    0.5 gives the shift 2/3, not the double nearest it."""
    alpha, beta, gamma, delta = map(_stored, (alpha, beta, gamma, delta))
    return HahnParams(alpha, delta - beta + 1, gamma - alpha + 1, beta)


def _weighted_jacobi_transform(n, alpha, beta, gamma, delta, z) -> IntegralResult:
    """Quadrature side of the Fourier pair at frequency z."""
    coeffs = jacobi_coeffs_complex(n, JacobiParams(gamma, delta))
    return _tanh_product_integral(coeffs, [1.0], _to_complex(alpha),
                                  _to_complex(beta), z)


def _fourier_closed_form(n, alpha, beta, gamma, delta, z) -> complex:
    al, be = _to_complex(alpha), _to_complex(beta)
    hp = _hahn_of_jacobi(alpha, beta, gamma, delta)
    return cmath.exp((al + be - 1) * _LOG_2) \
        * gamma_product([al + 0.5j * z, be - 0.5j * z], [al + be + n]) \
        * (-1j) ** (n % 4) * chahn_eval(n, hp, 0.5 * z)


def fourier_pair_check(n: int, alpha, beta, gamma, delta, z: float,
                       tol: float = 1e-8, tol_abs: float = 1e-12) -> VerificationReport:
    """Quadrature of e^{-ixz} (1-tanh x)^alpha (1+tanh x)^beta P_n(tanh x)
    against 2^{alpha+beta-1} Gamma(alpha+iz/2) Gamma(beta-iz/2) /
    Gamma(alpha+beta+n) * i^{-n} p_n(z/2)."""
    _require_positive_re(alpha=alpha, beta=beta)
    if not cmath.isfinite(_to_complex(z)):
        raise DomainError(f"z must be finite, got {z!r}")
    name = f"fourier-pair[n={n}, z={z}]"
    lhs = _weighted_jacobi_transform(n, alpha, beta, gamma, delta, z)
    rhs = _fourier_closed_form(n, alpha, beta, gamma, delta, z)
    abs_err = abs(lhs.value - rhs)
    # at z = 0, alpha = beta and gamma = delta the integrand is an even
    # weight times the odd P_n for odd n: the closed form is 0 up to rounding,
    # and the |f| mass scales the error in place of |rhs|
    vanishes = n % 2 == 1 and z == 0.0 and alpha == beta and gamma == delta
    rel_err = abs_err / max(lhs.mass if vanishes else abs(rhs), 1e-300)
    diag = QuadDiagnostics(lhs.evaluations, lhs.error_estimate)
    return toleranced_report(name, abs_err, rel_err, tol, tol_abs,
                             f"lhs={lhs.value!r} rhs={rhs!r}", diag)


def mellin_pair_check(n: int, alpha, beta, gamma, delta, lam: float,
                      tol: float = 1e-8, tol_abs: float = 1e-12) -> VerificationReport:
    """Mellin transform of x^alpha (1+x)^{-alpha-beta} P_n((1-x)/(1+x)) at
    s = -i*lambda: by x = exp(-2u), both sides are the Fourier pair's at
    z = -2*lambda times 2^{1-alpha-beta}.  Pass or fail rests on that
    substitution-consistent Gamma(beta + i*lambda) form alone; the error of
    the often-quoted Gamma(beta - i*lambda) form is in the details."""
    _require_positive_re(alpha=alpha, beta=beta)
    if not cmath.isfinite(_to_complex(lam)):
        raise DomainError(f"lambda must be finite, got {lam!r}")
    name = f"mellin-pair[n={n}, lambda={lam}]"
    be = _to_complex(beta)
    scale = cmath.exp((1 - _to_complex(alpha) - be) * _LOG_2)
    lhs = _weighted_jacobi_transform(n, alpha, beta, gamma, delta, -2.0 * lam)
    lhs_value = scale * lhs.value
    rhs_corrected = scale * _fourier_closed_form(n, alpha, beta, gamma, delta, -2.0 * lam)

    err_corrected = abs(lhs_value - rhs_corrected)
    if lam == 0.0:
        which = "conventions coincide at lambda = 0"
    else:
        # the quoted form has Gamma(beta - i lambda) for Gamma(beta + i lambda)
        rhs_quoted = rhs_corrected * gamma_product([be - 1j * lam], [be + 1j * lam])
        rel_quoted = abs(lhs_value - rhs_quoted) / max(abs(rhs_quoted), 1e-300)
        rel_corrected = err_corrected / max(abs(rhs_corrected), 1e-300)
        matches = rel_corrected <= tol or err_corrected <= tol_abs
        which = (f"Gamma(beta + i*lambda) convention "
                 f"{'matches' if matches else 'does not match'} "
                 f"(rel {rel_corrected:.3e}); quoted Gamma(beta - i*lambda) "
                 f"convention off by rel {rel_quoted:.3e}")
    # at lambda = 0, alpha = beta and gamma = delta the integrand is an even
    # weight times the odd P_n for odd n: the closed form is 0 up to rounding
    vanishes = n % 2 == 1 and lam == 0.0 and alpha == beta and gamma == delta
    diag = QuadDiagnostics(lhs.evaluations, lhs.error_estimate)
    return integral_report(name, err_corrected, 0.0 if vanishes else abs(rhs_corrected),
                           abs(scale) * lhs.mass, tol, tol_abs,
                           which + "; " + MELLIN_SIGN_NOTE, diag)


def _parseval_right(n: int, m: int, alpha, beta, a, b, gamma, delta, c,
                    d) -> IntegralResult:
    """The line integral on the right of the Parseval identity:
    int w(z/2) p_n(z/2) conj q_m(z/2) dz / (Gamma(al+be+n) Gamma(av+bv+m)),
    w the four-gamma weight on (al, be, av, bv) = (alpha, beta, a, b) and
    p_n, q_m the continuous Hahn transforms of the two Jacobi factors,
    built from the parameters as the caller passed them.

    w(z/2) is analytic in |Im z| < 2 min Re(al, be, av, bv).  For real
    parameters w(-z) = conj w(z) and p_n(-x) = (-1)^n conj p_n(x), so the
    integrand at -z is (-1)^(n+m) times the conjugate of the one at z;
    otherwise |w(-z/2)| != |w(z/2)|, and the envelope bounds both tails."""
    cn = chahn_coeffs_complex(n, _hahn_of_jacobi(alpha, beta, gamma, delta))
    cm = chahn_coeffs_complex(m, _hahn_of_jacobi(*(v.conjugate() for v in (a, b, c, d))))
    values = list(map(_to_complex, (alpha, beta, a, b, gamma, delta, c, d)))
    al, be, av, bv = values[:4]
    log_norm = -(log_gamma_complex(al + be + n) + log_gamma_complex(av + bv + m))
    log_weight = _hahn_weight_log_of(al, be, av, bv)
    real = not any(v.imag for v in values)

    def gamma_sum_log(z: float) -> complex:
        return log_weight(0.5 * z) + log_norm

    def f(zs: list) -> tuple:
        halves = [0.5 * z for z in zs]
        w = [cmath.exp(gamma_sum_log(z)) for z in zs]
        terms = list(map(mul, map(mul, w, horner_level(cn, halves)),
                         [u.conjugate() for u in horner_level(cm, halves)]))
        return sum(terms), sum(map(abs, terms))

    def env(z: float) -> float:
        g = gamma_sum_log(z).real
        if not real:
            g = max(g, gamma_sum_log(-z).real)
        r = 0.5 * abs(z)
        pb = sum(abs(u) * r ** k for k, u in enumerate(cn)) \
            * sum(abs(u) * r ** k for k, u in enumerate(cm))
        return math.exp(g) * pb

    return _line_integral(f, env, 2.0 * min(al.real, be.real, av.real, bv.real),
                          (-1) ** (n + m) if real else None)


def parseval_check(n: int, m: int, alpha, beta, a, b, gamma, delta, c, d,
                   tol: float = 1e-8, tol_abs: float = 1e-10) -> VerificationReport:
    """Both sides of the Parseval identity for two weighted Jacobi factors,
    for general parameters (no orthogonality specialization imposed)."""
    _require_positive_re(alpha=alpha, beta=beta, a=a, b=b)
    name = f"parseval[n={n}, m={m}]"
    al, be = _to_complex(alpha), _to_complex(beta)
    av, bv = _to_complex(a), _to_complex(b)

    # left: 2 pi * integral of the tanh-substituted beta-type integrand
    pn = jacobi_coeffs_complex(n, JacobiParams(gamma, delta))
    pm = jacobi_coeffs_complex(m, JacobiParams(c, d))
    left = _tanh_product_integral(pn, pm, al + av, be + bv)
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
