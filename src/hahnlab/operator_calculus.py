"""Symbolic calculus on the algebra w(x) * q(tanh x).

Here w(x) = (1 - tanh x)^alpha (1 + tanh x)^beta and q is an exact
polynomial in t = tanh x.  Differentiation stays inside the algebra:

    d/dx [w q(t)] = w [ ((beta - alpha) - (alpha + beta) t) q(t)
                        + (1 - t^2) q'(t) ].

Note the logarithmic-derivative factor.  A commonly quoted variant reads
(alpha + beta + (alpha - beta) t); direct differentiation gives
((beta - alpha) - (alpha + beta) t), and only the latter is consistent
with d/dx sech x = -sech x tanh x (the alpha = beta = 1/2 case) and with
the shifted-factorial identity checked below.  The derivation-consistent
form is used throughout and the discrepancy is flagged in report details.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, HahnlabError, StructureError
from .exact import GR_I, I_POWERS, ExactPoly, GaussianRational, _poly, gr
from .orthogonality import _gram_recurrence
from .polynomials import (HahnParams, JacobiParams, chahn_coeffs_exact,
                          jacobi_coeffs_exact, _pochhammer, _term_vectors)
from .reports import VerificationReport, residual_report

SIGN_NOTE = ("log-derivative factor used as (beta-alpha)-(alpha+beta)t; "
             "the variant (alpha+beta+(alpha-beta)t) is inconsistent with "
             "d/dx sech = -sech tanh")


@dataclass(frozen=True)
class WeightedTanhFunction:
    """x |-> (1 - tanh x)^alpha (1 + tanh x)^beta * poly(tanh x)."""

    alpha: Fraction
    beta: Fraction
    poly: ExactPoly

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))


def weight_function(alpha, beta) -> WeightedTanhFunction:
    return WeightedTanhFunction(Fraction(alpha), Fraction(beta), ExactPoly.one())


_ONE_MINUS_T2 = ExactPoly([1, 0, -1])


def d_dx(f: WeightedTanhFunction) -> WeightedTanhFunction:
    log_factor = ExactPoly([f.beta - f.alpha, -(f.alpha + f.beta)])
    new_poly = log_factor * f.poly + _ONE_MINUS_T2 * f.poly.derivative()
    return WeightedTanhFunction(f.alpha, f.beta, new_poly)


def shifted_operator_identity_check(alpha, beta, r: int) -> VerificationReport:
    """(alpha + d/dx / 2)_r w = 2^-r (1-t)^r (alpha+beta)_r w, exactly."""
    if r < 0 or r > 32:
        raise DomainError("shift order r must be in 0..32")
    alpha, beta = Fraction(alpha), Fraction(beta)
    name = f"shifted-operator[alpha={alpha}, beta={beta}, r={r}]"
    f = weight_function(alpha, beta)
    for j in range(r):
        # factor (alpha + j + d/dx / 2), factors commute
        df = d_dx(f)
        f = WeightedTanhFunction(
            f.alpha, f.beta,
            gr(alpha + j) * f.poly + GaussianRational(Fraction(1, 2)) * df.poly)
    # (1-t)^r = sum_k (-r)_k / k! t^k
    expected = _pochhammer(alpha + beta, r) \
        * GaussianRational(Fraction(1, 2 ** r)) \
        * _poly(ExactPoly, *_term_vectors((-r,), (), r))
    return residual_report(name, f.poly - expected, SIGN_NOTE)


def apply_operator_polynomial(op_poly: ExactPoly, scale: GaussianRational,
                              f: WeightedTanhFunction) -> WeightedTanhFunction:
    """Apply op_poly(scale * d/dx) to f as a sum of iterated derivatives.

    The operator is expanded as sum_j c_j (scale d/dx)^j; Horner-style
    application would be wrong because d/dx does not commute with
    multiplication by t.
    """
    derivatives = [f]
    for _ in range(op_poly.degree):
        derivatives.append(d_dx(derivatives[-1]))
    acc = ExactPoly.zero()
    # c_j scale^j are the coefficients of op_poly(scale x)
    for c, derivative in zip(op_poly.scale_argument(scale).coeffs, derivatives):
        acc = acc + c * derivative.poly
    return WeightedTanhFunction(f.alpha, f.beta, acc)


def hahn_operator_identity_check(n: int, alpha, beta, gamma, delta) -> VerificationReport:
    """p_n(-i/2 d/dx; alpha, delta-beta+1, gamma-alpha+1, beta) w
    = i^n (alpha+beta)_n w P_n(tanh x), exactly."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    gamma, delta = Fraction(gamma), Fraction(delta)
    if alpha <= 0 or beta <= 0:
        raise DomainError("weight exponents must be positive")
    name = f"hahn-operator[n={n}, alpha={alpha}, beta={beta}, gamma={gamma}, delta={delta}]"
    hp = HahnParams(alpha, delta - beta + 1, gamma - alpha + 1, beta)
    op_poly = chahn_coeffs_exact(n, hp)
    lhs = apply_operator_polynomial(
        op_poly, -GR_I * GaussianRational(Fraction(1, 2)),
        weight_function(alpha, beta))
    rhs_poly = I_POWERS[n % 4] * _pochhammer(alpha + beta, n) \
        * jacobi_coeffs_exact(n, JacobiParams(gamma, delta))
    detail = SIGN_NOTE
    if gamma == 0 and delta == 0 and alpha == beta:
        m = 2 * alpha - 1
        detail += f"; sech-power specialization m={m}" + (" (Bateman)" if m == 0 else "")
    return residual_report(name, lhs.poly - rhs_poly, detail)


def derive_recurrence(n: int, params: HahnParams):
    """Exact (A_n, B_n, C_n) with x p_n = A_n p_{n+1} + B_n p_n + C_n p_{n-1}.

    The expansion of x p_n in the p-basis is computed exactly; any nonzero
    basis coefficient below index n-1 falsifies the three-term structure
    and raises StructureError.
    """
    if n < 1:
        raise DomainError("recurrence derivation needs n >= 1")
    basis = [chahn_coeffs_exact(k, params) for k in range(n + 2)]
    residual = basis[n].shift_up(1)
    coeffs = [gr(0)] * (n + 2)
    for k in range(n + 1, -1, -1):
        c = residual.coeff(k) / basis[k].leading_coefficient
        coeffs[k] = c
        if c:
            residual = residual - c * basis[k]
    if not residual.is_zero():
        raise StructureError("basis expansion left a nonzero remainder")
    bad = [(k, str(c)) for k, c in enumerate(coeffs[:max(0, n - 1)]) if c]
    if bad:
        raise StructureError(
            f"x p_{n} expansion has nonzero coefficients below n-1: {bad}")
    return coeffs[n + 1], coeffs[n], coeffs[n - 1]


def recurrence_check(label: str, params: HahnParams, n: int) -> VerificationReport:
    """(A_n, B_n, C_n) of derive_recurrence against the Gram's closed-form
    recurrence (orthogonality._gram_recurrence on the same polynomials), and
    A_n against the leading-coefficient ratio lc(p_n) / lc(p_{n+1}), all
    exactly; a failed derivation is a failed check."""
    name = f"recurrence[{label}, n={n}]"
    try:
        derived = derive_recurrence(n, params)
        closed = _gram_recurrence(n + 2, *map(gr, (params.a, params.d, params.c,
                                                   params.b)))[n]
        lc_ratio = chahn_coeffs_exact(n, params).leading_coefficient \
            / chahn_coeffs_exact(n + 1, params).leading_coefficient
    except HahnlabError as exc:
        return VerificationReport(name, "fail", float("inf"), float("inf"), str(exc))
    ok = derived == closed and derived[0] == lc_ratio
    details = f"A_n={derived[0]}"
    if derived != closed:
        details += "; closed form (A_n, B_n, C_n) = ({}, {}, {})".format(*closed)
    return VerificationReport(name, "pass" if ok else "fail",
                              0.0 if ok else float("nan"), 0.0, details)
