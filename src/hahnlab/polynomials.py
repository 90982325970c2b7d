"""Jacobi, continuous Hahn, Bateman and Pasternack polynomials.

Every family is one terminating hypergeometric sum

    prefactor * sum_{k=0}^{n} t_k prod_{j<k} (shift + j*step + slope*x),
    t_{k+1} / t_k = (k-n) prod (u+k) / ((k+1) prod (l+k)),

written down as a few lines of data (_jacobi_sum, _chahn_sum,
_pasternack_sum) and built by one term-ratio loop, _hypergeometric_terms,
that is generic over the scalar field: GaussianRational for exact
parameters, complex otherwise (never gamma quotients, which would
reintroduce the very poles the termination avoids).  Monomial
coefficients, exact or float, come from the nested (Newton-form) product
of the terms.  Float point values keep a forward running sum, term by
term: nesting the value as well moves exact cancellations off zero (an
odd p_n at 0 for symmetric parameters, which the Fourier pair check at
z = 0 relies on).  Exactness is honest in the sense that float inputs are
rejected rather than silently coerced.

Conventions, fixed once here and used everywhere downstream:

  jacobi:      P_n(x) with parameters (gamma, delta), argument x
  chahn:       p_n(x) with parameters (a, b, c, d), leading coefficient
               (n + a+b+c+d - 1)_n / n!
  pasternack:  F_n(x) with parameter m; m = 0 is the Bateman polynomial;
               related to chahn by
               F_n(x) = p_n(-ix/2; (1+m)/2, (1-m)/2, (1-m)/2, (1+m)/2)
                        / (i^n (1+m)_n)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import DomainError, ExactInputError, PoleError
from .exact import GR_I, GR_ONE, ExactPoly, GaussianRational, gr
from .reports import VerificationReport, exact_report

# coefficient growth is unbounded; cap keeps exact runs tractable
EXACT_DEGREE_CAP = 64

_EXACT_TYPES = (int, Fraction, GaussianRational)


def _is_exact(value) -> bool:
    return isinstance(value, _EXACT_TYPES)


def _check_exact_degree(n: int):
    if n < 0:
        raise DomainError("polynomial degree must be nonnegative")
    if n > EXACT_DEGREE_CAP:
        raise DomainError(f"exact construction is capped at degree {EXACT_DEGREE_CAP}")


def _poch_has_zero(value, n: int) -> bool:
    """True when (value)_k = 0 for some k <= n."""
    if _is_exact(value):
        g = gr(value)
        if g.im != 0:
            return False
        v = g.re
        return v.denominator == 1 and -(n - 1) <= v <= 0
    z = complex(value)
    if abs(z.imag) > 1e-12:
        return False
    r = round(z.real)
    return abs(z.real - r) < 1e-12 and -(n - 1) <= r <= 0


def _check_poch(value, n: int, name: str):
    if _poch_has_zero(value, n):
        raise PoleError(f"({name})_k vanishes for k <= {n}")


@dataclass(frozen=True)
class JacobiParams:
    gamma: object
    delta: object

    def is_exact(self) -> bool:
        return _is_exact(self.gamma) and _is_exact(self.delta)


@dataclass(frozen=True)
class HahnParams:
    a: object
    b: object
    c: object
    d: object

    def is_exact(self) -> bool:
        return all(_is_exact(v) for v in (self.a, self.b, self.c, self.d))


def _to_complex(value) -> complex:
    if isinstance(value, GaussianRational):
        return value.to_complex()
    if isinstance(value, Fraction):
        return complex(float(value))
    return complex(value)


class _Field(NamedTuple):
    """The scalars a build runs in: exact Q(i), or complex floats."""

    of: object  # conversion of a parameter
    one: object
    half: object
    i: object


_EXACT = _Field(gr, GR_ONE, GaussianRational(Fraction(1, 2)), GR_I)
_FLOAT = _Field(_to_complex, 1.0, 0.5, 1j)


# ---------------------------------------------------------------------------
# the one terminating-hypergeometric builder
# ---------------------------------------------------------------------------

def _hypergeometric_terms(upper, lower, count: int, one=GR_ONE) -> list:
    """t_0 = one, ..., t_count with t_{k+1}/t_k = prod (u+k) / ((k+1) prod (l+k)).

    Generic over the scalar field: the terms are exact when `one` and the
    parameters are GaussianRational, complex when they are complex.
    """
    term = one
    terms = [term]
    for k in range(count):
        num = 1
        for u in upper:
            num = num * (u + k)
        den = k + 1
        for v in lower:
            factor = v + k
            if not factor:
                raise PoleError(f"hypergeometric denominator ({v})_k hits zero at k={k + 1}")
            den = den * factor
        term = term * num / den
        terms.append(term)
    return terms


class _Sum(NamedTuple):
    """prefactor * sum_{k<=n} t_k prod_{j<k} (shift + j step + slope x), the
    t_k from _hypergeometric_terms((-n, *upper), lower, n)."""

    prefactor: object
    upper: tuple
    lower: tuple
    shift: object
    step: object
    slope: object


def _jacobi_sum(n: int, params: JacobiParams, field: _Field) -> _Sum:
    # ((gamma+1)_n / n!) 2F1(-n, n+gamma+delta+1; gamma+1; (1-x)/2)
    g, d = field.of(params.gamma), field.of(params.delta)
    _check_poch(g + 1, n, "gamma+1")
    return _Sum(_poch_over_factorial((g + 1,), n, field), (n + g + d + 1,), (g + 1,),
                field.half, 0, -field.half)


def _chahn_sum(n: int, params: HahnParams, field: _Field) -> _Sum:
    # i^n ((a+c)_n (a+d)_n / n!) 3F2(-n, n+a+b+c+d-1, a+ix; a+c, a+d; 1)
    a, b, c, d = map(field.of, (params.a, params.b, params.c, params.d))
    _check_poch(a + c, n, "a+c")
    _check_poch(a + d, n, "a+d")
    return _Sum(field.i ** (n % 4) * _poch_over_factorial((a + c, a + d), n, field),
                (n + a + b + c + d - 1,), (a + c, a + d), a, 1, field.i)


def _pasternack_sum(n: int, m, field: _Field) -> _Sum:
    # 3F2(-n, n+1, (1+m+x)/2; 1, m+1; 1)
    mv = field.of(m)
    _check_poch(mv + 1, n, "m+1")
    return _Sum(field.one, (n + 1,), (1, mv + 1), (1 + mv) * field.half, 1, field.half)


def _poch_over_factorial(values, n: int, field: _Field):
    """prod (v)_n / n!, one factor at a time so floats never overflow n!."""
    return _hypergeometric_terms(values, (), n, field.one)[n]


def _coefficients(n: int, s: _Sum, field: _Field) -> list:
    """Monomial coefficients by the nested (Newton-form) product
    t_0 + L_0(x) (t_1 + L_1(x) (... + L_{n-1}(x) t_n)), L_k = shift + k step + slope x."""
    t = _hypergeometric_terms((-n, *s.upper), s.lower, n, field.one)
    acc = [t[n]]
    for k in range(n - 1, -1, -1):
        c0 = s.shift + k * s.step
        nxt = [c0 * acc[0] + t[k]]
        nxt.extend(c0 * acc[j] + s.slope * acc[j - 1] for j in range(1, len(acc)))
        nxt.append(s.slope * acc[-1])
        acc = nxt
    return [s.prefactor * c for c in acc]


def _value(n: int, s: _Sum, x: complex) -> complex:
    """The sum at a point in floats, as a forward running sum, term by term
    (nesting it like _coefficients moves exact cancellations off zero)."""
    t = _hypergeometric_terms((-n, *s.upper), s.lower, n, _FLOAT.one)
    sx = s.slope * x
    power = total = 1 + 0j
    for k in range(n):
        power *= s.shift + k * s.step + sx
        total += t[k + 1] * power
    return s.prefactor * total


def _exact_pochhammer(a: GaussianRational, k: int) -> GaussianRational:
    result = GR_ONE
    for j in range(k):
        result = result * (a + j)
    return result


def horner(coeffs, x: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# the nine public routines: one family each, three uses of the builder
# ---------------------------------------------------------------------------

def _eval(n: int, params, x, exact: bool, family, exact_coeffs) -> complex:
    """Exact parameters go through the exact coefficient vector and a single
    Horner pass: the unit-argument terminating series loses digits to term
    cancellation at large n, the exact route does not."""
    if n < 0:
        raise DomainError("degree must be nonnegative")
    if exact and n <= EXACT_DEGREE_CAP:
        return horner(exact_coeffs(n, params).complex_coeffs(), _to_complex(x))
    return _value(n, family(n, params, _FLOAT), _to_complex(x))


def _coeffs_exact(n: int, params, exact: bool, family, names: str) -> ExactPoly:
    _check_exact_degree(n)
    if not exact:
        raise ExactInputError(f"exact mode requires {names}")
    poly = ExactPoly(_coefficients(n, family(n, params, _EXACT), _EXACT))
    if poly.degree != n:
        raise PoleError(f"degenerate parameters: degree {poly.degree} != {n}")
    return poly


def _coeffs_complex(n: int, params, exact: bool, family, exact_coeffs) -> list:
    # exact parameters route through the exact builder: float coefficients
    # lose digits to cancellation at large n
    if exact and n <= EXACT_DEGREE_CAP:
        return exact_coeffs(n, params).complex_coeffs()
    return _coefficients(n, family(n, params, _FLOAT), _FLOAT)


def jacobi_eval(n: int, params: JacobiParams, x: complex) -> complex:
    """P_n at x: ((gamma+1)_n / n!) * 2F1(-n, n+gamma+delta+1; gamma+1; (1-x)/2)."""
    return _eval(n, params, x, params.is_exact(), _jacobi_sum, _jacobi_exact_cached)


def chahn_eval(n: int, params: HahnParams, x: complex) -> complex:
    """p_n at x: i^n ((a+c)_n (a+d)_n / n!) * terminating 3F2 at unit argument."""
    return _eval(n, params, x, params.is_exact(), _chahn_sum, _chahn_exact_cached)


def pasternack_eval(n: int, m: complex, x: complex) -> complex:
    """F_n at x: 3F2(-n, n+1, (1+m+x)/2; 1, m+1; 1); m = 0 is Bateman's F_n."""
    return _eval(n, m, x, _is_exact(m), _pasternack_sum, pasternack_coeffs_exact)


def jacobi_coeffs_exact(n: int, params: JacobiParams) -> ExactPoly:
    """Exact coefficient vector of P_n for rational (or Q(i)) parameters."""
    return _coeffs_exact(n, params, params.is_exact(), _jacobi_sum, "exact gamma, delta")


def chahn_coeffs_exact(n: int, params: HahnParams) -> ExactPoly:
    """Exact coefficients of p_n; leading coefficient (n+a+b+c+d-1)_n / n!."""
    return _coeffs_exact(n, params, params.is_exact(), _chahn_sum, "exact a, b, c, d")


def pasternack_coeffs_exact(n: int, m) -> ExactPoly:
    """Exact coefficients of F_n for rational m (real coefficients)."""
    return _coeffs_exact(n, m, _is_exact(m), _pasternack_sum, "rational m")


_jacobi_exact_cached = lru_cache(maxsize=512)(jacobi_coeffs_exact)
_chahn_exact_cached = lru_cache(maxsize=512)(chahn_coeffs_exact)


def jacobi_coeffs_complex(n: int, params: JacobiParams) -> list:
    return _coeffs_complex(n, params, params.is_exact(), _jacobi_sum, jacobi_coeffs_exact)


def chahn_coeffs_complex(n: int, params: HahnParams) -> list:
    return _coeffs_complex(n, params, params.is_exact(), _chahn_sum, chahn_coeffs_exact)


def pasternack_coeffs_complex(n: int, m) -> list:
    return _coeffs_complex(n, m, _is_exact(m), _pasternack_sum, pasternack_coeffs_exact)


def pasternack_hahn_params(m) -> HahnParams:
    """The continuous Hahn parameter tuple behind F_n^m."""
    field = _EXACT if _is_exact(m) else _FLOAT
    mv = field.of(m)
    p, q = (1 + mv) * field.half, (1 - mv) * field.half
    return HahnParams(p, q, q, p)


def pasternack_reflection_check(n: int, m) -> VerificationReport:
    """Exact identity (1+m)_n F_n^m(x) = (1-m)_n F_n^{-m}(x)."""
    name = f"pasternack-reflection[n={n}, m={m}]"
    mg = gr(m)
    lhs = _exact_pochhammer(GR_ONE + mg, n) * pasternack_coeffs_exact(n, mg)
    rhs = _exact_pochhammer(GR_ONE - mg, n) * pasternack_coeffs_exact(n, -mg)
    residual = lhs - rhs
    detail = "" if residual.is_zero() else f"residual {residual}"
    return exact_report(name, residual.max_abs_coefficient(), detail)
