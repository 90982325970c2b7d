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

Everything that does not depend on x is built once per process: the memo
_built holds one entry per (route, family, n, parameters), with the
ExactPoly on the exact route or the float plan (prefactor, terms, linear
factors) on the float route, plus the complex coefficient vector derived
from either.  The rule is: dispatch on exactness, then look up.  The route
comes from the parameters' types before the lookup, because equal
parameters of different exactness (1 and 1.0) hash alike and must still
take different routes.  Errors are raised on every call, never stored;
cached values are immutable, and *_coeffs_complex returns a fresh list.

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


class _Plan(NamedTuple):
    """p_n with x left open: prefactor * sum_{k<=n} terms[k] prod_{j<k} L_j(x),
    L_j(x) = offsets[j] + slope x.  Nothing in it depends on x."""

    prefactor: object
    terms: tuple
    offsets: tuple
    slope: object


def _plan(n: int, field: _Field, prefactor, upper, lower, shift, step, slope) -> _Plan:
    """The terms from _hypergeometric_terms((-n, *upper), lower, n) and the
    linear factors L_j(x) = shift + j step + slope x."""
    terms = _hypergeometric_terms((-n, *upper), lower, n, field.one)
    return _Plan(prefactor, tuple(terms), tuple(shift + j * step for j in range(n)), slope)


def _jacobi_sum(n: int, params: JacobiParams, field: _Field) -> _Plan:
    # ((gamma+1)_n / n!) 2F1(-n, n+gamma+delta+1; gamma+1; (1-x)/2)
    g, d = field.of(params.gamma), field.of(params.delta)
    _check_poch(g + 1, n, "gamma+1")
    return _plan(n, field, _poch_over_factorial((g + 1,), n, field), (n + g + d + 1,),
                 (g + 1,), field.half, 0, -field.half)


def _chahn_sum(n: int, params: HahnParams, field: _Field) -> _Plan:
    # i^n ((a+c)_n (a+d)_n / n!) 3F2(-n, n+a+b+c+d-1, a+ix; a+c, a+d; 1)
    a, b, c, d = map(field.of, (params.a, params.b, params.c, params.d))
    _check_poch(a + c, n, "a+c")
    _check_poch(a + d, n, "a+d")
    return _plan(n, field, field.i ** (n % 4) * _poch_over_factorial((a + c, a + d), n, field),
                 (n + a + b + c + d - 1,), (a + c, a + d), a, 1, field.i)


def _pasternack_sum(n: int, m, field: _Field) -> _Plan:
    # 3F2(-n, n+1, (1+m+x)/2; 1, m+1; 1)
    mv = field.of(m)
    _check_poch(mv + 1, n, "m+1")
    return _plan(n, field, field.one, (n + 1,), (1, mv + 1), (1 + mv) * field.half, 1,
                 field.half)


def _poch_over_factorial(values, n: int, field: _Field):
    """prod (v)_n / n!, one factor at a time so floats never overflow n!."""
    return _hypergeometric_terms(values, (), n, field.one)[n]


def _coefficients(plan: _Plan) -> list:
    """Monomial coefficients by the nested (Newton-form) product
    t_0 + L_0(x) (t_1 + L_1(x) (... + L_{n-1}(x) t_n))."""
    t, slope = plan.terms, plan.slope
    acc = [t[-1]]
    for k in range(len(plan.offsets) - 1, -1, -1):
        c0 = plan.offsets[k]
        nxt = [c0 * acc[0] + t[k]]
        nxt.extend(c0 * acc[j] + slope * acc[j - 1] for j in range(1, len(acc)))
        nxt.append(slope * acc[-1])
        acc = nxt
    return [plan.prefactor * c for c in acc]


def _value(plan: _Plan, x: complex) -> complex:
    """The sum at a point in floats, as a forward running sum, term by term
    (nesting it like _coefficients moves exact cancellations off zero)."""
    sx = plan.slope * x
    power = total = 1 + 0j
    for offset, term in zip(plan.offsets, plan.terms[1:]):
        power *= offset + sx
        total += term * power
    return plan.prefactor * total


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
# the memo: each polynomial's x-independent part, built once per process
# ---------------------------------------------------------------------------

_MEMO_SIZE = 1024


class _Built:
    """One polynomial on one route: the ExactPoly (exact route) or the float
    _Plan (float route), and the complex coefficient vector derived from
    either the first time it is asked for."""

    __slots__ = ("poly", "plan", "_coeffs")

    def __init__(self, poly=None, plan=None):
        self.poly, self.plan, self._coeffs = poly, plan, None

    def coeffs(self) -> tuple:
        if self._coeffs is None:
            self._coeffs = tuple(_coefficients(self.plan) if self.poly is None
                                 else self.poly.complex_coeffs())
        return self._coeffs


@lru_cache(maxsize=_MEMO_SIZE)
def _built(exact: bool, family, n: int, params) -> _Built:
    """p_n of `family` on the exact route (exact=True) or the float one.

    Callers choose the route before the lookup: JacobiParams(1, 0) and
    JacobiParams(1.0, 0.0) are equal and hash alike, and only the route
    flag keeps them apart.  Errors propagate and are not stored."""
    if n < 0:
        raise DomainError("polynomial degree must be nonnegative")
    if not exact:
        return _Built(plan=family(n, params, _FLOAT))
    poly = ExactPoly(_coefficients(family(n, params, _EXACT)))
    if poly.degree != n:
        raise PoleError(f"degenerate parameters: degree {poly.degree} != {n}")
    return _Built(poly=poly)


# ---------------------------------------------------------------------------
# the nine public routines: one family each, three uses of the memo
# ---------------------------------------------------------------------------

def _eval(n: int, params, x, exact: bool, family) -> complex:
    """Exact parameters go through the exact coefficient vector and a single
    Horner pass: the unit-argument terminating series loses digits to term
    cancellation at large n, the exact route does not."""
    if exact and n <= EXACT_DEGREE_CAP:
        return horner(_built(True, family, n, params).coeffs(), _to_complex(x))
    return _value(_built(False, family, n, params).plan, _to_complex(x))


def _coeffs_exact(n: int, params, exact: bool, family, names: str) -> ExactPoly:
    _check_exact_degree(n)
    if not exact:
        raise ExactInputError(f"exact mode requires {names}")
    return _built(True, family, n, params).poly


def _coeffs_complex(n: int, params, exact: bool, family) -> list:
    # exact parameters route through the exact builder: float coefficients
    # lose digits to cancellation at large n
    return list(_built(exact and n <= EXACT_DEGREE_CAP, family, n, params).coeffs())


def jacobi_eval(n: int, params: JacobiParams, x: complex) -> complex:
    """P_n at x: ((gamma+1)_n / n!) * 2F1(-n, n+gamma+delta+1; gamma+1; (1-x)/2)."""
    return _eval(n, params, x, params.is_exact(), _jacobi_sum)


def chahn_eval(n: int, params: HahnParams, x: complex) -> complex:
    """p_n at x: i^n ((a+c)_n (a+d)_n / n!) * terminating 3F2 at unit argument."""
    return _eval(n, params, x, params.is_exact(), _chahn_sum)


def pasternack_eval(n: int, m: complex, x: complex) -> complex:
    """F_n at x: 3F2(-n, n+1, (1+m+x)/2; 1, m+1; 1); m = 0 is Bateman's F_n."""
    return _eval(n, m, x, _is_exact(m), _pasternack_sum)


def jacobi_coeffs_exact(n: int, params: JacobiParams) -> ExactPoly:
    """Exact coefficient vector of P_n for rational (or Q(i)) parameters."""
    return _coeffs_exact(n, params, params.is_exact(), _jacobi_sum, "exact gamma, delta")


def chahn_coeffs_exact(n: int, params: HahnParams) -> ExactPoly:
    """Exact coefficients of p_n; leading coefficient (n+a+b+c+d-1)_n / n!."""
    return _coeffs_exact(n, params, params.is_exact(), _chahn_sum, "exact a, b, c, d")


def pasternack_coeffs_exact(n: int, m) -> ExactPoly:
    """Exact coefficients of F_n for rational m (real coefficients)."""
    return _coeffs_exact(n, m, _is_exact(m), _pasternack_sum, "rational m")


def jacobi_coeffs_complex(n: int, params: JacobiParams) -> list:
    return _coeffs_complex(n, params, params.is_exact(), _jacobi_sum)


def chahn_coeffs_complex(n: int, params: HahnParams) -> list:
    return _coeffs_complex(n, params, params.is_exact(), _chahn_sum)


def pasternack_coeffs_complex(n: int, m) -> list:
    return _coeffs_complex(n, m, _is_exact(m), _pasternack_sum)


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
