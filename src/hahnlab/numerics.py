"""Floating-point foundations: complex gamma in the log domain.

Everything downstream that touches a gamma function goes through this
module.  Products of gammas are assembled as sums of log-gammas and only
the final value is exponentiated; the four-gamma line weight underflows
in linear arithmetic already at moderate |z|, so this is not optional.

The log-gamma itself is a Lanczos rational approximation with g = 607/128
and 15 coefficients (Godfrey's set), good to a few ulp of double precision
on Re(z) >= 1/2, extended to the left half-plane with the reflection
formula Gamma(z) Gamma(1-z) = pi / sin(pi z).  The Lanczos sum is one
expression over the coefficients written as complex constants, added in
order: a float over a complex divides only after the float's own division
declines and the float is converted, so a complex constant gives the same
quotient, bit for bit, at one division's cost.

The four-gamma line weight is one memo per process (_weight_memo): each
node z of a parameter tuple is computed at most once, however many callers
ask, as a list of one log-gamma per distinct shift summed through shift
indices fixed with the memo; at most 8 tuples of 30,000 nodes are kept.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from functools import lru_cache

from .errors import DomainError, PoleError, RangeOverflowError, _complex, _require, _require_int

_LANCZOS_G = 607.0 / 128.0
_LOG_SQRT_2PI = 0.91893853320467274178032973640562
_LOG_PI = 1.1447298858494001741434273513531
_LOG_2 = 0.69314718055994530941723212145818
# exp() of anything above this is not a finite double
_MAX_EXP_ARG = 709.0


class LogGammaValue(namedtuple("LogGammaValue", "log_modulus phase")):
    """Stable carrier for Gamma(z): log|Gamma(z)| plus the phase of the
    value, reduced to the principal interval (-pi, pi]."""

    __slots__ = ()

    def exp(self) -> complex:
        """The plain value Gamma(z); raises if it is not a finite double."""
        if self.log_modulus > _MAX_EXP_ARG:
            raise RangeOverflowError(
                f"gamma value overflows: log modulus {self.log_modulus:.3g}")
        r = math.exp(self.log_modulus)
        return complex(r * math.cos(self.phase), r * math.sin(self.phase))


def _lanczos_log_gamma(z: complex) -> complex:
    # valid for Re(z) >= 0.5; Godfrey's coefficients c_k as complex constants,
    # the terms c_k / (zz + k) added in order of k
    zz = z - 1.0
    acc = ((0.99999999999999709182+0j) + (57.156235665862923517+0j) / (zz + 1.0)
           + (-59.597960355475491248+0j) / (zz + 2.0)
           + (14.136097974741747174+0j) / (zz + 3.0)
           + (-0.49191381609762019978+0j) / (zz + 4.0)
           + (0.33994649984811888699e-4+0j) / (zz + 5.0)
           + (0.46523628927048575665e-4+0j) / (zz + 6.0)
           + (-0.98374475304879564677e-4+0j) / (zz + 7.0)
           + (0.15808870322491248884e-3+0j) / (zz + 8.0)
           + (-0.21026444172410488319e-3+0j) / (zz + 9.0)
           + (0.21743961811521264320e-3+0j) / (zz + 10.0)
           + (-0.16431810653676389022e-3+0j) / (zz + 11.0)
           + (0.84418223983852743293e-4+0j) / (zz + 12.0)
           + (-0.26190838401581408670e-4+0j) / (zz + 13.0)
           + (0.36899182659531622704e-5+0j) / (zz + 14.0))
    t = zz + _LANCZOS_G + 0.5
    return _LOG_SQRT_2PI + (zz + 0.5) * cmath.log(t) - t + cmath.log(acc)


def _log_sin_pi(z: complex) -> complex:
    """log sin(pi z) without overflow for large |Im z|.

    sin(pi z) has period 2 in Re z, and fmod reduces Re z exactly, so pi z
    is formed from |Re z| < 2 and keeps its phase at any Re z."""
    z = complex(math.fmod(z.real, 2.0), z.imag)
    if z.imag < 0.0:
        return _log_sin_pi(z.conjugate()).conjugate()
    if z.imag < 20.0:
        return cmath.log(cmath.sin(math.pi * z))
    # sin(pi z) = (i/2) e^{-i pi z}(1 - e^{2 i pi z}); the neglectable term
    # has modulus e^{-2 pi Im z}
    rest = -cmath.exp(2j * math.pi * z)
    return (math.pi * z.imag - _LOG_2
            + 1j * (math.pi / 2.0 - math.pi * z.real)
            + cmath.log(1.0 + rest))


def log_gamma_complex(z: complex) -> complex:
    """Complex log Gamma(z) as a single complex number.

    The imaginary part is consistent under summation of several values but
    is not reduced; use log_gamma() for the principal-phase form.
    Raises PoleError at z in {0, -1, -2, ...}, DomainError at a z that
    is not a number (text included) or not finite, and RangeOverflowError at
    an exact z past the double range or a z whose log Gamma is not a finite
    complex double (|z| near 1e305 and beyond).
    """
    if type(z) is not complex:
        z = _complex("log-gamma argument", z)  # or the HahnlabError naming z
    if not cmath.isfinite(z):
        raise DomainError(f"log-gamma argument {z!r} is not finite")
    if z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real):
        raise PoleError(f"gamma pole at z = {z.real:g}")
    w = _lanczos_log_gamma(z) if z.real >= 0.5 else \
        _LOG_PI - _log_sin_pi(z) - _lanczos_log_gamma(1.0 - z)
    if cmath.isfinite(w):
        return w
    raise RangeOverflowError(f"log-gamma at z = {z!r} is past the double range")


def log_gamma(z: complex) -> LogGammaValue:
    """Principal-branch log Gamma as (log modulus, principal phase)."""
    w = log_gamma_complex(z)
    phase = math.remainder(w.imag, 2.0 * math.pi)
    if phase <= -math.pi:
        phase += 2.0 * math.pi
    return LogGammaValue(w.real, phase)


def gamma(z: complex) -> complex:
    """Gamma(z) for complex z; overflow surfaces as RangeOverflowError."""
    return log_gamma(z).exp()


def pochhammer(a: complex, k: int) -> complex:
    """Rising factorial a (a+1) ... (a+k-1); the empty product is 1."""
    _require_int("k", k, 0)
    result = complex(1.0)
    [a] = _require("finite", a=a)
    for j in range(k):
        result *= a + j
    if not (math.isfinite(result.real) and math.isfinite(result.imag)):
        raise RangeOverflowError(f"pochhammer({a}, {k}) overflows")
    return result


def beta(alpha: complex, beta_: complex) -> complex:
    """Gamma(alpha) Gamma(beta) / Gamma(alpha + beta), Re parts > 0 as doubles."""
    alpha, beta_ = _require("Re > 0 as a double", alpha=alpha, beta=beta_)
    total = alpha + beta_
    if not cmath.isfinite(total):
        raise RangeOverflowError(f"beta: alpha + beta = {total!r} is past the double range")
    w = log_gamma_complex(alpha) + log_gamma_complex(beta_) - log_gamma_complex(total)
    return _exp_checked(w, "beta")


def gamma_product(factors, inverse_factors=()) -> complex:
    """exp(sum log Gamma(factors) - sum log Gamma(inverse_factors))."""
    w = complex(0.0)
    for f in factors:
        w += log_gamma_complex(f)
    for f in inverse_factors:
        w -= log_gamma_complex(f)
    return _exp_checked(w, "gamma product")


def _hahn_weight_log_of(alpha: complex, beta_: complex, a: complex, b: complex):
    """z -> hahn_weight_log(z, alpha, beta_, a, b), the tuple's memo: the
    parameters are checked on every call, as the doubles the memo computes
    with, before the memo is looked up, so a DomainError is never stored and
    a NaN (never equal to itself) never becomes a key."""
    return _weight_memo(*_require("Re > 0 as a double", alpha=alpha, beta=beta_, a=a, b=b))


_WEIGHT_TUPLES = 8  # `gram` keeps 4 tuples live, `verify --suite all` 6
_WEIGHT_NODES = 30_000  # per tuple: quadrature._NODE_BUDGET, one full run


@lru_cache(maxsize=_WEIGHT_TUPLES)
def _weight_memo(al: complex, be: complex, av: complex, bv: complex):
    """z -> log w(z) for one checked tuple, each node computed at most once.

    The key is the complex tuple, so Fraction, float and complex parameters
    of equal value share one memo.  A miss runs the operations of a fresh
    computation in the same order, so every value is the unmemoized one, bit
    for bit (0.0 and -0.0 are one node: their values are the same bits).
    Past _WEIGHT_NODES stored nodes a miss is computed and not stored.  A node
    costs about 100 bytes (float key, complex value, dict slot), so a full
    tuple holds about 3 MB and the whole memo at most about 24 MB."""
    shifts = (al, be.conjugate(), av.conjugate(), bv)
    distinct = list(dict.fromkeys(shifts))
    ia, ib, ic, id_ = map(distinct.index, shifts)
    nodes = {}

    def log_weight(z: float) -> complex:
        z = float(z)  # the conjugate identity needs real z
        value = nodes.get(z)
        if value is None:  # log_gamma_complex refuses a z that is not finite
            iz = 1j * z
            logs = [log_gamma_complex(p + iz) for p in distinct]
            value = logs[ia] + logs[ib].conjugate() + logs[ic].conjugate() + logs[id_]
            if len(nodes) < _WEIGHT_NODES:
                nodes[z] = value
        return value
    return log_weight


def hahn_weight_log(z: float, alpha: complex, beta_: complex,
                    a: complex, b: complex) -> complex:
    """log of Gamma(alpha+iz) Gamma(beta-iz) Gamma(a-iz) Gamma(b+iz), real z.

    For real z, log Gamma(p - iz) = conj log Gamma(conj p + iz), so the
    four shifts share their log-gammas where they coincide in that form:
    all 1/2 takes one call, a conjugate pair (a = conj alpha, b = conj
    beta) two, at a node the tuple's memo does not hold yet (_weight_memo).
    The terms are summed in the order above either way.  A z that is not a
    finite real number raises DomainError naming it.
    """
    log_weight = _hahn_weight_log_of(alpha, beta_, a, b)
    [zc] = _require("finite", z=z)
    if zc.imag:
        raise DomainError(f"z must be real, got {z!r}")
    return log_weight(zc.real)


def hahn_weight(z: float, alpha: complex, beta_: complex,
                a: complex, b: complex) -> complex:
    """The four-gamma line weight, assembled in the log domain."""
    return _exp_checked(hahn_weight_log(z, alpha, beta_, a, b), "hahn weight")


def _exp_checked(w: complex, what: str) -> complex:
    if w.real > _MAX_EXP_ARG:
        raise RangeOverflowError(f"{what} overflows: log modulus {w.real:.3g}")
    value = cmath.exp(w)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise RangeOverflowError(f"{what} is not finite")
    return value
