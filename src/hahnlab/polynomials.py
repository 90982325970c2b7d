"""Jacobi, continuous Hahn, Bateman and Pasternack polynomials.

Every family is one terminating hypergeometric sum

    prefactor * sum_{k=0}^{n} t_k prod_{j<k} (shift + j*step + slope*x),
    t_k = (-n)_k prod (u)_k prod (l+k)_{n-k} / (k! n!),

written down as a few lines of data (_jacobi_sum, _chahn_sum,
_pasternack_sum) and built on one route, exactly.  Each term is a forward
product times a backward suffix in Gaussian integers (_term_products), so no
parameter divides: a lower one in {0, -1, ..., 1-n} is no pole of Jacobi or
continuous Hahn, whose prefactors cancel (l)_k (DLMF 18.5(iii); Koekoek,
Lesky and Swarttouw (2010) (9.4.1)), and Pasternack's 3F2 alone keeps its
pole, (m+1)_n = 0.  The nested product of the terms gives the coefficients
(_exact_poly).  A float or complex parameter is built at the exact value it
stores (Fraction(x), or a pair of them), inside the build, so the parameter
objects keep their exactness verdict and *_coeffs_exact, like every exact
API, still rejects float inputs.  A value at a point is one Horner pass over
the exact coefficients rounded once to complex; a non-finite x raises
DomainError, a value that overflows RangeOverflowError.  A degree n that is
not an int in 0..EXACT_DEGREE_CAP raises the integer gate's DomainError
(errors._require_int), for float parameters as for exact ones.

Everything that does not depend on x is built once per process: the memo
_built holds one entry per (family, n, parameters), the ExactPoly plus,
from the first float use on, its coefficients rounded to complex, highest
degree first.  Equal parameters of either kind (1 and 1.0, 1/2 and 0.5)
are one key and one polynomial.  JacobiParams and HahnParams are
namedtuples, so the memo hashes and compares them as tuples, in C.  A float
value is one frame (_evaluator): Horner over that tuple from its leading
coefficient, read from the family's record of its last memo lookup when the
parameter and degree objects (`is`) repeat it, else from one more lookup.
Errors are raised on every call, never stored; cached values are immutable
and *_coeffs_complex gives a fresh list.

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

from cmath import isfinite
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import factorial, gcd
from operator import add, mul

from .errors import (DomainError, ExactInputError, PoleError, RangeOverflowError, _complex,
                     _require, _require_int, _require_tuple)
from .exact import (GR_HALF, GR_I, I_POWERS, ExactPoly, GaussianRational, _multiply, _poly,
                    _rational, _scalar, _vectors, gr)
from .reports import VerificationReport, residual_report

# coefficient growth is unbounded; cap keeps exact runs tractable
EXACT_DEGREE_CAP = 64

_EXACT_TYPES = (GaussianRational, int, Fraction)


def _is_exact(value) -> bool:
    # floats first: Fraction's ABC metaclass makes isinstance slow on them
    return not isinstance(value, (float, complex)) and isinstance(value, _EXACT_TYPES)


class JacobiParams(namedtuple("JacobiParams", "gamma delta")):
    __slots__ = ()

    def is_exact(self) -> bool:
        return all(map(_is_exact, self))


class HahnParams(namedtuple("HahnParams", "a b c d")):
    __slots__ = ()
    is_exact = JacobiParams.is_exact


# a GaussianRational or a Fraction converts through its __complex__, each part
# rounded once
_to_complex = complex


def _stored(value):
    """A parameter as the exact value it stores: a float is the dyadic
    rational Fraction(x), a complex number a pair of them."""
    if isinstance(value, (float, complex)):
        [value] = _require("finite", parameter=value)
        return GaussianRational(Fraction(value.real), Fraction(value.imag))
    return value


class _Sum(namedtuple("_Sum", "n prefactor upper lower shift step slope")):
    """p_n as data: prefactor * sum_{k<=n} t_k prod_{j<k} (shift + j step + slope x), t_k
    from _term_products((-n, *upper), lower, n), or _term_vectors for a prefactor None."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# the builder: term products, the families as data, nested products
# ---------------------------------------------------------------------------

def _run(ks, factors, whole, q: int, power: int):
    """Running products over k in ks of prod (w + k), w in whole (ints), and of
    power * prod (F + kq), F in factors ((re, im) ints): lists (ints, re, im)."""
    i, re, im, out = 1, 1, 0, ([1], [1], [0])
    for k in ks:
        re, im = re * power, im * power
        for f_re, f_im in factors:
            f_re += k * q
            re, im = re * f_re - im * f_im, re * f_im + im * f_re
        for w in whole:
            i *= w + k
        out[0].append(i)
        out[1].append(re)
        out[2].append(im)
    return out


def _term_products(upper, lower, count: int) -> tuple:
    """(re, im, den), im empty when real, with (re[k] + i im[k]) / den = prod (u)_k
    prod (l+k)_{count-k} / (k! count!), k <= count: a forward product times a backward
    suffix, no parameter a divisor.  Gaussian parameters go over their one q, integer
    ones and the lower 1 of k! = (1)_k into an integer factor one gcd reduces; of a
    Gaussian uppers and b lowers, the fewer multiply q^|a-b| into each step."""
    re, im, q = _vectors((*upper, *lower))
    factors, whole = ([], []), ([], [1])  # (upper, lower) each
    for j, (r, m) in enumerate(zip(re, im or repeat(0))):
        if m or r % q:
            factors[j >= len(upper)].append((r, m))
        else:
            whole[j >= len(upper)].append(r // q)
    a, b = map(len, factors)
    f_int, f_re, f_im = _run(range(count), factors[0], whole[0], q, q ** max(b - a, 0))
    b_int, b_re, b_im = map(reversed, _run(
        range(count - 1, -1, -1), factors[1], whole[1], q, q ** max(a - b, 0)))
    ints = list(map(mul, f_int, b_int))
    g = gcd(*ints, factorial(count) ** 2)
    den = factorial(count) ** 2 // g * q ** (count * max(a, b))
    rows = list(zip(ints, f_re, f_im, b_re, b_im))
    im = [w // g * (fr * bm + fm * br) for w, fr, fm, br, bm in rows]
    return [w // g * (fr * br - fm * bm) for w, fr, fm, br, bm in rows], im if any(im) else [], den


def _term_vectors(upper, lower, count: int) -> tuple:
    """The series terms prod (u)_k / (k! prod (l)_k), k <= count, as vectors (re, im, den):
    _term_products over its term 0, which a lower parameter in {0, ..., 1-count} zeroes."""
    re, im, _ = _term_products(upper, lower, count)
    r0, m0 = re[0], im[0] if im else 0
    if not (r0 or m0):
        k, v = next((k, v) for k in range(1, count + 1) for v in lower if not gr(v) + k - 1)
        raise PoleError(f"hypergeometric denominator ({v})_k hits zero at k={k}")
    return (*_multiply([r0], [-m0], re, im, count + 1), r0 * r0 + m0 * m0) if m0 else (re, im, r0)


def _pochhammer(a, n: int) -> GaussianRational:
    """(a)_n = prod_{k<n} (a + k) over Q(i): the last forward run of _term_products."""
    r, m, q = _scalar(a)
    _, re, im = _run(range(n), [(r, m)], (), q, 1)
    return _rational(re[-1], im[-1], q ** n)


def _jacobi_sum(n: int, params: JacobiParams) -> _Sum:
    # ((gamma+1)_n / n!) 2F1(-n, n+gamma+delta+1; gamma+1; (1-x)/2), prefactor in the terms
    g, d = (gr(_stored(v)) for v in _require_tuple("params", params, 2))
    return _Sum(n, 1, (n + g + d + 1,), (g + 1,), GR_HALF, 0, -GR_HALF)


def _chahn_sum(n: int, params: HahnParams) -> _Sum:
    # i^n ((a+c)_n (a+d)_n / n!) 3F2(-n, n+a+b+c+d-1, a+ix; a+c, a+d; 1)
    a, b, c, d = (gr(_stored(v)) for v in _require_tuple("params", params, 4))
    return _Sum(n, I_POWERS[n % 4], (n + a + b + c + d - 1,), (a + c, a + d), a, 1, GR_I)


def _chahn_recurrence(N: int, a, b, c, d) -> list:
    """(A_n, B_n, C_n) for n < N - 1, with x p_n = A_n p_{n+1} + B_n p_n + C_n p_{n-1},
    of p_n(x; a, b, c, d), in the parameters' own scalars: complex floats for
    the Gram, exact GaussianRationals for recurrence_check, which compares it
    with derive_recurrence exactly.  By Koekoek, Lesky and Swarttouw (2010)
    (9.4.3), with s = a+b+c+d and the 3F2 p~_n = p_n / (i^n (a+c)_n (a+d)_n / n!),

        (a + ix) p~_n = K_n p~_{n+1} - (K_n + L_n) p~_n + L_n p~_{n-1},
        K_n = -(n+s-1)(n+a+c)(n+a+d) / ((2n+s-1)(2n+s)),
        L_n = n (n+b+c-1)(n+b+d-1) / ((2n+s-2)(2n+s-1)),

    so that A_n = (n+1)(n+s-1) / ((2n+s-1)(2n+s)), B_n = i (a + K_n + L_n)
    and C_n = L_n (n+a+c-1)(n+a+d-1) / n."""
    s = a + b + c + d
    i = GR_I if isinstance(s, GaussianRational) else 1j
    out = []
    for n in range(N - 1):
        # K_n = -(n+a+c)(n+a+d) k; (n+s-1)/(2n+s-1) is 1 at n = 0, so s = 1
        # (a removable 0/0 there) works, as in orthogonality._chahn_norms
        k = ((n + s - 1) / (2 * n + s - 1) if n else 1) / (2 * n + s)
        # L_n = n m
        m = (n + b + c - 1) * (n + b + d - 1) / ((2 * n + s - 2) * (2 * n + s - 1)) \
            if n else 0
        out.append(((n + 1) * k, i * (a + n * m - (n + a + c) * (n + a + d) * k),
                    m * (n + a + c - 1) * (n + a + d - 1)))
    return out


def _pasternack_sum(n: int, m) -> _Sum:
    # 3F2(-n, n+1, (1+m+x)/2; 1, m+1; 1) as it is (prefactor None): terms over term 0
    m1 = gr(_stored(m)) + 1
    if not m1._im and m1._den == 1 and -n < m1._re <= 0:  # (m+1)_n = 0: nothing cancels it
        raise PoleError(f"(m+1)_k vanishes for k <= {n}")
    return _Sum(n, None, (n + 1,), (1, m1), m1 * GR_HALF, 1, GR_HALF)


def _exact_poly(s: _Sum) -> ExactPoly:
    """The monomial coefficients of a sum by the nested (Newton-form) product
    t_0 + L_0(x) (t_1 + L_1(x) (... + L_{n-1}(x) t_n)), fraction-free: with t_k =
    T_k / D (_term_products; _term_vectors for a prefactor None), L_k(x) = (O_k +
    S x) / q and the prefactor W / d, A_n = W T_n, A_k = W q^(n-k) T_k + (O_k + S x)
    A_{k+1} and p_n = A_0 / (d D q^n), in Gaussian integers."""
    n = s.n
    terms = _term_vectors if s.prefactor is None else _term_products
    t_re, t_im, t_den = terms((-n, *s.upper), s.lower, n)
    (o_re, s_re), im, q = _vectors((s.shift, s.slope))
    o_im, s_im = im or (0, 0)
    w_re, w_im, w_den = _scalar(s.prefactor or 1)
    real = not (o_im or s_im or t_im or w_im)
    step = s.step * q
    acc_re, acc_im = [], []  # A_{n+1} = 0; (w_re, w_im) is W q^(n-k)
    for k in range(n, -1, -1):
        ok_re = o_re + k * step
        # coefficient j of (O_k + S x) A is O_k A_j + S A_{j-1}
        if real:
            acc_re = [ok_re * a + s_re * c for a, c in zip(acc_re + [0], [0] + acc_re)]
        else:
            rows = list(zip(acc_re + [0], acc_im + [0], [0] + acc_re, [0] + acc_im))
            acc_re = [ok_re * a - o_im * b + s_re * c - s_im * d for a, b, c, d in rows]
            acc_im = [ok_re * b + o_im * a + s_re * d + s_im * c for a, b, c, d in rows]
            tm = t_im[k] if t_im else 0
            acc_re[0] -= w_im * tm
            acc_im[0] += w_re * tm + w_im * t_re[k]
        acc_re[0] += w_re * t_re[k]
        w_re, w_im = w_re * q, w_im * q
    return _poly(ExactPoly, acc_re, acc_im, w_den * t_den * q ** n)


def horner(coeffs, x: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def horner_level(coeffs, xs: list) -> list:
    """[horner(coeffs, x) for x in xs], bit for bit, with one pass over the
    list per coefficient instead of one Python loop per point."""
    acc = [0j] * len(xs)
    for c in reversed(coeffs):
        acc = list(map(add, map(mul, acc, xs), repeat(c)))
    return acc


# ---------------------------------------------------------------------------
# the memo: each polynomial's x-independent part, built once per process
# ---------------------------------------------------------------------------

_MEMO_SIZE = 1024


class _Built:
    """One polynomial: its ExactPoly, and its coefficients rounded once to complex,
    highest degree first as Horner reads them; None until the first float use."""

    __slots__ = ("poly", "rounded")

    def __init__(self, poly: ExactPoly):
        self.poly, self.rounded = poly, None

    def round(self) -> tuple:
        try:
            self.rounded = tuple(reversed(self.poly.complex_coeffs()))
        except OverflowError:
            raise RangeOverflowError(
                f"p_{self.poly.degree} has a coefficient past the double range") from None
        return self.rounded

    def coeffs(self) -> list:  # a fresh list, lowest degree first
        return list(reversed(self.rounded or self.round()))


@lru_cache(maxsize=_MEMO_SIZE)
def _built(family, n: int, params) -> _Built:
    """p_n of `family` at the exact value of every parameter, for a gated n
    (_lookup).  Errors propagate and are not stored."""
    poly = _exact_poly(family(n, params))
    if poly.degree != n:
        raise PoleError(f"degenerate parameters: degree {poly.degree} != {n}")
    return _Built(poly)


def _lookup(family, n: int, params) -> _Built:
    """_built(family, n, params) for n gated before the memo; a record the memo
    cannot hash (a list, or one holding a list) raises DomainError naming params."""
    n = _require_int("n", n, 0, EXACT_DEGREE_CAP)
    try:
        return _built(family, n, params)
    except TypeError:
        try:  # on the failure path only: hashing exact parameters is not free
            hash(params)
        except TypeError:
            raise DomainError(f"params must be a number or tuple of numbers, got {params!r}") \
                from None
        raise


# ---------------------------------------------------------------------------
# the nine public routines: one family each, three uses of the memo
# ---------------------------------------------------------------------------

def _evaluator(family, name: str, doc: str):
    """The public float routine of one family, one frame per value: Horner from
    the leading rounded coefficient (0j * x + lead is lead, bit for bit, at a
    finite x) over the family's record (n, params, lead, tail) of its last memo
    lookup when n and params are its objects, else over a new one, stored in one
    assignment.  Non-finite x raises DomainError, another non-finite value RangeOverflowError."""
    record = (None, None, None, None)

    def evaluate(n, params, x):
        nonlocal record
        if type(x) is not complex:
            x = _complex("x", x)  # or the HahnlabError naming x
        last_n, last_params, value, tail = record
        if last_params is not params or last_n is not n:
            if not (isinstance(n, int) and 0 <= n <= EXACT_DEGREE_CAP):
                _require_int("n", n, 0, EXACT_DEGREE_CAP)  # raises: _lookup's gate, no frame
            try:
                built = _built(family, n, params)
            except TypeError:  # a record the memo cannot hash: _lookup's DomainError
                built = _lookup(family, n, params)
            rounded = built.rounded or built.round()
            value, tail = rounded[0], rounded[1:]
            record = (n, params, value, tail)
        for c in tail:
            value = value * x + c
        if not (isfinite(value) and (tail or isfinite(x))):
            if not isfinite(x):
                raise DomainError(f"x = {x} is not finite")
            raise RangeOverflowError(f"degree {n} value at x = {x} is not finite")
        return value

    evaluate.__name__ = evaluate.__qualname__ = name
    evaluate.__code__ = evaluate.__code__.replace(co_name=name)  # profiles tell them apart
    evaluate.__doc__ = doc
    return evaluate


def _coeffs_exact(n: int, params, size: int | None, family, names: str) -> ExactPoly:
    """p_n for a record of size exact values (size None: one exact m)."""
    values = (params,) if size is None else _require_tuple("params", params, size)
    if not all(map(_is_exact, values)):
        raise ExactInputError(f"exact mode requires {names}")
    return _lookup(family, n, params).poly


jacobi_eval = _evaluator(_jacobi_sum, "jacobi_eval", "P_n at x: ((gamma+1)_n / n!)"
                         " * 2F1(-n, n+gamma+delta+1; gamma+1; (1-x)/2).")
chahn_eval = _evaluator(_chahn_sum, "chahn_eval", "p_n at x: i^n ((a+c)_n (a+d)_n / n!)"
                        " * terminating 3F2 at unit argument.")
pasternack_eval = _evaluator(_pasternack_sum, "pasternack_eval", "F_n at x: 3F2(-n, n+1, "
                             "(1+m+x)/2; 1, m+1; 1); m = 0 is Bateman's F_n.")


def jacobi_coeffs_exact(n: int, params: JacobiParams) -> ExactPoly:
    """Exact coefficient vector of P_n for rational (or Q(i)) parameters."""
    return _coeffs_exact(n, params, 2, _jacobi_sum, "exact gamma, delta")


def chahn_coeffs_exact(n: int, params: HahnParams) -> ExactPoly:
    """Exact coefficients of p_n; leading coefficient (n+a+b+c+d-1)_n / n!."""
    return _coeffs_exact(n, params, 4, _chahn_sum, "exact a, b, c, d")


def pasternack_coeffs_exact(n: int, m) -> ExactPoly:
    """Exact coefficients of F_n for rational m (real coefficients)."""
    return _coeffs_exact(n, m, None, _pasternack_sum, "rational m")


def jacobi_coeffs_complex(n: int, params: JacobiParams) -> list:
    return _lookup(_jacobi_sum, n, params).coeffs()


def chahn_coeffs_complex(n: int, params: HahnParams) -> list:
    return _lookup(_chahn_sum, n, params).coeffs()


def pasternack_coeffs_complex(n: int, m) -> list:
    return _lookup(_pasternack_sum, n, m).coeffs()


def pasternack_hahn_params(m) -> HahnParams:
    """The continuous Hahn parameter tuple behind F_n^m; a float or complex m
    that is not finite raises DomainError naming m."""
    if _is_exact(m):
        mv, half = gr(m), GR_HALF
    else:
        [mv], half = _require("finite", m=m), 0.5
    p, q = (1 + mv) * half, (1 - mv) * half
    return HahnParams(p, q, q, p)


def _hahn_of_jacobi(alpha, beta, gamma, delta) -> HahnParams:
    """(alpha, delta - beta + 1, gamma - alpha + 1, beta), the continuous Hahn
    parameters of the Fourier pair and of the operator identity, formed
    exactly: a float or complex parameter enters at the dyadic rational it
    stores (_stored), so 1/3 with 0.5 gives the shift 2/3, not the double
    nearest it."""
    alpha, beta, gamma, delta = map(_stored, (alpha, beta, gamma, delta))
    return HahnParams(alpha, delta - beta + 1, gamma - alpha + 1, beta)


def pasternack_reflection_check(n: int, m) -> VerificationReport:
    """Exact identity (1+m)_n F_n^m(x) = (1-m)_n F_n^{-m}(x)."""
    name = f"pasternack-reflection[n={n}, m={m}]"
    mg = gr(m)
    lhs = pasternack_coeffs_exact(n, mg) * _pochhammer(1 + mg, n)  # _lookup checks n
    rhs = pasternack_coeffs_exact(n, -mg) * _pochhammer(1 - mg, n)
    return residual_report(name, lhs - rhs)
