"""Exact arithmetic over Q(i), in one canonical integer form.

Every exact value is Gaussian-integer numerators over one positive
denominator with no common factor (Knuth, TAOCP vol. 2, 4.5.1).  A
GaussianRational is one such triple, (re + i im) / den; an ExactPoly, a dense
univariate polynomial over Q(i) lowest degree first, is a vector of them,

    c_k = (re[k] + i im[k]) / den,   gcd(*re, *im, den) = 1,

with the trailing coefficient nonzero and im empty when every coefficient
is real, so real work is plain int arithmetic.  Equal values have equal
integers, so equality and hashing compare integer tuples; equality is
decidable and exact, which is what every zero-residual identity check in
this package rests on.  The scalar operators, the polynomial ring
operations, the product (one fraction-free kernel, _multiply), evaluation,
derivative and argument scaling all run on the integers; .coeffs, the tuple
of GaussianRational, is built on first access and cached.  FormalSeries
(series.py) is the same storage truncated at an order.  _scalar reads a
scalar's triple, _vectors takes scalars to the polynomial form, and
_rational, the one reducing constructor, takes a triple back.
"""

from __future__ import annotations

import re as _re
from collections.abc import Iterable, Mapping, Set
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import add, mul, sub
from sys import hash_info

from .errors import DomainError, ExactInputError, RangeOverflowError, _complex, _require_int


def _as_fraction(value) -> Fraction:
    # int first: isinstance against Fraction's ABC metaclass is slow on a miss
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):  # junk text, or a zero denominator
            pass
    raise ExactInputError(f"not an exact rational: {value!r}")


def _hash_part(num: int, den: int) -> int:
    """hash(Fraction(num, den)) without making the Fraction: CPython's numeric
    hash, |num| / den modulo the prime sys.hash_info.modulus, signed as num;
    -1 where the Fraction has -2, which hash() and tuple hashing both map to."""
    if den == 1:
        return hash(num)
    try:
        value = abs(num) * pow(den, -1, hash_info.modulus) % hash_info.modulus
    except ValueError:  # the modulus divides den: reduce, as Fraction does; if still, inf
        g = gcd(num, den)
        if g > 1:
            return _hash_part(num // g, den // g)
        value = hash_info.inf
    return value if num >= 0 else -value


class GaussianRational:
    """An element of Q(i) with exact field arithmetic, stored as the
    canonical triple (_re, _im, _den) of the module docstring; re and im
    are its parts as Fractions.

    A real value equals the int or Fraction re and hashes as hash(re), so
    the two are one key in a set, a dict or a memo.  The hash is computed
    on first use and kept in the _hash slot."""

    __slots__ = ("_re", "_im", "_den", "_hash")

    def __new__(cls, re=0, im=0):
        re, im = _as_fraction(re), _as_fraction(im)
        return _rational(re.numerator * im.denominator, im.numerator * re.denominator,
                         re.denominator * im.denominator)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through __new__: __setattr__ refuses slot state
        return GaussianRational, (self.re, self.im)

    @property
    def re(self) -> Fraction:
        return Fraction(self._re, self._den)

    @property
    def im(self) -> Fraction:
        return Fraction(self._im, self._den)

    real, imag = re, im  # as int, Fraction and complex name their parts

    # -- coercion ---------------------------------------------------------

    @staticmethod
    def from_value(value) -> "GaussianRational":
        """Coerce an exact scalar; floats raise ExactInputError."""
        if isinstance(value, GaussianRational):
            return value
        return GaussianRational(value)

    _NUM = r"[+-]?(?:\d+/\d+|\d+\.\d+|\.\d+|\d+)"
    _RE_REAL = _re.compile(rf"^({_NUM})$")
    _RE_IMAG = _re.compile(rf"^({_NUM}|[+-]?)i$")
    _RE_BOTH = _re.compile(rf"^({_NUM})(([+-]{_NUM}|[+-])i)$")

    @classmethod
    def parse(cls, text: str) -> "GaussianRational":
        """Parse 'p/q', 'a+bi', 'a-bi', 'bi', 'i'; decimals allowed.  Anything else
        (a zero denominator in either part, a value that is not text) raises ExactInputError."""
        s = text.strip().replace(" ", "") if isinstance(text, str) else ""  # "" matches nothing

        def unit(sign_or_num: str) -> str:
            return sign_or_num + "1" if sign_or_num in ("", "+", "-") else sign_or_num

        m = cls._RE_REAL.match(s)
        if m:
            return cls(m.group(1))
        m = cls._RE_IMAG.match(s)
        if m:
            return cls(0, unit(m.group(1)))
        m = cls._RE_BOTH.match(s)
        if m:
            return cls(m.group(1), unit(m.group(2)[:-1]))
        raise ExactInputError(f"cannot parse exact scalar: {text!r}")

    # -- arithmetic -------------------------------------------------------
    # every operand (GaussianRational, int or Fraction) is read as its
    # integer triple (_scalar); each result is reduced once (_rational)

    def __add__(self, other):
        if not isinstance(other, _SCALARS):
            return NotImplemented
        c, e, f = _scalar(other)
        d = self._den
        return _rational(self._re * f + c * d, self._im * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, _SCALARS):
            return NotImplemented
        c, e, f = _scalar(other)
        d = self._den
        return _rational(self._re * f - c * d, self._im * f - e * d, d * f)

    def __rsub__(self, other):
        if not isinstance(other, _SCALARS):
            return NotImplemented
        c, e, f = _scalar(other)
        d = self._den
        return _rational(c * d - self._re * f, e * d - self._im * f, d * f)

    def __mul__(self, other):
        if not isinstance(other, _SCALARS):
            return NotImplemented
        c, e, f = _scalar(other)
        a, b = self._re, self._im
        return _rational(a * c - b * e, a * e + b * c, self._den * f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # times the conjugate, over the norm
        if not isinstance(other, _SCALARS):
            return NotImplemented
        c, e, f = _scalar(other)
        norm = c * c + e * e
        if not norm:
            raise ZeroDivisionError("division by zero in Q(i)")
        a, b = self._re, self._im
        return _rational(f * (a * c + b * e), f * (b * c - a * e), self._den * norm)

    def __rtruediv__(self, other):
        if not isinstance(other, _SCALARS):
            return NotImplemented
        return _rational(*_scalar(other)) / self

    def __neg__(self):
        return _rational(-self._re, -self._im, self._den)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return (GR_ONE / self) ** (-k)
        result, base = GR_ONE, self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conjugate(self) -> "GaussianRational":
        return _rational(self._re, -self._im, self._den)

    # -- predicates / conversions -----------------------------------------

    def __eq__(self, other):
        # canonical triples: equal values have equal integers
        if not isinstance(other, _SCALARS):
            return NotImplemented
        return (self._re, self._im, self._den) == _scalar(other)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:  # first use: no constructor sets the slot
            re = _hash_part(self._re, self._den)
            value = hash((re, _hash_part(self._im, self._den))) if self._im else re
            _GR_SETTERS[3](self, value)
            return value

    def __bool__(self):
        return bool(self._re or self._im)

    def is_real(self) -> bool:
        return not self._im

    def to_complex(self) -> complex:
        # an int divided by an int is correctly rounded, as float(Fraction) is
        return complex(self._re / self._den, self._im / self._den)

    __complex__ = to_complex

    def __str__(self):
        re, im = self.re, self.im
        try:
            if not im:
                return str(re)
            im_txt = f"{abs(im)}i"
            if not re:
                return im_txt if im > 0 else f"-{im_txt}"
            return f"{re}{'+' if im > 0 else '-'}{im_txt}"
        except ValueError as exc:  # a part past Python's int-to-text digit limit
            raise RangeOverflowError(f"exact value too long to print: {exc}") from None

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def to_json_dict(self) -> dict:
        return {"re": str(self.re), "im": str(self.im)}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "GaussianRational":
        return cls(Fraction(obj["re"]), Fraction(obj["im"]))


# the plain classes first: isinstance against Fraction's ABC metaclass is slow on a miss
_SCALARS = (GaussianRational, int, Fraction)
# the slots' own setters: the classes' __setattr__ refuses every write
_GR_SETTERS = tuple(getattr(GaussianRational, slot).__set__ for slot in GaussianRational.__slots__)


def _scalar(value) -> tuple:
    """An exact scalar as its canonical triple (re, im, den): value = (re +
    i im) / den."""
    if isinstance(value, GaussianRational):
        return value._re, value._im, value._den
    if isinstance(value, int):
        return value, 0, 1
    if isinstance(value, Fraction):
        return value.numerator, 0, value.denominator
    return _scalar(gr(value))  # a string; floats raise ExactInputError


def _rational(re: int, im: int, den: int) -> GaussianRational:
    """(re + i im) / den for integers with den > 0, reduced to the canonical
    triple: the one constructor of arithmetic results."""
    g = gcd(re, im, den)
    if g != 1:
        re, im, den = re // g, im // g, den // g
    value = object.__new__(GaussianRational)
    set_re, set_im, set_den, _ = _GR_SETTERS
    set_re(value, re)
    set_im(value, im)
    set_den(value, den)
    return value


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)
GR_HALF = GaussianRational(Fraction(1, 2))
I_POWERS = (GR_ONE, GR_I, GaussianRational(-1), GaussianRational(0, -1))  # i^(k % 4)


def gr(value) -> GaussianRational:
    """Shorthand exact coercion."""
    return GaussianRational.from_value(value)


def _vectors(values) -> tuple:
    """Exact scalars as integer vectors over one positive denominator: (re, im,
    den) with value_k = (re[k] + i im[k]) / den, im empty when all are real."""
    triples = [_scalar(v) for v in values]
    den = lcm(*[d for _, _, d in triples])
    re = [r * (den // d) for r, _, d in triples]
    im = [m * (den // d) for _, m, d in triples]
    return re, im if any(im) else [], den


def _coeff_vectors(coeffs) -> tuple:
    """_vectors(coeffs), refusing a non-iterable, text, a mapping or a set; a
    list or tuple skips the ABC checks, which cache a result per type checked."""
    if type(coeffs) not in (list, tuple) and (
            isinstance(coeffs, (str, bytes, Mapping, Set)) or not isinstance(coeffs, Iterable)):
        raise DomainError(f"coeffs must be an iterable of exact scalars, got {coeffs!r}")
    return _vectors(coeffs)


def _canonical(re, im, den: int, size: int | None = None) -> tuple:
    """Integer vectors (len(im) <= len(re), den != 0) in canonical form: at
    most size coefficients, trailing zeros trimmed, im empty when real, den > 0
    and gcd(*re, *im, den) = 1."""
    n = len(re) if size is None else min(len(re), size)
    im = (*im[:n], *[0] * (n - len(im))) if any(im[:n]) else ()
    while n and not (re[n - 1] or im and im[n - 1]):
        n -= 1
    if not n:
        return (), (), 1
    re, im = tuple(re[:n]), im[:n]
    g = gcd(den, *re, *im) if den > 0 else -gcd(den, *re, *im)
    if g != 1:
        re, im, den = tuple(r // g for r in re), tuple(m // g for m in im), den // g
    return re, im, den


def _scaled_sum(a, sa: int, b, sb: int) -> list:
    """sa a + sb b for integer vectors, the shorter one padded with zeros."""
    if len(a) < len(b):
        a, sa, b, sb = b, sb, a, sa
    out = [x * sa for x in a]
    for k, y in enumerate(b):
        out[k] += y * sb
    return out


def _convolve(a, b, size: int) -> list:
    """The first size coefficients of the product of integer vectors a and b."""
    if len(a) > len(b):
        a, b = b, a  # one pass per entry of the shorter
    out = [0] * size
    for i, x in enumerate(a[:size]):
        if x:
            row = b[:size - i]
            end = i + len(row)
            out[i:end] = map(add, out[i:end], map(mul, row, repeat(x)))
    return out


def _multiply(a_re, a_im, b_re, b_im, size: int) -> tuple:
    """(a_re + i a_im)(b_re + i b_im) through size coefficients, as (re, im)
    lists; an empty imaginary part is zero, and so is the product's when both
    are."""
    re, im = _convolve(a_re, b_re, size), _convolve(a_re, b_im, size)
    if a_im:
        re = list(map(sub, re, _convolve(a_im, b_im, size)))
        im = list(map(add, im, _convolve(a_im, b_re, size)))
    return re, im if any(im) else []


def _poly(cls, re, im, den: int, order: int | None = None):
    """The one constructor of ExactPoly and FormalSeries (cls): coefficients (re[k]
    + i im[k]) / den made canonical; a series (order not None) keeps t^0 .. t^order."""
    re, im, den = _canonical(re, im, den, None if order is None else order + 1)
    obj = object.__new__(cls)
    set_re, set_im, set_den, set_order, set_coeffs = _POLY_SETTERS
    set_re(obj, re)
    set_im(obj, im)
    set_den(obj, den)
    set_order(obj, order)
    set_coeffs(obj, None)
    return obj


class ExactPoly:
    """Univariate polynomial over Q(i), coefficients indexed by degree.

    The zero polynomial has an empty coefficient tuple and degree -1;
    otherwise the trailing coefficient is nonzero and degree equals
    len(coeffs) - 1.  Stored as the canonical integer vectors of the module
    docstring.
    """

    __slots__ = ("_re", "_im", "_den", "_order", "_coeffs")

    def __new__(cls, coeffs: Iterable = ()):
        return _poly(cls, *_coeff_vectors(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through _poly: __setattr__ refuses slot state
        return _poly, (type(self), self._re, self._im, self._den, self._order)

    @classmethod
    def zero(cls) -> "ExactPoly":
        return cls(())

    @classmethod
    def one(cls) -> "ExactPoly":
        return cls((GR_ONE,))

    @classmethod
    def x(cls) -> "ExactPoly":
        return cls((GR_ZERO, GR_ONE))

    def _size(self) -> int:
        """len(coeffs): a series keeps its trailing zeros."""
        return len(self._re) if self._order is None else self._order + 1

    @property
    def coeffs(self) -> tuple:
        """The coefficients as GaussianRationals, lowest degree first; built on
        first access, then cached."""
        if self._coeffs is None:
            values = [_rational(r, m, self._den) for r, m in zip(self._re, self._im or repeat(0))]
            values += [GR_ZERO] * (self._size() - len(values))
            _POLY_SETTERS[4](self, tuple(values))
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._re) - 1

    def is_zero(self) -> bool:
        return not self._re

    def coeff(self, k: int) -> GaussianRational:
        """c_k for any int k (0 outside 0..degree); another k raises DomainError."""
        if not isinstance(k, int):
            raise DomainError(f"k must be an int, got {k!r}")
        if not 0 <= k < len(self._re):
            return GR_ZERO
        return _rational(self._re[k], self._im[k] if self._im else 0, self._den)

    @property
    def leading_coefficient(self) -> GaussianRational:
        return self.coeff(self.degree)

    # -- ring operations ---------------------------------------------------

    def _order_with(self, other) -> int | None:
        return None if self._order is None else min(self._order, other._order)

    def _combine(self, other, sign: int):
        """self + sign * other, over the lcm of the two denominators."""
        den = lcm(self._den, other._den)
        sa, sb = den // self._den, sign * (den // other._den)
        return _poly(type(self), _scaled_sum(self._re, sa, other._re, sb),
                     _scaled_sum(self._im, sa, other._im, sb), den, self._order_with(other))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self):
        return _poly(type(self), [-r for r in self._re], [-m for m in self._im],
                     self._den, self._order)

    def __mul__(self, other):
        if type(other) is type(self):
            order = self._order_with(other)
            b_re, b_im, b_den = other._re, other._im, other._den
        elif isinstance(other, _SCALARS):
            order = self._order
            b_re, b_im, b_den = _vectors((other,))
        else:
            return NotImplemented
        size = len(self._re) + len(b_re) - 1
        if order is not None:
            size = min(size, order + 1)
        re, im = _multiply(self._re, self._im, b_re, b_im, max(size, 0))
        return _poly(type(self), re, im, self._den * b_den, order)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, ExactPoly):
            return NotImplemented
        return (type(other) is type(self) and self._den == other._den
                and self._order == other._order
                and self._re == other._re and self._im == other._im)

    def __hash__(self):
        return hash((self._re, self._im, self._den, self._order))

    def __call__(self, x):
        """Horner evaluation: exact for exact x, complex otherwise (text or
        another non-number raises DomainError, errors._complex).  Exact x =
        X / q runs on Gaussian integers: with c_k = C_k / den,
        p(x) = sum_k C_k X^k q^(n-k) / (den q^n)."""
        if isinstance(x, _SCALARS):
            if not self._re:
                return GR_ZERO
            x_re, x_im, q = _scalar(x)
            acc_re = acc_im = 0
            power = 1  # q^(n-k)
            for c_re, c_im in zip(reversed(self._re),
                                  reversed(self._im) if self._im else repeat(0)):
                acc_re, acc_im = (acc_re * x_re - acc_im * x_im + power * c_re,
                                  acc_re * x_im + acc_im * x_re + power * c_im)
                power *= q
            return _rational(acc_re, acc_im, self._den * power // q)
        xc = _complex("x", x)
        acc_c = 0j
        for c in reversed(self.complex_coeffs()):
            acc_c = acc_c * xc + c
        return acc_c

    def derivative(self) -> "ExactPoly":
        """p'; a series known through t^order has its derivative through t^(order-1)."""
        return _poly(type(self), [k * r for k, r in enumerate(self._re)][1:],
                     [k * m for k, m in enumerate(self._im)][1:], self._den,
                     None if self._order is None else self._order - 1)

    def shift_up(self, k: int = 1) -> "ExactPoly":
        """Multiply by x**k."""
        zeros = (0,) * _require_int("k", k, 0)
        if self.is_zero():
            return self
        return _poly(type(self), zeros + self._re, zeros + self._im if self._im else (),
                     self._den, self._order)

    def scale_argument(self, c) -> "ExactPoly":
        """Return p(c*x) exactly: with c = S / s, C_k S^k s^(n-k) over den s^n."""
        s_re, s_im, s = _scalar(c)
        n = self.degree
        re, im = [], []
        p_re, p_im = 1, 0  # S^k
        for k, (c_re, c_im) in enumerate(zip(self._re, self._im or repeat(0))):
            scale = s ** (n - k)
            re.append((c_re * p_re - c_im * p_im) * scale)
            im.append((c_re * p_im + c_im * p_re) * scale)
            p_re, p_im = p_re * s_re - p_im * s_im, p_re * s_im + p_im * s_re
        return _poly(type(self), re, im, self._den * s ** max(n, 0), self._order)

    def max_abs_coefficient(self) -> float:
        return max(map(abs, self.complex_coeffs()), default=0.0)

    def complex_coeffs(self) -> list:
        """[c.to_complex() for c in self.coeffs], bit for bit: an int divided by
        an int is correctly rounded, as float(Fraction) is."""
        den = self._den
        values = [complex(r / den, m / den) for r, m in zip(self._re, self._im or repeat(0))]
        return values + [0j] * (self._size() - len(values))

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = [f"({c})*x^{k}" if k else f"({c})" for k, c in enumerate(self.coeffs) if c]
        return " + ".join(parts)

    def __repr__(self):
        return f"ExactPoly({[str(c) for c in self.coeffs]})"

    def to_json(self) -> list:
        return [c.to_json_dict() for c in self.coeffs]

    @classmethod
    def from_json(cls, data: list) -> "ExactPoly":
        return cls(GaussianRational.from_json_dict(obj) for obj in data)


_POLY_SETTERS = tuple(getattr(ExactPoly, slot).__set__ for slot in ExactPoly.__slots__)
