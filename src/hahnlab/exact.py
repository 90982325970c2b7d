"""Exact arithmetic over Q(i).

GaussianRational is a pair of arbitrary-precision rationals (re, im);
ExactPoly is a dense univariate polynomial with GaussianRational
coefficients, stored lowest degree first with the trailing coefficient
nonzero.  Equality on both types is decidable and exact, which is what
every zero-residual identity check in this package rests on.

Exact scalars also have an integer form, Gaussian integers over one positive
denominator (_gaussian, back by _rational).  Every ExactPoly and FormalSeries
product runs in it, through one fraction-free kernel (_product).
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import lcm
from typing import Iterable, Union

from .errors import ExactInputError

ExactScalar = Union[int, Fraction, "GaussianRational"]


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise ExactInputError(f"not an exact rational: {value!r}")


class GaussianRational:
    """An element of Q(i) with exact field arithmetic."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through __init__: __setattr__ refuses slot state
        return GaussianRational, (self.re, self.im)

    # -- coercion ---------------------------------------------------------

    @staticmethod
    def from_value(value) -> "GaussianRational":
        """Coerce an exact scalar; floats raise ExactInputError."""
        if isinstance(value, GaussianRational):
            return value
        return GaussianRational(_as_fraction(value))

    _NUM = r"[+-]?(?:\d+/\d+|\d+\.\d+|\.\d+|\d+)"
    _RE_REAL = _re.compile(rf"^({_NUM})$")
    _RE_IMAG = _re.compile(rf"^({_NUM}|[+-]?)i$")
    _RE_BOTH = _re.compile(rf"^({_NUM})(([+-]{_NUM}|[+-])i)$")

    @classmethod
    def parse(cls, text: str) -> "GaussianRational":
        """Parse 'p/q', 'a+bi', 'a-bi', 'bi', 'i'; decimals allowed."""
        s = text.strip().replace(" ", "")

        def unit(sign_or_num: str) -> Fraction:
            if sign_or_num in ("", "+"):
                return Fraction(1)
            if sign_or_num == "-":
                return Fraction(-1)
            return Fraction(sign_or_num)

        m = cls._RE_REAL.match(s)
        if m:
            return cls(Fraction(m.group(1)))
        m = cls._RE_IMAG.match(s)
        if m:
            return cls(Fraction(0), unit(m.group(1)))
        m = cls._RE_BOTH.match(s)
        if m:
            return cls(Fraction(m.group(1)), unit(m.group(2)[:-1]))
        raise ExactInputError(f"cannot parse exact scalar: {text!r}")

    # -- arithmetic -------------------------------------------------------

    def _coerced(self, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational((self.re * o.re + self.im * o.im) / d,
                                (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

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
        return GaussianRational(self.re, -self.im)

    # -- predicates / conversions -----------------------------------------

    def __eq__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def is_real(self) -> bool:
        return self.im == 0

    def to_complex(self) -> complex:
        return complex(self.re, self.im)

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        im_txt = f"{abs(self.im)}i"
        sign = "+" if self.im > 0 else "-"
        if self.re == 0:
            return f"{im_txt}" if self.im > 0 else f"-{im_txt}"
        return f"{self.re}{sign}{im_txt}"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def to_json_dict(self) -> dict:
        return {"re": str(self.re), "im": str(self.im)}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "GaussianRational":
        return cls(Fraction(obj["re"]), Fraction(obj["im"]))


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)
I_POWERS = (GR_ONE, GR_I, GaussianRational(-1), GaussianRational(0, -1))  # i^(k % 4)


def gr(value) -> GaussianRational:
    """Shorthand exact coercion."""
    return GaussianRational.from_value(value)


def _gaussian(values) -> tuple:
    """Exact scalars as Gaussian integers over one positive q: the pairs
    (re, im) with value = (re + i im) / q, and q."""
    values = [gr(v) for v in values]
    q = lcm(*(f.denominator for v in values for f in (v.re, v.im)))
    return [(v.re.numerator * (q // v.re.denominator),
             v.im.numerator * (q // v.im.denominator)) for v in values], q


def _rational(re: int, im: int, den: int) -> GaussianRational:
    return GaussianRational(Fraction(re, den), Fraction(im, den))


def _product(a, b, limit=None) -> list:
    """The coefficients of a * b (exact scalars, lowest degree first), through
    degree limit if one is given: each operand over one integer denominator,
    the schoolbook product on Gaussian-integer pairs, and one GaussianRational
    per output coefficient.  An empty operand is the zero polynomial."""
    size = len(a) + len(b) - 1
    if limit is not None:
        a, b, size = a[:limit + 1], b[:limit + 1], min(size, limit + 1)
    (a_pairs, a_den), (b_pairs, b_den) = _gaussian(a), _gaussian(b)
    re, im = [0] * size, [0] * size
    for i, (a_re, a_im) in enumerate(a_pairs):
        if a_re or a_im:
            for k, (b_re, b_im) in enumerate(b_pairs[:size - i], i):
                re[k] += a_re * b_re - a_im * b_im
                im[k] += a_re * b_im + a_im * b_re
    den = a_den * b_den
    return [_rational(r, m, den) for r, m in zip(re, im)]


class ExactPoly:
    """Univariate polynomial over Q(i), coefficients indexed by degree.

    The zero polynomial has an empty coefficient tuple and degree -1;
    otherwise the trailing coefficient is nonzero and degree equals
    len(coeffs) - 1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        normalized = [gr(c) for c in coeffs]
        while normalized and not normalized[-1]:
            normalized.pop()
        object.__setattr__(self, "coeffs", tuple(normalized))

    def __setattr__(self, name, value):
        raise AttributeError("ExactPoly is immutable")

    def __reduce__(self):
        return ExactPoly, (self.coeffs,)

    @classmethod
    def zero(cls) -> "ExactPoly":
        return cls(())

    @classmethod
    def one(cls) -> "ExactPoly":
        return cls((GR_ONE,))

    @classmethod
    def x(cls) -> "ExactPoly":
        return cls((GR_ZERO, GR_ONE))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> GaussianRational:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else GR_ZERO

    @property
    def leading_coefficient(self) -> GaussianRational:
        return self.coeffs[-1] if self.coeffs else GR_ZERO

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, ExactPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return ExactPoly(self.coeff(k) + other.coeff(k) for k in range(n))

    def __sub__(self, other):
        if not isinstance(other, ExactPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return ExactPoly(self.coeff(k) - other.coeff(k) for k in range(n))

    def __neg__(self):
        return ExactPoly(-c for c in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, ExactPoly):
            return ExactPoly(_product(self.coeffs, other.coeffs))
        if isinstance(other, (int, Fraction, GaussianRational)):
            return ExactPoly(_product(self.coeffs, (other,)))
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, ExactPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __call__(self, x):
        """Horner evaluation: exact for exact x, complex otherwise.  Exact x
        runs on Gaussian integers, over one q with the coefficients (x = X/q,
        c_k = C_k/q): p(x) = sum_k C_k X^k q^(n-k) / q^(n+1)."""
        if isinstance(x, (int, Fraction, GaussianRational)):
            [(x_re, x_im), *pairs], q = _gaussian((x, *self.coeffs))
            acc_re, acc_im, power = 0, 0, 1
            for c_re, c_im in reversed(pairs):
                acc_re, acc_im = (acc_re * x_re - acc_im * x_im + power * c_re,
                                  acc_re * x_im + acc_im * x_re + power * c_im)
                power *= q
            return _rational(acc_re, acc_im, power)
        xc = complex(x)
        acc_c = 0j
        for c in reversed(self.coeffs):
            acc_c = acc_c * xc + c.to_complex()
        return acc_c

    def derivative(self) -> "ExactPoly":
        return ExactPoly(self.coeffs[k] * k for k in range(1, len(self.coeffs)))

    def shift_up(self, k: int = 1) -> "ExactPoly":
        """Multiply by x**k."""
        if self.is_zero():
            return self
        return ExactPoly((GR_ZERO,) * k + self.coeffs)

    def scale_argument(self, c) -> "ExactPoly":
        """Return p(c*x) exactly."""
        s = gr(c)
        out, power = [], GR_ONE
        for coeff in self.coeffs:
            out.append(coeff * power)
            power = power * s
        return ExactPoly(out)

    def max_abs_coefficient(self) -> float:
        return max((abs(c.to_complex()) for c in self.coeffs), default=0.0)

    def complex_coeffs(self) -> list:
        return [c.to_complex() for c in self.coeffs]

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
