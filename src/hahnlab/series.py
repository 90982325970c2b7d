"""Truncated formal power series over Q(i).

A FormalSeries is an ExactPoly truncated at an order: the same canonical
integer storage (Gaussian-integer numerators over one denominator), plus
the order, and coefficients for t^0 .. t^order (.coeffs keeps the trailing
zeros, order + 1 of them).  The ring operations are ExactPoly's: exact up
to the order, and a binary operation truncates to the smaller order of
the two operands; nothing ever silently extends an order.  The reciprocal
(Newton's iteration, from those operations) and composition (Horner)
run on the integer vectors too.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import repeat

from .errors import DomainError, PoleError, _require_int
from .exact import ExactPoly, _coeff_vectors, _multiply, _poly, _scaled_sum, gr
from .polynomials import _term_products


class FormalSeries(ExactPoly):
    __slots__ = ()

    def __new__(cls, coeffs: Iterable, order: int | None = None):
        re, im, den = _coeff_vectors(coeffs)
        order = len(re) - 1 if order is None else _require_int("order", order, 0)
        return _poly(cls, re, im, den, order)

    @property
    def order(self) -> int:
        return self._order

    @classmethod
    def constant(cls, value, order: int) -> "FormalSeries":
        return cls([value], _require_int("order", order, 0))

    @classmethod
    def identity(cls, order: int) -> "FormalSeries":
        """The series t."""
        return cls([0, 1], _require_int("order", order, 0))

    def valuation(self) -> int:
        """The index of the first nonzero coefficient; order + 1 for zero."""
        pairs = zip(self._re, self._im or repeat(0))
        return next((k for k, (r, m) in enumerate(pairs) if r or m), self._order + 1)

    def reciprocal(self) -> "FormalSeries":
        """Multiplicative inverse; requires a unit constant term.  Newton's step
        g -> g (2 - self g) doubles the number of known terms."""
        if self.valuation():
            raise DomainError("series with zero constant term has no reciprocal")
        inverse = FormalSeries([1 / self.coeff(0)], self._order)
        two = FormalSeries.constant(2, self._order)
        for _ in range(self._order.bit_length()):
            inverse = inverse * (two - self * inverse)
        return inverse

    def compose(self, inner: "FormalSeries") -> "FormalSeries":
        """self(inner(t)); inner must have zero constant term.  Horner, one
        truncated product per step, on integers: with self = C / D and
        inner = P / E, A_top = C_top, A_k = P A_{k+1} + C_k E^(top-k), and
        self(inner) = A_0 / (D E^top)."""
        if not inner.valuation():
            raise DomainError("composition needs inner valuation >= 1")
        n = min(self._order, inner._order)
        acc_re, acc_im, power = [], [], 1
        for k in range(min(n, self.degree), -1, -1):
            acc_re, acc_im = _multiply(inner._re, inner._im, acc_re, acc_im, n + 1)
            acc_re = _scaled_sum(acc_re, 1, self._re[k:k + 1], power)
            acc_im = _scaled_sum(acc_im, 1, self._im[k:k + 1], power)
            power *= inner._den
        return _poly(FormalSeries, acc_re, acc_im, self._den * power // inner._den, n)

    def truncate(self, order: int) -> "FormalSeries":
        return _poly(FormalSeries, self._re, self._im, self._den,
                     _require_int("order", order, 0, self._order))

    def __str__(self):
        terms = [f"({c})t^{k}" for k, c in enumerate(self.coeffs) if c]
        return (" + ".join(terms) or "0") + f" + O(t^{self.order + 1})"

    __repr__ = __str__


def _hadamard(a: FormalSeries, b: FormalSeries) -> FormalSeries:
    """sum_k a_k b_k t^k, to the smaller order: coefficient by coefficient, on
    the integer vectors."""
    rows = list(zip(a._re, a._im or repeat(0), b._re, b._im or repeat(0)))
    return _poly(FormalSeries, [ar * br - ai * bi for ar, ai, br, bi in rows],
                 [ar * bi + ai * br for ar, ai, br, bi in rows], a._den * b._den,
                 min(a._order, b._order))


def _term_vectors(upper, lower, count: int) -> tuple:
    """The series terms prod (u)_k / (k! prod (l)_k), k <= count, as vectors (re, im, den):
    _term_products over its term 0, which a lower parameter in {0, ..., 1-count} zeroes."""
    re, im, _ = _term_products(upper, lower, count)
    r0, m0 = re[0], im[0] if im else 0
    if not (r0 or m0):
        k, v = next((k, v) for k in range(1, count + 1) for v in lower if not gr(v) + k - 1)
        raise PoleError(f"hypergeometric denominator ({v})_k hits zero at k={k}")
    return (*_multiply([r0], [-m0], re, im, count + 1), r0 * r0 + m0 * m0) if m0 else (re, im, r0)


def one_minus_t_power(exponent, order: int) -> FormalSeries:
    """(1 - t)^exponent as an exact series: sum_k (-exponent)_k / k! t^k."""
    return hypergeometric_series([-gr(exponent)], [], order)


def hypergeometric_series(numerators: Sequence, denominators: Sequence,
                          order: int) -> FormalSeries:
    """sum_k (prod (n_i)_k / prod (d_j)_k) u^k / k! as a series in u."""
    order = _require_int("order", order, 0)
    return _poly(FormalSeries, *_term_vectors(numerators, denominators, order), order)
