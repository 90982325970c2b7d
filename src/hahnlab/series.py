"""Truncated formal power series over Q(i).

A FormalSeries holds coefficients for t^0 .. t^order and all arithmetic is
exact up to that order.  Binary operations truncate to the smaller order
of the two operands; nothing ever silently extends an order.  Products and
composition (Horner, one product per step) run through exact._product, the
fraction-free kernel that ExactPoly uses.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DomainError
from .exact import GR_ONE, GR_ZERO, GaussianRational, _product, gr
from .polynomials import _exact_terms


class FormalSeries:
    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Iterable, order: int | None = None):
        data = [gr(c) for c in coeffs]
        if order is None:
            order = len(data) - 1
        if order < 0:
            raise DomainError("series order must be nonnegative")
        if len(data) < order + 1:
            data.extend([GR_ZERO] * (order + 1 - len(data)))
        object.__setattr__(self, "coeffs", tuple(data[:order + 1]))
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("FormalSeries is immutable")

    def __reduce__(self):
        return FormalSeries, (self.coeffs, self.order)

    @classmethod
    def constant(cls, value, order: int) -> "FormalSeries":
        return cls([gr(value)], order)

    @classmethod
    def identity(cls, order: int) -> "FormalSeries":
        """The series t."""
        return cls([GR_ZERO, GR_ONE], order)

    def coeff(self, k: int) -> GaussianRational:
        return self.coeffs[k] if 0 <= k <= self.order else GR_ZERO

    def valuation(self) -> int:
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        return self.order + 1

    def __eq__(self, other):
        if not isinstance(other, FormalSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __add__(self, other):
        if not isinstance(other, FormalSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return FormalSeries([self.coeffs[k] + other.coeffs[k] for k in range(n + 1)], n)

    def __sub__(self, other):
        if not isinstance(other, FormalSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return FormalSeries([self.coeffs[k] - other.coeffs[k] for k in range(n + 1)], n)

    def __neg__(self):
        return FormalSeries([-c for c in self.coeffs], self.order)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return FormalSeries(_product(self.coeffs, (other,)), self.order)
        if not isinstance(other, FormalSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return FormalSeries(_product(self.coeffs, other.coeffs, n), n)

    __rmul__ = __mul__

    def reciprocal(self) -> "FormalSeries":
        """Multiplicative inverse; requires a unit constant term."""
        c0 = self.coeffs[0]
        if not c0:
            raise DomainError("series with zero constant term has no reciprocal")
        out = [GR_ONE / c0]
        for k in range(1, self.order + 1):
            acc = GR_ZERO
            for j in range(1, k + 1):
                acc = acc + self.coeffs[j] * out[k - j]
            out.append(-acc / c0)
        return FormalSeries(out, self.order)

    def compose(self, inner: "FormalSeries") -> "FormalSeries":
        """self(inner(t)); inner must have zero constant term."""
        if inner.coeffs[0]:
            raise DomainError("composition needs inner valuation >= 1")
        n = min(self.order, inner.order)
        acc = []
        for c in reversed(self.coeffs[:n + 1]):
            # Horner: acc * inner has constant term 0, so c is the new one
            acc = [c, *_product(acc, inner.coeffs, n)[1:]]
        return FormalSeries(acc, n)

    def truncate(self, order: int) -> "FormalSeries":
        if order > self.order:
            raise DomainError("truncate cannot extend the order")
        return FormalSeries(self.coeffs[:order + 1], order)

    def __str__(self):
        terms = [f"({c})t^{k}" for k, c in enumerate(self.coeffs) if c]
        return (" + ".join(terms) or "0") + f" + O(t^{self.order + 1})"

    __repr__ = __str__


def one_minus_t_power(exponent, order: int) -> FormalSeries:
    """(1 - t)^exponent as an exact series: sum_k (-exponent)_k / k! t^k."""
    return hypergeometric_series([-gr(exponent)], [], order)


def hypergeometric_series(numerators: Sequence, denominators: Sequence,
                          order: int) -> FormalSeries:
    """sum_k (prod (n_i)_k / prod (d_j)_k) u^k / k! as a series in u."""
    return FormalSeries(_exact_terms(numerators, denominators, order), order)
