"""Exception taxonomy shared across the package, and its gates, which raise
DomainError naming the argument: _require on parameter values (or
RangeOverflowError for an exact value past the double range, _complex),
_require_int on degrees, sizes, orders and selectors, _require_tuple on items
and _require_tolerance on verdict tolerances."""

import cmath


class HahnlabError(Exception):
    """Base class for all errors raised by this package."""


class PoleError(HahnlabError):
    """A gamma function or Pochhammer denominator hit a pole."""


class DomainError(HahnlabError):
    """A precondition on parameters or arguments is violated."""


class RangeOverflowError(HahnlabError):
    """A log-domain value cannot be exponentiated into a finite double."""


class QuadratureError(HahnlabError):
    """Adaptive quadrature failed to converge within its budget."""


class ExactInputError(HahnlabError):
    """Exact-mode input was not exact (floats are rejected, never coerced)."""


class StructureError(HahnlabError):
    """An exact structural assertion failed (e.g. a recurrence expansion
    produced nonzero coefficients where the three-term form requires zeros)."""


# rule: (test of the finite complex value, phrase of its message); m is real
# when |Im m| < 1e-14 and purely imaginary when |Re m| <= 1e-14
_RULES = {
    "finite": (lambda v: True, ""),
    "Re > 0": (lambda v: v.real > 0.0, " with Re({name}) > 0"),
    "Re > 0 as a double": (lambda v: complex(v).real > 0.0, " with Re({name}) > 0 as a double"),
    "Re > -1": (lambda v: v.real > -1.0, " with Re({name}) > -1"),
    "real in (-1, 1)": (lambda v: -1.0 < v.real < 1.0 and abs(v.imag) <= 1e-14,
                        " and real in (-1, 1)"),
    "real in (-1, 1) or imaginary": (
        lambda v: -1.0 < v.real < 1.0 if abs(v.imag) < 1e-14 else abs(v.real) <= 1e-14,
        " and real in (-1, 1) or purely imaginary"),
}


def _complex(name: str, value) -> complex:
    """complex(value), or DomainError for text, None or another non-number and
    RangeOverflowError for an exact value past the double range, naming it."""
    if not isinstance(value, str):  # complex() would parse text
        try:
            return complex(value)
        except OverflowError:
            raise RangeOverflowError(f"{name} is past the double range") from None
        except (TypeError, ValueError):
            pass
    raise DomainError(f"{name} must be a number, got {value!r}")


def _require(rule: str, **named) -> list:
    """The values as complex, each finite and satisfying _RULES[rule], or a
    DomainError naming the first that is not (or is not a number, _complex).
    The rule judges a float or complex as it is and any other value (int,
    Fraction, GaussianRational) exactly, unless it asks for the double."""
    test, phrase = _RULES[rule]
    values = []
    for name, value in named.items():
        v = _complex(name, value)
        finite = cmath.isfinite(v)
        if not (finite and test(v if isinstance(value, (float, complex)) else value)):
            must = f"{name} must be finite{phrase.format(name=name)}"
            raise DomainError(f"{must}, got {value!r}" if finite
                              else f"{must}; {value!r} is not finite")
        values.append(v)
    return values


def _require_int(name: str, value, lo: int, hi: int | None = None) -> int:
    """value if it is an int (not an equal float, 2.0 == 2) in lo..hi, >= lo for hi None."""
    if isinstance(value, int) and lo <= value and (hi is None or value <= hi):
        return value
    bounds = f">= {lo}" if hi is None else f"{lo}..{hi}"
    raise DomainError(f"{name} must be an int in {bounds}, got {value!r}")


def _require_tuple(name: str, item, size: int) -> tuple:
    """item as a tuple when it is a tuple or list of size values, else DomainError naming it."""
    if isinstance(item, (tuple, list)) and len(item) == size:
        return tuple(item)
    raise DomainError(f"{name} must be a {size}-tuple, got {item!r}")


def _require_tolerance(name: str, value) -> float:
    """value as a float when it is a real number, finite and >= 0, else
    DomainError naming it: NaN fails every comparison and infinity passes
    every relative one, so neither is a tolerance."""
    v = _complex(name, value)
    if not v.imag and 0.0 <= v.real < cmath.inf:
        return v.real
    raise DomainError(f"{name} must be a finite number >= 0, got {value!r}")
