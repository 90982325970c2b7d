"""A bounded no-escape sweep of the public API.

Each function of hahnlab.__all__, the ExactPoly and FormalSeries
constructors, the ExactPoly methods coeff, __call__, shift_up and
scale_argument, GaussianRational.parse, FormalSeries.truncate and
suites.run_suites is called from a base of valid arguments with one
argument at a time replaced by each hostile value: 1.5, -1, the argument's
cap + 1 where it has one, NaN, +-inf, complex(nan, 0), Fraction(10**400),
Fraction(1, 10**400), a GaussianRational, junk text and None.  A parameter
record (JacobiParams, HahnParams) is replaced whole, field by field, and
by the list of its fields.
Every call returns or raises a HahnlabError, never TypeError, ValueError,
AttributeError, OverflowError or KeyError.  No value starts unbounded work:
the ints are -1 and cap + 1, and the huge Fraction is a scalar, never an
exponent or a degree.

A public name the sweep does not call is listed in _NOT_CALLED with its
reason, so a new name cannot slip past it.
"""

import math
from fractions import Fraction

import pytest

import hahnlab
from hahnlab import suites
from hahnlab.errors import HahnlabError
from hahnlab.exact import ExactPoly, GaussianRational, gr
from hahnlab.numerics import beta, gamma, hahn_weight, log_gamma, pochhammer
from hahnlab.orthogonality import (bateman_ortho_checks, jacobi_ortho_checks,
                                   pasternack_biortho_checks, pasternack_ortho_checks)
from hahnlab.polynomials import (EXACT_DEGREE_CAP, HahnParams, JacobiParams,
                                 chahn_coeffs_complex, chahn_coeffs_exact, chahn_eval,
                                 jacobi_coeffs_exact,
                                 jacobi_eval, pasternack_coeffs_exact, pasternack_eval,
                                 pasternack_reflection_check)
from hahnlab.series import FormalSeries
from hahnlab.transforms import fourier_pair_checks, mellin_pair_checks

F = Fraction
_H = F(1, 2)
_CAP = EXACT_DEGREE_CAP

_HOSTILE = (1.5, -1, math.nan, math.inf, -math.inf, complex(math.nan, 0), F(10**400),
            F(1, 10**400), GaussianRational(_H, F(1, 3)), "junk", None)

_POLY = ExactPoly([1, GaussianRational(0, 2), F(-3, 4)])
_SERIES = FormalSeries([1, 2, 3], 2)

# name: (callable, base arguments, {position: cap}); a record among the base
# arguments is swept whole and field by field
_CALLS = {
    "beta": (beta, (_H, F(3, 4)), {}),
    "gamma": (gamma, (_H,), {}),
    "hahn_weight": (hahn_weight, (_H, _H, _H, _H, _H), {}),
    "log_gamma": (log_gamma, (_H,), {}),
    "pochhammer": (pochhammer, (_H, 3), {}),
    "gr": (gr, (_H,), {}),
    "ExactPoly": (ExactPoly, ([1, GaussianRational(0, 2), F(-3, 4)],), {}),
    "series.FormalSeries": (FormalSeries, ([1, 2, 3], 2), {}),
    "jacobi_eval": (jacobi_eval, (2, JacobiParams(_H, F(1, 3)), F(2, 5)), {0: _CAP}),
    "chahn_eval": (chahn_eval, (2, HahnParams(_H, _H, _H, _H), F(2, 5)), {0: _CAP}),
    "pasternack_eval": (pasternack_eval, (2, F(1, 3), F(2, 5)), {0: _CAP}),
    "jacobi_coeffs_exact": (jacobi_coeffs_exact, (2, JacobiParams(_H, F(1, 3))), {0: _CAP}),
    "chahn_coeffs_exact": (chahn_coeffs_exact, (2, HahnParams(_H, _H, _H, _H)), {0: _CAP}),
    "pasternack_coeffs_exact": (pasternack_coeffs_exact, (2, F(1, 3)), {0: _CAP}),
    "pasternack_reflection_check": (pasternack_reflection_check, (2, F(1, 3)), {0: _CAP}),
    "ExactPoly.coeff": (_POLY.coeff, (1,), {}),
    "ExactPoly.__call__": (_POLY, (F(2, 5),), {}),
    "ExactPoly.shift_up": (_POLY.shift_up, (1,), {}),
    "ExactPoly.scale_argument": (_POLY.scale_argument, (F(2, 5),), {}),
    "GaussianRational.parse": (GaussianRational.parse, ("1/2+1/3i",), {}),
    "FormalSeries.truncate": (_SERIES.truncate, (1,), {0: 2}),
    "suites.run_suites": (suites.run_suites, ("barnes", None), {}),
}

_NOT_CALLED = {
    **dict.fromkeys(("DomainError", "ExactInputError", "HahnlabError", "PoleError",
                     "QuadratureError", "RangeOverflowError", "StructureError"),
                    "an exception class"),
    **dict.fromkeys(("HahnParams", "JacobiParams"),
                    "a record: the sweep passes it, whole and field by field, to the "
                    "functions that take it"),
    **dict.fromkeys(("LogGammaValue", "IntegralResult", "QuadDiagnostics", "VerificationReport"),
                    "a result record: nothing reads its fields on the way in"),
    "GaussianRational": "a class: its constructor is gr's coercion (gr(v) is "
                        "GaussianRational(v) for a value that is not one), and parse is swept",
    "__version__": "a string",
}


def _arguments(base: tuple, caps: dict):
    """(label, arguments) for each argument of base replaced in turn by each
    hostile value (and cap + 1), and each field of a record argument, and
    a record argument by the list of its fields."""
    for i, arg in enumerate(base):
        extra = (caps[i] + 1,) if i in caps else ()
        for value in (*_HOSTILE, *extra):
            yield f"argument {i} = {value!r}", base[:i] + (value,) + base[i + 1:]
        if hasattr(arg, "_fields"):
            yield f"argument {i} = {list(arg)!r}", base[:i] + (list(arg),) + base[i + 1:]
        for field in getattr(arg, "_fields", ()):
            for value in _HOSTILE:
                yield (f"argument {i}.{field} = {value!r}",
                       base[:i] + (arg._replace(**{field: value}),) + base[i + 1:])


def test_every_public_name_is_called_or_listed():
    """hahnlab.__all__ is the swept functions and the names with a reason."""
    swept = {name for name in _CALLS if "." not in name}
    assert swept.isdisjoint(_NOT_CALLED)
    assert set(hahnlab.__all__) == swept | set(_NOT_CALLED)


@pytest.mark.parametrize("name", sorted(_CALLS))
def test_hostile_arguments_raise_only_hahnlab_errors(name):
    call, base, caps = _CALLS[name]
    call(*base)  # the base is valid
    escapes = []
    for label, args in _arguments(base, caps):
        try:
            call(*args)
        except HahnlabError:
            pass
        except Exception as exc:
            escapes.append(f"{label}: {type(exc).__name__}: {exc}")
    assert not escapes, f"{name} escapes the taxonomy:\n" + "\n".join(escapes)


@pytest.mark.parametrize("call, message", [
    (lambda: jacobi_eval(2, 0.5, 0.4), "params must be a 2-tuple, got 0.5"),
    (lambda: chahn_eval(2, None, 0.4), "params must be a 4-tuple, got None"),
    (lambda: jacobi_coeffs_exact(2, _H), "params must be a 2-tuple, got Fraction(1, 2)"),
    (lambda: chahn_coeffs_exact(2, JacobiParams(_H, _H)),
     "params must be a 4-tuple, got JacobiParams(gamma=Fraction(1, 2), delta=Fraction(1, 2))"),
    (lambda: jacobi_eval(2, [0.5, 0.5], 0.4),
     "params must be a number or tuple of numbers, got [0.5, 0.5]"),
    (lambda: chahn_eval(2, [_H] * 4, 0.4),
     "params must be a number or tuple of numbers, got [Fraction(1, 2), Fraction(1, 2), "
     "Fraction(1, 2), Fraction(1, 2)]"),
    (lambda: pasternack_eval(2, [0.5], 0.4),
     "params must be a number or tuple of numbers, got [0.5]"),
    (lambda: jacobi_coeffs_exact(2, [_H, _H]),
     "params must be a number or tuple of numbers, got [Fraction(1, 2), Fraction(1, 2)]"),
    (lambda: chahn_coeffs_complex(2, [0.5] * 4),
     "params must be a number or tuple of numbers, got [0.5, 0.5, 0.5, 0.5]"),
    (lambda: jacobi_eval(2, JacobiParams([0.5], 0.5), 0.4),
     "params must be a number or tuple of numbers, got JacobiParams(gamma=[0.5], delta=0.5)"),
    (lambda: ExactPoly(1.5), "coeffs must be an iterable of exact scalars, got 1.5"),
    (lambda: ExactPoly("12"), "coeffs must be an iterable of exact scalars, got '12'"),
    (lambda: ExactPoly({1: 5, 2: 7}),
     "coeffs must be an iterable of exact scalars, got {1: 5, 2: 7}"),
    (lambda: ExactPoly({1, 2}), "coeffs must be an iterable of exact scalars, got {1, 2}"),
    (lambda: FormalSeries(None, 2), "coeffs must be an iterable of exact scalars, got None"),
    (lambda: hahn_weight("junk", 1, 1, 1, 1), "z must be a number, got 'junk'"),
    (lambda: hahn_weight(0.5j, 1, 1, 1, 1), "z must be real, got 0.5j"),
    (lambda: hahn_weight(complex(math.nan, 0), 1, 1, 1, 1),
     "z must be finite; (nan+0j) is not finite"),
], ids=["jacobi-eval-params", "chahn-eval-params", "jacobi-exact-params", "chahn-exact-params",
        "jacobi-eval-list", "chahn-eval-list", "pasternack-eval-list", "jacobi-exact-list",
        "chahn-complex-list", "jacobi-eval-list-field",
        "poly-float", "poly-text", "poly-mapping", "poly-set",
        "series-none", "weight-z-text", "weight-z-complex", "weight-z-nan"])
def test_gates_the_sweep_found_missing(call, message):
    """A parameter record that is not a tuple of the family's size or is a
    list (which the memo cannot hash), coefficients that are not an iterable
    of scalars (text, a mapping or a set would read as other coefficients),
    and a weight argument z that is not a finite real number, raise
    DomainError naming them."""
    with pytest.raises(HahnlabError) as caught:
        call()
    assert type(caught.value).__name__ == "DomainError" and str(caught.value) == message


@pytest.mark.parametrize("call, name", [
    (lambda: jacobi_eval(2, JacobiParams(0.3, 0.7), "0.5"), "x"),
    (lambda: log_gamma("0.5"), "log-gamma argument"),
    (lambda: _POLY("0.5"), "x"),
], ids=["float-eval", "log-gamma", "poly-call"])
def test_text_that_reads_as_a_number_is_not_a_number(call, name):
    """Every float entry point reads its argument through errors._complex,
    which refuses text before complex() could parse it."""
    with pytest.raises(HahnlabError) as caught:
        call()
    assert str(caught.value) == f"{name} must be a number, got '0.5'"


@pytest.mark.parametrize("call", [
    lambda: bateman_ortho_checks([]),
    lambda: pasternack_ortho_checks(0.5, []),
    lambda: pasternack_biortho_checks(0.5, []),
    lambda: jacobi_ortho_checks(0.5, 0.5, []),
    lambda: fourier_pair_checks(0.5, 0.5, []),
    lambda: mellin_pair_checks(0.5, 0.5, []),
], ids=["bateman", "pasternack", "biortho", "jacobi", "fourier", "mellin"])
def test_list_forms_of_no_cases_run_no_pass(call, monkeypatch):
    """A list form given an empty list returns [] after its parameter gates,
    and runs no quadrature pass (max() of nothing escaped before)."""
    def no_pass(*args):
        raise AssertionError("a quadrature pass ran")

    monkeypatch.setattr(hahnlab.quadrature, "integrate_line", no_pass)
    assert call() == []


def test_list_form_gates_come_before_the_empty_list():
    with pytest.raises(HahnlabError) as caught:
        jacobi_ortho_checks(-2, 0.5, [])
    assert type(caught.value).__name__ == "DomainError"
