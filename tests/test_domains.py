"""A seeded sweep of every public check over its declared domain.

Each row names a check and the rule of each of its parameters, taken from
the gate's table (errors._RULES).  Points inside the domain (seeded
small-denominator rationals, floats for the quadrature checks, conjugate
pairs where the check allows them, and points within 1/100 of each
boundary) must pass, or raise one of the HahnlabErrors the row lists.  For
each parameter of a quadrature check, NaN, +-inf and a point just outside
must raise a DomainError whose message starts with that parameter's name.
The exact checks read their parameters with gr: a float, NaN and inf among
them, raises ExactInputError, and a point just outside a rule raises
DomainError naming the parameter.  Every integer argument of the public
API (_INT_ARGUMENTS) is swept with floats, text, None and the ints just
outside its range, which the integer gate (errors._require_int) refuses.
"""

import math
import random
import re
from fractions import Fraction

import pytest

from hahnlab.errors import (_RULES, DomainError, ExactInputError, HahnlabError, PoleError,
                            QuadratureError, RangeOverflowError)
from hahnlab.exact import ExactPoly, GaussianRational
from hahnlab.identities import (contiguous_check, genfun_chahn_check, genfun_jacobi_check,
                                jacobi_classical_check, pasternack_reflection_check)
from hahnlab.operator_calculus import (derive_recurrence, hahn_operator_identity_check,
                                       recurrence_check, shifted_operator_identity_check)
from hahnlab.numerics import log_gamma_complex, pochhammer
from hahnlab.orthogonality import (barnes_check, bateman_ortho_check, bateman_ortho_checks,
                                   chahn_gram, chahn_norm_rhs, gram_check, jacobi_ortho_check,
                                   jacobi_ortho_checks, pasternack_biortho_check,
                                   pasternack_biortho_checks, pasternack_ortho_check,
                                   pasternack_ortho_checks)
from hahnlab.polynomials import (EXACT_DEGREE_CAP, HahnParams, JacobiParams,
                                 chahn_coeffs_complex, chahn_coeffs_exact, chahn_eval,
                                 jacobi_coeffs_complex, jacobi_coeffs_exact, jacobi_eval,
                                 pasternack_coeffs_complex, pasternack_coeffs_exact,
                                 pasternack_eval, pasternack_hahn_params)
from hahnlab import quadrature
from hahnlab.reports import VerificationReport
from hahnlab.series import FormalSeries, hypergeometric_series, one_minus_t_power
from hahnlab.transforms import (fourier_pair_check, fourier_pair_checks, mellin_pair_check,
                                mellin_pair_checks, parseval_check)

F = Fraction
FIN, POS, GT_M1 = "finite", "Re > 0", "Re > -1"
POS_DOUBLE = "Re > 0 as a double"
REAL, REAL_OR_IMAG = "real in (-1, 1)", "real in (-1, 1) or imaginary"

# per rule: the open interval of the real part drawn inside, whether a draw
# may be complex (and then purely imaginary only), the points within 1/100
# of a boundary, and the points just outside
_DRAW = {
    FIN: ((-2, 2), True, [], []),
    POS: ((0, 2), True, [F(1, 100), GaussianRational(F(1, 100), F(1, 3))],
          [0, F(-1, 100), GaussianRational(F(-1, 100), 1)]),
    POS_DOUBLE: ((0, 2), True, [F(1, 100), GaussianRational(F(1, 100), F(1, 3))],
                 [0, F(-1, 100), GaussianRational(F(-1, 100), 1), F(1, 10**400)]),
    GT_M1: ((-1, 1), True, [F(-99, 100), GaussianRational(F(-99, 100), F(-1, 4))],
            [-1, F(-101, 100), GaussianRational(F(-101, 100), F(1, 2))]),
    REAL: ((-1, 1), False, [F(99, 100), F(-99, 100)],
           [1, -1, F(101, 100), GaussianRational(F(1, 2), F(1, 100))]),
    REAL_OR_IMAG: ((-1, 1), "imaginary", [F(99, 100), F(-99, 100)],
                   [1, -1, F(-101, 100), GaussianRational(F(1, 100), F(1, 2))]),
}
assert set(_DRAW) == set(_RULES)


class Row:
    """One public check: call(**values) runs it with the other arguments
    fixed, rules maps each parameter to its rule, allowed lists the errors a
    point inside may raise, real the parameters drawn real only, pairs the
    parameters drawn as the conjugate of another, names the parameter's
    name in messages where it is not the keyword, and refused the details of
    a failed report that stands for a listed error (recurrence_check reports
    a refused input as a failed row)."""

    def __init__(self, check, call, rules, allowed=(), real=(), pairs=(), names=None,
                 refused=None):
        self.check, self.call, self.rules, self.allowed = check, call, rules, allowed
        self.real, self.pairs, self.names = set(real), dict(pairs), names or {}
        self.refused = refused

    def __repr__(self):
        return f"{self.check.__name__}[{','.join(self.rules)}]"


# the Gram, Barnes, Parseval, Fourier and Mellin checks compute with the doubles
_GAMMA4 = dict.fromkeys(("alpha", "beta", "a", "b"), POS_DOUBLE)
_HAHN4 = dict.fromkeys(("alpha", "beta", "gamma", "delta"), FIN)
_JACOBI3 = dict.fromkeys(("gamma", "delta", "x"), FIN)

_QUADRATURE = [
    Row(fourier_pair_check, lambda **v: fourier_pair_check(2, z=F(3, 4), **v),
        {"alpha": POS_DOUBLE, "beta": POS_DOUBLE, "gamma": FIN, "delta": FIN},
        (QuadratureError, PoleError)),
    Row(fourier_pair_check, lambda **v: fourier_pair_check(1, 1, F(1, 2), 0, 0, **v),
        {"z": FIN}, (QuadratureError,), real=("z",)),
    Row(mellin_pair_check, lambda **v: mellin_pair_check(1, F(3, 4), F(1, 2), F(1, 3), 0, **v),
        {"lam": FIN}, (QuadratureError,), real=("lam",), names={"lam": "lambda"}),
    Row(parseval_check, lambda **v: parseval_check(1, 1, **v),
        _GAMMA4 | dict.fromkeys(("gamma", "delta", "c", "d"), FIN), (QuadratureError, PoleError),
        pairs={"a": "alpha", "b": "beta"}),
    Row(gram_check, lambda **v: gram_check("sweep", N=2, **v), _GAMMA4, (QuadratureError,),
        pairs={"a": "alpha", "b": "beta"}),
    Row(barnes_check, barnes_check, _GAMMA4, (QuadratureError,),
        pairs={"a": "alpha", "b": "beta"}),
    Row(bateman_ortho_check, lambda: bateman_ortho_check(2, 2), {}),
    Row(pasternack_ortho_check, lambda **v: pasternack_ortho_check(2, 2, **v),
        {"m": REAL_OR_IMAG}, (QuadratureError,)),
    Row(pasternack_biortho_check, lambda **v: pasternack_biortho_check(1, 1, **v),
        {"m": REAL}, (QuadratureError,)),
    Row(jacobi_ortho_check, lambda **v: jacobi_ortho_check(2, 2, **v),
        {"alpha": GT_M1, "beta": GT_M1}, (QuadratureError,)),
]

_EXACT = [
    Row(hahn_operator_identity_check, lambda **v: hahn_operator_identity_check(2, **v),
        {"alpha": POS, "beta": POS, "gamma": FIN, "delta": FIN}, (PoleError,),
        pairs={"beta": "alpha", "delta": "gamma"}),
    Row(shifted_operator_identity_check,
        lambda **v: shifted_operator_identity_check(r=3, **v), {"alpha": FIN, "beta": FIN},
        pairs={"beta": "alpha"}),
    Row(genfun_jacobi_check, lambda **v: genfun_jacobi_check(1, order=4, **v), _JACOBI3,
        (PoleError,), pairs={"delta": "gamma"}),
    Row(genfun_jacobi_check, lambda **v: genfun_jacobi_check(2, order=4, **v), _JACOBI3,
        (PoleError,)),
    Row(genfun_chahn_check, lambda **v: genfun_chahn_check(1, order=3, **v),
        _HAHN4 | {"z": FIN}, (PoleError,), pairs={"beta": "alpha", "delta": "gamma"}),
    Row(genfun_chahn_check, lambda **v: genfun_chahn_check(2, order=3, **v),
        _HAHN4 | {"z": FIN}, (PoleError,)),
    Row(contiguous_check, lambda **v: contiguous_check(1, 2, **v), _HAHN4, (PoleError,)),
    Row(contiguous_check, lambda **v: contiguous_check(2, 2, **v), _HAHN4, (PoleError,)),
    Row(jacobi_classical_check, lambda **v: jacobi_classical_check("derivative", 2, **v),
        {"gamma": FIN, "delta": FIN}, (PoleError,)),
    Row(jacobi_classical_check, lambda **v: jacobi_classical_check("eq454", 2, **v),
        {"gamma": FIN, "delta": FIN}, (PoleError,)),
    Row(pasternack_reflection_check, lambda **v: pasternack_reflection_check(3, **v),
        {"m": FIN}, (PoleError,)),
    Row(recurrence_check, lambda **v: recurrence_check("sweep", HahnParams(**v), 2),
        dict.fromkeys("abcd", FIN), pairs={"d": "a"},
        refused=r"^degenerate parameters"),
]


def _rational(rng, lo, hi) -> Fraction:
    """p/q strictly inside (lo, hi), q <= 6."""
    q = rng.randint(1, 6)
    return F(rng.randint(lo * q + 1, hi * q - 1), q)


def _draw(rng, rule: str, kind: str, real: bool):
    """One point inside the rule: a rational, or for a complex kind a
    Gaussian rational (purely imaginary where the rule asks, real for a
    parameter drawn real only)."""
    (lo, hi), complex_ok, _, _ = _DRAW[rule]
    value = _rational(rng, lo, hi)
    if kind.startswith("complex") and complex_ok and real:
        value = GaussianRational(value)
    elif kind.startswith("complex") and complex_ok:
        im = _rational(rng, -1, 1) or F(1, 2)
        value = GaussianRational(0 if complex_ok == "imaginary" else value, im)
    return value


def _as(value, floats: bool):
    """value, or as a float or complex when floats."""
    if not floats:
        return value
    return complex(value) if isinstance(value, GaussianRational) else float(value)


def _sweep(row: Row, rng, kinds, count: int):
    """Runs count seeded draws, cycling through kinds, then each parameter at
    one of its rule's boundary points (in turn) with the others at the first
    draw that passed."""
    base = None
    for k in range(count):
        kind = kinds[k % len(kinds)]
        values = {p: _draw(rng, rule, kind, p in row.real) for p, rule in row.rules.items()}
        if kind.startswith("complex"):
            for p, q in row.pairs.items():
                values[p] = values[q].conjugate()
        if _inside(row, values, kind.endswith("float")) and base is None:
            base = values
    assert base is not None or not row.rules, f"{row}: no draw passed"
    for k, (p, rule) in enumerate(row.rules.items()):
        edges = _DRAW[rule][2]
        if edges:
            _inside(row, {**base, p: edges[k % len(edges)]}, False)


def _inside(row: Row, values: dict, floats: bool) -> bool:
    """Runs one inside point: it passes (True), or raises an error the row
    lists (False)."""
    args = {p: _as(v, floats) for p, v in values.items()}
    try:
        reports = row.call(**args)
    except row.allowed:
        return False
    for report in reports if isinstance(reports, list) else [reports]:
        assert isinstance(report, VerificationReport)
        if not report.passed:
            assert row.refused and re.match(row.refused, report.details), (row, args, report)
            return False
    return True


@pytest.mark.parametrize("row", _QUADRATURE, ids=repr)
def test_quadrature_checks_over_their_domain(row):
    # barnes_check is the N = 1 Gram: its row draws the Gram row's points, so
    # the weight memo computes each node of their slow edge points once
    seed = repr(row).replace("barnes_check", "gram_check")
    _sweep(row, random.Random(f"quadrature {seed}"),
           ("rational", "float", "complex", "complex float"), 4)
    if not row.rules:
        return
    base = {p: F(1, 2) for p in row.rules}
    for p, rule in row.rules.items():
        name = row.names.get(p, p)
        bad = [math.nan, math.inf, -math.inf, complex(0.5, math.nan),
               *map(complex, _DRAW[rule][3])]
        for value in bad:
            with pytest.raises(DomainError, match=rf"^{name} must be finite") as caught:
                row.call(**{**base, p: value})
            assert repr(value) in str(caught.value)


@pytest.mark.parametrize("row", _EXACT, ids=repr)
def test_exact_checks_over_their_domain(row):
    _sweep(row, random.Random(f"exact {row!r}"), ("rational", "complex"), 8)
    base = {p: F(1, 2) for p in row.rules}
    for p, rule in row.rules.items():
        for value in (0.5, math.nan, math.inf, -math.inf, 0.5 + 0.25j):
            args = {**base, p: value}
            if row.check is recurrence_check:  # a refused input is a failed row
                report = row.call(**args)
                assert report.status == "fail" and "exact" in report.details
                continue
            with pytest.raises(ExactInputError):
                row.call(**args)
        for value in _DRAW[rule][3]:
            with pytest.raises(DomainError, match=rf"^{p} must be finite{_phrase(p, rule)}, got"):
                row.call(**{**base, p: value})


def _phrase(name: str, rule: str) -> str:
    return re.escape(_RULES[rule][1].format(name=name))


def test_rows_cover_every_public_check():
    """The 9 quadrature checks and the 8 exact ones, each with a row."""
    assert len({row.check for row in _QUADRATURE}) == 9
    assert len({row.check for row in _EXACT}) == 8


@pytest.mark.parametrize("pairs, cap, named", [
    ([(-1, 0)], 12, "n of (-1, 0) must be an int in 0..12, got -1"),
    ([(1.5, 0)], 12, "n of (1.5, 0) must be an int in 0..12, got 1.5"),
    ([(13, 0)], 12, "n of (13, 0) must be an int in 0..12, got 13"),
    ([(2, 2), (0, 11)], 10, "p of (0, 11) must be an int in 0..10, got 11"),
    ([(2.0, 1)], 10, "n of (2.0, 1) must be an int in 0..10, got 2.0")],
    ids=["pairs0-12", "pairs1-12", "pairs2-12", "pairs3-10", "pairs4-10"])
def test_sech_degree_pairs_outside_the_cap_are_named(pairs, cap, named):
    """A negative, non-integer or too large degree raises the integer gate's
    DomainError naming the degree, its pair and the range, in each list
    form; the first bad pair of the list is the one named."""
    forms = [lambda: bateman_ortho_checks(pairs)] if cap == 12 else \
        [lambda: pasternack_ortho_checks(F(1, 3), pairs),
         lambda: pasternack_biortho_checks(F(1, 3), pairs)]
    for form in forms:
        with pytest.raises(DomainError, match=rf"^{re.escape(named)}$"):
            form()


@pytest.mark.parametrize("call, message", [
    (lambda: bateman_ortho_checks([(1,)]), "degree pair must be a 2-tuple, got (1,)"),
    (lambda: bateman_ortho_checks([(0, 0), 5]), "degree pair must be a 2-tuple, got 5"),
    (lambda: pasternack_ortho_checks(F(1, 3), [(0, 0), (1, 2, 3)]),
     "degree pair must be a 2-tuple, got (1, 2, 3)"),
    (lambda: pasternack_biortho_checks(F(1, 3), ["ab"]),
     "degree pair must be a 2-tuple, got 'ab'"),
    (lambda: jacobi_ortho_checks(0.5, 0.5, [(1,)]), "degree pair must be a 2-tuple, got (1,)"),
    (lambda: fourier_pair_checks(0.5, 0.5, [(1, 0, 0)]), "case must be a 4-tuple, got (1, 0, 0)"),
    (lambda: mellin_pair_checks(0.5, 0.5, [(1, 0, 0, 0.5), 5]), "case must be a 4-tuple, got 5"),
], ids=["bateman-short", "bateman-int", "pasternack-long", "biortho-text", "jacobi-short",
        "fourier-short", "mellin-int"])
def test_list_forms_refuse_an_item_of_the_wrong_shape(monkeypatch, call, message):
    """An item of a list form that is not a pair (a 4-tuple for the
    transforms) raises DomainError naming it, before any quadrature runs:
    never ValueError or TypeError from unpacking it."""
    def no_quadrature(envelope):
        raise AssertionError("a quadrature ran")

    monkeypatch.setattr(quadrature, "truncation_radius", no_quadrature)
    with pytest.raises(DomainError) as caught:
        call()
    assert str(caught.value) == message


@pytest.mark.parametrize("call, name", [
    (lambda: pasternack_hahn_params(math.nan), "m"),
    (lambda: pasternack_hahn_params(complex(0.5, math.inf)), "m"),
    (lambda: pochhammer(math.nan, 2), "a"),
    (lambda: pochhammer(complex(math.inf, 1), 0), "a"),
], ids=["hahn-params-nan", "hahn-params-inf", "pochhammer-nan", "pochhammer-inf"])
def test_float_helpers_refuse_non_finite_input(call, name):
    """pasternack_hahn_params and pochhammer take their input through the
    gate: DomainError naming it, never a record of NaNs or an overflow."""
    with pytest.raises(DomainError, match=rf"^{name} must be finite; .* is not finite"):
        call()


def test_no_swept_check_escapes_the_error_hierarchy():
    """Inputs outside the rules, or at poles, of every type a parameter takes,
    raise only HahnlabErrors; z and lambda, drawn real in the sweep, take
    Gaussian rationals off the real line too."""
    for row in _QUADRATURE + _EXACT:
        for p in row.rules:
            for value in (math.nan, math.inf, -0.1, 7, complex(-0.1, 0.2), F(-7, 3),
                          GaussianRational(F(-7, 3)), GaussianRational(F(-7, 3), F(1, 9))):
                try:
                    row.call(**{**{q: F(1, 2) for q in row.rules}, p: value})
                except HahnlabError:
                    pass


_HUGE = F(10**400)  # exact, and past the double range


@pytest.mark.parametrize("call, error, message", [
    (lambda: gram_check("x", "a", 1, 1, 1, 2), DomainError, r"^alpha must be a number, got 'a'$"),
    (lambda: barnes_check(1, None, 1, 1), DomainError, r"^beta must be a number, got None$"),
    (lambda: parseval_check(1, 1, 1, 1, 1, 1, "1", 0, 0, 0), DomainError,
     r"^gamma must be a number, got '1'$"),
    (lambda: gram_check("x", _HUGE, 1, 1, 1, 2), RangeOverflowError,
     r"^alpha is past the double range$"),
    (lambda: hahn_operator_identity_check(1, _HUGE, 1, 0, 0), RangeOverflowError,
     r"^alpha is past the double range$"),
    (lambda: jacobi_eval(2, JacobiParams(0.3, 0.7), "a"), DomainError,
     r"^x must be a number, got 'a'$"),
    (lambda: jacobi_eval(2, JacobiParams(0.3, 0.7), None), DomainError,
     r"^x must be a number, got None$"),
    (lambda: jacobi_eval(2, JacobiParams(0.3, 0.7), _HUGE), RangeOverflowError,
     r"^x is past the double range$"),
    (lambda: log_gamma_complex(_HUGE), RangeOverflowError,
     r"^log-gamma argument is past the double range$"),
    (lambda: chahn_eval(2, HahnParams(_HUGE, 1, 1, 1), 0.1), RangeOverflowError,
     r"^p_2 has a coefficient past the double range$"),
], ids=["gate-text", "gate-none", "gate-numeric-text", "gate-huge", "exact-gate-huge",
        "eval-x-text", "eval-x-none", "eval-x-huge", "log-gamma-huge", "rounded-coeffs-huge"])
def test_junk_and_out_of_range_inputs_raise_hahnlab_errors(call, error, message):
    """Text or None where a number goes raises DomainError naming it (the
    gate refuses text that parses as a number too), and an exact value whose
    double overflows raises RangeOverflowError: never TypeError, ValueError
    or OverflowError."""
    with pytest.raises(error, match=message):
        call()


_H = F(1, 2)
_HAHN_HALF = HahnParams(_H, _H, _H, _H)


_SERIES = FormalSeries([1, 2, 3], 2)
_CAP = EXACT_DEGREE_CAP


def _refused(report: VerificationReport):
    """The DomainError a failed report stands for (recurrence_check reports a
    refused input as a failed row)."""
    assert report.status == "fail"
    raise DomainError(report.details)


def _shift_r(v):
    return shifted_operator_identity_check(_H, _H, v)


# every integer argument of the public API: (id, name, lo, hi, call, skip),
# call(v) passing v as the argument, hi None for no upper bound and skip the
# values of the sweep the row leaves out: those the argument takes (an
# omitted order is the default), or, for r's two rows, its floats and ints
# in one and its text and None in the other
_INT_ARGUMENTS = [
    ("jacobi-eval-n", "n", 0, _CAP, lambda v: jacobi_eval(v, JacobiParams(0.3, 0.7), 0.4)),
    ("chahn-eval-n", "n", 0, _CAP, lambda v: chahn_eval(v, HahnParams(*[0.5] * 4), 0.4)),
    ("pasternack-eval-n", "n", 0, _CAP, lambda v: pasternack_eval(v, 0.3, 0.4)),
    ("jacobi-exact-n", "n", 0, _CAP, lambda v: jacobi_coeffs_exact(v, JacobiParams(_H, _H))),
    ("chahn-exact-n", "n", 0, _CAP, lambda v: chahn_coeffs_exact(v, _HAHN_HALF)),
    ("pasternack-exact-n", "n", 0, _CAP, lambda v: pasternack_coeffs_exact(v, F(1, 3))),
    ("jacobi-complex-n", "n", 0, _CAP,
     lambda v: jacobi_coeffs_complex(v, JacobiParams(0.3, 0.7))),
    ("chahn-complex-n", "n", 0, _CAP, lambda v: chahn_coeffs_complex(v, HahnParams(*[0.5] * 4))),
    ("pasternack-complex-n", "n", 0, _CAP, lambda v: pasternack_coeffs_complex(v, 0.3)),
    ("gram-N", "N", 1, 16, lambda v: chahn_gram(v, 1, 1, 1, 1)),
    ("gram-check-N", "N", 1, 16, lambda v: gram_check("x", 1, 1, 1, 1, v)),
    ("norm-n", "n", 0, None, lambda v: chahn_norm_rhs(v, 1, 1, 1, 1)),
    ("bateman-n", "n", 0, 12, lambda v: bateman_ortho_checks([(v, 0)])),
    ("bateman-m", "m", 0, 12, lambda v: bateman_ortho_checks([(0, v)])),
    ("pasternack-n", "n", 0, 10, lambda v: pasternack_ortho_checks(F(1, 3), [(v, 0)])),
    ("pasternack-p", "p", 0, 10, lambda v: pasternack_ortho_checks(F(1, 3), [(0, v)])),
    ("biortho-n", "n", 0, 10, lambda v: pasternack_biortho_checks(F(1, 3), [(v, 0)])),
    ("biortho-p", "p", 0, 10, lambda v: pasternack_biortho_checks(F(1, 3), [(0, v)])),
    ("jacobi-ortho-n", "n", 0, _CAP, lambda v: jacobi_ortho_checks(0.5, 0.5, [(v, 0)])),
    ("jacobi-ortho-m", "m", 0, _CAP, lambda v: jacobi_ortho_checks(0.5, 0.5, [(0, v)])),
    ("shifted-r-float", "r", 0, 32, _shift_r, ("2", None)),
    ("shifted-r-text", "r", 0, 32, _shift_r, (1.0, 2.0, -1, 33)),
    ("pochhammer-k", "k", 0, None, lambda v: pochhammer(0.5, v)),
    ("poly-shift-k", "k", 0, None, lambda v: ExactPoly([1, 2]).shift_up(v)),
    ("series-order", "order", 0, None, lambda v: FormalSeries([1, 2], v), (None,)),
    ("series-identity-order", "order", 0, None, FormalSeries.identity),
    ("series-constant-order", "order", 0, None, lambda v: FormalSeries.constant(1, v)),
    ("series-truncate-order", "order", 0, 2, _SERIES.truncate),
    ("hypergeometric-order", "order", 0, None, lambda v: hypergeometric_series([1], [2], v)),
    ("one-minus-t-order", "order", 0, None, lambda v: one_minus_t_power(2, v)),
    ("genfun-jacobi-order", "order", 0, None,
     lambda v: genfun_jacobi_check(1, _H, _H, F(1, 3), v)),
    ("genfun-chahn-order", "order", 0, None,
     lambda v: genfun_chahn_check(1, _H, _H, _H, _H, F(1, 3), v)),
    ("derive-recurrence-n", "n", 1, _CAP - 1, lambda v: derive_recurrence(v, _HAHN_HALF)),
    ("recurrence-check-n", "n", 1, _CAP - 1,
     lambda v: _refused(recurrence_check("x", _HAHN_HALF, v))),
    ("reflection-n", "n", 0, _CAP, lambda v: pasternack_reflection_check(v, F(1, 3))),
    ("genfun-jacobi-which", "which", 1, 2, lambda v: genfun_jacobi_check(v, _H, _H, F(1, 3), 2)),
    ("genfun-chahn-which", "which", 1, 2,
     lambda v: genfun_chahn_check(v, _H, _H, _H, _H, F(1, 3), 2)),
    ("contiguous-which", "which", 1, 2, lambda v: contiguous_check(v, 1, _H, _H, _H, _H)),
    ("contiguous-1-n", "n", 1, _CAP, lambda v: contiguous_check(1, v, _H, _H, _H, _H)),
    ("contiguous-2-n", "n", 0, _CAP - 1, lambda v: contiguous_check(2, v, _H, _H, _H, _H)),
]


@pytest.mark.parametrize("name, lo, hi, call, skip", [
    pytest.param(*row[1:5], row[5] if len(row) > 5 else (), id=row[0])
    for row in _INT_ARGUMENTS])
def test_integer_arguments_that_are_not_ints_raise_domain_error(name, lo, hi, call, skip):
    """An integer argument given as a float (1.0, 2.0), text or None, or as
    an int just outside its range, raises the DomainError of the one gate
    (errors._require_int) naming it, never TypeError; recurrence_check
    reports it as a failed row.  A sech degree's name carries its pair."""
    bounds = f">= {lo}" if hi is None else rf"{lo}\.\.{hi}"
    for value in (1.0, 2.0, "2", None, lo - 1, *(() if hi is None else (hi + 1,))):
        if value not in skip:
            message = rf"^{name}( of .*)? must be an int in {bounds}, got {re.escape(repr(value))}$"
            with pytest.raises(DomainError, match=message):
                call(value)


def test_integer_arguments_cover_the_public_api():
    """The sweep's rows: the nine polynomial routines, both Gram sizes, the
    norm, the four list forms' two degrees each, r (in two rows that
    together sweep every value), pochhammer's k, ExactPoly.shift_up's k, six
    series orders, two generating-function orders, three recurrence-side
    degrees, the three which selectors and contiguous_check's n at which = 1
    and 2."""
    assert len(_INT_ARGUMENTS) == 9 + 2 + 1 + 8 + 2 + 1 + 1 + 6 + 2 + 3 + 3 + 2
    assert len({row[0] for row in _INT_ARGUMENTS}) == len(_INT_ARGUMENTS)
    r_rows = [row for row in _INT_ARGUMENTS if row[1] == "r"]
    assert set(r_rows[0][5]).isdisjoint(r_rows[1][5])


def test_recurrence_check_with_a_float_degree_is_a_failed_check():
    report = recurrence_check("x", _HAHN_HALF, 1.0)
    assert report.status == "fail" and \
        report.details == f"n must be an int in 1..{EXACT_DEGREE_CAP - 1}, got 1.0"


_TINY = F(1, 10**400)  # positive, but its double is 0.0


def test_the_gate_judges_exact_values_exactly():
    """The gate applies its rule to an exact value itself, not to its
    rounded complex: alpha = 10^-400 has Re > 0, -10^-400 does not."""
    assert hahn_operator_identity_check(1, _TINY, 1, 0, 0).passed
    assert hahn_operator_identity_check(1, GaussianRational(_TINY, 1), 1, 0, 0).passed
    with pytest.raises(DomainError, match=r"^alpha must be finite with Re\(alpha\) > 0, got"):
        hahn_operator_identity_check(1, -_TINY, 1, 0, 0)
    assert (GaussianRational(_H, 3).real, GaussianRational(_H, 3).imag) == (_H, 3)


@pytest.mark.parametrize("call, name, value", [
    (lambda: chahn_gram(2, _TINY, 1, 1, 1), "alpha", _TINY),
    (lambda: barnes_check(1, 1, _TINY, 1), "a", _TINY),
    (lambda: parseval_check(0, 0, _TINY, 1, 1, 1, 0, 0, 0, 0), "alpha", _TINY),
    (lambda: gram_check("x", 1, GaussianRational(_TINY, 1), 1, 1, 2), "beta",
     GaussianRational(_TINY, 1)),
    (lambda: parseval_check(1, 1, 1, 1, 1, _TINY, 0, 0, 0, 0), "b", _TINY),
    (lambda: chahn_norm_rhs(1, 1, 1, 1, _TINY), "b", _TINY),
    (lambda: fourier_pair_check(1, _TINY, 1, 0, 0, 0.5), "alpha", _TINY),
    (lambda: mellin_pair_check(1, 1, _TINY, 0, 0, 0.5), "beta", _TINY),
], ids=["gram", "barnes", "parseval", "gram-check", "parseval-b", "norm", "fourier", "mellin"])
def test_float_paths_refuse_an_exact_value_that_rounds_to_zero(call, name, value):
    """An exact parameter with Re > 0 whose double has Re = 0.0 is refused
    once, by the gate of the float paths, with the DomainError that names
    it and the value as passed; the exact operator check above takes it."""
    with pytest.raises(DomainError) as caught:
        call()
    assert str(caught.value) == f"{name} must be finite with Re({name}) > 0 as a double, " \
        f"got {value!r}"
