"""Exact Q(i) scalar and polynomial arithmetic."""

import copy
import json
import pickle
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hahnlab.errors import DomainError, ExactInputError, RangeOverflowError
from hahnlab.exact import (GR_I, GR_ONE, I_POWERS, ExactPoly, GaussianRational,
                           _poly, gr)
from hahnlab.polynomials import (HahnParams, JacobiParams, chahn_coeffs_exact,
                                 jacobi_coeffs_exact, pasternack_coeffs_exact)
from hahnlab.series import FormalSeries

F = Fraction

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
gaussians = st.builds(GaussianRational, rationals, rationals)
polys = st.lists(gaussians, min_size=0, max_size=6).map(ExactPoly)


def test_construction_and_equality():
    assert GaussianRational(1, 2) == GaussianRational(F(2, 2), F(4, 2))
    assert gr(3) == GaussianRational(3, 0)
    assert gr(F(1, 3)) != gr(F(1, 4))


def test_floats_rejected():
    with pytest.raises(ExactInputError):
        GaussianRational(0.5, 0)
    with pytest.raises(ExactInputError):
        gr(1.5)


def test_i_squared_is_minus_one():
    assert GR_I * GR_I == gr(-1)


def test_division_and_pow():
    a = GaussianRational(F(1, 2), F(1, 3))
    assert a / a == GR_ONE
    assert a ** 0 == GR_ONE
    assert a ** 3 == a * a * a
    assert a ** -2 == GR_ONE / (a * a)
    with pytest.raises(ZeroDivisionError):
        GR_ONE / GaussianRational(0, 0)


def test_i_powers_lookup():
    for k in range(-9, 10):
        assert I_POWERS[k % 4] == (GR_I ** k if k >= 0 else GR_ONE / GR_I ** -k)


def test_conjugate_and_str():
    a = GaussianRational(F(3, 4), F(-1, 2))
    assert a.conjugate() == GaussianRational(F(3, 4), F(1, 2))
    assert str(a) == "3/4-1/2i"
    assert str(GaussianRational(0, 1)) == "1i"
    assert str(gr(F(-1, 2))) == "-1/2"


@pytest.mark.parametrize("text,expected", [
    ("1/2", GaussianRational(F(1, 2))),
    ("-3", gr(-3)),
    ("0.25", GaussianRational(F(1, 4))),
    ("1/2+1/4i", GaussianRational(F(1, 2), F(1, 4))),
    ("1/2-1/4i", GaussianRational(F(1, 2), F(-1, 4))),
    ("i", GR_I),
    ("-i", -GR_I),
    ("2i", GaussianRational(0, 2)),
    ("3/4-1/2i", GaussianRational(F(3, 4), F(-1, 2))),
])
def test_parse(text, expected):
    assert GaussianRational.parse(text) == expected


def test_parse_rejects_junk():
    for bad in ("", "one", "1+2", "1//2"):
        with pytest.raises(ExactInputError):
            GaussianRational.parse(bad)


_TEXT_ROUTES = pytest.mark.parametrize("make", [
    lambda text: GaussianRational.parse(text),
    lambda text: GaussianRational(text),
    lambda text: GaussianRational(0, text),
    lambda text: gr(text),
], ids=["parse", "re", "im", "gr"])


@_TEXT_ROUTES
@pytest.mark.parametrize("text", ["1/0", "-3/0", "0/0", "zebra", "1e3", "1_000"])
def test_bad_text_is_an_input_error(make, text):
    """A zero denominator, junk text, or Fraction's exponent and underscore
    forms raise ExactInputError naming the text, never ZeroDivisionError or
    ValueError: every route reads text with parse's grammar."""
    with pytest.raises(ExactInputError, match=text):
        make(text)


@pytest.mark.parametrize("make, want", [
    (GaussianRational.parse, GaussianRational(F(1, 2), F(1, 4))),
    (GaussianRational, GaussianRational(F(1, 2), F(1, 4))),
    (lambda text: GaussianRational(0, text), GaussianRational(F(-1, 4), F(1, 2))),
    (gr, GaussianRational(F(1, 2), F(1, 4))),
    (lambda text: ExactPoly([text]).coeff(0), GaussianRational(F(1, 2), F(1, 4))),
], ids=["parse", "re", "im", "gr", "poly"])
def test_complex_text_reads_on_every_route(make, want):
    """Text in parse's grammar is one value on every route; as the imaginary
    part of GaussianRational(re, im), a + bi is i (a + bi)."""
    assert make("1/2+1/4i") == want


@pytest.mark.parametrize("value", [1.5, 2, None, GaussianRational(1, 2)])
def test_parse_of_a_value_that_is_not_text_is_an_input_error(value):
    with pytest.raises(ExactInputError) as caught:
        GaussianRational.parse(value)
    assert str(caught.value) == f"cannot parse exact scalar: {value!r}"


@pytest.mark.parametrize("text", ["1/0i", "2-1/0i", "1/0+i", "1/0-2i"])
def test_parse_zero_denominator_in_either_part(text):
    with pytest.raises(ExactInputError, match="/0"):
        GaussianRational.parse(text)


def test_str_parse_round_trip():
    for a in (GaussianRational(F(3, 7), F(-2, 5)), gr(0), GR_I, gr(F(-5, 3))):
        assert GaussianRational.parse(str(a)) == a


@given(gaussians, gaussians, gaussians)
@settings(max_examples=60, deadline=None)
def test_field_axioms_sampled(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    if b:
        assert (a / b) * b == a


def test_poly_normalization_and_degree():
    assert ExactPoly([1, 2, 0, 0]).degree == 1
    assert ExactPoly([]).degree == -1
    assert ExactPoly([0, 0]).is_zero()
    assert ExactPoly([0, 0, 5]).leading_coefficient == gr(5)


def test_poly_arith_and_eval():
    p = ExactPoly([1, 0, 1])   # 1 + x^2
    q = ExactPoly([0, 1])      # x
    assert p * q == ExactPoly([0, 1, 0, 1])
    assert (p - p).is_zero()
    assert p(gr(2)) == gr(5)
    assert p(F(1, 2)) == gr(F(5, 4))
    assert abs(p(2.0) - 5.0) < 1e-15
    assert p(1j) == 0j


def test_poly_derivative_and_argument_scaling():
    p = ExactPoly([0, 0, 3])   # 3x^2
    assert p.derivative() == ExactPoly([0, 6])
    assert p.scale_argument(GaussianRational(0, 1)) == ExactPoly([0, 0, -3])
    assert p.shift_up(2) == ExactPoly([0, 0, 0, 0, 3])


@given(polys, polys, polys)
@settings(max_examples=40, deadline=None)
def test_poly_ring_axioms_sampled(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert (p * q) * r == p * (q * r)


def test_poly_json_round_trip():
    p = ExactPoly([GaussianRational(F(1, 2), F(-3, 7)), gr(0), GR_I])
    data = json.loads(json.dumps(p.to_json()))
    assert data[0] == {"re": "1/2", "im": "-3/7"}
    assert ExactPoly.from_json(data) == p


@given(gaussians, polys)
@settings(max_examples=30, deadline=None)
def test_pickle_and_copy_round_trip(a, p):
    """The immutable exact types survive pickle, copy and deepcopy: an equal
    object with an equal hash."""
    for x in (a, p, FormalSeries(p.coeffs, 3)):
        for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert type(y) is type(x)
            assert y == x and hash(y) == hash(x)


@pytest.mark.parametrize("value", [0, 1, -7, 2 ** 70, F(1, 2), F(-22, 7), F(3, 10 ** 20)])
def test_real_value_hashes_as_its_rational(value):
    """Equal objects hash alike: a real GaussianRational is one set and
    dict key with the int or Fraction it equals."""
    g = GaussianRational(value)
    assert g == value and hash(g) == hash(value) == hash(F(value))
    assert len({g, value, F(value)}) == 1
    assert {value: "x"}[g] == "x"
    # results of arithmetic reach the same hash
    assert hash(g + GR_I - GR_I) == hash(value)


@pytest.mark.parametrize("re, im", [(0, 1), (F(1, 2), F(-1, 3)), (-5, 2 ** 70)])
def test_non_real_hash_is_stable(re, im):
    g = GaussianRational(re, im)
    first = hash(g)
    same = GaussianRational(F(re), F(im)) + 0
    assert g == same and hash(g) == first == hash(same)
    assert g != re and len({g, same, F(re)}) == 2
    for y in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
        assert y == g and hash(y) == hash(g)


_P = sys.hash_info.modulus
# integers and signs; denominators that are multiples of P in lowest terms
# (hash inf) or only over the shared denominator; -(P + 3)/3, whose hash
# would be -1 and is -2
_HASH_GRID = [0, 1, -1, -7, 2 ** 70, -2 ** 70, _P, -_P, F(_P, 3), F(1, 2), F(-22, 7),
              F(3, 10 ** 20), F(1, _P), F(-1, _P), F(_P + 1, 5 * _P), F(1, 3 * _P * _P),
              F(-(_P + 3), 3), F(_P + 3, 3)]


def test_hash_is_the_fraction_hash_on_the_grid():
    """Every real value hashes as its Fraction and every other as the tuple
    of its two Fractions, for each pair of grid values as parts."""
    for re in _HASH_GRID:
        for im in _HASH_GRID:
            g = GaussianRational(re, im)
            want = hash((F(re), F(im))) if im else hash(F(re))
            assert hash(g) == want, (re, im)
    # the grid reaches each special case of the numeric hash
    assert {sys.hash_info.inf, -sys.hash_info.inf, -2} <= {hash(F(v)) for v in _HASH_GRID}
    assert any(GaussianRational(re, im)._den % _P == 0 and F(re).denominator % _P
               for re in _HASH_GRID for im in _HASH_GRID)


def _schoolbook(a, b, limit=None):
    """a * b one GaussianRational product at a time: the kernel's oracle."""
    out = [GaussianRational(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + gr(x) * gr(y)
    return out if limit is None else out[:limit + 1]


real_scalars = st.one_of(st.integers(-20, 20), rationals)
scalars = st.one_of(real_scalars, gaussians, st.just(0))
coeff_lists = st.one_of(st.lists(real_scalars, max_size=8), st.lists(scalars, max_size=8))


@given(coeff_lists, coeff_lists, scalars)
@settings(max_examples=60, deadline=None)
def test_poly_mul_matches_schoolbook(a, b, s):
    p, q = ExactPoly(a), ExactPoly(b)
    assert p * q == ExactPoly(_schoolbook(a, b))
    assert p * s == s * p == ExactPoly(_schoolbook(a, [s]))


@given(coeff_lists, coeff_lists, st.integers(0, 7), st.integers(0, 7), scalars)
@settings(max_examples=60, deadline=None)
def test_series_mul_and_compose_match_schoolbook(a, b, order_a, order_b, s):
    """Series products truncate at the smaller order; compose is Horner with
    one truncated product per step."""
    fa, fb = FormalSeries(a, order_a), FormalSeries(b, order_b)
    n = min(order_a, order_b)
    assert fa * fb == FormalSeries(_schoolbook(fa.coeffs, fb.coeffs, n), n)
    assert fa * s == s * fa == FormalSeries(_schoolbook(fa.coeffs, [s]), order_a)
    inner = FormalSeries([0, *fb.coeffs[1:]], order_b)
    acc = []
    for c in reversed(fa.coeffs[:n + 1]):
        acc = _schoolbook(acc, inner.coeffs, n)
        acc = [gr(c) + (acc[0] if acc else 0), *acc[1:]]
    assert fa.compose(inner) == FormalSeries(acc, n)


def test_products_make_no_scalar_multiplications(monkeypatch):
    """Polynomial and series products run in Gaussian integers, never through
    GaussianRational.__mul__."""
    calls = []
    scalar_mul = GaussianRational.__mul__

    def counted(self, other):
        calls.append(other)
        return scalar_mul(self, other)

    monkeypatch.setattr(GaussianRational, "__mul__", counted)
    monkeypatch.setattr(GaussianRational, "__rmul__", counted)
    p = ExactPoly([GaussianRational(F(1, 2), 3), F(-2, 3), 5, GR_I])
    s = FormalSeries(p.coeffs, 6)
    inner = FormalSeries([0, F(1, 3), GaussianRational(2, -1)], 6)
    results = [p * p, p * F(3, 4), 2 * p, p * GR_I, s * s, s * inner, s * GR_I,
               F(1, 5) * s, s.compose(inner)]
    assert not calls
    assert results[0] == ExactPoly(_schoolbook(p.coeffs, p.coeffs))
    assert GR_I * GR_I == -1 and calls  # the counter does count


def _horner(coeffs, x):
    """p(x) one GaussianRational multiply at a time: the evaluation's oracle."""
    acc = GaussianRational(0)
    for c in reversed(coeffs):
        acc = acc * gr(x) + c
    return acc


@given(polys, st.one_of(st.integers(-9, 9), rationals, gaussians))
@settings(max_examples=80, deadline=None)
def test_exact_evaluation_matches_horner(p, x):
    value = p(x)
    assert type(value) is GaussianRational
    assert value == _horner(p.coeffs, x)


def test_exact_evaluation_makes_no_scalar_multiplications(monkeypatch):
    """Exact point values run Horner on Gaussian integers, never through
    GaussianRational.__mul__."""
    calls = []
    scalar_mul = GaussianRational.__mul__

    def counted(self, other):
        calls.append(other)
        return scalar_mul(self, other)

    p = ExactPoly([GaussianRational(F(1, 2), 3), F(-2, 3), 5, GR_I])
    points = [F(3, 7), GaussianRational(F(-1, 2), F(5, 3)), 4, GR_I]
    expected = [_horner(p.coeffs, x) for x in points]
    monkeypatch.setattr(GaussianRational, "__mul__", counted)
    monkeypatch.setattr(GaussianRational, "__rmul__", counted)
    assert [p(x) for x in points] == expected
    assert ExactPoly()(F(1, 3)) == 0
    assert not calls


# --- the canonical integer storage --------------------------------------------

def _storage(p):
    return p._re, p._im, p._den


def _assert_one_form(polys):
    """Equal, equal hashes, and the same canonical vectors."""
    first = polys[0]
    for p in polys:
        assert p == first and hash(p) == hash(first)
        assert _storage(p) == _storage(first)
    re, im, den = _storage(first)
    assert den > 0 and gcd(*re, *im, den) == 1
    assert not re or re[-1] or (im and im[-1])
    assert not im or any(im)


@pytest.mark.parametrize("build", [
    lambda: jacobi_coeffs_exact(4, JacobiParams(F(1, 3), F(3, 4))),
    lambda: chahn_coeffs_exact(3, HahnParams(GaussianRational(F(1, 2), F(1, 3)), F(1, 4),
                                             GaussianRational(F(1, 2), F(-1, 3)), F(1, 4))),
    lambda: pasternack_coeffs_exact(5, F(2, 3)),
], ids=["jacobi", "chahn-complex", "pasternack"])
def test_equal_polynomials_share_one_canonical_form(build):
    """An exact build, a product, a sum, a GaussianRational list, from_json,
    pickle and copy all reach the same vectors: == and hash compare tuples."""
    p = build()
    x_plus_one, x_minus_one = ExactPoly([1, 1]), ExactPoly([-1, 1])
    routes = [
        p,
        ExactPoly(p.coeffs),
        ExactPoly([*p.coeffs, 0, GaussianRational(0, 0)]),
        ExactPoly.from_json(json.loads(json.dumps(p.to_json()))),
        pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p),
        (p + x_plus_one) - x_plus_one,
        ExactPoly([F(1, 2)]) * (2 * p),
        (p * 7) * F(1, 7),
        (p * GR_I) * -GR_I,
    ]
    _assert_one_form(routes)
    _assert_one_form([x_plus_one * x_minus_one, ExactPoly([-1, 0, 1]),
                      ExactPoly([F(-3, 3), 0, GaussianRational(F(4, 4), 0)])])


def test_zero_polynomial_and_scaling_by_zero():
    p = ExactPoly([F(1, 3), GR_I, 5])
    zeros = [ExactPoly(), ExactPoly.zero(), ExactPoly([0, 0]), ExactPoly([GaussianRational(0, 0)]),
             p - p, p * 0, 0 * p, p * F(0), p * GaussianRational(0), p * ExactPoly()]
    _assert_one_form(zeros)
    assert _storage(zeros[0]) == ((), (), 1)
    assert zeros[0].degree == -1 and zeros[0].coeffs == () and zeros[0].is_zero()


def test_trailing_zeros_are_trimmed():
    p = ExactPoly([1, GaussianRational(F(1, 2), 2), 0, GaussianRational(0, 0), F(0, 5)])
    assert p.degree == 1 and len(p.coeffs) == 2
    _assert_one_form([p, ExactPoly([1, GaussianRational(F(1, 2), 2)])])
    # an imaginary part that cancels leaves a real polynomial: im is empty
    q = ExactPoly([1, GR_I]) + ExactPoly([0, -GR_I])
    assert _storage(q) == ((1,), (), 1)


@pytest.mark.parametrize("re, im, den, want", [
    ([2, -4], [], -6, [F(-1, 3), F(2, 3)]),
    ([6, 0, 0], [3, 9, 0], 12, [GaussianRational(F(1, 2), F(1, 4)), GaussianRational(0, F(3, 4))]),
    ([-5], [10], -15, [GaussianRational(F(1, 3), F(-2, 3))]),
    ([0, 0], [0, 0], -7, []),
])
def test_negative_or_unreduced_denominators_are_normalized(re, im, den, want):
    p = _poly(ExactPoly, re, im, den)
    _assert_one_form([p, ExactPoly(want)])
    assert p.coeffs == tuple(gr(c) for c in want)


def test_series_keep_their_order_and_trailing_zeros():
    s = FormalSeries([1, F(1, 2), 0, 0], 5)
    assert s.order == 5 and len(s.coeffs) == 6 and s.coeffs[2:] == (gr(0),) * 4
    assert len(s.complex_coeffs()) == 6
    _assert_one_form([s, FormalSeries([2, 1], 5) * F(1, 2), FormalSeries([1, F(1, 2)], 5),
                      pickle.loads(pickle.dumps(s)), copy.deepcopy(s),
                      FormalSeries([1, F(1, 2), 0, 0, 0, 0, 7, 8], 5)])
    # the order takes part in equality, and a series is never an ExactPoly
    assert s != FormalSeries([1, F(1, 2)], 4)
    assert s != ExactPoly([1, F(1, 2)]) and ExactPoly([1]) != FormalSeries([1], 0)
    assert s.truncate(1) == FormalSeries([1, F(1, 2)])
    assert FormalSeries([0, 0], 3).coeffs == (gr(0),) * 4


_big_ints = st.one_of(st.integers(2 ** 53, 2 ** 90), st.integers(-2 ** 90, -2 ** 53), st.just(0))
_big_fractions = st.builds(F, _big_ints, st.integers(2 ** 53, 2 ** 90))
_big_coeffs = st.lists(st.one_of(_big_fractions, st.builds(GaussianRational, _big_fractions,
                                                           _big_fractions)), max_size=7)


def _bits(values):
    return [(z.real.hex(), z.imag.hex()) for z in values]


@given(_big_coeffs, st.integers(0, 9))
@settings(max_examples=60, deadline=None)
def test_complex_coefficients_round_like_fractions(coeffs, order):
    """complex_coeffs() and max_abs_coefficient() equal the GaussianRational
    route bit for bit with numerators and denominators above 2^53: an int over
    an int is correctly rounded, as float(Fraction) is."""
    for p in (ExactPoly(coeffs), FormalSeries(coeffs, order) if coeffs else FormalSeries([0], order)):
        want = [c.to_complex() for c in p.coeffs]
        assert _bits(p.complex_coeffs()) == _bits(want)
        assert p.max_abs_coefficient().hex() == max(map(abs, want), default=0.0).hex()


# --- the scalar's canonical triple against a Fraction-pair oracle -------------

def _oracle(op, x, y):
    """x op y on pairs of Fractions (re, im)."""
    (a, b), (c, d) = x, y
    if op == "+":
        return a + c, b + d
    if op == "-":
        return a - c, b - d
    if op == "*":
        return a * c - b * d, a * d + b * c
    norm = c * c + d * d
    return (a * c + b * d) / norm, (b * c - a * d) / norm


def _assert_canonical(value, pair):
    """value is the oracle's pair, stored as the canonical triple, with the
    hash and repr of every other object equal to it."""
    re, im = pair
    den = re.denominator * im.denominator // gcd(re.denominator, im.denominator)
    assert type(value) is GaussianRational
    assert (value._re, value._im, value._den) == (
        re.numerator * (den // re.denominator), im.numerator * (den // im.denominator), den)
    assert value._den > 0 and gcd(value._re, value._im, value._den) == 1
    assert (value.re, value.im) == pair
    twin = GaussianRational(re, im)
    assert value == twin and hash(value) == hash(twin) and repr(value) == repr(twin)
    if not im:
        assert value == re and hash(value) == hash(re)


# (operand, its Fraction pair): GaussianRational, int and Fraction
operands = st.one_of(
    st.tuples(rationals, rationals).map(lambda p: (GaussianRational(*p), p)),
    st.integers(-30, 30).map(lambda n: (n, (F(n), F(0)))),
    rationals.map(lambda q: (q, (q, F(0)))))
_OPS = {"+": lambda x, y: x + y, "-": lambda x, y: x - y,
        "*": lambda x, y: x * y, "/": lambda x, y: x / y}


@given(operands, operands, st.sampled_from(sorted(_OPS)))
@settings(max_examples=300, deadline=None)
def test_operators_match_fraction_pairs(x, y, op):
    """Every operator, with every operand kind on either side, gives the
    oracle's value in canonical form."""
    (x, x_pair), (y, y_pair) = x, y
    if not isinstance(x, GaussianRational) and not isinstance(y, GaussianRational):
        x = GaussianRational(x)
    if op == "/" and not any(y_pair):
        with pytest.raises(ZeroDivisionError):
            _OPS[op](x, y)
        return
    _assert_canonical(_OPS[op](x, y), _oracle(op, x_pair, y_pair))


@given(st.tuples(rationals, rationals), st.integers(-6, 6))
@settings(max_examples=150, deadline=None)
def test_powers_match_fraction_pairs(pair, k):
    x = GaussianRational(*pair)
    if k < 0 and not any(pair):
        with pytest.raises(ZeroDivisionError):
            x ** k
        return
    want = (F(1), F(0))
    for _ in range(abs(k)):
        want = _oracle("*", want, pair)
    if k < 0:
        want = _oracle("/", (F(1), F(0)), want)
    _assert_canonical(x ** k, want)
    _assert_canonical(-x, (-pair[0], -pair[1]))
    _assert_canonical(x.conjugate(), (pair[0], -pair[1]))


def test_coeff_takes_any_int_and_refuses_anything_else():
    """coeff(k) reads c_k for any int k, 0 outside 0..degree; a k that is not
    an int (1.0 == 1 included) raises DomainError naming k."""
    p = ExactPoly([1, GaussianRational(0, 2), F(-3, 4)])
    assert [p.coeff(k) for k in (-1, 0, 1, 2, 3, 10**400)] == \
        [0, 1, GaussianRational(0, 2), F(-3, 4), 0, 0]
    for k in (1.0, F(1), "1", None):
        with pytest.raises(DomainError) as caught:
            p.coeff(k)
        assert str(caught.value) == f"k must be an int, got {k!r}"


@pytest.mark.parametrize("x", ["junk", "0.5", None, [1]])
def test_call_at_a_value_that_is_not_a_number_raises_domain_error(x):
    """p(x) for text (also text that reads as a number) or another non-number
    raises the gate's DomainError naming x; floats and complex values still
    evaluate in floats."""
    p = ExactPoly([1, 2])
    with pytest.raises(DomainError) as caught:
        p(x)
    assert str(caught.value) == f"x must be a number, got {x!r}"
    assert p(0.5) == 2.0 and p(0.5j) == 1 + 1j


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this Python converts ints to text without a digit limit")
def test_str_past_the_int_to_text_limit_is_a_range_error():
    """A part with more digits than Python converts to text raises
    RangeOverflowError, not ValueError; within the limit str is unchanged."""
    digits = sys.get_int_max_str_digits()
    assert str(GaussianRational(F(10**(digits - 1)), -1)) == f"1{'0' * (digits - 1)}-1i"
    with pytest.raises(RangeOverflowError, match="^exact value too long to print: "):
        str(GaussianRational(1, 10**digits))
