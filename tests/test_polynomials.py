"""Polynomial evaluation and exact coefficient construction."""

import cmath
import copy
import math
import pickle
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hahnlab.errors import DomainError, ExactInputError, PoleError, RangeOverflowError
from hahnlab.exact import GR_I, ExactPoly, GaussianRational, gr
from hahnlab.identities import pasternack_reflection_check
from hahnlab.numerics import pochhammer
from hahnlab.series import hypergeometric_series
from hahnlab.polynomials import (EXACT_DEGREE_CAP, HahnParams, JacobiParams,
                                 chahn_coeffs_complex, chahn_coeffs_exact,
                                 chahn_eval, horner, jacobi_coeffs_complex,
                                 jacobi_coeffs_exact, jacobi_eval,
                                 pasternack_coeffs_complex,
                                 pasternack_coeffs_exact, pasternack_eval,
                                 pasternack_hahn_params,
                                 _EXACT_TYPES, _built, _chahn_sum, _exact_poly,
                                 _is_exact, _jacobi_sum, _lookup, _pasternack_sum,
                                 _to_complex)

F = Fraction
HALF = F(1, 2)


def _bits(z: complex) -> tuple:
    """The two doubles of z, signed zeros told apart."""
    return z.real.hex(), z.imag.hex()


def _poch(a, n: int) -> GaussianRational:
    """(a)_n by its defining product."""
    out = gr(1)
    for j in range(n):
        out = out * (gr(a) + j)
    return out


# --- Jacobi ---------------------------------------------------------------

def test_jacobi_at_one_collapses():
    # (1-x)/2 = 0 kills every k >= 1 term, leaving (gamma+1)_n / n!
    for n in (0, 1, 3, 6):
        for g, d in ((0.0, 0.0), (0.3, 1.7), (1.5, -0.25)):
            expected = pochhammer(g + 1, n) / math.factorial(n)
            assert abs(jacobi_eval(n, JacobiParams(g, d), 1.0) - expected) < 1e-12 * abs(expected)


def test_jacobi_legendre_value_at_zero():
    # direct summation of the terminating series at n=2, x=0
    assert abs(jacobi_eval(2, JacobiParams(0, 0), 0.0) - (-0.5)) < 1e-14


def test_jacobi_degree_one_closed_form():
    for g, d in ((0.2, 0.9), (1.0, 0.0)):
        for x in (-0.7, 0.0, 2.5):
            expected = (g + 1) - (g + d + 2) * (1 - x) / 2
            assert abs(jacobi_eval(1, JacobiParams(g, d), x) - expected) < 1e-13


def test_jacobi_pole_error():
    """(gamma+1)_k vanishes from k = 2 on at gamma = -2, and the prefactor
    (gamma+1)_n / n! cancels that pole: by Szego (4.22.2), P_3^(-2, 0)(x) =
    ((x-1)/2)^2 P_1^(2, 0)(x) = (x-1)^2 (1+2x) / 4."""
    assert jacobi_eval(3, JacobiParams(-2, 0), 0.5) == 0.125
    assert jacobi_coeffs_exact(3, JacobiParams(-2, 0)) == \
        ExactPoly([F(1, 4), 0, F(-3, 4), F(1, 2)])


def test_jacobi_coeffs_exact_basics():
    assert jacobi_coeffs_exact(0, JacobiParams(F(1, 3), F(2, 5))) == ExactPoly([1])
    assert jacobi_coeffs_exact(1, JacobiParams(0, 0)) == ExactPoly([0, 1])


def test_jacobi_coeffs_eval_at_one_exact():
    for n in (0, 2, 5):
        g, d = F(1, 3), F(3, 4)
        p = jacobi_coeffs_exact(n, JacobiParams(g, d))
        expected = _poch(g + 1, n) / gr(math.factorial(n))
        assert p(gr(1)) == expected


def test_jacobi_exact_degree_is_n():
    for n in range(9):
        assert jacobi_coeffs_exact(n, JacobiParams(F(1, 4), F(4, 1))).degree == n


# --- continuous Hahn -------------------------------------------------------

def test_chahn_degree_zero_is_one():
    assert chahn_eval(0, HahnParams(0.3 + 0.1j, 0.4, 0.5, 0.6 - 0.1j), 1.7) == 1.0


def test_chahn_degree_one_symmetric_halves():
    # hand expansion: i(1 - 2(1/2 + ix)) = 2x
    hp = HahnParams(HALF, HALF, HALF, HALF)
    for x in (0.0, 1.0, -2.5, 0.3):
        assert abs(chahn_eval(1, hp, x) - 2 * x) < 1e-14
    assert chahn_coeffs_exact(1, hp) == ExactPoly([0, 2])


def test_chahn_leading_coefficient_formula():
    # k = n term gives lc = (n+a+b+c+d-1)_n / n!, real for real parameter sum
    hp = HahnParams(HALF, HALF, HALF, HALF)
    p2 = chahn_coeffs_exact(2, hp)
    assert p2.leading_coefficient == gr(6)
    for n in range(EXACT_DEGREE_CAP // 8):
        params = HahnParams(F(1, 3), F(2, 5), F(3, 4), F(5, 6))
        p = chahn_coeffs_exact(n, params)
        s = F(1, 3) + F(2, 5) + F(3, 4) + F(5, 6)
        expected = _poch(n + s - 1, n) / gr(math.factorial(n))
        assert p.degree == n
        assert p.leading_coefficient == expected
        assert p.leading_coefficient.is_real()


def test_chahn_lc_real_for_conjugate_pairs():
    a = GaussianRational(F(1, 2), F(1, 3))
    b = GaussianRational(F(1, 4), F(1, 5))
    params = HahnParams(a, b, a.conjugate(), b.conjugate())
    for n in (1, 3, 5):
        assert chahn_coeffs_exact(n, params).leading_coefficient.is_real()


def test_chahn_imaginary_shift_realness():
    """i^{-n} p_n(iy) has all-real coefficients for real parameters.

    This is the realness that makes F_n real-valued at imaginary argument
    and lets the conjugate in the Gram integrand be dropped.
    """
    params = HahnParams(F(1, 2), F(2, 3), F(3, 4), F(4, 5))
    for n in range(7):
        p = chahn_coeffs_exact(n, params)
        q = (GR_I ** (-n % 4)) * p.scale_argument(GR_I)
        assert all(c.is_real() for c in q.coeffs)


@pytest.mark.parametrize("alpha, beta, a, b", [
    (HALF, HALF, HALF, HALF),
    (F(1), HALF, F(3, 4), F(5, 4)),
    (F(2), F(1, 3), F(3, 2), F(3, 4)),
    (F(7, 8), F(3, 8), F(13, 8), F(5, 8)),
])
def test_chahn_gram_order_coefficient_parity(alpha, beta, a, b):
    """For real parameters in the Gram's order (alpha, b, a, beta), c_k of p_n
    is real for n - k even and purely imaginary for n - k odd, so
    p_n(-z) = (-1)^n conj p_n(z) at real z: the lemma behind the Gram's
    reflection fold."""
    params = HahnParams(alpha, b, a, beta)
    for n in range(13):
        coeffs = chahn_coeffs_exact(n, params).coeffs
        assert len(coeffs) == n + 1
        for k, c in enumerate(coeffs):
            assert (c.im if (n - k) % 2 == 0 else c.re) == 0, (n, k, c)


def test_chahn_pole_error():
    """(a+c)_k vanishes from k = 2 on at a+c = -1, and the prefactor
    (a+c)_n (a+d)_n / n! cancels that pole: the values are the limit c -> -2
    (mpmath at 60 digits, c = -2 + 1e-30: 12i at x = 0, -11.13 + 8.76i at 3/10)."""
    assert chahn_eval(3, HahnParams(1, 1, -2, 1), 0.0) == 12j
    assert chahn_coeffs_exact(3, HahnParams(1, 1, -2, 1))(gr(F(3, 10))) == \
        GaussianRational(F(-1113, 100), F(219, 25))


def test_exact_mode_rejects_floats():
    with pytest.raises(ExactInputError):
        chahn_coeffs_exact(2, HahnParams(0.5, HALF, HALF, HALF))
    with pytest.raises(ExactInputError):
        jacobi_coeffs_exact(2, JacobiParams(0.5, 0))
    with pytest.raises(ExactInputError):
        pasternack_coeffs_exact(2, 0.5)


@pytest.mark.parametrize("make", [
    lambda: 3, lambda: True, lambda: F(3, 8), lambda: GaussianRational(HALF, 1),
    lambda: 0.375, lambda: 0.375 + 1j, lambda: "3/8",
    lambda: pytest.importorskip("numpy").float64(0.375),
    lambda: pytest.importorskip("numpy").complex128(0.375 + 1j),
], ids=["int", "bool", "Fraction", "GaussianRational", "float", "complex", "str",
        "numpy.float64", "numpy.complex128"])
def test_is_exact_verdict_is_the_isinstance_one(make):
    """The early float rejection changes no verdict."""
    value = make()
    assert _is_exact(value) is isinstance(value, _EXACT_TYPES)


def test_exact_degree_cap():
    with pytest.raises(DomainError):
        jacobi_coeffs_exact(EXACT_DEGREE_CAP + 1, JacobiParams(0, 0))


def test_float_exact_agreement():
    """Floating evaluation against exact coefficients, 1e-11 relative,
    n <= 20, rational parameters in [1/4, 4], |x| <= 10."""
    cases = [
        (HahnParams(HALF, HALF, HALF, HALF), chahn_eval, chahn_coeffs_exact),
        (HahnParams(F(1, 4), F(1, 2), F(3, 4), F(4, 1)), chahn_eval, chahn_coeffs_exact),
        (HahnParams(F(1, 3), F(3, 2), F(1, 2), F(2, 1)), chahn_eval, chahn_coeffs_exact),
        (JacobiParams(F(1, 4), F(4, 1)), jacobi_eval, jacobi_coeffs_exact),
        (JacobiParams(F(3, 4), F(1, 3)), jacobi_eval, jacobi_coeffs_exact),
    ]
    xs = [F(0), F(1, 4), F(-3, 2), F(10), F(-10), F(17, 5)]
    for params, feval, fexact in cases:
        for n in (1, 5, 12, 20):
            poly = fexact(n, params)
            for x in xs:
                exact_value = poly(gr(x)).to_complex()
                float_value = feval(n, params, float(x))
                scale = max(abs(exact_value), 1e-30)
                assert abs(float_value - exact_value) <= 1e-11 * scale, \
                    f"n={n} x={x} params={params}"


def test_float_parameter_path_matches_exact():
    """Float parameters are built at the values they store; the same values
    as exact parameters give the oracle.  Complex x with |Im x| in [1/4, 1] keeps
    clear of the real zeros; n <= 6, 1e-10 relative."""
    G = GaussianRational
    cases = [
        (jacobi_eval, jacobi_coeffs_exact, JacobiParams, (F(3, 8), F(13, 8))),
        (jacobi_eval, jacobi_coeffs_exact, JacobiParams, (F(-5, 8), G(F(7, 8), F(1, 4)))),
        (chahn_eval, chahn_coeffs_exact, HahnParams, (F(3, 8), F(5, 8), F(7, 8), F(9, 8))),
        (chahn_eval, chahn_coeffs_exact, HahnParams,
         (G(HALF, F(1, 4)), G(F(3, 4), F(-1, 4)), G(HALF, F(-1, 4)), G(F(3, 4), F(1, 4)))),
        (pasternack_eval, pasternack_coeffs_exact, lambda m: m, (F(3, 8),)),
        (pasternack_eval, pasternack_coeffs_exact, lambda m: m, (F(0),)),
    ]
    xs = [G(F(3, 4), F(1, 4)), G(F(-5, 2), F(-1)), G(F(9, 4), HALF), G(0, F(3, 4))]
    for feval, fexact, make, values in cases:
        floats = make(*(gr(v).to_complex() if gr(v).im else float(v) for v in values))
        for n in range(7):
            poly = fexact(n, make(*values))
            for x in xs:
                exact_value = poly(x).to_complex()
                float_value = feval(n, floats, x.to_complex())
                assert abs(float_value - exact_value) <= 1e-10 * abs(exact_value), \
                    f"{feval.__name__} n={n} x={x} values={values}"


def test_complex_coeff_builders_exact_dispatch():
    """Exact parameters give the exactly-rounded coefficient vector."""
    hp = HahnParams(F(1, 2), F(2, 3), F(3, 4), F(4, 5))
    for n in (0, 1, 4, 9, 20):
        assert chahn_coeffs_complex(n, hp) == chahn_coeffs_exact(n, hp).complex_coeffs()
    jp = JacobiParams(F(1, 3), F(3, 4))
    for n in (0, 2, 7):
        assert jacobi_coeffs_complex(n, jp) == jacobi_coeffs_exact(n, jp).complex_coeffs()


def test_complex_coeff_builders_float_path():
    """Coefficients for float parameters, built at the doubles' exact values
    and rounded once, are those of the nearby rationals to rounding."""
    hp_float = HahnParams(0.5, 2.0 / 3.0, 0.75, 0.8)
    hp_exact = HahnParams(F(1, 2), F(2, 3), F(3, 4), F(4, 5))
    for n in (0, 1, 4, 8):
        exact = chahn_coeffs_exact(n, hp_exact).complex_coeffs()
        floats = chahn_coeffs_complex(n, hp_float)
        sup = max(abs(c) for c in exact)
        for a, b in zip(exact, floats):
            assert abs(a - b) <= 5e-12 * sup


# --- Bateman / Pasternack ---------------------------------------------------

def test_pasternack_degree_zero():
    assert pasternack_eval(0, 0.37, 9.9) == 1.0


def test_pasternack_degree_one_bateman():
    for x in (0.0, 1.0, -3.5):
        assert abs(pasternack_eval(1, 0, x) - (-x)) < 1e-14


def test_pasternack_degree_one_general():
    for m in (0.5, -0.25, 2.0):
        for x in (0.3, -1.7):
            assert abs(pasternack_eval(1, m, x) - (-x / (1 + m))) < 1e-14


def test_pasternack_pole():
    with pytest.raises(PoleError):
        pasternack_eval(3, -2, 0.0)


def test_pasternack_exact_coeffs_real_rational():
    for n in (0, 1, 4, 8):
        p = pasternack_coeffs_exact(n, F(1, 3))
        assert p.degree == n
        assert all(c.is_real() for c in p.coeffs)


def test_pasternack_exact_matches_chahn_route():
    """F_n(x) = p_n(-ix/2; pasternack params) / (i^n (1+m)_n), exactly."""
    for m in (F(0), F(1, 3), F(-1, 2)):
        hp = pasternack_hahn_params(m)
        for n in (0, 1, 3, 6):
            direct = pasternack_coeffs_exact(n, m)
            p = chahn_coeffs_exact(n, hp)
            via = p.scale_argument(-GR_I * GaussianRational(F(1, 2)))
            scale = (GR_I ** n) * _poch(1 + m, n)
            assert via == scale * direct


def test_pasternack_complex_coeffs_match_exact():
    for n in (0, 2, 5):
        exact = pasternack_coeffs_exact(n, F(1, 3)).complex_coeffs()
        floats = pasternack_coeffs_complex(n, F(1, 3))
        for a, b in zip(exact, floats):
            assert abs(a - b) <= 1e-13 * max(1.0, abs(a))


def test_reflection_trivial_at_m_zero():
    assert pasternack_reflection_check(5, 0).passed


def test_reflection_degree_one():
    # (1+m)(-x/(1+m)) = (1-m)(-x/(1-m)) = -x
    assert pasternack_reflection_check(1, F(1, 3)).passed


def test_reflection_full_grid():
    for m in (F(1, 4), F(1, 3), HALF, F(2, 3)):
        for n in range(1, 13):
            report = pasternack_reflection_check(n, m)
            assert report.passed, report.name


def test_horner_matches_eval():
    coeffs = [1.0, -2.0, 0.5j]
    assert horner(coeffs, 2.0) == 1.0 - 4.0 + 0.5j * 4.0


# --- an independent oracle: the defining sums in Fraction pairs ----------------

def _qmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _qdiv(a, b):
    norm = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / norm, (a[1] * b[0] - a[0] * b[1]) / norm)


def _qshift(a, k):
    return (a[0] + k, a[1])


def _naive_sum(prefactor, upper, lower, n, z=(F(1), F(0))):
    """prefactor * sum_{k<=n} (-n)_k prod (u)_k prod (l+k)_{n-k} z^k / (k! n!),
    each Pochhammer symbol a running product of its factors: no parameter
    divides, so a lower one in {0, -1, ..., 1-n} is no pole."""
    total = (F(0), F(0))
    for k in range(n + 1):
        term = (F(math.prod(range(-n, k - n)), math.factorial(k) * math.factorial(n)), F(0))
        for j in range(n):
            for u in upper if j < k else ():
                term = _qmul(term, _qshift(u, j))
            for v in lower if j >= k else ():
                term = _qmul(term, _qshift(v, j))
            if j < k:
                term = _qmul(term, z)
        total = (total[0] + term[0], total[1] + term[1])
    return _qmul(prefactor, total)


def _naive(family, n, p, x):
    """The family's defining sum at x, or ZeroDivisionError at Pasternack's
    pole, (m+1)_n = 0."""
    if family == "jacobi":
        g, d = p[0], p[1]
        z = ((1 - x[0]) / 2, -x[1] / 2)
        return _naive_sum((F(1), F(0)), [_qshift((g[0] + d[0], g[1] + d[1]), n + 1)],
                          [_qshift(g, 1)], n, z)
    if family == "chahn":
        a, b, c, d = p
        ac, ad = (a[0] + c[0], a[1] + c[1]), (a[0] + d[0], a[1] + d[1])
        s = (a[0] + b[0] + c[0] + d[0], a[1] + b[1] + c[1] + d[1])
        a_ix = (a[0] - x[1], a[1] + x[0])
        unit = [(F(1), F(0)), (F(0), F(1)), (F(-1), F(0)), (F(0), F(-1))][n % 4]
        return _naive_sum(unit, [_qshift(s, n - 1), a_ix], [ac, ad], n)
    m1 = _qshift(p[0], 1)
    half = ((m1[0] + x[0]) / 2, (m1[1] + x[1]) / 2)
    poch = (F(1), F(0))
    for j in range(n):
        poch = _qmul(poch, _qshift(m1, j))
    return _naive_sum(_qdiv((F(1), F(0)), poch), [(F(n + 1), F(0)), half],
                      [(F(1), F(0)), m1], n)


def _leading_pochhammer_vanishes(family, n, p):
    """The family's leading coefficient is a nonzero multiple of (n + sigma)_n."""
    if family == "pasternack":
        return False
    sigma = (p[0][0] + p[1][0] + 1, p[0][1] + p[1][1]) if family == "jacobi" else \
        (sum(v[0] for v in p) - 1, sum(v[1] for v in p))
    return sigma[1] == 0 and sigma[0].denominator == 1 and -2 * n + 1 <= sigma[0] <= -n


def _build(family, n, p):
    exact = [GaussianRational(re, im) if im else re for re, im in p]
    if family == "jacobi":
        return jacobi_coeffs_exact(n, JacobiParams(*exact[:2]))
    if family == "chahn":
        return chahn_coeffs_exact(n, HahnParams(*exact))
    return pasternack_coeffs_exact(n, exact[0])


_fractions = st.builds(F, st.integers(-36, 36), st.integers(1, 12))
_gaussians = st.tuples(_fractions, st.one_of(st.just(F(0)), _fractions))


def _check_against_naive(family, n, p, x):
    try:
        want = _naive(family, n, p, x)
    except ZeroDivisionError:  # Pasternack's genuine pole
        with pytest.raises(PoleError, match=r"^\(m\+1\)_k vanishes"):
            _build(family, n, p)
        return
    if _leading_pochhammer_vanishes(family, n, p):
        with pytest.raises(PoleError, match="degenerate parameters"):
            _build(family, n, p)
        return
    got = _build(family, n, p)(GaussianRational(*x))
    assert (got.re, got.im) == want


@given(st.sampled_from(("jacobi", "chahn", "pasternack")), st.integers(0, 20),
       st.lists(_gaussians, min_size=4, max_size=4), _gaussians)
@settings(max_examples=80, deadline=None)
def test_exact_builds_match_naive_sum(family, n, p, x):
    """Exact builds, evaluated at a Gaussian-rational x, equal the defining
    sum summed term by term in Fractions."""
    _check_against_naive(family, n, p, x)


@pytest.mark.parametrize("family, p", [
    ("jacobi", [(F(3, 10), F(0)), (F(7, 10), F(0))]),
    ("jacobi", [(F(-5, 8), F(1, 3)), (F(7, 8), F(-1, 4))]),
    ("pasternack", [(F(3, 8), F(0))]),
    ("pasternack", [(F(-1, 2), F(0))]),
])
def test_exact_builds_match_naive_sum_at_the_cap(family, p):
    _check_against_naive(family, EXACT_DEGREE_CAP, p, (F(2, 5), F(1, 3)))


@pytest.mark.parametrize("family, n, p", [
    ("jacobi", EXACT_DEGREE_CAP, [(F(-5), F(0)), (F(1, 3), F(0))]),
    ("jacobi", 9, [(F(-9), F(0)), (F(2, 3), F(1, 4))]),
    ("chahn", 7, [(HALF, F(1, 3)), (F(2, 5), F(0)), (F(-7, 2), F(-1, 3)), (F(3, 4), F(1, 5))]),
    ("chahn", 6, [(HALF, F(0)), (F(2, 5), F(0)), (F(-3, 2), F(0)), (F(-5, 2), F(0))]),
], ids=["jacobi-cap", "jacobi-lowest", "chahn-a+c", "chahn-both"])
def test_exact_builds_match_naive_sum_at_removable_poles(family, n, p):
    """gamma+1, a+c or a+d in {0, -1, ..., 1-n}: the division-free sum is the oracle there."""
    _check_against_naive(family, n, p, (F(2, 5), F(1, 3)))


@pytest.mark.parametrize("build, error, message", [
    (lambda: jacobi_coeffs_exact(2, JacobiParams(0, -3)), PoleError,
     "degenerate parameters: degree 0 != 2"),
    (lambda: chahn_coeffs_exact(3, HahnParams(GaussianRational(HALF, F(1, 3)), F(-7, 2),
                                              GaussianRational(HALF, F(-1, 3)), HALF)),
     PoleError, "degenerate parameters: degree 0 != 3"),
    (lambda: pasternack_coeffs_exact(3, F(-2)), PoleError, "(m+1)_k vanishes for k <= 3"),
    (lambda: hypergeometric_series([1], [-2], 5), PoleError,
     "hypergeometric denominator (-2)_k hits zero at k=3"),
    (lambda: hypergeometric_series([GaussianRational(1, 1)], [F(-2)], 5), PoleError,
     "hypergeometric denominator (-2)_k hits zero at k=3"),
    pytest.param(lambda: jacobi_coeffs_exact(EXACT_DEGREE_CAP + 1, JacobiParams(0, 0)),
                 DomainError,
                 f"n must be an int in 0..{EXACT_DEGREE_CAP}, got {EXACT_DEGREE_CAP + 1}",
                 id="above-the-cap"),
])
def test_exact_build_errors(build, error, message):
    """Poles, degenerate degrees and the cap raise with these exact messages."""
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error and str(caught.value) == message


@pytest.mark.parametrize("build, want", [
    pytest.param(lambda: jacobi_coeffs_exact(3, JacobiParams(-2, 0)),
                 [F(1, 4), 0, F(-3, 4), F(1, 2)], id="gamma+1"),
    pytest.param(lambda: chahn_coeffs_exact(3, HahnParams(1, 1, -2, 1)),
                 [GaussianRational(0, 12), -38, GaussianRational(0, -36), 10], id="a+c"),
    pytest.param(lambda: chahn_coeffs_exact(3, HahnParams(1, 1, 1, -3)),
                 [GaussianRational(0, 24), -44, GaussianRational(0, -24), 4], id="a+d"),
])
def test_removable_pole_values(build, want):
    """A lower parameter in {0, -1, ..., 1-n} is no pole of Jacobi or continuous
    Hahn: the prefactor cancels (l)_k, and the polynomial is the limit at it.
    P_3^(-2, 0) = (x-1)^2 (1+2x) / 4 (Szego (4.22.2)); the continuous Hahn
    ones agree with mpmath's 3F2 at c or d moved by 1e-30, to 28 digits at
    x = 0 and 3/10."""
    assert build() == ExactPoly(want)


# --- the memo ----------------------------------------------------------------

def test_memo_shares_one_build_for_equal_exact_and_float_parameters():
    """Equal parameters of either kind are one memo key and one polynomial,
    so their values agree bit for bit in either call order; the exact API
    still rejects the floats."""
    x = 0.3 + 0.7j
    exact, floats = JacobiParams(1, 0), JacobiParams(1.0, 0.0)
    assert exact == floats and hash(exact) == hash(floats)
    for order in ((exact, floats), (floats, exact)):
        _built.cache_clear()
        assert len({_bits(jacobi_eval(5, params, x)) for params in order}) == 1
        assert _built.cache_info().misses == 1
    with pytest.raises(ExactInputError):
        jacobi_coeffs_exact(5, floats)

    half_exact, half_float = HahnParams(HALF, HALF, HALF, HALF), HahnParams(0.5, 0.5, 0.5, 0.5)
    _built.cache_clear()
    want = horner(chahn_coeffs_exact(7, half_exact).complex_coeffs(), x)
    assert chahn_eval(7, half_float, x) == want and _built.cache_info().misses == 1
    with pytest.raises(ExactInputError):
        chahn_coeffs_exact(7, half_float)


def test_memo_builds_once_for_equal_exact_parameters_of_either_type():
    """HahnParams of Fractions and of the equal real GaussianRationals are
    one memo key: the second lookup is a hit on the first build."""
    fractions = HahnParams(HALF, F(3, 4), F(2, 3), 1)
    gaussians = HahnParams(*map(GaussianRational, (HALF, F(3, 4), F(2, 3), 1)))
    assert fractions == gaussians and hash(fractions) == hash(gaussians)
    _built.cache_clear()
    poly = chahn_coeffs_exact(7, fractions)
    assert chahn_coeffs_exact(7, gaussians) is poly
    assert _built.cache_info().misses == 1


# one parameter object per family, so a warm call repeats its family's record
_JACOBI_FLOAT, _JACOBI_EXACT = JacobiParams(0.3, 0.71), JacobiParams(F(3, 10), F(71, 100))
_CHAHN = HahnParams(1, 1, 1, 1)
_DEGREE_CALLS = {
    "jacobi_eval": lambda n: jacobi_eval(n, _JACOBI_FLOAT, 0.4),
    "chahn_eval": lambda n: chahn_eval(n, _CHAHN, 0.4),
    "pasternack_eval": lambda n: pasternack_eval(n, HALF, 0.4),
    "jacobi_coeffs_exact": lambda n: jacobi_coeffs_exact(n, _JACOBI_EXACT),
    "chahn_coeffs_exact": lambda n: chahn_coeffs_exact(n, _CHAHN),
    "pasternack_coeffs_exact": lambda n: pasternack_coeffs_exact(n, HALF),
    "jacobi_coeffs_complex": lambda n: jacobi_coeffs_complex(n, _JACOBI_FLOAT),
    "chahn_coeffs_complex": lambda n: chahn_coeffs_complex(n, _CHAHN),
    "pasternack_coeffs_complex": lambda n: pasternack_coeffs_complex(n, HALF),
}


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("call", _DEGREE_CALLS.values(), ids=_DEGREE_CALLS.keys())
def test_float_degree_raises_domain_error(call, warm):
    """A float degree raises DomainError naming it, on a cold memo and after
    an int call of the same degree filled the memo and the family's record, where
    2.0 == 2 would find degree 2's entry."""
    _built.cache_clear()
    if warm:
        call(2)
    message = rf"^n must be an int in 0\.\.{EXACT_DEGREE_CAP}, got 2\.0$"
    with pytest.raises(DomainError, match=message):
        call(2.0)


@pytest.mark.parametrize("x", [0, -3, 2 ** 80, True, 0.1, -0.0, 1e308, 2.5 - 0.0j,
                               complex(-0.0, 3.0), F(1, 3), GaussianRational(F(1, 3), -2)])
def test_to_complex_values(x):
    """Bitwise the complex(x) of a plain number; exact scalars through their
    rational parts."""
    got = _to_complex(x)
    want = (complex(float(x.re), float(x.im)) if isinstance(x, GaussianRational)
            else complex(float(x)) if isinstance(x, F) else complex(x))
    assert type(got) is complex
    assert (math.copysign(1.0, got.real), math.copysign(1.0, got.imag), got) == \
        (math.copysign(1.0, want.real), math.copysign(1.0, want.imag), want)


def test_memo_float_eval_is_the_uncached_sum():
    """Cached float values equal Horner's sum over a fresh, uncached build
    of the same family, bit for bit."""
    cases = [(jacobi_eval, _jacobi_sum, JacobiParams(0.3, 0.7)),
             (chahn_eval, _chahn_sum, HahnParams(0.6, 0.7 + 0.1j, 0.8, 0.9 - 0.1j)),
             (pasternack_eval, _pasternack_sum, -0.25)]
    xs = [0.0, 0.4, -2.5, 0.3 + 0.7j, 3 - 1j]
    for feval, family, params in cases:
        for n in (0, 1, 4, 9):
            coeffs = _exact_poly(family(n, params)).complex_coeffs()
            for _ in range(2):
                for x in xs:
                    assert _bits(feval(n, params, x)) == _bits(horner(coeffs, complex(x)))


def test_memo_does_not_store_errors():
    for _ in range(2):
        with pytest.raises(PoleError):
            jacobi_eval(2, JacobiParams(0.0, -3.0), 0.5)
        with pytest.raises(PoleError):
            jacobi_coeffs_exact(2, JacobiParams(0, -3))
        with pytest.raises(PoleError):
            chahn_coeffs_complex(3, HahnParams(GaussianRational(HALF, F(1, 3)), F(-7, 2),
                                               GaussianRational(HALF, F(-1, 3)), HALF))
        with pytest.raises(PoleError):
            pasternack_eval(3, F(-2), 0.5)


def test_memo_returns_fresh_coefficient_lists():
    for params in (HahnParams(HALF, F(2, 3), F(3, 4), F(4, 5)), HahnParams(0.5, 0.6, 0.7, 0.8)):
        first = chahn_coeffs_complex(4, params)
        want = list(first)
        first[0] = 99.0
        first.append(1.0)
        assert chahn_coeffs_complex(4, params) == want


def test_gram_makes_no_exact_build(monkeypatch):
    """The Gram's cut-off and rounding floor read coefficients from its own
    three-term recurrence: an 8 x 8 and then a 16 x 16 Gram on exact
    parameters build no exact polynomial and look nothing up in the memo."""
    from hahnlab import polynomials
    from hahnlab.orthogonality import chahn_gram
    built = []

    def counted(s):
        built.append(s.n)
        return _exact_poly(s)

    monkeypatch.setattr(polynomials, "_exact_poly", counted)
    _built.cache_clear()
    params = (F(1), HALF, F(3, 4), F(5, 4))
    chahn_gram(8, *params)
    chahn_gram(16, *params)
    assert built == []
    info = _built.cache_info()
    assert (info.hits, info.misses) == (0, 0)


# --- parameters settled once, built at their stored values, the per-call work -

_FLOAT_CASES = [
    (jacobi_eval, _jacobi_sum, JacobiParams(0.3, 0.7)),
    (jacobi_eval, _jacobi_sum, JacobiParams(0.3 + 0.2j, 0.7 - 0.1j)),
    (chahn_eval, _chahn_sum, HahnParams(0.5, 0.75, 0.625, 0.875)),
    (chahn_eval, _chahn_sum, HahnParams(0.5 + 0.25j, 0.75 - 0.25j, 0.5 - 0.25j, 0.75 + 0.25j)),
    (pasternack_eval, _pasternack_sum, 0.25),
    (pasternack_eval, _pasternack_sum, 0.25 - 0.5j),
]


def _dyadic(value):
    """The exact value a float or complex parameter stores."""
    if isinstance(value, complex):
        return GaussianRational(F(value.real), F(value.imag))
    return F(value)


_FLOAT_IDS = ["jacobi-float", "jacobi-complex", "chahn-float", "chahn-complex",
              "pasternack-float", "pasternack-complex"]


@pytest.mark.parametrize("feval, family, params", _FLOAT_CASES, ids=_FLOAT_IDS)
def test_float_values_are_the_plan_sum_bit_for_bit(feval, family, params):
    """Every float value, cold or warm, at int, float, Fraction and complex
    x, is to the last bit Horner's sum over the coefficients of the exact
    build at the dyadic rationals the parameters store, rounded once; the
    polynomial behind it is that exact build.  The reference is built
    outside the memo, where the float parameters and their equal dyadic
    ones are one key."""
    make = {jacobi_eval: JacobiParams, chahn_eval: HahnParams, pasternack_eval: lambda m: m}
    values = (tuple(getattr(params, name) for name in params._fields)
              if hasattr(params, "_fields") else (params,))
    dyadic = make[feval](*map(_dyadic, values))
    xs = [0, -3, 0.4, -2.5, F(1, 3), F(-7, 5), 0.3 + 0.7j, complex(-0.0, 3.0), 3 - 1j]
    _built.cache_clear()
    for n in range(13):
        poly = _exact_poly(family(n, dyadic))
        coeffs = poly.complex_coeffs()
        for _ in range(2):
            for x in xs:
                want = horner(coeffs, _to_complex(x))
                assert _bits(feval(n, params, x)) == _bits(want), (n, x)
        assert _built(family, n, params).poly == poly


@pytest.mark.parametrize("family, params", [case[1:] for case in _FLOAT_CASES], ids=_FLOAT_IDS)
def test_value_rounding_order_is_the_documented_running_sum(family, params):
    """A float value, bit for bit, is Horner's running value acc = acc*x + c
    from acc = 0 and the top coefficient down, over the build's coefficients
    rounded once.  The same complex operations on both sides, so fused
    multiply-add cannot split them; another order, such as summing the
    terms c_k x^k one by one, can."""
    feval = {_jacobi_sum: jacobi_eval, _chahn_sum: chahn_eval,
             _pasternack_sum: pasternack_eval}[family]
    xs = [0.4, -2.5, 0.3 + 0.7j, complex(-0.0, 3.0), 3 - 1j, 1.7 - 2.9j]
    for n in range(9):
        coeffs = _built(family, n, params).coeffs()
        assert len(coeffs) == n + 1 and all(type(c) is complex for c in coeffs)
        for x in map(complex, xs):
            acc = 0j
            for c in reversed(coeffs):
                acc = acc * x + c
            assert _bits(feval(n, params, x)) == _bits(acc), (n, x)


_PARAMS = [JacobiParams(F(1, 3), 2), JacobiParams(0.3, 0.7 + 0.1j),
           HahnParams(HALF, GaussianRational(HALF, 1), 1, F(3, 4)),
           HahnParams(0.5, 0.75, 0.625, 0.875j), HahnParams(1, 0.5, 1, 1)]


@pytest.mark.parametrize("params", _PARAMS, ids=["jacobi-exact", "jacobi-float", "chahn-exact",
                                                 "chahn-float", "chahn-mixed"])
def test_settled_parameters_survive_copies(params):
    """Pickling, copying and _replace keep equality, the hash (that of the
    field tuple, as on any tuple) and the exactness verdict, which is
    decided from the fields on each call."""
    values = tuple(getattr(params, name) for name in params._fields)
    exact = all(map(_is_exact, values))
    copies = [pickle.loads(pickle.dumps(params)), copy.copy(params), copy.deepcopy(params),
              params._replace()]
    for other in [params, *copies]:
        assert other == params and hash(other) == hash(values)
        assert other.is_exact() is exact
    first = params._fields[0]
    for value, verdict in ((0.5, False), (F(1, 2), exact)):
        other = params._replace(**{first: value})
        assert hash(other) == hash((value, *values[1:])) and other.is_exact() is verdict


@pytest.mark.parametrize("params", [HahnParams(1, 0.5, 1, 1), HahnParams(HALF, HALF, HALF, 0.5j),
                                    JacobiParams(1, 0.5), JacobiParams(0.5, F(1, 2))],
                         ids=["chahn-b", "chahn-d", "jacobi-delta", "jacobi-gamma"])
def test_mixed_parameter_tuples_are_not_exact(params):
    assert not params.is_exact()
    build = chahn_coeffs_exact if isinstance(params, HahnParams) else jacobi_coeffs_exact
    with pytest.raises(ExactInputError):
        build(3, params)


def _lookups(call) -> tuple:
    """call()'s value and the memo's (hits, misses) during it."""
    before = _built.cache_info()
    value = call()
    after = _built.cache_info()
    return value, (after.hits - before.hits, after.misses - before.misses)


@pytest.mark.parametrize("feval, params", [
    (jacobi_eval, JacobiParams(0.3 + 0.2j, 0.7 - 0.1j)),
    (chahn_eval, HahnParams(0.5 + 0.25j, 0.75 - 0.25j, 0.5 - 0.25j, 0.75 + 0.25j)),
    (pasternack_eval, 0.25 - 0.5j),
], ids=["jacobi", "chahn", "pasternack"])
def test_warm_float_call_settles_nothing_again(monkeypatch, feval, params):
    """A warm call decides no exactness (only the exact routines ask
    is_exact()) and converts no complex x; Pasternack's bare m is not tested
    for exactness either.  A call that repeats the previous call's family,
    parameter object and degree makes no memo lookup; one that follows
    another polynomial makes exactly one, a hit."""
    from hahnlab import polynomials
    calls = []

    def spy(fn):
        def counted(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return counted

    x = 0.3 + 0.7j
    want, other = feval(4, params, x), feval(3, params, x)
    monkeypatch.setattr(polynomials, "_is_exact", spy(_is_exact))
    monkeypatch.setattr(polynomials, "_to_complex", spy(_to_complex))
    for n, value, lookups in ((4, want, (1, 0)), (4, want, (0, 0)), (3, other, (1, 0))):
        assert _lookups(lambda: feval(n, params, x)) == (value, lookups), n
    assert calls == []


def test_warm_float_call_after_a_family_switch_makes_no_lookup_and_no_horner_call(monkeypatch):
    """An exact-only build rounds nothing; the first float call stores the
    n + 1 rounded coefficients highest degree first, the exact build's own
    complex_coeffs reversed, bit for bit.  Each family keeps its own record,
    so a warm float call that follows another family's makes no memo lookup
    and calls neither horner nor _Built.coeffs."""
    from hahnlab import polynomials
    params, x = HahnParams(HALF, F(3, 4), F(2, 3), 1), 0.3 + 0.7j
    _built.cache_clear()
    poly = chahn_coeffs_exact(5, params)
    entry = _built(_chahn_sum, 5, params)
    assert entry.rounded is None
    chahn_eval(5, params, x)
    assert len(entry.rounded) == 6 and all(type(c) is complex for c in entry.rounded)
    assert list(map(_bits, entry.rounded)) == list(map(_bits, reversed(poly.complex_coeffs())))

    calls = []

    def spy(fn):
        def counted(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return counted

    cases = [(chahn_eval, params), (jacobi_eval, JacobiParams(0.3, 0.7)),
             (pasternack_eval, 0.25 - 0.5j)]
    wants = [feval(4, p, x) for feval, p in cases]
    monkeypatch.setattr(polynomials, "horner", spy(horner))
    monkeypatch.setattr(polynomials._Built, "coeffs", spy(polynomials._Built.coeffs))
    for (feval, p), want in zip(cases, wants):
        before = _built.cache_info()
        assert feval(4, p, x) == want
        after = _built.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (0, 0)
    assert calls == []


@pytest.mark.parametrize("feval, make", [
    (chahn_eval, lambda: HahnParams(*(v / 8 for v in (5, 3, 7, 9)))),
    (jacobi_eval, lambda: JacobiParams(*(v / 10 for v in (3, 7)))),
], ids=["chahn", "jacobi"])
def test_warm_call_with_an_equal_parameter_object_runs_no_key_frame(feval, make):
    """The parameter records are tuples: the memo hashes and compares them
    in C, so a warm call with a freshly made equal object (fields equal, not
    the same objects) runs no Python frame but the public routine itself."""
    x = 0.3 + 0.7j
    want = feval(4, make(), x)
    params = make()
    frames = []

    def profile(frame, event, arg):
        if event == "call":
            frames.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        got = feval(4, params, x)
    finally:
        sys.setprofile(None)
    assert frames == [feval.__name__]
    assert _bits(got) == _bits(want)
    assert type(params).__hash__ is tuple.__hash__ and type(params).__eq__ is tuple.__eq__


def test_record_stores_no_error():
    """A parameter object with a non-finite field, and an object asked for
    above the cap right after a value at degree 4, raise on every call; the
    record still holds that degree-4 polynomial, so its next value makes no
    memo lookup."""
    x = 0.3 + 0.7j
    for feval, bad in ((jacobi_eval, JacobiParams(math.nan, 0.5)),
                       (chahn_eval, HahnParams(0.5, math.inf, 0.5, 0.5)),
                       (pasternack_eval, complex(0.25, math.nan))):
        for _ in range(2):
            with pytest.raises(DomainError, match="is not finite"):
                feval(4, bad, x)
    params = JacobiParams(0.3, 0.7)
    want = jacobi_eval(4, params, x)
    for _ in range(2):
        with pytest.raises(DomainError, match=rf"^n must be an int in 0\.\.{EXACT_DEGREE_CAP}, "):
            jacobi_eval(EXACT_DEGREE_CAP + 1, params, x)
    assert _lookups(lambda: jacobi_eval(4, params, x)) == (want, (0, 0))


def test_equal_new_parameter_record_goes_through_the_memo():
    """A record equal to the previous call's but not the same object is one
    memo hit, and gives the same bits."""
    x = 0.3 + 0.7j
    params = JacobiParams(0.3, 0.7)
    want = jacobi_eval(4, params, x)
    again = JacobiParams(0.3, 0.7)
    assert again is not params
    got, lookups = _lookups(lambda: jacobi_eval(4, again, x))
    assert lookups == (1, 0) and _bits(got) == _bits(want)


def test_new_parameter_record_sees_a_patched_build(monkeypatch):
    """With _exact_poly patched and the memo cleared, a new parameter record
    gets the patched build; the object of the call before still reads the
    record, which the memo's cache_clear does not reach."""
    from hahnlab import polynomials
    x = 0.3 + 0.7j
    params = JacobiParams(0.3, 0.7)
    want = jacobi_eval(4, params, x)
    monkeypatch.setattr(polynomials, "_exact_poly", lambda s: _exact_poly(s) * 2)
    _built.cache_clear()
    try:
        assert jacobi_eval(4, params, x) == want
        assert jacobi_eval(4, JacobiParams(0.3, 0.7), x) == 2 * want
    finally:
        _built.cache_clear()


# each (family, n) at 0.3 + 0.7j and 1.5 - 2.25j, as one memo lookup per value gave it
_INTERLEAVED_BITS = {
    ("jacobi", 4): [("0x1.10c8808999e3dp+2", "-0x1.31adc42f6f594p+2"),
                    ("-0x1.0a87877e9e1b1p+8", "0x1.335f1c989374cp+8")],
    ("jacobi", 5): [("0x1.44d4ebc8846b5p+3", "0x1.58bac2cd0a178p+2"),
                    ("0x1.2b00302b65300p+9", "0x1.e8445fe168404p+10")],
    ("chahn", 4): [("0x1.aa9683634ac08p+6", "-0x1.1bdf332d0624ep+6"),
                   ("-0x1.536d2f24b4000p+11", "0x1.2061ed3910000p+12")],
    ("chahn", 5): [("0x1.ce02b6fadb04ep+8", "0x1.2e8c9e2896937p+9"),
                   ("0x1.f0b310e461040p+14", "0x1.61df36af5e790p+15")],
    ("pasternack", 3): [("0x1.5d66a279fd73ep-3", "-0x1.45bf34d17f0b2p-3"),
                        ("0x1.d6e89d66dabc5p+0", "0x1.03cfddf347862p+2")],
    ("pasternack", 4): [("-0x1.400d17ada6055p-3", "0x1.2d63367ada470p-5"),
                        ("-0x1.ee4f78ad7ac9fp+1", "-0x1.658fc3444cb2ep+1")],
}


def test_interleaved_calls_on_fixed_objects_keep_the_bits():
    """Calls that switch family, degree or both on fixed parameter objects,
    each at two points (the second one from the record), give the bits of
    evaluation with one memo lookup per value."""
    fevals = {"jacobi": (jacobi_eval, JacobiParams(0.3 + 0.2j, 0.7 - 0.1j)),
              "chahn": (chahn_eval, HahnParams(0.5, 0.75 - 0.25j, 0.625, 0.875 + 0.25j)),
              "pasternack": (pasternack_eval, 0.25 - 0.5j)}
    sequence = [("jacobi", 4), ("chahn", 4), ("pasternack", 4), ("jacobi", 4), ("jacobi", 5),
                ("chahn", 5), ("chahn", 4), ("pasternack", 3), ("jacobi", 4), ("jacobi", 4)]
    for name, n in sequence:
        feval, params = fevals[name]
        got = [_bits(feval(n, params, x)) for x in (0.3 + 0.7j, 1.5 - 2.25j)]
        assert got == _INTERLEAVED_BITS[name, n], (name, n)


# one parameter object per family; each family's n = 1 coefficient of x is
# above 1 in modulus, so x = 1.5e308 overflows from n = 1 on
_RECORD_CASES = [(jacobi_eval, _jacobi_sum, JacobiParams(0.3 + 0.2j, 0.7 - 0.1j)),
                 (chahn_eval, _chahn_sum, HahnParams(0.5, 0.75, 0.625, 0.875)),
                 (pasternack_eval, _pasternack_sum, -0.5 + 0.25j)]
_RECORD_IDS = ["jacobi", "chahn", "pasternack"]


def _horner_from_zero(coeffs, x: complex) -> complex:
    """The running value acc = acc*x + c from acc = 0j, top coefficient down."""
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def test_warm_alternating_families_make_no_memo_lookup():
    """Each family keeps its own record, so once every family has evaluated
    its polynomial, calls that alternate between the three families make no
    memo lookup, and every value has the bits of the same call made alone."""
    xs = [0.4, -2.5, 0.3 + 0.7j, complex(-0.0, 3.0), 3 - 1j]
    alone = {}
    for feval, _, params in _RECORD_CASES:
        _built.cache_clear()
        for x in xs:
            alone[feval, x] = _bits(feval(4, params, x))
    for feval, _, params in _RECORD_CASES:
        feval(4, params, 0.5)
    for x in xs:
        for feval, _, params in _RECORD_CASES + _RECORD_CASES[::-1]:
            value, lookups = _lookups(lambda: feval(4, params, x))
            assert lookups == (0, 0) and _bits(value) == alone[feval, x], (feval.__name__, x)


def test_threads_on_one_family_read_whole_records():
    """Four threads share one family's record, each on its own degree or
    parameter object, with the interpreter switching threads as often as it
    can: every value has the bits of a single-threaded run, so no thread read
    one polynomial's degree with another's coefficients."""
    xs = [complex(k / 7, 1 - k / 5) for k in range(40)]
    jobs = [(4, JacobiParams(0.3, 0.7)), (5, JacobiParams(0.3, 0.7)),
            (4, JacobiParams(0.6, 0.2)), (5, JacobiParams(0.6, 0.2))]
    want = [[_bits(jacobi_eval(n, params, x)) for x in xs] for n, params in jobs]
    got = [[] for _ in jobs]

    def run(n, params, out):
        for _ in range(50):
            out.append([_bits(jacobi_eval(n, params, x)) for x in xs])

    threads = [threading.Thread(target=run, args=(*job, out)) for job, out in zip(jobs, got)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for runs, values in zip(got, want):
        assert runs == [values] * 50


@pytest.mark.parametrize("n", [0, 1, 4])
@pytest.mark.parametrize("feval, family, params", _RECORD_CASES, ids=_RECORD_IDS)
def test_leading_coefficient_start_keeps_every_bit_and_error(feval, family, params, n):
    """Horner starts from the leading coefficient, not from 0j: at signed
    zeros and exact x the value has the bits of the running value from 0j; a
    non-finite x raises DomainError at every degree, 0 included, where the
    value is the constant coefficient whatever x is; an overflow raises
    RangeOverflowError."""
    coeffs = _built(family, n, params).coeffs()
    for x in (0.0, -0.0, complex(-0.0, -0.0), complex(0.0, -0.0), F(1, 3), F(-7, 5),
              GaussianRational(F(-1, 3), F(2, 5))):
        assert _bits(feval(n, params, x)) == _bits(_horner_from_zero(coeffs, _to_complex(x)))
    for x in (math.inf, -math.inf, math.nan, complex(math.inf, 0), complex(0, math.nan)):
        with pytest.raises(DomainError) as caught:
            feval(n, params, x)
        assert str(caught.value) == f"x = {complex(x)} is not finite"
    if n:
        assert not cmath.isfinite(_horner_from_zero(coeffs, 1.5e308 + 0j))
        with pytest.raises(RangeOverflowError, match=rf"^degree {n} value at x = "):
            feval(n, params, 1.5e308)


@pytest.mark.parametrize("call, error, match", [
    (lambda: chahn_eval(EXACT_DEGREE_CAP, HahnParams(0.5, 0.5, 0.5, 0.5), 1e300 + 1j),
     RangeOverflowError, r"degree 64 value at x = \(1e\+300\+1j\) is not finite"),
    (lambda: jacobi_eval(EXACT_DEGREE_CAP, JacobiParams(0.5, 0.5), 1e200 + 1j),
     RangeOverflowError, r"degree 64 value at x = \(1e\+200\+1j\) is not finite"),
    (lambda: pasternack_eval(EXACT_DEGREE_CAP, 0.5, 1e300 + 1j),
     RangeOverflowError, r"degree 64 value at x = \(1e\+300\+1j\) is not finite"),
    (lambda: chahn_eval(200, HahnParams(HALF, HALF, HALF, HALF), 3 + 1j),
     DomainError, rf"^n must be an int in 0\.\.{EXACT_DEGREE_CAP}, got 200$"),
    (lambda: pasternack_eval(300, HALF, 40 + 1j),
     DomainError, rf"^n must be an int in 0\.\.{EXACT_DEGREE_CAP}, got 300$"),
], ids=["chahn", "jacobi", "pasternack", "chahn-exact-above-cap", "pasternack-exact-above-cap"])
def test_non_finite_values_raise(call, error, match):
    """A value that overflows to a non-finite one raises, naming the degree
    and x.  Above EXACT_DEGREE_CAP, where the float sum used to overflow
    (or, worse, stay finite and wrong), the call raises the integer gate's
    DomainError naming n and the cap before any value is formed."""
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("n", [0, 3])
@pytest.mark.parametrize("x", [math.nan, math.inf, complex(0.5, math.nan)],
                         ids=["nan", "inf", "complex-nan"])
def test_non_finite_x_raises_domain_error(x, n):
    """A non-finite x is a bad input, not an overflow: every family raises
    DomainError naming x, at degree 0 as at degree 3."""
    calls = [lambda: jacobi_eval(n, JacobiParams(0.5, 0.5), x),
             lambda: chahn_eval(n, HahnParams(0.5, 0.5, 0.5, 0.5), x),
             lambda: pasternack_eval(n, 0.25, x)]
    for call in calls:
        with pytest.raises(DomainError) as caught:
            call()
        assert str(caught.value) == f"x = {complex(x)} is not finite"


@pytest.mark.parametrize("call", [
    lambda: jacobi_eval(EXACT_DEGREE_CAP + 1, JacobiParams(0.3, 0.7), 0.4),
    lambda: chahn_eval(EXACT_DEGREE_CAP + 1, HahnParams(0.6, 0.7, 0.8, 0.9), 1.3),
    lambda: pasternack_eval(EXACT_DEGREE_CAP + 1, 0.25 - 0.5j, 0.4),
    lambda: jacobi_coeffs_complex(EXACT_DEGREE_CAP + 1, JacobiParams(F(3, 10), F(7, 10))),
    lambda: chahn_coeffs_complex(EXACT_DEGREE_CAP + 1, HahnParams(0.5, 0.5, 0.5, 0.5)),
    lambda: pasternack_coeffs_complex(EXACT_DEGREE_CAP + 1, 0.5),
], ids=["jacobi-eval", "chahn-eval", "pasternack-eval", "jacobi-coeffs", "chahn-coeffs",
        "pasternack-coeffs"])
def test_above_the_cap_every_route_raises(call):
    """Float and exact parameters alike: above EXACT_DEGREE_CAP values and
    coefficient vectors raise the integer gate's DomainError."""
    with pytest.raises(DomainError) as caught:
        call()
    assert str(caught.value) == \
        f"n must be an int in 0..{EXACT_DEGREE_CAP}, got {EXACT_DEGREE_CAP + 1}"


@pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.5, -math.inf),
                                   complex(math.nan, 0.0)])
def test_non_finite_parameters_raise(value):
    """A non-finite parameter stores no rational: DomainError, on every call."""
    for _ in range(2):
        with pytest.raises(DomainError, match="is not finite"):
            jacobi_eval(3, JacobiParams(value, 0.5), 0.4)
        with pytest.raises(DomainError, match="is not finite"):
            pasternack_coeffs_complex(3, value)


# --- float parameters against mpmath at 50 digits ------------------------------

def _mp_chahn(n: int, params: tuple, x: complex):
    """p_n(x) by its defining 3F2 at the doubles' exact values, 50 digits."""
    import mpmath
    with mpmath.workdps(50):
        a, b, c, d = map(mpmath.mpmathify, params)
        x = mpmath.mpmathify(x)
        scale = mpmath.mpc(0, 1) ** n * mpmath.rf(a + c, n) * mpmath.rf(a + d, n) \
            / mpmath.factorial(n)
        return complex(scale * mpmath.hyp3f2(-n, n + a + b + c + d - 1, a + 1j * x,
                                             a + c, a + d, 1))


def _mp_jacobi(n: int, params: tuple, x: complex):
    import mpmath
    with mpmath.workdps(50):
        return complex(mpmath.jacobi(n, *map(mpmath.mpmathify, params), mpmath.mpmathify(x)))


@pytest.mark.parametrize("n", [30, 64])
@pytest.mark.parametrize("feval, make, oracle, params, x, bound", [
    (chahn_eval, HahnParams, _mp_chahn, (0.6, 0.7, 0.8, 0.9), 1.3, 1e-12),
    (chahn_eval, HahnParams, _mp_chahn, (0.6, 0.7, 0.8, 0.9), 2 + 0.5j, 1e-12),
    (jacobi_eval, JacobiParams, _mp_jacobi, (0.3, 0.7), 0.4 + 0.3j, 1e-11),
], ids=["chahn-real-x", "chahn-complex-x", "jacobi"])
def test_float_parameters_against_mpmath(feval, make, oracle, params, x, bound, n):
    """Float parameters at n = 30 and 64: relative error within the bound.
    The float term-ratio loop this replaced was off by 1e5 (Hahn) and 1e-7
    (Jacobi) at n = 30, and by 9e30 and 2e5 at n = 64."""
    want = oracle(n, params, x)
    got = feval(n, make(*params), x)
    assert abs(got - want) <= bound * abs(want)




# --- removable poles: a lower parameter in {0, -1, ..., 1-n} -------------------

def _mp_at_pole(feval, n: int, params: tuple, moved: tuple, x: complex):
    """The defining sum with the parameters at the indices moved shifted by 1e-30,
    at 60 digits: its limit at a removable pole, to about 28 digits."""
    import mpmath
    with mpmath.workdps(60):
        def mp(v):
            if isinstance(v, GaussianRational):
                return mpmath.mpc(mp(v.re), mp(v.im))
            return mpmath.mpf(v.numerator) / v.denominator if isinstance(v, F) else \
                mpmath.mpmathify(v)
        values = [mp(v) for v in params]
        for j in moved:
            values[j] += mpmath.mpf("1e-30")
        return (_mp_jacobi if feval is jacobi_eval else _mp_chahn)(n, values, x)


def _pole_cases(kind: str):
    """(feval, params, indices of the parameters to move) for every n <= 8 and
    every pole l of a lower parameter: gamma+1 = l, a+c = l, a+d = l and both."""
    i = GaussianRational(0, 1)
    delta, (a, b, d) = ((F(2, 5), (HALF, F(2, 5), F(3, 4))) if kind != "complex" else
                        (F(2, 5) + i / 3, (HALF + i / 3, F(2, 5) + i / 4, F(3, 4) - i / 5)))
    for n in range(1, 9):
        for pole in range(1 - n, 1):
            c = pole - a
            for feval, params, moved in (
                    (jacobi_eval, JacobiParams(pole - 1, delta), (0,)),
                    (chahn_eval, HahnParams(a, b, c, d), (2,)),
                    (chahn_eval, HahnParams(a, b, d, c), (3,)),
                    (chahn_eval, HahnParams(a, b, c, c), (2, 3))):
                if kind == "float":
                    params = type(params)(*map(float, params))
                yield n, feval, params, moved


@pytest.mark.parametrize("kind", ["real", "complex", "float"])
def test_removable_poles_against_mpmath(kind):
    """Jacobi and continuous Hahn build through the memo at every lower parameter
    in {0, -1, ..., 1-n}, n <= 8.  Each build, evaluated exactly at three real x
    and one complex x (their doubles), is within 1e-12 relative of mpmath's limit
    there, and so is the float evaluator at the x away from 1, where P_n^(-n, delta)
    = c ((x-1)/2)^n cancels in Horner on the rounded coefficients (ROADMAP's float
    defect)."""
    for n, feval, params, moved in _pole_cases(kind):
        family = _jacobi_sum if feval is jacobi_eval else _chahn_sum
        poly = _lookup(family, n, params).poly
        for x in (0.3, -0.45, 0.8, 0.2 + 0.35j):
            want = _mp_at_pole(feval, n, params, moved, x)
            got = complex(poly(GaussianRational(F(x.real), F(x.imag))))
            assert abs(got - want) <= 1e-12 * abs(want), (n, params, x, got, want)
            if x != 0.8:
                got = feval(n, params, x)
                assert abs(got - want) <= 1e-12 * abs(want), (n, params, x, got, want)
