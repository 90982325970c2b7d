"""Fourier / Mellin / Parseval pair verifications."""

import cmath
import math
from fractions import Fraction

import mpmath
import pytest

from hahnlab import quadrature
from hahnlab.errors import DomainError
from hahnlab.exact import GaussianRational
from hahnlab.numerics import beta as beta_fn
from hahnlab.orthogonality import _sech_integral
from hahnlab.polynomials import HahnParams, chahn_eval, horner_level
from hahnlab.quadrature import _EPS, IntegralResult
from hahnlab.transforms import (fourier_pair_check, mellin_pair_check,
                                parseval_check, tanh_weight_logs,
                                _hahn_of_jacobi, _parseval_right,
                                _weighted_jacobi_transform)

F = Fraction
HALF = F(1, 2)


def _transform(n, alpha, beta, gamma, delta, z):
    """The quadrature side of one Fourier row: a group of one case."""
    [res] = _weighted_jacobi_transform(alpha, beta, [(n, gamma, delta, z)])
    return res


def test_tanh_weight_logs_match_naive():
    for x in (-3.0, -0.5, 0.0, 0.7, 4.0):
        l1, l2 = tanh_weight_logs(x)
        assert abs(l1 - math.log(1 - math.tanh(x))) < 1e-13
        assert abs(l2 - math.log(1 + math.tanh(x))) < 1e-13


def test_tanh_weight_no_underflow_far_out():
    l1, l2 = tanh_weight_logs(300.0)
    w = cmath.exp(0.5 * l1 + 0.5 * l2)
    assert w.real > 0.0 and math.isfinite(w.real)


def test_fourier_n0_z0_is_beta_value():
    # both sides reduce to 2^{alpha+beta-1} B(alpha, beta)
    for al, be in ((HALF, HALF), (F(3, 5), F(11, 10))):
        r = fourier_pair_check(0, al, be, 0, 0, 0.0)
        assert r.passed
        lhs = _transform(0, al, be, 0, 0, 0.0).value
        expected = 2.0 ** (float(al + be) - 1) * beta_fn(float(al), float(be))
        assert abs(lhs - expected) <= 1e-10 * abs(expected)


def test_fourier_n0_sech_self_reciprocity():
    # alpha = beta = 1/2: int e^{-ixz} sech x dx = pi sech(pi z / 2)
    for z in (0.0, 0.8, 2.0):
        lhs = _transform(0, HALF, HALF, 0, 0, z).value
        expected = math.pi / math.cosh(math.pi * z / 2.0)
        assert abs(lhs - expected) <= 1e-10 * expected
        assert fourier_pair_check(0, HALF, HALF, 0, 0, z).passed


def test_fourier_degree_one_grid():
    for z in (0.0, 1.0, 2.0):
        r = fourier_pair_check(1, HALF, HALF, 0, 0, z)
        # z = 0 makes the closed form exactly zero (odd integrand); the
        # relative error is then taken against the |f| mass
        assert r.passed
        assert r.max_rel_err <= 1e-8 or r.max_abs_err <= 1e-12


@pytest.mark.parametrize("n", [1, 3])
def test_fourier_zero_of_closed_form_judged_by_mass(monkeypatch, n):
    """Odd n at z = 0 with symmetric parameters: the closed form vanishes.
    One nudged by 1e-16 is still right to rounding; against |rhs| alone its
    relative error would read about 1, against the |f| mass it is tiny.  The
    mass scales that figure only: the row passes on the default tol_abs."""
    from hahnlab import transforms

    exact = transforms._fourier_closed_form
    assert exact(n, HALF, HALF, 0, 0, 0.0) == 0.0
    monkeypatch.setattr(transforms, "_fourier_closed_form",
                        lambda *args: exact(*args) + 1e-16)
    r = fourier_pair_check(n, HALF, HALF, 0, 0, 0.0, tol_abs=0.0)
    assert r.max_rel_err <= 1e-15
    assert fourier_pair_check(n, HALF, HALF, 0, 0, 0.0).passed


@pytest.mark.parametrize("check", [fourier_pair_check, mellin_pair_check],
                         ids=["fourier", "mellin"])
def test_vanishing_transform_passes_on_tol_abs_alone(monkeypatch, check):
    """Odd n at z = lambda = 0 with symmetric parameters: a quadrature side
    of 1e-9 over a mass of 1 is 1e-9 relative, inside the relative tolerance
    1e-8, but a thousand times tol_abs: it must fail."""
    from hahnlab import transforms
    monkeypatch.setattr(transforms, "_weighted_jacobi_transform",
                        lambda *a, **k: [IntegralResult(1e-9, 0.0, 1, 1.0)])
    r = check(1, HALF, HALF, 0, 0, 0.0)
    assert r.max_rel_err == pytest.approx(1e-9)
    assert not r.passed


@pytest.mark.parametrize("params", [(HALF, HALF, 0, 0), (F(3, 5), F(11, 10), F(1, 4), F(4, 5))])
def test_fourier_relative_error_is_against_the_closed_form(params):
    """Where the closed form does not vanish, the relative error is taken
    against |rhs| alone, however small |rhs| is beside the |f| mass: at
    n = 0, z = 12 the closed form is about 4e-8 of the mass."""
    from hahnlab import transforms

    rhs = transforms._fourier_closed_form(0, *params, 12.0)
    lhs = _transform(0, *params, 12.0)
    assert abs(rhs) < 1e-6 * lhs.mass
    r = fourier_pair_check(0, *params, 12.0)
    assert r.max_abs_err == abs(lhs.value - rhs)
    assert r.max_rel_err == r.max_abs_err / abs(rhs)


def test_fourier_complex_conjugate_parameters():
    al = complex(0.5, 0.25)
    r = fourier_pair_check(2, al, al.conjugate(), F(1, 4), F(1, 4), 1.0)
    assert r.passed


def test_fourier_rejects_bad_weight():
    with pytest.raises(DomainError):
        fourier_pair_check(1, -0.5, 0.5, 0, 0, 1.0)


@pytest.mark.parametrize("check, args, named", [
    (fourier_pair_check, (1, math.nan, 0.5, 0, 0, 1.0), "alpha"),
    (fourier_pair_check, (1, 0.5, complex(0.5, math.inf), 0, 0, 1.0), "beta"),
    (fourier_pair_check, (1, 0.5, 0.5, 0, 0, math.nan), "z"),
    (fourier_pair_check, (1, 0.5, 0.5, 0, 0, math.inf), "z"),
    (fourier_pair_check, (1, 0.5, 0.5, 0, 0, complex(0.5, math.nan)), "z"),
    (mellin_pair_check, (1, 0.5, 0.5, 0, 0, math.nan), "lambda"),
    (mellin_pair_check, (1, 0.5, 0.5, 0, 0, -math.inf), "lambda"),
    (parseval_check, (1, 1, 0.5, 0.5, math.nan, 0.5, 0, 0, 0, 0), "a"),
], ids=["fourier-alpha", "fourier-beta", "fourier-z-nan", "fourier-z-inf", "fourier-z-complex",
        "mellin-nan", "mellin-inf", "parseval-a"])
def test_non_finite_inputs_raise_a_domain_error_naming_them(check, args, named):
    """Checked before any quadrature: a NaN otherwise read as an envelope
    that never decays or a grid over the node budget, and an infinite z as
    a zero trapezoid step."""
    with pytest.raises(DomainError, match=rf"^{named} must be finite"):
        check(*args)


def test_complex_frequencies_stay_accepted():
    """Inside the strip a complex z (or lambda) is a valid input: the finite
    checks take complex values."""
    assert fourier_pair_check(1, HALF, HALF, 0, 0, 1 + 0.2j).passed
    assert mellin_pair_check(1, HALF, HALF, 0, 0, 0.1j).passed


@pytest.mark.parametrize("check, args, exact, value", [
    (fourier_pair_check, (1, 1, HALF, 0, 0), GaussianRational(F(1, 3)), 1 / 3),
    (fourier_pair_check, (2, HALF, F(3, 4), F(1, 3), 0), GaussianRational(F(-7, 3), F(1, 9)),
     complex(-7 / 3, 1 / 9)),
    (mellin_pair_check, (1, F(3, 4), HALF, F(1, 3), 0), GaussianRational(F(1, 3)), 1 / 3),
    (mellin_pair_check, (1, F(3, 4), HALF, F(1, 3), 0), GaussianRational(F(-1, 4), F(1, 8)),
     complex(-0.25, 0.125)),
], ids=["fourier-real", "fourier-complex", "mellin-real", "mellin-complex"])
def test_exact_frequencies_compute_with_their_double(check, args, exact, value):
    """A Gaussian rational z (or lambda) is computed with as the double it
    rounds to: the report is the one of that double but for its name, which
    prints the value as passed."""
    got, want = check(*args, exact), check(*args, value)
    assert got.passed and got.name.endswith(f"={exact}]")
    assert got._replace(name=want.name) == want


def test_fourier_linearity():
    """Transform of a sum of two weighted Jacobi terms is the sum of
    transforms."""
    al, be, z = F(3, 5), F(11, 10), 1.3
    t2 = _transform(2, al, be, F(1, 4), F(4, 5), z).value
    t5 = _transform(5, al, be, F(1, 4), F(4, 5), z).value

    from hahnlab.polynomials import JacobiParams, horner, jacobi_coeffs_complex
    c2 = jacobi_coeffs_complex(2, JacobiParams(F(1, 4), F(4, 5)))
    c5 = jacobi_coeffs_complex(5, JacobiParams(F(1, 4), F(4, 5)))
    alc, bec = float(al), float(be)

    def f(x):
        x = float(x)
        l1, l2 = tanh_weight_logs(x)
        t = math.tanh(x)
        return cmath.exp(-1j * z * x + alc * l1 + bec * l2) \
            * (horner(c2, t) + horner(c5, t))

    # the independent route: mpmath's quadrature of the summed integrand
    combined = complex(mpmath.quad(f, [-mpmath.inf, 0, mpmath.inf]))
    assert abs(combined - (t2 + t5)) <= 1e-10 * max(1.0, abs(t2 + t5))


def test_mellin_n0_lambda0_beta_value():
    r = mellin_pair_check(0, HALF, HALF, 0, 0, 0.0)
    assert r.passed
    lhs = 2.0 ** (1 - 1.0) * _transform(0, HALF, HALF, 0, 0, 0.0).value
    assert abs(lhs - math.pi) <= 1e-9 * math.pi  # B(1/2, 1/2) = pi


def test_mellin_sign_convention_finding():
    r = mellin_pair_check(2, F(3, 5), F(11, 10), F(1, 4), F(4, 5), 0.7)
    assert r.passed
    assert "Gamma(beta + i*lambda) convention matches" in r.details


def test_mellin_fails_when_only_quoted_form_matches(monkeypatch):
    """A quadrature side that equals the quoted Gamma(beta - i*lambda) form
    must fail the check, whose criterion is the substitution-consistent form."""
    from hahnlab import transforms
    from hahnlab.numerics import gamma_product
    from hahnlab.quadrature import IntegralResult

    n, al, be, ga, de, lam = 2, 0.6, 1.1, 0.25, 0.8, 0.7
    hp = HahnParams(al, de - be + 1, ga - al + 1, be)
    quoted = gamma_product([al - 1j * lam, be - 1j * lam], [al + be + n]) \
        * (-1j) ** n * chahn_eval(n, hp, -lam)
    scale = cmath.exp((1 - al - be) * math.log(2.0))
    monkeypatch.setattr(transforms, "_weighted_jacobi_transform",
                        lambda *args: [IntegralResult(quoted / scale, 0.0, 0)])
    r = mellin_pair_check(n, al, be, ga, de, lam)
    assert not r.passed
    assert "convention does not match" in r.details


def test_mellin_lambda0_degenerate():
    r = mellin_pair_check(1, F(3, 5), F(11, 10), F(1, 4), F(4, 5), 0.0)
    assert r.passed
    assert "coincide" in r.details


_MELLIN_ZEROS = [(3, 0.6, 0.6, 0.3, 0.3), (1, 0.6, 0.6, 0.3, 0.3),
                 (3, F(3, 5), F(3, 5), F(1, 4), F(1, 4)),
                 (1, HALF, HALF, F(1, 3), F(1, 3)), (3, HALF, HALF, F(1, 3), F(1, 3))]


@pytest.mark.parametrize("args", _MELLIN_ZEROS)
def test_mellin_zero_of_closed_form_reports_error_against_mass(args):
    """Odd n at lambda = 0 with alpha = beta and gamma = delta: the closed
    form is 0 up to rounding, against which the relative error read 1.0,
    and 1.5e285 for the first case."""
    r = mellin_pair_check(*args, 0.0)
    assert r.passed and r.max_rel_err <= 1e-13


def test_mellin_zero_case_passes_on_tol_abs_alone():
    """The polynomials are built exactly, float parameters at the values
    they store, so the odd P_n and p_n have exactly zero even coefficients:
    p_n(0) is 0 and the quadrature's terms cancel in pairs.  Every zero
    case reports an error of exactly 0 and passes at tol_abs = 1e-20."""
    for args in _MELLIN_ZEROS:
        r = mellin_pair_check(*args, 0.0, tol_abs=1e-20)
        assert (r.max_abs_err, r.max_rel_err) == (0.0, 0.0), args
        assert r.passed


def test_parseval_all_halves_frozen_value():
    # both sides equal 4 pi: left is 2 pi int sech^2 = 4 pi; right is
    # int (pi / cosh(pi z / 2))^2 dz = 4 pi
    r = parseval_check(0, 0, HALF, HALF, HALF, HALF, 0, 0, 0, 0)
    assert r.passed
    lhs = 2.0 * math.pi * 2.0
    assert abs(lhs - 4.0 * math.pi) == 0.0


def test_parseval_general_parameters():
    r = parseval_check(2, 1, F(3, 4), HALF, F(1, 4), 1, F(1, 3), F(2, 5),
                       F(1, 5), F(3, 5))
    assert r.passed and r.max_rel_err <= 1e-8


def test_parseval_orthogonality_specialization_zero():
    # gamma = c = alpha + a - 1, delta = d = beta + b - 1 and n != m:
    # the left side is a Jacobi orthogonality integral, hence zero
    r = parseval_check(2, 1, F(3, 4), HALF, F(3, 4), 1, HALF, HALF, HALF, HALF)
    assert r.passed
    assert r.max_abs_err <= 1e-10


def test_parseval_pasternack_specialization_zero():
    # alpha = beta = (1+m)/2, a = b = (1-m)/2, gamma = c = delta = d = 0
    m = F(1, 3)
    al = (1 + m) / 2
    av = (1 - m) / 2
    r = parseval_check(3, 1, al, al, av, av, 0, 0, 0, 0)
    assert r.passed
    assert r.max_abs_err <= 1e-10


# --- the tanh and four-gamma integrals on the nested trapezoid ------------------

def _mp_fourier(n, al, be, ga, de, z):
    """int e^{-ixz} (1 - tanh x)^al (1 + tanh x)^be P_n^(ga, de)(tanh x) dx
    in mpmath: Gauss-Legendre on unit-spaced panels of [-36, 36]."""
    with mpmath.workdps(18):
        al, be, ga, de = (mpmath.mpmathify(complex(v)) for v in (al, be, ga, de))

        def f(x):
            lo, hi = 2 / (1 + mpmath.exp(2 * x)), 2 / (1 + mpmath.exp(-2 * x))
            return mpmath.expj(-z * x) * lo ** al * hi ** be \
                * mpmath.jacobi(n, ga, de, mpmath.tanh(x))
        return complex(mpmath.quad(f, mpmath.linspace(-36, 36, 37),
                                   method="gauss-legendre"))


@pytest.mark.parametrize("n, params", [
    (3, (F(3, 5), F(11, 10), F(1, 4), F(4, 5))),
    (2, (complex(0.5, 0.25), complex(0.5, -0.25), F(1, 4), F(1, 4))),
])
def test_fourier_integral_at_z5_against_mpmath(n, params):
    res = _transform(n, *params, 5.0)
    want = _mp_fourier(n, *params, 5.0)
    assert abs(res.value - want) <= 1e-13 * max(abs(want), 1.0)


def _mp_fourier_closed_form(n, al, be, ga, de, z):
    """2^{al+be-1} Gamma(al+iz/2) Gamma(be-iz/2) / Gamma(al+be+n) i^{-n}
    p_n(z/2) for Fraction parameters, in 40-digit mpmath."""
    with mpmath.workdps(40):
        a, b, c, d = (mpmath.mpf(v.numerator) / v.denominator
                      for v in _hahn_of_jacobi(al, be, ga, de))
        x = mpmath.mpc(z) / 2
        # _hahn_of_jacobi's a and d are alpha and beta
        return complex(2 ** (a + d - 1) * mpmath.gamma(a + 1j * x) * mpmath.gamma(d - 1j * x)
                       / mpmath.gamma(a + d + n) * (-1j) ** n * _mp_chahn(n, a, b, c, d, x))


@pytest.mark.parametrize("z", [0.5j, 0.7j, -1.2j, 0.9j], ids=["0.5j", "0.7j", "-1.2j", "0.9j"])
def test_complex_frequency_against_mpmath(z):
    """|e^{-ixz}| = e^{x Im z}: a cut-off that leaves it out stops too early.
    At 0.5j the value was off by 6.4e-9 relative with an estimate of 1.4e-13,
    and 0.7j, -1.2j and 0.9j ran out of nodes.  Inside the strip
    -2 Re beta < Im z < 2 Re alpha = 1 the value is within 1e-13 of the
    closed form, relative, and so is the Mellin pair's at lambda = -z / 2."""
    args = (HALF, F(3, 4), F(1, 3), F(1, 4))
    res = _transform(2, *args, z)
    want = _mp_fourier_closed_form(2, *args, z)
    assert abs(res.value - want) <= 1e-13 * abs(want)
    assert fourier_pair_check(2, *args, z).passed
    assert mellin_pair_check(2, *args, -0.5 * z).max_rel_err <= 1e-13


def test_fourier_group_evaluates_each_polynomial_once_per_level(monkeypatch):
    """Nine Fourier rows on one weight, n in (0, 1, 3) and z in (0, 1, 5):
    one pass, and per level one Horner sweep per distinct polynomial
    (P_0 is the constant 1 the transform multiplies by); each value is its
    row's lone integral to within that row's estimate."""
    from hahnlab import transforms
    al, be, ga, de = F(3, 5), F(11, 10), F(1, 4), F(4, 5)
    cases = [(n, ga, de, z) for n in (0, 1, 3) for z in (0.0, 1.0, 5.0)]
    swept = []  # the node lists, kept alive so that their ids stay distinct

    def recorder(coeffs, xs):
        swept.append(xs)
        return horner_level(coeffs, xs)

    monkeypatch.setattr(quadrature, "horner_level", recorder)
    group = _weighted_jacobi_transform(al, be, cases)
    assert {sum(x is xs for x in swept) for xs in swept} == {3}
    assert len({res.evaluations for res in group}) == 1
    monkeypatch.undo()
    for (n, ga, de, z), res in zip(cases, group):
        alone = _transform(n, al, be, ga, de, z)
        assert res.evaluations >= alone.evaluations
        assert abs(res.value - alone.value) <= alone.error_estimate


def test_fourier_estimate_covers_one_more_halving(monkeypatch):
    """The row's estimate (the predicted tail, floored at the rounding of
    the |f| mass) bounds how far one forced extra halving moves the value."""
    seen, driver = [], quadrature.integrate_line

    def spy(f, *args):
        res = driver(f, *args)
        seen.append((f, args, res))
        return res

    monkeypatch.setattr(quadrature, "integrate_line", spy)
    report = fourier_pair_check(1, F(3, 5), F(11, 10), F(1, 4), F(4, 5), 5.0)
    assert report.passed
    [(f, (_, _, _, signs), res)] = seen
    assert signs is None  # no reflection symmetry: the even part takes both signs
    h = 0.5 * res.step
    zs = [k * h for k in range(1, int(res.radius / h) + 1, 2)]
    after = 0.5 * res.values[0] + h * (f(zs)[0] + f([-z for z in zs])[0])
    assert abs(after - res.values[0]) <= report.quad_diagnostics.estimated_error


def _mp_chahn(n, a, b, c, d, x):
    return (1j ** n * mpmath.rf(a + c, n) * mpmath.rf(a + d, n) / mpmath.factorial(n)
            * mpmath.hyp3f2(-n, n + a + b + c + d - 1, a + 1j * x, a + c, a + d, 1))


def _mp_parseval_right(n, m, al, be, av, bv, ga, de, cv, dv):
    with mpmath.workdps(18):
        al, be, av, bv, ga, de, cv, dv = (mpmath.mpc(complex(v))
                                          for v in (al, be, av, bv, ga, de, cv, dv))
        cj = mpmath.conj
        norm = mpmath.gamma(al + be + n) * mpmath.gamma(av + bv + m)

        def f(z):
            x = z / 2
            w = mpmath.gamma(al + 1j * x) * mpmath.gamma(be - 1j * x) \
                * mpmath.gamma(av - 1j * x) * mpmath.gamma(bv + 1j * x)
            p = _mp_chahn(n, al, de - be + 1, ga - al + 1, be, x)
            q = _mp_chahn(m, cj(av), cj(dv) - cj(bv) + 1, cj(cv) - cj(av) + 1, cj(bv), x)
            return w * p * cj(q) / norm
        return complex(mpmath.quad(f, mpmath.linspace(-30, 30, 31),
                                   method="gauss-legendre"))


PARSEVAL_REAL = (2, 1, 0.75, 0.5, 0.25, 1.0, 1 / 3, 0.4, 0.2, 0.6)
PARSEVAL_COMPLEX = (2, 1, complex(0.5, 0.25), complex(0.75, -0.25), complex(0.5, -0.25),
                    complex(0.75, 0.25), complex(0.3, 0.2), 0.4, 0.2, complex(0.6, -0.1))


@pytest.mark.parametrize("args", [PARSEVAL_REAL, PARSEVAL_COMPLEX],
                         ids=["real-folded", "complex-both-sides"])
def test_parseval_right_integral_against_mpmath(args):
    res = _parseval_right(*args[:2], *map(complex, args[2:]))
    want = _mp_parseval_right(*args)
    assert abs(res.value - want) <= 1e-13 * max(abs(want), 1.0)


_ENVELOPE_CASES = {
    "sech-m0": lambda: _sech_integral([(3, 3), (4, 2)], 0, 0, 2.0),
    "sech-m1/3": lambda: _sech_integral([(2, 2), (4, 1)], F(1, 3), F(-1, 3), 1.0),
    "sech-mi/2": lambda: _sech_integral([(2, 2), (3, 1)], 0.5j, 0.5j, 1.0),
    "tanh-real-z": lambda: _weighted_jacobi_transform(
        F(3, 5), F(11, 10), [(3, F(1, 4), F(4, 5), 5.0), (1, F(1, 4), F(4, 5), 0.0)]),
    "tanh-complex-z": lambda: _weighted_jacobi_transform(
        HALF, F(3, 4), [(2, F(1, 3), F(1, 4), 0.5j), (1, F(1, 3), F(1, 4), -0.5j)]),
    "parseval-real-folded": lambda: _parseval_right(
        *PARSEVAL_REAL[:2], *map(complex, PARSEVAL_REAL[2:])),
    "parseval-complex-both-sides": lambda: _parseval_right(
        *PARSEVAL_COMPLEX[:2], *map(complex, PARSEVAL_COMPLEX[2:])),
}


@pytest.mark.parametrize("case", _ENVELOPE_CASES)
def test_envelope_bounds_both_tails(monkeypatch, case):
    """The envelope each pass hands integrate_line is at least every |F_k|
    at x and at -x, from the scan's start 2 to 8 past the cut-off, for the
    three weights of _line_integral: sech (real, folded, and complex m),
    tanh (a real and a complex frequency, whose |e^{-ixz}| = e^{x Im z}
    grows on one side) and the four-gamma weight of Parseval (real,
    folded, and complex, where |w(-z/2)| != |w(z/2)|)."""
    seen, driver = [], quadrature.integrate_line

    def spy(f, envelope, *rest):
        res = driver(f, envelope, *rest)
        seen.append((f, envelope, res.radius))
        return res

    monkeypatch.setattr(quadrature, "integrate_line", spy)
    _ENVELOPE_CASES[case]()
    [(f, envelope, radius)] = seen
    for x in (2.0 + 0.5 * k for k in range(int(2 * (radius + 6.0)) + 1)):
        for z in (x, -x):
            sums = f([z])  # one node: each F_k(z), then each |F_k(z)|
            assert envelope(z) >= max(sums[len(sums) // 2:]), z


def test_parseval_zero_case_reports_error_against_mass():
    # both sides are about 1e-17: against max(|lhs|, |rhs|) the relative
    # error read 1.1
    r = parseval_check(2, 1, F(3, 4), HALF, F(3, 4), 1, *(HALF,) * 4)
    assert r.passed and r.max_rel_err <= 1e-13


def test_parseval_zero_case_passes_on_tol_abs_alone(monkeypatch):
    """A left side of 1e-9 over a mass of about 1 is inside the relative
    tolerance but ten times tol_abs: the check must fail."""
    from hahnlab import transforms
    monkeypatch.setattr(transforms, "_tanh_product_integral",
                        lambda *a, **k: [IntegralResult(1e-9 / (2 * math.pi), 0.0, 1,
                                                        1.0 / (2 * math.pi))])
    r = parseval_check(2, 1, F(3, 4), HALF, F(3, 4), 1, *(HALF,) * 4)
    assert r.max_rel_err <= 1e-8 and r.max_abs_err >= 1e-9 * (1 - 1e-6)
    assert not r.passed


def _fold(mode):
    """integrate_line without its reflection fold ("none") or with
    v - conj v where v + conj v belongs ("mutated")."""
    real = quadrature.integrate_line

    def run(f, envelope, strip, tolerances, signs=None):
        if signs is not None:
            signs = None if mode == "none" else [-1 if s == 1 else s for s in signs]
        return real(f, envelope, strip, tolerances, signs)
    return run


@pytest.mark.parametrize("n, m", [(2, 1), (2, 2), (0, 0)])
def test_parseval_fold_agrees_with_both_sides(monkeypatch, n, m):
    args = (n, m, *map(complex, PARSEVAL_REAL[2:]))
    folded = _parseval_right(*args)
    monkeypatch.setattr(quadrature, "integrate_line", _fold("none"))
    both = _parseval_right(*args)
    assert abs(folded.value - both.value) <= 8 * _EPS * folded.mass
    assert folded.evaluations == both.evaluations


def test_parseval_mutated_fold_sign_fails(monkeypatch):
    args = (0, 0, *(HALF,) * 4, 0, 0, 0, 0)
    assert parseval_check(*args).passed
    monkeypatch.setattr(quadrature, "integrate_line", _fold("mutated"))
    assert not parseval_check(*args).passed


def test_exact_parameters_reach_the_builders_exact(monkeypatch):
    """The transform and orthogonality checks hand the caller's exact
    parameters to the polynomial builders: no float reaches a build, so
    1/3 is built as 1/3 and not as the double nearest it."""
    from hahnlab import polynomials
    from hahnlab.orthogonality import (jacobi_ortho_check, pasternack_biortho_check,
                                       pasternack_ortho_check)
    stored = []

    def spy(value):
        stored.append(value)
        return real_stored(value)

    real_stored = polynomials._stored
    monkeypatch.setattr(polynomials, "_stored", spy)
    polynomials._built.cache_clear()
    assert fourier_pair_check(3, HALF, F(3, 4), F(1, 3), F(1, 5), 1.0).passed
    assert mellin_pair_check(2, F(3, 5), F(11, 10), F(1, 4), F(4, 5), 0.7).passed
    assert parseval_check(2, 1, F(3, 4), HALF, F(1, 4), 1, F(1, 3), F(2, 5),
                          F(1, 5), F(3, 5)).passed
    assert jacobi_ortho_check(3, 1, F(1, 3), F(3, 4)).passed
    assert pasternack_ortho_check(2, 1, F(1, 3)).passed
    assert pasternack_biortho_check(2, 1, F(1, 3)).passed
    assert stored and not any(isinstance(v, (float, complex)) for v in stored)


@pytest.mark.parametrize("mixed, exact", [
    ((F(1, 3), 0.5, 0, 0), (F(1, 3), HALF, 0, 0)),  # (1/3, 1/2, 2/3, 1/2)
    ((0.1, 0.2 + 0.5j, F(1, 3), 0.7), (F(0.1), GaussianRational(F(0.2), HALF), F(1, 3), F(0.7))),
], ids=["fraction-and-float", "float-complex-fraction"])
def test_hahn_of_jacobi_shifts_exactly(mixed, exact):
    """The Fourier pair's continuous Hahn tuple is formed at the exact value
    each parameter stores: 1/3 with 0.5 gives the shift 2/3, so the mixed
    tuple is the exact one, with the same chahn_eval values and the same
    fourier report."""
    hp = _hahn_of_jacobi(*mixed)
    assert hp == _hahn_of_jacobi(*exact)
    for n in (1, 4, 9):
        for x in (0.3, -1.25, 2.0 + 0.5j):
            got, want = chahn_eval(n, hp, x), chahn_eval(n, _hahn_of_jacobi(*exact), x)
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
    assert fourier_pair_check(3, *mixed, 1.0).to_dict() == \
        fourier_pair_check(3, *exact, 1.0).to_dict()
