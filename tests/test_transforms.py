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
from hahnlab.polynomials import HahnParams, chahn_eval
from hahnlab.quadrature import _EPS, IntegralResult
from hahnlab.transforms import (fourier_pair_check, mellin_pair_check,
                                parseval_check, tanh_weight_logs,
                                _hahn_of_jacobi, _parseval_right,
                                _weighted_jacobi_transform)

F = Fraction
HALF = F(1, 2)


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
        lhs = _weighted_jacobi_transform(0, al, be, 0, 0, 0.0).value
        expected = 2.0 ** (float(al + be) - 1) * beta_fn(float(al), float(be))
        assert abs(lhs - expected) <= 1e-10 * abs(expected)


def test_fourier_n0_sech_self_reciprocity():
    # alpha = beta = 1/2: int e^{-ixz} sech x dx = pi sech(pi z / 2)
    for z in (0.0, 0.8, 2.0):
        lhs = _weighted_jacobi_transform(0, HALF, HALF, 0, 0, z).value
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
    relative error would read about 1, against the |f| mass it is tiny."""
    from hahnlab import transforms

    exact = transforms._fourier_closed_form
    assert exact(n, HALF, HALF, 0, 0, 0.0) == 0.0
    monkeypatch.setattr(transforms, "_fourier_closed_form",
                        lambda *args: exact(*args) + 1e-16)
    r = fourier_pair_check(n, HALF, HALF, 0, 0, 0.0, tol_abs=0.0)
    assert r.passed and r.max_rel_err <= 1e-15


@pytest.mark.parametrize("params", [(HALF, HALF, 0, 0), (F(3, 5), F(11, 10), F(1, 4), F(4, 5))])
def test_fourier_relative_error_is_against_the_closed_form(params):
    """Where the closed form does not vanish, the relative error is taken
    against |rhs| alone, however small |rhs| is beside the |f| mass: at
    n = 0, z = 12 the closed form is about 4e-8 of the mass."""
    from hahnlab import transforms

    rhs = transforms._fourier_closed_form(0, *params, 12.0)
    lhs = _weighted_jacobi_transform(0, *params, 12.0)
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


def test_fourier_linearity():
    """Transform of a sum of two weighted Jacobi terms is the sum of
    transforms."""
    al, be, z = F(3, 5), F(11, 10), 1.3
    t2 = _weighted_jacobi_transform(2, al, be, F(1, 4), F(4, 5), z).value
    t5 = _weighted_jacobi_transform(5, al, be, F(1, 4), F(4, 5), z).value

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
    lhs = 2.0 ** (1 - 1.0) * _weighted_jacobi_transform(0, HALF, HALF, 0, 0, 0.0).value
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
                        lambda *args: IntegralResult(quoted / scale, 0.0, 0))
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
    res = _weighted_jacobi_transform(n, *params, 5.0)
    want = _mp_fourier(n, *params, 5.0)
    assert abs(res.value - want) <= 1e-13 * max(abs(want), 1.0)


def test_fourier_estimate_covers_one_more_halving(monkeypatch):
    """The row's estimate (the predicted tail, floored at the rounding of
    the |f| mass) bounds how far one forced extra halving moves the value."""
    seen, trapezoid = [], quadrature.integrate_line_trapezoid

    def spy(f, radius, step, tolerances):
        res = trapezoid(f, radius, step, tolerances)
        seen.append((f, radius, res))
        return res

    monkeypatch.setattr(quadrature, "integrate_line_trapezoid", spy)
    report = fourier_pair_check(1, F(3, 5), F(11, 10), F(1, 4), F(4, 5), 5.0)
    assert report.passed
    [(f, radius, res)] = seen
    h = 0.5 * res.step
    value, _ = f([k * h for k in range(1, int(radius / h) + 1, 2)])
    after = 0.5 * res.values[0] + h * value
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


@pytest.mark.parametrize("args", [PARSEVAL_REAL, PARSEVAL_COMPLEX],
                         ids=["real-folded", "complex-both-sides"])
def test_parseval_envelope_bounds_both_tails(monkeypatch, args):
    """The cut-off's envelope at z bounds the integrand at z and at -z.
    With complex parameters |w(-z/2)| != |w(z/2)|: an envelope read at z
    alone falls 3.4 times under |F(-2)| and 18.7 times under |F(-15.5)|."""
    from hahnlab import transforms
    seen = []

    def capture(f, env, strip, reflection=None):
        seen.append((f, env))
        return IntegralResult(0j, 0.0, 1)

    monkeypatch.setattr(transforms, "_line_integral", capture)
    _parseval_right(*args[:2], *map(complex, args[2:]))
    (f, env), = seen
    for z in (2.0 + 0.5 * k for k in range(37)):
        assert env(z) >= max(abs(f([z])[0]), abs(f([-z])[0])), z


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
                        lambda *a, **k: IntegralResult(1e-9 / (2 * math.pi), 0.0, 1,
                                                       1.0 / (2 * math.pi)))
    r = parseval_check(2, 1, F(3, 4), HALF, F(3, 4), 1, *(HALF,) * 4)
    assert r.max_rel_err <= 1e-8 and r.max_abs_err >= 1e-9 * (1 - 1e-6)
    assert not r.passed


def _fold(real, mode):
    """_line_integral without its reflection fold ("none") or with
    v - conj v where v + conj v belongs ("mutated")."""
    def run(f, env, strip, reflection=None):
        if mode == "none":
            return real(f, env, strip)
        return real(f, env, strip, -1 if reflection == 1 else reflection)
    return run


@pytest.mark.parametrize("n, m", [(2, 1), (2, 2), (0, 0)])
def test_parseval_fold_agrees_with_both_sides(monkeypatch, n, m):
    from hahnlab import transforms
    args = (n, m, *map(complex, PARSEVAL_REAL[2:]))
    folded = _parseval_right(*args)
    monkeypatch.setattr(transforms, "_line_integral", _fold(transforms._line_integral, "none"))
    both = _parseval_right(*args)
    assert abs(folded.value - both.value) <= 8 * _EPS * folded.mass
    assert folded.evaluations == both.evaluations


def test_parseval_mutated_fold_sign_fails(monkeypatch):
    from hahnlab import transforms
    args = (0, 0, *(HALF,) * 4, 0, 0, 0, 0)
    assert parseval_check(*args).passed
    monkeypatch.setattr(transforms, "_line_integral",
                        _fold(transforms._line_integral, "mutated"))
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
