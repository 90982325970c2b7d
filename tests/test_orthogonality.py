"""Orthogonality relations: Gram matrices, Barnes' lemma, sech-weight
families, classical Jacobi."""

import cmath
import math
import time
from fractions import Fraction

import mpmath
import pytest

from hahnlab import numerics, orthogonality, quadrature
from hahnlab.errors import DomainError, QuadratureError, RangeOverflowError
from hahnlab.exact import GaussianRational
from hahnlab.numerics import hahn_weight_log, log_gamma_complex
from hahnlab.orthogonality import (GramResult, _gram_columns, barnes_check,
                                   bateman_ortho_check, chahn_gram,
                                   chahn_norm_rhs, gram_check, jacobi_ortho_check,
                                   pasternack_biortho_check,
                                   pasternack_ortho_check, pi_m_over_sin_pi_m)
from hahnlab.operator_calculus import derive_recurrence
from hahnlab.polynomials import (HahnParams, JacobiParams, _chahn_recurrence, _to_complex,
                                 chahn_coeffs_complex, chahn_coeffs_exact, horner,
                                 horner_level, jacobi_coeffs_complex)
from hahnlab.quadrature import _EPS, IntegralResult, truncation_radius
from hahnlab.transforms import _tanh_product_integral

F = Fraction
HALF = F(1, 2)


# --- closed-form norms ------------------------------------------------------

def test_norm_rhs_frozen_values():
    # direct gamma arithmetic oracles
    assert abs(chahn_norm_rhs(0, HALF, HALF, HALF, HALF) - 1.0) < 1e-13
    assert abs(chahn_norm_rhs(0, 1, 1, 1, 1) - 1.0 / 6.0) < 1e-13
    assert abs(chahn_norm_rhs(1, HALF, HALF, HALF, HALF) - 1.0 / 3.0) < 1e-13


def test_norm_rhs_against_lgamma_oracle():
    import math as m

    def oracle(n, al, be, a, b):
        s = al + be + a + b
        num = m.lgamma(al + be + n) + m.lgamma(a + b + n) \
            + m.lgamma(n + al + a) + m.lgamma(n + be + b)
        den = m.lgamma(n + 1) + m.lgamma(n + s - 1)
        return m.exp(num - den) / (2 * n + s - 1)

    for n in (0, 1, 3, 7):
        for params in ((1.0, 0.5, 0.75, 1.25), (0.3, 0.9, 1.7, 0.4)):
            got = chahn_norm_rhs(n, *params)
            want = oracle(n, *params)
            assert abs(got - want) <= 1e-12 * want


def test_norm_rhs_removable_singularity_at_sum_one():
    # alpha + beta + a + b = 1: (2n+s-1) Gamma(n+s-1) -> Gamma(s) at n = 0,
    # Barnes' denominator; here every pair sum is 1/2, so h_0 = Gamma(1/2)^4
    al, be = complex(0.25, 0.5), complex(0.25, -0.5)
    assert abs(chahn_norm_rhs(0, al, be, be, al) - math.pi ** 2) <= 1e-13 * math.pi ** 2


def test_norm_rhs_rejects_nonpositive():
    with pytest.raises(DomainError):
        chahn_norm_rhs(0, 0.0, 1, 1, 1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1, math.nan)],
                         ids=["nan", "inf", "complex-nan"])
def test_norm_rhs_rejects_non_finite_naming_the_parameter(bad):
    with pytest.raises(DomainError, match=r"^alpha must be finite"):
        chahn_norm_rhs(0, bad, 1, 1, 1)
    with pytest.raises(DomainError, match=r"^b must be finite"):
        chahn_norm_rhs(3, 1, 1, 1, bad)


# --- Barnes' first lemma -----------------------------------------------------

def test_barnes_all_halves_is_one():
    r = barnes_check(HALF, HALF, HALF, HALF)
    assert r.passed and r.max_rel_err <= 1e-9


def test_barnes_gamma_ratio_example():
    # Gamma(3/2) Gamma(2) Gamma(7/4)^2 / Gamma(7/2), via math.lgamma oracle
    expected = math.exp(math.lgamma(1.5) + math.lgamma(2.0)
                        + 2 * math.lgamma(1.75) - math.lgamma(3.5))
    r = barnes_check(1, HALF, F(3, 4), F(5, 4))
    assert r.passed
    assert abs(chahn_norm_rhs(0, 1, 0.5, 0.75, 1.25) - expected) <= 1e-12 * expected


def test_barnes_swap_invariance():
    # relabeling z -> -z swaps (alpha, b) and (beta, a)
    a1 = chahn_norm_rhs(0, 1.0, 0.5, 0.75, 1.25)
    a2 = chahn_norm_rhs(0, 1.25, 0.75, 0.5, 1.0)
    assert abs(a1 - a2) <= 1e-13 * abs(a1)
    r1 = barnes_check(1.0, 0.5, 0.75, 1.25)
    r2 = barnes_check(1.25, 0.75, 0.5, 1.0)
    assert r1.passed and r2.passed


# --- Bateman ------------------------------------------------------------------

def test_bateman_diagonal_n0():
    r = bateman_ortho_check(0, 0)
    assert r.passed
    # 4/pi from the sech^2 antiderivative
    assert r.max_rel_err <= 1e-8


def test_bateman_diagonal_n1_sign():
    # F_1(ix) = -ix; moment integral 4/(3 pi) with the (-1)^n sign
    r = bateman_ortho_check(1, 1)
    assert r.passed


def test_bateman_offdiag_parity():
    r = bateman_ortho_check(0, 1)
    assert r.passed and r.max_abs_err <= 1e-10


def test_bateman_degree_cap():
    with pytest.raises(DomainError):
        bateman_ortho_check(13, 0)


# --- Pasternack ---------------------------------------------------------------

def test_pasternack_m_zero_matches_bateman_weight_rescale():
    # 1/(1 + cosh(pi x)) = sech^2(pi x / 2) / 2, so diagonals are half Bateman's
    for n in (0, 1, 2):
        r = pasternack_ortho_check(n, n, 0)
        assert r.passed


def test_pasternack_hardy_case_frozen():
    # m = 1/2 collapses the right side to (-1)^n / (2n+1)^2
    from hahnlab.polynomials import pasternack_coeffs_complex
    from hahnlab.polynomials import horner
    for n in (0, 1, 2, 3):
        r = pasternack_ortho_check(n, n, HALF)
        assert r.passed
        expected = (-1.0) ** n / (2 * n + 1) ** 2
        assert f"expected=({expected!r}" in r.details or r.max_rel_err <= 1e-8


def test_pasternack_offdiag_zero():
    r = pasternack_ortho_check(2, 0, F(1, 3))
    assert r.passed and r.max_abs_err <= 1e-10


@pytest.mark.parametrize("m", [0, F(1, 3), HALF])
def test_pasternack_norm_ratio_against_gamma_route(m):
    # the sech-weight closed form and the four-gamma norm specialization
    # agree as numbers after the z = x/2 change of variables
    r = pasternack_ortho_check(3, 3, m)
    assert r.passed
    assert "specialized-norm ratio" in r.details
    ratio = float(r.details.split("specialized-norm ratio vs gamma form: ")[1].split(";")[0])
    assert abs(ratio - 1.0) <= 1e-10


def test_pasternack_imaginary_m():
    r = pasternack_ortho_check(1, 1, 0.4j)
    assert r.passed


def test_pasternack_domain_checks():
    with pytest.raises(DomainError):
        pasternack_ortho_check(0, 0, 1.5)
    with pytest.raises(DomainError):
        pasternack_ortho_check(0, 0, complex(0.3, 0.4))


_NON_FINITE_M = [math.nan, math.inf, complex(math.nan, 0), complex(0, math.nan),
                 complex(math.inf, 0), complex(0, math.inf), complex(0, -math.inf)]
_NON_FINITE_M_IDS = ["nan", "inf", "nan-real", "nan-imag", "inf-real", "inf-imag", "-inf-imag"]


@pytest.mark.parametrize("m", _NON_FINITE_M, ids=_NON_FINITE_M_IDS)
@pytest.mark.parametrize("check", [pasternack_ortho_check, pasternack_biortho_check],
                         ids=["ortho", "biortho"])
def test_sech_checks_reject_non_finite_m_naming_it(check, m):
    """A NaN or infinite part of m is refused up front, not passed on to a
    Pochhammer symbol that overflows or to a check that blames another name."""
    for n, p in ((1, 1), (2, 0)):
        with pytest.raises(DomainError, match=r"^m must be finite"):
            check(n, p, m)


def test_pi_m_over_sin_small_m_series():
    assert pi_m_over_sin_pi_m(0) == 1.0
    m = 1e-8
    exact = math.pi * m / math.sin(math.pi * m)
    assert abs(pi_m_over_sin_pi_m(m) - exact) <= 1e-15


# --- biorthogonality -----------------------------------------------------------

def test_biortho_reduces_to_bateman_at_m_zero():
    for n in (0, 1, 2):
        r = pasternack_biortho_check(n, n, 0)
        assert r.passed


def test_biortho_diagonal_and_offdiag():
    r = pasternack_biortho_check(2, 2, F(1, 3))
    assert r.passed
    r = pasternack_biortho_check(2, 1, F(1, 3))
    assert r.passed and r.max_abs_err <= 1e-10


def test_biortho_consistent_with_ortho_via_reflection():
    """(1+m)_n F_n^m = (1-m)_n F_n^{-m} ties the biortho diagonal to the
    ortho diagonal by the factor (1+m)_n / (1-m)_n; both sides measured
    here by mpmath's quadrature, a route independent of the package's."""
    from hahnlab.numerics import pochhammer
    from hahnlab.polynomials import horner, pasternack_coeffs_complex

    m = F(1, 3)
    cos_pim = math.cos(math.pi / 3)
    line = [-mpmath.inf, 0, mpmath.inf]
    for n in (1, 2, 3):
        f_plus = pasternack_coeffs_complex(n, m)
        f_minus = pasternack_coeffs_complex(n, -m)

        def integrand(coeffs2):
            def f(x):
                ix = 1j * x
                return horner(f_plus, ix) * horner(coeffs2, ix) \
                    / (cos_pim + mpmath.cosh(mpmath.pi * x))
            return f

        v_ortho = complex(mpmath.quad(integrand(f_plus), line))
        v_bio = complex(mpmath.quad(integrand(f_minus), line))
        factor = pochhammer(1 + float(m), n) / pochhammer(1 - float(m), n)
        assert abs(v_bio - factor * v_ortho) <= 1e-9 * max(abs(v_bio), 1.0)


# --- Jacobi --------------------------------------------------------------------

def test_jacobi_ortho_interval_length():
    r = jacobi_ortho_check(0, 0, 0, 0)
    assert r.passed  # weight 1 on [-1, 1]: the measure of the interval, 2


def test_jacobi_ortho_x_squared_moment():
    r = jacobi_ortho_check(1, 1, 0, 0)
    assert r.passed  # int x^2 over [-1,1] = 2/3


def test_jacobi_ortho_negative_exponents():
    # endpoint singularities with -1 < alpha < 0 go through the tanh map
    r = jacobi_ortho_check(2, 2, -0.5, F(1, 4))
    assert r.passed


def test_jacobi_ortho_complex_parameters():
    r = jacobi_ortho_check(3, 2, complex(0.5, 1.0), complex(0.5, -1.0))
    assert r.passed and r.max_abs_err <= 1e-10
    r = jacobi_ortho_check(2, 2, complex(0.5, 1.0), complex(0.5, -1.0))
    assert r.passed and r.max_rel_err <= 1e-9


@pytest.mark.parametrize("alpha, beta, h0", [
    (F(-3, 4), F(-1, 4), math.pi * math.sqrt(2)),
    (-0.5, -0.5, math.pi),
], ids=["-3/4,-1/4", "-1/2,-1/2"])
def test_jacobi_ortho_n0_where_alpha_plus_beta_is_minus_one(alpha, beta, h0):
    """alpha + beta = -1 makes Gamma(n+alpha+beta+1)(2n+alpha+beta+1) 0 * inf
    at n = 0 (a PoleError once); h_0 = 2^{alpha+beta+1} Gamma(alpha+1)
    Gamma(beta+1) / Gamma(alpha+beta+2) is finite, pi sqrt 2 and pi here.
    Both sides of the check are within rounding of mpmath's beta function."""
    r = jacobi_ortho_check(0, 0, alpha, beta)
    with mpmath.workdps(30):
        a, b = _mp(alpha), _mp(beta)
        want = 2 ** (a + b + 1) * mpmath.beta(a + 1, b + 1)
        assert abs(want - h0) <= 1e-15 * h0
    measured, expected = (complex(part.split("=")[1]) for part in r.details.split())
    assert r.passed
    assert abs(expected - complex(want)) <= 2e-15 * h0
    assert abs(measured - complex(want)) <= 2e-15 * h0


def test_jacobi_ortho_domain():
    with pytest.raises(DomainError):
        jacobi_ortho_check(0, 0, -1.0, 0)


# --- continuous Hahn Gram -------------------------------------------------------

def test_gram_two_by_two_frozen():
    g = chahn_gram(2, HALF, HALF, HALF, HALF)
    assert abs(g.matrix[0][0] - 1.0) <= 1e-10
    assert abs(g.matrix[1][1] - 1.0 / 3.0) <= 1e-10
    assert g.max_offdiag_abs == 0.0  # parity shortcut, no quadrature consulted
    assert g.max_diag_rel_err <= 1e-10


def test_gram_entry_00_is_barnes_value():
    g = chahn_gram(1, 1.0, 0.5, 0.75, 1.25)
    expected = chahn_norm_rhs(0, 1.0, 0.5, 0.75, 1.25)
    assert abs(g.matrix[0][0] - expected) <= 1e-10 * abs(expected)


def test_gram_parameter_swap_invariance():
    g1 = chahn_gram(3, 1.0, 0.5, 0.75, 1.25)
    g2 = chahn_gram(3, 1.25, 0.75, 0.5, 1.0)
    scale = [math.sqrt(abs(h)) for h in g1.expected_diagonal]
    for i in range(3):
        for j in range(3):
            diff = abs(g1.matrix[i][j] - g2.matrix[i][j])
            assert diff <= 1e-10 * max(1.0, scale[i] * scale[j])


def test_gram_conjugate_pair_real_symmetric_positive():
    from hahnlab.exact import GaussianRational
    al = GaussianRational(F(1, 2), F(1, 4))
    be = GaussianRational(F(3, 4), F(-1, 4))
    g = chahn_gram(4, al, be, al.conjugate(), be.conjugate())
    for i in range(4):
        assert g.matrix[i][i].real > 0.0
        for j in range(4):
            assert g.matrix[i][j].imag == 0.0
            assert abs(g.matrix[i][j] - g.matrix[j][i]) == 0.0


def test_gram_size_cap():
    with pytest.raises(DomainError):
        chahn_gram(17, HALF, HALF, HALF, HALF)


def test_gram_check_passes_all_halves():
    r = gram_check("g", HALF, HALF, HALF, HALF, 3)
    assert r.passed and r.max_rel_err <= 1e-12 and r.max_abs_err <= 1e-10


def test_gram_check_fails_on_a_wrong_norm(monkeypatch):
    """Closed-form norms off by 1e-6 move the diagonal error far past the
    1e-8 tolerance: the check must fail, not pass on the quadrature alone."""
    right = orthogonality._chahn_norms
    monkeypatch.setattr(orthogonality, "_chahn_norms",
                        lambda *args: [(1 + 1e-6) * h for h in right(*args)])
    r = gram_check("g", HALF, HALF, HALF, HALF, 3)
    assert r.max_rel_err == pytest.approx(1e-6, rel=1e-3)
    assert not r.passed


def test_gram_csv_and_summary():
    g = chahn_gram(2, HALF, HALF, HALF, HALF)
    text = g.to_csv_text()
    lines = text.strip().split("\n")
    assert lines[0] == ",0,1"
    assert len(lines) == 3
    summary = g.to_summary_dict()
    assert summary["size"] == 2
    assert summary["max_offdiag_abs"] == 0.0
    assert isinstance(g, GramResult)


def _mp_norms(N, params, digits=40):
    """Closed-form squared norms from mpmath at `digits` digits; n = 0 takes the
    Gamma(s) limit so that alpha + beta + a + b = 1 is allowed."""
    with mpmath.workdps(digits):
        al, be, av, bv = (mpmath.mpmathify(complex(p)) if isinstance(p, complex)
                          else mpmath.mpf(p.numerator) / p.denominator for p in params)
        s = al + be + av + bv
        out = []
        for n in range(N):
            num = (mpmath.gamma(al + be + n) * mpmath.gamma(av + bv + n)
                   * mpmath.gamma(n + al + av) * mpmath.gamma(n + be + bv))
            if n == 0:
                out.append(complex(num / mpmath.gamma(s)))
            else:
                out.append(complex(num / (mpmath.factorial(n) * (2 * n + s - 1)
                                          * mpmath.gamma(n + s - 1))))
        return out


QUARTER_CONJ = (GaussianRational(F(1, 4), F(1, 2)), GaussianRational(F(1, 4), F(-1, 2)),
                GaussianRational(F(1, 4), F(-1, 2)), GaussianRational(F(1, 4), F(1, 2)))


@pytest.mark.parametrize("params", [
    (F(1, 8),) * 4,   # strip half-width 1/8
    QUARTER_CONJ,     # 1/4 +- 1/2 i conjugate pair, alpha + beta + a + b = 1
    (F(2),) * 4,
], ids=["all-1/8", "quarter-conjugate-pair", "all-2"])
def test_gram_size_16_against_mpmath_norms(params):
    g = chahn_gram(16, *params)
    norms = _mp_norms(16, [p.to_complex() if isinstance(p, GaussianRational) else p
                           for p in params])
    for n in range(16):
        assert abs(g.matrix[n][n] - norms[n]) <= 1e-12 * abs(norms[n])
        for m in range(16):
            if m != n:
                assert abs(g.matrix[n][m]) <= 1e-12 * math.sqrt(abs(norms[n] * norms[m]))


@pytest.mark.parametrize("N, params", [
    (8, (HALF,) * 4),
    (16, (1, HALF, F(3, 4), F(5, 4))),
    (16, QUARTER_CONJ),
])
def test_gram_error_estimate_covers_offdiagonal_error(N, params):
    g = chahn_gram(N, *params)
    assert g.max_offdiag_scaled > 0.0
    assert g.estimated_error >= g.max_offdiag_scaled


def test_gram_reports_its_cost():
    g = chahn_gram(4, 1, HALF, F(3, 4), F(5, 4))
    summary = g.to_summary_dict()
    # nodes of a symmetric grid of step h out to the truncation radius
    assert summary["evaluations"] == 2 * int(g.truncation_radius / g.step) + 1
    assert 0.0 < summary["step"] <= 0.5 and summary["truncation_radius"] >= 2.0
    assert 0.0 < summary["estimated_error"] <= 1e-10
    assert g.diagnostics().evaluations == g.evaluations


def test_gram_narrow_strip_raises_promptly():
    t0 = time.perf_counter()
    with pytest.raises(QuadratureError):
        chahn_gram(4, F(1, 10000), HALF, HALF, HALF)
    assert time.perf_counter() - t0 < 5.0


CONJ_PAIR = (GaussianRational(HALF, F(1, 4)), GaussianRational(F(3, 4), F(-1, 4)),
             GaussianRational(HALF, F(-1, 4)), GaussianRational(F(3, 4), F(1, 4)))
NORM_TUPLES = {"all-1/2": (HALF,) * 4, "1,1/2,3/4,5/4": (F(1), HALF, F(3, 4), F(5, 4)),
               "conjugate-pair": CONJ_PAIR, "5/8,11/8,3/8,7/8": (F(5, 8), F(11, 8), F(3, 8), F(7, 8))}


@pytest.mark.parametrize("params", NORM_TUPLES.values(), ids=NORM_TUPLES.keys())
def test_norms_within_2e_15_of_mpmath(params):
    """h_n for n <= 15, from chahn_norm_rhs and as the N = 16 Gram's expected
    diagonal, within 2e-15 (relative) of 50-digit mpmath: h_0 is one gamma
    product and the rest exact ratios; exp(sum log Gamma) of each h_n would
    be off by up to 2.4e-14 on these tuples."""
    floats = [p.to_complex() if isinstance(p, GaussianRational) else p for p in params]
    want = _mp_norms(16, floats, digits=50)
    expected = chahn_gram(16, *params).expected_diagonal
    for n, h in enumerate(want):
        assert abs(chahn_norm_rhs(n, *params) - h) <= 2e-15 * abs(h), n
        assert abs(expected[n] - h) <= 2e-15 * abs(h), n


@pytest.mark.parametrize("args", [(300, 1, 1, 1, 1), (200, 100, 100, 100, 100)],
                         ids=["ratios-overflow", "h0-overflows"])
def test_norm_rhs_overflow_raises(args):
    with pytest.raises(RangeOverflowError):
        chahn_norm_rhs(*args)


# (N, truncation radius, step, nodes) of each Gram of the `gram` benchmark
# workload at seed 1 (bench/workloads.py): the cut-off scan reads float
# magnitudes, and none of these may move
GRAM_GRIDS = [
    ((HALF,) * 4, 8, 12.5, 0.0625, 401),
    ((HALF,) * 4, 12, 15.0, 0.0625, 481),
    ((HALF,) * 4, 16, 18.0, 0.0625, 577),
    ((F(1), HALF, F(3, 4), F(5, 4)), 8, 13.0, 0.0625, 417),
    ((F(1), HALF, F(3, 4), F(5, 4)), 12, 15.5, 0.0625, 497),
    ((F(1), HALF, F(3, 4), F(5, 4)), 16, 18.5, 0.0625, 593),
    (CONJ_PAIR, 8, 13.0, 0.0625, 417),
    (CONJ_PAIR, 12, 15.5, 0.0625, 497),
    (CONJ_PAIR, 16, 18.5, 0.0625, 593),
    ((0.5,) * 4, 8, 12.5, 0.0625, 401),
    ((F(5, 8), F(11, 8), F(3, 8), F(7, 8)), 8, 12.5, 0.046875, 533),
]


@pytest.mark.parametrize("params, N, radius, step, nodes", GRAM_GRIDS)
def test_gram_grid_is_pinned(params, N, radius, step, nodes):
    g = chahn_gram(N, *params)
    assert (g.truncation_radius, g.step, g.evaluations) == (radius, step, nodes)


@pytest.mark.parametrize("params, folded", [
    ((1, HALF, F(3, 4), F(5, 4)), True),
    ((0.5, 0.5, 0.5, 0.5), True),
    (CONJ_PAIR, False),
], ids=["exact-real", "float-real", "conjugate-pair"])
def test_gram_folds_the_reflection_for_real_parameters(monkeypatch, params, folded):
    """Real parameters: the node at -z is the conjugate of the one at z up to
    the sign (-1)^(n+m), so the weight is never evaluated at z < 0; other
    parameters still evaluate both grid sides (and both envelope sides): the
    weight is read at every negative node of the final grid and nowhere else."""
    seen, scan = [], []

    def recorder(*args):
        log_weight = numerics._weight_memo(*args)

        def recorded(z):
            seen.append(z)
            return log_weight(z)
        return recorded

    def radius(*args, **kwargs):
        z = truncation_radius(*args, **kwargs)
        scan.extend(seen)  # the envelope's calls; the grid's come after
        seen.clear()
        return z

    monkeypatch.setattr(orthogonality, "_weight_memo", recorder)
    monkeypatch.setattr(quadrature, "truncation_radius", radius)
    g = chahn_gram(8, *params)
    negative = [z for z in seen if z < 0.0]
    half_grid = int(g.truncation_radius / g.step)
    assert g.evaluations == 2 * half_grid + 1
    if folded:
        assert not negative and min(scan) > 0.0
    else:
        assert set(negative) == {-k * g.step for k in range(1, half_grid + 1)}


_THIRD_FIFTH_PAIR = (GaussianRational(HALF, F(1, 3)), GaussianRational(F(1, 4), F(1, 5)),
                     GaussianRational(HALF, F(-1, 3)), GaussianRational(F(1, 4), F(-1, 5)))


@pytest.mark.parametrize("params, positive", [
    ((HALF,) * 4, True),
    ((0.5,) * 4, True),
    (CONJ_PAIR, True),
    (_THIRD_FIFTH_PAIR, True),
    ((HALF, F(3, 4), HALF, F(3, 4)), True),
    ((1, HALF, F(3, 4), F(5, 4)), False),
    ((2, F(1, 3), F(3, 2), F(3, 4)), False),
    ((0.5 + 0.25j, 0.75 - 0.25j, complex(0.5, -0.25 + 1e-9), 0.75 + 0.25j), False),
], ids=["all-1/2", "float-0.5", "conjugate-pair", "third-fifth-pair", "1/2,3/4,1/2,3/4",
        "1,1/2,3/4,5/4", "2,1/3,3/2,3/4", "pair-off-by-1e-9"])
def test_gram_columns_are_real_exactly_for_a_positive_weight(monkeypatch, params, positive):
    """a = conj alpha and b = conj beta make the weight positive: the columns
    get float nodes and real triples, and the matrix's imaginary parts are 0.0.
    Every other tuple, one off by 1e-9 in one imaginary part included, gets
    complex ones; both pass gram_check."""
    seen = []

    def spy(recurrence, zs):
        seen.append({type(v) for v in zs} | {type(v) for t in recurrence for v in t})
        return _gram_columns(recurrence, zs)

    monkeypatch.setattr(orthogonality, "_gram_columns", spy)
    assert gram_check("spy", *params, 8).status == "pass"
    assert seen and all(types == ({float} if positive else {complex}) for types in seen)
    if positive:
        assert all(v.imag == 0.0 for row in chahn_gram(8, *params).matrix for v in row)


@pytest.mark.parametrize("N", [1, 8, 16])
@pytest.mark.parametrize("params", [
    (F(1), HALF, F(3, 4), F(5, 4)),
    CONJ_PAIR,
], ids=["1-1/2-3/4-5/4", "conjugate-pair"])
def test_gram_envelope_bounds_both_tails(monkeypatch, params, N):
    """At and beyond the returned cut-off the envelope bounds the norm-scaled
    integrand |w(z)| |p_n(z)|^2 / (2 pi max(|h_n|, 1)) at +z and at -z; for
    the conjugate pair |w(-z)| is about e^pi |w(z)|."""
    captured = []

    def radius(envelope, *args, **kwargs):
        z = truncation_radius(envelope, *args, **kwargs)
        captured.append((envelope, z))
        return z

    monkeypatch.setattr(quadrature, "truncation_radius", radius)
    chahn_gram(N, *params)
    (envelope, radius_z), = captured
    al, be, a, b = (p.to_complex() if isinstance(p, GaussianRational) else complex(p)
                    for p in params)
    polys = [chahn_coeffs_complex(n, HahnParams(params[0], params[3], params[2], params[1]))
             for n in range(N)]
    scales = [2.0 * math.pi * max(abs(chahn_norm_rhs(n, al, be, a, b)), 1.0)
              for n in range(N)]
    for z in (radius_z, radius_z + 0.5, radius_z + 2.0):
        for x in (z, -z):
            w = abs(cmath.exp(hahn_weight_log(x, al, be, a, b)))
            worst = max(w * abs(horner(cs, x)) ** 2 / s for cs, s in zip(polys, scales))
            assert envelope(z) >= worst


def _gram_fields(g: GramResult) -> tuple:
    return (g.matrix, g.estimated_error, g.truncation_radius, g.evaluations, g.step)


def test_gram_16_after_8_computes_only_the_new_nodes(monkeypatch):
    """The N = 8 and N = 16 Grams of a tuple share one node grid in the
    weight memo: N = 16 after N = 8 calls log_gamma_complex, once each, only
    at nodes beyond the N = 8 cut-off (4 shifts a node), plus the 5 real
    arguments of h_0 (the other norms are exact ratios of it)."""
    params = (F(1), HALF, F(3, 4), F(5, 4))
    numerics._weight_memo.cache_clear()
    g8 = chahn_gram(8, *params)
    made = []

    def counted(w):
        made.append(w)
        return log_gamma_complex(w)

    monkeypatch.setattr(numerics, "log_gamma_complex", counted)
    g16 = chahn_gram(16, *params)
    assert g16.step == g8.step and g16.truncation_radius > g8.truncation_radius
    nodes = [w for w in made if w.imag]
    assert len(made) - len(nodes) == 5
    assert nodes and len(set(nodes)) == len(nodes) and len(nodes) % 4 == 0
    # the cut-off scan looks one step of 1/2 past the radius it returns
    assert all(g8.truncation_radius < w.imag <= g16.truncation_radius + 0.5 for w in nodes)


def test_gram_is_the_same_cold_and_warm():
    """chahn_gram(16, t) after barnes_check and chahn_gram(8, t) on the same
    tuple reads its nodes from the memo, and equals the cold call."""
    for params in ((F(1), HALF, F(3, 4), F(5, 4)), CONJ_PAIR):
        numerics._weight_memo.cache_clear()
        cold = _gram_fields(chahn_gram(16, *params))
        numerics._weight_memo.cache_clear()
        barnes_check(*params)
        chahn_gram(8, *params)
        assert _gram_fields(chahn_gram(16, *params)) == cold


def test_gram_cutoff_is_relative_to_the_norms():
    """N = 16 norms reach 1e24; an absolute tail target ran the grid out to
    Z = 30, the norm-relative one stops at Z <= 19 at no loss of accuracy."""
    params = (F(1), HALF, F(3, 4), F(5, 4))
    g = chahn_gram(16, *params)
    assert g.truncation_radius <= 19.0
    norms = _mp_norms(16, params)
    for n in range(16):
        assert abs(g.matrix[n][n] - norms[n]) <= 1e-13 * abs(norms[n])
        for m in range(16):
            if m != n:
                assert abs(g.matrix[n][m]) <= 1e-13 * math.sqrt(abs(norms[n] * norms[m]))


def _norm_scaled_error(g, norms):
    N = g.size
    return max(abs(g.matrix[n][m] - (norms[n] if n == m else 0.0))
               / math.sqrt(abs(norms[n] * norms[m]))
               for n in range(N) for m in range(N))


@pytest.mark.parametrize("N", [1, 8, 12, 16])
@pytest.mark.parametrize("params", [
    (HALF,) * 4,
    (F(1), HALF, F(3, 4), F(5, 4)),
    CONJ_PAIR,
    (F(2), F(1, 3), F(3, 2), F(3, 4)),
], ids=["all-1/2", "1-1/2-3/4-5/4", "conjugate-pair", "2-1/3-3/2-3/4"])
def test_gram_error_estimate_covers_error_against_mpmath(params, N):
    """The reported estimate bounds the achieved norm-scaled error, diagonal
    and off-diagonal, against closed-form norms at 50 digits."""
    g = chahn_gram(N, *params)
    norms = _mp_norms(N, [p.to_complex() if isinstance(p, GaussianRational) else p
                          for p in params], digits=50)
    assert g.estimated_error >= _norm_scaled_error(g, norms)


def test_gram_error_estimate_covers_error_float_parameters():
    g = chahn_gram(8, 0.5, 0.5, 0.5, 0.5)
    norms = _mp_norms(8, (HALF,) * 4, digits=50)
    assert g.estimated_error >= _norm_scaled_error(g, norms)


FLOAT_TUPLES = [(0.5,) * 4, (0.3, 0.45, 0.6, 0.35),
                (0.5 + 0.25j, 0.75 - 0.25j, 0.5 - 0.25j, 0.75 + 0.25j)]
FLOAT_IDS = ["all-0.5", "0.3-0.45-0.6-0.35", "conjugate-pair"]


@pytest.mark.parametrize("params", FLOAT_TUPLES, ids=FLOAT_IDS)
def test_gram_16_float_parameters(params):
    """Float parameters at N = 16: the recurrence's columns keep the
    norm-scaled off-diagonal at rounding level (Horner on the float-route
    coefficients left 1.2e-7 to 7.7e-7), and the estimate bounds the achieved
    error against closed-form norms at 50 digits, taken at the doubles'
    exact values."""
    g = chahn_gram(16, *params)
    assert g.max_offdiag_scaled <= 1e-13
    norms = _mp_norms(16, [F(p) if isinstance(p, float) else p for p in params], digits=50)
    assert g.estimated_error >= _norm_scaled_error(g, norms)


def test_gram_float_parameters_build_as_their_fractions():
    """The Gram reads its parameters only as complex floats, and a float is
    the dyadic rational it stores, so the recurrence coefficients behind the
    columns, the cut-off envelope and the rounding floor are those of the
    Fractions: the same matrix, estimate, radius and nodes."""
    floats = (0.3, 0.45, 0.6, 0.35)
    g, h = chahn_gram(16, *floats), chahn_gram(16, *map(F, floats))
    assert (g.matrix, g.estimated_error, g.truncation_radius, g.evaluations) == \
        (h.matrix, h.estimated_error, h.truncation_radius, h.evaluations)


# --- the recurrence behind the Gram's columns -------------------------------

# all 1/4 has s = 1, where A_0 is a removable 0/0
RECURRENCE_TUPLES = [(HALF,) * 4, (F(1), HALF, F(3, 4), F(5, 4)), CONJ_PAIR, (F(1, 4),) * 4]
RECURRENCE_IDS = ["all-1/2", "1-1/2-3/4-5/4", "conjugate-pair", "all-1/4"]


@pytest.mark.parametrize("params", RECURRENCE_TUPLES, ids=RECURRENCE_IDS)
def test_gram_recurrence_matches_exact_derivation(params):
    """The float (A_n, B_n, C_n) against derive_recurrence on the Gram's
    HahnParams(alpha, b, a, beta), n = 1 .. 14, relative to the largest of
    the exact three (B_n is exactly 0 for equal parameters); (A_0, B_0) from
    p_1 = (x - B_0) / A_0, which holds at s = 1 too."""
    alpha, beta, a, b = params
    hahn = HahnParams(alpha, b, a, beta)
    recurrence = _chahn_recurrence(16, *map(_to_complex, hahn))
    assert len(recurrence) == 15
    for n in range(1, 15):
        exact = [_to_complex(v) for v in derive_recurrence(n, hahn)]
        scale = max(map(abs, exact))
        for got, want in zip(recurrence[n], exact):
            assert abs(got - want) <= 1e-14 * scale, (n, got, want)
    c0, c1 = (v.to_complex() for v in chahn_coeffs_exact(1, hahn).coeffs)
    a_0, b_0, c_0 = recurrence[0]
    assert abs(a_0 - 1 / c1) <= 1e-15 * abs(1 / c1)
    assert abs(b_0 + c0 / c1) <= 1e-15 * max(abs(c0 / c1), abs(1 / c1))
    assert c_0 == 0


@pytest.mark.parametrize("params", RECURRENCE_TUPLES, ids=RECURRENCE_IDS)
def test_gram_columns_match_the_exact_polynomial(params):
    """Columns p_0 .. p_15 on the nodes k/16, |k| <= 304, of an N = 16 Gram,
    against the exact polynomial at each node's dyadic value, rounded once.
    Relative error is undefined at an exact zero (odd n at z = 0 for equal
    parameters), so those nodes are left out."""
    alpha, beta, a, b = params
    hahn = HahnParams(alpha, b, a, beta)
    zs = [k / 16 for k in range(-304, 305)]
    columns = orthogonality._gram_columns(_chahn_recurrence(16, *map(_to_complex, hahn)), zs)
    assert len(columns) == 16
    for n, column in enumerate(columns):
        poly = chahn_coeffs_exact(n, hahn)
        for z, got in zip(zs, column):
            want = poly(F(z)).to_complex()
            if want:
                assert abs(got - want) <= 1e-12 * abs(want), (n, z, got, want)


MAGNITUDE_TUPLES = [*RECURRENCE_TUPLES, (F(2), F(1, 3), F(3, 2), F(3, 4))]
MAGNITUDE_IDS = [*RECURRENCE_IDS, "2-1/3-3/2-3/4"]


@pytest.mark.parametrize("params", MAGNITUDE_TUPLES, ids=MAGNITUDE_IDS)
def test_gram_magnitude_recurrence_bounds_the_exact_coefficients(monkeypatch, params):
    """M_0 .. M_15, the recurrence on magnitudes that a 16 x 16 Gram hands
    _gram_magnitudes for its cut-off envelope and rounding floor, at
    r = 0, 1/2, ..., 20: never below sum_k |c_k| r^k of the exact
    coefficients, and for real parameters equal to it to rounding, which
    keeps the grids where Horner's magnitudes put them.  The sum is exactly
    0 at r = 0 for odd n with equal parameters, where the float B_n are
    rounding-level rather than 0, so the upper check leaves those points out."""
    alpha, beta, a, b = params
    hahn = HahnParams(alpha, b, a, beta)
    run, magnitudes = orthogonality._gram_magnitudes, []

    def spy(recurrence, r):
        magnitudes.append(recurrence)
        return run(recurrence, r)

    monkeypatch.setattr(orthogonality, "_gram_magnitudes", spy)
    chahn_gram(16, *params)
    assert all(m is magnitudes[0] for m in magnitudes)
    rs = [k / 2 for k in range(41)]
    bounds = zip(*[run(magnitudes[0], r) for r in rs])
    real = not any(_to_complex(p).imag for p in params)
    for n, column in enumerate(bounds):
        mags = [abs(c.to_complex()) for c in chahn_coeffs_exact(n, hahn).coeffs]
        for r, got in zip(rs, column):
            want = sum(c * r ** k for k, c in enumerate(mags))
            assert got >= (1 - 1e-14) * want, (n, r, got, want)
            if real and want:
                assert got <= (1 + 1e-14) * want, (n, r, got, want)
    assert n == 15


@pytest.mark.parametrize("params", MAGNITUDE_TUPLES, ids=MAGNITUDE_IDS)
def test_gram_magnitudes_are_the_columns_real_parts(params):
    """_gram_magnitudes(m, r) is the real part of _gram_columns(m, [r]), the
    step it runs in floats, bit for bit at r = 0, 1/2, ..., 20 on the
    magnitudes of an N = 16 Gram's recurrence."""
    alpha, beta, a, b = params
    recurrence = _chahn_recurrence(16, *map(_to_complex, (alpha, b, a, beta)))
    magnitudes = [(abs(a_n), -abs(b_n), -abs(c_n)) for a_n, b_n, c_n in recurrence]
    for r in [k / 2 for k in range(41)]:
        got = orthogonality._gram_magnitudes(magnitudes, r)
        want = [column[0].real for column in orthogonality._gram_columns(magnitudes, [r])]
        assert len(got) == 16
        assert [v.hex() for v in got] == [v.hex() for v in want], r


def test_gram_cold_log_gamma_count(monkeypatch):
    """A cold 16 x 16 Gram makes 5 log_gamma_complex calls for its norms (h_0;
    the rest are exact ratios) and one per distinct shift at each node of
    its cut-off scan and grid; the finite checks add none."""
    made = []

    def counted(w):
        made.append(w)
        return log_gamma_complex(w)

    monkeypatch.setattr(numerics, "log_gamma_complex", counted)
    for params, calls in (((HALF,) * 4, 295), ((F(1), HALF, F(3, 4), F(5, 4)), 1197)):
        numerics._weight_memo.cache_clear()
        made.clear()
        chahn_gram(16, *params)
        assert len(made) == calls


# --- the sech and tanh integrals on the nested trapezoid ------------------------

def _mp_pasternack(n, m, x):
    return mpmath.hyp3f2(-n, n + 1, (1 + m + x) / 2, 1, 1 + m, 1)


def _mp(v):
    if isinstance(v, complex):
        return mpmath.mpc(v)
    return mpmath.mpf(F(v).numerator) / F(v).denominator


def _sech_case(kind, m):
    """(_sech_integral's scale, mpmath weight) of the sech families at m:
    Bateman's reference is sech^2(pi x / 2) itself, not the doubled
    Pasternack weight at m = 0 that the package integrates."""
    if kind == "bateman":
        return 2.0, lambda x: mpmath.sech(mpmath.pi * x / 2) ** 2
    return 1.0, lambda x: 1 / (mpmath.cos(mpmath.pi * _mp(m)) + mpmath.cosh(mpmath.pi * x))


@pytest.mark.parametrize("kind, n, p, m, m2", [
    ("bateman", 3, 3, 0, 0), ("bateman", 4, 2, 0, 0),
    ("pasternack", 2, 2, HALF, HALF), ("pasternack", 3, 1, HALF, HALF),
    ("biortho", 2, 2, F(1, 3), F(-1, 3)), ("biortho", 3, 1, F(1, 3), F(-1, 3)),
    ("pasternack", 2, 2, 0.4j, 0.4j),  # complex coefficients: no fold
])
def test_sech_integral_against_mpmath(kind, n, p, m, m2):
    """int F_n^m(ix) F_p^m2(ix) w(x) dx against mpmath.quad at 20 digits,
    with F from mpmath's 3F2."""
    scale, mp_weight = _sech_case(kind, m)
    [res] = orthogonality._sech_integral([(n, p)], m, m2, scale)
    mpm, mpm2 = _mp(m), _mp(m2)
    with mpmath.workdps(20):
        want = complex(mpmath.quad(
            lambda x: _mp_pasternack(n, mpm, 1j * x) * _mp_pasternack(p, mpm2, 1j * x)
            * mp_weight(x), [-mpmath.inf, 0, mpmath.inf]))
    assert abs(res.value - want) <= 1e-13 * max(abs(want), 1.0)
    assert res.mass >= abs(res.value) * (1.0 - 1e-15)


@pytest.mark.parametrize("check", [pasternack_ortho_check, pasternack_biortho_check])
def test_sech_estimate_covers_error_against_mpmath(monkeypatch, check):
    """[0, 0, 1/3], the rows whose value moved most when the rule began to
    stop on a predicted tail: int dx / (cos(pi/3) + cosh(pi x)) against
    mpmath.quad at 30 digits stays within the reported estimate."""
    seen, line_integral = [], orthogonality._line_integral

    def spy(*args):
        res = line_integral(*args)
        seen.append(res)
        return res

    monkeypatch.setattr(orthogonality, "_line_integral", spy)
    report = check(0, 0, F(1, 3))
    [[res]] = seen
    with mpmath.workdps(30):
        c = mpmath.cos(mpmath.pi / 3)
        want = mpmath.quad(lambda x: 1 / (c + mpmath.cosh(mpmath.pi * x)),
                           [-mpmath.inf, 0, mpmath.inf])
        error = float(abs(mpmath.mpc(res.value) - want))
    assert report.passed
    assert report.quad_diagnostics.estimated_error == res.error_estimate
    assert error <= res.error_estimate


@pytest.mark.parametrize("n, m", [(2, 2), (3, 2)])
def test_tanh_jacobi_integral_complex_parameters_against_mpmath(n, m):
    """The x = tanh u route of jacobi_ortho_check against the integral over
    [-1, 1] itself, with mpmath's Jacobi polynomials."""
    al, be = complex(0.5, 1.0), complex(0.5, -1.0)
    [res] = _tanh_product_integral([(jacobi_coeffs_complex(n, JacobiParams(al, be)),
                                     jacobi_coeffs_complex(m, JacobiParams(al, be)), 0.0)],
                                   al + 1, be + 1)
    a, b = mpmath.mpc(al), mpmath.mpc(be)
    with mpmath.workdps(20):
        want = complex(mpmath.quad(lambda t: (1 - t) ** a * (1 + t) ** b
                                   * mpmath.jacobi(n, a, b, t) * mpmath.jacobi(m, a, b, t),
                                   [-1, 0, 1]))
    assert abs(res.value - want) <= 1e-13 * max(abs(want), 1.0)


@pytest.mark.parametrize("check, args", [
    (bateman_ortho_check, (4, 0)),
    (pasternack_ortho_check, (3, 0, HALF)),
    (pasternack_biortho_check, (0, 3, F(1, 3))),
    (jacobi_ortho_check, (3, 2, complex(0.5, 1.0), complex(0.5, -1.0))),
])
def test_zero_expected_entry_reports_error_against_mass(check, args):
    # dividing by max(|expected|, 1e-300) read about 1e285 here
    r = check(*args)
    assert r.passed and r.max_rel_err <= 1e-13


@pytest.mark.parametrize("check, args, target", [
    (bateman_ortho_check, (1, 0), "_line_integral"),
    (pasternack_biortho_check, (2, 1, F(1, 3)), "_line_integral"),
    (jacobi_ortho_check, (3, 1, F(1, 3), F(3, 4)), "_tanh_product_integral"),
])
def test_zero_expected_entry_passes_on_tol_abs_alone(monkeypatch, check, args, target):
    """An off-diagonal value of 1e-9 over a mass of 1 is 1e-9 relative, inside
    the relative tolerance 1e-8, but ten times tol_abs: it must fail."""
    monkeypatch.setattr(orthogonality, target,
                        lambda *a, **k: [IntegralResult(1e-9, 0.0, 1, 1.0)])
    r = check(*args)
    assert r.max_rel_err == pytest.approx(1e-9)
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


@pytest.mark.parametrize("n, p, m", [(3, 3, 0), (3, 1, HALF), (2, 2, F(1, 3))])
def test_sech_fold_agrees_with_both_sides(monkeypatch, n, p, m):
    """Real coefficients: the folded level sums equal the ones that evaluate
    both signs, to rounding, on the same grid."""
    scale, _ = _sech_case("bateman" if m == 0 else "pasternack", m)
    args = ([(n, p)], m, m, scale)
    [folded] = orthogonality._sech_integral(*args)
    monkeypatch.setattr(quadrature, "integrate_line", _fold("none"))
    [both] = orthogonality._sech_integral(*args)
    assert abs(folded.value - both.value) <= 8 * _EPS * folded.mass
    assert folded.evaluations == both.evaluations


@pytest.mark.parametrize("check, args", [
    (bateman_ortho_check, (2, 2)),
    (pasternack_ortho_check, (1, 1, HALF)),
])
def test_sech_mutated_fold_sign_fails(monkeypatch, check, args):
    assert check(*args).passed
    monkeypatch.setattr(quadrature, "integrate_line", _fold("mutated"))
    assert not check(*args).passed


@pytest.mark.parametrize("params", [(1, HALF, F(3, 4), F(5, 4)), (HALF,) * 4])
def test_gram_fold_agrees_with_both_sides(monkeypatch, params):
    """Real parameters: the Gram's folded entries equal the ones that
    evaluate both signs, to rounding, on the same grid."""
    folded = chahn_gram(8, *params)
    monkeypatch.setattr(orthogonality, "integrate_line", _fold("none"))
    both = chahn_gram(8, *params)
    assert (folded.evaluations, folded.step) == (both.evaluations, both.step)
    for row, other, h in zip(folded.matrix, both.matrix, folded.expected_diagonal):
        assert all(abs(u - v) <= 1e-13 * abs(h) for u, v in zip(row, other))


@pytest.mark.parametrize("m, m2, distinct", [(0, 0, 5), (F(1, 3), F(-1, 3), 9)])
def test_sech_group_evaluates_each_polynomial_once_per_level(monkeypatch, m, m2, distinct):
    """Fifteen (n, p) pairs, n, p < 5, on one weight: one pass, and per level
    one Horner sweep per distinct polynomial (F_0 = 1 for both m and -m);
    each value is the pair's lone integral to within its estimate."""
    pairs = [(n, p) for n in range(5) for p in range(n + 1)]
    swept = []  # the node lists, kept alive so that their ids stay distinct

    def recorder(coeffs, xs):
        swept.append(xs)
        return horner_level(coeffs, xs)

    monkeypatch.setattr(quadrature, "horner_level", recorder)
    group = orthogonality._sech_integral(pairs, m, m2, 1.0)
    assert {sum(x is xs for x in swept) for xs in swept} == {distinct}
    assert len({res.evaluations for res in group}) == 1
    monkeypatch.undo()
    for pair, res in zip(pairs, group):
        [alone] = orthogonality._sech_integral([pair], m, m2, 1.0)
        assert res.evaluations >= alone.evaluations
        assert abs(res.value - alone.value) <= alone.error_estimate


def test_sech_narrow_strip_raises_before_evaluating(monkeypatch):
    """1 - |m| = 1e-4 sets the first step; that grid is over the node budget,
    which is checked before the level runs: only the centre is evaluated."""
    sizes = []

    def recorder(coeffs, xs):
        sizes.append(len(xs))
        return horner_level(coeffs, xs)

    monkeypatch.setattr(quadrature, "horner_level", recorder)
    t0 = time.perf_counter()
    with pytest.raises(QuadratureError):
        pasternack_ortho_check(1, 1, 0.9999)
    assert set(sizes) == {1}
    assert time.perf_counter() - t0 < 5.0
