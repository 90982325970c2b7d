"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  Numerical criteria carry explicit
relative/absolute tolerances; the exact criteria demand zero residuals.
"""

import math
import random
import time
from fractions import Fraction

from hahnlab.exact import GaussianRational
from hahnlab.identities import (contiguous_check, genfun_chahn_check,
                                genfun_jacobi_check, jacobi_classical_check,
                                pasternack_reflection_check)
from hahnlab.numerics import pochhammer
from hahnlab.operator_calculus import (derive_recurrence,
                                       hahn_operator_identity_check,
                                       shifted_operator_identity_check)
from hahnlab.orthogonality import (barnes_check, bateman_ortho_check,
                                   chahn_gram, jacobi_ortho_check,
                                   pasternack_biortho_check,
                                   pasternack_ortho_check, pi_m_over_sin_pi_m)
from hahnlab.polynomials import HahnParams
from hahnlab.transforms import fourier_pair_check, mellin_pair_check

F = Fraction
HALF = F(1, 2)

DIAG_REL = 1e-8
OFFDIAG_ABS = 1e-10


def _announce(tag: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_bateman_orthogonality():
    """Bateman Gram, n,m <= 10: diag 1e-8 rel, offdiag 1e-10 abs, < 30 s."""
    t0 = time.time()
    worst_diag = worst_off = 0.0
    for n in range(11):
        for m in range(n + 1):
            r = bateman_ortho_check(n, m, tol=DIAG_REL, tol_abs=OFFDIAG_ABS)
            assert r.passed, r.name
            if n == m:
                worst_diag = max(worst_diag, r.max_rel_err)
            else:
                worst_off = max(worst_off, r.max_abs_err)
    elapsed = time.time() - t0
    ok = worst_diag <= DIAG_REL and worst_off <= OFFDIAG_ABS and elapsed < 30.0
    _announce("1 bateman-orthogonality", ok,
              f"diag rel {worst_diag:.2e}, offdiag abs {worst_off:.2e}, {elapsed:.1f}s")


def test_criterion_2_pasternack_orthogonality():
    """Pasternack for m in {1/3, 1/2} and the m -> 0 limit, n,p <= 8."""
    worst_diag = worst_off = 0.0
    for m in (F(1, 3), HALF, 0):
        for n in range(9):
            for p in range(n + 1):
                r = pasternack_ortho_check(n, p, m,
                                           tol=DIAG_REL, tol_abs=OFFDIAG_ABS)
                assert r.passed, r.name
                if n == p:
                    worst_diag = max(worst_diag, r.max_rel_err)
                else:
                    worst_off = max(worst_off, r.max_abs_err)
    # Hardy's case: the m = 1/2 diagonal collapses to (-1)^n/(2n+1)^2,
    # already asserted inside the checks via the closed form
    ok = worst_diag <= DIAG_REL and worst_off <= OFFDIAG_ABS
    _announce("2 pasternack-orthogonality", ok,
              f"diag rel {worst_diag:.2e}, offdiag abs {worst_off:.2e}")


def test_criterion_3_biorthogonality():
    """Biorthogonality at m = 1/3, n,p <= 8: off-diagonal zeros at 1e-10;
    diagonal compared against the single-family relation through the exact
    reflection identity."""
    m = F(1, 3)
    worst_off = 0.0
    worst_diag = 0.0
    for n in range(9):
        for p in range(9):
            r = pasternack_biortho_check(n, p, m,
                                         tol=DIAG_REL, tol_abs=OFFDIAG_ABS)
            assert r.passed, r.name
            if n != p:
                worst_off = max(worst_off, r.max_abs_err)
            else:
                worst_diag = max(worst_diag, r.max_rel_err)
    # reflection identity consistency of the two closed forms:
    # biortho diagonal = (1+m)_n/(1-m)_n * ortho diagonal
    mx = float(m)
    worst_consistency = 0.0
    for n in range(9):
        bio = (2.0 * (-1.0) ** n / (math.pi * (2 * n + 1))) * pi_m_over_sin_pi_m(mx)
        ortho = ((-1.0) ** n / (2 * n + 1)) * (2.0 / math.pi) \
            * (pochhammer(1 - mx, n) / pochhammer(1 + mx, n)) * pi_m_over_sin_pi_m(mx)
        factor = pochhammer(1 + mx, n) / pochhammer(1 - mx, n)
        worst_consistency = max(worst_consistency,
                                abs(bio - factor * ortho) / abs(bio))
    ok = worst_off <= OFFDIAG_ABS and worst_consistency <= 1e-13
    _announce("3 biorthogonality", ok,
              f"offdiag abs {worst_off:.2e}, diag rel {worst_diag:.2e}, "
              f"reflection consistency {worst_consistency:.2e}")


def test_criterion_4_continuous_hahn_gram():
    """Three N=8 Gram matrices; diagonal matches the closed-form norm to
    1e-8 relative; under 2 minutes total."""
    t0 = time.time()
    param_sets = [
        ("all 1/2", (HALF, HALF, HALF, HALF)),
        ("(1, 1/2, 3/4, 5/4)", (1, HALF, F(3, 4), F(5, 4))),
        ("conjugate pair", (GaussianRational(F(1, 2), F(1, 4)),
                            GaussianRational(F(3, 4), F(-1, 4)),
                            GaussianRational(F(1, 2), F(-1, 4)),
                            GaussianRational(F(3, 4), F(1, 4)))),
    ]
    details = []
    worst = 0.0
    for label, params in param_sets:
        g = chahn_gram(8, *params)
        worst = max(worst, g.max_diag_rel_err)
        details.append(f"{label}: diag rel {g.max_diag_rel_err:.2e}")
    elapsed = time.time() - t0
    ok = worst <= DIAG_REL and elapsed < 120.0
    _announce("4 continuous-hahn-gram", ok,
              "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_5_barnes_first_lemma():
    """Ten random parameter tuples with real parts in [1/4, 2], 1e-9."""
    rng = random.Random(1908)
    worst = 0.0
    for k in range(10):
        re_parts = [rng.uniform(0.25, 2.0) for _ in range(4)]
        if k % 2 == 0:
            params = re_parts
        else:
            im = rng.uniform(-0.5, 0.5)
            params = [complex(re_parts[0], im), complex(re_parts[1], -im),
                      complex(re_parts[2], rng.uniform(-0.5, 0.5)),
                      complex(re_parts[3], rng.uniform(-0.5, 0.5))]
        r = barnes_check(*params, tol=1e-9)
        assert r.passed, r.name
        worst = max(worst, r.max_rel_err)
    _announce("5 barnes-first-lemma", worst <= 1e-9, f"worst rel {worst:.2e}")


FOURIER_TUPLES = [
    (HALF, HALF, 0, 0),
    (F(3, 5), F(11, 10), F(1, 4), F(4, 5)),
    (F(5, 4), F(3, 4), F(1, 3), F(5, 3)),
    (F(1, 4), F(7, 4), F(1, 2), F(1, 5)),
    (1, 1, F(3, 2), F(1, 2)),
]


def test_criterion_6_fourier_and_mellin_pairs():
    """Fourier pair n <= 8, z in {0, 1/2, 1, 2, 5}, five tuples, 1e-8;
    Mellin route consistent after substitution, sign finding recorded."""
    worst = 0.0
    for al, be, ga, de in FOURIER_TUPLES:
        for n in range(9):
            for z in (0.0, 0.5, 1.0, 2.0, 5.0):
                r = fourier_pair_check(n, al, be, ga, de, z, tol=1e-8)
                assert r.passed, f"{r.name} {r.details}"
                if r.max_rel_err < 1.0:
                    worst = max(worst, r.max_rel_err)
    sign_findings = 0
    worst_mellin = 0.0
    for al, be, ga, de in FOURIER_TUPLES:
        for n in (0, 2, 5, 8):
            for lam in (0.0, 0.25, 1.0):
                r = mellin_pair_check(n, al, be, ga, de, lam, tol=1e-8)
                assert r.passed, f"{r.name} {r.details}"
                if r.max_rel_err < 1.0:
                    worst_mellin = max(worst_mellin, r.max_rel_err)
                if lam and "Gamma(beta + i*lambda) convention matches" in r.details:
                    sign_findings += 1
    ok = worst <= 1e-8 and worst_mellin <= 1e-8 and sign_findings == len(FOURIER_TUPLES) * 4 * 2
    _announce("6 fourier-mellin-pairs", ok,
              f"fourier worst rel {worst:.2e}, mellin worst rel {worst_mellin:.2e}, "
              f"sign convention Gamma(beta+i*lambda) recorded {sign_findings}x")


OPERATOR_TUPLES = [
    (HALF, HALF, 0, 0),                    # Bateman specialization
    (F(2, 3), F(2, 3), 0, 0),              # Pasternack, m = 1/3
    (F(3, 4), F(5, 4), F(1, 3), F(2, 5)),
    (F(1, 3), F(7, 5), F(3, 7), F(1, 6)),
    (F(5, 6), F(1, 6), F(1, 4), F(3, 4)),
]

CONTIGUOUS_TUPLES = [
    (HALF, HALF, HALF, HALF),
    (F(3, 4), F(2, 3), F(1, 2), F(2, 5)),
    (F(1, 3), F(7, 5), F(3, 7), F(1, 6)),
]


def test_criterion_7_exact_suite():
    """Zero-residual requirements, no tolerances anywhere."""
    checks = 0
    # operator identity, n <= 8, Bateman and Pasternack specializations included
    for params in OPERATOR_TUPLES:
        for n in range(9):
            assert hahn_operator_identity_check(n, *params).passed
            checks += 1
    # shifted-factorial operator identity, r <= 8
    for alpha, beta in ((F(3, 4), F(5, 4)), (F(1, 3), F(7, 5))):
        for r in range(9):
            assert shifted_operator_identity_check(alpha, beta, r).passed
            checks += 1
    # both contiguous relations, n <= 10
    for params in CONTIGUOUS_TUPLES:
        for n in range(1, 11):
            assert contiguous_check(1, n, *params).passed
            checks += 1
        for n in range(0, 11):
            assert contiguous_check(2, n, *params).passed
            checks += 1
    # three-term recurrence structure, n <= 10 (lower coefficients exactly zero)
    rec_params = [
        HahnParams(HALF, HALF, HALF, HALF),
        HahnParams(F(1, 2), F(1, 3), F(1, 2), F(1, 3)),
        HahnParams(GaussianRational(F(1, 2), F(1, 3)),
                   GaussianRational(F(1, 4), F(1, 5)),
                   GaussianRational(F(1, 2), F(-1, 3)),
                   GaussianRational(F(1, 4), F(-1, 5))),
    ]
    for params in rec_params:
        for n in range(1, 11):
            derive_recurrence(n, params)  # raises on structure violation
            checks += 1
    # all four generating functions to order 12 at three rational points
    for x in (F(1, 3), F(-1, 2), 1):
        assert genfun_jacobi_check(1, F(1, 3), F(3, 4), x, 12).passed
        assert genfun_jacobi_check(2, F(1, 3), F(3, 4), x, 12).passed
        checks += 2
    for z in (F(1, 4), F(1, 3), F(-2, 5)):
        assert genfun_chahn_check(1, F(3, 4), F(2, 3), F(1, 2), F(2, 5), z, 12).passed
        assert genfun_chahn_check(2, F(3, 4), F(2, 3), F(1, 2), F(2, 5), z, 12).passed
        checks += 2
    # reflection identity, n <= 12
    for m in (F(1, 4), F(1, 3), HALF, F(2, 3)):
        for n in range(1, 13):
            assert pasternack_reflection_check(n, m).passed
            checks += 1
    # classical Jacobi identities backing the contiguous derivations
    for n in range(0, 11):
        assert jacobi_classical_check("derivative", n, F(1, 3), F(3, 4)).passed
        assert jacobi_classical_check("eq454", n, F(1, 3), F(3, 4)).passed
        checks += 2
    _announce("7 exact-suite", True, f"{checks} exact checks, zero residuals")


def test_criterion_8_jacobi_orthogonality():
    """Jacobi orthogonality at 1e-9 including the complex-parameter case
    alpha = 1/2 + i, beta = 1/2 - i."""
    worst = 0.0
    cases = [(0, 0, 0, 0), (1, 1, 0, 0), (3, 3, F(1, 3), F(3, 4)),
             (4, 2, F(1, 3), F(3, 4)), (2, 2, -0.5, F(1, 4))]
    alpha_c = GaussianRational(F(1, 2), 1)
    beta_c = GaussianRational(F(1, 2), -1)
    cases += [(2, 2, alpha_c, beta_c), (3, 1, alpha_c, beta_c),
              (4, 4, alpha_c, beta_c)]
    for n, m, al, be in cases:
        r = jacobi_ortho_check(n, m, al, be, tol=1e-9, tol_abs=1e-11)
        assert r.passed, r.name
        if n == m:
            worst = max(worst, r.max_rel_err)
    _announce("8 jacobi-orthogonality", worst <= 1e-9, f"worst diag rel {worst:.2e}")
