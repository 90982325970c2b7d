"""Named verification suites driven by the command line front end.

Every suite returns a list of VerificationReport.  Suites are sized to
run in seconds; the full-size acceptance runs live in the test suite.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .errors import HahnlabError
from .exact import GaussianRational
from .identities import (contiguous_check, genfun_chahn_check,
                         genfun_jacobi_check, jacobi_classical_check)
from .operator_calculus import (derive_recurrence, hahn_operator_identity_check,
                                shifted_operator_identity_check)
from .orthogonality import (barnes_check, bateman_ortho_check, chahn_gram,
                            jacobi_ortho_check, pasternack_biortho_check,
                            pasternack_ortho_check)
from .polynomials import HahnParams, chahn_coeffs_exact, pasternack_reflection_check
from .quadrature import DEFAULT_CONFIG, QuadratureConfig
from .reports import VerificationReport
from .transforms import fourier_pair_check, mellin_pair_check, parseval_check

F = Fraction
_HALF = F(1, 2)


def _tol(tol: float | None, default: float) -> float:
    return default if tol is None else tol


def suite_barnes(config: QuadratureConfig, tol: float | None):
    tuples = [
        (_HALF, _HALF, _HALF, _HALF),
        (1, _HALF, F(3, 4), F(5, 4)),
        (2, F(1, 3), F(3, 2), F(3, 4)),
        (complex(0.5, 0.25), complex(0.75, -0.25), complex(0.5, -0.25), complex(0.75, 0.25)),
    ]
    return [barnes_check(*p, config=config, tol=_tol(tol, 1e-9)) for p in tuples]


def suite_bateman(config: QuadratureConfig, tol: float | None):
    return [bateman_ortho_check(n, m, config=config, tol=_tol(tol, 1e-8))
            for n in range(5) for m in range(n + 1)]


def suite_pasternack(config: QuadratureConfig, tol: float | None):
    out = []
    for m in (F(1, 3), _HALF, 0):
        out.extend(pasternack_ortho_check(n, p, m, config=config, tol=_tol(tol, 1e-8))
                   for n in range(4) for p in range(n + 1))
    return out


def suite_biortho(config: QuadratureConfig, tol: float | None):
    return [pasternack_biortho_check(n, p, F(1, 3), config=config, tol=_tol(tol, 1e-8))
            for n in range(4) for p in range(4)]


def suite_jacobi_ortho(config: QuadratureConfig, tol: float | None):
    cases = [(0, 0, 0, 0), (1, 1, 0, 0), (3, 1, F(1, 3), F(3, 4)),
             (2, 2, complex(0.5, 1.0), complex(0.5, -1.0)),
             (3, 2, complex(0.5, 1.0), complex(0.5, -1.0))]
    return [jacobi_ortho_check(n, m, a, b, config=config, tol=_tol(tol, 1e-9))
            for n, m, a, b in cases]


def _gram_report(name: str, alpha, beta, a, b, N: int,
                 config: QuadratureConfig, diag_tol: float,
                 offdiag_tol: float) -> VerificationReport:
    g = chahn_gram(N, alpha, beta, a, b, config=config)
    ok = g.max_diag_rel_err <= diag_tol and g.max_offdiag_scaled <= offdiag_tol
    return VerificationReport(
        name, "pass" if ok else "fail", g.max_offdiag_scaled, g.max_diag_rel_err,
        f"N={N}; diag tol {diag_tol:g}, norm-scaled offdiag tol {offdiag_tol:g}; "
        f"trapezoid step {g.step:g}, truncation radius {g.truncation_radius:g}",
        g.diagnostics())


def suite_chahn_gram(config: QuadratureConfig, tol: float | None):
    diag_tol = _tol(tol, 1e-8)
    return [
        _gram_report("chahn-gram[all 1/2]", _HALF, _HALF, _HALF, _HALF, 3,
                     config, diag_tol, 1e-10),
        _gram_report("chahn-gram[1, 1/2, 3/4, 5/4]", 1, _HALF, F(3, 4), F(5, 4), 3,
                     config, diag_tol, 1e-10),
    ]


def suite_fourier(config: QuadratureConfig, tol: float | None):
    out = []
    for al, be, ga, de in [(_HALF, _HALF, 0, 0), (F(3, 5), F(11, 10), F(1, 4), F(4, 5))]:
        for n in (0, 1, 3):
            for z in (0.0, 1.0, 5.0):
                out.append(fourier_pair_check(n, al, be, ga, de, z,
                                              config=config, tol=_tol(tol, 1e-8)))
    return out


def suite_mellin(config: QuadratureConfig, tol: float | None):
    out = []
    for n in (0, 2):
        for lam in (0.0, 0.7):
            out.append(mellin_pair_check(n, F(3, 5), F(11, 10), F(1, 4), F(4, 5),
                                         lam, config=config, tol=_tol(tol, 1e-8)))
    return out


def suite_parseval(config: QuadratureConfig, tol: float | None):
    t = _tol(tol, 1e-8)
    half = _HALF
    out = [
        parseval_check(0, 0, half, half, half, half, 0, 0, 0, 0, config=config, tol=t),
        parseval_check(2, 1, F(3, 4), half, F(1, 4), 1, F(1, 3), F(2, 5), F(1, 5), F(3, 5),
                       config=config, tol=t),
        # orthogonality specialization gamma=c=alpha+a-1, delta=d=beta+b-1, n != m
        parseval_check(2, 1, F(3, 4), half, F(3, 4), 1, half, half, half, half,
                       config=config, tol=t),
    ]
    return out


def suite_contiguous(config: QuadratureConfig, tol: float | None):
    out = []
    for al, be, ga, de in [(_HALF, _HALF, _HALF, _HALF),
                           (F(3, 4), F(2, 3), F(1, 2), F(2, 5))]:
        out.extend(contiguous_check(1, n, al, be, ga, de) for n in range(1, 7))
        out.extend(contiguous_check(2, n, al, be, ga, de) for n in range(0, 7))
    return out


def suite_genfun_jacobi(config: QuadratureConfig, tol: float | None):
    out = []
    for ga, de in [(0, 0), (F(1, 3), F(3, 4))]:
        for x in (F(1, 3), 1):
            out.append(genfun_jacobi_check(1, ga, de, x, 10))
            out.append(genfun_jacobi_check(2, ga, de, x, 10))
    return out


def suite_genfun_chahn(config: QuadratureConfig, tol: float | None):
    out = []
    for params in [(_HALF, _HALF, _HALF, _HALF), (F(3, 4), F(2, 3), F(1, 2), F(2, 5))]:
        for z in (F(1, 4), F(1, 3)):
            out.append(genfun_chahn_check(1, *params, z, 8))
            out.append(genfun_chahn_check(2, *params, z, 8))
    return out


def suite_jacobi_classical(config: QuadratureConfig, tol: float | None):
    out = []
    for n in range(0, 9):
        out.append(jacobi_classical_check("derivative", n, F(1, 3), F(3, 4)))
        out.append(jacobi_classical_check("eq454", n, F(1, 3), F(3, 4)))
    return out


def suite_operator(config: QuadratureConfig, tol: float | None):
    out = [hahn_operator_identity_check(n, _HALF, _HALF, 0, 0) for n in range(6)]
    out += [hahn_operator_identity_check(n, F(2, 3), F(2, 3), 0, 0) for n in range(5)]
    out += [hahn_operator_identity_check(n, F(3, 4), F(5, 4), F(1, 3), F(2, 5))
            for n in range(5)]
    return out


def suite_shifted_operator(config: QuadratureConfig, tol: float | None):
    out = [shifted_operator_identity_check(F(3, 4), F(5, 4), r) for r in range(9)]
    out += [shifted_operator_identity_check(F(1, 3), F(7, 5), r) for r in (1, 4, 8)]
    return out


def suite_recurrence(config: QuadratureConfig, tol: float | None):
    out = []
    tuples = [
        ("all 1/2", HahnParams(_HALF, _HALF, _HALF, _HALF)),
        ("conjugate pair", HahnParams(GaussianRational(F(1, 2), F(1, 3)),
                                      GaussianRational(F(1, 4), F(1, 5)),
                                      GaussianRational(F(1, 2), -F(1, 3)),
                                      GaussianRational(F(1, 4), -F(1, 5)))),
    ]
    for label, params in tuples:
        for n in range(1, 7):
            name = f"recurrence[{label}, n={n}]"
            try:
                a_n, _, _ = derive_recurrence(n, params)
                lc_ratio = chahn_coeffs_exact(n, params).leading_coefficient \
                    / chahn_coeffs_exact(n + 1, params).leading_coefficient
                ok = a_n == lc_ratio
                out.append(VerificationReport(
                    name, "pass" if ok else "fail", 0.0 if ok else float("nan"),
                    0.0, f"A_n={a_n}"))
            except HahnlabError as exc:
                out.append(VerificationReport(name, "fail", float("inf"),
                                              float("inf"), str(exc)))
    return out


def suite_reflection(config: QuadratureConfig, tol: float | None):
    return [pasternack_reflection_check(n, m)
            for m in (F(1, 4), F(1, 3), _HALF, F(2, 3))
            for n in range(1, 13)]


SUITES: dict[str, Callable] = {
    "barnes": suite_barnes,
    "bateman": suite_bateman,
    "pasternack": suite_pasternack,
    "biortho": suite_biortho,
    "jacobi-ortho": suite_jacobi_ortho,
    "chahn-gram": suite_chahn_gram,
    "fourier": suite_fourier,
    "mellin": suite_mellin,
    "parseval": suite_parseval,
    "contiguous": suite_contiguous,
    "genfun-jacobi": suite_genfun_jacobi,
    "genfun-chahn": suite_genfun_chahn,
    "jacobi-classical": suite_jacobi_classical,
    "operator": suite_operator,
    "shifted-operator": suite_shifted_operator,
    "recurrence": suite_recurrence,
    "reflection": suite_reflection,
}


def run_suites(name_filter: str, config: QuadratureConfig = DEFAULT_CONFIG,
               tol: float | None = None) -> list[VerificationReport]:
    """Run every suite whose name contains the filter ('all' runs everything)."""
    selected = [k for k in SUITES
                if name_filter == "all" or name_filter in k]
    if not selected:
        raise KeyError(f"no suite matches {name_filter!r}; "
                       f"known: {', '.join(sorted(SUITES))}")
    reports: list[VerificationReport] = []
    for key in selected:
        try:
            reports.extend(SUITES[key](config, tol))
        except HahnlabError as exc:
            reports.append(VerificationReport(
                f"suite:{key}", "error", float("inf"), float("inf"), str(exc)))
    return reports
