"""Named verification suites driven by the command line front end.

The suites are one table.  Each row is

    (suite name, check function, True for a quadrature check,
     argument tuples in report order)

and one driver turns a row into the suite callable tol -> list of
VerificationReport: it calls the check once per argument tuple.  The
integrals of a row that share a weight share one trapezoid pass: such a
row's check is a list form (fourier_pair_checks, jacobi_ortho_checks,
...), its argument tuples are one group per weight, and each call returns
the group's reports in order.  A quadrature check also gets tol=tol
unless tol is None, which leaves the check's own default tolerance; an
exact check takes no tolerance.  The quadrature itself has fixed targets
(hahnlab.quadrature), so tol moves only the verdict.  Suites are sized
to run in seconds; the full-size acceptance runs live in the test suite.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction

from .errors import DomainError, HahnlabError, _require_tolerance
from .exact import GaussianRational
from .identities import (contiguous_check, genfun_chahn_check,
                         genfun_jacobi_check, jacobi_classical_check)
from .operator_calculus import (hahn_operator_identity_check, recurrence_check,
                                shifted_operator_identity_check)
from .orthogonality import (barnes_check, bateman_ortho_checks, gram_check,
                            jacobi_ortho_checks, pasternack_biortho_checks,
                            pasternack_ortho_checks)
from .polynomials import HahnParams, pasternack_reflection_check
from .reports import VerificationReport
from .transforms import fourier_pair_checks, mellin_pair_checks, parseval_check

F = Fraction
_HALF = F(1, 2)
_ALL_HALF = (_HALF, _HALF, _HALF, _HALF)
_HAHN_TUPLE = (F(3, 4), F(2, 3), F(1, 2), F(2, 5))
_MELLIN_TUPLE = (F(3, 5), F(11, 10), F(1, 4), F(4, 5))
_CONJUGATE_PAIR = HahnParams(GaussianRational(F(1, 2), F(1, 3)),
                             GaussianRational(F(1, 4), F(1, 5)),
                             GaussianRational(F(1, 2), -F(1, 3)),
                             GaussianRational(F(1, 4), -F(1, 5)))

_TABLE = [
    ("barnes", barnes_check, True, [
        _ALL_HALF, (1, _HALF, F(3, 4), F(5, 4)), (2, F(1, 3), F(3, 2), F(3, 4)),
        (complex(0.5, 0.25), complex(0.75, -0.25), complex(0.5, -0.25),
         complex(0.75, 0.25))]),
    ("bateman", bateman_ortho_checks, True,
     [([(n, m) for n in range(5) for m in range(n + 1)],)]),
    ("pasternack", pasternack_ortho_checks, True,
     [(m, [(n, p) for n in range(4) for p in range(n + 1)]) for m in (F(1, 3), _HALF, 0)]),
    ("biortho", pasternack_biortho_checks, True,
     [(F(1, 3), [(n, p) for n in range(4) for p in range(4)])]),
    ("jacobi-ortho", jacobi_ortho_checks, True, [
        (0, 0, [(0, 0), (1, 1)]), (F(1, 3), F(3, 4), [(3, 1)]),
        (complex(0.5, 1.0), complex(0.5, -1.0), [(2, 2), (3, 2)])]),
    ("chahn-gram", gram_check, True, [
        ("chahn-gram[all 1/2]", *_ALL_HALF, 3),
        ("chahn-gram[1, 1/2, 3/4, 5/4]", 1, _HALF, F(3, 4), F(5, 4), 3)]),
    ("fourier", fourier_pair_checks, True,
     [(al, be, [(n, ga, de, z) for n in (0, 1, 3) for z in (0.0, 1.0, 5.0)])
      for al, be, ga, de in ((_HALF, _HALF, 0, 0), _MELLIN_TUPLE)]),
    ("mellin", mellin_pair_checks, True,
     [(*_MELLIN_TUPLE[:2],
       [(n, *_MELLIN_TUPLE[2:], lam) for n in (0, 2) for lam in (0.0, 0.7)])]),
    ("parseval", parseval_check, True, [
        (0, 0, *_ALL_HALF, 0, 0, 0, 0),
        (2, 1, F(3, 4), _HALF, F(1, 4), 1, F(1, 3), F(2, 5), F(1, 5), F(3, 5)),
        # orthogonality specialization gamma=c=alpha+a-1, delta=d=beta+b-1, n != m
        (2, 1, F(3, 4), _HALF, F(3, 4), 1, *_ALL_HALF)]),
    ("contiguous", contiguous_check, False,
     [(w, n, *p) for p in (_ALL_HALF, _HAHN_TUPLE)
      for w, first in ((1, 1), (2, 0)) for n in range(first, 7)]),
    ("genfun-jacobi", genfun_jacobi_check, False,
     [(w, *p, x, 10) for p in ((0, 0), (F(1, 3), F(3, 4)))
      for x in (F(1, 3), 1) for w in (1, 2)]),
    ("genfun-chahn", genfun_chahn_check, False,
     [(w, *p, z, 8) for p in (_ALL_HALF, _HAHN_TUPLE)
      for z in (F(1, 4), F(1, 3)) for w in (1, 2)]),
    ("jacobi-classical", jacobi_classical_check, False,
     [(which, n, F(1, 3), F(3, 4)) for n in range(9)
      for which in ("derivative", "eq454")]),
    ("operator", hahn_operator_identity_check, False,
     [(n, _HALF, _HALF, 0, 0) for n in range(6)]
     + [(n, F(2, 3), F(2, 3), 0, 0) for n in range(5)]
     + [(n, F(3, 4), F(5, 4), F(1, 3), F(2, 5)) for n in range(5)]),
    ("shifted-operator", shifted_operator_identity_check, False,
     [(F(3, 4), F(5, 4), r) for r in range(9)]
     + [(F(1, 3), F(7, 5), r) for r in (1, 4, 8)]),
    ("recurrence", recurrence_check, False,
     [(label, p, n) for label, p in (("all 1/2", HahnParams(*_ALL_HALF)),
                                     ("conjugate pair", _CONJUGATE_PAIR))
      for n in range(1, 7)]),
    ("reflection", pasternack_reflection_check, False,
     [(n, m) for m in (F(1, 4), F(1, 3), _HALF, F(2, 3)) for n in range(1, 13)]),
]


def _suite(check: Callable, quadrature: bool, cases: list) -> Callable:
    def run(tol: float | None) -> list[VerificationReport]:
        # looked up by name at call time, so a rebinding of this module's
        # name (a test double, a tracing wrapper) is what runs
        fn = globals()[check.__name__]
        kwargs = {} if not quadrature or tol is None else {"tol": tol}
        reports = []
        for args in cases:
            out = fn(*args, **kwargs)
            if isinstance(out, list):  # a list form: its group's reports
                reports.extend(out)
            else:
                reports.append(out)
        return reports
    return run


SUITES: dict[str, Callable] = {name: _suite(*row) for name, *row in _TABLE}


def run_suites(name_filter: str, tol: float | None = None) -> list[VerificationReport]:
    """Run every suite whose name contains the filter ('all' runs everything);
    DomainError for a filter that matches none (or is not text) or a bad tol."""
    selected = [k for k in SUITES if name_filter == "all"
                or isinstance(name_filter, str) and name_filter in k]
    if not selected:
        raise DomainError(f"no suite matches {name_filter!r}; "
                          f"known: {', '.join(sorted(SUITES))}")
    if tol is not None:
        tol = _require_tolerance("tol", tol)
    reports: list[VerificationReport] = []
    for key in selected:
        try:
            reports.extend(SUITES[key](tol))
        except HahnlabError as exc:
            reports.append(VerificationReport(
                f"suite:{key}", "error", float("inf"), float("inf"), str(exc)))
    return reports
