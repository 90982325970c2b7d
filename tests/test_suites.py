"""The suite table: names, order, and which rows take a tolerance."""

import ast
from fractions import Fraction as F
from pathlib import Path

import pytest

from hahnlab import numerics, orthogonality, quadrature, suites
from hahnlab.errors import DomainError
from hahnlab.exact import GaussianRational
from hahnlab.orthogonality import (bateman_ortho_check, chahn_gram, jacobi_ortho_check,
                                   pasternack_biortho_check, pasternack_ortho_check)
from hahnlab.suites import SUITES, run_suites
from hahnlab.transforms import fourier_pair_check, mellin_pair_check

BENCH = Path(__file__).resolve().parents[1] / "bench"

QUADRATURE_SUITES = ("barnes", "bateman", "pasternack", "biortho", "jacobi-ortho",
                     "chahn-gram", "fourier", "mellin", "parseval")
EXACT_SUITES = ("contiguous", "genfun-jacobi", "genfun-chahn", "jacobi-classical",
                "operator", "shifted-operator", "recurrence", "reflection")


def _dicts(reports):
    return [r.to_dict() for r in reports]


@pytest.fixture(scope="module")
def all_reports():
    return run_suites("all")


def test_all_check_names_in_report_order(all_reports):
    expected = (BENCH / "verify_all_checks.txt").read_text(encoding="utf-8").split("\n")
    assert [r.name for r in all_reports] == [line for line in expected if line]
    assert all(r.passed for r in all_reports)


def test_all_suites_cold_and_warm_are_equal():
    """A second run in the same process reads the weight memo warm, and the
    polynomial memo, and reports the same to the last bit."""
    numerics._weight_memo.cache_clear()
    cold = _dicts(run_suites("all"))
    assert _dicts(run_suites("all")) == cold


# trapezoid passes per quadrature suite: one per weight where rows share one
PASSES = {"barnes": 4, "bateman": 1, "pasternack": 3, "biortho": 1, "jacobi-ortho": 3,
          "chahn-gram": 2, "fourier": 2, "mellin": 1, "parseval": 6}


def test_all_suites_node_budget(monkeypatch):
    """Trapezoid nodes over every pass of every quadrature suite, each pass
    counted once: the rows of one weight share a pass and each reports its
    node count, so a sum over the rows' evaluations would count a shared
    pass once per row.  The rule stops on the predicted tail of its changes,
    one level before the change itself would pass (13,691 nodes when it
    waited for the change; 33,520 in 100 passes when each row had its own),
    and the sech envelope bounds each polynomial by sum |c_j| |x|^j (8,315
    nodes; 8,419 with sum |c_j| max(1, |x|)^deg); a rule that confirms the
    last level again, a suite that splits a weight's pass again, or a looser
    envelope, fails here."""
    nodes, driver = [], quadrature.integrate_line

    def counting(*args):
        res = driver(*args)
        nodes.append(res.nodes)
        return res

    # both modules that bind the driver: _line_integral's and the Gram's
    monkeypatch.setattr(quadrature, "integrate_line", counting)
    monkeypatch.setattr(orthogonality, "integrate_line", counting)
    passes = {}
    for name in QUADRATURE_SUITES:
        start = len(nodes)
        assert all(r.passed for r in SUITES[name](None))
        passes[name] = len(nodes) - start
    assert passes == PASSES
    assert sum(nodes) <= 8_345


# each regrouped suite's scalar check; a group is (*weight, cases), and a
# case becomes the scalar arguments with the weight after n (the transform
# pairs) or after the degrees (the orthogonality relations)
SCALAR_FORMS = {"bateman": bateman_ortho_check, "pasternack": pasternack_ortho_check,
                "biortho": pasternack_biortho_check, "jacobi-ortho": jacobi_ortho_check,
                "fourier": fourier_pair_check, "mellin": mellin_pair_check}


def _measured(report):
    """The quadrature value the details name (lhs= or measured=), else None."""
    for part in report.details.replace(";", " ").split():
        if part.startswith(("lhs=", "measured=")):
            return complex(part.split("=")[1])
    return None


@pytest.mark.parametrize("name", SCALAR_FORMS)
def test_grouped_rows_agree_with_the_scalar_checks(name):
    """Each row of a suite whose rows share a weight's pass, against its
    public scalar check called alone: the same name and verdict, in the same
    place, and the same integral to 1e-13 (the grouped pass may run further
    and wider than the row's own)."""
    [cases] = [row[3] for row in suites._TABLE if row[0] == name]
    alone = [SCALAR_FORMS[name](*((case[0], *weight, *case[1:])
                                  if name in ("fourier", "mellin") else (*case, *weight)))
             for *weight, group in cases for case in group]
    grouped = SUITES[name](None)
    assert [(r.name, r.status) for r in grouped] == [(r.name, r.status) for r in alone]
    for g, a in zip(grouped, alone):
        assert abs(g.max_abs_err - a.max_abs_err) <= 1e-13, g.name
        if _measured(a) is not None:
            assert abs(_measured(g) - _measured(a)) <= 1e-13, g.name


@pytest.mark.parametrize("params", [
    (F(1, 2),) * 4,
    (1, F(1, 2), F(3, 4), F(5, 4)),
    (GaussianRational(F(1, 2), F(1, 4)), GaussianRational(F(3, 4), F(-1, 4)),
     GaussianRational(F(1, 2), F(-1, 4)), GaussianRational(F(3, 4), F(1, 4))),
], ids=["all-1/2", "1-1/2-3/4-5/4", "conjugate-pair"])
def test_gram_16_node_budget(params):
    """The 16 x 16 Gram stops at h = 1/16 (1,153 to 1,185 nodes at 1/32)."""
    assert chahn_gram(16, *params).evaluations <= 593


def test_suite_keys_match_the_benchmark_span_names():
    """The benchmark reads one suite.<name> span per entry of its own list;
    a renamed or added suite would read 0 there without failing."""
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    names = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "SUITE_NAMES" for t in node.targets))
    assert tuple(SUITES) == names
    assert set(SUITES) == set(QUADRATURE_SUITES) | set(EXACT_SUITES)


@pytest.mark.parametrize("name", QUADRATURE_SUITES)
def test_quadrature_suites_receive_the_config(name, monkeypatch):
    """The quadrature's fixed settings reach every quadrature row: over a
    node budget of 15, too few for any row, the suite stops with one
    structured error row, not a partial result."""
    monkeypatch.setattr(quadrature, "_NODE_BUDGET", 15)
    reports = run_suites(name)
    assert [(r.name, r.status) for r in reports] == [(f"suite:{name}", "error")]


@pytest.mark.parametrize("name", EXACT_SUITES)
def test_exact_suites_ignore_config_and_tolerance(name, monkeypatch):
    """Neither the quadrature's node budget nor the tolerance moves an
    exact row."""
    default = _dicts(SUITES[name](None))
    assert default and all(d["status"] == "pass" for d in default)
    assert _dicts(SUITES[name](1e-30)) == default
    monkeypatch.setattr(quadrature, "_NODE_BUDGET", 15)
    assert _dicts(SUITES[name](None)) == default


def test_rows_call_the_check_bound_in_the_module(monkeypatch):
    calls = []

    def double(*args, **kwargs):
        calls.append((args, kwargs))
        return "report"

    monkeypatch.setattr(suites, "pasternack_reflection_check", double)
    monkeypatch.setattr(suites, "barnes_check", double)
    assert SUITES["reflection"](None) == ["report"] * 48
    assert all(kwargs == {} for _, kwargs in calls)
    calls.clear()
    assert SUITES["barnes"](None) == ["report"] * 4
    # no tolerance given: the check keeps its own default
    assert all(kwargs == {} for _, kwargs in calls)
    calls.clear()
    SUITES["barnes"](1e-6)
    assert all(kwargs == {"tol": 1e-6} for _, kwargs in calls)


def test_grouped_rows_call_the_list_form_bound_in_the_module(monkeypatch):
    """A row of groups calls the list form once per weight, as bound in the
    module at call time, and the group's reports are spliced in order."""
    calls = []

    def double(alpha, beta, cases, **kwargs):
        calls.append(kwargs)
        return [(alpha, beta, case) for case in cases]

    monkeypatch.setattr(suites, "fourier_pair_checks", double)
    reports = SUITES["fourier"](1e-6)
    assert calls == [{"tol": 1e-6}] * 2
    assert [(n, z) for *_, (n, _, _, z) in reports] == \
        [(n, z) for _ in range(2) for n in (0, 1, 3) for z in (0.0, 1.0, 5.0)]


@pytest.mark.parametrize("name_filter", ["no-such-suite", 1.5, None])
def test_a_filter_that_matches_no_suite_raises_domain_error(name_filter):
    """A filter that is in no suite name, or is not text, raises DomainError
    naming it and listing the suites, before any suite runs."""
    with pytest.raises(DomainError) as caught:
        run_suites(name_filter)
    assert str(caught.value) == \
        f"no suite matches {name_filter!r}; known: {', '.join(sorted(SUITES))}"


@pytest.mark.parametrize("tol", [-1e-8, float("nan"), float("inf"), 1j, "1e-6"])
def test_a_tolerance_that_is_not_a_finite_number_at_least_0_raises_domain_error(tol):
    """The rule of the command line's tolerance options (errors._require_tolerance);
    text is not a number, as at every gate."""
    with pytest.raises(DomainError) as caught:
        run_suites("reflection", tol)
    must = "a number" if isinstance(tol, str) else "a finite number >= 0"
    assert str(caught.value) == f"tol must be {must}, got {tol!r}"
