"""The suite table: names, order, and which rows take a tolerance."""

import ast
from fractions import Fraction as F
from pathlib import Path

import pytest

from hahnlab import numerics, quadrature, suites
from hahnlab.exact import GaussianRational
from hahnlab.orthogonality import chahn_gram
from hahnlab.suites import SUITES, run_suites

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


def test_all_suites_node_budget(all_reports):
    """Trapezoid nodes over every quadrature row.  The rule stops on the
    predicted tail of its changes, one level before the change itself would
    pass (43,784 nodes when it waited for the change); a rule that confirms
    the last level again fails here."""
    total = sum(r.quad_diagnostics.evaluations for r in all_reports
                if r.quad_diagnostics is not None)
    assert total <= 33_600


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
