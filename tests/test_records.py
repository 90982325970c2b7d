"""The result and parameter records: plain read-only classes with the
equality, hashing, repr, pickling and defaults of frozen records."""

import copy
import pickle
from fractions import Fraction

import pytest

from hahnlab.errors import ExactInputError
from hahnlab.exact import ExactPoly, GaussianRational
from hahnlab.numerics import LogGammaValue
from hahnlab.operator_calculus import WeightedTanhFunction
from hahnlab.orthogonality import GramResult
from hahnlab.polynomials import HahnParams, JacobiParams
from hahnlab.quadrature import IntegralResult, TrapezoidResult
from hahnlab.reports import QuadDiagnostics, VerificationReport

F = Fraction

# (record, an unequal one of its class, its repr, whether it hashes)
_CASES = [
    (JacobiParams(F(1, 3), 2), JacobiParams(F(1, 3), 3),
     "JacobiParams(gamma=Fraction(1, 3), delta=2)", True),
    (HahnParams(0.5, GaussianRational(F(1, 2), 1), 1, 0.875j), HahnParams(0.5, 0.5, 1, 0.875j),
     "HahnParams(a=0.5, b=GaussianRational(Fraction(1, 2), Fraction(1, 1)), c=1, d=0.875j)",
     True),
    (QuadDiagnostics(12, 1e-16), QuadDiagnostics(12, 2e-16),
     "QuadDiagnostics(evaluations=12, estimated_error=1e-16)", True),
    (VerificationReport("q", "fail", 1e-3, 2e-3, "d", QuadDiagnostics(3, 0.5)),
     VerificationReport("q", "fail", 1e-3, 2e-3, "d"),
     "VerificationReport(name='q', status='fail', max_abs_err=0.001, max_rel_err=0.002,"
     " details='d', quad_diagnostics=QuadDiagnostics(evaluations=3, estimated_error=0.5))",
     True),
    (IntegralResult(1 + 2j, 1e-15, 9), IntegralResult(1 + 2j, 1e-15, 9, 1.0),
     "IntegralResult(value=(1+2j), error_estimate=1e-15, evaluations=9, mass=0.0)", True),
    (TrapezoidResult([1j], [0.0], 0.25, 17, 4.0, 0.5),
     TrapezoidResult([1j], [0.0], 0.25, 17, 4.5, 0.5),
     "TrapezoidResult(values=[1j], changes=[0.0], step=0.25, nodes=17, radius=4.0,"
     " first_step=0.5)", False),
    (LogGammaValue(0.5, -1.0), LogGammaValue(0.5, 1.0),
     "LogGammaValue(log_modulus=0.5, phase=-1.0)", True),
    (GramResult([[1j]], [1j], 0.0, 0.0), GramResult([[1j]], [1j], 0.0, 0.0, 1e-17),
     "GramResult(matrix=[[1j]], expected_diagonal=[1j], max_offdiag_abs=0.0,"
     " max_diag_rel_err=0.0, max_offdiag_scaled=0.0, evaluations=0, step=0.0,"
     " truncation_radius=0.0, estimated_error=0.0)", False),
    (WeightedTanhFunction(1, F(1, 2), ExactPoly([1, 2])),
     WeightedTanhFunction(1, F(1, 2), ExactPoly([1, 3])),
     "WeightedTanhFunction(alpha=GaussianRational(Fraction(1, 1), Fraction(0, 1)),"
     " beta=GaussianRational(Fraction(1, 2), Fraction(0, 1)), poly=ExactPoly(['1', '2']))",
     True),
]


@pytest.mark.parametrize("record, other, text, hashable", _CASES,
                         ids=[type(case[0]).__name__ for case in _CASES])
def test_record_contract(record, other, text, hashable):
    """repr is Name(field=value, ...); pickle and copies are equal records
    of the same class, with the hash of the field tuple where the fields
    hash; a field cannot be assigned and a record has no __dict__."""
    assert repr(record) == text
    values = tuple(getattr(record, name) for name in record._fields)
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is type(record) and twin == record and not twin != record
        if hashable:
            assert hash(twin) == hash(record) == hash(values)
    assert record != other and not record == other
    if not hashable:
        with pytest.raises(TypeError):
            hash(record)
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], values[0])
    assert not hasattr(record, "__dict__")


def test_record_defaults():
    report = VerificationReport("c", "pass", 0.0, 0.0)
    assert report.details == "" and report.quad_diagnostics is None
    assert IntegralResult(1j, 0.0, 3).mass == 0.0
    gram = GramResult([[1j]], [1j], 0.0, 0.0)
    assert (gram.max_offdiag_scaled, gram.evaluations, gram.step, gram.truncation_radius,
            gram.estimated_error) == (0.0, 0, 0.0, 0.0, 0.0)


def test_weighted_tanh_function_holds_fractions():
    """alpha and beta are coerced by gr: GaussianRationals over Q(i), equal to
    the int or Fraction given; a float is refused, never taken at its binary
    value."""
    f = WeightedTanhFunction(1, F(1, 2), ExactPoly.one())
    assert type(f.alpha) is GaussianRational and type(f.beta) is GaussianRational
    assert (f.alpha, f.beta) == (1, F(1, 2))
    assert pickle.loads(pickle.dumps(f)) == f
    g = WeightedTanhFunction(GaussianRational(F(1, 2), F(1, 3)), 2, ExactPoly.one())
    assert g.alpha == GaussianRational(F(1, 2), F(1, 3)) and pickle.loads(pickle.dumps(g)) == g
    with pytest.raises(ExactInputError):
        WeightedTanhFunction(1, 0.5, ExactPoly.one())
