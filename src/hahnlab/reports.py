"""Verification report records shared by every *_check operation."""

from __future__ import annotations

from collections import namedtuple


class QuadDiagnostics(namedtuple("QuadDiagnostics", "evaluations estimated_error")):
    """What a quadrature check cost: evaluations is the number of nested
    trapezoid nodes, both signs counted, of the pass that computed the row,
    summed over the check's integrals (every quadrature check runs on the
    trapezoidal rule in u after the map z = c sinh u).  Rows whose integrals
    share a weight share its pass (the list forms, such as
    fourier_pair_checks), so each of them reports that pass's whole count.
    estimated_error is the trapezoid's estimate of the row's own value (the
    predicted tail of its changes, else its last change) floored at the
    rounding of the node values and at the cut tails, summed over the
    integrals (norm-scaled for a Gram matrix)."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return self._asdict()


class VerificationReport(namedtuple(
        "VerificationReport", "name status max_abs_err max_rel_err details quad_diagnostics",
        defaults=("", None))):
    """Outcome of one named check.

    status is "pass" exactly when the measured errors are within the
    tolerance the caller asked for; "error" marks checks that could not
    run to completion (status: pass | fail | error).  quad_diagnostics is a
    QuadDiagnostics or None.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        """The fields, without quad_diagnostics when it is None."""
        out = self._asdict()
        if out.pop("quad_diagnostics") is not None:
            out["quad_diagnostics"] = self.quad_diagnostics.to_dict()
        return out


def exact_report(name: str, residual_abs: float, details: str = "") -> VerificationReport:
    """Report for a zero-residual check: pass iff the residual is exactly 0."""
    status = "pass" if residual_abs == 0.0 else "fail"
    return VerificationReport(name, status, residual_abs,
                              float("inf") if residual_abs else 0.0, details)


def residual_report(name: str, residual, note: str = "") -> VerificationReport:
    """exact_report of an exact polynomial residual lhs - rhs; the details
    are the note, followed by the residual itself when it is nonzero."""
    detail = note
    if not residual.is_zero():
        detail = (note + "; " if note else "") + f"residual {residual}"
    return exact_report(name, residual.max_abs_coefficient(), detail)


def integral_report(name: str, abs_err: float, scale: float, mass: float,
                    tol_rel: float, tol_abs: float, details: str = "",
                    diagnostics: QuadDiagnostics | None = None) -> VerificationReport:
    """Report of an integral whose error abs_err has the scale |expected|:
    it passes when abs_err / scale is within tol_rel or abs_err within
    tol_abs.  A scale of exactly 0 (an off-diagonal entry, a relation whose
    value is known to vanish) gives a relative error no meaning: it is then
    taken against the integrand's |f| mass, and the entry passes on tol_abs
    alone, so the mass scales the figure reported but never the verdict."""
    if scale == 0.0:
        rel_err, ok = abs_err / max(mass, 1e-300), abs_err <= tol_abs
    else:
        rel_err = abs_err / scale
        ok = rel_err <= tol_rel or abs_err <= tol_abs
    return VerificationReport(name, "pass" if ok else "fail",
                              abs_err, rel_err, details, diagnostics)
