"""Computation and verification toolkit for Jacobi, continuous Hahn,
Bateman and Pasternack polynomials.

The names below, and the submodules (hahnlab.numerics, ...), load on first
use (PEP 562): importing hahnlab imports none of the submodules, and
`hahnlab eval` loads only what it evaluates with."""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("DomainError", "ExactInputError", "HahnlabError", "PoleError",
               "QuadratureError", "RangeOverflowError", "StructureError"),
    "exact": ("ExactPoly", "GaussianRational", "gr"),
    "identities": ("pasternack_reflection_check",),
    "numerics": ("LogGammaValue", "beta", "gamma", "hahn_weight", "log_gamma", "pochhammer"),
    "polynomials": ("HahnParams", "JacobiParams", "chahn_coeffs_exact", "chahn_eval",
                    "jacobi_coeffs_exact", "jacobi_eval", "pasternack_coeffs_exact",
                    "pasternack_eval"),
    "quadrature": ("IntegralResult",),
    "reports": ("QuadDiagnostics", "VerificationReport"),
}
_SUBMODULES = ("cli", "errors", "exact", "identities", "numerics", "operator_calculus",
               "orthogonality", "polynomials", "quadrature", "reports", "series", "suites",
               "transforms")
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")  # binds it here too
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *_HOMES, *_SUBMODULES})
