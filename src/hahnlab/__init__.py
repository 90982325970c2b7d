"""Computation and verification toolkit for Jacobi, continuous Hahn,
Bateman and Pasternack polynomials."""

from .errors import (DomainError, ExactInputError, HahnlabError, PoleError,
                     QuadratureError, RangeOverflowError, StructureError)
from .exact import ExactPoly, GaussianRational, gr
from .numerics import (LogGammaValue, beta, gamma, hahn_weight, log_gamma,
                       pochhammer)
from .polynomials import (HahnParams, JacobiParams, chahn_coeffs_exact,
                          chahn_eval, jacobi_coeffs_exact, jacobi_eval,
                          pasternack_coeffs_exact, pasternack_eval,
                          pasternack_reflection_check)
from .quadrature import IntegralResult
from .reports import QuadDiagnostics, VerificationReport

__version__ = "0.1.0"

__all__ = [
    "DomainError", "ExactInputError", "HahnlabError", "PoleError",
    "QuadratureError", "RangeOverflowError", "StructureError",
    "ExactPoly", "GaussianRational", "gr",
    "LogGammaValue", "beta", "gamma", "hahn_weight", "log_gamma", "pochhammer",
    "HahnParams", "JacobiParams", "chahn_coeffs_exact", "chahn_eval",
    "jacobi_coeffs_exact", "jacobi_eval", "pasternack_coeffs_exact",
    "pasternack_eval", "pasternack_reflection_check",
    "IntegralResult",
    "QuadDiagnostics", "VerificationReport",
    "__version__",
]
