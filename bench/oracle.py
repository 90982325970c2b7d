"""Reference values and output checks, computed before any timing starts.

eval: each polynomial is the terminating sum pref * sum_k r_k prod_{j<k} L_j(x)
with rational r_k and linear factors L_j, evaluated exactly in integers
(every input is a dyadic rational) and rounded once to a double.  This
code shares nothing with hahnlab's own evaluation.

gram: the closed-form squared norms, from mpmath's complex gamma at two
working precisions that must agree.

verify-all: the check names the seed commit reports, in order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path

EVAL_REL_TOL = 1e-10
GRAM_DIAG_REL_TOL = 1e-8
GRAM_OFFDIAG_SCALED_TOL = 1e-10

VERIFY_NAMES_FILE = Path(__file__).with_name("verify_all_checks.txt")

# every linear factor L_j(x) times this is a Gaussian integer when the
# parameters are multiples of 1/16 and x a multiple of 1/1024
_SCALE = 2048


def _pochhammer(a: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for j in range(k):
        out *= a + j
    return out


def _series(family: str, n: int, params: list[Fraction]):
    """(pref as (re, im) Fractions, ratios r_1..r_n, offsets alpha_j as
    (re, im), slope beta as (re, im)) for L_j(x) = alpha_j + beta * x."""
    one = Fraction(1)
    if family == "jacobi":
        g, d = params
        pref = (_pochhammer(g + 1, n) / math.factorial(n), Fraction(0))
        ratio = [Fraction(k - n) * (n + g + d + 1 + k) / ((g + 1 + k) * (k + 1))
                 for k in range(n)]
        alphas = [(Fraction(1, 2), Fraction(0))] * n
        beta = (Fraction(-1, 2), Fraction(0))
    elif family == "chahn":
        a, b, c, d = params
        s = a + b + c + d
        mag = _pochhammer(a + c, n) * _pochhammer(a + d, n) / math.factorial(n)
        pref = [(mag, Fraction(0)), (Fraction(0), mag),
                (-mag, Fraction(0)), (Fraction(0), -mag)][n % 4]
        ratio = [Fraction(k - n) * (n + s - 1 + k) / ((a + c + k) * (a + d + k) * (k + 1))
                 for k in range(n)]
        alphas = [(a + j, Fraction(0)) for j in range(n)]
        beta = (Fraction(0), one)
    elif family == "pasternack":
        (m,) = params
        pref = (one, Fraction(0))
        ratio = [Fraction(k - n) * (n + 1 + k) / ((1 + k) * (m + 1 + k) * (k + 1))
                 for k in range(n)]
        alphas = [((1 + m) / 2 + j, Fraction(0)) for j in range(n)]
        beta = (Fraction(1, 2), Fraction(0))
    else:
        raise ValueError(f"unknown family {family!r}")
    return pref, ratio, alphas, beta


class ExactEvaluator:
    """Exact values of one polynomial (family, degree, parameters) at
    x = (X + iY) / x_denom, rounded once to complex doubles."""

    def __init__(self, family: str, n: int, params: list[str], x_denom: int):
        pref, ratio, alphas, beta = _series(family, n, [Fraction(p) for p in params])
        r = [Fraction(1)]
        for q in ratio:
            r.append(r[-1] * q)
        den = math.lcm(*(v.denominator for v in r))
        # M_k = N_k S^(n-k) with r_k = N_k / den
        self.m = [v.numerator * (den // v.denominator) * _SCALE ** (n - k)
                  for k, v in enumerate(r)]
        self.offsets = []
        for re, im in alphas:
            for part in (re * _SCALE, im * _SCALE):
                if part.denominator != 1:
                    raise ValueError("parameters must be multiples of 1/16")
            self.offsets.append((int(re * _SCALE), int(im * _SCALE)))
        slope_re = beta[0] * _SCALE / x_denom
        slope_im = beta[1] * _SCALE / x_denom
        if slope_re.denominator != 1 or slope_im.denominator != 1:
            raise ValueError("x_denom too fine for the oracle scale")
        self.slope = (int(slope_re), int(slope_im))
        self.n = n
        self.pref = pref
        self.denominator = den * _SCALE ** n

    def exact(self, x_re: int, x_im: int = 0) -> tuple[Fraction, Fraction]:
        sr, si = self.slope
        ar, ai = self.m[self.n], 0
        for k in range(self.n - 1, -1, -1):
            pr = self.offsets[k][0] + sr * x_re - si * x_im
            pi = self.offsets[k][1] + sr * x_im + si * x_re
            ar, ai = self.m[k] + ar * pr - ai * pi, ar * pi + ai * pr
        tr = Fraction(ar, self.denominator)
        ti = Fraction(ai, self.denominator)
        pr, pi = self.pref
        return pr * tr - pi * ti, pr * ti + pi * tr

    def value(self, x_re: int, x_im: int = 0) -> complex | None:
        """The correctly rounded double, or None when it overflows."""
        re, im = self.exact(x_re, x_im)
        try:
            return complex(float(re), float(im))
        except OverflowError:
            return None


def eval_oracle(spec: dict) -> list[list]:
    """Reference values, one list per case of the eval spec."""
    out = []
    cache: dict = {}
    for case in spec["cases"]:
        key = (case["family"], case["n"])
        ev = cache.get(key)
        if ev is None:
            ev = ExactEvaluator(case["family"], case["n"],
                                spec["params"][case["family"]], spec["x_denom"])
            cache[key] = ev
        out.append([ev.value(re, im) for re, im in case["x"]])
    return out


def eval_value_ok(got, ref: complex | None) -> bool:
    """A value passes when its relative error is within EVAL_REL_TOL.  When
    the true value is not a finite double, only a raised error passes."""
    if ref is None:
        return got == "error"
    if not isinstance(got, list):
        return False
    value = complex(got[0], got[1])
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        return False
    if ref == 0:
        return value == 0
    return abs(value - ref) <= EVAL_REL_TOL * abs(ref)


def gram_norms(params: list[str], size: int) -> list[complex]:
    """Closed-form squared norms h_0..h_{size-1} of the Gram matrix whose
    parameters are (alpha, beta, a, b), agreed at two mpmath precisions."""
    import mpmath

    def at(dps: int) -> list:
        with mpmath.workdps(dps):
            al, be, av, bv = (_mp_scalar(mpmath, p) for p in params)
            s = al + be + av + bv
            return [mpmath.gamma(al + be + n) * mpmath.gamma(av + bv + n)
                    * mpmath.gamma(n + al + av) * mpmath.gamma(n + be + bv)
                    / (mpmath.factorial(n) * (2 * n + s - 1) * mpmath.gamma(n + s - 1))
                    for n in range(size)]

    lo, hi = at(30), at(50)
    out = []
    for u, v in zip(lo, hi):
        if abs(u - v) > mpmath.mpf(10) ** -25 * abs(v):
            raise ArithmeticError("Gram norm oracle did not converge")
        out.append(complex(v))
    return out


def _mp_scalar(mpmath, text: str):
    """hahnlab's scalar grammar ('p/q', 'a+bi', 'a-bi') as an mpmath number."""
    s = text.replace(" ", "")
    if not s.endswith("i"):
        return mpmath.mpf(Fraction(s).numerator) / Fraction(s).denominator
    body = s[:-1]
    cut = max(body.rfind("+"), body.rfind("-"))
    re = Fraction(body[:cut]) if cut > 0 else Fraction(0)
    im = Fraction(body[cut:] if cut >= 0 else body)
    return mpmath.mpc(mpmath.mpf(re.numerator) / re.denominator,
                      mpmath.mpf(im.numerator) / im.denominator)


def gram_matrix_ok(matrix: list, norms: list[complex]) -> bool:
    """Diagonal against the closed-form norm, norm-scaled off-diagonal
    against zero, at hahnlab gram's default tolerances."""
    size = len(norms)
    if len(matrix) != size:
        return False
    for n in range(size):
        for m in range(size):
            v = complex(*matrix[n][m])
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                return False
            if n == m:
                if abs(v - norms[n]) > GRAM_DIAG_REL_TOL * abs(norms[n]):
                    return False
            elif abs(v) > GRAM_OFFDIAG_SCALED_TOL * math.sqrt(abs(norms[n]) * abs(norms[m])):
                return False
    return True


def gram_oracle(spec: dict) -> list[list]:
    """Norms per (tuple, size) in spec order."""
    return [[gram_norms(t["params"], size) for size in t["sizes"]]
            for t in spec["tuples"]]


def verify_names() -> list[str]:
    return VERIFY_NAMES_FILE.read_text(encoding="utf-8").splitlines()


def verify_outcome(report: list[dict], expected: list[str]) -> tuple[bool, int]:
    """(check list matches the seed's, number of non-pass statuses)."""
    names = [r.get("name") for r in report]
    failed = sum(1 for r in report if r.get("status") != "pass")
    return names == expected, failed
