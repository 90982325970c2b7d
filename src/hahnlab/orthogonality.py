"""Numerical verification of the orthogonality relations.

Gram matrices for the continuous Hahn family against the four-gamma line
weight, the sech-weighted Bateman and Pasternack relations (orthogonality
and biorthogonality) on one weight, scale / (cos(pi m) + cosh(pi x)), of
which Bateman's sech^2(pi x / 2) is the case m = 0 at scale 2, classical
Jacobi orthogonality on [-1, 1], and Barnes' first lemma as the
degree-zero case.

Expected diagonals always come from the closed-form right-hand sides,
never from quadrature.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import repeat
from operator import add, mul, sub, truediv

from .errors import DomainError
from .exact import GR_I, GaussianRational
from .numerics import _hahn_weight_log_of, gamma_product, pochhammer
from .polynomials import (JacobiParams, _to_complex, horner, horner_level,
                          jacobi_coeffs_complex, pasternack_coeffs_complex)
from .quadrature import (_ABS_TOL, _EPS, _REL_TOL, IntegralResult, _line_integral,
                         integrate_line_trapezoid, truncation_radius)
from .reports import (QuadDiagnostics, VerificationReport, integral_report,
                      toleranced_report)
from .transforms import _tanh_product_integral

GRAM_SIZE_CAP = 16  # keeps the weight's dynamic range inside double precision

BIORTHO_NOTE = ("diagonal constant taken from the corrected closed form; "
                "any residual constant discrepancy is reported, not hidden")


@dataclass(frozen=True)
class GramResult:
    """Pairwise inner products against the expected closed-form diagonal.

    max_offdiag_abs is the raw off-diagonal magnitude; max_offdiag_scaled
    divides entry (n, m) by sqrt(|h_n h_m|) of the expected norms, which
    is the quantity double precision can actually drive to zero when the
    raw entries span many orders of magnitude.

    What the matrix cost: evaluations is the number of trapezoid nodes
    (each one weight and N polynomial values, computed a trapezoid level
    at a time; each entry is one dot product per level), step the final
    h, truncation_radius the cut-off Z of the grid, and estimated_error the
    largest norm-scaled estimate of an entry (integrate_line_trapezoid: the
    predicted tail of its changes, else its change between steps 2h and h),
    floored by the rounding of the polynomial values (a relative error for
    N = 1).
    """

    matrix: list
    expected_diagonal: list
    max_offdiag_abs: float
    max_diag_rel_err: float
    max_offdiag_scaled: float = 0.0
    evaluations: int = 0
    step: float = 0.0
    truncation_radius: float = 0.0
    estimated_error: float = 0.0

    @property
    def size(self) -> int:
        return len(self.matrix)

    def to_csv_text(self) -> str:
        lines = ["," + ",".join(str(j) for j in range(self.size))]
        for i, row in enumerate(self.matrix):
            cells = [f"{v.real:.17g}{v.imag:+.17g}j" for v in row]
            lines.append(f"{i}," + ",".join(cells))
        return "\n".join(lines) + "\n"

    def to_summary_dict(self) -> dict:
        return {
            "size": self.size,
            "expected_diagonal": [[v.real, v.imag] for v in self.expected_diagonal],
            "measured_diagonal": [[self.matrix[i][i].real, self.matrix[i][i].imag]
                                  for i in range(self.size)],
            "max_offdiag_abs": self.max_offdiag_abs,
            "max_offdiag_scaled": self.max_offdiag_scaled,
            "max_diag_rel_err": self.max_diag_rel_err,
            "evaluations": self.evaluations,
            "step": self.step,
            "truncation_radius": self.truncation_radius,
            "estimated_error": self.estimated_error,
        }

    def diagnostics(self) -> QuadDiagnostics:
        return QuadDiagnostics(self.evaluations, self.estimated_error)


def chahn_norm_rhs(n: int, alpha, beta, a, b) -> complex:
    """Squared norm of p_n: Gamma(alpha+beta+n) Gamma(a+b+n) Gamma(n+alpha+a)
    Gamma(n+beta+b) / (n! (2n+alpha+beta+a+b-1) Gamma(n+alpha+beta+a+b-1))."""
    al, be = _to_complex(alpha), _to_complex(beta)
    av, bv = _to_complex(a), _to_complex(b)
    for name, v in (("alpha", al), ("beta", be), ("a", av), ("b", bv)):
        if not cmath.isfinite(v) or v.real <= 0.0:
            raise DomainError(f"{name} must be finite with Re({name}) positive")
    s = al + be + av + bv
    value = gamma_product([al + be + n, av + bv + n, al + av + n, be + bv + n],
                          [s + n])
    # (2n+s-1) Gamma(n+s-1) = Gamma(n+s) (2n+s-1)/(n+s-1); at n = 0 the
    # ratio is 1, so s = 1 (a removable singularity of the quoted form) works
    if n:
        value *= (n + s - 1) / (2 * n + s - 1)
    return value / math.factorial(n)


def _gram_recurrence(N: int, alpha, beta, a, b) -> list:
    """(A_n, B_n, C_n) for n < N - 1, with x p_n = A_n p_{n+1} + B_n p_n + C_n p_{n-1}
    (derive_recurrence's convention), of the Gram's p_n(x; alpha, b, a, beta),
    in the parameters' own scalars: complex floats for the Gram, exact
    GaussianRationals for recurrence_check, which compares the two sides
    exactly.  In the letters (a, b, c, d) = (alpha, b, a, beta) of
    Koekoek, Lesky and Swarttouw (2010) (9.4.3), with s = a+b+c+d and the 3F2
    p~_n = p_n / (i^n (a+c)_n (a+d)_n / n!),

        (a + ix) p~_n = K_n p~_{n+1} - (K_n + L_n) p~_n + L_n p~_{n-1},
        K_n = -(n+s-1)(n+a+c)(n+a+d) / ((2n+s-1)(2n+s)),
        L_n = n (n+b+c-1)(n+b+d-1) / ((2n+s-2)(2n+s-1)),

    so that A_n = (n+1)(n+s-1) / ((2n+s-1)(2n+s)), B_n = i (a + K_n + L_n)
    and C_n = L_n (n+a+c-1)(n+a+d-1) / n."""
    ka, kb, kc, kd = alpha, b, a, beta  # (a, b, c, d) of the docstring
    s = ka + kb + kc + kd
    i = GR_I if isinstance(s, GaussianRational) else 1j
    out = []
    for n in range(N - 1):
        # K_n = -(n+a+c)(n+a+d) k; (n+s-1)/(2n+s-1) is 1 at n = 0, so s = 1
        # (a removable 0/0 there) works, as in chahn_norm_rhs
        k = ((n + s - 1) / (2 * n + s - 1) if n else 1) / (2 * n + s)
        # L_n = n m
        m = (n + kb + kc - 1) * (n + kb + kd - 1) / ((2 * n + s - 2) * (2 * n + s - 1)) \
            if n else 0
        out.append(((n + 1) * k, i * (ka + n * m - (n + ka + kc) * (n + ka + kd) * k),
                    m * (n + ka + kc - 1) * (n + ka + kd - 1)))
    return out


def _gram_columns(recurrence: list, zs: list) -> list:
    """[p_0(zs), ..., p_{N-1}(zs)] by the forward recurrence
    p_{n+1} = ((z - B_n) p_n - C_n p_{n-1}) / A_n: one pass over the level per
    operation, O(N) passes in all."""
    prev, cur = [0j] * len(zs), [1 + 0j] * len(zs)
    columns = [cur]
    for a_n, b_n, c_n in recurrence:
        nxt = map(sub, map(mul, map(sub, zs, repeat(b_n)), cur), map(mul, prev, repeat(c_n)))
        prev, cur = cur, list(map(truediv, nxt, repeat(a_n)))
        columns.append(cur)
    return columns


def _gram_coeffs(recurrence: list) -> list:
    """The monomial coefficients of p_0, ..., p_{N-1}, lowest first, by the
    step of _gram_columns on coefficient lists: x p_n is p_n shifted up one
    place.  O(N^2) float operations in all, no exact build."""
    prev, cur = [], [1 + 0j]
    coeffs = [cur]
    for a_n, b_n, c_n in recurrence:
        nxt = [0j, *cur]
        for k, u in enumerate(cur):
            nxt[k] -= b_n * u
        for k, u in enumerate(prev):
            nxt[k] -= c_n * u
        prev, cur = cur, [u / a_n for u in nxt]
        coeffs.append(cur)
    return coeffs


def chahn_gram(N: int, alpha, beta, a, b) -> GramResult:
    """N x N Gram matrix (1/2pi) int w(z) p_n(z) p_m(z) dz.

    Both polynomial slots carry the parameter order (alpha, b, a, beta);
    the closed-form diagonal justifies this by the leading-coefficient
    replacement argument.  For all-equal parameters odd/even entries
    vanish by parity and are set to zero without quadrature.

    Every entry comes from one nested trapezoidal pass: the integrand is
    analytic in the strip |Im z| < d = min Re(alpha, beta, a, b), so the
    rule starts from a step set by d and halves it until every entry's
    estimate (its predicted tail or its last change) is within
    max(1e-14, 1e-10 sqrt|G_nn G_mm|).  Each node costs
    one weight and N polynomial values, shared by all entries; they come a
    level of new nodes at a time, as one weight list and the polynomials by
    their three-term recurrence, a few passes over the level per degree,
    and each entry is one dot product over it.  The rule
    takes the even part on z >= 0: with real parameters w(-z) = conj w(z)
    and p_n(-z) = (-1)^n conj p_n(z), so one node serves z and -z.  The
    cut-off Z is relative to the norms: the tail of entry (n, m) stays
    below 1e-16 max(1, sqrt|h_n h_m|), far below its tolerance.

    No exact polynomial is built: the cut-off envelope and the rounding
    floor read the magnitudes of coefficient vectors formed by the same
    recurrence (_gram_coeffs).  The parameters are used only as complex
    floats, so a float and the Fraction it stores give the same Gram; Re > 0
    keeps (alpha+a)_n, (alpha+beta)_n and every A_n away from zero.
    """
    if not 1 <= N <= GRAM_SIZE_CAP:
        raise DomainError(f"Gram size must be in 1..{GRAM_SIZE_CAP}")
    al, be = _to_complex(alpha), _to_complex(beta)
    av, bv = _to_complex(a), _to_complex(b)
    log_weight = _hahn_weight_log_of(al, be, av, bv)  # checks the parameters
    expected = [chahn_norm_rhs(n, al, be, av, bv) for n in range(N)]
    recurrence = _gram_recurrence(N, al, be, av, bv)
    # entries (n, m), m >= n, in row order; parity zeros are left out
    stride = 2 if al == be == av == bv else 1
    real = not (al.imag or be.imag or av.imag or bv.imag)
    entries = [(n, m) for n in range(N) for m in range(n, N, stride)]
    diagonal_index = [entries.index((n, n)) for n in range(N)]
    two_pi = 2.0 * math.pi

    def side(zs: list) -> list:
        """The entries' integrands summed over the nodes zs, then the
        moments |w| |z|^q, q < 2N - 1, that bound the rounding of the
        polynomial values: one loop over the level per quantity."""
        w = [cmath.exp(log_weight(z)) / two_pi for z in zs]
        p = _gram_columns(recurrence, zs)
        out = []
        for n in range(N):
            wp = list(map(mul, w, p[n]))
            out.extend([sum(map(mul, wp, v)) for v in p[n::stride]])
        moment, x = [abs(u) for u in w], [abs(z) for z in zs]
        for _ in range(2 * N - 1):
            out.append(sum(moment))
            moment = list(map(mul, moment, x))
        return out

    # real parameters: entry (n, m) at -z is (-1)^(n+m) conj of that at z;
    # the fold is linear, so it applies to the level's sum
    odd = [(n + m) % 2 for n, m in entries] + [0] * (2 * N - 1)

    def even_part(zs: list) -> list:
        if not real:
            return list(map(add, side(zs), side([-z for z in zs])))
        return [v - v.conjugate() if o else v + v.conjugate()
                for v, o in zip(side(zs), odd)]

    def tolerances(values: list) -> list:
        diag = [abs(values[i]) for i in diagonal_index]
        return [max(_ABS_TOL, _REL_TOL * math.sqrt(diag[n] * diag[m]))
                for n, m in entries] + [math.inf] * (2 * N - 1)

    # one cut-off for the whole matrix, from the largest diagonal envelope over
    # max(|h_n|, 1); |p_n(z)| <= sum_k |c_k| |z|^k, the Horner magnitude, with
    # the c_k of the recurrence's coefficient vectors (within about 1e-15
    # max_k |c_k| of the exact ones, far inside the envelope's own slack)
    mags = [[abs(u) for u in cs] for cs in _gram_coeffs(recurrence)]

    def envelope(z: float) -> float:
        g = log_weight(z).real
        if not real:  # then |w(-z)| != |w(z)|; bound both tails
            g = max(g, log_weight(-z).real)
        x = abs(z)
        return math.exp(g) * max(horner(mag, x).real ** 2 / max(abs(h), 1.0)
                                 for mag, h in zip(mags, expected)) / two_pi

    radius = truncation_radius(envelope)
    strip = min(al.real, be.real, av.real, bv.real)
    res = integrate_line_trapezoid(even_part, radius, min(strip, 0.5), tolerances)

    matrix = [[0j] * N for _ in range(N)]
    for (n, m), value in zip(entries, res.values):
        matrix[n][m] = value
        matrix[m][n] = value
    scale = [math.sqrt(abs(h)) for h in expected]
    max_off = 0.0
    max_off_scaled = 0.0
    for n in range(N):
        for m in range(N):
            if n == m:
                continue
            v = abs(matrix[n][m])
            max_off = max(max_off, v)
            max_off_scaled = max(max_off_scaled, v / (scale[n] * scale[m]))
    max_diag = max(abs(matrix[n][n] - expected[n]) / abs(expected[n])
                   for n in range(N))
    # error estimate, norm-scaled: each entry's trapezoid estimate, floored by
    # rounding.  The floor keeps Horner's error model, about eps sum_k |c_k| |z|^k
    # at z, as a conservative bound on the recurrence's rounding where kappa is
    # large: the columns' |w|-weighted error measured at most 0.62 of it for
    # n >= 5 (up to 3x at n <= 3, where kappa is small).  By Cauchy-Schwarz it
    # moves entry (n, m) by eps (kappa_n + kappa_m), with
    # kappa_n^2 = int |w| (sum_k |c_k| |z|^k)^2 / |G_nn| from the moments, with
    # the same recurrence magnitudes as the envelope.
    moments = [u.real for u in res.values[len(entries):]]
    kappa = []
    for n, mag in enumerate(mags):
        mass = sum(cj * ck * moments[j + k] for j, cj in enumerate(mag)
                   for k, ck in enumerate(mag))
        kappa.append(math.sqrt(mass / abs(matrix[n][n])))
    estimate = max(max(c / (scale[n] * scale[m]), _EPS * (kappa[n] + kappa[m]))
                   for (n, m), c in zip(entries, res.changes))
    return GramResult(matrix, expected, max_off, max_diag, max_off_scaled,
                      res.nodes, res.step, radius, estimate)


_GRAM_OFFDIAG_TOL = 1e-10


def gram_check(name: str, alpha, beta, a, b, N: int,
               tol: float = 1e-8) -> VerificationReport:
    """The N x N Gram matrix: diagonal within tol of the closed-form norms,
    off-diagonal within 1e-10 after scaling by sqrt|h_n h_m|."""
    g = chahn_gram(N, alpha, beta, a, b)
    ok = g.max_diag_rel_err <= tol and g.max_offdiag_scaled <= _GRAM_OFFDIAG_TOL
    return VerificationReport(
        name, "pass" if ok else "fail", g.max_offdiag_scaled, g.max_diag_rel_err,
        f"N={N}; diag tol {tol:g}, norm-scaled offdiag tol {_GRAM_OFFDIAG_TOL:g}; "
        f"trapezoid step {g.step:g}, truncation radius {g.truncation_radius:g}",
        g.diagnostics())


def barnes_check(alpha, beta, a, b, tol: float = 1e-9) -> VerificationReport:
    """(1/2pi) int Gamma(alpha+iz) Gamma(beta-iz) Gamma(a-iz) Gamma(b+iz) dz
    against the closed gamma-ratio form (the degree-zero norm): the
    N = 1 Gram matrix, whose only polynomial is p_0 = 1."""
    g = chahn_gram(1, alpha, beta, a, b)
    value, expected = g.matrix[0][0], g.expected_diagonal[0]
    abs_err = abs(value - expected)
    rel_err = abs_err / abs(expected)
    return toleranced_report(f"barnes[{alpha}, {beta}, {a}, {b}]", abs_err, rel_err,
                             tol, 0.0, f"measured={value!r} expected={expected!r}",
                             g.diagnostics())


def pi_m_over_sin_pi_m(m) -> complex:
    """m*pi / sin(pi*m) with the removable singularity at m = 0 filled in."""
    mc = _to_complex(m)
    u = math.pi * mc
    if abs(u) < 1e-6:
        u2 = u * u
        return 1.0 + u2 / 6.0 + 7.0 * u2 * u2 / 360.0
    return u / cmath.sin(u)


def _measured_report(name: str, res: IntegralResult, expected: complex, tol: float,
                     tol_abs: float, details: str = "") -> VerificationReport:
    """integral_report of a quadrature value against its closed form."""
    text = f"measured={res.value!r} expected={expected!r}"
    return integral_report(name, abs(res.value - expected), abs(expected), res.mass, tol,
                           tol_abs, f"{text}; {details}" if details else text,
                           QuadDiagnostics(res.evaluations, res.error_estimate))


def _sech_integral(n: int, p: int, m, m2, scale: float) -> IntegralResult:
    """int F_n^m(ix) F_p^m2(ix) scale / (cos(pi m) + cosh(pi x)) dx on the one
    weight of the sech families: Pasternack's at scale 1, and Bateman's
    sech^2(pi x / 2) = 2 / (1 + cosh(pi x)) at m = 0 and scale 2.  For real
    or imaginary m the weight is real and even, analytic in
    |Im x| < 1 - |Re m|; with real coefficients the integrand at -x is the
    conjugate of the one at x, so one node serves both signs."""
    fn, fp = pasternack_coeffs_complex(n, m), pasternack_coeffs_complex(p, m2)
    bound = sum(map(abs, fn)) * sum(map(abs, fp))
    real = not any(u.imag for u in (*fn, *fp))
    mc = _to_complex(m)
    cos_pim = cmath.cos(math.pi * mc)

    def f(xs: list) -> tuple:
        ixs = [1j * x for x in xs]
        weights = [scale / (cos_pim + math.cosh(math.pi * x)) for x in xs]
        terms = list(map(mul, map(mul, horner_level(fn, ixs), horner_level(fp, ixs)),
                         weights))
        return sum(terms), sum(map(abs, terms))

    # the weight is at most 4 e^{-pi|x|} in both uses: 2 / (1 + cosh(pi x))
    # everywhere, and 1 / (cosh(pi x) + cos(pi m)) since cosh(pi x) + cos(pi m)
    # >= e^{pi|x|}/2 - 1 >= e^{pi|x|}/4 for |x| >= 0.45 (the scan starts at 2)
    def env(x: float) -> float:
        return bound * max(1.0, abs(x)) ** (n + p) * (4.0 * math.exp(-math.pi * abs(x)))

    return _line_integral(f, env, 1.0 - abs(mc.real), 1 if real else None)


def bateman_ortho_check(n: int, m: int,
                        tol: float = 1e-8, tol_abs: float = 1e-10) -> VerificationReport:
    """int F_n(ix) F_m(ix) / cosh^2(pi x / 2) dx
    = delta_{n,m} 4 (-1)^n / (pi (2n+1)): the Pasternack weight at m = 0,
    doubled."""
    if not (0 <= n <= 12 and 0 <= m <= 12):
        raise DomainError("degrees capped at 12")
    expected = complex(4.0 * (-1.0) ** n / (math.pi * (2 * n + 1))) if n == m else 0j
    return _measured_report(f"bateman-ortho[n={n}, m={m}]", _sech_integral(n, m, 0, 0, 2.0),
                            expected, tol, tol_abs)


def pasternack_ortho_check(n: int, p: int, m,
                           tol: float = 1e-8, tol_abs: float = 1e-10) -> VerificationReport:
    """int F_n^m(ix) F_p^m(ix) / (cos(pi m) + cosh(pi x)) dx against
    delta_{n,p} ((-1)^n / (2n+1)) (2/pi) ((1-m)_n / (1+m)_n) (m pi / sin(pi m)),
    the m -> 0 limit of the last factor being 1."""
    if not (0 <= n <= 10 and 0 <= p <= 10):
        raise DomainError("degrees capped at 10")
    mc = _to_complex(m)
    if abs(mc.imag) < 1e-14 and not -1.0 < mc.real < 1.0:
        raise DomainError("real m must satisfy -1 < m < 1")
    if abs(mc.imag) >= 1e-14 and abs(mc.real) > 1e-14:
        raise DomainError("complex m must be purely imaginary")
    expected, details = 0j, ""
    if n == p:
        expected = ((-1.0) ** n / (2 * n + 1)) * (2.0 / math.pi) \
            * (pochhammer(1 - mc, n) / pochhammer(1 + mc, n)) \
            * pi_m_over_sin_pi_m(mc)
        ratio_33 = _pasternack_vs_hahn_norm_ratio(n, mc, expected)
        details = f"specialized-norm ratio vs gamma form: {ratio_33:.16g}"
    return _measured_report(f"pasternack-ortho[n={n}, p={p}, m={m}]",
                            _sech_integral(n, p, m, m, 1.0), expected, tol, tol_abs, details)


def _pasternack_vs_hahn_norm_ratio(n: int, mc: complex, expected: complex) -> float:
    """Eq-level consistency: the sech-weight diagonal against the gamma-weight
    norm carried through the z = x/2 change of variables."""
    half = 0.5
    hn = chahn_norm_rhs(n, (1 + mc) * half, (1 + mc) * half,
                        (1 - mc) * half, (1 - mc) * half)
    poch = pochhammer(1 + mc, n)
    from_33 = 2.0 * hn / (math.pi * (-1.0) ** n * poch * poch)
    return abs(expected / from_33)


def pasternack_biortho_check(n: int, p: int, m,
                             tol: float = 1e-8, tol_abs: float = 1e-10) -> VerificationReport:
    """int F_n^m(ix) F_p^{-m}(ix) / (cosh(pi x) + cos(m pi)) dx against
    delta_{n,p} (2 (-1)^n / (pi (2n+1))) (m pi / sin(pi m))."""
    if not (0 <= n <= 10 and 0 <= p <= 10):
        raise DomainError("degrees capped at 10")
    mc = _to_complex(m)
    if not -1.0 < mc.real < 1.0 or abs(mc.imag) > 1e-14:
        raise DomainError("biorthogonality requires real -1 < m < 1")
    expected = (2.0 * (-1.0) ** n / (math.pi * (2 * n + 1))) * pi_m_over_sin_pi_m(mc) \
        if n == p else 0j
    return _measured_report(f"pasternack-biortho[n={n}, p={p}, m={m}]",
                            _sech_integral(n, p, m, -m, 1.0), expected, tol, tol_abs,
                            BIORTHO_NOTE)


def jacobi_ortho_check(n: int, m: int, alpha, beta,
                       tol: float = 1e-9, tol_abs: float = 1e-11) -> VerificationReport:
    """int_{-1}^1 (1-x)^alpha (1+x)^beta P_n P_m dx against the beta-type
    closed form, valid for complex parameters with Re > -1.

    The endpoint singularities for -1 < Re < 0 are removed by the x = tanh u
    substitution, which maps the integral onto a smooth line integral.
    """
    al, be = _to_complex(alpha), _to_complex(beta)
    if al.real <= -1.0 or be.real <= -1.0:
        raise DomainError("Re(alpha), Re(beta) must exceed -1")
    name = f"jacobi-ortho[n={n}, m={m}, alpha={alpha}, beta={beta}]"
    pn = jacobi_coeffs_complex(n, JacobiParams(alpha, beta))
    pm = jacobi_coeffs_complex(m, JacobiParams(alpha, beta))
    res = _tanh_product_integral(pn, pm, al + 1, be + 1)
    if n == m:
        expected = cmath.exp((al + be + 1) * math.log(2.0)) \
            * gamma_product([n + al + 1, n + be + 1], [n + al + be + 1]) \
            / (math.factorial(n) * (2 * n + al + be + 1))
    else:
        expected = 0j
    return _measured_report(name, res, expected, tol, tol_abs)
