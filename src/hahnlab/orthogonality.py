"""Numerical verification of the orthogonality relations.

Gram matrices for the continuous Hahn family against the four-gamma line
weight, the sech-weighted Bateman and Pasternack relations (orthogonality
and biorthogonality) on one weight, scale / (cos(pi m) + cosh(pi x)), of
which Bateman's sech^2(pi x / 2) is the case m = 0 at scale 2, classical
Jacobi orthogonality on [-1, 1], and Barnes' first lemma as the
degree-zero case.

The sech and Jacobi checks have list forms (bateman_ortho_checks,
pasternack_ortho_checks, pasternack_biortho_checks, jacobi_ortho_checks)
that integrate every (n, p) pair on one weight in one trapezoid pass; the
scalar checks are their one-pair case.  Every pass runs on the sinh map
z = c sinh u of quadrature.integrate_line, c the weight's strip: the
Gram's min Re of its parameters, the sech weight's 1 - |Re m|, the tanh
weight's pi/2.  Each has its nearest poles at +-i c, which the map puts at
+-i pi/2 however narrow the strip is, so Re alpha = 1/10000 or m = 0.9999
take about 200 nodes.  Expected diagonals always come from the closed-form
right-hand sides, never from quadrature.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from itertools import repeat
from operator import mul, sub, truediv

from .errors import RangeOverflowError, _require, _require_int, _require_tuple
from .numerics import _weight_memo, gamma_product, pochhammer
from .polynomials import (EXACT_DEGREE_CAP, JacobiParams, _chahn_recurrence, _to_complex,
                          jacobi_coeffs_complex, pasternack_coeffs_complex,
                          pasternack_hahn_params)
from .quadrature import (_ABS_TOL, _EPS, _REL_TOL, _STEP, IntegralResult, _line_integral,
                         _sinh_nodes, integrate_line)
from .reports import QuadDiagnostics, VerificationReport, integral_report
from .transforms import _tanh_product_integral

GRAM_SIZE_CAP = 16  # keeps the weight's dynamic range inside double precision

BIORTHO_NOTE = ("diagonal constant taken from the corrected closed form; "
                "any residual constant discrepancy is reported, not hidden")


class GramResult(namedtuple(
        "GramResult", "matrix expected_diagonal max_offdiag_abs max_diag_rel_err"
        " max_offdiag_scaled evaluations step truncation_radius estimated_error",
        defaults=(0.0, 0, 0.0, 0.0, 0.0))):
    """Pairwise inner products against the expected closed-form diagonal.

    expected_diagonal holds the norms h_n (_chahn_norms: a few 1e-15 relative
    error).  max_offdiag_abs is the raw off-diagonal magnitude; max_offdiag_scaled
    divides entry (n, m) by sqrt(|h_n h_m|) of the expected norms, which
    is the quantity double precision can actually drive to zero when the
    raw entries span many orders of magnitude.

    What the matrix cost: evaluations is the number of trapezoid nodes
    (each one weight and N polynomial values, computed a trapezoid level
    at a time; each entry is one dot product per level), step the final
    h in u of the map z = c sinh u (c = min Re of the parameters),
    truncation_radius the cut-off c sinh U in z, and estimated_error the
    largest norm-scaled estimate of an entry (integrate_line: the predicted
    tail of its changes, else its change between steps 2h and h),
    floored by the rounding of the polynomial values, eps M_n(|z|) each, M_n
    the recurrence run on magnitudes in floats (_gram_magnitudes), and of
    the weights, about eps (4 + |log w|) each (for N = 1 the whole floor).
    matrix is complex; for a positive weight (chahn_gram) its entries are
    real sums, and every imaginary part is exactly 0.0.
    """

    __slots__ = ()

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


def _chahn_norms(N: int, al, be, av, bv) -> list:
    """chahn_norm_rhs's [h_0, ..., h_{N-1}] at gated values: h_0 one gamma product, then the exact
    h_{n+1}/h_n = (alpha+beta+n)(a+b+n)(alpha+a+n)(beta+b+n)(2n+s-1) / ((n+1)(n+s-1)(2n+s+1)),
    s = alpha+beta+a+b; (2n+s-1)/(n+s-1) is 1 at n = 0, so s = 1 (a removable 0/0) works.
    Against 50-digit mpmath every h_n, n < 16, of the four tuples of
    tests/test_orthogonality.py is within 1.5e-15; exp(sum log Gamma) per h_n leaves 2.4e-14."""
    s = al + be + av + bv
    norms = [gamma_product([al + be, av + bv, al + av, be + bv], [s])]
    for n in range(N - 1):
        num = (al + be + n) * (av + bv + n) * (al + av + n) * (be + bv + n)
        den = (n + 1) * (2 * n + s + 1)
        if n:
            num, den = num * (2 * n + s - 1), den * (n + s - 1)
        norms.append(norms[-1] * num / den)
    if not cmath.isfinite(norms[-1]):
        raise RangeOverflowError(f"norm h_{N - 1} is not finite")
    return norms


def chahn_norm_rhs(n: int, alpha, beta, a, b) -> complex:
    """Squared norm of p_n: Gamma(alpha+beta+n) Gamma(a+b+n) Gamma(n+alpha+a)
    Gamma(n+beta+b) / (n! (2n+alpha+beta+a+b-1) Gamma(n+alpha+beta+a+b-1)),
    as h_0 and n exact ratios (_chahn_norms, which gives its accuracy)."""
    gated = _require("Re > 0 as a double", alpha=alpha, beta=beta, a=a, b=b)
    return _chahn_norms(_require_int("n", n, 0) + 1, *gated)[-1]


def _gram_columns(recurrence: list, zs: list) -> list:
    """[p_0(zs), ..., p_{N-1}(zs)] at the nodes zs (non-empty) by the forward
    recurrence p_{n+1} = ((z - B_n) p_n - C_n p_{n-1}) / A_n: one pass over the
    level per operation, O(N) passes in all.  Scalar-generic: the starts 0 and
    1 take the nodes' type, so float nodes and real triples (a positive
    weight, chahn_gram) give real columns, complex ones complex columns."""
    scalar = type(zs[0])
    prev, cur = [scalar(0)] * len(zs), [scalar(1)] * len(zs)
    columns = [cur]
    for a_n, b_n, c_n in recurrence:
        nxt = map(sub, map(mul, map(sub, zs, repeat(b_n)), cur), map(mul, prev, repeat(c_n)))
        prev, cur = cur, list(map(truediv, nxt, repeat(a_n)))
        columns.append(cur)
    return columns


def _gram_magnitudes(magnitudes: list, r: float) -> list:
    """[M_0(r), ..., M_{N-1}(r)]: _gram_columns' step on one point, in floats,
    which are its real parts bit for bit (up to the sign of a zero)."""
    prev, cur = 0.0, 1.0
    out = [cur]
    for a_n, b_n, c_n in magnitudes:
        prev, cur = cur, ((r - b_n) * cur - prev * c_n) / a_n
        out.append(cur)
    return out


def chahn_gram(N: int, alpha, beta, a, b) -> GramResult:
    """N x N Gram matrix (1/2pi) int w(z) p_n(z) p_m(z) dz.

    Both polynomial slots carry the parameter order (alpha, b, a, beta);
    the closed-form diagonal justifies this by the leading-coefficient
    replacement argument.  For all-equal parameters odd/even entries
    vanish by parity and are set to zero without quadrature.

    Every entry comes from one pass of integrate_line: the integrand is
    analytic in the strip |Im z| < d = min Re(alpha, beta, a, b), whose
    edge the pole at i d (or -i d) sets, so the rule runs in u on
    z = d sinh u, which puts that pole at i pi/2, from the step 1/2, and
    halves it until every entry's estimate (its predicted tail or its last
    change) is within max(1e-14, 1e-10 sqrt|G_nn G_mm|).  Each node costs
    one weight, times its Jacobian d cosh u, and N polynomial values,
    shared by all entries; they come a level of new nodes at a time, as
    one weight list and the polynomials by their three-term recurrence, a
    few passes over the level per degree, and each entry is one dot
    product over it.  The rule takes the even part on z >= 0: with real
    parameters w(-z) = conj w(z) and p_n(-z) = (-1)^n conj p_n(z), so entry
    (n, m) has the sign (-1)^(n+m) and one node serves z and -z.  The
    cut-off is relative to the norms: the tail of entry (n, m) stays
    below 1e-16 max(1, sqrt|h_n h_m|), far below its tolerance.

    The norms cost 5 log-gammas (_chahn_norms).  No exact polynomial is
    built: the cut-off envelope and the rounding floor bound |p_n(z)| by
    M_n(|z|), the same recurrence run on the magnitudes of its
    coefficients, in floats on one point at a time (_gram_magnitudes, the
    one routine for both); _gram_columns runs it on a level's nodes, in
    floats when the weight is positive: a = conj alpha and b = conj beta
    make w(z) = |Gamma(alpha+iz) Gamma(beta-iz)|^2 and every p_n real on the
    line (Koekoek, Lesky and Swarttouw (2010) 9.4), so the weights are
    exp(Re log w), the triples their real parts, each entry a float dot
    product and the matrix's imaginary parts exactly 0.0.  Other tuples run
    in complex arithmetic.  The parameters are used only as complex
    floats, so a float and the Fraction it stores give the same Gram; Re > 0
    keeps (alpha+a)_n, (alpha+beta)_n and every A_n away from zero.
    """
    _require_int("N", N, 1, GRAM_SIZE_CAP)
    al, be, av, bv = _require("Re > 0 as a double", alpha=alpha, beta=beta, a=a, b=b)
    log_weight = _weight_memo(al, be, av, bv)
    expected = _chahn_norms(N, al, be, av, bv)
    recurrence = _chahn_recurrence(N, al, bv, av, be)  # p_n(x; alpha, b, a, beta)
    # entries (n, m), m >= n, in row order; parity zeros are left out
    stride = 2 if al == be == av == bv else 1
    real = not (al.imag or be.imag or av.imag or bv.imag)
    positive = av == al.conjugate() and bv == be.conjugate()
    scalar = float if positive else complex
    triples = [(a_n.real, b_n.real, c_n.real) for a_n, b_n, c_n in recurrence] \
        if positive else recurrence
    entries = [(n, m) for n in range(N) for m in range(n, N, stride)]
    diagonal_index = [entries.index((n, n)) for n in range(N)]
    two_pi = 2.0 * math.pi

    def side(zs: list, jacs: list) -> list:
        """The entries' integrands times the Jacobians jacs summed over the
        nodes zs: one loop over the level per quantity."""
        if positive:
            w = [math.exp(log_weight(z).real) * jac / two_pi for z, jac in zip(zs, jacs)]
        else:
            w = [cmath.exp(log_weight(z)) * jac / two_pi for z, jac in zip(zs, jacs)]
        p = _gram_columns(triples, list(map(scalar, zs)))
        out = []
        for n in range(N):
            wp = list(map(mul, w, p[n]))
            out.extend([sum(map(mul, wp, v)) for v in p[n::stride]])
        return out

    def tolerances(values: list) -> list:
        diag = [abs(values[i]) for i in diagonal_index]
        return [max(_ABS_TOL, _REL_TOL * math.sqrt(diag[n] * diag[m]))
                for n, m in entries]

    # M_n(r), the recurrence on magnitudes: M_{n+1} = ((r + |B_n|) M_n +
    # |C_n| M_{n-1}) / |A_n|.  By induction its coefficients bound p_n's term
    # by term, so M_n(|z|) >= sum_k |c_k| |z|^k >= |p_n(z)|; for real
    # parameters it is that Horner magnitude, to rounding
    magnitudes = [(abs(a_n), -abs(b_n), -abs(c_n)) for a_n, b_n, c_n in recurrence]
    # one cut-off for the whole matrix, from the largest diagonal envelope
    # over max(|h_n|, 1)
    floors = [max(abs(h), 1.0) for h in expected]

    def envelope(z: float) -> float:
        peak = max(abs(m) ** 2 / floor
                   for m, floor in zip(_gram_magnitudes(magnitudes, abs(z)), floors))
        return math.exp(log_weight(z).real) * peak / two_pi

    # real parameters: entry (n, m) at -z is (-1)^(n+m) conj of that at z
    res = integrate_line(side, envelope, min(al.real, be.real, av.real, bv.real), tolerances,
                         [(-1) ** (n + m) for n, m in entries] if real else None)

    matrix = [[0j] * N for _ in range(N)]
    for (n, m), value in zip(entries, res.values):
        matrix[n][m] = matrix[m][n] = complex(value)
    scale = [math.sqrt(abs(h)) for h in expected]
    off = [(abs(c), scale[n] * scale[m]) for (n, m), c in zip(entries, res.values) if n != m]
    max_off = max((v for v, _ in off), default=0.0)  # parity zeros: the default 0
    max_off_scaled = max((v / d for v, d in off), default=0.0)
    max_diag = max(abs(matrix[n][n] - expected[n]) / abs(expected[n])
                   for n in range(N))
    # error estimate, norm-scaled: each entry's trapezoid estimate, floored by
    # rounding, summed on the first level's nodes u = k _STEP out to the cut-off
    # (every weight there is a memo hit; where the fold applies |w(-z)| =
    # |w(z)| and |p_n(-z)| = |p_n(z)|, so one side counts twice).  The floor
    # models a value's rounding as eps M_n(|z|), Horner's error model for
    # real parameters, as a conservative bound on the recurrence's rounding
    # where kappa is large: at (2, 1/3, 3/2, 3/4) the columns' |w|-weighted
    # error measured at most 0.83 of it for n >= 5 (up to 3.9x at n <= 3,
    # where kappa is small).  By Cauchy-Schwarz it moves entry (n, m) by
    # eps (kappa_n + kappa_m), with kappa_n^2 = int |w| M_n(|z|)^2 /
    # (2 pi |G_nn|).  The weight times the Jacobian carries a relative
    # rounding of about eps (4 + |log w|): the rounding of log w, and of its
    # four log-gammas, the exponential, the node c sinh u and c cosh u.  At
    # single nodes it measured up to 2.4x that against mpmath, in both
    # signs; by Cauchy-Schwarz again it moves entry (n, m) by lam_n lam_m,
    # lam_n^2 = eps int |w| (4 + |log w|) |p_n|^2 / (2 pi |G_nn|), which is
    # what bounds a Gram of N = 1, whose p_0 = 1 is exact.
    zs, jacs = _sinh_nodes(res.scale,
                           [_STEP * k for k in range(int(res.cutoff / _STEP) + 1)])
    bounds = list(zip(*[_gram_magnitudes(magnitudes, z) for z in zs]))  # M_n at every node
    kappa, lam = [0.0] * N, [0.0] * N
    for nodes in [zs] if real else [zs, [-z for z in zs]]:
        logs = list(map(log_weight, nodes))
        w = [math.exp(v.real) * jac for v, jac in zip(logs, jacs)]
        w[0] *= 0.5  # the centre node weighs half
        rounding = [u * (4.0 + abs(v)) for u, v in zip(w, logs)]
        for n, column in enumerate(_gram_columns(triples, list(map(scalar, nodes)))):
            kappa[n] += sum(u * v * v for u, v in zip(w, bounds[n]))
            lam[n] += sum(u * abs(v) ** 2 for u, v in zip(rounding, column))
    # the step, the fold's second side, and the norm
    scaled = [(2.0 if real else 1.0) * _STEP / (two_pi * abs(matrix[n][n])) for n in range(N)]
    kappa = [math.sqrt(v * d) for v, d in zip(kappa, scaled)]
    lam = [math.sqrt(_EPS * v * d) for v, d in zip(lam, scaled)]
    estimate = max(max(c / (scale[n] * scale[m]),
                       _EPS * (kappa[n] + kappa[m]) + lam[n] * lam[m])
                   for (n, m), c in zip(entries, res.changes))
    return GramResult(matrix, expected, max_off, max_diag, max_off_scaled,
                      res.nodes, res.step, res.radius, estimate)


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
    return integral_report(f"barnes[{alpha}, {beta}, {a}, {b}]", abs(value - expected),
                           abs(expected), 0.0, tol, 0.0,
                           f"measured={value!r} expected={expected!r}", g.diagnostics())


def pi_m_over_sin_pi_m(m) -> complex:
    """m*pi / sin(pi*m) with the removable singularity at m = 0 filled in."""
    mc = _to_complex(m)
    u = math.pi * mc
    if abs(u) < 1e-6:
        u2 = u * u
        return 1.0 + u2 / 6.0 + 7.0 * u2 * u2 / 360.0
    return u / cmath.sin(u)


def _degree_pairs(pairs: list, second: str, cap: int) -> list:
    """pairs as (n, <second>) tuples of degrees in 0..cap: the DomainError of
    the first item that is not a pair, or of a degree out of range, names it."""
    return [(_require_int(f"n of {pair!r}", n, 0, cap),
             _require_int(f"{second} of {pair!r}", p, 0, cap))
            for pair in pairs for n, p in [_require_tuple("degree pair", pair, 2)]]


def _measured_report(name: str, res: IntegralResult, expected: complex, tol: float,
                     tol_abs: float, details: str = "") -> VerificationReport:
    """integral_report of a quadrature value against its closed form."""
    text = f"measured={res.value!r} expected={expected!r}"
    return integral_report(name, abs(res.value - expected), abs(expected), res.mass, tol,
                           tol_abs, f"{text}; {details}" if details else text,
                           QuadDiagnostics(res.evaluations, res.error_estimate))


def _sech_integral(pairs: list, m, m2, scale: float) -> list[IntegralResult]:
    """int F_n^m(ix) F_p^m2(ix) scale / (cos(pi m) + cosh(pi x)) dx for each
    (n, p) of pairs, in one pass on the one weight of the sech families:
    Pasternack's at scale 1, and Bateman's sech^2(pi x / 2) =
    2 / (1 + cosh(pi x)) at m = 0 and scale 2.  For real or imaginary m
    the weight is real and even, analytic in |Im x| < 1 - |Re m|; with real
    coefficients the integrand at -x is the conjugate of the one at x, so
    one node serves both signs."""
    products = [(pasternack_coeffs_complex(n, m), pasternack_coeffs_complex(p, m2), None)
                for n, p in pairs]
    real = not any(u.imag for fn, fp, _ in products for u in (*fn, *fp))
    mc = _to_complex(m)
    # cos(pi m) + cosh(pi x) = 2 (cos^2(pi m / 2) + sinh^2(pi x / 2)), whose
    # terms are positive: near m = +-1 and x = 0 the sum of the left cancels
    # to 1e-8 at m = 0.9999, and its rounding moved the integral by 3e-10;
    # cos(pi m / 2) is sin(pi (1 - |m|) / 2) for real m (1 - |m| is exact
    # for |m| >= 1/2) and cosh(pi Im m / 2) for imaginary m
    half = (math.cosh(0.5 * math.pi * mc.imag) if mc.imag
            else math.sin(0.5 * math.pi * (1.0 - abs(mc.real)))) ** 2
    # the weight is at most 4 e^{-pi|x|} in both uses: 2 / (1 + cosh(pi x))
    # everywhere, and 1 / (cosh(pi x) + cos(pi m)) since cosh(pi x) + cos(pi m)
    # >= e^{pi|x|}/2 - 1 >= e^{pi|x|}/4 for |x| >= 0.45; inside that the
    # bound is above 0.97, far above the target, so the scan never stops there
    return _line_integral(
        products, lambda x: 1j * x,
        lambda xs: {None: [0.5 * scale / (half + math.sinh(0.5 * math.pi * x) ** 2)
                           for x in xs]},
        lambda x: 4.0 * math.exp(-math.pi * abs(x)), 1.0 - abs(mc.real),
        [1] * len(products) if real else None)


def bateman_ortho_checks(pairs: list, tol: float = 1e-8,
                         tol_abs: float = 1e-10) -> list[VerificationReport]:
    """bateman_ortho_check(n, m) for each (n, m) of pairs, in order, from
    one trapezoid pass on the weight."""
    pairs = _degree_pairs(pairs, "m", 12)
    return [_measured_report(
        f"bateman-ortho[n={n}, m={m}]", res,
        complex(4.0 * (-1.0) ** n / (math.pi * (2 * n + 1))) if n == m else 0j, tol, tol_abs)
        for (n, m), res in zip(pairs, _sech_integral(pairs, 0, 0, 2.0))]


def bateman_ortho_check(n: int, m: int,
                        tol: float = 1e-8, tol_abs: float = 1e-10) -> VerificationReport:
    """int F_n(ix) F_m(ix) / cosh^2(pi x / 2) dx
    = delta_{n,m} 4 (-1)^n / (pi (2n+1)): the Pasternack weight at m = 0,
    doubled."""
    return bateman_ortho_checks([(n, m)], tol, tol_abs)[0]


def pasternack_ortho_checks(m, pairs: list, tol: float = 1e-8,
                            tol_abs: float = 1e-10) -> list[VerificationReport]:
    """pasternack_ortho_check(n, p, m) for each (n, p) of pairs, in order,
    from one trapezoid pass on the weight of m."""
    pairs = _degree_pairs(pairs, "p", 10)
    [mc] = _require("real in (-1, 1) or imaginary", m=m)
    reports = []
    for (n, p), res in zip(pairs, _sech_integral(pairs, m, m, 1.0)):
        expected, details = 0j, ""
        if n == p:
            expected = ((-1.0) ** n / (2 * n + 1)) * (2.0 / math.pi) \
                * (pochhammer(1 - mc, n) / pochhammer(1 + mc, n)) \
                * pi_m_over_sin_pi_m(mc)
            ratio_33 = _pasternack_vs_hahn_norm_ratio(n, mc, expected)
            details = f"specialized-norm ratio vs gamma form: {ratio_33:.16g}"
        reports.append(_measured_report(f"pasternack-ortho[n={n}, p={p}, m={m}]", res,
                                        expected, tol, tol_abs, details))
    return reports


def pasternack_ortho_check(n: int, p: int, m,
                           tol: float = 1e-8, tol_abs: float = 1e-10) -> VerificationReport:
    """int F_n^m(ix) F_p^m(ix) / (cos(pi m) + cosh(pi x)) dx against
    delta_{n,p} ((-1)^n / (2n+1)) (2/pi) ((1-m)_n / (1+m)_n) (m pi / sin(pi m)),
    the m -> 0 limit of the last factor being 1."""
    return pasternack_ortho_checks(m, [(n, p)], tol, tol_abs)[0]


def _pasternack_vs_hahn_norm_ratio(n: int, mc: complex, expected: complex) -> float:
    """Eq-level consistency: the sech-weight diagonal against the gamma-weight
    norm carried through the z = x/2 change of variables."""
    h = pasternack_hahn_params(mc)
    hn = chahn_norm_rhs(n, h.a, h.d, h.c, h.b)
    poch = pochhammer(1 + mc, n)
    from_33 = 2.0 * hn / (math.pi * (-1.0) ** n * poch * poch)
    return abs(expected / from_33)


def pasternack_biortho_checks(m, pairs: list, tol: float = 1e-8,
                              tol_abs: float = 1e-10) -> list[VerificationReport]:
    """pasternack_biortho_check(n, p, m) for each (n, p) of pairs, in order,
    from one trapezoid pass on the weight of m."""
    pairs = _degree_pairs(pairs, "p", 10)
    [mc] = _require("real in (-1, 1)", m=m)
    return [_measured_report(
        f"pasternack-biortho[n={n}, p={p}, m={m}]", res,
        (2.0 * (-1.0) ** n / (math.pi * (2 * n + 1))) * pi_m_over_sin_pi_m(mc)
        if n == p else 0j, tol, tol_abs, BIORTHO_NOTE)
        for (n, p), res in zip(pairs, _sech_integral(pairs, m, -m, 1.0))]


def pasternack_biortho_check(n: int, p: int, m,
                             tol: float = 1e-8, tol_abs: float = 1e-10) -> VerificationReport:
    """int F_n^m(ix) F_p^{-m}(ix) / (cosh(pi x) + cos(m pi)) dx against
    delta_{n,p} (2 (-1)^n / (pi (2n+1))) (m pi / sin(pi m))."""
    return pasternack_biortho_checks(m, [(n, p)], tol, tol_abs)[0]


def jacobi_ortho_checks(alpha, beta, pairs: list, tol: float = 1e-9,
                        tol_abs: float = 1e-11) -> list[VerificationReport]:
    """jacobi_ortho_check(n, m, alpha, beta) for each (n, m) of pairs, in
    order, from one trapezoid pass on the weight (alpha, beta)."""
    pairs = _degree_pairs(pairs, "m", EXACT_DEGREE_CAP)
    al, be = _require("Re > -1", alpha=alpha, beta=beta)
    params = JacobiParams(alpha, beta)
    results = _tanh_product_integral(
        [(jacobi_coeffs_complex(n, params), jacobi_coeffs_complex(m, params), 0.0)
         for n, m in pairs], al + 1, be + 1)
    reports = []
    for (n, m), res in zip(pairs, results):
        expected = 0j
        if n == m:
            power = cmath.exp((al + be + 1) * math.log(2.0))
            # Gamma(n+al+be+1) (2n+al+be+1) is 0 * inf at n = 0 when
            # al + be = -1; Gamma(al+be+2) is its removable value there
            expected = power * gamma_product([n + al + 1, n + be + 1], [n + al + be + 1]) \
                / (math.factorial(n) * (2 * n + al + be + 1)) if n \
                else power * gamma_product([al + 1, be + 1], [al + be + 2])
        reports.append(_measured_report(
            f"jacobi-ortho[n={n}, m={m}, alpha={alpha}, beta={beta}]", res, expected,
            tol, tol_abs))
    return reports


def jacobi_ortho_check(n: int, m: int, alpha, beta,
                       tol: float = 1e-9, tol_abs: float = 1e-11) -> VerificationReport:
    """int_{-1}^1 (1-x)^alpha (1+x)^beta P_n P_m dx against the beta-type
    closed form, valid for complex parameters with Re > -1.

    The endpoint singularities for -1 < Re < 0 are removed by the x = tanh u
    substitution, which maps the integral onto a smooth line integral.
    """
    return jacobi_ortho_checks(alpha, beta, [(n, m)], tol, tol_abs)[0]
