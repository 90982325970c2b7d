"""Line quadrature: a nested trapezoidal rule and adaptive Gauss-Kronrod.

Every integral the package verifies (Gram matrices, Barnes' lemma, the
sech and tanh weighted orthogonality relations, the Fourier, Mellin and
Parseval pairs) uses the nested trapezoidal rule: each integrand is
analytic in a strip around the real line, where the rule converges
geometrically in 1/h, so the first step comes from the strip's
half-width.  The rule takes the integrand's even part f(z) + f(-z) on
z >= 0, so a caller with a reflection symmetry evaluates each node pair
once, and it hands the integrand one whole level of new nodes at a time,
so a vector integrand runs each of its loops over the level instead of
once per node.  Geometric convergence also sets the stop: once two
consecutive changes shrink by a ratio r <= 1/2, the tail d r / (1 - r) of
the last change d predicts the error of the current value (Trefethen and
Weideman, SIAM Review 56 (2014)), so the rule does not compute one more
level only to confirm it.  Adaptive Gauss-Kronrod (integrate_line,
integrate_interval) remains as a public routine that no check calls.

The targets are fixed constants, a value converging within
max(1e-10 |value|, 1e-14): the step comes from the strip and the stop
from the rule's own estimate, so no integrand needs targets of its own.

Unbounded integrals are truncated to [-Z, Z] with Z chosen from a caller
supplied envelope: an upper bound on |f| that is valid (and decaying)
outside a core interval.  Z is the smallest scanned radius at which both
the envelope value and a one-sided tail estimate fall below 1e-16; the
Gram matrix divides its envelope by the closed-form norms, which makes
its cut-off relative.

Gauss-Kronrod panels are refined by bisecting the panel with the largest
|K15 - G7| discrepancy; ties break on the leftmost panel and the final
sum runs in left-to-right panel order, so results are bit-for-bit
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add
from typing import Callable

from .errors import DomainError, QuadratureError

# 15-point Kronrod extension of 7-point Gauss (positive half; symmetric).
_XGK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
)
_WGK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
# Gauss weights attach to the odd-indexed Kronrod nodes.
_WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)

_REL_TOL = 1e-10
_ABS_TOL = 1e-14
_TAIL_TOL = _ABS_TOL / 100  # the truncation target, well below _ABS_TOL
# over these, QuadratureError rather than an unconverged value
_NODE_BUDGET = 30_000  # trapezoid nodes, both signs counted
_MAX_PANELS = 2000  # Gauss-Kronrod panels


@dataclass(frozen=True)
class IntegralResult:
    """mass is the integral of |f| (the trapezoid sum of |f|, or the panels'
    K15 sums of |f|), the scale against which a value near zero is judged;
    evaluations counts trapezoid nodes or Gauss-Kronrod points."""

    value: complex
    error_estimate: float
    evaluations: int
    mass: float = 0.0


_EPS = 2.220446049250313e-16


def _gk15(f: Callable[[float], complex], a: float, b: float):
    """One K15/G7 panel: (integral, error estimate, integral of |f|).

    The error model follows QUADPACK dqk15: the raw |K15 - G7| gap is
    sharpened through the resasc scaling and floored at the rounding
    level of the panel's |f| mass.
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    values = []
    for x in _XGK:
        if x == 0.0:
            values.append((f(mid),))
        else:
            values.append((f(mid + half * x), f(mid - half * x)))
    resk = 0j
    resg = 0j
    resabs = 0.0
    gauss_idx = 0
    for i, vs in enumerate(values):
        pair = sum(vs)
        resk += _WGK[i] * pair
        resabs += _WGK[i] * sum(abs(v) for v in vs)
        if len(vs) == 1:
            resg += _WG[3] * pair
        elif i % 2 == 1:
            resg += _WG[gauss_idx] * pair
            gauss_idx += 1
    reskh = resk * 0.5
    resasc = 0.0
    for i, vs in enumerate(values):
        resasc += _WGK[i] * sum(abs(v - reskh) for v in vs)
    err = abs(resk - resg) * half
    resabs *= half
    resasc *= half
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    err = max(err, 50.0 * _EPS * resabs)
    return resk * half, err, resabs


def integrate_interval(f: Callable[[float], complex], a: float, b: float,
                       max_panel_width: float | None = None) -> IntegralResult:
    """Adaptive integral of f over the finite interval [a, b]."""
    if not b > a:
        raise DomainError("integration interval is empty")
    width = b - a
    w0 = width
    if max_panel_width is not None and max_panel_width > 0.0:
        w0 = min(w0, max_panel_width)
    n0 = max(1, math.ceil(width / w0))
    panels = []
    evaluations = 0
    for i in range(n0):
        left = a + width * i / n0
        right = a + width * (i + 1) / n0
        value, err, resabs = _gk15(f, left, right)
        evaluations += 15
        panels.append([left, right, value, err, resabs])

    min_width = width * 1e-13
    while True:
        total = 0j
        total_err = 0.0
        total_resabs = 0.0
        worst = None
        worst_key = (-1.0, 0.0)
        for p in panels:
            total += p[2]
            total_err += p[3]
            total_resabs += p[4]
            if p[1] - p[0] > min_width:
                key = (p[3], -p[0])
                if key > worst_key:
                    worst_key = key
                    worst = p
        if total_err <= max(_ABS_TOL, _REL_TOL * abs(total)):
            break
        # request below attainable rounding precision: accept best effort
        if total_err <= 100.0 * _EPS * total_resabs:
            break
        if worst is None or len(panels) >= _MAX_PANELS:
            raise QuadratureError(
                f"no convergence with {len(panels)} panels; "
                f"error estimate {total_err:.3g} for value {abs(total):.3g}")
        left, right = worst[0], worst[1]
        mid = 0.5 * (left + right)
        v1, e1, r1 = _gk15(f, left, mid)
        v2, e2, r2 = _gk15(f, mid, right)
        evaluations += 30
        worst[1], worst[2], worst[3], worst[4] = mid, v1, e1, r1
        panels.append([mid, right, v2, e2, r2])

    panels.sort(key=lambda p: p[0])
    total = 0j
    total_err = 0.0
    total_resabs = 0.0
    for p in panels:
        total += p[2]
        total_err += p[3]
        total_resabs += p[4]
    return IntegralResult(total, total_err, evaluations, total_resabs)


def truncation_radius(envelope: Callable[[float], float]) -> float:
    """Smallest Z, scanned from 2 in steps of 1/2, where envelope and tail
    fall below _TAIL_TOL."""
    z = 2.0
    step = 0.5
    while z <= 720.0:
        e0 = envelope(z)
        if e0 <= 0.0:
            return z
        if e0 < _TAIL_TOL:
            e1 = envelope(z + step)
            if e1 <= 0.0:
                return z + step
            if e1 < e0:
                rate = math.log(e0 / e1) / step
                if e0 / rate < _TAIL_TOL:
                    return z
        z += step
    raise QuadratureError("envelope never decays below the truncation target")


def integrate_line(f: Callable[[float], complex],
                   envelope: Callable[[float], float],
                   max_panel_width: float | None = None) -> IntegralResult:
    """Integral of f over the whole line, truncated via the envelope.

    envelope(x) must bound |f(+-x)| from above for x >= 2 and eventually
    decay; oscillatory integrands should pass max_panel_width of about
    pi / frequency so a panel never spans more than half a period.
    """
    z = truncation_radius(envelope)
    width = min(2.0, max_panel_width) if max_panel_width else 2.0
    return integrate_interval(f, -z, z, max_panel_width=width)


@dataclass(frozen=True)
class TrapezoidResult:
    """Vector trapezoid sums on the final step h and each component's error
    estimate: the predicted tail of its changes where they contract, else
    its last change, between 2h and h."""

    values: list
    changes: list
    step: float
    nodes: int


def integrate_line_trapezoid(f: Callable[[list], list], radius: float,
                             step: float,
                             tolerances: Callable[[list], list]
                             ) -> TrapezoidResult:
    """Nested trapezoidal rule for a vector integrand on [-radius, radius].

    f(zs) is called once per level with the level's new nodes, a non-empty
    list of z >= 0, and returns the sum over them of the even part
    F(z) + F(-z) of the integrand F, one complex value per component.
    The first call is f([0.0]), the centre node, which weighs half; nodes
    counts both sides, for the budget.  The step starts at `step` and is
    halved, each halving evaluating only the new odd nodes, until every
    component's estimate is within tolerances(values).  A component's
    estimate is its change d between 2h and h or, when the change p between
    4h and 2h is positive and r = d / p <= 1/2, the geometric tail
    d r / (1 - r) = d^2 / (p - d), which is at most d: the rule never
    evaluates more levels than a stop on the changes alone, and an h^2 rule
    (a kink, r = 1/4) gets the Richardson tail d / 3.  A level that would
    take the nodes past _NODE_BUDGET raises QuadratureError before it is
    evaluated, so an unconverged result is never returned.
    """
    if not (radius > 0.0 and step > 0.0):
        raise DomainError("trapezoid radius and step must be positive")
    h = step
    sums = [0.5 * v for v in f([0.0])]
    nodes = 1
    values = deltas = None
    while True:
        # nodes k*h with 0 < k*h <= radius on each side; after the first
        # step only the odd k are new
        new = range(1, int(radius / h) + 1, 1 if values is None else 2)
        nodes += 2 * len(new)
        if nodes > _NODE_BUDGET:
            raise QuadratureError(
                f"trapezoid step {h:.3g} on [-{radius:.3g}, {radius:.3g}] "
                f"needs {nodes} nodes, over the budget of {_NODE_BUDGET}")
        if new:
            sums = list(map(add, sums, f([k * h for k in new])))
        previous, values = values, [h * s for s in sums]
        if previous is not None:
            changes = [abs(u - v) for u, v in zip(values, previous)]
            # the tail needs a previous change p > 0 and r = d / p <= 1/2
            estimates = changes if deltas is None else [
                d * d / (p - d) if 0.0 < p and d + d <= p else d
                for d, p in zip(changes, deltas)]
            if all(e <= t for e, t in zip(estimates, tolerances(values))):
                return TrapezoidResult(values, estimates, h, nodes)
            deltas = changes
        h *= 0.5


def _line_integral(f: Callable[[list], tuple], envelope: Callable[[float], float],
                   strip: float, reflection: int | None = None) -> IntegralResult:
    """Integral over the line of a scalar integrand F by the nested
    trapezoidal rule.

    f(zs) returns (sum F(z), sum |F(z)|) over a list of nodes of either
    sign.  With reflection = s (+1 or -1) the caller promises
    F(-z) = s conj F(z), and the even part at z >= 0 is v + s conj v from
    one call; with None, f is called on -zs as well.  The cut-off comes
    from envelope (truncation_radius), the first step is min(1/2, strip),
    strip being the half-width of the integrand's strip of analyticity
    (or less, for an oscillatory one), and the rule stops once the value's
    estimate (integrate_line_trapezoid) is within max(_ABS_TOL,
    _REL_TOL |value|) or the rounding of the |F| mass, the targets of
    integrate_interval.  The error estimate is that estimate, floored at
    eps times the mass: a predicted tail below rounding is not an error.
    """

    def even_part(zs: list) -> list:
        v, mass = f(zs)
        if reflection is None:
            u, mass_minus = f([-z for z in zs])
            return [v + u, mass + mass_minus]
        return [v + v.conjugate() if reflection > 0 else v - v.conjugate(),
                2.0 * mass]

    def tolerances(values: list) -> list:
        value, mass = values
        return [max(_ABS_TOL, _REL_TOL * abs(value), 100.0 * _EPS * mass),
                math.inf]

    radius = truncation_radius(envelope)
    res = integrate_line_trapezoid(even_part, radius, min(0.5, strip), tolerances)
    value, mass = res.values
    return IntegralResult(value, max(res.changes[0], _EPS * mass), res.nodes, mass)
