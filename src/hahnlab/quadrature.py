"""Line quadrature: a nested trapezoidal rule.

Every integral the package verifies (Gram matrices, Barnes' lemma, the
sech and tanh weighted orthogonality relations, the Fourier, Mellin and
Parseval pairs) is one call of integrate_line, the package's one
quadrature rule (_gk15 is only the name of a deleted Gauss-Kronrod panel,
a stub that raises, which the benchmark's tracer rebinds).  The driver
owns what they share: the cut-off, the first step and the even part
f(z) + f(-z) on z >= 0, folded from one call where the caller declares a
reflection symmetry.  Each integrand is analytic in a strip around the
real line, where the rule converges geometrically in 1/h, so the first
step comes from the strip's half-width.  The integrand gets one whole
level of new nodes at a time, so a vector integrand runs each of its
loops over the level instead of once per node.  Integrals on one weight
are one vector integrand: the Gram's entries, and the K products w p q of
_line_integral, which the sech, Jacobi, Fourier, Mellin and Parseval
checks fill with every row of a weight and give only the weight: each
polynomial is evaluated once per node and bounded for the cut-off there,
and each component stops on its own target, its estimate counting the cut
tails.  Geometric convergence also sets the stop: once two consecutive
changes shrink by a ratio r <= 1/2, the tail d r / (1 - r) of the last
change d predicts the error of the current value (Trefethen and Weideman,
SIAM Review 56 (2014)), so the rule does not compute one more level only
to confirm it.

The targets are fixed constants, a value converging within
max(1e-10 |value|, 1e-14): the step comes from the strip and the stop
from the rule's own estimate, so no integrand needs targets of its own.

Unbounded integrals are truncated to [-Z, Z] with Z chosen from a caller
supplied envelope: an upper bound on |f| that is valid (and decaying)
outside a core interval.  Z is the smallest scanned radius at which both
the envelope value and a one-sided tail estimate fall below 1e-16; the
Gram matrix divides its envelope by the closed-form norms, which makes
its cut-off relative.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable
from operator import add, mul

from .errors import DomainError, QuadratureError
from .polynomials import horner_level

_REL_TOL = 1e-10
_ABS_TOL = 1e-14
_TAIL_TOL = _ABS_TOL / 100  # the truncation target, well below _ABS_TOL
# over this, QuadratureError rather than an unconverged value
_NODE_BUDGET = 30_000  # trapezoid nodes, both signs counted


class IntegralResult(namedtuple("IntegralResult", "value error_estimate evaluations mass",
                                 defaults=(0.0,))):
    """mass is the integral of |f| (the trapezoid sum of |f|), the scale
    against which a value near zero is judged; evaluations counts trapezoid
    nodes."""

    __slots__ = ()


_EPS = 2.220446049250313e-16


def _gk15(*args):
    """The deleted Gauss-Kronrod panel: a name that bench/spans.py rebinds."""
    raise NotImplementedError("the Gauss-Kronrod panel was removed")


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


class TrapezoidResult(namedtuple("TrapezoidResult",
                                  "values changes step nodes radius first_step")):
    """Vector trapezoid sums on the final step h and each component's error
    estimate: the predicted tail of its changes where they contract, else
    its last change, between 2h and h; radius is the cut-off Z and
    first_step the step of the first level."""

    __slots__ = ()


def integrate_line(f: Callable[[list], list], envelope: Callable[[float], float],
                   strip: float, tolerances: Callable[[list], list],
                   signs: list | None = None) -> TrapezoidResult:
    """Nested trapezoidal rule for a vector integrand F over the line.

    f(zs) gets a level's new nodes, a non-empty list of z >= 0, and returns
    the sum over them of each component F_k.  The rule sums the even part
    F(z) + F(-z): signs[k] = s (+1 or -1) promises F_k(-z) = s conj F_k(z),
    so a level's sum v folds to v + s conj v from one call; with None, f is
    called on -zs as well.  envelope(z) bounds every |F_k(z)|; the cut-off Z
    is truncation_radius of it, with None of max(envelope(z), envelope(-z)),
    which bounds both tails.  The first step is min(1/2, strip), strip the
    half-width of the strip where every F_k is analytic (or less, for an
    oscillatory one).  The first level is the centre node 0.0,
    which weighs half; nodes counts both sides, for the budget.  Each
    halving of the step evaluates only the new odd nodes, until every
    component's estimate is within tolerances(values): its change d
    between 2h and h or, when the change p between 4h and 2h is positive
    and r = d / p <= 1/2, the geometric tail d r / (1 - r) = d^2 / (p - d),
    which is at most d: the rule never evaluates more levels than a stop on
    the changes alone, and an h^2 rule (a kink, r = 1/4) gets the
    Richardson tail d / 3.  A level that would take the nodes past
    _NODE_BUDGET raises QuadratureError before it is evaluated, so an
    unconverged result is never returned.
    """
    if not strip > 0.0:
        raise DomainError(f"trapezoid strip must be positive, got {strip!r}")
    radius = truncation_radius(envelope if signs is not None
                               else lambda z: max(envelope(z), envelope(-z)))
    h = first_step = min(0.5, strip)

    def even_part(zs: list) -> list:
        values = f(zs)
        if signs is None:
            return list(map(add, values, f([-z for z in zs])))
        return [v + v.conjugate() if s > 0 else v - v.conjugate()
                for v, s in zip(values, signs)]

    sums = [0.5 * v for v in even_part([0.0])]
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
            sums = list(map(add, sums, even_part([k * h for k in new])))
        previous, values = values, [h * s for s in sums]
        if previous is not None:
            changes = [abs(u - v) for u, v in zip(values, previous)]
            # the tail needs a previous change p > 0 and r = d / p <= 1/2
            estimates = changes if deltas is None else [
                d * d / (p - d) if 0.0 < p and d + d <= p else d
                for d, p in zip(changes, deltas)]
            if all(e <= t for e, t in zip(estimates, tolerances(values))):
                return TrapezoidResult(values, estimates, h, nodes, radius, first_step)
            deltas = changes
        h *= 0.5


def _line_integral(pairs: list, arg: Callable, weights: Callable, weight_bound: Callable,
                   strip: float, signs: list | None = None) -> list[IntegralResult]:
    """Integrals over the line of the K products w_key(x) p(t) q(t), t = arg(x),
    of the (p, q, key) of pairs (coefficients lowest degree first) in one pass
    of integrate_line, which signs and strip go to.  weights(xs) maps each key
    to its values on a level; each distinct polynomial is evaluated once per
    level, each term is (w p) q, and the envelope is weight_bound(x), a bound
    on every |w_key(x)|, times the largest sum |p_j| r^j sum |q_j| r^j,
    r = max(1, |t|).  Each component stops within max(_ABS_TOL, _REL_TOL
    |value|) or the rounding of its |F| mass (folded with +1), the target it
    would meet alone; its error estimate is at least eps times its mass and
    the cut tails, and evaluations is the pass's node count.  No pairs, no pass."""
    if not pairs:
        return []
    polys = list(dict.fromkeys(tuple(c) for p, q, _ in pairs for c in (p, q)))
    pairs = [(polys.index(tuple(p)), polys.index(tuple(q)), key) for p, q, key in pairs]
    sizes = [[abs(u) for u in reversed(c)] for c in polys]  # once per pass
    products = dict.fromkeys((i, j) for i, j, _ in pairs)

    def sums(xs: list) -> list:
        w = weights(xs)
        ts = list(map(arg, xs))
        values = [horner_level(c, ts) for c in polys]
        terms = [list(map(mul, map(mul, w[key], values[i]), values[j])) for i, j, key in pairs]
        return [*map(sum, terms), *(sum(map(abs, t)) for t in terms)]

    last = [None, 0.0]  # r and the polynomials' bound at r, which x and -x share

    def envelope(x: float) -> float:
        r = max(1.0, abs(arg(x)))  # 1 for tanh x: one bound per pass
        if r != last[0]:
            bound = []
            for size in sizes:
                b = 0.0
                for s in size:  # Horner: 3-4x faster at these degrees than a dot with r^j
                    b = b * r + s
                bound.append(b)
            last[:] = r, max(bound[i] * bound[j] for i, j in products)
        return weight_bound(x) * last[1]

    def tolerances(values: list) -> list:
        k = len(values) // 2
        return [max(_ABS_TOL, _REL_TOL * abs(value), 100.0 * _EPS * mass)
                for value, mass in zip(values[:k], values[k:])] + [math.inf] * k

    res = integrate_line(sums, envelope, strip, tolerances,
                         None if signs is None else signs + [1] * len(signs))
    # both cut tails, e0 / rate each, rate = log(e0 / e1) over truncation_radius's step 1/2
    e0, e1 = (max(envelope(z), envelope(-z)) for z in (res.radius, res.radius + 0.5))
    cut = e0 / math.log(e0 / e1) if 0.0 < e1 < e0 else e0
    k = len(res.values) // 2
    return [IntegralResult(value, max(change, _EPS * mass, cut), res.nodes, mass)
            for value, mass, change in zip(res.values[:k], res.values[k:], res.changes)]
