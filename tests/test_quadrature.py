"""Line quadrature: the nested trapezoidal driver and its line integral."""

import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hahnlab.errors import DomainError, QuadratureError
from hahnlab import quadrature
from hahnlab.quadrature import (_ABS_TOL, _EPS, _REL_TOL, _TAIL_TOL, _line_integral,
                                _sinh_nodes, integrate_line, truncation_radius)


def _sech(u):
    e = math.exp(-abs(u))
    return 2.0 * e / (1.0 + e * e)


def _weighted(*weights, p=(1.0,)):
    """_line_integral's arguments for the products w_k(x) p(x) of weights
    w_1, ..., w_K, one key each: (pairs, arg, weights)."""
    return ([(p, (1.0,), k) for k in range(len(weights))], lambda x: x,
            lambda xs: {k: list(map(w, xs)) for k, w in enumerate(weights)})


def _sech_bound(a=1.0):
    """A bound on sech^2(a x), 4 e^{-2a|x|}."""
    return lambda x: 4.0 * math.exp(-2.0 * a * abs(x))


def _relative(values):
    return [max(_ABS_TOL, _REL_TOL * abs(v)) for v in values]


def _cut(radius):
    """An envelope that is positive inside radius and zero from it on: the
    cut-off U is the first multiple of 1/2 with c sinh U >= radius."""
    return lambda z: 1.0 if abs(z) < radius else 0.0


def _summed(F):
    """The level integrand of F: the sum over the nodes of jac F(z)."""
    return lambda zs, jacs: [sum(F(z) * jac for z, jac in zip(zs, jacs))]


def _even(k):
    """signs for k components that are even and real: the fold doubles each
    level's sum, so f returns the sum of F itself."""
    return [1] * k


@pytest.mark.parametrize("a", [math.pi / 2, math.pi, 2 * math.pi])
def test_sech_squared_family(a):
    # antiderivative of sech^2(ax) is tanh(ax)/a, so the line integral is
    # 2/a; the strip is |Im x| < pi / (2a)
    [res] = _line_integral(*_weighted(lambda x: _sech(a * x) ** 2), _sech_bound(a),
                           math.pi / (2.0 * a))
    assert abs(res.value - 2.0 / a) <= 1e-10 * (2.0 / a)


@pytest.mark.parametrize("a", [math.pi / 2, math.pi, 2 * math.pi])
def test_moment_sech_squared_family(a):
    # int u^2 sech^2(u) du = pi^2/6 over the line, rescaled by a^3
    expected = math.pi ** 2 / (6.0 * a ** 3)
    [res] = _line_integral(*_weighted(lambda x: _sech(a * x) ** 2, p=(0.0, 0.0, 1.0)),
                           _sech_bound(a), math.pi / (2.0 * a))
    assert abs(res.value - expected) <= 1e-10 * expected


def test_odd_integrand_vanishes():
    [res] = _line_integral(*_weighted(lambda x: _sech(x) ** 2, p=(0.0, 1.0)), _sech_bound(),
                           math.pi / 2.0)
    assert abs(res.value) <= _ABS_TOL * 10


def test_complex_integrand():
    # sech^2 x (1 + ix)
    [res] = _line_integral(*_weighted(lambda x: _sech(x) ** 2, p=(1.0, 1j)), _sech_bound(),
                           math.pi / 2.0)
    assert abs(res.value.real - 2.0) <= 2e-10
    assert abs(res.value.imag) <= 1e-12


def test_diagnostics_populated():
    [res] = _line_integral(*_weighted(lambda x: _sech(x) ** 2), _sech_bound(), math.pi / 2.0)
    # the centre node and the same count on each side
    assert res.evaluations % 2 == 1 and res.evaluations > 0
    assert res.error_estimate >= 0.0


def test_interval_gaussian():
    # e^{-x^2} is entire: an infinite strip maps by z = sinh u, and the
    # trapezoid sums out to sinh 3 > 8 reach sqrt(pi)
    res = integrate_line(_summed(lambda x: math.exp(-x * x)), _cut(8.0),
                         math.inf, _relative, _even(1))
    assert (res.cutoff, res.scale, res.radius) == (3.0, 1.0, math.sinh(3.0))
    assert abs(res.values[0] - math.sqrt(math.pi)) <= 1e-12


def _mapped(envelope):
    """The envelope in u that integrate_line scans for an infinite strip,
    where c = 1: envelope(sinh u) cosh u."""
    return lambda u: envelope(math.sinh(u)) * math.cosh(u)


def test_one_sided_envelope_bounds_both_tails():
    """Without signs integrate_line cuts off at max(envelope(z), envelope(-z))
    in u: e^{-(x+10)^2}, its own envelope, is negligible at x >= 0 and all of
    its mass lies at x < 0, which a scan of envelope(z) alone would cut at
    u = 1/2."""
    envelope = lambda z: math.exp(-(z + 10.0) ** 2)
    assert truncation_radius(_mapped(envelope)) == 0.5
    res = integrate_line(_summed(envelope), envelope, math.inf, _relative)
    assert res.cutoff == truncation_radius(_mapped(lambda z: envelope(-z)))
    assert res.radius > 10.0
    assert abs(res.values[0] - math.sqrt(math.pi)) <= 1e-12


def test_oscillatory_panel_width():
    # e^{i w x} sech^2 x has closed form pi w / sinh(pi w / 2); the first
    # step comes from the half period pi / w, not the strip pi / 2
    w = 9.0
    expected = math.pi * w / math.sinh(math.pi * w / 2.0)
    [res] = _line_integral(
        *_weighted(lambda x: complex(math.cos(w * x), math.sin(w * x)) * _sech(x) ** 2),
        _sech_bound(), math.pi / w)
    assert abs(res.value - expected) <= 1e-10 * max(expected, 1.0)


def test_truncation_radius_monotone_envelope():
    u = truncation_radius(lambda x: math.exp(-x))
    assert math.exp(-u) < _TAIL_TOL and u % 0.5 == 0.0


def test_truncation_failure_raises():
    with pytest.raises(QuadratureError, match="never decays"):
        truncation_radius(lambda x: 1.0)


def test_scan_stops_before_sinh_overflows():
    """An envelope that never decays in z grows like cosh u in u: the scan
    gives up below u = 710, where math.sinh and math.cosh overflow, with a
    QuadratureError and not an OverflowError."""
    scanned = []

    def envelope(z):
        scanned.append(z)
        return 1.0

    with pytest.raises(QuadratureError, match="never decays"):
        integrate_line(_summed(envelope), envelope, 1.0, _relative, _even(1))
    assert max(scanned) == math.sinh(709.0) < math.inf


@pytest.mark.parametrize("envelope", [lambda z: math.exp(z), lambda z: math.nan],
                         ids=["overflows", "nan"])
def test_scan_refuses_an_envelope_that_is_not_finite(envelope):
    """e^z overflows math.exp at z = 710, long before u does; a NaN bounds
    nothing.  Both are a QuadratureError, and no level is evaluated."""
    calls = []
    with pytest.raises(QuadratureError, match="not finite"):
        integrate_line(lambda zs, jacs: calls.append(zs) or [0.0], envelope, 1.0, _relative)
    assert not calls


def test_deterministic_repeat():
    # poles at +-i (1 / (1 + x^2)) and +-i pi / 2 (sech^2): strip 1
    runs = [_line_integral(*_weighted(lambda x: _sech(x) ** 2 / (1.0 + x * x)),
                           _sech_bound(), 1.0)[0]
            for _ in range(2)]
    assert runs[0].value == runs[1].value
    assert runs[0].evaluations == runs[1].evaluations


def test_trapezoid_vector_sech_squared_and_moment():
    # components: sech^2 x (integral 2) and x^2 sech^2 x (integral pi^2/6);
    # both analytic in |Im x| < pi/2 and even, so the even part is twice
    # the integrand
    calls = []

    def g(zs, jacs):
        calls.extend(zs)
        s2 = [_sech(x) ** 2 * jac for x, jac in zip(zs, jacs)]
        return [sum(s2), sum(x * x * s for x, s in zip(zs, s2))]

    res = integrate_line(g, _cut(40.0), math.pi / 2, _relative, _even(2))
    assert abs(res.values[0] - 2.0) <= 1e-14
    assert abs(res.values[1] - math.pi ** 2 / 6.0) <= 1e-13
    # nested and folded: every node z >= 0 of the final grid evaluated
    # exactly once, and nodes still counts both sides of the grid;
    # (pi / 2) sinh 4 is the first cut-off past 40
    assert min(calls) == 0.0 and (res.cutoff, res.scale) == (4.0, math.pi / 2)
    assert len(calls) == len(set(calls)) == int(4.0 / res.step) + 1
    assert res.nodes == 2 * int(4.0 / res.step) + 1
    assert res.changes[0] <= 1e-10 * 2.0


def test_trapezoid_calls_f_once_per_level():
    # the centre alone, then the whole first grid, then each halving's new
    # odd nodes, each level in one call
    levels = []

    def g(zs, jacs):
        levels.append((zs, jacs))
        return [sum(_sech(x) ** 2 * jac for x, jac in zip(zs, jacs))]

    c = math.pi / 2
    res = integrate_line(g, _cut(40.0), c, _relative, _even(1))
    assert levels[0] == ([0.0], [c])
    assert levels[1] == _sinh_nodes(c, [0.5 * k for k in range(1, 9)])
    for j, level in enumerate(levels[2:], 1):
        h = 0.5 / 2 ** j
        assert level == _sinh_nodes(c, [k * h for k in range(1, int(4.0 / h) + 1, 2)])
    assert res.step == 0.5 / 2 ** (len(levels) - 2)


def test_trapezoid_even_part_cancels_odd_part():
    # F(x) = (1 + x) sech^2 x has no reflection symmetry: the driver calls f
    # on zs and on -zs, and the odd part cancels in F(x) + F(-x), so the
    # integral is that of sech^2 x alone
    levels = []

    def g(zs, jacs):
        levels.append(zs)
        return _summed(lambda x: (1.0 + x) * _sech(x) ** 2)(zs, jacs)

    res = integrate_line(g, _cut(40.0), math.pi / 2, _relative)
    assert abs(res.values[0] - 2.0) <= 1e-14
    # each level at its nodes, then at their negatives
    assert levels[0] == [0.0] and levels[1] == [-0.0]
    for plus, minus in zip(levels[2::2], levels[3::2]):
        assert min(plus) > 0.0 and minus == [-z for z in plus]
    assert len(levels) % 2 == 0


def test_signs_fold_one_call_per_level():
    """signs[k] = s promises F_k(-z) = s conj F_k(z): one call per level,
    folded to v + conj v (s = +1) or v - conj v (s = -1).  F(x) =
    e^{ix} sech^2 x is such a pair with s = +1, and i F with s = -1; the
    folds match the unfolded integrals to rounding on the same grid."""
    calls = []

    def g(zs, jacs):
        calls.append(zs)
        [v] = _summed(lambda x: cmath.exp(1j * x) * _sech(x) ** 2)(zs, jacs)
        return [v, 1j * v]

    folded = integrate_line(g, _cut(40.0), 1.0, _relative, [1, -1])
    assert all(min(zs) >= 0.0 for zs in calls)
    levels = len(calls)
    calls.clear()
    both = integrate_line(g, _cut(40.0), 1.0, _relative)
    assert len(calls) == 2 * levels
    assert folded.step == both.step and folded.nodes == both.nodes
    for u, v in zip(folded.values, both.values):
        assert abs(u - v) <= 8 * _EPS * 2.0
    assert folded.values[1] == pytest.approx(1j * folded.values[0], rel=1e-15)


def test_trapezoid_node_budget_raises_before_evaluating(monkeypatch):
    monkeypatch.setattr(quadrature, "_NODE_BUDGET", 20)
    calls = []
    with pytest.raises(QuadratureError, match="over the budget of 20"):
        integrate_line(lambda zs, jacs: calls.extend(zs) or [float(len(zs))], _cut(100.0),
                       0.5, _relative, _even(1))
    # the centre node only: the first level, u = k/2 out to U = 6, where
    # sinh U / 2 passes 100, has 25 nodes and never ran
    assert calls == [0.0]


def _trapezoid(g, scale, cutoff, h):
    """The plain (not nested) trapezoid sums at step h in u of the even real
    integrand whose per-side sums g returns."""
    centre = g(*_sinh_nodes(scale, [0.0]))
    rest = g(*_sinh_nodes(scale, [k * h for k in range(1, int(cutoff / h) + 1)]))
    return [h * (c + 2.0 * r) for c, r in zip(centre, rest)]


def test_trapezoid_stops_a_level_before_the_change_only_rule():
    # sech^2 2x (x^2 + 2) / (x^4 + 4) and x^2 times it, the even part of
    # sech^2 2x / (1 + (x - 1)^2): the poles at +-1 +- i, off the imaginary
    # axis, slow the rule in u, whose changes from h = 1/2 are about 6e-5
    # (1/2 -> 1/4) and 8e-9 (1/4 -> 1/8), so the predicted tail at 1/8 is
    # about 1e-12, under the tolerance, while the change itself passes only
    # at 1/16
    def g(zs, jacs):
        s2 = [_sech(2.0 * x) ** 2 * (x * x + 2.0) / (x ** 4 + 4.0) * jac
              for x, jac in zip(zs, jacs)]
        return [sum(s2), sum(x * x * s for x, s in zip(zs, s2))]

    c = math.pi / 4
    res = integrate_line(g, _cut(40.0), c, _relative, _even(2))
    assert res.cutoff == 5.0  # (pi / 4) sinh 5 is the first cut-off past 40
    h = 0.25
    while not all(abs(u - v) <= t for u, v, t in
                  zip(_trapezoid(g, c, 5.0, h), _trapezoid(g, c, 5.0, 2 * h),
                      _relative(_trapezoid(g, c, 5.0, h)))):
        h *= 0.5
    assert res.step == 2 * h == 0.125
    fine = _trapezoid(g, c, 5.0, 1 / 64)
    assert all(abs(u - v) <= 1e-14 for u, v in zip(res.values, fine))
    # the reported estimate is the predicted tail, not the last change
    last = [abs(u - v) for u, v in zip(res.values, _trapezoid(g, c, 5.0, 0.25))]
    assert all(e < 1e-3 * d for e, d in zip(res.changes, last))
    assert all(e <= t for e, t in zip(res.changes, _relative(res.values)))


def _sequence(*components, step=0.5):
    """A level integrand whose nested trapezoid values at the steps
    step / 2^j are given, one list per component: each call returns what
    the sums need to move from one level's value to the next, halved for
    the fold of signs [1, ...] (the centre node contributes nothing)."""
    levels = iter([[0.0] * len(components)]
                  + [[(v[j] * 2 ** j / step - (v[j - 1] * 2 ** (j - 1) / step if j else 0.0))
                      / 2 for v in components] for j in range(len(components[0]))])
    return lambda zs, jacs: next(levels)


def _driver(f, tol, k=1):
    """integrate_line on the cut-off 2 from the first step 1/2, f's
    components even and real."""
    return integrate_line(f, _cut(2.0), 0.5, _absolute(tol), _even(k))


def _absolute(tol):
    return lambda values: [tol] * len(values)


def test_trapezoid_zero_previous_change_makes_no_prediction():
    # a component at exactly zero (0 / 0 if predicted), one that first moves
    # right after a zero change (1 -> 2: no ratio, so no prediction), and one
    # that holds the first level open
    zero = [0.0] * 5
    late = [1.0, 1.0, 2.0, 2.0, 2.0]
    early = [0.0, 1.0, 1.0, 1.0, 1.0]
    res = _driver(_sequence(zero, late, early), 1e-6, 3)
    assert res.step == 0.5 / 8  # not 1/8, where `late` moved by 1
    assert res.values == [0.0, 2.0, 1.0]
    assert res.changes == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("ratio", [0.6, 1.0, 3.0])
def test_trapezoid_non_contracting_changes_never_predict(ratio):
    # changes 1, r, r^2, ...: with r > 1/2 the stop is the change-only rule's,
    # and the estimate is the last change itself
    values = [sum(ratio ** k for k in range(j + 1)) for j in range(14)]
    f = _sequence(values)
    if ratio >= 1.0:
        with pytest.raises(QuadratureError):
            _driver(f, 1e-2)
        return
    res = _driver(f, 1e-2)
    j = next(j for j in range(1, 14) if ratio ** j <= 1e-2)
    assert res.step == 0.5 / 2 ** j
    assert res.changes[0] == pytest.approx(ratio ** j, rel=1e-12)


def test_trapezoid_prediction_is_the_richardson_tail():
    # values 1 + 4^-j (an h^2 rule, r = 1/4): the tail d r / (1 - r) = d / 3
    # is exactly the error 4^-j, which passes 1e-4 at j = 7, one level
    # before the change 3 * 4^-j does
    values = [1.0 + 4.0 ** -j for j in range(12)]
    res = _driver(_sequence(values), 1e-4)
    assert res.step == 0.5 / 2 ** 7  # 4^-7 < 1e-4 < 4^-6
    assert res.changes[0] == pytest.approx(res.values[0] - 1.0, rel=1e-9)


def test_trapezoid_unconverged_raises():
    # a kink at 0, which the map keeps at u = 0, converges only algebraically in h
    with pytest.raises(QuadratureError):
        integrate_line(_summed(lambda x: math.exp(-x)), _cut(40.0), 0.5, _relative, _even(1))


@pytest.mark.parametrize("strip", [0.0, -1.0, math.nan])
def test_driver_refuses_a_strip_that_is_not_positive(strip):
    calls = []
    with pytest.raises(DomainError, match="strip must be positive"):
        integrate_line(lambda zs, jacs: calls.append(zs) or [0.0], _cut(2.0), strip,
                       _relative)
    assert not calls


def test_line_integral_folds_and_reports_the_mass():
    # F(x) = e^{iwx} sech^2 x has F(-x) = conj F(x), the integral
    # pi w / sinh(pi w / 2) and |F| mass 2
    w = 3.0
    expected = math.pi * w / math.sinh(math.pi * w / 2.0)

    args = (*_weighted(lambda x: cmath.exp(1j * w * x) * _sech(x) ** 2), _sech_bound(),
            min(math.pi / 2.0, math.pi / w))
    [folded] = _line_integral(*args, [1])
    [unfolded] = _line_integral(*args)
    for res in (folded, unfolded):
        assert abs(res.value - expected) <= 1e-13
        assert abs(res.mass - 2.0) <= 1e-13
        assert res.error_estimate <= _REL_TOL * abs(expected)
    assert abs(folded.value - unfolded.value) <= 8 * _EPS * folded.mass
    assert folded.evaluations == unfolded.evaluations


def test_line_integral_components_share_one_pass():
    """e^{-x^2} converges at fewer nodes alone than sech^2 x / (1 + (x - 2)^2),
    whose poles at 2 +- i lie off the imaginary axis, where the map narrows
    their strip in u below pi/2: in one pass both report the slower one's
    node count, the slower component is its lone integral to the bit, and
    the faster one stays within its own estimate of its lone value."""
    fast = lambda x: math.exp(-x * x)
    slow = lambda x: _sech(x) ** 2 / (1.0 + (x - 2.0) ** 2)
    alone = [_line_integral(*_weighted(w), _sech_bound(), 1.0)[0] for w in (fast, slow)]
    pair = _line_integral(*_weighted(fast, slow), _sech_bound(), 1.0)
    assert alone[0].evaluations < alone[1].evaluations
    assert [r.evaluations for r in pair] == [alone[1].evaluations] * 2
    assert pair[1] == alone[1]
    assert abs(pair[0].value - alone[0].value) <= alone[0].error_estimate
    assert abs(pair[0].value - math.sqrt(math.pi)) <= 1e-14


def test_benchmark_tracer_installs():
    """bench/spans.py patches the package from outside, private names such
    as quadrature._gk15 included; a deletion that breaks it fails here, not
    only in a benchmark run."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p))
    code = ("import sys; sys.path.insert(0, 'bench'); "
            "from spans import Tracer; Tracer().install()")
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
