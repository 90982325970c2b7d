"""Gamma-function foundations, cross-checked against mpmath."""

import cmath
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from hahnlab import numerics
from hahnlab.errors import DomainError, PoleError, RangeOverflowError
from hahnlab.exact import GaussianRational
from hahnlab.numerics import (_hahn_weight_log_of, beta, gamma, hahn_weight,
                              hahn_weight_log, log_gamma, log_gamma_complex, pochhammer)
from hahnlab.orthogonality import chahn_gram

mp.mp.dps = 30


def test_pochhammer_empty_product_is_one():
    assert pochhammer(2.7 + 0.3j, 0) == 1.0


def test_pochhammer_of_one_is_factorial():
    assert pochhammer(1, 4) == 24


def test_pochhammer_direct_product():
    # 3*4*5*6
    assert pochhammer(3, 4) == 360


def test_pochhammer_negative_order_rejected():
    with pytest.raises(DomainError):
        pochhammer(1.0, -1)


def test_gamma_at_small_integers():
    assert abs(gamma(1) - 1) < 1e-14
    assert abs(gamma(5) - 24) < 24 * 1e-13


def test_gamma_half_squared_is_pi():
    # reflection formula at z = 1/2
    assert abs(gamma(0.5) ** 2 - math.pi) < 1e-13 * math.pi


def test_gamma_pole_raises():
    for z in (0, -1, -2.0, -17):
        with pytest.raises(PoleError):
            gamma(z)


def test_log_gamma_accuracy_right_half_plane():
    """Relative accuracy of log Gamma against mpmath on Re(z) >= 1/2."""
    rng = random.Random(20240901)
    for _ in range(400):
        z = complex(rng.uniform(0.5, 25.0), rng.uniform(-25.0, 25.0))
        got = log_gamma(z)
        ref = mp.loggamma(mp.mpc(z.real, z.imag))
        scale = max(1.0, abs(complex(float(ref.real), float(ref.imag))))
        assert abs(got.log_modulus - float(ref.real)) <= 1e-13 * scale
        dphi = math.remainder(got.phase - float(ref.imag), 2.0 * math.pi)
        assert abs(dphi) <= 1e-13 * scale


# log_gamma_complex to the bit on Re z >= 1/2 (Lanczos) and by reflection,
# |Im z| above and below 20 (_log_sin_pi's two forms): a reordered Lanczos
# sum, or any other change of its operations, moves some of these
LOG_GAMMA_BITS = [
    (0.5, "0x1.250d048e7a1bcp-1", "0x0.0p+0"),
    (2.5 + 3j, "-0x1.78907b3959449p+0", "0x1.694b781fc1101p+1"),
    (0.75 - 10j, "-0x1.c6d4a32a231c6p+3", "-0x1.ad6d4bd89ec5ap+3"),
    (7.25 + 0.5j, "0x1.c2286c73b4875p+2", "0x1.e94efe47b2619p-1"),
    (0.25, "0x1.49bbd81c16ef9p+0", "0x0.0p+0"),
    (-1.5 + 0.25j, "0x1.303d37df0cbc8p-1", "0x1.69455067bcd54p-3"),
    (0.125 - 4j, "-0x1.788e26d4c7adbp+2", "-0x1.e5db5430d42aep-1"),
    (-3.75 - 20j, "-0x1.5a147484d435fp+5", "-0x1.389b10fac09c9p+5"),
    (0.3 + 30j, "-0x1.7714daceccfc4p+5", "0x1.1ee3d2f606231p+6"),
    # on the Gram weight's lines p + iz, Re p in {1/3, 1/2, 13/8}
    (1 / 3 + 7.5j, "-0x1.6653e4f9e42f3p+3", "0x1.d6a2b218ffd6cp+2"),
    (0.5 - 18j, "-0x1.b5afb30898cc6p+4", "-0x1.103b67f4bd7c0p+5"),
    (1.625 + 12.25j, "-0x1.f01b4ccb337d7p+3", "0x1.4296062ace764p+4"),
    (1 / 3 - 16.5j, "-0x1.977664fc7a21bp+4", "-0x1.d7ecdfe17e1cap+4"),
]


@pytest.mark.parametrize("z, re, im", LOG_GAMMA_BITS, ids=[str(z) for z, _, _ in LOG_GAMMA_BITS])
def test_log_gamma_complex_bits_are_pinned(z, re, im):
    w = log_gamma_complex(z)
    assert (w.real.hex(), w.imag.hex()) == (re, im)


def test_log_gamma_reflection_large_imaginary():
    """Left half-plane values with |Im z| past the asymptotic switch."""
    rng = random.Random(3)
    for _ in range(60):
        z = complex(rng.uniform(-8.0, 0.49),
                    rng.choice([1, -1]) * rng.uniform(20.5, 120.0))
        got = log_gamma(z)
        ref = mp.loggamma(mp.mpc(z.real, z.imag))
        scale = max(1.0, abs(complex(float(ref.real), float(ref.imag))))
        assert abs(got.log_modulus - float(ref.real)) <= 1e-13 * scale
        dphi = math.remainder(got.phase - float(ref.imag), 2.0 * math.pi)
        assert abs(dphi) <= 1e-13 * scale


@pytest.mark.parametrize("z", [complex(-1e17, 0.5), complex(-1e10, 0.5),
                               complex(-1e10, -0.5), complex(-1e10, 25.0),
                               complex(-1e17, 25.0), complex(-1e10, -25.0)])
def test_log_gamma_phase_at_large_negative_real_part(z):
    """Both branches of log sin(pi z) (|Im z| below and past 20): pi z formed
    before Re z is reduced rounds the phase by about ulp(pi Re z), 2.09 rad
    at -1e17 + 0.5i and 2.4e-6 at -1e10 + 0.5i."""
    with mp.workdps(50):
        ref = mp.loggamma(mp.mpc(z.real, z.imag))
        phase = float(ref.imag - 2 * mp.pi * mp.nint(ref.imag / (2 * mp.pi)))
        log_modulus = float(ref.real)
    got = log_gamma(z)
    assert abs(math.remainder(got.phase - phase, 2.0 * math.pi)) <= 1e-12
    assert abs(got.log_modulus - log_modulus) <= 1e-13 * abs(log_modulus)


def test_log_gamma_phase_is_principal():
    for z in (0.5 + 9j, 3 - 7j, 0.25 + 2j, -0.3 + 4j):
        lg = log_gamma(z)
        assert -math.pi < lg.phase <= math.pi


def test_recurrence_identity_grid():
    """Gamma(z+1) = z Gamma(z) to 1e-12 relative, 1000 points, |z| <= 20."""
    rng = random.Random(12345)
    count = 0
    while count < 1000:
        z = complex(rng.uniform(0.05, 20.0), rng.uniform(-20.0, 20.0))
        if abs(z) > 20.0:
            continue
        count += 1
        lhs = log_gamma_complex(z + 1)
        rhs = log_gamma_complex(z) + cmath.log(z)
        diff = lhs - rhs
        # same analytic content up to 2 pi i
        assert abs(diff.real) <= 1e-12 * max(1.0, abs(lhs.real))
        assert abs(math.remainder(diff.imag, 2.0 * math.pi)) <= 1e-12 * max(1.0, abs(lhs))


def test_reflection_identity():
    """Gamma(z) Gamma(1-z) sin(pi z) / pi = 1 away from integers."""
    rng = random.Random(99)
    for _ in range(200):
        z = complex(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
        if abs(z.imag) < 0.05 and abs(z.real - round(z.real)) < 0.05:
            continue
        w = log_gamma_complex(z) + log_gamma_complex(1 - z)
        value = cmath.exp(w) * cmath.sin(math.pi * z) / math.pi
        assert abs(value - 1.0) <= 1e-12


def test_pochhammer_matches_gamma_ratio():
    rng = random.Random(4242)
    for _ in range(200):
        a = complex(rng.uniform(0.1, 6.0), rng.uniform(-4.0, 4.0))
        k = rng.randrange(0, 12)
        direct = pochhammer(a, k)
        via_gamma = cmath.exp(log_gamma_complex(a + k) - log_gamma_complex(a))
        assert abs(direct - via_gamma) <= 1e-12 * max(1.0, abs(direct))


def test_beta_trivial_and_derived_values():
    assert abs(beta(1, 1) - 1.0) < 1e-14
    # Gamma(2) Gamma(3) / Gamma(5) = 2/24
    assert abs(beta(2, 3) - 1.0 / 12.0) < 1e-13
    # reflection route: Gamma(1/2)^2 = pi
    assert abs(beta(0.5, 0.5) - math.pi) < 1e-13 * math.pi


def test_beta_domain_error():
    with pytest.raises(DomainError):
        beta(-1.0, 2.0)
    with pytest.raises(DomainError):
        beta(1.0, 0.0)


def test_hahn_weight_all_ones_at_origin():
    assert abs(hahn_weight(0.0, 1, 1, 1, 1) - 1.0) < 1e-13


def test_hahn_weight_all_halves_closed_form():
    # |Gamma(1/2 + iz)|^2 = pi / cosh(pi z) via reflection, squared
    for z in (0.0, 0.3, 1.1, 2.5, -1.7):
        expected = math.pi ** 2 / math.cosh(math.pi * z) ** 2
        got = hahn_weight(z, 0.5, 0.5, 0.5, 0.5)
        assert abs(got - expected) <= 1e-12 * expected


def test_hahn_weight_conjugate_pairs_real_positive():
    """a = conj(alpha), b = conj(beta) makes the weight real positive."""
    alpha = complex(0.5, 0.25)
    beta_ = complex(0.75, -0.4)
    rng = random.Random(7)
    for _ in range(120):
        z = rng.uniform(-20.0, 20.0)
        w = hahn_weight(z, alpha, beta_, alpha.conjugate(), beta_.conjugate())
        assert abs(w.imag) <= 1e-12 * abs(w.real)
        assert w.real > 0.0


@pytest.mark.parametrize("params, calls", [
    ((0.5, 0.5, 0.5, 0.5), 1),
    ((0.5 + 0.25j, 0.75 - 0.4j, 0.5 - 0.25j, 0.75 + 0.4j), 2),
    ((0.6, 0.7, 0.8, 0.9), 4),
    ((0.6 + 0.25j, 0.7 - 0.1j, 0.8 + 0.5j, 0.9 + 0.25j), 4),
    ((0.3 + 0.25j, 0.2, 0.3 - 0.25j, 1.4 + 0.5j), 3),
], ids=["all-1/2", "conjugate-pair", "real", "complex", "re-below-1/2"])
def test_hahn_weight_log_shares_shifts_bitwise(monkeypatch, params, calls):
    """For real z, log Gamma(p - iz) = conj log Gamma(conj p + iz): the
    shared form equals the four-term sum bit for bit, on both sides of the
    real line and on the reflection branch (Re p < 1/2), and it makes one
    log-gamma call per distinct shift (at nodes the memo does not hold yet,
    so it starts empty)."""
    numerics._weight_memo.cache_clear()
    al, be, a, b = params
    made = []

    def counted(w):
        made.append(w)
        return log_gamma_complex(w)

    monkeypatch.setattr(numerics, "log_gamma_complex", counted)
    for k in range(-80, 81):
        z = 0.125 * k
        made.clear()
        got = hahn_weight_log(z, al, be, a, b)
        assert len(made) == calls
        iz = 1j * z
        want = (log_gamma_complex(al + iz) + log_gamma_complex(be - iz)
                + log_gamma_complex(a - iz) + log_gamma_complex(b + iz))
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


def test_hahn_weight_log_rejects_complex_z():
    # the shared shifts hold for real z only
    with pytest.raises(DomainError, match=r"^z must be real, got \(1\+0\.5j\)$"):
        hahn_weight_log(1.0 + 0.5j, 0.5, 0.5, 0.5, 0.5)


def test_hahn_weight_domain_error():
    with pytest.raises(DomainError):
        hahn_weight(0.0, -0.5, 1, 1, 1)


def _per_call_weight_log(z, alpha, beta_, a, b):
    """The per-node route the factory replaced: check, convert and share the
    shifts at every call."""
    params = [complex(p) for p in (alpha, beta_, a, b)]
    for name, p in zip(("alpha", "beta", "a", "b"), params):
        if p.real <= 0.0:
            raise DomainError(f"hahn weight requires Re({name}) > 0")
    al, be, av, bv = params
    iz = 1j * float(z)
    shifts = (al, be.conjugate(), av.conjugate(), bv)
    logs = {p: log_gamma_complex(p + iz) for p in set(shifts)}
    ga, gb, gc, gd = (logs[p] for p in shifts)
    return ga + gb.conjugate() + gc.conjugate() + gd


@pytest.mark.parametrize("params, calls", [
    ((0.5, 0.5, 0.5, 0.5), 1),
    ((1.0, 0.5, 0.75, 1.25), 4),
    ((0.5 + 0.25j, 0.75 - 0.25j, 0.5 - 0.25j, 0.75 + 0.25j), 2),
    ((0.3 + 0.25j, 0.2, 0.3 - 0.25j, 1.4 + 0.5j), 3),
], ids=["all-1/2", "1-1/2-3/4-5/4", "conjugate-pair", "re-below-1/2"])
def test_weight_factory_matches_the_per_call_route_bitwise(monkeypatch, params, calls):
    """The weight bound once per parameter tuple (what chahn_gram evaluates),
    a memo, equals the per-call route bit for bit when a node is computed
    (cold) and when it is read back (warm), at +z, -z, 0.0 and -0.0 (one
    key) and on the reflection branch; a node is computed once, so the warm
    pass makes no log-gamma call."""
    numerics._weight_memo.cache_clear()
    zs = [0.0, -0.0] + [s * 0.0625 * k for k in range(1, 161) for s in (1, -1)]
    made = []

    def counted(w):
        made.append(w)
        return log_gamma_complex(w)

    # _per_call_weight_log calls this module's own log_gamma_complex, uncounted
    monkeypatch.setattr(numerics, "log_gamma_complex", counted)
    for warm in (False, True):
        made.clear()
        log_weight = _hahn_weight_log_of(*params)
        for z in zs:
            want = _per_call_weight_log(z, *params)
            for got in (log_weight(z), hahn_weight_log(z, *params)):
                assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
        assert len(made) == (0 if warm else calls * (len(zs) - 1))


@pytest.mark.parametrize("params, name", [
    ((-0.5, 1, 1, 1), "alpha"),
    ((1, 0.0, 1, 1), "beta"),
    ((1, 1, -1 + 2j, 1), "a"),
    ((1, 1, 1, -0.25j), "b"),
])
def test_weight_domain_error_before_any_node(monkeypatch, params, name):
    """Re <= 0 raises DomainError when the weight is bound, before a single
    log-gamma (node) is evaluated, on every call: the error never reaches
    the weight memo.  The Gram matrix refuses as early."""
    numerics._weight_memo.cache_clear()
    calls = []
    monkeypatch.setattr(numerics, "log_gamma_complex", calls.append)
    for _ in range(2):
        with pytest.raises(DomainError, match=f"Re\\({name}\\) > 0"):
            _hahn_weight_log_of(*params)
        with pytest.raises(DomainError, match=f"Re\\({name}\\) > 0"):
            hahn_weight_log(0.0, *params)
        with pytest.raises(DomainError):
            chahn_gram(4, *params)
    assert calls == []
    info = numerics._weight_memo.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


def test_weight_memo_is_one_entry_per_complex_tuple():
    """Fraction, float and complex parameters of equal value share one memo;
    a different value is another entry."""
    numerics._weight_memo.cache_clear()
    half = Fraction(1, 2)
    first = _hahn_weight_log_of(half, half, half, half)
    assert _hahn_weight_log_of(0.5, 0.5, 0.5, 0.5) is first
    assert _hahn_weight_log_of(0.5 + 0j, half, 0.5, 0.5 + 0j) is first
    assert _hahn_weight_log_of(0.5, 0.5, 0.5, 0.75) is not first
    assert numerics._weight_memo.cache_info().currsize == 2


def test_weight_memo_is_bounded(monkeypatch):
    """At most _WEIGHT_TUPLES tuples, least recently used first out, and at
    most _WEIGHT_NODES nodes a tuple; a node past the cap is computed on
    every call, and equals the per-call route all the same."""
    numerics._weight_memo.cache_clear()
    for k in range(numerics._WEIGHT_TUPLES + 3):
        _hahn_weight_log_of(0.5, 0.5, 0.5, 1.0 + k)
    assert numerics._weight_memo.cache_info().currsize == numerics._WEIGHT_TUPLES

    monkeypatch.setattr(numerics, "_WEIGHT_NODES", 3)
    made = []

    def counted(w):
        made.append(w)
        return log_gamma_complex(w)

    monkeypatch.setattr(numerics, "log_gamma_complex", counted)
    params = (0.6, 0.7, 0.8, 0.9)
    log_weight = _hahn_weight_log_of(*params)
    zs = [0.5 * k for k in range(1, 6)]
    for _ in range(2):
        for z in zs:
            want = _per_call_weight_log(z, *params)
            got = log_weight(z)
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
    # 5 nodes cold, then the 2 past the cap again: four shifts each
    assert len(made) == 4 * (5 + 2)


@pytest.mark.parametrize("weight", [hahn_weight_log, hahn_weight])
def test_weight_takes_the_package_scalar(weight):
    """A GaussianRational, a Fraction and a float of one value give the same
    bits; a GaussianRational with Re <= 0 raises DomainError naming it."""
    values = [Fraction(1, 2), Fraction(3, 4), Fraction(5, 8), Fraction(1)]
    got = {(w.real.hex(), w.imag.hex()) for w in (
        weight(0.25, *map(kind, values)) for kind in (GaussianRational, Fraction, float))}
    assert len(got) == 1
    for bad in (GaussianRational(0, 1), GaussianRational(Fraction(-1, 2), 1)):
        with pytest.raises(DomainError,
                           match=r"^b must be finite with Re\(b\) > 0 as a double, got G"):
            weight(0.25, *values[:3], bad)


_TINY = Fraction(1, 10**400)  # positive, but its double is 0.0


@pytest.mark.parametrize("call, name", [
    (lambda: beta(_TINY, 1), "alpha"),
    (lambda: hahn_weight_log(0.3, _TINY, 1, 1, 1), "alpha"),
    (lambda: hahn_weight(0.3, 1, 1, 1, _TINY), "b"),
], ids=["beta", "hahn-weight-log", "hahn-weight"])
def test_weight_and_beta_judge_the_double_they_compute_with(call, name):
    """An exact parameter with Re > 0 whose double is 0.0 is refused with the
    DomainError naming it: never a gamma pole naming no parameter, nor the
    weight at 0.0."""
    with pytest.raises(DomainError) as caught:
        call()
    assert str(caught.value) == \
        f"{name} must be finite with Re({name}) > 0 as a double, got {_TINY!r}"


_NAN, _INF = math.nan, math.inf


@pytest.mark.parametrize("call", [
    lambda: log_gamma_complex(_NAN),
    lambda: log_gamma_complex(complex(0.5, -_INF)),
    lambda: gamma(_NAN),
    lambda: hahn_weight_log(0.0, _NAN, 1, 1, 1),
    lambda: hahn_weight_log(0.0, 0.5, 0.5, complex(0.5, _INF), 0.5),
    lambda: hahn_weight_log(_INF, 0.5, 0.5, 0.5, 0.5),
    lambda: hahn_weight_log(_NAN, 0.5, 0.5, 0.5, 0.5),
    lambda: hahn_weight(-_INF, 1, 1, 1, 1),
    lambda: chahn_gram(4, _NAN, 1, 1, 1),
], ids=["log-gamma-nan", "log-gamma-inf", "gamma-nan", "weight-nan-alpha",
        "weight-inf-a", "weight-inf-z", "weight-nan-z", "weight-minus-inf-z", "gram-nan-alpha"])
def test_non_finite_raises_and_leaves_the_weight_memo_alone(call):
    """A parameter or argument that is not finite raises DomainError, not
    NaN; the Gram names the parameter.  A NaN is never equal to itself, so
    as a memo key it would be a new tuple at every call, and nine calls
    would push all 1/2 out of the 8-tuple memo: the memo keeps its size and
    its entries."""
    numerics._weight_memo.cache_clear()
    for params in ((0.5,) * 4, (1, 1, 1, 1)):
        hahn_weight_log(0.25, *params)
    before = numerics._weight_memo.cache_info()
    for _ in range(numerics._WEIGHT_TUPLES + 1):
        with pytest.raises(DomainError, match="not finite|finite z"):
            call()
    after = numerics._weight_memo.cache_info()
    assert after.currsize == before.currsize and after.misses == before.misses
    _hahn_weight_log_of(0.5, 0.5, 0.5, 0.5)
    assert numerics._weight_memo.cache_info().misses == before.misses


def test_non_finite_z_is_not_stored(monkeypatch):
    """z is checked on a memo miss, before a node is computed, so a NaN z
    (a new key at every call) takes no node slot."""
    numerics._weight_memo.cache_clear()
    monkeypatch.setattr(numerics, "_WEIGHT_NODES", 1)
    log_weight = _hahn_weight_log_of(0.6, 0.7, 0.8, 0.9)
    for _ in range(3):
        with pytest.raises(DomainError):
            log_weight(_NAN)
    made = []

    def counted(w):
        made.append(w)
        return log_gamma_complex(w)

    monkeypatch.setattr(numerics, "log_gamma_complex", counted)
    first = log_weight(0.5)
    assert log_weight(0.5) == first and len(made) == 4


def test_hahn_weight_overflow_is_structured():
    with pytest.raises(RangeOverflowError):
        hahn_weight(0.0, 200.0, 200.0, 200.0, 200.0)


def test_gamma_finite_values_only():
    lg = log_gamma(171.0)  # Gamma(171) still finite in double
    v = lg.exp()
    assert math.isfinite(abs(v))
    with pytest.raises(RangeOverflowError):
        log_gamma(200.0).exp()
