"""How fast the machine runs Python right now, measured with a fixed loop.

On a shared 2-core VM, identical work ran up to 1.6x slower from one
minute to the next and changed speed within a second; process CPU time
slowed with wall time.  So while a child runs its workload, SpeedSampler
times a short fixed loop every INTERVAL_S of wall time from a SIGALRM
handler.  If a sample took d seconds, work measured around it ran at
REFERENCE_S / d of the reference speed; a measured time multiplied by
speed_factor(samples) = REFERENCE_S * mean(1 / d) is the time at the
reference speed.  The sampler's own time is taken out of the measured
time.  The loop mixes what hahnlab spends its time on (small Fraction
arithmetic, complex floats, function calls) and shares no code with
hahnlab, so a change to hahnlab cannot change it.
"""

from __future__ import annotations

import cmath
import signal
import statistics
import time
from fractions import Fraction

# the loop's time when sampled during a workload on a 2-core x86-64 VM
# (CPython 3.11) at its usual speed; it only sets the scale of the times
REFERENCE_S = 0.0022
INTERVAL_S = 0.05
# a fresh interpreter runs its first passes slower
WARMUP_PASSES = 50


def _step(z: complex, k: int) -> complex:
    return z * 0.5 + cmath.log(complex(k + 1, 1.0)) / (k + 1j)


def _loop():
    x = Fraction(1, 3)
    for k in range(180):
        x = x * Fraction(k % 7 + 1, k % 5 + 2) + Fraction(1, 3)
    z = 0j
    for k in range(1800):
        z = _step(z, k)


def _timed_loop() -> float:
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def warm_up():
    for _ in range(WARMUP_PASSES):
        _loop()


def samples(count: int) -> list[float]:
    """Times of `count` back-to-back passes of the loop."""
    return [_timed_loop() for _ in range(count)]


def speed_factor(durations: list[float]) -> float:
    return REFERENCE_S * statistics.fmean(1.0 / d for d in durations)


class SpeedSampler:
    """Within a `with` block, time the loop every INTERVAL_S of wall time."""

    def __init__(self):
        self.durations: list[float] = []

    def _on_alarm(self, signum, frame):
        self.durations.append(_timed_loop())

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @property
    def busy_s(self) -> float:
        """Time the samples took out of the block."""
        return sum(self.durations)
