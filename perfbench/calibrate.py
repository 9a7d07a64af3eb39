"""Machine-speed probe: a fixed reference kernel timed during the measured phase.

On a shared 2-core Xeon VM the machine's speed drifts by up to 2x over
minutes, and every unit of work in a run drifts with it.  Timing a fixed
kernel that is not fraclap code, between units, measures that drift;
``throughput`` is then reported at the nominal speed,
``raw rate * median(kernel time) / NOMINAL_S``.  Over ten runs on such a VM
this halved the run-to-run spread of gauss-scan (12 % to 6 %) and changed
that of mode2-scan and fisher-front by under two points either way.  A
change to fraclap cannot move the kernel, so it moves the calibrated figure
exactly as it moves the raw one.
"""

from __future__ import annotations

import time

import numpy as np

#: kernel time at the nominal speed (about its median on that VM)
NOMINAL_S = 0.005

#: least time between two samples
EVERY_S = 1.0

_PERM = np.random.default_rng(0).permutation(200_000)
_VALUES = np.arange(200_000.0)
_MATRIX = np.random.default_rng(1).standard_normal((512, 512))
_SIGNAL = np.random.default_rng(2).standard_normal(1024) + 0j


def _kernel() -> float:
    """Python bytecode, numpy gathers, small matvecs and FFTs: fraclap's mix."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(20_000):
        acc += i * 0.5
    for _ in range(2):
        acc += float(_VALUES[_PERM].sum())
    v = _MATRIX[0]
    for _ in range(8):
        v = _MATRIX @ v
        acc += float(np.fft.fft(_SIGNAL)[1].real)
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the kernel (best of three) at most once per ``EVERY_S``."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = -float("inf")

    def sample(self, force: bool = False) -> None:
        if force or time.perf_counter() - self._last >= EVERY_S:
            self.samples.append(min(_kernel() for _ in range(3)))
            self._last = time.perf_counter()

    def speed(self) -> float:
        """Nominal over measured kernel time: below 1 when the machine is slow."""
        return NOMINAL_S / float(np.median(self.samples))
