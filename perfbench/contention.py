"""Correction of wall times for CPU contention from outside the process.

On a shared host the same operation can take 1.5-2x longer when another
tenant competes for the core, and the share of contended time drifts
over minutes, so medians of raw wall times from different runs disagree
by 20-50%.  A fixed probe kernel, made of the kinds of library calls the
grid transforms make (a real FFT and small matrix-vector products) but
no bmcflow code, runs twice from a SIGALRM handler every INTERVAL_S
while an operation runs; the second, cache-warm run is timed, so the
sample does not depend on how much of the cache the operation used.
The probe slows down with the operation under contention, so

    corrected = (wall - time in the handler) * REFERENCE_S / mean probe time

is the wall time the operation would have taken at the probe's
reference speed.  REFERENCE_S is the kernel's time on an uncontended
core of a 2-vCPU Intel Xeon VM; on other hardware the corrected figures
are in that unit, which is the same for every commit measured there.
"""

import signal
import time

import numpy as np

INTERVAL_S = 0.01

_rng = np.random.default_rng(0)
_TABLES = [_rng.standard_normal((32, 32 - m)) for m in range(16)]
_GRID = _rng.standard_normal((32, 64))
REFERENCE_S = 65e-6     # one cache-warm run of _kernel


def _kernel():
    """A real FFT and small matrix-vector products, like the grid transforms."""
    F = np.fft.rfft(_GRID, axis=1)
    for m, table in enumerate(_TABLES):
        table @ (table.T @ F[:, m].real)
    np.fft.irfft(F, n=64, axis=1)


class ContentionProbe:
    def __init__(self):
        self.samples = []      # cache-warm kernel times over the reference
        self.spent = 0.0       # total time spent in the handler

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        _kernel()
        t2 = time.perf_counter()
        self.samples.append((t2 - t1) / REFERENCE_S)
        self.spent += t2 - t0

    def start(self, wrap=None):
        """Start sampling; wrap(handler), if given, is installed in place of the handler."""
        signal.signal(signal.SIGALRM, wrap(self._handler) if wrap else self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def timed(self, fn, *args):
        """Call fn(*args); returns (result, raw wall, wall minus handler time, probe samples taken)."""
        k, spent = len(self.samples), self.spent
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        return result, wall, wall - (self.spent - spent), self.samples[k:]


def slowdown(samples):
    """Mean kernel time over its reference time; 1.0 when no sample was taken."""
    return float(np.mean(samples)) if len(samples) else 1.0


def corrected(net, samples):
    """Wall time at the probe's reference speed, from timed()'s net time and samples."""
    return net / slowdown(samples)
