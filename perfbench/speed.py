"""Speed of the host, read from a fixed reference kernel run during the work.

On a shared host, other tenants slow the whole core: on the 2-vCPU VM this
benchmark was tuned on, identical work ran up to 1.6x slower for seconds at
a time while process CPU time still tracked wall time, and the median unit
time of 30-s runs spread by 10-40 % between runs.  The slowdown shows in
any code run at that moment, so a timer signal runs a fixed kernel (numpy
and Python work shaped like the program's: small FFTs, a small Cholesky
solve, block SAD scans, row gathers from a 16 MB matrix) every `EVERY_S`
seconds while the work runs.  Each unit's time, less the kernels run inside
it, is divided by the kernel's median time around it.  On that VM a frame
of open_cif varied by 10 % from repeat to repeat in wall time and by 3 %
so scaled.  Times are reported in reference seconds: `REFERENCE_S` is the
kernel's median time as sampled inside the workloads on that VM, so a
unit's reference time is about its typical wall time there.  The kernel
does not change with the program, so program speed-ups show in full.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
import scipy.linalg

REFERENCE_S = 3.2e-3   # median kernel time sampled in the workloads there
EVERY_S = 0.1          # timer interval; the kernel takes about 3 % of the time
WINDOW_S = 0.5         # kernels this close to a unit give its speed

_rng = np.random.default_rng(20220704)
_IMG = _rng.standard_normal((48, 48))
_AREA = _rng.integers(0, 256, (160, 160)).astype(np.float64)
_SPD = _rng.standard_normal((24, 24))
_SPD = _SPD @ _SPD.T + 24.0 * np.eye(24)
_TABLE = _rng.standard_normal((2048, 1024))      # 16 MB: far beyond L2
_ROWS = _rng.integers(0, 2048, (3, 64))
_VEC = _rng.standard_normal(1024)


def kernel() -> float:
    """Fixed work of a few milliseconds; returns a checksum."""
    s = 0.0
    for _ in range(6):
        s += float(np.fft.fft2(_IMG * 1.5).real[0, 0])
        cho = scipy.linalg.cho_factor(_SPD, lower=True, check_finite=False)
        s += float(scipy.linalg.cho_solve(cho, _IMG[0, :24],
                                          check_finite=False)[0])
        for dy in range(-2, 3):
            for dx in range(-2, 3):
                s += float(np.abs(_AREA[20 + dy:68 + dy, 20 + dx:68 + dx]
                                  - _IMG).sum())
        s += sum(k * k for k in range(100))
    for rows in _ROWS:
        s += float((_IMG.ravel()[:64] @ _TABLE[rows]).sum())
    s += float((_TABLE[::4] @ _VEC).sum())
    return s


class Speedometer:
    """Context manager that samples the kernel's time from a timer signal.

    Python runs the handler between bytecodes of the main thread, so the
    samples fall inside the work being measured.  ``spent`` is the total
    time the handler took, for the caller to take out of its timings."""

    def __init__(self):
        self.kernels: list[tuple[float, float]] = []   # (end time, seconds)
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.kernels.append((t1, t1 - t0))
        self.spent += t1 - t0

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)   # one sample after the last unit, always

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per wall second for work done from ``start`` to
        ``end``: from the median kernel time within `WINDOW_S` of it, or the
        next kernel if none is that close."""
        near = [s for t, s in self.kernels
                if start - WINDOW_S <= t <= end + WINDOW_S]
        if not near:
            near = [next(s for t, s in self.kernels if t > end)]
        return REFERENCE_S / statistics.median(near)
