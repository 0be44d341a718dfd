"""Reference clock: wall time rescaled by an interleaved calibration kernel.

On a shared host the CPU speed available to one process drifts by tens of
percent over windows of a few seconds, and it moves every timing with it.
A fixed kernel, a mix of the work episodes spend their time on, is timed
every CALIB_EVERY_S between calls to the program. A span of wall time
[a, b] is reported as its reference duration: the integral of
CALIB_REF_MS / calib(t) over [a, b], where calib(t) interpolates the
kernel samples linearly. On a host where the kernel takes CALIB_REF_MS,
reference and wall durations coincide.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time on the host the baseline was recorded on (2 vCPU VM).
CALIB_REF_MS = 6.0
CALIB_EVERY_S = 0.2
# Samples are median-filtered over this many neighbours (about one
# second), so one preempted kernel run does not rescale its neighbours.
SMOOTH = 5

_SMALL = (np.arange(64 * 64, dtype=float).reshape(64, 64) % 17.0) * 1e-2
_LARGE = np.random.default_rng(0).standard_normal((320, 320))
_LONG = np.random.default_rng(1).standard_normal(200_000)


def kernel() -> float:
    """Run the fixed calibration work once; returns a checksum.

    Four parts, because the workloads spend their time differently: Python
    object churn (desk, bench), small NumPy calls, a matrix product large
    enough to use every BLAS thread (coco), and a memory-bound elementwise pass.
    """
    acc = 0
    rows = []
    for i in range(4000):
        rows.append((i, i * 3 % 7, float(i)))
        acc += rows[-1][1]
    m = _SMALL
    for _ in range(16):
        m = np.tanh(m @ _SMALL)
        acc += int(np.argsort(m[0])[0])
    for _ in range(2):
        acc += float((_LARGE @ _LARGE)[0, 0])
    acc += float(np.exp(0.5 * _LONG).sum())
    return float(acc)


def _median_filter(x: np.ndarray, width: int) -> np.ndarray:
    if x.size < width:
        return np.full_like(x, np.median(x))
    half = width // 2
    padded = np.pad(x, half, mode="edge")
    return np.median(np.lib.stride_tricks.sliding_window_view(padded, width), axis=-1)


class Clock:
    """Calibration samples taken along one run, and the reference clock they define."""

    def __init__(self) -> None:
        self.starts: list[float] = []  # perf_counter seconds
        self.ends: list[float] = []
        self.times: list[float] = []   # midpoint of each kernel run
        self.calib_ms: list[float] = []
        self._next = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.times.append(0.5 * (start + end))
        self.calib_ms.append(1e3 * (end - start))
        self._next = end + CALIB_EVERY_S

    def tick(self) -> None:
        """Take a sample if CALIB_EVERY_S has passed since the last one."""
        if time.perf_counter() >= self._next:
            self.sample()

    def reference(self, a, b):
        """Reference duration, in seconds, of the wall intervals [a, b] (scalars or arrays)."""
        t = np.asarray(self.times)
        if t.size == 0:
            raise RuntimeError("no calibration samples")
        factor = CALIB_REF_MS / _median_filter(np.asarray(self.calib_ms), SMOOTH)
        if t.size == 1:
            return (np.asarray(b) - np.asarray(a)) * factor[0]
        # cumulative reference time at each sample, trapezoid rule between samples;
        # outside the sampled range the nearest factor holds
        cum = np.concatenate([[0.0], np.cumsum(np.diff(t) * 0.5 * (factor[1:] + factor[:-1]))])

        def at(x):
            x = np.asarray(x, dtype=float)
            inside = np.interp(x, t, cum)
            below = (x - t[0]) * factor[0]
            above = cum[-1] + (x - t[-1]) * factor[-1]
            return np.where(x < t[0], below, np.where(x > t[-1], above, inside))

        return at(b) - at(a)

    def median_calib_ms(self, a: float = -np.inf, b: float = np.inf) -> float:
        """Median kernel time over the samples taken within [a, b]."""
        t = np.asarray(self.times)
        return float(np.median(np.asarray(self.calib_ms)[(t >= a) & (t <= b)]))
