"""CPU-speed sampling, so that timings taken at different moments compare.

On a shared host the speed of the CPU this process runs on changes by up
to twofold within a fraction of a second, and the mix of fast and slow
periods drifts over minutes: the same compose_mix pass took 4.7 s to 7.4 s
on a 2-core Xeon with identical inputs.  A ``SpeedSampler`` interrupts the
measured thread every INTERVAL_S seconds with SIGALRM and times a fixed
kernel of mpmath's own pure-Python mpf arithmetic in the signal handler, so
the samples see the same speed as the work around them.  ``scale`` turns
a measured interval into seconds at the reference speed (the kernel taking
REF_KERNEL_S); in the same runs, pass time over mean kernel time stayed
between 27,700 and 30,300.

The handler adds about 1% to every measured interval, the same on every
commit.
"""

from __future__ import annotations

import signal
import statistics
import time

from mpmath.libmp import from_man_exp, mpf_add, mpf_div, mpf_mul

INTERVAL_S = 0.02
# An interval without a sample of its own is widened to this.
MIN_WINDOW_S = 0.05
# The kernel's time on the 2-core Xeon the benchmark was written on.
REF_KERNEL_S = 150e-6

_A = from_man_exp(0x1234567890ABCDEF1234567890ABCDEF, -128)
_B = from_man_exp(0x3FEDCBA98765432100123456789ABCDE, -127)


def kernel():
    """Fixed 128-bit mpf arithmetic that touches no global precision."""
    x = _A
    for _ in range(40):
        x = mpf_div(mpf_add(mpf_mul(x, _B, 128, "n"), _A, 128, "n"), _B, 128, "n")
    return x


class SpeedSampler:
    """Context manager recording (time, kernel seconds) samples."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        kernel()
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, start: float, end: float) -> float:
        """Factor from seconds measured in [start, end] to seconds at the
        reference speed: the mean speed there, REF_KERNEL_S over each
        sample's kernel time, averaged over the evenly spaced samples.

        Only the samples inside the interval count: the speed changes
        within a fraction of a second, and a wider window mixes in speeds
        the interval never saw."""
        window = [s for t, s in self.samples if start <= t <= end]
        if not window:
            pad = max(0.0, MIN_WINDOW_S - (end - start)) / 2
            window = [s for t, s in self.samples if start - pad <= t <= end + pad]
        if not window:
            raise RuntimeError("no speed samples in the interval")
        return statistics.fmean(REF_KERNEL_S / seconds for seconds in window)
