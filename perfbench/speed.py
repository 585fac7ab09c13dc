"""Host-speed probe: latencies scaled to a reference host speed.

The benchmark runs on a shared host whose speed drifts: one fixed
``Mpc.step`` computation took 0.7 to 1.3 s within two minutes, with CPU
time equal to wall time, so the slowdown is the processor's, not the
scheduler's.  The speed changes within tens of milliseconds as well as
over minutes, and raw wall times of ten runs spread by a quarter of their
median.  To remove that drift, a run times a fixed calibration kernel
between its requests, outside every timed region, in blocks of repetitions.
A request timed after block ``b`` is scaled by
``REF_KERNEL_S / mean(blocks b and b + 1)``: its wall time on a host whose
kernel time is ``REF_KERNEL_S``.  The mean, not the median, because a
request's time adds up the host's fast and slow phases; the median of a
mix of two speeds jumps from one to the other with the mix.  A tenth is
trimmed from each end, so one kernel hit by an interrupt does not count.
A request shorter than the speed changes (a controller tick) gets a short
block right before it, so that the blocks around it lie within a few
milliseconds of it.

The kernel does the kind of work the program does -- small dense linear
algebra through NumPy and Python-level bookkeeping -- and never calls
``leggedmpc``, so a change to the program moves the scaled figures exactly
as it moves the wall times.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

SAMPLES = 200          # kernel repetitions per block
SHORT_SAMPLES = 5      # per block before a short request
KERNEL_REPS = 20       # loop trips per kernel repetition
REF_KERNEL_S = 2.5e-4  # kernel time at the reference speed (typical of the
#                        2-core x86_64 host the baseline was measured on)
TRIM = 0.1             # share of kernel times dropped at each end

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((11, 11)) + 11.0 * np.eye(11)
_b = _rng.standard_normal(11)


def kernel() -> float:
    """Fixed work shaped like the program's; returns a value to consume."""
    acc = 0.0
    for i in range(KERNEL_REPS):
        y = np.linalg.solve(_A, _A @ _b)
        acc += float(y[i % 11]) + len({"i": i, "y": y})
    return acc


class SpeedProbe:
    """Blocks of calibration-kernel timings, taken between requests."""

    def __init__(self):
        self.blocks: list[list[float]] = []

    def mark(self, samples: int = SAMPLES) -> int:
        """Time one block of kernels and return its index."""
        times = []
        for _ in range(samples):
            start = perf_counter()
            kernel()
            times.append(perf_counter() - start)
        self.blocks.append(times)
        return len(self.blocks) - 1

    def scale(self, block: int) -> float:
        """Reference over host speed for work timed after ``block``.

        Uses the blocks on both sides of the work; the caller marks once
        more after the last timed request, so the later block exists.
        """
        around = self.blocks[block] + self.blocks[block + 1]
        return REF_KERNEL_S / trimmed_mean(around)


def trimmed_mean(values) -> float:
    """Mean after dropping ``TRIM`` of the values at each end."""
    xs = sorted(values)
    cut = int(TRIM * len(xs))
    return statistics.fmean(xs[cut:len(xs) - cut])


def kernel_summary(probes) -> dict:
    """Median, fastest and slowest kernel time over probes, for the report."""
    times = [t for probe in probes for block in probe.blocks for t in block]
    return {"median_ms": 1e3 * statistics.median(times),
            "min_ms": 1e3 * min(times), "max_ms": 1e3 * max(times),
            "samples": len(times)}
