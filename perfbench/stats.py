"""Latency summaries and failure accounting.

A timing is reported as its median and its tail: the highest percentile
from ``TAIL_PERCENTILES`` that still has at least ``MIN_BEYOND`` samples
beyond it.  The fixed grid keeps the chosen percentile the same from run to
run as long as the sample count stays inside one band; the percentile and
the sample count are reported next to the value.

The grid skips p99 and p98 on purpose.  A ``trot_track`` run has 832 WBC
ticks, of which a few (1 to 9 with the committed messages, depending on
the seed) fail slowly.  At p98 the 17 ticks beyond would be up to half
those failures, so the value would swing with their count from seed to
seed: at p98, five seeds gave 16.3 to 20.5 ms.  p95 keeps about forty
ticks beyond, and it holds from 200 to 2000 ticks.  The failures
still count in the fail ratio.
"""

from __future__ import annotations

import math
from collections import Counter

TAIL_PERCENTILES = (99.9, 99.5, 95.0, 90.0, 80.0, 75.0, 70.0, 60.0,
                    50.0)
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """Highest grid percentile with at least MIN_BEYOND of n samples beyond.

    Below 2 * MIN_BEYOND samples no percentile qualifies and the median is
    used, so the tail then equals the median.
    """
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            return p
    return 50.0


def summarize(values) -> dict:
    """Median and tail of a sample, with the tail's percentile and count."""
    values = list(values)
    p = tail_percentile(len(values))
    return {
        "n": len(values),
        "p50": percentile(values, 50.0),
        "tail": percentile(values, p),
        "tail_percentile": p,
        "beyond_tail": len(values) * (100.0 - p) / 100.0,
    }


class Requests:
    """Latencies and outcomes of one kind of request.

    A request that raised or came back degraded counts as failed; its
    elapsed time stays in the latency sample, so a slow failure shows in
    the tail as well as in the failure count.

    Each request is timed in one or more pieces, each after a block of a
    ``speed.SpeedProbe``.  ``rescale`` turns them into ``ref_seconds``, the
    request times at the probe's reference speed.  Block indices belong to
    one episode's probe, so rescale each episode's requests before merging.
    """

    def __init__(self):
        self.seconds: list[float] = []       # wall time per request
        self.ref_seconds: list[float] = []   # at reference speed
        self.pieces: list[tuple] = []        # ((seconds, block), ...)
        self.failures: Counter = Counter()

    def record(self, seconds: float, failure: str | None = None,
               block: int | None = None):
        self.record_pieces([(seconds, block)], failure)

    def record_pieces(self, pieces, failure: str | None = None):
        self.seconds.append(sum(s for s, _ in pieces))
        self.pieces.append(tuple(pieces))
        if failure is not None:
            self.failures[failure] += 1

    def rescale(self, probe):
        self.ref_seconds = [sum(s * probe.scale(b) for s, b in pieces)
                            for pieces in self.pieces]

    def extend(self, other: "Requests"):
        self.seconds.extend(other.seconds)
        self.ref_seconds.extend(other.ref_seconds)
        self.failures.update(other.failures)

    @property
    def attempted(self) -> int:
        return len(self.seconds)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def ok_ratio(self) -> float:
        return 1.0 - self.fail_ratio

    def summary(self) -> dict:
        """Reference-speed and wall-clock latency in ms, and failures."""
        out = {"n": self.attempted}
        if self.ref_seconds:
            out["ref_ms"] = summarize(1e3 * s for s in self.ref_seconds)
        if self.seconds:
            out["wall_ms"] = summarize(1e3 * s for s in self.seconds)
        out.update(attempted=self.attempted, failed=self.failed,
                   fail_ratio=self.fail_ratio,
                   failures=dict(sorted(self.failures.items())))
        return out
