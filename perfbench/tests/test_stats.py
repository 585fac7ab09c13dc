import numpy as np
import pytest

from perfbench.stats import (MIN_BEYOND, Requests, percentile, summarize,
                             tail_percentile)


@pytest.mark.parametrize("n, p", [
    (1, 50.0), (19, 50.0), (20, 50.0), (24, 50.0), (25, 60.0), (26, 60.0),
    (34, 70.0), (40, 75.0), (100, 90.0), (200, 95.0), (500, 95.0),
    (999, 95.0), (1040, 95.0), (1999, 95.0), (2000, 99.5), (10000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_beyond(n, p):
    assert tail_percentile(n) == p
    if n >= 2 * MIN_BEYOND:
        assert n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9


def test_percentile_matches_numpy_linear():
    rng = np.random.default_rng(4)
    xs = rng.exponential(size=37)
    for p in (0.0, 12.5, 50.0, 60.0, 99.0, 100.0):
        assert percentile(xs, p) == pytest.approx(np.percentile(xs, p),
                                                  rel=1e-12)


def test_summary_records_tail_percentile_and_count():
    s = summarize(range(1, 27))
    assert s["n"] == 26
    assert s["tail_percentile"] == 60.0
    assert s["beyond_tail"] == pytest.approx(10.4)
    assert s["tail"] == pytest.approx(np.percentile(range(1, 27), 60.0))
    assert s["p50"] == 13.5


def test_failures_count_against_attempts_and_keep_their_latency():
    r = Requests()
    r.record(0.001)
    r.record(0.120, "MaxIterations")
    r.record(0.002, "degraded")
    r.record(0.003)
    assert r.attempted == 4
    assert r.failed == 2
    assert r.fail_ratio == 0.5
    assert r.ok_ratio == 0.5
    assert max(r.seconds) == 0.120       # the slow failure stays in the sample
    s = r.summary()
    assert s["failures"] == {"MaxIterations": 1, "degraded": 1}
    other = Requests()
    other.record(0.004, "MaxIterations")
    r.extend(other)
    assert r.failures["MaxIterations"] == 2 and r.attempted == 5


def test_empty_requests_have_no_failures():
    r = Requests()
    assert r.fail_ratio == 0.0 and r.summary()["n"] == 0
