"""The tail estimator and the closed loop."""

import random
import statistics

import pytest

from measure import TAIL_MIN_SAMPLES, Loop, closed_loop, tail


def test_tail_leaves_exactly_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    random.Random(0).shuffle(samples)
    result = tail(samples)
    assert (result.value, result.percentile, result.samples) == (90.0, 90.0, 100)
    assert sum(s > result.value for s in samples) == 10


def test_tail_is_above_the_median_whenever_it_is_reported():
    rng = random.Random(1)
    for n in range(1, 120):
        samples = [rng.lognormvariate(0.0, 0.3) for _ in range(n)]
        result = tail(samples)
        if n <= 21:
            assert result is None, n
            continue
        assert result.value > statistics.median(samples)
        assert result.percentile > 50.0
        assert sum(s > result.value for s in samples) == 10


def test_tail_refuses_a_short_run_whose_tail_would_read_below_its_median():
    # Twenty passes around 1.03 s: ten beyond leaves the rank-10 sample, which
    # lies below the median; the estimator must refuse rather than report it.
    samples = [1.009 + 0.003 * i for i in range(20)]
    assert sorted(samples)[9] < statistics.median(samples)
    assert tail(samples) is None


def test_closed_loop_ends_on_a_whole_stride():
    calls = []

    def request():
        calls.append(1)
        return 2, len(calls) % 2

    loop = closed_loop(request, seconds=0.0, stride=3)
    assert len(loop.latencies) == 3
    assert (loop.ops, loop.failed) == (6, 2)


def test_closed_loop_runs_at_least_min_requests_and_calibrates_around_each():
    readings = iter(range(1, 100))
    loop = closed_loop(
        lambda: (1, 0), seconds=0.0, min_requests=TAIL_MIN_SAMPLES, slowdown=lambda: next(readings)
    )
    assert len(loop.latencies) == TAIL_MIN_SAMPLES
    assert loop.slowdowns == list(range(1, TAIL_MIN_SAMPLES + 2))
    assert tail(loop.scaled_latencies) is not None


def test_each_latency_is_scaled_by_the_slowdown_just_before_and_after_it():
    loop = Loop(latencies=[1.0, 2.0], slowdowns=[1.0, 3.0, 1.0], ops=6)
    assert loop.scaled_latencies == pytest.approx([0.5, 1.0])
    assert loop.slowdown == pytest.approx(2.0)
    assert loop.scaled_ops_per_s == pytest.approx(4.0)
    assert loop.ops_per_s == pytest.approx(2.0)
