"""Percentile helper and open-loop timing under an injected clock."""

import asyncio

import numpy as np
import pytest

from perf.measure import BEYOND, open_loop, poisson_schedule, tail_value


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    value, pct = tail_value(np.arange(1000))
    assert (value, pct) == (989.0, 99.0)
    assert int((np.arange(1000) > value).sum()) == BEYOND
    value, pct = tail_value(np.arange(200)[::-1])  # order does not matter
    assert (value, pct) == (189.0, 95.0)


def test_tail_falls_back_to_median_when_sample_too_small():
    assert tail_value(np.arange(20)) == (9.5, 50.0)
    value, pct = tail_value(np.arange(21))
    assert (value, pct) == (10.0, pytest.approx(100 * 11 / 21))
    with pytest.raises(ValueError):
        tail_value([])


def test_poisson_schedule():
    due = poisson_schedule(100.0, 2000, np.random.default_rng(0))
    assert np.all(np.diff(due) > 0)
    assert due[-1] == pytest.approx(20.0, rel=0.1)


class FakeClock:
    """Time moves only when someone sleeps on it or stalls it."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    async def sleep(self, seconds):
        self.now += seconds
        await asyncio.sleep(0)


def test_open_loop_times_from_due_time_not_send_time():
    clock = FakeClock()

    async def request(i):
        if i == 0:
            clock.now += 0.100  # blocks the loop: the generator stalls too
        await clock.sleep(0.005)
        return True

    due = [0.0, 0.010, 0.020]
    latency, late, ok = asyncio.run(
        open_loop(due, request, clock=clock, sleep=clock.sleep))
    assert ok.all()
    # Request 1 was due at 10 ms but could only be sent once the stall ended:
    # the wait counts, so its latency is far above its 5 ms service time.
    assert late[1] > 0.08
    assert latency[1] >= late[1] + 0.005 - 1e-9
    assert latency[2] >= late[2] + 0.005 - 1e-9 and late[2] > 0.07


def test_open_loop_counts_a_raising_request_as_failed():
    clock = FakeClock()

    async def request(i):
        if i == 1:
            raise RuntimeError("shed")
        return True

    _, _, ok = asyncio.run(open_loop([0.0, 0.0, 0.0], request,
                                     clock=clock, sleep=clock.sleep))
    assert ok.tolist() == [True, False, True]
