"""Timing statistics and the open-loop load generator.

The gated latency is the plain median of every sample a run took.  Tails are
reported, not gated (README, "Left out of the gate"): the p95 of every
sample, and :func:`tail_value` -- the highest percentile that still has ten
samples beyond it.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

#: Samples that must lie beyond a percentile for it to be reported.
BEYOND = 10


def tail_value(samples) -> tuple[float, float]:
    """``(value, percentile)`` of the highest percentile with >= BEYOND
    samples beyond it; the median when the sample is too small to have one."""
    ordered = np.sort(np.asarray(samples, dtype=np.float64))
    n = ordered.size
    if n == 0:
        raise ValueError("no samples")
    if n < 2 * BEYOND + 1:
        return float(np.median(ordered)), 50.0
    return float(ordered[n - BEYOND - 1]), 100.0 * (n - BEYOND) / n


def median(samples) -> float:
    return float(np.median(np.asarray(samples, dtype=np.float64)))


def poisson_schedule(rate: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Due times (seconds from start) of ``n`` Poisson arrivals at ``rate``/s."""
    return np.cumsum(rng.exponential(1.0 / rate, size=n))


async def open_loop(due, request, clock=time.perf_counter, sleep=asyncio.sleep):
    """Fire ``request(i)`` at ``due[i]`` whatever the earlier ones are doing.

    Latency runs from the time a request was *due*, not from when it was
    sent, so the wait a stall imposes on later arrivals is counted.  Returns
    ``(latency_s, late_s, ok)`` arrays: latency from due time to completion,
    how late the generator sent each request, and whether ``request``
    returned truthy (an exception counts as not ok).
    """
    n = len(due)
    latency = np.zeros(n)
    late = np.zeros(n)
    ok = np.zeros(n, dtype=bool)
    start = clock()

    async def one(i: int) -> None:
        try:
            ok[i] = bool(await request(i))
        except Exception:  # a failed request is counted, not fatal
            ok[i] = False
        latency[i] = clock() - start - due[i]

    tasks = []
    for i in range(n):
        wait = due[i] - (clock() - start)
        if wait > 0:
            await sleep(wait)
        late[i] = clock() - start - due[i]
        tasks.append(asyncio.ensure_future(one(i)))
    await asyncio.gather(*tasks)
    return latency, late, ok
