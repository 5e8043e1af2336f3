"""Gray-failure resilience: hedged gather, circuit breakers, brownout.

PR 7's cluster survives *dead* replicas (a ``ConnectionError`` marks the
handle dead and the partition fails over), but production graph-ANN serving
is defined by its tail behavior under *gray* failures — replicas that are
alive yet slow (GC pauses, page-cache eviction, a noisy neighbor, a
saturated disk).  This module holds the primitives the router and front
door compose into tail tolerance:

- :func:`scatter_gather` — a :mod:`selectors`-based multiplexed gather that
  replaces the sequential per-partition reply loop.  A slow partition never
  head-of-line-blocks the others; per-RPC waits derive from the shard's own
  deadline budget instead of the 120 s socket constant.
- **Hedged reads** (Dean & Barroso, "The Tail at Scale"): when a
  partition's primary reply is slower than the replica's EWMA-tracked
  p95-style latency, the same block is re-issued to the partition's next
  live replica.  First reply wins; the loser's reply is drained and
  discarded later (never interleaved into a future RPC).  A hedge is never
  sent when the partition has only one live replica.
- :class:`CircuitBreaker` — per-replica CLOSED→OPEN→HALF_OPEN state
  machine.  Consecutive failures (timeouts, hedge losses, errors) or
  sustained latency inflation past the replica's locked healthy baseline
  open the breaker; re-admission is a *non-blocking* half-open probe (a
  ``ping`` the worker already answers) whose reply is checked
  opportunistically, so probing a still-slow replica costs the query path
  nothing.  Retry scheduling uses :class:`Backoff` — exponential with
  deterministic seeded jitter — so a flapping replica is never hammered in
  a tight loop.
- :class:`BrownoutController` + :class:`Overloaded` — the front door's
  admission control.  Bounded coalescing queues shed with a typed
  :class:`Overloaded` rejection when full; under *sustained* overload
  (a score over queue depth, wait inflation, and shed rate: 0 = healthy,
  growing with pressure) the door browns out instead: blocks dispatch at a
  reduced effort (half the door's ``ef``, never below ``k``) and results
  are marked ``degraded``, recovering hysteretically once pressure stays
  low.

Everything is observable (``cluster_hedges``, ``cluster_breaker_state``,
``cluster_backoff_seconds``, ``cluster_frontdoor_shed``,
``cluster_frontdoor_brownout_active``, …) and deterministic enough to
chaos-test: the ``worker.pre_reply`` fault point delays a worker's replies
without killing it, which is exactly a gray failure on demand.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
import select
import selectors
import time
from collections import deque

from repro.cluster.protocol import recv_msg, send_msg
from repro.obs import OBS, SECONDS_BUCKETS

_HEDGES = OBS.counter(
    "cluster_hedges", "hedge requests issued to a partition's next replica")
_HEDGE_WINS = OBS.counter(
    "cluster_hedge_wins", "partition replies won by the hedge request")
_BREAKER_TRIPS = OBS.counter(
    "cluster_breaker_trips", "replica circuit breakers tripped open")
_BREAKER_READMITS = OBS.counter(
    "cluster_breaker_readmits",
    "replicas re-admitted by a successful half-open probe")
_BREAKER_PROBES = OBS.counter(
    "cluster_breaker_probes", "half-open probe RPCs sent to open replicas")
_BACKOFF_SECONDS = OBS.histogram(
    "cluster_backoff_seconds",
    "breaker retry delays scheduled (exponential + seeded jitter)",
    buckets=SECONDS_BUCKETS)
_STALE_DRAINED = OBS.counter(
    "cluster_stale_replies_drained",
    "abandoned replies (hedge losers, expired waits) drained and discarded")
_GATHER_TIMEOUTS = OBS.counter(
    "cluster_gather_timeouts",
    "partition waits abandoned because the deadline budget expired")

#: Seconds a shard RPC may take when the caller set no deadline: the bound
#: on a worker's hello, a plain request/reply round trip, a stale-reply
#: drain and every undeadlined :func:`scatter_gather` wait.
RPC_TIMEOUT = 120.0


class Overloaded(RuntimeError):
    """Typed admission-control rejection: the front-door queue is full.

    Callers should treat this as back-pressure (retry with jitter, or
    surface a 429), never as a serving bug — the bound exists so that an
    overload sheds *excess* load instead of growing an unbounded queue
    that eventually degrades every request.
    """


# -- latency tracking ---------------------------------------------------------

#: No reply under this many seconds counts as inflated, whatever the baseline.
INFLATED_FLOOR_S = 0.010
#: How many of the latest replies a tracker keeps for :meth:`inflation`.
RECENT_SAMPLES = 64


class LatencyTracker:
    """Per-replica EWMA latency statistics and the hedge threshold.

    ``record`` folds one observed RPC latency into an exponentially
    weighted mean/variance pair; :meth:`hedge_delay` is the p95-style
    threshold (``mean + 1.645·std`` under the EWMA window — the normal
    approximation of the 95th percentile) after which a reply is considered
    straggling and worth hedging.  Until ``warmup`` samples arrive the
    conservative ``initial_s`` applies, so cold replicas are not hedged on
    noise.  The first ``warmup`` samples also lock a healthy *baseline*
    mean that :meth:`inflation` compares against — the breaker's sustained
    latency-inflation trip reads that ratio.  Healthy replies are
    sub-millisecond, so a ratio against the baseline alone would call one
    scheduler blip a 4x inflation: the reference is never taken below
    ``INFLATED_FLOOR_S``, and the ratio is read off the *fastest* of the
    last few samples (at most ``RECENT_SAMPLES``), so only a run of slow
    replies moves it.
    """

    __slots__ = ("alpha", "warmup", "initial_s", "floor_s", "n", "mean",
                 "var", "baseline", "recent")

    def __init__(self, alpha: float = 0.25, warmup: int = 8,
                 initial_s: float = 0.05, floor_s: float = 0.001):
        self.alpha = alpha
        self.warmup = warmup
        self.initial_s = initial_s
        self.floor_s = floor_s
        self.n = 0
        self.mean = 0.0
        self.var = 0.0
        self.baseline: float | None = None
        self.recent: deque[float] = deque(maxlen=RECENT_SAMPLES)

    def record(self, latency_s: float) -> None:
        latency_s = max(float(latency_s), 0.0)
        self.n += 1
        self.recent.append(latency_s)
        if self.n == 1:
            self.mean = latency_s
            self.var = 0.0
        else:
            delta = latency_s - self.mean
            self.mean += self.alpha * delta
            self.var = (1.0 - self.alpha) * (self.var
                                             + self.alpha * delta * delta)
        if self.baseline is None and self.n >= self.warmup:
            self.baseline = max(self.mean, self.floor_s)

    def p95(self) -> float:
        return self.mean + 1.645 * math.sqrt(max(self.var, 0.0))

    def hedge_delay(self) -> float:
        """Seconds to wait for the primary before issuing a hedge."""
        if self.n < self.warmup:
            return self.initial_s
        return max(self.floor_s, self.p95())

    def inflation(self, samples: int = 1) -> float:
        """How inflated the last ``samples`` replies *all* were.

        The fastest of them over ``max(baseline, INFLATED_FLOOR_S)``: a
        value of 4 means every one of the last ``samples`` replies took at
        least four times the healthy reference, and never less than tens
        of milliseconds in absolute terms.  1.0 until the baseline is
        locked and that many samples exist.
        """
        if self.baseline is None or len(self.recent) < samples:
            return 1.0
        slowest_run = min(itertools.islice(reversed(self.recent), samples))
        return slowest_run / max(self.baseline, INFLATED_FLOOR_S)

    def reset_window(self) -> None:
        """Forget the (inflated) window after re-admission, keep the baseline.

        A re-admitted replica starts from its healthy reference again;
        without this the stale inflated EWMA would re-trip the breaker on
        the first post-recovery sample.
        """
        if self.baseline is not None:
            self.mean = self.baseline
        self.var = 0.0
        self.recent.clear()


# -- retry scheduling ---------------------------------------------------------

class Backoff:
    """Exponential backoff with deterministic seeded jitter.

    ``next()`` returns ``min(cap, base·factor^attempt)`` stretched by up to
    ``jitter`` fraction of itself, drawn from a seeded RNG — deterministic
    for a given (seed, attempt) history, so chaos tests replay exactly, yet
    de-synchronized across replicas (each breaker gets a distinct seed), so
    a fleet of flapping replicas is not probed in lockstep.
    """

    __slots__ = ("base_s", "factor", "cap_s", "jitter", "attempt", "_rng")

    def __init__(self, base_s: float = 0.25, factor: float = 2.0,
                 cap_s: float = 10.0, jitter: float = 0.2, seed: int = 0):
        self.base_s = base_s
        self.factor = factor
        self.cap_s = cap_s
        self.jitter = jitter
        self.attempt = 0
        self._rng = random.Random(seed)

    def next(self) -> float:
        delay = min(self.cap_s, self.base_s * self.factor ** self.attempt)
        self.attempt += 1
        delay *= 1.0 + self.jitter * self._rng.random()
        _BACKOFF_SECONDS.observe(delay)
        return delay

    def reset(self) -> None:
        self.attempt = 0


# -- circuit breaker ----------------------------------------------------------

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Numeric encoding used by the ``cluster_breaker_state`` gauge: the gauge
#: sums the per-replica codes, so 0 means every breaker is closed.
STATE_CODES = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}


@dataclasses.dataclass
class BreakerConfig:
    """Tunables for one replica's circuit breaker.

    ``failure_threshold`` consecutive failures (timeouts, hedge losses,
    connection/shard errors) trip CLOSED→OPEN, as do
    ``inflation_min_samples`` *consecutive* replies each
    ``inflation_factor``× the replica's healthy reference (see
    :meth:`LatencyTracker.inflation`).  ``probe_timeout_s``
    bounds how long a half-open probe reply may straggle before the probe
    counts as failed and the backoff doubles.
    """

    enabled: bool = True
    failure_threshold: int = 3
    inflation_factor: float = 4.0
    inflation_min_samples: int = 16
    backoff_base_s: float = 0.25
    backoff_factor: float = 2.0
    backoff_cap_s: float = 10.0
    jitter: float = 0.2
    probe_timeout_s: float = 0.25

    @classmethod
    def coerce(cls, value) -> "BreakerConfig":
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, dict):
            return cls(**value)
        raise TypeError(
            f"breaker_config must be a BreakerConfig or dict, "
            f"got {type(value).__name__}")


class CircuitBreaker:
    """CLOSED→OPEN→HALF_OPEN admission state for one replica.

    The breaker never performs I/O itself — the router reports outcomes
    (:meth:`record_success`, :meth:`record_failure`) and asks questions
    (:meth:`allows`, :meth:`probe_due`); probe transport lives with the
    socket owner.  ``clock`` is injectable so state-machine tests never
    sleep.
    """

    __slots__ = ("config", "clock", "state", "consecutive_failures",
                 "retry_at", "backoff", "n_trips", "n_readmits",
                 "last_trip_reason", "probe_sent_at")

    def __init__(self, config: BreakerConfig | None = None,
                 clock=time.monotonic, seed: int = 0):
        self.config = config or BreakerConfig()
        self.clock = clock
        self.state = CLOSED
        self.consecutive_failures = 0
        self.retry_at = 0.0
        self.backoff = Backoff(
            base_s=self.config.backoff_base_s,
            factor=self.config.backoff_factor,
            cap_s=self.config.backoff_cap_s,
            jitter=self.config.jitter, seed=seed)
        self.n_trips = 0
        self.n_readmits = 0
        self.last_trip_reason: str | None = None
        self.probe_sent_at: float | None = None

    # -- queries -------------------------------------------------------------

    def allows(self) -> bool:
        """May this replica serve a normal (non-probe) read right now?"""
        return (not self.config.enabled) or self.state == CLOSED

    def probe_due(self) -> bool:
        """OPEN long enough that a half-open probe should be attempted."""
        return (self.config.enabled and self.state == OPEN
                and self.clock() >= self.retry_at)

    def state_code(self) -> int:
        return STATE_CODES[self.state]

    # -- outcome reporting ---------------------------------------------------

    def record_success(self, tracker: LatencyTracker | None = None) -> None:
        """A reply arrived in time; optionally check latency inflation."""
        self.consecutive_failures = 0
        if (self.config.enabled and self.state == CLOSED
                and tracker is not None
                and tracker.inflation(self.config.inflation_min_samples)
                >= self.config.inflation_factor):
            self.trip("latency")

    def record_failure(self, reason: str = "failure") -> None:
        """A timeout, hedge loss, or error; trips past the threshold."""
        if not self.config.enabled:
            return
        self.consecutive_failures += 1
        if (self.state == CLOSED
                and self.consecutive_failures
                >= self.config.failure_threshold):
            self.trip(reason)

    def trip(self, reason: str) -> None:
        self.state = OPEN
        self.retry_at = self.clock() + self.backoff.next()
        self.n_trips += 1
        self.last_trip_reason = reason
        _BREAKER_TRIPS.inc()

    # -- half-open probing ---------------------------------------------------

    def begin_probe(self) -> None:
        self.state = HALF_OPEN
        self.probe_sent_at = self.clock()
        _BREAKER_PROBES.inc()

    def probe_expired(self) -> bool:
        return (self.probe_sent_at is not None
                and self.clock() - self.probe_sent_at
                >= self.config.probe_timeout_s)

    def probe_failed(self) -> None:
        """The probe straggled or errored: reopen with a longer backoff."""
        self.probe_sent_at = None
        self.state = OPEN
        self.retry_at = self.clock() + self.backoff.next()

    def close(self) -> None:
        """Re-admit the replica (probe succeeded, or manual reset)."""
        if self.state != CLOSED:
            self.n_readmits += 1
            _BREAKER_READMITS.inc()
        self.probe_sent_at = None
        self.state = CLOSED
        self.consecutive_failures = 0
        self.backoff.reset()

    def reset(self) -> None:
        """Fresh-process reset: back to CLOSED without counting a re-admit.

        Used at (re)spawn — a brand-new worker earned nothing; only a
        successful half-open probe counts as a re-admission.
        """
        self.probe_sent_at = None
        self.state = CLOSED
        self.consecutive_failures = 0
        self.backoff.reset()

    def stats(self) -> dict:
        return {
            "state": self.state,
            "trips": self.n_trips,
            "readmits": self.n_readmits,
            "consecutive_failures": self.consecutive_failures,
            "last_trip_reason": self.last_trip_reason,
        }


# -- brownout -----------------------------------------------------------------

class BrownoutController:
    """Hysteretic overload→brownout state machine for the front door.

    :meth:`update` folds one dispatch-time overload score
    (``2·shed_rate + queue_fraction + wait-inflation``, 0 = healthy)
    and flips ``active`` after ``enter_after`` consecutive scores at or
    above ``enter_score``; recovery requires ``exit_after`` consecutive
    scores at or below ``exit_score`` — the gap between the two thresholds
    is the hysteresis band that keeps the door from flapping at the edge
    of saturation.
    """

    __slots__ = ("enter_score", "exit_score", "enter_after", "exit_after",
                 "active", "n_entries", "n_exits", "last_score",
                 "_over", "_under")

    def __init__(self, enter_score: float = 0.9, exit_score: float = 0.25,
                 enter_after: int = 3, exit_after: int = 5):
        if exit_score > enter_score:
            raise ValueError("exit_score must not exceed enter_score")
        self.enter_score = enter_score
        self.exit_score = exit_score
        self.enter_after = max(int(enter_after), 1)
        self.exit_after = max(int(exit_after), 1)
        self.active = False
        self.n_entries = 0
        self.n_exits = 0
        self.last_score = 0.0
        self._over = 0
        self._under = 0

    def update(self, score: float) -> bool:
        self.last_score = float(score)
        if not self.active:
            if score >= self.enter_score:
                self._over += 1
                if self._over >= self.enter_after:
                    self.active = True
                    self.n_entries += 1
                    self._over = 0
                    self._under = 0
            else:
                self._over = 0
        else:
            if score <= self.exit_score:
                self._under += 1
                if self._under >= self.exit_after:
                    self.active = False
                    self.n_exits += 1
                    self._under = 0
                    self._over = 0
            else:
                self._under = 0
        return self.active

    def stats(self) -> dict:
        return {
            "active": self.active,
            "entries": self.n_entries,
            "exits": self.n_exits,
            "last_score": round(self.last_score, 4),
        }


def overload_score(queue_fraction: float, wait_ratio: float,
                   shed_rate: float) -> float:
    """The front door's overload score (0 = healthy).

    ``queue_fraction`` is depth (queued + in-flight) over the admission
    bound; ``wait_ratio`` is the realized coalescing wait over the
    configured window (a healthy door waits ≈ 1 window, so only inflation
    *past* double the window counts); ``shed_rate`` is the fraction of
    arrivals rejected since the last dispatch.  Shed weighs double; the
    other terms are baseline-relative inflations.
    """
    return (2.0 * max(shed_rate, 0.0)
            + max(queue_fraction, 0.0)
            + max(0.0, wait_ratio - 2.0) / 8.0)


# -- non-blocking socket helpers ----------------------------------------------

def readable(sock, timeout: float = 0.0) -> bool:
    """True when one full ``select`` says the socket has bytes to read."""
    if sock is None:
        return False
    try:
        ready, _, _ = select.select([sock], [], [], max(timeout, 0.0))
    except (OSError, ValueError):
        return False
    return bool(ready)


def drain_stale(handle, timeout: float) -> bool:
    """Read and discard a handle's owed replies; True when caught up.

    Every request the router abandoned (hedge loser, expired deadline
    wait, timed-out probe) still produces exactly one reply frame on the
    replica's socket.  Those frames must be consumed before the socket can
    carry a new RPC, or a future call would read a stale answer.  Draining
    never blocks past ``timeout``; a handle that cannot drain in time is
    simply not used this round.
    """
    end = time.perf_counter() + max(timeout, 0.0)
    while handle.owes > 0:
        remaining = end - time.perf_counter()
        if not readable(handle.sock, max(remaining, 0.0)):
            return False
        try:
            handle.sock.settimeout(max(remaining, 0.05))
            recv_msg(handle.sock)
        except (ConnectionError, OSError):
            handle.mark_dead()
            return False
        handle.owes -= 1
        _STALE_DRAINED.inc()
    return True


# -- the multiplexed hedged gather -------------------------------------------

class _Flight:
    """One partition's in-flight request set during a scatter-gather."""

    __slots__ = ("shard_id", "t_start", "hedge_base", "waiters", "sent_at",
                 "hedged", "done", "reply")

    def __init__(self, shard_id: int, now: float):
        self.shard_id = shard_id
        self.t_start = now
        self.hedge_base = now     # hedge timer restarts after a failover
        self.waiters: list = []   # ShardHandles with a request outstanding
        self.sent_at: dict = {}   # id(handle) -> send time
        self.hedged = False
        self.done = False
        self.reply: dict | None = None

    def add(self, handle, now: float) -> None:
        self.waiters.append(handle)
        self.sent_at[id(handle)] = now

    def remove(self, handle) -> None:
        self.waiters = [h for h in self.waiters if h is not handle]
        self.sent_at.pop(id(handle), None)


def scatter_gather(router, build_msg, deadline: float | None) -> dict:
    """Scatter one request to every partition and gather replies in parallel.

    The replacement for the sequential per-partition reply loop: every
    partition's outstanding socket is registered with one
    :class:`selectors.DefaultSelector` and replies are consumed in arrival
    order, so a slow partition delays only itself.  Per-partition waits are
    bounded by the caller's ``deadline`` (absolute ``perf_counter`` time)
    when one is set, else by :data:`RPC_TIMEOUT` from the flight's
    start.  Within a flight:

    - a ``ConnectionError`` fails over to the partition's next eligible
      replica with the remaining budget (counted as a retry);
    - a reply slower than the primary's :meth:`LatencyTracker.hedge_delay`
      triggers one hedge to the next eligible replica (only when one
      exists); first reply wins, the loser's frame stays owed on its
      handle and is drained before that handle's next use;
    - budget exhaustion abandons the flight — partial results, never an
      exception — and records a timeout failure on every waiter's breaker.

    Returns ``{shard_id: reply dict}`` for the partitions that answered.
    ``router`` provides ``n_shards``, ``hedge_enabled``,
    ``_pick_replica``, ``_hedge_delay``, ``_on_send``, ``_on_success``,
    ``_on_conn_error``, ``_on_timeout``, ``_on_outpaced``, and
    ``_note_retry`` — the routing policy stays with the router; this
    function owns only the multiplexing.
    """
    sel = selectors.DefaultSelector()
    tried: dict[int, set[int]] = {s: set() for s in range(router.n_shards)}
    flights: dict[int, _Flight] = {}
    replies: dict[int, dict] = {}
    registered: set[int] = set()  # id(handle) currently in the selector

    def register(flight: _Flight, handle) -> None:
        sel.register(handle.sock, selectors.EVENT_READ,
                     (flight.shard_id, handle))
        registered.add(id(handle))

    def unregister(handle) -> None:
        if id(handle) in registered:
            try:
                sel.unregister(handle.sock)
            except (KeyError, ValueError):
                pass
            registered.discard(id(handle))

    def launch(shard_id: int):
        """Pick the next eligible replica and send; None when exhausted."""
        while True:
            handle = router._pick_replica(shard_id, tried[shard_id])
            if handle is None:
                return None
            tried[shard_id].add(handle.replica_id)
            try:
                send_msg(handle.sock, build_msg())
            except (ConnectionError, OSError):
                unregister(handle)
                router._on_conn_error(handle)
                continue
            handle.owes += 1
            router._on_send(handle)
            return handle

    def flight_deadline(flight: _Flight) -> float:
        if deadline is not None:
            return deadline
        return flight.t_start + RPC_TIMEOUT

    def finish(flight: _Flight, reply: dict | None, winner=None) -> None:
        flight.done = True
        for handle in flight.waiters:
            unregister(handle)
            if winner is not None and handle is not winner:
                # The loser owes a frame; its breaker notes being outpaced.
                router._on_outpaced(handle)
        if reply is not None:
            replies[flight.shard_id] = reply
            if winner is not None and flight.hedged \
                    and flight.waiters and winner is not flight.waiters[0]:
                _HEDGE_WINS.inc()
                router.n_hedge_wins += 1

    now = time.perf_counter()
    for s in range(router.n_shards):
        flight = _Flight(s, now)
        handle = launch(s)
        if handle is None:
            continue  # partition outage: contributes nothing (degraded)
        flight.add(handle, now)
        register(flight, handle)
        flights[s] = flight

    pending = {s for s, fl in flights.items() if not fl.done}
    try:
        while pending:
            now = time.perf_counter()
            # Next wakeup: the earliest hedge-fire or budget expiry across
            # live flights (None = wait for the first readable socket).
            wake: float | None = None
            for s in pending:
                flight = flights[s]
                t = flight_deadline(flight)
                if (router.hedge_enabled and not flight.hedged
                        and len(flight.waiters) == 1
                        and router._has_hedge_target(s, tried[s])):
                    t = min(t, flight.hedge_base
                            + router._hedge_delay(flight.waiters[0]))
                wake = t if wake is None else min(wake, t)
            timeout = None if wake is None else max(wake - now, 0.0)

            for key, _ in sel.select(timeout):
                s, handle = key.data
                flight = flights.get(s)
                if flight is None or flight.done:
                    continue
                now = time.perf_counter()
                budget = max(flight_deadline(flight) - now, 0.05)
                try:
                    handle.sock.settimeout(budget)
                    reply = recv_msg(handle.sock)
                    handle.owes -= 1
                    if "err" in reply:
                        raise ConnectionError(
                            f"shard error: {reply['err']}")
                except (ConnectionError, OSError):
                    # Mid-frame timeout desynchronizes the stream, so a
                    # TimeoutError here also (correctly) kills the handle.
                    unregister(handle)
                    router._on_conn_error(handle)
                    flight.remove(handle)
                    if not flight.waiters:
                        replacement = launch(s)
                        if replacement is None:
                            finish(flight, None)
                        else:
                            now = time.perf_counter()
                            flight.add(replacement, now)
                            flight.hedge_base = now
                            register(flight, replacement)
                            router._note_retry()
                    continue
                latency = time.perf_counter() - flight.sent_at[id(handle)]
                router._on_success(handle, latency)
                finish(flight, reply, winner=handle)

            now = time.perf_counter()
            for s in list(pending):
                flight = flights[s]
                if flight.done:
                    pending.discard(s)
                    continue
                if now >= flight_deadline(flight):
                    _GATHER_TIMEOUTS.inc()
                    for handle in flight.waiters:
                        router._on_timeout(handle)
                    finish(flight, None)
                    pending.discard(s)
                    continue
                if (router.hedge_enabled and not flight.hedged
                        and len(flight.waiters) == 1
                        and now - flight.hedge_base
                        >= router._hedge_delay(flight.waiters[0])):
                    # One hedge attempt per flight: either it launches or
                    # the partition simply rides out its primary.
                    flight.hedged = True
                    hedge = launch(s)
                    if hedge is not None:
                        flight.add(hedge, now)
                        register(flight, hedge)
                        _HEDGES.inc()
                        router.n_hedges += 1
    finally:
        sel.close()
    return replies
