"""Gray-failure resilience: hedged gather, breakers, brownout, resync.

Unit layers (fake clocks, no processes) cover the state machines —
:class:`LatencyTracker`, :class:`Backoff`, :class:`CircuitBreaker`,
:class:`BrownoutController` — and the overload score shape.  The e2e
layers fork real shard workers and provoke *gray* failures through the
``worker.pre_reply`` delay fault: slow-but-alive replicas that the PR 7
failover (which only understands dead sockets) cannot mask.
"""

from __future__ import annotations

import asyncio
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    WORKER_OP_POINT,
    WORKER_PRE_REPLY_POINT,
    Backoff,
    BreakerConfig,
    BrownoutController,
    CircuitBreaker,
    ClusterRouter,
    FrontDoor,
    LatencyTracker,
    Overloaded,
)
from repro.cluster import resilience
from repro.store import VectorStore

DIM = 16


@pytest.fixture(scope="module")
def cluster_data():
    rng = np.random.default_rng(7)
    base = rng.standard_normal((300, DIM)).astype(np.float32)
    queries = rng.standard_normal((24, DIM)).astype(np.float32)
    return base, queries


class FakeClock:
    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


# -- unit: latency tracking ---------------------------------------------------

class TestLatencyTracker:
    def test_warmup_uses_initial_delay(self):
        tr = LatencyTracker(warmup=8, initial_s=0.05)
        for _ in range(7):
            tr.record(0.002)
        assert tr.hedge_delay() == 0.05  # still warming up
        tr.record(0.002)
        assert tr.hedge_delay() < 0.01  # adaptive now

    def test_p95_tracks_mean_plus_spread(self):
        tr = LatencyTracker(warmup=4)
        for _ in range(20):
            tr.record(0.010)
        assert tr.p95() == pytest.approx(0.010, rel=0.05)
        tr.record(0.100)  # one outlier inflates the spread term
        assert tr.p95() > 0.020

    def test_baseline_locks_and_inflation_ratio(self):
        tr = LatencyTracker(warmup=4)
        for _ in range(8):
            tr.record(0.010)
        baseline = tr.baseline
        assert baseline == pytest.approx(0.010, rel=0.05)
        for _ in range(20):
            tr.record(0.200)
        assert tr.baseline == baseline  # locked, not dragged along
        assert tr.inflation() > 10.0

    def test_reset_window_keeps_baseline(self):
        tr = LatencyTracker(warmup=4)
        for _ in range(8):
            tr.record(0.010)
        for _ in range(20):
            tr.record(0.500)
        tr.reset_window()
        assert tr.inflation() == pytest.approx(1.0)
        assert tr.baseline == pytest.approx(0.010, rel=0.05)


class TestBackoff:
    def test_exponential_growth_capped(self):
        b = Backoff(base_s=0.1, factor=2.0, cap_s=1.0, jitter=0.0, seed=0)
        delays = [b.next() for _ in range(8)]
        assert delays[:4] == pytest.approx([0.1, 0.2, 0.4, 0.8])
        assert all(d == pytest.approx(1.0) for d in delays[4:])

    def test_jitter_is_deterministic_per_seed(self):
        a = [Backoff(jitter=0.3, seed=42).next() for _ in range(1)][0]
        b = Backoff(jitter=0.3, seed=42).next()
        c = Backoff(jitter=0.3, seed=43).next()
        assert a == b
        assert a != c

    def test_reset_restarts_the_schedule(self):
        b = Backoff(base_s=0.1, factor=2.0, jitter=0.0, seed=0)
        first = b.next()
        b.next(), b.next()
        b.reset()
        assert b.next() == first


# -- unit: circuit breaker ----------------------------------------------------

def _breaker(clock, **overrides) -> CircuitBreaker:
    cfg = dict(failure_threshold=3, backoff_base_s=1.0, backoff_factor=2.0,
               jitter=0.0, probe_timeout_s=0.5)
    cfg.update(overrides)
    return CircuitBreaker(BreakerConfig(**cfg), clock=clock, seed=1)

class TestCircuitBreaker:
    def test_trips_on_consecutive_failures_only(self):
        clock = FakeClock()
        br = _breaker(clock)
        br.record_failure(), br.record_failure()
        br.record_success()  # streak broken
        br.record_failure(), br.record_failure()
        assert br.state == resilience.CLOSED
        br.record_failure()
        assert br.state == resilience.OPEN
        assert not br.allows()
        assert br.n_trips == 1

    def test_probe_due_after_backoff_and_reopen_grows_it(self):
        clock = FakeClock()
        br = _breaker(clock)
        for _ in range(3):
            br.record_failure()
        assert not br.probe_due()
        clock.advance(1.01)  # past the 1 s base backoff
        assert br.probe_due()
        br.begin_probe()
        assert br.state == resilience.HALF_OPEN
        clock.advance(0.51)
        assert br.probe_expired()
        br.probe_failed()
        assert br.state == resilience.OPEN
        assert not br.probe_due()  # next retry is 2 s out now
        clock.advance(1.5)
        assert not br.probe_due()
        clock.advance(0.6)
        assert br.probe_due()

    def test_close_counts_readmit_and_resets(self):
        clock = FakeClock()
        br = _breaker(clock)
        for _ in range(3):
            br.record_failure()
        clock.advance(1.01)
        br.begin_probe()
        br.close()
        assert br.state == resilience.CLOSED
        assert br.allows()
        assert br.n_readmits == 1
        # backoff restarted: a fresh trip waits the base delay again
        for _ in range(3):
            br.record_failure()
        assert br.retry_at == pytest.approx(clock() + 1.0)

    def test_reset_does_not_count_readmit(self):
        clock = FakeClock()
        br = _breaker(clock)
        for _ in range(3):
            br.record_failure()
        br.reset()
        assert br.state == resilience.CLOSED
        assert br.n_readmits == 0

    def test_latency_inflation_trips(self):
        clock = FakeClock()
        br = _breaker(clock, inflation_factor=4.0, inflation_min_samples=8)
        tr = LatencyTracker(warmup=4)
        for _ in range(8):
            tr.record(0.010)
            br.record_success(tr)
        assert br.state == resilience.CLOSED
        for _ in range(20):
            tr.record(0.100)
        br.record_success(tr)
        assert br.state == resilience.OPEN
        assert br.last_trip_reason == "latency"

    def test_disabled_breaker_never_blocks(self):
        br = CircuitBreaker(BreakerConfig(enabled=False), clock=FakeClock())
        for _ in range(10):
            br.record_failure()
        assert br.state == resilience.CLOSED
        assert br.allows()
        assert not br.probe_due()


class TestBrownoutController:
    def test_enters_after_consecutive_high_scores_only(self):
        bo = BrownoutController(enter_score=0.9, exit_score=0.25,
                                enter_after=3, exit_after=2)
        assert not bo.update(1.5)
        assert not bo.update(1.5)
        assert not bo.update(0.1)  # blip resets the streak
        assert not bo.update(1.5)
        assert not bo.update(1.5)
        assert bo.update(1.5)
        assert bo.n_entries == 1

    def test_hysteresis_band_holds_state(self):
        bo = BrownoutController(enter_score=0.9, exit_score=0.25,
                                enter_after=1, exit_after=2)
        bo.update(1.0)
        assert bo.active
        # mid-band scores neither re-enter nor exit
        for _ in range(10):
            bo.update(0.5)
        assert bo.active
        bo.update(0.1)
        assert bo.active  # needs exit_after consecutive lows
        assert not bo.update(0.1)
        assert bo.n_exits == 1

    def test_exit_streak_reset_by_high_score(self):
        bo = BrownoutController(enter_score=0.9, exit_score=0.25,
                                enter_after=1, exit_after=3)
        bo.update(1.0)
        bo.update(0.1), bo.update(0.1)
        bo.update(0.8)  # breaks the recovery streak
        bo.update(0.1), bo.update(0.1)
        assert bo.active
        assert not bo.update(0.1)

    def test_invalid_band_rejected(self):
        with pytest.raises(ValueError):
            BrownoutController(enter_score=0.2, exit_score=0.5)

    def test_overload_score_shape(self):
        assert resilience.overload_score(0.0, 1.0, 0.0) == 0.0
        # sheds weigh double
        assert resilience.overload_score(0.0, 1.0, 0.5) == pytest.approx(1.0)
        # wait inflation only counts past 2x the window
        assert resilience.overload_score(0.0, 2.0, 0.0) == 0.0
        assert resilience.overload_score(0.0, 10.0, 0.0) == pytest.approx(1.0)


# -- e2e: hedging and breakers against real gray replicas --------------------

def _warm(router, queries, n=35):
    """Prime every replica's latency tracker past its warmup."""
    for i in range(n):
        router.search_batch(queries[i % len(queries):][:1], 10)


def _arm_delay(handle, delay_s):
    handle.rpc({"op": "arm_faults", "rules": [
        {"point": WORKER_PRE_REPLY_POINT, "action": "delay",
         "every": True, "delay_s": delay_s}]})


class TestHedgedGather:
    def test_gray_replica_is_hedged_around(self, cluster_data):
        base, queries = cluster_data
        with ClusterRouter(dim=DIM, metric="l2", n_shards=2, n_replicas=2,
                           M=8, ef_construction=40, seed=3) as router:
            router.load(base)
            _warm(router, queries)
            _arm_delay(router.handles[0][0], 0.08)
            t0 = time.perf_counter()
            results = [router.search_batch(queries[i:i + 1], 10)[0]
                       for i in range(20)]
            elapsed = time.perf_counter() - t0
            # 20 searches against an 80 ms-delayed primary: sequential
            # failover would cost >= 1.6 s; hedging + the breaker routing
            # around the gray replica keeps it well under that.
            assert elapsed < 1.2
            assert router.n_hedges > 0
            assert router.n_hedge_wins > 0
            assert all(not r.degraded for r in results)
            assert all(len(r.ids) == 10 for r in results)
            assert router.n_respawns == 0
            assert router.live_replicas() == 4  # nothing was killed

    def test_breaker_opens_then_probe_readmits_after_disarm(
            self, cluster_data):
        base, queries = cluster_data
        with ClusterRouter(
                dim=DIM, metric="l2", n_shards=2, n_replicas=2,
                M=8, ef_construction=40, seed=3,
                breaker_config={"backoff_base_s": 0.15,
                                "jitter": 0.0}) as router:
            router.load(base)
            _warm(router, queries)
            victim = router.handles[0][0]
            _arm_delay(victim, 0.08)
            for i in range(25):
                router.search_batch(queries[i % 24:][:1], 10)
                if victim.breaker.state == resilience.OPEN:
                    break
            assert victim.breaker.state == resilience.OPEN
            assert victim.alive  # gray, not dead: no respawn needed
            victim.rpc({"op": "disarm_faults"})  # drains stale frames too
            time.sleep(0.4)  # let the retry backoff elapse
            for i in range(20):
                router.search_batch(queries[i % 24:][:1], 10)
                if victim.breaker.state == resilience.CLOSED:
                    break
                time.sleep(0.02)
            assert victim.breaker.state == resilience.CLOSED
            assert victim.breaker.n_readmits >= 1
            assert router.n_respawns == 0
            stats = router.router_stats()
            assert stats["breaker_trips"] >= 1
            assert stats["breaker_readmits"] >= 1

    def test_single_replica_partition_never_hedges(self, cluster_data):
        base, queries = cluster_data
        with ClusterRouter(dim=DIM, metric="l2", n_shards=2, n_replicas=1,
                           M=8, ef_construction=40, seed=3,
                           hedge_ms=1.0) as router:
            router.load(base)
            _arm_delay(router.handles[0][0], 0.02)
            for i in range(6):
                router.search_batch(queries[i:i + 1], 10)
            assert router.n_hedges == 0

    def test_all_replicas_slow_expires_into_degraded_answers(
            self, cluster_data):
        base, queries = cluster_data
        with ClusterRouter(dim=DIM, metric="l2", n_shards=2, n_replicas=1,
                           M=8, ef_construction=40, seed=3,
                           breaker_config={"backoff_base_s": 30.0,
                                           "jitter": 0.0}) as router:
            router.load(base)
            _warm(router, queries, n=10)
            # Partition 0's only replica is gray: with a deadline tighter
            # than its delay every search must expire that partition and
            # still answer from the survivor — degraded, never an error.
            _arm_delay(router.handles[0][0], 0.25)
            shard1_gids = {
                int(g) for g in router.handles[1][0].rpc(
                    {"op": "gid_list"})["gids"].tolist()}
            results = []
            for i in range(6):
                results.append(router.search_batch(queries[i:i + 1], 10,
                                                   deadline_ms=60.0)[0])
                # Let the abandoned reply land so the next search can use
                # (and time out on) the gray replica again instead of
                # skipping it as busy — each round is one more timeout.
                time.sleep(0.28)
            assert all(r.degraded for r in results)
            for r in results:
                assert len(r.ids) > 0  # partial answers from the survivor
                assert set(int(g) for g in r.ids) <= shard1_gids
            assert router.live_replicas() == 2  # nobody was marked dead
            assert router.handles[0][0].breaker.n_trips >= 1  # timeouts
            assert router.router_stats()["breakers_open"] >= 1
            # The abandoned replies are drained, not mistaken for fresh
            # ones: a direct RPC on the gray handle still pairs correctly.
            victim = router.handles[0][0]
            assert victim.owes > 0
            victim.rpc({"op": "disarm_faults"})
            assert victim.owes == 0
            assert victim.rpc({"op": "ping"})["ok"] is True

    def test_hedge_delay_override_and_ewma_default(self, cluster_data):
        base, _ = cluster_data
        with ClusterRouter(dim=DIM, metric="l2", n_shards=2, n_replicas=2,
                           M=8, ef_construction=40, seed=3,
                           hedge_ms=7.0) as router:
            handle = router.handles[0][0]
            assert router._hedge_delay(handle) == pytest.approx(0.007)
            router.hedge_ms = None
            assert router._hedge_delay(handle) == pytest.approx(
                handle.latency.hedge_delay())


class TestHedgeBitIdentity:
    @pytest.fixture(scope="class")
    def router_pair(self, cluster_data):
        base, _ = cluster_data
        hedged = ClusterRouter(dim=DIM, metric="l2", n_shards=2,
                               n_replicas=2, M=8, ef_construction=40,
                               seed=9, hedge=True, hedge_ms=0.0)
        plain = ClusterRouter(dim=DIM, metric="l2", n_shards=2,
                              n_replicas=2, M=8, ef_construction=40,
                              seed=9, hedge=False,
                              breaker_config={"enabled": False})
        hedged.load(base)
        plain.load(base)
        yield hedged, plain
        hedged.close()
        plain.close()

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           n=st.integers(1, 6), ef=st.sampled_from([10, 20, 40]))
    def test_hedge_on_off_bit_identical_without_faults(self, router_pair,
                                                       seed, n, ef):
        """Replicas are deterministic clones, so even a spurious hedge
        (hedge_ms=0 hedges every partition) changes nothing about the
        answer — hedging is invisible outside of fault conditions."""
        hedged, plain = router_pair
        rng = np.random.default_rng(seed)
        queries = rng.standard_normal((n, DIM)).astype(np.float32)
        a = hedged.search_batch(queries, 10, ef=ef)
        b = plain.search_batch(queries, 10, ef=ef)
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.ids, rb.ids)
            np.testing.assert_array_equal(ra.distances, rb.distances)
            assert ra.degraded == rb.degraded


# -- e2e: bounded catch-up and peer resync ------------------------------------

class TestCatchupOverflowResync:
    def test_overflow_forces_peer_resync_at_respawn(self, cluster_data):
        base, queries = cluster_data
        with ClusterRouter(dim=DIM, metric="l2", n_shards=2, n_replicas=2,
                           M=8, ef_construction=40, seed=3,
                           max_pending=4) as router:
            router.load(base)
            victim = router.handles[0][0]
            victim.rpc({"op": "arm_faults", "rules": [
                {"point": WORKER_OP_POINT, "action": "kill", "nth": 1}]})
            with pytest.raises((Exception,)):
                victim.rpc({"op": "ping"})
            assert not victim.alive
            rng = np.random.default_rng(0)
            # 8 separate mutations per partition >> max_pending=4
            new_gids = []
            for _ in range(8):
                new_gids += router.add(
                    rng.standard_normal((2, DIM)).astype(np.float32))
            router.delete([new_gids[0], new_gids[1]])
            assert victim.catchup_overflow
            assert victim.pending == []  # dropped, not grown
            assert router.router_stats()["catchup_overflows"] == 1

            report = router.respawn(0, 0)
            assert report["consistent"]
            assert not victim.catchup_overflow
            assert router.n_resyncs == 1
            # The resynced replica converged on its live peer's row set.
            a = victim.rpc({"op": "gid_list"})["gids"]
            b = router.handles[0][1].rpc({"op": "gid_list"})["gids"]
            np.testing.assert_array_equal(a, b)

    def test_bounded_buffer_replays_normally_without_overflow(
            self, cluster_data):
        base, _ = cluster_data
        with ClusterRouter(dim=DIM, metric="l2", n_shards=2, n_replicas=2,
                           M=8, ef_construction=40, seed=3,
                           max_pending=64) as router:
            router.load(base)
            victim = router.handles[0][0]
            victim.rpc({"op": "arm_faults", "rules": [
                {"point": WORKER_OP_POINT, "action": "kill", "nth": 1}]})
            with pytest.raises((Exception,)):
                victim.rpc({"op": "ping"})
            rng = np.random.default_rng(1)
            router.add(rng.standard_normal((4, DIM)).astype(np.float32))
            assert 0 < len(victim.pending) <= 64
            assert not victim.catchup_overflow
            router.respawn(0, 0)
            assert router.n_resyncs == 0  # plain replay was enough
            a = victim.rpc({"op": "gid_list"})["gids"]
            b = router.handles[0][1].rpc({"op": "gid_list"})["gids"]
            np.testing.assert_array_equal(a, b)

    def test_export_rows_rejects_unknown_gids(self, cluster_data):
        base, _ = cluster_data
        with ClusterRouter(dim=DIM, metric="l2", n_shards=2, n_replicas=1,
                           M=8, ef_construction=40, seed=3) as router:
            router.load(base)
            reply = router.handles[0][0].rpc(
                {"op": "export_rows",
                 "gids": np.array([10**9], dtype=np.int64)})
            assert "err" in reply


# -- e2e: front door admission control ----------------------------------------

class _SlowSearcher:
    """VectorStore wrapper with a fixed service delay (saturates the door)."""

    def __init__(self, store, delay_s: float):
        self.store = store
        self.delay_s = delay_s
        self.thread_names: list[str] = []

    def search_batch(self, *args, **kwargs):
        self.thread_names.append(threading.current_thread().name)
        time.sleep(self.delay_s)
        return self.store.search_batch(*args, **kwargs)


@pytest.fixture(scope="module")
def frontdoor_store(cluster_data):
    base, _ = cluster_data
    store = VectorStore(dim=DIM, metric="l2", M=8, ef_construction=40,
                        seed=1)
    store.add(base)
    store.build()
    yield store
    store.close()


class TestFrontDoorAdmission:
    def test_shed_keeps_depth_bounded(self, frontdoor_store, cluster_data):
        _, queries = cluster_data

        async def scenario():
            door = FrontDoor(_SlowSearcher(frontdoor_store, 0.03),
                             window_ms=1.0, max_batch=8, k=10,
                             max_queue=12, executor_workers=1)
            outcomes = await asyncio.gather(
                *(door.search(queries[i % 24]) for i in range(80)),
                return_exceptions=True)
            await door.drain()
            return door, outcomes

        door, outcomes = asyncio.run(scenario())
        shed = [o for o in outcomes if isinstance(o, Overloaded)]
        served = [o for o in outcomes if not isinstance(o, Exception)]
        assert shed and served
        assert len(shed) + len(served) == 80
        assert door.max_depth_seen <= 12
        assert door.stats()["shed"] == len(shed)

    def test_brownout_degrades_then_recovers(self, frontdoor_store,
                                             cluster_data):
        _, queries = cluster_data

        async def scenario():
            door = FrontDoor(
                _SlowSearcher(frontdoor_store, 0.02), window_ms=1.0,
                max_batch=8, k=10, ef=40, max_queue=12,
                executor_workers=1,
                brownout=BrownoutController(enter_score=0.5,
                                            exit_score=0.2,
                                            enter_after=2, exit_after=2))
            overload = await asyncio.gather(
                *(door.search(queries[i % 24]) for i in range(120)),
                return_exceptions=True)
            assert door._brownout.active
            served = [o for o in overload if not isinstance(o, Exception)]
            assert any(r.degraded for r in served)  # brownout is honest
            # light phase: sequential singles drop the score back down
            recovered = []
            for i in range(15):
                recovered.append(await door.search(queries[i % 24]))
            stats = door.stats()
            await door.drain()
            return door, recovered, stats

        door, recovered, stats = asyncio.run(scenario())
        assert not door._brownout.active
        assert stats["brownout"]["entries"] >= 1
        assert stats["brownout"]["exits"] >= 1
        assert not recovered[-1].degraded  # full-effort serving is back

    def test_brownout_ef_resolution_chain(self, frontdoor_store):
        searcher = _SlowSearcher(frontdoor_store, 0.0)
        assert FrontDoor(searcher, k=10, ef=64)._brownout_ef(10) == 32
        assert FrontDoor(searcher, k=10, ef=19)._brownout_ef(10) == 10
        # No smaller ef than full effort exists: no brown-out ef at all.
        assert FrontDoor(searcher, k=10, ef=10)._brownout_ef(10) is None
        assert FrontDoor(searcher, k=10)._brownout_ef(10) is None

    @pytest.mark.parametrize("ef", [None, 10], ids=["no-ef", "halving-hits-k"])
    def test_brownout_without_smaller_ef_serves_full_answers(
            self, frontdoor_store, cluster_data, ef):
        """A browned block that cannot run below full effort is dispatched
        normally: its answers are the unbrowned ones, unflagged, and no
        brown-out block is counted."""
        _, queries = cluster_data
        forced = BrownoutController(enter_score=0.0, exit_score=0.0,
                                    enter_after=1, exit_after=10**9)

        async def scenario():
            door = FrontDoor(frontdoor_store, window_ms=1.0, k=10, ef=ef,
                             brownout=forced)
            served = await asyncio.gather(
                *(door.search(queries[i]) for i in range(24)))
            stats = door.stats()
            await door.drain()
            return served, stats

        served, stats = asyncio.run(scenario())
        assert forced.active
        assert stats["brownout_blocks"] == 0
        assert not any(r.degraded for r in served)
        expected = frontdoor_store.search_batch(queries[:24], k=10, ef=ef)
        for got, want in zip(served, expected):
            np.testing.assert_array_equal(got.ids, want.ids)

    def test_dedicated_executor_and_terminal_drain(self, frontdoor_store,
                                                   cluster_data):
        _, queries = cluster_data
        searcher = _SlowSearcher(frontdoor_store, 0.0)

        async def scenario():
            door = FrontDoor(searcher, window_ms=0.5, k=10,
                             executor_workers=2)
            await asyncio.gather(*(door.search(queries[i])
                                   for i in range(6)))
            await door.drain()
            return door

        door = asyncio.run(scenario())
        # Blocks ran on the door's own bounded pool, not the loop default.
        assert searcher.thread_names
        assert all(name.startswith("repro-frontdoor")
                   for name in searcher.thread_names)
        assert door._executor._shutdown

        async def after():
            with pytest.raises(RuntimeError, match="drained"):
                await door.search(queries[0])
        asyncio.run(after())


# -- e2e: worker resilience ops ----------------------------------------------

class TestWorkerOps:
    def test_health_gid_list_and_disarm(self, cluster_data):
        base, _ = cluster_data
        with ClusterRouter(dim=DIM, metric="l2", n_shards=2, n_replicas=1,
                           M=8, ef_construction=40, seed=3) as router:
            router.load(base)
            handle = router.handles[0][0]
            health = handle.rpc({"op": "health"})
            assert health["ok"] and health["built"]
            assert health["n_gids"] > 0
            gids = handle.rpc({"op": "gid_list"})["gids"]
            assert gids.dtype == np.int64
            assert np.all(np.diff(gids) > 0)  # sorted, unique
            assert np.all(gids % 2 == 0)  # partition 0 owns even gids
            assert handle.rpc({"op": "disarm_faults"})["ok"]


# -- unit: sustained inflation and fail-open routing (injected clock) ---------

class TestSustainedInflation:
    def test_one_blip_on_a_sub_millisecond_replica_does_not_trip(self):
        clock = FakeClock()
        br = _breaker(clock, inflation_factor=4.0, inflation_min_samples=4)
        tr = LatencyTracker(warmup=4)
        for _ in range(8):
            tr.record(0.0004)
            br.record_success(tr)
        assert tr.baseline == tr.floor_s  # healthy replies sit under the floor
        tr.record(0.016)                  # a scheduler blip, 16x the baseline
        br.record_success(tr)
        assert br.state == resilience.CLOSED
        # Sustained, but under the absolute floor: 8 ms is 8x a 1 ms baseline
        # and still not "tens of milliseconds".
        for _ in range(10):
            tr.record(0.008)
            br.record_success(tr)
        assert br.state == resilience.CLOSED

    def test_trip_needs_consecutive_inflated_samples(self):
        clock = FakeClock()
        br = _breaker(clock, inflation_factor=4.0, inflation_min_samples=4)
        tr = LatencyTracker(warmup=4)
        for _ in range(8):
            tr.record(0.0004)
        for latency in (0.1, 0.1, 0.1, 0.0004, 0.1, 0.1, 0.1):
            tr.record(latency)            # a fast reply breaks the run
            br.record_success(tr)
            assert br.state == resilience.CLOSED
        tr.record(0.1)                    # the fourth in a row
        br.record_success(tr)
        assert br.state == resilience.OPEN
        assert br.last_trip_reason == "latency"


class TestFailOpen:
    """``_pick_replica`` on handles that never spawn: breakers on a fake
    clock that is never advanced, so no probe comes due and no socket is
    touched."""

    @staticmethod
    def _partition(slow_by_replica):
        from repro.cluster.router import ShardHandle

        clock = FakeClock()
        router = ClusterRouter.__new__(ClusterRouter)
        handles = []
        for replica_id, slow in enumerate(slow_by_replica):
            handle = ShardHandle(0, replica_id, {}, rpc_timeout=1.0,
                                 breaker=_breaker(clock,
                                                  inflation_min_samples=4))
            handle.alive = True
            for _ in range(8):
                handle.latency.record(0.001)
            for _ in range(4):
                handle.latency.record(slow)
            handles.append(handle)
        router.handles, router.n_replicas, router._rr = [handles], len(
            handles), 0
        return router, handles

    def test_every_replica_open_routes_to_the_least_inflated(self):
        router, (a, b, c) = self._partition([0.2, 0.05, 0.4])
        for handle in (a, b, c):
            handle.breaker.trip("latency")
            assert not handle.breaker.allows()
        assert router._pick_replica(0, set()) is b
        assert router._pick_replica(0, {b.replica_id}) is a
        assert router._pick_replica(0, {a.replica_id, b.replica_id}) is c
        assert router._pick_replica(0, {0, 1, 2}) is None

    def test_breakers_still_choose_between_replicas(self):
        router, (a, b) = self._partition([0.2, 0.05])
        a.breaker.trip("latency")
        assert router._pick_replica(0, set()) is b      # the admitted one
        b.breaker.trip("latency")
        b.breaker.close()
        assert router._pick_replica(0, set()) is b
        b.alive = False                                  # dead is not gray
        assert router._pick_replica(0, set()) is a      # fail open to it
        a.alive = False
        assert router._pick_replica(0, set()) is None
