"""Sharded serving: protocol framing, top-k merge, router, chaos recovery."""

from __future__ import annotations

import asyncio
import dataclasses
import socket
import threading

import numpy as np
import pytest

from repro.cluster import (
    WORKER_OP_POINT,
    ClusterError,
    ClusterRouter,
    FrontDoor,
    decode,
    encode,
    hash_partition,
    merge_stats,
    merge_topk_batch,
    recv_msg,
    send_msg,
    shard_budget_ms,
)
from repro.cluster.worker import _ShardServer
from repro.config import StoreConfig
from repro.graphs.search import pad_results
from repro.store import VectorStore
from tests.conftest import (NONDEFAULT_STORE_SETTINGS, OLD_TUNED_TABLE,
                            store_settings_with)

DIM = 16


@pytest.fixture(scope="module")
def cluster_data():
    rng = np.random.default_rng(11)
    base = rng.standard_normal((300, DIM)).astype(np.float32)
    queries = rng.standard_normal((24, DIM)).astype(np.float32)
    return base, queries


@pytest.fixture(scope="module")
def shared_router(cluster_data):
    """Read-only 3-shard router over the module dataset (do not mutate)."""
    base, _ = cluster_data
    router = ClusterRouter(dim=DIM, metric="l2", n_shards=3,
                           M=8, ef_construction=40, seed=5)
    router.load(base)
    yield router
    router.close()


class TestProtocol:
    def test_round_trip_arrays_and_plain(self):
        msg = {
            "op": "search", "k": 7, "nested": {"a": [1, 2]},
            "q": np.arange(12, dtype=np.float32).reshape(3, 4),
            "ids": np.array([5, -1, 9], dtype=np.int64),
            "flags": np.array([True, False]),
        }
        a, b = socket.socketpair()
        send_msg(a, msg)
        got = recv_msg(b)
        assert got["op"] == "search" and got["k"] == 7
        assert got["nested"] == {"a": [1, 2]}
        np.testing.assert_array_equal(got["q"], msg["q"])
        np.testing.assert_array_equal(got["ids"], msg["ids"])
        np.testing.assert_array_equal(got["flags"], msg["flags"])
        assert got["q"].dtype == np.float32 and got["ids"].dtype == np.int64
        a.close(), b.close()

    def test_empty_arrays_and_zero_payload(self):
        frame = encode({"ids": np.empty((0, 5), dtype=np.int64), "x": None})
        header_len = int.from_bytes(frame[:4], "big")
        got = decode(frame[4:4 + header_len], frame[4 + header_len:])
        assert got["ids"].shape == (0, 5) and got["x"] is None

    def test_peer_death_is_connection_error(self):
        a, b = socket.socketpair()
        send_msg(a, {"op": "ping"})
        a.close()
        recv_msg(b)  # the complete frame still arrives
        with pytest.raises(ConnectionError):
            recv_msg(b)  # then EOF
        b.close()

    def test_mid_frame_close_is_connection_error(self):
        a, b = socket.socketpair()
        frame = encode({"q": np.ones((4, 8), dtype=np.float32)})
        a.sendall(frame[: len(frame) - 10])
        a.close()
        with pytest.raises(ConnectionError):
            recv_msg(b)
        b.close()


def _reference_merge(ids_blocks, dists_blocks, k, excluded=None):
    """Per-row python merge: sort, dedupe keeping best, drop excluded."""
    excluded = set() if excluded is None else set(excluded.tolist())
    n = ids_blocks[0].shape[0]
    out_ids = np.full((n, k), -1, dtype=np.int64)
    out_d = np.full((n, k), np.inf)
    for r in range(n):
        pairs = {}
        for ids, dists in zip(ids_blocks, dists_blocks):
            for g, d in zip(ids[r].tolist(), dists[r].tolist()):
                if g < 0 or g in excluded:
                    continue
                if g not in pairs or d < pairs[g]:
                    pairs[g] = d
        ranked = sorted(pairs.items(), key=lambda t: (t[1], t[0]))[:k]
        for j, (g, d) in enumerate(ranked):
            out_ids[r, j] = g
            out_d[r, j] = d
    return out_ids, out_d


class TestMergeTopk:
    def test_duplicates_across_replicas_keep_best_distance(self):
        a_ids = np.array([[3, 7, 9]], dtype=np.int64)
        a_d = np.array([[0.5, 0.9, 1.4]])
        b_ids = np.array([[7, 3, 11]], dtype=np.int64)
        b_d = np.array([[0.4, 0.8, 1.0]])  # better 7, worse 3
        ids, dists = merge_topk_batch([a_ids, b_ids], [a_d, b_d], k=4)
        np.testing.assert_array_equal(ids[0], [7, 3, 11, 9])
        np.testing.assert_allclose(dists[0], [0.4, 0.5, 1.0, 1.4])

    def test_k_larger_than_any_shard_result(self):
        a = (np.array([[1, 2]], dtype=np.int64), np.array([[0.1, 0.2]]))
        b = (np.array([[3]], dtype=np.int64), np.array([[0.15]]))
        ids, dists = merge_topk_batch([a[0], b[0]], [a[1], b[1]], k=10)
        np.testing.assert_array_equal(ids[0][:3], [1, 3, 2])
        assert (ids[0][3:] == -1).all() and np.isinf(dists[0][3:]).all()

    def test_empty_shard_partial(self):
        empty = np.full((2, 3), -1, dtype=np.int64)
        empty_d = np.full((2, 3), np.inf)
        live = np.array([[4, 5, 6], [7, 8, 9]], dtype=np.int64)
        live_d = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
        ids, dists = merge_topk_batch([empty, live], [empty_d, live_d], k=3)
        np.testing.assert_array_equal(ids, live)
        np.testing.assert_allclose(dists, live_d)

    def test_tombstones_are_filtered(self):
        ids = np.array([[1, 2, 3]], dtype=np.int64)
        d = np.array([[0.1, 0.2, 0.3]])
        got, _ = merge_topk_batch([ids], [d], k=3,
                                  excluded=np.array([2], dtype=np.int64))
        np.testing.assert_array_equal(got[0], [1, 3, -1])

    def test_all_blocks_empty(self):
        ids, dists = merge_topk_batch(
            [np.full((3, 2), -1, dtype=np.int64)], [np.full((3, 2), np.inf)],
            k=4)
        assert (ids == -1).all() and np.isinf(dists).all()

    def test_matches_reference_fuzz(self):
        rng = np.random.default_rng(3)
        for trial in range(25):
            n_blocks = int(rng.integers(1, 5))
            rows = int(rng.integers(1, 6))
            k = int(rng.integers(1, 9))
            blocks_i, blocks_d = [], []
            for _ in range(n_blocks):
                width = int(rng.integers(1, 7))
                ids = rng.integers(-1, 40, size=(rows, width)).astype(np.int64)
                d = np.round(rng.random((rows, width)) * 4, 3)
                d[ids < 0] = np.inf
                blocks_i.append(ids)
                blocks_d.append(d)
            excluded = np.unique(
                rng.integers(0, 40, size=rng.integers(0, 5))).astype(np.int64)
            got_i, got_d = merge_topk_batch(blocks_i, blocks_d, k,
                                            excluded=excluded)
            ref_i, ref_d = _reference_merge(blocks_i, blocks_d, k,
                                            excluded=excluded)
            # Equal-distance ids may legally order either way; compare as
            # (distance, membership) rather than exact id order.
            np.testing.assert_allclose(got_d, ref_d)
            for r in range(rows):
                assert set(got_i[r].tolist()) == set(ref_i[r].tolist())

    def test_single_query_wrapper(self):
        """One query is a one-row block."""
        ids, dists = merge_topk_batch([np.array([[5, 6]])],
                                      [np.array([[0.2, 0.1]])], k=2)
        np.testing.assert_array_equal(ids, [[6, 5]])
        np.testing.assert_allclose(dists, [[0.1, 0.2]])


class TestMergeStats:
    def test_numbers_sum_and_dicts_recurse(self):
        merged = merge_stats([
            {"n": 2, "compressed": {"adc_scored": 10, "rerank_ndc": 3}},
            {"n": 5, "compressed": {"adc_scored": 7, "rerank_ndc": 1}},
        ])
        assert merged["n"] == 7
        assert merged["compressed"] == {"adc_scored": 17, "rerank_ndc": 4}

    def test_bools_and_identity_keys(self):
        merged = merge_stats([
            {"built": True, "shard_id": 0, "pq_sig": "ab", "alive": True},
            {"built": True, "shard_id": 1, "pq_sig": "ab", "alive": False},
        ])
        assert merged["built"] is True and merged["alive"] is False
        assert merged["shard_id"] == [0, 1]   # enumerated, not summed
        assert merged["pq_sig"] == "ab"       # unanimous -> collapsed

    def test_diverging_strings_become_lists(self):
        merged = merge_stats([{"pq_sig": "aa"}, {"pq_sig": "bb"}])
        assert merged["pq_sig"] == ["aa", "bb"]

    def test_merge_every_is_identity_not_sum(self):
        merged = merge_stats([{"serving": {"merge_every": 256}},
                              {"serving": {"merge_every": 256}}])
        assert merged["serving"]["merge_every"] == 256

    def test_missing_keys_merge_over_present(self):
        merged = merge_stats([{"a": 1}, {"a": 2, "b": 4}, {}])
        assert merged == {"a": 3, "b": 4}

    def test_empty(self):
        assert merge_stats([]) == {}
        assert merge_stats([None, "x"]) == {}


class TestPartitioningAndBudget:
    def test_hash_partition_balanced_and_deterministic(self):
        gids = np.arange(1000)
        parts = hash_partition(gids, 4)
        counts = np.bincount(parts, minlength=4)
        assert counts.max() - counts.min() <= 1
        np.testing.assert_array_equal(parts, hash_partition(gids, 4))

    def test_shard_budget_math(self):
        assert shard_budget_ms(100.0) == pytest.approx(85.0)
        assert shard_budget_ms(100.0, merge_reserve=0.5) == pytest.approx(50.0)
        assert shard_budget_ms(0.0) == pytest.approx(0.1)  # floor, not zero


class TestWorkerSpec:
    """A worker's store is exactly the ``StoreConfig`` its spec carries."""

    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(StoreConfig)])
    def test_every_field_reaches_the_shard_store(self, field):
        config = StoreConfig(**store_settings_with(field))
        server = _ShardServer({**config.to_dict(), "shard_id": 0})
        assert server.store.config == config
        server.store.close()

    def test_old_spec_with_tuned_table_still_builds(self):
        """A spec written by an earlier router, carrying the removed
        planner's fitted table, builds its shard store through
        ``StoreConfig.from_dict``; the key is ignored."""
        server = _ShardServer({"dim": DIM, "shard_id": 0,
                               "tuned_config": OLD_TUNED_TABLE})
        assert server.store.config == StoreConfig(dim=DIM)
        server.store.close()

    def test_old_spec_with_policy_keys_still_builds(self):
        """A spec written by an earlier router, carrying the removed
        maintenance policy's two keys, builds its shard store on the fixed
        merge cadence; the keys are ignored."""
        server = _ShardServer({"dim": DIM, "shard_id": 0, "merge_every": 17,
                               "policy": "signal",
                               "policy_config": {"min_traces": 4}})
        assert server.store.config == StoreConfig(dim=DIM, merge_every=17)
        server.store.close()

    def test_zero_beam_width_is_rejected_not_coerced(self):
        with pytest.raises(ValueError, match="beam_width"):
            _ShardServer({"dim": DIM, "shard_id": 0, "beam_width": 0})

    def test_every_field_reaches_every_router_spec(self):
        """A router takes every ``StoreConfig`` field and ships each one;
        specs differ from ``router.config`` only by the per-shard seed."""
        config = StoreConfig(**NONDEFAULT_STORE_SETTINGS)
        with ClusterRouter(n_shards=2, n_replicas=2,
                           **NONDEFAULT_STORE_SETTINGS) as router:
            assert router.config == config
            for s, replicas in enumerate(router.handles):
                for handle in replicas:
                    assert StoreConfig.from_dict(handle.spec) == (
                        dataclasses.replace(config, seed=config.seed + s))

    def test_router_specs_differ_only_by_shard_identity(self, shared_router):
        settings = shared_router.config.to_dict()
        assert (settings["M"], settings["metric"]) == (8, "l2")
        for s, replicas in enumerate(shared_router.handles):
            for r, handle in enumerate(replicas):
                spec = dict(handle.spec)
                assert (spec.pop("shard_id"), spec.pop("replica_id")) == (s, r)
                assert spec.pop("wal_dir")
                assert spec == {**settings, "seed": settings["seed"] + s}


class TestRouter:
    def test_router_matches_partitioned_oracle(self, cluster_data,
                                               shared_router):
        """Bit-equality: router results == per-partition stores + merge."""
        base, queries = cluster_data
        router = shared_router
        k, ef = 10, 40
        got = router.search_batch(queries, k, ef)

        gids = np.arange(base.shape[0], dtype=np.int64)
        parts = hash_partition(gids, router.n_shards)
        blocks_i, blocks_d = [], []
        for s in range(router.n_shards):
            part_gids = gids[parts == s]
            store = VectorStore(dim=DIM, metric="l2", M=8,
                                ef_construction=40, seed=5 + s)
            store.add(base[parts == s])
            store.build()
            results = store.search_batch(queries, k, ef, batch_size=256)
            ids = np.full((queries.shape[0], k), -1, dtype=np.int64)
            d = np.full((queries.shape[0], k), np.inf)
            for i, r in enumerate(results):
                m = min(k, len(r.ids))
                ids[i, :m] = part_gids[r.ids[:m]]
                d[i, :m] = r.distances[:m]
            blocks_i.append(ids)
            blocks_d.append(d)
        oracle_i, oracle_d = merge_topk_batch(blocks_i, blocks_d, k)
        for i, result in enumerate(got):
            valid = oracle_i[i] >= 0
            np.testing.assert_array_equal(result.ids, oracle_i[i][valid])
            np.testing.assert_array_equal(result.distances,
                                          oracle_d[i][valid])
            assert not result.degraded

    def test_k_larger_than_shard_results_end_to_end(self, shared_router,
                                                    cluster_data):
        _, queries = cluster_data
        results = shared_router.search_batch(queries[:4], k=150, ef=160)
        for r in results:
            assert len(r.ids) > 100  # more than any single 100-row shard
            assert len(np.unique(r.ids)) == len(r.ids)
            assert (np.diff(r.distances) >= 0).all()

    def test_search_many_padding(self, shared_router, cluster_data):
        _, queries = cluster_data
        ids, dists = pad_results(
            shared_router.search_batch(queries[:3], k=5, ef=40), 5)
        assert ids.shape == (3, 5) and (ids >= 0).all()
        assert np.isfinite(dists).all()

    def test_add_delete_and_tombstone_filter(self, cluster_data):
        base, queries = cluster_data
        with ClusterRouter(dim=DIM, metric="l2", n_shards=2, M=8,
                           ef_construction=40, seed=1) as router:
            gids = router.load(base[:200])
            assert gids == list(range(200))
            new = router.add(base[200:210])
            assert new == list(range(200, 210))
            first = router.search(queries[0], k=5, ef=40)
            victims = first.ids[:2].tolist()
            router.delete(victims)
            after = router.search_batch(queries, k=5, ef=40)
            for r in after:
                assert not set(victims) & set(r.ids.tolist())

    def test_observe_and_stats_rollup(self, shared_router, cluster_data):
        _, queries = cluster_data
        assert shared_router.observe(queries[0])
        stats = shared_router.stats()
        assert len(stats["shards"]) == shared_router.n_shards
        merged = stats["merged"]
        assert merged["alive"] is True
        assert merged["n_gids"] == 300
        assert stats["router"]["live_replicas"] == shared_router.n_shards

    def test_deadline_degrades_not_raises(self, shared_router, cluster_data):
        _, queries = cluster_data
        results = shared_router.search_batch(queries, k=5, ef=40,
                                             deadline_ms=1e-6)
        assert len(results) == len(queries)
        # best-so-far under an already-blown budget: flagged, never raised
        assert any(r.degraded for r in results)

    def test_dimension_mismatch_raises(self, shared_router):
        with pytest.raises(ValueError, match="dimension"):
            shared_router.add(np.ones((1, DIM + 1), dtype=np.float32))


class TestSharedPQ:
    def test_codebook_shipped_to_every_shard(self, cluster_data):
        base, queries = cluster_data
        with ClusterRouter(dim=DIM, metric="cosine", n_shards=3,
                           compressed=True, pq_m=4, pq_ks=16, rerank=30,
                           M=8, ef_construction=40, seed=2) as router:
            router.load(base)
            stats = router.stats()
            sigs = {s["pq_sig"] for s in stats["shards"]}
            assert len(sigs) == 1 and sigs.pop() != ""
            results = router.search_batch(queries[:8], k=5, ef=40)
            assert all(len(r.ids) == 5 for r in results)
            assert router.adc_scored > 0
            merged = router.stats()["merged"]["compressed"]
            assert merged["adc_scored"] == sum(
                s["compressed"]["adc_scored"]
                for s in router.stats()["shards"])

    def test_respawned_shard_readopts_shared_codebook(self, cluster_data):
        base, _ = cluster_data
        with ClusterRouter(dim=DIM, metric="cosine", n_shards=2,
                           compressed=True, pq_m=4, pq_ks=16,
                           M=8, ef_construction=40, seed=2) as router:
            router.load(base)
            before = {s["pq_sig"] for s in router.stats()["shards"]}
            router.handles[0][0].process.kill()
            router.respawn(0, 0)
            after = {s["pq_sig"] for s in router.stats()["shards"]}
            assert after == before and len(after) == 1

    def test_store_apply_pq_rejects_bad_codebooks(self):
        from repro.quantization.pq import ProductQuantizer
        store = VectorStore(dim=DIM, metric="l2")
        with pytest.raises(ValueError, match="fitted"):
            store.apply_pq(ProductQuantizer(m=4, ks=8))
        rng = np.random.default_rng(0)
        wrong = ProductQuantizer(m=4, ks=8, metric="l2")
        wrong.fit(rng.standard_normal((64, DIM * 2)).astype(np.float32))
        with pytest.raises(ValueError, match="dimension"):
            store.apply_pq(wrong)


class _GatedSearcher:
    """Forwards blocks to a real searcher, recording their sizes; while the
    gate is shut every block stays in flight (on the door's executor)."""

    def __init__(self, inner):
        self.inner = inner
        self.gate = threading.Event()
        self.gate.set()
        self.sizes: list[int] = []

    def search_batch(self, queries, *args, **kwargs):
        self.sizes.append(len(queries))
        assert self.gate.wait(30.0)
        return self.inner.search_batch(queries, *args, **kwargs)


async def _until(condition) -> None:
    """Yield to the loop until ``condition()`` holds (no clock involved: a
    condition that never comes true is a hang the timeout mark catches)."""
    while not condition():
        await asyncio.sleep(0)


# Every door below has a 10 s window, so "waited for the window" shows up
# as this timeout, not as a race against a stopwatch.
@pytest.mark.timeout(8)
class TestFrontDoor:
    def test_coalesces_and_matches_direct_path(self, shared_router,
                                               cluster_data):
        _, queries = cluster_data
        door = FrontDoor(shared_router, window_ms=5.0, max_batch=64,
                         k=5, ef=40)

        async def serve():
            return await asyncio.gather(
                *(door.search(q) for q in queries))

        results = asyncio.run(serve())
        assert door.n_dispatched == len(queries)
        assert door.n_blocks < len(queries)  # actually coalesced
        direct = shared_router.search_batch(queries, k=5, ef=40)
        for got, want in zip(results, direct):
            np.testing.assert_array_equal(got.ids, want.ids)

    def test_lone_arrival_is_dispatched_immediately(self, shared_router,
                                                    cluster_data):
        _, queries = cluster_data
        door = FrontDoor(shared_router, window_ms=10_000.0, max_batch=64,
                         k=5, ef=40)

        async def one():
            result = await door.search(queries[0])
            await door.drain()
            return result

        result = asyncio.run(one())
        assert len(result.ids) == 5 and door.n_blocks == 1

    def test_riders_leave_when_the_block_ahead_resolves(self, shared_router,
                                                        cluster_data):
        _, queries = cluster_data
        searcher = _GatedSearcher(shared_router)
        door = FrontDoor(searcher, window_ms=10_000.0, max_batch=64,
                         k=5, ef=40)

        async def scenario():
            searcher.gate.clear()
            first = asyncio.ensure_future(door.search(queries[0]))
            await _until(lambda: door.stats()["inflight"] == 1)
            riders = [asyncio.ensure_future(door.search(q))
                      for q in queries[1:4]]
            await _until(lambda: door._depth() == 4)
            assert door.n_blocks == 1  # the riders queue behind the block
            searcher.gate.set()
            results = await asyncio.gather(first, *riders)
            await door.drain()
            return results

        results = asyncio.run(scenario())
        assert searcher.sizes == [1, 3]
        direct = shared_router.search_batch(queries[:4], k=5, ef=40)
        for got, want in zip(results, direct):
            np.testing.assert_array_equal(got.ids, want.ids)

    def test_max_batch_dispatches_early(self, shared_router, cluster_data):
        _, queries = cluster_data
        searcher = _GatedSearcher(shared_router)
        door = FrontDoor(searcher, window_ms=10_000.0, max_batch=4,
                         k=5, ef=40)

        async def serve():
            results = await asyncio.gather(*(door.search(q)
                                             for q in queries[:8]))
            await door.drain()
            return results

        results = asyncio.run(serve())
        # The first arrival finds the door idle and goes alone, the next four
        # fill max_batch, and the last three leave when the door goes idle.
        assert len(results) == 8 and door.n_blocks == 3
        assert sorted(searcher.sizes) == [1, 3, 4]
        assert door.stats()["mean_batch"] == pytest.approx(8 / 3)

    def test_cancelled_dispatch_cancels_its_riders(self, shared_router,
                                                   cluster_data):
        """A dispatch future is cancelled when its awaiter is (``drain`` cut
        short at loop teardown).  ``_resolve`` used to call
        ``fut.exception()`` on it, which raises inside the done-callback:
        the loop logged "Exception in callback" and the riders hung."""
        _, queries = cluster_data
        searcher = _GatedSearcher(shared_router)
        door = FrontDoor(searcher, window_ms=10_000.0, k=5, ef=40)
        callback_errors = []

        async def scenario():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: callback_errors.append(context))
            searcher.gate.clear()
            rider = asyncio.ensure_future(door.search(queries[0]))
            await _until(lambda: door._outstanding)
            (dispatch,) = door._outstanding
            dispatch.cancel()
            with pytest.raises(asyncio.CancelledError):
                await rider
            searcher.gate.set()
            await door.drain()

        asyncio.run(scenario())
        assert not callback_errors
        assert door.stats()["inflight"] == 0 and not door._outstanding


@pytest.mark.timeout(120)
class TestChaos:
    def test_replica_masks_shard_death(self, cluster_data):
        base, queries = cluster_data
        with ClusterRouter(dim=DIM, metric="l2", n_shards=2, n_replicas=2,
                           M=8, ef_construction=40, seed=3) as router:
            router.load(base)
            want = [r.ids.copy() for r in router.search_batch(queries, 5, 40)]
            router.handles[0][0].rpc({"op": "arm_faults", "rules": [
                {"point": WORKER_OP_POINT, "action": "kill", "nth": 1}]})
            for _ in range(4):  # round-robin hits the armed replica
                results = router.search_batch(queries, 5, 40)
                assert not any(r.degraded for r in results)
                for got, ids in zip(results, want):
                    np.testing.assert_array_equal(got.ids, ids)
            assert router.live_replicas() == 3
            assert router.n_retries >= 1

    def test_kill_mid_churn_degrade_recover(self, cluster_data, tmp_path):
        """The ISSUE's chaos scenario: kill a shard under churn, survive
        degraded, recover from the shard's own WAL with gap-free seqs."""
        base, queries = cluster_data
        with ClusterRouter(dim=DIM, metric="l2", n_shards=2, n_replicas=1,
                           base_dir=tmp_path, M=8, ef_construction=40,
                           seed=3) as router:
            router.load(base[:280])
            gids = np.arange(280)
            dead_part = 1
            victims = [int(g) for g in gids if g % 2 == 0][:3]  # partition 0

            # Healthy churn, then arm the kill on partition 1's only replica.
            router.delete(victims[:1])
            router.add(base[280:282])
            healthy = router.search_batch(queries, 5, 40)
            assert not any(r.degraded for r in healthy)
            router.handles[dead_part][0].rpc(
                {"op": "arm_faults", "rules": [
                    {"point": WORKER_OP_POINT, "action": "kill", "nth": 1}]})

            # Outage window: searches degrade but stay valid (survivor ids
            # only, sorted distances); no exception ever escapes.
            degraded_seen = 0
            for round_ in range(3):
                results = router.search_batch(queries, 5, 40)
                for r in results:
                    if r.degraded:
                        degraded_seen += 1
                        assert all(int(g) % 2 == 0 for g in r.ids)
                    assert (np.diff(r.distances) >= 0).all()
                # Churn continues against the surviving partition; writes
                # for the dead partition are refused (no ack possible) and
                # buffered for catch-up.
                router.delete([victims[1 + round_ % 2]])
                with pytest.raises(ClusterError, match="no live replica"):
                    router.add(base[282:284])  # gids 282/283 span partitions
            assert degraded_seen > 0
            assert router.live_replicas() == 1

            # Self-recovery from the shard's own WAL: gap-free seqs.
            report = router.respawn(dead_part, 0)
            assert report is not None and report["consistent"] is True
            assert report["errors"] == []
            assert router.live_replicas() == 2

            # Degraded only during the outage: full answers come back and
            # catch-up replay restored the buffered mutations (idempotent
            # per gid, so the refused adds land exactly once).
            results = router.search_batch(queries, 5, 40)
            assert not any(r.degraded for r in results)
            deleted = set(victims[:3][:1] + [victims[1], victims[2]])
            for r in results:
                assert not deleted & set(int(g) for g in r.ids)

    def test_respawn_without_wal_history_reports_inconsistent_error(
            self, cluster_data):
        """Respawn needs the WAL dir; a fresh temp cluster still has one
        per replica, so recovery works even with base_dir=None."""
        base, queries = cluster_data
        with ClusterRouter(dim=DIM, metric="l2", n_shards=2,
                           M=8, ef_construction=40, seed=4) as router:
            router.load(base[:100])
            router.handles[1][0].process.kill()
            report = router.respawn(1, 0)
            assert report["consistent"] is True
            results = router.search_batch(queries[:4], 5, 40)
            assert not any(r.degraded for r in results)
