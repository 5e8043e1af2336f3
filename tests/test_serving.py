"""Epoch-based serving layer: pins, overlay, scheduler, store wiring.

The load-bearing guarantees under test:

- **Epoch consistency** — a search against a pinned epoch returns
  bit-identical results no matter how many inserts/deletes/fixes land in the
  overlay after the pin (property-tested over random interleaves).
- **Tombstone safety** — a deleted id never surfaces in post-deletion
  results, pinned-before-deletion views still (correctly) serve it.
- **No search builds a CSR** — the O(E) freeze runs only when an epoch is
  cut (build, scheduler merges, bulk boundaries), never on the query path.
"""

import contextlib
import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import VectorStore, obs
from repro.graphs import native
from repro.graphs.adjacency import AdjacencyStore, ObservedTombstones
from repro.graphs.search import greedy_search
from repro.serving import DeltaOverlay, EpochManager, MaintenanceScheduler
from repro.utils import parallel
from tests.conftest import reference_executor, thread_budget

pytestmark = pytest.mark.timeout(120)

DIM = 16
N_BASE = 150
_rng = np.random.default_rng(11)
BASE = _rng.standard_normal((N_BASE, DIM)).astype(np.float32)
EXTRA = _rng.standard_normal((80, DIM)).astype(np.float32)
QUERIES = _rng.standard_normal((12, DIM)).astype(np.float32)


def make_store(merge_every=50, mode="inline"):
    store = VectorStore(dim=DIM, metric="l2", M=8, ef_construction=40,
                        scheduler_mode=mode, merge_every=merge_every)
    store.add(BASE)
    store.build()
    return store


def pinned_search(store, pin, query, k=10, ef=30):
    view = pin.view
    return greedy_search(store.dc, view, [pin.epoch.entry], query,
                         k=k, ef=ef, excluded=view.excluded())


class TestDeltaOverlay:
    def test_publish_after_append_sequencing(self):
        overlay = DeltaOverlay(base_n_nodes=10)
        assert overlay.seq == 0
        overlay.record_node(3, np.array([1, 2], dtype=np.int64))
        overlay.record_node(3, np.array([1, 2, 5], dtype=np.int64))
        overlay.record_tombstone(7)
        assert overlay.seq == 3
        # Each pinned seq resolves the exact prefix.
        assert overlay.resolve(3, 0) is None
        assert overlay.resolve(3, 1).tolist() == [1, 2]
        assert overlay.resolve(3, 2).tolist() == [1, 2, 5]
        assert overlay.resolve(3, 99).tolist() == [1, 2, 5]
        assert overlay.tombstones_at(2) == set()
        assert overlay.tombstones_at(3) == {7}

    def test_untouched_node_resolves_none(self):
        overlay = DeltaOverlay(base_n_nodes=10)
        overlay.record_node(1, np.array([2], dtype=np.int64))
        assert overlay.resolve(0, overlay.seq) is None


class TestObservedTombstones:
    def test_additions_logged_to_overlay(self):
        store = AdjacencyStore(8)
        overlay = DeltaOverlay(8)
        store.attach_overlay(overlay)
        assert isinstance(store.tombstones, ObservedTombstones)
        store.tombstones.add(3)
        store.tombstones.update({3, 5})  # 3 is a duplicate — logged once
        assert overlay.tombstones_at(overlay.seq) == {3, 5}
        assert overlay.seq == 2

    def test_detach_stops_logging(self):
        store = AdjacencyStore(8)
        overlay = DeltaOverlay(8)
        store.attach_overlay(overlay)
        store.detach_overlay()
        store.tombstones.add(2)
        store.add_base_edge(0, 1)
        assert overlay.seq == 0


class TestEpochView:
    def test_overlay_wins_over_csr(self):
        adjacency = AdjacencyStore(4)
        adjacency.add_base_edge(0, 1)
        manager = EpochManager(adjacency, entry=0)
        pin0 = manager.pin()
        adjacency.add_base_edge(0, 2)
        pin1 = manager.pin()
        assert pin0.view.neighbors(0).tolist() == [1]
        assert pin1.view.neighbors(0).tolist() == [1, 2]
        # Nodes beyond the epoch horizon read empty until they get edges.
        adjacency.grow(1)
        pin2 = manager.pin()
        assert pin2.view.neighbors(4).size == 0
        adjacency.set_base_neighbors(4, [0])
        assert manager.pin().view.neighbors(4).tolist() == [0]


class TestEpochManager:
    def test_pin_counting_and_release_idempotent(self):
        adjacency = AdjacencyStore(3)
        manager = EpochManager(adjacency, entry=0)
        pin = manager.pin()
        with manager.pin():
            assert manager.active_pins() == 2
        pin.release()
        pin.release()
        assert manager.active_pins() == 0

    def test_cut_swaps_epoch_and_overlay(self):
        adjacency = AdjacencyStore(3)
        manager = EpochManager(adjacency, entry=0)
        adjacency.add_base_edge(0, 1)
        assert manager.overlay.seq == 1
        old = manager.pin()
        manager.cut(entry=0)
        assert manager.overlay.seq == 0  # fresh overlay
        assert manager.current.epoch_id == old.epoch.epoch_id + 1
        # The old pin still reads through its (now retired) overlay.
        assert old.view.neighbors(0).tolist() == [1]


class TestServingStore:
    def test_search_results_match_live_graph(self):
        store = make_store()
        live = store._fixer
        for q in QUERIES:
            served = [i for i, _, _ in store.search(q, k=5, ef=30)]
            direct = live.search(q, k=5, ef=30).ids.tolist()
            assert served == direct

    def test_batch_matches_sequential_serving(self):
        store = make_store()
        batch = store.search_batch(QUERIES, k=5, ef=30, batch_size=4)
        for q, res in zip(QUERIES, batch):
            seq = [i for i, _, _ in store.search(q, k=5, ef=30)]
            assert res.ids.tolist() == seq

    @pytest.mark.parametrize("compressed", [False, True],
                             ids=["exact", "compressed"])
    def test_default_ef_matches_explicit(self, compressed):
        """One ``ef`` rule: an omitted ``ef`` is ``max(k, 10)``, on the
        scalar and the block path alike."""
        store = VectorStore(dim=DIM, metric="l2", M=8, ef_construction=40,
                            compressed=compressed, pq_ks=16)
        store.add(BASE)
        store.build()
        searcher = store.searcher
        for k in (5, 10, 12):
            ef = max(k, 10)
            defaulted = searcher.search_batch(QUERIES, k, batch_size=4)
            explicit = searcher.search_batch(QUERIES, k, ef, batch_size=4)
            for d, e in zip(defaulted, explicit):
                np.testing.assert_array_equal(d.ids, e.ids)
                np.testing.assert_array_equal(d.distances, e.distances)
            for q in QUERIES:
                d, e = searcher.search(q, k), searcher.search(q, k, ef=ef)
                np.testing.assert_array_equal(d.ids, e.ids)
                np.testing.assert_array_equal(d.distances, e.distances)

    def test_single_query_explicit_ef_identical(self):
        """A lone query at an explicit ``ef`` is its row of a block at that
        ``ef``, distances included."""
        store = make_store()
        searcher = store.searcher
        block = searcher.search_batch(QUERIES, 10, 25, batch_size=4)
        for q, row in zip(QUERIES, block):
            lone = searcher.search(q, 10, ef=25)
            np.testing.assert_array_equal(lone.ids, row.ids)
            np.testing.assert_array_equal(lone.distances, row.distances)

    def test_deleted_id_never_surfaces(self):
        store = make_store()
        q = QUERIES[0]
        victim = store.search(q, k=1, ef=30)[0][0]
        store.delete([victim])
        for ef in (10, 30, 60):
            assert victim not in [i for i, _, _ in store.search(q, k=10, ef=ef)]
        for res in store.search_batch(QUERIES, k=10, ef=30):
            assert victim not in res.ids.tolist()

    @pytest.mark.parametrize("executor", ["native", "reference"])
    def test_lone_compressed_search_reads_the_live_exclusion_set(
            self, executor, monkeypatch):
        """Ids barred after the search pinned its view (a delete landing
        mid-search, stood in for by the live exclusion set alone) never
        surface from a lone compressed search, as from a block."""
        if executor == "native" and not native.enabled():
            pytest.skip(f"no native executor: {native.status()['reason']}")
        if executor == "reference":
            monkeypatch.setattr(native, "_LIB", None)
        store = VectorStore(dim=DIM, metric="l2", M=8, ef_construction=40,
                            compressed=True, pq_ks=16)
        store.add(BASE)
        store.build()
        searcher, q = store.searcher, QUERIES[0]
        first = searcher.search(q, 10, ef=30).ids.tolist()
        late = {first[0], first[3]}
        adjacency = store._fixer.adjacency
        live = adjacency.excluded_ids
        monkeypatch.setattr(adjacency, "excluded_ids",
                            lambda: (live() or set()) | late)
        result = searcher.search(q, 10, ef=30)
        assert result.ids.size == 10
        assert not set(result.ids.tolist()) & late

    def test_insert_becomes_visible(self):
        store = make_store()
        new_id = store.add(EXTRA[:1])[0]
        res = store.search(EXTRA[0], k=1, ef=40)
        assert res[0][0] == new_id

    def test_no_search_freezes(self, monkeypatch):
        """After inserts and deletes, neither a lone search nor a
        multi-block batch can build a CSR, on an exact or a compressed
        store: ``freeze`` raises if called."""
        stores = []
        for compressed in (False, True):
            store = VectorStore(dim=DIM, metric="l2", M=8, ef_construction=40,
                                merge_every=10_000, compressed=compressed,
                                pq_ks=16)
            store.add(BASE)
            store.build()
            store.add(EXTRA[:5])
            store.delete([0])
            stores.append(store)

        def no_freeze(self):
            raise AssertionError("a search built a CSR snapshot")
        monkeypatch.setattr(AdjacencyStore, "freeze", no_freeze)
        for store in stores:
            batch = store.search_batch(QUERIES, k=5, ef=30, batch_size=4)
            for q, row in zip(QUERIES, batch):
                lone = [i for i, _, _ in store.search(q, k=5, ef=30)]
                assert len(lone) == 5 and 0 not in lone
                assert 0 not in row.ids.tolist()
            store.close()

    def test_merge_threshold_cuts_epoch(self):
        store = make_store(merge_every=5)
        epoch0 = store.epochs.current.epoch_id
        store.add(EXTRA[:8])  # dozens of edge mutations > threshold
        assert store.scheduler.n_merges >= 1
        assert store.epochs.current.epoch_id > epoch0

    def test_observe_runs_online_repair(self):
        store = make_store()
        store.observe(QUERIES[0])
        assert store.scheduler.n_repairs == 1
        assert store.scheduler.stats()["queued"] == 0

    def test_fit_history_is_bulk_and_cuts_epoch(self):
        store = make_store()
        epoch0 = store.epochs.current.epoch_id
        store.fit_history(QUERIES)
        assert store.epochs.current.epoch_id > epoch0
        assert store.epochs.overlay.seq == 0

    def test_save_load_roundtrip_reattaches_serving(self, tmp_path):
        store = make_store()
        store.delete([5])
        path = store.save(tmp_path / "index.npz")
        loaded = VectorStore.load(path)
        assert loaded.epochs is not None
        q = QUERIES[0]
        ids = [i for i, _, _ in loaded.search(q, k=10, ef=30)]
        assert ids and 5 not in ids

    @pytest.mark.parametrize("compressed", [False, True],
                             ids=["exact", "compressed"])
    def test_one_search_emits_one_filled_trace(self, compressed):
        """Either route: one ``search`` records exactly one QueryTrace in
        the ring, stamped with its pin."""
        store = VectorStore(dim=DIM, metric="l2", M=8, ef_construction=40,
                            compressed=compressed, pq_ks=16)
        store.add(BASE)
        store.build()
        obs.reset()
        obs.enable()
        try:
            recorded0 = obs.TRACES.n_recorded
            store.searcher.search(QUERIES[0], k=5, ef=30)
            assert obs.TRACES.n_recorded == recorded0 + 1
            [trace] = obs.TRACES.recent(1)
        finally:
            obs.disable()
            obs.reset()
        assert trace.epoch_id == store.epochs.current.epoch_id
        assert trace.overlay_seq == store.epochs.overlay.seq
        assert trace.pin_seconds > 0.0
        assert (trace.k, trace.ef, trace.degraded) == (5, 30, False)

    def test_stats_expose_serving_block(self):
        store = make_store()
        block = store.stats()["serving"]
        assert block["mode"] == "inline"
        assert block["epoch_epoch_id"] >= 1


class TestCadenceRule:
    """The scheduler's one maintenance rule, over random verb sequences:
    merge once the overlay holds ``merge_every`` ops, admit every
    ``observe()`` the queue can hold and drain the whole queue, and let a
    mutation-triggered drain merge only."""

    @settings(max_examples=25, deadline=None)
    @given(ops=st.lists(st.sampled_from(
               ["add", "delete", "observe", "backlog", "search"]),
               min_size=1, max_size=30),
           seed=st.integers(0, 2**16))
    def test_merge_at_cadence_admit_to_capacity(self, ops, seed):
        merge_every = 4
        store = make_store(merge_every=merge_every)
        scheduler = store.scheduler
        scheduler.queue_limit = 3  # small enough for the backlog to fill
        rng = np.random.default_rng(seed)
        live = list(range(N_BASE))
        try:
            for op in ops:
                vec = rng.standard_normal(DIM).astype(np.float32)
                queued = len(scheduler._queue)
                repairs, shed = scheduler.n_repairs, scheduler.n_shed
                if op == "add":
                    live.extend(store.add(vec[None, :]))
                elif op == "delete":
                    store.delete([live.pop(int(rng.integers(len(live))))])
                elif op == "observe":
                    admitted = store.observe(vec)
                    assert admitted == (queued < scheduler.queue_limit)
                    if admitted:  # inline: the whole queue drains
                        assert len(scheduler._queue) == 0
                        assert scheduler.n_repairs == repairs + queued + 1
                    else:
                        assert scheduler.n_shed == shed + 1
                        assert scheduler.n_repairs == repairs
                elif op == "backlog":
                    # A repair still waiting, as one does in thread mode
                    # until the worker gets to it.
                    with scheduler._idle:
                        scheduler._queue.append(vec)
                else:
                    store.search(vec, k=5, ef=20)
                if op in ("add", "delete"):
                    assert scheduler.n_repairs == repairs
                    assert len(scheduler._queue) == queued
                if op != "search":
                    assert store.epochs.overlay.n_ops < merge_every
        finally:
            store.close()


class TestOwnNdcTelemetry:
    """Per-search NDC telemetry counts the search's own scorings.

    ``dc.ndc`` is shared by every reader of the store, so a delta of it
    taken around one search also bills what other threads scored
    meanwhile.  The traversal is wrapped here so that another caller's
    scorings land on ``dc.ndc`` in the middle of every search.
    """

    NOISE = 10_000

    @pytest.fixture(params=["native", "reference"])
    def noisy(self, request, monkeypatch):
        """``make(compressed)`` builds a store whose searches each see
        ``NOISE`` foreign scorings, with telemetry on."""
        from repro.graphs import search as search_mod
        from repro.quantization import searcher as pq_searcher

        if request.param == "native" and not native.enabled():
            pytest.skip(f"no native executor: {native.status()['reason']}")
        if request.param == "reference":
            monkeypatch.setattr(native, "_LIB", None)
        stores = []

        def make(compressed=False):
            store = VectorStore(dim=DIM, metric="l2", M=8,
                                ef_construction=40, compressed=compressed,
                                pq_ks=16)
            store.add(BASE)
            store.build()
            stores.append(store)
            obs.reset()  # forget the build's own searches
            return store

        real = search_mod.native_search

        def traverse(*args, **kwargs):
            for store in stores:
                store.dc.ndc += self.NOISE  # another reader's scorings
            return real(*args, **kwargs)

        monkeypatch.setattr(search_mod, "native_search", traverse)
        monkeypatch.setattr(pq_searcher, "native_search", traverse)
        obs.enable()
        try:
            yield make
        finally:
            obs.disable()
            obs.reset()

    @pytest.mark.parametrize("compressed", [False, True],
                             ids=["exact", "compressed"])
    def test_trace_records_the_search_own_ndc(self, noisy, compressed):
        store = noisy(compressed)
        ndc0, rerank0 = store.dc.ndc, store.searcher.rerank_ndc
        result = store.searcher.search(QUERIES[0], k=5, ef=30)
        [trace] = obs.TRACES.recent(1)
        # Exact scorings of this search: the traversal's on the exact
        # route, the re-rank's on the compressed one.
        own = (store.searcher.rerank_ndc - rerank0 if compressed
               else result.ndc)
        assert 0 < trace.ndc == own < self.NOISE
        assert store.dc.ndc - ndc0 >= own + self.NOISE  # the noise landed

    def test_search_histogram_records_the_search_own_ndc(self, noisy):
        """A lone served search is a block of one."""
        store = noisy()
        result = store.searcher.search(QUERIES[0], k=5, ef=30)
        histogram = obs.OBS.histogram("batch_block_ndc")
        assert (histogram.count, histogram.sum) == (1, result.ndc)
        assert 0 < result.ndc < self.NOISE

    def test_block_histogram_records_the_block_own_ndc(self, noisy):
        store = noisy()
        results = store.search_batch(QUERIES, k=5, ef=30, batch_size=4)
        histogram = obs.OBS.histogram("batch_block_ndc")
        assert histogram.count == 3  # 12 queries in blocks of 4
        assert histogram.sum == sum(r.ndc for r in results)
        assert 0 < histogram.sum < self.NOISE

    def test_repair_preprocessing_counts_its_own_ndc(self, noisy):
        store = noisy()  # approximate preprocessing, inline repairs
        fixer = store._fixer
        before, ndc0 = fixer.preprocess_ndc, store.dc.ndc
        assert store.observe(QUERIES[0])
        own = fixer.preprocess_ndc - before
        assert 0 < own < self.NOISE
        assert store.dc.ndc - ndc0 >= own + self.NOISE  # the noise landed


class TestPinnedConsistency:
    """Tentpole property: pinned results are immutable under overlay churn."""

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.sampled_from(["insert", "delete", "observe"]),
                    min_size=1, max_size=12),
           st.randoms(use_true_random=False))
    def test_pinned_results_bit_identical_under_churn(self, ops, rnd):
        store = make_store(merge_every=15)
        pin = store.epochs.pin()
        reference = [pinned_search(store, pin, q) for q in QUERIES[:4]]

        deleted: list[int] = []
        extra_cursor = 0
        for op in ops:
            if op == "insert" and extra_cursor < len(EXTRA):
                store.add(EXTRA[extra_cursor:extra_cursor + 1])
                extra_cursor += 1
            elif op == "delete":
                alive = [i for i in range(N_BASE) if i not in deleted]
                victim = rnd.choice(alive)
                store.delete([victim])
                deleted.append(victim)
            else:
                store.observe(QUERIES[rnd.randrange(len(QUERIES))])
            # The pinned view must replay the exact pre-churn results after
            # every single mutation, including across epoch merges.
            for q, ref in zip(QUERIES[:4], reference):
                res = pinned_search(store, pin, q)
                np.testing.assert_array_equal(res.ids, ref.ids)
                np.testing.assert_array_equal(res.distances, ref.distances)

        # And the live store never surfaces a tombstoned id.
        for q in QUERIES:
            served = [i for i, _, _ in store.search(q, k=10, ef=40)]
            assert not set(served) & set(deleted)
        pin.release()


class TestConcurrentReaders:
    """"Any number of readers, no reader locks" (module docstring of
    ``repro.serving``): whatever a search writes while it runs is the
    calling thread's own."""

    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("compressed", [False, True],
                             ids=["exact", "compressed"])
    @pytest.mark.parametrize("executor", ["native", "reference"])
    def test_search_batch_from_many_threads(self, executor, compressed):
        if executor == "native" and not native.enabled():
            pytest.skip(f"no native executor: {native.status()['reason']}")
        rng = np.random.default_rng(3)
        store = VectorStore(dim=DIM, metric="l2", M=8, ef_construction=40,
                            compressed=compressed, rerank=40)
        store.add(rng.standard_normal((600, DIM)).astype(np.float32))
        store.build()
        queries = rng.standard_normal((128, DIM)).astype(np.float32)
        n_threads, n_rounds = 4, 6
        errors: list[Exception] = []
        answers: list[list[np.ndarray]] = [[] for _ in range(n_threads)]

        def batch_ids():
            return np.vstack([r.ids for r in store.search_batch(
                queries, k=10, ef=40, batch_size=32)])

        def reader(slot):
            try:
                for _ in range(n_rounds):
                    answers[slot].append(batch_ids())
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        with (contextlib.nullcontext if executor == "native"
              else reference_executor)():
            want = batch_ids()
            # The reference loop only yields the GIL between bytecodes:
            # switch often enough that two blocks really interleave.
            sys.setswitchinterval(1e-5)
            try:
                threads = [threading.Thread(target=reader, args=(slot,))
                           for slot in range(n_threads)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=90)
            finally:
                sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        wrong = sum(int((got != want).any(axis=1).sum())
                    for rows in answers for got in rows)
        assert wrong == 0, f"{wrong} of {n_threads * n_rounds * 128} rows"
        assert all(len(rows) == n_rounds for rows in answers)
        assert store.epochs.active_pins() == 0
        store.close()


def executor_context(executor):
    if executor == "native" and not native.enabled():
        pytest.skip(f"no native executor: {native.status()['reason']}")
    return (contextlib.nullcontext if executor == "native"
            else reference_executor)()


def counters(store):
    searcher = store.searcher
    return np.array([searcher.n_degraded, searcher.adc_scored,
                     searcher.rerank_ndc, store.dc.ndc,
                     store.adc.ndc if store.adc is not None else 0])


class TestBlocksAcrossCores:
    """``search_batch`` runs its blocks on the block pool: the answers and
    the counters are the serial run's, whatever the thread budget."""

    @pytest.fixture(scope="class", params=[False, True],
                    ids=["exact", "compressed"])
    def store(self, request):
        rng = np.random.default_rng(5)
        store = VectorStore(dim=DIM, metric="l2", M=8, ef_construction=40,
                            compressed=request.param, rerank=40)
        store.add(rng.standard_normal((600, DIM)).astype(np.float32))
        store.build()
        yield store
        store.close()

    QUERIES = np.random.default_rng(6).standard_normal(
        (150, DIM)).astype(np.float32)

    @pytest.mark.parametrize("executor", ["native", "reference"])
    def test_answers_and_counters_equal_at_any_budget(self, store, executor):
        runs = {}
        interval = sys.getswitchinterval()
        with executor_context(executor):
            # Switch often, so a lost update of a shared counter would show.
            sys.setswitchinterval(1e-5)
            try:
                for budget in (1, 2, 4):
                    with thread_budget(budget):
                        before = counters(store)
                        results = store.search_batch(self.QUERIES, k=10,
                                                     ef=40, batch_size=16)
                        runs[budget] = (results, counters(store) - before)
                        assert (parallel._POOL is None) == (budget == 1)
            finally:
                sys.setswitchinterval(interval)
        serial, serial_counts = runs[1]
        assert len(serial) == len(self.QUERIES)
        assert {r.executor for r in serial} == {executor}
        for budget in (2, 4):
            results, counts = runs[budget]
            for want, got in zip(serial, results, strict=True):
                np.testing.assert_array_equal(got.ids, want.ids)
                np.testing.assert_array_equal(got.distances, want.distances)
                assert (got.ndc, got.degraded, got.executor) == (
                    want.ndc, want.degraded, want.executor)
            np.testing.assert_array_equal(counts, serial_counts)
        n_degraded, adc_scored, rerank_ndc, dc_ndc, adc_ndc = serial_counts
        assert n_degraded == 0
        if store.adc is None:
            assert dc_ndc == sum(r.ndc for r in serial)
        else:
            assert adc_scored == adc_ndc == sum(r.ndc for r in serial)
            assert 0 < rerank_ndc == dc_ndc

    def test_deadline_batch_runs_in_order_on_the_caller(self, store,
                                                        monkeypatch):
        from repro.graphs import search as search_mod
        from repro.quantization import searcher as pq_searcher

        real = search_mod.native_search
        threads = []

        def slow(*args, **kwargs):  # every block spends 2 ms first
            threads.append(threading.get_ident())
            time.sleep(0.002)
            return real(*args, **kwargs)

        monkeypatch.setattr(search_mod, "native_search", slow)
        monkeypatch.setattr(pq_searcher, "native_search", slow)
        with thread_budget(2):
            for deadline_ms in (0.0, 3.0, 7.0, 1e6):
                threads.clear()
                results = store.search_batch(self.QUERIES[:48], k=10, ef=40,
                                             batch_size=8,
                                             deadline_ms=deadline_ms)
                flags = [r.degraded for r in results]
                # Degraded is monotone: once a row is cut, so is every
                # later one.
                assert flags == sorted(flags), (deadline_ms, flags)
                assert set(threads) == {threading.get_ident()}
                assert parallel._POOL is None
        assert not any(flags)  # the generous budget cut nothing

    def test_block_error_propagates_and_pins_are_released(self, store,
                                                          monkeypatch):
        from repro.graphs import search as search_mod
        from repro.quantization import searcher as pq_searcher

        want = [r.ids for r in store.search_batch(self.QUERIES, k=10, ef=40,
                                                  batch_size=16)]
        real = search_mod.native_search
        calls = []
        lock = threading.Lock()

        def failing(*args, **kwargs):
            with lock:
                calls.append(None)
                third = len(calls) == 3
            if third:
                raise RuntimeError("block failed")
            return real(*args, **kwargs)

        with thread_budget(2):
            monkeypatch.setattr(search_mod, "native_search", failing)
            monkeypatch.setattr(pq_searcher, "native_search", failing)
            with pytest.raises(RuntimeError, match="block failed"):
                store.search_batch(self.QUERIES, k=10, ef=40, batch_size=16)
            assert store.epochs.active_pins() == 0
            monkeypatch.undo()
            got = [r.ids for r in store.search_batch(self.QUERIES, k=10,
                                                     ef=40, batch_size=16)]
        for a, b in zip(want, got, strict=True):
            np.testing.assert_array_equal(a, b)
        assert store.epochs.active_pins() == 0

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_searches_on_one_thread(self, store):
        with thread_budget(2):
            want = np.vstack([r.ids for r in store.search_batch(
                self.QUERIES, k=10, ef=40, batch_size=16)])
            assert parallel._POOL is not None
            with warnings.catch_warnings():
                # Python 3.12+ warns about forking a multi-threaded process.
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
            if pid == 0:  # the child: report through the exit status only
                code = 1
                try:
                    results = store.search_batch(self.QUERIES, k=10, ef=40,
                                                 batch_size=16)
                    got = np.vstack([r.ids for r in results])
                    if parallel._POOL is None and parallel._THREADS == 1:
                        code = 0 if np.array_equal(got, want) else 2
                    else:
                        code = 3
                finally:
                    os._exit(code)
            deadline = time.monotonic() + 60
            while True:
                done, status = os.waitpid(pid, os.WNOHANG)
                if done:
                    break
                if time.monotonic() > deadline:
                    os.kill(pid, 9)
                    os.waitpid(pid, 0)
                    pytest.fail("the forked child's search_batch hung")
                time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_codes_never_shrink_under_concurrent_inserts(self):
        if not native.enabled():
            pytest.skip(f"no native executor: {native.status()['reason']}")
        rng = np.random.default_rng(8)
        store = VectorStore(dim=DIM, metric="l2", M=8, ef_construction=40,
                            compressed=True, rerank=40, pq_ks=16)
        store.add(rng.standard_normal((300, DIM)).astype(np.float32))
        store.build()
        extra = rng.standard_normal((120, DIM)).astype(np.float32)
        adc, stop = store.adc, threading.Event()
        sizes, errors = [], []

        def writer():
            try:
                for row in extra:
                    store.add(row[None])
            except Exception as exc:
                errors.append(exc)
            finally:
                stop.set()

        def watcher():
            while not stop.is_set():
                sizes.append(adc.codes.shape[0])

        obs.reset()
        obs.enable()
        try:
            with thread_budget(4):
                threads = [threading.Thread(target=writer),
                           threading.Thread(target=watcher)]
                for thread in threads:
                    thread.start()
                n_batches = 0
                while not stop.is_set() or n_batches < 3:
                    results = store.search_batch(self.QUERIES[:64], k=10,
                                                 ef=40, batch_size=8)
                    assert {r.executor for r in results} == {"native"}
                    n_batches += 1
                for thread in threads:
                    thread.join(timeout=60)
            fallbacks = obs.OBS.counter("search_native_fallbacks").value
        finally:
            obs.disable()
            obs.reset()
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert fallbacks == 0
        assert sizes == sorted(sizes)
        assert adc.codes.shape[0] == len(store) == 420
        store.close()


class TestThreadScheduler:
    @pytest.mark.timeout(60)
    def test_background_worker_drains_and_merges(self):
        store = make_store(merge_every=10, mode="thread")
        try:
            store.observe(QUERIES[0])
            store.add(EXTRA[:4])
            assert store.scheduler.flush(timeout=30)
            assert store.scheduler.n_repairs == 1
            assert store.scheduler.n_merges >= 1
            # Serving keeps working while the worker runs.
            ids = [i for i, _, _ in store.search(QUERIES[1], k=5, ef=30)]
            assert len(ids) == 5
        finally:
            store.scheduler.stop()

    @pytest.mark.timeout(60)
    def test_stop_is_idempotent(self):
        store = make_store(mode="thread")
        store.scheduler.stop()
        store.scheduler.stop()

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            MaintenanceScheduler(None, None, mode="eager")

    def test_invalid_merge_every_rejected(self):
        with pytest.raises(ValueError, match="merge_every"):
            MaintenanceScheduler(None, None, merge_every=0)


class _PoisonOnce:
    """Fixer proxy whose first fix_query raises, then delegates."""

    def __init__(self, fixer):
        self._fixer = fixer
        self.raised = False

    def __getattr__(self, name):
        return getattr(self._fixer, name)

    def fix_query(self, query):
        if not self.raised:
            self.raised = True
            raise RuntimeError("poisoned repair")
        return self._fixer.fix_query(query)


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


class TestWorkerResilience:
    """A poisoned repair must not silently kill background maintenance."""

    @pytest.mark.timeout(60)
    def test_worker_survives_poisoned_repair(self):
        store = make_store(mode="thread")
        scheduler = store.scheduler
        try:
            scheduler.fixer = _PoisonOnce(scheduler.fixer)
            store.observe(QUERIES[0])
            assert scheduler.flush(timeout=30)
            assert _wait_for(lambda: scheduler.n_worker_errors == 1)
            stats = scheduler.stats()
            assert stats["worker_errors"] == 1
            assert "poisoned repair" in stats["worker_last_error"]
            assert stats["worker_alive"] is True
            assert stats["worker_heartbeat_age_seconds"] < 30
            # The worker keeps draining: the next repair goes through.
            store.observe(QUERIES[1])
            assert scheduler.flush(timeout=30)
            assert _wait_for(lambda: scheduler.n_repairs == 1)
            # Serving never blinked.
            assert len(store.search(QUERIES[2], k=5, ef=30)) == 5
        finally:
            scheduler.stop()

    def test_inline_mode_propagates_repair_error(self):
        """Inline callers see the failure directly — no swallowing there."""
        store = make_store(mode="inline")
        store.scheduler.fixer = _PoisonOnce(store.scheduler.fixer)
        with pytest.raises(RuntimeError, match="poisoned repair"):
            store.observe(QUERIES[0])
        assert store.scheduler.stats()["worker_alive"] is True

    def test_worker_alive_false_after_stop(self):
        store = make_store(mode="thread")
        assert store.scheduler.worker_alive()
        store.scheduler.stop()
        assert not store.scheduler.worker_alive()


class TestBulkAbortSafety:
    """A failing bulk body must not publish a half-built graph."""

    def test_exception_propagates_and_nothing_publishes(self):
        store = make_store()
        scheduler = store.scheduler
        epoch_before = scheduler.manager.current.epoch_id
        merges_before = scheduler.n_merges
        before = [store.search(q, k=5, ef=30) for q in QUERIES[:3]]
        with pytest.raises(RuntimeError, match="bulk body died"):
            with scheduler.bulk():
                raise RuntimeError("bulk body died")
        assert scheduler.manager.current.epoch_id == epoch_before
        assert scheduler.n_merges == merges_before
        assert scheduler.n_bulk_aborts == 1
        assert scheduler.stats()["bulk_aborts"] == 1
        # The pre-bulk epoch keeps serving bit-identical results.
        after = [store.search(q, k=5, ef=30) for q in QUERIES[:3]]
        assert after == before

    def test_partial_bulk_stays_invisible_until_next_cut(self):
        store = make_store(merge_every=10_000)
        scheduler = store.scheduler
        with pytest.raises(RuntimeError, match="died midway"):
            with scheduler.bulk():
                self.partial_id = store.add(EXTRA[:1])[0]
                raise RuntimeError("died midway")
        # The insert landed in the live graph while logging was suspended,
        # so serving (pre-bulk epoch + resumed overlay) must not see it...
        ids = [i for i, _, _ in store.search(EXTRA[0], k=3, ef=40)]
        assert self.partial_id not in ids
        # ...until a deliberate cut folds the live graph in.
        scheduler.merge_now()
        res = store.search(EXTRA[0], k=1, ef=40)
        assert res[0][0] == self.partial_id

    def test_overlay_logging_resumes_after_abort(self):
        store = make_store(merge_every=10_000)
        scheduler = store.scheduler
        with pytest.raises(RuntimeError):
            with scheduler.bulk():
                raise RuntimeError("boom")
        # Post-abort mutations go through the re-attached overlay and are
        # immediately visible — no epoch cut required.
        epoch_before = scheduler.manager.current.epoch_id
        new_id = store.add(EXTRA[1:2])[0]
        res = store.search(EXTRA[1], k=1, ef=40)
        assert res[0][0] == new_id
        assert scheduler.manager.current.epoch_id == epoch_before

    def test_success_path_still_cuts(self):
        store = make_store()
        scheduler = store.scheduler
        epoch_before = scheduler.manager.current.epoch_id
        with scheduler.bulk():
            pass
        assert scheduler.manager.current.epoch_id == epoch_before + 1
        assert scheduler.n_bulk_aborts == 0
