"""Observability layer: registry primitives, traces, exposition, overhead.

The contract under test:

- **Disabled is (almost) free** — with the registry off, every instrument
  call is one attribute load and allocates nothing (tracemalloc-verified).
- **Exposition is dual and valid** — Prometheus text follows the
  ``# HELP``/``# TYPE`` + cumulative-``le`` rules; the JSON snapshot always
  serializes.
- **Handles survive reset()** — module-level instruments cached at import
  time keep reporting after test/benchmark arms zero the registry.
"""

import json
import pathlib
import re
import threading
import tracemalloc

import numpy as np
import pytest

from repro import obs
from repro.obs import MetricsRegistry, QueryTrace, TraceLog

REPO = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture
def reg():
    return MetricsRegistry(namespace="t", enabled=True)


@pytest.fixture
def global_obs():
    """Enable the process-wide registry for a test, then restore it."""
    obs.reset()
    obs.enable()
    yield obs.OBS
    obs.disable()
    obs.reset()


class TestCounter:
    def test_inc_and_default_step(self, reg):
        c = reg.counter("reqs", "requests")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_disabled_is_noop(self):
        r = MetricsRegistry(enabled=False)
        c = r.counter("reqs")
        c.inc(100)
        assert c.value == 0

    def test_toggle_mid_stream(self, reg):
        c = reg.counter("reqs")
        c.inc()
        reg.disable()
        c.inc()
        reg.enable()
        c.inc()
        assert c.value == 2


class TestGauge:
    def test_set_inc_dec(self, reg):
        g = reg.gauge("depth")
        g.set(7)
        g.inc(2)
        g.dec()
        assert g.read() == 8

    def test_callback_evaluated_on_read(self, reg):
        state = {"v": 1}
        g = reg.gauge_fn("live", lambda: state["v"])
        assert g.read() == 1.0
        state["v"] = 9
        assert g.read() == 9.0

    def test_callback_replacement_newest_wins(self, reg):
        reg.gauge_fn("live", lambda: 1)
        g = reg.gauge_fn("live", lambda: 2)
        assert g.read() == 2.0
        assert len(reg.snapshot()) == 1

    def test_dead_callback_does_not_break_exposition(self, reg):
        reg.gauge_fn("boom", lambda: 1 / 0)
        assert reg.snapshot()["boom"] is None
        assert "t_boom NaN" in reg.prometheus_text()


class TestHistogram:
    def test_cumulative_buckets_and_overflow(self, reg):
        h = reg.histogram("hops", buckets=(1, 10, 100))
        for v in (0.5, 5, 50, 500):
            h.observe(v)
        snap = reg.snapshot()["hops"]
        assert snap["buckets"] == {"1": 1, "10": 2, "100": 3, "+Inf": 4}
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(555.5)

    def test_boundary_lands_in_its_bucket(self, reg):
        h = reg.histogram("lat", buckets=(1.0, 2.0))
        h.observe(1.0)  # le="1" is inclusive
        assert reg.snapshot()["lat"]["buckets"]["1"] == 1

    def test_unsorted_bounds_are_sorted(self, reg):
        h = reg.histogram("x", buckets=(10, 1, 5))
        assert h.buckets == (1.0, 5.0, 10.0)

    def test_empty_buckets_rejected(self, reg):
        with pytest.raises(ValueError, match="bucket"):
            reg.histogram("x", buckets=())


class TestRegistry:
    def test_instruments_memoized_by_name(self, reg):
        assert reg.counter("a") is reg.counter("a")

    def test_kind_mismatch_raises(self, reg):
        reg.counter("a")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("a")

    def test_reset_zeroes_but_keeps_handles(self, reg):
        c = reg.counter("a")
        h = reg.histogram("b")
        c.inc(3)
        h.observe(1)
        reg.reset()
        assert c.value == 0 and h.count == 0
        c.inc()  # the pre-reset handle still reports
        assert reg.snapshot()["a"] == 1

    def test_snapshot_is_json_serializable(self, reg):
        reg.counter("a").inc()
        reg.gauge("b").set(2.5)
        reg.histogram("c").observe(7)
        parsed = json.loads(reg.to_json())
        assert parsed["a"] == 1 and parsed["b"] == 2.5
        assert parsed["c"]["count"] == 1

    def test_prometheus_text_format(self, reg):
        reg.counter("reqs", "served requests").inc(2)
        reg.gauge("depth").set(3)
        reg.histogram("lat", buckets=(1, 2)).observe(1.5)
        text = reg.prometheus_text()
        assert "# HELP t_reqs_total served requests" in text
        assert "# TYPE t_reqs_total counter" in text
        assert "t_reqs_total 2" in text
        assert "# TYPE t_depth gauge" in text
        assert 't_lat_bucket{le="1"} 0' in text
        assert 't_lat_bucket{le="2"} 1' in text
        assert 't_lat_bucket{le="+Inf"} 1' in text
        assert "t_lat_sum 1.5" in text and "t_lat_count 1" in text
        assert text.endswith("\n")

    def test_thread_safety_smoke(self, reg):
        c = reg.counter("n")

        def hammer():
            for _ in range(2000):
                c.inc()

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000

    def test_disabled_instrument_calls_allocate_nothing(self):
        r = MetricsRegistry(enabled=False)
        c, g, h = r.counter("a"), r.gauge("b"), r.histogram("c")
        # Warm up (method lookups, bytecode caches).
        for _ in range(10):
            c.inc()
            g.set(1)
            h.observe(1)
        tracemalloc.start()
        before = tracemalloc.take_snapshot()
        for _ in range(1000):
            c.inc()
            g.set(1)
            h.observe(1)
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
        grown = sum(s.size_diff for s in after.compare_to(before, "lineno")
                    if s.size_diff > 0)
        # tracemalloc's own bookkeeping shows up as a few small blocks;
        # 3000 no-op calls must not add measurable allocations on top.
        assert grown < 4096


class TestTraces:
    def test_ring_is_bounded(self):
        log = TraceLog(capacity=3)
        for i in range(10):
            log.record(QueryTrace(k=i))
        assert len(log) == 3
        assert [t.k for t in log.recent()] == [7, 8, 9]
        assert log.n_recorded == 10

    def test_recent_n_and_json(self):
        log = TraceLog(capacity=8)
        log.record(QueryTrace(k=10, n_hops=4, ndc=37))
        parsed = json.loads(log.to_json(n=1))
        assert parsed[0]["k"] == 10 and parsed[0]["ndc"] == 37

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            TraceLog(capacity=0)

    def test_clear_keeps_counter_monotonic(self):
        log = TraceLog(capacity=4)
        log.record(QueryTrace())
        log.clear()
        # The ring empties but the lifetime counter never rewinds: rate and
        # baseline consumers difference n_recorded across reads.
        assert len(log) == 0 and log.n_recorded == 1
        log.record(QueryTrace())
        assert log.n_recorded == 2


class TestServingIntegration:
    """An enabled store populates search/epoch/maintenance metrics end to end."""

    def test_store_traffic_populates_metrics_and_traces(self, global_obs):
        from repro import VectorStore

        rng = np.random.default_rng(3)
        base = rng.standard_normal((120, 8)).astype(np.float32)
        queries = rng.standard_normal((6, 8)).astype(np.float32)
        store = VectorStore(dim=8, metric="l2", M=8, ef_construction=40)
        store.add(base)
        store.build()
        store.search(queries[0], k=5, ef=20)
        store.search_batch(queries, k=5, ef=20, batch_size=4)
        store.observe(queries[0])
        store.flush()

        snap = global_obs.snapshot()
        assert snap["serving_queries"] == 1
        # The lone query and the six batched rows, plus the repair's
        # preprocessing search: each lone search is a block of one.
        assert snap["batch_queries"] == 8
        assert snap["maintenance_repairs"] == 1
        assert snap["epoch_active_pins"] == 0.0
        assert snap["maintenance_worker_alive"] == 1.0
        assert snap["search_hops"]["count"] >= 1

        text = global_obs.prometheus_text()
        assert "repro_serving_queries_total 1" in text
        assert "repro_epoch_id " in text

        traces = obs.TRACES.recent()
        assert len(traces) == 1
        trace = traces[0]
        assert trace.k == 5 and trace.n_hops > 0 and trace.ndc > 0
        assert trace.epoch_id >= 0 and trace.pin_seconds > 0

    def test_disabled_store_records_nothing(self):
        from repro import VectorStore

        obs.reset()
        rng = np.random.default_rng(4)
        base = rng.standard_normal((80, 8)).astype(np.float32)
        store = VectorStore(dim=8, metric="l2", M=8, ef_construction=40)
        store.add(base)
        store.build()
        store.search(base[0], k=3, ef=20)
        snap = obs.OBS.snapshot()
        assert snap["serving_queries"] == 0
        assert len(obs.TRACES) == 0


def _documented_metrics() -> set[str]:
    """Metric names of the table rows in ``docs/observability.md``'s
    catalog, without the ``_total`` suffix counters export with."""
    text = (REPO / "docs" / "observability.md").read_text()
    catalog = text.split("## Metric catalog", 1)[1].split("\n## ", 1)[0]
    names = set()
    for line in catalog.splitlines():
        if not line.startswith("| `"):
            continue
        first_cell = line.split("|")[1]
        names.update(re.sub(r"_total$", "", name)
                     for name in re.findall(r"`([a-z0-9_]+)`", first_cell))
    return names


def _registered_metrics() -> set[str]:
    """Every name the code registers: module-level instruments (after
    importing every ``repro`` module), the per-instance callback gauges of
    a store, a cache and a front door, and — read from source, so no
    worker is spawned — the router's."""
    import ast
    import asyncio
    import importlib
    import pkgutil

    import repro
    from repro import VectorStore
    from repro.cluster import FrontDoor
    from repro.core.hash_cache import HashTableCache

    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)
    store = VectorStore(dim=8, metric="l2", M=4, ef_construction=16)
    store.add(np.random.default_rng(0).standard_normal((32, 8))
              .astype(np.float32))
    store.build()
    HashTableCache()
    door = FrontDoor(store, k=5)
    asyncio.run(door.drain())
    store.close()
    names = set(obs.OBS._instruments)
    router = REPO / "src" / "repro" / "cluster" / "router.py"
    for node in ast.walk(ast.parse(router.read_text())):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "gauge_fn"):
            names.add(node.args[0].value)
    return names


class TestMetricCatalog:
    """The catalog in ``docs/observability.md`` is what the code registers."""

    def test_catalog_equals_registered_metrics(self):
        documented, registered = _documented_metrics(), _registered_metrics()
        assert registered - documented == set(), "registered, undocumented"
        assert documented - registered == set(), "documented, unregistered"
