"""AdjacencyStore: base/extra edge semantics, eviction, maintenance hooks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.adjacency import EH_INFINITE, AdjacencyStore


@pytest.fixture
def store():
    return AdjacencyStore(6)


class TestBaseEdges:
    def test_add_and_read(self, store):
        assert store.add_base_edge(0, 1)
        assert store.base_neighbors(0) == [1]
        assert store.neighbors(0).tolist() == [1]

    def test_duplicate_and_self_loop_refused(self, store):
        store.add_base_edge(0, 1)
        assert not store.add_base_edge(0, 1)
        assert not store.add_base_edge(2, 2)

    def test_set_base_neighbors_drops_self(self, store):
        store.set_base_neighbors(0, [0, 1, 2, 1, 0, 2])
        assert store.base_neighbors(0) == [1, 2]

    def test_directed(self, store):
        store.add_base_edge(0, 1)
        assert store.base_neighbors(1) == []


class TestExtraEdges:
    def test_add_with_eh(self, store):
        assert store.add_extra_edge(0, 1, eh=5.0)
        assert store.extra_neighbors(0) == {1: 5.0}
        assert store.extra_degree(0) == 1

    def test_readd_keeps_larger_eh(self, store):
        store.add_extra_edge(0, 1, eh=5.0)
        assert not store.add_extra_edge(0, 1, eh=3.0)
        assert store.extra_neighbors(0)[1] == 5.0
        store.add_extra_edge(0, 1, eh=9.0)
        assert store.extra_neighbors(0)[1] == 9.0

    def test_extra_refused_if_base_exists(self, store):
        store.add_base_edge(0, 1)
        assert not store.add_extra_edge(0, 1, eh=2.0)

    def test_base_edge_supersedes_extra(self, store):
        store.add_extra_edge(0, 1, eh=2.0)
        store.add_extra_edge(0, 3, eh=2.0)
        assert store.add_base_edge(0, 1)
        store.set_base_neighbors(0, [1, 3, 4])
        assert store.extra_neighbors(0) == {}
        assert store.neighbors(0).tolist() == [1, 3, 4]

    def test_neighbors_combined(self, store):
        store.add_base_edge(0, 1)
        store.add_extra_edge(0, 2, eh=1.0)
        assert sorted(store.neighbors(0).tolist()) == [1, 2]
        assert store.out_degree(0) == 2

    def test_remove_extra(self, store):
        store.add_extra_edge(0, 1, eh=1.0)
        assert store.remove_extra_edge(0, 1)
        assert not store.remove_extra_edge(0, 1)
        assert store.extra_degree(0) == 0


class TestEviction:
    def test_evicts_lowest_eh(self, store):
        store.add_extra_edge(0, 1, eh=5.0)
        store.add_extra_edge(0, 2, eh=1.0)
        store.add_extra_edge(0, 3, eh=3.0)
        v, eh = store.evict_lowest_eh(0)
        assert (v, eh) == (2, 1.0)

    def test_infinite_eh_protected(self, store):
        store.add_extra_edge(0, 1, eh=EH_INFINITE)
        assert store.evict_lowest_eh(0) is None
        store.add_extra_edge(0, 2, eh=7.0)
        assert store.evict_lowest_eh(0) == (2, 7.0)
        assert store.extra_neighbors(0) == {1: EH_INFINITE}

    def test_tie_break_is_lowest_id_regardless_of_insertion_order(self):
        """Equal-EH eviction must pick the smallest target id no matter the
        order the edges were added in, so repair runs are reproducible
        across worker counts (the dict iteration order differs)."""
        for order in ([4, 2, 9], [9, 4, 2], [2, 9, 4]):
            store = AdjacencyStore(12)
            for v in order:
                store.add_extra_edge(0, v, eh=3.0)
            assert store.evict_lowest_eh(0) == (2, 3.0)
            assert store.evict_lowest_eh(0) == (4, 3.0)
            assert store.evict_lowest_eh(0) == (9, 3.0)


class TestCacheInvalidation:
    def test_neighbors_cache_refreshes(self, store):
        store.add_base_edge(0, 1)
        first = store.neighbors(0)
        store.add_extra_edge(0, 2, eh=1.0)
        assert sorted(store.neighbors(0).tolist()) == [1, 2]
        assert first.tolist() == [1]  # old snapshot unchanged


class TestAggregates:
    def test_counts(self, store):
        store.add_base_edge(0, 1)
        store.add_base_edge(1, 2)
        store.add_extra_edge(0, 3, eh=1.0)
        assert store.n_base_edges() == 2
        assert store.n_extra_edges() == 1
        assert store.average_out_degree() == pytest.approx(3 / 6)

    def test_index_size_accounting(self, store):
        store.add_base_edge(0, 1)
        store.add_extra_edge(0, 2, eh=1.0)
        # 4 bytes per base edge, 6 per extra edge (id + 16-bit EH)
        assert store.index_size_bytes() == 4 + 6


class TestMaintenanceHooks:
    def test_grow(self, store):
        store.grow(2)
        assert store.n_nodes == 8
        store.add_base_edge(7, 0)
        assert store.base_neighbors(7) == [0]

    def test_grow_negative_rejected(self, store):
        with pytest.raises(ValueError):
            store.grow(-1)

    def test_drop_extra_fraction_all(self, store, rng):
        for v in (1, 2, 3, 4):
            store.add_extra_edge(0, v, eh=float(v))
        removed = store.drop_extra_fraction(1.0, rng)
        assert removed == 4
        assert store.extra_degree(0) == 0

    def test_drop_extra_fraction_resets_eh(self, store, rng):
        for v in (1, 2, 3, 4):
            store.add_extra_edge(0, v, eh=float(v))
        store.drop_extra_fraction(0.5, rng)
        assert store.extra_degree(0) == 2
        assert all(eh == 0.0 for eh in store.extra_neighbors(0).values())

    def test_drop_fraction_validated(self, store, rng):
        with pytest.raises(ValueError):
            store.drop_extra_fraction(1.5, rng)

    def test_drop_extra_fraction_spares_infinite_eh(self, store, rng):
        """Regression: RFix navigation edges (EH=inf) must survive a partial
        rebuild's random drop and keep their never-evict sentinel tag."""
        store.add_extra_edge(0, 1, eh=EH_INFINITE)
        store.add_extra_edge(0, 2, eh=EH_INFINITE)
        store.add_extra_edge(0, 3, eh=3.0)
        store.add_extra_edge(0, 4, eh=4.0)
        removed = store.drop_extra_fraction(1.0, rng)
        assert removed == 2
        assert store.extra_neighbors(0) == {1: EH_INFINITE, 2: EH_INFINITE}

    def test_drop_extra_fraction_resets_only_finite_eh(self, store, rng):
        store.add_extra_edge(0, 1, eh=EH_INFINITE)
        store.add_extra_edge(0, 2, eh=7.0)
        store.drop_extra_fraction(0.0, rng)
        assert store.extra_neighbors(0) == {1: EH_INFINITE, 2: 0.0}

    def test_remove_node_edges(self, store):
        store.add_base_edge(0, 1)
        store.add_base_edge(1, 2)
        store.add_extra_edge(2, 1, eh=1.0)
        store.add_base_edge(1, 3)
        store.remove_node_edges({1})
        assert store.base_neighbors(0) == []
        assert store.base_neighbors(1) == []
        assert store.extra_neighbors(2) == {}

    def test_copy_independent(self, store):
        store.add_base_edge(0, 1)
        clone = store.copy()
        clone.add_base_edge(0, 2)
        clone.add_extra_edge(1, 3, eh=1.0)
        assert store.base_neighbors(0) == [1]
        assert store.extra_degree(1) == 0


def test_invalid_node_count():
    with pytest.raises(ValueError):
        AdjacencyStore(0)


# -- the slab: what traversals read, against the edge sets ---------------------

def _loop_freeze(store: AdjacencyStore):
    """``freeze()`` as the per-node Python loop it was before the slab:
    ``(indptr, indices)`` straight from the lists and dicts."""
    indptr, indices = [0], []
    for base, extra in zip(store._base, store._extra):
        indices += base + list(extra)
        indptr.append(len(indices))
    return (np.array(indptr, dtype=np.int32),
            np.array(indices, dtype=np.int32))


_NODE = st.integers(0, 10**6)  # reduced modulo the node count at use
_OPS = st.one_of(
    # up to 20 neighbours: a row that outgrows the slab's initial width
    st.tuples(st.just("set_base"), _NODE, st.lists(_NODE, max_size=20)),
    st.tuples(st.just("add_base"), _NODE, _NODE),
    st.tuples(st.just("add_extra"), _NODE, _NODE,
              st.sampled_from([0.0, 1.0, 2.5, EH_INFINITE])),
    st.tuples(st.just("evict"), _NODE),
    st.tuples(st.just("remove_extra"), _NODE, _NODE),
    st.tuples(st.just("remove_nodes"), st.sets(_NODE, max_size=3)),
    st.tuples(st.just("drop_extra"), st.sampled_from([0.0, 0.5, 1.0]),
              st.integers(0, 9)),
    # 1..9 new nodes from 3: several grows past the arrays' capacity
    st.tuples(st.just("grow"), st.integers(1, 9)),
    st.tuples(st.just("copy")),
)


@settings(max_examples=120, deadline=None)
@given(st.lists(_OPS, max_size=40))
def test_slab_and_freeze_follow_the_edge_sets(ops):
    """After any mutation sequence: ``neighbors(u)`` (the slab row) is
    ``base + extra`` for every node and names no node twice, ``freeze()``
    gathered from the slab is the per-node loop's CSR, and a spec taken
    before the sequence still points at arrays it owns."""
    store = AdjacencyStore(3)
    first_spec = store.native_graph()
    for op in ops:
        n = store.n_nodes
        kind, args = op[0], op[1:]
        if kind == "set_base":
            store.set_base_neighbors(args[0] % n, [v % n for v in args[1]])
        elif kind == "add_base":
            store.add_base_edge(args[0] % n, args[1] % n)
        elif kind == "add_extra":
            store.add_extra_edge(args[0] % n, args[1] % n, args[2])
        elif kind == "evict":
            store.evict_lowest_eh(args[0] % n)
        elif kind == "remove_extra":
            store.remove_extra_edge(args[0] % n, args[1] % n)
        elif kind == "remove_nodes":
            store.remove_node_edges({v % n for v in args[0]})
        elif kind == "drop_extra":
            store.drop_extra_fraction(args[0],
                                      np.random.default_rng(args[1]))
        elif kind == "grow":
            store.grow(args[0])
        else:
            store = store.copy()
        for u in range(store.n_nodes):
            combined = store._base[u] + list(store._extra[u])
            assert store.neighbors(u).tolist() == combined
            assert store(u).tolist() == combined
            assert len(set(combined)) == len(combined)
    view = store.freeze()
    indptr, indices = _loop_freeze(store)
    np.testing.assert_array_equal(view.indptr, indptr)
    np.testing.assert_array_equal(view.indices, indices)
    assert view.indptr.dtype == view.indices.dtype == np.int32
    spec = store.native_graph()
    assert spec.n == store.n_nodes
    assert spec.slab is store._slab and spec.degree is store._degree
    assert first_spec.n == 3 and first_spec.slab.shape[0] >= 3
