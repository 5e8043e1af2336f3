"""Twin builds: the array store against the list/dict store it replaced.

Each flow runs twice on the reference executor — once as shipped, once with
``ParentAdjacencyStore`` (the list/dict store, kept verbatim in
``tests/test_adjacency.py``) substituted for every index's adjacency — and
the two graphs must agree edge for edge: ``freeze()`` arrays, base lists,
and extra edges in insertion order with bit-identical EH tags.  The flows are
whole builds of every graph family, then fitting, online fixing (NGFix and
RFix), delete → compact → repair, inserts and a partial rebuild's
``drop_extra_fraction``, and last an ``io.save_index`` / ``load_index``
round trip whose file must hold the store's arrays: row by row, the list/dict
store's base list, then its extras and their tags.
"""

import numpy as np
import pytest

from repro import NSG, FixConfig, NGFixer, RoarGraph, TauMNG
from repro.core.maintenance import IndexMaintainer
from repro.graphs import HNSW, NSW, Vamana
from repro.graphs import base as graphs_base
from repro.io import load_index, save_index
from tests.conftest import reference_executor
from tests.test_adjacency import ParentAdjacencyStore

N = 300


def _twins(build):
    """``build()`` with the array store, then with the list/dict store."""
    with reference_executor():
        out = build()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graphs_base, "AdjacencyStore", ParentAdjacencyStore)
            ref = build()
    return out, ref


def _graph(adjacency):
    """Everything an edge-for-edge comparison looks at, as plain values."""
    view = adjacency.freeze()
    return (view.indptr.tolist(), view.indices.tolist(),
            [adjacency.base_neighbors(u) for u in range(adjacency.n_nodes)],
            [[(v, float(eh).hex())
              for v, eh in adjacency.extra_neighbors(u).items()]
             for u in range(adjacency.n_nodes)],
            sorted(adjacency.tombstones), sorted(adjacency.removed))


def _assert_file_holds_rows(saved, adjacency) -> None:
    """The saved slab, tags, degree and base count are the list/dict
    store's rows: each row's base list, then its extras in insertion order
    with bit-identical tags; the slab is cut to the widest row."""
    rows = [(adjacency.base_neighbors(u), adjacency.extra_neighbors(u))
            for u in range(adjacency.n_nodes)]
    degree = [len(base) + len(extras) for base, extras in rows]
    for name, dtype in (("slab", np.int32), ("eh", np.float64),
                        ("degree", np.int32), ("base_count", np.int32),
                        ("tombstones", np.int64), ("removed", np.int64)):
        assert saved[name].dtype == dtype, name
    assert saved["slab"].shape == saved["eh"].shape == (len(rows), max(degree))
    assert saved["degree"].tolist() == degree
    assert saved["base_count"].tolist() == [len(base) for base, _ in rows]
    for u, (base, extras) in enumerate(rows):
        assert saved["slab"][u, :degree[u]].tolist() == base + list(extras), u
        assert ([float(eh).hex() for eh in saved["eh"][u, len(base):degree[u]]]
                == [float(eh).hex() for eh in extras.values()]), u
    assert saved["tombstones"].tolist() == sorted(adjacency.tombstones)
    assert saved["removed"].tolist() == sorted(adjacency.removed)


_BUILDS = {
    "hnsw": lambda ds: HNSW(ds.base[:N], ds.metric, M=8, ef_construction=40),
    "nsg": lambda ds: NSG(ds.base[:N], ds.metric, R=10, L=20, knn_k=10),
    "vamana": lambda ds: Vamana(ds.base[:N], ds.metric, R=10, L=20),
    "roargraph": lambda ds: RoarGraph(ds.base[:N], ds.metric,
                                      ds.train_queries[:40], M=10,
                                      n_query_neighbors=12, knn_k=8),
    "nsw": lambda ds: NSW(ds.base[:N], ds.metric, f=6, ef_construction=20),
    "tau-mng": lambda ds: TauMNG(ds.base[:N], ds.metric, R=10, L=20,
                                 knn_k=10, tau=0.05),
}


@pytest.mark.parametrize("family", sorted(_BUILDS))
def test_builds_are_edge_for_edge_equal(tiny_ds, family):
    out, ref = _twins(lambda: _BUILDS[family](tiny_ds))
    assert isinstance(ref.adjacency, ParentAdjacencyStore)
    assert out.adjacency.n_base_edges() > 0
    assert _graph(out.adjacency) == _graph(ref.adjacency)


def test_fixing_and_maintenance_are_edge_for_edge_equal(tiny_ds, tmp_path):
    """Fit, online NGFix and RFix, delete → compact → repair, inserts and
    a partial rebuild: the graph after every stage, then the saved file."""
    history = tiny_ds.train_queries

    def run():
        index = _BUILDS["hnsw"](tiny_ds)
        # rfix_search_ef=1 makes RFix fire on queries a width-1 probe misses.
        fixer = NGFixer(index, FixConfig(k=5, max_extra_degree=4,
                                         rfix_search_ef=1))
        maintainer = IndexMaintainer(fixer, history[30:60],
                                     compact_threshold=0.9, seed=0)
        stages = []
        fixer.fit(history[:30])
        stages.append(_graph(fixer.adjacency))
        for q in tiny_ds.test_queries[:8]:
            fixer.fix_query(q)
        stages.append(_graph(fixer.adjacency))
        maintainer.delete([0, 5, fixer.entry, 17])
        stages.append(_graph(fixer.adjacency))
        maintainer.compact()
        stages.append(_graph(fixer.adjacency))
        maintainer.insert(tiny_ds.base[N:N + 20])
        stages.append(_graph(fixer.adjacency))
        maintainer.partial_rebuild(0.5, drop_fraction=0.3)
        stages.append(_graph(fixer.adjacency))
        maintainer.delete([3])  # a tombstone the saved file carries
        return fixer, stages

    (out, out_stages), (ref, ref_stages) = _twins(run)
    for stage, (mine, theirs) in enumerate(zip(out_stages, ref_stages)):
        assert mine == theirs, f"stage {stage}"
    tags = [float.fromhex(eh) for row in out_stages[1][3] for _, eh in row]
    assert float("inf") in tags  # RFix ran
    assert np.isfinite(tags).any()  # NGFix ran

    path = save_index(out, tmp_path / "twin")
    with np.load(path) as saved:
        _assert_file_holds_rows(saved, ref.adjacency)
    with reference_executor():
        loaded = load_index(path)
    assert _graph(loaded.adjacency) == _graph(ref.adjacency)
