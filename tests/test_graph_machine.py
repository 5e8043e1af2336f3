"""One model-based state machine over the graph slice.

The model is ``{gid: vector}`` and brute-force top-k over it.  The machine
drives a single-layer :class:`~repro.graphs.HNSW` (the ``GraphIndex``), the
:class:`~repro.core.fixer.NGFixer` over it and an
:class:`~repro.core.maintenance.IndexMaintainer` through ``add``,
``delete`` (any live row, or the navigating node itself), ``fit``,
``fix_query``, ``compact``, ``search`` and ``search_batch`` at beam widths
1 and 8, and ``save_and_reload`` (the run carries on over
``load_index(save_index(...))``), and checks after every step:

- no deleted id is ever returned;
- a search wide enough to see every row (``ef`` above the row count, a
  degree budget that never binds) returns the model's exact top-k, so every
  inserted id is findable by its own vector;
- the native and reference executors agree under ``tie_tolerant_equal``;
- no slab row names a node twice;
- every extra edge carries a tag, and every edge RFix added carries ∞;
- the entry is never a compacted row.
"""

import tempfile

import numpy as np
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.core import fixer as fixer_module
from repro.core.fixer import FixConfig, NGFixer
from repro.core.maintenance import IndexMaintainer
from repro.graphs import HNSW, native
from repro.graphs.adjacency import EH_INFINITE
from repro.graphs.search import BatchSearchEngine
from repro.io import load_index, save_index
from tests.conftest import reference_executor, tie_tolerant_equal

DIM = 4
#: Wider than any row count the dense world reaches (its ``n`` plus one row
#: per step), so a search from a connected entry sees every live row.
EF = 96
#: Compaction's repair and NGFix's rounds want a few survivors.
MIN_LIVE = 6

_SEED = st.integers(0, 2**16)


def _stored(adjacency) -> tuple:
    """Every edge with its EH tag, the tombstones and the removed ids."""
    return ([adjacency.base_neighbors(u) for u in range(adjacency.n_nodes)],
            [[(v, float(eh).hex())
              for v, eh in adjacency.extra_neighbors(u).items()]
             for u in range(adjacency.n_nodes)],
            sorted(adjacency.tombstones), sorted(adjacency.removed))


def _vector(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(DIM).astype(np.float32)


class GraphMachine(RuleBasedStateMachine):
    """The dense world: a degree budget (2M) no run can exhaust, so every
    insert links to all its search reached and the live graph stays
    connected unless an insert started somewhere dead.  A search then
    returns the model's exact top-k."""

    n = 12
    M = 32
    eh_threshold = None
    exact = True

    def __init__(self):
        super().__init__()
        data = np.random.default_rng(7).standard_normal(
            (self.n, DIM)).astype(np.float32)
        index = HNSW(data, "l2", M=self.M, ef_construction=EF)
        self.fixer = NGFixer(index, FixConfig(
            k=4, max_extra_degree=3, eh_threshold=self.eh_threshold,
            rfix_search_ef=1))
        self.maintainer = IndexMaintainer(
            self.fixer, np.empty((0, DIM), dtype=np.float32),
            compact_threshold=0.3)
        self.model = {gid: data[gid] for gid in range(self.n)}
        self.deleted: set[int] = set()
        self.rfix_edges: set[tuple[int, int]] = set()

    # -- the model ------------------------------------------------------------

    def _truth(self, q: np.ndarray, k: int) -> np.ndarray:
        """The model's ``k`` smallest squared distances to ``q``."""
        vectors = np.array(list(self.model.values()), dtype=np.float32)
        d = ((vectors - q) ** 2).sum(axis=1)
        return np.sort(d)[:k]

    def _check(self, q: np.ndarray, k: int, result) -> None:
        ids = result.ids.tolist()
        assert not set(ids) & self.deleted, (ids, sorted(self.deleted))
        truth = self._truth(q, k)
        if self.exact:
            np.testing.assert_allclose(result.distances, truth,
                                       rtol=1e-4, atol=1e-5)
        else:  # no search beats brute force
            assert np.all(result.distances >= truth[:len(ids)] - 1e-5)

    def _fixing(self, call):
        """Run ``call`` recording the edges RFix adds on the way."""
        original = fixer_module.rfix_query

        def recording(*args, **kwargs):
            outcome = original(*args, **kwargs)
            self.rfix_edges.update(outcome.edges_added)
            return outcome

        fixer_module.rfix_query = recording
        try:
            return call()
        finally:
            fixer_module.rfix_query = original

    def _live(self) -> list[int]:
        return sorted(self.model)

    # -- rules ----------------------------------------------------------------

    @rule(seed=_SEED)
    def add(self, seed):
        vector = _vector(seed)
        (gid,) = self.maintainer.insert(vector)
        assert gid not in self.model and gid not in self.deleted
        self.model[gid] = vector
        found = self.fixer.search(vector, k=1, ef=EF)
        self._check(vector, 1, found)

    @precondition(lambda self: len(self.model) > MIN_LIVE)
    @rule(pick=st.integers(0, 10**6))
    def delete(self, pick):
        live = self._live()
        self._delete(live[pick % len(live)])

    @precondition(lambda self: len(self.model) > MIN_LIVE
                  and self.fixer.entry in self.model)
    @rule()
    def delete_entry(self):
        """The dead-entry recipe: kill the node searches and inserts start
        from."""
        self._delete(self.fixer.entry)

    def _delete(self, gid: int) -> None:
        self.maintainer.delete([gid])
        del self.model[gid]
        self.deleted.add(gid)

    @rule(seeds=st.lists(_SEED, min_size=1, max_size=4))
    def fit(self, seeds):
        queries = np.stack([_vector(s) for s in seeds])
        self._fixing(lambda: self.fixer.fit(queries))

    @rule(seed=_SEED)
    def fix_query(self, seed):
        self._fixing(lambda: self.fixer.fix_query(_vector(seed)))

    @rule()
    def compact(self):
        self.maintainer.compact()

    @rule(seed=_SEED, k=st.integers(1, 5))
    def search(self, seed, k):
        q = _vector(seed)
        self._check(q, k, self.fixer.search(q, k=k, ef=EF))

    @rule(seeds=st.lists(_SEED, min_size=1, max_size=6),
          width=st.sampled_from([1, 8]), k=st.integers(1, 5))
    def search_batch(self, seeds, width, k):
        queries = np.stack([_vector(s) for s in seeds])
        adjacency = self.fixer.adjacency
        engine = BatchSearchEngine(
            self.fixer.dc, adjacency, self.fixer.entry_points,
            excluded_fn=adjacency.excluded_ids, batch_size=4,
            beam_width=width)
        first = engine.search_batch(queries, k, EF)
        with reference_executor():
            reference = engine.search_batch(queries, k, EF)
        for q, a, b in zip(queries, first, reference):
            assert b.executor == "reference"
            assert a.executor == ("native" if native.enabled()
                                  else "reference")
            assert tie_tolerant_equal(a, b, self.fixer.dc, q,
                                      ndc=(a.ndc, b.ndc))
            self._check(q, k, a)
        if width == 1:
            for q, a in zip(queries, self.fixer.search_batch(queries, k, EF)):
                self._check(q, k, a)

    @rule()
    def save_and_reload(self):
        """Restart from the file mid-run: the loaded index, with a fresh
        fixer and maintainer over it, takes every later rule."""
        saved = self.fixer.adjacency
        with tempfile.TemporaryDirectory() as directory:
            index = load_index(save_index(self.fixer, f"{directory}/graph"))
        assert _stored(index.adjacency) == _stored(saved)
        assert index.medoid() == self.fixer.entry
        self.fixer = NGFixer(index, self.fixer.config)
        self.maintainer = IndexMaintainer(
            self.fixer, np.empty((0, DIM), dtype=np.float32),
            compact_threshold=0.3)
        if self.exact:  # every live row is found by an exhaustive search
            found = self.fixer.search(np.zeros(DIM, np.float32),
                                      k=len(self.model), ef=EF)
            assert sorted(found.ids.tolist()) == self._live()

    # -- invariants -------------------------------------------------------------

    @invariant()
    def rows_are_sets(self):
        adjacency = self.fixer.adjacency
        for u in range(adjacency.n_nodes):
            row = adjacency.neighbors(u).tolist()
            assert len(set(row)) == len(row), (u, row)

    @invariant()
    def extra_edges_carry_tags(self):
        adjacency = self.fixer.adjacency
        gone = adjacency.removed
        self.rfix_edges = {(u, v) for u, v in self.rfix_edges
                           if u not in gone and v not in gone}
        for u in range(adjacency.n_nodes):
            extra = adjacency.extra_neighbors(u)
            row = adjacency.neighbors(u).tolist()
            assert row[adjacency.base_degree(u):] == list(extra), u
            assert all(isinstance(eh, float) and not np.isnan(eh)
                       for eh in extra.values()), (u, extra)
        for u, v in self.rfix_edges:
            assert adjacency.extra_neighbors(u)[v] == EH_INFINITE, (u, v)

    @invariant()
    def entry_is_not_compacted(self):
        # A tombstoned entry still navigates until compaction re-elects.
        assert self.fixer.entry not in self.fixer.adjacency.removed


class SparseGraphMachine(GraphMachine):
    """The sparse world: a degree budget that binds, so queries find
    defects, NGFix and RFix add extra edges and evict them, and compaction
    leaves regions to repair.  Searches are no longer exact."""

    n = 40
    M = 2
    eh_threshold = 0.0
    exact = False


_CI = settings(max_examples=100, stateful_step_count=30, deadline=None,
               suppress_health_check=[HealthCheck.too_slow])

GraphMachine.TestCase.settings = _CI
SparseGraphMachine.TestCase.settings = _CI
TestGraphMachine = GraphMachine.TestCase
TestSparseGraphMachine = SparseGraphMachine.TestCase
