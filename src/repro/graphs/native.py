"""Loader and call shim of the native traversal core (``_beam.c``).

``_beam.c`` is paper Algorithm 1 written once in C, with the compressed
recipe's exact re-rank, the occlusion rule of the prunes and paper
Algorithm 2 (Escape Hardness) beside it; this module compiles it with
whatever C compiler the machine has, loads it with :mod:`ctypes`, and
exposes one call each, :func:`beam_block`, :func:`occlusion_prune` and
:func:`escape_hardness`.  :mod:`repro.graphs.search`
imports this module — so the build happens at import, never inside a timed
build or a first query — and decides per search which executor runs: the native one
when the library is loaded *and* both the scorer and the graph can describe
themselves as a :class:`Scorer` / :class:`Graph` spec, else the Python
reference loop.  A missing compiler is therefore never an error, only a
slower search; :func:`status` says which executor this process is on.

The shared object is content-addressed — ``sha256(source, flags, compiler
identity)`` is in its file name — and is written with ``os.replace`` into
the first writable of ``<package>/_build/``, ``$XDG_CACHE_HOME/repro-native``
(``~/.cache`` by default) and a per-uid ``0700`` directory under the system
temp dir, so a second process (a shard worker, the next test run) loads the
file the first one built and two racing builds cannot tear it.  A file the
current uid does not own is never loaded.

Exactly one switch: ``REPRO_NO_NATIVE=1`` in the environment forces the
reference executor (CI runs the suite both ways).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import pathlib
import shutil
import subprocess
import sysconfig
import tempfile
import threading
import time
import warnings

import numpy as np

SOURCE = pathlib.Path(__file__).with_name("_beam.c")
#: Portable on purpose: no ``-march=native`` (one binary, one answer on every
#: host that loads it), no ``-ffast-math`` (IEEE ordering of NaN/inf), and
#: ISO C so the compiler may not contract ``a*b + c`` into an FMA.
FLAGS = ("-O2", "-shared", "-fPIC", "-std=c11")
SWITCH = "REPRO_NO_NATIVE"

# Scorer kinds, as in _beam.c; the exact ones keyed by ``Metric.value``.
L2, INNER_PRODUCT, COSINE, ADC = range(4)
EXACT_KINDS = {"l2": L2, "ip": INNER_PRODUCT, "cosine": COSINE}

# A block with ``collect`` writes up to ``n`` scored (id, distance) pairs per
# row; rows per call are capped so the per-thread buffer stays bounded.
_COLLECT_CAP = 1 << 21


class _CGraph(ctypes.Structure):
    _fields_ = [("indptr", ctypes.c_void_p), ("indices", ctypes.c_void_p),
                ("n0", ctypes.c_int64), ("patch_slot", ctypes.c_void_p),
                ("patch_n", ctypes.c_int64),
                ("patch_indptr", ctypes.c_void_p),
                ("patch_indices", ctypes.c_void_p),
                ("slab", ctypes.c_void_p), ("deg", ctypes.c_void_p),
                ("stride", ctypes.c_int64), ("slab_n", ctypes.c_int64)]


class _CScorer(ctypes.Structure):
    _fields_ = [("kind", ctypes.c_int32), ("rows", ctypes.c_void_p),
                ("width", ctypes.c_int64), ("ks", ctypes.c_int64),
                ("queries", ctypes.c_void_p)]


class _CRerank(ctypes.Structure):
    _fields_ = [("exact", _CScorer), ("n", ctypes.c_int64),
                ("budget", ctypes.c_int64)]


class Graph:
    """What a graph tells the native core about itself.

    ``indptr``/``indices`` are the frozen int32 CSR; ``patch`` is None or
    the overlay prefix of an epoch view as ``(patch_slot, patch_indptr,
    patch_indices)`` (see ``EpochView.native_graph``).  ``excluded`` /
    ``excluded_mask`` are the id set this graph bars from results and the
    same set as a uint8 bitmap: a search handed that very set reuses the
    bitmap instead of rebuilding it.  Immutable once built, so the C
    struct is filled once.

    :meth:`mutable` describes a graph that is still being written instead
    (``AdjacencyStore.native_graph``): the kernel reads node ``u``'s
    out-neighbours in place, ``slab[u, :degree[u]]``, for the first ``n``
    nodes.  The spec holds the two arrays, and the store replaces them with
    new ones when it outgrows them (never resizes in place), so a spec taken
    before a ``grow`` is stale — the kernel answers ``BEAM_BAD_ID`` for a
    node past its ``n`` — but never dangling.
    """

    __slots__ = ("indptr", "indices", "patch", "excluded", "excluded_mask",
                 "slab", "degree", "n", "c")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, patch=None,
                 excluded=None, excluded_mask: np.ndarray | None = None):
        slot, patch_indptr, patch_indices = patch or (None, None, None)
        # The arrays are held so the addresses in ``c`` stay valid.
        self.indptr, self.indices, self.patch = indptr, indices, patch
        self.excluded = excluded
        self.excluded_mask = excluded_mask
        self.slab = self.degree = None
        self.n = indptr.shape[0] - 1
        self.c = _CGraph(
            indptr.ctypes.data, indices.ctypes.data, self.n,
            None if slot is None else slot.ctypes.data,
            0 if slot is None else slot.shape[0],
            None if slot is None else patch_indptr.ctypes.data,
            None if slot is None else patch_indices.ctypes.data)

    @classmethod
    def mutable(cls, slab: np.ndarray, degree: np.ndarray,
                n: int) -> "Graph | None":
        """The spec of the first ``n`` rows of ``slab``/``degree``, or None
        when they are not the dense int32 pair the kernel reads."""
        if not (dense(slab, np.int32, 2) and dense(degree, np.int32, 1)
                and 0 <= n <= min(slab.shape[0], degree.shape[0])):
            return None
        self = cls.__new__(cls)
        self.indptr = self.indices = self.patch = None
        self.excluded = self.excluded_mask = None
        self.slab, self.degree, self.n = slab, degree, n
        self.c = _CGraph(slab=slab.ctypes.data, deg=degree.ctypes.data,
                         stride=slab.shape[1], slab_n=n)
        return self

    def mask_for(self, excluded) -> np.ndarray | None:
        """``excluded`` (a set of ids, or None) as a uint8 bitmap."""
        if not excluded:
            return None
        if excluded is self.excluded:
            return self.excluded_mask
        return excluded_mask(excluded)


def excluded_mask(excluded, size: int = 0) -> np.ndarray:
    """A uint8 bitmap over node ids, 1 where the id is in ``excluded``."""
    ids = np.fromiter(excluded, dtype=np.int64, count=len(excluded))
    mask = np.zeros(max(size, int(ids.max()) + 1 if ids.size else 0),
                    dtype=np.uint8)
    mask[ids] = 1
    return mask


class Scorer:
    """What a scorer tells the native core about itself.

    ``kind`` is one of ``L2``/``INNER_PRODUCT``/``COSINE`` with ``rows`` the
    C-contiguous float32 base matrix and ``queries`` the ``(B, dim)``
    float32 prepared queries, or ``ADC`` with ``rows`` the ``(n, m)`` uint8
    code matrix and ``queries`` the ``(B, m, ks)`` float64 lookup tables.
    """

    __slots__ = ("kind", "rows", "queries")

    def __init__(self, kind: int, rows: np.ndarray, queries: np.ndarray):
        self.kind = kind
        self.rows = rows
        self.queries = queries


def dense(array, dtype, ndim: int) -> bool:
    """Whether ``array`` is a C-contiguous ndarray of ``dtype`` and ``ndim``
    — the only layout the kernel reads."""
    return (isinstance(array, np.ndarray) and array.dtype == dtype
            and array.ndim == ndim and array.flags.c_contiguous)


def spec(obj, name: str, *args):
    """``obj.<name>(*args)`` with the method looked up on ``obj``'s exact
    type, None when the type has none.  A proxy that forwards attribute
    access (the benchmark's kernel probe) or a plain ``neighbors_fn``
    callable therefore has no native description and lands on the reference
    executor, whatever it wraps."""
    method = getattr(type(obj), name, None)
    return None if method is None else method(obj, *args)


# -- loading -----------------------------------------------------------------

_STATUS = {"enabled": False, "path": None, "compiler": None,
           "flags": " ".join(FLAGS), "reason": None}
_LIB = None


def status() -> dict:
    """``{enabled, path, compiler, flags, reason}`` of this process's core.

    ``reason`` is None when the native executor is enabled, else why it is
    not (switched off, no compiler, compile error, no writable cache).
    """
    return dict(_STATUS)


def find_compiler() -> str | None:
    """Absolute path of a C compiler: Python's own ``CC``, else cc/gcc/clang."""
    configured = (sysconfig.get_config_var("CC") or "").split()
    for name in (*configured[:1], "cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def cache_dirs() -> list[pathlib.Path]:
    """Where a built library may live, most preferred first."""
    cache_home = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return [SOURCE.parent / "_build",
            pathlib.Path(cache_home) / "repro-native",
            pathlib.Path(tempfile.gettempdir())
            / f"repro-native-{os.getuid()}"]


def _own(path: pathlib.Path) -> bool:
    return os.lstat(path).st_uid == os.getuid()


def build(source: pathlib.Path = SOURCE, dirs=None,
          compiler: str | None = None) -> tuple[pathlib.Path | None, dict]:
    """Compile ``source`` (or find it already built); ``(path, status)``.

    ``path`` is None when no library could be produced, with the reason in
    ``status["reason"]``.  Safe to race: the compiler writes a private temp
    file that is then renamed over the content-addressed name.
    """
    info = {"enabled": False, "path": None, "compiler": None,
            "flags": " ".join(FLAGS), "reason": None}
    compiler = compiler or find_compiler()
    if compiler is None:
        info["reason"] = "no C compiler (cc, gcc, clang) on PATH"
        return None, info
    info["compiler"] = compiler
    try:
        probe = subprocess.run([compiler, "--version"], capture_output=True,
                               text=True, timeout=30)
        version = probe.stdout.splitlines()[0] if probe.stdout else ""
        digest = hashlib.sha256(b"\0".join(
            [source.read_bytes(), " ".join(FLAGS).encode(),
             compiler.encode(), version.encode()])).hexdigest()[:16]
    except (OSError, subprocess.SubprocessError) as exc:
        info["reason"] = f"cannot run {compiler}: {exc}"
        return None, info
    info["compiler"] = f"{compiler} ({version})" if version else compiler
    name = f"_beam-{digest}.so"
    for directory in (cache_dirs() if dirs is None else dirs):
        target = pathlib.Path(directory) / name
        try:
            os.makedirs(directory, mode=0o700, exist_ok=True)
            if not _own(pathlib.Path(directory)):
                continue  # someone else's directory: neither load nor write
            if target.exists():
                if _own(target):
                    info.update(enabled=True, path=str(target))
                    return target, info
                continue
            fd, tmp = tempfile.mkstemp(dir=directory, suffix=".so.tmp")
            os.close(fd)
        except OSError:
            continue  # read-only or missing: try the next directory
        try:
            compiled = subprocess.run(
                [compiler, *FLAGS, "-o", tmp, str(source)],
                capture_output=True, text=True, timeout=120)
            if compiled.returncode != 0:
                tail = " | ".join(compiled.stderr.strip().splitlines()[-3:])
                info["reason"] = f"compile failed: {tail}"
                return None, info
            os.replace(tmp, target)
        except (OSError, subprocess.SubprocessError) as exc:
            info["reason"] = f"compile failed: {exc}"
            return None, info
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        info.update(enabled=True, path=str(target))
        return target, info
    info["reason"] = "no writable cache directory for the compiled library"
    return None, info


def _bind(path: pathlib.Path):
    """The loaded library, its three entry points typed."""
    # CDLL, not PyDLL: the GIL is released for the whole call.
    lib = ctypes.CDLL(str(path))
    beam, prune = lib.repro_beam_block, lib.repro_occlusion_prune
    eh = lib.repro_escape_hardness
    p, i64 = ctypes.c_void_p, ctypes.c_int64
    beam.argtypes = [ctypes.POINTER(_CGraph), ctypes.POINTER(_CScorer),
                     i64, i64, p, p, i64, i64, i64, i64, p, ctypes.c_int32,
                     p, i64, ctypes.c_double, p, p, p, p, p, p, p, p,
                     ctypes.POINTER(_CRerank)]
    beam.restype = ctypes.c_int
    prune.argtypes = [ctypes.c_int32, p, i64, i64, p, p, i64, i64, p]
    prune.restype = i64
    eh.argtypes = [ctypes.POINTER(_CGraph), p, i64, i64, p, i64, p]
    eh.restype = ctypes.c_int
    return lib


def _load() -> None:
    global _LIB
    if os.environ.get(SWITCH, "") not in ("", "0"):
        _STATUS["reason"] = f"switched off by {SWITCH}"
        return
    path, info = build()
    if path is not None:
        try:
            _LIB = _bind(path)
        except (OSError, AttributeError) as exc:
            info.update(enabled=False, reason=f"cannot load {path}: {exc}")
    _STATUS.update(info)
    if _LIB is None:
        warnings.warn(
            f"repro: the native traversal core is unavailable "
            f"({_STATUS['reason']}); searches run on the Python reference "
            f"executor", RuntimeWarning, stacklevel=2)


def enabled() -> bool:
    return _LIB is not None


# -- calling -----------------------------------------------------------------

_TLS = threading.local()


def _buffer(name: str, count: int, dtype) -> tuple[np.ndarray, int]:
    """This thread's scratch array ``name`` with room for ``count`` items
    (grown, never shrunk) and its address.  Per thread because the call
    below releases the GIL."""
    held = _TLS.__dict__.get(name)
    if held is None or held[0].shape[0] < count:
        array = np.empty(count, dtype=dtype)
        held = _TLS.__dict__[name] = (array, array.ctypes.data)
    return held


def beam_block(graph: Graph, scorer: Scorer, entries: np.ndarray,
               entry_offsets: np.ndarray | None, k: int, ef: int,
               beam_width: int, stamps: np.ndarray, version0: int,
               mask: np.ndarray | None, deadline: float | None,
               collect: bool,
               rerank: tuple[Scorer, int] | None = None) -> list[tuple] | None:
    """Run one search per row of ``scorer.queries`` on the native core.

    ``entries`` are sorted unique int64 ids shared by every row, or — with
    ``entry_offsets`` (int64, rows + 1) — row ``r``'s are
    ``entries[entry_offsets[r]:entry_offsets[r + 1]]``.  Row ``r`` marks
    visits in ``stamps`` with version ``version0 + r`` (the caller reserved
    them).  ``deadline`` is an absolute ``time.perf_counter()`` shared by
    the block; the kernel receives what is left of it in seconds and counts
    on its own monotonic clock.

    ``rerank`` is None or ``(exact, budget)``: an exact :class:`Scorer` over
    the base rows with one prepared query per row, and a shortlist size.
    The kernel then carves each row's top-``budget`` non-excluded scored
    nodes by (distance, id), scores them exactly and returns their exact
    top-``k`` instead of the beam's (``collect`` is ignored).

    Returns one ``(ids, distances, n_hops, frontier_peak, ndc, degraded,
    scored_ids, scored_distances, shortlist, rerank_seconds)`` per row (the
    scored pair None unless ``collect``, the last two 0 unless ``rerank``),
    or None when the kernel refused the input — an id outside the scorer's
    rows, or a duplicate edge that would score a node twice — and the
    reference executor must decide.
    """
    rows, queries = scorer.rows, scorer.queries
    n, n_queries = rows.shape[0], queries.shape[0]
    if stamps.shape[0] < n:
        return None
    c_scorer = _CScorer(scorer.kind, rows.ctypes.data, rows.shape[1],
                        queries.shape[2] if scorer.kind == ADC else 0, 0)
    c_rerank = None
    if rerank is not None:
        exact, budget = rerank
        if exact.queries.shape[0] != n_queries:
            return None
        c_rerank = _CRerank(
            _CScorer(exact.kind, exact.rows.ctypes.data, exact.rows.shape[1],
                     0, exact.queries.ctypes.data),
            exact.rows.shape[0], budget)
        collect = False
    query_bytes = queries.strides[0]
    cand_p = _buffer("cand", 2 * n, np.float64)[1]      # 16-byte items
    res_p = _buffer("res", 2 * max(ef, k), np.float64)[1]
    sel_p = _buffer("sel", beam_width, np.int32)[1]
    step = max(1, _COLLECT_CAP // max(n, 1)) if collect else n_queries
    step = min(step, n_queries)
    ids, ids_p = _buffer("ids", step * k, np.int64)
    dist, dist_p = _buffer("dist", step * k, np.float64)
    counts, counts_p = _buffer("counts", step * 7, np.int64)  # N_COUNTS
    seen = seen_d = seen_p = seen_d_p = None
    if collect or rerank is not None:
        # One row's scored pairs as the re-rank's scratch, else every row's.
        scratch = n if rerank is not None else step * n
        seen, seen_p = _buffer("seen", scratch, np.int64)
        seen_d, seen_d_p = _buffer("seen_d", scratch, np.float64)
    stamps_p = stamps.ctypes.data
    entries_p = entries.ctypes.data
    offsets_p = None if entry_offsets is None else entry_offsets.ctypes.data
    queries_p = queries.ctypes.data
    mask_p, mask_n = (None, 0) if mask is None else (mask.ctypes.data,
                                                     mask.shape[0])
    out: list[tuple] = []
    for start in range(0, n_queries, step):
        count = min(step, n_queries - start)
        c_scorer.queries = queries_p + start * query_bytes
        budget = (float("inf") if deadline is None
                  else deadline - time.perf_counter())
        rc = _LIB.repro_beam_block(
            graph.c, c_scorer, n, count, entries_p,
            None if offsets_p is None else offsets_p + 8 * start,
            entries.shape[0], k, ef, beam_width, stamps_p, version0 + start,
            mask_p, mask_n, budget, cand_p, res_p, sel_p,
            ids_p, dist_p, counts_p, seen_p, seen_d_p, c_rerank)
        if rc != 0:
            return None
        # Rows are views of one copy of the block's outputs: the scratch
        # buffers are reused by this thread's next call.
        block_ids, block_d = ids[:count * k].copy(), dist[:count * k].copy()
        block_counts = counts[:7 * count].tolist()
        for r in range(count):
            (found, hops, peak, ndc, degraded, shortlist,
             rerank_ns) = block_counts[7 * r:7 * r + 7]
            lo = r * k
            scored = scored_d = None
            if collect:
                scored = seen[r * n:r * n + ndc].copy()
                scored_d = seen_d[r * n:r * n + ndc].copy()
            out.append((block_ids[lo:lo + found], block_d[lo:lo + found],
                        hops, peak, ndc, bool(degraded), scored, scored_d,
                        shortlist, 1e-9 * rerank_ns))
    return out


def occlusion_prune(kind: int, rows: np.ndarray, ids: np.ndarray,
                    margin: np.ndarray, max_degree: int) -> list[int] | None:
    """The occlusion rule on the native core: which of ``ids`` survive.

    ``rows`` is the C-contiguous float32 base matrix scored by ``kind`` (one
    of the exact kinds), ``ids`` the int64 candidates ascending by distance
    to the pruned node and ``margin`` (float64) each one's occlusion
    margin; see ``pruning._occlusion_prune``, the reference.  Returns the
    kept ids in candidate order, or None when the kernel refused an id
    outside ``rows``.
    """
    count = ids.shape[0]
    kept, kept_p = _buffer("kept", count, np.int64)
    n_kept = _LIB.repro_occlusion_prune(
        kind, rows.ctypes.data, rows.shape[0], rows.shape[1],
        ids.ctypes.data, margin.ctypes.data, count, max_degree, kept_p)
    if n_kept < 0:
        return None
    return ids[kept[:n_kept]].tolist()


def escape_hardness(graph: Graph, nn_ids: np.ndarray,
                    k: int) -> np.ndarray | None:
    """Algorithm 2 on the native core: the ``(k, k)`` Escape Hardness matrix
    of the rank-ordered int64 ``nn_ids`` over ``graph`` (see
    ``repro.core.escape_hardness.escape_hardness``, the reference), or None
    when the kernel refused them — an id twice, or one the graph has no row
    for — and the reference must decide."""
    if not dense(nn_ids, np.int64, 1):
        return None
    K_max = nn_ids.shape[0]
    cap = 1 << (2 * K_max - 1).bit_length()  # as _beam.c sizes its table
    words = 2 * cap + 2 * K_max * -(-K_max // 64)
    scratch = _buffer("eh", words, np.uint64)[1]
    eh = np.empty((k, k))
    rc = _LIB.repro_escape_hardness(graph.c, nn_ids.ctypes.data, K_max, k,
                                    scratch, words, eh.ctypes.data)
    return eh if rc == 0 else None


_load()
