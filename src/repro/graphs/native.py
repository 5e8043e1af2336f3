"""Loader and specs of the native traversal core (``_beam.c``).

``_beam.c`` is paper Algorithm 1 written once in C, with the compressed
recipe's exact re-rank, the occlusion rule of the prunes, paper
Algorithm 2 (Escape Hardness) and HNSW's bottom-layer insertion beside it;
``_beammodule.c`` wraps it in four CPython entry points.  This module
compiles the pair with whatever C compiler the machine has against the
interpreter's and NumPy's headers, loads the result as the extension module
``repro.graphs._beam``, and exposes its functions as :func:`beam_block`,
:func:`occlusion_prune`, :func:`escape_hardness` and :func:`insert` (their
docstrings are the contract).
:mod:`repro.graphs.search` imports this module — so the build happens at
import, never inside a timed build or a first query — and decides per search
which executor runs: the native one when the library is loaded *and* both
the scorer and the graph can describe themselves as a :class:`Scorer` /
:class:`Graph` spec, else the Python reference loop.  A missing compiler or
missing Python headers are therefore never an error, only a slower search;
:func:`status` says which executor this process is on.

Specs are cached on their owners and rebuilt only when the owner replaces
the arrays they hold, so what a call passes besides them is its query block
and scratch state; the entry points check every array's dtype, shape and
layout in C and answer None for one the kernel does not read.

The extension is content-addressed — ``sha256(sources, flags, compiler
identity, EXT_SUFFIX, include directories, NumPy version)`` is in its file
name, which ends in the interpreter's ``EXT_SUFFIX``, so a library built for
another interpreter is never picked up — and is written with ``os.replace``
into the first writable of ``<package>/_build/``,
``$XDG_CACHE_HOME/repro-native`` (``~/.cache`` by default) and a per-uid
``0700`` directory under the system temp dir, so a second process (a shard
worker, the next test run) loads the file the first one built and two
racing builds cannot tear it.  A file the current uid does not own is never
loaded.

Exactly one switch: ``REPRO_NO_NATIVE=1`` in the environment forces the
reference executor (CI runs the suite both ways).
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import pathlib
import shutil
import subprocess
import sysconfig
import tempfile
import warnings
from typing import NamedTuple

import numpy as np

#: The file compiled: the CPython entry points, which include ``_beam.c``.
SOURCE = pathlib.Path(__file__).with_name("_beammodule.c")
KERNEL = SOURCE.with_name("_beam.c")
MODULE = "repro.graphs._beam"
#: Portable on purpose: no ``-march=native`` (one binary, one answer on every
#: host that loads it), no ``-ffast-math`` (IEEE ordering of NaN/inf), and
#: ISO C so the compiler may not contract ``a*b + c`` into an FMA.
FLAGS = ("-O2", "-shared", "-fPIC", "-std=c11")
HEADERS = ("Python.h", "numpy/arrayobject.h")
SWITCH = "REPRO_NO_NATIVE"

# Scorer kinds, as in _beam.c; the exact ones keyed by ``Metric.value``.
L2, INNER_PRODUCT, COSINE, ADC = range(4)
EXACT_KINDS = {"l2": L2, "ip": INNER_PRODUCT, "cosine": COSINE}


class Graph:
    """What a graph tells the native core about itself.

    ``indptr``/``indices`` are the frozen int32 CSR; ``patch`` is None or
    the overlay prefix of an epoch view as ``(patch_slot, patch_indptr,
    patch_indices)`` (see ``EpochView.native_graph``).  ``excluded`` /
    ``excluded_mask`` are the id set this graph bars from results and the
    same set as a uint8 bitmap: a search handed that very set reuses the
    bitmap instead of rebuilding it.  Immutable once built; the owner caches
    it.

    :meth:`mutable` describes a graph that is still being written instead
    (``AdjacencyStore.native_graph``): the kernel reads node ``u``'s
    out-neighbours in place, ``slab[u, :degree[u]]``, for the first ``n``
    nodes.  The spec holds the two arrays, and the store replaces them with
    new ones when it outgrows them (never resizes in place), so a spec taken
    before a ``grow`` is stale — the kernel answers ``BEAM_BAD_ID`` for a
    node past its ``n`` — but never dangling.
    """

    __slots__ = ("indptr", "indices", "patch", "excluded", "excluded_mask",
                 "slab", "degree", "n")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, patch=None,
                 excluded=None, excluded_mask: np.ndarray | None = None):
        self.indptr, self.indices, self.patch = indptr, indices, patch
        self.excluded = excluded
        self.excluded_mask = excluded_mask
        self.slab = self.degree = None
        self.n = indptr.shape[0] - 1

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


class Scorer(NamedTuple):
    """What a scorer tells the native core about its rows.

    ``kind`` is one of ``L2``/``INNER_PRODUCT``/``COSINE`` with ``rows`` the
    C-contiguous float32 base matrix, or ``ADC`` with ``rows`` the ``(n,
    m)`` uint8 code matrix, whose codes must index the tables it is scored
    against.  Built once per owner and rows array.  A call scores a
    *bound* scorer, the pair ``(scorer, queries)``: ``(B, dim)`` float32
    prepared queries for an exact kind, ``(B, m, ks)`` float64 lookup tables
    for ``ADC``.
    """

    kind: int
    rows: np.ndarray


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
#: The extension's entry points once :func:`_load` bound them (see their
#: docstrings); call them only when :func:`enabled`.
beam_block = occlusion_prune = escape_hardness = insert = None


def status() -> dict:
    """``{enabled, path, compiler, flags, reason}`` of this process's core.

    ``reason`` is None when the native executor is enabled, else why it is
    not (switched off, no compiler, no Python headers, compile error, no
    writable cache).
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


def include_dirs() -> list[str]:
    """The interpreter's and NumPy's header directories, then this package's
    (where ``_beammodule.c`` finds ``_beam.c``)."""
    paths = sysconfig.get_paths()
    return list(dict.fromkeys((paths["include"], paths["platinclude"],
                               np.get_include(), str(KERNEL.parent))))


def compile_args(source: pathlib.Path = SOURCE) -> list[str]:
    """Every compiler argument of the extension but the flags and ``-o``: the
    include flags and the source.  :func:`build` and CI's sanitizer build
    both compile from it."""
    return [*(f"-I{d}" for d in include_dirs()), str(source)]


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
    includes = include_dirs()
    missing = [h for h in HEADERS
               if not any(os.path.isfile(os.path.join(d, h))
                          for d in includes)]
    if missing:
        info["reason"] = (f"no Python headers: {', '.join(missing)} not "
                          f"found in {', '.join(includes)}")
        return None, info
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    try:
        probe = subprocess.run([compiler, "--version"], capture_output=True,
                               text=True, timeout=30)
        version = probe.stdout.splitlines()[0] if probe.stdout else ""
        digest = hashlib.sha256(b"\0".join(
            [source.read_bytes(), KERNEL.read_bytes(), " ".join(FLAGS).encode(),
             compiler.encode(), version.encode(), suffix.encode(),
             *(d.encode() for d in includes),
             np.__version__.encode()])).hexdigest()[:16]
    except (OSError, subprocess.SubprocessError) as exc:
        info["reason"] = f"cannot run {compiler}: {exc}"
        return None, info
    info["compiler"] = f"{compiler} ({version})" if version else compiler
    name = f"_beam-{digest}{suffix}"
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
                [compiler, *FLAGS, *compile_args(source), "-o", tmp],
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


def _import(path: pathlib.Path):
    """The extension module built at ``path``."""
    loader = importlib.machinery.ExtensionFileLoader(MODULE, str(path))
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(MODULE, path, loader=loader))
    loader.exec_module(module)
    return module


def _load() -> None:
    global _LIB, beam_block, occlusion_prune, escape_hardness, insert
    if os.environ.get(SWITCH, "") not in ("", "0"):
        _STATUS["reason"] = f"switched off by {SWITCH}"
        return
    path, info = build()
    if path is not None:
        try:
            _LIB = _import(path)
        except (ImportError, OSError) as exc:
            info.update(enabled=False, reason=f"cannot load {path}: {exc}")
    _STATUS.update(info)
    if _LIB is None:
        warnings.warn(
            f"repro: the native traversal core is unavailable "
            f"({_STATUS['reason']}); searches run on the Python reference "
            f"executor", RuntimeWarning, stacklevel=2)
        return
    beam_block = _LIB.beam_block
    occlusion_prune = _LIB.occlusion_prune
    escape_hardness = _LIB.escape_hardness
    insert = _LIB.insert


def enabled() -> bool:
    return _LIB is not None


_load()
