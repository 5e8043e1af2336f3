/* CPython entry points of the native traversal core: beam_block,
 * occlusion_prune, escape_hardness and insert, the extension module
 * repro.graphs._beam that repro.graphs.native builds and loads.
 *
 * One translation unit with the kernel: _beam.c is included below, not
 * linked, and is not edited for it.  Every array handed to the kernel is
 * checked here first — dtype, ndim, C-contiguity, alignment, lengths — and a
 * layout the kernel does not read answers None, exactly as a kernel refusal
 * does; a scalar out of range or an argument of the wrong kind raises
 * ValueError / TypeError.  The GIL is released around each kernel call, with
 * a reference held to every array it reads — except insert's, which writes
 * the graph other threads' Python reads.  Scratch is allocated per call,
 * and what comes back is fresh arrays that never alias it.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <numpy/arrayobject.h>

#include <stdlib.h>
#include <string.h>

#include "_beam.c"

enum { NO_MEMORY = -3 };  /* beside _beam.c's BEAM_* codes */

static PyObject *perf_counter;  /* time.perf_counter: a deadline's clock */
static PyObject *s_slab, *s_degree, *s_n, *s_indptr, *s_indices, *s_patch;

/* obj as an array the kernel may read: an ndarray of this kind and item size
 * in native byte order, ndim dimensions, C-contiguous and aligned; NULL when
 * it is anything else. */
static PyArrayObject *dense(PyObject *obj, char kind, int itemsize, int ndim)
{
    if (!PyArray_Check(obj))
        return NULL;
    PyArrayObject *a = (PyArrayObject *)obj;
    PyArray_Descr *d = PyArray_DESCR(a);
    if (d->kind != kind || PyArray_ITEMSIZE(a) != itemsize
        || PyArray_NDIM(a) != ndim || !PyArray_ISCARRAY_RO(a)
        || !PyArray_ISNOTSWAPPED(a))
        return NULL;
    return a;
}

#define DIM(a, i) ((int64_t)PyArray_DIM((a), (i)))

static int as_int64(PyObject *obj, int64_t *out)
{
    long long v = PyLong_AsLongLong(obj);
    if (v == -1 && PyErr_Occurred())
        return -1;
    *out = v;
    return 0;
}

/* A native.Graph spec as the kernel's beam_graph.  held[] keeps what the
 * spec held when it was read alive until release_graph, whatever a writer
 * does to the spec meanwhile.  1 = read, 0 = not a layout the kernel walks,
 * -1 = an exception is set. */
typedef struct {
    beam_graph g;
    PyObject *held[4];
} graph_ref;

static void release_graph(graph_ref *ref)
{
    for (int i = 0; i < 4; i++)
        Py_CLEAR(ref->held[i]);
}

static int read_graph(PyObject *spec, graph_ref *ref)
{
    memset(ref, 0, sizeof *ref);
    PyObject *slab_obj = ref->held[0] = PyObject_GetAttr(spec, s_slab);
    if (slab_obj == NULL)
        return -1;
    if (slab_obj != Py_None) {
        /* Graph.mutable: the first n rows of slab / degree. */
        PyObject *degree_obj = ref->held[1] = PyObject_GetAttr(spec, s_degree);
        PyObject *n_obj = PyObject_GetAttr(spec, s_n);
        int64_t n;
        if (degree_obj == NULL || n_obj == NULL) {
            Py_XDECREF(n_obj);
            return -1;
        }
        int rc = as_int64(n_obj, &n);
        Py_DECREF(n_obj);
        if (rc < 0)
            return -1;
        PyArrayObject *slab = dense(slab_obj, 'i', 4, 2);
        PyArrayObject *degree = dense(degree_obj, 'i', 4, 1);
        if (slab == NULL || degree == NULL || n < 0 || n > DIM(slab, 0)
            || n > DIM(degree, 0))
            return 0;
        ref->g.slab = PyArray_DATA(slab);
        ref->g.deg = PyArray_DATA(degree);
        ref->g.stride = DIM(slab, 1);
        ref->g.slab_n = n;
        return 1;
    }
    /* A frozen CSR, with an epoch view's overlay prefix when patch is set. */
    PyObject *indptr_obj = ref->held[1] = PyObject_GetAttr(spec, s_indptr);
    PyObject *indices_obj = ref->held[2] = PyObject_GetAttr(spec, s_indices);
    PyObject *patch = ref->held[3] = PyObject_GetAttr(spec, s_patch);
    if (indptr_obj == NULL || indices_obj == NULL || patch == NULL)
        return -1;
    PyArrayObject *indptr = dense(indptr_obj, 'i', 4, 1);
    PyArrayObject *indices = dense(indices_obj, 'i', 4, 1);
    if (indptr == NULL || indices == NULL || DIM(indptr, 0) < 1)
        return 0;
    ref->g.indptr = PyArray_DATA(indptr);
    ref->g.indices = PyArray_DATA(indices);
    ref->g.n0 = DIM(indptr, 0) - 1;
    if (patch == Py_None)
        return 1;
    if (!PyTuple_Check(patch) || PyTuple_GET_SIZE(patch) != 3)
        return 0;
    PyArrayObject *slot = dense(PyTuple_GET_ITEM(patch, 0), 'i', 4, 1);
    PyArrayObject *patch_indptr = dense(PyTuple_GET_ITEM(patch, 1), 'i', 4, 1);
    PyArrayObject *patch_indices = dense(PyTuple_GET_ITEM(patch, 2), 'i', 4, 1);
    if (slot == NULL || patch_indptr == NULL || patch_indices == NULL)
        return 0;
    ref->g.patch_slot = PyArray_DATA(slot);
    ref->g.patch_n = DIM(slot, 0);
    ref->g.patch_indptr = PyArray_DATA(patch_indptr);
    ref->g.patch_indices = PyArray_DATA(patch_indices);
    return 1;
}

/* A bound scorer — the tuple (native.Scorer(kind, rows), queries) — as the
 * kernel's beam_scorer, with the rows' and the queries' counts.  Borrowed:
 * the call's argument holds the (immutable) tuples and they hold the arrays.
 * 1 = read, 0 = not a layout the kernel scores, -1 = an exception is set. */
static int read_scorer(PyObject *bound, beam_scorer *s, int64_t *n_rows,
                       int64_t *n_queries)
{
    if (!PyTuple_Check(bound) || PyTuple_GET_SIZE(bound) != 2
        || !PyTuple_Check(PyTuple_GET_ITEM(bound, 0))
        || PyTuple_GET_SIZE(PyTuple_GET_ITEM(bound, 0)) != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "a scorer is (native.Scorer(kind, rows), queries)");
        return -1;
    }
    PyObject *spec = PyTuple_GET_ITEM(bound, 0);
    int64_t kind;
    if (as_int64(PyTuple_GET_ITEM(spec, 0), &kind) < 0)
        return -1;
    if (kind < SCORE_L2 || kind > SCORE_ADC) {
        PyErr_Format(PyExc_ValueError, "unknown scorer kind %lld",
                     (long long)kind);
        return -1;
    }
    const int adc = kind == SCORE_ADC;
    /* ADC: (n, m) uint8 codes and (B, m, ks) float64 tables; the codes are
     * trusted to index ks (native.Scorer is built by the quantizer). */
    PyArrayObject *rows = dense(PyTuple_GET_ITEM(spec, 1), adc ? 'u' : 'f',
                                adc ? 1 : 4, 2);
    PyArrayObject *queries = dense(PyTuple_GET_ITEM(bound, 1), 'f',
                                   adc ? 8 : 4, adc ? 3 : 2);
    if (rows == NULL || queries == NULL || DIM(rows, 1) < 1
        || DIM(queries, 1) != DIM(rows, 1) || (adc && DIM(queries, 2) < 1))
        return 0;
    s->kind = (int32_t)kind;
    s->rows = PyArray_DATA(rows);
    s->width = DIM(rows, 1);
    s->ks = adc ? DIM(queries, 2) : 0;
    s->queries = PyArray_DATA(queries);
    *n_rows = DIM(rows, 0);
    *n_queries = DIM(queries, 0);
    return 1;
}

/* rerank = (bound exact scorer, budget) with one query per row of the beam;
 * 1 = read, 0 = refused, -1 = an exception is set. */
static int read_rerank(PyObject *arg, beam_rerank *rr, int64_t n_queries)
{
    int64_t n_exact_queries;
    if (!PyTuple_Check(arg) || PyTuple_GET_SIZE(arg) != 2) {
        PyErr_SetString(PyExc_TypeError, "rerank is (scorer, budget)");
        return -1;
    }
    int ok = read_scorer(PyTuple_GET_ITEM(arg, 0), &rr->exact, &rr->n,
                         &n_exact_queries);
    if (ok <= 0)
        return ok;
    if (as_int64(PyTuple_GET_ITEM(arg, 1), &rr->budget) < 0)
        return -1;
    if (rr->budget < 0) {
        PyErr_SetString(PyExc_ValueError, "rerank budget must be >= 0");
        return -1;
    }
    return rr->exact.kind != SCORE_ADC && n_exact_queries == n_queries;
}

/* A fresh 1-D array of count 8-byte items copied from data. */
static PyObject *copy_out(int type, int64_t count, const void *data)
{
    npy_intp dims[1] = { (npy_intp)count };
    PyObject *a = PyArray_SimpleNew(1, dims, type);
    if (a != NULL && count > 0)
        memcpy(PyArray_DATA((PyArrayObject *)a), data, (size_t)count * 8);
    return a;
}

/* One row's answer: (ids, distances, n_hops, frontier_peak, ndc, degraded,
 * scored_ids, scored_distances, shortlist, rerank_seconds). */
static PyObject *row_tuple(const int64_t *ids, const double *d,
                           const int64_t *counts, const int64_t *scored_ids,
                           const double *scored_d)
{
    PyObject *items[10] = {
        copy_out(NPY_INT64, counts[0], ids),
        copy_out(NPY_FLOAT64, counts[0], d),
        PyLong_FromLongLong(counts[1]),
        PyLong_FromLongLong(counts[2]),
        PyLong_FromLongLong(counts[3]),
        PyBool_FromLong(counts[4] != 0),
        scored_ids ? copy_out(NPY_INT64, counts[3], scored_ids)
                   : Py_NewRef(Py_None),
        scored_ids ? copy_out(NPY_FLOAT64, counts[3], scored_d)
                   : Py_NewRef(Py_None),
        PyLong_FromLongLong(counts[5]),
        PyFloat_FromDouble(1e-9 * (double)counts[6]),
    };
    PyObject *row = PyTuple_New(10);
    for (int i = 0; i < 10; i++)
        if (items[i] == NULL)
            Py_CLEAR(row);
    for (int i = 0; i < 10; i++) {
        if (row != NULL)
            PyTuple_SET_ITEM(row, i, items[i]);
        else
            Py_XDECREF(items[i]);
    }
    return row;
}

PyDoc_STRVAR(beam_block_doc,
"beam_block(graph, scorer, entries, entry_offsets, k, ef, beam_width,\n"
"           stamps, version0, mask, deadline, collect, rerank=None)\n"
"--\n\n"
"Run one search per query row of scorer on the native core.\n\n"
"graph is a native.Graph; scorer a bound scorer (native.Scorer, queries):\n"
"float32 (B, dim) prepared queries for an exact kind, float64 (B, m, ks)\n"
"lookup tables for ADC.  entries are sorted unique int64 ids shared by every\n"
"row or, with entry_offsets (int64, B + 1), row r's are\n"
"entries[entry_offsets[r]:entry_offsets[r + 1]].  Row r marks visits in the\n"
"int32 stamps (at least one slot per scored row) with version version0 + r.\n"
"mask is None or a uint8 bitmap of ids barred from results.  deadline is\n"
"None or an absolute time.perf_counter() shared by the block.\n\n"
"rerank is None or ((native.Scorer, queries), budget): an exact scorer with\n"
"one prepared query per row and a shortlist size; each row's top-budget\n"
"non-excluded scored nodes by (distance, id) are then scored exactly and\n"
"their exact top-k returned (collect is ignored).\n\n"
"Returns one (ids, distances, n_hops, frontier_peak, ndc, degraded,\n"
"scored_ids, scored_distances, shortlist, rerank_seconds) per row (the\n"
"scored pair None unless collect, the last two 0 unless rerank), or None\n"
"when an array is not a layout the kernel reads or the kernel refused the\n"
"input (an id outside the scorer's rows, a duplicate edge that would score\n"
"a node twice) and the reference executor must decide.");

static PyObject *py_beam_block(PyObject *Py_UNUSED(module),
                               PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 12 && nargs != 13) {
        PyErr_SetString(PyExc_TypeError,
                        "beam_block takes 12 or 13 positional arguments");
        return NULL;
    }
    PyObject *rerank_arg = nargs == 13 ? args[12] : Py_None;
    PyObject *out = NULL;
    graph_ref graph;
    beam_scorer scorer;
    beam_rerank rerank;
    int64_t n, n_queries, k, ef, width, version0;
    int ok = read_graph(args[0], &graph);
    if (ok > 0)
        ok = read_scorer(args[1], &scorer, &n, &n_queries);
    if (ok > 0 && (as_int64(args[4], &k) < 0 || as_int64(args[5], &ef) < 0
                   || as_int64(args[6], &width) < 0
                   || as_int64(args[8], &version0) < 0))
        ok = -1;
    if (ok > 0 && (k < 1 || ef < 1 || width < 1 || version0 < 1
                   || version0 > INT32_MAX - n_queries + 1)) {
        PyErr_SetString(PyExc_ValueError, "k, ef, beam_width and version0 "
                        "must be positive, version0 + rows within int32");
        ok = -1;
    }
    memset(&rerank, 0, sizeof rerank);
    if (ok > 0 && rerank_arg != Py_None)
        ok = read_rerank(rerank_arg, &rerank, n_queries);
    PyArrayObject *entries = NULL, *offsets = NULL, *stamps = NULL;
    PyArrayObject *mask = NULL;
    if (ok > 0) {
        entries = dense(args[2], 'i', 8, 1);
        offsets = args[3] == Py_None ? NULL : dense(args[3], 'i', 8, 1);
        stamps = dense(args[7], 'i', 4, 1);
        mask = args[9] == Py_None ? NULL : dense(args[9], 'u', 1, 1);
        if (entries == NULL || stamps == NULL || !PyArray_ISWRITEABLE(stamps)
            || DIM(stamps, 0) < n || (args[3] != Py_None && offsets == NULL)
            || (args[9] != Py_None && mask == NULL))
            ok = 0;
    }
    const int64_t *offs = offsets == NULL ? NULL : PyArray_DATA(offsets);
    if (ok > 0 && offs != NULL) {
        /* Row r reads entries[offs[r]:offs[r + 1]]: every slice in range. */
        ok = DIM(offsets, 0) == n_queries + 1 && offs[0] >= 0
            && offs[n_queries] <= DIM(entries, 0);
        for (int64_t r = 0; ok && r < n_queries; r++)
            ok = offs[r] <= offs[r + 1];
    }
    const int collect = ok > 0 ? PyObject_IsTrue(args[11]) : 0;
    if (collect < 0)
        ok = -1;
    double budget = INFINITY;
    if (ok > 0 && args[10] != Py_None) {
        double deadline = PyFloat_AsDouble(args[10]);
        PyObject *now = deadline == -1.0 && PyErr_Occurred()
            ? NULL : PyObject_CallNoArgs(perf_counter);
        if (now == NULL)
            ok = -1;
        else
            budget = deadline - PyFloat_AsDouble(now);
        Py_XDECREF(now);
    }
    if (ok <= 0) {
        release_graph(&graph);
        return ok < 0 ? NULL : Py_NewRef(Py_None);
    }

    /* Scratch: the candidate heap holds every scored node (n), the result
     * heap max(ef, k); a re-rank or a collecting row scores into n pairs;
     * rows are answered into (B, k) ids / distances and (B, N_COUNTS). */
    const beam_rerank *rr = rerank_arg != Py_None ? &rerank : NULL;
    const int64_t res_n = ef > k ? ef : k;
    const int64_t seen_n = collect || rr != NULL ? n : 0;
    const size_t bytes = (size_t)(n + res_n) * sizeof(beam_item)
        + (size_t)seen_n * 16 + (size_t)(n_queries * k) * 16
        + (size_t)n_queries * N_COUNTS * 8 + (size_t)width * 4;
    char *scratch = malloc(bytes > 0 ? bytes : 1);
    if (scratch == NULL) {
        release_graph(&graph);
        return PyErr_NoMemory();
    }
    beam_item *cand = (beam_item *)scratch, *res = cand + n;
    int64_t *seen_ids = (int64_t *)(res + res_n);
    double *seen_d = (double *)(seen_ids + seen_n);
    int64_t *ids = (int64_t *)(seen_d + seen_n);
    double *dist = (double *)(ids + n_queries * k);
    int64_t *counts = (int64_t *)(dist + n_queries * k);
    int32_t *sel = (int32_t *)(counts + n_queries * N_COUNTS);
    /* A collecting block keeps each row's scored pairs, ndc of them, one
     * row after the other: sum(ndc) pairs, not B * n. */
    const int keep = collect && rr == NULL;
    int64_t *kept_ids = NULL, kept_n = 0, kept_cap = 0;
    double *kept_d = NULL;

    const int64_t *entry = PyArray_DATA(entries);
    const int64_t query_bytes = scorer.kind == SCORE_ADC
        ? scorer.width * scorer.ks * (int64_t)sizeof(double)
        : scorer.width * (int64_t)sizeof(float);
    const char *query0 = scorer.queries;
    const float *exact0 = rr != NULL ? rerank.exact.queries : NULL;
    int rc = BEAM_OK;
    Py_BEGIN_ALLOW_THREADS
    struct timespec t0;
    clock_gettime(CLOCK_MONOTONIC, &t0);
    /* One kernel call per row, all with the GIL released: the deadline is
     * one budget from here, rows in order, as a block call counts it. */
    for (int64_t r = 0; r < n_queries && rc == BEAM_OK; r++) {
        scorer.queries = query0 + r * query_bytes;
        if (rr != NULL)
            rerank.exact.queries = exact0 + r * rerank.exact.width;
        const double left = budget < INFINITY
            ? budget - elapsed_since(&t0) : INFINITY;
        rc = repro_beam_block(
            &graph.g, &scorer, n, 1, offs != NULL ? entry + offs[r] : entry,
            NULL, offs != NULL ? offs[r + 1] - offs[r] : DIM(entries, 0),
            k, ef, width, PyArray_DATA(stamps), (int32_t)(version0 + r),
            mask != NULL ? PyArray_DATA(mask) : NULL,
            mask != NULL ? DIM(mask, 0) : 0, left, cand, res, sel,
            ids + r * k, dist + r * k, counts + r * N_COUNTS,
            seen_n ? seen_ids : NULL, seen_n ? seen_d : NULL, rr);
        if (rc != BEAM_OK || !keep)
            continue;
        const int64_t ndc = counts[r * N_COUNTS + 3];
        if (kept_n + ndc > kept_cap) {
            kept_cap = 2 * (kept_n + ndc);
            int64_t *grown_ids = realloc(kept_ids, (size_t)kept_cap * 8);
            kept_ids = grown_ids != NULL ? grown_ids : kept_ids;
            double *grown_d = realloc(kept_d, (size_t)kept_cap * 8);
            kept_d = grown_d != NULL ? grown_d : kept_d;
            if (grown_ids == NULL || grown_d == NULL) {
                rc = NO_MEMORY;
                continue;
            }
        }
        memcpy(kept_ids + kept_n, seen_ids, (size_t)ndc * 8);
        memcpy(kept_d + kept_n, seen_d, (size_t)ndc * 8);
        kept_n += ndc;
    }
    Py_END_ALLOW_THREADS
    release_graph(&graph);

    if (rc == NO_MEMORY) {
        PyErr_NoMemory();
    } else if (rc != BEAM_OK) {
        out = Py_NewRef(Py_None);
    } else if ((out = PyList_New(n_queries)) != NULL) {
        int64_t lo = 0;
        for (int64_t r = 0; r < n_queries; r++) {
            const int64_t *row_counts = counts + r * N_COUNTS;
            PyObject *row = row_tuple(ids + r * k, dist + r * k, row_counts,
                                      keep ? kept_ids + lo : NULL,
                                      keep ? kept_d + lo : NULL);
            if (row == NULL) {
                Py_CLEAR(out);
                break;
            }
            PyList_SET_ITEM(out, r, row);
            lo += row_counts[3];
        }
    }
    free(kept_ids);
    free(kept_d);
    free(scratch);
    return out;
}

PyDoc_STRVAR(occlusion_prune_doc,
"occlusion_prune(kind, rows, ids, margin, max_degree)\n"
"--\n\n"
"The occlusion rule on the native core: which of ids survive.\n\n"
"rows is the C-contiguous float32 base matrix scored by kind (one of the\n"
"exact kinds), ids the int64 candidates ascending by distance to the pruned\n"
"node and margin (float64, one per candidate) each one's occlusion margin;\n"
"see pruning._occlusion_prune, the reference.  Returns the kept ids in\n"
"candidate order, or None when an array is not a layout the kernel reads\n"
"or the kernel refused an id outside rows.");

static PyObject *py_occlusion_prune(PyObject *Py_UNUSED(module),
                                    PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError,
                        "occlusion_prune takes 5 positional arguments");
        return NULL;
    }
    int64_t kind, max_degree;
    if (as_int64(args[0], &kind) < 0 || as_int64(args[4], &max_degree) < 0)
        return NULL;
    if (kind < SCORE_L2 || kind > SCORE_COSINE) {
        PyErr_Format(PyExc_ValueError, "not an exact scorer kind: %lld",
                     (long long)kind);
        return NULL;
    }
    PyArrayObject *rows = dense(args[1], 'f', 4, 2);
    PyArrayObject *ids = dense(args[2], 'i', 8, 1);
    PyArrayObject *margin = dense(args[3], 'f', 8, 1);
    if (rows == NULL || ids == NULL || margin == NULL
        || DIM(margin, 0) != DIM(ids, 0))
        Py_RETURN_NONE;
    const int64_t count = DIM(ids, 0);
    const int64_t *id = PyArray_DATA(ids);
    int64_t *kept = malloc((size_t)(count > 0 ? count : 1) * 8);
    if (kept == NULL)
        return PyErr_NoMemory();
    int64_t n_kept;
    Py_BEGIN_ALLOW_THREADS
    n_kept = repro_occlusion_prune((int32_t)kind, PyArray_DATA(rows),
                                   DIM(rows, 0), DIM(rows, 1), id,
                                   PyArray_DATA(margin), count, max_degree,
                                   kept);
    Py_END_ALLOW_THREADS
    PyObject *out = n_kept < 0 ? Py_NewRef(Py_None) : PyList_New(n_kept);
    for (int64_t i = 0; out != Py_None && out != NULL && i < n_kept; i++) {
        PyObject *v = PyLong_FromLongLong(id[kept[i]]);
        if (v == NULL) {
            Py_CLEAR(out);
            break;
        }
        PyList_SET_ITEM(out, i, v);
    }
    free(kept);
    return out;
}

PyDoc_STRVAR(escape_hardness_doc,
"escape_hardness(graph, nn_ids, k)\n"
"--\n\n"
"Algorithm 2 on the native core: the (k, k) float64 Escape Hardness matrix\n"
"of the rank-ordered int64 nn_ids over graph (a native.Graph; see\n"
"repro.core.escape_hardness.escape_hardness, the reference), or None when\n"
"the kernel refused them — an id twice, or one the graph has no row for —\n"
"or they are not a layout it reads, and the reference must decide.");

static PyObject *py_escape_hardness(PyObject *Py_UNUSED(module),
                                    PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError,
                        "escape_hardness takes 3 positional arguments");
        return NULL;
    }
    int64_t k;
    if (as_int64(args[2], &k) < 0)
        return NULL;
    PyArrayObject *nn = dense(args[1], 'i', 8, 1);
    if (nn == NULL || k < 1 || k > DIM(nn, 0))
        Py_RETURN_NONE;
    graph_ref graph;
    int ok = read_graph(args[0], &graph);
    if (ok <= 0) {
        release_graph(&graph);
        return ok < 0 ? NULL : Py_NewRef(Py_None);
    }
    const int64_t K_max = DIM(nn, 0);
    int64_t cap = 2;  /* as repro_escape_hardness sizes its table */
    while (cap < 2 * K_max)
        cap <<= 1;
    const int64_t words = 2 * cap + 2 * K_max * ((K_max + 63) / 64);
    uint64_t *scratch = malloc((size_t)words * 8);
    npy_intp dims[2] = { (npy_intp)k, (npy_intp)k };
    PyObject *eh = scratch == NULL ? PyErr_NoMemory()
        : PyArray_SimpleNew(2, dims, NPY_FLOAT64);
    if (eh != NULL) {
        int rc;
        Py_BEGIN_ALLOW_THREADS
        rc = repro_escape_hardness(&graph.g, PyArray_DATA(nn), K_max, k,
                                   scratch, words,
                                   PyArray_DATA((PyArrayObject *)eh));
        Py_END_ALLOW_THREADS
        if (rc != BEAM_OK)
            Py_SETREF(eh, Py_NewRef(Py_None));
    }
    release_graph(&graph);
    free(scratch);
    return eh;
}

/* obj as an array the kernel may write: dense() and writeable. */
static PyArrayObject *writable(PyObject *obj, char kind, int itemsize, int ndim)
{
    PyArrayObject *a = dense(obj, kind, itemsize, ndim);
    return a != NULL && PyArray_ISWRITEABLE(a) ? a : NULL;
}

PyDoc_STRVAR(insert_doc,
"insert(rows, slab, eh, degree, base_count, n, first, last, entries, ef,\n"
"       cap, slack, pool_cap, stamps, version0, removed)\n"
"--\n\n"
"Link rows first..last-1 into the adjacency slab in place, in order: HNSW's\n"
"bottom-layer insertion on the native core (BottomLayer._insert_bottom, row\n"
"by row, is the reference).\n\n"
"rows is the native.Scorer of the base matrix (an exact kind); slab (int32)\n"
"and eh (float64) are the store's (capacity, width) arrays, degree and\n"
"base_count its int32 counts, n its node count (at most the rows').  Row r\n"
"searches at width ef from the sorted unique int64 entries (visits marked\n"
"in the int32 stamps with version version0 + r - first), drops itself and\n"
"the ids set in removed (None or a uint8 bitmap), keeps at most pool_cap\n"
"candidates and selects cap of them by rng_prune_backfill; each selected v\n"
"gets the edge v -> r, and its base list is re-pruned to cap when it holds\n"
"more than cap + slack.  The GIL is held throughout.\n\n"
"Returns (linked, ndc, touched): how many rows were linked, the distances\n"
"computed for them, and the int32 node of every mutation in order (r, each\n"
"v its edge changed, v again after its re-prune).  linked is short of\n"
"last - first when the kernel refused a row — an id it does not read, a\n"
"row without the slots — before writing any of it.  None when an array is\n"
"not a layout the kernel writes: nothing was written.");

static PyObject *py_insert(PyObject *Py_UNUSED(module),
                           PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 16) {
        PyErr_SetString(PyExc_TypeError,
                        "insert takes 16 positional arguments");
        return NULL;
    }
    int64_t kind, n, first, last, ef, cap, slack, pool_cap, version0;
    PyObject *spec = args[0];
    if (!PyTuple_Check(spec) || PyTuple_GET_SIZE(spec) != 2) {
        PyErr_SetString(PyExc_TypeError, "rows is native.Scorer(kind, rows)");
        return NULL;
    }
    if (as_int64(PyTuple_GET_ITEM(spec, 0), &kind) < 0
        || as_int64(args[5], &n) < 0 || as_int64(args[6], &first) < 0
        || as_int64(args[7], &last) < 0 || as_int64(args[9], &ef) < 0
        || as_int64(args[10], &cap) < 0 || as_int64(args[11], &slack) < 0
        || as_int64(args[12], &pool_cap) < 0
        || as_int64(args[14], &version0) < 0)
        return NULL;
    if (kind < SCORE_L2 || kind > SCORE_COSINE || ef < 1 || cap < 0
        || slack < 0 || pool_cap < 1 || first < 0 || first > last
        || version0 < 1 || version0 > INT32_MAX - (last - first) + 1) {
        PyErr_SetString(PyExc_ValueError, "insert: an exact kind, ef and "
                        "pool_cap >= 1, cap and slack >= 0, 0 <= first <= "
                        "last, version0 >= 1 and its rows within int32");
        return NULL;
    }
    PyArrayObject *rows = dense(PyTuple_GET_ITEM(spec, 1), 'f', 4, 2);
    PyArrayObject *slab = writable(args[1], 'i', 4, 2);
    PyArrayObject *eh = writable(args[2], 'f', 8, 2);
    PyArrayObject *degree = writable(args[3], 'i', 4, 1);
    PyArrayObject *nbase = writable(args[4], 'i', 4, 1);
    PyArrayObject *entries = dense(args[8], 'i', 8, 1);
    PyArrayObject *stamps = writable(args[13], 'i', 4, 1);
    PyArrayObject *mask = args[15] == Py_None ? NULL
        : dense(args[15], 'u', 1, 1);
    if (rows == NULL || slab == NULL || eh == NULL || degree == NULL
        || nbase == NULL || entries == NULL || stamps == NULL
        || (args[15] != Py_None && mask == NULL) || DIM(rows, 1) < 1
        || DIM(eh, 0) != DIM(slab, 0) || DIM(eh, 1) != DIM(slab, 1)
        || n > DIM(slab, 0) || n > DIM(degree, 0) || n > DIM(nbase, 0)
        || n > DIM(rows, 0) || last > n || DIM(entries, 0) < 1
        || DIM(stamps, 0) < DIM(rows, 0))
        Py_RETURN_NONE;

    const int64_t n_rows = DIM(rows, 0), stride = DIM(slab, 1);
    const size_t bytes = insert_scratch_bytes(n_rows, ef, stride, cap);
    char *block = malloc(bytes);
    int32_t *touched = malloc((size_t)((last - first) * (1 + 2 * cap) + 1)
                              * sizeof(int32_t));
    if (block == NULL || touched == NULL) {
        free(block);
        free(touched);
        return PyErr_NoMemory();
    }
    insert_scratch scratch;
    insert_scratch_at(&scratch, block, n_rows, ef, stride, cap);
    const slab_rows g = {
        .slab = PyArray_DATA(slab), .eh = PyArray_DATA(eh),
        .deg = PyArray_DATA(degree), .nbase = PyArray_DATA(nbase),
        .stride = stride, .n = n,
    };
    const beam_scorer scorer = {
        .kind = (int32_t)kind, .rows = PyArray_DATA(rows),
        .width = DIM(rows, 1),
    };
    int64_t ndc = 0, n_touched = 0;
    const int64_t linked = repro_insert(
        &g, &scorer, n_rows, first, last, PyArray_DATA(entries),
        DIM(entries, 0), ef, cap, slack, pool_cap, PyArray_DATA(stamps),
        (int32_t)version0, mask != NULL ? PyArray_DATA(mask) : NULL,
        mask != NULL ? DIM(mask, 0) : 0, &scratch, &ndc, touched, &n_touched);
    free(block);
    npy_intp dims[1] = { (npy_intp)n_touched };
    PyObject *stream = PyArray_SimpleNew(1, dims, NPY_INT32);
    if (stream != NULL && n_touched > 0)
        memcpy(PyArray_DATA((PyArrayObject *)stream), touched,
               (size_t)n_touched * sizeof(int32_t));
    free(touched);
    return stream == NULL ? NULL
        : Py_BuildValue("LLN", (long long)linked, (long long)ndc, stream);
}

static PyMethodDef methods[] = {
    {"beam_block", (PyCFunction)(void (*)(void))py_beam_block, METH_FASTCALL,
     beam_block_doc},
    {"occlusion_prune", (PyCFunction)(void (*)(void))py_occlusion_prune,
     METH_FASTCALL, occlusion_prune_doc},
    {"escape_hardness", (PyCFunction)(void (*)(void))py_escape_hardness,
     METH_FASTCALL, escape_hardness_doc},
    {"insert", (PyCFunction)(void (*)(void))py_insert, METH_FASTCALL,
     insert_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT, "_beam",
    "The native traversal core (_beam.c) as a CPython extension module.",
    -1, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__beam(void)
{
    import_array();
    PyObject *time = PyImport_ImportModule("time");
    if (time == NULL)
        return NULL;
    perf_counter = PyObject_GetAttrString(time, "perf_counter");
    Py_DECREF(time);
    s_slab = PyUnicode_InternFromString("slab");
    s_degree = PyUnicode_InternFromString("degree");
    s_n = PyUnicode_InternFromString("n");
    s_indptr = PyUnicode_InternFromString("indptr");
    s_indices = PyUnicode_InternFromString("indices");
    s_patch = PyUnicode_InternFromString("patch");
    if (perf_counter == NULL || s_slab == NULL || s_degree == NULL
        || s_n == NULL || s_indptr == NULL || s_indices == NULL
        || s_patch == NULL)
        return NULL;
    return PyModule_Create(&module_def);
}
