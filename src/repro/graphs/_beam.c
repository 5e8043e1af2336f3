/* Native executor of paper Algorithm 1 (greedy beam search) over a frozen CSR,
 * an epoch view or the mutable adjacency slab, of the compressed recipe's
 * exact re-rank after an ADC beam (rerank_row), of the occlusion rule behind
 * every prune (repro_occlusion_prune), of paper Algorithm 2, Escape
 * Hardness (repro_escape_hardness) and of HNSW's bottom-layer insertion,
 * written into the adjacency slab in place (repro_insert, at the end).
 *
 * The reference executor is repro.graphs.search.beam_search (Python); this
 * file is the same algorithm, not a second one: same candidate order
 * (distance, then id), same eviction tie rule in the result heap, same
 * deadline test before every pop, same NDC accounting.  The re-rank's
 * reference is repro.quantization.searcher.rerank_block, the prune's
 * pruning._occlusion_prune, EH's the incremental loop in
 * repro.core.escape_hardness and the insert's
 * repro.graphs.insertion.BottomLayer._insert_bottom.  Each pair is tested
 * differentially (tests/test_native.py, tests/test_escape_hardness.py,
 * tests/test_insertion.py).  This file is plain
 * C with no Python in it: _beammodule.c includes it beside the CPython entry
 * points that check and pass the arrays, and repro.graphs.native builds the
 * pair as one extension module with `cc -O2 -shared -fPIC -std=c11`.
 *
 * No -ffast-math and ISO mode (no FMA contraction): NaN/inf ordering stays
 * IEEE and one binary gives one answer on every host that loads it.  The
 * dot/L2 loops keep eight explicit partial sums so -O2 may still vectorise
 * them without reassociating (gcc -O2 -fopt-info-vec: "loop vectorized
 * using 16 byte vectors" for both, so the portable build is already SSE).
 */
#ifndef _POSIX_C_SOURCE  /* Python.h, included first, sets a later one */
#define _POSIX_C_SOURCE 199309L
#endif

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <time.h>

enum { SCORE_L2 = 0, SCORE_IP = 1, SCORE_COSINE = 2, SCORE_ADC = 3 };

enum {
    BEAM_OK = 0,
    BEAM_BAD_ID = -1,    /* an entry or neighbour id outside [0, n); EH: an NN id twice or without a row */
    BEAM_OVERFLOW = -2,  /* a node scored twice (duplicate edge): scratch is sized for once; EH: scratch too small */
};

/* Frozen CSR plus the overlay prefix of an epoch view (EpochView.neighbors):
 * a node with a patch row reads it, a clean node below the horizon reads the
 * CSR, a node at or past the horizon without a patch has no out-edges.
 * Or, when slab is not NULL, the mutable graph read in place
 * (AdjacencyStore): node u's out-neighbours are slab[u * stride ..][:deg[u]]. */
typedef struct {
    const int32_t *indptr;
    const int32_t *indices;
    int64_t n0;                 /* epoch horizon = rows of the CSR */
    const int32_t *patch_slot;  /* per node: row of the patch CSR, -1 = clean; NULL = no overlay */
    int64_t patch_n;            /* length of patch_slot */
    const int32_t *patch_indptr;
    const int32_t *patch_indices;
    const int32_t *slab;        /* (slab_n, stride) neighbour rows; NULL = the CSR above */
    const int32_t *deg;         /* per node: how much of its slab row is live */
    int64_t stride;
    int64_t slab_n;
} beam_graph;

typedef struct {
    int32_t kind;         /* SCORE_* */
    const void *rows;     /* float32 (n, width) base matrix | uint8 (n, width) PQ codes */
    int64_t width;        /* dim | m */
    int64_t ks;           /* ADC: centroids per subspace */
    const void *queries;  /* float32 (B, dim) prepared queries | float64 (B, m, ks) ADC tables */
} beam_scorer;

/* The compressed recipe's last stage: what an ADC beam scored, cut to the
 * `budget` best and re-scored by an exact scorer over the base rows. */
typedef struct {
    beam_scorer exact;    /* SCORE_L2/IP/COSINE, one prepared query per row */
    int64_t n;            /* rows of exact.rows */
    int64_t budget;       /* shortlist size */
} beam_rerank;

/* Per-row counts: {n_results, n_hops, frontier_peak, ndc, degraded,
 * shortlist size, re-rank nanoseconds}. */
enum { N_COUNTS = 7 };

typedef struct {
    double d;
    int32_t id;
} beam_item;

/* Heap orders.  MIN: the candidate heap, closest first, ties by smaller id
 * (heapq on (distance, id) tuples).  WORST: the result heap, farthest on
 * top, ties by smaller id (heapq on (-distance, id)): what the reference
 * evicts first.  MAX: plain descending (distance, id), for the final sort. */
enum { ORDER_MIN, ORDER_WORST, ORDER_MAX };

static inline int before(const beam_item *a, const beam_item *b, int order)
{
    if (a->d != b->d)
        return order == ORDER_MIN ? a->d < b->d : a->d > b->d;
    return order == ORDER_MAX ? a->id > b->id : a->id < b->id;
}

static inline void sift_up(beam_item *heap, int64_t pos, int order)
{
    beam_item item = heap[pos];
    while (pos > 0) {
        int64_t parent = (pos - 1) >> 1;
        if (!before(&item, &heap[parent], order))
            break;
        heap[pos] = heap[parent];
        pos = parent;
    }
    heap[pos] = item;
}

static inline void sift_down(beam_item *heap, int64_t size, int64_t pos, int order)
{
    beam_item item = heap[pos];
    for (;;) {
        int64_t child = 2 * pos + 1;
        if (child >= size)
            break;
        if (child + 1 < size && before(&heap[child + 1], &heap[child], order))
            child++;
        if (!before(&heap[child], &item, order))
            break;
        heap[pos] = heap[child];
        pos = child;
    }
    heap[pos] = item;
}

static inline void swap_items(beam_item *a, beam_item *b)
{
    beam_item t = *a;
    *a = *b;
    *b = t;
}

/* Reorder items[0..size) so that items[0..count) are the count smallest by
 * (distance, id), in no particular order: quickselect, median-of-three. */
static void select_smallest(beam_item *items, int64_t size, int64_t count)
{
    int64_t lo = 0, hi = size;  /* items[..lo) <= items[lo..hi) <= items[hi..) */
    while (lo < count && count < hi && hi - lo > 1) {
        int64_t mid = lo + (hi - lo) / 2, last = hi - 1;
        if (before(&items[mid], &items[lo], ORDER_MIN))
            swap_items(&items[mid], &items[lo]);
        if (before(&items[last], &items[lo], ORDER_MIN))
            swap_items(&items[last], &items[lo]);
        if (before(&items[mid], &items[last], ORDER_MIN))
            swap_items(&items[mid], &items[last]);
        const beam_item pivot = items[last];  /* the median of the three */
        int64_t p = lo;
        for (int64_t i = lo; i < last; i++)
            if (before(&items[i], &pivot, ORDER_MIN))
                swap_items(&items[i], &items[p++]);
        swap_items(&items[p], &items[last]);
        if (p < count)
            lo = p + 1;
        else
            hi = p;
    }
}

/* items[0..size) ascending by (distance, id): heapsort in place. */
static void sort_ascending(beam_item *items, int64_t size)
{
    for (int64_t i = size / 2 - 1; i >= 0; i--)
        sift_down(items, size, i, ORDER_MAX);
    for (int64_t end = size - 1; end > 0; end--) {
        beam_item top = items[0];
        items[0] = items[end];
        items[end] = top;
        sift_down(items, end, 0, ORDER_MAX);
    }
}

static inline float dot8(const float *a, const float *b, int64_t d)
{
    float s0 = 0, s1 = 0, s2 = 0, s3 = 0, s4 = 0, s5 = 0, s6 = 0, s7 = 0;
    int64_t i = 0;
    for (; i + 8 <= d; i += 8) {
        s0 += a[i] * b[i];
        s1 += a[i + 1] * b[i + 1];
        s2 += a[i + 2] * b[i + 2];
        s3 += a[i + 3] * b[i + 3];
        s4 += a[i + 4] * b[i + 4];
        s5 += a[i + 5] * b[i + 5];
        s6 += a[i + 6] * b[i + 6];
        s7 += a[i + 7] * b[i + 7];
    }
    float s = ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7));
    for (; i < d; i++)
        s += a[i] * b[i];
    return s;
}

static inline float l2sq8(const float *a, const float *b, int64_t d)
{
    float s0 = 0, s1 = 0, s2 = 0, s3 = 0, s4 = 0, s5 = 0, s6 = 0, s7 = 0;
    int64_t i = 0;
    for (; i + 8 <= d; i += 8) {
        float e0 = a[i] - b[i], e1 = a[i + 1] - b[i + 1];
        float e2 = a[i + 2] - b[i + 2], e3 = a[i + 3] - b[i + 3];
        float e4 = a[i + 4] - b[i + 4], e5 = a[i + 5] - b[i + 5];
        float e6 = a[i + 6] - b[i + 6], e7 = a[i + 7] - b[i + 7];
        s0 += e0 * e0;
        s1 += e1 * e1;
        s2 += e2 * e2;
        s3 += e3 * e3;
        s4 += e4 * e4;
        s5 += e5 * e5;
        s6 += e6 * e6;
        s7 += e7 * e7;
    }
    float s = ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7));
    for (; i < d; i++) {
        float e = a[i] - b[i];
        s += e * e;
    }
    return s;
}

/* Distance of base row `id` to one query: float32 arithmetic for the exact
 * metrics (as DistanceComputer.to_query), float64 table sums in subspace
 * order for ADC (as ADCComputer.block_to_queries). */
static inline double score(const beam_scorer *s, const void *query, int32_t id)
{
    if (s->kind == SCORE_ADC) {
        const uint8_t *code = (const uint8_t *)s->rows + (int64_t)id * s->width;
        const double *table = (const double *)query;
        double acc = table[code[0]];
        for (int64_t j = 1; j < s->width; j++)
            acc += table[j * s->ks + code[j]];
        return acc;
    }
    const float *row = (const float *)s->rows + (int64_t)id * s->width;
    const float *q = (const float *)query;
    if (s->kind == SCORE_L2)
        return l2sq8(row, q, s->width);
    if (s->kind == SCORE_IP)
        return -dot8(row, q, s->width);
    return 1.0f - dot8(row, q, s->width);
}

/* Out-neighbours of u; -1 when the slab has no valid row for it (a spec that
 * predates a grow, a degree past the row). */
static inline int64_t neighbors(const beam_graph *g, int32_t u, const int32_t **out)
{
    if (g->slab != NULL) {
        if (u >= g->slab_n || g->deg[u] < 0 || g->deg[u] > g->stride)
            return -1;
        *out = g->slab + (int64_t)u * g->stride;
        return g->deg[u];
    }
    if (g->patch_slot != NULL && u < g->patch_n && g->patch_slot[u] >= 0) {
        int32_t slot = g->patch_slot[u];
        *out = g->patch_indices + g->patch_indptr[slot];
        return g->patch_indptr[slot + 1] - g->patch_indptr[slot];
    }
    if (u < g->n0) {
        *out = g->indices + g->indptr[u];
        return g->indptr[u + 1] - g->indptr[u];
    }
    return 0;
}

static inline double elapsed_since(const struct timespec *t0)
{
    struct timespec now;
    clock_gettime(CLOCK_MONOTONIC, &now);
    return (double)(now.tv_sec - t0->tv_sec) + 1e-9 * (double)(now.tv_nsec - t0->tv_nsec);
}

typedef struct {
    const beam_graph *graph;
    const beam_scorer *scorer;
    const void *query;
    int64_t n;               /* scorer rows = stamp slots = scratch capacity */
    int64_t ef;
    int64_t beam_width;
    int32_t *stamps;
    int32_t version;
    const uint8_t *excluded; /* bitmap, NULL = nothing excluded */
    int64_t excluded_n;
    beam_item *cand;         /* min-heap of unexpanded candidates, capacity n */
    int64_t cand_n;
    beam_item *res;          /* heap of the ef best non-excluded, worst on top */
    int64_t res_n;
    double bound;            /* res[0].d once the result heap is full */
    double admit;            /* a scored node enters the heaps iff d < admit */
    int64_t ndc;
    int64_t *collect_ids;    /* every (id, distance) scored, in order; NULL = off */
    double *collect_d;
} beam_state;

static inline int is_excluded(const beam_state *st, int32_t v)
{
    return st->excluded != NULL && v < st->excluded_n && st->excluded[v];
}

/* Score node v and fold it into both heaps. */
static inline int visit(beam_state *st, int32_t v)
{
    if (st->ndc >= st->n)
        return BEAM_OVERFLOW;
    double d = score(st->scorer, st->query, v);
    if (st->collect_ids != NULL) {
        st->collect_ids[st->ndc] = v;
        st->collect_d[st->ndc] = d;
    }
    st->ndc++;
    if (!(d < st->admit))
        return BEAM_OK;
    beam_item item = { d, v };
    st->cand[st->cand_n] = item;
    sift_up(st->cand, st->cand_n++, ORDER_MIN);
    if (is_excluded(st, v))
        return BEAM_OK;  /* tombstones navigate, never surface */
    if (st->res_n < st->ef) {
        st->res[st->res_n] = item;
        sift_up(st->res, st->res_n++, ORDER_WORST);
        if (st->res_n < st->ef)
            return BEAM_OK;
    } else if (before(&st->res[0], &item, ORDER_WORST)) {
        st->res[0] = item;
        sift_down(st->res, st->res_n, 0, ORDER_WORST);
    } else {
        return BEAM_OK;
    }
    st->bound = st->res[0].d;
    if (st->beam_width == 1)
        st->admit = st->bound;  /* the sequential loop prunes on the live bound */
    return BEAM_OK;
}

/* One query; fills counts[0..5). */
static int beam_one(beam_state *st, const int64_t *entries, int64_t n_entries,
                    int64_t k, int32_t *sel, double budget,
                    const struct timespec *t0, int64_t *out_ids,
                    double *out_d, int64_t *counts)
{
    const int64_t n = st->n;
    int32_t *stamps = st->stamps;
    const int32_t version = st->version;
    const int64_t width = st->beam_width;
    int rc;

    st->cand_n = st->res_n = st->ndc = 0;
    st->bound = st->admit = INFINITY;
    for (int64_t i = 0; i < n_entries; i++) {
        if (entries[i] < 0 || entries[i] >= n)
            return BEAM_BAD_ID;
        stamps[entries[i]] = version;
    }
    /* Every entry seeds both heaps whatever the bound (the reference pushes
     * them all, then pops the result heap down to ef). */
    for (int64_t i = 0; i < n_entries; i++) {
        st->admit = INFINITY;
        rc = visit(st, (int32_t)entries[i]);
        if (rc != BEAM_OK)
            return rc;
    }
    st->admit = st->res_n >= st->ef ? st->bound : INFINITY;

    int64_t n_hops = 0, degraded = 0, frontier_peak = st->cand_n;
    while (st->cand_n > 0) {
        if (budget < INFINITY && elapsed_since(t0) > budget) {
            degraded = 1;
            break;
        }
        if (st->cand_n > frontier_peak)
            frontier_peak = st->cand_n;
        /* One round: pop up to beam_width candidates inside the bound as it
         * stands now; width 1 is the sequential pop. */
        const double round_bound = st->res_n >= st->ef ? st->bound : INFINITY;
        int64_t n_sel = 0;
        while (n_sel < width && st->cand_n > 0 && st->cand[0].d <= round_bound) {
            sel[n_sel++] = st->cand[0].id;
            st->cand[0] = st->cand[--st->cand_n];
            if (st->cand_n > 0)
                sift_down(st->cand, st->cand_n, 0, ORDER_MIN);
        }
        if (n_sel == 0)
            break;
        n_hops += n_sel;
        if (width != 1)
            st->admit = round_bound;  /* lock-step rounds admit on the pre-round bound */
        for (int64_t s = 0; s < n_sel; s++) {
            const int32_t *neigh;
            int64_t degree = neighbors(st->graph, sel[s], &neigh);
            if (degree < 0)
                return BEAM_BAD_ID;
            for (int64_t j = 0; j < degree; j++) {
                int32_t v = neigh[j];
                if (v < 0 || v >= n)
                    return BEAM_BAD_ID;
                if (stamps[v] == version)
                    continue;
                /* The sequential loop masks a neighbour list before it marks
                 * it, so a duplicate edge is scored twice there; a round of
                 * the wide beam collapses duplicates. */
                if (width != 1)
                    stamps[v] = version;
                rc = visit(st, v);
                if (rc != BEAM_OK)
                    return rc;
            }
            if (width == 1)
                for (int64_t j = 0; j < degree; j++)
                    stamps[neigh[j]] = version;
        }
    }

    beam_item *res = st->res;
    const int64_t size = st->res_n;
    sort_ascending(res, size);
    int64_t n_results = size < k ? size : k;
    for (int64_t i = 0; i < n_results; i++) {
        out_ids[i] = res[i].id;
        out_d[i] = res[i].d;
    }
    counts[0] = n_results;
    counts[1] = n_hops;
    counts[2] = frontier_peak;
    counts[3] = st->ndc;
    counts[4] = degraded;
    return BEAM_OK;
}

/* Whether a shortlisted node (exact distance e, ADC pair c) ranks before
 * another (f, g): by exact distance, ties by (ADC distance, id) — which is
 * the shortlist's own order, so this is a stable sort by exact distance. */
static inline int ranks_before(double e, const beam_item *c, double f,
                               const beam_item *g)
{
    return e != f ? e < f : before(c, g, ORDER_MIN);
}

/* The re-rank of one row, after beam_one (which leaves the scored pairs in
 * st->collect_*, and the candidate and result heaps free for scratch).
 * Keeps the rr->budget smallest non-excluded scored pairs by (ADC distance,
 * id) — what a lexsort of the scored set cut at the budget keeps, a node
 * scored twice included twice — scores them with the exact scorer in float32
 * and writes the k best in ranks_before order, the order of a stable argsort
 * of the exact distances over the sorted shortlist.  Overwrites counts[0] and
 * fills counts[5..7); a shortlist of 0 (nothing servable was scored) writes
 * no result and leaves the fallback scan to the caller. */
static int rerank_row(beam_state *st, const beam_rerank *rr, const void *query,
                      int64_t k, int64_t *out_ids, double *out_d,
                      int64_t *counts)
{
    beam_item *shortlist = st->cand;  /* capacity n >= ndc */
    int64_t size = 0;
    for (int64_t i = 0; i < st->ndc; i++) {
        int32_t v = (int32_t)st->collect_ids[i];
        if (!is_excluded(st, v)) {
            beam_item item = { st->collect_d[i], v };
            shortlist[size++] = item;
        }
    }
    if (size > rr->budget) {
        select_smallest(shortlist, size, rr->budget);
        size = rr->budget;
    }

    struct timespec t0;
    clock_gettime(CLOCK_MONOTONIC, &t0);
    /* Insertion into the k best so far, ascending: their ADC pairs in
     * best[], their exact distances in out_d[]. */
    beam_item *best = st->res;        /* capacity >= k */
    int64_t kept = 0;
    for (int64_t i = 0; i < size && k > 0; i++) {
        const beam_item c = shortlist[i];
        if (c.id >= rr->n)
            return BEAM_BAD_ID;
        const double e = score(&rr->exact, query, c.id);
        if (kept == k && !ranks_before(e, &c, out_d[k - 1], &best[k - 1]))
            continue;
        int64_t j = kept < k ? kept++ : k - 1;
        for (; j > 0 && ranks_before(e, &c, out_d[j - 1], &best[j - 1]); j--) {
            best[j] = best[j - 1];
            out_d[j] = out_d[j - 1];
        }
        best[j] = c;
        out_d[j] = e;
    }
    for (int64_t i = 0; i < kept; i++)
        out_ids[i] = best[i].id;
    counts[0] = kept;
    counts[5] = size;
    counts[6] = (int64_t)(1e9 * elapsed_since(&t0));
    return BEAM_OK;
}

/* A block of n_queries searches, one after the other, sharing the graph,
 * the scorer's rows, the exclusion bitmap, the scratch heaps and one time
 * budget (seconds from this call; INFINITY = none).  Row r searches with
 * query r of the scorer, visited version version0 + r, and the sorted unique
 * entries[entry_offsets[r]:entry_offsets[r+1]] — or, when entry_offsets is
 * NULL, the n_shared entries every row starts from.  Outputs are row-major
 * (n_queries, k) ids/distances, (n_queries, N_COUNTS) counts and, when
 * collect_ids is not NULL and rerank is NULL, (n_queries, n) scored
 * ids/distances.  With rerank, row r is then re-ranked by rerank_row against
 * the exact scorer's query r; collect_ids/collect_d are its scratch, n
 * entries reused by every row, and res must hold max(ef, k) items.  A single
 * query is a block of one. */
int repro_beam_block(const beam_graph *graph, const beam_scorer *scorer,
                     int64_t n, int64_t n_queries,
                     const int64_t *entries, const int64_t *entry_offsets,
                     int64_t n_shared, int64_t k, int64_t ef, int64_t beam_width,
                     int32_t *stamps, int32_t version0,
                     const uint8_t *excluded, int64_t excluded_n,
                     double budget,
                     beam_item *cand, beam_item *res, int32_t *sel,
                     int64_t *out_ids, double *out_d, int64_t *out_counts,
                     int64_t *collect_ids, double *collect_d,
                     const beam_rerank *rerank)
{
    struct timespec t0;
    clock_gettime(CLOCK_MONOTONIC, &t0);
    const int64_t query_stride = scorer->kind == SCORE_ADC
        ? scorer->width * scorer->ks * (int64_t)sizeof(double)
        : scorer->width * (int64_t)sizeof(float);
    beam_state st = {
        .graph = graph, .scorer = scorer, .n = n, .ef = ef,
        .beam_width = beam_width, .stamps = stamps,
        .excluded = excluded, .excluded_n = excluded_n,
        .cand = cand, .res = res,
    };
    for (int64_t r = 0; r < n_queries; r++) {
        st.query = (const char *)scorer->queries + r * query_stride;
        st.version = version0 + (int32_t)r;
        const int64_t row = rerank != NULL ? 0 : r * n;
        st.collect_ids = collect_ids != NULL ? collect_ids + row : NULL;
        st.collect_d = collect_ids != NULL ? collect_d + row : NULL;
        const int64_t first = entry_offsets != NULL ? entry_offsets[r] : 0;
        const int64_t n_entries = entry_offsets != NULL
            ? entry_offsets[r + 1] - first : n_shared;
        int64_t *counts = out_counts + r * N_COUNTS;
        counts[5] = counts[6] = 0;
        int rc = beam_one(&st, entries + first, n_entries, k, sel, budget, &t0,
                          out_ids + r * k, out_d + r * k, counts);
        if (rc == BEAM_OK && rerank != NULL) {
            const float *query = (const float *)rerank->exact.queries
                + r * rerank->exact.width;
            rc = rerank_row(&st, rerank, query, k, out_ids + r * k,
                            out_d + r * k, counts);
        }
        if (rc != BEAM_OK)
            return rc;
    }
    return BEAM_OK;
}

/* The occlusion rule behind rng/alpha/tau_prune (pruning._occlusion_prune is
 * the reference): walk the candidates ids[0..count) — ascending by distance
 * to u — and keep candidate i unless an already kept s has
 * d(s, i) < margin[i]; stop at max_degree.  Distances between stored rows
 * are float32, as score() computes them.  Writes the kept candidates'
 * positions in ids to kept and returns how many, or BEAM_BAD_ID. */
int64_t repro_occlusion_prune(int32_t kind, const float *rows, int64_t n,
                              int64_t dim, const int64_t *ids,
                              const double *margin, int64_t count,
                              int64_t max_degree, int64_t *kept)
{
    int64_t n_kept = 0;
    for (int64_t i = 0; i < count && n_kept < max_degree; i++) {
        if (ids[i] < 0 || ids[i] >= n)
            return BEAM_BAD_ID;
        const float *c = rows + ids[i] * dim;
        int occluded = 0;
        for (int64_t j = 0; j < n_kept && !occluded; j++) {
            const float *s = rows + ids[kept[j]] * dim;
            float d = kind == SCORE_L2 ? l2sq8(s, c, dim)
                : kind == SCORE_IP ? -dot8(s, c, dim) : 1.0f - dot8(s, c, dim);
            occluded = d < margin[i];
        }
        if (!occluded)
            kept[n_kept++] = i;
    }
    return n_kept;
}

/* Whether the graph has a row for node u at all: the reference reads a row
 * past the slab or the CSR as an error or as empty depending on the owner,
 * so the kernel leaves such a node to it. */
static inline int has_row(const beam_graph *g, int64_t u)
{
    if (u < 0)
        return 0;
    if (g->slab != NULL)
        return u < g->slab_n;
    return u < g->n0 || (g->patch_slot != NULL && u < g->patch_n
                         && g->patch_slot[u] >= 0);
}

/* Slot of global id v in a power-of-two open-addressing table. */
static inline uint64_t id_slot(int64_t v, uint64_t mask)
{
    return ((uint64_t)v * 0x9E3779B97F4A7C15ull >> 32) & mask;
}

/* Local rank of global id v among the NN set, -1 when it is not in it. */
static inline int64_t rank_of(const int64_t *keys, const int64_t *ranks,
                              uint64_t mask, int64_t v)
{
    if (v < 0)
        return -1;
    for (uint64_t h = id_slot(v, mask);; h = (h + 1) & mask) {
        if (keys[h] == v)
            return ranks[h];
        if (keys[h] < 0)
            return -1;
    }
}

/* Set eh[u, v] = rank for every still-unset v < k among the ranks v that
 * word w of a reach row newly holds (bits); returns how many it set. */
static inline int64_t record(double *eh, int64_t k, int64_t u, int64_t w,
                             uint64_t bits, double rank)
{
    if (w * 64 >= k)
        return 0;
    if (k - w * 64 < 64)
        bits &= (UINT64_C(1) << (k - w * 64)) - 1;
    int64_t set = 0;
    for (; bits; bits &= bits - 1) {
        double *cell = eh + u * k + w * 64 + __builtin_ctzll(bits);
        if (*cell == INFINITY) {
            *cell = rank;
            set++;
        }
    }
    return set;
}

/* Paper Algorithm 2 for one query (repro.core.escape_hardness.escape_hardness
 * is the reference): nn[0..K_max) are its nearest neighbours by rank, and
 * eh (k * k, row-major) receives EH(nn[u] -> nn[v]) for u, v < k — the rank
 * r + 1 at which v joins u's reach as ranks 0..r enter one by one, 0 on the
 * diagonal, INFINITY where v stays out of reach.  Every NN's out-row is read
 * in place once to map it to local ranks (an open-addressing table of the
 * ids, so no O(n) scratch); reach rows are words = ceil(K_max / 64) uint64
 * each.  Entering r: its row is itself plus the reach of its lower-ranked
 * out-neighbours, and every u < r whose reach meets r's lower-ranked
 * in-neighbours absorbs it — a new path threads r once.  scratch holds
 * 2 * cap + 2 * K_max * words uint64, cap the smallest power of two >= 2 *
 * K_max (at least 2).  Returns BEAM_BAD_ID for an id twice or without a row,
 * BEAM_OVERFLOW for too little scratch, with eh unspecified. */
int repro_escape_hardness(const beam_graph *graph, const int64_t *nn,
                          int64_t K_max, int64_t k, uint64_t *scratch,
                          int64_t scratch_n, double *eh)
{
    if (k < 1 || k > K_max)
        return BEAM_BAD_ID;
    int64_t cap = 2;
    while (cap < 2 * K_max)
        cap <<= 1;
    const int64_t words = (K_max + 63) / 64;
    if (scratch_n < 2 * cap + 2 * K_max * words)
        return BEAM_OVERFLOW;
    const uint64_t mask = (uint64_t)cap - 1;
    int64_t *keys = (int64_t *)scratch, *ranks = keys + cap;
    uint64_t *in_bits = scratch + 2 * cap;     /* per rank: lower ranks with an edge into it */
    uint64_t *reach = in_bits + K_max * words;  /* per rank: what it reaches so far */
    for (int64_t i = 0; i < cap; i++)
        keys[i] = -1;
    for (int64_t i = 0; i < 2 * K_max * words; i++)
        in_bits[i] = 0;
    for (int64_t r = 0; r < K_max; r++) {
        if (!has_row(graph, nn[r]))
            return BEAM_BAD_ID;
        uint64_t h = id_slot(nn[r], mask);
        for (; keys[h] >= 0; h = (h + 1) & mask)
            if (keys[h] == nn[r])
                return BEAM_BAD_ID;
        keys[h] = nn[r];
        ranks[h] = r;
    }
    for (int64_t a = 0; a < K_max; a++) {
        const int32_t *row;
        int64_t degree = neighbors(graph, (int32_t)nn[a], &row);
        if (degree < 0)
            return BEAM_BAD_ID;
        for (int64_t j = 0; j < degree; j++) {
            int64_t b = rank_of(keys, ranks, mask, row[j]);
            if (b > a)
                in_bits[b * words + a / 64] |= UINT64_C(1) << (a % 64);
        }
    }
    for (int64_t u = 0; u < k; u++)
        for (int64_t v = 0; v < k; v++)
            eh[u * k + v] = u == v ? 0.0 : INFINITY;

    int64_t pending = k * k - k;
    for (int64_t r = 0; r < K_max && pending > 0; r++) {
        const double rank = (double)(r + 1);
        const int64_t used = r / 64 + 1;  /* words holding ranks 0..r */
        uint64_t *row_r = reach + r * words;
        row_r[r / 64] |= UINT64_C(1) << (r % 64);
        const int32_t *row;
        int64_t degree = neighbors(graph, (int32_t)nn[r], &row);
        for (int64_t j = 0; j < degree; j++) {
            int64_t b = rank_of(keys, ranks, mask, row[j]);
            if (b >= 0 && b < r)
                for (int64_t w = 0; w < used; w++)
                    row_r[w] |= reach[b * words + w];
        }
        if (r < k)  /* the diagonal is 0, never unset */
            for (int64_t w = 0; w < used; w++)
                pending -= record(eh, k, r, w, row_r[w], rank);
        const uint64_t *into_r = in_bits + r * words;
        for (int64_t u = 0; u < r; u++) {
            uint64_t *row_u = reach + u * words;
            int meets = 0;
            for (int64_t w = 0; w < used && !meets; w++)
                meets = (row_u[w] & into_r[w]) != 0;
            if (!meets)
                continue;
            for (int64_t w = 0; w < used; w++) {
                const uint64_t fresh = row_r[w] & ~row_u[w];
                row_u[w] |= row_r[w];
                if (u < k)
                    pending -= record(eh, k, u, w, fresh, rank);
            }
        }
    }
    return BEAM_OK;
}

/* NumPy's float32 sum of products over one row, as np.einsum("ij,ij->i")
 * and np.einsum("ij,j->i") reduce it where NumPy's baseline SIMD is 128 bits
 * wide (NumPy >= 1.22 on x86-64): four lanes; each whole block of 16
 * elements folds into lane l as a0*b0 + (a1*b1 + (a2*b2 + (a3*b3 + lane))),
 * a_j[l] = a[i + 4j + l]; the rest goes four at a time, zero padded; then
 * (l0 + l1) + (l2 + l3).  With l2 set the products are squared
 * differences.  DistanceComputer.to_query returns exactly this, which is
 * what the re-prune of repro_insert must rank and margin by (dot8/l2sq8
 * differ from it in the last bit). */
static float np_sum(const float *a, const float *b, int64_t d, int l2)
{
    float lane[4] = { 0.0f, 0.0f, 0.0f, 0.0f };
    int64_t i = 0;
    for (; i + 16 <= d; i += 16)
        for (int l = 0; l < 4; l++)
            for (int j = 3; j >= 0; j--) {
                const int64_t at = i + 4 * j + l;
                const float e = l2 ? a[at] - b[at] : a[at];
                lane[l] = e * (l2 ? e : b[at]) + lane[l];
            }
    for (; i < d; i += 4)
        for (int l = 0; l < 4; l++) {
            float p = 0.0f;
            if (i + l < d) {
                const float e = l2 ? a[i + l] - b[i + l] : a[i + l];
                p = e * (l2 ? e : b[i + l]);
            }
            lane[l] = p + lane[l];
        }
    return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

/* The adjacency store's arrays, written in place (AdjacencyStore): node u's
 * row is slab[u * stride ..][:deg[u]], its first nbase[u] slots base edges,
 * the rest extra edges with their EH tags in the same slots of eh. */
typedef struct {
    int32_t *slab;
    double *eh;
    int32_t *deg;
    int32_t *nbase;
    int64_t stride;
    int64_t n;
} slab_rows;

/* What one insertion call works in (sizes as insert_scratch_bytes lays
 * them out): the beam's heaps, its answer, the selection pool, kept
 * positions and the rows being rewritten. */
typedef struct {
    beam_item *cand;     /* n_rows: the candidate heap */
    beam_item *res;      /* ef: the result heap */
    beam_item *sorted;   /* stride: a re-pruned row by (distance, id) */
    int64_t *ids;        /* ef: the beam's answer */
    double *d;
    int64_t *pool_ids;   /* max(ef, stride): a selection pool, ascending */
    double *pool_d;
    int64_t *kept;       /* max(ef, stride): positions the occlusion rule keeps */
    int32_t *chosen;     /* cap: the new row's neighbours */
    int32_t *shrunk;     /* cap: a re-pruned row's neighbours */
    int32_t *row;        /* stride: a base list being rewritten */
    int32_t *extra;      /* stride: the extras kept beside it, with tags */
    double *extra_eh;
} insert_scratch;

static size_t insert_scratch_bytes(int64_t n_rows, int64_t ef, int64_t stride,
                                   int64_t cap)
{
    const int64_t pool = ef > stride ? ef : stride;
    return (size_t)(n_rows + ef + stride) * sizeof(beam_item)
        + (size_t)ef * 16 + (size_t)pool * 24 + (size_t)stride * 16
        + (size_t)cap * 8;
}

static void insert_scratch_at(insert_scratch *s, char *block, int64_t n_rows,
                              int64_t ef, int64_t stride, int64_t cap)
{
    const int64_t pool = ef > stride ? ef : stride;
    s->cand = (beam_item *)block;
    s->res = s->cand + n_rows;
    s->sorted = s->res + ef;
    s->ids = (int64_t *)(s->sorted + stride);
    s->d = (double *)(s->ids + ef);
    s->pool_ids = (int64_t *)(s->d + ef);
    s->pool_d = (double *)(s->pool_ids + pool);
    s->kept = (int64_t *)(s->pool_d + pool);
    s->extra_eh = (double *)(s->kept + pool);
    s->row = (int32_t *)(s->extra_eh + stride);
    s->extra = s->row + stride;
    s->chosen = s->extra + stride;
    s->shrunk = s->chosen + cap;
}

/* rng_prune_backfill over the pool pool_ids/pool_d[0..count), ascending by
 * (distance, id): the occlusion rule keeps up to cap, then the nearest
 * pruned candidates backfill the budget.  Writes the selection to out and
 * returns its size (the pool's ids are valid rows: never an error). */
static int64_t select_backfill(const beam_scorer *rows, int64_t n_rows,
                               insert_scratch *s, int64_t count, int64_t cap,
                               int32_t *out)
{
    int64_t n_kept = count ? repro_occlusion_prune(
        rows->kind, rows->rows, n_rows, rows->width, s->pool_ids, s->pool_d,
        count, cap, s->kept) : 0;
    int64_t size = 0;
    for (int64_t j = 0; j < n_kept; j++)
        out[size++] = (int32_t)s->pool_ids[s->kept[j]];
    for (int64_t i = 0, j = 0; i < count && size < cap; i++) {
        if (j < n_kept && s->kept[j] == i)
            j++;
        else
            out[size++] = (int32_t)s->pool_ids[i];
    }
    return size;
}

/* AdjacencyStore.set_base_neighbors(u, ids[0..count)), ids unique and
 * without u: they become u's base edges, followed by u's extra edges that
 * are not among them, in order, with their tags. */
static void set_base(const slab_rows *g, insert_scratch *s, int64_t u,
                     const int32_t *ids, int64_t count)
{
    int32_t *row = g->slab + u * g->stride;
    double *tags = g->eh + u * g->stride;
    int64_t n_extra = 0;
    for (int64_t j = g->nbase[u]; j < g->deg[u]; j++) {
        int64_t i = 0;
        while (i < count && ids[i] != row[j])
            i++;
        if (i == count) {
            s->extra[n_extra] = row[j];
            s->extra_eh[n_extra++] = tags[j];
        }
    }
    for (int64_t i = 0; i < count; i++)
        row[i] = ids[i];
    for (int64_t i = 0; i < n_extra; i++) {
        row[count + i] = s->extra[i];
        tags[count + i] = s->extra_eh[i];
    }
    g->nbase[u] = (int32_t)count;
    g->deg[u] = (int32_t)(count + n_extra);
}

/* Whether node u has a row the insert may rewrite with `more` slots on top:
 * u a node, counts within the stride, every id in it a node. */
static int row_ok(const slab_rows *g, int64_t u, int64_t more)
{
    if (u < 0 || u >= g->n)
        return 0;
    const int32_t b = g->nbase[u], d = g->deg[u];
    if (b < 0 || d < b || d + more > g->stride)
        return 0;
    const int32_t *row = g->slab + u * g->stride;
    for (int32_t j = 0; j < d; j++)
        if (row[j] < 0 || row[j] >= g->n)
            return 0;
    return 1;
}

/* HNSW's bottom-layer insertion of rows first..last-1, in order, into the
 * slab (BottomLayer._insert_bottom, the reference, row by row).  Row r:
 * the ef-wide beam for rows[r] from the entries (visited version version0 +
 * r - first, nothing excluded); the answer without r itself and without
 * the ids set in the `removed` bitmap, cut at pool_cap; rng_prune_backfill
 * to cap (select_backfill); set_base_neighbors(r, selected); then for each
 * selected v in order add_base_edge(v, r) — appended in place, or the row
 * rewritten with its extras one slot to the right — and, when v's base
 * list outgrew cap + slack, its re-prune: v's base neighbours ranked by
 * (np_sum distance to v, id), cut at pool_cap, rng_prune_backfill to cap,
 * set_base_neighbors(v, ...), extras kept.  Appends to touched the node of
 * every mutation in that order (r, then v, then v again after a re-prune:
 * at most 1 + 2 * cap per row) and adds the distances computed to *ndc:
 * the beam's and one per re-pruned neighbour.
 *
 * Each row is checked before its first write — the beam refused nothing,
 * every row it will rewrite has the slots and holds only ids of the graph
 * — so a refusal leaves the rows before it linked and nothing of its own
 * written.  Returns how many rows were linked. */
int64_t repro_insert(const slab_rows *g, const beam_scorer *rows,
                     int64_t n_rows, int64_t first, int64_t last,
                     const int64_t *entries, int64_t n_entries, int64_t ef,
                     int64_t cap, int64_t slack, int64_t pool_cap,
                     int32_t *stamps, int32_t version0,
                     const uint8_t *removed, int64_t removed_n,
                     insert_scratch *s, int64_t *ndc, int32_t *touched,
                     int64_t *n_touched)
{
    const beam_graph graph = {
        .slab = g->slab, .deg = g->deg, .stride = g->stride, .slab_n = g->n,
    };
    beam_state st = {
        .graph = &graph, .scorer = rows, .n = n_rows, .ef = ef,
        .beam_width = 1, .stamps = stamps, .cand = s->cand, .res = s->res,
    };
    const struct timespec t0 = { 0, 0 };  /* no deadline: never read */
    const float *base = rows->rows;
    const int64_t dim = rows->width;
    int64_t counts[N_COUNTS];
    int32_t sel;
    for (int64_t r = first; r < last; r++) {
        st.query = base + r * dim;
        st.version = version0 + (int32_t)(r - first);
        int rc = beam_one(&st, entries, n_entries, ef, &sel, INFINITY, &t0,
                          s->ids, s->d, counts);
        if (rc != BEAM_OK)
            return r - first;
        int64_t count = 0;
        for (int64_t i = 0; i < counts[0] && count < pool_cap; i++) {
            const int64_t v = s->ids[i];
            if (v == r || (removed != NULL && v < removed_n && removed[v]))
                continue;
            s->pool_ids[count] = v;
            s->pool_d[count++] = s->d[i];
        }
        const int64_t n_chosen = select_backfill(rows, n_rows, s, count, cap,
                                                 s->chosen);
        int ok = row_ok(g, r, n_chosen - g->nbase[r]);
        for (int64_t j = 0; j < n_chosen && ok; j++)
            ok = row_ok(g, s->chosen[j], 1);
        if (!ok)
            return r - first;

        *ndc += counts[3];
        set_base(g, s, r, s->chosen, n_chosen);
        touched[(*n_touched)++] = (int32_t)r;
        for (int64_t j = 0; j < n_chosen; j++) {
            const int64_t v = s->chosen[j];
            int32_t *row = g->slab + v * g->stride;
            const int32_t b = g->nbase[v], d = g->deg[v];
            int32_t i = 0;
            while (i < b && row[i] != r)
                i++;
            if (i == b) {  /* add_base_edge(v, r) */
                if (d > b) {
                    for (i = 0; i < b; i++)
                        s->row[i] = row[i];
                    s->row[b] = (int32_t)r;
                    set_base(g, s, v, s->row, b + 1);
                } else {
                    row[d] = (int32_t)r;
                    g->deg[v] = g->nbase[v] = d + 1;
                }
                touched[(*n_touched)++] = (int32_t)v;
            }
            const int32_t nb = g->nbase[v];
            if (nb <= cap + slack)
                continue;
            const float *at = base + v * dim;
            for (i = 0; i < nb; i++) {
                const float *c = base + (int64_t)row[i] * dim;
                const float sum = np_sum(c, at, dim, rows->kind == SCORE_L2);
                const float dist = rows->kind == SCORE_L2 ? sum
                    : rows->kind == SCORE_IP ? -sum : 1.0f - sum;
                beam_item item = { dist, row[i] };
                s->sorted[i] = item;
            }
            *ndc += nb;
            sort_ascending(s->sorted, nb);
            const int64_t m = nb < pool_cap ? nb : pool_cap;
            for (i = 0; i < m; i++) {
                s->pool_ids[i] = s->sorted[i].id;
                s->pool_d[i] = s->sorted[i].d;
            }
            set_base(g, s, v, s->shrunk,
                     select_backfill(rows, n_rows, s, m, cap, s->shrunk));
            touched[(*n_touched)++] = (int32_t)v;
        }
    }
    return last - first;
}
