/* Native executor of paper Algorithm 1 (greedy beam search) over a frozen CSR,
 * an epoch view or the mutable adjacency slab, and of the occlusion rule
 * behind every prune (repro_occlusion_prune, at the end).
 *
 * The reference executor is repro.graphs.search.beam_search (Python); this
 * file is the same algorithm, not a second one: same candidate order
 * (distance, then id), same eviction tie rule in the result heap, same
 * deadline test before every pop, same NDC accounting.  The two are tested
 * differentially (tests/test_native.py).  Built by repro.graphs.native with
 * `cc -O2 -shared -fPIC -std=c11` and called through ctypes; no Python.h.
 *
 * No -ffast-math and ISO mode (no FMA contraction): NaN/inf ordering stays
 * IEEE and one binary gives one answer on every host that loads it.  The
 * dot/L2 loops keep eight explicit partial sums so -O2 may still vectorise
 * them without reassociating.
 */
#define _POSIX_C_SOURCE 199309L

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <time.h>

enum { SCORE_L2 = 0, SCORE_IP = 1, SCORE_COSINE = 2, SCORE_ADC = 3 };

enum {
    BEAM_OK = 0,
    BEAM_BAD_ID = -1,    /* an entry or neighbour id outside [0, n) */
    BEAM_OVERFLOW = -2,  /* a node scored twice (duplicate edge): scratch is sized for once */
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
    if (st->excluded != NULL && v < st->excluded_n && st->excluded[v])
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

/* One query.  counts = {n_results, n_hops, frontier_peak, ndc, degraded}. */
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

    /* Results ascending by (distance, id): heapsort in place. */
    beam_item *res = st->res;
    int64_t size = st->res_n;
    for (int64_t i = size / 2 - 1; i >= 0; i--)
        sift_down(res, size, i, ORDER_MAX);
    for (int64_t end = size - 1; end > 0; end--) {
        beam_item top = res[0];
        res[0] = res[end];
        res[end] = top;
        sift_down(res, end, 0, ORDER_MAX);
    }
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

/* A block of n_queries searches, one after the other, sharing the graph,
 * the scorer's rows, the exclusion bitmap, the scratch heaps and one time
 * budget (seconds from this call; INFINITY = none).  Row r searches with
 * query r of the scorer, visited version version0 + r, and the sorted unique
 * entries[entry_offsets[r]:entry_offsets[r+1]] — or, when entry_offsets is
 * NULL, the n_shared entries every row starts from.  Outputs are row-major
 * (n_queries, k) ids/distances, (n_queries, 5) counts and, when collect_ids
 * is not NULL, (n_queries, n) scored ids/distances.  A single query is a
 * block of one. */
int repro_beam_block(const beam_graph *graph, const beam_scorer *scorer,
                     int64_t n, int64_t n_queries,
                     const int64_t *entries, const int64_t *entry_offsets,
                     int64_t n_shared, int64_t k, int64_t ef, int64_t beam_width,
                     int32_t *stamps, int32_t version0,
                     const uint8_t *excluded, int64_t excluded_n,
                     double budget,
                     beam_item *cand, beam_item *res, int32_t *sel,
                     int64_t *out_ids, double *out_d, int64_t *out_counts,
                     int64_t *collect_ids, double *collect_d)
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
        st.collect_ids = collect_ids != NULL ? collect_ids + r * n : NULL;
        st.collect_d = collect_ids != NULL ? collect_d + r * n : NULL;
        const int64_t first = entry_offsets != NULL ? entry_offsets[r] : 0;
        const int64_t n_entries = entry_offsets != NULL
            ? entry_offsets[r + 1] - first : n_shared;
        int rc = beam_one(&st, entries + first, n_entries, k, sel, budget, &t0,
                          out_ids + r * k, out_d + r * k, out_counts + r * 5);
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
