/* Compiled back-ends for the interpreter-bound hot loops.
 *
 * This file is a line-by-line port of one pure-python kernel:
 *
 *   repro_greedy_run_edge_ids  <-  spanners/greedy.py
 *       IndexedGreedyKernel.run_edge_ids / _reachable_within
 *
 * plus three entry points built on its pieces:
 *
 *   repro_theorem21_batch      <-  core/conversion.py  _theorem21
 *       whole Theorem 2.1 iterations: CPython's MT19937 survivor draws
 *       (or replayed masks), the masked greedy pass and the union byte
 *       mask, with the iterations split across threads it creates and
 *       joins itself;
 *   repro_pairs_within         the fault-set verifier (core/verify.py):
 *       one bounded search per surviving host edge, on the spanner's CSR;
 *   repro_point_dist           the spanner service's QUERY_DIST
 *       (serve/rows.py) over rows the service edits in place and search
 *       state it owns: CSRGraph.dijkstra_idx(target=), or on undirected
 *       rows with integral weights a bidirectional search whose sums
 *       are all exact, so both return the reference's double.
 *
 * The port preserves the reference semantics operation-for-operation:
 * the same IEEE-754 double arithmetic, the same tolerances, the same
 * tie-breaks, the same iteration order. Build it with -ffp-contract=off
 * (see compiled/__init__.py) so the compiler cannot fuse a multiply-add
 * into an FMA and round differently from the numpy reference, and with
 * -pthread for the batch's threads.
 *
 * Every entry point is plain C99 with int64/double arrays so it can be
 * loaded through ctypes with no build-time python dependency; ctypes
 * releases the GIL for the call, and no thread touches a Python object.
 * Negative return values signal allocation failure; the python wrappers
 * raise.
 */

#define _POSIX_C_SOURCE 200809L /* pthread_sigmask */

#include <math.h>
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* ------------------------------------------------------------------ */
/* Greedy spanner: bounded bidirectional Dijkstra over a growing       */
/* adjacency, mirroring IndexedGreedyKernel exactly.                   */
/* ------------------------------------------------------------------ */

/* Growable per-vertex adjacency list of (neighbour, weight) pairs,
 * append-ordered like the python lists so traversal order matches. */
typedef struct {
    int64_t *to;
    double *w;
    int64_t len;
    int64_t cap;
} adj_t;

static int adj_push(adj_t *a, int64_t to, double w)
{
    if (a->len == a->cap) {
        int64_t cap = a->cap ? a->cap * 2 : 4;
        int64_t *nt = (int64_t *)realloc(a->to, (size_t)cap * sizeof(int64_t));
        if (nt == NULL)
            return -1;
        a->to = nt;
        double *nw = (double *)realloc(a->w, (size_t)cap * sizeof(double));
        if (nw == NULL)
            return -1;
        a->w = nw;
        a->cap = cap;
    }
    a->to[a->len] = to;
    a->w[a->len] = w;
    a->len += 1;
    return 0;
}

/* Binary min-heap of (dist, vertex), ordered like python's heapq on
 * (float, int) tuples: lexicographic, vertex index breaks distance
 * ties. The boolean the search returns is exact under any heap order
 * (see the _reachable_within docstring proof); matching heapq's order
 * just keeps the two implementations step-for-step comparable. */
typedef struct {
    double *d;
    int64_t *v;
    int64_t len;
    int64_t cap;
} heap_t;

static int heap_init(heap_t *h, int64_t cap)
{
    if (cap < 16)
        cap = 16;
    h->d = (double *)malloc((size_t)cap * sizeof(double));
    h->v = (int64_t *)malloc((size_t)cap * sizeof(int64_t));
    h->len = 0;
    h->cap = cap;
    return (h->d != NULL && h->v != NULL) ? 0 : -1;
}

static void heap_free(heap_t *h)
{
    free(h->d);
    free(h->v);
}

static int heap_less(const heap_t *h, int64_t i, int64_t j)
{
    return h->d[i] < h->d[j] || (h->d[i] == h->d[j] && h->v[i] < h->v[j]);
}

static void heap_swap(heap_t *h, int64_t i, int64_t j)
{
    double td = h->d[i];
    int64_t tv = h->v[i];
    h->d[i] = h->d[j];
    h->v[i] = h->v[j];
    h->d[j] = td;
    h->v[j] = tv;
}

static int heap_push(heap_t *h, double d, int64_t v)
{
    if (h->len == h->cap) {
        int64_t cap = h->cap * 2;
        double *nd = (double *)realloc(h->d, (size_t)cap * sizeof(double));
        if (nd == NULL)
            return -1;
        h->d = nd;
        int64_t *nv = (int64_t *)realloc(h->v, (size_t)cap * sizeof(int64_t));
        if (nv == NULL)
            return -1;
        h->v = nv;
        h->cap = cap;
    }
    int64_t i = h->len;
    h->len += 1;
    h->d[i] = d;
    h->v[i] = v;
    while (i > 0) {
        int64_t p = (i - 1) / 2;
        if (!heap_less(h, i, p))
            break;
        heap_swap(h, i, p);
        i = p;
    }
    return 0;
}

static void heap_pop(heap_t *h)
{
    h->len -= 1;
    if (h->len == 0)
        return;
    h->d[0] = h->d[h->len];
    h->v[0] = h->v[h->len];
    int64_t i = 0;
    for (;;) {
        int64_t l = 2 * i + 1;
        int64_t r = l + 1;
        int64_t s = i;
        if (l < h->len && heap_less(h, l, s))
            s = l;
        if (r < h->len && heap_less(h, r, s))
            s = r;
        if (s == i)
            break;
        heap_swap(h, i, s);
        i = s;
    }
}

/* Bounded bidirectional Dijkstra; 1 = reachable within bound, 0 = not,
 * -1 = allocation failure. Generation-stamped distance arrays avoid
 * O(n) clears between the m queries of one greedy pass, exactly like
 * the python kernel. */
static int reachable_within(
    adj_t *adj, adj_t *radj,
    double *dist_f, int64_t *stamp_f,
    double *dist_b, int64_t *stamp_b,
    int64_t gen, heap_t *hf, heap_t *hb,
    int64_t source, int64_t target, double bound)
{
    dist_f[source] = 0.0;
    stamp_f[source] = gen;
    dist_b[target] = 0.0;
    stamp_b[target] = gen;
    hf->len = 0;
    hb->len = 0;
    if (heap_push(hf, 0.0, source) || heap_push(hb, 0.0, target))
        return -1;
    for (;;) {
        /* Drop stale entries so the heap tops are true frontier minima. */
        while (hf->len && hf->d[0] > dist_f[hf->v[0]])
            heap_pop(hf);
        if (!hf->len)
            return 0; /* forward ball exhausted without meeting */
        while (hb->len && hb->d[0] > dist_b[hb->v[0]])
            heap_pop(hb);
        if (!hb->len)
            return 0;
        double top_f = hf->d[0];
        double top_b = hb->d[0];
        if (top_f + top_b > bound)
            return 0;
        if (top_f <= top_b) {
            double d = hf->d[0];
            int64_t v = hf->v[0];
            heap_pop(hf);
            adj_t *lst = &adj[v];
            for (int64_t e = 0; e < lst->len; e++) {
                int64_t u = lst->to[e];
                double nd = d + lst->w[e];
                if (nd > bound)
                    continue;
                if (stamp_b[u] == gen && nd + dist_b[u] <= bound)
                    return 1;
                if (stamp_f[u] != gen) {
                    dist_f[u] = nd;
                    stamp_f[u] = gen;
                    if (heap_push(hf, nd, u))
                        return -1;
                } else if (nd < dist_f[u]) {
                    dist_f[u] = nd;
                    if (heap_push(hf, nd, u))
                        return -1;
                }
            }
        } else {
            double d = hb->d[0];
            int64_t v = hb->v[0];
            heap_pop(hb);
            adj_t *lst = &radj[v];
            for (int64_t e = 0; e < lst->len; e++) {
                int64_t u = lst->to[e];
                double nd = d + lst->w[e];
                if (nd > bound)
                    continue;
                if (stamp_f[u] == gen && nd + dist_f[u] <= bound)
                    return 1;
                if (stamp_b[u] != gen) {
                    dist_b[u] = nd;
                    stamp_b[u] = gen;
                    if (heap_push(hb, nd, u))
                        return -1;
                } else if (nd < dist_b[u]) {
                    dist_b[u] = nd;
                    if (heap_push(hb, nd, u))
                        return -1;
                }
            }
        }
    }
}

/* Scratch state of greedy passes over one vertex set. Each pass resets
 * the adjacency lengths and keeps every capacity; the generation stamps
 * keep counting across passes, so a reset is O(n). */
typedef struct {
    int64_t n;
    adj_t *adj;
    adj_t *radj; /* == adj when undirected */
    double *dist_f, *dist_b;
    int64_t *stamp_f, *stamp_b;
    int64_t gen;
    heap_t hf, hb;
    int64_t *chosen; /* the last pass's chosen positions, in pick order */
    int64_t num_chosen, chosen_cap;
} greedy_ws;

static void adj_free(adj_t *a, size_t vn)
{
    if (a == NULL)
        return;
    for (size_t i = 0; i < vn; i++) {
        free(a[i].to);
        free(a[i].w);
    }
    free(a);
}

static void ws_free(greedy_ws *ws)
{
    size_t vn = (size_t)(ws->n > 0 ? ws->n : 1);
    if (ws->radj != ws->adj)
        adj_free(ws->radj, vn);
    adj_free(ws->adj, vn);
    free(ws->dist_f);
    free(ws->dist_b);
    free(ws->stamp_f);
    free(ws->stamp_b);
    heap_free(&ws->hf);
    heap_free(&ws->hb);
    free(ws->chosen);
}

/* 0 on success, -1 on allocation failure; ws_free is safe after both. */
static int ws_init(greedy_ws *ws, int64_t n, int directed)
{
    size_t vn = (size_t)(n > 0 ? n : 1);
    memset(ws, 0, sizeof *ws);
    ws->n = n;
    ws->adj = (adj_t *)calloc(vn, sizeof(adj_t));
    ws->radj = directed ? (adj_t *)calloc(vn, sizeof(adj_t)) : ws->adj;
    ws->dist_f = (double *)malloc(vn * sizeof(double));
    ws->dist_b = (double *)malloc(vn * sizeof(double));
    ws->stamp_f = (int64_t *)calloc(vn, sizeof(int64_t));
    ws->stamp_b = (int64_t *)calloc(vn, sizeof(int64_t));
    if (ws->adj == NULL || ws->radj == NULL || ws->dist_f == NULL ||
        ws->dist_b == NULL || ws->stamp_f == NULL || ws->stamp_b == NULL ||
        heap_init(&ws->hf, 64) || heap_init(&ws->hb, 64))
        return -1;
    return 0;
}

static int chosen_push(greedy_ws *ws, int64_t t)
{
    if (ws->num_chosen == ws->chosen_cap) {
        int64_t cap = ws->chosen_cap ? ws->chosen_cap * 2 : 64;
        int64_t *nc = (int64_t *)realloc(ws->chosen, (size_t)cap * sizeof(int64_t));
        if (nc == NULL)
            return -1;
        ws->chosen = nc;
        ws->chosen_cap = cap;
    }
    ws->chosen[ws->num_chosen++] = t;
    return 0;
}

/* The edges edge_ids[0 .. num) as parallel arrays in that order, so a
 * pass over them reads memory sequentially. */
typedef struct {
    int64_t *u, *v;
    double *w;
} edges_t;

static void edges_free(edges_t *g)
{
    free(g->u);
    free(g->v);
    free(g->w);
}

/* 0 on success, -1 on allocation failure; edges_free is safe after both. */
static int edges_gather(
    edges_t *g, const int64_t *edge_ids, int64_t num,
    const int64_t *edge_u, const int64_t *edge_v, const double *edge_w)
{
    size_t cells = (size_t)(num > 0 ? num : 1);
    g->u = (int64_t *)malloc(cells * sizeof(int64_t));
    g->v = (int64_t *)malloc(cells * sizeof(int64_t));
    g->w = (double *)malloc(cells * sizeof(double));
    if (g->u == NULL || g->v == NULL || g->w == NULL)
        return -1;
    for (int64_t t = 0; t < num; t++) {
        g->u[t] = edge_u[edge_ids[t]];
        g->v[t] = edge_v[edge_ids[t]];
        g->w[t] = edge_w[edge_ids[t]];
    }
    return 0;
}

/* The greedy pass, mirroring IndexedGreedyKernel.run_edge_ids over the
 * edges g[0 .. num) in order (sorted by weight): skip edge t unless both
 * endpoints are flagged in alive_v and t in alive_t (NULL = no mask),
 * and keep each edge whose endpoints the spanner so far cannot connect
 * within the bound. The chosen positions t land in ws->chosen in pick
 * order; returns their count, or -1 on allocation failure. max_edges < 0
 * means no cap. The keep/skip decisions are identical to the python
 * kernel: the distance bound is (k * w) * (1 + 1e-12) with the same _EPS
 * slack, and the boolean reachability query is exact. */
static int64_t greedy_pass(
    greedy_ws *ws, const edges_t *g, int64_t num,
    const unsigned char *alive_v, const unsigned char *alive_t,
    double k, int64_t max_edges)
{
    const double eps = 1e-12; /* matches spanners/greedy.py _EPS */
    adj_t *adj = ws->adj;
    adj_t *radj = ws->radj;
    for (int64_t v = 0; v < ws->n; v++) {
        adj[v].len = 0;
        radj[v].len = 0;
    }
    ws->num_chosen = 0;
    for (int64_t t = 0; t < num; t++) {
        if (max_edges >= 0 && ws->num_chosen >= max_edges)
            break;
        int64_t ui = g->u[t];
        int64_t vi = g->v[t];
        if ((alive_t != NULL && !alive_t[t]) ||
            (alive_v != NULL && !(alive_v[ui] && alive_v[vi])))
            continue;
        double w = g->w[t];
        int reach = 0;
        /* An endpoint with no spanner edges yet is unreachable: skip
         * the query. */
        if (adj[ui].len && radj[vi].len) {
            ws->gen += 1;
            reach = reachable_within(
                adj, radj, ws->dist_f, ws->stamp_f, ws->dist_b, ws->stamp_b,
                ws->gen, &ws->hf, &ws->hb, ui, vi, (k * w) * (1.0 + eps));
            if (reach < 0)
                return -1;
        }
        /* radj == adj when undirected: the second push is then the
         * reverse half-edge. */
        if (!reach && (chosen_push(ws, t) || adj_push(&adj[ui], vi, w) ||
                       adj_push(&radj[vi], ui, w)))
            return -1;
    }
    return ws->num_chosen;
}

/* One greedy pass over edge ids pre-sorted by weight. Writes the chosen
 * ids (pick order) into chosen_out (caller-allocated, capacity num_ids)
 * and returns the count; -1 on allocation failure. max_edges < 0 means
 * no cap. */
int64_t repro_greedy_run_edge_ids(
    int64_t n, int directed,
    const int64_t *edge_ids, int64_t num_ids,
    const int64_t *edge_u, const int64_t *edge_v, const double *edge_w,
    double k, int64_t max_edges,
    int64_t *chosen_out)
{
    greedy_ws ws;
    edges_t g;
    int64_t count = -1;
    int fail = ws_init(&ws, n, directed);
    fail |= edges_gather(&g, edge_ids, num_ids, edge_u, edge_v, edge_w);
    if (!fail)
        count = greedy_pass(&ws, &g, num_ids, NULL, NULL, k, max_edges);
    for (int64_t c = 0; c < count; c++)
        chosen_out[c] = edge_ids[ws.chosen[c]];
    edges_free(&g);
    ws_free(&ws);
    return count;
}

/* ------------------------------------------------------------------ */
/* Theorem 2.1: whole batches of oversampling iterations, threaded.    */
/* ------------------------------------------------------------------ */

/* MT19937 as CPython's Modules/_randommodule.c runs it: mt_seed(s) and
 * then mt_random() calls give the doubles of random.Random(s).random()
 * for every 0 <= s < 2**64. */
#define MT_N 624
#define MT_M 397

typedef struct {
    uint32_t state[MT_N];
    int index;
} mt_t;

static void mt_init_genrand(mt_t *mt, uint32_t s)
{
    uint32_t *st = mt->state;
    st[0] = s;
    for (int i = 1; i < MT_N; i++)
        st[i] = 1812433253U * (st[i - 1] ^ (st[i - 1] >> 30)) + (uint32_t)i;
    mt->index = MT_N;
}

/* init_by_array on the seed's 32-bit little-endian words; random_seed
 * keys a seed below 2**32 (0 included) by one word. */
static void mt_seed(mt_t *mt, uint64_t seed)
{
    uint32_t key[2] = {(uint32_t)seed, (uint32_t)(seed >> 32)};
    size_t len = key[1] ? 2 : 1;
    uint32_t *st = mt->state;
    size_t i = 1, j = 0;
    mt_init_genrand(mt, 19650218U);
    for (size_t k = MT_N; k; k--) { /* max(MT_N, len) rounds */
        st[i] = (st[i] ^ ((st[i - 1] ^ (st[i - 1] >> 30)) * 1664525U)) +
                key[j] + (uint32_t)j;
        i++;
        j++;
        if (i >= MT_N) {
            st[0] = st[MT_N - 1];
            i = 1;
        }
        if (j >= len)
            j = 0;
    }
    for (size_t k = MT_N - 1; k; k--) {
        st[i] = (st[i] ^ ((st[i - 1] ^ (st[i - 1] >> 30)) * 1566083941U)) -
                (uint32_t)i;
        i++;
        if (i >= MT_N) {
            st[0] = st[MT_N - 1];
            i = 1;
        }
    }
    st[0] = 0x80000000U;
}

static uint32_t mt_genrand_uint32(mt_t *mt)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t *st = mt->state;
    uint32_t y;
    if (mt->index >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (st[kk] & 0x80000000U) | (st[kk + 1] & 0x7fffffffU);
            st[kk] = st[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (st[kk] & 0x80000000U) | (st[kk + 1] & 0x7fffffffU);
            st[kk] = st[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (st[MT_N - 1] & 0x80000000U) | (st[0] & 0x7fffffffU);
        st[MT_N - 1] = st[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        mt->index = 0;
    }
    y = st[mt->index++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* random.Random.random(): 53 random bits, genrand_res53. */
static double mt_random(mt_t *mt)
{
    uint32_t a = mt_genrand_uint32(mt) >> 5;
    uint32_t b = mt_genrand_uint32(mt) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* One batch call's inputs, read by every share, and its per-iteration
 * and per-edge outputs. */
typedef struct {
    int64_t n, m, units, iterations;
    int directed;
    const int64_t *ids;
    edges_t sorted;             /* the edges in ids order */
    int64_t *pos;               /* edge kind: each id's place in ids; else NULL */
    double k, p;
    const uint64_t *seeds;      /* NULL when masks are given */
    const unsigned char *masks; /* iterations x units */
    int64_t *survivors, *chosen, *first;
} batch_t;

/* Iterations start, start + stride, ... of one batch. */
typedef struct {
    const batch_t *b;
    int64_t start, stride;
    int fail;
} share_t;

/* Lower *slot to i unless it holds a smaller iteration already. Any
 * interleaving of these compare-and-swaps leaves the minimum. */
static void lower_to(int64_t *slot, int64_t i)
{
    int64_t cur = __atomic_load_n(slot, __ATOMIC_RELAXED);
    while (cur > i && !__atomic_compare_exchange_n(
                          slot, &cur, i, 0, __ATOMIC_RELAXED, __ATOMIC_RELAXED))
        ;
}

static void *run_share(void *arg)
{
    share_t *s = (share_t *)arg;
    const batch_t *b = s->b;
    greedy_ws ws;
    mt_t mt;
    /* Survivor flags by vertex, or by place in ids for the edge kind. */
    unsigned char *alive =
        (unsigned char *)malloc((size_t)(b->units > 0 ? b->units : 1));
    if (ws_init(&ws, b->n, b->directed) || alive == NULL) {
        s->fail = 1;
        goto done;
    }
    for (int64_t i = s->start; i < b->iterations; i += s->stride) {
        const unsigned char *given =
            b->masks != NULL ? b->masks + i * b->units : NULL;
        int64_t survivors = 0;
        if (given == NULL)
            mt_seed(&mt, b->seeds[i]);
        for (int64_t u = 0; u < b->units; u++) {
            unsigned char a = given != NULL ? given[u] : mt_random(&mt) < b->p;
            alive[b->pos != NULL ? b->pos[u] : u] = a;
            survivors += a;
        }
        int64_t count = greedy_pass(
            &ws, &b->sorted, b->m, b->pos != NULL ? NULL : alive,
            b->pos != NULL ? alive : NULL, b->k, -1);
        if (count < 0) {
            s->fail = 1;
            break;
        }
        b->survivors[i] = survivors;
        b->chosen[i] = count;
        for (int64_t c = 0; c < count; c++)
            lower_to(&b->first[b->ids[ws.chosen[c]]], i);
    }
done:
    free(alive);
    ws_free(&ws);
    return NULL;
}

/* Theorem 2.1 iterations 0 .. iterations - 1 in one call. Iteration i
 * keeps the fault units (vertices, or edge ids when edge_kind) that
 * masks[i] flags, or else each unit whose draw is below p, drawing once
 * per unit in unit order from MT19937 seeded with seeds[i] (exactly
 * random.Random(seeds[i]).random() < p). It runs the greedy pass over
 * the weight-sorted ids that survive and merges the chosen ids into
 * union_mask, one byte per edge id (in/out). survivors[i] and chosen[i]
 * count iteration i's surviving units and chosen ids; union_counts[i] is
 * the union's size after iterations 0..i; first[e] is the first
 * iteration that chose e, or -1 when the union held e before the call or
 * no iteration chose it. Returns the union's size, or -1 on allocation
 * failure (union_mask is then unchanged).
 *
 * The iterations are dealt round-robin to `threads` shares. The calling
 * thread runs share 0, and any share whose thread could not start, then
 * joins the rest; the workers block every signal, so handlers run on the
 * calling thread once the call returns. No output depends on the thread
 * count: an iteration writes only its own slots, and first[e] is the
 * minimum over the iterations that chose e, lowered by compare-and-swap.
 * Extra memory is O(m) for the edges gathered in ids order, which all
 * shares read, plus O(n + units) scratch per share: none of it grows
 * with the iteration count. ids must be a permutation of 0 .. m - 1. */
int64_t repro_theorem21_batch(
    int64_t n, int directed, int edge_kind,
    const int64_t *ids, int64_t m,
    const int64_t *edge_u, const int64_t *edge_v, const double *edge_w,
    double k, double p, int64_t iterations,
    const uint64_t *seeds, const unsigned char *masks,
    int64_t threads, unsigned char *union_mask,
    int64_t *survivors, int64_t *chosen, int64_t *union_counts,
    int64_t *first)
{
    batch_t b = {n, m, edge_kind ? m : n, iterations, directed, ids,
                 {NULL, NULL, NULL}, NULL, k, p, seeds, masks,
                 survivors, chosen, first};
    int64_t size = 0;
    for (int64_t e = 0; e < m; e++) {
        first[e] = union_mask[e] ? -1 : iterations; /* iterations: unchosen */
        size += union_mask[e] != 0;
    }
    if (threads > iterations)
        threads = iterations;
    if (threads < 1)
        threads = 1;
    share_t *shares = (share_t *)calloc((size_t)threads, sizeof(share_t));
    pthread_t *tids = (pthread_t *)calloc((size_t)threads, sizeof(pthread_t));
    unsigned char *started = (unsigned char *)calloc((size_t)threads, 1);
    int fail = edges_gather(&b.sorted, ids, m, edge_u, edge_v, edge_w);
    if (edge_kind) {
        b.pos = (int64_t *)malloc((size_t)(m > 0 ? m : 1) * sizeof(int64_t));
        fail |= b.pos == NULL;
        for (int64_t t = 0; !fail && t < m; t++)
            b.pos[ids[t]] = t;
    }
    fail |= shares == NULL || tids == NULL || started == NULL;
    if (!fail) {
        sigset_t all, old;
        for (int64_t t = 0; t < threads; t++) {
            shares[t].b = &b;
            shares[t].start = t;
            shares[t].stride = threads;
        }
        sigfillset(&all);
        pthread_sigmask(SIG_SETMASK, &all, &old);
        for (int64_t t = 1; t < threads; t++)
            started[t] = pthread_create(&tids[t], NULL, run_share, &shares[t]) == 0;
        pthread_sigmask(SIG_SETMASK, &old, NULL);
        run_share(&shares[0]);
        for (int64_t t = 1; t < threads; t++) {
            if (started[t])
                pthread_join(tids[t], NULL);
            else
                run_share(&shares[t]);
        }
        for (int64_t t = 0; t < threads; t++)
            fail |= shares[t].fail;
    }
    free(shares);
    free(tids);
    free(started);
    edges_free(&b.sorted);
    free(b.pos);
    if (fail)
        return -1;
    for (int64_t i = 0; i < iterations; i++)
        union_counts[i] = 0;
    for (int64_t e = 0; e < m; e++) {
        if (first[e] == iterations) {
            first[e] = -1;
        } else if (first[e] >= 0) {
            union_mask[e] = 1;
            union_counts[first[e]] += 1;
        }
    }
    for (int64_t i = 0; i < iterations; i++) {
        size += union_counts[i];
        union_counts[i] = size;
    }
    return size;
}

/* ------------------------------------------------------------------ */
/* Fault-set verifier: a batch of bounded searches on one fixed CSR.   */
/* ------------------------------------------------------------------ */

/* out[q] = 1 iff d(qu[q], qv[q]) <= bound[q] in the undirected CSR graph
 * (indptr, nbr, wt), else 0. Returns the number of failed queries; -1 on
 * allocation failure. Each CSR row is handed to reachable_within as an
 * adj_t view into nbr/wt (no copy; the search never writes through it),
 * so every query runs the greedy kernel's search unchanged. A half-edge
 * of weight +inf is never relaxed (nd > bound), which is how callers
 * delete faulted vertices and edges without a mask argument. */
int64_t repro_pairs_within(
    int64_t n, const int64_t *indptr, const int64_t *nbr, const double *wt,
    int64_t num_q, const int64_t *qu, const int64_t *qv, const double *bound,
    unsigned char *out)
{
    size_t vn = (size_t)(n > 0 ? n : 1);
    int64_t failed = 0;
    int fail = 0;

    adj_t *adj = (adj_t *)malloc(vn * sizeof(adj_t));
    double *dist_f = (double *)malloc(vn * sizeof(double));
    double *dist_b = (double *)malloc(vn * sizeof(double));
    int64_t *stamp_f = (int64_t *)calloc(vn, sizeof(int64_t));
    int64_t *stamp_b = (int64_t *)calloc(vn, sizeof(int64_t));
    heap_t hf = {0}, hb = {0};
    if (adj == NULL || dist_f == NULL || dist_b == NULL ||
        stamp_f == NULL || stamp_b == NULL ||
        heap_init(&hf, 64) || heap_init(&hb, 64)) {
        fail = 1;
        goto done;
    }
    for (int64_t v = 0; v < n; v++) {
        adj[v].to = (int64_t *)(nbr + indptr[v]);
        adj[v].w = (double *)(wt + indptr[v]);
        adj[v].len = indptr[v + 1] - indptr[v];
        adj[v].cap = adj[v].len;
    }

    for (int64_t q = 0; q < num_q; q++) {
        int reach;
        if (qu[q] == qv[q]) {
            reach = bound[q] >= 0.0;
        } else {
            reach = reachable_within(
                adj, adj, dist_f, stamp_f, dist_b, stamp_b, q + 1,
                &hf, &hb, qu[q], qv[q], bound[q]);
            if (reach < 0) {
                fail = 1;
                goto done;
            }
        }
        out[q] = (unsigned char)reach;
        failed += !reach;
    }

done:
    free(adj);
    free(dist_f);
    free(dist_b);
    free(stamp_f);
    free(stamp_b);
    heap_free(&hf);
    heap_free(&hb);
    return fail ? -1 : failed;
}

/* ------------------------------------------------------------------ */
/* Service reads: a point-to-point Dijkstra over growable rows.        */
/* ------------------------------------------------------------------ */

/* The graph whose vertex v owns the row nbr/wt[start[v] .. start[v] +
 * len[v]), read in place, and the caller's search state: per vertex a
 * forward and a backward distance, each with a generation stamp. The
 * caller binds it once and rebinds only when it reallocates an array. */
typedef struct {
    const int64_t *start;
    const int64_t *len;
    const int64_t *nbr;
    const double *wt;
    double *dist_f;
    int64_t *stamp_f;
    double *dist_b;
    int64_t *stamp_b;
} point_rows_t;

/* d(s, t) by CSRGraph.dijkstra_idx(target=) operation-for-operation:
 * one source, the same strict relaxation nd < dist[u] (an unlabeled
 * vertex reads +inf), and it stops when t settles. stamp_f[v] == gen
 * marks v labeled in dist_f. A heap entry above its vertex's label is
 * stale: pushes for one vertex strictly decrease, so its first pop
 * settles it, and a settled neighbour never passes nd < dist[u]
 * because weights are nonnegative. Its distance is the minimum over
 * paths of the left-to-right weight sum, which every correct Dijkstra
 * returns bit-for-bit, so the answer equals the dict reference's for
 * any nonnegative weights. */
static double point_one_sided(
    const point_rows_t *g, int64_t gen, int64_t s, int64_t t)
{
    double *dist = g->dist_f;
    int64_t *stamp = g->stamp_f;
    heap_t h = {0};
    double out = INFINITY;
    dist[s] = 0.0;
    stamp[s] = gen;
    if (heap_init(&h, 256) || heap_push(&h, 0.0, s)) {
        out = -1.0;
        goto done;
    }
    while (h.len) {
        double d = h.d[0];
        int64_t v = h.v[0];
        heap_pop(&h);
        if (d > dist[v])
            continue; /* stale heap entry */
        if (v == t) {
            out = d;
            break;
        }
        const int64_t *to = g->nbr + g->start[v];
        const double *w = g->wt + g->start[v];
        for (int64_t e = 0; e < g->len[v]; e++) {
            int64_t u = to[e];
            double nd = d + w[e];
            if (nd < (stamp[u] == gen ? dist[u] : INFINITY)) {
                dist[u] = nd;
                stamp[u] = gen;
                if (heap_push(&h, nd, u)) {
                    out = -1.0;
                    goto done;
                }
            }
        }
    }
done:
    heap_free(&h);
    return out;
}

/* d(s, t) by balls grown from both ends of undirected rows: expand the
 * side with the smaller frontier minimum (the forward one on ties),
 * record the best s-t sum dist_f[u] + dist_b[u] over every vertex
 * labeled from both sides, and stop once the two frontier minima sum
 * to at least that best meeting. Exact only when the caller checked
 * that every weight is an integer and 2 n max_weight <= 2^53: every
 * tentative distance is then an integer <= n max_weight and every sum
 * formed here an integer <= 2^53, so each is computed without rounding
 * and the answer is the one exact distance the reference returns. */
static double point_bidirectional(
    const point_rows_t *g, int64_t gen, int64_t s, int64_t t)
{
    heap_t hf = {0}, hb = {0};
    double best = INFINITY;
    g->dist_f[s] = 0.0;
    g->stamp_f[s] = gen;
    g->dist_b[t] = 0.0;
    g->stamp_b[t] = gen;
    if (heap_init(&hf, 256) || heap_init(&hb, 256)
        || heap_push(&hf, 0.0, s) || heap_push(&hb, 0.0, t)) {
        best = -1.0;
        goto done;
    }
    for (;;) {
        /* Drop stale entries so the heap tops are true frontier minima. */
        while (hf.len && hf.d[0] > g->dist_f[hf.v[0]])
            heap_pop(&hf);
        while (hb.len && hb.d[0] > g->dist_b[hb.v[0]])
            heap_pop(&hb);
        if (!hf.len || !hb.len || hf.d[0] + hb.d[0] >= best)
            break;
        int forward = hf.d[0] <= hb.d[0];
        heap_t *h = forward ? &hf : &hb;
        double *dist = forward ? g->dist_f : g->dist_b;
        int64_t *stamp = forward ? g->stamp_f : g->stamp_b;
        const double *other = forward ? g->dist_b : g->dist_f;
        const int64_t *other_stamp = forward ? g->stamp_b : g->stamp_f;
        double d = h->d[0];
        int64_t v = h->v[0];
        heap_pop(h);
        const int64_t *to = g->nbr + g->start[v];
        const double *w = g->wt + g->start[v];
        for (int64_t e = 0; e < g->len[v]; e++) {
            int64_t u = to[e];
            double nd = d + w[e];
            if (stamp[u] != gen || nd < dist[u]) {
                dist[u] = nd;
                stamp[u] = gen;
                if (heap_push(h, nd, u)) {
                    best = -1.0;
                    goto done;
                }
            }
            if (other_stamp[u] == gen && nd + other[u] < best)
                best = nd + other[u];
        }
    }
done:
    heap_free(&hf);
    heap_free(&hb);
    return best;
}

/* d(s, t) over the rows; +inf when t is unreachable, -1 on allocation
 * failure. stamp[v] == gen marks a label of this query and every stamp
 * is below gen on entry, so a query touches only the vertices it labels
 * and allocates nothing proportional to n. bidirectional selects
 * point_bidirectional, which the caller may set only on undirected rows
 * (every entry mirrored) under its exactness condition; otherwise the
 * search is point_one_sided, which is exact for any nonnegative weights
 * and reads directed rows. */
double repro_point_dist(
    const point_rows_t *g, int64_t gen, int bidirectional,
    int64_t s, int64_t t)
{
    if (s == t)
        return 0.0;
    return bidirectional ? point_bidirectional(g, gen, s, t)
                         : point_one_sided(g, gen, s, t);
}
