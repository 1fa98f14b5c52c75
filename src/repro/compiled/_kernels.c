/* Compiled back-ends for the interpreter-bound hot loops.
 *
 * This file is a line-by-line port of two pure-python kernels:
 *
 *   repro_greedy_run_edge_ids  <-  spanners/greedy.py
 *       IndexedGreedyKernel.run_edge_ids / _reachable_within
 *   repro_simplex_run          <-  lp/simplex.py  _Tableau.run / _pivot
 *
 * plus repro_pairs_within, which reuses the greedy kernel's bounded
 * search for the fault-set verifier (core/verify.py): one query per
 * surviving host edge, on the spanner's CSR snapshot; and
 * repro_point_dist, the spanner service's QUERY_DIST (serve/rows.py):
 * CSRGraph.dijkstra_idx(target=) over rows the service edits in place.
 *
 * The port preserves the reference semantics operation-for-operation:
 * the same IEEE-754 double arithmetic, the same tolerances, the same
 * tie-breaks, the same iteration order. Build it with -ffp-contract=off
 * (see compiled/__init__.py) so the compiler cannot fuse a multiply-add
 * into an FMA and round differently from the numpy reference.
 *
 * Every entry point is plain C99 with int64/double arrays so it can be
 * loaded through ctypes with no build-time python dependency. Negative
 * return values signal allocation failure; the python wrappers raise.
 */

#include <math.h>
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

/* Greedy pass over edge ids pre-sorted by weight. Writes the chosen ids
 * (pick order) into chosen_out (caller-allocated, capacity num_ids) and
 * returns the count; -1 on allocation failure. max_edges < 0 means no
 * cap. The keep/skip decisions are identical to the python kernel: the
 * distance bound is (k * w) * (1 + 1e-12) with the same _EPS slack, and
 * the boolean reachability query is exact. */
int64_t repro_greedy_run_edge_ids(
    int64_t n, int directed,
    const int64_t *edge_ids, int64_t num_ids,
    const int64_t *edge_u, const int64_t *edge_v, const double *edge_w,
    double k, int64_t max_edges,
    int64_t *chosen_out)
{
    const double eps = 1e-12; /* matches spanners/greedy.py _EPS */
    size_t vn = (size_t)(n > 0 ? n : 1);
    int64_t count = 0;
    int fail = 0;

    adj_t *adj = (adj_t *)calloc(vn, sizeof(adj_t));
    adj_t *radj = directed ? (adj_t *)calloc(vn, sizeof(adj_t)) : adj;
    double *dist_f = (double *)malloc(vn * sizeof(double));
    double *dist_b = (double *)malloc(vn * sizeof(double));
    int64_t *stamp_f = (int64_t *)calloc(vn, sizeof(int64_t));
    int64_t *stamp_b = (int64_t *)calloc(vn, sizeof(int64_t));
    heap_t hf = {0}, hb = {0};
    if (adj == NULL || radj == NULL || dist_f == NULL || dist_b == NULL ||
        stamp_f == NULL || stamp_b == NULL ||
        heap_init(&hf, 64) || heap_init(&hb, 64)) {
        fail = 1;
        goto done;
    }

    int64_t gen = 0;
    for (int64_t t = 0; t < num_ids; t++) {
        if (max_edges >= 0 && count >= max_edges)
            break;
        int64_t e = edge_ids[t];
        int64_t ui = edge_u[e];
        int64_t vi = edge_v[e];
        double w = edge_w[e];
        int reach = 0;
        /* An endpoint with no spanner edges yet is unreachable: skip
         * the query. */
        if (adj[ui].len && radj[vi].len) {
            gen += 1;
            reach = reachable_within(
                adj, radj, dist_f, stamp_f, dist_b, stamp_b, gen,
                &hf, &hb, ui, vi, (k * w) * (1.0 + eps));
            if (reach < 0) {
                fail = 1;
                goto done;
            }
        }
        if (!reach) {
            chosen_out[count++] = e;
            if (adj_push(&adj[ui], vi, w)) {
                fail = 1;
                goto done;
            }
            if (directed) {
                if (adj_push(&radj[vi], ui, w)) {
                    fail = 1;
                    goto done;
                }
            } else {
                if (adj_push(&adj[vi], ui, w)) {
                    fail = 1;
                    goto done;
                }
            }
        }
    }

done:
    if (adj != NULL) {
        for (size_t i = 0; i < vn; i++) {
            free(adj[i].to);
            free(adj[i].w);
        }
    }
    if (directed && radj != NULL) {
        for (size_t i = 0; i < vn; i++) {
            free(radj[i].to);
            free(radj[i].w);
        }
        free(radj);
    }
    free(adj);
    free(dist_f);
    free(dist_b);
    free(stamp_f);
    free(stamp_b);
    heap_free(&hf);
    heap_free(&hb);
    return fail ? -1 : count;
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
/* Service reads: one target-stopped Dijkstra over growable rows.      */
/* ------------------------------------------------------------------ */

/* *out = d(s, t) in the graph whose vertex v owns the row
 * nbr/wt[start[v] .. start[v] + len[v]); +inf when t is unreachable.
 * Returns 0, or -1 on allocation failure. The search is
 * CSRGraph.dijkstra_idx(target=) operation-for-operation: one source,
 * the same strict relaxation nd < dist[u], and it stops when t
 * settles. Its distance is the minimum over paths of the left-to-right
 * weight sum, which every correct Dijkstra returns bit-for-bit, so the
 * answer equals the dict reference's. Rows are read in place. */
int64_t repro_point_dist(
    int64_t n, const int64_t *start, const int64_t *len,
    const int64_t *nbr, const double *wt,
    int64_t s, int64_t t, double *out)
{
    *out = INFINITY;
    if (s == t) {
        *out = 0.0;
        return 0;
    }
    double *dist = (double *)malloc((size_t)n * sizeof(double));
    unsigned char *settled = (unsigned char *)calloc((size_t)n, 1);
    heap_t h = {0};
    int fail = 0;
    if (dist == NULL || settled == NULL || heap_init(&h, 64)) {
        fail = 1;
        goto done;
    }
    for (int64_t v = 0; v < n; v++)
        dist[v] = INFINITY;
    dist[s] = 0.0;
    if (heap_push(&h, 0.0, s)) {
        fail = 1;
        goto done;
    }
    while (h.len) {
        double d = h.d[0];
        int64_t v = h.v[0];
        heap_pop(&h);
        if (settled[v])
            continue; /* stale heap entry */
        settled[v] = 1;
        if (v == t) {
            *out = d;
            break;
        }
        const int64_t *to = nbr + start[v];
        const double *w = wt + start[v];
        for (int64_t e = 0; e < len[v]; e++) {
            int64_t u = to[e];
            if (settled[u])
                continue;
            double nd = d + w[e];
            if (nd < dist[u]) {
                dist[u] = nd;
                if (heap_push(&h, nd, u)) {
                    fail = 1;
                    goto done;
                }
            }
        }
    }

done:
    free(dist);
    free(settled);
    heap_free(&h);
    return fail ? -1 : 0;
}

/* ------------------------------------------------------------------ */
/* Simplex: the _Tableau.run pivot loop, ported decision-for-decision. */
/* ------------------------------------------------------------------ */

/* Primal simplex with Bland's rule on an m x n row-major tableau.
 * Mutates a, b, basis in place exactly like _Tableau.run/_pivot:
 * same entering scan (index order, basic-column skip), same ratio test
 * with the tol tie-break on basis index, same unbounded envelope
 * dual_tol * (1 + sum |column|). Returns 1 = "optimal",
 * 0 = "unbounded", -1 = iteration limit (python raises SolverLimit),
 * -2 = allocation failure. */
int repro_simplex_run(
    int64_t m, int64_t n,
    double *a, double *b, const double *c, int64_t *basis,
    int64_t max_iterations, double entering_tol,
    double tol, double dual_tol)
{
    double *red = (double *)malloc((size_t)(n > 0 ? n : 1) * sizeof(double));
    unsigned char *basic =
        (unsigned char *)malloc((size_t)(n > 0 ? n : 1));
    if (red == NULL || basic == NULL) {
        free(red);
        free(basic);
        return -2;
    }

    int result = -1;
    for (int64_t it = 0; it < max_iterations; it++) {
        /* reduced costs: c - c[basis] @ a, accumulated row by row. */
        for (int64_t j = 0; j < n; j++)
            red[j] = 0.0;
        for (int64_t i = 0; i < m; i++) {
            double cb = c[basis[i]];
            if (cb != 0.0) {
                const double *row = a + i * n;
                for (int64_t j = 0; j < n; j++)
                    red[j] += cb * row[j];
            }
        }
        for (int64_t j = 0; j < n; j++)
            red[j] = c[j] - red[j];

        memset(basic, 0, (size_t)n);
        for (int64_t i = 0; i < m; i++)
            basic[basis[i]] = 1;

        int pivoted = 0;
        for (int64_t entering = 0; entering < n; entering++) {
            if (red[entering] >= -entering_tol)
                continue; /* Bland: improving columns in index order */
            if (basic[entering])
                continue; /* basic column: float noise, re-entry stalls */

            /* Ratio test, Bland tie-break on basis variable index. */
            int64_t leaving = -1;
            double best_ratio = INFINITY;
            for (int64_t i = 0; i < m; i++) {
                double aij = a[i * n + entering];
                if (aij > tol) {
                    double ratio = b[i] / aij;
                    if (ratio < best_ratio - tol ||
                        (fabs(ratio - best_ratio) <= tol &&
                         (leaving < 0 || basis[i] < basis[leaving]))) {
                        best_ratio = ratio;
                        leaving = i;
                    }
                }
            }
            if (leaving >= 0) {
                double piv = a[leaving * n + entering];
                double *prow = a + leaving * n;
                for (int64_t j = 0; j < n; j++)
                    prow[j] /= piv;
                b[leaving] /= piv;
                for (int64_t i = 0; i < m; i++) {
                    if (i == leaving)
                        continue;
                    double f = a[i * n + entering];
                    if (fabs(f) > tol) {
                        double *row = a + i * n;
                        for (int64_t j = 0; j < n; j++)
                            row[j] -= f * prow[j];
                        b[i] -= f * b[leaving];
                    }
                }
                basis[leaving] = entering;
                pivoted = 1;
                break;
            }
            /* No positive pivot entry: unbounded only when the reduced
             * cost is decisively outside the dual-tolerance envelope. */
            double colsum = 0.0;
            for (int64_t i = 0; i < m; i++)
                colsum += fabs(a[i * n + entering]);
            double envelope = dual_tol * (1.0 + colsum);
            if (red[entering] < -envelope) {
                result = 0;
                goto out;
            }
        }
        if (!pivoted) {
            result = 1;
            goto out;
        }
    }

out:
    free(red);
    free(basic);
    return result;
}
