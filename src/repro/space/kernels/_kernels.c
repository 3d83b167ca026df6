/* Native kernels for the repro kernel tier: the CSR Dijkstra and,
 * at the end of this file, the skeleton lower bound.
 *
 * The Dijkstra is a statement-for-statement transcription of the
 * interpreted loop in repro/space/graph.py: the same epoch-versioned
 * workspace arrays, the same strict-improvement relaxation, the same
 * (d, u) heap order.  A binary heap pops the minimum of its contents
 * under the total order (d, u), and the interpreted algorithm depends
 * only on the popped *values* (never on heap internals), so any
 * correct heap — including this one — yields the identical settle
 * sequence, and `nd = d + wt[k]` is the identical IEEE double
 * addition.  Build with plain -O2 (no -ffast-math): x86-64 / AArch64
 * double arithmetic then matches CPython's bit for bit.
 */

#include <math.h>
#include <stdint.h>

typedef struct {
    double d;
    int64_t u;
} entry;

static int entry_lt(const entry a, const entry b)
{
    return a.d < b.d || (a.d == b.d && a.u < b.u);
}

static void heap_push(entry *heap, int64_t *size, entry e)
{
    int64_t i = (*size)++;
    heap[i] = e;
    while (i > 0) {
        int64_t parent = (i - 1) >> 1;
        if (!entry_lt(heap[i], heap[parent]))
            break;
        entry tmp = heap[parent];
        heap[parent] = heap[i];
        heap[i] = tmp;
        i = parent;
    }
}

static entry heap_pop(entry *heap, int64_t *size)
{
    entry top = heap[0];
    entry last = heap[--(*size)];
    int64_t n = *size;
    int64_t i = 0;
    for (;;) {
        int64_t left = 2 * i + 1;
        int64_t right = left + 1;
        int64_t smallest = i;
        heap[i] = last;
        if (left < n && entry_lt(heap[left], heap[smallest]))
            smallest = left;
        if (right < n && entry_lt(heap[right], heap[smallest]))
            smallest = right;
        if (smallest == i)
            break;
        heap[i] = heap[smallest];
        i = smallest;
    }
    return top;
}

/* Runs one parameterised Dijkstra over the CSR arrays.  All scratch
 * state (dist/pred/... and the heap/touched buffers) is caller-owned;
 * the caller has already marked banned doors and counted targets into
 * the epoch-versioned banned/target arrays.  `edge_skip`, when
 * non-NULL, masks edges through banned partitions.  Returns the
 * number of touched (visited) nodes, or -1 if the heap scratch
 * overflowed (cannot happen when its capacity is >= seeds + edges).
 */
int64_t repro_dijkstra(
    const int64_t *indptr,
    const int64_t *nbr,
    const int64_t *via,
    const double *wt,
    const unsigned char *edge_skip,
    double *dist,
    int64_t *pred,
    int64_t *pred_via,
    int64_t *visit,
    int64_t *settled,
    const int64_t *banned_mark,
    const int64_t *target_mark,
    int64_t epoch,
    const double *seed_w,
    const int64_t *seed_node,
    const int64_t *seed_pred,
    const int64_t *seed_via,
    int64_t n_seeds,
    int64_t remaining,
    double bound,
    int64_t forbid,
    entry *heap,
    int64_t heap_cap,
    int64_t *touched)
{
    int64_t heap_size = 0;
    int64_t n_touched = 0;

    for (int64_t s = 0; s < n_seeds; s++) {
        double w = seed_w[s];
        int64_t node = seed_node[s];
        if (w > bound || banned_mark[node] == epoch || node == forbid)
            continue;
        if (visit[node] != epoch) {
            visit[node] = epoch;
            touched[n_touched++] = node;
        } else if (w >= dist[node]) {
            continue;
        }
        dist[node] = w;
        pred[node] = seed_pred[s];
        pred_via[node] = seed_via[s];
        if (heap_size >= heap_cap)
            return -1;
        heap_push(heap, &heap_size, (entry){w, node});
    }

    while (heap_size > 0) {
        entry top = heap_pop(heap, &heap_size);
        double d = top.d;
        int64_t u = top.u;
        if (settled[u] == epoch)
            continue;
        settled[u] = epoch;
        if (remaining >= 0 && target_mark[u] == epoch) {
            if (--remaining == 0)
                break;
        }
        int64_t end = indptr[u + 1];
        for (int64_t k = indptr[u]; k < end; k++) {
            int64_t v = nbr[k];
            if (banned_mark[v] == epoch || settled[v] == epoch
                    || v == forbid)
                continue;
            if (edge_skip && edge_skip[k])
                continue;
            double nd = d + wt[k];
            if (nd > bound)
                continue;
            if (visit[v] != epoch) {
                visit[v] = epoch;
                touched[n_touched++] = v;
            } else if (nd >= dist[v]) {
                continue;
            }
            dist[v] = nd;
            pred[v] = u;
            pred_via[v] = via[k];
            if (heap_size >= heap_cap)
                return -1;
            heap_push(heap, &heap_size, (entry){nd, v});
        }
    }
    return n_touched;
}

/* The skeleton lower bound |a, b|L of two staircase attachments: a
 * transcription of the cross-floor double loop of
 * SkeletonIndex.lower_bound_heads in repro/space/skeleton.py.  An
 * attachment is one buffer of `count` stair rows (int64) followed by
 * their `count` head distances (double), head-ascending.  The sums are
 * `(head + s2s[row_a * n + row_b]) + tail`, left to right as in
 * Python, and the outer loop takes the same head-ascending `break`.
 * Additions alone cannot be contracted into a fused multiply-add, so
 * under plain -O2 every double rounds as CPython's does and the bound
 * is bit-identical.  An empty attachment yields +inf, as in Python.
 * `s2s` is the row-major n x n δs2s table, read in place (heap array
 * or mapped snapshot).
 */
static double lower_bound(const double *s2s, int64_t n,
                          const int64_t *a, int64_t count_a,
                          const int64_t *b, int64_t count_b)
{
    double best = INFINITY;
    if (count_a == 0 || count_b == 0)
        return best;
    const double *heads_a = (const double *)(a + count_a);
    const double *tails_b = (const double *)(b + count_b);
    for (int64_t i = 0; i < count_a; i++) {
        double head = heads_a[i];
        if (head >= best)
            break; /* head-ascending: the rest is dominated */
        const double *row = s2s + a[i] * n;
        for (int64_t j = 0; j < count_b; j++) {
            double total = head + row[b[j]] + tails_b[j];
            if (total < best)
                best = total;
        }
    }
    return best;
}

double repro_lower_bound(const double *s2s, int64_t n,
                         const int64_t *a, int64_t count_a,
                         const int64_t *b, int64_t count_b)
{
    return lower_bound(s2s, n, a, count_a, b, count_b);
}

/* Batched form: the bound between one fixed attachment and each of
 * `m` others.  `items` holds one (buffer address, count) pair per
 * attachment; with `fixed_is_a` the fixed attachment is the `a` side
 * (|fixed, item|L), else the `b` side (|item, fixed|L).
 */
void repro_lower_bounds(const double *s2s, int64_t n,
                        const int64_t *fixed, int64_t fixed_count,
                        int64_t fixed_is_a, const int64_t *items,
                        int64_t m, double *out)
{
    for (int64_t k = 0; k < m; k++) {
        const int64_t *item = (const int64_t *)(intptr_t)items[2 * k];
        int64_t count = items[2 * k + 1];
        out[k] = fixed_is_a
            ? lower_bound(s2s, n, fixed, fixed_count, item, count)
            : lower_bound(s2s, n, item, count, fixed, fixed_count);
    }
}
