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

/* The dense bounds of one fixed endpoint against every door: out[k]
 * is |fixed, door k|L when `fixed_is_a`, else |door k, fixed|L, with
 * k the graph's dense door index.  A transcription of
 * SkeletonIndex.door_bounds' interpreted fill (lower_bound_heads per
 * door) in repro/space/skeleton.py:
 *
 * - a door on the fixed endpoint's floor, or at a touching level
 *   (|level difference| <= 0.5), takes the Euclidean distance with
 *   Point.distance_to's operations: z = level * floor_height, then
 *   sqrt(dx*dx + dy*dy + dz*dz), differences taken in the same
 *   direction as Python;
 * - a cross-floor door computes its heads to the stair rows of its
 *   floor (`fl_rows[fl_indptr[slot]..fl_indptr[slot + 1]]`) from the
 *   stair coordinates `px/py/pz` exactly as SkeletonIndex._heads does,
 *   then takes the same `(head + s2s) + tail` sums as lower_bound().
 *   The fixed attachment is head-ascending, so the outer loop keeps
 *   its `break` when the fixed side is `a`; a door's heads are taken
 *   in floor order, so on that side a dominated head is skipped with
 *   `continue`.  Every skipped sum is >= the best bound either way, so
 *   the minimum is the same double.  A floor without stair doors
 *   yields +inf.
 *
 * sqrt is correctly rounded, as is CPython's math.sqrt; the build
 * passes -ffp-contract=off so no multiply-add is fused into an FMA,
 * and every double then rounds as CPython's does.  `heads` is caller
 * scratch of at least the largest floor's stair count.
 */
void repro_door_bounds(const double *s2s, int64_t n,
                       const double *px, const double *py,
                       const double *pz,
                       const int64_t *fl_indptr, const int64_t *fl_rows,
                       const double *door_x, const double *door_y,
                       const double *door_level,
                       const int64_t *door_floor,
                       const int64_t *door_slot, int64_t m,
                       double floor_height,
                       double fx, double fy, double flevel, int64_t ffloor,
                       const int64_t *fixed, int64_t fixed_count,
                       int64_t fixed_is_a, double *heads, double *out)
{
    double fz = flevel * floor_height;
    const double *fixed_heads = (const double *)(fixed + fixed_count);
    for (int64_t k = 0; k < m; k++) {
        double x = door_x[k];
        double y = door_y[k];
        double level = door_level[k];
        double z = level * floor_height;
        if (door_floor[k] == ffloor || fabs(flevel - level) <= 0.5) {
            double dx, dy, dz;
            if (fixed_is_a) {
                dx = fx - x;
                dy = fy - y;
                dz = fz - z;
            } else {
                dx = x - fx;
                dy = y - fy;
                dz = z - fz;
            }
            out[k] = sqrt(dx * dx + dy * dy + dz * dz);
            continue;
        }
        const int64_t *rows = fl_rows + fl_indptr[door_slot[k]];
        int64_t count = fl_indptr[door_slot[k] + 1] - fl_indptr[door_slot[k]];
        for (int64_t j = 0; j < count; j++) {
            double dx = x - px[rows[j]];
            double dy = y - py[rows[j]];
            double dz = z - pz[rows[j]];
            heads[j] = sqrt(dx * dx + dy * dy + dz * dz);
        }
        double best = INFINITY;
        if (fixed_is_a) {
            for (int64_t i = 0; i < fixed_count; i++) {
                double head = fixed_heads[i];
                if (head >= best)
                    break; /* head-ascending: the rest is dominated */
                const double *row = s2s + fixed[i] * n;
                for (int64_t j = 0; j < count; j++) {
                    double total = head + row[rows[j]] + heads[j];
                    if (total < best)
                        best = total;
                }
            }
        } else {
            for (int64_t j = 0; j < count; j++) {
                double head = heads[j];
                if (head >= best)
                    continue; /* floor order: skip a dominated head */
                const double *row = s2s + rows[j] * n;
                for (int64_t i = 0; i < fixed_count; i++) {
                    double total = head + row[fixed[i]] + fixed_heads[i];
                    if (total < best)
                        best = total;
                }
            }
        }
        out[k] = best;
    }
}
