/* Native peeling kernels: single-graph greedy peel + batched FDET.
 *
 * Everything in this file is an exact replica of the Python reference path —
 * same float64 operations in the same order on the same values — so results
 * are bitwise identical to the reference engine. Two entry points share one
 * peel core, ``peel_order``, and one density pass, ``merge_orders``:
 *
 * ``repro_greedy_peel``
 *     One peel of one flattened int32 CSR graph (used by ``peeling.py`` for
 *     ``greedy_peel`` and the per-block loop of metrics the batch cannot
 *     take): the merge of its own removal order with an empty kept order.
 *
 * ``repro_fdet_batch``
 *     The full FDET block loop for one or many members in one call: the
 *     parent edge arrays are shared read-only, each member is described by a
 *     list of parent edge ids (in member order), and the kernel performs node
 *     compaction, CSR construction, per-block degree/weight/priority
 *     preparation, the peel, and block bookkeeping — everything
 *     ``materialize_plan`` + the reference ``Fdet.detect`` do per member,
 *     without materialising a subgraph object. Ensemble members peel over
 *     the nodes their edges touch; with ``all_nodes`` compaction is skipped
 *     and the member's node space is the whole parent, nodes without an
 *     edge included — how ``Fdet.detect`` runs one graph as one member.
 *     Members are independent; with OpenMP the loop runs ``n_threads`` wide
 *     (serial otherwise).
 *
 * The peel core. The reference pops ``(priority, node)`` entries from a
 * lazy-deletion heap: every priority change pushes a new entry, and a popped
 * entry is skipped when its node is dead or its priority exceeds the node's
 * current one by more than ``1e-12``. The entries of an alive node all stay
 * in that heap until one is accepted, so the first of them to surface is
 * its smallest key, and that entry is always accepted: its priority is at
 * most the current one (which the node has had, so its entry is present),
 * and ``x <= p`` implies ``!(x > p + 1e-12)`` — adding ``1e-12`` never rounds
 * below ``p`` (``-inf`` stays ``-inf``), and any NaN makes the comparison
 * false. So the accepted node is always the alive node with the smallest
 * ``(smallest key it has had, node)``, and a heap holding exactly that entry,
 * one per node, pops the same sequence — for zero, negative, infinite and
 * NaN weights too. ``peel_order`` keeps it in two parts: the initial
 * keys in a sorted "clean" stream read by a moving pointer, and a 4-ary
 * decrease-key "hot" heap holding a node only once an update took its key
 * below its initial one (a node whose priority rises keeps its smaller
 * key). A node in the hot heap therefore surfaces there before its clean
 * entry, so the clean stream only skips dead nodes, the hot heap never pops
 * a stale entry, and the hot heap holds at most n entries instead of one
 * per priority change. A hot entry is one ``unsigned __int128``,
 * ``key << 32 | node``, so each heap test and each clean-versus-hot test is
 * one integer compare.
 *
 * The removal order is kept from block to block. ``peel_order`` runs to
 * the last node and records every pop: its entry (the key it was taken
 * with, and the node) and the node's priority then. A pop changes keys only
 * inside its own connected component, so each component's pops, taken
 * alone, are the peel of that component, and the peel of the whole graph
 * takes, at every step, the smallest next pop of any component: its
 * removal order is the merge of the components' orders that always takes
 * the smaller head entry, and so is the merge of the orders of any split of
 * the components into two groups (``merge_orders``; the orders need not be
 * sorted, since keys drop as neighbours leave). A block's edges lie in a
 * few components. Every other component keeps its nodes, edges, edge order
 * and weights — none of its merchants changes degree, so both weight
 * policies agree — and the renumbering past isolated nodes keeps node
 * order, so the next block would peel it into the same entries and
 * priorities, bit for bit. So after a live-node block the kernel drops the
 * pops of the components that held the block's edges (``drop_dirty``;
 * those components are "dirty"), peels only the dirty nodes in the next
 * block — numbered in live order, with the priorities, CSR and sort over
 * them alone — and merges the kept order back in. The density pass runs
 * over the merged order exactly as the peel loop would: ``total -=
 * priority at pop``, then ``total / n_alive``, with a strict ``>``,
 * stopping one pop short of the last node. Components are found by a
 * union-find over the edges of each peel. If the block's edges made up
 * whole components nothing is dirty, and the next block is the merge
 * alone. Block 0, a block that peels the full member node set, and the
 * block after one peel every node.
 *
 * int32 member layout. Node ids, CSR offsets and half-edge endpoints are
 * int32, so a graph peels only while its node count and its half-edge count
 * (2 |E|) stay below ``INT32_MAX``. ``peeling.py`` runs the reference engine
 * beyond that; ``run_member`` reports status -1 — the per-member fallback
 * the caller already takes on an allocation failure — for a member whose
 * node count (its parent's, under ``all_nodes``) or half-edge count reaches
 * it. Each member keeps its alive edges as two int32 endpoint arrays
 * already relabelled to live-node ids (the nodes with an alive edge,
 * numbered in order), compacted in order after every block and renumbered
 * in place when a block leaves nodes isolated. The alive degrees are
 * decremented, never recounted, and the next block's CSR offsets are their
 * running sum. Per-block work therefore scales with the residual graph, not
 * the whole member. The peel covers only the dirty live nodes. Dropping the
 * edgeless nodes is exact when every residual weight is > 0 (NaN fails) and
 * ``total / n`` is a finite, positive, normal double (the argument sits at
 * the test in ``run_member``). When that test fails the block peels the
 * full member node set, as the reference does.
 *
 * Bitwise-parity notes (enforced by tests/fdet/test_batched_parity.py and
 * tests/fdet/test_engine_parity.py):
 *   - ``pairwise_sum`` replicates numpy's scalar pairwise summation
 *     (8 accumulator lanes, 128-element blocks, halved recursion) so
 *     ``edge_weights.sum()`` matches ``np.sum`` bit for bit. A Python-side
 *     probe verifies this at load time and disables the batch path on hosts
 *     where numpy sums differently.
 *   - ``np.add.at`` is unbuffered sequential addition in index order — the
 *     priority-init loops below mirror it exactly.
 *   - ``np.unique(x, return_inverse=True)`` on bounded non-negative ints is a
 *     presence scan + running rank — the node-compaction loops below.
 *   - CSR spans filled in edge order equal numpy's stable argsort by
 *     endpoint, used by ``BipartiteGraph._build_adjacency``.
 *   - The radix sort key normalises ``-0.0`` to ``+0.0``: the comparator
 *     treats them equal (node id breaks the tie) but their raw bit patterns
 *     would order them apart.
 *
 * Dependency-free C (no Python.h); compiled on demand via ``_native.py``.
 */

#include <float.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* ------------------------------------------------------------------ */
/* pairwise summation — replica of numpy's scalar pairwise_sum_DOUBLE  */
/* ------------------------------------------------------------------ */

#define PW_BLOCKSIZE 128

static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= PW_BLOCKSIZE) {
        double r[8];
        for (int k = 0; k < 8; k++)
            r[k] = a[k];
        int64_t i;
        for (i = 8; i < n - (n % 8); i += 8) {
            r[0] += a[i + 0];
            r[1] += a[i + 1];
            r[2] += a[i + 2];
            r[3] += a[i + 3];
            r[4] += a[i + 4];
            r[5] += a[i + 5];
            r[6] += a[i + 6];
            r[7] += a[i + 7];
        }
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    {
        int64_t n2 = n / 2;
        n2 -= n2 % 8;
        return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
    }
}

double repro_pairwise_sum(const double *a, int64_t n)
{
    return pairwise_sum(a, n);
}

/* ------------------------------------------------------------------ */
/* hot heap: 4-ary decrease-key min-heap of (key, node), lexicographic */
/* ------------------------------------------------------------------ */

/* An entry packs the priority's monotone uint64 ``sort_key`` image above
 * the node id: ``key << 32 | node``. Key order equals double order (with
 * the two zeros collapsed, exactly like the comparator treats them) and
 * node ids are non-negative int32, so integer order on the packed value is
 * the lexicographic ``(priority, node)`` order, one compare per test. */
typedef unsigned __int128 entry_t;

static inline entry_t entry_pack(uint64_t k, int32_t node)
{
    return (entry_t)k << 32 | (uint32_t)node;
}

static inline int32_t entry_node(entry_t e)
{
    return (int32_t)(uint32_t)e;
}

/* pos[node] tracks each entry's slot, so a decrease-key sifts the node's
 * one entry up from where it sits. The heap is 4-ary because decrease-keys
 * outnumber pops and a sift-up walks half the levels of a binary heap;
 * arity is a layout choice — any min-heap surfaces the same minima in the
 * same order. */
static inline void sift_up(entry_t *heap, int32_t *pos, int32_t i, entry_t v)
{
    while (i > 0) {
        int32_t parent = (i - 1) / 4;
        if (!(v < heap[parent]))
            break;
        heap[i] = heap[parent];
        pos[entry_node(heap[i])] = i;
        i = parent;
    }
    heap[i] = v;
    pos[entry_node(v)] = i;
}

/* A full set of 4 children is reduced as a tournament of selects (two
 * pairs, then their winners) so the pick has no data-dependent branch;
 * entries are distinct, so the smallest is unique whatever the order. */
static inline void sift_down(entry_t *heap, int32_t *pos, int32_t size, int32_t i, entry_t v)
{
    for (;;) {
        int32_t child = 4 * i + 1;
        if (child >= size)
            break;
        int32_t m;
        if (child + 4 <= size) {
            int32_t a = child + (heap[child + 1] < heap[child]);
            int32_t b = child + 2 + (heap[child + 3] < heap[child + 2]);
            m = heap[b] < heap[a] ? b : a;
        } else {
            m = child;
            for (int32_t j = child + 1; j < size; j++)
                m = heap[j] < heap[m] ? j : m;
        }
        if (!(heap[m] < v))
            break;
        heap[i] = heap[m];
        pos[entry_node(heap[i])] = i;
        i = m;
    }
    heap[i] = v;
    pos[entry_node(v)] = i;
}

/* ------------------------------------------------------------------ */
/* radix sort of (double key, node) pairs                              */
/* ------------------------------------------------------------------ */

/* Monotone uint64 image of an IEEE double: flips the sign bit for
 * non-negatives and all bits for negatives, after normalising -0.0 to
 * +0.0 so the two zeros tie (node id then decides, matching the
 * lexicographic comparator). */
static inline uint64_t sort_key(double v)
{
    uint64_t bits;
    if (v == 0.0)
        v = 0.0; /* collapse -0.0 onto +0.0 */
    memcpy(&bits, &v, sizeof(bits));
    return (bits & 0x8000000000000000ULL) ? ~bits : (bits | 0x8000000000000000ULL);
}

/* Stable LSD radix sort of keys[] with int32 payload vals[]; both scratch
 * buffers must hold n entries. Ends with the sorted data back in keys/vals.
 *
 * Six 11-bit digits cover the 64-bit key (the top pass sees 9 real bits),
 * and all six histograms are built in ONE scan of the input — the per-pass
 * counting reads of the classic formulation are the radix's main memory
 * traffic, so fusing them nearly halves it. A pass whose digit is constant
 * across all keys is skipped as an identity (stability makes that exact);
 * the histograms stay valid for later passes because a stable pass permutes
 * entries without changing any digit counts. */
static void radix_sort_pairs(
    uint64_t *keys, int32_t *vals, uint64_t *keys_tmp, int32_t *vals_tmp, int32_t n)
{
    enum { RADIX_PASSES = 6, RADIX_BINS = 2048 };
    if (n <= 1)
        return;
    int32_t counts[RADIX_PASSES][RADIX_BINS];
    memset(counts, 0, sizeof(counts));
    for (int32_t i = 0; i < n; i++) {
        uint64_t k = keys[i];
        for (int p = 0; p < RADIX_PASSES; p++)
            counts[p][(k >> (11 * p)) & 0x7FF]++;
    }
    uint64_t *ks = keys, *kd = keys_tmp;
    int32_t *vs = vals, *vd = vals_tmp;
    for (int p = 0; p < RADIX_PASSES; p++) {
        int32_t *c = counts[p];
        int shift = 11 * p;
        if (c[(ks[0] >> shift) & 0x7FF] == n)
            continue; /* all entries share this digit: the pass is identity */
        int32_t pos = 0;
        for (int b = 0; b < RADIX_BINS; b++) {
            int32_t t = c[b];
            c[b] = pos;
            pos += t;
        }
        for (int32_t i = 0; i < n; i++) {
            int32_t d = (int32_t)((ks[i] >> shift) & 0x7FF);
            kd[c[d]] = ks[i];
            vd[c[d]] = vs[i];
            c[d]++;
        }
        uint64_t *tk = ks;
        int32_t *tv = vs;
        ks = kd;
        vs = vd;
        kd = tk;
        vd = tv;
    }
    if (ks != keys) {
        memcpy(keys, ks, (size_t)n * sizeof(uint64_t));
        memcpy(vals, vs, (size_t)n * sizeof(int32_t));
    }
}

/* ------------------------------------------------------------------ */
/* peel core: clean stream + decrease-key hot heap                     */
/* ------------------------------------------------------------------ */

typedef struct {
    uint64_t *keys;       /* the clean stream: the initial keys, sorted, */
    int32_t *clean_nodes; /* and their nodes */
    uint64_t *min_key;    /* sort scratch, then each node's smallest key */
    int32_t *nodes_tmp;   /* sort scratch; run_member's union-find before it */
    entry_t *hot;
    int32_t *pos;         /* hot-heap slot of each node, -1 while not in it */
    uint8_t *alive;       /* run_member's dirty marks after the peel */
} peel_scratch_t;

/* Returns non-zero on allocation failure. */
static int scratch_alloc(peel_scratch_t *s, int32_t n)
{
    memset(s, 0, sizeof(*s));
    s->keys = (uint64_t *)malloc((size_t)n * sizeof(uint64_t));
    s->min_key = (uint64_t *)malloc((size_t)n * sizeof(uint64_t));
    s->clean_nodes = (int32_t *)malloc((size_t)n * sizeof(int32_t));
    s->nodes_tmp = (int32_t *)malloc((size_t)n * sizeof(int32_t));
    s->hot = (entry_t *)malloc((size_t)n * sizeof(entry_t));
    s->pos = (int32_t *)malloc((size_t)n * sizeof(int32_t));
    s->alive = (uint8_t *)malloc((size_t)n);
    return !(s->keys && s->min_key && s->clean_nodes && s->nodes_tmp && s->hot && s->pos
             && s->alive);
}

static void scratch_free(peel_scratch_t *s)
{
    free(s->keys);
    free(s->min_key);
    free(s->clean_nodes);
    free(s->nodes_tmp);
    free(s->hot);
    free(s->pos);
    free(s->alive);
}

/* A removal order: per pop, the packed (key, node) entry the pop took and
 * the node's priority at the pop. Room for n + 1 entries: a run of entries
 * ends in a sentinel above every entry (node ids are < 2^31). */
typedef struct {
    entry_t *entry;
    double *prio;
} order_t;

static const entry_t ORDER_END = ~(entry_t)0;

/* Returns non-zero on allocation failure. */
static int order_alloc(order_t *o, int32_t n)
{
    o->entry = (entry_t *)malloc(((size_t)n + 1) * sizeof(entry_t));
    o->prio = (double *)malloc(((size_t)n + 1) * sizeof(double));
    return !(o->entry && o->prio);
}

static void order_free(order_t *o)
{
    free(o->entry);
    free(o->prio);
}

/* Peel the flattened graph to its last node. Each pop appends to pops the
 * packed (key, node) it was taken with — the smallest key the node had,
 * and its id through node_of (NULL: as is) — and its priority then; the
 * run ends in a sentinel. Mutates prio in place. */
static void peel_order(
    int32_t n,
    const int32_t *indptr,
    const int32_t *flat_other,
    const double *flat_w,
    double *prio,
    const int32_t *node_of,
    order_t *pops,
    peel_scratch_t *s)
{
    uint8_t *alive = s->alive;
    entry_t *hot = s->hot;
    int32_t *pos = s->pos;
    uint64_t *min_key = s->min_key;
    uint64_t *clean_keys = s->keys;
    int32_t *clean_nodes = s->clean_nodes;

    for (int32_t i = 0; i < n; i++) {
        clean_keys[i] = sort_key(prio[i]);
        clean_nodes[i] = i;
    }
    radix_sort_pairs(clean_keys, clean_nodes, min_key, s->nodes_tmp, n);
    for (int32_t i = 0; i < n; i++) {
        min_key[i] = sort_key(prio[i]);
        pos[i] = -1;
        alive[i] = 1;
    }

    int32_t removed = 0;
    int32_t clean_pos = 0;
    int32_t hot_size = 0;

    while (removed < n) {
        entry_t e;
        if (hot_size > 0
            && (clean_pos >= n
                || hot[0] < entry_pack(clean_keys[clean_pos], clean_nodes[clean_pos]))) {
            e = hot[0];
            if (--hot_size > 0)
                sift_down(hot, pos, hot_size, 0, hot[hot_size]);
        } else if (clean_pos < n) {
            e = entry_pack(clean_keys[clean_pos], clean_nodes[clean_pos]);
            clean_pos++;
            if (!alive[entry_node(e)])
                continue; /* popped from the hot heap earlier */
        } else {
            break; /* unreachable: every alive node always has an entry */
        }

        int32_t node = entry_node(e);
        alive[node] = 0;
        pops->entry[removed] = node_of ? e >> 32 << 32 | (uint32_t)node_of[node] : e;
        pops->prio[removed++] = prio[node];

        for (int32_t j = indptr[node]; j < indptr[node + 1]; j++) {
            int32_t other = flat_other[j];
            if (alive[other]) {
                double updated = prio[other] - flat_w[j];
                prio[other] = updated;
                uint64_t k = sort_key(updated);
                if (k < min_key[other]) {
                    min_key[other] = k;
                    int32_t slot = pos[other] < 0 ? hot_size++ : pos[other];
                    sift_up(hot, pos, slot, entry_pack(k, other));
                }
            }
        }
    }
    pops->entry[n] = ORDER_END;
    pops->prio[n] = 0.0;
}

/* ------------------------------------------------------------------ */
/* removal orders: merge and density pass                              */
/* ------------------------------------------------------------------ */

/* Merge the kept order (n_kept entries of o from slot kept_at) with a
 * peel's pops, always taking the smaller head entry. The merged order goes
 * to o from slot 0 — with n_kept > 0, kept_at >= the pop count, so a write
 * never reaches a kept entry not yet read, nor the sentinel this puts after
 * them — and the density pass runs over it as the peel loop would:
 * ``total -= priority at pop``, then ``total / n_alive``, stopping one pop
 * short of the last node, with the first strict maximum as the best
 * prefix. densities may be NULL. o and pops may be one order when n_kept
 * is 0. */
static void merge_orders(
    order_t *o,
    int32_t n_kept,
    int32_t kept_at,
    const order_t *pops,
    int32_t n_new,
    double total,
    double *densities,
    double *best_density_out,
    int32_t *best_removed_out)
{
    entry_t end = ORDER_END;
    double end_prio = 0.0;
    const entry_t *kept = &end;
    const double *kept_prio = &end_prio;
    if (n_kept > 0) {
        kept = o->entry + kept_at;
        kept_prio = o->prio + kept_at;
        o->entry[kept_at + n_kept] = ORDER_END;
        o->prio[kept_at + n_kept] = 0.0;
    }
    int32_t n = n_kept + n_new;
    double best_density = total / (double)n;
    if (densities)
        densities[0] = best_density;
    int32_t best_removed = 0;
    int32_t i = 0, j = 0;

    for (int32_t w = 0; w < n; w++) {
        double p;
        if (kept[i] < pops->entry[j]) {
            o->entry[w] = kept[i];
            p = kept_prio[i++];
        } else {
            o->entry[w] = pops->entry[j];
            p = pops->prio[j++];
        }
        o->prio[w] = p;
        if (w + 1 < n) {
            total -= p;
            double density = total / (double)(n - 1 - w);
            if (densities)
                densities[w + 1] = density;
            if (density > best_density) {
                best_density = density;
                best_removed = w + 1;
            }
        }
    }
    *best_density_out = best_density;
    *best_removed_out = best_removed;
}

/* ------------------------------------------------------------------ */
/* single-peel entry point                                             */
/* ------------------------------------------------------------------ */

/* Peel the flattened graph down to one node. Mutates prio in place (left at
 * its final state, like the reference); removal_order and densities hold n
 * entries. Returns the number of nodes removed (n - 1), or -1 on allocation
 * failure or when n reaches the int32 limit (the caller then runs the
 * reference engine). */
int64_t repro_greedy_peel(
    int64_t n,
    const int32_t *indptr,
    const int32_t *flat_other,
    const double *flat_w,
    double *prio,
    double total,
    int32_t *removal_order,
    double *densities,
    double *best_density_out,
    int64_t *best_removed_out)
{
    if (n <= 0)
        return 0;
    if (n >= INT32_MAX)
        return -1;
    peel_scratch_t scratch;
    order_t order;
    int failed = scratch_alloc(&scratch, (int32_t)n) | order_alloc(&order, (int32_t)n);
    if (!failed) {
        int32_t best_removed;
        peel_order((int32_t)n, indptr, flat_other, flat_w, prio, NULL, &order, &scratch);
        merge_orders(
            &order, 0, 0, &order, (int32_t)n, total, densities, best_density_out, &best_removed);
        for (int64_t i = 0; i < n; i++)
            removal_order[i] = entry_node(order.entry[i]);
        *best_removed_out = best_removed;
    }
    scratch_free(&scratch);
    order_free(&order);
    return failed ? -1 : n - 1;
}

/* ------------------------------------------------------------------ */
/* batched multi-member FDET                                           */
/* ------------------------------------------------------------------ */

/* The parent columns arrive in their *storage* dtype (compact stores keep
 * int32 ids / float32 weights in their store files) and are widened at the
 * single load site: int32 -> int64 is exact, and (double)w32 reproduces the
 * float64 value exactly because compaction only narrows weights whose
 * round-trip is bit-exact. Everything downstream of these loads is
 * member-local int32 ids and double weights, so compact and wide parents
 * peel bitwise-identically. */
static inline int64_t load_idx(const void *p, int64_t width, int64_t i)
{
    return width == 4 ? (int64_t)((const int32_t *)p)[i] : ((const int64_t *)p)[i];
}

static inline double load_w(const void *p, int64_t width, int64_t i)
{
    return width == 4 ? (double)((const float *)p)[i] : ((const double *)p)[i];
}

typedef struct {
    /* parent graph (read-only, shared across members) */
    int64_t pn_users;
    int64_t pn_merchants;
    const void *p_eu;  /* int32 or int64 per idx_width */
    const void *p_em;
    int64_t idx_width; /* endpoint itemsize in bytes: 4 or 8 */
    const void *p_w;   /* float or double per w_width; NULL when unweighted */
    int64_t w_width;   /* weight itemsize in bytes: 4 or 8 */
    const double *weight_table; /* merchant degree -> edge multiplier */
    /* member descriptions */
    const int64_t *edge_ids;
    const int64_t *edge_off;
    const double *scales;
    /* FDET config */
    int64_t max_blocks;
    int64_t min_block_edges;
    double min_density_ratio;
    int64_t frozen_policy;
    int64_t all_nodes; /* skip node compaction: every parent node is kept */
    /* outputs */
    int64_t *out_status;
    int64_t *out_nu;
    int64_t *out_nm;
    int64_t *kept_users;
    const int64_t *ku_off;
    int64_t *kept_merchants;
    const int64_t *km_off;
    int64_t *out_n_blocks;
    double *block_density;
    int64_t *block_n_edges;
    uint8_t *block_masks;
    const int64_t *mask_off;
} batch_args_t;

/* Drop the live nodes whose alive degree is zero: compact live_n, deg and
 * deg_frozen (when given) in order, and renumber the n_e edge endpoints.
 * newid (n_live entries) receives each node's new id, -1 when dropped.
 * Returns the new live-node count. */
static int32_t drop_isolated(
    int32_t n_live,
    int32_t *live_n,
    int32_t *deg,
    int32_t *deg_frozen,
    int32_t n_e,
    int32_t *eu,
    int32_t *ev,
    int32_t *newid)
{
    int32_t kept = 0;
    for (int32_t p = 0; p < n_live; p++) {
        newid[p] = -1;
        if (deg[p] > 0) {
            newid[p] = kept;
            live_n[kept] = live_n[p];
            deg[kept] = deg[p];
            if (deg_frozen)
                deg_frozen[kept] = deg_frozen[p];
            kept++;
        }
    }
    if (kept < n_live)
        for (int32_t r = 0; r < n_e; r++) {
            eu[r] = newid[eu[r]];
            ev[r] = newid[ev[r]];
        }
    return kept;
}

/* Union-find over a peel's node ids, for the components of its graph:
 * parent links with path halving, each root the smallest id in its set. */
static inline int32_t uf_find(int32_t *parent, int32_t x)
{
    while (parent[x] != x) {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    return x;
}

static inline void uf_union(int32_t *parent, int32_t u, int32_t v)
{
    u = uf_find(parent, u);
    v = uf_find(parent, v);
    int32_t root = u < v ? u : v;
    parent[u ^ v ^ root] = root; /* a no-op when u == v */
}

/* Carry a live-node block's removal order past drop_isolated. First move
 * comp to the new ids — -1 for a node of a component marked in dirty (by
 * label), which the next block re-peels — and turn newid into the kept
 * nodes' new ids (-1 for the dirty ones too). Then drop the dirty entries
 * from the order's n_old entries, renumber the rest, and pack them at the
 * top of those slots: the renumbering keeps node order, so the entries
 * still merge by (key, node). Returns the slot of the first kept entry. */
static int32_t drop_dirty(
    order_t *o, int32_t n_old, int32_t *comp, const uint8_t *dirty, int32_t *newid)
{
    /* a clean label keeps its new id in newid whether rewritten yet or
     * not; newid[p] <= p, so comp[p] is read before any write reaches it */
    for (int32_t p = 0; p < n_old; p++) {
        int32_t c = comp[p], q = newid[p];
        if (q >= 0)
            comp[q] = dirty[c] ? -1 : newid[c];
        newid[p] = dirty[c] ? -1 : q;
    }
    /* a backward pass writes every entry to slot w - 1 >= i, but moves w
     * down only past a kept one, so no entry is overwritten before it is
     * read and a dropped entry's slot is taken by the next kept one */
    int32_t w = n_old;
    for (int32_t i = n_old - 1; i >= 0; i--) {
        entry_t e = o->entry[i];
        int32_t q = newid[entry_node(e)];
        o->prio[w - 1] = o->prio[i];
        o->entry[w - 1] = e >> 32 << 32 | (uint32_t)q;
        w -= q >= 0;
    }
    return w;
}

/* One member's full FDET run (Algorithm 1): node compaction, then the block
 * loop on the residual graph — weights, priorities, total and CSR built
 * from the alive edges and alive degrees, the peel of the live nodes whose
 * component the last block touched, the merge with the kept order, mask
 * bookkeeping, and compaction of the edges, nodes and order. Sets
 * out_status[m] = -1 on allocation failure or at the int32 limit (the
 * caller re-runs the member without the batch). */
static void run_member(const batch_args_t *a, int64_t m)
{
    int64_t me = a->edge_off[m + 1] - a->edge_off[m];
    const int64_t *ids = a->edge_ids + a->edge_off[m];
    double scale = a->scales[m];

    a->out_status[m] = 0;
    a->out_n_blocks[m] = 0;
    a->out_nu[m] = 0;
    a->out_nm[m] = 0;
    if (me == 0)
        return; /* empty sample: no nodes, no blocks (k_hat = 0) */

    uint8_t *keep = NULL;
    int32_t *remap_u = NULL, *remap_m = NULL, *eu = NULL, *ev = NULL, *live_n = NULL;
    int32_t *deg = NULL, *deg_frozen = NULL, *indptr = NULL, *fill = NULL, *flat_other = NULL;
    int32_t *comp = NULL;
    double *mw = NULL, *ew = NULL, *flat_w = NULL, *prio = NULL;
    /* zeroed, so freeing them is safe on every path */
    peel_scratch_t scratch;
    order_t order, pops;
    memset(&scratch, 0, sizeof(scratch));
    memset(&order, 0, sizeof(order));
    memset(&pops, 0, sizeof(pops));

    /* a compacted member has at most 2 * me nodes; an all_nodes member has
     * every parent node */
    if (2 * me >= INT32_MAX || (a->all_nodes && a->pn_users + a->pn_merchants >= INT32_MAX))
        goto failed;

    /* ---- node compaction: np.unique(endpoints, return_inverse=True) as a
     * presence scan then a running rank in place, or the identity map over
     * every parent node under all_nodes ---- */
    remap_u = (int32_t *)calloc((size_t)a->pn_users, sizeof(int32_t));
    remap_m = (int32_t *)calloc((size_t)a->pn_merchants, sizeof(int32_t));
    eu = (int32_t *)malloc((size_t)me * sizeof(int32_t));
    ev = (int32_t *)malloc((size_t)me * sizeof(int32_t));
    mw = (double *)malloc((size_t)me * sizeof(double));
    if (!remap_u || !remap_m || !eu || !ev || !mw)
        goto failed;

    int32_t nu = 0, nm = 0;
    {
        int64_t *ku = a->kept_users + a->ku_off[m];
        int64_t *km = a->kept_merchants + a->km_off[m];
        if (!a->all_nodes)
            for (int64_t i = 0; i < me; i++) {
                remap_u[load_idx(a->p_eu, a->idx_width, ids[i])] = 1;
                remap_m[load_idx(a->p_em, a->idx_width, ids[i])] = 1;
            }
        for (int64_t u = 0; u < a->pn_users; u++)
            if (a->all_nodes || remap_u[u]) {
                ku[nu] = u;
                remap_u[u] = nu++;
            }
        for (int64_t v = 0; v < a->pn_merchants; v++)
            if (a->all_nodes || remap_m[v]) {
                km[nm] = v;
                remap_m[v] = nm++;
            }
    }
    a->out_nu[m] = nu;
    a->out_nm[m] = nm;
    for (int64_t i = 0; i < me; i++) {
        int64_t e = ids[i];
        eu[i] = remap_u[load_idx(a->p_eu, a->idx_width, e)];
        /* merchants live after the users in the joint node index space */
        ev[i] = nu + remap_m[load_idx(a->p_em, a->idx_width, e)];
        /* weights_or_ones() * weight_scale; x * 1.0 is an exact identity */
        mw[i] = (a->p_w ? load_w(a->p_w, a->w_width, e) : 1.0) * scale;
    }
    free(remap_u);
    free(remap_m);
    remap_u = remap_m = NULL;

    /* ---- per-member scratch, sized for block 0 and reused by every block ---- */
    {
        int32_t n = nu + nm;
        int32_t n_live_e = (int32_t)me;
        ew = (double *)malloc((size_t)me * sizeof(double));
        deg = (int32_t *)calloc((size_t)n, sizeof(int32_t));
        live_n = (int32_t *)malloc((size_t)n * sizeof(int32_t));
        indptr = (int32_t *)malloc((size_t)(n + 1) * sizeof(int32_t));
        fill = (int32_t *)malloc((size_t)n * sizeof(int32_t));
        flat_other = (int32_t *)malloc((size_t)(2 * me) * sizeof(int32_t));
        flat_w = (double *)malloc((size_t)(2 * me) * sizeof(double));
        prio = (double *)malloc((size_t)n * sizeof(double));
        comp = (int32_t *)malloc((size_t)n * sizeof(int32_t));
        keep = (uint8_t *)malloc((size_t)n);
        if (!ew || !deg || !live_n || !indptr || !fill || !flat_other || !flat_w || !prio
            || !comp || !keep)
            goto failed;
        if (scratch_alloc(&scratch, n) || order_alloc(&order, n) || order_alloc(&pops, n))
            goto failed;

        /* alive degrees, decremented as blocks remove edges; only an
         * all_nodes member starts with nodes that have no edge */
        for (int32_t r = 0; r < n_live_e; r++) {
            deg[eu[r]]++;
            deg[ev[r]]++;
        }
        for (int32_t v = 0; v < n; v++)
            live_n[v] = v;
        /* merchant degree feeding the weight table: the residual degree, or
         * the input degree under the frozen policy (both per live node) */
        const int32_t *wdeg = deg;
        if (a->frozen_policy) {
            deg_frozen = (int32_t *)malloc((size_t)n * sizeof(int32_t));
            if (!deg_frozen)
                goto failed;
            memcpy(deg_frozen, deg, (size_t)n * sizeof(int32_t));
            wdeg = deg_frozen;
        }
        /* fill doubles as the renumbering scratch outside the CSR build */
        int32_t n_live_n = drop_isolated(n, live_n, deg, deg_frozen, n_live_e, eu, ev, fill);

        /* ---- the FDET block loop ---- */
        int64_t n_blocks = 0;
        double first_density = 0.0;
        int have_first = 0;
        int64_t row_bytes = ((int64_t)n + 7) / 8;
        /* comp[p] is live node p's component, or negative while p is dirty:
         * in a component the last block touched, so its kept pops are gone
         * and the next block re-peels it. The order keeps the pops of the
         * other live nodes, n_kept entries from slot kept_at. Block 0 and
         * the block after a full-node block start with every node dirty. */
        for (int32_t p = 0; p < n_live_n; p++)
            comp[p] = -1;
        int32_t n_kept = 0, kept_at = 0;

        for (int64_t b = 0; b < a->max_blocks && n_live_e > 0; b++) {
            /* residual edge weights table[degree] * member weight, in
             * ascending (residual) edge order; NaN fails the > 0 test */
            int all_positive = 1;
            for (int32_t r = 0; r < n_live_e; r++) {
                double w = a->weight_table[wdeg[ev[r]]] * mw[r];
                ew[r] = w;
                all_positive &= w > 0.0;
            }
            /* float(0.0 + edge_weights.sum()) */
            double total = 0.0 + pairwise_sum(ew, n_live_e);

            /* Nodes without an alive edge have priority +0.0. With every
             * weight > 0 all other nodes rank above them, so the full peel
             * pops them first, in node order, with no neighbour updates; a
             * positive normal total/n makes each of those pops raise the
             * density strictly, so the best prefix always drops them and the
             * rest of the peel is the peel of the live nodes alone (numbered
             * in order, so ties break the same way). Of those, only the
             * dirty ones are peeled: the merge with the kept order supplies
             * the rest. Otherwise peel all n, with joint[] mapping live ids
             * to member node ids. */
            double density_all = total / (double)n;
            int residual = all_positive && density_all >= DBL_MIN && density_all <= DBL_MAX;
            const int32_t *joint = residual ? NULL : live_n;
            int32_t n_peel, n_order; /* nodes peeled; nodes in the merged order */

            /* CSR offsets: the running sum of the alive degrees. A dirty
             * node's comp becomes -1 - its peel id, numbered in live order */
            if (residual) {
                n_peel = 0;
                indptr[0] = 0;
                for (int32_t p = 0; p < n_live_n; p++) {
                    /* the slot past the last dirty node is scratch */
                    int is_dirty = comp[p] < 0;
                    comp[p] = is_dirty ? -1 - n_peel : comp[p];
                    indptr[n_peel + 1] = indptr[n_peel] + deg[p];
                    n_peel += is_dirty;
                }
                n_order = n_live_n;
            } else {
                /* a full-node peel keeps nothing of the order before it */
                n_peel = n_order = n;
                kept_at = n_kept = 0;
                memset(indptr, 0, (size_t)(n + 1) * sizeof(int32_t));
                for (int32_t p = 0; p < n_live_n; p++)
                    indptr[live_n[p] + 1] = deg[p];
                for (int32_t v = 0; v < n; v++)
                    indptr[v + 1] += indptr[v];
            }
            /* some live nodes keep their pops: peel ids are not live ids */
            int partial = n_peel < n_order;
            /* priority = np.zeros(n) + the two np.add.at passes
             * (users and merchants are disjoint, so one pass adds to every
             * node in the same order); spans filled in edge order. A
             * live-node peel also joins its edges' endpoints in a union-find
             * over the peel scratch, which is free until the peel sorts */
            int32_t *parent = residual ? scratch.nodes_tmp : NULL;
            for (int32_t p = 0; p < n_peel; p++) {
                fill[p] = indptr[p];
                prio[p] = 0.0;
                if (parent)
                    parent[p] = p;
            }
            for (int32_t r = 0; r < n_live_e; r++) {
                int32_t u = eu[r], v = ev[r];
                if (joint) {
                    u = joint[u];
                    v = joint[v];
                } else if (partial) {
                    if (comp[u] >= 0)
                        continue; /* an edge of a clean component */
                    u = -1 - comp[u];
                    v = -1 - comp[v];
                }
                double w = ew[r];
                prio[u] += w;
                prio[v] += w;
                int32_t slot = fill[u]++;
                flat_other[slot] = v;
                flat_w[slot] = w;
                slot = fill[v]++;
                flat_other[slot] = u;
                flat_w[slot] = w;
                if (parent)
                    uf_union(parent, u, v);
            }

            /* fill: the live id of each peeled node, when they differ */
            const int32_t *node_of = NULL;
            if (partial) {
                for (int32_t p = 0, k = 0; p < n_live_n; p++) {
                    fill[k] = p; /* a clean node's write lands past the end */
                    k += comp[p] < 0;
                }
                node_of = fill;
            }
            /* label each peeled node's component by its root's live id */
            if (parent)
                for (int32_t v = 0; v < n_peel; v++) {
                    int32_t root = uf_find(parent, v);
                    comp[node_of ? node_of[v] : v] = node_of ? node_of[root] : root;
                }
            /* with nothing kept, the peel writes the order itself and the
             * merge runs in place */
            order_t *popped = n_kept > 0 ? &pops : &order;
            peel_order(n_peel, indptr, flat_other, flat_w, prio, node_of, popped, &scratch);
            double best_density;
            int32_t best_removed;
            merge_orders(
                &order, n_kept, kept_at, popped, n_peel, total, NULL, &best_density,
                &best_removed);

            memset(keep, 1, (size_t)n_order);
            for (int32_t i = 0; i < best_removed; i++)
                keep[entry_node(order.entry[i])] = 0;

            /* count the block's edges and drop them from the alive arrays
             * in one pass, marking the components that held them dirty; a
             * rejected block ends the member, so the arrays are never read
             * again after that */
            uint8_t *dirty = residual ? scratch.alive : NULL;
            if (dirty)
                memset(dirty, 0, (size_t)n_live_n);
            int64_t count = 0;
            int32_t kept_e = 0;
            for (int32_t r = 0; r < n_live_e; r++) {
                int32_t u = eu[r], v = ev[r];
                int in_block = joint ? keep[joint[u]] & keep[joint[v]] : keep[u] & keep[v];
                if (in_block) {
                    count++;
                    deg[u]--;
                    deg[v]--;
                    if (dirty)
                        dirty[comp[u]] = 1;
                } else {
                    eu[kept_e] = u;
                    ev[kept_e] = v;
                    mw[kept_e] = mw[r];
                    kept_e++;
                }
            }
            if (count < a->min_block_edges)
                break;

            uint8_t *row = a->block_masks + a->mask_off[m] + n_blocks * row_bytes;
            memset(row, 0, (size_t)row_bytes);
            for (int32_t p = 0; p < n_order; p++)
                if (keep[p]) {
                    int32_t v = joint ? p : live_n[p];
                    row[v >> 3] |= (uint8_t)(1u << (v & 7));
                }
            a->block_density[m * a->max_blocks + n_blocks] = best_density;
            a->block_n_edges[m * a->max_blocks + n_blocks] = count;
            n_blocks++;

            if (!have_first) {
                first_density = best_density;
                have_first = 1;
            } else if (a->min_density_ratio > 0.0
                       && best_density < a->min_density_ratio * first_density) {
                break;
            }

            n_live_e = kept_e;
            int32_t n_before = n_live_n;
            n_live_n = drop_isolated(n_live_n, live_n, deg, deg_frozen, n_live_e, eu, ev, fill);
            if (residual) {
                kept_at = drop_dirty(&order, n_before, comp, dirty, fill);
                n_kept = n_before - kept_at;
            } else {
                for (int32_t p = 0; p < n_live_n; p++)
                    comp[p] = -1;
            }
        }
        a->out_n_blocks[m] = n_blocks;
    }
    goto cleanup;

failed:
    a->out_status[m] = -1;
    a->out_n_blocks[m] = 0;

cleanup:
    free(remap_u);
    free(remap_m);
    free(eu);
    free(ev);
    free(mw);
    free(ew);
    free(deg);
    free(deg_frozen);
    free(live_n);
    free(indptr);
    free(fill);
    free(flat_other);
    free(flat_w);
    free(prio);
    free(comp);
    free(keep);
    scratch_free(&scratch);
    order_free(&order);
    order_free(&pops);
}

int64_t repro_fdet_batch(
    int64_t pn_users,
    int64_t pn_merchants,
    const void *p_eu,
    const void *p_em,
    int64_t idx_width,
    const void *p_w,
    int64_t has_weights,
    int64_t w_width,
    const double *weight_table,
    int64_t n_members,
    const int64_t *edge_ids,
    const int64_t *edge_off,
    const double *scales,
    int64_t max_blocks,
    int64_t min_block_edges,
    double min_density_ratio,
    int64_t frozen_policy,
    int64_t all_nodes,
    int64_t n_threads,
    int64_t *out_status,
    int64_t *out_nu,
    int64_t *out_nm,
    int64_t *kept_users,
    const int64_t *ku_off,
    int64_t *kept_merchants,
    const int64_t *km_off,
    int64_t *out_n_blocks,
    double *block_density,
    int64_t *block_n_edges,
    uint8_t *block_masks,
    const int64_t *mask_off)
{
    batch_args_t args;
    args.pn_users = pn_users;
    args.pn_merchants = pn_merchants;
    args.p_eu = p_eu;
    args.p_em = p_em;
    args.idx_width = idx_width;
    args.p_w = has_weights ? p_w : NULL;
    args.w_width = w_width;
    args.weight_table = weight_table;
    args.edge_ids = edge_ids;
    args.edge_off = edge_off;
    args.scales = scales;
    args.max_blocks = max_blocks;
    args.min_block_edges = min_block_edges;
    args.min_density_ratio = min_density_ratio;
    args.frozen_policy = frozen_policy;
    args.all_nodes = all_nodes;
    args.out_status = out_status;
    args.out_nu = out_nu;
    args.out_nm = out_nm;
    args.kept_users = kept_users;
    args.ku_off = ku_off;
    args.kept_merchants = kept_merchants;
    args.km_off = km_off;
    args.out_n_blocks = out_n_blocks;
    args.block_density = block_density;
    args.block_n_edges = block_n_edges;
    args.block_masks = block_masks;
    args.mask_off = mask_off;

#ifdef _OPENMP
    if (n_threads < 1)
        n_threads = 1;
#pragma omp parallel for schedule(dynamic, 1) num_threads((int)n_threads)
    for (int64_t m = 0; m < n_members; m++)
        run_member(&args, m);
#else
    (void)n_threads;
    for (int64_t m = 0; m < n_members; m++)
        run_member(&args, m);
#endif
    return 0;
}

/* 1 when this build runs members OpenMP-parallel, 0 for the serial build. */
int64_t repro_has_openmp(void)
{
#ifdef _OPENMP
    return 1;
#else
    return 0;
#endif
}
