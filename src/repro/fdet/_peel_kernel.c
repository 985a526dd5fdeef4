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
 * few components, the "touched" ones. Every other component keeps its
 * nodes, edges, edge order and weights — none of its merchants changes
 * degree, so both weight policies agree — so the next block would peel it
 * into the same entries and priorities, bit for bit. So after a live-node
 * block the kernel walks the touched components' nodes into a bitset, and
 * the next block peels the ones still live — numbered in member order, with
 * the priorities, CSR and sort over them alone — and merges the kept order
 * back in, dropping the walked nodes' kept entries as it reads them. A
 * node whose last edge leaves in a block lies in a touched component, so
 * its entry goes with the component's. The density pass runs over the
 * merged order exactly as the peel loop would: ``total -= priority at
 * pop``, then ``total / n_alive``, with a strict ``>``, stopping one pop
 * short of the last node; the block is the merged order's tail from the
 * best prefix on. Components are found by a union-find over the edges of
 * each peel, and each is kept as a list of its nodes in member order,
 * headed by its label. If the block's edges made up whole components no
 * live node is walked, and the next block is the merge alone. Block 0 and
 * the block after one that peels the full member node set keep nothing:
 * they peel every live node but their single-edge components.
 *
 * Single-edge components. Edge sampling leaves many nodes in pairs: a user
 * and a merchant of degree 1 joined by one edge of weight w. Their peel is
 * known in closed form. With every weight finite and > 0 (which the test
 * that drops the edgeless nodes requires), both ends start at priority
 * 0.0 + w == w. The user pops first, at key(w), since users are numbered
 * before merchants, and takes its merchant to w - w == +0.0, below key(w),
 * so the merchant pops next, at key(+0.0) with priority +0.0. The merge of
 * the pairs' two-entry orders therefore takes the pairs by (key(w), user),
 * each user followed at once by its merchant: one stable sort of one key
 * per pair (``pair_order``), where the peel would sort both ends into the
 * clean stream and push each merchant through the hot heap. So a block
 * that keeps nothing finds every alive edge whose two ends have degree 1
 * (from each user's last edge) and writes those pairs straight into the
 * kept order, which the merge interleaves with the peel of the rest. Each
 * pair is labelled by its user and linked user then merchant, so a later
 * block that takes one walks it like any other component. A block that
 * peels the full member node set peels its pairs too.
 *
 * Fixed member ids. A member's nodes keep the ids node compaction gives
 * them (users, then merchants, each in parent order) for the whole run:
 * the alive edges are two int32 endpoint arrays in those ids, compacted in
 * order after every block, and the alive degrees are decremented, never
 * recounted. Nothing is renumbered when nodes fall isolated. Per-node work
 * after block 0 follows the walked nodes and the block's own nodes. Two
 * passes per block still touch the whole live member, because bitwise
 * parity needs them: the stream over the alive edges, whose weights feed
 * ``total`` through ``pairwise_sum`` in edge order (the same stream adds
 * the walked components' edges to the peel, and a second one drops the
 * block's edges), and the merge-and-density pass over the removal order,
 * since ``total`` changes every pop's density.
 *
 * int32 member layout. Node ids, CSR offsets and half-edge endpoints are
 * int32, so a graph peels only while its node count and its half-edge count
 * (2 |E|) stay below ``INT32_MAX``. ``peeling.py`` runs the reference engine
 * beyond that; ``run_member`` reports status -1 — the per-member fallback
 * the caller already takes on an allocation failure — for a member whose
 * node count (its parent's, under ``all_nodes``) or half-edge count reaches
 * it. Parent ids stay int64 until compaction ranks them. Dropping the
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
 *     presence bitset: its set bits in order are the unique values, and a
 *     value's inverse is its rank, a popcount below it — node compaction.
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
    int32_t *clean_nodes; /* and their nodes; run_member's pair edges before it */
    uint64_t *min_key;    /* sort scratch, then each node's smallest key */
    int32_t *nodes_tmp;   /* sort scratch; run_member's union-find before it */
    entry_t *hot;
    int32_t *pos;         /* hot-heap slot of each node, -1 while not in it;
                           * run_member's component list tails before it,
                           * and its users' last edges before those */
    uint8_t *alive;       /* 1 until the node pops */
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

/* Set node v's bit in a bitset of uint64 words; returns whether it was set. */
static inline int bit_put(uint64_t *bits, int32_t v)
{
    uint64_t mask = (uint64_t)1 << (v & 63), word = bits[v >> 6];
    bits[v >> 6] = word | mask;
    return (word & mask) != 0;
}

static inline void bit_clear(uint64_t *bits, int32_t v)
{
    bits[v >> 6] &= ~((uint64_t)1 << (v & 63));
}

/* Merge the kept order, n_kept entries of kept, with a peel's pops into
 * the n entries of out, always taking the smaller head entry, and run the
 * density pass over them as the peel loop would: ``total -= priority at
 * pop``, then ``total / n_alive``, stopping one pop short of the last node,
 * with the first strict maximum as the best prefix. The merge drops the
 * kept entries of the nodes set in walked, and clears their bits: every
 * set bit must be the node of one kept entry, so walked ends all clear.
 * The pops may lie in out itself from slot n minus their count on: a write
 * never reaches a pop not yet read. densities may be NULL. */
static void merge_orders(
    order_t *out,
    order_t *kept,
    int32_t n_kept,
    uint64_t *walked,
    const order_t *pops,
    int32_t n,
    double total,
    double *densities,
    double *best_density_out,
    int32_t *best_removed_out)
{
    entry_t end = ORDER_END;
    const entry_t *kept_e = &end;
    const double *kept_p = NULL; /* read only below the sentinel */
    if (n_kept > 0) {
        kept->entry[n_kept] = ORDER_END;
        kept_e = kept->entry;
        kept_p = kept->prio;
    }
    double best_density = total / (double)n;
    if (densities)
        densities[0] = best_density;
    int32_t best_removed = 0;
    int32_t i = 0, j = 0;

    for (int32_t w = 0; w < n;) {
        entry_t e;
        double p;
        if (kept_e[i] < pops->entry[j]) {
            e = kept_e[i];
            p = kept_p[i++];
            int32_t v = entry_node(e);
            uint64_t mask = (uint64_t)1 << (v & 63);
            if (walked[v >> 6] & mask) {
                walked[v >> 6] &= ~mask;
                continue; /* re-peeled, or left without an edge */
            }
        } else {
            e = pops->entry[j];
            p = pops->prio[j++];
        }
        out->entry[w] = e;
        out->prio[w] = p;
        if (++w < n) {
            total -= p;
            double density = total / (double)(n - w);
            if (densities)
                densities[w] = density;
            if (density > best_density) {
                best_density = density;
                best_removed = w;
            }
        }
    }
    for (; i < n_kept; i++) /* dropped entries after the last kept one */
        bit_clear(walked, entry_node(kept_e[i]));
    *best_density_out = best_density;
    *best_removed_out = best_removed;
}

/* The removal order of single-edge components, written into out without a
 * peel: n_pairs edges (eu[r], ev[r]) of finite weight ew[r] > 0, listed by
 * ascending user in s->clean_nodes. Both ends start at priority
 * 0.0 + w == w. The user pops first, at key(w), since users are numbered
 * before merchants, and takes its merchant to w - w == +0.0, below key(w),
 * so the merchant pops next, at key(+0.0). Merged, these two-entry orders
 * take the pairs by (key(w), user), each followed by its merchant: a
 * stable sort by key(w). The sort uses the rest of s as scratch. */
static void pair_order(
    order_t *out,
    int32_t n_pairs,
    const int32_t *eu,
    const int32_t *ev,
    const double *ew,
    peel_scratch_t *s)
{
    uint64_t *keys = s->keys;
    int32_t *edges = s->clean_nodes;
    for (int32_t i = 0; i < n_pairs; i++)
        keys[i] = sort_key(ew[edges[i]]);
    radix_sort_pairs(keys, edges, s->min_key, s->nodes_tmp, n_pairs);
    for (int32_t i = 0; i < n_pairs; i++) {
        int32_t r = edges[i];
        out->entry[2 * i] = entry_pack(keys[i], eu[r]);
        out->prio[2 * i] = ew[r];
        out->entry[2 * i + 1] = entry_pack(sort_key(0.0), ev[r]);
        out->prio[2 * i + 1] = 0.0;
    }
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
            &order, NULL, 0, NULL, &order, (int32_t)n, total, densities, best_density_out,
            &best_removed);
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

/* np.unique over the ids set in a presence bitset of n_words words: the
 * set ids go to ids in ascending order, and rank[w] counts the ids set
 * below word w. Returns the number of ids set. */
static int32_t rank_bits(const uint64_t *bits, int64_t n_words, int32_t *rank, int64_t *ids)
{
    int32_t k = 0;
    for (int64_t w = 0; w < n_words; w++) {
        rank[w] = k;
        for (uint64_t b = bits[w]; b; b &= b - 1)
            ids[k++] = w * 64 + __builtin_ctzll(b);
    }
    return k;
}

/* np.unique's inverse: the rank of set id x among the ids set. */
static inline int32_t bit_rank(const uint64_t *bits, const int32_t *rank, int64_t x)
{
    uint64_t below = bits[x >> 6] & (((uint64_t)1 << (x & 63)) - 1);
    return rank[x >> 6] + __builtin_popcountll(below);
}

/* Set the first n bits of a bitset of (n + 63) / 64 words, and no other. */
static void bits_fill(uint64_t *bits, int32_t n)
{
    memset(bits, 0xFF, (size_t)(n / 64) * sizeof(uint64_t));
    if (n % 64)
        bits[n / 64] = ((uint64_t)1 << (n % 64)) - 1;
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

/* Add edge (u, v) of weight w to a peel: both priorities (np.add.at, so in
 * edge order) and both CSR spans, where slot[x] is x's next free slot. */
static inline void add_edge(
    int32_t u, int32_t v, double w, double *prio, int32_t *slot, int32_t *flat_other,
    double *flat_w)
{
    prio[u] += w;
    prio[v] += w;
    int32_t k = slot[u]++;
    flat_other[k] = v;
    flat_w[k] = w;
    k = slot[v]++;
    flat_other[k] = u;
    flat_w[k] = w;
}

/* One member's full FDET run (Algorithm 1): node compaction, then the block
 * loop on the residual graph — in a block that keeps nothing, its pairs
 * taken out of the peel; weights, total, and the priorities, CSR and
 * union-find of the nodes the last block's components hold, in one stream
 * over the alive edges; the peel of those nodes, and the pairs written into
 * the kept order; the merge with the kept order; the block's edges counted
 * and dropped in one more stream; and the walk of the components they
 * touched. Sets out_status[m] = -1 on allocation failure or at the int32
 * limit (the caller re-runs the member without the batch). */
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
    uint64_t *present = NULL, *walked = NULL;
    int64_t *ends = NULL;
    int32_t *rank = NULL, *eu = NULL, *ev = NULL, *deg = NULL, *deg_frozen = NULL;
    int32_t *indptr = NULL, *node_of = NULL, *flat_other = NULL, *comp = NULL, *next = NULL;
    double *mw = NULL, *ew = NULL, *flat_w = NULL, *prio = NULL;
    /* zeroed, so freeing them is safe on every path */
    peel_scratch_t scratch;
    order_t order, spare;
    memset(&scratch, 0, sizeof(scratch));
    memset(&order, 0, sizeof(order));
    memset(&spare, 0, sizeof(spare));

    /* a compacted member has at most 2 * me nodes; an all_nodes member has
     * every parent node */
    if (2 * me >= INT32_MAX || (a->all_nodes && a->pn_users + a->pn_merchants >= INT32_MAX))
        goto failed;

    /* ---- node compaction: np.unique(endpoints, return_inverse=True) as a
     * presence bitset per side, whose set bits are the sorted ids and give
     * each id's rank by a popcount, or the identity over every parent node
     * under all_nodes. One gather reads each edge's parent endpoints. ---- */
    eu = (int32_t *)malloc((size_t)me * sizeof(int32_t));
    ev = (int32_t *)malloc((size_t)me * sizeof(int32_t));
    mw = (double *)malloc((size_t)me * sizeof(double));
    if (!eu || !ev || !mw)
        goto failed;

    int32_t nu = 0, nm = 0;
    {
        int64_t *ku = a->kept_users + a->ku_off[m];
        int64_t *km = a->kept_merchants + a->km_off[m];
        int64_t wu = (a->pn_users + 63) / 64, wm = (a->pn_merchants + 63) / 64;
        if (a->all_nodes) {
            nu = (int32_t)a->pn_users;
            nm = (int32_t)a->pn_merchants;
            for (int32_t u = 0; u < nu; u++)
                ku[u] = u;
            for (int32_t v = 0; v < nm; v++)
                km[v] = v;
        } else {
            present = (uint64_t *)calloc((size_t)(wu + wm), sizeof(uint64_t));
            rank = (int32_t *)malloc((size_t)(wu + wm) * sizeof(int32_t));
            ends = (int64_t *)malloc((size_t)(2 * me) * sizeof(int64_t));
            if (!present || !rank || !ends)
                goto failed;
        }
        for (int64_t i = 0; i < me; i++) {
            int64_t e = ids[i];
            int64_t u = load_idx(a->p_eu, a->idx_width, e);
            int64_t v = load_idx(a->p_em, a->idx_width, e);
            /* weights_or_ones() * weight_scale; x * 1.0 is an exact identity */
            mw[i] = (a->p_w ? load_w(a->p_w, a->w_width, e) : 1.0) * scale;
            if (a->all_nodes) {
                /* merchants live after the users in the joint node index space */
                eu[i] = (int32_t)u;
                ev[i] = nu + (int32_t)v;
            } else {
                ends[2 * i] = u;
                ends[2 * i + 1] = v;
            }
        }
        if (!a->all_nodes) {
            /* a pass of its own: marked in the gather loop, the bitset's
             * read-modify-writes wait on the parent loads */
            for (int64_t i = 0; i < me; i++) {
                int64_t u = ends[2 * i], v = ends[2 * i + 1];
                present[u >> 6] |= (uint64_t)1 << (u & 63);
                present[wu + (v >> 6)] |= (uint64_t)1 << (v & 63);
            }
            nu = rank_bits(present, wu, rank, ku);
            nm = rank_bits(present + wu, wm, rank + wu, km);
            for (int64_t i = 0; i < me; i++) {
                eu[i] = bit_rank(present, rank, ends[2 * i]);
                ev[i] = nu + bit_rank(present + wu, rank + wu, ends[2 * i + 1]);
            }
            free(ends);
            ends = NULL;
        }
    }
    a->out_nu[m] = nu;
    a->out_nm[m] = nm;

    /* ---- per-member scratch, sized for block 0 and reused by every block ---- */
    {
        int32_t n = nu + nm;
        int64_t n_words = ((int64_t)n + 63) / 64;
        int32_t n_live_e = (int32_t)me;
        ew = (double *)malloc((size_t)me * sizeof(double));
        deg = (int32_t *)calloc((size_t)n, sizeof(int32_t));
        indptr = (int32_t *)malloc((size_t)(n + 1) * sizeof(int32_t));
        node_of = (int32_t *)malloc((size_t)n * sizeof(int32_t));
        flat_other = (int32_t *)malloc((size_t)(2 * me) * sizeof(int32_t));
        flat_w = (double *)malloc((size_t)(2 * me) * sizeof(double));
        prio = (double *)malloc((size_t)n * sizeof(double));
        comp = (int32_t *)malloc((size_t)n * sizeof(int32_t));
        next = (int32_t *)malloc((size_t)n * sizeof(int32_t));
        walked = (uint64_t *)malloc((size_t)n_words * sizeof(uint64_t));
        keep = (uint8_t *)calloc((size_t)n, 1);
        if (!ew || !deg || !indptr || !node_of || !flat_other || !flat_w || !prio || !comp
            || !next || !walked || !keep)
            goto failed;
        if (scratch_alloc(&scratch, n) || order_alloc(&order, n) || order_alloc(&spare, n))
            goto failed;

        /* alive degrees, decremented as blocks remove edges; only an
         * all_nodes member starts with nodes that have no edge */
        for (int32_t r = 0; r < n_live_e; r++) {
            deg[eu[r]]++;
            deg[ev[r]]++;
        }
        /* merchant degree feeding the weight table: the residual degree, or
         * the input degree under the frozen policy */
        const int32_t *wdeg = deg;
        if (a->frozen_policy) {
            deg_frozen = (int32_t *)malloc((size_t)n * sizeof(int32_t));
            if (!deg_frozen)
                goto failed;
            memcpy(deg_frozen, deg, (size_t)n * sizeof(int32_t));
            wdeg = deg_frozen;
        }

        /* ---- the FDET block loop ---- */
        int64_t n_blocks = 0;
        int64_t row_bytes = ((int64_t)n + 7) / 8;
        int32_t *parent = scratch.nodes_tmp;
        /* The kept order is the last block's merged order, n_kept entries
         * in order. walked marks the nodes of the components that held the
         * last block's edges, n_walked of them: the merge drops their kept
         * entries, and the block re-peels those of them still live. comp[v]
         * is the component of a live node v, labelled by its smallest
         * member id, whose next[] links thread the component's nodes in
         * member order; while v is re-peeled it is -1 - v's peel id. Block 0
         * and the block after a full-node block keep nothing of the order
         * before: they re-peel every live node but their pairs. */
        int32_t n_kept = 0, n_walked = 0;
        bits_fill(walked, n);

        for (int64_t b = 0; b < a->max_blocks && n_live_e > 0; b++) {
            /* A block that keeps nothing takes its pairs (single-edge
             * components: a user of degree 1 whose one edge, last[u], ends
             * at a merchant of degree 1) out of the peel; pair_order writes
             * them into the kept order once their weights are known.
             * last[u] is user u's last alive edge, its only one when
             * deg[u] == 1; zeroed first, it names some merchant for every
             * user, so the scan appends without a branch (the degree tests
             * predict poorly). Then each pair is labelled by its user,
             * linked user then merchant, and has its walked bits cleared,
             * so the numbering skips it */
            int fresh = n_kept == 0;
            int32_t n_pairs = 0;
            int32_t *pair_edge = scratch.clean_nodes, *last = scratch.pos;
            if (fresh) {
                memset(last, 0, (size_t)nu * sizeof(int32_t));
                for (int32_t r = 0; r < n_live_e; r++)
                    last[eu[r]] = r;
                for (int32_t u = 0; u < nu; u++) {
                    int32_t r = last[u];
                    pair_edge[n_pairs] = r;
                    n_pairs += (deg[u] == 1) & (deg[ev[r]] == 1);
                }
                for (int32_t i = 0; i < n_pairs; i++) {
                    int32_t r = pair_edge[i], u = eu[r], v = ev[r];
                    bit_clear(walked, u);
                    bit_clear(walked, v);
                    comp[u] = comp[v] = u;
                    next[u] = v;
                    next[v] = -1;
                }
                n_kept = 2 * n_pairs;
            }

            /* number the walked live nodes in member order; indptr[p + 1]
             * starts as node p's CSR offset and ends as the next one's */
            int32_t n_peel = 0, n_slots = 0;
            indptr[0] = 0;
            for (int64_t w = 0; w < n_words; w++) {
                uint64_t bits = walked[w];
                if (fresh)
                    walked[w] = 0; /* no kept entry for the merge to drop */
                for (; bits; bits &= bits - 1) {
                    int32_t v = (int32_t)(w * 64 + __builtin_ctzll(bits));
                    if (deg[v] > 0) {
                        comp[v] = -1 - n_peel;
                        node_of[n_peel] = v;
                        prio[n_peel] = 0.0;
                        parent[n_peel] = n_peel;
                        indptr[++n_peel] = n_slots;
                        n_slots += deg[v];
                    }
                }
            }

            /* residual edge weights table[degree] * member weight, in
             * ascending (residual) edge order, NaN failing the > 0 test;
             * priority = np.zeros(n) + the two np.add.at passes (users and
             * merchants are disjoint, so one pass adds to every node in the
             * same order), CSR spans filled in edge order, and the
             * union-find, for the edges of the re-peeled components */
            int all_positive = 1;
            for (int32_t r = 0; r < n_live_e; r++) {
                int32_t u = eu[r], v = ev[r];
                double w = a->weight_table[wdeg[v]] * mw[r];
                ew[r] = w;
                all_positive &= w > 0.0;
                if (comp[u] < 0) {
                    int32_t pu = -1 - comp[u], pv = -1 - comp[v];
                    add_edge(pu, pv, w, prio, indptr + 1, flat_other, flat_w);
                    uf_union(parent, pu, pv);
                }
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
             * walked ones are peeled: the merge with the kept order supplies
             * the rest. Otherwise peel all n, by member id, pairs included,
             * keeping nothing of the order before. */
            double density_all = total / (double)n;
            int residual = all_positive && density_all >= DBL_MIN && density_all <= DBL_MAX;
            const int32_t *peeled = node_of; /* peel id -> member id */
            int32_t n_order = n_kept - n_walked + n_peel; /* nodes in the merged order */
            if (!residual) {
                n_peel = n_order = n;
                n_kept = 0;
                peeled = NULL;
                n_slots = 0;
                for (int32_t v = 0; v < n; v++) {
                    prio[v] = 0.0;
                    indptr[v + 1] = n_slots;
                    n_slots += deg[v];
                }
                for (int32_t r = 0; r < n_live_e; r++)
                    add_edge(eu[r], ev[r], ew[r], prio, indptr + 1, flat_other, flat_w);
            } else {
                /* label each peeled node's component, and link it after the
                 * component's last node so far (its tail, kept in the hot
                 * heap's slots, which are free until the peel) */
                int32_t *tail = scratch.pos;
                for (int32_t p = 0; p < n_peel; p++) {
                    int32_t root = uf_find(parent, p), v = node_of[p];
                    comp[v] = node_of[root];
                    next[v] = -1;
                    if (root < p)
                        next[tail[root]] = v;
                    tail[root] = v;
                }
                pair_order(&order, n_pairs, eu, ev, ew, &scratch);
            }

            /* the pops go to the top of the merged order's slots, which
             * the merge fills from slot 0 */
            order_t pops = {spare.entry + (n_order - n_peel), spare.prio + (n_order - n_peel)};
            peel_order(n_peel, indptr, flat_other, flat_w, prio, peeled, &pops, &scratch);
            double best_density;
            int32_t best_removed;
            merge_orders(
                &spare, &order, n_kept, walked, &pops, n_order, total, NULL, &best_density,
                &best_removed);
            order_t merged = spare;
            spare = order;
            order = merged;

            /* the block: the merged order from best_removed on */
            const entry_t *block = order.entry + best_removed;
            int32_t n_block = n_order - best_removed;
            for (int32_t i = 0; i < n_block; i++)
                keep[entry_node(block[i])] = 1;

            /* count the block's edges and drop them from the alive arrays
             * in one pass. After a live-node peel, each component that held
             * them gets its label's bit in walked (clear since the merge)
             * and its label on a stack in node_of (free since the peel). A
             * rejected block ends the member, so the arrays are never read
             * again after that */
            int32_t n_touched = 0;
            int64_t count = 0;
            int32_t kept_e = 0;
            for (int32_t r = 0; r < n_live_e; r++) {
                int32_t u = eu[r], v = ev[r];
                if (keep[u] & keep[v]) {
                    count++;
                    deg[u]--;
                    deg[v]--;
                    if (residual && !bit_put(walked, comp[u]))
                        node_of[n_touched++] = comp[u];
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
            for (int32_t i = 0; i < n_block; i++) {
                int32_t v = entry_node(block[i]);
                row[v >> 3] |= (uint8_t)(1u << (v & 7));
                keep[v] = 0;
            }
            a->block_density[m * a->max_blocks + n_blocks] = best_density;
            a->block_n_edges[m * a->max_blocks + n_blocks] = count;
            n_blocks++;

            n_live_e = kept_e;
            if (residual) {
                /* every node of a touched component leaves the kept order at
                 * the next merge: its neighbours' keys changed, or it has no
                 * edge left */
                n_kept = n_order;
                n_walked = 0;
                for (int32_t t = 0; t < n_touched; t++)
                    for (int32_t v = node_of[t]; v >= 0; v = next[v]) {
                        bit_put(walked, v);
                        n_walked++;
                    }
            } else {
                n_kept = n_walked = 0;
                bits_fill(walked, n);
            }
        }
        a->out_n_blocks[m] = n_blocks;
    }
    goto cleanup;

failed:
    a->out_status[m] = -1;
    a->out_n_blocks[m] = 0;

cleanup:
    free(present);
    free(rank);
    free(ends);
    free(eu);
    free(ev);
    free(mw);
    free(ew);
    free(deg);
    free(deg_frozen);
    free(indptr);
    free(node_of);
    free(flat_other);
    free(flat_w);
    free(prio);
    free(comp);
    free(next);
    free(walked);
    free(keep);
    scratch_free(&scratch);
    order_free(&order);
    order_free(&spare);
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
