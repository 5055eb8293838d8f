/* Fused OptChain placement kernel - the compiled twin of
 * OptChainPlacer.place_batch (src/repro/core/optchain.py).
 *
 * Bit-identity contract: every floating-point operation below is a
 * literal transcription of the pure-python fused loop, in the same
 * order, including the "useless" ones (the double reciprocal in the
 * expected-total formula, `total * 1.0` for the own-input latency
 * term). The load proxy's lazy heaps are replicated with CPython's
 * exact heapq algorithms because their layout is *state*: a query that
 * demotes a sub-resolution shard rewrites its scaled load to exactly
 * 0.0, and a later record() on that shard then computes
 * `0.0 + 1/scale` instead of `tiny + 1/scale` - a bitwise difference
 * that decides exact fitness ties. A side-effect-free argmax over the
 * loads would therefore diverge from the python path.
 *
 * The kernel only ever runs for the configuration the python fused
 * path accepts (offline load proxy, shard_load mode, spenders
 * divisor, prune_epsilon > 0, fused-compatible scorer); the numpy
 * backend refuses every other configuration at construction, so there
 * is no second loop to fall back to.
 *
 * Input: one raw-outpoint CSR (parent txid per outpoint, per-tx
 * offsets) - the wire decoder's zero-copy columns or the object
 * marshal of numpy_backend.py, which produce the same arrays. Parents
 * are deduplicated here, per transaction, in first-appearance order.
 *
 * Dense-row representation: p'(v) vectors live as rows of an arena
 * (n_rows x n_shards float64, the RowMatrix of arrays.py) addressed
 * through a per-txid int32 slot column, -1 for a dead vector. Stored
 * masses are always > prune_epsilon > 0, so `row[shard] == 0.0` <=>
 * "shard absent from the sparse dict" and
 * `slot >= 0 && isfinite(min_mass)` <=> "vector is a non-empty dict"
 * (placed vectors always hold their alpha entry). The caller binds a
 * zeroed arena row to every txid of the batch before the call, so the
 * kernel never allocates rows itself.
 *
 * Error/capacity protocol: per-transaction commits are atomic. On an
 * invalid input the kernel stops *before* mutating anything for the
 * offending transaction and reports (txid, parent); on a full scratch
 * buffer it reports how far it got so the caller can grow buffers and
 * re-enter with the remaining suffix.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* Wire columns (raw parents, indexes, output counts) are zero-copy
 * views at arbitrary byte offsets of a frame; a typed dereference of a
 * misaligned pointer is undefined behaviour, a memcpy load is one plain
 * mov on x86-64 and arm64. */
static inline int64_t load_i64(const int64_t *p) {
    int64_t v;
    memcpy(&v, p, sizeof v);
    return v;
}

static inline int32_t load_i32(const int32_t *p) {
    int32_t v;
    memcpy(&v, p, sizeof v);
    return v;
}

#define KERN_OK 0
#define KERN_INVALID_INPUT 1
#define KERN_CAPACITY 2
#define KERN_INTERNAL 3

typedef struct {
    /* -- configuration (read-only) ----------------------------------- */
    int64_t n_shards;
    double alpha;
    double one_minus_alpha; /* scorer._scale */
    double epsilon;         /* scorer.prune_epsilon */
    double weight;          /* fitness.latency_weight */
    int64_t support_cap;    /* -1 = unbounded (exact scorer) */
    int32_t has_scale;      /* one_minus_alpha > 0.0 */
    int32_t has_eps;        /* epsilon > 0.0 */
    /* proxy configuration */
    double decay;
    double base_verify;
    double base_total;
    double comm_expected;
    double block;        /* float(block_capacity) */
    int64_t renorm_span;
    int64_t compact_limit;

    /* -- proxy state (in/out) ----------------------------------------- */
    double *scaled;      /* n_shards */
    double *heap_vals;   /* heap_cap */
    int64_t *heap_idx;   /* heap_cap */
    int64_t heap_len;
    int64_t heap_cap;
    int64_t *zero_heap;  /* zero_cap */
    int64_t zero_len;
    int64_t zero_cap;
    int64_t step;
    int64_t offset;
    double pscale;       /* proxy._scale */

    /* -- strategy state (in/out) -------------------------------------- */
    int64_t *strat_sizes;    /* n_shards, PlacementStrategy._shard_sizes */
    int64_t min_size_val;
    int64_t min_size_count;
    int64_t max_size_val;
    /* scorer per-shard sizes (in/out) - a separate array from the
     * strategy's even though both count the same placements, because
     * python keeps them as two lists that snapshots restore
     * independently. */
    int64_t *scorer_sizes;   /* n_shards, T2SScorer._shard_sizes */

    /* -- scorer per-txid state (in/out, persistent numpy buffers) ------ */
    double *pmat;            /* arena rows * n_shards, row-major */
    const int32_t *slot;     /* rows_cap: arena row per txid, -1 dead */
    double *min_mass;        /* rows_cap */
    int64_t *spender_count;  /* rows_cap */
    int64_t *assignment;     /* rows_cap */
    int64_t n_placed;
    int64_t rows_cap;        /* txids below it have a bound slot */
    /* scorer truncation scalars (in/out; untouched when cap < 0) */
    double dropped_mass;
    int64_t truncated_vectors;

    /* -- batch input (read-only) --------------------------------------- */
    int64_t n_tx;
    const int64_t *parents;      /* raw outpoint txids, possibly unaligned */
    const int64_t *par_off;      /* n_tx + 1 */

    /* -- scratch (caller-allocated, n_shards-sized unless noted) ------- */
    double *raw;             /* dense p'(u) accumulator, zeroed */
    int64_t *touched;        /* shards present in raw */
    int64_t *shard_mark;     /* input-shard stamps, init -1 */
    int64_t *excl_mark;      /* exclusion stamps, init -1 */
    double *sort_mass;       /* truncation scratch */
    int64_t *sort_shard;     /* truncation scratch */
    int64_t *pb_ids;         /* zero-heap push-back, zero_cap-sized */
    double *pb_vals;         /* heap push-back, heap_cap-sized */
    int64_t *pb_idx;         /* heap push-back, heap_cap-sized */
    int64_t *dedup;          /* one tx's deduped parents, dedup_cap */
    int64_t dedup_cap;

    /* -- results ------------------------------------------------------- */
    int64_t n_done;          /* transactions fully committed this call */
    int64_t error_txid;
    int64_t error_parent;
} KState;

/* ---------------------------------------------------------------------
 * CPython heapq, transcribed. Entries of the value heap are (value,
 * shard) tuples compared lexicographically; shards are distinct ints,
 * values doubles, so the comparison never falls through to error.
 * ------------------------------------------------------------------- */

static inline int vless(double av, int64_t ai, double bv, int64_t bi) {
    if (av < bv) return 1;
    if (av > bv) return 0;
    return ai < bi;
}

/* _siftdown(heap, startpos, pos): newitem walks up toward startpos. */
static void vheap_siftdown(KState *s, int64_t startpos, int64_t pos) {
    double nv = s->heap_vals[pos];
    int64_t ni = s->heap_idx[pos];
    while (pos > startpos) {
        int64_t parentpos = (pos - 1) >> 1;
        double pv = s->heap_vals[parentpos];
        int64_t pi = s->heap_idx[parentpos];
        if (vless(nv, ni, pv, pi)) {
            s->heap_vals[pos] = pv;
            s->heap_idx[pos] = pi;
            pos = parentpos;
            continue;
        }
        break;
    }
    s->heap_vals[pos] = nv;
    s->heap_idx[pos] = ni;
}

/* _siftup(heap, pos): bubble the smaller child up, then sift down. */
static void vheap_siftup(KState *s, int64_t pos) {
    int64_t endpos = s->heap_len;
    int64_t startpos = pos;
    double nv = s->heap_vals[pos];
    int64_t ni = s->heap_idx[pos];
    int64_t childpos = 2 * pos + 1;
    while (childpos < endpos) {
        int64_t rightpos = childpos + 1;
        if (rightpos < endpos &&
            !vless(s->heap_vals[childpos], s->heap_idx[childpos],
                   s->heap_vals[rightpos], s->heap_idx[rightpos])) {
            childpos = rightpos;
        }
        s->heap_vals[pos] = s->heap_vals[childpos];
        s->heap_idx[pos] = s->heap_idx[childpos];
        pos = childpos;
        childpos = 2 * pos + 1;
    }
    s->heap_vals[pos] = nv;
    s->heap_idx[pos] = ni;
    vheap_siftdown(s, startpos, pos);
}

/* heappush; caller must have checked capacity. */
static void vheap_push(KState *s, double value, int64_t index) {
    int64_t n = s->heap_len++;
    s->heap_vals[n] = value;
    s->heap_idx[n] = index;
    vheap_siftdown(s, 0, n);
}

/* heappop; caller must know the heap is non-empty. */
static void vheap_pop(KState *s) {
    int64_t n = --s->heap_len;
    double lv = s->heap_vals[n];
    int64_t li = s->heap_idx[n];
    if (n > 0) {
        s->heap_vals[0] = lv;
        s->heap_idx[0] = li;
        vheap_siftup(s, 0);
    }
}

/* heapreplace(heap, item). */
static void vheap_replace(KState *s, double value, int64_t index) {
    s->heap_vals[0] = value;
    s->heap_idx[0] = index;
    vheap_siftup(s, 0);
}

static void vheap_heapify(KState *s) {
    for (int64_t i = s->heap_len / 2 - 1; i >= 0; i--) {
        vheap_siftup(s, i);
    }
}

/* Integer heap (the exact-zero cohort), same algorithms. */

static void iheap_siftdown(KState *s, int64_t startpos, int64_t pos) {
    int64_t ni = s->zero_heap[pos];
    while (pos > startpos) {
        int64_t parentpos = (pos - 1) >> 1;
        int64_t pi = s->zero_heap[parentpos];
        if (ni < pi) {
            s->zero_heap[pos] = pi;
            pos = parentpos;
            continue;
        }
        break;
    }
    s->zero_heap[pos] = ni;
}

static void iheap_siftup(KState *s, int64_t pos) {
    int64_t endpos = s->zero_len;
    int64_t startpos = pos;
    int64_t ni = s->zero_heap[pos];
    int64_t childpos = 2 * pos + 1;
    while (childpos < endpos) {
        int64_t rightpos = childpos + 1;
        if (rightpos < endpos &&
            !(s->zero_heap[childpos] < s->zero_heap[rightpos])) {
            childpos = rightpos;
        }
        s->zero_heap[pos] = s->zero_heap[childpos];
        pos = childpos;
        childpos = 2 * pos + 1;
    }
    s->zero_heap[pos] = ni;
    iheap_siftdown(s, startpos, pos);
}

static void iheap_push(KState *s, int64_t index) {
    int64_t n = s->zero_len++;
    s->zero_heap[n] = index;
    iheap_siftdown(s, 0, n);
}

static int64_t iheap_pop(KState *s) {
    int64_t n = --s->zero_len;
    int64_t last = s->zero_heap[n];
    if (n > 0) {
        int64_t ret = s->zero_heap[0];
        s->zero_heap[0] = last;
        iheap_siftup(s, 0);
        return ret;
    }
    return last;
}

static void iheap_heapify(KState *s) {
    for (int64_t i = s->zero_len / 2 - 1; i >= 0; i--) {
        iheap_siftup(s, i);
    }
}

/* ---------------------------------------------------------------------
 * Load proxy internals (LoadProxyLatencyProvider).
 * ------------------------------------------------------------------- */

static inline double total_of_load(const KState *s, double load) {
    double verify = s->base_verify * (1.0 + load / s->block);
    return s->comm_expected + 1.0 / (1.0 / verify);
}

static void proxy_rebuild_heaps(KState *s) {
    int64_t k = s->n_shards;
    int64_t n = 0;
    for (int64_t i = 0; i < k; i++) {
        if (s->scaled[i] != 0.0) {
            s->heap_vals[n] = s->scaled[i];
            s->heap_idx[n] = i;
            n++;
        }
    }
    s->heap_len = n;
    vheap_heapify(s);
    n = 0;
    for (int64_t i = 0; i < k; i++) {
        if (s->scaled[i] == 0.0) {
            s->zero_heap[n++] = i;
        }
    }
    s->zero_len = n;
    iheap_heapify(s);
}

static void proxy_renormalize(KState *s) {
    double scale = s->pscale;
    int64_t k = s->n_shards;
    for (int64_t i = 0; i < k; i++) {
        double value = s->scaled[i];
        if (value != 0.0) {
            s->scaled[i] = value * scale;
        }
    }
    s->offset = s->step;
    s->pscale = 1.0;
    proxy_rebuild_heaps(s);
}

/* lightest_excluding via the direct complement scan (the
 * `2 * len(exclude) >= n_shards` branch): side-effect free, one
 * uniform formula, ties keep the lower index by strict `<`. */
static void lightest_direct(const KState *s, int64_t stamp,
                            int64_t *best_id, double *best_total) {
    int64_t k = s->n_shards;
    int64_t bid = -1;
    double btot = INFINITY;
    for (int64_t index = 0; index < k; index++) {
        if (s->excl_mark[index] == stamp) continue;
        double verify =
            s->base_verify * (1.0 + s->scaled[index] * s->pscale / s->block);
        double total = s->comm_expected + 1.0 / (1.0 / verify);
        if (total < btot) {
            btot = total;
            bid = index;
        }
    }
    *best_id = bid;
    *best_total = btot;
}

/* lightest_excluding(exclude): heap path with demotion side effects.
 * Returns KERN_CAPACITY if a zero-heap push would overflow. */
static int lightest_excluding(KState *s, int64_t stamp, int64_t n_excl,
                              int64_t *out_id, double *out_total) {
    if (2 * n_excl >= s->n_shards) {
        lightest_direct(s, stamp, out_id, out_total);
        return KERN_OK;
    }
    int64_t best_id = -1;
    double best_total = INFINITY;
    int64_t pbn = 0;
    while (s->zero_len) {
        int64_t index = s->zero_heap[0];
        if (s->scaled[index] != 0.0) {
            iheap_pop(s);
            continue;
        }
        if (s->excl_mark[index] == stamp) {
            s->pb_ids[pbn++] = iheap_pop(s);
            continue;
        }
        best_id = index;
        best_total = s->base_total;
        break;
    }
    for (int64_t i = 0; i < pbn; i++) {
        iheap_push(s, s->pb_ids[i]);
    }

    int64_t pb2n = 0;
    while (s->heap_len) {
        double value = s->heap_vals[0];
        int64_t index = s->heap_idx[0];
        double current = s->scaled[index];
        if (current != value) {
            vheap_replace(s, current, index);
            continue;
        }
        double load = value * s->pscale;
        double total;
        if (1.0 + load / s->block == 1.0) {
            vheap_pop(s);
            s->scaled[index] = 0.0;
            if (s->zero_len >= s->zero_cap) return KERN_INTERNAL;
            iheap_push(s, index);
            if (s->excl_mark[index] == stamp) continue;
            total = s->base_total;
        } else {
            if (s->excl_mark[index] == stamp) {
                s->pb_vals[pb2n] = value;
                s->pb_idx[pb2n] = index;
                pb2n++;
                vheap_pop(s);
                continue;
            }
            total = total_of_load(s, load);
            if (total > best_total) break;
            s->pb_vals[pb2n] = value;
            s->pb_idx[pb2n] = index;
            pb2n++;
            vheap_pop(s);
        }
        if (total < best_total ||
            (total == best_total && index < best_id)) {
            best_total = total;
            best_id = index;
        }
    }
    for (int64_t i = 0; i < pb2n; i++) {
        vheap_push(s, s->pb_vals[i], s->pb_idx[i]);
    }
    *out_id = best_id;
    *out_total = best_total;
    return KERN_OK;
}

/* ---------------------------------------------------------------------
 * Truncation: sorted(items, key=(-mass, shard))[:cap]; dropped mass
 * summed in rank order. Insertion sort - nnz <= n_shards and the key
 * is a strict total order, so any comparison sort yields the python
 * ranking.
 * ------------------------------------------------------------------- */

static inline int rank_before(double am, int64_t as, double bm, int64_t bs) {
    if (am > bm) return 1;
    if (am < bm) return 0;
    return as < bs;
}

static void truncate_support_dense(KState *s, int64_t *nnz_io,
                                   double *bound_out) {
    int64_t nnz = *nnz_io;
    int64_t cap = s->support_cap;
    for (int64_t i = 0; i < nnz; i++) {
        int64_t shard = s->touched[i];
        s->sort_mass[i] = s->raw[shard];
        s->sort_shard[i] = shard;
    }
    for (int64_t i = 1; i < nnz; i++) {
        double m = s->sort_mass[i];
        int64_t sh = s->sort_shard[i];
        int64_t j = i - 1;
        while (j >= 0 && rank_before(m, sh, s->sort_mass[j], s->sort_shard[j])) {
            s->sort_mass[j + 1] = s->sort_mass[j];
            s->sort_shard[j + 1] = s->sort_shard[j];
            j--;
        }
        s->sort_mass[j + 1] = m;
        s->sort_shard[j + 1] = sh;
    }
    double dropped = 0.0;
    for (int64_t i = cap; i < nnz; i++) {
        dropped += s->sort_mass[i];
        s->raw[s->sort_shard[i]] = 0.0;
    }
    /* Rebuild the touched list from the survivors and refresh the
     * bound: min over kept values (cap >= 1, never empty). */
    double bound = INFINITY;
    int64_t n = 0;
    for (int64_t i = 0; i < nnz; i++) {
        int64_t shard = s->touched[i];
        double mass = s->raw[shard];
        if (mass != 0.0) {
            s->touched[n++] = shard;
            if (mass < bound) bound = mass;
        }
    }
    *nnz_io = n;
    *bound_out = bound;
    s->dropped_mass += dropped;
    s->truncated_vectors += 1;
}

/* ---------------------------------------------------------------------
 * The batch loop.
 * ------------------------------------------------------------------- */

int place_batch(KState *s) {
    const int64_t k = s->n_shards;
    const double weight = s->weight;
    const double one_minus_alpha = s->one_minus_alpha;
    const double alpha = s->alpha;
    const double epsilon = s->epsilon;
    const int has_scale = s->has_scale;
    const int has_eps = s->has_eps;
    const int64_t cap = s->support_cap;

    s->n_done = 0;
    s->error_txid = -1;
    s->error_parent = -1;

    for (int64_t t = 0; t < s->n_tx; t++) {
        int64_t txid = s->n_placed;
        if (txid >= s->rows_cap) {
            return KERN_CAPACITY;
        }
        /* Heap headroom for the whole transaction, checked before any
         * state is touched so a CAPACITY return always leaves the
         * first n_done transactions fully committed and nothing else:
         * the value heap grows by at most one entry (proxy.record) and
         * the zero heap by at most heap_len (every demotion moves one
         * entry across). */
        if (s->heap_len + 1 > s->heap_cap ||
            s->zero_len + s->heap_len + 1 > s->zero_cap) {
            return KERN_CAPACITY;
        }
        int64_t p0 = s->par_off[t];
        int64_t p1 = s->par_off[t + 1];
        const int64_t *par = s->parents + p0;
        int64_t n_par = p1 - p0;
        /* The recurrence branches on the raw outpoint count, the
         * argmax seeding on the deduplicated parents. Dedup into
         * aligned scratch keeping first-appearance order - what
         * Transaction.input_txids (dict.fromkeys) produces. Input
         * counts are tiny, so the quadratic scan beats any hashing
         * setup. */
        const int64_t n_raw = n_par;
        if (n_par > 0) {
            if (n_par > s->dedup_cap) {
                return KERN_INTERNAL;
            }
            int64_t nd = 0;
            for (int64_t p = 0; p < n_par; p++) {
                int64_t parent = load_i64(par + p);
                int dup = 0;
                for (int64_t j = 0; j < nd; j++) {
                    if (s->dedup[j] == parent) {
                        dup = 1;
                        break;
                    }
                }
                if (!dup) {
                    s->dedup[nd++] = parent;
                }
            }
            par = s->dedup;
            n_par = nd;
        }
        int64_t nnz = 0;
        double bound = INFINITY;

        /* ---- T2S recurrence (add_transaction_raw, inlined) ---- */
        if (n_raw == 1) {
            int64_t parent = par[0];
            /* Parents are u64 reinterpreted: a negative one is an id
             * >= 2**63, never earlier than txid. */
            if (parent < 0 || parent >= txid) {
                s->error_txid = txid;
                s->error_parent = parent;
                return KERN_INVALID_INPUT;
            }
            int64_t divisor = s->spender_count[parent] + 1;
            s->spender_count[parent] = divisor;
            if (has_scale && s->slot[parent] >= 0 &&
                isfinite(s->min_mass[parent])) {
                double factor = one_minus_alpha / (double)divisor;
                bound = s->min_mass[parent] * factor;
                const double *prow = s->pmat + (int64_t)s->slot[parent] * k;
                if (has_eps && bound <= epsilon) {
                    bound = INFINITY;
                    for (int64_t shard = 0; shard < k; shard++) {
                        double rawmass = prow[shard];
                        if (rawmass != 0.0) {
                            double mass = rawmass * factor;
                            if (mass > epsilon) {
                                s->raw[shard] = mass;
                                s->touched[nnz++] = shard;
                                if (mass < bound) bound = mass;
                            }
                        }
                    }
                } else {
                    for (int64_t shard = 0; shard < k; shard++) {
                        double rawmass = prow[shard];
                        if (rawmass != 0.0) {
                            s->raw[shard] = rawmass * factor;
                            s->touched[nnz++] = shard;
                        }
                    }
                }
            }
        } else if (n_par > 0) {
            /* Parents are deduplicated in first-appearance order.
             * Validate all before registering any spender - the python
             * loop raises before its spender loop runs. */
            for (int64_t p = 0; p < n_par; p++) {
                int64_t parent = par[p];
                if (parent < 0 || parent >= txid) {
                    s->error_txid = txid;
                    s->error_parent = parent;
                    return KERN_INVALID_INPUT;
                }
            }
            for (int64_t p = 0; p < n_par; p++) {
                s->spender_count[par[p]] += 1;
            }
            if (has_scale) {
                for (int64_t p = 0; p < n_par; p++) {
                    int64_t parent = par[p];
                    if (!(s->slot[parent] >= 0 &&
                          isfinite(s->min_mass[parent]))) {
                        continue;
                    }
                    double factor =
                        one_minus_alpha / (double)s->spender_count[parent];
                    const double *prow =
                        s->pmat + (int64_t)s->slot[parent] * k;
                    /* Per shard, contributions accumulate in parent
                     * order; the first contribution is `mass * factor`
                     * exactly (0.0 + m*f == m*f bitwise - masses are
                     * positive, no -0.0). The parent dict's own
                     * iteration order never matters: each shard gets
                     * at most one term per parent. */
                    for (int64_t shard = 0; shard < k; shard++) {
                        double rawmass = prow[shard];
                        if (rawmass != 0.0) {
                            double prev = s->raw[shard];
                            if (prev == 0.0) {
                                s->raw[shard] = rawmass * factor;
                                s->touched[nnz++] = shard;
                            } else {
                                s->raw[shard] = prev + rawmass * factor;
                            }
                        }
                    }
                }
            }
            if (has_eps && nnz) {
                int64_t n = 0;
                for (int64_t i = 0; i < nnz; i++) {
                    int64_t shard = s->touched[i];
                    if (s->raw[shard] > epsilon) {
                        s->touched[n++] = shard;
                    } else {
                        s->raw[shard] = 0.0;
                    }
                }
                nnz = n;
            }
            if (nnz) {
                bound = INFINITY;
                for (int64_t i = 0; i < nnz; i++) {
                    double mass = s->raw[s->touched[i]];
                    if (mass < bound) bound = mass;
                }
            }
        }
        if (cap >= 0 && nnz > cap) {
            truncate_support_dense(s, &nnz, &bound);
        }
        /* Append: store the new row (its bound arena row is zeroed). */
        {
            double *row = s->pmat + (int64_t)s->slot[txid] * k;
            for (int64_t i = 0; i < nnz; i++) {
                int64_t shard = s->touched[i];
                row[shard] = s->raw[shard];
            }
            s->min_mass[txid] = bound;
            s->spender_count[txid] = 0;
        }

        /* ---- fused fitness argmax ---- */
        double floor_total = -1.0;
        while (s->zero_len) {
            if (s->scaled[s->zero_heap[0]] == 0.0) {
                floor_total = s->base_total;
                break;
            }
            iheap_pop(s);
        }
        if (floor_total < 0.0) {
            for (;;) {
                if (s->heap_len == 0) return KERN_INTERNAL;
                double value = s->heap_vals[0];
                int64_t index = s->heap_idx[0];
                double current = s->scaled[index];
                if (current == value) {
                    double verify = s->base_verify *
                                    (1.0 + value * s->pscale / s->block);
                    floor_total = s->comm_expected + 1.0 / (1.0 / verify);
                    break;
                }
                vheap_replace(s, current, index);
            }
        }
        int64_t best_id = -1;
        double best_fitness = -INFINITY;
        double best_l2s = INFINITY;
        int has_inputs;
        double cross_floor;
        int64_t only_input;
        int64_t n_in_shards = 0; /* distinct input shards, via shard_mark */
        if (n_par > 0) {
            has_inputs = 1;
            cross_floor = floor_total * 2.0;
            if (n_par == 1) {
                int64_t shard = s->assignment[par[0]];
                only_input = shard;
                s->shard_mark[shard] = txid;
                n_in_shards = 1;
                double value = s->scaled[shard];
                double total;
                if (value == 0.0) {
                    total = s->base_total;
                } else {
                    double verify = s->base_verify *
                                    (1.0 + value * s->pscale / s->block);
                    total = s->comm_expected + 1.0 / (1.0 / verify);
                }
                double l2s = total;
                double mass_in = s->raw[shard];
                if (mass_in == 0.0) {
                    best_fitness = 0.0 - weight * l2s;
                } else {
                    /* The input shard holds at least its parent, so
                     * scorer_sizes[shard] >= 1: no max(1, .) needed. */
                    best_fitness = mass_in / (double)s->scorer_sizes[shard] -
                                   weight * l2s;
                }
                best_id = shard;
                best_l2s = l2s;
            } else {
                for (int64_t p = 0; p < n_par; p++) {
                    int64_t shard = s->assignment[par[p]];
                    if (s->shard_mark[shard] != txid) {
                        s->shard_mark[shard] = txid;
                        n_in_shards++;
                    }
                }
                only_input = -1;
                if (n_in_shards == 1) {
                    only_input = s->assignment[par[0]];
                }
                /* Iterate the distinct input shards. Python iterates a
                 * set; the (fitness, l2s, shard) tie-break is a strict
                 * total order, so any visit order yields the same
                 * winner. Ascending shard id is used here. */
                for (int64_t shard = 0; shard < k; shard++) {
                    if (s->shard_mark[shard] != txid) continue;
                    double value = s->scaled[shard];
                    double total;
                    if (value == 0.0) {
                        total = s->base_total;
                    } else {
                        double verify = s->base_verify *
                                        (1.0 + value * s->pscale / s->block);
                        total = s->comm_expected + 1.0 / (1.0 / verify);
                    }
                    double l2s =
                        (shard == only_input) ? total * 1.0 : total * 2.0;
                    double mass = s->raw[shard];
                    double fitness;
                    if (mass == 0.0) {
                        fitness = 0.0 - weight * l2s;
                    } else {
                        fitness = mass / (double)s->scorer_sizes[shard] -
                                  weight * l2s;
                    }
                    if (fitness > best_fitness ||
                        (fitness == best_fitness &&
                         (l2s < best_l2s ||
                          (l2s == best_l2s && shard < best_id)))) {
                        best_id = shard;
                        best_fitness = fitness;
                        best_l2s = l2s;
                    }
                }
            }
        } else {
            has_inputs = 0;
            only_input = -1;
            cross_floor = floor_total;
        }
        double weighted_cross_floor = weight * cross_floor;
        int64_t min_size = s->min_size_val > 0 ? s->min_size_val : 1;
        if (nnz) {
            double max_mass = 0.0;
            for (int64_t i = 0; i < nnz; i++) {
                double mass = s->raw[s->touched[i]];
                if (mass > max_mass) max_mass = mass;
            }
            if (max_mass / (double)min_size - weighted_cross_floor >=
                best_fitness) {
                double margin =
                    1e-6 *
                    ((best_fitness >= 0.0 ? best_fitness : -best_fitness) +
                     weighted_cross_floor + 1.0);
                double threshold =
                    (best_fitness + weighted_cross_floor - margin) *
                    (double)min_size;
                for (int64_t i = 0; i < nnz; i++) {
                    int64_t shard = s->touched[i];
                    double mass = s->raw[shard];
                    if (mass < threshold || shard == only_input) continue;
                    if (only_input < 0 && has_inputs &&
                        s->shard_mark[shard] == txid) {
                        continue;
                    }
                    int64_t size = s->scorer_sizes[shard];
                    double t2s = mass / (double)(size > 0 ? size : 1);
                    if (t2s - weighted_cross_floor < best_fitness) continue;
                    double value = s->scaled[shard];
                    double total;
                    if (value == 0.0) {
                        total = s->base_total;
                    } else {
                        double verify = s->base_verify *
                                        (1.0 + value * s->pscale / s->block);
                        total = s->comm_expected + 1.0 / (1.0 / verify);
                    }
                    double l2s = has_inputs ? total * 2.0 : total;
                    double fitness = t2s - weight * l2s;
                    if (fitness > best_fitness ||
                        (fitness == best_fitness &&
                         (l2s < best_l2s ||
                          (l2s == best_l2s && shard < best_id)))) {
                        best_id = shard;
                        best_fitness = fitness;
                        best_l2s = l2s;
                        margin = 1e-6 * (fabs(best_fitness) +
                                         weighted_cross_floor + 1.0);
                        threshold =
                            (best_fitness + weighted_cross_floor - margin) *
                            (double)min_size;
                    }
                }
            }
        }
        if (0.0 - weighted_cross_floor >= best_fitness) {
            /* exclude = set(raw) | input_shards via stamp marks. */
            int64_t n_excl = 0;
            for (int64_t i = 0; i < nnz; i++) {
                int64_t shard = s->touched[i];
                if (s->excl_mark[shard] != txid) {
                    s->excl_mark[shard] = txid;
                    n_excl++;
                }
            }
            if (has_inputs) {
                for (int64_t shard = 0; shard < k; shard++) {
                    if (s->shard_mark[shard] == txid &&
                        s->excl_mark[shard] != txid) {
                        s->excl_mark[shard] = txid;
                        n_excl++;
                    }
                }
            }
            int64_t spill_id;
            double spill_total;
            int rc = lightest_excluding(s, txid, n_excl, &spill_id,
                                        &spill_total);
            if (rc != KERN_OK) return rc;
            if (spill_id >= 0) {
                double l2s =
                    has_inputs ? spill_total * 2.0 : spill_total;
                double fitness = 0.0 - weight * l2s;
                if (fitness > best_fitness ||
                    (fitness == best_fitness &&
                     (l2s < best_l2s ||
                      (l2s == best_l2s && spill_id < best_id)))) {
                    best_id = spill_id;
                }
            }
        }
        if (best_id < 0) return KERN_INTERNAL;
        int64_t shard = best_id;

        /* ---- commit ---- */
        {
            double *row = s->pmat + (int64_t)s->slot[txid] * k;
            double new_mass = row[shard] + alpha;
            row[shard] = new_mass;
            if (new_mass < s->min_mass[txid]) s->min_mass[txid] = new_mass;
            s->scorer_sizes[shard] += 1;
            s->assignment[txid] = shard;
            s->n_placed += 1;
            int64_t old_size = s->strat_sizes[shard];
            s->strat_sizes[shard] = old_size + 1;
            if (old_size + 1 > s->max_size_val) {
                s->max_size_val = old_size + 1;
            }
            if (old_size == s->min_size_val) {
                int64_t count = s->min_size_count - 1;
                if (count == 0) {
                    s->min_size_val = old_size + 1;
                    count = 0;
                    for (int64_t i = 0; i < k; i++) {
                        if (s->strat_sizes[i] == s->min_size_val) count++;
                    }
                }
                s->min_size_count = count;
            }
            /* proxy.record, inlined */
            int64_t step = s->step + 1;
            s->step = step;
            int64_t span = step - s->offset;
            double pscale = pow(s->decay, (double)span);
            s->pscale = pscale;
            double old_value = s->scaled[shard];
            double value = old_value + 1.0 / pscale;
            s->scaled[shard] = value;
            if (old_value == 0.0) {
                if (s->heap_len >= s->heap_cap) return KERN_INTERNAL;
                vheap_push(s, value, shard);
            }
            if (span >= s->renorm_span) {
                proxy_renormalize(s);
            } else if (s->heap_len > s->compact_limit) {
                proxy_rebuild_heaps(s); /* _compact */
            }
        }

        /* clear the dense scratch for the next transaction */
        for (int64_t i = 0; i < nnz; i++) {
            s->raw[s->touched[i]] = 0.0;
        }
        s->n_done = t + 1;
    }
    return KERN_OK;
}

/* ---------------------------------------------------------------------
 * Batch validation - the compiled twin of
 * PlacementEngine._apply_inputs (src/repro/service/engine.py).
 *
 * Masks live in a dense int64 array indexed by txid (the MaskMap
 * store): 0 = absent, -1 = arbitrary-precision mask kept on the python
 * side. Dense stream order is the caller's responsibility (the marshal
 * checks it); everything else - per-outpoint check order, the undo
 * log, released-event order, and full rollback on the first invalid
 * outpoint - mirrors the python journal operation for operation, so an
 * invalid batch leaves the store bit-identical to the python path and
 * the error frontier (which txid / parent / output index is reported)
 * is exactly the same.
 *
 * Returns VALID_FALLBACK (after rolling back) when the batch touches
 * state the int64 encoding cannot represent: a sentinel mask, or a
 * transaction with more than 62 outputs. The caller then re-runs the
 * python journal on the untouched store.
 * ------------------------------------------------------------------- */

#define VALID_OK 0
#define VALID_UNKNOWN 1   /* unknown or fully-spent parent */
#define VALID_SPENT 2     /* output missing or already spent */
#define VALID_FUTURE 3    /* non-earlier parent reference */
#define VALID_FALLBACK 4  /* needs the python journal; rolled back */

typedef struct {
    /* -- batch (read-only) --------------------------------------------- */
    int64_t n_tx;
    int64_t first_txid;
    int64_t horizon_start;
    const int64_t *parents;   /* raw outpoint txids, total_inputs */
    const int32_t *indexes;   /* raw outpoint indexes, total_inputs */
    const int64_t *in_off;    /* n_tx + 1 */
    const int32_t *n_outputs; /* n_tx */

    /* -- mask store (in/out) ------------------------------------------- */
    int64_t *masks;           /* dense by txid; caller grew past the batch */

    /* -- caller-allocated result buffers ------------------------------- */
    int64_t *undo_txid;       /* >= total_inputs */
    int64_t *undo_mask;       /* >= total_inputs */
    int64_t *released;        /* >= total_inputs + n_tx */

    /* -- results ------------------------------------------------------- */
    int64_t n_undo;
    int64_t n_released;
    int64_t tracked_delta;    /* net change in live entry count */
    int64_t error_txid;
    int64_t error_parent;
    int64_t error_index;
} VState;

int validate_batch(VState *s) {
    const int64_t horizon = s->horizon_start;
    const int64_t last = s->first_txid + s->n_tx;
    int64_t n_undo = 0;
    int64_t n_rel = 0;
    int64_t delta = 0;
    int rc = VALID_OK;

    s->n_undo = 0;
    s->n_released = 0;
    s->tracked_delta = 0;
    s->error_txid = -1;
    s->error_parent = -1;
    s->error_index = -1;

    int64_t txid = s->first_txid;
    for (int64_t t = 0; t < s->n_tx; t++, txid++) {
        const int64_t i0 = s->in_off[t];
        const int64_t i1 = s->in_off[t + 1];
        for (int64_t i = i0; i < i1; i++) {
            int64_t parent = load_i64(s->parents + i);
            int32_t index = load_i32(s->indexes + i);
            /* A u64 wire txid past INT64_MAX arrives negative here;
             * python would compare it as a huge int and report it as
             * non-earlier, which is exactly this branch. */
            if (parent < 0 || parent >= txid) {
                rc = VALID_FUTURE;
                s->error_txid = txid;
                s->error_parent = parent;
                goto rollback;
            }
            if (parent < horizon) {
                continue; /* pre-horizon parents pass unchecked */
            }
            int64_t mask = s->masks[parent];
            if (mask == 0) {
                rc = VALID_UNKNOWN;
                s->error_txid = txid;
                s->error_parent = parent;
                goto rollback;
            }
            if (mask < 0) {
                rc = VALID_FALLBACK; /* arbitrary-precision mask */
                goto rollback;
            }
            /* Inline masks never reach bit 62, so an index at or past
             * it (or a u32 one that wrapped negative) cannot be set. */
            if (index < 0 || index >= 62 ||
                !(mask & ((int64_t)1 << index))) {
                rc = VALID_SPENT;
                s->error_txid = txid;
                s->error_parent = parent;
                s->error_index = (int64_t)index;
                goto rollback;
            }
            s->undo_txid[n_undo] = parent;
            s->undo_mask[n_undo] = mask;
            n_undo++;
            mask ^= (int64_t)1 << index;
            s->masks[parent] = mask;
            if (mask == 0) {
                s->released[n_rel++] = parent;
                delta -= 1;
            }
        }
        int64_t n_out = (int64_t)load_i32(s->n_outputs + t);
        if (n_out > 62 || n_out < 0) {
            rc = VALID_FALLBACK; /* mask would not fit inline */
            goto rollback;
        }
        if (n_out > 0) {
            s->masks[txid] = (((int64_t)1 << n_out) - 1);
            delta += 1;
        } else {
            s->released[n_rel++] = txid;
        }
    }
    s->n_undo = n_undo;
    s->n_released = n_rel;
    s->tracked_delta = delta;
    return VALID_OK;

rollback:
    /* Mirror the python rollback exactly: undo entries restore in
     * reverse, then every mask the batch created is dropped. Entries
     * past the failure point were never created, so zeroing the whole
     * batch range matches the python pop loop. */
    for (int64_t u = n_undo - 1; u >= 0; u--) {
        s->masks[s->undo_txid[u]] = s->undo_mask[u];
    }
    for (int64_t id = s->first_txid; id < last; id++) {
        s->masks[id] = 0;
    }
    return rc;
}
