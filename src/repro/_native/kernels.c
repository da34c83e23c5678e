/* Optional native kernels for the replica-batched direct backend.
 *
 * Compiled lazily by repro._native (`cc -O3 -march=native -shared
 * -fPIC` against the interpreter's headers, plain -O3 where the
 * compiler rejects -march=native) into a CPython extension module: the
 * binding section at the end of this file exports one function per
 * kernel.  Every entry point has a bit-exact NumPy fallback, so a
 * missing compiler or missing Python headers only cost speed, never
 * correctness.
 *
 * The PCG64 arithmetic below mirrors repro.simulation.vecrng exactly:
 * 128-bit LCG step (state = state * PCG_MULT + inc), XSL-RR output,
 * and Lemire 64-bit bounded rejection with the acceptance test on the
 * wrapping low product half.  Streams advanced here and streams
 * advanced by the NumPy limb pipeline are interchangeable mid-run.
 *
 * Every kernel takes an explicit slab of its iteration space ([lo, hi)
 * flat lanes for draw/seed, [r_lo, r_hi) replicas for elect) so the
 * Python shim can run slabs on a worker pool: the binding releases the
 * GIL around each kernel body, per-lane work never reads another
 * slab's state, and the shim's full-range single call is the
 * thread-count-1 behavior.
 */

/* Python.h first: it sets feature macros the system headers read. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <stddef.h>
#include <stdlib.h>

typedef unsigned __int128 u128;

#define PCG_MULT_HI 0x2360ED051FC65DA4ULL
#define PCG_MULT_LO 0x4385DF649FCCF645ULL

/* Bounded draws for every lane in [lo, hi) where mask[i] != 0.
 *
 * States (sh, sl) are updated in place; inc limbs are read-only.  A
 * lane's value lands in out[i] (range [1, high]) only where both mask
 * and need hold -- `need` may be NULL meaning "all masked lanes".
 * With `need` given, lanes at need & !mask get out[i] = 0 (an
 * impossible draw -- values start at 1), so the out plane doubles as
 * the masked-id plane the election kernel reads without re-gathering
 * the active mask.  Lanes outside both stay untouched.  Rejected
 * candidates consume exactly one extra raw u64 each, same as the
 * NumPy path.
 */
void repro_draw_masked(uint64_t *sh, uint64_t *sl,
                       const uint64_t *ih, const uint64_t *il,
                       const uint8_t *mask, const uint8_t *need,
                       int64_t lo, int64_t hi, uint64_t high, int64_t *out)
{
    const u128 mult = ((u128)PCG_MULT_HI << 64) | PCG_MULT_LO;
    const uint64_t threshold = (uint64_t)(0 - high) % high;
    for (int64_t i = lo; i < hi; ++i) {
        if (!mask[i]) {
            if (need != NULL && need[i])
                out[i] = 0;
            continue;
        }
        u128 st = ((u128)sh[i] << 64) | sl[i];
        const u128 inc = ((u128)ih[i] << 64) | il[i];
        uint64_t res;
        for (;;) {
            st = st * mult + inc;
            uint64_t xh = (uint64_t)(st >> 64);
            uint64_t xl = (uint64_t)st;
            uint64_t rot = xh >> 58;
            uint64_t val = xh ^ xl;
            val = (val >> rot) | (val << ((64 - rot) & 63));
            u128 prod = (u128)val * high;
            if ((uint64_t)prod >= threshold) {
                res = (uint64_t)(prod >> 64);
                break;
            }
        }
        sh[i] = (uint64_t)(st >> 64);
        sl[i] = (uint64_t)st;
        if (need == NULL || need[i])
            out[i] = (int64_t)(res + 1);
    }
}

/* Per-lane tail of SeedSequence(entropy).spawn(n) -> PCG64 seeding.
 *
 * The scalar prefix (entropy-pool fill + all-pairs mixing) is computed
 * in Python per seed; this kernel does everything per-lane: the
 * spawn-key hashmix/mix into the four pool words, generate_state(4,
 * uint64), the increment/state limb assembly, and the initial LCG
 * step (pcg_setseq_128_srandom_r: state = step(inc + initstate)).
 * Constants are numpy's seed_seq_fe adoption (32-bit arithmetic).
 *
 * Seeds flat lanes [lo, hi) of the (R, n) plane; lane f belongs to
 * replica f / n and derives from spawn child f % n, so any slab
 * partition produces the same limbs.
 */
#define INIT_B 0x8B51F9DDu
#define MULT_A 0x931E8875u
#define MULT_B 0x58F38DEDu
#define MIX_L 0xCA01F9DDu
#define MIX_R 0x4973F715u

void repro_seed_lanes(const uint32_t *pool4, const uint32_t *hc0,
                      int64_t n, int64_t lo, int64_t hi,
                      uint64_t *ih, uint64_t *il,
                      uint64_t *sh, uint64_t *sl)
{
    const u128 mult = ((u128)PCG_MULT_HI << 64) | PCG_MULT_LO;
    int64_t r = -1;
    uint32_t pre[4], post[4];
    const uint32_t *pool = pool4;
    for (int64_t f = lo; f < hi; ++f) {
        const int64_t fr = f / n;
        const int64_t lane = f - fr * n;
        if (fr != r) {
            /* hash_const advances once per destination word,
             * identically for every lane of a replica: precompute the
             * pre/post-multiply pairs on replica entry. */
            r = fr;
            pool = pool4 + 4 * r;
            uint32_t hc = hc0[r];
            for (int d = 0; d < 4; ++d) {
                pre[d] = hc;
                hc *= MULT_A;
                post[d] = hc;
            }
        }
        uint32_t p[4];
        for (int d = 0; d < 4; ++d) {
            uint32_t v = (uint32_t)lane ^ pre[d];
            v *= post[d];
            v ^= v >> 16;
            uint32_t res = pool[d] * MIX_L - v * MIX_R;
            p[d] = res ^ (res >> 16);
        }
        uint32_t w[8], h2 = INIT_B;
        for (int i = 0; i < 8; ++i) {
            uint32_t v = p[i & 3] ^ h2;
            h2 *= MULT_B;
            v *= h2;
            v ^= v >> 16;
            w[i] = v;
        }
        const uint64_t w0 = w[0] | ((uint64_t)w[1] << 32);
        const uint64_t w1 = w[2] | ((uint64_t)w[3] << 32);
        const uint64_t w2 = w[4] | ((uint64_t)w[5] << 32);
        const uint64_t w3 = w[6] | ((uint64_t)w[7] << 32);
        const uint64_t ihv = (w2 << 1) | (w3 >> 63);
        const uint64_t ilv = (w3 << 1) | 1;
        const u128 inc = ((u128)ihv << 64) | ilv;
        u128 st = inc + (((u128)w0 << 64) | w1);
        st = st * mult + inc;
        ih[f] = ihv;
        il[f] = ilv;
        sh[f] = (uint64_t)(st >> 64);
        sl[f] = (uint64_t)st;
    }
}

/* Adoption-phase ball walks.  The numpy formulation of Part II
 * materializes the full (deficient node, ball member) expansion --
 * repeat/arange/bincount passes over millions of int64 pairs per
 * iteration.  The two walks below stream the same CSR segments with
 * no temporaries, so the numpy path doubles as the readable
 * specification.  Both mutate replica-row planes of C-contiguous
 * blocks; neither is slabbed (pairs touching one node may live
 * anywhere, so threading would race the increments -- the calls are
 * microseconds anyway).
 */

/* Walk 1: one fused adoption-iteration phase.  Given the iteration's
 * deficient pairs over live rows (rows[p] is a *local* row of the
 * (L, n) scratch planes; live[r] maps it to its global row in the
 * full leader / krow planes), this
 *
 *   1. accumulates closed-ball candidate counts into cnt, recording
 *      each first touch in `touched`;
 *   2. classifies every touched leader: small actors (count <= k) are
 *      marked in the `small` plane, big actors (count > k) are
 *      appended to `big` as flat local row*n+node indices — exactly
 *      the set the Python caller must run per-actor sampling for;
 *   3. scans each deficient ball once more: any small member adopts
 *      the pair wholesale (picks[row*n + node] = 1);
 *   4. re-zeroes cnt and small via the touched list, so the scratch
 *      planes can be reused across iterations with no O(L*n) clears.
 *
 * cnt and small must arrive zeroed (the cleanup pass keeps them so);
 * picks arrives zeroed and is left for the caller.  touched and big
 * need capacity L*n.  Returns the number of big actors.  Replaces the
 * leader-plane gathers, boolean temporaries and nonzero scans of the
 * NumPy formulation, which remains the specification fallback. */
int64_t repro_ball_phase(int64_t n, int64_t P,
                         const int64_t *rows, const int64_t *nodes,
                         const int64_t *indptr, const int64_t *indices,
                         const int64_t *live, const uint8_t *leader,
                         const int64_t *krow,
                         int64_t *cnt, uint8_t *small, uint8_t *picks,
                         int64_t *touched, int64_t *big)
{
    int64_t nt = 0, nb = 0;
    for (int64_t p = 0; p < P; ++p) {
        const int64_t base = rows[p] * n;
        const int64_t v = nodes[p];
        for (int64_t e = indptr[v]; e < indptr[v + 1]; ++e) {
            const int64_t u = base + indices[e];
            if (cnt[u] == 0)
                touched[nt++] = u;
            cnt[u] += 1;
        }
    }
    for (int64_t t = 0; t < nt; ++t) {
        const int64_t f = touched[t];
        const int64_t r = f / n;
        const int64_t g = live[r] * n + (f - r * n);
        if (!leader[g])
            continue;
        if (cnt[f] <= krow[live[r]])
            small[f] = 1;
        else
            big[nb++] = f;
    }
    for (int64_t p = 0; p < P; ++p) {
        const int64_t base = rows[p] * n;
        const int64_t v = nodes[p];
        for (int64_t e = indptr[v]; e < indptr[v + 1]; ++e) {
            if (small[base + indices[e]]) {
                picks[base + v] = 1;
                break;
            }
        }
    }
    for (int64_t t = 0; t < nt; ++t) {
        cnt[touched[t]] = 0;
        small[touched[t]] = 0;
    }
    return nb;
}

/* Walk 2: promotion coverage + deficiency refresh.  For each newly
 * promoted pair (rows[p], nodes[p]), bump coverage over the closed
 * ball and recompute the deficiency predicate at each touched node.
 * A node touched several times converges: every write recomputes the
 * full predicate from current coverage, and coverage only grows, so
 * the write after its last increment is the final (correct) value --
 * identical to numpy's increment-all-then-refresh-touched order. */
void repro_ball_adopt(int64_t n, int64_t P,
                      const int64_t *rows, const int64_t *nodes,
                      const int64_t *indptr, const int64_t *indices,
                      int64_t *coverage, const uint8_t *leader,
                      uint8_t *deficient, const int64_t *krow)
{
    for (int64_t p = 0; p < P; ++p) {
        const int64_t r = rows[p];
        const int64_t base = r * n;
        const int64_t k = krow[r];
        const int64_t v = nodes[p];
        for (int64_t e = indptr[v]; e < indptr[v + 1]; ++e) {
            const int64_t u = base + indices[e];
            const int64_t c = coverage[u] + 1;
            coverage[u] = c;
            deficient[u] = !leader[u] && c < k;
        }
    }
}

/* Coverage-plane kernels: the closed-adjacency CSR matvec that serves
 * verification, the service snapshot, demotion prefilters and the
 * Part II adoption plane.  The membership operand arrives as a
 * lane-interleaved uint8 plane xT of shape (n, R): element (i, r) at
 * xT[i * R + r].  That transpose is what makes the batch shape fast --
 * one gathered index serves R replica lanes of contiguous bytes, so
 * the per-edge cost (the gather, the dominant cost of any sparse
 * matvec) is amortized R ways and the 16-lane inner loop vectorizes.
 *
 * Accumulation is exact integer arithmetic (0/1 indicators), so any
 * evaluation order equals scipy's float64 row sums bit for bit once
 * widened to int64.  The 16-lane blocks accumulate in uint16: a row
 * sum is bounded by the closed degree, and the Python shim falls back
 * to the reference path when Delta + 1 could reach 2^16 (never in
 * practice).  Rows are the slab axis: each (replica, row) output is
 * written exactly once, so any thread count is bit-identical.
 */
void repro_member_counts(int64_t n, int64_t R,
                         const int64_t *indptr, const int32_t *indices,
                         const uint8_t *xT, int64_t open_conv,
                         int64_t lo, int64_t hi, int64_t *out)
{
    if (R == 1) {
        /* Single-vector shape: plain gather matvec, int64 accumulator
         * (no degree bound needed). */
        for (int64_t i = lo; i < hi; ++i) {
            int64_t acc = 0;
            for (int64_t e = indptr[i]; e < indptr[i + 1]; ++e)
                acc += xT[indices[e]];
            out[i] = acc - (open_conv ? (int64_t)xT[i] : 0);
        }
        return;
    }
    for (int64_t rb = 0; rb < R; rb += 16) {
        const int64_t bl = (R - rb < 16) ? (R - rb) : 16;
        if (bl == 16) {
            for (int64_t i = lo; i < hi; ++i) {
                uint16_t acc[16] = {0};
                for (int64_t e = indptr[i]; e < indptr[i + 1]; ++e) {
                    const uint8_t *row = xT + (int64_t)indices[e] * R + rb;
                    for (int b = 0; b < 16; ++b)
                        acc[b] += row[b];
                }
                const uint8_t *self = xT + i * R + rb;
                for (int b = 0; b < 16; ++b)
                    out[(rb + b) * n + i] = (int64_t)acc[b]
                        - (open_conv ? (int64_t)self[b] : 0);
            }
        } else {
            for (int64_t i = lo; i < hi; ++i) {
                uint16_t acc[16] = {0};
                for (int64_t e = indptr[i]; e < indptr[i + 1]; ++e) {
                    const uint8_t *row = xT + (int64_t)indices[e] * R + rb;
                    for (int64_t b = 0; b < bl; ++b)
                        acc[b] += row[b];
                }
                const uint8_t *self = xT + i * R + rb;
                for (int64_t b = 0; b < bl; ++b)
                    out[(rb + b) * n + i] = (int64_t)acc[b]
                        - (open_conv ? (int64_t)self[b] : 0);
            }
        }
    }
}

/* Elementwise deficit: out[i] = max(0, req - counts[i]), zeroed at
 * members (open convention: a dominator is never deficient).  `req`
 * may be NULL (uniform req_scalar) and `members` may be NULL (no
 * exemption).  Pure elementwise -- any slab partition is identical. */
void repro_deficit(const int64_t *counts, const int64_t *req,
                   int64_t req_scalar, const uint8_t *members,
                   int64_t lo, int64_t hi, int64_t *out)
{
    for (int64_t i = lo; i < hi; ++i) {
        int64_t d = (req != NULL ? req[i] : req_scalar) - counts[i];
        if (d < 0 || (members != NULL && members[i]))
            d = 0;
        out[i] = d;
    }
}

/* Incremental frontier update: bump coverage by `sign` over the closed
 * ball of every promoted row, appending each touched index (with
 * duplicates, in CSR segment order -- exactly numpy's concatenate
 * order) to `touched`, whose capacity the caller precomputes from the
 * indptr diffs.  Serial on purpose: promoted balls overlap, so
 * threading would race the increments; calls are small by design
 * (they replace O(n) rescans with O(ball) work). */
void repro_scatter_cover(int64_t P, const int64_t *promoted,
                         const int64_t *indptr, const int64_t *indices,
                         int64_t sign, int64_t *coverage, int64_t *touched)
{
    int64_t t = 0;
    for (int64_t p = 0; p < P; ++p) {
        const int64_t v = promoted[p];
        for (int64_t e = indptr[v]; e < indptr[v + 1]; ++e) {
            const int64_t u = indices[e];
            coverage[u] += sign;
            touched[t++] = u;
        }
    }
}

/* One ArtifactDelta batch commit: the closed CSR after the batch, in
 * one pass over the new slots.
 *
 * Old rows are indexed by uid (the bundle's index before the batch).
 * final[u] is uid u's slot after the batch, or -1 once u was removed
 * or rewired (a rewire drops every old edge of the node); src[s] is
 * the uid whose old row slot s keeps (final[src[s]] == s), or -1 for a
 * slot that holds an added or rewired node.  keys[0..K) are the
 * batch's new entries as row << 32 | col keys, in row order.
 *
 * Slot s's row is its old row's surviving entries relabelled through
 * final, followed by its new entries.  Old rows are sorted and most
 * batches leave most rows untouched, so a row is insertion-sorted only
 * when an entry came out of order (a relabelled column or an added
 * entry).  Writes out_indptr[0..n1] and returns the entry count, or -1
 * (having written only within the rows already done) when an old row
 * holds a column outside [0, n0).  Serial: the walk is one pass.
 */
static int
cmp_i64(const void *a, const void *b)
{
    const int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* Sort row[0..len) ascending.  Insertion sort is linear on the nearly
 * sorted rows a batch leaves; past a budget of shifts (a row whose
 * columns many swap-with-last moves relabelled) qsort finishes the row
 * in O(len log len). */
static void
sort_row(int64_t *row, int64_t len)
{
    int64_t budget = 8 * len;
    for (int64_t i = 1; i < len; ++i) {
        const int64_t v = row[i];
        int64_t j = i;
        while (j > 0 && row[j - 1] > v) {
            row[j] = row[j - 1];
            --j;
        }
        row[j] = v;
        budget -= i - j;
        if (budget < 0) {
            qsort(row, (size_t)len, sizeof(int64_t), cmp_i64);
            return;
        }
    }
}

int64_t repro_csr_patch(int64_t n0, int64_t n1,
                        const int64_t *indptr, const int64_t *indices,
                        const int64_t *final, const int64_t *src,
                        int64_t K, const int64_t *keys,
                        int64_t *out_indptr, int64_t *out)
{
    int64_t w = 0, p = 0;
    out_indptr[0] = 0;
    for (int64_t s = 0; s < n1; ++s) {
        const int64_t start = w;
        const int64_t u = src[s];
        int64_t prev = -1;
        int sorted = 1;
        if (u >= 0) {
            for (int64_t e = indptr[u]; e < indptr[u + 1]; ++e) {
                const int64_t c = indices[e];
                if (c < 0 || c >= n0)
                    return -1;
                const int64_t f = final[c];
                if (f < 0)
                    continue;
                sorted &= f >= prev;
                out[w++] = prev = f;
            }
        }
        for (; p < K && (keys[p] >> 32) == s; ++p) {
            const int64_t c = keys[p] & 0xFFFFFFFF;
            sorted &= c >= prev;
            out[w++] = prev = c;
        }
        if (!sorted)
            sort_row(out + start, w - start);
        out_indptr[s + 1] = w;
    }
    return w;
}

/* One election round over replicas [r_lo, r_hi).
 *
 * For each within-degree>0 node sub[s] and each replica r where that
 * node is active, find the largest id among the node itself and its
 * active within-range neighbours (ties broken toward the larger node
 * index, matching the NumPy kernel) and mark the winner in elected.
 * Arrays ids / active / elected are C-contiguous (R, n) planes.
 *
 * Inactive candidates are masked to id 0 on the fly (every live
 * identifier is >= 1, so 0 never wins): no per-replica O(n) scratch
 * pass, and the per-round cost tracks the active electors' candidate
 * lists only.  ids_masked != 0 asserts the caller's id plane already
 * holds 0 on every inactive candidate lane (repro_draw_masked's
 * `need` contract provides exactly this), halving the random gathers
 * of the inner loop -- the dominant cost at scale.  Winner marks are
 * idempotent byte stores, so any replica partition is race-free.
 */
void repro_elect_batch(int64_t n, int64_t S,
                       const int64_t *sub, const int64_t *starts,
                       const int64_t *deg, const int64_t *nbr_w,
                       const int64_t *ids, const uint8_t *active,
                       uint8_t *elected, int64_t r_lo, int64_t r_hi,
                       int64_t ids_masked)
{
    for (int64_t r = r_lo; r < r_hi; ++r) {
        const uint8_t *act = active + r * n;
        const int64_t *id = ids + r * n;
        uint8_t *el = elected + r * n;
        for (int64_t s = 0; s < S; ++s) {
            const int64_t v = sub[s];
            if (!act[v])
                continue;
            int64_t best = id[v];
            int64_t node = v;
            const int64_t *p = nbr_w + starts[s];
            const int64_t d = deg[s];
            if (ids_masked) {
                for (int64_t j = 0; j < d; ++j) {
                    const int64_t u = p[j];
                    const int64_t q = id[u];
                    const int better = (q > best)
                        | ((q == best) & (u > node));
                    best = better ? q : best;
                    node = better ? u : node;
                }
            } else {
                for (int64_t j = 0; j < d; ++j) {
                    const int64_t u = p[j];
                    const int64_t q = act[u] ? id[u] : 0;
                    const int better = (q > best)
                        | ((q == best) & (u > node));
                    best = better ? q : best;
                    node = better ? u : node;
                }
            }
            el[node] = 1;
        }
    }
}

/* Columnar inbox reduction over one receiver-major CSR slab.
 *
 * Row i accumulates out[i] = init[i] + sum over its incoming edges e of
 * (mask[e] ? values[e] : 0.0), strictly left to right.  The masked-out
 * term is added as +0.0 rather than skipped so this loop performs the
 * exact same float-add sequence as the column-wise NumPy reference
 * (which adds a zeroed vector term per inbox position): the two are
 * bit-identical on every input, not just on the protocol's value
 * domains.  Each row is written exactly once, so any slab partition
 * over rows is bit-identical to the single-threaded pass.
 */
void repro_inbox_reduce(const int64_t *indptr, const double *values,
                        const uint8_t *mask, const double *init,
                        int64_t lo, int64_t hi, double *out)
{
    for (int64_t i = lo; i < hi; ++i) {
        double acc = init[i];
        for (int64_t e = indptr[i]; e < indptr[i + 1]; ++e)
            acc += mask[e] ? values[e] : 0.0;
        out[i] = acc;
    }
}

/* Permutation gather: out[i] = values[idx[i]] over the slab [lo, hi).
 * Pure gather (each out slot written once), so any slab partition is
 * bit-identical; used to flip per-edge columns between sender-major
 * and receiver-major order in the columnar protocol plane. */
void repro_state_scatter_f64(const int64_t *idx, const double *values,
                             int64_t lo, int64_t hi, double *out)
{
    for (int64_t i = lo; i < hi; ++i)
        out[i] = values[idx[i]];
}

void repro_state_scatter_u8(const int64_t *idx, const uint8_t *values,
                            int64_t lo, int64_t hi, uint8_t *out)
{
    for (int64_t i = lo; i < hi; ++i)
        out[i] = values[idx[i]];
}

/* ======================================================================
 * CPython binding: one METH_FASTCALL function per kernel.
 *
 * Arrays arrive through the buffer protocol.  PyBUF_SIMPLE admits only
 * C-contiguous buffers, and PyBUF_WRITABLE refuses a read-only array
 * in a position the kernel writes.  Every buffer's item size and the
 * length the call's size arguments imply are checked before the
 * kernel runs, so a bad call raises TypeError, ValueError or
 * BufferError and writes nothing.  Lengths are checked against the
 * whole call, never against the slab, so every slab of a threaded
 * call passes or fails alike; a CSR's index array must hold indptr[n]
 * entries.  Indices stored *inside* the arrays (CSR rows, lane ids)
 * stay the caller's contract, except for scatter_cover and csr_patch,
 * whose output capacity depends on them.  The GIL is released around
 * each kernel body.
 * ====================================================================== */

#define RD 0   /* read-only operand */
#define WR 1   /* operand the kernel writes */
#define OPT 2  /* None is accepted and passed as NULL */
#define MAX_BUFS 16

typedef struct {
    Py_buffer view[MAX_BUFS];
    int held;
} Bufs;

static void
bufs_release(Bufs *b)
{
    while (b->held > 0)
        PyBuffer_Release(&b->view[--b->held]);
}

static int
bad_argc(const char *fn, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)",
                 fn, want, nargs);
    return -1;
}

/* Borrow `obj` as a C-contiguous buffer of `itemsize`-byte items with
 * at least `min_items` items; `*items` (when not NULL) gets its item
 * count.  Returns 0, or -1 with an exception set. */
static int
arr(Bufs *b, PyObject *obj, const char *name, Py_ssize_t itemsize,
    int mode, int64_t min_items, void *data, Py_ssize_t *items)
{
    void **out = (void **)data;
    if ((mode & OPT) && obj == Py_None) {
        *out = NULL;
        return 0;
    }
    Py_buffer *v = &b->view[b->held];
    if (PyObject_GetBuffer(obj, v,
                           (mode & WR) ? PyBUF_WRITABLE : PyBUF_SIMPLE) < 0)
        return -1;
    b->held++;
    if (v->itemsize != itemsize) {
        PyErr_Format(PyExc_TypeError,
                     "%s: expected %zd-byte items, got %zd-byte items",
                     name, itemsize, v->itemsize);
        return -1;
    }
    const Py_ssize_t count = v->len / itemsize;
    if ((int64_t)count < min_items) {
        PyErr_Format(PyExc_ValueError,
                     "%s: needs at least %lld items, got %zd",
                     name, (long long)min_items, count);
        return -1;
    }
    *out = v->buf;
    if (items != NULL)
        *items = count;
    return 0;
}

static int
i64(PyObject *obj, int64_t *out)
{
    const long long v = PyLong_AsLongLong(obj);
    if (v == -1 && PyErr_Occurred())
        return -1;
    *out = (int64_t)v;
    return 0;
}

static int
u64(PyObject *obj, uint64_t *out)
{
    PyObject *idx = PyNumber_Index(obj);
    if (idx == NULL)
        return -1;
    const unsigned long long v = PyLong_AsUnsignedLongLong(idx);
    Py_DECREF(idx);
    if (v == (unsigned long long)-1 && PyErr_Occurred())
        return -1;
    *out = (uint64_t)v;
    return 0;
}

/* A non-negative size argument. */
static int
size_arg(PyObject *obj, const char *name, int64_t *out)
{
    if (i64(obj, out) < 0)
        return -1;
    if (*out < 0) {
        PyErr_Format(PyExc_ValueError, "%s must be >= 0, got %lld", name,
                     (long long)*out);
        return -1;
    }
    return 0;
}

/* *out = a * b for non-negative sizes, refusing int64 overflow. */
static int
mul(int64_t a, int64_t b, int64_t *out)
{
    if (b != 0 && a > INT64_MAX / b) {
        PyErr_SetString(PyExc_ValueError, "size arguments overflow int64");
        return -1;
    }
    *out = a * b;
    return 0;
}

/* The slab [lo, hi) must lie inside [0, total). */
static int
slab(PyObject *lo_obj, PyObject *hi_obj, int64_t total, int64_t *lo,
     int64_t *hi)
{
    if (i64(lo_obj, lo) < 0 || i64(hi_obj, hi) < 0)
        return -1;
    if (*lo < 0 || *lo > *hi || *hi > total) {
        PyErr_Format(PyExc_ValueError,
                     "slab [%lld, %lld) is outside [0, %lld)",
                     (long long)*lo, (long long)*hi, (long long)total);
        return -1;
    }
    return 0;
}

/* draw_masked(sh, sl, ih, il, mask, need, lo, hi, high, out) */
static PyObject *
py_draw_masked(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Bufs b = {.held = 0};
    PyObject *ret = NULL;
    uint64_t *sh, *sl, *ih, *il;
    uint8_t *mask, *need;
    int64_t *out, lo, hi;
    uint64_t high;
    Py_ssize_t n;
    if (bad_argc("draw_masked", nargs, 10)
        || arr(&b, args[4], "mask", 1, RD, 0, &mask, &n)
        || arr(&b, args[0], "sh", 8, WR, n, &sh, NULL)
        || arr(&b, args[1], "sl", 8, WR, n, &sl, NULL)
        || arr(&b, args[2], "ih", 8, RD, n, &ih, NULL)
        || arr(&b, args[3], "il", 8, RD, n, &il, NULL)
        || arr(&b, args[5], "need", 1, RD | OPT, n, &need, NULL)
        || arr(&b, args[9], "out", 8, WR, n, &out, NULL)
        || slab(args[6], args[7], n, &lo, &hi)
        || u64(args[8], &high))
        goto done;
    if (high == 0) {
        PyErr_SetString(PyExc_ValueError, "high must be >= 1");
        goto done;
    }
    Py_BEGIN_ALLOW_THREADS
    repro_draw_masked(sh, sl, ih, il, mask, need, lo, hi, high, out);
    Py_END_ALLOW_THREADS
    ret = Py_NewRef(Py_None);
done:
    bufs_release(&b);
    return ret;
}

/* seed_lanes(pool4, hc0, R, n, lo, hi, ih, il, sh, sl) */
static PyObject *
py_seed_lanes(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Bufs b = {.held = 0};
    PyObject *ret = NULL;
    uint32_t *pool4, *hc0;
    uint64_t *ih, *il, *sh, *sl;
    int64_t R, n, lanes, words, lo, hi;
    if (bad_argc("seed_lanes", nargs, 10)
        || size_arg(args[2], "R", &R) || size_arg(args[3], "n", &n)
        || mul(R, n, &lanes) || mul(R, 4, &words)
        || arr(&b, args[0], "pool4", 4, RD, words, &pool4, NULL)
        || arr(&b, args[1], "hc0", 4, RD, R, &hc0, NULL)
        || arr(&b, args[6], "ih", 8, WR, lanes, &ih, NULL)
        || arr(&b, args[7], "il", 8, WR, lanes, &il, NULL)
        || arr(&b, args[8], "sh", 8, WR, lanes, &sh, NULL)
        || arr(&b, args[9], "sl", 8, WR, lanes, &sl, NULL)
        || slab(args[4], args[5], lanes, &lo, &hi))
        goto done;
    Py_BEGIN_ALLOW_THREADS
    repro_seed_lanes(pool4, hc0, n, lo, hi, ih, il, sh, sl);
    Py_END_ALLOW_THREADS
    ret = Py_NewRef(Py_None);
done:
    bufs_release(&b);
    return ret;
}

/* elect_batch(R, n, sub, starts, deg, nbr_w, ids, active, elected,
 *             r_lo, r_hi, ids_masked) */
static PyObject *
py_elect_batch(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Bufs b = {.held = 0};
    PyObject *ret = NULL;
    int64_t *sub, *starts, *deg, *nbr_w, *ids;
    uint8_t *active, *elected;
    int64_t R, n, plane, r_lo, r_hi, masked;
    Py_ssize_t S;
    if (bad_argc("elect_batch", nargs, 12)
        || size_arg(args[0], "R", &R) || size_arg(args[1], "n", &n)
        || mul(R, n, &plane)
        || arr(&b, args[2], "sub", 8, RD, 0, &sub, &S)
        || arr(&b, args[3], "starts", 8, RD, S, &starts, NULL)
        || arr(&b, args[4], "deg", 8, RD, S, &deg, NULL)
        || arr(&b, args[5], "nbr_w", 8, RD, 0, &nbr_w, NULL)
        || arr(&b, args[6], "ids", 8, RD, plane, &ids, NULL)
        || arr(&b, args[7], "active", 1, RD, plane, &active, NULL)
        || arr(&b, args[8], "elected", 1, WR, plane, &elected, NULL)
        || slab(args[9], args[10], R, &r_lo, &r_hi)
        || i64(args[11], &masked))
        goto done;
    Py_BEGIN_ALLOW_THREADS
    repro_elect_batch(n, S, sub, starts, deg, nbr_w, ids, active, elected,
                      r_lo, r_hi, masked);
    Py_END_ALLOW_THREADS
    ret = Py_NewRef(Py_None);
done:
    bufs_release(&b);
    return ret;
}

/* ball_phase(n, rows, nodes, indptr, indices, live, leader, krow, cnt,
 *            small, picks, touched, big) -> number of big actors */
static PyObject *
py_ball_phase(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Bufs b = {.held = 0};
    PyObject *ret = NULL;
    int64_t *rows, *nodes, *indptr, *indices, *live, *krow, *cnt;
    int64_t *touched, *big;
    uint8_t *leader, *small, *picks;
    int64_t n, plane, local, nb;
    Py_ssize_t P, L, R;
    if (bad_argc("ball_phase", nargs, 13)
        || size_arg(args[0], "n", &n)
        || arr(&b, args[1], "rows", 8, RD, 0, &rows, &P)
        || arr(&b, args[2], "nodes", 8, RD, P, &nodes, NULL)
        || arr(&b, args[3], "indptr", 8, RD, n + 1, &indptr, NULL)
        || arr(&b, args[4], "indices", 8, RD, indptr[n], &indices, NULL)
        || arr(&b, args[5], "live", 8, RD, 0, &live, &L)
        || arr(&b, args[7], "krow", 8, RD, 0, &krow, &R)
        || mul(R, n, &plane) || mul(L, n, &local)
        || arr(&b, args[6], "leader", 1, RD, plane, &leader, NULL)
        || arr(&b, args[8], "cnt", 8, WR, local, &cnt, NULL)
        || arr(&b, args[9], "small", 1, WR, local, &small, NULL)
        || arr(&b, args[10], "picks", 1, WR, local, &picks, NULL)
        || arr(&b, args[11], "touched", 8, WR, local, &touched, NULL)
        || arr(&b, args[12], "big", 8, WR, local, &big, NULL))
        goto done;
    Py_BEGIN_ALLOW_THREADS
    nb = repro_ball_phase(n, P, rows, nodes, indptr, indices, live, leader,
                          krow, cnt, small, picks, touched, big);
    Py_END_ALLOW_THREADS
    ret = PyLong_FromLongLong((long long)nb);
done:
    bufs_release(&b);
    return ret;
}

/* ball_adopt(n, rows, nodes, indptr, indices, coverage, leader,
 *            deficient, krow) */
static PyObject *
py_ball_adopt(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Bufs b = {.held = 0};
    PyObject *ret = NULL;
    int64_t *rows, *nodes, *indptr, *indices, *coverage, *krow;
    uint8_t *leader, *deficient;
    int64_t n, plane;
    Py_ssize_t P, R;
    if (bad_argc("ball_adopt", nargs, 9)
        || size_arg(args[0], "n", &n)
        || arr(&b, args[1], "rows", 8, RD, 0, &rows, &P)
        || arr(&b, args[2], "nodes", 8, RD, P, &nodes, NULL)
        || arr(&b, args[3], "indptr", 8, RD, n + 1, &indptr, NULL)
        || arr(&b, args[4], "indices", 8, RD, indptr[n], &indices, NULL)
        || arr(&b, args[8], "krow", 8, RD, 0, &krow, &R)
        || mul(R, n, &plane)
        || arr(&b, args[5], "coverage", 8, WR, plane, &coverage, NULL)
        || arr(&b, args[6], "leader", 1, RD, plane, &leader, NULL)
        || arr(&b, args[7], "deficient", 1, WR, plane, &deficient, NULL))
        goto done;
    Py_BEGIN_ALLOW_THREADS
    repro_ball_adopt(n, P, rows, nodes, indptr, indices, coverage, leader,
                     deficient, krow);
    Py_END_ALLOW_THREADS
    ret = Py_NewRef(Py_None);
done:
    bufs_release(&b);
    return ret;
}

/* member_counts(n, R, indptr, indices32, xT, open_conv, lo, hi, out) */
static PyObject *
py_member_counts(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Bufs b = {.held = 0};
    PyObject *ret = NULL;
    int64_t *indptr, *out;
    int32_t *indices;
    uint8_t *xT;
    int64_t n, R, plane, open_conv, lo, hi;
    if (bad_argc("member_counts", nargs, 9)
        || size_arg(args[0], "n", &n) || size_arg(args[1], "R", &R)
        || mul(n, R, &plane)
        || arr(&b, args[2], "indptr", 8, RD, n + 1, &indptr, NULL)
        || arr(&b, args[3], "indices", 4, RD, indptr[n], &indices, NULL)
        || arr(&b, args[4], "xT", 1, RD, plane, &xT, NULL)
        || arr(&b, args[8], "out", 8, WR, plane, &out, NULL)
        || i64(args[5], &open_conv)
        || slab(args[6], args[7], n, &lo, &hi))
        goto done;
    Py_BEGIN_ALLOW_THREADS
    repro_member_counts(n, R, indptr, indices, xT, open_conv, lo, hi, out);
    Py_END_ALLOW_THREADS
    ret = Py_NewRef(Py_None);
done:
    bufs_release(&b);
    return ret;
}

/* deficit(counts, req, req_scalar, members, lo, hi, out) */
static PyObject *
py_deficit(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Bufs b = {.held = 0};
    PyObject *ret = NULL;
    int64_t *counts, *req, *out, req_scalar, lo, hi;
    uint8_t *members;
    Py_ssize_t n;
    if (bad_argc("deficit", nargs, 7)
        || arr(&b, args[0], "counts", 8, RD, 0, &counts, &n)
        || arr(&b, args[1], "req", 8, RD | OPT, n, &req, NULL)
        || arr(&b, args[3], "members", 1, RD | OPT, n, &members, NULL)
        || arr(&b, args[6], "out", 8, WR, n, &out, NULL)
        || i64(args[2], &req_scalar)
        || slab(args[4], args[5], n, &lo, &hi))
        goto done;
    Py_BEGIN_ALLOW_THREADS
    repro_deficit(counts, req, req_scalar, members, lo, hi, out);
    Py_END_ALLOW_THREADS
    ret = Py_NewRef(Py_None);
done:
    bufs_release(&b);
    return ret;
}

/* scatter_cover(promoted, indptr, indices, sign, coverage, touched) */
static PyObject *
py_scatter_cover(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Bufs b = {.held = 0};
    PyObject *ret = NULL;
    int64_t *promoted, *indptr, *indices, *coverage, *touched, sign;
    int64_t n, need = 0;
    Py_ssize_t P, rows, cap;
    if (bad_argc("scatter_cover", nargs, 6)
        || arr(&b, args[0], "promoted", 8, RD, 0, &promoted, &P)
        || arr(&b, args[1], "indptr", 8, RD, 1, &indptr, &rows))
        goto done;
    n = rows - 1;
    if (arr(&b, args[2], "indices", 8, RD, indptr[n], &indices, NULL)
        || arr(&b, args[4], "coverage", 8, WR, n, &coverage, NULL)
        || arr(&b, args[5], "touched", 8, WR, 0, &touched, &cap)
        || i64(args[3], &sign))
        goto done;
    /* The touched list holds every promoted row's closed ball. */
    for (Py_ssize_t p = 0; p < P; ++p) {
        const int64_t v = promoted[p];
        if (v < 0 || v >= n) {
            PyErr_Format(PyExc_IndexError,
                         "promoted row %lld is outside [0, %lld)",
                         (long long)v, (long long)n);
            goto done;
        }
        need += indptr[v + 1] - indptr[v];
    }
    if ((int64_t)cap < need) {
        PyErr_Format(PyExc_ValueError,
                     "touched: needs at least %lld items, got %zd",
                     (long long)need, cap);
        goto done;
    }
    Py_BEGIN_ALLOW_THREADS
    repro_scatter_cover(P, promoted, indptr, indices, sign, coverage,
                        touched);
    Py_END_ALLOW_THREADS
    ret = Py_NewRef(Py_None);
done:
    bufs_release(&b);
    return ret;
}

/* csr_patch(indptr, indices, final, src, keys, out_indptr, out_indices)
 * -> entries written.  The slot map and the keys are checked before
 * the kernel runs, since the output capacity depends on them: final
 * and src must be inverse partial maps between the n0 = len(indptr) - 1
 * uids and the n1 = len(src) slots, every row src copies must lie
 * inside indices, and the keys must be rows < n1 in order with columns
 * < n1.  out_indices then needs room for the copied rows plus the
 * keys. */
static PyObject *
py_csr_patch(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Bufs b = {.held = 0};
    PyObject *ret = NULL;
    int64_t *indptr, *indices, *final, *src, *keys, *out_indptr, *out;
    int64_t n0, need, total;
    Py_ssize_t rows, nnz, n1, K, cap;
    if (bad_argc("csr_patch", nargs, 7)
        || arr(&b, args[0], "indptr", 8, RD, 1, &indptr, &rows))
        goto done;
    n0 = rows - 1;
    if (arr(&b, args[1], "indices", 8, RD, 0, &indices, &nnz)
        || arr(&b, args[2], "final", 8, RD, n0, &final, NULL)
        || arr(&b, args[3], "src", 8, RD, 0, &src, &n1)
        || arr(&b, args[4], "keys", 8, RD, 0, &keys, &K)
        || arr(&b, args[5], "out_indptr", 8, WR, (int64_t)n1 + 1,
               &out_indptr, NULL)
        || arr(&b, args[6], "out_indices", 8, WR, 0, &out, &cap))
        goto done;
    for (int64_t u = 0; u < n0; ++u) {
        const int64_t f = final[u];
        if (f < -1 || f >= n1 || (f >= 0 && src[f] != u)) {
            PyErr_Format(PyExc_ValueError,
                         "final[%lld] = %lld is not a slot whose src "
                         "entry names it", (long long)u, (long long)f);
            goto done;
        }
    }
    need = K;
    for (Py_ssize_t s = 0; s < n1; ++s) {
        const int64_t u = src[s];
        if (u < -1 || u >= n0 || (u >= 0 && final[u] != s)) {
            PyErr_Format(PyExc_ValueError,
                         "src[%zd] = %lld is not a uid whose final entry "
                         "names it", s, (long long)u);
            goto done;
        }
        if (u < 0)
            continue;
        if (indptr[u] < 0 || indptr[u] > indptr[u + 1]
            || indptr[u + 1] > nnz) {
            PyErr_Format(PyExc_ValueError,
                         "indptr: row %lld is not inside indices",
                         (long long)u);
            goto done;
        }
        need += indptr[u + 1] - indptr[u];
    }
    for (Py_ssize_t p = 0; p < K; ++p) {
        const int64_t row = keys[p] >> 32, col = keys[p] & 0xFFFFFFFF;
        if (keys[p] < 0 || row >= n1 || col >= n1
            || (p > 0 && row < (keys[p - 1] >> 32))) {
            PyErr_Format(PyExc_ValueError,
                         "keys[%zd] = %lld is out of row order or range",
                         p, (long long)keys[p]);
            goto done;
        }
    }
    if ((int64_t)cap < need) {
        PyErr_Format(PyExc_ValueError,
                     "out_indices: needs at least %lld items, got %zd",
                     (long long)need, cap);
        goto done;
    }
    Py_BEGIN_ALLOW_THREADS
    total = repro_csr_patch(n0, n1, indptr, indices, final, src, K, keys,
                            out_indptr, out);
    Py_END_ALLOW_THREADS
    if (total < 0) {
        PyErr_Format(PyExc_IndexError,
                     "indices: a copied row holds a column outside "
                     "[0, %lld)", (long long)n0);
        goto done;
    }
    ret = PyLong_FromLongLong((long long)total);
done:
    bufs_release(&b);
    return ret;
}

/* inbox_reduce(indptr, values, mask, init, lo, hi, out) */
static PyObject *
py_inbox_reduce(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Bufs b = {.held = 0};
    PyObject *ret = NULL;
    int64_t *indptr, lo, hi, n, nnz;
    double *values, *init, *out;
    uint8_t *mask;
    Py_ssize_t rows;
    if (bad_argc("inbox_reduce", nargs, 7)
        || arr(&b, args[0], "indptr", 8, RD, 1, &indptr, &rows))
        goto done;
    n = rows - 1;
    nnz = indptr[n];
    if (arr(&b, args[1], "values", 8, RD, nnz, &values, NULL)
        || arr(&b, args[2], "mask", 1, RD, nnz, &mask, NULL)
        || arr(&b, args[3], "init", 8, RD, n, &init, NULL)
        || arr(&b, args[6], "out", 8, WR, n, &out, NULL)
        || slab(args[4], args[5], n, &lo, &hi))
        goto done;
    Py_BEGIN_ALLOW_THREADS
    repro_inbox_reduce(indptr, values, mask, init, lo, hi, out);
    Py_END_ALLOW_THREADS
    ret = Py_NewRef(Py_None);
done:
    bufs_release(&b);
    return ret;
}

/* state_scatter_{f64,u8}(idx, values, lo, hi, out) */
static PyObject *
state_scatter(const char *fn, Py_ssize_t itemsize, PyObject *const *args,
              Py_ssize_t nargs)
{
    Bufs b = {.held = 0};
    PyObject *ret = NULL;
    int64_t *idx, lo, hi;
    void *values, *out;
    Py_ssize_t n;
    if (bad_argc(fn, nargs, 5)
        || arr(&b, args[0], "idx", 8, RD, 0, &idx, &n)
        || arr(&b, args[1], "values", itemsize, RD, 0, &values, NULL)
        || arr(&b, args[4], "out", itemsize, WR, n, &out, NULL)
        || slab(args[2], args[3], n, &lo, &hi))
        goto done;
    Py_BEGIN_ALLOW_THREADS
    if (itemsize == 8)
        repro_state_scatter_f64(idx, values, lo, hi, out);
    else
        repro_state_scatter_u8(idx, values, lo, hi, out);
    Py_END_ALLOW_THREADS
    ret = Py_NewRef(Py_None);
done:
    bufs_release(&b);
    return ret;
}

static PyObject *
py_state_scatter_f64(PyObject *self, PyObject *const *args,
                     Py_ssize_t nargs)
{
    return state_scatter("state_scatter_f64", 8, args, nargs);
}

static PyObject *
py_state_scatter_u8(PyObject *self, PyObject *const *args,
                    Py_ssize_t nargs)
{
    return state_scatter("state_scatter_u8", 1, args, nargs);
}

#define FASTCALL(name, doc) \
    {#name, (PyCFunction)(void (*)(void))py_##name, METH_FASTCALL, doc}

static PyMethodDef kernel_methods[] = {
    FASTCALL(draw_masked, "repro_draw_masked over a checked slab."),
    FASTCALL(seed_lanes, "repro_seed_lanes over a checked slab."),
    FASTCALL(elect_batch, "repro_elect_batch over a replica slab."),
    FASTCALL(ball_phase, "repro_ball_phase; returns the big-actor count."),
    FASTCALL(ball_adopt, "repro_ball_adopt."),
    FASTCALL(member_counts, "repro_member_counts over a row slab."),
    FASTCALL(deficit, "repro_deficit over a checked slab."),
    FASTCALL(scatter_cover, "repro_scatter_cover."),
    FASTCALL(csr_patch, "repro_csr_patch; returns the entry count."),
    FASTCALL(inbox_reduce, "repro_inbox_reduce over a row slab."),
    FASTCALL(state_scatter_f64, "repro_state_scatter_f64 over a slab."),
    FASTCALL(state_scatter_u8, "repro_state_scatter_u8 over a slab."),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    "_kernels",
    "Compiled kernels of repro._native (see kernels.c).",
    -1,
    kernel_methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__kernels(void)
{
    return PyModule_Create(&kernel_module);
}
