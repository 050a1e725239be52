// Fast kernel implementations: register-blocked / multi-accumulator rewrites
// of the reference loops. Scalar float math only — no intrinsics, no
// fast-math — so they compile anywhere; the speed comes from three sources:
//
//   * fixed-size interleaved accumulator tiles the compiler keeps in SIMD
//     registers (C traffic drops from one load+store per (p, j) visit to one
//     store per output element),
//   * independent accumulator chains that break the FP add latency the
//     reference dot products serialize on,
//   * function multiversioning (target_clones, where the toolchain supports
//     it): each hot helper is compiled for avx512f/avx2/baseline and the
//     dynamic linker picks the widest clone the CPU offers, without giving
//     up the portable baseline binary.
//
// Determinism contract: every blocking factor is a compile-time constant and
// every output element is produced by exactly one parallel_for iteration, so
// results are bitwise-identical across runs, FEDTINY_THREADS values, and
// worker counts on a given machine. They are NOT bitwise-equal to reference
// (reassociated sums and FMA contraction round differently), and the
// selected clone can differ across CPU generations; the parity tests bound
// the drift against reference instead of pinning bits.
//
// Layout note: the per-row/per-tile loop bodies live in flat file-local
// helpers rather than inside the parallel_for lambdas — target_clones
// applies to the function it annotates, and a lambda body is a different
// function that would silently stay on the baseline ISA.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <vector>

#include "tensor/kernels.h"
#include "tensor/parallel.h"
#include "tensor/sparse.h"

// Multiversion hot helpers on ELF x86-64 where the compiler understands
// target_clones (GCC and recent Clang); elsewhere compile the portable
// baseline only.
#if defined(__x86_64__) && defined(__ELF__) && defined(__has_attribute)
// ThreadSanitizer builds go without the clones: their ifunc resolvers run
// before the TSan runtime is up and crash the binary at load.
#if __has_attribute(target_clones) && !defined(__SANITIZE_THREAD__)
#define FEDTINY_KERNEL_CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#endif
// Single-target variant for the non-temporal streaming copy: it needs real
// intrinsics (_mm256_stream_ps has no portable spelling), so it is compiled
// for AVX behind a runtime __builtin_cpu_supports check instead of cloned.
#if __has_attribute(target)
#define FEDTINY_HAVE_AVX_STREAM 1
#include <immintrin.h>
#endif
#endif
#ifndef FEDTINY_KERNEL_CLONES
#define FEDTINY_KERNEL_CLONES
#endif
// FEDTINY_NO_CONTRACT: separate multiply and add roundings (no FMA
// contraction) whatever the clone's ISA. GCC contracts across statements
// under its default -ffp-contract=fast, so a loop's bits would otherwise
// hang on how each clone happens to vectorize it; Clang contracts only
// within one expression by default, which the source already fixes.
// FEDTINY_INLINE_LOOPS: keep short fill loops as loops. GCC otherwise turns
// them into memset calls, which cost more than the 1-8 floats of a row on
// FedTiny's tiny planes.
#if defined(__GNUC__) && !defined(__clang__)
#define FEDTINY_NO_CONTRACT __attribute__((optimize("fp-contract=off")))
#define FEDTINY_INLINE_LOOPS __attribute__((optimize("no-tree-loop-distribute-patterns")))
#else
#define FEDTINY_NO_CONTRACT
#define FEDTINY_INLINE_LOOPS
#endif

namespace fedtiny::kernels {

namespace {

// ---- Pack scratch accounting ------------------------------------------------
// Every thread that packs B panels holds one arena, capped at a single L2
// panel (the shared-pack engine never needs more). The global byte counter
// sums live capacity across all arenas so tests can assert the scratch
// plateaus instead of growing with lane count x matrix size.

std::atomic<int64_t> g_scratch_bytes{0};

struct PackArena {
  std::vector<float> buf;
  ~PackArena() {
    g_scratch_bytes.fetch_sub(static_cast<int64_t>(buf.capacity() * sizeof(float)),
                              std::memory_order_relaxed);
  }
  float* get(size_t floats) {
    if (floats > buf.size()) {
      g_scratch_bytes.fetch_sub(static_cast<int64_t>(buf.capacity() * sizeof(float)),
                                std::memory_order_relaxed);
      buf.resize(floats);
      buf.shrink_to_fit();
      g_scratch_bytes.fetch_add(static_cast<int64_t>(buf.capacity() * sizeof(float)),
                                std::memory_order_relaxed);
    }
    return buf.data();
  }
};

float* pack_arena(size_t floats) {
  static thread_local PackArena arena;
  return arena.get(floats);
}

// ---- Kernel lane sizing -----------------------------------------------------
// Extra Executor-budget lanes worth requesting for a call of `work` abstract
// units (flops for GEMM, bytes for the data movers). Below 2x the per-lane
// floor the handoff overhead eats the win and the call stays inline; above it
// one extra lane per floor unit, capped at 15 extras (16 lanes total).

constexpr double kMinLaneFlops = 1 << 19;   // ~100 us of register-tile GEMM per lane
constexpr double kMinLaneBytes = 1 << 20;   // ~100 us of streaming copy per lane

int extra_lanes_for(double work, double min_lane_work) {
  if (!(work >= 2.0 * min_lane_work)) return 0;
  const double lanes = work / min_lane_work;
  return lanes >= 16.0 ? 15 : static_cast<int>(lanes) - 1;
}

// GEMM register tile: kMr C-rows x kNr C-columns accumulate in registers
// across the whole k loop. kNr = 16 floats is one full zmm (or two ymm /
// four xmm) per row; kMr = 4 rows keeps the tile within the 16-register
// budget of every x86-64 level.
constexpr int64_t kMr = 4;
constexpr int64_t kNr = 16;

// Cache panel budget for the B operand. The batched conv pipeline feeds the
// GEMMs [fan_in, batch*out_hw] column buffers that overflow L2; without
// panels every row band re-walks all of B from L3. The outer loops below cut
// the B traversal into panels of ~this many bytes so one panel stays
// L2-resident across all bands/rows. Panel geometry depends only on (k, n),
// and panels partition the output columns (NN/TN) or B rows (NT) — every
// output element is still produced by exactly the same accumulation, so
// paneling changes locality, not results.
constexpr int64_t kPanelBytes = 1 << 20;

/// NN/TN: B panel is k rows x pn columns; keep pn a multiple of the kNr tile.
inline int64_t gemm_panel_cols(int64_t k, int64_t n) {
  int64_t pn = kPanelBytes / (static_cast<int64_t>(sizeof(float)) * std::max<int64_t>(k, 1));
  pn = pn / kNr * kNr;
  if (pn < kNr) pn = kNr;
  return pn >= n ? n : pn;
}

/// NT: B panel is pr rows of length k.
inline int64_t gemm_panel_rows(int64_t k, int64_t n) {
  int64_t pr = kPanelBytes / (static_cast<int64_t>(sizeof(float)) * std::max<int64_t>(k, 1));
  if (pr < 8) pr = 8;
  return pr >= n ? n : pr;
}

/// Fixed-order pairwise reduction of kNr partial sums (the order is part of
/// the deterministic-results contract).
inline float reduce_tile(const float* s) {
  float d0 = 0.0f, d1 = 0.0f, d2 = 0.0f, d3 = 0.0f;
  for (int64_t u = 0; u < kNr; u += 4) {
    d0 += s[u];
    d1 += s[u + 1];
    d2 += s[u + 2];
    d3 += s[u + 3];
  }
  return (d0 + d1) + (d2 + d3);
}

/// Write-back for one tile row: c = alpha * acc + beta * c (beta == 0
/// overwrites, so C may start uninitialized).
inline void store_row(float* crow, const float* acc, int64_t nr, float alpha, float beta) {
  if (beta == 0.0f) {
    for (int64_t jj = 0; jj < nr; ++jj) crow[jj] = alpha * acc[jj];
  } else {
    for (int64_t jj = 0; jj < nr; ++jj) crow[jj] = alpha * acc[jj] + beta * crow[jj];
  }
}

/// Epilogue-aware write-back: blend, then row bias, column bias, ReLU — the
/// same order gemm_epilogue_apply uses, so a fused store is bitwise-identical
/// to "plain gemm + ordered post-pass". The loop-invariant branches are
/// unswitched by the compiler; bias terms are only added when present (no
/// "+ 0.0f" that could flip a -0.0 output). The clamp predicate is v > 0.0f —
/// the exact nn::ReLU / gemm_epilogue_apply predicate (normalizes -0.0 to
/// +0.0) — and `mrow`, when given, records it per element for the fused
/// conv+ReLU backward.
inline void store_row_epi(float* crow, const float* acc, int64_t nr, float alpha, float beta,
                          bool has_rbias, float rbias, const float* cbias, bool relu,
                          uint8_t* mrow) {
  for (int64_t jj = 0; jj < nr; ++jj) {
    float v = alpha * acc[jj];
    if (beta != 0.0f) v += beta * crow[jj];
    if (has_rbias) v += rbias;
    if (cbias != nullptr) v += cbias[jj];
    if (relu) {
      const bool pos = v > 0.0f;
      if (mrow != nullptr) mrow[jj] = pos ? 1 : 0;
      if (!pos) v = 0.0f;
    }
    crow[jj] = v;
  }
}

// ---- GEMM bands over a packed B panel --------------------------------------
// Large B operands are repacked one cache panel at a time into strip-major
// layout: strip s holds columns [s*kNr, (s+1)*kNr) of the panel as a
// contiguous [k, kNr] block (zero-padded past the panel edge). Two wins:
//   * the register-tile k-loop reads 64-byte contiguous chunks instead of
//     striding by the full row pitch (a batched conv buffer strides by
//     whole pages, which defeats the L1 prefetcher and thrashes the TLB),
//   * one packed panel serves every row band while it is L2-resident.
// Packing is pure data movement and the tile accumulation order is identical
// to the unpacked tile, so packed NN/TN results are bitwise-equal to the
// unpacked fast path. The NT form reuses the same packed tile (B^T columns
// become strips), trading its old dot-product association for the tile's —
// fast-mode results stay deterministic, only the (tolerance-bounded)
// rounding vs reference shifts.

/// Pack one strip — columns [j0, j0+w) of B[k, n] (op(B) = B) — into a
/// contiguous zero-padded [k, kNr] block. Per-strip granularity so the panel
/// pack can spread strips across kernel lanes (each strip is written by
/// exactly one task; the bytes written don't depend on who writes them).
FEDTINY_KERNEL_CLONES
void gemm_pack_bn_strip(const float* b, int64_t n, int64_t k, int64_t j0, int64_t w, float* dst) {
  for (int64_t p = 0; p < k; ++p) {
    const float* srow = b + p * n + j0;
    float* drow = dst + p * kNr;
    for (int64_t jj = 0; jj < w; ++jj) drow[jj] = srow[jj];
    for (int64_t jj = w; jj < kNr; ++jj) drow[jj] = 0.0f;
  }
}

/// Pack one strip — rows [j0, j0+w) of B[n, k] (op(B) = B^T) — into the same
/// zero-padded [k, kNr] block layout.
FEDTINY_KERNEL_CLONES
void gemm_pack_nt_strip(const float* b, int64_t k, int64_t j0, int64_t w, float* dst) {
  for (int64_t jj = 0; jj < w; ++jj) {
    const float* src = b + (j0 + jj) * k;
    for (int64_t p = 0; p < k; ++p) dst[p * kNr + jj] = src[p];
  }
  for (int64_t p = 0; p < k; ++p) {
    for (int64_t jj = w; jj < kNr; ++jj) dst[p * kNr + jj] = 0.0f;
  }
}

// Flat strip helpers: the tile loops live in their own small functions (not
// inside the big band dispatcher) so the vectorizer reliably keeps the
// accumulators in SIMD registers; A addressing is hoisted to a base-pointer
// + stride pair instead of a per-iteration trans_a ternary.
//
// Width invariance: every accumulation loop below runs at the constant kNr
// width — panel-edge tails are staged through a zero-padded strip first
// (tail_arena) instead of shortening the loop. A runtime-width accumulation
// loop is compiled into several vector/scalar variants whose FMA contraction
// can differ, so the same C column could get different bits depending on
// where the operand's edge fell — i.e. on the total column count n. With the
// constant-width body (and strip boundaries on absolute kNr multiples), a
// C column's bits depend only on its A row and B column, never on n. The
// serving micro-batcher leans on exactly this: rows of a batched forward
// memcmp-equal the same requests served at batch 1.

/// Thread-local zero-padded stage for one panel-edge tail strip ([k, kNr]
/// block, same layout as the packed panels). Deliberately separate from
/// pack_arena: bands run on the calling lane too, and a band staging its
/// tail must not clobber the packed panel that lane's caller still owns.
inline float* tail_arena(int64_t k) {
  thread_local std::vector<float> buf;
  if (static_cast<int64_t>(buf.size()) < k * kNr) buf.resize(static_cast<size_t>(k) * kNr);
  return buf.data();
}

/// One band's op(A) rows with their zeros squeezed out: row r's nonzeros
/// sit at [r*k, r*k + count[r]) of idx/val, in ascending p.
struct BandNonzeros {
  std::vector<int32_t> idx;
  std::vector<float> val;
  int64_t count[kMr] = {};
};

inline BandNonzeros& band_arena(int64_t k) {
  thread_local BandNonzeros z;
  if (static_cast<int64_t>(z.idx.size()) < kMr * k) {
    z.idx.resize(static_cast<size_t>(kMr * k));
    z.val.resize(static_cast<size_t>(kMr * k));
  }
  return z;
}

/// Whether the band of op(A) rows (element p of row r at
/// a0[r * rstride + p * astride]) takes the zero-skip: more than 75% of its
/// mr*k entries are zero (the dense tile is ~4x faster on dense data). The
/// rule reads nothing but A's zeros and k, never the panel width, so whether
/// a band skips cannot vary with n, lanes or runs.
FEDTINY_KERNEL_CLONES
bool band_is_sparse(const float* a0, int64_t rstride, int64_t astride, int64_t k, int64_t mr) {
  int64_t nonzeros = 0;
  for (int64_t r = 0; r < mr; ++r) {
    const float* row = a0 + r * rstride;
    if (astride == 1) {  // contiguous rows: lets the count vectorize
      for (int64_t p = 0; p < k; ++p) nonzeros += row[p] != 0.0f ? 1 : 0;
    } else {
      for (int64_t p = 0; p < k; ++p) nonzeros += row[p * astride] != 0.0f ? 1 : 0;
    }
  }
  return 4 * nonzeros < mr * k;
}

/// Collect the nonzeros of a skip band's rows into `z`, in ascending p (NaN
/// counts as nonzero and -0 as zero, as the skip treats them). Whole zero
/// chunks, the common case at low density, cost one test; the branch-free
/// append runs only on chunks that hold a nonzero.
FEDTINY_KERNEL_CLONES
void compact_band(const float* a0, int64_t rstride, int64_t astride, int64_t k, int64_t mr,
                  BandNonzeros& z) {
  for (int64_t r = 0; r < mr; ++r) {
    const float* row = a0 + r * rstride;
    int32_t* ix = z.idx.data() + r * k;
    float* vx = z.val.data() + r * k;
    int64_t cnt = 0;
    for (int64_t p0 = 0; p0 < k; p0 += kNr) {
      const int64_t w = std::min<int64_t>(kNr, k - p0);
      bool any = false;
      for (int64_t u = 0; u < w; ++u) any |= row[(p0 + u) * astride] != 0.0f;
      if (!any) continue;
      for (int64_t u = 0; u < w; ++u) {
        const float v = row[(p0 + u) * astride];
        ix[cnt] = static_cast<int32_t>(p0 + u);
        vx[cnt] = v;
        cnt += v != 0.0f ? 1 : 0;
      }
    }
    z.count[r] = cnt;
  }
}

/// One strip of a skip row: acc = sum over the row's compacted nonzeros
/// (idx/val, nz entries, ascending p) of val * B row, at the dense tile's
/// constant width. Skipped terms contribute exactly +0 (accumulators start
/// at +0 and can never reach -0, so x + (+/-0) == x bitwise). The sum keeps
/// separate multiply and add roundings (FEDTINY_NO_CONTRACT), exactly the
/// loop that rescanned all of A's row for every strip. Kept apart from the
/// store: a caller with the optimize attribute would stop GCC from inlining
/// store_row into the register tiles.
FEDTINY_KERNEL_CLONES FEDTINY_NO_CONTRACT
void skip_strip(const int32_t* idx, const float* val, int64_t nz, const float* bs,
                int64_t bstride, float* out) {
  float acc[kNr] = {};
  for (int64_t t = 0; t < nz; ++t) {
    const float av = val[t];
    const float* brow = bs + static_cast<int64_t>(idx[t]) * bstride;
    for (int64_t jj = 0; jj < kNr; ++jj) acc[jj] += av * brow[jj];
  }
  for (int64_t jj = 0; jj < kNr; ++jj) out[jj] = acc[jj];
}

/// Zero-skip for one C row of a zero-heavy band, strip by strip with the
/// dense tile's store. The strip grid sits on absolute kNr multiples, so
/// neither the skip nor its bits can vary with n; `tail` is the band's
/// zero-padded stage of a final partial strip.
FEDTINY_KERNEL_CLONES
void skip_band_row(const int32_t* idx, const float* val, int64_t nz, const float* b, int64_t n,
                   const float* tail, int64_t i, float alpha, float beta, float* c,
                   const GemmEpilogue& epi, int64_t jb, int64_t je) {
  for (int64_t j0 = jb; j0 < je; j0 += kNr) {
    const int64_t nr = std::min<int64_t>(kNr, je - j0);
    float acc[kNr];
    skip_strip(idx, val, nz, nr < kNr ? tail : b + j0, nr < kNr ? kNr : n, acc);
    if (!epi.active()) {
      store_row(c + i * n + j0, acc, nr, alpha, beta);
    } else {
      store_row_epi(c + i * n + j0, acc, nr, alpha, beta, epi.row_bias != nullptr,
                    epi.row_bias != nullptr ? epi.row_bias[i] : 0.0f,
                    epi.col_bias != nullptr ? epi.col_bias + j0 : nullptr, epi.relu,
                    epi.relu_mask != nullptr ? epi.relu_mask + i * n + j0 : nullptr);
    }
  }
}

/// One kMr-row register tile over a single B strip. bs/bstride point at the
/// strip's columns wherever they live — packed panel (stride kNr), unpacked
/// operand (stride n), or zero-padded tail stage (stride kNr) — so packed
/// and unpacked GEMMs share one compiled accumulation body and stay
/// bitwise-equal by construction, not by codegen luck.
FEDTINY_KERNEL_CLONES
void tile_strip_rows4(const float* a0, const float* a1, const float* a2, const float* a3,
                      int64_t astride, int64_t k, const float* bs, int64_t bstride, int64_t j0,
                      int64_t nr, int64_t n, int64_t i0, float alpha, float beta, float* c,
                      const GemmEpilogue& epi) {
  float acc0[kNr] = {}, acc1[kNr] = {}, acc2[kNr] = {}, acc3[kNr] = {};
  for (int64_t p = 0; p < k; ++p) {
    const float* brow = bs + p * bstride;
    const float v0 = a0[p * astride];
    const float v1 = a1[p * astride];
    const float v2 = a2[p * astride];
    const float v3 = a3[p * astride];
    for (int64_t jj = 0; jj < kNr; ++jj) {
      const float bv = brow[jj];
      acc0[jj] += v0 * bv;
      acc1[jj] += v1 * bv;
      acc2[jj] += v2 * bv;
      acc3[jj] += v3 * bv;
    }
  }
  if (!epi.active()) {
    store_row(c + (i0 + 0) * n + j0, acc0, nr, alpha, beta);
    store_row(c + (i0 + 1) * n + j0, acc1, nr, alpha, beta);
    store_row(c + (i0 + 2) * n + j0, acc2, nr, alpha, beta);
    store_row(c + (i0 + 3) * n + j0, acc3, nr, alpha, beta);
  } else {
    // Four explicit calls: an acc pointer array here would take the
    // accumulators' addresses and spill them out of SIMD registers.
    const float* cb = epi.col_bias != nullptr ? epi.col_bias + j0 : nullptr;
    const bool rb = epi.row_bias != nullptr;
    uint8_t* mk = epi.relu_mask;
    store_row_epi(c + (i0 + 0) * n + j0, acc0, nr, alpha, beta, rb,
                  rb ? epi.row_bias[i0 + 0] : 0.0f, cb, epi.relu,
                  mk != nullptr ? mk + (i0 + 0) * n + j0 : nullptr);
    store_row_epi(c + (i0 + 1) * n + j0, acc1, nr, alpha, beta, rb,
                  rb ? epi.row_bias[i0 + 1] : 0.0f, cb, epi.relu,
                  mk != nullptr ? mk + (i0 + 1) * n + j0 : nullptr);
    store_row_epi(c + (i0 + 2) * n + j0, acc2, nr, alpha, beta, rb,
                  rb ? epi.row_bias[i0 + 2] : 0.0f, cb, epi.relu,
                  mk != nullptr ? mk + (i0 + 2) * n + j0 : nullptr);
    store_row_epi(c + (i0 + 3) * n + j0, acc3, nr, alpha, beta, rb,
                  rb ? epi.row_bias[i0 + 3] : 0.0f, cb, epi.relu,
                  mk != nullptr ? mk + (i0 + 3) * n + j0 : nullptr);
  }
}

/// Single-row variant of tile_strip_rows4 for the band's row remainder.
FEDTINY_KERNEL_CLONES
void tile_strip_row1(const float* a0, int64_t astride, int64_t k, const float* bs,
                     int64_t bstride, int64_t j0, int64_t nr, int64_t n, int64_t i, float alpha,
                     float beta, float* c, const GemmEpilogue& epi) {
  float acc[kNr] = {};
  for (int64_t p = 0; p < k; ++p) {
    const float av = a0[p * astride];
    const float* brow = bs + p * bstride;
    for (int64_t jj = 0; jj < kNr; ++jj) acc[jj] += av * brow[jj];
  }
  if (!epi.active()) {
    store_row(c + i * n + j0, acc, nr, alpha, beta);
  } else {
    store_row_epi(c + i * n + j0, acc, nr, alpha, beta, epi.row_bias != nullptr,
                  epi.row_bias != nullptr ? epi.row_bias[i] : 0.0f,
                  epi.col_bias != nullptr ? epi.col_bias + j0 : nullptr, epi.relu,
                  epi.relu_mask != nullptr ? epi.relu_mask + i * n + j0 : nullptr);
  }
}

// ---- gemm band: one kMr-row band of C over panel columns [jb, je) ----------
// Interleaved accumulators: the jj loop reads each B chunk once and feeds
// all four C rows, so the compiler vectorizes jj and keeps acc0..acc3 in
// registers. trans_a only changes the (loop-invariant) A element address and
// stays outside the vector loop. `pack` (when non-null) supplies the panel
// in strip-major layout; `b` (when non-null) is the unpacked op(B) = B
// operand, required for the zero-heavy skip fallback and the unpacked tile.

FEDTINY_KERNEL_CLONES
void gemm_bn_band(bool trans_a, int64_t i0, int64_t m, int64_t n, int64_t k, float alpha,
                  const float* a, const float* b, const float* pack, float beta, float* c,
                  const GemmEpilogue& epi, int64_t jb, int64_t je) {
  const int64_t mr = std::min<int64_t>(kMr, m - i0);
  const int64_t astride = trans_a ? m : 1;
  // Zero-heavy bands (masked dense weights with no CSR installed) take the
  // zero-skip over their compacted nonzeros instead of the full-work tile
  // (see band_is_sparse for the rule). The skip walks unpacked B rows, so
  // it needs b != nullptr (the NT form has no row layout to walk).
  const float* a0 = trans_a ? a + i0 : a + i0 * k;
  const int64_t rstride = trans_a ? 1 : k;
  const bool skip = b != nullptr && k >= 8 && band_is_sparse(a0, rstride, astride, k, mr);
  // A final partial strip read from unpacked B is staged once per band.
  const float* tail = nullptr;
  if ((je - jb) % kNr != 0 && (skip || pack == nullptr)) {
    const int64_t j0 = je - (je - jb) % kNr;
    float* stage = tail_arena(k);
    gemm_pack_bn_strip(b, n, k, j0, je - j0, stage);
    tail = stage;
  }
  if (skip) {
    // Only skip bands touch the compaction arena: a thread that never sees
    // one allocates nothing.
    BandNonzeros& z = band_arena(k);
    compact_band(a0, rstride, astride, k, mr, z);
    // Rows with no nonzero hold exactly alpha * (+0): callers that asked
    // for dead-row flags get the flag instead of the row.
    const bool may_leave_dead = epi.dead_rows != nullptr && beta == 0.0f && !epi.active();
    for (int64_t r = 0; r < mr; ++r) {
      if (z.count[r] == 0 && may_leave_dead) {
        epi.dead_rows[i0 + r] = 1;
        continue;
      }
      skip_band_row(z.idx.data() + r * k, z.val.data() + r * k, z.count[r], b, n, tail, i0 + r,
                    alpha, beta, c, epi, jb, je);
    }
    return;
  }
  // Tile loop: every strip — packed panel strip, full-width unpacked strip,
  // or zero-padded staged tail — runs the same constant-width tile kernel
  // (see the width-invariance note above the strip helpers). Strip
  // boundaries sit on absolute kNr multiples (panel widths are kNr
  // multiples), so the strip grid over C's columns is the same no matter
  // how wide the operand is or how it was packed.
  for (int64_t s = 0, j0 = jb; j0 < je; ++s, j0 += kNr) {
    const int64_t nr = std::min<int64_t>(kNr, je - j0);
    const float* bs = pack != nullptr ? pack + s * k * kNr : nr == kNr ? b + j0 : tail;
    const int64_t bstride = pack != nullptr || nr < kNr ? kNr : n;
    if (mr == kMr) {
      tile_strip_rows4(trans_a ? a + (i0 + 0) : a + (i0 + 0) * k,
                       trans_a ? a + (i0 + 1) : a + (i0 + 1) * k,
                       trans_a ? a + (i0 + 2) : a + (i0 + 2) * k,
                       trans_a ? a + (i0 + 3) : a + (i0 + 3) * k, astride, k, bs, bstride, j0, nr,
                       n, i0, alpha, beta, c, epi);
    } else {
      for (int64_t r = 0; r < mr; ++r) {
        const int64_t i = i0 + r;
        tile_strip_row1(trans_a ? a + i : a + i * k, astride, k, bs, bstride, j0, nr, n, i, alpha,
                        beta, c, epi);
      }
    }
  }
}

// ---- gemm NT, small B (A row and B row both contiguous): one C row ----------
// Four dots at a time, kNr independent partial sums each: each A chunk is
// loaded once and fed to all four B rows. Large-B NT calls go through the
// packed tile above instead.

FEDTINY_KERNEL_CLONES
void gemm_nt_row(int64_t i, int64_t n, int64_t k, float alpha, const float* a, const float* b,
                 float beta, float* c, const GemmEpilogue& epi, int64_t jb, int64_t je) {
  constexpr int64_t kJb = 4;
  const float* arow = a + i * k;
  float* crow = c + i * n;
  const bool has_rb = epi.row_bias != nullptr;
  const float rb = has_rb ? epi.row_bias[i] : 0.0f;
  int64_t j0 = jb;
  for (; j0 + kJb <= je; j0 += kJb) {
    const float* b0 = b + (j0 + 0) * k;
    const float* b1 = b + (j0 + 1) * k;
    const float* b2 = b + (j0 + 2) * k;
    const float* b3 = b + (j0 + 3) * k;
    float s0[kNr] = {}, s1[kNr] = {}, s2[kNr] = {}, s3[kNr] = {};
    int64_t p = 0;
    for (; p + kNr <= k; p += kNr) {
      for (int64_t u = 0; u < kNr; ++u) {
        const float av = arow[p + u];
        s0[u] += av * b0[p + u];
        s1[u] += av * b1[p + u];
        s2[u] += av * b2[p + u];
        s3[u] += av * b3[p + u];
      }
    }
    for (; p < k; ++p) {
      const float av = arow[p];
      s0[0] += av * b0[p];
      s1[0] += av * b1[p];
      s2[0] += av * b2[p];
      s3[0] += av * b3[p];
    }
    const float* ss[kJb] = {s0, s1, s2, s3};
    for (int64_t jj = 0; jj < kJb; ++jj) {
      const float dot = alpha * reduce_tile(ss[jj]);
      float v = beta == 0.0f ? dot : dot + beta * crow[j0 + jj];
      if (has_rb) v += rb;
      if (epi.col_bias != nullptr) v += epi.col_bias[j0 + jj];
      if (epi.relu) {
        const bool pos = v > 0.0f;
        if (epi.relu_mask != nullptr) epi.relu_mask[i * n + j0 + jj] = pos ? 1 : 0;
        if (!pos) v = 0.0f;
      }
      crow[j0 + jj] = v;
    }
  }
  for (; j0 < je; ++j0) {
    const float* brow = b + j0 * k;
    float s[kNr] = {};
    int64_t p = 0;
    for (; p + kNr <= k; p += kNr) {
      for (int64_t u = 0; u < kNr; ++u) s[u] += arow[p + u] * brow[p + u];
    }
    for (; p < k; ++p) s[0] += arow[p] * brow[p];
    const float dot = alpha * reduce_tile(s);
    float v = beta == 0.0f ? dot : dot + beta * crow[j0];
    if (has_rb) v += rb;
    if (epi.col_bias != nullptr) v += epi.col_bias[j0];
    if (epi.relu) {
      const bool pos = v > 0.0f;
      if (epi.relu_mask != nullptr) epi.relu_mask[i * n + j0] = pos ? 1 : 0;
      if (!pos) v = 0.0f;
    }
    crow[j0] = v;
  }
}

// ---- CSR row helpers --------------------------------------------------------

FEDTINY_KERNEL_CLONES
void spmm_row(const int64_t* row_ptr, const int32_t* col_idx, const float* values, const float* b,
              int64_t n, const float* btail, float* crow, int64_t i, bool accumulate) {
  // Strip-major with constant-width accumulation (see the width-invariance
  // note above the GEMM strip helpers): full kNr column blocks read B rows
  // directly; the operand's tail columns read the caller's zero-padded
  // stage (btail, [k, kNr] strip layout), so the inner loops never shorten
  // and a C column's bits cannot depend on the total column count n — the
  // CSR layers' share of the serving micro-batcher's row invariant. Four
  // CSR entries per pass amortize the structure walk over four B rows; raw
  // pointers so spmm_tn_fast can run the same kernel over a cached
  // transpose.
  const int64_t begin = row_ptr[static_cast<size_t>(i)];
  const int64_t end = row_ptr[static_cast<size_t>(i) + 1];
  for (int64_t j0 = 0; j0 < n; j0 += kNr) {
    const int64_t nr = std::min<int64_t>(kNr, n - j0);
    const float* bs = b + j0;
    int64_t bstride = n;
    if (nr < kNr) {
      bs = btail;
      bstride = kNr;
    }
    float acc[kNr] = {};
    int64_t p = begin;
    for (; p + 4 <= end; p += 4) {
      const float v0 = values[static_cast<size_t>(p)];
      const float v1 = values[static_cast<size_t>(p) + 1];
      const float v2 = values[static_cast<size_t>(p) + 2];
      const float v3 = values[static_cast<size_t>(p) + 3];
      const float* b0 = bs + static_cast<int64_t>(col_idx[static_cast<size_t>(p)]) * bstride;
      const float* b1 = bs + static_cast<int64_t>(col_idx[static_cast<size_t>(p) + 1]) * bstride;
      const float* b2 = bs + static_cast<int64_t>(col_idx[static_cast<size_t>(p) + 2]) * bstride;
      const float* b3 = bs + static_cast<int64_t>(col_idx[static_cast<size_t>(p) + 3]) * bstride;
      for (int64_t jj = 0; jj < kNr; ++jj) {
        acc[jj] += (v0 * b0[jj] + v1 * b1[jj]) + (v2 * b2[jj] + v3 * b3[jj]);
      }
    }
    for (; p < end; ++p) {
      const float v = values[static_cast<size_t>(p)];
      const float* brow = bs + static_cast<int64_t>(col_idx[static_cast<size_t>(p)]) * bstride;
      for (int64_t jj = 0; jj < kNr; ++jj) acc[jj] += v * brow[jj];
    }
    if (accumulate) {
      for (int64_t jj = 0; jj < nr; ++jj) crow[j0 + jj] += acc[jj];
    } else {
      for (int64_t jj = 0; jj < nr; ++jj) crow[j0 + jj] = acc[jj];
    }
  }
}

// The nt/dn/grad_tn kernels below index B through col_idx (gathers) or
// scatter into C; on those access patterns the wide clones lose (GCC emits
// hardware gather/scatter instructions that run slower than the scalar
// loads), so they stay un-annotated and win through batch blocking instead:
// kBs batch rows share one walk of the CSR structure, amortizing the
// value/col_idx loads and running kBs independent accumulator chains. When
// the matrix carries a column-panel index (fan-in-major panels, see
// sparse::build_panels), the walk additionally iterates panel-major so the
// gathers (nt) / scatters (dn) stay inside one ~1 KiB column window per
// batch row at a time. Panels partition each row's ascending col_idx run, so
// per-output-element accumulation still visits CSR rows/columns in ascending
// order — paneling changes locality and partial-sum association, never the
// visit order, and the fixed geometry keeps results bitwise-deterministic
// across thread and worker counts.

// Batch rows per CSR structure walk (PR 3 used 4): halves the values/col_idx
// stream traffic per batch row while staying in the scalar register budget.
constexpr int64_t kBs = 8;

void spmm_nt_block(const sparse::CsrMatrix& a, const float* b, int64_t i0, int64_t n_rows,
                   float* c) {
  if (i0 + kBs <= n_rows) {
    const float* br[kBs];
    float* cr[kBs];
    for (int64_t u = 0; u < kBs; ++u) {
      br[u] = b + (i0 + u) * a.cols;
      cr[u] = c + (i0 + u) * a.rows;
    }
    if (a.has_panels()) {
      const int64_t np = a.num_panels();
      const size_t out_bytes = static_cast<size_t>(a.rows) * sizeof(float);
      for (int64_t u = 0; u < kBs; ++u) std::memset(cr[u], 0, out_bytes);
      for (int64_t pan = 0; pan < np; ++pan) {
        for (int64_t j = 0; j < a.rows; ++j) {
          const int64_t* pp = a.panel_ptr.data() + j * (np + 1);
          int64_t p = pp[pan];
          const int64_t end = pp[pan + 1];
          if (p == end) continue;
          float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
          float s4 = 0.0f, s5 = 0.0f, s6 = 0.0f, s7 = 0.0f;
          for (; p < end; ++p) {
            const float v = a.values[static_cast<size_t>(p)];
            const int64_t col = a.col_idx[static_cast<size_t>(p)];
            s0 += v * br[0][col];
            s1 += v * br[1][col];
            s2 += v * br[2][col];
            s3 += v * br[3][col];
            s4 += v * br[4][col];
            s5 += v * br[5][col];
            s6 += v * br[6][col];
            s7 += v * br[7][col];
          }
          cr[0][j] += s0;
          cr[1][j] += s1;
          cr[2][j] += s2;
          cr[3][j] += s3;
          cr[4][j] += s4;
          cr[5][j] += s5;
          cr[6][j] += s6;
          cr[7][j] += s7;
        }
      }
      return;
    }
    for (int64_t j = 0; j < a.rows; ++j) {
      float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
      float s4 = 0.0f, s5 = 0.0f, s6 = 0.0f, s7 = 0.0f;
      for (int64_t p = a.row_ptr[static_cast<size_t>(j)];
           p < a.row_ptr[static_cast<size_t>(j) + 1]; ++p) {
        const float v = a.values[static_cast<size_t>(p)];
        const int64_t col = a.col_idx[static_cast<size_t>(p)];
        s0 += v * br[0][col];
        s1 += v * br[1][col];
        s2 += v * br[2][col];
        s3 += v * br[3][col];
        s4 += v * br[4][col];
        s5 += v * br[5][col];
        s6 += v * br[6][col];
        s7 += v * br[7][col];
      }
      cr[0][j] = s0;
      cr[1][j] = s1;
      cr[2][j] = s2;
      cr[3][j] = s3;
      cr[4][j] = s4;
      cr[5][j] = s5;
      cr[6][j] = s6;
      cr[7][j] = s7;
    }
    return;
  }
  // Tail block (< kBs rows): a 4-wide mid-tier keeps the PR 3 amortization
  // for 4-7 leftover batch rows, then one scalar walk per remaining row.
  int64_t i = i0;
  if (i + 4 <= n_rows) {
    const float* b0 = b + (i + 0) * a.cols;
    const float* b1 = b + (i + 1) * a.cols;
    const float* b2 = b + (i + 2) * a.cols;
    const float* b3 = b + (i + 3) * a.cols;
    float* c0 = c + (i + 0) * a.rows;
    float* c1 = c + (i + 1) * a.rows;
    float* c2 = c + (i + 2) * a.rows;
    float* c3 = c + (i + 3) * a.rows;
    for (int64_t j = 0; j < a.rows; ++j) {
      float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
      for (int64_t p = a.row_ptr[static_cast<size_t>(j)];
           p < a.row_ptr[static_cast<size_t>(j) + 1]; ++p) {
        const float v = a.values[static_cast<size_t>(p)];
        const int64_t col = a.col_idx[static_cast<size_t>(p)];
        s0 += v * b0[col];
        s1 += v * b1[col];
        s2 += v * b2[col];
        s3 += v * b3[col];
      }
      c0[j] = s0;
      c1[j] = s1;
      c2[j] = s2;
      c3[j] = s3;
    }
    i += 4;
  }
  for (; i < n_rows; ++i) {
    const float* brow = b + i * a.cols;
    float* crow = c + i * a.rows;
    for (int64_t j = 0; j < a.rows; ++j) {
      float s = 0.0f;
      for (int64_t p = a.row_ptr[static_cast<size_t>(j)];
           p < a.row_ptr[static_cast<size_t>(j) + 1]; ++p) {
        s += a.values[static_cast<size_t>(p)] * brow[a.col_idx[static_cast<size_t>(p)]];
      }
      crow[j] = s;
    }
  }
}

void spmm_dn_block(const sparse::CsrMatrix& a, const float* b, int64_t i0, int64_t n_rows,
                   float* c) {
  if (i0 + kBs <= n_rows) {
    const float* br[kBs];
    float* cr[kBs];
    for (int64_t u = 0; u < kBs; ++u) {
      br[u] = b + (i0 + u) * a.rows;
      cr[u] = c + (i0 + u) * a.cols;
    }
    const size_t row_bytes = static_cast<size_t>(a.cols) * sizeof(float);
    for (int64_t u = 0; u < kBs; ++u) std::memset(cr[u], 0, row_bytes);
    if (a.has_panels()) {
      const int64_t np = a.num_panels();
      for (int64_t pan = 0; pan < np; ++pan) {
        for (int64_t j = 0; j < a.rows; ++j) {
          const int64_t* pp = a.panel_ptr.data() + j * (np + 1);
          int64_t p = pp[pan];
          const int64_t end = pp[pan + 1];
          if (p == end) continue;
          const float v0 = br[0][j], v1 = br[1][j], v2 = br[2][j], v3 = br[3][j];
          const float v4 = br[4][j], v5 = br[5][j], v6 = br[6][j], v7 = br[7][j];
          if (v0 == 0.0f && v1 == 0.0f && v2 == 0.0f && v3 == 0.0f && v4 == 0.0f && v5 == 0.0f &&
              v6 == 0.0f && v7 == 0.0f) {
            continue;
          }
          for (; p < end; ++p) {
            const float v = a.values[static_cast<size_t>(p)];
            const int64_t col = a.col_idx[static_cast<size_t>(p)];
            cr[0][col] += v0 * v;
            cr[1][col] += v1 * v;
            cr[2][col] += v2 * v;
            cr[3][col] += v3 * v;
            cr[4][col] += v4 * v;
            cr[5][col] += v5 * v;
            cr[6][col] += v6 * v;
            cr[7][col] += v7 * v;
          }
        }
      }
      return;
    }
    for (int64_t j = 0; j < a.rows; ++j) {
      const float v0 = br[0][j], v1 = br[1][j], v2 = br[2][j], v3 = br[3][j];
      const float v4 = br[4][j], v5 = br[5][j], v6 = br[6][j], v7 = br[7][j];
      if (v0 == 0.0f && v1 == 0.0f && v2 == 0.0f && v3 == 0.0f && v4 == 0.0f && v5 == 0.0f &&
          v6 == 0.0f && v7 == 0.0f) {
        continue;
      }
      for (int64_t p = a.row_ptr[static_cast<size_t>(j)];
           p < a.row_ptr[static_cast<size_t>(j) + 1]; ++p) {
        const float v = a.values[static_cast<size_t>(p)];
        const int64_t col = a.col_idx[static_cast<size_t>(p)];
        cr[0][col] += v0 * v;
        cr[1][col] += v1 * v;
        cr[2][col] += v2 * v;
        cr[3][col] += v3 * v;
        cr[4][col] += v4 * v;
        cr[5][col] += v5 * v;
        cr[6][col] += v6 * v;
        cr[7][col] += v7 * v;
      }
    }
    return;
  }
  // Tail block (< kBs rows): 4-wide mid-tier, then scalar rows.
  int64_t i = i0;
  if (i + 4 <= n_rows) {
    const float* b0 = b + (i + 0) * a.rows;
    const float* b1 = b + (i + 1) * a.rows;
    const float* b2 = b + (i + 2) * a.rows;
    const float* b3 = b + (i + 3) * a.rows;
    float* c0 = c + (i + 0) * a.cols;
    float* c1 = c + (i + 1) * a.cols;
    float* c2 = c + (i + 2) * a.cols;
    float* c3 = c + (i + 3) * a.cols;
    const size_t row_bytes = static_cast<size_t>(a.cols) * sizeof(float);
    std::memset(c0, 0, row_bytes);
    std::memset(c1, 0, row_bytes);
    std::memset(c2, 0, row_bytes);
    std::memset(c3, 0, row_bytes);
    for (int64_t j = 0; j < a.rows; ++j) {
      const float v0 = b0[j], v1 = b1[j], v2 = b2[j], v3 = b3[j];
      if (v0 == 0.0f && v1 == 0.0f && v2 == 0.0f && v3 == 0.0f) continue;
      for (int64_t p = a.row_ptr[static_cast<size_t>(j)];
           p < a.row_ptr[static_cast<size_t>(j) + 1]; ++p) {
        const float v = a.values[static_cast<size_t>(p)];
        const int64_t col = a.col_idx[static_cast<size_t>(p)];
        c0[col] += v0 * v;
        c1[col] += v1 * v;
        c2[col] += v2 * v;
        c3[col] += v3 * v;
      }
    }
    i += 4;
  }
  for (; i < n_rows; ++i) {
    const float* brow = b + i * a.rows;
    float* crow = c + i * a.cols;
    std::memset(crow, 0, static_cast<size_t>(a.cols) * sizeof(float));
    for (int64_t j = 0; j < a.rows; ++j) {
      const float bv = brow[j];
      if (bv == 0.0f) continue;
      for (int64_t p = a.row_ptr[static_cast<size_t>(j)];
           p < a.row_ptr[static_cast<size_t>(j) + 1]; ++p) {
        crow[a.col_idx[static_cast<size_t>(p)]] += bv * a.values[static_cast<size_t>(p)];
      }
    }
  }
}

FEDTINY_KERNEL_CLONES
void masked_grad_dot_row(const sparse::CsrMatrix& s, const float* arow, const float* b, int64_t n,
                         int64_t t0, int64_t t1, float* grow, int64_t i) {
  // One contiguous dot per structure entry over [t0, t1), kNr independent
  // partial sums. Wide batched operands call this once per t-panel so the
  // gathered B rows stay cache-resident across the row's entries; each
  // panel's partial dot accumulates into grad (one extra rounding per panel,
  // bounded by the parity tests).
  for (int64_t p = s.row_ptr[static_cast<size_t>(i)]; p < s.row_ptr[static_cast<size_t>(i) + 1];
       ++p) {
    const float* brow = b + static_cast<int64_t>(s.col_idx[static_cast<size_t>(p)]) * n;
    float acc[kNr] = {};
    int64_t t = t0;
    for (; t + kNr <= t1; t += kNr) {
      for (int64_t u = 0; u < kNr; ++u) acc[u] += arow[t + u] * brow[t + u];
    }
    for (; t < t1; ++t) acc[0] += arow[t] * brow[t];
    grow[s.col_idx[static_cast<size_t>(p)]] += reduce_tile(acc);
  }
}

void masked_grad_tn_row(const sparse::CsrMatrix& s, const float* a, const float* b, int64_t n,
                        float* grow, int64_t i) {
  // Eight samples per pass (PR 3 used four): one read-modify-write of grad
  // per structure entry amortizes over eight B rows (the reference pays it
  // per sample), halving the col_idx stream and grad update traffic.
  const int64_t begin = s.row_ptr[static_cast<size_t>(i)];
  const int64_t end = s.row_ptr[static_cast<size_t>(i) + 1];
  int64_t r = 0;
  for (; r + kBs <= n; r += kBs) {
    const float av0 = a[(r + 0) * s.rows + i];
    const float av1 = a[(r + 1) * s.rows + i];
    const float av2 = a[(r + 2) * s.rows + i];
    const float av3 = a[(r + 3) * s.rows + i];
    const float av4 = a[(r + 4) * s.rows + i];
    const float av5 = a[(r + 5) * s.rows + i];
    const float av6 = a[(r + 6) * s.rows + i];
    const float av7 = a[(r + 7) * s.rows + i];
    if (av0 == 0.0f && av1 == 0.0f && av2 == 0.0f && av3 == 0.0f && av4 == 0.0f && av5 == 0.0f &&
        av6 == 0.0f && av7 == 0.0f) {
      continue;
    }
    const float* b0 = b + (r + 0) * s.cols;
    const float* b1 = b + (r + 1) * s.cols;
    const float* b2 = b + (r + 2) * s.cols;
    const float* b3 = b + (r + 3) * s.cols;
    const float* b4 = b + (r + 4) * s.cols;
    const float* b5 = b + (r + 5) * s.cols;
    const float* b6 = b + (r + 6) * s.cols;
    const float* b7 = b + (r + 7) * s.cols;
    for (int64_t p = begin; p < end; ++p) {
      const int64_t col = s.col_idx[static_cast<size_t>(p)];
      grow[col] += ((av0 * b0[col] + av1 * b1[col]) + (av2 * b2[col] + av3 * b3[col])) +
                   ((av4 * b4[col] + av5 * b5[col]) + (av6 * b6[col] + av7 * b7[col]));
    }
  }
  // 4-wide mid-tier for 4-7 leftover samples, then the scalar tail.
  if (r + 4 <= n) {
    const float av0 = a[(r + 0) * s.rows + i];
    const float av1 = a[(r + 1) * s.rows + i];
    const float av2 = a[(r + 2) * s.rows + i];
    const float av3 = a[(r + 3) * s.rows + i];
    if (av0 != 0.0f || av1 != 0.0f || av2 != 0.0f || av3 != 0.0f) {
      const float* b0 = b + (r + 0) * s.cols;
      const float* b1 = b + (r + 1) * s.cols;
      const float* b2 = b + (r + 2) * s.cols;
      const float* b3 = b + (r + 3) * s.cols;
      for (int64_t p = begin; p < end; ++p) {
        const int64_t col = s.col_idx[static_cast<size_t>(p)];
        grow[col] += (av0 * b0[col] + av1 * b1[col]) + (av2 * b2[col] + av3 * b3[col]);
      }
    }
    r += 4;
  }
  for (; r < n; ++r) {
    const float av = a[r * s.rows + i];
    if (av == 0.0f) continue;
    const float* brow = b + r * s.cols;
    for (int64_t p = begin; p < end; ++p) {
      grow[s.col_idx[static_cast<size_t>(p)]] += av * brow[s.col_idx[static_cast<size_t>(p)]];
    }
  }
}

// ---- im2col / col2im row helpers -------------------------------------------
// Interior/halo split: for one (kw, stride, pad) tap, the output columns that
// map inside the image are the contiguous range [lo, hi) below; everything
// outside is padding. The reference loop pays a bounds branch per element —
// these helpers zero-fill (im2col) or skip (col2im) the halo and run the
// pad-free interior as a branch-free loop. A tap's bounds are computed once
// per (c, kh, kw) for a band's whole run of samples, and rows are copied
// with inline loops: on FedTiny's 1x1..8x8 planes a row is 1-8 floats, less
// than a memset/memcpy call costs.

/// In-bounds output-column range for a tap: ow in [lo, hi) iff
/// 0 <= ow*stride - pad + kw < width.
inline void tap_bounds(int64_t out_w, int64_t width, int64_t kw, int64_t stride, int64_t pad,
                       int64_t* lo, int64_t* hi) {
  const int64_t d = pad - kw;
  int64_t l = d <= 0 ? 0 : (d + stride - 1) / stride;
  // Clamp to the row: kernels wider than width+pad give taps whose first
  // in-bounds column lies past out_w, and the halo fill below sizes off lo.
  if (l > out_w) l = out_w;
  *lo = l;
  const int64_t limit = width - 1 + pad - kw;  // largest in-bounds iw numerator
  int64_t h = limit < 0 ? 0 : limit / stride + 1;
  if (h > out_w) h = out_w;
  if (h < l) h = l;
  *hi = h;
}

/// im2col of items [t0, t1) of the (column row x sample) grid, row-major:
/// row (c, kh, kw) of sample i lands at cols + row*ld + i*out_h*out_w. One
/// call per band, divisions once per band and bounds once per row: a row of
/// a 1x1 plane is a single float, so per-row overhead is the whole cost.
FEDTINY_KERNEL_CLONES FEDTINY_INLINE_LOOPS
void im2col_items(const float* in, int64_t batch, int64_t channels, int64_t height, int64_t width,
                  int64_t kernel_h, int64_t kernel_w, int64_t stride, int64_t pad, float* cols,
                  int64_t ld, int64_t t0, int64_t t1) {
  const int64_t out_h = (height + 2 * pad - kernel_h) / stride + 1;
  const int64_t out_w = (width + 2 * pad - kernel_w) / stride + 1;
  const int64_t taps = kernel_h * kernel_w, plane = height * width;
  int64_t row = t0 / batch, i = t0 % batch;
  int64_t c = row / taps, kh = row % taps / kernel_w, kw = row % taps % kernel_w;
  for (int64_t t = t0; t < t1; i = 0, ++row) {
    const int64_t end = std::min(batch, i + t1 - t);
    int64_t lo = 0, hi = 0;
    tap_bounds(out_w, width, kw, stride, pad, &lo, &hi);
    const int64_t shift = kw - pad;  // iw = ow * stride + shift
    for (int64_t s = i; s < end; ++s) {
      const float* src = in + (s * channels + c) * plane;
      float* orow = cols + row * ld + s * out_h * out_w;
      for (int64_t oh = 0; oh < out_h; ++oh, orow += out_w) {
        const int64_t ih = oh * stride - pad + kh;
        if (ih < 0 || ih >= height) {
          for (int64_t ow = 0; ow < out_w; ++ow) orow[ow] = 0.0f;
          continue;
        }
        const float* in_row = src + ih * width;
        for (int64_t ow = 0; ow < lo; ++ow) orow[ow] = 0.0f;
        if (stride == 1) {
          for (int64_t ow = lo; ow < hi; ++ow) orow[ow] = in_row[ow + shift];
        } else {
          for (int64_t ow = lo; ow < hi; ++ow) orow[ow] = in_row[ow * stride + shift];
        }
        for (int64_t ow = hi; ow < out_w; ++ow) orow[ow] = 0.0f;
      }
    }
    t += end - i;
    if (++kw == kernel_w) {
      kw = 0;
      if (++kh == kernel_h) {
        kh = 0;
        ++c;
      }
    }
  }
}

/// col2im of items [t0, t1) of the (channel x sample) grid, channel-major,
/// from a column buffer laid out as im2col_items writes it. Tap rows flagged
/// in `dead_rows` (nullptr: none) are skipped. Every output element still
/// accumulates in (kh, kw, oh) order — samples are disjoint, and within one
/// tap the ow -> iw map is injective — so the sums are the reference's bit
/// for bit.
FEDTINY_KERNEL_CLONES
void col2im_items(const float* cols, int64_t batch, int64_t channels, int64_t height,
                  int64_t width, int64_t kernel_h, int64_t kernel_w, int64_t stride, int64_t pad,
                  float* out, int64_t ld, const uint8_t* dead_rows, int64_t t0, int64_t t1) {
  const int64_t out_h = (height + 2 * pad - kernel_h) / stride + 1;
  const int64_t out_w = (width + 2 * pad - kernel_w) / stride + 1;
  const int64_t taps = kernel_h * kernel_w, plane = height * width;
  for (int64_t t = t0, c = t0 / batch, i = t0 % batch; t < t1; i = 0, ++c) {
    const int64_t end = std::min(batch, i + t1 - t);
    for (int64_t kh = 0; kh < kernel_h; ++kh) {
      for (int64_t kw = 0; kw < kernel_w; ++kw) {
        const int64_t row = c * taps + kh * kernel_w + kw;
        if (dead_rows != nullptr && dead_rows[row] != 0) continue;
        int64_t lo = 0, hi = 0;
        tap_bounds(out_w, width, kw, stride, pad, &lo, &hi);
        const int64_t shift = kw - pad;
        for (int64_t s = i; s < end; ++s) {
          const float* crow = cols + row * ld + s * out_h * out_w;
          float* out_s = out + (s * channels + c) * plane;
          for (int64_t oh = 0; oh < out_h; ++oh, crow += out_w) {
            const int64_t ih = oh * stride - pad + kh;
            if (ih < 0 || ih >= height) continue;
            float* out_row = out_s + ih * width;
            if (stride == 1) {
              for (int64_t ow = lo; ow < hi; ++ow) out_row[ow + shift] += crow[ow];
            } else {
              for (int64_t ow = lo; ow < hi; ++ow) out_row[ow * stride + shift] += crow[ow];
            }
          }
        }
      }
    }
    t += end - i;
  }
}

// ---- Non-temporal row copy --------------------------------------------------
// The batched permutes copy whole page-strided rows that are written once and
// next read by a different kernel (or never this pass) — exactly the pattern
// where regular stores pollute the cache the GEMM panels want. The streaming
// variant bypasses the cache with _mm256_stream_ps; engaged only for large
// buffers (small permutes *want* the destination cached) and only when the
// CPU reports AVX. Bitwise-trivial either way: it is a memcpy.

#ifdef FEDTINY_HAVE_AVX_STREAM
__attribute__((target("avx"))) void copy_stream_avx(float* dst, const float* src, int64_t n) {
  int64_t i = 0;
  // Scalar head until dst hits 32-byte alignment (stream stores require it).
  while (i < n && (reinterpret_cast<uintptr_t>(dst + i) & 31u) != 0) {
    dst[i] = src[i];
    ++i;
  }
  for (; i + 8 <= n; i += 8) _mm256_stream_ps(dst + i, _mm256_loadu_ps(src + i));
  for (; i < n; ++i) dst[i] = src[i];
  // Order the weakly-ordered streaming stores before the pool's completion
  // handshake publishes this chunk.
  _mm_sfence();
}

bool stream_supported() {
  static const bool ok = __builtin_cpu_supports("avx") != 0;
  return ok;
}
#else
bool stream_supported() { return false; }
#endif

// Total buffer size below which the permutes keep regular cached stores.
constexpr int64_t kStreamMinBytes = 1 << 21;

inline void copy_row(float* dst, const float* src, int64_t n, bool stream) {
#ifdef FEDTINY_HAVE_AVX_STREAM
  if (stream) {
    copy_stream_avx(dst, src, n);
    return;
  }
#else
  (void)stream;
#endif
  std::memcpy(dst, src, static_cast<size_t>(n) * sizeof(float));
}

}  // namespace

void gemm_fast(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k, float alpha,
               const float* a, const float* b, float beta, float* c) {
  gemm_fast_ex(trans_a, trans_b, m, n, k, alpha, a, b, beta, c, GemmEpilogue{});
}

void gemm_fast_ex(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k, float alpha,
                  const float* a, const float* b, float beta, float* c, const GemmEpilogue& epi) {
  // B operands past this size get panel-packed (see gemm_pack_bn): below it
  // the whole operand is cache-resident and the copy would be pure overhead.
  constexpr int64_t kPackMinBytes = 1 << 18;
  bool packed = k * n * static_cast<int64_t>(sizeof(float)) >= kPackMinBytes;
  if (packed && !trans_b) {
    // Masked-dense A operands (no CSR installed) send most bands down the
    // zero-skip loop, which never reads the pack — packing B would be pure
    // overhead. One layout-independent scan of A decides; like the per-band
    // skip, the choice depends only on the data, so results stay
    // deterministic across runs and threads (and packing never changes NN/TN
    // results bitwise anyway).
    int64_t zeros = 0;
    const int64_t total = m * k;
    for (int64_t i = 0; i < total; ++i) zeros += a[i] == 0.0f ? 1 : 0;
    // > 62.5% zeros: most bands will clear the per-band 75% bar or sit close
    // to it, so the pack would mostly feed skip-path bands that never read
    // it. Measured crossover on the bench shapes sits between 50% (packing
    // wins) and 75% (packing is pure overhead).
    if (zeros * 8 > total * 5) packed = false;
  }
  // One Executor-budget grant covers the whole call: panel packing and the
  // row-band compute share the granted lanes (pack-once/compute-many — the
  // pack lives in the *calling* thread's arena and every lane reads it).
  // Small calls stay inline: below ~2x the per-lane flop floor the pool
  // handoff costs more than it saves.
  KernelLanes lanes(extra_lanes_for(2.0 * static_cast<double>(m) * static_cast<double>(n) *
                                        static_cast<double>(k),
                                    kMinLaneFlops));
  const int extra = lanes.extra();
  if (!trans_b) {
    // Column panels keep the B panel L2-resident across all row bands (see
    // kPanelBytes); panels partition the output columns, so every element is
    // still computed by exactly one band/panel visit. Unpacked calls (small
    // or zero-heavy operands) run one full-width pass — panels without the
    // pack would only fragment the skip loop's row walks.
    const int64_t pn = packed ? gemm_panel_cols(k, n) : n;
    // One panel of per-thread scratch, shared across lanes: strips are packed
    // in parallel (each strip written by exactly one task), then every row
    // band reads the same panel. Row-band boundaries fall on kMr multiples
    // (pool_for_bands grain), so each kMr band computes exactly what the
    // serial walk computes — lane count cannot change bits.
    float* pk = packed ? pack_arena(static_cast<size_t>((pn + kNr - 1) / kNr * kNr * k)) : nullptr;
    for (int64_t jc = 0; jc < n; jc += pn) {
      const int64_t je = std::min<int64_t>(n, jc + pn);
      if (packed) {
        const int64_t strips = (je - jc + kNr - 1) / kNr;
        pool_for_bands(strips, 1, extra, [&](int64_t s0, int64_t s1) {
          for (int64_t s = s0; s < s1; ++s) {
            const int64_t j0 = jc + s * kNr;
            gemm_pack_bn_strip(b, n, k, j0, std::min<int64_t>(kNr, je - j0), pk + s * k * kNr);
          }
        });
      }
      pool_for_bands(m, kMr, extra, [&](int64_t r0, int64_t r1) {
        for (int64_t i0 = r0; i0 < r1; i0 += kMr) {
          gemm_bn_band(trans_a, i0, m, n, k, alpha, a, b, pk, beta, c, epi, jc, je);
        }
      });
    }
    return;
  }
  if (!trans_a) {
    if (packed) {
      // NT through the packed tile: B^T columns pack into the same strip
      // layout, lifting NT to the NN tile's throughput.
      const int64_t pn = gemm_panel_rows(k, n);
      float* pk = pack_arena(static_cast<size_t>((pn + kNr - 1) / kNr * kNr * k));
      for (int64_t jc = 0; jc < n; jc += pn) {
        const int64_t je = std::min<int64_t>(n, jc + pn);
        const int64_t strips = (je - jc + kNr - 1) / kNr;
        pool_for_bands(strips, 1, extra, [&](int64_t s0, int64_t s1) {
          for (int64_t s = s0; s < s1; ++s) {
            const int64_t j0 = jc + s * kNr;
            gemm_pack_nt_strip(b, k, j0, std::min<int64_t>(kNr, je - j0), pk + s * k * kNr);
          }
        });
        pool_for_bands(m, kMr, extra, [&](int64_t r0, int64_t r1) {
          for (int64_t i0 = r0; i0 < r1; i0 += kMr) {
            gemm_bn_band(false, i0, m, n, k, alpha, a, nullptr, pk, beta, c, epi, jc, je);
          }
        });
      }
      return;
    }
    pool_for_bands(m, 1, extra, [&](int64_t r0, int64_t r1) {
      for (int64_t i = r0; i < r1; ++i) gemm_nt_row(i, n, k, alpha, a, b, beta, c, epi, 0, n);
    });
    return;
  }
  // TT: no caller uses it on a hot path; keep the reference loop.
  gemm_reference(trans_a, trans_b, m, n, k, alpha, a, b, beta, c);
  gemm_epilogue_apply(m, n, c, epi);
}

int64_t scratch_bytes() { return g_scratch_bytes.load(std::memory_order_relaxed); }

namespace {

/// Output plane size (out_h * out_w) of a conv geometry.
int64_t out_plane(int64_t height, int64_t width, int64_t kernel_h, int64_t kernel_w,
                  int64_t stride, int64_t pad) {
  return ((height + 2 * pad - kernel_h) / stride + 1) * ((width + 2 * pad - kernel_w) / stride + 1);
}

/// The movers' shared body: `batch` samples against a column buffer of row
/// pitch `ld`, sample i's block at column i*out_h*out_w of every row. Items
/// write disjoint blocks (im2col) or scatter into disjoint planes (col2im),
/// so any lane count produces the serial bytes.
void im2col_pitched(const float* in, int64_t batch, int64_t channels, int64_t height,
                    int64_t width, int64_t kernel_h, int64_t kernel_w, int64_t stride, int64_t pad,
                    float* cols, int64_t ld) {
  const int64_t items = channels * kernel_h * kernel_w * batch;
  const double bytes = static_cast<double>(
      items * out_plane(height, width, kernel_h, kernel_w, stride, pad) * 2 * sizeof(float));
  KernelLanes lanes(extra_lanes_for(bytes, kMinLaneBytes));
  pool_for_bands(items, 1, lanes.extra(), [&](int64_t t0, int64_t t1) {
    im2col_items(in, batch, channels, height, width, kernel_h, kernel_w, stride, pad, cols, ld, t0,
                 t1);
  });
}

void col2im_pitched(const float* cols, int64_t batch, int64_t channels, int64_t height,
                    int64_t width, int64_t kernel_h, int64_t kernel_w, int64_t stride, int64_t pad,
                    float* out, int64_t ld, const uint8_t* dead_rows) {
  const int64_t items = channels * batch;
  const double bytes = static_cast<double>(items * kernel_h * kernel_w *
                                           out_plane(height, width, kernel_h, kernel_w, stride, pad) *
                                           2 * sizeof(float));
  KernelLanes lanes(extra_lanes_for(bytes, kMinLaneBytes));
  pool_for_bands(items, 1, lanes.extra(), [&](int64_t t0, int64_t t1) {
    col2im_items(cols, batch, channels, height, width, kernel_h, kernel_w, stride, pad, out, ld,
                 dead_rows, t0, t1);
  });
}

}  // namespace

void im2col_fast(const float* in, int64_t channels, int64_t height, int64_t width,
                 int64_t kernel_h, int64_t kernel_w, int64_t stride, int64_t pad, float* out,
                 int64_t out_ld) {
  im2col_pitched(in, 1, channels, height, width, kernel_h, kernel_w, stride, pad, out, out_ld);
}

void col2im_fast(const float* cols, int64_t channels, int64_t height, int64_t width,
                 int64_t kernel_h, int64_t kernel_w, int64_t stride, int64_t pad, float* out,
                 int64_t cols_ld) {
  col2im_pitched(cols, 1, channels, height, width, kernel_h, kernel_w, stride, pad, out, cols_ld,
                 nullptr);
}

void im2col_batched_fast(const float* in, int64_t batch, int64_t channels, int64_t height,
                         int64_t width, int64_t kernel_h, int64_t kernel_w, int64_t stride,
                         int64_t pad, float* cols) {
  im2col_pitched(in, batch, channels, height, width, kernel_h, kernel_w, stride, pad, cols,
                 batch * out_plane(height, width, kernel_h, kernel_w, stride, pad));
}

void col2im_batched_fast(const float* cols, int64_t batch, int64_t channels, int64_t height,
                         int64_t width, int64_t kernel_h, int64_t kernel_w, int64_t stride,
                         int64_t pad, float* out, const uint8_t* dead_rows) {
  col2im_pitched(cols, batch, channels, height, width, kernel_h, kernel_w, stride, pad, out,
                 batch * out_plane(height, width, kernel_h, kernel_w, stride, pad), dead_rows);
}

void permute_to_samples(const float* staging, int64_t rows, int64_t batch, int64_t cols,
                        float* samples) {
  const int64_t items = batch * rows;
  const double bytes = static_cast<double>(items * cols) * 2.0 * sizeof(float);
  const bool stream =
      items * cols * static_cast<int64_t>(sizeof(float)) >= kStreamMinBytes && stream_supported();
  KernelLanes lanes(extra_lanes_for(bytes, kMinLaneBytes));
  // Item t writes destination row t (contiguous ascending within a band, the
  // layout streaming stores want); the source side takes the page strides.
  pool_for_bands(items, 1, lanes.extra(), [&](int64_t t0, int64_t t1) {
    for (int64_t t = t0; t < t1; ++t) {
      const int64_t i = t / rows;
      const int64_t r = t % rows;
      copy_row(samples + t * cols, staging + r * batch * cols + i * cols, cols, stream);
    }
  });
}

void permute_to_staging(const float* samples, int64_t rows, int64_t batch, int64_t cols,
                        float* staging) {
  const int64_t items = rows * batch;
  const double bytes = static_cast<double>(items * cols) * 2.0 * sizeof(float);
  const bool stream =
      items * cols * static_cast<int64_t>(sizeof(float)) >= kStreamMinBytes && stream_supported();
  KernelLanes lanes(extra_lanes_for(bytes, kMinLaneBytes));
  // Item t = r * batch + i writes staging row-block t (again contiguous on
  // the destination side).
  pool_for_bands(items, 1, lanes.extra(), [&](int64_t t0, int64_t t1) {
    for (int64_t t = t0; t < t1; ++t) {
      const int64_t r = t / batch;
      const int64_t i = t % batch;
      copy_row(staging + t * cols, samples + (i * rows + r) * cols, cols, stream);
    }
  });
}

namespace {

/// Stage the operand's tail columns ([n/kNr*kNr, n)) of B[k, n] as one
/// zero-padded [k, kNr] strip in the calling thread's arena; nullptr when n
/// is a kNr multiple. Lanes only read the stage, so one caller-side copy
/// serves the whole parallel row walk.
const float* spmm_tail_stage(const float* b, int64_t k, int64_t n) {
  const int64_t j0 = n / kNr * kNr;
  if (j0 == n) return nullptr;
  float* stage = tail_arena(k);
  gemm_pack_bn_strip(b, n, k, j0, n - j0, stage);
  return stage;
}

}  // namespace

void spmm_fast(const sparse::CsrMatrix& a, const float* b, int64_t n, float* c, bool accumulate) {
  // Full-width row walks: output-column paneling was tried here and measured
  // slower at the batched conv widths (the 4-entry B-row groups are already
  // streamed once per C row; panels only re-stream the structure).
  const float* btail = spmm_tail_stage(b, a.cols, n);
  parallel_for(a.rows, [&](int64_t i) {
    spmm_row(a.row_ptr.data(), a.col_idx.data(), a.values.data(), b, n, btail, c + i * n, i,
             accumulate);
  });
}

void spmm_nt_fast(const sparse::CsrMatrix& a, const float* b, int64_t n_rows, float* c) {
  const int64_t blocks = (n_rows + kBs - 1) / kBs;
  parallel_for(blocks, [&](int64_t bi) { spmm_nt_block(a, b, bi * kBs, n_rows, c); });
}

void spmm_dn_fast(const sparse::CsrMatrix& a, const float* b, int64_t n_rows, float* c) {
  const int64_t blocks = (n_rows + kBs - 1) / kBs;
  parallel_for(blocks, [&](int64_t bi) { spmm_dn_block(a, b, bi * kBs, n_rows, c); });
}

void spmm_tn_fast(const sparse::CsrMatrix& a, const float* b, int64_t n, float* c) {
  // A^T * B == (transpose of A) * B, run through the spmm row kernel: each C
  // row is produced by one owner with the 4-entry amortized read-modify-write
  // — the in-place scatter form pays a full C-row RMW per structure entry
  // and cannot parallelize (rows shared across CSR rows). Walking A's rows
  // in ascending order fills each transposed row with ascending original-row
  // indices, so per output element the accumulation visits the same terms in
  // the same order as the scatter form modulo the row kernel's fixed 4-entry
  // blocking (tolerance-bounded, and bitwise-deterministic across runs and
  // thread counts as always). Matrices used repeatedly (Conv2d's masked
  // backward) carry a cached transpose (sparse::build_transpose, kept fresh
  // by refresh_values); otherwise build it for this call.
  const float* btail = spmm_tail_stage(b, a.rows, n);
  if (a.has_transpose()) {
    parallel_for(a.cols, [&](int64_t j) {
      spmm_row(a.tr_row_ptr.data(), a.tr_col_idx.data(), a.tr_values.data(), b, n, btail,
               c + j * n, j, /*accumulate=*/false);
    });
    return;
  }
  sparse::CsrMatrix tr;
  sparse::build_transpose(a, tr);  // fills only tr's tr_* arrays, no copy of a
  parallel_for(a.cols, [&](int64_t j) {
    spmm_row(tr.tr_row_ptr.data(), tr.tr_col_idx.data(), tr.tr_values.data(), b, n, btail,
             c + j * n, j, /*accumulate=*/false);
  });
}

void masked_grad_dot_fast(const sparse::CsrMatrix& s, const float* a, const float* b, int64_t n,
                          float* grad) {
  // t-panels keep the gathered B row slices cache-resident for wide batched
  // operands; per grad element each panel contributes one partial dot.
  constexpr int64_t kTn = 512;
  for (int64_t t0 = 0; t0 < n; t0 += kTn) {
    const int64_t t1 = std::min<int64_t>(n, t0 + kTn);
    parallel_for(s.rows, [&](int64_t i) {
      masked_grad_dot_row(s, a + i * n, b, n, t0, t1, grad + i * s.cols, i);
    });
  }
}

void masked_grad_tn_fast(const sparse::CsrMatrix& s, const float* a, const float* b, int64_t n,
                         float* grad) {
  parallel_for(s.rows, [&](int64_t i) { masked_grad_tn_row(s, a, b, n, grad + i * s.cols, i); });
}

}  // namespace fedtiny::kernels
