// Kernel engine: two selectable implementations of every hot math kernel.
//
//   reference — the scalar loops the repo has shipped since PR 1/2, kept
//               verbatim. Accumulation order matches the dense zero-skipping
//               oracle exactly, so reference-mode sparse kernels are bitwise
//               identical to the dense forward/backward over the same masked
//               weight. This is the mode every bitwise-oracle test pins.
//   fast      — register-blocked / multi-accumulator rewrites (the default).
//               Blocking order is a fixed compile-time constant, so fast
//               results are deterministic across runs, thread counts, and
//               worker counts — but the reassociated accumulation drifts
//               from reference within a tolerance bounded by the parity
//               tests (tests/tensor/test_kernels.cpp).
//
// Selection is process-wide: FEDTINY_KERNELS=reference|fast seeds the mode
// at first use, set_mode() overrides (harness::Experiment::run applies the
// RunSpec::kernels knob through it). The public entry points stay
// ops::gemm / sparse::spmm etc. — they dispatch on mode(); call the
// *_reference / *_fast functions below only from benches and tests that
// need a specific implementation regardless of the process mode.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "tensor/sparse_fwd.h"

namespace fedtiny::kernels {

enum class Mode : int { kReference = 0, kFast = 1 };

/// Parse "reference"/"fast" (anything else falls back to `fallback`).
Mode mode_from_name(const char* name, Mode fallback = Mode::kFast);
/// The names parse_mode accepts.
inline constexpr const char* kModeNames = "reference|fast";
/// Parse "reference"/"fast"; anything else throws std::invalid_argument.
/// The single validation point for user-supplied mode strings (RunSpec
/// knob, run_all batch pins).
Mode parse_mode(const char* name);
const char* mode_name(Mode mode);

namespace detail {
/// FEDTINY_KERNELS seed: unset -> fast; unrecognized values warn on stderr
/// and fall back to fast (a typo must not silently pose as a mode choice).
Mode mode_from_env();

inline std::atomic<int>& mode_slot() {
  static std::atomic<int> value{static_cast<int>(mode_from_env())};
  return value;
}
}  // namespace detail

/// Process-wide kernel implementation selection (FEDTINY_KERNELS seeds it).
inline Mode mode() { return static_cast<Mode>(detail::mode_slot().load(std::memory_order_relaxed)); }
inline void set_mode(Mode m) {
  detail::mode_slot().store(static_cast<int>(m), std::memory_order_relaxed);
}

/// RAII mode pin for tests and benches; restores the previous mode. The mode
/// is process-wide, so do not interleave scoped pins across threads.
class ScopedMode {
 public:
  explicit ScopedMode(Mode m) : previous_(mode()) { set_mode(m); }
  ~ScopedMode() { set_mode(previous_); }
  ScopedMode(const ScopedMode&) = delete;
  ScopedMode& operator=(const ScopedMode&) = delete;

 private:
  Mode previous_;
};

// ---- Dense GEMM ------------------------------------------------------------
// C[m,n] = alpha * op(A) * op(B) + beta * C (see ops::gemm for the layout
// contract). The reference skips zero A operands (masked dense weights ride
// that skip); fast trades the skip for register tiles and unrolled
// multi-accumulator inner loops.

/// Optional fused epilogue applied to every C element as it is written back
/// from the register tile: bias add (per row and/or per column) and a ReLU
/// clamp, saving the separate bias/activation pass over C. Applied after the
/// alpha/beta blend, so it is meant for beta == 0 forward-style calls; biases
/// whose pointer is null are not applied at all (no "+ 0.0f" that could flip
/// a -0.0 output). The epilogue is a property of the *call*, not the mode:
/// reference-mode dispatch applies it as an ordered post-pass over C
/// (gemm_epilogue_apply), bitwise-identical to the separate bias loop the
/// layers used before.
struct GemmEpilogue {
  const float* row_bias = nullptr;  // length m: added to every element of C row i
  const float* col_bias = nullptr;  // length n: added to every element of C column j
  bool relu = false;                // clamp at zero, applied after the bias adds
  /// Optional activation mask recorded at write-back when relu is set:
  /// relu_mask[i*n + j] = 1 iff the pre-clamp value was > 0 (the exact
  /// predicate nn::ReLU stores), 0 otherwise. Lets a fused conv+ReLU save
  /// the backward mask for free instead of re-running a separate ReLU pass.
  /// Ignored unless relu is true.
  uint8_t* relu_mask = nullptr;
  [[nodiscard]] bool active() const {
    return row_bias != nullptr || col_bias != nullptr || relu;
  }
};

/// Ordered post-pass form of the epilogue (row-major, ascending i then j) —
/// the reference-mode implementation, and the fallback for fast paths that
/// accumulate in place instead of staging a register tile.
void gemm_epilogue_apply(int64_t m, int64_t n, float* c, const GemmEpilogue& epi);

void gemm_reference(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k, float alpha,
                    const float* a, const float* b, float beta, float* c);
void gemm_fast(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k, float alpha,
               const float* a, const float* b, float beta, float* c);
/// gemm_fast with a fused epilogue on the write-back of each output tile.
void gemm_fast_ex(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k, float alpha,
                  const float* a, const float* b, float beta, float* c, const GemmEpilogue& epi);

/// Bytes currently held by the fast GEMM's per-thread pack scratch, summed
/// across all threads that ever packed. The shared-pack engine caps each
/// thread's arena at one L2 panel, so this must plateau after the first call
/// of a given size instead of growing with lane count x matrix size (the
/// PR 4 regression this probe guards).
int64_t scratch_bytes();

// ---- im2col / col2im -------------------------------------------------------
// Patch expansion and its scatter-add inverse (see ops::im2col for the layout
// contract). `out_ld` / `cols_ld` is the column-buffer row pitch: out_h*out_w
// for a standalone per-sample buffer, batch*out_h*out_w when the caller packs
// per-sample blocks side by side in one [fan_in, batch*out_hw] workspace (the
// batched conv pipeline). The reference implementations are the PR 1 scalar
// loops verbatim modulo that pitch generalization (pure address arithmetic).
// Unlike the arithmetic kernels, fast here is *bitwise-equal* to reference:
// im2col only moves data, and col2im's fast variant preserves the per-output-
// element (kh, kw, oh) accumulation order while vectorizing the disjoint
// inner width loop.

void im2col_reference(const float* in, int64_t channels, int64_t height, int64_t width,
                      int64_t kernel_h, int64_t kernel_w, int64_t stride, int64_t pad, float* out,
                      int64_t out_ld);
void im2col_fast(const float* in, int64_t channels, int64_t height, int64_t width,
                 int64_t kernel_h, int64_t kernel_w, int64_t stride, int64_t pad, float* out,
                 int64_t out_ld);

void col2im_reference(const float* cols, int64_t channels, int64_t height, int64_t width,
                      int64_t kernel_h, int64_t kernel_w, int64_t stride, int64_t pad, float* out,
                      int64_t cols_ld);
void col2im_fast(const float* cols, int64_t channels, int64_t height, int64_t width,
                 int64_t kernel_h, int64_t kernel_w, int64_t stride, int64_t pad, float* out,
                 int64_t cols_ld);

// ---- Batched conv data movement --------------------------------------------
// The whole-batch movers of the batched conv pipeline. `in` / `out` hold
// `batch` contiguous [channels, height, width] samples; the column buffer is
// one [channels*kernel_h*kernel_w, batch*out_h*out_w] workspace with sample
// i's block starting at column i*out_h*out_w. Reference loops the per-sample
// reference movers serially; fast spreads (sample x row) / (sample x channel)
// items over kernel-pool lanes. Both orderings write every output element
// exactly once from the same inputs (col2im accumulates only within one
// (sample, channel) item), so fast is bitwise-equal to reference at any lane
// count — same contract as the per-sample movers above.

void im2col_batched_reference(const float* in, int64_t batch, int64_t channels, int64_t height,
                              int64_t width, int64_t kernel_h, int64_t kernel_w, int64_t stride,
                              int64_t pad, float* cols);
void im2col_batched_fast(const float* in, int64_t batch, int64_t channels, int64_t height,
                         int64_t width, int64_t kernel_h, int64_t kernel_w, int64_t stride,
                         int64_t pad, float* cols);

void col2im_batched_reference(const float* cols, int64_t batch, int64_t channels, int64_t height,
                              int64_t width, int64_t kernel_h, int64_t kernel_w, int64_t stride,
                              int64_t pad, float* out);
void col2im_batched_fast(const float* cols, int64_t batch, int64_t channels, int64_t height,
                         int64_t width, int64_t kernel_h, int64_t kernel_w, int64_t stride,
                         int64_t pad, float* out);

// ---- Batched layout permutes -----------------------------------------------
// Transpose between the batched GEMM staging layout [rows, batch*cols]
// (sample i's block at column offset i*cols of each row) and the per-sample
// layout [batch, rows, cols]. Pure row-sized memcpys — bitwise-trivially
// deterministic — threaded over (sample x row) items, with a non-temporal
// streaming store variant engaged for large buffers whose page-strided
// destination rows defeat the hardware prefetcher.

/// staging [rows, batch*cols] -> samples [batch, rows, cols].
void permute_to_samples(const float* staging, int64_t rows, int64_t batch, int64_t cols,
                        float* samples);
/// samples [batch, rows, cols] -> staging [rows, batch*cols].
void permute_to_staging(const float* samples, int64_t rows, int64_t batch, int64_t cols,
                        float* staging);

// ---- CSR kernels -----------------------------------------------------------
// Same signatures as the sparse:: entry points that dispatch to them.

void spmm_reference(const sparse::CsrMatrix& a, const float* b, int64_t n, float* c,
                    bool accumulate);
void spmm_fast(const sparse::CsrMatrix& a, const float* b, int64_t n, float* c, bool accumulate);

void spmm_nt_reference(const sparse::CsrMatrix& a, const float* b, int64_t n_rows, float* c);
void spmm_nt_fast(const sparse::CsrMatrix& a, const float* b, int64_t n_rows, float* c);

void spmm_dn_reference(const sparse::CsrMatrix& a, const float* b, int64_t n_rows, float* c);
void spmm_dn_fast(const sparse::CsrMatrix& a, const float* b, int64_t n_rows, float* c);

void spmm_tn_reference(const sparse::CsrMatrix& a, const float* b, int64_t n, float* c);
void spmm_tn_fast(const sparse::CsrMatrix& a, const float* b, int64_t n, float* c);

void masked_grad_dot_reference(const sparse::CsrMatrix& s, const float* a, const float* b,
                               int64_t n, float* grad);
void masked_grad_dot_fast(const sparse::CsrMatrix& s, const float* a, const float* b, int64_t n,
                          float* grad);

void masked_grad_tn_reference(const sparse::CsrMatrix& s, const float* a, const float* b, int64_t n,
                              float* grad);
void masked_grad_tn_fast(const sparse::CsrMatrix& s, const float* a, const float* b, int64_t n,
                         float* grad);

}  // namespace fedtiny::kernels
