// CSR sparse matrices and the sparse kernels behind the nn-layer sparse
// forward dispatch (Linear / Conv2d at low mask density).
//
// Every kernel below dispatches on the process-wide kernel engine mode
// (tensor/kernels.h, FEDTINY_KERNELS=reference|fast).
//
// Numerical contract (reference mode): every kernel accumulates along
// ascending column index, exactly the order in which the dense kernels in
// tensor/ops.cpp visit the same coordinates while skipping stored zeros.
// Because adding a zero term is exact in IEEE float, a reference-mode CSR
// forward over a masked weight is therefore bitwise identical to the
// reference-mode dense forward over the same weight with masked entries
// stored as zeros — the dense path doubles as an oracle in tests. Fast mode
// reassociates the sums (blocked, multi-accumulator): still deterministic
// across runs and worker counts, but only tolerance-close to reference.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.h"

namespace fedtiny::sparse {

/// Compressed-sparse-row float32 matrix.
struct CsrMatrix {
  int64_t rows = 0;
  int64_t cols = 0;
  std::vector<int64_t> row_ptr;  // rows + 1 entries
  std::vector<int32_t> col_idx;  // nnz entries, ascending within each row
  std::vector<float> values;     // nnz entries

  // Fan-in-major (column-panel) index for the fast spmm_nt / spmm_dn kernels:
  // panel p covers columns [p*panel_width, (p+1)*panel_width), and row i's
  // entries inside panel p sit at positions
  //   [panel_ptr[i*(num_panels()+1) + p], panel_ptr[i*(num_panels()+1) + p+1])
  // of col_idx/values. The panel loop confines the dense-operand gathers and
  // scatters of those kernels to one cache-resident column window at a time.
  // Structure-only (refresh_values leaves it valid); built via build_panels()
  // by the consumers whose kernels read it (Linear::install_sparse — the
  // spmm_nt/spmm_dn dispatch), empty otherwise — kernels fall back to the
  // unpaneled walk when absent. Deliberately NOT built by csr_from_mask:
  // matrices consumed by the streaming kernels (conv spmm/masked_grad_dot)
  // measured slower with the extra index resident.
  int64_t panel_width = 0;
  std::vector<int64_t> panel_ptr;  // rows * (num_panels + 1) entries

  // Cached transpose for the fast spmm_tn (A^T * B): structure + values of
  // A^T plus the permutation mapping each transposed entry back to its
  // original position (tr_values[p] == values[tr_perm[p]]). Built via
  // build_transpose() by consumers whose backward runs spmm_tn on a stable
  // structure (Conv2d::install_sparse); refresh_values keeps tr_values in
  // sync through tr_perm. Empty => spmm_tn_fast transposes per call.
  std::vector<int64_t> tr_row_ptr;  // cols + 1 entries
  std::vector<int32_t> tr_col_idx;  // nnz entries: original row index, ascending
  std::vector<float> tr_values;     // nnz entries
  std::vector<int64_t> tr_perm;     // nnz entries: transposed -> original entry

  [[nodiscard]] int64_t nnz() const { return static_cast<int64_t>(values.size()); }
  [[nodiscard]] bool empty() const { return rows == 0; }
  [[nodiscard]] int64_t num_panels() const {
    return panel_width > 0 ? (cols + panel_width - 1) / panel_width : 0;
  }
  [[nodiscard]] bool has_panels() const { return !panel_ptr.empty(); }
  [[nodiscard]] bool has_transpose() const { return !tr_row_ptr.empty(); }
  [[nodiscard]] double density() const {
    const int64_t total = rows * cols;
    return total > 0 ? static_cast<double>(nnz()) / static_cast<double>(total) : 0.0;
  }
};

/// Number of non-zero bytes in a mask.
int64_t mask_nnz(std::span<const uint8_t> mask);

/// Kept fraction of a mask; an empty mask counts as fully dense.
double mask_density(std::span<const uint8_t> mask);

/// Compact a dense row-major [rows, cols] matrix to CSR, keeping entries
/// whose mask byte is non-zero. mask.size() must equal rows * cols. Entries
/// that are masked-in but numerically zero are kept: the CSR structure
/// mirrors the mask, not the value pattern, so a weight update never changes
/// the compaction structure within a round.
CsrMatrix csr_from_mask(const float* dense, int64_t rows, int64_t cols,
                        std::span<const uint8_t> mask);

/// Compact keeping the non-zero value pattern (no mask available).
CsrMatrix csr_from_dense(const float* dense, int64_t rows, int64_t cols);

/// Refresh `out.values` from a dense matrix with an unchanged structure
/// (same mask => same col_idx/row_ptr). Cheaper than re-running
/// csr_from_mask when only the values moved.
void refresh_values(CsrMatrix& out, const float* dense);

/// Build the transpose of `src` into `out`'s tr_* arrays (out's primary
/// arrays are untouched; src and out may be the same object). Call on
/// matrices fed to spmm_tn in a loop (Conv2d's masked training backward
/// does); rebuild after structure changes, refresh_values handles value-only
/// updates.
void build_transpose(const CsrMatrix& src, CsrMatrix& out);
inline void build_transpose(CsrMatrix& m) { build_transpose(m, m); }

/// (Re)build the column-panel index with the given panel width (see the
/// CsrMatrix field comment). width <= 0 clears the index. Call on matrices
/// fed to spmm_nt/spmm_dn (Linear does); exposed so tests and benches can
/// force a specific panel geometry.
void build_panels(CsrMatrix& m, int64_t width);

/// Default panel width: 256 columns = 1 KiB of dense operand per panel per
/// batch row, sized so the fast kernels' 8-row batch blocks keep their
/// gather/scatter window L1-resident.
inline constexpr int64_t kDefaultPanelWidth = 256;

/// Scatter to a zeroed dense row-major [rows, cols] buffer.
void csr_to_dense(const CsrMatrix& a, float* dense);

/// C[m, n] = A[m, k] * B[k, n], A in CSR, B/C dense row-major.
/// When accumulate is false C is overwritten, otherwise added into.
/// This is the Conv2d forward: W_csr[out_c, in_c*k*k] * cols.
void spmm(const CsrMatrix& a, const float* b, int64_t n, float* c, bool accumulate = false);

/// y[m] = A[m, k] * x[k].
void spmv(const CsrMatrix& a, const float* x, float* y);

/// C[n_rows, m] = B[n_rows, k] * A[m, k]^T, A in CSR, B/C dense row-major.
/// This is the Linear forward y = x * W^T with W stored [out, in].
void spmm_nt(const CsrMatrix& a, const float* b, int64_t n_rows, float* c);

// ---- Masked backward kernels -----------------------------------------------
// The training-mode companions of the forward dispatch: a mask-compacted
// weight makes both the input gradient and the weight gradient sparse. Each
// kernel mirrors the accumulation order (and the zero-operand skips) of the
// dense gemm it replaces, so a masked backward is bitwise identical to the
// dense backward with pruned-coordinate weight gradients zeroed.

/// C[n_rows, a.cols] = B[n_rows, a.rows] * A, A in CSR, B/C dense row-major.
/// Linear backward dX = dY * W: pruned weight columns contribute nothing.
void spmm_dn(const CsrMatrix& a, const float* b, int64_t n_rows, float* c);

/// C[a.cols, n] = A^T * B[a.rows, n], A in CSR, B/C dense row-major.
/// Conv2d backward dcols = W^T * dY. Runs serially: the reference scatter
/// writes each row of C from many CSR rows.
void spmm_tn(const CsrMatrix& a, const float* b, int64_t n, float* c);

/// Weight-gradient accumulation restricted to the structure of `s` (dot
/// form): for every structure entry (i, j),
///   grad[i * s.cols + j] += sum_t a[i, t] * b[j, t]
/// with a dense [s.rows, n] and b dense [s.cols, n]. Conv2d backward
/// dW += dY * cols^T, skipping pruned coordinates.
void masked_grad_dot(const CsrMatrix& s, const float* a, const float* b, int64_t n, float* grad);

/// Weight-gradient accumulation restricted to the structure of `s`
/// (transposed form): for every structure entry (i, j),
///   grad[i * s.cols + j] += sum_r a[r, i] * b[r, j]
/// with a dense [n, s.rows] and b dense [n, s.cols]. Linear backward
/// dW += dY^T * X, skipping pruned coordinates.
void masked_grad_tn(const CsrMatrix& s, const float* a, const float* b, int64_t n, float* grad);

}  // namespace fedtiny::sparse
