#include "tensor/sparse.h"

#include <cassert>
#include <cstring>

#include "tensor/kernels.h"

namespace fedtiny::sparse {

namespace {

template <typename Keep>
CsrMatrix compact(const float* dense, int64_t rows, int64_t cols, Keep keep) {
  CsrMatrix out;
  out.rows = rows;
  out.cols = cols;
  out.row_ptr.resize(static_cast<size_t>(rows) + 1, 0);
  for (int64_t i = 0; i < rows; ++i) {
    int64_t count = 0;
    for (int64_t j = 0; j < cols; ++j) {
      if (keep(i * cols + j)) ++count;
    }
    out.row_ptr[static_cast<size_t>(i) + 1] = out.row_ptr[static_cast<size_t>(i)] + count;
  }
  out.col_idx.resize(static_cast<size_t>(out.row_ptr[static_cast<size_t>(rows)]));
  out.values.resize(out.col_idx.size());
  for (int64_t i = 0; i < rows; ++i) {
    auto at = static_cast<size_t>(out.row_ptr[static_cast<size_t>(i)]);
    for (int64_t j = 0; j < cols; ++j) {
      const int64_t flat = i * cols + j;
      if (keep(flat)) {
        out.col_idx[at] = static_cast<int32_t>(j);
        out.values[at] = dense[flat];
        ++at;
      }
    }
  }
  return out;
}

}  // namespace

void build_panels(CsrMatrix& m, int64_t width) {
  if (width <= 0) {
    m.panel_width = 0;
    m.panel_ptr.clear();
    return;
  }
  m.panel_width = width;
  const int64_t np = m.num_panels();
  m.panel_ptr.assign(static_cast<size_t>(m.rows * (np + 1)), 0);
  // One ascending walk per row: col_idx is sorted within a row, so panel
  // boundaries are found by advancing a single cursor.
  for (int64_t i = 0; i < m.rows; ++i) {
    int64_t* row = m.panel_ptr.data() + i * (np + 1);
    int64_t p = m.row_ptr[static_cast<size_t>(i)];
    const int64_t end = m.row_ptr[static_cast<size_t>(i) + 1];
    row[0] = p;
    for (int64_t pan = 0; pan < np; ++pan) {
      const int64_t col_end = (pan + 1) * width;
      while (p < end && static_cast<int64_t>(m.col_idx[static_cast<size_t>(p)]) < col_end) ++p;
      row[pan + 1] = p;
    }
  }
}

int64_t mask_nnz(std::span<const uint8_t> mask) {
  int64_t kept = 0;
  for (uint8_t m : mask) kept += m != 0 ? 1 : 0;
  return kept;
}

double mask_density(std::span<const uint8_t> mask) {
  return mask.empty() ? 1.0
                      : static_cast<double>(mask_nnz(mask)) / static_cast<double>(mask.size());
}

CsrMatrix csr_from_mask(const float* dense, int64_t rows, int64_t cols,
                        std::span<const uint8_t> mask) {
  assert(static_cast<int64_t>(mask.size()) == rows * cols);
  return compact(dense, rows, cols,
                 [&](int64_t flat) { return mask[static_cast<size_t>(flat)] != 0; });
}

CsrMatrix csr_from_dense(const float* dense, int64_t rows, int64_t cols) {
  return compact(dense, rows, cols, [&](int64_t flat) { return dense[flat] != 0.0f; });
}

void refresh_values(CsrMatrix& out, const float* dense) {
  for (int64_t i = 0; i < out.rows; ++i) {
    const float* row = dense + i * out.cols;
    for (int64_t p = out.row_ptr[static_cast<size_t>(i)];
         p < out.row_ptr[static_cast<size_t>(i) + 1]; ++p) {
      out.values[static_cast<size_t>(p)] = row[out.col_idx[static_cast<size_t>(p)]];
    }
  }
  if (out.has_transpose()) {
    for (size_t p = 0; p < out.tr_values.size(); ++p) {
      out.tr_values[p] = out.values[static_cast<size_t>(out.tr_perm[p])];
    }
  }
}

void build_transpose(const CsrMatrix& src, CsrMatrix& out) {
  const int64_t nnz = src.nnz();
  out.tr_row_ptr.assign(static_cast<size_t>(src.cols) + 1, 0);
  for (int64_t p = 0; p < nnz; ++p) {
    ++out.tr_row_ptr[static_cast<size_t>(src.col_idx[static_cast<size_t>(p)]) + 1];
  }
  for (int64_t j = 0; j < src.cols; ++j) {
    out.tr_row_ptr[static_cast<size_t>(j) + 1] += out.tr_row_ptr[static_cast<size_t>(j)];
  }
  out.tr_col_idx.resize(static_cast<size_t>(nnz));
  out.tr_values.resize(static_cast<size_t>(nnz));
  out.tr_perm.resize(static_cast<size_t>(nnz));
  std::vector<int64_t> cursor(out.tr_row_ptr.begin(), out.tr_row_ptr.end() - 1);
  // Walking rows in ascending order fills each transposed row with ascending
  // original-row indices — the order the spmm_tn accumulation contract wants.
  for (int64_t i = 0; i < src.rows; ++i) {
    for (int64_t p = src.row_ptr[static_cast<size_t>(i)];
         p < src.row_ptr[static_cast<size_t>(i) + 1]; ++p) {
      const auto col = static_cast<size_t>(src.col_idx[static_cast<size_t>(p)]);
      const auto at = static_cast<size_t>(cursor[col]++);
      out.tr_col_idx[at] = static_cast<int32_t>(i);
      out.tr_values[at] = src.values[static_cast<size_t>(p)];
      out.tr_perm[at] = p;
    }
  }
}

void csr_to_dense(const CsrMatrix& a, float* dense) {
  std::memset(dense, 0, static_cast<size_t>(a.rows * a.cols) * sizeof(float));
  for (int64_t i = 0; i < a.rows; ++i) {
    float* row = dense + i * a.cols;
    for (int64_t p = a.row_ptr[static_cast<size_t>(i)]; p < a.row_ptr[static_cast<size_t>(i) + 1];
         ++p) {
      row[a.col_idx[static_cast<size_t>(p)]] = a.values[static_cast<size_t>(p)];
    }
  }
}

void spmm(const CsrMatrix& a, const float* b, int64_t n, float* c, bool accumulate) {
  if (kernels::mode() == kernels::Mode::kFast) {
    kernels::spmm_fast(a, b, n, c, accumulate);
  } else {
    kernels::spmm_reference(a, b, n, c, accumulate);
  }
}

void spmv(const CsrMatrix& a, const float* x, float* y) {
  for (int64_t i = 0; i < a.rows; ++i) {
    float s = 0.0f;
    for (int64_t p = a.row_ptr[static_cast<size_t>(i)]; p < a.row_ptr[static_cast<size_t>(i) + 1];
         ++p) {
      s += a.values[static_cast<size_t>(p)] * x[a.col_idx[static_cast<size_t>(p)]];
    }
    y[i] = s;
  }
}

void spmm_dn(const CsrMatrix& a, const float* b, int64_t n_rows, float* c) {
  if (kernels::mode() == kernels::Mode::kFast) {
    kernels::spmm_dn_fast(a, b, n_rows, c);
  } else {
    kernels::spmm_dn_reference(a, b, n_rows, c);
  }
}

void spmm_tn(const CsrMatrix& a, const float* b, int64_t n, float* c) {
  if (kernels::mode() == kernels::Mode::kFast) {
    kernels::spmm_tn_fast(a, b, n, c);
  } else {
    kernels::spmm_tn_reference(a, b, n, c);
  }
}

void masked_grad_dot(const CsrMatrix& s, const float* a, const float* b, int64_t n, float* grad) {
  if (kernels::mode() == kernels::Mode::kFast) {
    kernels::masked_grad_dot_fast(s, a, b, n, grad);
  } else {
    kernels::masked_grad_dot_reference(s, a, b, n, grad);
  }
}

void masked_grad_tn(const CsrMatrix& s, const float* a, const float* b, int64_t n, float* grad) {
  if (kernels::mode() == kernels::Mode::kFast) {
    kernels::masked_grad_tn_fast(s, a, b, n, grad);
  } else {
    kernels::masked_grad_tn_reference(s, a, b, n, grad);
  }
}

void spmm_nt(const CsrMatrix& a, const float* b, int64_t n_rows, float* c) {
  if (kernels::mode() == kernels::Mode::kFast) {
    kernels::spmm_nt_fast(a, b, n_rows, c);
  } else {
    kernels::spmm_nt_reference(a, b, n_rows, c);
  }
}

}  // namespace fedtiny::sparse
