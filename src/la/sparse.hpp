// Compressed Sparse Row storage for the thresholded Haar coefficient
// matrices produced by the Wavelet preconditioner (paper §V-A.3).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "la/matrix.hpp"

namespace rmp::la {

class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Adopts CSR arrays after checking what to_dense() indexes with: rows + 1
  /// row offsets rising from 0 to nnz, and every column index below `cols`.
  /// Throws std::invalid_argument otherwise.
  CsrMatrix(std::size_t rows, std::size_t cols,
            std::vector<std::uint64_t> row_offsets,
            std::vector<std::uint32_t> col_indices, std::vector<double> values);

  /// Build from a dense matrix, keeping entries with |value| > drop_below.
  static CsrMatrix from_dense(const Matrix& dense, double drop_below = 0.0);

  Matrix to_dense() const;

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t nnz() const noexcept { return values_.size(); }

  /// Bytes needed to store the CSR triplet arrays (this is the "size of the
  /// reduced representation" the paper charges Wavelet with in Fig. 9).
  std::size_t storage_bytes() const noexcept;

  const std::vector<double>& values() const noexcept { return values_; }
  const std::vector<std::uint32_t>& col_indices() const noexcept {
    return col_indices_;
  }
  const std::vector<std::uint64_t>& row_offsets() const noexcept {
    return row_offsets_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> values_;
  std::vector<std::uint32_t> col_indices_;
  std::vector<std::uint64_t> row_offsets_;  // size rows_+1
};

}  // namespace rmp::la
