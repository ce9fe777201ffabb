#include "la/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace rmp::la {

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols,
                     std::vector<std::uint64_t> row_offsets,
                     std::vector<std::uint32_t> col_indices,
                     std::vector<double> values)
    : rows_(rows),
      cols_(cols),
      values_(std::move(values)),
      col_indices_(std::move(col_indices)),
      row_offsets_(std::move(row_offsets)) {
  // Compared as size - 1: rows + 1 wraps for rows = 2^64 - 1.
  if (row_offsets_.empty() || row_offsets_.size() - 1 != rows_) {
    throw std::invalid_argument("CsrMatrix: want rows + 1 row offsets");
  }
  if (col_indices_.size() != values_.size()) {
    throw std::invalid_argument("CsrMatrix: column and value counts differ");
  }
  if (row_offsets_.front() != 0 || row_offsets_.back() != values_.size() ||
      !std::ranges::is_sorted(row_offsets_)) {
    throw std::invalid_argument(
        "CsrMatrix: row offsets must rise from 0 to nnz");
  }
  if (std::ranges::any_of(col_indices_,
                          [this](std::uint32_t j) { return j >= cols_; })) {
    throw std::invalid_argument("CsrMatrix: column index out of range");
  }
}

CsrMatrix CsrMatrix::from_dense(const Matrix& dense, double drop_below) {
  CsrMatrix csr;
  csr.rows_ = dense.rows();
  csr.cols_ = dense.cols();
  csr.row_offsets_.resize(csr.rows_ + 1, 0);
  for (std::size_t i = 0; i < csr.rows_; ++i) {
    const auto row = dense.row(i);
    for (std::size_t j = 0; j < csr.cols_; ++j) {
      if (std::fabs(row[j]) > drop_below) {
        csr.values_.push_back(row[j]);
        csr.col_indices_.push_back(static_cast<std::uint32_t>(j));
      }
    }
    csr.row_offsets_[i + 1] = csr.values_.size();
  }
  return csr;
}

Matrix CsrMatrix::to_dense() const {
  Matrix dense(rows_, cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::uint64_t p = row_offsets_[i]; p < row_offsets_[i + 1]; ++p) {
      dense(i, col_indices_[p]) = values_[p];
    }
  }
  return dense;
}

std::size_t CsrMatrix::storage_bytes() const noexcept {
  return values_.size() * sizeof(double) +
         col_indices_.size() * sizeof(std::uint32_t) +
         row_offsets_.size() * sizeof(std::uint64_t);
}

}  // namespace rmp::la
