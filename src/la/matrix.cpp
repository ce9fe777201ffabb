#include "la/matrix.hpp"

#include <cmath>
#include <stdexcept>

#include "parallel/thread_pool.hpp"

namespace rmp::la {
namespace {

// Below this many multiply-adds the pool dispatch overhead dominates;
// run serially.  Matrices in the preconditioners are often tiny (z-extent
// columns), so the cutoff keeps those on the fast inline path.
constexpr std::size_t kParallelFlopCutoff = 1u << 15;

}  // namespace

std::size_t checked_cells(std::size_t rows, std::size_t cols) {
  std::size_t cells = 0;
  if (__builtin_mul_overflow(rows, cols, &cells)) {
    throw std::invalid_argument("Matrix: rows * cols overflows");
  }
  return cells;
}

Matrix::Matrix(std::size_t rows, std::size_t cols, std::vector<double> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  if (data_.size() != checked_cells(rows_, cols_)) {
    throw std::invalid_argument("Matrix: buffer size does not match shape");
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) {
      t(j, i) = (*this)(i, j);
    }
  }
  return t;
}

Matrix Matrix::operator*(const Matrix& other) const {
  if (cols_ != other.rows_) {
    throw std::invalid_argument("Matrix multiply: inner dimensions differ");
  }
  Matrix out(rows_, other.cols_);
  // i-k-j loop order keeps the inner loop contiguous in both operands.
  // Output rows are disjoint per i, so row ranges parallelize cleanly and
  // the per-element accumulation order (k ascending) is identical serial
  // or parallel -- results are bit-reproducible at any thread count.
  const auto multiply_rows = [&](std::size_t row_begin, std::size_t row_end) {
    for (std::size_t i = row_begin; i < row_end; ++i) {
      for (std::size_t k = 0; k < cols_; ++k) {
        const double aik = (*this)(i, k);
        if (aik == 0.0) continue;
        const double* brow = other.data_.data() + k * other.cols_;
        double* orow = out.data_.data() + i * other.cols_;
        for (std::size_t j = 0; j < other.cols_; ++j) {
          orow[j] += aik * brow[j];
        }
      }
    }
  };
  if (rows_ * cols_ * other.cols_ < kParallelFlopCutoff) {
    multiply_rows(0, rows_);
  } else {
    parallel::parallel_for_ranges(rows_, multiply_rows);
  }
  return out;
}

Matrix Matrix::operator+(const Matrix& other) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    throw std::invalid_argument("Matrix add: shapes differ");
  }
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] += other.data_[i];
  return out;
}

Matrix Matrix::operator-(const Matrix& other) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    throw std::invalid_argument("Matrix subtract: shapes differ");
  }
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] -= other.data_[i];
  return out;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

double Matrix::frobenius_norm() const {
  double sum = 0.0;
  for (double v : data_) sum += v * v;
  return std::sqrt(sum);
}

double Matrix::max_abs_diff(const Matrix& a, const Matrix& b) {
  if (a.rows_ != b.rows_ || a.cols_ != b.cols_) {
    throw std::invalid_argument("max_abs_diff: shapes differ");
  }
  double m = 0.0;
  for (std::size_t i = 0; i < a.data_.size(); ++i) {
    m = std::max(m, std::fabs(a.data_[i] - b.data_[i]));
  }
  return m;
}

double column_norm(const Matrix& a, std::size_t j) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) sum += a(i, j) * a(i, j);
  return std::sqrt(sum);
}

double column_dot(const Matrix& a, std::size_t j, std::size_t k) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) sum += a(i, j) * a(i, k);
  return sum;
}

}  // namespace rmp::la
