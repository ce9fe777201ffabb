// Dense row-major matrix of doubles.
//
// This is the workhorse container for the PCA/SVD preconditioners.  It is
// deliberately small: the library only needs construction, element access,
// transpose, products, and a handful of norms.  No expression templates --
// the matrices involved in preconditioning have a small column count
// (the z-extent of a field), so clarity wins over fusion tricks.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace rmp::la {

/// rows * cols; throws std::invalid_argument when the product overflows
/// (shapes can come from untrusted streams).
std::size_t checked_cells(std::size_t rows, std::size_t cols);

class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix, every element set to `init`.
  Matrix(std::size_t rows, std::size_t cols, double init = 0.0)
      : rows_(rows), cols_(cols), data_(checked_cells(rows, cols), init) {}

  /// Adopt an existing flat row-major buffer (must hold rows*cols values).
  Matrix(std::size_t rows, std::size_t cols, std::vector<double> data);

  static Matrix identity(std::size_t n);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }

  double& operator()(std::size_t i, std::size_t j) noexcept {
    return data_[i * cols_ + j];
  }
  double operator()(std::size_t i, std::size_t j) const noexcept {
    return data_[i * cols_ + j];
  }

  /// Row i as a contiguous span (row-major layout guarantee).
  std::span<double> row(std::size_t i) noexcept {
    return {data_.data() + i * cols_, cols_};
  }
  std::span<const double> row(std::size_t i) const noexcept {
    return {data_.data() + i * cols_, cols_};
  }

  std::span<double> flat() noexcept { return data_; }
  std::span<const double> flat() const noexcept { return data_; }

  Matrix transposed() const;

  /// this * other  (dimensions must agree).
  Matrix operator*(const Matrix& other) const;
  Matrix operator+(const Matrix& other) const;
  Matrix operator-(const Matrix& other) const;
  Matrix& operator*=(double s);

  double frobenius_norm() const;
  /// max_ij |a_ij - b_ij|; matrices must have identical shape.
  static double max_abs_diff(const Matrix& a, const Matrix& b);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Euclidean norm of a column of `a`.
double column_norm(const Matrix& a, std::size_t j);

/// Dot product of columns j and k of `a`.
double column_dot(const Matrix& a, std::size_t j, std::size_t k);

}  // namespace rmp::la
