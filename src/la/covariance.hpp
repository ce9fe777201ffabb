// Column statistics used by the PCA preconditioner: per-column means and
// the n x n sample covariance of the columns of an m x n data matrix.
#pragma once

#include <vector>

#include "la/matrix.hpp"

namespace rmp::la {

/// Arithmetic mean of each column of `a` (size = a.cols()).
std::vector<double> column_means(const Matrix& a);

/// Subtract `means[j]` from every entry of column j, in place.
void center_columns(Matrix& a, const std::vector<double>& means);

/// Add `means[j]` back onto every entry of column j, in place.
void uncenter_columns(Matrix& a, const std::vector<double>& means);

/// Sample covariance C = X^T X / (m - 1) of an m x n matrix whose columns
/// are already centred.  For m == 1 the divisor falls back to 1.
Matrix centered_covariance(const Matrix& centered);

/// Sample covariance of the columns of `a`: centre them, then
/// centered_covariance.
Matrix covariance(Matrix a);

}  // namespace rmp::la
