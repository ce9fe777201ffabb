#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "la/covariance.hpp"
#include "la/eigen.hpp"
#include "la/matrix.hpp"
#include "la/sparse.hpp"
#include "la/svd.hpp"

namespace rmp::la {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, unsigned seed) {
  std::mt19937 rng(seed);
  std::normal_distribution<double> dist(0.0, 1.0);
  Matrix m(rows, cols);
  for (double& v : m.flat()) v = dist(rng);
  return m;
}

TEST(Matrix, IdentityMultiply) {
  const Matrix a = random_matrix(5, 5, 1);
  const Matrix i = Matrix::identity(5);
  EXPECT_LT(Matrix::max_abs_diff(a * i, a), 1e-15);
  EXPECT_LT(Matrix::max_abs_diff(i * a, a), 1e-15);
}

TEST(Matrix, TransposeInvolution) {
  const Matrix a = random_matrix(4, 7, 2);
  EXPECT_LT(Matrix::max_abs_diff(a.transposed().transposed(), a), 1e-15);
}

TEST(Matrix, MultiplyShapes) {
  const Matrix a = random_matrix(3, 4, 3);
  const Matrix b = random_matrix(4, 5, 4);
  const Matrix c = a * b;
  EXPECT_EQ(c.rows(), 3u);
  EXPECT_EQ(c.cols(), 5u);
  EXPECT_THROW(b * a, std::invalid_argument);
}

TEST(Matrix, KnownProduct) {
  Matrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 3; a(1, 1) = 4;
  Matrix b(2, 2);
  b(0, 0) = 5; b(0, 1) = 6; b(1, 0) = 7; b(1, 1) = 8;
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(Matrix, AddSubtract) {
  const Matrix a = random_matrix(3, 3, 5);
  const Matrix b = random_matrix(3, 3, 6);
  EXPECT_LT(Matrix::max_abs_diff((a + b) - b, a), 1e-14);
}

TEST(Eigen, DiagonalMatrix) {
  Matrix a(3, 3);
  a(0, 0) = 3.0;
  a(1, 1) = 1.0;
  a(2, 2) = 2.0;
  const auto eig = jacobi_eigen(a);
  EXPECT_NEAR(eig.values[0], 3.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 2.0, 1e-12);
  EXPECT_NEAR(eig.values[2], 1.0, 1e-12);
}

TEST(Eigen, Known2x2) {
  // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
  Matrix a(2, 2);
  a(0, 0) = 2; a(0, 1) = 1; a(1, 0) = 1; a(1, 1) = 2;
  const auto eig = jacobi_eigen(a);
  EXPECT_NEAR(eig.values[0], 3.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 1.0, 1e-12);
}

TEST(Eigen, ReconstructsMatrix) {
  // A = V diag(values) V^T must reproduce the input.
  Matrix sym(6, 6);
  const Matrix r = random_matrix(6, 6, 7);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      sym(i, j) = 0.5 * (r(i, j) + r(j, i));
    }
  }
  const auto eig = jacobi_eigen(sym);
  Matrix d(6, 6);
  for (std::size_t i = 0; i < 6; ++i) d(i, i) = eig.values[i];
  const Matrix rebuilt = eig.vectors * d * eig.vectors.transposed();
  EXPECT_LT(Matrix::max_abs_diff(rebuilt, sym), 1e-10);
}

TEST(Eigen, VectorsAreOrthonormal) {
  Matrix sym(8, 8);
  const Matrix r = random_matrix(8, 8, 8);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      sym(i, j) = 0.5 * (r(i, j) + r(j, i));
    }
  }
  const auto eig = jacobi_eigen(sym);
  const Matrix vtv = eig.vectors.transposed() * eig.vectors;
  EXPECT_LT(Matrix::max_abs_diff(vtv, Matrix::identity(8)), 1e-10);
}

TEST(Eigen, RejectsNonSquare) {
  EXPECT_THROW(jacobi_eigen(Matrix(2, 3)), std::invalid_argument);
}

TEST(Svd, ReconstructsTallMatrix) {
  const Matrix a = random_matrix(20, 6, 9);
  const auto svd = jacobi_svd(a);
  EXPECT_LT(Matrix::max_abs_diff(svd_reconstruct(svd), a), 1e-10);
}

TEST(Svd, ReconstructsWideMatrix) {
  const Matrix a = random_matrix(5, 12, 10);
  const auto svd = jacobi_svd(a);
  EXPECT_TRUE(svd.transposed);
  EXPECT_LT(Matrix::max_abs_diff(svd_reconstruct(svd), a), 1e-10);
}

TEST(Svd, SingularValuesSortedNonNegative) {
  const Matrix a = random_matrix(15, 7, 11);
  const auto svd = jacobi_svd(a);
  for (std::size_t i = 0; i + 1 < svd.sigma.size(); ++i) {
    EXPECT_GE(svd.sigma[i], svd.sigma[i + 1]);
  }
  for (double s : svd.sigma) EXPECT_GE(s, 0.0);
}

TEST(Svd, UOrthonormalColumns) {
  const Matrix a = random_matrix(12, 5, 12);
  const auto svd = jacobi_svd(a);
  const Matrix utu = svd.u.transposed() * svd.u;
  EXPECT_LT(Matrix::max_abs_diff(utu, Matrix::identity(5)), 1e-10);
}

TEST(Svd, KnownRankOne) {
  // Outer product u v^T has exactly one non-zero singular value.
  Matrix a(4, 3);
  const double u[4] = {1, 2, 3, 4};
  const double v[3] = {1, 0, -1};
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 3; ++j) a(i, j) = u[i] * v[j];
  }
  const auto svd = jacobi_svd(a);
  EXPECT_GT(svd.sigma[0], 1.0);
  EXPECT_NEAR(svd.sigma[1], 0.0, 1e-10);
  EXPECT_NEAR(svd.sigma[2], 0.0, 1e-10);
  EXPECT_LT(Matrix::max_abs_diff(svd_reconstruct(svd, 1), a), 1e-10);
}

TEST(Svd, TruncationErrorBoundedBySigma) {
  const Matrix a = random_matrix(30, 8, 13);
  const auto svd = jacobi_svd(a);
  for (std::size_t k = 1; k <= 8; ++k) {
    const Matrix approx = svd_reconstruct(svd, k);
    double frob = (a - approx).frobenius_norm();
    double tail = 0.0;
    for (std::size_t i = k; i < svd.sigma.size(); ++i) {
      tail += svd.sigma[i] * svd.sigma[i];
    }
    EXPECT_NEAR(frob, std::sqrt(tail), 1e-8) << "k=" << k;
  }
}

TEST(Covariance, MeansAndCentering) {
  Matrix a(4, 2);
  a(0, 0) = 1; a(1, 0) = 2; a(2, 0) = 3; a(3, 0) = 4;
  a(0, 1) = 10; a(1, 1) = 10; a(2, 1) = 10; a(3, 1) = 10;
  const auto means = column_means(a);
  EXPECT_DOUBLE_EQ(means[0], 2.5);
  EXPECT_DOUBLE_EQ(means[1], 10.0);

  Matrix c = a;
  center_columns(c, means);
  const auto centered_means = column_means(c);
  EXPECT_NEAR(centered_means[0], 0.0, 1e-15);
  uncenter_columns(c, means);
  EXPECT_LT(Matrix::max_abs_diff(c, a), 1e-15);
}

TEST(Covariance, KnownValues) {
  // Two perfectly correlated columns.
  Matrix a(3, 2);
  a(0, 0) = 1; a(0, 1) = 2;
  a(1, 0) = 2; a(1, 1) = 4;
  a(2, 0) = 3; a(2, 1) = 6;
  const Matrix c = covariance(a);
  EXPECT_NEAR(c(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(c(0, 1), 2.0, 1e-12);
  EXPECT_NEAR(c(1, 1), 4.0, 1e-12);
  EXPECT_NEAR(c(0, 1), c(1, 0), 1e-15);
}

TEST(Sparse, DenseRoundTrip) {
  Matrix a(5, 7);
  a(0, 0) = 1.5;
  a(2, 3) = -2.5;
  a(4, 6) = 1e-12;
  const CsrMatrix csr = CsrMatrix::from_dense(a);
  EXPECT_EQ(csr.nnz(), 3u);
  EXPECT_LT(Matrix::max_abs_diff(csr.to_dense(), a), 0.0 + 1e-300);
}

TEST(Sparse, ThresholdDropsSmallEntries) {
  Matrix a(2, 2);
  a(0, 0) = 0.5;
  a(1, 1) = 0.01;
  const CsrMatrix csr = CsrMatrix::from_dense(a, 0.1);
  EXPECT_EQ(csr.nnz(), 1u);
  EXPECT_DOUBLE_EQ(csr.to_dense()(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(csr.to_dense()(1, 1), 0.0);
}

TEST(Sparse, StorageBytesAccounting) {
  Matrix a(4, 4);
  a(1, 1) = 2.0;
  a(2, 2) = 3.0;
  const CsrMatrix csr = CsrMatrix::from_dense(a);
  // 2 values (8B) + 2 col indices (4B) + 5 row offsets (8B).
  EXPECT_EQ(csr.storage_bytes(), 2 * 8 + 2 * 4 + 5 * 8u);
}

}  // namespace
}  // namespace rmp::la
