#include "la/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace rmp::la {
namespace {

// The matrix being rotated: n x n, row-major, with a leading dimension
// padded past n.  The rotation's column-pair walk strides by one row; at
// n = 128 an unpadded row is 1024 bytes, so a column maps onto a handful
// of L1 sets and evicts itself.  A stride of an odd number of cache lines
// spreads it over all of them.  The arithmetic is the same at any stride.
struct PaddedSquare {
  std::size_t n;
  std::size_t ld;
  std::vector<double> data;

  explicit PaddedSquare(const Matrix& a)
      : n(a.rows()), ld(padded_stride(a.rows())), data(n * ld, 0.0) {
    for (std::size_t i = 0; i < n; ++i) {
      std::copy(a.row(i).begin(), a.row(i).end(), data.begin() + i * ld);
    }
  }
  static std::size_t padded_stride(std::size_t n) {
    constexpr std::size_t kLine = 64 / sizeof(double);
    const std::size_t lines = (n + kLine - 1) / kLine;
    return (lines % 2 == 0 ? lines + 1 : lines) * kLine;
  }
  double& operator()(std::size_t i, std::size_t j) { return data[i * ld + j]; }
  double operator()(std::size_t i, std::size_t j) const {
    return data[i * ld + j];
  }
};

double off_diagonal_norm(const PaddedSquare& a) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.n; ++i) {
    for (std::size_t j = 0; j < a.n; ++j) {
      if (i != j) sum += a(i, j) * a(i, j);
    }
  }
  return std::sqrt(sum);
}

// One Jacobi rotation zeroing a(p,q); updates A (both sides) and the
// accumulated eigenvector basis.  `vt` holds V transposed, so the V
// column pair (p,q) is two contiguous rows and the accumulation streams
// over cache lines; the A row-pair update is contiguous as well, leaving
// only the strided column-pair walk.  Operand order matches the
// historical code exactly, so the result is bit-identical.
void rotate(PaddedSquare& a, Matrix& vt, std::size_t p, std::size_t q) {
  const double apq = a(p, q);
  if (apq == 0.0) return;
  const double app = a(p, p);
  const double aqq = a(q, q);
  const double tau = (aqq - app) / (2.0 * apq);
  // Smaller-magnitude root of t^2 + 2*tau*t - 1 = 0 for stability.
  const double t = (tau >= 0.0) ? 1.0 / (tau + std::sqrt(1.0 + tau * tau))
                                : 1.0 / (tau - std::sqrt(1.0 + tau * tau));
  const double c = 1.0 / std::sqrt(1.0 + t * t);
  const double s = t * c;

  const std::size_t n = a.n;
  const std::size_t ld = a.ld;
  double* base = a.data.data();
  double* cp = base + p;
  double* cq = base + q;
  for (std::size_t k = 0; k < n; ++k, cp += ld, cq += ld) {
    const double akp = *cp;
    const double akq = *cq;
    *cp = c * akp - s * akq;
    *cq = s * akp + c * akq;
  }
  double* rp = base + p * ld;
  double* rq = base + q * ld;
  for (std::size_t k = 0; k < n; ++k) {
    const double apk = rp[k];
    const double aqk = rq[k];
    rp[k] = c * apk - s * aqk;
    rq[k] = s * apk + c * aqk;
  }
  double* vp = vt.row(p).data();
  double* vq = vt.row(q).data();
  for (std::size_t k = 0; k < n; ++k) {
    const double vkp = vp[k];
    const double vkq = vq[k];
    vp[k] = c * vkp - s * vkq;
    vq[k] = s * vkp + c * vkq;
  }
}

}  // namespace

EigenDecomposition jacobi_eigen(const Matrix& input, const JacobiOptions& opts) {
  if (input.rows() != input.cols()) {
    throw std::invalid_argument("jacobi_eigen: matrix must be square");
  }
  const std::size_t n = input.rows();
  PaddedSquare a(input);
  // V is accumulated transposed (identity is symmetric, so the seed needs
  // no transpose); rotate() updates its column pairs as contiguous rows.
  Matrix vt = Matrix::identity(n);

  const double norm = input.frobenius_norm();
  const double threshold = opts.tolerance * std::max(norm, 1e-300);

  double off = off_diagonal_norm(a);
  for (std::size_t sweep = 0; sweep < opts.max_sweeps && off > threshold;
       ++sweep) {
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        rotate(a, vt, p, q);
      }
    }
    off = off_diagonal_norm(a);
  }

  // Sort eigenpairs by descending eigenvalue.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return a(x, x) > a(y, y); });

  EigenDecomposition out;
  out.converged = off <= threshold;
  out.off_diagonal_residual = off / std::max(norm, 1e-300);
  out.values.resize(n);
  out.vectors = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    out.values[j] = a(order[j], order[j]);
    const double* vrow = vt.row(order[j]).data();
    for (std::size_t i = 0; i < n; ++i) {
      out.vectors(i, j) = vrow[i];
    }
  }
  return out;
}

}  // namespace rmp::la
