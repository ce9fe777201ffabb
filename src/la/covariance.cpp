#include "la/covariance.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace rmp::la {
namespace {

// Same dispatch-overhead cutoff as the matrix product (see matrix.cpp).
constexpr std::size_t kParallelFlopCutoff = 1u << 15;
// Register tile of the covariance's upper triangle, and the rows it sums
// between loading and storing its accumulators.
constexpr std::size_t kTileJ = 2;
constexpr std::size_t kTileK = 8;
constexpr std::size_t kRowChunk = 64;

// Two doubles in one vector register (GCC/Clang vector extension).
using Pair = double __attribute__((vector_size(16)));
using PairMask = std::int64_t __attribute__((vector_size(16)));

// Every kernel below does c(j, k) += x(i, j) * x(i, k) over rows i in
// [i0, i1), ascending.  A zero x(i, j) adds nothing rather than
// 0 * x(i, k): that keeps a NaN or Inf in column k out of c(j, k) for a
// column j that centred to zeros.  (Masking the product to +0.0 is the
// same as skipping it, because a sum that starts at +0.0 is never -0.0.)

Pair load_pair(const double* p) {
  Pair v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void store_pair(double* p, Pair v) { std::memcpy(p, &v, sizeof(v)); }

// One full kTileJ x kTileK tile, held in registers across the row chunk.
void accumulate_tile(const double* x, std::size_t n, std::size_t i0,
                     std::size_t i1, std::size_t j0, std::size_t k0,
                     double* c) {
  constexpr std::size_t kPairs = kTileK / 2;
  Pair acc[kTileJ][kPairs];
  for (std::size_t a = 0; a < kTileJ; ++a) {
    for (std::size_t b = 0; b < kPairs; ++b) {
      acc[a][b] = load_pair(c + (j0 + a) * n + k0 + 2 * b);
    }
  }
  for (std::size_t i = i0; i < i1; ++i) {
    const double* row = x + i * n;
    Pair rk[kPairs];
    for (std::size_t b = 0; b < kPairs; ++b) {
      rk[b] = load_pair(row + k0 + 2 * b);
    }
    for (std::size_t a = 0; a < kTileJ; ++a) {
      const Pair rj = {row[j0 + a], row[j0 + a]};
      const PairMask keep = rj != Pair{};
      for (std::size_t b = 0; b < kPairs; ++b) {
        acc[a][b] += reinterpret_cast<Pair>(
            reinterpret_cast<PairMask>(rj * rk[b]) & keep);
      }
    }
  }
  for (std::size_t a = 0; a < kTileJ; ++a) {
    for (std::size_t b = 0; b < kPairs; ++b) {
      store_pair(c + (j0 + a) * n + k0 + 2 * b, acc[a][b]);
    }
  }
}

// A tile cut short by the matrix edge: tj rows of tk columns.
void accumulate_edge_tile(const double* x, std::size_t n, std::size_t i0,
                          std::size_t i1, std::size_t j0, std::size_t tj,
                          std::size_t k0, std::size_t tk, double* c) {
  for (std::size_t i = i0; i < i1; ++i) {
    const double* row = x + i * n;
    for (std::size_t j = j0; j < j0 + tj; ++j) {
      const double rj = row[j];
      if (rj == 0.0) continue;
      for (std::size_t k = k0; k < k0 + tk; ++k) c[j * n + k] += rj * row[k];
    }
  }
}

}  // namespace

std::vector<double> column_means(const Matrix& a) {
  std::vector<double> means(a.cols(), 0.0);
  if (a.rows() == 0) return means;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const auto row = a.row(i);
    for (std::size_t j = 0; j < a.cols(); ++j) means[j] += row[j];
  }
  const double inv = 1.0 / static_cast<double>(a.rows());
  for (double& m : means) m *= inv;
  return means;
}

void center_columns(Matrix& a, const std::vector<double>& means) {
  if (means.size() != a.cols()) {
    throw std::invalid_argument("center_columns: means size mismatch");
  }
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const auto row = a.row(i);
    for (std::size_t j = 0; j < a.cols(); ++j) row[j] -= means[j];
  }
}

void uncenter_columns(Matrix& a, const std::vector<double>& means) {
  if (means.size() != a.cols()) {
    throw std::invalid_argument("uncenter_columns: means size mismatch");
  }
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const auto row = a.row(i);
    for (std::size_t j = 0; j < a.cols(); ++j) row[j] += means[j];
  }
}

Matrix centered_covariance(const Matrix& centered) {
  const std::size_t m = centered.rows();
  const std::size_t n = centered.cols();
  Matrix c(n, n);
  const double* x = centered.flat().data();
  double* out = c.flat().data();

  // The upper triangle is cut into kTileJ x kTileK tiles; each task owns a
  // run of tiles and scans the rows in chunks of kRowChunk, so every
  // c(j, k) is summed by one task over i in ascending order -- the same
  // sum at any thread count, and the same as one row at a time.
  const std::size_t tiles_j = (n + kTileJ - 1) / kTileJ;
  const std::size_t tiles_k = (n + kTileK - 1) / kTileK;
  std::vector<std::pair<std::size_t, std::size_t>> tiles;  // (j0, k0)
  for (std::size_t tj = 0; tj < tiles_j; ++tj) {
    for (std::size_t tk = tj * kTileJ / kTileK; tk < tiles_k; ++tk) {
      tiles.emplace_back(tj * kTileJ, tk * kTileK);
    }
  }
  const auto accumulate_tiles = [&](std::size_t t_begin, std::size_t t_end) {
    for (std::size_t i0 = 0; i0 < m; i0 += kRowChunk) {
      const std::size_t i1 = std::min(m, i0 + kRowChunk);
      for (std::size_t t = t_begin; t < t_end; ++t) {
        const auto [j0, k0] = tiles[t];
        if (j0 + kTileJ <= n && k0 + kTileK <= n) {
          accumulate_tile(x, n, i0, i1, j0, k0, out);
        } else {
          accumulate_edge_tile(x, n, i0, i1, j0, std::min(kTileJ, n - j0),
                               k0, std::min(kTileK, n - k0), out);
        }
      }
    }
  };
  if (m * n * n < kParallelFlopCutoff) {
    accumulate_tiles(0, tiles.size());
  } else {
    parallel::parallel_for_ranges(tiles.size(), accumulate_tiles);
  }
  // Diagonal tiles also summed entries below the diagonal; the mirror
  // overwrites them.
  const double inv = 1.0 / static_cast<double>(m > 1 ? m - 1 : 1);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t k = j; k < n; ++k) {
      c(j, k) *= inv;
      c(k, j) = c(j, k);
    }
  }
  return c;
}

Matrix covariance(Matrix a) {
  center_columns(a, column_means(a));
  return centered_covariance(a);
}

}  // namespace rmp::la
