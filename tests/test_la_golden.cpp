// Golden pins for the PCA fit's linear algebra.  CRC32s of la::covariance
// and of la::jacobi_eigen (eigenvalues, then the eigenvector matrix) on
// matrices shaped like a 128-column field (full register tiles), like a
// 131-column one (remainder tiles in both directions), on one small enough
// to run serially, on one with constant columns, and on one whose columns
// hold +-Inf and NaN.  A faster kernel must reproduce every bit.
//
// Plus the determinism check: the covariance and a pca+sz archive are
// byte-identical whether the pool has 1, 2 or 4 workers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "io/checksum.hpp"
#include "la/covariance.hpp"
#include "la/eigen.hpp"
#include "parallel/thread_pool.hpp"

namespace rmp::la {
namespace {

double unit(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) / 9007199254740992.0 - 0.5;
}

// m x n matrix from four latent factors plus a little noise, so the
// covariance spectrum decays the way a simulation field's does.  Only
// +, * and the generator: no libm, so the bits do not depend on it.
Matrix latent_matrix(std::size_t m, std::size_t n, std::uint64_t seed) {
  constexpr std::size_t kFactors = 4;
  std::mt19937_64 rng(seed);
  std::vector<double> loading(kFactors * n);
  for (double& l : loading) l = unit(rng);
  Matrix a(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    double factor[kFactors];
    for (std::size_t f = 0; f < kFactors; ++f) {
      factor[f] = unit(rng) * static_cast<double>(16 >> f);
    }
    for (std::size_t j = 0; j < n; ++j) {
      double v = 3.0 + 1e-3 * unit(rng);
      for (std::size_t f = 0; f < kFactors; ++f) {
        v += factor[f] * loading[f * n + j];
      }
      a(i, j) = v;
    }
  }
  return a;
}

// Columns 0 and 9 are 0.0, column 5 is 0.75 (the row count is a power of
// two, so its mean is exact and it centres to exact zeros).
Matrix constant_columns() {
  Matrix a = latent_matrix(512, 24, 3);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    a(i, 0) = 0.0;
    a(i, 5) = 0.75;
    a(i, 9) = 0.0;
  }
  return a;
}

// Constant columns on both sides of columns holding +Inf, -Inf and NaN:
// the covariance's zero-skip decides whether 0 * Inf reaches a sum.
Matrix nonfinite_columns() {
  Matrix a = latent_matrix(300, 40, 4);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    a(i, 2) = 0.0;
    a(i, 31) = 1.5;
  }
  a(17, 7) = std::numeric_limits<double>::infinity();
  a(250, 11) = -std::numeric_limits<double>::infinity();
  a(3, 20) = std::numeric_limits<double>::quiet_NaN();
  a(123, 20) = std::numeric_limits<double>::infinity();
  return a;
}

std::uint32_t crc_of(std::span<const double> values) {
  return io::crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(values.data()),
      values.size_bytes()));
}

std::uint32_t eigen_crc(const Matrix& c) {
  const EigenDecomposition eig = jacobi_eigen(c);
  std::vector<double> raw(eig.values);
  raw.insert(raw.end(), eig.vectors.flat().begin(), eig.vectors.flat().end());
  return crc_of(raw);
}

std::string hex(std::uint32_t value) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%08Xu", value);
  return buf;
}

struct NamedMatrix {
  const char* name;
  Matrix a;
};

std::vector<NamedMatrix> pinned_matrices() {
  return {{"latent4096x128", latent_matrix(4096, 128, 1)},
          {"latent1000x131", latent_matrix(1000, 131, 2)},
          {"latent37x13", latent_matrix(37, 13, 5)},
          {"constant512x24", constant_columns()},
          {"nonfinite300x40", nonfinite_columns()}};
}

// Captured from the row-at-a-time covariance and the unpadded Jacobi
// sweep.  The eigen CRC of the non-finite matrix is not pinned: its
// covariance holds NaNs, which Jacobi neither rotates nor orders.
struct LaPin {
  const char* name;
  std::uint32_t covariance;
  std::uint32_t eigen;
};

constexpr LaPin kLaPins[] = {
    {"latent4096x128", 0xD0B8A8F5u, 0xAD040C5Bu},
    {"latent1000x131", 0x965D53AFu, 0xEB6F9C5Fu},
    {"latent37x13", 0x79B52210u, 0xA4A8729Cu},
    {"constant512x24", 0x92331B7Au, 0xE6504EA3u},
    {"nonfinite300x40", 0x38F85AFCu, 0x00000000u},
};

TEST(LaGolden, CovarianceAndEigenArePinned) {
  const auto matrices = pinned_matrices();
  ASSERT_EQ(matrices.size(), std::size(kLaPins));
  for (std::size_t p = 0; p < matrices.size(); ++p) {
    const LaPin& pin = kLaPins[p];
    ASSERT_STREQ(matrices[p].name, pin.name);
    const Matrix c = covariance(matrices[p].a);
    const bool finite = std::string(pin.name) != "nonfinite300x40";
    const std::uint32_t eig = finite ? eigen_crc(c) : 0u;
    const std::string row = std::string("{\"") + pin.name + "\", " +
                            hex(crc_of(c.flat())) + ", " + hex(eig) + "},";
    EXPECT_EQ(crc_of(c.flat()), pin.covariance) << row;
    EXPECT_EQ(eig, pin.eigen) << row;
  }
}

TEST(LaGolden, SameBytesAtOneTwoAndFourWorkers) {
  const Matrix a = latent_matrix(4096, 128, 1);
  sim::Field field(40, 40, 64);
  {
    const Matrix f = latent_matrix(40 * 40, 64, 6);
    std::copy(f.flat().begin(), f.flat().end(), field.flat().begin());
  }
  const core::Codecs codecs = core::make_codecs("sz");
  const auto pca = core::make_preconditioner("pca");

  std::vector<std::uint32_t> covariance_crcs;
  std::vector<std::vector<std::uint8_t>> archives;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    parallel::ThreadPool pool(workers);
    const parallel::ScopedPoolOverride use(pool);
    covariance_crcs.push_back(crc_of(covariance(a).flat()));
    archives.push_back(io::serialize(pca->encode(field, codecs.pair())));
  }
  for (std::size_t w = 1; w < archives.size(); ++w) {
    EXPECT_EQ(covariance_crcs[w], covariance_crcs[0]) << "pool " << w;
    EXPECT_EQ(archives[w], archives[0]) << "pool " << w;
  }
  EXPECT_EQ(covariance_crcs[0], kLaPins[0].covariance);
  EXPECT_EQ(archives[0].size(), 179065u);
  EXPECT_EQ(io::crc32(archives[0]), 0x6D46B687u) << hex(io::crc32(archives[0]));
}

}  // namespace
}  // namespace rmp::la
