#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "core/blocked.hpp"
#include "core/identity.hpp"
#include "core/pca.hpp"
#include "core/projection.hpp"
#include "core/reshape.hpp"
#include "core/svd_precond.hpp"
#include "core/wavelet_precond.hpp"
#include "sim/heat.hpp"
#include "stats/metrics.hpp"

namespace rmp::core {
namespace {

sim::Field smooth_3d_field(std::size_t n) {
  sim::Field f(n, n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t k = 0; k < n; ++k) {
        const double x = static_cast<double>(i) / static_cast<double>(n);
        const double y = static_cast<double>(j) / static_cast<double>(n);
        const double z = static_cast<double>(k) / static_cast<double>(n);
        f.at(i, j, k) = 10.0 * std::sin(3 * x) * std::cos(2 * y) +
                        z * z + 0.5 * x * y;
      }
    }
  }
  return f;
}

double round_trip_rmse(const Preconditioner& p, const sim::Field& f,
                       const CodecPair& codecs) {
  const auto container = p.encode(f, codecs, nullptr);
  const auto decoded = p.decode(container, codecs, nullptr);
  return stats::rmse(f.flat(), decoded.flat());
}

TEST(Reshape, CanonicalShapes) {
  EXPECT_EQ(matrix_shape(sim::Field(4, 5, 6)),
            (std::pair<std::size_t, std::size_t>{20, 6}));
  EXPECT_EQ(matrix_shape(sim::Field(4, 5, 1)),
            (std::pair<std::size_t, std::size_t>{4, 5}));
  EXPECT_EQ(matrix_shape(sim::Field(12, 1, 1)),
            (std::pair<std::size_t, std::size_t>{4, 3}));
}

TEST(Reshape, NearSquareFactors) {
  EXPECT_EQ(near_square_factors(16),
            (std::pair<std::size_t, std::size_t>{4, 4}));
  EXPECT_EQ(near_square_factors(12),
            (std::pair<std::size_t, std::size_t>{4, 3}));
  EXPECT_EQ(near_square_factors(13),
            (std::pair<std::size_t, std::size_t>{13, 1}));  // prime
}

TEST(Reshape, MatrixFieldRoundTrip) {
  const sim::Field f = smooth_3d_field(6);
  const la::Matrix m = as_matrix(f);
  const sim::Field back = matrix_to_field(m, 6, 6, 6);
  for (std::size_t n = 0; n < f.size(); ++n) {
    ASSERT_EQ(back.flat()[n], f.flat()[n]);
  }
}

TEST(Identity, RoundTripWithinCodecError) {
  const Codecs codecs = make_codecs("zfp");
  IdentityPreconditioner p;
  const sim::Field f = smooth_3d_field(12);
  EXPECT_LT(round_trip_rmse(p, f, codecs.pair()), 1e-2);
}

TEST(OneBase, RoundTripWithinError) {
  const Codecs codecs = make_codecs("zfp");
  OneBasePreconditioner p;
  const sim::Field f = smooth_3d_field(12);
  EXPECT_LT(round_trip_rmse(p, f, codecs.pair()), 5e-2);
}

TEST(OneBase, Rejects1dField) {
  const Codecs codecs = make_codecs("zfp");
  OneBasePreconditioner p;
  const sim::Field f(64, 1, 1);
  EXPECT_THROW(p.encode(f, codecs.pair(), nullptr), std::invalid_argument);
}

TEST(OneBase, BeatsIdentityOnZSimilarData) {
  // The Heat3d story: z-symmetric data makes the delta highly
  // compressible, so one-base should beat direct compression.
  sim::HeatConfig config;
  config.n = 16;
  config.steps = 150;
  const sim::Field f = sim::heat3d_run(config);

  const Codecs codecs = make_codecs("zfp");
  EncodeStats identity_stats, onebase_stats;
  IdentityPreconditioner().encode(f, codecs.pair(), &identity_stats);
  OneBasePreconditioner().encode(f, codecs.pair(), &onebase_stats);
  EXPECT_GT(onebase_stats.compression_ratio,
            identity_stats.compression_ratio);
}

TEST(MultiBase, RoundTripWithinError) {
  const Codecs codecs = make_codecs("zfp");
  MultiBasePreconditioner p(4);
  const sim::Field f = smooth_3d_field(12);
  EXPECT_LT(round_trip_rmse(p, f, codecs.pair()), 5e-2);
}

TEST(MultiBase, StoresMorePlanesThanOneBase) {
  const Codecs codecs = make_codecs("zfp");
  const sim::Field f = smooth_3d_field(16);
  EncodeStats one, multi;
  OneBasePreconditioner().encode(f, codecs.pair(), &one);
  MultiBasePreconditioner(4).encode(f, codecs.pair(), &multi);
  EXPECT_GT(multi.reduced_bytes, one.reduced_bytes);
}

TEST(MultiBase, RejectsZeroSlabs) {
  EXPECT_THROW(MultiBasePreconditioner(0), std::invalid_argument);
}

TEST(DuoModel, RoundTripStoredReduced) {
  const Codecs codecs = make_codecs("zfp");
  DuoModelPreconditioner p(2, /*store_reduced=*/true);
  const sim::Field f = smooth_3d_field(12);
  // The 8-bit delta codec dominates the residual; 0.1 is ~1% of range.
  EXPECT_LT(round_trip_rmse(p, f, codecs.pair()), 0.1);
}

TEST(DuoModel, UnstoredReducedNeedsExternalField) {
  const Codecs codecs = make_codecs("zfp");
  DuoModelPreconditioner p(2, /*store_reduced=*/false);
  const sim::Field f = smooth_3d_field(12);
  const auto container = p.encode(f, codecs.pair(), nullptr);
  EXPECT_THROW(p.decode(container, codecs.pair(), nullptr),
               std::invalid_argument);

  const sim::Field reduced = p.make_reduced(f);
  const auto decoded = p.decode(container, codecs.pair(), &reduced);
  EXPECT_LT(stats::rmse(f.flat(), decoded.flat()), 0.1);
}

TEST(DuoModel, RejectsWrongExternalShape) {
  const Codecs codecs = make_codecs("zfp");
  DuoModelPreconditioner p(2, false);
  const sim::Field f = smooth_3d_field(12);
  const auto container = p.encode(f, codecs.pair(), nullptr);
  const sim::Field wrong(3, 3, 3);
  EXPECT_THROW(p.decode(container, codecs.pair(), &wrong),
               std::invalid_argument);
}

TEST(Pca, VarianceProportionsSumToOne) {
  const sim::Field f = smooth_3d_field(10);
  const auto proportions = pca_variance_proportions(f);
  double sum = 0;
  for (double p : proportions) {
    EXPECT_GE(p, 0.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // Descending order.
  for (std::size_t i = 1; i < proportions.size(); ++i) {
    EXPECT_GE(proportions[i - 1], proportions[i] - 1e-12);
  }
}

TEST(Pca, ComponentsForTarget) {
  EXPECT_EQ(components_for_target({0.9, 0.06, 0.04}, 0.95), 2u);
  EXPECT_EQ(components_for_target({0.5, 0.3, 0.2}, 0.95), 3u);
  EXPECT_EQ(components_for_target({1.0}, 0.95), 1u);
  EXPECT_EQ(components_for_target({}, 0.95), 0u);
}

TEST(Pca, RoundTripWithinError) {
  const Codecs codecs = make_codecs("zfp");
  PcaPreconditioner p;
  const sim::Field f = smooth_3d_field(12);
  EXPECT_LT(round_trip_rmse(p, f, codecs.pair()), 0.5);
}

TEST(Pca, WorksOn1dAnd2dFields) {
  const Codecs codecs = make_codecs("zfp");
  PcaPreconditioner p;
  sim::Field f1(64, 1, 1);
  for (std::size_t i = 0; i < 64; ++i) {
    f1.at(i) = std::sin(0.2 * static_cast<double>(i));
  }
  EXPECT_LT(round_trip_rmse(p, f1, codecs.pair()), 0.5);

  sim::Field f2(16, 16, 1);
  for (std::size_t i = 0; i < 16; ++i) {
    for (std::size_t j = 0; j < 16; ++j) {
      f2.at(i, j) = static_cast<double>(i) + 2.0 * static_cast<double>(j);
    }
  }
  EXPECT_LT(round_trip_rmse(p, f2, codecs.pair()), 0.5);
}

TEST(Pca, DeltaAgainstDecodedReducesRmse) {
  // Ablation: computing the delta against the decoded scores must not
  // increase the round-trip error (it cancels reduced-rep loss).
  const Codecs codecs = make_codecs("zfp");
  const sim::Field f = smooth_3d_field(12);
  PcaPreconditioner clean({0.95, false});
  PcaPreconditioner decoded({0.95, true});
  EXPECT_LE(round_trip_rmse(decoded, f, codecs.pair()),
            round_trip_rmse(clean, f, codecs.pair()) * 1.5 + 1e-12);
}

TEST(Pca, LowRankDataNeedsFewComponents) {
  // Rank-2 data: 95% of variance in <= 2 components.
  sim::Field f(32, 32, 1);
  for (std::size_t i = 0; i < 32; ++i) {
    for (std::size_t j = 0; j < 32; ++j) {
      f.at(i, j) = 3.0 * std::sin(0.3 * static_cast<double>(i)) +
                   2.0 * static_cast<double>(j) / 32.0;
    }
  }
  const auto proportions = pca_variance_proportions(f);
  EXPECT_LE(components_for_target(proportions, 0.95), 2u);
}

TEST(Pca, RowWiseReconstructionMatchesTheMatrixProductBitForBit) {
  // combine_pca_reconstruction must give the bits of forming
  // scores * basis^T + means first and then subtracting or adding it,
  // zero scores (skipped by the product) and -0.0 values included.
  const std::size_t m = 401, n = 11, k = 3;  // enough cells to run parallel
  la::Matrix scores(m, k), basis(n, k);
  std::vector<double> means(n), values(m * n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t c = 0; c < k; ++c) {
      scores(i, c) = (i + c) % 5 == 0 ? 0.0 : std::sin(1.3 * i + 0.7 * c);
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t c = 0; c < k; ++c) basis(j, c) = std::cos(0.9 * j - c);
    means[j] = j % 3 == 0 ? 0.0 : 0.25 * static_cast<double>(j);
  }
  for (std::size_t e = 0; e < values.size(); ++e) {
    values[e] = e % 7 == 0 ? -0.0 : std::tan(0.01 * static_cast<double>(e));
  }
  la::Matrix reconstruction = scores * basis.transposed();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) reconstruction(i, j) += means[j];
  }
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };

  std::vector<double> delta(values.size());
  combine_pca_reconstruction(values, delta, scores, basis, means,
                             Combine::kSubtract);
  std::vector<double> sum = values;
  combine_pca_reconstruction(sum, sum, scores, basis, means, Combine::kAdd);
  for (std::size_t e = 0; e < values.size(); ++e) {
    ASSERT_EQ(bits(delta[e]), bits(values[e] - reconstruction.flat()[e])) << e;
    ASSERT_EQ(bits(sum[e]), bits(values[e] + reconstruction.flat()[e])) << e;
  }

  EXPECT_THROW(combine_pca_reconstruction(values, delta, scores,
                                          la::Matrix(n, k + 1), means,
                                          Combine::kAdd),
               std::invalid_argument);
  EXPECT_THROW(combine_pca_reconstruction(values, delta, scores, basis,
                                          std::vector<double>(n + 1),
                                          Combine::kAdd),
               std::invalid_argument);
  EXPECT_THROW(combine_pca_reconstruction(
                   std::span<const double>(values).first(m * n - 1),
                   std::span<double>(delta).first(m * n - 1), scores, basis,
                   means, Combine::kAdd),
               std::invalid_argument);
}

TEST(Svd, SingularProportionsSumToOne) {
  const sim::Field f = smooth_3d_field(10);
  const auto proportions = svd_singular_proportions(f);
  double sum = 0;
  for (double p : proportions) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Svd, RoundTripWithinError) {
  const Codecs codecs = make_codecs("zfp");
  SvdPreconditioner p;
  const sim::Field f = smooth_3d_field(12);
  EXPECT_LT(round_trip_rmse(p, f, codecs.pair()), 0.5);
}

TEST(Svd, HandlesWideMatrix) {
  const Codecs codecs = make_codecs("zfp");
  SvdPreconditioner p;
  // 2D field with nx < ny forces the transposed SVD path.
  sim::Field f(8, 24, 1);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 24; ++j) {
      f.at(i, j) = std::cos(0.2 * static_cast<double>(i + j));
    }
  }
  EXPECT_LT(round_trip_rmse(p, f, codecs.pair()), 0.5);
}

TEST(Wavelet, RoundTripWithinError) {
  const Codecs codecs = make_codecs("zfp");
  WaveletPreconditioner p;
  const sim::Field f = smooth_3d_field(12);
  EXPECT_LT(round_trip_rmse(p, f, codecs.pair()), 0.5);
}

TEST(Wavelet, ThresholdZeroIsNearExactReducedModel) {
  const Codecs codecs = make_codecs("zfp");
  WaveletPreconditioner p({0.0});
  const sim::Field f = smooth_3d_field(8);
  // theta = 0 keeps all coefficients: reconstruction error comes only
  // from the delta codec.
  EXPECT_LT(round_trip_rmse(p, f, codecs.pair()), 1e-2);
}

TEST(Wavelet, RejectsBadThreshold) {
  EXPECT_THROW(WaveletPreconditioner({-0.1}), std::invalid_argument);
  EXPECT_THROW(WaveletPreconditioner({1.0}), std::invalid_argument);
}

TEST(PartitionedPca, RoundTripWithinError) {
  const Codecs codecs = make_codecs("zfp");
  BlockedPreconditioner p("pca", 4);
  const sim::Field f = smooth_3d_field(12);
  EXPECT_LT(round_trip_rmse(p, f, codecs.pair()), 0.5);
}

TEST(PartitionedPca, SinglePartitionMatchesPcaClosely) {
  const Codecs codecs = make_codecs("zfp");
  const sim::Field f = smooth_3d_field(10);
  const double whole = round_trip_rmse(PcaPreconditioner(), f, codecs.pair());
  const double part =
      round_trip_rmse(BlockedPreconditioner("pca", 1), f, codecs.pair());
  EXPECT_NEAR(part, whole, std::max(whole, part) * 0.5 + 1e-9);
}

TEST(Registry, AllNamesConstructAndMatch) {
  for (const auto& name : preconditioner_names()) {
    const auto p = make_preconditioner(name);
    EXPECT_EQ(p->name(), name);
  }
  EXPECT_THROW(make_preconditioner("nonsense"), std::invalid_argument);
}

TEST(Stats, AccountingIsConsistent) {
  const Codecs codecs = make_codecs("zfp");
  EncodeStats stats;
  const sim::Field f = smooth_3d_field(12);
  PcaPreconditioner().encode(f, codecs.pair(), &stats);
  EXPECT_EQ(stats.original_bytes, f.size() * sizeof(double));
  EXPECT_GT(stats.total_bytes, 0u);
  EXPECT_GE(stats.total_bytes, stats.reduced_bytes + stats.delta_bytes);
  EXPECT_NEAR(stats.compression_ratio,
              static_cast<double>(stats.original_bytes) /
                  static_cast<double>(stats.total_bytes),
              1e-9);
}

}  // namespace
}  // namespace rmp::core
