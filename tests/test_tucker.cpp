#include "core/tucker.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/pca.hpp"
#include "sim/heat.hpp"
#include "stats/metrics.hpp"

namespace rmp::core {
namespace {

sim::Field separable_field(std::size_t n) {
  // A rank-(1,1,1) tensor: f(i,j,k) = a(i) b(j) c(k).  Tucker must
  // capture it with per-mode rank 1.
  sim::Field f(n, n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t k = 0; k < n; ++k) {
        f.at(i, j, k) = std::sin(0.4 * static_cast<double>(i) + 0.3) *
                        (1.0 + 0.1 * static_cast<double>(j)) *
                        std::cos(0.2 * static_cast<double>(k));
      }
    }
  }
  return f;
}

sim::Field heat_field() {
  sim::HeatConfig config;
  config.n = 14;
  config.steps = 100;
  return sim::heat3d_run(config);
}

TEST(Tucker, ModeProportionsSumToOne) {
  const auto proportions = tucker_mode_proportions(separable_field(10));
  ASSERT_EQ(proportions.size(), 3u);
  for (const auto& mode : proportions) {
    double sum = 0;
    for (double p : mode) {
      EXPECT_GE(p, -1e-12);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(Tucker, SeparableFieldIsRankOnePerMode) {
  const auto proportions = tucker_mode_proportions(separable_field(10));
  for (const auto& mode : proportions) {
    EXPECT_GT(mode.front(), 0.95);
  }
}

TEST(Tucker, RoundTripSeparableField) {
  const Codecs codecs = make_codecs("zfp");
  TuckerPreconditioner tucker;
  const sim::Field f = separable_field(12);
  EncodeStats stats;
  const auto container = tucker.encode(f, codecs.pair(), &stats);
  const auto decoded = tucker.decode(container, codecs.pair(), nullptr);
  EXPECT_LT(stats::rmse(f.flat(), decoded.flat()), 1e-2);
  // Rank-1 core: the reduced representation should be tiny.
  EXPECT_LT(stats.reduced_bytes, f.size() * sizeof(double) / 10);
}

TEST(Tucker, RoundTripHeatField) {
  const Codecs codecs = make_codecs("zfp");
  TuckerPreconditioner tucker;
  const sim::Field f = heat_field();
  const auto container = tucker.encode(f, codecs.pair(), nullptr);
  const auto decoded = tucker.decode(container, codecs.pair(), nullptr);
  EXPECT_LT(stats::rmse(f.flat(), decoded.flat()), 1.0);
}

TEST(Tucker, WorksOn2dField) {
  const Codecs codecs = make_codecs("zfp");
  TuckerPreconditioner tucker;
  sim::Field f(20, 16, 1);
  for (std::size_t i = 0; i < 20; ++i) {
    for (std::size_t j = 0; j < 16; ++j) {
      f.at(i, j) = static_cast<double>(i) * 0.5 +
                   std::sin(0.2 * static_cast<double>(j));
    }
  }
  const auto container = tucker.encode(f, codecs.pair(), nullptr);
  const auto decoded = tucker.decode(container, codecs.pair(), nullptr);
  EXPECT_LT(stats::rmse(f.flat(), decoded.flat()), 0.1);
}

TEST(Tucker, WorksOn1dFieldViaCanonicalShape) {
  const Codecs codecs = make_codecs("zfp");
  TuckerPreconditioner tucker;
  sim::Field f(144, 1, 1);
  for (std::size_t i = 0; i < 144; ++i) {
    f.at(i) = std::sin(0.1 * static_cast<double>(i));
  }
  const auto container = tucker.encode(f, codecs.pair(), nullptr);
  const auto decoded = tucker.decode(container, codecs.pair(), nullptr);
  EXPECT_LT(stats::rmse(f.flat(), decoded.flat()), 0.1);
}

TEST(Tucker, RegistryKnowsIt) {
  const auto p = make_preconditioner("tucker");
  EXPECT_EQ(p->name(), "tucker");
}

TEST(Tucker, HigherEnergyTargetKeepsMore) {
  const Codecs codecs = make_codecs("zfp");
  const sim::Field f = heat_field();
  EncodeStats low, high;
  TuckerPreconditioner({0.80}).encode(f, codecs.pair(), &low);
  TuckerPreconditioner({0.999}).encode(f, codecs.pair(), &high);
  EXPECT_GE(high.reduced_bytes, low.reduced_bytes);
}

TEST(Tucker, RejectsBadTarget) {
  EXPECT_THROW(TuckerPreconditioner({0.0}), std::invalid_argument);
  EXPECT_THROW(TuckerPreconditioner({1.5}), std::invalid_argument);
}

}  // namespace
}  // namespace rmp::core
