#include "core/blocked.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/pipeline.hpp"
#include "sim/heat.hpp"
#include "stats/metrics.hpp"

namespace rmp::core {
namespace {

sim::Field heat_field() {
  sim::HeatConfig config;
  config.n = 14;
  config.steps = 100;
  config.hot_center_z = 0.6;
  return sim::heat3d_run(config);
}

class BlockedInnerSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(BlockedInnerSweep, RoundTripWithinError) {
  const Codecs codecs = make_codecs("zfp");
  BlockedPreconditioner blocked(GetParam(), 4);
  const sim::Field f = heat_field();
  const auto container = blocked.encode(f, codecs.pair(), nullptr);
  const auto decoded = blocked.decode(container, codecs.pair(), nullptr);
  EXPECT_LT(stats::rmse(f.flat(), decoded.flat()), 1.0) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Inners, BlockedInnerSweep,
                         ::testing::Values("identity", "pca", "svd",
                                           "wavelet", "tucker"));

TEST(Blocked, RegistryDispatch) {
  const Codecs codecs = make_codecs("zfp");
  const sim::Field f = heat_field();
  const auto blocked = make_preconditioner("blocked-svd");
  EXPECT_EQ(blocked->name(), "blocked-svd");
  const auto container = blocked->encode(f, codecs.pair(), nullptr);
  const sim::Field decoded = reconstruct(container, codecs.pair());
  EXPECT_LT(stats::rmse(f.flat(), decoded.flat()), 1.0);
}

TEST(Blocked, PartitionCountClampedToRows) {
  const Codecs codecs = make_codecs("zfp");
  BlockedPreconditioner blocked("identity", 1000);
  sim::Field tiny(6, 4, 1);
  for (std::size_t n = 0; n < tiny.size(); ++n) {
    tiny.flat()[n] = static_cast<double>(n);
  }
  const auto container = blocked.encode(tiny, codecs.pair(), nullptr);
  const auto decoded = blocked.decode(container, codecs.pair(), nullptr);
  EXPECT_LT(stats::max_abs_error(tiny.flat(), decoded.flat()), 1e-3);
}

TEST(Blocked, StatsAggregateAcrossBlocks) {
  const Codecs codecs = make_codecs("zfp");
  BlockedPreconditioner blocked("svd", 3);
  EncodeStats stats;
  blocked.encode(heat_field(), codecs.pair(), &stats);
  EXPECT_GT(stats.reduced_bytes, 0u);
  EXPECT_GT(stats.delta_bytes, 0u);
  EXPECT_GT(stats.compression_ratio, 1.0);
}

TEST(Blocked, RejectsNesting) {
  EXPECT_THROW(BlockedPreconditioner("blocked-pca", 2),
               std::invalid_argument);
  EXPECT_THROW(BlockedPreconditioner("pca>svd", 2), std::invalid_argument);
  EXPECT_THROW(BlockedPreconditioner("identity", 0), std::invalid_argument);
}

TEST(Blocked, DecodeRejectsMissingSections) {
  const Codecs codecs = make_codecs("zfp");
  BlockedPreconditioner blocked("pca", 2);
  io::Container empty;
  empty.method = "blocked-pca";
  EXPECT_THROW(blocked.decode(empty, codecs.pair(), nullptr),
               std::runtime_error);
}

}  // namespace
}  // namespace rmp::core
