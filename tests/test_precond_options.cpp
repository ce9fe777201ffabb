// Parameter-sweep property tests for the preconditioner knobs: each
// option must trade storage against fidelity in the direction its
// documentation promises.
#include <gtest/gtest.h>

#include <cmath>

#include "core/blocked.hpp"
#include "core/pca.hpp"
#include "core/projection.hpp"
#include "core/svd_precond.hpp"
#include "core/wavelet_precond.hpp"
#include "sim/heat.hpp"
#include "stats/metrics.hpp"

namespace rmp::core {
namespace {

const sim::Field& test_field() {
  static const sim::Field field = [] {
    sim::HeatConfig config;
    config.n = 16;
    config.steps = 120;
    config.hot_center_z = 0.6;  // break symmetry so ranks are non-trivial
    return sim::heat3d_run(config);
  }();
  return field;
}

class PcaTargetSweep : public ::testing::TestWithParam<double> {};

TEST_P(PcaTargetSweep, HigherTargetNeverShrinksReducedRep) {
  const Codecs codecs = make_codecs("zfp");
  EncodeStats low, high;
  PcaPreconditioner({GetParam(), false}).encode(test_field(), codecs.pair(),
                                                &low);
  PcaPreconditioner({std::min(1.0, GetParam() + 0.04), false})
      .encode(test_field(), codecs.pair(), &high);
  EXPECT_GE(high.reduced_bytes + 64, low.reduced_bytes);
}

INSTANTIATE_TEST_SUITE_P(Targets, PcaTargetSweep,
                         ::testing::Values(0.5, 0.8, 0.9, 0.95));

class SvdTargetSweep : public ::testing::TestWithParam<double> {};

TEST_P(SvdTargetSweep, RoundTripAtEveryTarget) {
  const Codecs codecs = make_codecs("zfp");
  SvdPreconditioner preconditioner({GetParam(), false});
  const auto container =
      preconditioner.encode(test_field(), codecs.pair(), nullptr);
  const auto decoded =
      preconditioner.decode(container, codecs.pair(), nullptr);
  // Reconstruction is always exact up to codec error: the delta absorbs
  // whatever the truncated SVD misses.
  EXPECT_LT(stats::rmse(test_field().flat(), decoded.flat()), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Targets, SvdTargetSweep,
                         ::testing::Values(0.3, 0.6, 0.9, 0.99));

class MultiBaseSlabSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MultiBaseSlabSweep, MoreSlabsStoreMoreReduceDeltaError) {
  const Codecs codecs = make_codecs("zfp");
  EncodeStats one, many;
  MultiBasePreconditioner(1).encode(test_field(), codecs.pair(), &one);
  MultiBasePreconditioner(GetParam()).encode(test_field(), codecs.pair(),
                                             &many);
  if (GetParam() > 1) {
    EXPECT_GT(many.reduced_bytes, one.reduced_bytes);
  }
  // Round trip stays valid at every slab count.
  MultiBasePreconditioner preconditioner(GetParam());
  const auto container =
      preconditioner.encode(test_field(), codecs.pair(), nullptr);
  const auto decoded =
      preconditioner.decode(container, codecs.pair(), nullptr);
  EXPECT_LT(stats::rmse(test_field().flat(), decoded.flat()), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Slabs, MultiBaseSlabSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 16));

class DuoFactorSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DuoFactorSweep, LargerFactorStoresSmallerReducedModel) {
  const Codecs codecs = make_codecs("zfp");
  EncodeStats coarse, fine;
  DuoModelPreconditioner(GetParam(), true)
      .encode(test_field(), codecs.pair(), &coarse);
  DuoModelPreconditioner(2, true).encode(test_field(), codecs.pair(), &fine);
  if (GetParam() > 2) {
    EXPECT_LE(coarse.reduced_bytes, fine.reduced_bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(Factors, DuoFactorSweep,
                         ::testing::Values(2, 4, 8));

class WaveletThetaSweep : public ::testing::TestWithParam<double> {};

TEST_P(WaveletThetaSweep, LargerThresholdSparsifiesReducedRep) {
  const Codecs codecs = make_codecs("zfp");
  EncodeStats tight, loose;
  WaveletPreconditioner({0.005, false})
      .encode(test_field(), codecs.pair(), &tight);
  WaveletPreconditioner({GetParam(), false})
      .encode(test_field(), codecs.pair(), &loose);
  EXPECT_LE(loose.reduced_bytes, tight.reduced_bytes + 64);
}

INSTANTIATE_TEST_SUITE_P(Thetas, WaveletThetaSweep,
                         ::testing::Values(0.02, 0.05, 0.1, 0.25));

class PartitionSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PartitionSweep, EveryPartitionCountRoundTrips) {
  const Codecs codecs = make_codecs("zfp");
  BlockedPreconditioner preconditioner("pca", GetParam());
  const auto container =
      preconditioner.encode(test_field(), codecs.pair(), nullptr);
  const auto decoded =
      preconditioner.decode(container, codecs.pair(), nullptr);
  EXPECT_LT(stats::rmse(test_field().flat(), decoded.flat()), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Partitions, PartitionSweep,
                         ::testing::Values(1, 2, 3, 7, 16, 64));

}  // namespace
}  // namespace rmp::core
