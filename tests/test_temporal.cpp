#include "core/temporal.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/identity.hpp"
#include "sim/heat.hpp"
#include "stats/metrics.hpp"

namespace rmp::core {
namespace {

std::vector<sim::Field> heat_snapshots(std::size_t count) {
  sim::HeatConfig config;
  config.n = 14;
  config.steps = 120;
  return sim::heat3d_snapshots(config, count);
}

TEST(Temporal, EmptySequence) {
  const Codecs codecs = make_codecs("zfp");
  const auto sequence = temporal_encode({}, codecs.pair());
  EXPECT_TRUE(sequence.steps.empty());
  EXPECT_EQ(sequence.total_bytes(), 0u);
  EXPECT_TRUE(temporal_decode(sequence, codecs.pair()).empty());
}

TEST(Temporal, SingleSnapshotIsKeyframe) {
  const Codecs codecs = make_codecs("zfp");
  const auto snapshots = heat_snapshots(1);
  const auto sequence = temporal_encode(snapshots, codecs.pair());
  ASSERT_EQ(sequence.steps.size(), 1u);
  EXPECT_EQ(sequence.steps[0].method, "temporal-key");
}

TEST(Temporal, RoundTripAllSnapshots) {
  const Codecs codecs = make_codecs("zfp");
  const auto snapshots = heat_snapshots(6);
  const auto sequence = temporal_encode(snapshots, codecs.pair());
  const auto decoded = temporal_decode(sequence, codecs.pair());
  ASSERT_EQ(decoded.size(), snapshots.size());
  for (std::size_t s = 0; s < snapshots.size(); ++s) {
    // hot_value = 100 scale; 8-bit delta codec => ~0.5% of range.
    EXPECT_LT(stats::rmse(snapshots[s].flat(), decoded[s].flat()), 1.0)
        << "snapshot " << s;
  }
}

TEST(Temporal, ErrorDoesNotAccumulate) {
  // Deltas are taken against the decoded predecessor, so the last
  // snapshot must be about as accurate as the second.
  const Codecs codecs = make_codecs("zfp");
  const auto snapshots = heat_snapshots(8);
  const auto decoded =
      temporal_decode(temporal_encode(snapshots, codecs.pair()), codecs.pair());
  const double early = stats::rmse(snapshots[1].flat(), decoded[1].flat());
  const double late = stats::rmse(snapshots[7].flat(), decoded[7].flat());
  EXPECT_LT(late, std::max(early * 10.0, 0.5));
}

TEST(Temporal, BeatsIndependentCompression) {
  // Nearby snapshots differ slowly: temporal deltas must use fewer bytes
  // than compressing every snapshot independently at original grade.
  const Codecs codecs = make_codecs("zfp");
  const auto snapshots = heat_snapshots(6);
  const auto sequence = temporal_encode(snapshots, codecs.pair());

  std::size_t independent = 0;
  IdentityPreconditioner identity;
  for (const auto& snapshot : snapshots) {
    EncodeStats stats;
    identity.encode(snapshot, codecs.pair(), &stats);
    independent += stats.total_bytes;
  }
  EXPECT_LT(sequence.total_bytes(), independent);
}

TEST(Temporal, KeyframeIntervalInsertsKeyframes) {
  const Codecs codecs = make_codecs("zfp");
  const auto snapshots = heat_snapshots(7);
  TemporalOptions options;
  options.keyframe_interval = 3;
  const auto sequence = temporal_encode(snapshots, codecs.pair(), options);
  ASSERT_EQ(sequence.steps.size(), 7u);
  EXPECT_EQ(sequence.steps[0].method, "temporal-key");
  EXPECT_EQ(sequence.steps[3].method, "temporal-key");
  EXPECT_EQ(sequence.steps[6].method, "temporal-key");
  EXPECT_EQ(sequence.steps[1].method, "temporal-delta");
}

TEST(Temporal, RejectsShapeMismatch) {
  const Codecs codecs = make_codecs("zfp");
  std::vector<sim::Field> snapshots = {sim::Field(4, 4, 4),
                                       sim::Field(5, 5, 5)};
  EXPECT_THROW(temporal_encode(snapshots, codecs.pair()),
               std::invalid_argument);
}

TEST(Temporal, DecodeRejectsUnknownMethod) {
  const Codecs codecs = make_codecs("zfp");
  TemporalSequence sequence;
  io::Container bogus;
  bogus.method = "not-a-step";
  sequence.steps.push_back(bogus);
  EXPECT_THROW(temporal_decode(sequence, codecs.pair()), std::runtime_error);
}

}  // namespace
}  // namespace rmp::core
