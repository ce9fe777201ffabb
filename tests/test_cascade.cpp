#include "core/cascade.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "compress/codec_error.hpp"
#include "core/pipeline.hpp"
#include "core/serialize.hpp"
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

TEST(Cascade, NameComposition) {
  CascadePreconditioner cascade("one-base", "pca");
  EXPECT_EQ(cascade.name(), "one-base>pca");
}

TEST(Cascade, RoundTripOneBaseThenPca) {
  const Codecs codecs = make_codecs("zfp");
  CascadePreconditioner cascade("one-base", "pca");
  const sim::Field f = heat_field();
  const auto container = cascade.encode(f, codecs.pair(), nullptr);
  const auto decoded = cascade.decode(container, codecs.pair(), nullptr);
  EXPECT_LT(stats::rmse(f.flat(), decoded.flat()), 1.0);
}

TEST(Cascade, RoundTripPcaThenWavelet) {
  const Codecs codecs = make_codecs("zfp");
  CascadePreconditioner cascade("pca", "wavelet");
  const sim::Field f = heat_field();
  const auto container = cascade.encode(f, codecs.pair(), nullptr);
  const auto decoded = cascade.decode(container, codecs.pair(), nullptr);
  EXPECT_LT(stats::rmse(f.flat(), decoded.flat()), 1.0);
}

TEST(Cascade, RegistryDispatchesSpecString) {
  const Codecs codecs = make_codecs("zfp");
  const sim::Field f = heat_field();
  const auto cascade = make_preconditioner("one-base>svd");
  EXPECT_EQ(cascade->name(), "one-base>svd");
  const auto container = cascade->encode(f, codecs.pair(), nullptr);
  // reconstruct() must rebuild the cascade from the container method.
  const sim::Field decoded = reconstruct(container, codecs.pair());
  EXPECT_LT(stats::rmse(f.flat(), decoded.flat()), 1.0);
}

TEST(Cascade, StageOneStoresOnlyReducedRep) {
  // The nested stage-1 container's delta is the 8-byte null stream, so
  // the cascade's total size is stage-1 reduced + stage-2 everything.
  const Codecs codecs = make_codecs("zfp");
  CascadePreconditioner cascade("one-base", "identity");
  EncodeStats cascade_stats, plain_stats;
  const sim::Field f = heat_field();
  cascade.encode(f, codecs.pair(), &cascade_stats);
  make_preconditioner("one-base")->encode(f, codecs.pair(), &plain_stats);
  // "one-base>identity" == one-base with the residual compressed at
  // original grade; sizes must be in the same ballpark (the nested v3
  // container headers add a few bytes of per-section checksum overhead).
  EXPECT_LE(cascade_stats.total_bytes, plain_stats.total_bytes * 4);
}

TEST(Cascade, RejectsMalformedSpecs) {
  EXPECT_THROW(make_cascade("justone"), std::invalid_argument);
  EXPECT_THROW(make_cascade(">pca"), std::invalid_argument);
  EXPECT_THROW(make_cascade("pca>"), std::invalid_argument);
  EXPECT_THROW(CascadePreconditioner("pca>svd", "wavelet"),
               std::invalid_argument);
  EXPECT_THROW(CascadePreconditioner("pca", "nonsense"),
               std::invalid_argument);
}

TEST(Cascade, DecodeRejectsMissingStages) {
  const Codecs codecs = make_codecs("zfp");
  CascadePreconditioner cascade("pca", "svd");
  io::Container empty;
  empty.method = "pca>svd";
  EXPECT_THROW(cascade.decode(empty, codecs.pair(), nullptr),
               std::runtime_error);
}

// Stage 1's null delta holds only a count: any count but the stage-1
// field's cells is a typed codec error, raised before the count sizes an
// allocation (2^40 cells would be 8 TiB).
TEST(Cascade, StageOneNullCountIsChecked) {
  const Codecs codecs = make_codecs("zfp");
  CascadePreconditioner cascade("pca", "wavelet");
  const sim::Field f = heat_field();
  const io::Container complete = cascade.encode(f, codecs.pair(), nullptr);
  for (const std::uint64_t count :
       {std::uint64_t{1} << 40, std::uint64_t{f.size() + 1}}) {
    io::Container mutated = complete;
    for (auto& s : mutated.sections) {
      if (s.name != "stage1") continue;
      io::Container stage1 = io::deserialize(s.bytes);
      for (auto& t : stage1.sections) {
        if (t.name == "delta") t.bytes = u64s_to_bytes({&count, 1});
      }
      s.bytes = io::serialize(stage1);
    }
    EXPECT_THROW(cascade.decode(mutated, codecs.pair(), nullptr),
                 compress::CodecError)
        << count;
  }
}

}  // namespace
}  // namespace rmp::core
