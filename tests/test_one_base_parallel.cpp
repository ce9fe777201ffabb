#include "core/one_base_parallel.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/projection.hpp"
#include "sim/heat.hpp"
#include "stats/metrics.hpp"

namespace rmp::core {
namespace {

sim::Field heat_field(std::size_t n = 16) {
  sim::HeatConfig config;
  config.n = n;
  config.steps = 100;
  return sim::heat3d_run(config);
}

TEST(OneBaseParallel, RoundTripAcrossRankCounts) {
  const Codecs codecs = make_codecs("zfp");
  const sim::Field f = heat_field();
  for (int ranks : {1, 2, 3, 4, 5}) {
    const auto encoded = one_base_encode_parallel(f, codecs.pair(), ranks);
    ASSERT_EQ(encoded.rank_containers.size(), static_cast<std::size_t>(ranks));
    EXPECT_FALSE(encoded.plane_bytes.empty());

    const sim::Field decoded =
        one_base_decode_parallel(encoded, codecs.pair(), ranks);
    // 8-bit delta precision on a hot_value=100 field: ~0.2% of range.
    EXPECT_LT(stats::rmse(f.flat(), decoded.flat()), 0.5) << ranks;
  }
}

TEST(OneBaseParallel, MatchesSerialOneBaseQuality) {
  const Codecs codecs = make_codecs("zfp");
  const sim::Field f = heat_field();

  OneBasePreconditioner serial;
  const auto serial_container = serial.encode(f, codecs.pair(), nullptr);
  const auto serial_decoded =
      serial.decode(serial_container, codecs.pair(), nullptr);

  const auto encoded = one_base_encode_parallel(f, codecs.pair(), 4);
  const auto parallel_decoded =
      one_base_decode_parallel(encoded, codecs.pair(), 4);

  // Same algorithm, same codecs: reconstruction error must be comparable
  // (block boundaries shift slightly, so not bit-identical).
  const double serial_rmse = stats::rmse(f.flat(), serial_decoded.flat());
  const double parallel_rmse = stats::rmse(f.flat(), parallel_decoded.flat());
  EXPECT_LT(parallel_rmse, serial_rmse * 4 + 1e-6);
}

TEST(OneBaseParallel, TotalBytesAccounting) {
  const Codecs codecs = make_codecs("zfp");
  const sim::Field f = heat_field();
  const auto encoded = one_base_encode_parallel(f, codecs.pair(), 3);
  std::size_t expected = encoded.plane_bytes.size();
  for (const auto& container : encoded.rank_containers) {
    expected += container.payload_bytes();
  }
  EXPECT_EQ(encoded.total_bytes(), expected);
  EXPECT_GT(encoded.total_bytes(), 0u);
}

TEST(OneBaseParallel, CompressionComparableToSerial) {
  const Codecs codecs = make_codecs("zfp");
  const sim::Field f = heat_field();

  EncodeStats serial_stats;
  OneBasePreconditioner().encode(f, codecs.pair(), &serial_stats);
  const auto encoded = one_base_encode_parallel(f, codecs.pair(), 4);

  // Per-slab compression loses some cross-slab context; allow 2x.
  EXPECT_LT(encoded.total_bytes(), serial_stats.total_bytes * 2);
}

TEST(OneBaseParallel, RejectsBadInput) {
  const Codecs codecs = make_codecs("zfp");
  const sim::Field f1(64, 1, 1);
  EXPECT_THROW(one_base_encode_parallel(f1, codecs.pair(), 2),
               std::invalid_argument);
  const sim::Field f3(4, 4, 4);
  EXPECT_THROW(one_base_encode_parallel(f3, codecs.pair(), 0),
               std::invalid_argument);
  EXPECT_THROW(one_base_encode_parallel(f3, codecs.pair(), 5),
               std::invalid_argument);
}

TEST(OneBaseParallel, DecodeValidatesRankCount) {
  const Codecs codecs = make_codecs("zfp");
  const sim::Field f = heat_field();
  const auto encoded = one_base_encode_parallel(f, codecs.pair(), 2);
  EXPECT_THROW(one_base_decode_parallel(encoded, codecs.pair(), 3),
               std::invalid_argument);
}

}  // namespace
}  // namespace rmp::core
