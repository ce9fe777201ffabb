#include "core/blocked.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/pipeline.hpp"
#include "core/reshape.hpp"
#include "core/serialize.hpp"
#include "io/checksum.hpp"
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

// The layout blocked-* archives had before they shared pca-part's: one
// serialized `inner` container per row block, in "block<b>", and meta
// {count, rows, cols}.
io::Container nested_layout(const std::string& inner, const sim::Field& field,
                            const CodecPair& codecs) {
  const auto [rows, cols] = matrix_shape(field);
  const std::size_t count = std::min<std::size_t>(4, rows);
  const auto blocks = even_split(rows, count);
  const auto model = make_preconditioner(inner);
  const auto values = field.flat();
  io::Container container;
  container.method = "blocked-" + inner;
  container.nx = field.nx();
  container.ny = field.ny();
  container.nz = field.nz();
  for (std::size_t b = 0; b < count; ++b) {
    const sim::Field block = sim::Field::from_data(
        blocks[b].end - blocks[b].begin, cols, 1,
        std::vector<double>(values.begin() + blocks[b].begin * cols,
                            values.begin() + blocks[b].end * cols));
    container.add("block" + std::to_string(b),
                  io::serialize(model->encode(block, codecs, nullptr)));
  }
  const std::uint64_t meta[3] = {count, rows, cols};
  container.add("meta", u64s_to_bytes(meta));
  return container;
}

class BlockedInnerSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(BlockedInnerSweep, RoundTripWithinError) {
  const Codecs codecs = make_codecs("zfp");
  BlockedPreconditioner blocked(GetParam(), 4);
  const sim::Field f = heat_field();
  // identity has no reduced model to fit per block: it only decodes the
  // nested layout.
  const auto container = GetParam() == "identity"
                             ? nested_layout("identity", f, codecs.pair())
                             : blocked.encode(f, codecs.pair(), nullptr);
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
  // Blocked PCA keeps the stored name of its archives.
  EXPECT_EQ(make_preconditioner("blocked-pca")->name(), "pca-part");
}

TEST(Blocked, PartitionCountClampedToRows) {
  const Codecs codecs = make_codecs("zfp");
  sim::Field tiny(6, 4, 1);
  for (std::size_t n = 0; n < tiny.size(); ++n) {
    tiny.flat()[n] = static_cast<double>(n);
  }
  for (const char* inner : {"pca", "svd"}) {
    BlockedPreconditioner blocked(inner, 1000);
    const auto container = blocked.encode(tiny, codecs.pair(), nullptr);
    EXPECT_EQ(bytes_to_u64s(container.find("meta")->bytes)[0], 6u) << inner;
    const auto decoded = blocked.decode(container, codecs.pair(), nullptr);
    EXPECT_LT(stats::max_abs_error(tiny.flat(), decoded.flat()), 1e-3)
        << inner;
  }
}

TEST(Blocked, EncodeNeedsAReducedModel) {
  const Codecs codecs = make_codecs("zfp");
  for (const char* inner : {"identity", "raw", "duomodel"}) {
    EXPECT_THROW(
        BlockedPreconditioner(inner).encode(heat_field(), codecs.pair(),
                                            nullptr),
        std::invalid_argument)
        << inner;
  }
}

// The nested layout reproduces the blocked-svd archives pinned before
// blocks shared pca-part's layout, byte for byte, and they still decode
// through the registry to the values pinned then.
TEST(Blocked, NestedLayoutArchivesStillDecode) {
  sim::Field cube(10, 10, 10);
  std::size_t n = 0;
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = 0; j < 10; ++j) {
      for (std::size_t k = 0; k < 10; ++k, ++n) {
        cube.at(i, j, k) = 5.0 * std::sin(0.3 * static_cast<double>(i)) +
                           std::cos(0.2 * static_cast<double>(j)) *
                               static_cast<double>(k + 1) +
                           0.01 * static_cast<double>(n % 17);
      }
    }
  }
  const struct {
    const char* codec;
    std::size_t size;
    std::uint32_t crc;
    std::uint32_t decoded;
  } pins[] = {{"sz", 7625u, 0x0AA50D7Au, 0xF4C31773u},
              {"zfp", 3248u, 0x792B3158u, 0x994B5E7Du}};
  for (const auto& pin : pins) {
    const Codecs codecs = make_codecs(pin.codec);
    const auto bytes =
        io::serialize(nested_layout("svd", cube, codecs.pair()));
    EXPECT_EQ(bytes.size(), pin.size) << pin.codec;
    EXPECT_EQ(io::crc32(bytes), pin.crc) << pin.codec;
    const sim::Field decoded =
        reconstruct(io::deserialize(bytes), codecs.pair());
    EXPECT_EQ(io::crc32(std::span<const std::uint8_t>(
                  reinterpret_cast<const std::uint8_t*>(decoded.flat().data()),
                  decoded.flat().size_bytes())),
              pin.decoded)
        << pin.codec;
  }
}

TEST(Blocked, NestedLayoutDecodesEveryInner) {
  const Codecs codecs = make_codecs("zfp");
  const sim::Field f = heat_field();
  for (const char* inner :
       {"identity", "raw", "pca", "svd", "wavelet", "tucker", "pca-part"}) {
    const sim::Field decoded =
        reconstruct(nested_layout(inner, f, codecs.pair()), codecs.pair());
    EXPECT_LT(stats::rmse(f.flat(), decoded.flat()), 1.0) << inner;
  }
}

// A nested block header claiming a far larger block than the meta.
TEST(Blocked, NestedLayoutBlockHeaderIsChecked) {
  const Codecs codecs = make_codecs("zfp");
  io::Container container = nested_layout("svd", heat_field(), codecs.pair());
  for (auto& s : container.sections) {
    if (s.name != "block0") continue;
    io::Container nested = io::deserialize(s.bytes);
    nested.nx = std::uint64_t{1} << 40;
    s.bytes = io::serialize(nested);
  }
  EXPECT_THROW(reconstruct(container, codecs.pair()), io::ContainerError);
}

// The nested layout's block grid comes from its meta: a zero block
// count, or a grid other than the field's, is malformed before anything
// is sized from it.
TEST(Blocked, NestedLayoutMetaIsChecked) {
  const Codecs codecs = make_codecs("zfp");
  const io::Container complete =
      nested_layout("svd", heat_field(), codecs.pair());
  const std::uint64_t no_blocks[3] = {0, 64, 8};
  const std::uint64_t oversized[3] = {1, std::uint64_t{1} << 40,
                                      std::uint64_t{1} << 20};
  for (const auto& meta : {no_blocks, oversized}) {
    io::Container mutated = complete;
    for (auto& s : mutated.sections) {
      if (s.name == "meta") s.bytes = u64s_to_bytes({meta, 3});
    }
    EXPECT_THROW(reconstruct(mutated, codecs.pair()), io::ContainerError)
        << meta[0];
  }
}

// Stage 1 of a cascade stores a delta that holds only its cell count.
class CountOnlyCodec final : public compress::Compressor {
 public:
  std::string name() const override { return "null"; }
  bool lossless() const override { return false; }
  std::vector<std::uint8_t> compress(std::span<const double> data,
                                     const compress::Dims&) const override {
    const std::uint64_t count = data.size();
    return u64s_to_bytes({&count, 1});
  }
  std::vector<double> decompress(
      std::span<const std::uint8_t> stream) const override {
    return std::vector<double>(bytes_to_u64s(stream).at(0), 0.0);
  }
};

// A cascade whose first stage is blocked in the nested layout holds one
// null delta per row block, each counting only its block's cells.  Built
// here as such archives were encoded, it still decodes.
TEST(Blocked, NestedLayoutCascadeStageDecodes) {
  const Codecs codecs = make_codecs("zfp");
  const CountOnlyCodec null_delta;
  const CodecPair first_codecs{codecs.reduced.get(), &null_delta};
  const sim::Field f = heat_field();
  for (const char* inner : {"svd", "pca"}) {
    const io::Container first = nested_layout(inner, f, first_codecs);
    const sim::Field first_decoded =
        BlockedPreconditioner(inner).decode(first, first_codecs, nullptr);
    const io::Container second = make_preconditioner("wavelet")->encode(
        sim::subtract(f, first_decoded), codecs.pair(), nullptr);
    io::Container cascade;
    cascade.method = first.method + ">wavelet";
    cascade.nx = f.nx();
    cascade.ny = f.ny();
    cascade.nz = f.nz();
    cascade.add("stage1", io::serialize(first));
    cascade.add("stage2", io::serialize(second));

    const sim::Field decoded = reconstruct(cascade, codecs.pair());
    const sim::Field expected = sim::add(
        first_decoded,
        make_preconditioner("wavelet")->decode(second, codecs.pair(), nullptr));
    EXPECT_TRUE(std::equal(decoded.flat().begin(), decoded.flat().end(),
                           expected.flat().begin(), expected.flat().end()))
        << inner;
    EXPECT_LT(stats::rmse(f.flat(), decoded.flat()), 1.0) << inner;
  }
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
