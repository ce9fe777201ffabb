// Cross-product property tests: every preconditioner x every codec pair
// x several field shapes must round-trip with bounded error and sane
// accounting.  This is the library's master invariant: whatever the
// method, encode -> container -> decode approximates the input, the
// container is self-describing, and the size bookkeeping adds up.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <span>
#include <tuple>

#include "core/pipeline.hpp"
#include "io/checksum.hpp"
#include "stats/metrics.hpp"

namespace rmp::core {
namespace {

enum class CodecKind { kSz, kZfp };
enum class Shape { kCube, kSlab, kPlane, kLine };

std::string shape_name(Shape shape) {
  switch (shape) {
    case Shape::kCube: return "cube";
    case Shape::kSlab: return "slab";
    case Shape::kPlane: return "plane";
    case Shape::kLine: return "line";
  }
  return "?";
}

sim::Field make_field(Shape shape) {
  auto fill = [](sim::Field f) {
    std::size_t n = 0;
    for (std::size_t i = 0; i < f.nx(); ++i) {
      for (std::size_t j = 0; j < f.ny(); ++j) {
        for (std::size_t k = 0; k < f.nz(); ++k, ++n) {
          f.at(i, j, k) = 5.0 * std::sin(0.3 * static_cast<double>(i)) +
                          std::cos(0.2 * static_cast<double>(j)) *
                              static_cast<double>(k + 1) +
                          0.01 * static_cast<double>(n % 17);
        }
      }
    }
    return f;
  };
  switch (shape) {
    case Shape::kCube: return fill(sim::Field(10, 10, 10));
    case Shape::kSlab: return fill(sim::Field(6, 20, 8));
    case Shape::kPlane: return fill(sim::Field(24, 18, 1));
    case Shape::kLine: return fill(sim::Field(360, 1, 1));
  }
  return {};
}

using Param = std::tuple<std::string, CodecKind, Shape>;

class PipelineMatrix : public ::testing::TestWithParam<Param> {};

TEST_P(PipelineMatrix, RoundTripWithBoundedError) {
  const auto& [method, kind, shape] = GetParam();
  const sim::Field field = make_field(shape);

  // Projection methods need 3D data; skip invalid combinations the same
  // way select_best_model does.
  const bool needs_3d =
      method == "one-base" || method == "multi-base" || method == "duomodel";
  if (needs_3d && field.rank() != 3) {
    GTEST_SKIP() << method << " needs a 3D field";
  }

  const Codecs codecs = make_codecs(kind == CodecKind::kSz ? "sz" : "zfp");
  const CodecPair pair = codecs.pair();
  const auto preconditioner = make_preconditioner(method);
  const PipelineResult result = run_pipeline(*preconditioner, field, pair);

  // 1. Error bounded: within 5% of the value range for every method
  //    (lossy codecs at paper bounds are far tighter than this).
  double lo = field.flat()[0], hi = lo;
  for (double v : field.flat()) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_LT(result.rmse, 0.05 * (hi - lo) + 1e-12) << method;

  // 2. Accounting adds up.
  EXPECT_EQ(result.stats.original_bytes, field.size() * sizeof(double));
  EXPECT_GT(result.stats.total_bytes, 0u);
  EXPECT_GE(result.stats.total_bytes,
            result.stats.reduced_bytes + result.stats.delta_bytes);

  // 3. The container is self-describing: reconstruct() via the registry
  //    must agree with the preconditioner's own decode.
  const sim::Field via_registry = reconstruct(result.container, pair);
  const sim::Field via_decode =
      preconditioner->decode(result.container, pair, nullptr);
  for (std::size_t n = 0; n < field.size(); ++n) {
    ASSERT_EQ(via_registry.flat()[n], via_decode.flat()[n]);
  }

  // 4. Serialization round trip preserves the container exactly.
  const auto bytes = io::serialize(result.container);
  const auto restored = io::deserialize(bytes);
  EXPECT_EQ(restored.method, result.container.method);
  EXPECT_EQ(restored.payload_bytes(), result.container.payload_bytes());
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, PipelineMatrix,
    ::testing::Combine(
        ::testing::Values("identity", "one-base", "multi-base", "duomodel",
                          "pca", "svd", "wavelet", "pca-part", "tucker",
                          "pca>wavelet"),
        ::testing::Values(CodecKind::kSz, CodecKind::kZfp),
        ::testing::Values(Shape::kCube, Shape::kSlab, Shape::kPlane,
                          Shape::kLine)),
    [](const ::testing::TestParamInfo<Param>& info) {
      // No structured bindings here: their commas inside [] would split
      // the macro arguments.
      std::string name =
          std::get<0>(info.param) + "_" +
          (std::get<1>(info.param) == CodecKind::kSz ? "sz" : "zfp") + "_" +
          shape_name(std::get<2>(info.param));
      for (char& c : name) {
        if (c == '-' || c == '>') c = '_';
      }
      return name;
    });

// --- golden archives: refactors of the preconditioners must not move a bit
//
// Size and CRC32 of io::serialize(encode(...)) for every registered method
// (plus three blocked and a cascaded one) under both codec pairs, on the cube
// field above and, for the spectral methods, on a constant field (whose
// spectrum sums to zero).  `decoded` is the CRC32 of the decoded doubles.
// Any drift means archives written earlier would no longer reproduce.

struct ArchivePin {
  const char* method;
  const char* codec;
  bool constant;
  std::size_t size;
  std::uint32_t crc;
  std::uint32_t decoded;
};

std::string hex(std::uint32_t value) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%08Xu", value);
  return buf;
}

constexpr ArchivePin kArchivePins[] = {
    {"identity", "sz", false, 906u, 0xFA82FE5Du, 0x068320ACu},
    {"raw", "sz", false, 8080u, 0x18D8669Cu, 0xE8FE6D52u},
    {"one-base", "sz", false, 967u, 0xA9CDAC01u, 0x3B81BB4Bu},
    {"multi-base", "sz", false, 1277u, 0x06CA4F8Au, 0x2BB89066u},
    {"duomodel", "sz", false, 1118u, 0x40461611u, 0x8538ED97u},
    {"pca", "sz", false, 1994u, 0x0B63E885u, 0x22D295ADu},
    {"svd", "sz", false, 3688u, 0x1A97F798u, 0xB805B37Au},
    {"wavelet", "sz", false, 2290u, 0xAE6F0503u, 0x6079EDD1u},
    {"pca-part", "sz", false, 3681u, 0x36D2BEB0u, 0xCDFBF0BCu},
    {"tucker", "sz", false, 2279u, 0xDCD5CF46u, 0xD88BFDE7u},
    {"blocked-svd", "sz", false, 5626u, 0xA42EFBD0u, 0x6BC38BABu},
    {"blocked-wavelet", "sz", false, 3482u, 0x5861C8C2u, 0xFD7DD92Eu},
    {"blocked-tucker", "sz", false, 6625u, 0x218ABC35u, 0xC23099E2u},
    {"pca>wavelet", "sz", false, 5711u, 0x3BDB698Eu, 0x80398DE9u},
    {"pca", "sz", true, 1431u, 0x07FA07E9u, 0x405D971Fu},
    {"svd", "sz", true, 629u, 0xC3B200B0u, 0x405D971Fu},
    {"pca-part", "sz", true, 4715u, 0x76F5BD2Fu, 0x405D971Fu},
    {"tucker", "sz", true, 1125u, 0x9F93687Du, 0x405D971Fu},
    {"identity", "zfp", false, 1401u, 0xBCB2B06Eu, 0x08CAF492u},
    {"raw", "zfp", false, 8080u, 0x18D8669Cu, 0xE8FE6D52u},
    {"one-base", "zfp", false, 592u, 0x224C19D3u, 0x704DB53Cu},
    {"multi-base", "zfp", false, 1210u, 0x2EC4D689u, 0x44174155u},
    {"duomodel", "zfp", false, 533u, 0x4420DC17u, 0xCFED44FDu},
    {"pca", "zfp", false, 912u, 0x52E1ADDBu, 0xFF26DD2Au},
    {"svd", "zfp", false, 1658u, 0xF5099E30u, 0xD823489Du},
    {"wavelet", "zfp", false, 1629u, 0x85D8B0FCu, 0x9A3EF239u},
    {"pca-part", "zfp", false, 2009u, 0x469F8D7Bu, 0x21BB3E7Fu},
    {"tucker", "zfp", false, 1600u, 0xB4DCB423u, 0xA149AE61u},
    {"blocked-svd", "zfp", false, 2581u, 0x954F91C0u, 0xC55C46D0u},
    {"blocked-wavelet", "zfp", false, 2560u, 0x6B9B3BC3u, 0x6D4CA8F8u},
    {"blocked-tucker", "zfp", false, 4046u, 0x5C152130u, 0x3A78AA6Fu},
    {"pca>wavelet", "zfp", false, 3511u, 0xBDA4FF76u, 0x68E5DD35u},
    {"pca", "zfp", true, 1162u, 0x4FCBA9B6u, 0x405D971Fu},
    {"svd", "zfp", true, 708u, 0x31114CCAu, 0xCAAFC5FFu},
    {"pca-part", "zfp", true, 4237u, 0x81319B36u, 0x405D971Fu},
    {"tucker", "zfp", true, 889u, 0x6D3D4262u, 0x21A93A84u},
};

TEST(PipelineMatrixGolden, ArchiveBytesArePinned) {
  std::vector<std::string> methods = preconditioner_names();
  methods.insert(methods.end(), {"blocked-svd", "blocked-wavelet",
                                 "blocked-tucker", "pca>wavelet"});
  const std::vector<std::string> spectral = {"pca", "svd", "pca-part",
                                             "tucker"};
  std::size_t checked = 0;
  for (const char* codec_name : {"sz", "zfp"}) {
    const Codecs codecs = make_codecs(codec_name);
    for (const bool constant : {false, true}) {
      const sim::Field field =
          constant ? sim::Field(10, 10, 10, 3.25) : make_field(Shape::kCube);
      for (const std::string& method : methods) {
        if (constant && std::find(spectral.begin(), spectral.end(), method) ==
                            spectral.end()) {
          continue;
        }
        const auto preconditioner = make_preconditioner(method);
        const io::Container container =
            preconditioner->encode(field, codecs.pair());
        const auto bytes = io::serialize(container);
        const sim::Field decoded =
            preconditioner->decode(container, codecs.pair(), nullptr);
        const auto decoded_crc = io::crc32(std::span<const std::uint8_t>(
            reinterpret_cast<const std::uint8_t*>(decoded.flat().data()),
            decoded.flat().size_bytes()));
        const auto* pin = std::find_if(
            std::begin(kArchivePins), std::end(kArchivePins),
            [&](const ArchivePin& p) {
              return method == p.method && std::string(codec_name) == p.codec &&
                     constant == p.constant;
            });
        const std::string row =
            "{\"" + method + "\", \"" + codec_name + "\", " +
            (constant ? "true" : "false") + ", " +
            std::to_string(bytes.size()) + "u, " + hex(io::crc32(bytes)) +
            ", " + hex(decoded_crc) + "},";
        if (pin == std::end(kArchivePins)) {
          ADD_FAILURE() << "no pin for " << row;
          continue;
        }
        EXPECT_EQ(bytes.size(), pin->size) << row;
        EXPECT_EQ(io::crc32(bytes), pin->crc) << row;
        EXPECT_EQ(decoded_crc, pin->decoded) << row;
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, std::size(kArchivePins));
}

}  // namespace
}  // namespace rmp::core
