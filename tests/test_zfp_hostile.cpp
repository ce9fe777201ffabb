// Golden-bytes pins for the ZFP-like codec: every mode on a multi-MB
// field, on odd non-4^d shapes, and on blocks that mix zeros, subnormals,
// +-1e300, NaN and Inf.  A hot-path rewrite must reproduce every stream
// byte and every decoded double.
//
// Plus the hostile-input suite (DESIGN.md, "ZFP hot path"): any byte
// stream either decodes to the shape its header declares, or fails with a
// typed CodecError -- never a crash, an untyped exception, or an
// allocation the stream cannot pay for.
#include "compress/zfp_like.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "compress/codec_error.hpp"
#include "core/pipeline.hpp"
#include "io/checksum.hpp"

namespace rmp::compress {
namespace {

// --- deterministic inputs ------------------------------------------------

std::vector<double> smooth_field(const Dims& d, std::uint64_t seed) {
  std::vector<double> f(d.count());
  std::mt19937_64 rng(seed);
  std::size_t n = 0;
  for (std::size_t i = 0; i < d.nx; ++i) {
    for (std::size_t j = 0; j < d.ny; ++j) {
      for (std::size_t k = 0; k < d.nz; ++k, ++n) {
        const double x = 0.07 * static_cast<double>(i);
        const double y = 0.05 * static_cast<double>(j);
        const double z = 0.03 * static_cast<double>(k);
        const double noise =
            static_cast<double>(rng() >> 11) / 9007199254740992.0 - 0.5;
        f[n] = 20.0 * std::sin(x + 0.3 * y) * std::cos(y - z) + 3.0 * x * z +
               1e-3 * noise;
      }
    }
  }
  return f;
}

// One pattern per 4^d block (by block index), so that the codec sees
// all-zero blocks, subnormal-only blocks (block exponent below -962, where
// the power-of-two scale is not a normal double), blocks near +-1e300,
// blocks holding a NaN or an Inf (stored as zero blocks), and blocks that
// mix magnitudes from 1e300 down to subnormal.
std::vector<double> special_field(const Dims& d) {
  const double denorm = std::numeric_limits<double>::denorm_min();
  const double min_normal = std::numeric_limits<double>::min();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> f(d.count());
  std::mt19937_64 rng(4242);
  auto unit = [&rng] {
    return static_cast<double>(rng() >> 11) / 9007199254740992.0;
  };
  const std::size_t bx = (d.nx + 3) / 4, by = (d.ny + 3) / 4;
  std::size_t n = 0;
  for (std::size_t i = 0; i < d.nx; ++i) {
    for (std::size_t j = 0; j < d.ny; ++j) {
      for (std::size_t k = 0; k < d.nz; ++k, ++n) {
        const std::size_t block = i / 4 + bx * (j / 4 + by * (k / 4));
        const std::size_t local = i % 4 + 4 * (j % 4) + 16 * (k % 4);
        const double sign = (rng() & 1) ? -1.0 : 1.0;
        switch (block % 9) {
          case 0: f[n] = 0.0; break;
          case 1:
            f[n] = local % 5 == 0
                       ? 0.0
                       : sign * static_cast<double>(rng() % 1000 + 1) * denorm;
            break;
          case 2: f[n] = sign * 1e300 * (0.5 + unit()); break;
          case 3: f[n] = local == 2 ? nan : sign * unit(); break;
          case 4: f[n] = local == 1 ? sign * inf : 100.0 * unit(); break;
          case 5: {
            const double pick[4] = {1e300, 1e-300, 3.0 * denorm, -7.5};
            f[n] = sign * pick[local % 4];
            break;
          }
          case 6:
            f[n] = sign * (local % 2 ? min_normal * (1.0 + unit())
                                     : static_cast<double>(rng() % 64) * denorm);
            break;
          case 7: f[n] = 1.0 + 0.25 * std::sin(static_cast<double>(n)); break;
          default: f[n] = local % 3 ? -0.0 : 1e-320; break;
        }
      }
    }
  }
  return f;
}

struct NamedField {
  const char* name;
  Dims dims;
  std::vector<double> values;
};

std::vector<NamedField> pinned_fields() {
  std::vector<NamedField> fields;
  const Dims big{96, 80, 72};
  fields.push_back({"big", big, smooth_field(big, 1)});
  for (const auto& [name, dims] :
       {std::pair<const char*, Dims>{"odd3d", {5, 7, 9}},
        {"odd2d", {33, 17, 1}},
        {"odd1d", {1001, 1, 1}}}) {
    fields.push_back({name, dims, smooth_field(dims, 2)});
  }
  const Dims s3{12, 12, 12};
  fields.push_back({"special3d", s3, special_field(s3)});
  const Dims s1{1728, 1, 1};
  fields.push_back({"special1d", s1, special_field(s1)});
  return fields;
}

struct NamedMode {
  const char* name;
  ZfpOptions options;
};

const NamedMode kModes[] = {
    {"prec8", {ZfpMode::kFixedPrecision, 8, 0.0, 16}},
    {"prec16", {ZfpMode::kFixedPrecision, 16, 0.0, 16}},
    {"prec62", {ZfpMode::kFixedPrecision, 62, 0.0, 16}},
    {"acc1e-3", {ZfpMode::kFixedAccuracy, 0, 1e-3, 16}},
    {"acc1e-8", {ZfpMode::kFixedAccuracy, 0, 1e-8, 16}},
    // Rank-3 rate 4 is 256 bits per block: the plane coder runs out of
    // budget mid-plane.
    {"rate4", {ZfpMode::kFixedRate, 0, 0.0, 4}},
    {"rate8", {ZfpMode::kFixedRate, 0, 0.0, 8}},
    {"rate16", {ZfpMode::kFixedRate, 0, 0.0, 16}},
};

std::uint32_t crc_of(const std::vector<double>& values) {
  return io::crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(values.data()),
      values.size() * sizeof(double)));
}

std::string hex(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08Xu", v);
  return buf;
}

// --- golden bytes ----------------------------------------------------------

struct ZfpPin {
  const char* field;
  const char* mode;
  std::size_t size;      // compress() output bytes
  std::uint32_t crc;     // CRC32 of compress() output
  std::uint32_t decoded; // CRC32 of the decoded doubles
};

const ZfpPin kZfpPins[] = {
    {"big", "prec8", 36437u, 0xB0FE727Eu, 0xF80FF784u},
    {"big", "prec16", 122130u, 0xA73522B0u, 0x6788F047u},
    {"big", "prec62", 3170481u, 0xA4531A1Au, 0x7897F795u},
    {"big", "acc1e-3", 278290u, 0xF4C1682Du, 0x038008E7u},
    {"big", "acc1e-8", 1454137u, 0xF705F85Au, 0xADEED249u},
    {"big", "rate4", 276520u, 0xA02B9121u, 0x0E93068Fu},
    {"big", "rate8", 553000u, 0x4F05579Cu, 0xADBE454Du},
    {"big", "rate16", 1105960u, 0x19C2DF91u, 0xB6FE951Eu},
    {"odd3d", "prec8", 92u, 0x5AAF4D49u, 0xAFCD1363u},
    {"odd3d", "prec16", 246u, 0xF6B840B9u, 0x57C6015Eu},
    {"odd3d", "prec62", 3618u, 0xEDA3BC76u, 0xEC7A02C6u},
    {"odd3d", "acc1e-3", 405u, 0xE4E09458u, 0x3A161AF4u},
    {"odd3d", "acc1e-8", 1674u, 0xEFEC2525u, 0xCA828537u},
    {"odd3d", "rate4", 424u, 0xAECAD32Fu, 0xC3033F95u},
    {"odd3d", "rate8", 808u, 0x3DAE9655u, 0xA86A4B49u},
    {"odd3d", "rate16", 1576u, 0x25277465u, 0x5B0BAB68u},
    {"odd2d", "prec8", 213u, 0x392F80C5u, 0x7FD3276Du},
    {"odd2d", "prec16", 479u, 0x1404B453u, 0x2D0B9BE6u},
    {"odd2d", "prec62", 3985u, 0x4D8EE51Bu, 0x2F00338Du},
    {"odd2d", "acc1e-3", 744u, 0xE0061CF2u, 0x3CD70130u},
    {"odd2d", "acc1e-8", 2067u, 0xB63719EDu, 0x11E67B78u},
    {"odd2d", "rate4", 400u, 0xB6031D01u, 0x41DBA449u},
    {"odd2d", "rate8", 760u, 0xA9464215u, 0x9F23BA4Eu},
    {"odd2d", "rate16", 1480u, 0x57FE7998u, 0x886E59E6u},
    {"odd1d", "prec8", 997u, 0xFBC88A87u, 0x3E2DE24Au},
    {"odd1d", "prec16", 1940u, 0xEFD362FDu, 0x471D1134u},
    {"odd1d", "prec62", 7702u, 0xCF63BC6Fu, 0xEA6C2102u},
    {"odd1d", "acc1e-3", 2468u, 0x754254EFu, 0x57B99470u},
    {"odd1d", "acc1e-8", 4597u, 0x7859EC2Cu, 0x89B2780Au},
    {"odd1d", "rate4", 542u, 0x2CD654BDu, 0x4FBC6A8Au},
    {"odd1d", "rate8", 1044u, 0x7962EDBAu, 0xA2AD10D4u},
    {"odd1d", "rate16", 2048u, 0x280CEB57u, 0x7E3D3C0Fu},
    {"special3d", "prec8", 601u, 0x465F838Bu, 0x38726FC6u},
    {"special3d", "prec16", 1708u, 0xBAEDDF42u, 0xF993DA68u},
    {"special3d", "prec62", 8331u, 0xE38C0CA3u, 0x0FF42D89u},
    {"special3d", "acc1e-3", 3115u, 0x617DB4DDu, 0x6894B7F3u},
    {"special3d", "acc1e-8", 3523u, 0xBE8CDA28u, 0x3B0862BBu},
    {"special3d", "rate4", 904u, 0x95C957DAu, 0xF6CECCC2u},
    {"special3d", "rate8", 1768u, 0xA72724A6u, 0xF90D1E7Fu},
    {"special3d", "rate16", 3496u, 0x9F6093F6u, 0x31053270u},
    {"special1d", "prec8", 1406u, 0xE22B9C26u, 0x519D4EFBu},
    {"special1d", "prec16", 2558u, 0xB63C314Cu, 0x919A07DBu},
    {"special1d", "prec62", 9182u, 0x14F83F14u, 0xAD2123F8u},
    {"special1d", "acc1e-3", 3864u, 0x6CD8C823u, 0xEBCAF563u},
    {"special1d", "acc1e-8", 4272u, 0x09687F77u, 0xD9BB7579u},
    {"special1d", "rate4", 904u, 0x34D2A394u, 0xC63B7D92u},
    {"special1d", "rate8", 1768u, 0x17115A80u, 0x8AC626DFu},
    {"special1d", "rate16", 3496u, 0x72FC92E0u, 0xD2325162u},
};

TEST(ZfpGolden, StreamsAndDecodedValuesArePinned) {
  std::size_t checked = 0;
  for (const NamedField& field : pinned_fields()) {
    for (const NamedMode& mode : kModes) {
      const ZfpCompressor codec(mode.options);
      const auto bytes = codec.compress(field.values, field.dims);
      const auto decoded = codec.decompress(bytes);
      ASSERT_EQ(decoded.size(), field.values.size());
      const std::string row = std::string("{\"") + field.name + "\", \"" +
                              mode.name + "\", " +
                              std::to_string(bytes.size()) + "u, " +
                              hex(io::crc32(bytes)) + ", " +
                              hex(crc_of(decoded)) + "},";
      const auto* pin = std::find_if(
          std::begin(kZfpPins), std::end(kZfpPins), [&](const ZfpPin& p) {
            return std::string(field.name) == p.field &&
                   std::string(mode.name) == p.mode;
          });
      if (pin == std::end(kZfpPins)) {
        ADD_FAILURE() << "no pin for " << row;
        continue;
      }
      EXPECT_EQ(bytes.size(), pin->size) << row;
      EXPECT_EQ(io::crc32(bytes), pin->crc) << row;
      EXPECT_EQ(crc_of(decoded), pin->decoded) << row;
      ++checked;
    }
  }
  EXPECT_EQ(checked, std::size(kZfpPins));
}

// --- hostile streams -------------------------------------------------------

// Header layout (see zfp_like.cpp): magic u32 @0, mode u8 @4, precision or
// rate u8 @5, reserved u16 @6, tolerance f64 @8, nx/ny/nz u64 @16/24/32.
constexpr std::size_t kHeaderBytes = 40;

template <typename T>
void patch(std::vector<std::uint8_t>& bytes, std::size_t offset, T value) {
  std::memcpy(bytes.data() + offset, &value, sizeof(value));
}

std::size_t header_cells(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t d[3];
  std::memcpy(d, bytes.data() + 16, sizeof(d));
  return static_cast<std::size_t>(d[0] * d[1] * d[2]);
}

// Decode `bytes`: the result must have the header's shape, or the decoder
// must throw CodecError.  Returns the error code, or 0 on success.
int decode_or_typed_error(const ZfpCompressor& codec,
                          const std::vector<std::uint8_t>& bytes,
                          const std::string& context) {
  try {
    const auto decoded = codec.decompress(bytes);
    EXPECT_GE(bytes.size(), kHeaderBytes) << context;
    if (bytes.size() >= kHeaderBytes) {
      EXPECT_EQ(decoded.size(), header_cells(bytes)) << context;
    }
    return 0;
  } catch (const CodecError& e) {
    return static_cast<int>(e.code());
  } catch (const std::exception& e) {
    ADD_FAILURE() << context << ": untyped " << e.what();
    return -1;
  }
}

std::vector<NamedField> hostile_fields() {
  const Dims smooth{9, 7, 6}, special{12, 12, 12}, plane{13, 10, 1};
  return {{"smooth3d", smooth, smooth_field(smooth, 3)},
          {"special3d", special, special_field(special)},
          {"plane2d", plane, smooth_field(plane, 4)}};
}

TEST(ZfpHostile, TruncatedAtEveryByteEveryMode) {
  for (const NamedField& field : hostile_fields()) {
    for (const NamedMode& mode : kModes) {
      const ZfpCompressor codec(mode.options);
      const auto bytes = codec.compress(field.values, field.dims);
      const auto full = codec.decompress(bytes);
      for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        const std::vector<std::uint8_t> prefix(bytes.begin(),
                                               bytes.begin() + cut);
        try {
          // Only a cut through pure padding could decode, and then it must
          // reproduce the full stream's values.
          EXPECT_EQ(codec.decompress(prefix), full)
              << field.name << " " << mode.name << " cut=" << cut;
        } catch (const CodecError& e) {
          EXPECT_TRUE(e.code() == CodecErrc::kTruncated ||
                      e.code() == CodecErrc::kCountOverflow)
              << field.name << " " << mode.name << " cut=" << cut << ": "
              << e.what();
        }
      }
    }
  }
}

TEST(ZfpHostile, TruncationInsideBlockDataIsTruncated) {
  const auto field = smooth_field({16, 16, 16}, 5);
  for (const NamedMode& mode : kModes) {
    if (mode.options.mode == ZfpMode::kFixedRate) continue;  // capped up front
    const ZfpCompressor codec(mode.options);
    auto bytes = codec.compress(field, {16, 16, 16});
    bytes.resize(bytes.size() - 1);
    try {
      codec.decompress(bytes);
      ADD_FAILURE() << mode.name << ": truncated stream decoded";
    } catch (const CodecError& e) {
      EXPECT_EQ(e.code(), CodecErrc::kTruncated) << mode.name;
    }
  }
}

TEST(ZfpHostile, PatchedHeaderFieldsAreTypedBeforeAllocation) {
  const Dims dims{9, 7, 6};
  const auto field = smooth_field(dims, 3);
  const ZfpCompressor prec({ZfpMode::kFixedPrecision, 16, 0.0, 16});
  const ZfpCompressor acc({ZfpMode::kFixedAccuracy, 0, 1e-3, 16});
  const ZfpCompressor rate({ZfpMode::kFixedRate, 0, 0.0, 8});
  const auto prec_bytes = prec.compress(field, dims);
  const auto acc_bytes = acc.compress(field, dims);
  const auto rate_bytes = rate.compress(field, dims);

  auto expect_code = [&](const ZfpCompressor& codec,
                         std::vector<std::uint8_t> bytes, CodecErrc code,
                         const std::string& what) {
    try {
      codec.decompress(bytes);
      ADD_FAILURE() << what << ": accepted";
    } catch (const CodecError& e) {
      EXPECT_EQ(e.code(), code) << what << ": " << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": untyped " << e.what();
    }
  };
  auto with = [](std::vector<std::uint8_t> bytes, auto&& edit) {
    edit(bytes);
    return bytes;
  };
  const std::uint64_t big = std::uint64_t{1} << 20;

  // Magic and mode.
  expect_code(prec, with(prec_bytes, [](auto& b) { b[0] ^= 0xFF; }),
              CodecErrc::kMalformedStream, "magic");
  for (const std::uint8_t mode : {3, 200, 255}) {
    expect_code(prec, with(prec_bytes, [&](auto& b) { b[4] = mode; }),
                CodecErrc::kMalformedStream, "mode " + std::to_string(mode));
  }
  // Precision 1..62; rate 1..64 with rate * 4^d >= 14.
  for (const std::uint8_t p : {0, 63, 64, 255}) {
    expect_code(prec, with(prec_bytes, [&](auto& b) { b[5] = p; }),
                CodecErrc::kMalformedStream, "precision " + std::to_string(p));
  }
  for (const std::uint8_t r : {0, 65, 255}) {
    expect_code(rate, with(rate_bytes, [&](auto& b) { b[5] = r; }),
                CodecErrc::kMalformedStream, "rate " + std::to_string(r));
  }
  const std::vector<double> line(16, 1.0);
  auto rate_1d = ZfpCompressor({ZfpMode::kFixedRate, 0, 0.0, 4})
                     .compress(line, Dims::d1(16));
  expect_code(rate, with(rate_1d, [](auto& b) { b[5] = 3; }),
              CodecErrc::kMalformedStream, "rank-1 rate 3 (12 bits/block)");
  // Tolerance: finite and positive.
  for (const double tol : {0.0, -1e-3, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    expect_code(acc, with(acc_bytes, [&](auto& b) { patch(b, 8, tol); }),
                CodecErrc::kMalformedStream,
                "tolerance " + std::to_string(tol));
  }
  // Dims: nx * ny * nz overflows, or claims more blocks than the stream
  // can hold at 1 bit each (fixed rate: at its exact block budget).
  expect_code(prec, with(prec_bytes, [&](auto& b) {
                patch(b, 16, big);
                patch(b, 24, big);
                patch(b, 32, big);
              }),
              CodecErrc::kCountOverflow, "2^20 cubed");
  expect_code(prec, with(prec_bytes, [&](auto& b) {
                patch(b, 16, std::uint64_t{1} << 32);
                patch(b, 24, std::uint64_t{1} << 32);
                patch(b, 32, std::uint64_t{1} << 32);
              }),
              CodecErrc::kCountOverflow, "2^32 cubed wraps");
  expect_code(prec, with(prec_bytes, [&](auto& b) {
                b.resize(100);
                patch(b, 16, std::uint64_t{4096});
                patch(b, 24, std::uint64_t{4096});
                patch(b, 32, std::uint64_t{1});
              }),
              CodecErrc::kCountOverflow, "4096^2 on 100 bytes");
  expect_code(prec, with(prec_bytes, [&](auto& b) {
                patch(b, 16, ~std::uint64_t{0});
                patch(b, 24, std::uint64_t{1});
                patch(b, 32, std::uint64_t{1});
              }),
              CodecErrc::kCountOverflow, "nx = 2^64 - 1");
  const std::uint64_t three_z_blocks = 9;
  expect_code(rate,
              with(rate_bytes, [&](auto& b) { patch(b, 32, three_z_blocks); }),
              CodecErrc::kTruncated, "fixed rate, one more z block");
  // A header shorter than 40 bytes.
  expect_code(prec, std::vector<std::uint8_t>(prec_bytes.begin(),
                                              prec_bytes.begin() + 39),
              CodecErrc::kTruncated, "39-byte header");

  // Each dim set to every small value: right shape or typed.
  for (const std::size_t offset : {16, 24, 32}) {
    for (std::uint64_t v = 0; v <= 40; ++v) {
      for (const auto* bytes : {&prec_bytes, &acc_bytes, &rate_bytes}) {
        decode_or_typed_error(
            prec, with(*bytes, [&](auto& b) { patch(b, offset, v); }),
            "dim @" + std::to_string(offset) + " = " + std::to_string(v));
      }
    }
  }
}

TEST(ZfpHostile, SeededByteFlipsAreTypedOrShaped) {
  std::mt19937_64 rng(2024);
  for (const NamedField& field : hostile_fields()) {
    for (const NamedMode& mode : kModes) {
      const ZfpCompressor codec(mode.options);
      const auto bytes = codec.compress(field.values, field.dims);
      for (int trial = 0; trial < 200; ++trial) {
        auto mutated = bytes;
        const int flips = 1 + static_cast<int>(rng() % 3);
        for (int f = 0; f < flips; ++f) {
          // Half the flips land in the header, half anywhere.
          const std::size_t at =
              rng() % 2 ? rng() % kHeaderBytes : rng() % mutated.size();
          mutated[at] ^= static_cast<std::uint8_t>(1 + rng() % 255);
        }
        decode_or_typed_error(codec, mutated,
                              std::string(field.name) + " " + mode.name +
                                  " trial " + std::to_string(trial));
      }
    }
  }
}

// A field with a zero extent has no blocks: its stream is the bare header,
// whichever other extents the header carries.
TEST(ZfpHostile, EmptyFieldsAreHeaderOnly) {
  for (const Dims dims : {Dims{0, 1, 1}, Dims{4, 0, 1}, Dims{4, 4, 0},
                          Dims{0, 5, 5}}) {
    for (const NamedMode& mode : kModes) {
      const ZfpCompressor codec(mode.options);
      const auto bytes = codec.compress({}, dims);
      EXPECT_EQ(bytes.size(), kHeaderBytes) << mode.name;
      EXPECT_TRUE(codec.decompress(bytes).empty()) << mode.name;
    }
  }
}

// On the exact decode path a damaged ZFP delta surfaces as a CodecError,
// which the front ends map to the integrity exit (rmpc exit 4).
TEST(ZfpHostile, DamagedDeltaInAnArchiveIsTyped) {
  const core::Codecs codecs = core::make_codecs("zfp");
  const auto preconditioner = core::make_preconditioner("one-base");
  const Dims dims{12, 10, 8};
  const auto values = smooth_field(dims, 6);
  const io::Container complete = preconditioner->encode(
      sim::Field::from_data(dims.nx, dims.ny, dims.nz, values),
      codecs.pair(), nullptr);
  for (const std::size_t keep : {std::size_t{4}, std::size_t{41}}) {
    io::Container damaged = complete;
    for (auto& section : damaged.sections) {
      if (section.name == "delta") section.bytes.resize(keep);
    }
    EXPECT_THROW(preconditioner->decode(damaged, codecs.pair(), nullptr),
                 CodecError)
        << "delta cut to " << keep << " bytes";
  }
}

}  // namespace
}  // namespace rmp::compress
