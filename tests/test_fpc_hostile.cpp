// Golden-bytes pins for the FPC lossless codec: size and CRC32 of its
// output for three table sizes on a multi-MB field, on odd shapes and on
// a field of raw bit patterns (NaN payloads, subnormals, infinities).
//
// Plus the hostile-input suite: any byte stream either decodes to the
// value count its header declares, or fails with a typed CodecError --
// never a crash, an untyped exception, or an allocation the stream cannot
// pay for.
#include "compress/fpc.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "compress/codec_error.hpp"
#include "io/checksum.hpp"

namespace rmp::compress {
namespace {

// Smooth trend, sawtooth and noise; no libm, so the bits do not depend on it.
std::vector<double> smooth_field(const Dims& d, std::uint64_t seed) {
  std::vector<double> f(d.count());
  std::mt19937_64 rng(seed);
  std::size_t n = 0;
  for (std::size_t i = 0; i < d.nx; ++i) {
    for (std::size_t j = 0; j < d.ny; ++j) {
      for (std::size_t k = 0; k < d.nz; ++k, ++n) {
        const double saw =
            static_cast<double>((k * 29 + j * 13 + i * 7) % 89) / 89.0;
        const double noise =
            static_cast<double>(rng() >> 11) / 9007199254740992.0;
        f[n] = 250.0 + 0.5 * static_cast<double>(i) -
               0.01 * static_cast<double>(j * k) + 3.0 * saw + 1e-6 * noise;
      }
    }
  }
  return f;
}

// Every 64-bit pattern is a double FPC must carry bit-exactly.
std::vector<double> raw_bits_field(std::size_t count) {
  std::vector<double> f(count);
  std::mt19937_64 rng(23);
  for (std::size_t n = 0; n < count; ++n) {
    std::uint64_t bits = rng();
    if (n % 5 == 0) bits &= 0x800FFFFFFFFFFFFFull;  // subnormal or zero
    if (n % 11 == 0) bits |= 0x7FF0000000000000ull;  // Inf or NaN payload
    if (n % 13 == 0) bits = 0;
    std::memcpy(&f[n], &bits, sizeof(bits));
  }
  return f;
}

struct NamedField {
  const char* name;
  Dims dims;
  std::vector<double> values;
};

std::vector<NamedField> pinned_fields() {
  const Dims big{96, 80, 72}, odd3{5, 7, 9}, odd2{33, 17, 1}, odd1{1001, 1, 1};
  return {{"big", big, smooth_field(big, 1)},
          {"odd3d", odd3, smooth_field(odd3, 2)},
          {"odd2d", odd2, smooth_field(odd2, 3)},
          {"odd1d", odd1, smooth_field(odd1, 4)},
          {"raw", {4097, 1, 1}, raw_bits_field(4097)},
          {"empty", {0, 1, 1}, {}}};
}

std::uint32_t crc_of(std::span<const std::uint8_t> bytes) {
  return io::crc32(bytes);
}

std::string hex(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08Xu", v);
  return buf;
}

struct FpcPin {
  const char* field;
  unsigned table_bits;
  std::size_t size;
  std::uint32_t crc;
};

const FpcPin kFpcPins[] = {
    {"big", 4, 3330494u, 0xC81DE035u},
    {"big", 12, 2795356u, 0xA9D4A144u},
    {"big", 20, 2868316u, 0x8D35C3FEu},
    {"odd3d", 4, 1964u, 0x5B52A239u},
    {"odd3d", 12, 1891u, 0x691458AEu},
    {"odd3d", 20, 1916u, 0x20307CAFu},
    {"odd2d", 4, 3118u, 0xDBFDDB70u},
    {"odd2d", 12, 3099u, 0x645CB602u},
    {"odd2d", 20, 3136u, 0x40AE0E79u},
    {"odd1d", 4, 4805u, 0xB2B16546u},
    {"odd1d", 12, 4792u, 0xBB3148B8u},
    {"odd1d", 20, 4782u, 0x95E46EB6u},
    {"raw", 4, 34621u, 0xBB71DCB4u},
    {"raw", 12, 32793u, 0xBD1B263Du},
    {"raw", 20, 31944u, 0x11CB8B20u},
    {"empty", 4, 40u, 0xE39ED57Cu},
    {"empty", 12, 40u, 0x933E6452u},
    {"empty", 20, 40u, 0x02DFB720u},
};

TEST(FpcGolden, StreamsArePinnedAndRoundTripExactly) {
  std::size_t checked = 0;
  for (const NamedField& field : pinned_fields()) {
    for (const unsigned table_bits : {4u, 12u, 20u}) {
      const FpcCompressor codec(FpcOptions{table_bits});
      const auto bytes = codec.compress(field.values, field.dims);
      const auto decoded = codec.decompress(bytes);
      ASSERT_EQ(decoded.size(), field.values.size());
      // Bit patterns, not ==: the raw field holds NaNs.
      EXPECT_TRUE(decoded.empty() ||
                  std::memcmp(decoded.data(), field.values.data(),
                              decoded.size() * sizeof(double)) == 0)
          << field.name;
      const std::string row = std::string("{\"") + field.name + "\", " +
                              std::to_string(table_bits) + ", " +
                              std::to_string(bytes.size()) + "u, " +
                              hex(crc_of(bytes)) + "},";
      const auto* pin = std::find_if(
          std::begin(kFpcPins), std::end(kFpcPins), [&](const FpcPin& p) {
            return std::string(field.name) == p.field &&
                   p.table_bits == table_bits;
          });
      if (pin == std::end(kFpcPins)) {
        ADD_FAILURE() << "no pin for " << row;
        continue;
      }
      EXPECT_EQ(bytes.size(), pin->size) << row;
      EXPECT_EQ(crc_of(bytes), pin->crc) << row;
      ++checked;
    }
  }
  EXPECT_EQ(checked, std::size(kFpcPins));
}

// --- hostile streams -------------------------------------------------------

// Header layout (see fpc.cpp): magic u32 @0, table_bits u8 @4, reserved
// @5..7, nx/ny/nz u64 @8/16/24, code_bytes u64 @32, then the codes.
constexpr std::size_t kHeaderBytes = 40;

template <typename T>
void patch(std::vector<std::uint8_t>& bytes, std::size_t offset, T value) {
  std::memcpy(bytes.data() + offset, &value, sizeof(value));
}

std::uint64_t header_u64(const std::vector<std::uint8_t>& bytes,
                         std::size_t offset) {
  std::uint64_t v;
  std::memcpy(&v, bytes.data() + offset, sizeof(v));
  return v;
}

// Decode `bytes`: the result must hold the header's value count, or the
// decoder must throw CodecError.  Returns the error code, or 0 on success.
int decode_or_typed_error(const std::vector<std::uint8_t>& bytes,
                          const std::string& context) {
  try {
    const auto decoded = FpcCompressor{}.decompress(bytes);
    EXPECT_EQ(decoded.size(), header_u64(bytes, 8) * header_u64(bytes, 16) *
                                  header_u64(bytes, 24))
        << context;
    return 0;
  } catch (const CodecError& e) {
    return static_cast<int>(e.code());
  } catch (const std::exception& e) {
    ADD_FAILURE() << context << ": untyped " << e.what();
    return -1;
  }
}

std::vector<NamedField> hostile_fields() {
  const Dims odd3{5, 7, 9};
  return {{"odd3d", odd3, smooth_field(odd3, 2)},
          {"raw", {257, 1, 1}, raw_bits_field(257)},
          {"empty", {0, 1, 1}, {}}};
}

TEST(FpcHostile, TruncatedAtEveryByte) {
  for (const NamedField& field : hostile_fields()) {
    for (const unsigned table_bits : {4u, 8u}) {
      const auto bytes =
          FpcCompressor(FpcOptions{table_bits}).compress(field.values,
                                                         field.dims);
      for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        const std::vector<std::uint8_t> prefix(bytes.begin(),
                                               bytes.begin() + cut);
        try {
          FpcCompressor{}.decompress(prefix);
          ADD_FAILURE() << field.name << " cut=" << cut << " decoded";
        } catch (const CodecError& e) {
          EXPECT_TRUE(e.code() == CodecErrc::kTruncated ||
                      e.code() == CodecErrc::kCountOverflow)
              << field.name << " cut=" << cut << ": " << e.what();
        }
      }
    }
  }
}

TEST(FpcHostile, PatchedHeaderFieldsAreTyped) {
  const Dims dims{5, 7, 9};
  const auto good =
      FpcCompressor(FpcOptions{8}).compress(smooth_field(dims, 2), dims);
  const std::uint64_t code_bytes = header_u64(good, 32);
  ASSERT_EQ(code_bytes, (dims.count() + 1) / 2);
  const auto expect = [&good](const std::string& what, CodecErrc code,
                              auto&& edit) {
    auto bytes = good;
    edit(bytes);
    EXPECT_EQ(decode_or_typed_error(bytes, what), static_cast<int>(code))
        << what;
  };
  using E = std::vector<std::uint8_t>;
  expect("magic", CodecErrc::kMalformedStream,
         [](E& b) { patch<std::uint32_t>(b, 0, 0x31435047u); });
  // table_bits outside 4..26; 40 used to size an 8 TB table.
  for (const std::uint8_t bits : {0, 3, 27, 40, 255}) {
    expect("table_bits=" + std::to_string(bits), CodecErrc::kMalformedStream,
           [bits](E& b) { patch(b, 4, bits); });
  }
  expect("nx*ny overflows", CodecErrc::kCountOverflow, [](E& b) {
    patch<std::uint64_t>(b, 8, std::uint64_t{1} << 62);
    patch<std::uint64_t>(b, 16, 8);
  });
  expect("count beyond the stream", CodecErrc::kCountOverflow,
         [](E& b) { patch<std::uint64_t>(b, 8, std::uint64_t{1} << 40); });
  // code_offset + code_bytes used to wrap past the size check.
  expect("code_bytes wraps", CodecErrc::kTruncated, [](E& b) {
    patch<std::uint64_t>(b, 32, ~std::uint64_t{0} - kHeaderBytes + 1);
  });
  expect("code_bytes max", CodecErrc::kTruncated,
         [](E& b) { patch<std::uint64_t>(b, 32, ~std::uint64_t{0}); });
  expect("code_bytes short", CodecErrc::kMalformedStream,
         [&](E& b) { patch<std::uint64_t>(b, 32, code_bytes - 1); });
  expect("code_bytes long", CodecErrc::kMalformedStream,
         [&](E& b) { patch<std::uint64_t>(b, 32, code_bytes + 1); });
  expect("fewer values than codes", CodecErrc::kMalformedStream,
         [](E& b) { patch<std::uint64_t>(b, 8, 4); });
  expect("more values than codes", CodecErrc::kMalformedStream,
         [](E& b) { patch<std::uint64_t>(b, 8, 6); });
}

TEST(FpcHostile, SeededByteFlipsDecodeOrAreTyped) {
  std::mt19937_64 rng(99);
  for (const NamedField& field : hostile_fields()) {
    const auto good = FpcCompressor(FpcOptions{8}).compress(field.values,
                                                            field.dims);
    for (int trial = 0; trial < 200; ++trial) {
      auto bytes = good;
      const std::size_t at = rng() % bytes.size();
      bytes[at] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
      decode_or_typed_error(bytes, std::string(field.name) + " flip@" +
                                       std::to_string(at));
    }
  }
}

}  // namespace
}  // namespace rmp::compress
