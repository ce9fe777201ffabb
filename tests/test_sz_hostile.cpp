// Hostile-input suite for the SZ payload (DESIGN.md §13, "One checked
// stream reader"): the LZ wrapper is unwrapped, one field of the SZ
// payload inside it is patched or the payload is cut, and the result is
// re-wrapped, so that SZ's own checks -- not LZ's -- meet the damage.  Every
// such stream either decodes or fails with a CodecError that names the
// field, before any allocation the stream cannot pay for.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "compress/codec_error.hpp"
#include "compress/lossless.hpp"
#include "compress/sz.hpp"

namespace rmp::compress {
namespace {

using Bytes = std::vector<std::uint8_t>;

// Payload layout: the 40-byte header (magic, mode, quant_bits, predictor,
// bound, nx, ny, nz), then the Huffman size and codes, the outlier count
// and outliers, then per mode the bound table, the regression model, or
// the zero and sign masks and the exceptions.
constexpr std::size_t kMode = 4, kQuantBits = 5, kPredictor = 6, kBound = 8,
                      kNx = 16, kNy = 24, kNz = 32, kHuffmanSize = 40;
constexpr std::uint64_t kHuge = std::uint64_t{1} << 60;

std::vector<double> field(const Dims& d) {
  std::vector<double> f(d.count());
  for (std::size_t n = 0; n < f.size(); ++n) {
    f[n] = std::sin(0.05 * static_cast<double>(n)) +
           (n % 17 == 0 ? 40.0 : 0.0);  // spikes make outliers
  }
  f[3] = 0.0;                                     // zero class
  f[5] = std::numeric_limits<double>::quiet_NaN();  // an exception
  return f;
}

template <typename T>
T peek(const Bytes& b, std::size_t at) {
  T v;
  std::memcpy(&v, b.data() + at, sizeof(v));
  return v;
}

template <typename T>
void patch(Bytes& b, std::size_t at, T v) {
  std::memcpy(b.data() + at, &v, sizeof(v));
}

struct Case {
  const char* name;
  SzOptions options;
};

const Dims kDims{9, 7, 6};
const Case kCases[] = {
    {"abs", {SzMode::kAbsolute, 1e-3, 16, SzPredictor::kLorenzo}},
    {"block-rel", {SzMode::kBlockRelative, 1e-3, 16, SzPredictor::kLorenzo}},
    {"hybrid", {SzMode::kAbsolute, 1e-3, 16, SzPredictor::kHybrid}},
    {"pw-rel", {SzMode::kPointwiseRelative, 1e-3, 16, SzPredictor::kLorenzo}},
};

Bytes payload_of(const SzOptions& options) {
  return lossless_decompress(
      SzCompressor(options).compress(field(kDims), kDims));
}

std::size_t outlier_count_at(const Bytes& p) {
  return kHuffmanSize + 8 + peek<std::uint64_t>(p, kHuffmanSize);
}

// Offset of the field after the outliers.
std::size_t after_outliers(const Bytes& p) {
  return outlier_count_at(p) + 8 + 8 * peek<std::uint64_t>(p, outlier_count_at(p));
}

// The payload, re-wrapped, must fail with `code` and an SZ message.
void expect_code(const Bytes& payload, CodecErrc code,
                 const std::string& what) {
  try {
    SzCompressor{}.decompress(lossless_compress(payload));
    ADD_FAILURE() << what << ": accepted";
  } catch (const CodecError& e) {
    EXPECT_EQ(e.code(), code) << what << ": " << e.what();
    EXPECT_NE(std::string(e.what()).find("SZ decode: "), std::string::npos)
        << what << ": " << e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": untyped " << e.what();
  }
}

template <typename Edit>
Bytes with(Bytes bytes, Edit&& edit) {
  edit(bytes);
  return bytes;
}

TEST(SzHostile, PatchedHeaderFieldsAreTypedBeforeAllocation) {
  const Bytes abs = payload_of(kCases[0].options);
  const Bytes rel = payload_of(kCases[1].options);
  const Bytes hybrid = payload_of(kCases[2].options);
  const Bytes pwrel = payload_of(kCases[3].options);
  using E = Bytes;
  const auto malformed = CodecErrc::kMalformedStream;

  expect_code(with(abs, [](E& b) { b[0] ^= 0xFF; }), malformed, "magic");
  // Modes 0..2, predictors 0..1, quant_bits 2..30, a finite positive bound:
  // what the constructor accepts.
  for (const std::uint8_t mode : {3, 7, 255}) {
    expect_code(with(abs, [&](E& b) { b[kMode] = mode; }), malformed,
                "mode " + std::to_string(mode));
  }
  for (const std::uint16_t predictor : {2, 5, 0xFFFF}) {
    expect_code(with(abs, [&](E& b) { patch(b, kPredictor, predictor); }),
                malformed, "predictor " + std::to_string(predictor));
  }
  for (const std::uint8_t bits : {0, 1, 31, 255}) {
    expect_code(with(abs, [&](E& b) { b[kQuantBits] = bits; }), malformed,
                "quant_bits " + std::to_string(bits));
  }
  for (const double bound :
       {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    for (const Bytes* p : {&abs, &rel, &pwrel}) {
      expect_code(with(*p, [&](E& b) { patch(b, kBound, bound); }), malformed,
                  "bound " + std::to_string(bound));
    }
  }

  // Dims whose product overflows; a huge product that does not overflow
  // meets the Huffman code count instead, before any cell is allocated.
  const std::uint64_t max = ~std::uint64_t{0};
  expect_code(with(abs, [&](E& b) {
                patch(b, kNx, std::uint64_t{1} << 32);
                patch(b, kNy, std::uint64_t{1} << 32);
                patch(b, kNz, std::uint64_t{1} << 32);
              }),
              CodecErrc::kCountOverflow, "2^32 cubed wraps");
  expect_code(with(abs, [&](E& b) {
                patch(b, kNx, max);
                patch(b, kNy, std::uint64_t{2});
                patch(b, kNz, std::uint64_t{1});
              }),
              CodecErrc::kCountOverflow, "nx = 2^64 - 1, ny = 2");
  expect_code(with(abs, [&](E& b) {
                patch(b, kNx, max);
                patch(b, kNy, std::uint64_t{1});
                patch(b, kNz, std::uint64_t{1});
              }),
              malformed, "nx = 2^64 - 1");

  // Sizes and counts set to 2^60: a byte block the stream does not hold is
  // truncated, a counted array it cannot hold is a count overflow.
  expect_code(with(abs, [&](E& b) { patch(b, kHuffmanSize, kHuge); }),
              CodecErrc::kTruncated, "Huffman size");
  ASSERT_GT(peek<std::uint64_t>(abs, outlier_count_at(abs)), 0u);
  expect_code(with(abs, [&](E& b) { patch(b, outlier_count_at(b), kHuge); }),
              CodecErrc::kCountOverflow, "outlier count");
  expect_code(with(rel, [&](E& b) { patch(b, after_outliers(b), kHuge); }),
              CodecErrc::kCountOverflow, "bound count");
  expect_code(
      with(rel, [&](E& b) { patch(b, after_outliers(b), std::uint64_t{0}); }),
      malformed, "empty bound table");

  // Regression geometry must be the one dims and edge imply.
  for (std::size_t g = 0; g < 4; ++g) {
    for (const std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1000}, max}) {
      expect_code(
          with(hybrid, [&](E& b) { patch(b, after_outliers(b) + 8 * g, v); }),
          malformed,
          "geometry[" + std::to_string(g) + "] = " + std::to_string(v));
    }
  }

  // Masks must cover the grid; the exception arrays are capped.
  const std::size_t zero_at = after_outliers(pwrel);
  const std::size_t sign_at =
      zero_at + 8 + peek<std::uint64_t>(pwrel, zero_at);
  const std::size_t exceptions_at =
      sign_at + 8 + peek<std::uint64_t>(pwrel, sign_at);
  ASSERT_EQ(peek<std::uint64_t>(pwrel, exceptions_at), 1u);
  for (const std::size_t at : {zero_at, sign_at}) {
    expect_code(with(pwrel, [&](E& b) { patch(b, at, std::uint64_t{0}); }),
                malformed, "mask size 0 @" + std::to_string(at));
    expect_code(with(pwrel, [&](E& b) { patch(b, at, kHuge); }),
                CodecErrc::kTruncated, "mask size 2^60 @" + std::to_string(at));
  }
  expect_code(with(pwrel, [&](E& b) { patch(b, exceptions_at, kHuge); }),
              CodecErrc::kCountOverflow, "exception count");
  expect_code(with(pwrel, [&](E& b) {
                patch(b, exceptions_at + 8, kDims.count());
              }),
              malformed, "exception position");
}

// Block-relative bounds are rel * max|v| per block: never negative or
// NaN, but +inf when the product overflows and 0 when it underflows.
TEST(SzHostile, BlockRelativeBoundEntriesAreChecked) {
  const Bytes rel = payload_of(kCases[1].options);
  const std::size_t first_entry = after_outliers(rel) + 8;
  for (const double bad : {-1.0, std::numeric_limits<double>::quiet_NaN()}) {
    expect_code(with(rel, [&](Bytes& b) { patch(b, first_entry, bad); }),
                CodecErrc::kMalformedStream,
                "bound entry " + std::to_string(bad));
  }
  for (const double ok : {0.0, std::numeric_limits<double>::infinity()}) {
    const Bytes patched =
        with(rel, [&](Bytes& b) { patch(b, first_entry, ok); });
    EXPECT_EQ(SzCompressor{}.decompress(lossless_compress(patched)).size(),
              kDims.count())
        << "bound entry " << ok;
  }
}

// Cutting the payload itself (not its LZ wrapper) reaches every SZ read:
// each cut names the field it ends in, or the array that no longer fits.
TEST(SzHostile, PayloadTruncatedAtEveryByteNamesTheField) {
  for (const Case& c : kCases) {
    const Bytes payload = payload_of(c.options);
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
      const Bytes prefix(payload.begin(), payload.begin() + cut);
      const std::string what =
          std::string(c.name) + " cut=" + std::to_string(cut);
      try {
        SzCompressor{}.decompress(lossless_compress(prefix));
        ADD_FAILURE() << what << ": decoded";
      } catch (const CodecError& e) {
        const std::string message = e.what();
        if (e.code() == CodecErrc::kTruncated) {
          EXPECT_NE(message.find("SZ decode: stream ends in "),
                    std::string::npos)
              << what << ": " << message;
        } else {
          EXPECT_EQ(e.code(), CodecErrc::kCountOverflow)
              << what << ": " << message;
          EXPECT_NE(message.find(" bytes left"), std::string::npos)
              << what << ": " << message;
        }
      }
    }
  }
}

// The constructor accepts exactly the headers the decoder accepts.
TEST(SzHostile, ConstructorRejectsWhatTheDecoderRejects) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const SzOptions& bad : {
           SzOptions{SzMode::kAbsolute, nan, 16, SzPredictor::kLorenzo},
           SzOptions{SzMode::kAbsolute, inf, 16, SzPredictor::kLorenzo},
           SzOptions{SzMode::kAbsolute, -1.0, 16, SzPredictor::kLorenzo},
           SzOptions{SzMode::kBlockRelative, nan, 16, SzPredictor::kLorenzo},
           SzOptions{static_cast<SzMode>(7), 1e-3, 16, SzPredictor::kLorenzo},
           SzOptions{SzMode::kAbsolute, 1e-3, 16, static_cast<SzPredictor>(5)},
           SzOptions{SzMode::kAbsolute, 1e-3, 31, SzPredictor::kLorenzo},
       }) {
    EXPECT_THROW(SzCompressor{bad}, std::invalid_argument)
        << static_cast<int>(bad.mode) << " " << bad.bound << " "
        << bad.quant_bits << " " << static_cast<int>(bad.predictor);
  }
  for (const Case& c : kCases) {
    const SzCompressor codec(c.options);
    EXPECT_EQ(codec.decompress(codec.compress(field(kDims), kDims)).size(),
              kDims.count())
        << c.name;
  }
}

}  // namespace
}  // namespace rmp::compress
