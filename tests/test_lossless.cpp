#include "compress/lossless.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <random>
#include <stdexcept>
#include <string>
#include <tuple>

#include "compress/bitstream.hpp"
#include "compress/codec_error.hpp"
#include "io/checksum.hpp"

namespace rmp::compress {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

TEST(Lossless, EmptyInput) {
  const auto compressed = lossless_compress({});
  EXPECT_TRUE(lossless_decompress(compressed).empty());
}

TEST(Lossless, ShortLiteralOnly) {
  const auto input = bytes_of("abc");
  EXPECT_EQ(lossless_decompress(lossless_compress(input)), input);
}

TEST(Lossless, RepetitiveInputCompressesWell) {
  std::vector<std::uint8_t> input;
  for (int i = 0; i < 1000; ++i) {
    const auto chunk = bytes_of("the quick brown fox ");
    input.insert(input.end(), chunk.begin(), chunk.end());
  }
  const auto compressed = lossless_compress(input);
  EXPECT_LT(compressed.size(), input.size() / 10);
  EXPECT_EQ(lossless_decompress(compressed), input);
}

TEST(Lossless, IncompressibleFallsBackToRaw) {
  std::mt19937 rng(5);
  std::vector<std::uint8_t> input(4096);
  for (auto& b : input) b = static_cast<std::uint8_t>(rng());
  const auto compressed = lossless_compress(input);
  // Raw mode overhead is 9 bytes.
  EXPECT_LE(compressed.size(), input.size() + 9);
  EXPECT_EQ(lossless_decompress(compressed), input);
}

TEST(Lossless, OverlappingMatchRunLength) {
  // "aaaa..." forces overlapping copies (distance 1, long length).
  std::vector<std::uint8_t> input(10000, 'a');
  const auto compressed = lossless_compress(input);
  EXPECT_LT(compressed.size(), 200u);
  EXPECT_EQ(lossless_decompress(compressed), input);
}

TEST(Lossless, RunsLongerThanTheLastLengthBucketRoundTrip) {
  // The length buckets code matches up to min_match + 65534 bytes.  A zero
  // run of 65,539 bytes is a literal plus the longest codable match; the
  // longer runs must split into several matches rather than emit a bucket
  // past the last one (which the decoder cannot read back).
  for (const std::size_t n : {std::size_t{65539}, std::size_t{65540},
                              std::size_t{1000000}}) {
    const std::vector<std::uint8_t> input(n, 0);
    const auto compressed = lossless_compress(input);
    EXPECT_LT(compressed.size(), n / 100) << n;
    EXPECT_EQ(lossless_decompress(compressed), input) << n;
  }
}

TEST(Lossless, AllByteValues) {
  std::vector<std::uint8_t> input;
  for (int round = 0; round < 8; ++round) {
    for (int b = 0; b < 256; ++b) input.push_back(static_cast<std::uint8_t>(b));
  }
  EXPECT_EQ(lossless_decompress(lossless_compress(input)), input);
}

TEST(Lossless, RejectsGarbage) {
  std::vector<std::uint8_t> garbage = {0x77, 1, 2, 3};
  EXPECT_THROW(lossless_decompress(garbage), std::runtime_error);
  EXPECT_THROW(lossless_decompress({}), std::runtime_error);
}

class LosslessOptionsSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned, unsigned>> {
};

TEST_P(LosslessOptionsSweep, RoundTripUnderAnyTuning) {
  const auto& [window_bits, min_match, max_chain] = GetParam();
  LosslessOptions options;
  options.window = 1u << window_bits;
  options.min_match = min_match;
  options.max_chain = max_chain;

  std::vector<std::uint8_t> input;
  for (int i = 0; i < 2000; ++i) {
    // Structured but not trivial: repeated motifs at varying distances.
    input.push_back(static_cast<std::uint8_t>((i * 7) % 251));
    if (i % 5 == 0) {
      const auto motif = bytes_of("motif");
      input.insert(input.end(), motif.begin(), motif.end());
    }
  }
  const auto compressed = lossless_compress(input, options);
  EXPECT_EQ(lossless_decompress(compressed), input);
}

TEST_P(LosslessOptionsSweep, SmallerWindowNeverDecodesWrong) {
  const auto& [window_bits, min_match, max_chain] = GetParam();
  LosslessOptions options;
  options.window = 1u << window_bits;
  options.min_match = min_match;
  options.max_chain = max_chain;
  // Matches farther than the window must simply not be used.
  std::vector<std::uint8_t> input;
  const auto chunk = bytes_of("abcdefghijklmnopqrstuvwxyz0123456789");
  for (int rep = 0; rep < 40; ++rep) {
    input.insert(input.end(), chunk.begin(), chunk.end());
    input.push_back(static_cast<std::uint8_t>(rep));
  }
  EXPECT_EQ(lossless_decompress(lossless_compress(input, options)), input);
}

INSTANTIATE_TEST_SUITE_P(
    Tunings, LosslessOptionsSweep,
    ::testing::Combine(::testing::Values(6u, 10u, 16u),
                       ::testing::Values(4u, 8u),
                       ::testing::Values(1u, 8u, 64u)));

// Options the stream cannot carry are rejected up front: min_match has an
// 8-bit field, and distance widths a 5-bit one.
std::vector<std::uint8_t> motif_input() {
  std::vector<std::uint8_t> input;
  const auto motif = bytes_of("0123456789");
  for (int rep = 0; rep < 3000; ++rep) {
    input.insert(input.end(), motif.begin(), motif.end());
  }
  return input;
}

TEST(LosslessOptionsRange, MinMatchAbove255IsRejected) {
  // 300 used to make an 80-byte stream that failed with "size mismatch".
  for (const std::uint32_t min_match : {256u, 300u}) {
    LosslessOptions options;
    options.min_match = min_match;
    EXPECT_THROW(lossless_compress(motif_input(), options),
                 std::invalid_argument)
        << min_match;
  }
}

TEST(LosslessOptionsRange, MinMatchZeroIsRejected) {
  // A zero-length match never advances the parse.
  LosslessOptions options;
  options.min_match = 0;
  EXPECT_THROW(lossless_compress(motif_input(), options),
               std::invalid_argument);
}

TEST(LosslessOptionsRange, WindowOf2To31IsRejected) {
  for (const std::uint32_t window : {1u << 31, ~0u}) {
    LosslessOptions options;
    options.window = window;
    EXPECT_THROW(lossless_compress(motif_input(), options),
                 std::invalid_argument)
        << window;
  }
}

TEST(LosslessOptionsRange, LimitsRoundTrip) {
  const auto input = motif_input();
  for (const LosslessOptions& options :
       {LosslessOptions{1u << 16, 1, 32}, LosslessOptions{1u << 16, 255, 32},
        LosslessOptions{(1u << 31) - 1, 4, 32}}) {
    EXPECT_EQ(lossless_decompress(lossless_compress(input, options)), input)
        << options.window << " " << options.min_match;
  }
}

class LosslessRandomized : public ::testing::TestWithParam<unsigned> {};

TEST_P(LosslessRandomized, StructuredRandomRoundTrip) {
  std::mt19937 rng(GetParam());
  // Mix of random runs and repeated motifs, the typical shape of
  // quantization-code byte streams.
  std::vector<std::uint8_t> input;
  for (int block = 0; block < 50; ++block) {
    if (rng() % 2 == 0) {
      const std::uint8_t value = static_cast<std::uint8_t>(rng());
      const std::size_t run = rng() % 300;
      input.insert(input.end(), run, value);
    } else {
      const std::size_t run = rng() % 100;
      for (std::size_t i = 0; i < run; ++i) {
        input.push_back(static_cast<std::uint8_t>(rng()));
      }
    }
  }
  EXPECT_EQ(lossless_decompress(lossless_compress(input)), input);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LosslessRandomized,
                         ::testing::Range(0u, 10u));

// --- hostile token tables ------------------------------------------------

// An LZ stream whose Huffman table is {'a', `symbol`} (one bit each) and
// whose first token is `symbol`, followed by enough zero bits that no
// bit budget check stops the decoder before it interprets the symbol.
std::vector<std::uint8_t> stream_with_token(std::uint32_t symbol) {
  BitWriter writer;
  writer.put_bits(1000, 64);  // declared output size
  writer.put_bits(4, 8);      // min_match
  writer.put_bits(2, 32);     // table entries
  writer.put_bits('a', 32);
  writer.put_bits(1, 6);
  writer.put_bits(symbol, 32);
  writer.put_bits(1, 6);
  writer.put_bits(1, 1);  // canonical code 1: the larger symbol
  for (int i = 0; i < 32; ++i) writer.put_bits(0, 64);
  std::vector<std::uint8_t> bytes = writer.take();
  bytes.insert(bytes.begin(), 1);  // LZ mode
  return bytes;
}

TEST(LosslessHostile, MatchSymbolPastTheLastBucketIsMalformed) {
  // 272 ends the stream; above it, bucket = symbol - 256 exceeds 15.  290
  // once shifted a 32-bit 1 by 34 and 1000 escaped get_bits untyped.
  for (const std::uint32_t symbol : {273u, 288u, 290u, 321u, 1000u}) {
    try {
      lossless_decompress(stream_with_token(symbol));
      FAIL() << "symbol " << symbol << " accepted";
    } catch (const CodecError& e) {
      EXPECT_EQ(e.code(), CodecErrc::kMalformedStream) << symbol;
    }
  }
}

TEST(LosslessHostile, EndOfStreamSymbolStillEndsTheStream) {
  // The same stream shape with the end-of-stream symbol decodes to nothing
  // and fails only the declared-size check, typed.
  try {
    lossless_decompress(stream_with_token(272));
    FAIL() << "short stream accepted";
  } catch (const CodecError& e) {
    EXPECT_EQ(e.code(), CodecErrc::kMalformedStream);
  }
}

// --- golden bytes: the parse must not move a single bit -----------------
//
// Size and CRC32 of lossless_compress over inputs that reach each corner
// of the match search and the token coder.  Captured before the encoder
// was rewritten around a prebuilt hash chain; every row also round-trips.

std::vector<std::uint8_t> random_bytes(std::mt19937& rng, std::size_t n,
                                       unsigned alphabet = 256) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng() % alphabet);
  return out;
}

void append(std::vector<std::uint8_t>& to, const std::vector<std::uint8_t>& s) {
  to.insert(to.end(), s.begin(), s.end());
}

// 100 records: "abc", 3 bytes of a 16-letter alphabet, a unique counter
// byte and 32 bytes of padding.  The "abc" hash chain holds every record;
// after a unique 3-byte marker the first record is repeated twice, more
// than 32 but fewer than 128 "abc" probes back.
std::vector<std::uint8_t> long_chain_input() {
  std::mt19937 rng(31);
  const std::vector<std::uint8_t> pad(32, '-');
  std::vector<std::uint8_t> input;
  std::vector<std::uint8_t> first;
  for (int r = 0; r < 100; ++r) {
    const auto letters = random_bytes(rng, 3, 16);
    const std::vector<std::uint8_t> record = {
        'a', 'b', 'c', letters[0], letters[1], letters[2],
        static_cast<std::uint8_t>(100 + r)};
    if (r == 0) first = record;
    append(input, record);
    append(input, pad);
  }
  append(input, {250, 251, 252});
  append(input, first);
  append(input, first);
  return input;
}

// A 48-byte block of bytes >= 128, filler in a four-letter alphabet (so
// the stream compresses and no filler match reaches the block), and the
// block again `distance` bytes after its first copy.
std::vector<std::uint8_t> far_repeat_input(std::size_t distance) {
  std::mt19937 rng(11);
  std::vector<std::uint8_t> block = random_bytes(rng, 48, 128);
  for (auto& b : block) b = static_cast<std::uint8_t>(b | 0x80u);
  std::vector<std::uint8_t> input = block;
  append(input, random_bytes(rng, distance - block.size(), 4));
  append(input, block);
  append(input, random_bytes(rng, 100, 4));
  return input;
}

// Repeats at distances 1..8000 in a small alphabet.
std::vector<std::uint8_t> structured_input() {
  std::mt19937 rng(17);
  std::vector<std::uint8_t> input = random_bytes(rng, 512, 16);
  while (input.size() < 60000) {
    const std::size_t distance = 1 + rng() % std::min<std::size_t>(
                                         input.size(), 8000);
    const std::size_t length = 3 + rng() % 40;
    const std::size_t from = input.size() - distance;
    for (std::size_t k = 0; k < length; ++k) input.push_back(input[from + k]);
    append(input, random_bytes(rng, rng() % 6, 16));
  }
  return input;
}

struct LzCase {
  const char* name;
  std::vector<std::uint8_t> input;
  LosslessOptions options;
};

std::vector<LzCase> lz_cases() {
  std::vector<LzCase> cases;
  const LosslessOptions defaults;
  auto with = [&](std::uint32_t window, std::uint32_t min_match,
                  std::uint32_t max_chain) {
    LosslessOptions o;
    o.window = window;
    o.min_match = min_match;
    o.max_chain = max_chain;
    return o;
  };

  cases.push_back({"empty", {}, defaults});
  {
    std::mt19937 rng(5);
    cases.push_back({"incompressible_raw", random_bytes(rng, 4096), defaults});
  }
  cases.push_back({"chain_over_32", long_chain_input(), defaults});
  cases.push_back({"chain_over_32_max_chain_128", long_chain_input(),
                   with(1 << 16, 4, 128)});
  cases.push_back({"chain_over_32_max_chain_1", long_chain_input(),
                   with(1 << 16, 4, 1)});
  cases.push_back({"distance_65536", far_repeat_input(65536), defaults});
  cases.push_back({"distance_65537", far_repeat_input(65537), defaults});
  {
    // Matches that run to the last byte: a motif cut mid-copy, then a
    // byte run that ends the input.
    std::mt19937 rng(23);
    const auto motif = random_bytes(rng, 300, 16);
    std::vector<std::uint8_t> input;
    for (int r = 0; r < 3; ++r) append(input, motif);
    input.insert(input.end(), motif.begin(), motif.begin() + 123);
    cases.push_back({"match_to_end", input, defaults});
    input.insert(input.end(), 777, 0x5a);
    cases.push_back({"run_to_end", input, defaults});
    cases.push_back({"run_to_end_min_match_3", input, with(1 << 16, 3, 32)});
  }
  {
    // A four-letter alphabet is full of equal-length and 3-vs-4 ties.
    std::mt19937 rng(29);
    const auto input = random_bytes(rng, 20000, 4);
    cases.push_back({"ties_min_match_3", input, with(1 << 16, 3, 32)});
    cases.push_back({"ties_min_match_4", input, defaults});
    cases.push_back({"ties_min_match_8", input, with(1 << 16, 8, 32)});
  }
  {
    // Byte runs of every length 1..60 and one of 5000: distance-1 copies.
    std::vector<std::uint8_t> input;
    for (int len = 1; len <= 60; ++len) {
      input.insert(input.end(), static_cast<std::size_t>(len),
                   static_cast<std::uint8_t>(len * 37));
    }
    input.insert(input.end(), 5000, 0);
    cases.push_back({"runs_distance_1", input, defaults});
    cases.push_back({"runs_distance_1_min_match_3", input,
                     with(1 << 16, 3, 32)});
  }
  {
    const auto input = structured_input();
    cases.push_back({"structured", input, defaults});
    cases.push_back({"structured_window_4096", input, with(4096, 4, 32)});
    cases.push_back({"structured_min_match_3", input, with(1 << 16, 3, 32)});
    cases.push_back({"structured_min_match_8", input, with(1 << 16, 8, 32)});
    cases.push_back({"structured_max_chain_1", input, with(1 << 16, 4, 1)});
    cases.push_back({"structured_max_chain_128", input, with(1 << 16, 4, 128)});
    cases.push_back({"structured_w4096_mm3_mc128", input,
                     with(4096, 3, 128)});
  }
  {
    // Little-endian 16-bit SZ-like quantization codes around 32768.
    std::mt19937 rng(37);
    std::vector<std::uint8_t> input;
    for (int i = 0; i < 100000; ++i) {
      const int m = 2 * std::countr_zero(rng() | 0x400u) +
                    static_cast<int>(rng() & 1u);
      const auto code =
          static_cast<std::uint16_t>(32768 + (rng() & 1u ? m : -m));
      input.push_back(static_cast<std::uint8_t>(code));
      input.push_back(static_cast<std::uint8_t>(code >> 8));
    }
    cases.push_back({"sz_like_codes", input, defaults});
  }
  return cases;
}

TEST(LzGolden, BytesArePinned) {
  const struct {
    const char* name;
    std::size_t size;
    std::uint32_t crc;
  } golden[] = {
      {"empty", 9u, 0xE60914AEu},
      {"incompressible_raw", 4105u, 0x864335ECu},
      {"chain_over_32", 1158u, 0xDEB88BBEu},
      {"chain_over_32_max_chain_128", 1143u, 0xD3F6B390u},
      {"chain_over_32_max_chain_1", 1299u, 0x8941F6C3u},
      {"distance_65536", 25803u, 0x6D2C24ADu},
      {"distance_65537", 25851u, 0x6A2483FEu},
      {"match_to_end", 256u, 0xDDCFAF71u},
      {"run_to_end", 264u, 0x5AD431FAu},
      {"run_to_end_min_match_3", 279u, 0xBAA63249u},
      {"ties_min_match_3", 8039u, 0xB0444C20u},
      {"ties_min_match_4", 7833u, 0xA78EF8DEu},
      {"ties_min_match_8", 5725u, 0x868069B1u},
      {"runs_distance_1", 495u, 0xEFF7D4ECu},
      {"runs_distance_1_min_match_3", 494u, 0x5B18092Bu},
      {"structured", 11560u, 0x1B69D379u},
      {"structured_window_4096", 15930u, 0xEE087518u},
      {"structured_min_match_3", 13334u, 0xBE2613C9u},
      {"structured_min_match_8", 10780u, 0xB44514AEu},
      {"structured_max_chain_1", 16525u, 0x49E0217Bu},
      {"structured_max_chain_128", 11553u, 0xAA45DEE0u},
      {"structured_w4096_mm3_mc128", 17888u, 0x1FD32DE1u},
      {"sz_like_codes", 78859u, 0x04CBEB43u},
  };
  const auto cases = lz_cases();
  ASSERT_EQ(cases.size(), std::size(golden));
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const LzCase& lz = cases[c];
    ASSERT_STREQ(lz.name, golden[c].name);
    const auto bytes = lossless_compress(lz.input, lz.options);
    EXPECT_EQ(bytes.size(), golden[c].size) << lz.name;
    EXPECT_EQ(io::crc32(bytes), golden[c].crc) << lz.name;
    EXPECT_EQ(lossless_decompress(bytes), lz.input) << lz.name;
  }
}

}  // namespace
}  // namespace rmp::compress
