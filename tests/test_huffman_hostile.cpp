// Hostile-input hardening suite for the Huffman codec (DESIGN.md §13) plus
// golden-bytes pins proving the fast-path rewrite emits byte-identical
// streams.
//
// The decode contract under attack: any byte stream either decodes to the
// symbols a real encoder wrote, or fails with a typed CodecError -- never a
// crash, never an unbounded allocation, never fabricated output.
#include "compress/huffman.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <random>
#include <vector>

#include "compress/bitstream.hpp"
#include "compress/codec_error.hpp"
#include "compress/lossless.hpp"
#include "compress/sz.hpp"
#include "io/checksum.hpp"
#include "la/eigen.hpp"
#include "la/svd.hpp"

namespace rmp::compress {
namespace {

// --- shared deterministic inputs (mirrored in the golden generator) -----

std::vector<std::uint32_t> symbol_stream(int which) {
  std::vector<std::uint32_t> s;
  switch (which) {
    case 0: {  // skewed, SZ-like: 95% one symbol
      std::mt19937 rng(7);
      for (int i = 0; i < 20000; ++i)
        s.push_back(rng() % 100 < 95 ? 32768u : rng() % 65536);
      break;
    }
    case 1: {  // large alphabet uniform
      std::mt19937 rng(99);
      for (int i = 0; i < 5000; ++i) s.push_back(rng() % 65536);
      break;
    }
    case 2:  // sparse huge values
      s = {0xFFFFFFFFu, 0, 0xFFFFFFFFu, 123456789u,
           0xFFFFFFFFu, 0, 123456789u};
      break;
    case 3: {  // fibonacci-ish depth-driving profile
      std::uint64_t a = 1, b = 1;
      for (std::uint32_t sym = 0; sym < 40; ++sym) {
        for (std::uint64_t i = 0; i < std::min<std::uint64_t>(a, 10000); ++i)
          s.push_back(sym);
        const std::uint64_t next = a + b;
        a = b;
        b = next;
      }
      break;
    }
    case 4:  // single distinct symbol
      s.assign(100, 42);
      break;
    case 5:  // two-symbol alternation
      for (int i = 0; i < 333; ++i) s.push_back(i % 5 == 0 ? 9u : 4u);
      break;
    case 6: {  // 2^20 SZ-like codes: two-sided geometric around 32768
      std::mt19937 rng(2024);
      for (int i = 0; i < (1 << 20); ++i) {
        const int m = 2 * std::countr_zero(rng() | 0x8000u) +
                      static_cast<int>(rng() & 1u);
        s.push_back(static_cast<std::uint32_t>(32768 + (rng() & 1u ? m : -m)));
      }
      break;
    }
  }
  return s;
}

std::vector<double> synthetic_field(std::size_t n) {
  std::vector<double> f(n);
  std::mt19937_64 rng(1234);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double noise =
        static_cast<double>(rng() >> 11) / 9007199254740992.0;  // [0,1)
    acc = 0.95 * acc + 0.05 * noise;
    f[i] = std::sin(0.01 * static_cast<double>(i)) +
           0.3 * std::cos(0.037 * static_cast<double>(i)) + 0.01 * acc;
  }
  return f;
}

// --- truncation: every prefix must fail typed or decode correctly -------

void expect_truncation_hardened(const std::vector<std::uint8_t>& bytes,
                                const std::vector<std::uint32_t>& expected) {
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(bytes.data(), cut);
    try {
      const auto decoded = huffman_decode(prefix);
      // Reachable only when the cut removed pure padding; the payload must
      // still be exactly right -- a truncated stream must never fabricate.
      EXPECT_EQ(decoded, expected) << "cut=" << cut;
    } catch (const CodecError&) {
      // Typed rejection is the expected outcome.
    }
  }
}

TEST(HuffmanHostile, TruncatedAtEveryByteSkewed) {
  const auto symbols = symbol_stream(5);
  expect_truncation_hardened(huffman_encode(symbols), symbols);
}

TEST(HuffmanHostile, TruncatedAtEveryByteSparseAlphabet) {
  const auto symbols = symbol_stream(2);
  expect_truncation_hardened(huffman_encode(symbols), symbols);
}

TEST(HuffmanHostile, TruncatedAtEveryByteSingleSymbol) {
  const auto symbols = symbol_stream(4);
  expect_truncation_hardened(huffman_encode(symbols), symbols);
}

TEST(HuffmanHostile, TruncatedDeepAlphabetSampled) {
  // The 16-bit-alphabet stream is large; cut at a byte stride instead of
  // every byte to keep the suite fast while still crossing the table, the
  // fast-path payload, and the slow-path payload regions.
  const auto symbols = symbol_stream(1);
  const auto bytes = huffman_encode(symbols);
  for (std::size_t cut = 0; cut < bytes.size();
       cut += std::max<std::size_t>(1, bytes.size() / 509)) {
    try {
      const auto decoded =
          huffman_decode(std::span<const std::uint8_t>(bytes.data(), cut));
      EXPECT_EQ(decoded, symbols) << "cut=" << cut;
    } catch (const CodecError&) {
    }
  }
}

// --- stream-controlled counts must be capped before allocation ----------

TEST(HuffmanHostile, OversizedSymbolCountIsTypedNotBadAlloc) {
  BitWriter writer;
  writer.put_bits(std::uint64_t{1} << 60, 64);  // absurd symbol count
  writer.put_bits(1, 32);                       // 1-entry table
  writer.put_bits(42, 32);
  writer.put_bits(1, 6);
  const auto bytes = writer.take();
  try {
    huffman_decode(bytes);
    FAIL() << "oversized symbol count accepted";
  } catch (const CodecError& e) {
    EXPECT_EQ(e.code(), CodecErrc::kCountOverflow);
  }
}

TEST(HuffmanHostile, OversizedTableCountIsTypedNotBadAlloc) {
  BitWriter writer;
  writer.put_bits(4, 64);
  writer.put_bits(0xFFFFFFFFu, 32);  // table claims 4 billion entries
  const auto bytes = writer.take();
  try {
    huffman_decode(bytes);
    FAIL() << "oversized table count accepted";
  } catch (const CodecError& e) {
    EXPECT_EQ(e.code(), CodecErrc::kCountOverflow);
  }
}

// --- table validation ---------------------------------------------------

namespace {
std::vector<std::uint8_t> stream_with_table(
    std::uint64_t symbol_count,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& entries) {
  BitWriter writer;
  writer.put_bits(symbol_count, 64);
  writer.put_bits(entries.size(), 32);
  for (const auto& [symbol, length] : entries) {
    writer.put_bits(symbol, 32);
    writer.put_bits(length, 6);
  }
  // Some payload bits so failures are attributable to the table itself.
  writer.put_bits(0, 64);
  return writer.take();
}
}  // namespace

TEST(HuffmanHostile, ZeroCodeLengthRejected) {
  const auto bytes = stream_with_table(4, {{1, 0}, {2, 1}});
  try {
    huffman_decode(bytes);
    FAIL() << "zero code length accepted";
  } catch (const CodecError& e) {
    EXPECT_EQ(e.code(), CodecErrc::kMalformedTable);
  }
}

TEST(HuffmanHostile, OversizedCodeLengthRejected) {
  const auto bytes = stream_with_table(4, {{1, 59}, {2, 1}});
  try {
    huffman_decode(bytes);
    FAIL() << "oversized code length accepted";
  } catch (const CodecError& e) {
    EXPECT_EQ(e.code(), CodecErrc::kMalformedTable);
  }
}

TEST(HuffmanHostile, KraftOversubscribedTableRejected) {
  // Three length-1 codes oversubscribe the code space (sum 3/2 > 1).
  const auto bytes = stream_with_table(4, {{1, 1}, {2, 1}, {3, 1}});
  try {
    huffman_decode(bytes);
    FAIL() << "Kraft-violating table accepted";
  } catch (const CodecError& e) {
    EXPECT_EQ(e.code(), CodecErrc::kMalformedTable);
  }
}

TEST(HuffmanHostile, KraftOverflowDoesNotWrap) {
  // 60 length-1 codes: a naive Kraft accumulator in 2^-58 units wraps
  // around 64 bits; the incremental check must reject at the second entry.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> entries;
  for (std::uint32_t i = 0; i < 60; ++i) entries.push_back({i, 1});
  const auto bytes = stream_with_table(4, entries);
  try {
    huffman_decode(bytes);
    FAIL() << "wrapping Kraft sum accepted";
  } catch (const CodecError& e) {
    EXPECT_EQ(e.code(), CodecErrc::kMalformedTable);
  }
}

TEST(HuffmanHostile, SingleEntryTableRequiresLengthOne) {
  const auto bytes = stream_with_table(4, {{7, 3}});
  try {
    huffman_decode(bytes);
    FAIL() << "non-canonical single-entry table accepted";
  } catch (const CodecError& e) {
    EXPECT_EQ(e.code(), CodecErrc::kMalformedTable);
  }
}

TEST(HuffmanHostile, IncompleteCodeSpaceYieldsInvalidCodeNotCrash) {
  // {len 2, len 2} covers half the code space; a payload starting with the
  // uncovered prefix must fail typed (kInvalidCode), not read off a table.
  BitWriter writer;
  writer.put_bits(1, 64);
  writer.put_bits(2, 32);
  writer.put_bits(1, 32);
  writer.put_bits(2, 6);
  writer.put_bits(2, 32);
  writer.put_bits(2, 6);
  // Canonical codes are 00 and 01 (MSB-first), i.e. the first transmitted
  // bit of every valid code is 0.  Send 1-bits.
  writer.put_bits(0xFF, 8);
  const auto bytes = writer.take();
  try {
    huffman_decode(bytes);
    FAIL() << "uncovered code prefix accepted";
  } catch (const CodecError& e) {
    EXPECT_TRUE(e.code() == CodecErrc::kInvalidCode ||
                e.code() == CodecErrc::kTruncated)
        << to_string(e.code());
  }
}

// --- downstream consumers stay typed too --------------------------------

TEST(HuffmanHostile, LosslessTruncatedAtEveryByte) {
  std::vector<std::uint8_t> input;
  std::mt19937 rng(5);
  for (int i = 0; i < 4096; ++i)
    input.push_back(static_cast<std::uint8_t>(rng() % 7 * 13));
  for (int r = 0; r < 4; ++r)
    input.insert(input.end(), input.begin(), input.begin() + 1024);
  const auto bytes = lossless_compress(input);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    try {
      const auto decoded =
          lossless_decompress(std::span<const std::uint8_t>(bytes.data(), cut));
      EXPECT_EQ(decoded, input) << "cut=" << cut;
    } catch (const CodecError&) {
    }
  }
}

TEST(HuffmanHostile, SzTruncatedAtEveryByte) {
  const compress::Dims dims{17, 13, 9};
  const auto field = synthetic_field(dims.count());
  const compress::SzCompressor sz{SzOptions{}};
  const auto archive = sz.compress(field, dims);
  const auto full = sz.decompress(archive);
  for (std::size_t cut = 0; cut < archive.size(); ++cut) {
    try {
      const auto decoded = sz.decompress(
          std::vector<std::uint8_t>(archive.begin(), archive.begin() + cut));
      EXPECT_EQ(decoded, full) << "cut=" << cut;
    } catch (const CodecError&) {
    }
  }
}

// --- golden bytes: the rewrite must not move a single bit ---------------
//
// Sizes and CRC32s below were captured from the implementation as of the
// previous release (pre-fast-path).  Any drift here means archives on disk
// would stop being reproducible -- fail loudly.

TEST(HuffmanGolden, EncoderBytesArePinned) {
  const struct {
    std::size_t size;
    std::uint32_t crc;
  } golden[7] = {{8399u, 0xFE26B72Fu},  {30533u, 0x840962C4u},
                 {28u, 0x4567C535u},    {127232u, 0xCB1B264Cu},
                 {30u, 0xCD7AC4D1u},    {64u, 0x6EC249B5u},
                 {491973u, 0x72FF5D6Fu}};
  for (int w = 0; w < 7; ++w) {
    const auto symbols = symbol_stream(w);
    const auto bytes = huffman_encode(symbols);
    EXPECT_EQ(bytes.size(), golden[w].size) << "stream " << w;
    EXPECT_EQ(io::crc32(bytes), golden[w].crc) << "stream " << w;
    EXPECT_EQ(huffman_decode(bytes), symbols) << "stream " << w;
  }
  const auto empty = huffman_encode({});
  EXPECT_EQ(empty.size(), 8u);
  EXPECT_EQ(io::crc32(empty), 0x6522DF69u);
}

TEST(HuffmanGolden, LosslessBytesArePinned) {
  std::vector<std::uint8_t> input;
  std::mt19937 rng(5);
  for (int i = 0; i < 4096; ++i)
    input.push_back(static_cast<std::uint8_t>(rng() % 7 * 13));
  for (int r = 0; r < 4; ++r)
    input.insert(input.end(), input.begin(), input.begin() + 1024);
  const auto bytes = lossless_compress(input);
  EXPECT_EQ(bytes.size(), 2114u);
  EXPECT_EQ(io::crc32(bytes), 0x149AA40Fu);
}

TEST(HuffmanGolden, SzArchiveBytesArePinned) {
  const compress::Dims dims{17, 13, 9};
  const auto field = synthetic_field(dims.count());
  const struct {
    SzMode mode;
    SzPredictor pred;
    double bound;
    std::size_t size;
    std::uint32_t crc;
  } cfgs[] = {
      {SzMode::kAbsolute, SzPredictor::kLorenzo, 1e-4, 3405u, 0xBA0A7283u},
      {SzMode::kBlockRelative, SzPredictor::kLorenzo, 1e-5, 6376u, 0xD372D1ADu},
      {SzMode::kPointwiseRelative, SzPredictor::kLorenzo, 1e-5, 9711u,
       0xA50E8197u},
      {SzMode::kAbsolute, SzPredictor::kHybrid, 1e-4, 3440u, 0x23C0CD19u},
      {SzMode::kBlockRelative, SzPredictor::kHybrid, 1e-5, 6411u, 0x3E4AE84Cu},
  };
  for (const auto& c : cfgs) {
    SzOptions opt;
    opt.mode = c.mode;
    opt.predictor = c.pred;
    opt.bound = c.bound;
    const SzCompressor sz(opt);
    const auto bytes = sz.compress(field, dims);
    EXPECT_EQ(bytes.size(), c.size);
    EXPECT_EQ(io::crc32(bytes), c.crc);
  }

  const Dims d2{64, 31, 1};
  const SzCompressor szd{SzOptions{}};
  const auto b2 = szd.compress(synthetic_field(d2.count()), d2);
  EXPECT_EQ(b2.size(), 6921u);
  EXPECT_EQ(io::crc32(b2), 0xDA613D62u);
  const Dims d1{1536, 1, 1};
  const auto b1 = szd.compress(synthetic_field(d1.count()), d1);
  EXPECT_EQ(b1.size(), 1583u);
  EXPECT_EQ(io::crc32(b1), 0x38035022u);
}

TEST(HuffmanGolden, JacobiSweepsAreBitIdentical) {
  // The cache-blocked eigen/SVD sweeps must produce bit-identical floats;
  // pin the raw IEEE bytes of both factorizations.
  const std::size_t n = 24;
  la::Matrix m(n, n);
  std::mt19937_64 rng(77);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) {
      const double v =
          static_cast<double>(rng() >> 11) / 9007199254740992.0 - 0.5;
      m(i, j) = v;
      m(j, i) = v;
    }
  const auto eig = la::jacobi_eigen(m);
  std::vector<std::uint8_t> raw;
  auto push = [&raw](const double* p, std::size_t cnt) {
    const auto* b = reinterpret_cast<const std::uint8_t*>(p);
    raw.insert(raw.end(), b, b + cnt * sizeof(double));
  };
  push(eig.values.data(), eig.values.size());
  push(eig.vectors.flat().data(), eig.vectors.flat().size());
  EXPECT_TRUE(eig.converged);
  EXPECT_EQ(raw.size(), 4800u);
  EXPECT_EQ(io::crc32(raw), 0x36A1F1E3u);

  la::Matrix r(37, 19);
  for (std::size_t i = 0; i < r.rows(); ++i)
    for (std::size_t j = 0; j < r.cols(); ++j)
      r(i, j) = static_cast<double>(rng() >> 11) / 9007199254740992.0 - 0.5;
  const auto svd = la::jacobi_svd(r);
  raw.clear();
  push(svd.sigma.data(), svd.sigma.size());
  push(svd.u.flat().data(), svd.u.flat().size());
  push(svd.v.flat().data(), svd.v.flat().size());
  EXPECT_TRUE(svd.converged);
  EXPECT_EQ(raw.size(), 8664u);
  EXPECT_EQ(io::crc32(raw), 0xAA514E9Bu);
}

}  // namespace
}  // namespace rmp::compress
