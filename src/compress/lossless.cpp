#include "compress/lossless.hpp"

#include <bit>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "compress/bitstream.hpp"
#include "compress/codec_error.hpp"
#include "compress/huffman.hpp"

namespace rmp::compress {
namespace {

constexpr std::uint8_t kModeRaw = 0;
constexpr std::uint8_t kModeLz = 1;

// Token alphabet: 0..255 literal bytes; 256 + b encodes a match whose
// length bucket is b.  Length/distance extra bits follow the token inline.
constexpr std::uint32_t kMatchBase = 256;
constexpr std::uint32_t kLenBuckets = 16;   // bucket b covers lengths with b extra bits
constexpr std::uint32_t kEndOfStream = kMatchBase + kLenBuckets;
// Bucket b codes len_code + 1 in [2^b, 2^(b+1)), so the longest match the
// buckets can code is min_match + 2^16 - 2.
constexpr std::size_t kMaxLenCode = (std::size_t{1} << kLenBuckets) - 2;

std::uint32_t hash3(const std::uint8_t* p) {
  // Multiplicative hash of 3 bytes; 16-bit table index.
  const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                          (static_cast<std::uint32_t>(p[1]) << 8) |
                          (static_cast<std::uint32_t>(p[2]) << 16);
  return (v * 2654435761u) >> 16;
}

// Length of the common prefix of a[0..limit) and b[0..limit): the same
// first-mismatch the historical byte loop found, located eight bytes per
// probe on little-endian hosts.
std::size_t match_length(const std::uint8_t* a, const std::uint8_t* b,
                         std::size_t limit) {
  std::size_t len = 0;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  while (len + 8 <= limit) {
    std::uint64_t wa, wb;
    std::memcpy(&wa, a + len, 8);
    std::memcpy(&wb, b + len, 8);
    const std::uint64_t diff = wa ^ wb;
    if (diff != 0) {
      return len + (static_cast<std::size_t>(std::countr_zero(diff)) >> 3);
    }
    len += 8;
  }
#endif
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

// What the parse emits: one Huffman symbol per literal or match plus the
// end-of-stream symbol, and for each match, in order, its offset inside
// the length bucket and its distance.
struct Match {
  std::uint32_t extra;
  std::uint32_t distance;
};
struct Parse {
  std::vector<std::uint32_t> symbols;
  std::vector<Match> matches;
};

// Index is int32 for inputs that fit (halves the chain's footprint) and
// int64 beyond that.
template <typename Index>
Parse parse_impl(std::span<const std::uint8_t> input,
                 const LosslessOptions& opts) {
  const std::size_t n = input.size();
  const std::uint8_t* data = input.data();

  // Chain first (DESIGN.md §13c): every position with three bytes left
  // enters its hash chain in order, whatever the parse decides, so
  // prev[i] -- the nearest earlier position with i's hash, -1 if none --
  // depends on the input alone.  It is also the head of the chain the
  // parse searches at i.
  std::vector<Index> prev(n, Index{-1});
  {
    std::vector<Index> head(1 << 16, Index{-1});
    for (std::size_t i = 0; i + 3 <= n; ++i) {
      const std::uint32_t h = hash3(data + i);
      prev[i] = head[h];
      head[h] = static_cast<Index>(i);
    }
  }

  Parse parse;
  parse.symbols.reserve(n + 1);
  const std::size_t max_len = opts.min_match + kMaxLenCode;
  std::size_t i = 0;
  while (i < n) {
    std::size_t best_len = 0;
    std::size_t best_dist = 0;
    const std::size_t limit = std::min(n - i, max_len);
    const std::uint8_t* here = data + i;
    std::uint32_t probes = 0;
    for (Index candidate = prev[i];
         candidate >= 0 && probes < opts.max_chain &&
         i - static_cast<std::size_t>(candidate) <= opts.window;
         candidate = prev[static_cast<std::size_t>(candidate)], ++probes) {
      // A candidate can only beat best_len if it also matches at index
      // best_len; one byte-compare rejects most losers without a scan.
      // Selection is unchanged: ties keep the earlier (nearer) match.
      if (best_len >= limit) break;
      const std::uint8_t* there = data + candidate;
      if (there[best_len] == here[best_len]) {
        const std::size_t len = match_length(there, here, limit);
        if (len > best_len) {
          best_len = len;
          best_dist = i - static_cast<std::size_t>(candidate);
        }
      }
    }

    if (best_len >= opts.min_match) {
      const auto len_code =
          static_cast<std::uint32_t>(best_len - opts.min_match);
      const unsigned bucket = std::bit_width(len_code + 1) - 1;  // Elias-gamma
      parse.symbols.push_back(kMatchBase + bucket);
      parse.matches.push_back({len_code + 1 - (std::uint32_t{1} << bucket),
                               static_cast<std::uint32_t>(best_dist)});
      i += best_len;
    } else {
      parse.symbols.push_back(*here);
      ++i;
    }
  }
  parse.symbols.push_back(kEndOfStream);
  return parse;
}

Parse parse(std::span<const std::uint8_t> input, const LosslessOptions& opts) {
  if (input.size() < static_cast<std::size_t>(
                         std::numeric_limits<std::int32_t>::max())) {
    return parse_impl<std::int32_t>(input, opts);
  }
  return parse_impl<std::int64_t>(input, opts);
}

}  // namespace

std::vector<std::uint8_t> lossless_compress(std::span<const std::uint8_t> input,
                                            const LosslessOptions& opts) {
  // min_match has an 8-bit field and a 0 would never advance the parse;
  // distance widths have a 5-bit field.
  if (opts.min_match < 1 || opts.min_match > 255) {
    throw std::invalid_argument(
        "lossless_compress: min_match must be in 1..255");
  }
  if (opts.window >= std::uint32_t{1} << 31) {
    throw std::invalid_argument(
        "lossless_compress: window must be below 2^31");
  }
  // The mode byte leads the bit stream, so an LZ result is returned as
  // written, without a copy.
  BitWriter writer;
  writer.put_bits(kModeLz, 8);
  writer.put_bits(input.size(), 64);
  if (!input.empty()) {
    const Parse lz = parse(input, opts);
    writer.put_bits(opts.min_match, 8);
    const HuffmanEncoder encoder(lz.symbols);
    encoder.write_table(writer);
    const Match* match = lz.matches.data();
    for (const std::uint32_t symbol : lz.symbols) {
      encoder.write_symbol(writer, symbol);
      if (symbol >= kMatchBase && symbol < kEndOfStream) {
        writer.put_bits(match->extra, symbol - kMatchBase);
        // Distances are coded as a 5-bit width followed by that many bits.
        const auto dist_bits =
            static_cast<unsigned>(std::bit_width(match->distance));
        writer.put_bits(dist_bits, 5);
        writer.put_bits(match->distance, dist_bits);
        ++match;
      }
    }
  }
  std::vector<std::uint8_t> out = writer.take();
  if (input.empty() || out.size() > input.size()) {
    // LZ saved nothing: store the input raw.
    out.clear();
    out.reserve(input.size() + 9);
    out.push_back(kModeRaw);
    put(out, std::uint64_t{input.size()});
    put(out, input);
  }
  return out;
}

std::vector<std::uint8_t> lossless_decompress(std::span<const std::uint8_t> input) {
  if (input.empty()) {
    throw CodecError(CodecErrc::kTruncated, "lossless_decompress: empty input");
  }
  const std::uint8_t mode = input[0];
  const auto payload = input.subspan(1);

  if (mode == kModeRaw) {
    StreamReader raw(payload, {"LZ"});
    const auto bytes =
        raw.block(raw.read<std::uint64_t>("raw size"), "raw payload");
    return {bytes.begin(), bytes.end()};
  }
  if (mode != kModeLz) {
    throw CodecError(CodecErrc::kMalformedStream,
                     "lossless_decompress: unknown mode byte");
  }

  BitReader reader(payload);
  if (reader.exhausted(64 + 8)) {
    throw CodecError(CodecErrc::kTruncated,
                     "lossless_decompress: truncated LZ header");
  }
  const auto original_size = static_cast<std::size_t>(reader.get_bits(64));
  std::vector<std::uint8_t> out;
  // The declared size is stream-controlled: cap the upfront reservation so
  // a hostile header cannot force a huge allocation before any token is
  // validated.  LZ can legitimately expand far beyond the input, so the
  // decode itself still honors original_size -- the vector just grows.
  out.reserve(std::min<std::size_t>(original_size, payload.size() * 64 + 4096));
  if (original_size == 0) return out;
  const auto min_match = static_cast<std::uint32_t>(reader.get_bits(8));

  HuffmanDecoder decoder(reader);
  for (;;) {
    const std::uint32_t symbol = decoder.read_symbol(reader);
    if (symbol == kEndOfStream) break;
    if (symbol < kMatchBase) {
      out.push_back(static_cast<std::uint8_t>(symbol));
      continue;
    }
    if (symbol > kEndOfStream) {
      // A table may list any 32-bit symbol; past the last length bucket
      // there is no match to decode (and no defined 2^bucket).
      throw CodecError(CodecErrc::kMalformedStream,
                       "lossless_decompress: match symbol past the last "
                       "length bucket");
    }
    const unsigned bucket = symbol - kMatchBase;
    if (reader.exhausted(bucket + 5)) {
      throw CodecError(CodecErrc::kTruncated,
                       "lossless_decompress: stream ends mid-token");
    }
    const std::uint32_t extra =
        static_cast<std::uint32_t>(reader.get_bits(bucket));
    const std::uint32_t len_code = (std::uint32_t{1} << bucket) + extra - 1;
    const unsigned dist_bits = static_cast<unsigned>(reader.get_bits(5));
    if (reader.exhausted(dist_bits)) {
      throw CodecError(CodecErrc::kTruncated,
                       "lossless_decompress: stream ends mid-token");
    }
    const std::uint32_t distance =
        static_cast<std::uint32_t>(reader.get_bits(dist_bits));
    const std::size_t length = len_code + min_match;
    if (distance == 0 || distance > out.size()) {
      throw CodecError(CodecErrc::kMalformedStream,
                       "lossless_decompress: invalid match distance");
    }
    if (out.size() + length > original_size) {
      throw CodecError(CodecErrc::kMalformedStream,
                       "lossless_decompress: output exceeds declared size");
    }
    const std::size_t start = out.size() - distance;
    out.resize(out.size() + length);
    std::uint8_t* dst = out.data() + start + distance;
    const std::uint8_t* src = out.data() + start;
    if (distance >= length) {
      std::memcpy(dst, src, length);
    } else {
      // Overlapping run (e.g. distance 1 = byte fill): byte-serial copy
      // reproduces the historical push_back semantics exactly.
      for (std::size_t k = 0; k < length; ++k) dst[k] = src[k];
    }
  }
  if (out.size() != original_size) {
    throw CodecError(CodecErrc::kMalformedStream,
                     "lossless_decompress: size mismatch");
  }
  return out;
}

}  // namespace rmp::compress
