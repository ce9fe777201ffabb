// Canonical Huffman coding over an arbitrary uint32 symbol alphabet.
//
// Used twice in the library: to entropy-code the SZ-like quantization
// codes (large alphabet, heavily skewed histogram) and as the token coder
// inside the generic LZ77+Huffman lossless backend.
//
// The code table is serialized as (symbol, length) pairs for the symbols
// actually present, and rebuilt canonically on decode, so skewed sparse
// alphabets cost little header space.
//
// Hot-path design (DESIGN.md §13):
//  * encode: codes are pre-reversed at table build and packed with their
//    length into the dense symbol lookup, so each symbol is one load and
//    one inline BitWriter::put_bits call;
//  * decode: a rapidgzip-style multi-symbol fast table resolves up to two
//    complete codes per kFastBits-wide peek; longer codes fall back to the
//    canonical bit-by-bit walk;
//  * hostile streams fail with compress::CodecError (typed), never with
//    bad_alloc from stream-controlled allocations and never by fabricating
//    symbols past end-of-stream.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "compress/bitstream.hpp"

namespace rmp::compress {

class HuffmanEncoder {
 public:
  /// Build a canonical code from symbol frequencies implied by `symbols`.
  explicit HuffmanEncoder(std::span<const std::uint32_t> symbols);

  /// Append the serialized code table to `writer`.
  void write_table(BitWriter& writer) const;

  /// Append the code for one symbol.  The symbol must have appeared in the
  /// constructor sample; otherwise std::out_of_range is thrown.
  void write_symbol(BitWriter& writer, std::uint32_t symbol) const {
    const std::uint32_t offset = symbol - lookup_base_;
    const std::uint64_t packed =
        offset < lookup_.size() ? lookup_[offset] : sparse_code(symbol);
    if (packed == 0) throw_unknown_symbol();
    writer.put_bits(packed >> kLengthBits,
                    static_cast<unsigned>(packed & kLengthMask));
  }

  /// Longest code length in bits (useful for tests/diagnostics).
  unsigned max_code_length() const noexcept { return max_length_; }
  std::size_t distinct_symbols() const noexcept { return entries_.size(); }

 private:
  // A code as the encoder emits it: (bit-reversed canonical code <<
  // kLengthBits) | length.  Lengths are 1..58, so the pair fills at most
  // 64 bits and 0 marks a symbol that is not in the table.  Emitting the
  // reversed code LSB-first reproduces the canonical MSB-first bits.
  static constexpr unsigned kLengthBits = 6;
  static constexpr std::uint64_t kLengthMask = (1u << kLengthBits) - 1;

  struct Entry {
    std::uint32_t symbol;
    std::uint8_t length;
  };
  std::vector<Entry> entries_;  // sorted by (length, symbol): table order
  // Packed code of symbol lookup_base_ + i when the symbol range is
  // compact; otherwise a sorted (symbol, packed code) index searched by
  // lower_bound (sparse alphabets like {0, 0xffffffff} must not allocate
  // range-sized tables).
  std::vector<std::uint64_t> lookup_;
  std::uint32_t lookup_base_ = 0;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> sparse_lookup_;
  unsigned max_length_ = 0;

  std::uint64_t sparse_code(std::uint32_t symbol) const;  // 0 when absent
  [[noreturn]] static void throw_unknown_symbol();
};

class HuffmanDecoder {
 public:
  /// Read the serialized code table produced by HuffmanEncoder::write_table.
  /// Throws CodecError{kCountOverflow} when the declared entry count
  /// exceeds what the remaining input bytes could possibly hold, and
  /// CodecError{kMalformedTable} for zero/oversized code lengths or a
  /// Kraft-sum-violating (non-canonical) table.
  explicit HuffmanDecoder(BitReader& reader);

  /// Decode one symbol.  Throws CodecError{kTruncated} when the stream
  /// ends mid-code and CodecError{kInvalidCode} when no canonical code
  /// matches.
  std::uint32_t read_symbol(BitReader& reader) const;

  /// Decode one or two symbols in a single fast-table probe, appending
  /// them to `out`.  Returns the number decoded (1 or 2; 2 only when both
  /// codes resolved inside one kFastBits window).  Error contract matches
  /// read_symbol.  Callers that interleave other bit reads between
  /// symbols (the LZ token stream) must use read_symbol instead.
  unsigned read_symbol_pair(BitReader& reader, std::uint32_t out[2]) const;

 private:
  // Canonical decode tables indexed by code length.
  std::vector<std::uint64_t> first_code_;   // first canonical code of length L
  std::vector<std::uint64_t> first_index_;  // index of that code in symbols_
  std::vector<std::uint32_t> symbols_;      // in canonical order
  unsigned max_length_ = 0;
  bool single_symbol_ = false;
  std::uint32_t only_symbol_ = 0;

  // Fast path: table indexed by the next kFastBits stream bits
  // (LSB-first, as peek_bits returns them).  Each entry caches up to two
  // complete codes that fit inside the window: count == 0 means "first
  // code longer than kFastBits, take the bit-by-bit path"; count == 1
  // consumes length0 bits; count == 2 consumes total_bits for both
  // symbols at once.
  static constexpr unsigned kFastBits = 12;
  struct FastEntry {
    std::uint32_t symbol0 = 0;
    std::uint32_t symbol1 = 0;
    std::uint8_t length0 = 0;
    std::uint8_t total_bits = 0;
    std::uint8_t count = 0;
  };
  std::vector<FastEntry> fast_table_;

  std::uint32_t read_symbol_slow(BitReader& reader) const;
};

/// One-call helpers: encode a symbol sequence to bytes and back.
/// huffman_decode validates every stream-declared count against the input
/// byte budget before allocating and throws CodecError on hostile input.
std::vector<std::uint8_t> huffman_encode(std::span<const std::uint32_t> symbols);
std::vector<std::uint32_t> huffman_decode(std::span<const std::uint8_t> bytes);

}  // namespace rmp::compress
