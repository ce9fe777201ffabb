// Bit-granular writer/reader used by the Huffman coder and the ZFP-like
// embedded bit-plane coder.  Bits are packed LSB-first within each byte so
// that write/read sequences of mixed widths round-trip exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace rmp::compress {

class BitWriter {
 public:
  void put_bit(bool bit) { put_bits(bit ? 1u : 0u, 1); }

  /// Write the low `count` bits of `value`, LSB first.  count <= 64.
  /// Bits gather in a 64-bit accumulator that is stored as one word each
  /// time it fills (DESIGN.md §13c).
  void put_bits(std::uint64_t value, unsigned count) {
    if (count > 64) throw_oversized_width();
    if (count < 64) value &= (std::uint64_t{1} << count) - 1;
    const unsigned used = accum_bits_;
    accum_ |= value << used;
    accum_bits_ = used + count;
    if (accum_bits_ >= 64) {
      append_word(accum_);
      // The bits of `value` that did not fit: value >> (64 - used),
      // written as two shifts so used == 0 (count == 64) gives 0.
      accum_ = (value >> 1) >> (63 - used);
      accum_bits_ -= 64;
    }
  }

  /// Number of bits written so far.
  std::size_t bit_count() const noexcept {
    return bytes_.size() * 8 + accum_bits_;
  }

  /// Flush and take the byte buffer (final partial byte zero-padded).
  std::vector<std::uint8_t> take();

 private:
  [[noreturn]] static void throw_oversized_width();
  void append_word(std::uint64_t word);

  std::vector<std::uint8_t> bytes_;
  std::uint64_t accum_ = 0;   // pending bits, LSB first
  unsigned accum_bits_ = 0;   // < 64 between calls
};

class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  bool get_bit();

  /// Read `count` bits, LSB first.  count <= 64.
  std::uint64_t get_bits(unsigned count);

  /// Look at the next `count` bits without consuming them.  Unlike
  /// get_bits this never throws: past-the-end bits read as zero (callers
  /// validate after deciding how many bits they really need).
  std::uint64_t peek_bits(unsigned count) const;

  /// Advance by `count` bits (must not pass the end).
  void skip_bits(unsigned count);

  /// Bits consumed so far.
  std::size_t bit_position() const noexcept { return bit_pos_; }

  /// Bits left to read (including any encoder zero-padding).
  std::size_t remaining_bits() const noexcept {
    const std::size_t total = bytes_.size() * 8;
    return bit_pos_ < total ? total - bit_pos_ : 0;
  }

  /// True if fewer than `count` bits remain.
  bool exhausted(unsigned count = 1) const noexcept {
    return bit_pos_ + count > bytes_.size() * 8;
  }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t bit_pos_ = 0;
};

}  // namespace rmp::compress
