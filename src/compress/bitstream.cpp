#include "compress/bitstream.hpp"

#include <cstring>
#include <stdexcept>

namespace rmp::compress {
namespace {

// Load the 64 bits starting at `bytes[byte_index]` LSB-first.  Callers
// guarantee byte_index + 8 <= size.  On little-endian hosts this is a
// single unaligned load; the byte-assembled fallback keeps the LSB-first
// contract on any byte order.
inline std::uint64_t load_word(const std::uint8_t* p) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  std::uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
#else
  std::uint64_t word = 0;
  for (int i = 0; i < 8; ++i) {
    word |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return word;
#endif
}

inline std::uint64_t mask_low(std::uint64_t value, unsigned count) {
  return count >= 64 ? value : value & ((std::uint64_t{1} << count) - 1);
}

// Store `bytes` low bytes of `word` LSB-first (one 8-byte store when the
// compiler recognises the pattern on little-endian hosts).
void append_le(std::vector<std::uint8_t>& out, std::uint64_t word,
               unsigned bytes) {
  std::uint8_t le[8];
  for (unsigned i = 0; i < 8; ++i) {
    le[i] = static_cast<std::uint8_t>(word >> (8 * i));
  }
  out.insert(out.end(), le, le + bytes);
}

}  // namespace

void BitWriter::throw_oversized_width() {
  throw std::invalid_argument("put_bits: count > 64");
}

void BitWriter::append_word(std::uint64_t word) { append_le(bytes_, word, 8); }

std::vector<std::uint8_t> BitWriter::take() {
  append_le(bytes_, accum_, (accum_bits_ + 7) / 8);
  accum_ = 0;
  accum_bits_ = 0;
  return std::move(bytes_);
}

bool BitReader::get_bit() {
  if (exhausted(1)) throw std::out_of_range("BitReader: out of bits");
  const bool bit =
      (bytes_[bit_pos_ >> 3] >> static_cast<unsigned>(bit_pos_ & 7)) & 1u;
  ++bit_pos_;
  return bit;
}

std::uint64_t BitReader::peek_bits(unsigned count) const {
  if (count > 64) throw std::invalid_argument("peek_bits: count > 64");
  if (count == 0) return 0;
  const std::size_t byte_index = bit_pos_ >> 3;
  const unsigned bit_index = static_cast<unsigned>(bit_pos_ & 7);
  // Fast path: a whole word is available at the cursor.  One load covers
  // up to 64 - bit_index bits; a ninth byte tops up the rest.
  if (byte_index + 8 <= bytes_.size()) {
    std::uint64_t word = load_word(bytes_.data() + byte_index) >> bit_index;
    if (count > 64 - bit_index && byte_index + 8 < bytes_.size()) {
      word |= static_cast<std::uint64_t>(bytes_[byte_index + 8])
              << (64 - bit_index);
    }
    return mask_low(word, count);
  }
  // Tail: assemble byte by byte, zero-filling past the end.
  std::uint64_t value = 0;
  std::size_t pos = bit_pos_;
  const std::size_t total = bytes_.size() * 8;
  unsigned got = 0;
  while (got < count && pos < total) {
    const std::size_t index = pos >> 3;
    const unsigned offset = static_cast<unsigned>(pos & 7);
    const unsigned take =
        std::min<unsigned>(8 - offset,
                           static_cast<unsigned>(
                               std::min<std::size_t>(count - got, total - pos)));
    const std::uint64_t chunk =
        (static_cast<std::uint64_t>(bytes_[index]) >> offset) &
        ((std::uint64_t{1} << take) - 1);
    value |= chunk << got;
    got += take;
    pos += take;
  }
  return value;  // missing tail bits stay zero
}

void BitReader::skip_bits(unsigned count) {
  if (exhausted(count)) throw std::out_of_range("skip_bits: out of bits");
  bit_pos_ += count;
}

std::uint64_t BitReader::get_bits(unsigned count) {
  if (count > 64) throw std::invalid_argument("get_bits: count > 64");
  if (count == 0) return 0;
  if (exhausted(count)) throw std::out_of_range("BitReader: out of bits");
  const std::size_t byte_index = bit_pos_ >> 3;
  const unsigned bit_index = static_cast<unsigned>(bit_pos_ & 7);
  // Narrow reads that fit in one byte (the ZFP bit-plane coder and the LZ
  // extra-bit fields live here) skip the word-load machinery entirely.
  if (bit_index + count <= 8) {
    const std::uint64_t value =
        (static_cast<std::uint64_t>(bytes_[byte_index]) >> bit_index) &
        ((std::uint64_t{1} << count) - 1);
    bit_pos_ += count;
    return value;
  }
  const std::uint64_t value = peek_bits(count);
  bit_pos_ += count;
  return value;
}

}  // namespace rmp::compress
