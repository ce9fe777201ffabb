#include "io/checksum.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace rmp::io {
namespace {

// The sliced loop XORs the running CRC into the low bytes of a word it
// loads from memory, which is the first four bytes only on little-endian.
static_assert(std::endian::native == std::endian::little,
              "crc32 loads its input as little-endian words");

constexpr std::size_t kSlice = 16;

// kTables[0] is the byte table of the reflected polynomial 0xEDB88320;
// kTables[k][b] advances kTables[0][b] over k further zero bytes, so one
// lookup per byte of a 16-byte block folds the whole block at once.
constexpr auto kTables = [] {
  std::array<std::array<std::uint32_t, 256>, kSlice> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < kSlice; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}();

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes, std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= kSlice; p += kSlice, n -= kSlice) {
    std::uint64_t words[kSlice / 8];
    std::memcpy(words, p, kSlice);  // any alignment
    words[0] ^= c;
    c = 0;
    for (std::size_t w = 0; w < kSlice / 8; ++w) {
      for (std::size_t k = 0; k < 8; ++k) {
        c ^= kTables[kSlice - 1 - 8 * w - k][(words[w] >> (8 * k)) & 0xFFu];
      }
    }
  }
  for (; n > 0; ++p, --n) {
    c = kTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace rmp::io
