// One checked reader, and its writer-side `put`, for the byte-aligned
// fields of the codec streams: the SZ payload, the ZFP and FPC headers and
// the LZ raw mode.  Fields are the host-endian object representations the
// codecs have always written.  Every failure is a CodecError that names the
// codec and the field, e.g. "SZ decode: stream ends in outlier count".
#pragma once

#include <cstdint>
#include <cstring>
#include <ranges>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "compress/codec_error.hpp"
#include "compress/compressor.hpp"

namespace rmp::compress {

/// Appends the bytes of one field or header struct, or of every element of
/// a contiguous range, to `out`.
template <typename T>
void put(std::vector<std::uint8_t>& out, const T& value) {
  if constexpr (std::ranges::contiguous_range<T>) {
    static_assert(std::is_trivially_copyable_v<std::ranges::range_value_t<T>>);
    const auto bytes = std::as_bytes(std::span(value));
    const auto* p = reinterpret_cast<const std::uint8_t*>(bytes.data());
    out.insert(out.end(), p, p + bytes.size());
  } else {
    put(out, std::span(&value, 1));
  }
}

class StreamReader {
 public:
  /// `codec` prefixes every error: "SZ" -> "SZ decode: ...".
  StreamReader(std::span<const std::uint8_t> bytes, const char* codec) noexcept
      : bytes_(bytes), codec_(codec) {}

  /// One field or header struct.
  template <typename T>
  T read(const char* field) {
    static_assert(std::is_trivially_copyable_v<T>);
    T value;
    std::memcpy(&value, block(sizeof(T), field).data(), sizeof(T));
    return value;
  }

  /// The next `n` bytes, in place; fewer left is kTruncated.
  std::span<const std::uint8_t> block(std::uint64_t n, const char* field) {
    if (n > remaining()) {
      fail(CodecErrc::kTruncated, std::string("stream ends in ") + field);
    }
    offset_ += n;
    return bytes_.subspan(offset_ - n, n);
  }

  /// `count` elements; a count the bytes left cannot hold is
  /// kCountOverflow, raised before anything is allocated.
  template <typename T>
  std::vector<T> array(std::uint64_t count, const char* field) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (count > remaining() / sizeof(T)) {
      fail(CodecErrc::kCountOverflow,
           std::to_string(count) + " " + field + " exceed the " +
               std::to_string(remaining()) + " bytes left");
    }
    std::vector<T> values(count);
    const auto bytes = block(count * sizeof(T), field);
    if (count > 0) std::memcpy(values.data(), bytes.data(), bytes.size());
    return values;
  }

  std::size_t remaining() const noexcept { return bytes_.size() - offset_; }
  std::span<const std::uint8_t> rest() const { return bytes_.subspan(offset_); }

  [[noreturn]] void fail(CodecErrc code, const std::string& detail) const {
    throw CodecError(code, std::string(codec_) + " decode: " + detail);
  }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t offset_ = 0;
  const char* codec_;
};

/// nx*ny*nz of a stream header's dims, or kCountOverflow: a wrapped product
/// could pass a codec's own caps while its loops walk the true extent.
/// Each codec still caps the cells by what the rest of its stream encodes.
inline std::size_t checked_cells(const Dims& dims, const char* codec) {
  std::size_t cells = 0;
  if (__builtin_mul_overflow(dims.nx, dims.ny, &cells) ||
      __builtin_mul_overflow(cells, dims.nz, &cells)) {
    throw CodecError(CodecErrc::kCountOverflow,
                     std::string(codec) + " decode: nx*ny*nz overflows");
  }
  return cells;
}

}  // namespace rmp::compress
