// One writer, `put`, and one checked reader, ByteReader, for every
// fixed-width binary layout: the codec streams (SZ, ZFP, FPC, LZ raw, the
// cascade's null codec), the container and its sequence file, the request
// log, the rmpd frame header and payloads, and the archive sections
// (matrices, the wavelet CSR matrix, scalar tables).  A field is the host
// object representation of its value; the program builds only for
// little-endian hosts, so that is the little-endian byte order every
// format documents.
//
// The reader reports a failure as a ReadFault and a detail naming the
// field.  A small hook per layout turns that into the layout's own typed
// error, e.g. CodecError for the codecs or NetError for the wire.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <ranges>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace rmp {

static_assert(std::endian::native == std::endian::little,
              "the binary layouts are little-endian and read by memcpy");

/// Appends the bytes of one field or header struct, or of every element of
/// a contiguous range, to `out`.
template <typename T>
void put(std::vector<std::uint8_t>& out, const T& value) {
  if constexpr (std::ranges::contiguous_range<T>) {
    using Element = std::ranges::range_value_t<T>;
    static_assert(std::is_trivially_copyable_v<Element>);
    const std::size_t n = std::ranges::size(value) * sizeof(Element);
    // Grow, then copy: a range insert of cast pointers trips GCC's
    // -Wstringop-overflow, and an empty range may hand out a null data().
    if (n == 0) return;
    const std::size_t at = out.size();
    out.resize(at + n);
    std::memcpy(out.data() + at, std::ranges::data(value), n);
  } else {
    put(out, std::span(&value, 1));
  }
}

/// A u32 byte length, then the bytes: the layout ByteReader::string reads.
inline void put_string(std::vector<std::uint8_t>& out, std::string_view text) {
  put(out, static_cast<std::uint32_t>(text.size()));
  put(out, text);
}

/// A u64 element count, then the elements: the layout ByteReader::counted
/// reads.
template <typename Range>
void put_counted(std::vector<std::uint8_t>& out, const Range& values) {
  put(out, static_cast<std::uint64_t>(std::ranges::size(values)));
  put(out, values);
}

/// What went wrong, for a layout's hook to type.
enum class ReadFault : std::uint8_t {
  kEnds,      ///< the bytes end inside a field
  kCount,     ///< a count or length exceeds the bytes left, or its cap
  kTrailing,  ///< bytes are left after the last field
};

/// Bounds-checked reader over one layout's bytes.  `Hook::fail(ReadFault,
/// detail)` throws the layout's error; a hook may add `fail` overloads for
/// the layout's own codes, which ByteReader::fail forwards to.
template <typename Hook>
class ByteReader {
 public:
  ByteReader(std::span<const std::uint8_t> bytes, Hook hook) noexcept
      : bytes_(bytes), hook_(hook) {}

  /// One field or header struct.
  template <typename T>
  T read(const char* field) {
    static_assert(std::is_trivially_copyable_v<T>);
    T value;
    std::memcpy(&value, block(sizeof(T), field).data(), sizeof(T));
    return value;
  }

  /// The next `n` bytes, in place; fewer left is kEnds.
  std::span<const std::uint8_t> block(std::uint64_t n, const char* field) {
    if (n > remaining()) {
      fail(ReadFault::kEnds, std::string("stream ends in ") + field);
    }
    offset_ += n;
    return bytes_.subspan(offset_ - n, n);
  }

  /// `count` elements; a count the bytes left cannot hold is kCount,
  /// raised before anything is allocated.
  template <typename T>
  std::vector<T> array(std::uint64_t count, const char* field) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (count > remaining() / sizeof(T)) {
      fail(ReadFault::kCount, std::to_string(count) + " " + field +
                                  " exceed the " +
                                  std::to_string(remaining()) + " bytes left");
    }
    std::vector<T> values(count);
    const auto bytes = block(count * sizeof(T), field);
    if (count > 0) std::memcpy(values.data(), bytes.data(), bytes.size());
    return values;
  }

  /// A u64 element count, then that many elements.
  template <typename T>
  std::vector<T> counted(const char* field) {
    return array<T>(read<std::uint64_t>(field), field);
  }

  /// A u32 byte length, then the text; a length above `max_bytes` is
  /// kCount.
  std::string string(const char* field,
                     std::size_t max_bytes =
                         std::numeric_limits<std::uint32_t>::max()) {
    const auto n = read<std::uint32_t>(field);
    if (n > max_bytes) {
      fail(ReadFault::kCount, std::string(field) + " length " +
                                  std::to_string(n) + " exceeds the cap of " +
                                  std::to_string(max_bytes));
    }
    const auto bytes = block(n, field);
    return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
  }

  /// Every layout that must fill its bytes exactly ends with this.
  void finish(const char* layout) const {
    if (remaining() != 0) {
      fail(ReadFault::kTrailing, std::to_string(remaining()) +
                                     " trailing byte(s) after " + layout);
    }
  }

  std::size_t offset() const noexcept { return offset_; }
  std::size_t remaining() const noexcept { return bytes_.size() - offset_; }
  std::span<const std::uint8_t> rest() const { return bytes_.subspan(offset_); }

  template <typename Code>
  [[noreturn]] void fail(Code code, const std::string& detail) const {
    hook_.fail(code, detail);
  }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t offset_ = 0;
  Hook hook_;
};

}  // namespace rmp
