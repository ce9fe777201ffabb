// Common interface for the floating-point (de)compressors.
//
// The pipeline layer (src/core) treats every codec uniformly: bytes in,
// bytes out, with the logical grid shape carried alongside the data.  All
// codecs are self-describing -- the shape is also embedded in the stream so
// decompress() can validate it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "compress/codec_error.hpp"

namespace rmp::compress {

/// Logical grid shape, up to 3 dimensions.  Unused trailing dimensions are 1.
struct Dims {
  std::size_t nx = 1;
  std::size_t ny = 1;
  std::size_t nz = 1;

  std::size_t count() const noexcept { return nx * ny * nz; }
  unsigned rank() const noexcept {
    if (nz > 1) return 3;
    if (ny > 1) return 2;
    return 1;
  }
  bool operator==(const Dims&) const = default;

  static Dims d1(std::size_t n) { return {n, 1, 1}; }
  static Dims d2(std::size_t nx, std::size_t ny) { return {nx, ny, 1}; }
  static Dims d3(std::size_t nx, std::size_t ny, std::size_t nz) {
    return {nx, ny, nz};
  }
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

class Compressor {
 public:
  virtual ~Compressor() = default;

  virtual std::string name() const = 0;

  /// True if decompress() reproduces the input bit-exactly.
  virtual bool lossless() const = 0;

  virtual std::vector<std::uint8_t> compress(std::span<const double> data,
                                             const Dims& dims) const = 0;

  virtual std::vector<double> decompress(
      std::span<const std::uint8_t> stream) const = 0;
};

/// Compression ratio = original bytes / compressed bytes.
inline double compression_ratio(std::size_t element_count,
                                std::size_t compressed_bytes) {
  if (compressed_bytes == 0) return 0.0;
  return static_cast<double>(element_count * sizeof(double)) /
         static_cast<double>(compressed_bytes);
}

}  // namespace rmp::compress
