#include "core/serialize.hpp"

#include <cstring>
#include <stdexcept>

namespace rmp::core {

namespace {

// memcpy with a null pointer is undefined even for zero sizes, and empty
// vectors/spans hand out null data() -- every copy goes through this guard.
void copy_bytes(void* dst, const void* src, std::size_t count) {
  if (count != 0) std::memcpy(dst, src, count);
}

}  // namespace

std::vector<std::uint8_t> doubles_to_bytes(std::span<const double> values) {
  std::vector<std::uint8_t> bytes(values.size_bytes());
  copy_bytes(bytes.data(), values.data(), bytes.size());
  return bytes;
}

std::vector<double> bytes_to_doubles(std::span<const std::uint8_t> bytes) {
  if (bytes.size() % sizeof(double) != 0) {
    throw std::invalid_argument("bytes_to_doubles: size not a multiple of 8");
  }
  std::vector<double> values(bytes.size() / sizeof(double));
  copy_bytes(values.data(), bytes.data(), bytes.size());
  return values;
}

std::vector<std::uint8_t> matrix_to_bytes(const la::Matrix& m) {
  std::vector<std::uint8_t> bytes(2 * sizeof(std::uint64_t) +
                                  m.size() * sizeof(double));
  const std::uint64_t header[2] = {m.rows(), m.cols()};
  std::memcpy(bytes.data(), header, sizeof(header));
  copy_bytes(bytes.data() + sizeof(header), m.flat().data(),
             m.size() * sizeof(double));
  return bytes;
}

la::Matrix bytes_to_matrix(std::span<const std::uint8_t> bytes) {
  std::uint64_t header[2];
  if (bytes.size() < sizeof(header)) {
    throw std::invalid_argument("bytes_to_matrix: truncated header");
  }
  std::memcpy(header, bytes.data(), sizeof(header));
  const std::size_t rows = header[0];
  const std::size_t cols = header[1];
  const std::size_t payload = bytes.size() - sizeof(header);
  if (payload % sizeof(double) != 0 ||
      payload / sizeof(double) != la::checked_cells(rows, cols)) {
    throw std::invalid_argument("bytes_to_matrix: size mismatch");
  }
  std::vector<double> data(payload / sizeof(double));
  copy_bytes(data.data(), bytes.data() + sizeof(header),
             data.size() * sizeof(double));
  return la::Matrix(rows, cols, std::move(data));
}

std::vector<std::uint8_t> u64s_to_bytes(std::span<const std::uint64_t> values) {
  std::vector<std::uint8_t> bytes(values.size_bytes());
  copy_bytes(bytes.data(), values.data(), bytes.size());
  return bytes;
}

std::vector<std::uint64_t> bytes_to_u64s(std::span<const std::uint8_t> bytes) {
  if (bytes.size() % sizeof(std::uint64_t) != 0) {
    throw std::invalid_argument("bytes_to_u64s: size not a multiple of 8");
  }
  std::vector<std::uint64_t> values(bytes.size() / sizeof(std::uint64_t));
  copy_bytes(values.data(), bytes.data(), bytes.size());
  return values;
}

}  // namespace rmp::core
