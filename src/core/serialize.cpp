#include "core/serialize.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "base/byte_io.hpp"
#include "io/container_error.hpp"

namespace rmp::core {

namespace {

/// ByteReader hook for the archive sections: these bytes come only from
/// archives, so any fault is damage, ContainerError{kSectionMalformed}.
struct SectionHook {
  const char* layout;

  [[noreturn]] void fail(ReadFault, const std::string& detail) const {
    throw io::ContainerError(io::ContainerErrc::kSectionMalformed,
                             std::string(layout) + ": " + detail);
  }
};

/// A section that is nothing but `T`s.
template <typename T>
std::vector<T> read_all(std::span<const std::uint8_t> bytes,
                        const char* layout) {
  ByteReader<SectionHook> in(bytes, SectionHook{layout});
  auto values = in.array<T>(bytes.size() / sizeof(T), "values");
  in.finish("the last value");
  return values;
}

template <typename T>
std::vector<std::uint8_t> write_all(std::span<const T> values) {
  std::vector<std::uint8_t> bytes;
  put(bytes, values);
  return bytes;
}

}  // namespace

std::vector<std::uint8_t> doubles_to_bytes(std::span<const double> values) {
  return write_all(values);
}

std::vector<double> bytes_to_doubles(std::span<const std::uint8_t> bytes) {
  return read_all<double>(bytes, "double section");
}

std::vector<std::uint8_t> matrix_to_bytes(const la::Matrix& m) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(2 * sizeof(std::uint64_t) + m.size() * sizeof(double));
  put(bytes, std::uint64_t{m.rows()});
  put(bytes, std::uint64_t{m.cols()});
  put(bytes, m.flat());
  return bytes;
}

la::Matrix bytes_to_matrix(std::span<const std::uint8_t> bytes) {
  ByteReader in(bytes, SectionHook{"matrix section"});
  const auto rows = in.read<std::uint64_t>("rows");
  const auto cols = in.read<std::uint64_t>("cols");
  std::size_t cells = 0;
  if (__builtin_mul_overflow(rows, cols, &cells)) {
    in.fail(ReadFault::kCount, "rows * cols overflows");
  }
  auto data = in.array<double>(cells, "cells");
  in.finish("the last cell");
  return la::Matrix(rows, cols, std::move(data));
}

std::vector<std::uint8_t> u64s_to_bytes(std::span<const std::uint64_t> values) {
  return write_all(values);
}

std::vector<std::uint64_t> bytes_to_u64s(std::span<const std::uint8_t> bytes) {
  return read_all<std::uint64_t>(bytes, "u64 section");
}

std::vector<std::uint8_t> csr_to_bytes(const la::CsrMatrix& csr) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(3 * sizeof(std::uint64_t) + csr.storage_bytes());
  put(bytes, std::uint64_t{csr.rows()});
  put(bytes, std::uint64_t{csr.cols()});
  put(bytes, std::uint64_t{csr.nnz()});
  put(bytes, csr.row_offsets());
  put(bytes, csr.col_indices());
  put(bytes, csr.values());
  return bytes;
}

la::CsrMatrix bytes_to_csr(std::span<const std::uint8_t> bytes,
                           std::size_t cells) {
  ByteReader in(bytes, SectionHook{"CSR section"});
  const auto rows = in.read<std::uint64_t>("rows");
  const auto cols = in.read<std::uint64_t>("cols");
  const auto nnz = in.read<std::uint64_t>("nnz");
  std::size_t shape = 0;
  if (__builtin_mul_overflow(rows, cols, &shape) || shape != cells) {
    in.fail(ReadFault::kCount, std::to_string(rows) + " x " +
                                   std::to_string(cols) + " is not the " +
                                   std::to_string(cells) + " grid cells");
  }
  // rows = 2^64 - 1 wraps to no offsets, which the constructor rejects.
  auto offsets = in.array<std::uint64_t>(rows + 1, "row offsets");
  auto columns = in.array<std::uint32_t>(nnz, "column indices");
  auto values = in.array<double>(nnz, "values");
  in.finish("the last value");
  try {
    return la::CsrMatrix(rows, cols, std::move(offsets), std::move(columns),
                         std::move(values));
  } catch (const std::invalid_argument& e) {
    throw io::ContainerError(io::ContainerErrc::kSectionMalformed,
                             std::string("CSR section: ") + e.what());
  }
}

}  // namespace rmp::core
