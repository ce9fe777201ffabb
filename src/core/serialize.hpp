// The archive section layouts the preconditioners store their reduced
// models in: scalar tables, dense matrices and the wavelet CSR matrix.
// The readers take archive bytes, so any damage is
// io::ContainerError{kSectionMalformed}.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "la/matrix.hpp"
#include "la/sparse.hpp"

namespace rmp::core {

std::vector<std::uint8_t> doubles_to_bytes(std::span<const double> values);
std::vector<double> bytes_to_doubles(std::span<const std::uint8_t> bytes);

/// Matrix serialization: rows, cols (u64 each) followed by row-major data.
std::vector<std::uint8_t> matrix_to_bytes(const la::Matrix& m);
la::Matrix bytes_to_matrix(std::span<const std::uint8_t> bytes);

/// Little header helpers for fixed-size scalar metadata sections.
std::vector<std::uint8_t> u64s_to_bytes(std::span<const std::uint64_t> values);
std::vector<std::uint64_t> bytes_to_u64s(std::span<const std::uint8_t> bytes);

/// CSR serialization: rows, cols, nnz (u64 each), rows + 1 u64 row
/// offsets, nnz u32 column indices, nnz doubles.  The reader also requires
/// rows * cols == `cells`, the grid the matrix reconstructs.
std::vector<std::uint8_t> csr_to_bytes(const la::CsrMatrix& csr);
la::CsrMatrix bytes_to_csr(std::span<const std::uint8_t> bytes,
                           std::size_t cells);

}  // namespace rmp::core
