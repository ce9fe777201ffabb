// Field <-> matrix reshaping for the dimension-reduction preconditioners.
//
// The paper treats a dataset as an m x n matrix with columns as variables.
// Convention here (DESIGN.md §5): a 3D field (nx, ny, nz) becomes the
// (nx*ny) x nz matrix whose rows are (x, y) samples; a 2D field maps
// directly; a 1D signal is folded into the most nearly square m x n
// factorization so PCA/SVD remain meaningful.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "la/matrix.hpp"
#include "sim/field.hpp"

namespace rmp::core {

/// Matrix shape a field (or a field of shape nx x ny x nz) is viewed as.
std::pair<std::size_t, std::size_t> matrix_shape(const sim::Field& field);
std::pair<std::size_t, std::size_t> matrix_shape(std::size_t nx,
                                                 std::size_t ny,
                                                 std::size_t nz);

/// Most nearly square factorization m x n = count with m >= n.
std::pair<std::size_t, std::size_t> near_square_factors(std::size_t count);

/// View the field's data as the canonical matrix (copies).
la::Matrix as_matrix(const sim::Field& field);

/// Inverse of as_matrix: rebuild a field of the given shape.
sim::Field matrix_to_field(const la::Matrix& m, std::size_t nx, std::size_t ny,
                           std::size_t nz);

/// One part [begin, end) of an even split.
struct Extent {
  std::size_t begin, end;
};

/// Split [0, n) into `count` contiguous parts; part s covers
/// [s*n/count, (s+1)*n/count).  Row blocks, Z slabs and per-slab
/// sub-domains all use this one rule, so a count read back from an
/// archive rebuilds the writer's parts.  When `count` comes from a
/// stream, check it against `n` before calling.
std::vector<Extent> even_split(std::size_t n, std::size_t count);

}  // namespace rmp::core
