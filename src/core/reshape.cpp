#include "core/reshape.hpp"

#include <cmath>
#include <stdexcept>

namespace rmp::core {

std::pair<std::size_t, std::size_t> near_square_factors(std::size_t count) {
  if (count == 0) return {0, 0};
  auto n = static_cast<std::size_t>(std::sqrt(static_cast<double>(count)));
  while (n > 1 && count % n != 0) --n;
  return {count / n, n};  // m >= n
}

std::pair<std::size_t, std::size_t> matrix_shape(std::size_t nx,
                                                 std::size_t ny,
                                                 std::size_t nz) {
  if (nz > 1) return {nx * ny, nz};  // the sim::Field::rank() rule
  if (ny > 1) return {nx, ny};
  return near_square_factors(nx * ny * nz);
}

std::pair<std::size_t, std::size_t> matrix_shape(const sim::Field& field) {
  return matrix_shape(field.nx(), field.ny(), field.nz());
}

la::Matrix as_matrix(const sim::Field& field) {
  const auto [m, n] = matrix_shape(field);
  if (m * n != field.size()) {
    throw std::logic_error("as_matrix: shape mismatch");
  }
  // The field layout is row-major with z fastest, which is exactly the
  // row-major (m, n) layout for every rank's canonical shape.
  return la::Matrix(m, n,
                    std::vector<double>(field.flat().begin(),
                                        field.flat().end()));
}

sim::Field matrix_to_field(const la::Matrix& mat, std::size_t nx,
                           std::size_t ny, std::size_t nz) {
  if (mat.size() != nx * ny * nz) {
    throw std::invalid_argument("matrix_to_field: size mismatch");
  }
  return sim::Field::from_data(
      nx, ny, nz,
      std::vector<double>(mat.flat().begin(), mat.flat().end()));
}

std::vector<Extent> even_split(std::size_t n, std::size_t count) {
  std::vector<Extent> parts;
  parts.reserve(count);
  for (std::size_t s = 0; s < count; ++s) {
    parts.push_back({s * n / count, (s + 1) * n / count});
  }
  return parts;
}

}  // namespace rmp::core
