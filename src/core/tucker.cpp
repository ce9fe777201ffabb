#include "core/tucker.hpp"

#include <array>
#include <cmath>
#include <stdexcept>

#include "core/pca.hpp"  // spectrum_proportions, leading_columns
#include "core/precond_error.hpp"
#include "core/reshape.hpp"
#include "core/serialize.hpp"
#include "la/eigen.hpp"

namespace rmp::core {
namespace {

// Tensor stored flat with shape (d0, d1, d2), index (i*d1 + j)*d2 + k --
// the Field layout.
struct Shape3 {
  std::size_t d0, d1, d2;
  std::size_t count() const { return d0 * d1 * d2; }
};

std::size_t flat(const Shape3& s, std::size_t i, std::size_t j,
                 std::size_t k) {
  return (i * s.d1 + j) * s.d2 + k;
}

// Gram matrix of the mode-m unfolding: G(a, b) = sum over the other two
// indices of T[a at mode m] * T[b at mode m].  Its eigenvectors are the
// HOSVD factor matrix for that mode, eigenvalues the squared singular
// values.
la::Matrix mode_gram(const std::vector<double>& t, const Shape3& s,
                     unsigned mode) {
  const std::size_t n = mode == 0 ? s.d0 : (mode == 1 ? s.d1 : s.d2);
  la::Matrix g(n, n);
  // Fiber-wise accumulation: for every fixed off-mode position, gather
  // the mode fiber and add its outer product, G += fiber * fiber^T.
  const std::size_t strides[3] = {s.d1 * s.d2, s.d2, 1};
  const std::size_t counts[3] = {s.d0, s.d1, s.d2};
  const unsigned o1 = mode == 0 ? 1 : 0;
  const unsigned o2 = mode == 2 ? 1 : 2;
  std::vector<double> fiber(n);
  for (std::size_t p = 0; p < counts[o1]; ++p) {
    for (std::size_t q = 0; q < counts[o2]; ++q) {
      const std::size_t base = p * strides[o1] + q * strides[o2];
      for (std::size_t a = 0; a < n; ++a) {
        fiber[a] = t[base + a * strides[mode]];
      }
      for (std::size_t a = 0; a < n; ++a) {
        const double fa = fiber[a];
        if (fa == 0.0) continue;
        for (std::size_t b = a; b < n; ++b) {
          g(a, b) += fa * fiber[b];
        }
      }
    }
  }
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < a; ++b) {
      g(a, b) = g(b, a);
    }
  }
  return g;
}

// Multiply tensor T by matrix M (r x d_mode) along `mode`; the mode's
// extent becomes r.
std::vector<double> mode_multiply(const std::vector<double>& t,
                                  const Shape3& s, unsigned mode,
                                  const la::Matrix& m, Shape3& out_shape) {
  const std::size_t r = m.rows();
  out_shape = s;
  (mode == 0 ? out_shape.d0 : mode == 1 ? out_shape.d1 : out_shape.d2) = r;
  std::vector<double> out(out_shape.count(), 0.0);

  const std::size_t n = mode == 0 ? s.d0 : (mode == 1 ? s.d1 : s.d2);
  for (std::size_t i = 0; i < out_shape.d0; ++i) {
    for (std::size_t j = 0; j < out_shape.d1; ++j) {
      for (std::size_t k = 0; k < out_shape.d2; ++k) {
        double sum = 0.0;
        const std::size_t row = mode == 0 ? i : (mode == 1 ? j : k);
        for (std::size_t a = 0; a < n; ++a) {
          const std::size_t si = mode == 0 ? a : i;
          const std::size_t sj = mode == 1 ? a : j;
          const std::size_t sk = mode == 2 ? a : k;
          sum += m(row, a) * t[flat(s, si, sj, sk)];
        }
        out[flat(out_shape, i, j, k)] = sum;
      }
    }
  }
  return out;
}

// Per-mode singular values (square roots of the Gram eigenvalues) as
// proportions of their sum.
std::vector<double> sigma_proportions(const la::EigenDecomposition& eig) {
  std::vector<double> sigma;
  sigma.reserve(eig.values.size());
  for (double v : eig.values) sigma.push_back(std::sqrt(std::max(v, 0.0)));
  return spectrum_proportions(sigma, /*first_carries_degenerate=*/true);
}

Shape3 canonical_shape(const sim::Field& field) {
  if (field.rank() == 3) return {field.nx(), field.ny(), field.nz()};
  if (field.rank() == 2) return {field.nx(), field.ny(), 1};
  const auto [m, n] = matrix_shape(field);
  return {m, n, 1};
}

}  // namespace

std::vector<std::vector<double>> tucker_mode_proportions(
    const sim::Field& field) {
  const Shape3 shape = canonical_shape(field);
  const std::vector<double> tensor(field.flat().begin(), field.flat().end());
  std::vector<std::vector<double>> proportions;
  for (unsigned mode = 0; mode < 3; ++mode) {
    const auto eig = la::jacobi_eigen(mode_gram(tensor, shape, mode));
    proportions.push_back(sigma_proportions(eig));
  }
  return proportions;
}

TuckerPreconditioner::TuckerPreconditioner(TuckerOptions options)
    : ReducedModelPreconditioner(6), options_(options) {
  if (options_.energy_target <= 0.0 || options_.energy_target > 1.0) {
    throw std::invalid_argument("tucker: energy_target must be in (0, 1]");
  }
}

ModelFit TuckerPreconditioner::fit(const sim::Field& field,
                                  const CodecPair& codecs,
                                  std::span<double> delta) const {
  const Shape3 shape = canonical_shape(field);
  std::vector<double> tensor(field.flat().begin(), field.flat().end());

  // Per-mode factors by Gram-matrix eigendecomposition.
  std::array<la::Matrix, 3> factors;   // k_m x d_m projections
  std::array<std::size_t, 3> ranks{};
  for (unsigned mode = 0; mode < 3; ++mode) {
    const std::size_t extent =
        mode == 0 ? shape.d0 : (mode == 1 ? shape.d1 : shape.d2);
    if (extent == 1) {
      ranks[mode] = 1;
      factors[mode] = la::Matrix::identity(1);
      continue;
    }
    const auto eig = la::jacobi_eigen(mode_gram(tensor, shape, mode));
    if (!eig.converged) {
      throw PreconditionError(
          PrecondErrc::kEigenNonConvergence,
          "tucker: mode-" + std::to_string(mode) +
              " gram eigendecomposition left off-diagonal residual " +
              std::to_string(eig.off_diagonal_residual));
    }
    std::size_t k = components_for_target(sigma_proportions(eig),
                                          options_.energy_target);
    if (k == 0) {
      throw PreconditionError(PrecondErrc::kRankFailure,
                              "tucker: mode-" + std::to_string(mode) +
                                  " rank selection produced no components");
    }
    ranks[mode] = k;
    // Leading-k eigenvectors, transposed into a (k x n) projection.
    factors[mode] = leading_columns(eig.vectors, k).transposed();
  }

  // Core tensor: project along every mode.
  Shape3 core_shape = shape;
  std::vector<double> core = tensor;
  for (unsigned mode = 0; mode < 3; ++mode) {
    Shape3 next{};
    core = mode_multiply(core, core_shape, mode, factors[mode], next);
    core_shape = next;
  }

  auto core_bytes =
      traced_compress(*codecs.reduced, "reduced-compress", core,
                      {core_shape.d0, core_shape.d1, core_shape.d2});

  // Reconstruction from the clean core (paper-style).
  Shape3 recon_shape = core_shape;
  std::vector<double> recon = core;
  for (unsigned mode = 0; mode < 3; ++mode) {
    Shape3 next{};
    recon = mode_multiply(recon, recon_shape, mode,
                          factors[mode].transposed(), next);
    recon_shape = next;
  }
  write_delta(field.flat(), recon, delta);

  return {{{"core", std::move(core_bytes)},
           {"u0", matrix_to_bytes(factors[0])},
           {"u1", matrix_to_bytes(factors[1])},
           {"u2", matrix_to_bytes(factors[2])}},
          {ranks[0], ranks[1], ranks[2], shape.d0, shape.d1, shape.d2}};
}

void TuckerPreconditioner::rebuild(const ModelSections& sections,
                                   std::span<const std::uint64_t> meta,
                                   const compress::Dims&,
                                   const CodecPair& codecs,
                                   std::span<double> out) const {
  const Shape3 core_shape{meta[0], meta[1], meta[2]};
  const std::string factor_names[3] = {"u0", "u1", "u2"};
  std::array<la::Matrix, 3> factors;
  for (unsigned mode = 0; mode < 3; ++mode) {
    factors[mode] = bytes_to_matrix(sections[factor_names[mode]]);
  }
  std::vector<double> recon = sections.values(
      "core", *codecs.reduced, {core_shape.d0, core_shape.d1, core_shape.d2});
  // Factor shapes are stream-controlled: each rank r_m must be the core's
  // extent and at most its mode's extent d_m (so no partial product
  // outgrows the field), and d0 * d1 * d2 must be the field's cells,
  // before mode_multiply indexes with them.
  const std::size_t core_extents[3] = {core_shape.d0, core_shape.d1,
                                       core_shape.d2};
  for (unsigned mode = 0; mode < 3; ++mode) {
    if (factors[mode].rows() != core_extents[mode] ||
        factors[mode].rows() > factors[mode].cols()) {
      sections.malformed(factor_names[mode], "core/factor shapes disagree");
    }
  }
  sections.require_cells(
      "u0", {factors[0].cols(), factors[1].cols(), factors[2].cols()},
      out.size());
  Shape3 shape = core_shape;
  for (unsigned mode = 0; mode < 3; ++mode) {
    Shape3 next{};
    recon = mode_multiply(recon, shape, mode, factors[mode].transposed(),
                          next);
    shape = next;
  }
  add_reconstruction(out, recon);
}

}  // namespace rmp::core
