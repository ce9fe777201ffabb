#include "core/svd_precond.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/pca.hpp"  // spectrum_proportions, leading_columns
#include "core/precond_error.hpp"
#include "core/reshape.hpp"
#include "core/serialize.hpp"
#include "la/svd.hpp"

namespace rmp::core {
namespace {

// U_k scaled by the singular values: the "dimension-reduced data".
la::Matrix scaled_leading(const la::SvdResult& svd, std::size_t k) {
  la::Matrix p(svd.u.rows(), k);
  for (std::size_t i = 0; i < svd.u.rows(); ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      p(i, j) = svd.u(i, j) * svd.sigma[j];
    }
  }
  return p;
}

}  // namespace

std::vector<double> svd_singular_proportions(const sim::Field& field) {
  const auto svd = la::jacobi_svd(as_matrix(field));
  return spectrum_proportions(svd.sigma, /*first_carries_degenerate=*/true);
}

SvdPreconditioner::SvdPreconditioner(SvdOptionsPre options)
    : ReducedModelPreconditioner(3), options_(options) {
  if (options_.energy_target <= 0.0 || options_.energy_target > 1.0) {
    throw std::invalid_argument("svd: energy_target must be in (0, 1]");
  }
}

ModelFit SvdPreconditioner::fit(const sim::Field& field,
                               const CodecPair& codecs,
                               std::span<double> delta) const {
  const auto svd = la::jacobi_svd(as_matrix(field), options_.svd);
  if (!svd.converged) {
    throw PreconditionError(
        PrecondErrc::kSvdNonConvergence,
        "svd: column pairs still non-orthogonal (residual " +
            std::to_string(svd.max_off_orthogonality) + ") after " +
            std::to_string(options_.svd.max_sweeps) + " sweep(s)");
  }

  std::size_t k =
      components_for_target(spectrum_proportions(svd.sigma, false),
                            options_.energy_target);
  k = std::max<std::size_t>(1, std::min(k, svd.sigma.size()));

  const la::Matrix p = scaled_leading(svd, k);  // (rows of internal U) x k
  const la::Matrix vk = leading_columns(svd.v, k);

  auto p_bytes =
      traced_compress(*codecs.reduced, "reduced-compress", p.flat(),
                      compress::Dims::d2(p.rows(), p.cols()));

  la::Matrix recon_p = p;
  if (options_.delta_against_decoded) {
    recon_p = la::Matrix(p.rows(), p.cols(),
                         codecs.reduced->decompress(p_bytes));
  }
  la::Matrix reconstruction = recon_p * vk.transposed();
  if (svd.transposed) reconstruction = reconstruction.transposed();
  write_delta(field.flat(), reconstruction.flat(), delta);

  return {{{"u_sigma", std::move(p_bytes)}, {"v", matrix_to_bytes(vk)}},
          {k, p.rows(), svd.transposed ? 1u : 0u}};
}

void SvdPreconditioner::rebuild(const ModelSections& sections,
                                std::span<const std::uint64_t> meta,
                                const compress::Dims&, const CodecPair& codecs,
                                std::span<double> out) const {
  const std::uint64_t k = meta[0];
  const std::uint64_t rows = meta[1];
  const bool transposed = meta[2] != 0;
  const la::Matrix vk = bytes_to_matrix(sections["v"]);
  const la::Matrix p(rows, k,
                     sections.values("u_sigma", *codecs.reduced, {rows, k}));
  if (vk.cols() != k) sections.malformed("v", "v and u_sigma ranks differ");
  sections.require_cells("v", {rows, vk.rows()}, out.size());

  la::Matrix reconstruction = p * vk.transposed();
  if (transposed) reconstruction = reconstruction.transposed();
  add_reconstruction(out, reconstruction.flat());
}

}  // namespace rmp::core
