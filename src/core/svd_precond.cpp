#include "core/svd_precond.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/pca.hpp"  // spectrum_proportions, leading_columns
#include "core/precond_error.hpp"
#include "core/reshape.hpp"
#include "core/serialize.hpp"
#include "la/svd.hpp"
#include "obs/obs.hpp"

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
    : options_(options) {
  if (options_.energy_target <= 0.0 || options_.energy_target > 1.0) {
    throw std::invalid_argument("svd: energy_target must be in (0, 1]");
  }
}

io::Container SvdPreconditioner::encode(const sim::Field& field,
                                        const CodecPair& codecs,
                                        EncodeStats* stats) const {
  const obs::ScopedSpan span("precondition/svd");
  const la::Matrix a = as_matrix(field);
  const auto svd = la::jacobi_svd(a, options_.svd);
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
  la::Matrix delta = recon_p * vk.transposed();
  if (svd.transposed) delta = delta.transposed();
  delta_in_place(field, delta.flat());

  const std::uint64_t meta[3] = {k, p.rows(), svd.transposed ? 1u : 0u};
  return reduced_model_container(
      name(), field,
      {{"u_sigma", std::move(p_bytes)}, {"v", matrix_to_bytes(vk)}},
      delta.flat(), meta, codecs, stats);
}

sim::Field SvdPreconditioner::decode(const io::Container& container,
                                     const CodecPair& codecs,
                                     const sim::Field*) const {
  const obs::ScopedSpan span("svd");
  const auto& p_section = require_section(container, "u_sigma", "svd");
  const auto& v_section = require_section(container, "v", "svd");
  const auto& meta_section = require_section(container, "meta", "svd");
  const auto meta = bytes_to_u64s(meta_section.bytes);
  const std::size_t k = meta.at(0);
  const std::size_t rows = meta.at(1);
  const bool transposed = meta.at(2) != 0;

  sim::Field out = decode_delta(container, codecs, "svd");
  const la::Matrix vk = bytes_to_matrix(v_section.bytes);
  la::Matrix p(rows, k, codecs.reduced->decompress(p_section.bytes));

  la::Matrix reconstruction = p * vk.transposed();
  if (transposed) reconstruction = reconstruction.transposed();
  add_reconstruction(out, reconstruction.flat(), "svd");
  return out;
}

}  // namespace rmp::core
