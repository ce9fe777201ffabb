#include "core/pca.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/precond_error.hpp"
#include "core/reshape.hpp"
#include "core/serialize.hpp"
#include "la/covariance.hpp"
#include "la/eigen.hpp"
#include "obs/obs.hpp"

namespace rmp::core {

la::Matrix leading_columns(const la::Matrix& m, std::size_t k) {
  la::Matrix out(m.rows(), k);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      out(i, j) = m(i, j);
    }
  }
  return out;
}

std::size_t components_for_target(const std::vector<double>& proportions,
                                  double target) {
  double cumulative = 0.0;
  for (std::size_t k = 0; k < proportions.size(); ++k) {
    cumulative += proportions[k];
    if (cumulative >= target) return k + 1;
  }
  return proportions.empty() ? 0 : proportions.size();
}

std::vector<double> spectrum_proportions(std::span<const double> spectrum,
                                         bool first_carries_degenerate) {
  std::vector<double> proportions;
  proportions.reserve(spectrum.size());
  double total = 0.0;
  for (double v : spectrum) {
    // Tiny negative eigenvalues are numerical noise.
    proportions.push_back(std::max(v, 0.0));
    total += proportions.back();
  }
  if (total > 0.0) {
    for (double& v : proportions) v /= total;
  } else {
    std::fill(proportions.begin(), proportions.end(), 0.0);
    if (first_carries_degenerate && !proportions.empty()) proportions[0] = 1.0;
  }
  return proportions;
}

std::vector<double> pca_variance_proportions(const sim::Field& field) {
  const auto eig = la::jacobi_eigen(la::covariance(as_matrix(field)));
  return spectrum_proportions(eig.values, /*first_carries_degenerate=*/true);
}

PcaFit pca_fit(la::Matrix a, double variance_target,
               const la::JacobiOptions& jacobi) {
  PcaFit fit;
  fit.means = la::column_means(a);
  la::center_columns(a, fit.means);

  const auto eig = la::jacobi_eigen(la::centered_covariance(a), jacobi);
  fit.converged = eig.converged;
  fit.off_diagonal_residual = eig.off_diagonal_residual;
  // k components covering the variance target; a spectrum summing to
  // zero (constant data) keeps every component.
  const std::size_t k = std::max<std::size_t>(
      1, components_for_target(spectrum_proportions(eig.values, false),
                               variance_target));
  fit.basis = leading_columns(eig.vectors, k);  // n x k
  fit.scores = a * fit.basis;                   // m x k, from the centred a
  return fit;
}

la::Matrix pca_reconstruct(const la::Matrix& scores, const la::Matrix& basis,
                           const std::vector<double>& means) {
  la::Matrix reconstruction = scores * basis.transposed();  // m x n
  la::uncenter_columns(reconstruction, means);
  return reconstruction;
}

PcaPreconditioner::PcaPreconditioner(PcaOptions options) : options_(options) {
  if (options_.variance_target <= 0.0 || options_.variance_target > 1.0) {
    throw std::invalid_argument("pca: variance_target must be in (0, 1]");
  }
}

io::Container PcaPreconditioner::encode(const sim::Field& field,
                                        const CodecPair& codecs,
                                        EncodeStats* stats) const {
  const obs::ScopedSpan span("precondition/pca");
  const PcaFit fit =
      pca_fit(as_matrix(field), options_.variance_target, options_.jacobi);
  if (!fit.converged) {
    throw PreconditionError(
        PrecondErrc::kEigenNonConvergence,
        "pca: covariance eigendecomposition left off-diagonal residual " +
            std::to_string(fit.off_diagonal_residual) + " after " +
            std::to_string(options_.jacobi.max_sweeps) + " sweep(s)");
  }
  const la::Matrix& scores = fit.scores;

  auto scores_bytes =
      traced_compress(*codecs.reduced, "reduced-compress", scores.flat(),
                      compress::Dims::d2(scores.rows(), scores.cols()));

  // Reconstruction used for the delta: clean scores by default (the
  // paper's pipeline), decoded scores when the ablation flag is set.
  la::Matrix delta =
      options_.delta_against_decoded
          ? pca_reconstruct(
                la::Matrix(scores.rows(), scores.cols(),
                           codecs.reduced->decompress(scores_bytes)),
                fit.basis, fit.means)
          : pca_reconstruct(scores, fit.basis, fit.means);
  delta_in_place(field, delta.flat());

  const std::uint64_t meta[2] = {fit.basis.cols(), scores.rows()};
  return reduced_model_container(
      name(), field,
      {{"scores", std::move(scores_bytes)},
       {"basis", matrix_to_bytes(fit.basis)},
       {"means", doubles_to_bytes(fit.means)}},
      delta.flat(), meta, codecs, stats);
}

sim::Field PcaPreconditioner::decode(const io::Container& container,
                                     const CodecPair& codecs,
                                     const sim::Field*) const {
  const obs::ScopedSpan span("pca");
  const auto& scores_section = require_section(container, "scores", "pca");
  const auto& basis_section = require_section(container, "basis", "pca");
  const auto& means_section = require_section(container, "means", "pca");
  const auto& meta_section = require_section(container, "meta", "pca");
  const auto meta = bytes_to_u64s(meta_section.bytes);
  const std::size_t k = meta.at(0);
  const std::size_t m = meta.at(1);

  sim::Field out = decode_delta(container, codecs, "pca");
  const la::Matrix reconstruction = pca_reconstruct(
      la::Matrix(m, k, codecs.reduced->decompress(scores_section.bytes)),
      bytes_to_matrix(basis_section.bytes),
      bytes_to_doubles(means_section.bytes));
  add_reconstruction(out, reconstruction.flat(), "pca");
  return out;
}

}  // namespace rmp::core
