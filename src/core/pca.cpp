#include "core/pca.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/precond_error.hpp"
#include "core/reshape.hpp"
#include "core/serialize.hpp"
#include "la/covariance.hpp"
#include "la/eigen.hpp"
#include "parallel/thread_pool.hpp"

namespace rmp::core {
namespace {

// Fewest cells one parallel task of the reconstruction gets; a smaller
// field runs on the calling thread.
constexpr std::size_t kMinCellsPerTask = 1u << 12;

}  // namespace

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

void combine_pca_reconstruction(std::span<const double> from,
                                std::span<double> to, const la::Matrix& scores,
                                const la::Matrix& basis,
                                std::span<const double> means, Combine how) {
  const std::size_t m = scores.rows();
  const std::size_t k = scores.cols();
  const std::size_t n = basis.rows();
  if (basis.cols() != k) {
    throw std::invalid_argument("pca: scores and basis ranks differ");
  }
  if (means.size() != n) {
    throw std::invalid_argument("pca: means size mismatch");
  }
  if (from.size() != la::checked_cells(m, n) || to.size() != from.size()) {
    throw std::invalid_argument("pca: values do not match the model shape");
  }
  // basis^T (k x n) makes each term of a row a contiguous axpy.
  const la::Matrix basis_t = basis.transposed();
  const auto rows = [&](std::size_t begin, std::size_t end) {
    std::vector<double> row(n);
    for (std::size_t i = begin; i < end; ++i) {
      // Row i of scores * basis^T, accumulated as la::Matrix::operator*
      // does (c ascending, zero scores skipped), then its column means.
      std::fill(row.begin(), row.end(), 0.0);
      for (std::size_t c = 0; c < k; ++c) {
        const double s = scores(i, c);
        if (s == 0.0) continue;
        const double* b = basis_t.flat().data() + c * n;
        for (std::size_t j = 0; j < n; ++j) row[j] += s * b[j];
      }
      const double* src = from.data() + i * n;
      double* dst = to.data() + i * n;
      if (how == Combine::kSubtract) {
        for (std::size_t j = 0; j < n; ++j) {
          dst[j] = src[j] - (row[j] + means[j]);
        }
      } else {
        for (std::size_t j = 0; j < n; ++j) {
          dst[j] = src[j] + (row[j] + means[j]);
        }
      }
    }
  };
  parallel::parallel_for_ranges(m, rows,
                                kMinCellsPerTask / std::max<std::size_t>(n, 1));
}

PcaPreconditioner::PcaPreconditioner(PcaOptions options)
    : ReducedModelPreconditioner(2), options_(options) {
  if (options_.variance_target <= 0.0 || options_.variance_target > 1.0) {
    throw std::invalid_argument("pca: variance_target must be in (0, 1]");
  }
}

ModelFit PcaPreconditioner::fit(const sim::Field& field,
                               const CodecPair& codecs,
                               std::span<double> delta) const {
  const PcaFit model =
      pca_fit(as_matrix(field), options_.variance_target, options_.jacobi);
  if (!model.converged) {
    throw PreconditionError(
        PrecondErrc::kEigenNonConvergence,
        "pca: covariance eigendecomposition left off-diagonal residual " +
            std::to_string(model.off_diagonal_residual) + " after " +
            std::to_string(options_.jacobi.max_sweeps) + " sweep(s)");
  }
  const la::Matrix& scores = model.scores;

  auto scores_bytes =
      traced_compress(*codecs.reduced, "reduced-compress", scores.flat(),
                      compress::Dims::d2(scores.rows(), scores.cols()));

  // Reconstruction used for the delta: clean scores by default (the
  // paper's pipeline), decoded scores when the ablation flag is set.
  const la::Matrix decoded_scores =
      options_.delta_against_decoded
          ? la::Matrix(scores.rows(), scores.cols(),
                       codecs.reduced->decompress(scores_bytes))
          : la::Matrix();
  combine_pca_reconstruction(
      field.flat(), delta,
      options_.delta_against_decoded ? decoded_scores : scores, model.basis,
      model.means, Combine::kSubtract);

  return {{{"scores", std::move(scores_bytes)},
           {"basis", matrix_to_bytes(model.basis)},
           {"means", doubles_to_bytes(model.means)}},
          {model.basis.cols(), scores.rows()}};
}

void PcaPreconditioner::rebuild(const ModelSections& sections,
                                std::span<const std::uint64_t> meta,
                                const compress::Dims&, const CodecPair& codecs,
                                std::span<double> out) const {
  const std::uint64_t k = meta[0];
  const std::uint64_t m = meta[1];
  const la::Matrix scores(m, k,
                          sections.values("scores", *codecs.reduced, {m, k}));
  const la::Matrix basis = bytes_to_matrix(sections["basis"]);
  const std::vector<double> means = bytes_to_doubles(sections["means"]);
  if (basis.cols() != k || means.size() != basis.rows()) {
    sections.malformed("basis", "basis, scores and means disagree");
  }
  sections.require_cells("basis", {m, basis.rows()}, out.size());
  combine_pca_reconstruction(out, out, scores, basis, means, Combine::kAdd);
}

}  // namespace rmp::core
