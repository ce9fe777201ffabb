// PCA preconditioner (paper §V-A.1).
//
// The field, viewed as an m x n matrix, is centered; the eigenvectors of
// the n x n column covariance give the principal directions.  The k
// leading components covering >= `variance_target` of the variance (paper:
// 95%) are kept: the dimension-reduced scores (m x k, compressed at
// original grade) plus the basis and column means (stored exactly) form
// the reduced representation; the delta against the rank-k reconstruction
// is compressed at delta grade.
#pragma once

#include <span>
#include <vector>

#include "core/preconditioner.hpp"
#include "la/eigen.hpp"
#include "la/matrix.hpp"

namespace rmp::core {

struct PcaOptions {
  double variance_target = 0.95;
  /// When true, the delta is computed against the reconstruction from the
  /// *decompressed* scores, so the reduced-representation loss cancels at
  /// decode time.  The paper computes the delta against the clean
  /// reconstruction (false), which is what amplifies RMSE in Fig. 10; the
  /// ablation bench flips this.
  bool delta_against_decoded = false;
  /// Eigensolver budget for the covariance diagonalization.  Exposed so
  /// tests (and cautious callers) can tighten it; a non-converged solve
  /// raises PreconditionError(kEigenNonConvergence) instead of encoding
  /// with a half-rotated basis.
  la::JacobiOptions jacobi = {};
};

class PcaPreconditioner final : public Preconditioner {
 public:
  explicit PcaPreconditioner(PcaOptions options = {});

  std::string name() const override { return "pca"; }

  io::Container encode(const sim::Field& field, const CodecPair& codecs,
                       EncodeStats* stats) const override;
  sim::Field decode(const io::Container& container, const CodecPair& codecs,
                    const sim::Field* external_reduced) const override;

  const PcaOptions& options() const noexcept { return options_; }

 private:
  PcaOptions options_;
};

/// One PCA fit of an m x n matrix `a` (paper §V-A.1): column means, the
/// n x k leading eigenvectors of the centred covariance covering
/// `variance_target` of the variance (k >= 1), and the m x k scores.
/// `converged`/`off_diagonal_residual` report the Jacobi solve; callers
/// decide whether a non-converged basis is acceptable.  `a` is taken by
/// value and centred in place: pass a temporary or std::move it.
struct PcaFit {
  std::vector<double> means;
  la::Matrix basis;
  la::Matrix scores;
  bool converged = false;
  double off_diagonal_residual = 0.0;
};
PcaFit pca_fit(la::Matrix a, double variance_target,
               const la::JacobiOptions& jacobi = {});

/// The PCA reconstruction: scores * basis^T + means (per column).
la::Matrix pca_reconstruct(const la::Matrix& scores, const la::Matrix& basis,
                           const std::vector<double>& means);

/// Proportion of total variance captured by each principal component of
/// the field's canonical matrix, descending (Fig. 7).
std::vector<double> pca_variance_proportions(const sim::Field& field);

/// Each entry of a descending spectrum (eigenvalues or singular values;
/// negatives clamped to zero) as a share of its sum.  A spectrum that
/// does not sum to a positive value gives all zeros, or {1, 0, ...} when
/// `first_carries_degenerate` (the first "component" of constant data
/// trivially carries everything).
std::vector<double> spectrum_proportions(std::span<const double> spectrum,
                                         bool first_carries_degenerate);

/// Components needed to reach `target` cumulative proportion.
std::size_t components_for_target(const std::vector<double>& proportions,
                                  double target);

/// The first k columns of `m`.
la::Matrix leading_columns(const la::Matrix& m, std::size_t k);

}  // namespace rmp::core
