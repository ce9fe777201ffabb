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

/// meta = {k, m}: the scores' shape.
class PcaPreconditioner final : public ReducedModelPreconditioner {
 public:
  explicit PcaPreconditioner(PcaOptions options = {});

  std::string name() const override { return "pca"; }

  ModelFit fit(const sim::Field& field, const CodecPair& codecs,
               std::span<double> delta) const override;
  void rebuild(const ModelSections& sections,
               std::span<const std::uint64_t> meta, const compress::Dims& dims,
               const CodecPair& codecs, std::span<double> out) const override;

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

/// How combine_pca_reconstruction joins `from` and the reconstruction.
enum class Combine { kSubtract, kAdd };

/// The PCA reconstruction scores * basis^T + means (per column) of an
/// m x n matrix, joined row by row with `from`, that matrix's row-major
/// values: `to` = from - reconstruction (kSubtract: the encoder's delta)
/// or from + reconstruction (kAdd: the decoder's output).  `to` may be
/// `from`.  Each element sees the product's operations, then its column
/// mean, in the order forming the whole reconstruction first would use,
/// so the results are the same bits; only one row of the reconstruction
/// exists at a time (DESIGN.md §13c).  Shapes that disagree raise
/// std::invalid_argument.
void combine_pca_reconstruction(std::span<const double> from,
                                std::span<double> to, const la::Matrix& scores,
                                const la::Matrix& basis,
                                std::span<const double> means, Combine how);

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
