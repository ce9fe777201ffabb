// SVD preconditioner (paper §V-A.2).
//
// Thin SVD of the canonical m x n matrix; the k triplets whose singular
// values cover >= `energy_target` of the total (paper: 95%, measured on
// the singular values directly, §V-B) are kept.  The m x k product
// U_k diag(sigma_k) is the dimension-reduced data (compressed at original
// grade); V_k and sigma_k are stored exactly.  Unlike PCA, SVD captures
// both row and column correlation (Table III).
#pragma once

#include <vector>

#include "core/preconditioner.hpp"
#include "la/svd.hpp"

namespace rmp::core {

struct SvdOptionsPre {
  double energy_target = 0.95;
  bool delta_against_decoded = false;  ///< see PcaOptions
  /// Sweep budget for the one-sided Jacobi SVD; a non-converged solve
  /// raises PreconditionError(kSvdNonConvergence) instead of storing
  /// unreliable triplets.
  la::SvdOptions svd = {};
};

/// meta = {k, rows of U_k diag(sigma_k), 1 if the SVD ran on the
/// transpose}.
class SvdPreconditioner final : public ReducedModelPreconditioner {
 public:
  explicit SvdPreconditioner(SvdOptionsPre options = {});

  std::string name() const override { return "svd"; }

  ModelFit fit(const sim::Field& field, const CodecPair& codecs,
               std::span<double> delta) const override;
  void rebuild(const ModelSections& sections,
               std::span<const std::uint64_t> meta, const compress::Dims& dims,
               const CodecPair& codecs, std::span<double> out) const override;

  const SvdOptionsPre& options() const noexcept { return options_; }

 private:
  SvdOptionsPre options_;
};

/// Proportion of the singular-value sum carried by each singular value of
/// the field's canonical matrix, descending (Fig. 8).
std::vector<double> svd_singular_proportions(const sim::Field& field);

}  // namespace rmp::core
