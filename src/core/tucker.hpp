// Tucker (HOSVD) preconditioner -- the tensor-native extension the
// paper's related work points at (Austin et al., IPDPS'16): instead of
// flattening a 3D field into a matrix, compute per-mode factor matrices
// U1, U2, U3 (eigenvectors of the mode unfoldings' Gram matrices) and a
// small core tensor G = A x1 U1^T x2 U2^T x3 U3^T.  The reduced
// representation is the compressed core plus the (exactly stored)
// factors; the delta against G x1 U1 x2 U2 x3 U3 is compressed at delta
// grade.
//
// For 2D fields this degenerates to an SVD-like two-factor model; 1D
// fields fall back to the canonical near-square matrix view.
#pragma once

#include "core/preconditioner.hpp"

namespace rmp::core {

struct TuckerOptions {
  /// Keep the smallest per-mode rank whose singular-value mass reaches
  /// this fraction (same 95% convention as PCA/SVD, paper §V-B).
  double energy_target = 0.95;
};

/// meta = {core ranks r0, r1, r2, canonical extents d0, d1, d2}.
class TuckerPreconditioner final : public ReducedModelPreconditioner {
 public:
  explicit TuckerPreconditioner(TuckerOptions options = {});

  std::string name() const override { return "tucker"; }

  ModelFit fit(const sim::Field& field, const CodecPair& codecs,
               std::span<double> delta) const override;
  void rebuild(const ModelSections& sections,
               std::span<const std::uint64_t> meta, const compress::Dims& dims,
               const CodecPair& codecs, std::span<double> out) const override;

  const TuckerOptions& options() const noexcept { return options_; }

 private:
  TuckerOptions options_;
};

/// Per-mode singular-value proportions of a 3D field's unfoldings (via
/// Gram-matrix eigenvalues); diagnostic for rank selection.
std::vector<std::vector<double>> tucker_mode_proportions(
    const sim::Field& field);

}  // namespace rmp::core
