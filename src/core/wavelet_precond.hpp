// Haar-wavelet preconditioner (paper §V-A.3).
//
// The canonical matrix is fully transformed (standard decomposition,
// rows then columns); coefficients with |c| <= theta = threshold_fraction
// * max|c| are zeroed (paper: 5%); the surviving sparse matrix -- stored
// CSR and lossless-compressed -- is the reduced representation, and the
// delta against its inverse transform is compressed at delta grade.
#pragma once

#include "core/preconditioner.hpp"

namespace rmp::core {

struct WaveletOptions {
  double threshold_fraction = 0.05;
  /// Use the separable 3D transform on 3D fields instead of the paper's
  /// 2D matrix view -- an extension that decorrelates along Z as well
  /// (ablation: bench/ablation_wavelet).
  bool transform_3d = false;
};

/// meta = {1 if the 3D transform ran}, advisory: without it decode
/// assumes the 2D transform.
class WaveletPreconditioner final : public ReducedModelPreconditioner {
 public:
  explicit WaveletPreconditioner(WaveletOptions options = {});

  std::string name() const override { return "wavelet"; }

  ModelFit fit(const sim::Field& field, const CodecPair& codecs,
               std::span<double> delta) const override;
  void rebuild(const ModelSections& sections,
               std::span<const std::uint64_t> meta, const compress::Dims& dims,
               const CodecPair& codecs, std::span<double> out) const override;

  const WaveletOptions& options() const noexcept { return options_; }

 private:
  WaveletOptions options_;
};

}  // namespace rmp::core
