#include "core/model_predict.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/pca.hpp"  // spectrum_proportions
#include "core/reshape.hpp"
#include "la/covariance.hpp"
#include "la/eigen.hpp"

namespace rmp::core {
namespace {

double compute_zero_fraction(const sim::Field& field) {
  std::size_t zeros = 0;
  for (double v : field.flat()) {
    if (v == 0.0) ++zeros;
  }
  return field.empty()
             ? 0.0
             : static_cast<double>(zeros) / static_cast<double>(field.size());
}

double compute_value_range(const sim::Field& field) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (double v : field.flat()) {
    if (!std::isfinite(v)) continue;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  return hi > lo ? hi - lo : 0.0;
}

// Mean absolute deviation of every plane from the mid plane, normalized
// by the value range: affinity 1 means the mid plane explains the field
// exactly (the ideal one-base case).
double compute_mid_plane_affinity(const sim::Field& field, double range) {
  if (field.rank() != 3 || range <= 0.0) return 0.0;
  const std::size_t mid = field.nz() / 2;
  double sum = 0.0;
  for (std::size_t i = 0; i < field.nx(); ++i) {
    for (std::size_t j = 0; j < field.ny(); ++j) {
      const double base = field.at(i, j, mid);
      for (std::size_t k = 0; k < field.nz(); ++k) {
        sum += std::fabs(field.at(i, j, k) - base);
      }
    }
  }
  const double mean = sum / static_cast<double>(field.size());
  return std::clamp(1.0 - mean / range, 0.0, 1.0);
}

// PC1 variance share estimated from a strided row sample of the canonical
// matrix: covariance is O(sample * n^2) instead of O(m * n^2).
double compute_pc1_proportion(const sim::Field& field,
                              const PredictOptions& options) {
  const auto [m, n] = matrix_shape(field);
  if (m == 0 || n < 2) return 1.0;

  const std::size_t sample =
      std::min<std::size_t>(m, std::max<std::size_t>(2, options.max_sample_rows));
  const std::size_t stride = std::max<std::size_t>(1, m / sample);

  la::Matrix sampled(sample, n);
  const auto flat = field.flat();
  for (std::size_t s = 0; s < sample; ++s) {
    const std::size_t row = std::min(s * stride, m - 1);
    for (std::size_t j = 0; j < n; ++j) {
      sampled(s, j) = flat[row * n + j];
    }
  }
  const auto eig = la::jacobi_eigen(la::covariance(sampled));
  return spectrum_proportions(eig.values, /*first_carries_degenerate=*/true)
      .front();
}

}  // namespace

ModelFeatures extract_features(const sim::Field& field,
                               const PredictOptions& options) {
  ModelFeatures features;
  features.zero_fraction = compute_zero_fraction(field);
  features.value_range = compute_value_range(field);
  features.mid_plane_affinity =
      compute_mid_plane_affinity(field, features.value_range);
  features.pc1_proportion = compute_pc1_proportion(field, options);
  return features;
}

ModelPrediction predict_best_model(const sim::Field& field,
                                   const PredictOptions& options) {
  ModelPrediction prediction;
  prediction.features = extract_features(field, options);
  const ModelFeatures& f = prediction.features;

  if (f.zero_fraction > options.zero_fraction_cutoff) {
    // Fig. 6's Fish case: preconditioning turns exact zeros into
    // hard-to-compress near-zeros.
    prediction.method = "identity";
  } else if (field.rank() == 3 &&
             f.mid_plane_affinity > options.affinity_cutoff) {
    prediction.method = "one-base";
  } else if (f.pc1_proportion > options.pc1_cutoff) {
    prediction.method = "pca";
  } else {
    prediction.method = "identity";
  }
  return prediction;
}

}  // namespace rmp::core
