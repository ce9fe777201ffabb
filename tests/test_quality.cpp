#include "core/quality.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/identity.hpp"
#include "core/pca.hpp"

namespace rmp::core {
namespace {

sim::Field smooth(std::size_t n) {
  sim::Field f(n, n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t k = 0; k < n; ++k) {
        f.at(i, j, k) = 10.0 * std::sin(0.3 * static_cast<double>(i + j)) +
                        static_cast<double>(k);
      }
    }
  }
  return f;
}

TEST(Quality, IdenticalFieldsAreLossless) {
  const sim::Field f = smooth(8);
  const auto report = compare_fields(f, f);
  EXPECT_DOUBLE_EQ(report.rmse, 0.0);
  EXPECT_DOUBLE_EQ(report.max_error, 0.0);
  EXPECT_DOUBLE_EQ(report.gradient_rmse, 0.0);
  EXPECT_DOUBLE_EQ(report.decile_distance, 0.0);
  EXPECT_TRUE(std::isinf(report.psnr_db));
}

TEST(Quality, AssessFillsEveryField) {
  const Codecs codecs = make_codecs("sz");
  IdentityPreconditioner identity;
  const sim::Field f = smooth(10);
  const auto report = assess_quality(identity, f, codecs.pair());
  EXPECT_EQ(report.method, "identity");
  EXPECT_GT(report.compression_ratio, 1.0);
  EXPECT_GT(report.stored_bytes, 0u);
  EXPECT_EQ(report.original_bytes, f.size() * sizeof(double));
  EXPECT_GE(report.max_error, report.rmse);
  EXPECT_GT(report.psnr_db, 40.0);  // pw-rel 1e-5 on a range ~30 field
}

TEST(Quality, GradientMetricCatchesSmoothing) {
  // A blurred copy has much larger gradient error than pointwise error
  // suggests -- that's exactly what the metric is for.
  sim::Field original(64, 1, 1);
  sim::Field blurred(64, 1, 1);
  for (std::size_t i = 0; i < 64; ++i) {
    original.at(i) = (i % 2 == 0) ? 1.0 : -1.0;  // high-frequency
    blurred.at(i) = 0.0;                         // mean value
  }
  const auto report = compare_fields(original, blurred);
  EXPECT_GT(report.gradient_rmse, report.rmse);
}

TEST(Quality, FormatReportContainsMethodAndRatio) {
  const Codecs codecs = make_codecs("sz");
  PcaPreconditioner pca;
  const auto report = assess_quality(pca, smooth(10), codecs.pair());
  const std::string text = format_report(report);
  EXPECT_NE(text.find("pca"), std::string::npos);
  EXPECT_NE(text.find("compression ratio"), std::string::npos);
  EXPECT_NE(text.find("gradient rmse"), std::string::npos);
}

}  // namespace
}  // namespace rmp::core
