#include "compress/sz.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <random>

namespace rmp::compress {
namespace {

std::vector<double> smooth_2d(std::size_t nx, std::size_t ny) {
  std::vector<double> data(nx * ny);
  for (std::size_t i = 0; i < nx; ++i) {
    for (std::size_t j = 0; j < ny; ++j) {
      const double x = static_cast<double>(i) / static_cast<double>(nx);
      const double y = static_cast<double>(j) / static_cast<double>(ny);
      data[i * ny + j] = std::sin(4 * x) * std::cos(3 * y) + 2.0 * x * y;
    }
  }
  return data;
}

TEST(Sz, AbsoluteBoundIsRespected1d) {
  const double bound = 1e-4;
  SzCompressor codec({SzMode::kAbsolute, bound, 16});
  std::vector<double> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::sin(0.01 * static_cast<double>(i));
  }
  const auto stream = codec.compress(data, Dims::d1(data.size()));
  const auto decoded = codec.decompress(stream);
  ASSERT_EQ(decoded.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_LE(std::fabs(decoded[i] - data[i]), bound) << "at " << i;
  }
}

TEST(Sz, AbsoluteBoundIsRespected2d) {
  const double bound = 1e-5;
  SzCompressor codec({SzMode::kAbsolute, bound, 16});
  const auto data = smooth_2d(64, 64);
  const auto stream = codec.compress(data, Dims::d2(64, 64));
  const auto decoded = codec.decompress(stream);
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_LE(std::fabs(decoded[i] - data[i]), bound);
  }
}

TEST(Sz, AbsoluteBoundIsRespected3d) {
  const double bound = 1e-4;
  SzCompressor codec({SzMode::kAbsolute, bound, 16});
  std::vector<double> data(16 * 16 * 16);
  std::size_t n = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    for (std::size_t j = 0; j < 16; ++j) {
      for (std::size_t k = 0; k < 16; ++k, ++n) {
        data[n] = std::exp(-0.01 * static_cast<double>(i * i + j * j + k * k));
      }
    }
  }
  const auto stream = codec.compress(data, Dims::d3(16, 16, 16));
  const auto decoded = codec.decompress(stream);
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_LE(std::fabs(decoded[i] - data[i]), bound);
  }
}

TEST(Sz, PointwiseRelativeBoundIsRespected) {
  const double rel = 1e-3;
  SzCompressor codec({SzMode::kPointwiseRelative, rel, 16});
  std::vector<double> data;
  for (int i = 1; i <= 2000; ++i) {
    // Values spanning 6 orders of magnitude, both signs.
    data.push_back((i % 2 == 0 ? 1.0 : -1.0) *
                   std::pow(10.0, (i % 7) - 3) * (1.0 + 0.001 * i));
  }
  const auto stream = codec.compress(data, Dims::d1(data.size()));
  const auto decoded = codec.decompress(stream);
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_LE(std::fabs(decoded[i] - data[i]), rel * std::fabs(data[i]) * 1.0001)
        << "at " << i;
  }
}

TEST(Sz, ExactZerosRoundTripExactly) {
  SzCompressor codec({SzMode::kPointwiseRelative, 1e-4, 16});
  std::vector<double> data(500, 0.0);
  for (std::size_t i = 100; i < 200; ++i) data[i] = 3.5;
  const auto decoded = codec.decompress(codec.compress(data, Dims::d1(500)));
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(decoded[i], 0.0);
  for (std::size_t i = 300; i < 500; ++i) EXPECT_EQ(decoded[i], 0.0);
}

TEST(Sz, SmoothDataCompressesWell) {
  SzCompressor codec({SzMode::kAbsolute, 1e-6, 16});
  const auto data = smooth_2d(128, 128);
  const auto stream = codec.compress(data, Dims::d2(128, 128));
  EXPECT_GT(compression_ratio(data.size(), stream.size()), 4.0);
}

TEST(Sz, SmootherDataCompressesBetter) {
  SzCompressor codec({SzMode::kAbsolute, 1e-6, 16});
  std::mt19937 rng(3);
  std::uniform_real_distribution<double> noise(-1.0, 1.0);
  std::vector<double> smooth(4096), rough(4096);
  for (std::size_t i = 0; i < smooth.size(); ++i) {
    smooth[i] = std::sin(0.01 * static_cast<double>(i));
    rough[i] = noise(rng);
  }
  const auto smooth_bytes = codec.compress(smooth, Dims::d1(4096)).size();
  const auto rough_bytes = codec.compress(rough, Dims::d1(4096)).size();
  EXPECT_LT(smooth_bytes, rough_bytes / 2);
}

TEST(Sz, HandlesConstantData) {
  SzCompressor codec({SzMode::kAbsolute, 1e-8, 16});
  std::vector<double> data(1000, 3.14159);
  const auto stream = codec.compress(data, Dims::d1(1000));
  const auto decoded = codec.decompress(stream);
  for (double v : decoded) EXPECT_NEAR(v, 3.14159, 1e-8);
  EXPECT_GT(compression_ratio(1000, stream.size()), 20.0);
}

TEST(Sz, HandlesNanInfAsZeroClassExceptions) {
  SzCompressor codec({SzMode::kPointwiseRelative, 1e-4, 16});
  std::vector<double> data = {1.0, std::nan(""), 2.0,
                              std::numeric_limits<double>::infinity(), -3.0};
  const auto decoded = codec.decompress(codec.compress(data, Dims::d1(5)));
  EXPECT_TRUE(std::isnan(decoded[1]));
  EXPECT_TRUE(std::isinf(decoded[3]));
  EXPECT_NEAR(decoded[4], -3.0, 3e-4);
}

// Residuals of exactly k + 1/2 steps round half away from zero, as
// std::round does.  With an absolute bound of 0.5 (step 1) a {1, 1, n}
// field predicts each value from the decoded one before it, and every
// value below sits 2.5, -2.5, 0.5, ... steps from that prediction.
TEST(Sz, TiesRoundHalfAwayFromZero) {
  const double offsets[] = {2.5, -2.5, 0.5, -0.5, 1.5, -1.5, 3.25};
  const std::size_t n = 64;
  std::vector<double> data(n), expected(n);
  double pred = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    data[k] = pred + offsets[k % std::size(offsets)];
    expected[k] = pred + std::round(data[k] - pred);
    pred = expected[k];
  }
  SzOptions opt;
  opt.mode = SzMode::kAbsolute;
  opt.bound = 0.5;
  const SzCompressor sz(opt);
  EXPECT_EQ(sz.decompress(sz.compress(data, Dims::d3(1, 1, n))), expected);
}

TEST(Sz, RejectsBadConstruction) {
  EXPECT_THROW(SzCompressor({SzMode::kAbsolute, 0.0, 16}),
               std::invalid_argument);
  EXPECT_THROW(SzCompressor({SzMode::kAbsolute, 1e-5, 1}),
               std::invalid_argument);
}

TEST(Sz, RejectsShapeMismatch) {
  SzCompressor codec;
  std::vector<double> data(10);
  EXPECT_THROW(codec.compress(data, Dims::d1(11)), std::invalid_argument);
}

TEST(SzBlockRel, BoundIsValueRangeRelative) {
  const double rel = 1e-4;
  SzCompressor codec({SzMode::kBlockRelative, rel, 16});
  const auto data = smooth_2d(64, 64);
  double global_max = 0;
  for (double v : data) global_max = std::max(global_max, std::fabs(v));
  const auto decoded =
      codec.decompress(codec.compress(data, Dims::d2(64, 64)));
  for (std::size_t i = 0; i < data.size(); ++i) {
    // Per-block bound is rel * block max <= rel * global max.
    ASSERT_LE(std::fabs(decoded[i] - data[i]), rel * global_max * 1.0001);
  }
}

TEST(SzBlockRel, SmoothZeroCrossingDeltaCompressesWell) {
  // The motivating case: a smooth signal oscillating through zero.  The
  // log-transform pointwise mode shreds it; block-relative keeps the
  // Lorenzo residuals tiny.
  std::vector<double> delta(8192);
  for (std::size_t i = 0; i < delta.size(); ++i) {
    delta[i] = 1e-3 * std::sin(0.01 * static_cast<double>(i));
  }
  SzCompressor block({SzMode::kBlockRelative, 1e-3, 16});
  const auto block_bytes = block.compress(delta, Dims::d1(delta.size()));
  // Few bits per value: ratio comfortably above 8x.
  EXPECT_GT(compression_ratio(delta.size(), block_bytes.size()), 8.0);
  // And the reconstruction is within the block-relative bound.
  const auto decoded = block.decompress(block_bytes);
  for (std::size_t i = 0; i < delta.size(); ++i) {
    ASSERT_LE(std::fabs(decoded[i] - delta[i]), 1e-3 * 1e-3 * 1.001);
  }
}

TEST(SzBlockRel, AllZeroInputRoundTrips) {
  SzCompressor codec({SzMode::kBlockRelative, 1e-3, 16});
  std::vector<double> data(3000, 0.0);
  const auto decoded =
      codec.decompress(codec.compress(data, Dims::d1(3000)));
  for (double v : decoded) EXPECT_EQ(v, 0.0);
}

TEST(SzBlockRel, MixedMagnitudeBlocksGetLocalBounds) {
  // First block tiny values, later blocks huge: the tiny block must not
  // be flattened by the huge block's bound.
  std::vector<double> data(4096);
  for (std::size_t i = 0; i < 2048; ++i) {
    data[i] = 1e-6 * std::sin(0.05 * static_cast<double>(i));
  }
  for (std::size_t i = 2048; i < 4096; ++i) {
    data[i] = 1e+3 * std::sin(0.05 * static_cast<double>(i));
  }
  SzCompressor codec({SzMode::kBlockRelative, 1e-4, 16});
  const auto decoded =
      codec.decompress(codec.compress(data, Dims::d1(4096)));
  for (std::size_t i = 0; i < 1024; ++i) {
    // Within the first (entirely tiny) block, the bound is 1e-4 * 1e-6.
    ASSERT_LE(std::fabs(decoded[i] - data[i]), 1e-4 * 1e-6 * 1.001) << i;
  }
}

TEST(SzHybrid, RoundTripRespectsAbsoluteBound) {
  const double bound = 1e-5;
  SzCompressor codec({SzMode::kAbsolute, bound, 16, SzPredictor::kHybrid});
  const auto data = smooth_2d(48, 48);
  const auto decoded =
      codec.decompress(codec.compress(data, Dims::d2(48, 48)));
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_LE(std::fabs(decoded[i] - data[i]), bound) << i;
  }
}

TEST(SzHybrid, RoundTrip3d) {
  const double bound = 1e-4;
  SzCompressor codec({SzMode::kAbsolute, bound, 16, SzPredictor::kHybrid});
  std::vector<double> data(13 * 14 * 15);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = 3.0 * std::sin(0.01 * static_cast<double>(i)) +
              0.001 * static_cast<double>(i % 97);
  }
  const auto decoded =
      codec.decompress(codec.compress(data, Dims::d3(13, 14, 15)));
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_LE(std::fabs(decoded[i] - data[i]), bound) << i;
  }
}

TEST(SzHybrid, RegressionWinsOnNoisyTrend) {
  // A strong linear trend plus white noise: Lorenzo's residual is ~2x the
  // noise, while regression's is ~1x, so hybrid should compress better.
  std::mt19937 rng(21);
  std::normal_distribution<double> noise(0.0, 0.01);
  std::vector<double> data(64 * 64);
  for (std::size_t i = 0; i < 64; ++i) {
    for (std::size_t j = 0; j < 64; ++j) {
      data[i * 64 + j] = 0.5 * static_cast<double>(i) +
                         0.25 * static_cast<double>(j) + noise(rng);
    }
  }
  SzCompressor lorenzo({SzMode::kAbsolute, 1e-4, 16, SzPredictor::kLorenzo});
  SzCompressor hybrid({SzMode::kAbsolute, 1e-4, 16, SzPredictor::kHybrid});
  const auto lorenzo_bytes = lorenzo.compress(data, Dims::d2(64, 64)).size();
  const auto hybrid_bytes = hybrid.compress(data, Dims::d2(64, 64)).size();
  EXPECT_LT(hybrid_bytes, lorenzo_bytes);
}

TEST(SzHybrid, FallsBackToLorenzoOnSmoothData) {
  // On very smooth data Lorenzo's residual beats any hyperplane, so the
  // hybrid stream must be within model-overhead distance of pure Lorenzo.
  const auto data = smooth_2d(64, 64);
  SzCompressor lorenzo({SzMode::kAbsolute, 1e-6, 16, SzPredictor::kLorenzo});
  SzCompressor hybrid({SzMode::kAbsolute, 1e-6, 16, SzPredictor::kHybrid});
  const auto lorenzo_bytes = lorenzo.compress(data, Dims::d2(64, 64)).size();
  const auto hybrid_bytes = hybrid.compress(data, Dims::d2(64, 64)).size();
  EXPECT_LT(hybrid_bytes, lorenzo_bytes * 3 / 2 + 256);
}

TEST(SzHybrid, WorksWithBlockRelativeMode) {
  SzCompressor codec(
      {SzMode::kBlockRelative, 1e-4, 16, SzPredictor::kHybrid});
  std::vector<double> data(4000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<double>(i) * 0.1 +
              std::sin(0.3 * static_cast<double>(i));
  }
  double global_max = 0;
  for (double v : data) global_max = std::max(global_max, std::fabs(v));
  const auto decoded =
      codec.decompress(codec.compress(data, Dims::d1(4000)));
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_LE(std::fabs(decoded[i] - data[i]), 1e-4 * global_max * 1.0001);
  }
}

class SzBoundSweep : public ::testing::TestWithParam<double> {};

TEST_P(SzBoundSweep, BoundRespectedAcrossMagnitudes) {
  const double bound = GetParam();
  SzCompressor codec({SzMode::kAbsolute, bound, 16});
  const auto data = smooth_2d(48, 48);
  const auto decoded =
      codec.decompress(codec.compress(data, Dims::d2(48, 48)));
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_LE(std::fabs(decoded[i] - data[i]), bound);
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, SzBoundSweep,
                         ::testing::Values(1e-2, 1e-4, 1e-6, 1e-8, 1e-10));

}  // namespace
}  // namespace rmp::compress
