#include "compress/factory.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace rmp::compress {
namespace {

std::vector<double> sample_data() {
  std::vector<double> data(4096);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = 100.0 * std::sin(0.01 * static_cast<double>(i));
  }
  return data;
}

TEST(Factory, PaperConfigsConstruct) {
  EXPECT_EQ(make_sz_original()->name(), "sz-rel");
  EXPECT_EQ(make_sz_delta()->name(), "sz-rel");
  EXPECT_EQ(make_zfp_original()->name(), "zfp-prec");
  EXPECT_EQ(make_zfp_delta()->name(), "zfp-prec");
  EXPECT_EQ(make_fpc()->name(), "fpc");
}

TEST(Factory, LosslessFlags) {
  EXPECT_FALSE(make_sz_original()->lossless());
  EXPECT_FALSE(make_zfp_original()->lossless());
  EXPECT_TRUE(make_fpc()->lossless());
}

TEST(Factory, DeltaGradeIsLooser) {
  // The delta codecs use looser bounds (paper §V-B), so they must produce
  // smaller streams on identical data.
  const auto data = sample_data();
  const Dims dims = Dims::d1(data.size());
  EXPECT_LE(make_sz_delta()->compress(data, dims).size(),
            make_sz_original()->compress(data, dims).size());
  EXPECT_LT(make_zfp_delta()->compress(data, dims).size(),
            make_zfp_original()->compress(data, dims).size());
}

TEST(Factory, CrossInstanceDecode) {
  // Streams are self-describing: any instance of the right codec class
  // can decode another instance's output.
  const auto data = sample_data();
  const auto stream = make_sz_original()->compress(data, Dims::d1(data.size()));
  const auto decoded = make_sz_delta()->decompress(stream);
  ASSERT_EQ(decoded.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_NEAR(decoded[i], data[i], 100.0 * 1e-5 * 1.001);
  }
}

}  // namespace
}  // namespace rmp::compress
