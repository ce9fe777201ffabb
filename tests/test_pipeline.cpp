#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "core/model_select.hpp"
#include "core/pipeline.hpp"
#include "core/precond_error.hpp"
#include "sim/heat.hpp"
#include "stats/metrics.hpp"

namespace rmp::core {
namespace {

sim::Field heat_field() {
  sim::HeatConfig config;
  config.n = 16;
  config.steps = 120;
  return sim::heat3d_run(config);
}

TEST(Pipeline, RunPipelineFillsAllFields) {
  const Codecs codecs = make_codecs("sz");
  const sim::Field f = heat_field();
  const auto result =
      run_pipeline(*make_preconditioner("one-base"), f, codecs.pair());
  EXPECT_EQ(result.method, "one-base");
  EXPECT_GT(result.stats.total_bytes, 0u);
  EXPECT_GT(result.stats.compression_ratio, 1.0);
  EXPECT_GE(result.encode_seconds, 0.0);
  EXPECT_GE(result.decode_seconds, 0.0);
  EXPECT_GE(result.max_error, result.rmse);
}

TEST(Pipeline, ReconstructDispatchesOnMethod) {
  const Codecs codecs = make_codecs("sz");
  const sim::Field f = heat_field();
  for (const std::string name : {"identity", "one-base", "pca", "wavelet"}) {
    const auto p = make_preconditioner(name);
    const auto container = p->encode(f, codecs.pair(), nullptr);
    const sim::Field decoded = reconstruct(container, codecs.pair());
    EXPECT_LT(stats::rmse(f.flat(), decoded.flat()), 1.0) << name;
  }
}

TEST(Pipeline, ConstantFieldRoundTripsOverSz) {
  // A constant 96^3 field leaves a delta whose SZ quantization codes are
  // one long byte run: the LZ stage must code runs longer than its last
  // length bucket as several matches, or the archive does not decode.
  const Codecs codecs = make_codecs("sz");
  sim::Field f(96, 96, 96);
  for (double& v : f.flat()) v = 2.5;
  for (const std::string name : {"pca", "one-base", "identity"}) {
    const auto container =
        make_preconditioner(name)->encode(f, codecs.pair(), nullptr);
    const sim::Field decoded = reconstruct(container, codecs.pair());
    EXPECT_LT(stats::max_abs_error(f.flat(), decoded.flat()), 1e-3) << name;
  }
}

TEST(Pipeline, ContainerSurvivesFileRoundTrip) {
  const Codecs codecs = make_codecs("sz");
  const sim::Field f = heat_field();
  const auto p = make_preconditioner("pca");
  const auto container = p->encode(f, codecs.pair(), nullptr);

  const auto path =
      std::filesystem::temp_directory_path() / "rmp_pipeline_test.bin";
  io::write_container(path, container);
  const auto loaded = io::read_container(path);
  std::filesystem::remove(path);

  const sim::Field decoded = reconstruct(loaded, codecs.pair());
  EXPECT_LT(stats::rmse(f.flat(), decoded.flat()), 1.0);
}

TEST(ModelSelect, PicksSmallestContainer) {
  const Codecs codecs = make_codecs("sz");
  const sim::Field f = heat_field();
  const auto selection = select_best_model(f, codecs.pair());
  ASSERT_FALSE(selection.best.empty());
  for (const auto& result : selection.all) {
    EXPECT_GE(result.stats.total_bytes,
              selection.best_result.stats.total_bytes)
        << result.method;
  }
}

TEST(ModelSelect, SkipsProjectionFor1dData) {
  const Codecs codecs = make_codecs("sz");
  sim::Field f(256, 1, 1);
  for (std::size_t i = 0; i < 256; ++i) {
    f.at(i) = std::sin(0.1 * static_cast<double>(i));
  }
  const auto selection = select_best_model(f, codecs.pair());
  for (const auto& result : selection.all) {
    EXPECT_NE(result.method, "one-base");
    EXPECT_NE(result.method, "multi-base");
  }
}

TEST(ModelSelect, RmseBudgetFiltersCandidates) {
  const Codecs codecs = make_codecs("sz");
  const sim::Field f = heat_field();
  SelectionOptions options;
  options.rmse_budget = 1e9;  // everything qualifies
  const auto loose = select_best_model(f, codecs.pair(), options);
  EXPECT_FALSE(loose.best.empty());
  EXPECT_FALSE(loose.fell_back);

  // Nothing qualifies (lossy codecs): the selector degrades to the
  // identity baseline with the rejection reasons on record instead of
  // throwing for a data-shaped outcome.
  options.rmse_budget = 0.0;
  options.candidates = {"pca"};
  const auto strict = select_best_model(f, codecs.pair(), options);
  EXPECT_EQ(strict.best, "identity");
  EXPECT_TRUE(strict.fell_back);
  ASSERT_FALSE(strict.rejections.empty());
  EXPECT_NE(strict.rejections.front().find("pca"), std::string::npos);
}

TEST(ModelSelect, EmptyFieldIsATypedError) {
  const Codecs codecs = make_codecs("sz");
  const sim::Field empty(0, 0, 0);
  try {
    select_best_model(empty, codecs.pair());
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    EXPECT_EQ(e.code(), PrecondErrc::kDegenerateInput);
  }
}

TEST(ModelSelect, HonorsCandidateList) {
  const Codecs codecs = make_codecs("sz");
  const sim::Field f = heat_field();
  SelectionOptions options;
  options.candidates = {"identity", "wavelet"};
  const auto selection = select_best_model(f, codecs.pair(), options);
  EXPECT_EQ(selection.all.size(), 2u);
}

}  // namespace
}  // namespace rmp::core
