#include "core/staging.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "core/pipeline.hpp"
#include "fault_injection.hpp"
#include "stats/metrics.hpp"

namespace rmp::core {
namespace {

namespace fs = std::filesystem;

sim::Field wavy(std::size_t n, double phase) {
  sim::Field f(n, n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t k = 0; k < n; ++k) {
        f.at(i, j, k) = std::sin(0.3 * static_cast<double>(i) + phase) +
                        std::cos(0.2 * static_cast<double>(j + k));
      }
    }
  }
  return f;
}

TEST(Staging, ProcessesEverySubmission) {
  const Codecs codecs = make_codecs("zfp");
  StagingNode node(codecs.pair(), {.method = "pca"});
  for (int s = 0; s < 6; ++s) {
    node.submit(wavy(10, 0.1 * s));
  }
  node.drain();
  const auto stats = node.stats();
  EXPECT_EQ(stats.fields_submitted, 6u);
  EXPECT_EQ(stats.fields_completed, 6u);
  EXPECT_EQ(stats.bytes_in, 6u * 1000 * sizeof(double));
  EXPECT_GT(stats.bytes_out, 0u);
  EXPECT_LT(stats.bytes_out, stats.bytes_in);
  EXPECT_EQ(node.results().size(), 6u);
}

TEST(Staging, ResultsAreDecodableContainers) {
  const Codecs codecs = make_codecs("zfp");
  const sim::Field field = wavy(12, 0.7);
  StagingNode node(codecs.pair(), {.method = "one-base"});
  node.submit(field);
  node.drain();
  ASSERT_EQ(node.results().size(), 1u);
  const sim::Field decoded = reconstruct(node.results()[0], codecs.pair());
  EXPECT_LT(stats::rmse(field.flat(), decoded.flat()), 0.1);
}

TEST(Staging, WritesToDirectoryWhenConfigured) {
  const Codecs codecs = make_codecs("zfp");
  const auto dir = fs::temp_directory_path() / "rmp_staging_test";
  fs::create_directories(dir);
  {
    StagingNode node(codecs.pair(),
                     {.method = "identity", .output_dir = dir});
    node.submit(wavy(8, 0.0));
    node.submit(wavy(8, 1.0));
    node.drain();
    EXPECT_TRUE(node.results().empty());  // persisted, not retained
  }
  EXPECT_TRUE(fs::exists(dir / "field_0.rmp"));
  EXPECT_TRUE(fs::exists(dir / "field_1.rmp"));
  const auto loaded = io::read_container(dir / "field_1.rmp");
  EXPECT_EQ(loaded.method, "identity");
  fs::remove_all(dir);
}

TEST(Staging, BackpressureBoundsQueue) {
  const Codecs codecs = make_codecs("zfp");
  StagingNode node(codecs.pair(), {.method = "svd", .max_queue = 2});
  // Submissions beyond the queue bound must block (and therefore record
  // submit-side wait time) rather than grow memory unboundedly.
  for (int s = 0; s < 8; ++s) {
    node.submit(wavy(12, 0.2 * s));
  }
  node.drain();
  EXPECT_EQ(node.stats().fields_completed, 8u);
}

TEST(Staging, StatsTrackCompressionTime) {
  const Codecs codecs = make_codecs("zfp");
  StagingNode node(codecs.pair(), {.method = "pca"});
  node.submit(wavy(12, 0.5));
  node.drain();
  EXPECT_GT(node.stats().total_compress_seconds, 0.0);
}

TEST(Staging, WriteFailureIsRecordedNotFatal) {
  // A full disk on the staging node must not terminate the process (an
  // escaped exception in the worker thread would): the failure lands in
  // stats and later submissions keep flowing.
  const Codecs codecs = make_codecs("zfp");
  const auto dir = fs::temp_directory_path() / "rmp_staging_fail_test";
  fs::create_directories(dir);
  {
    StagingNode node(codecs.pair(), {.method = "identity", .output_dir = dir});
    {
      // Every durable-write syscall fails while installed; the injector
      // stays alive until the poisoned submission has fully drained.
      testing::ScopedFaultInjection inject(
          {io::FaultKind::kEnospc, 1, 1u << 20});
      node.submit(wavy(8, 0.3));
      node.drain();
    }
    node.submit(wavy(8, 0.9));
    node.drain();

    const auto stats = node.stats();
    EXPECT_EQ(stats.fields_submitted, 2u);
    EXPECT_EQ(stats.fields_failed, 1u);
    EXPECT_EQ(stats.fields_completed, 1u);
    EXPECT_NE(stats.last_error.find("No space left"), std::string::npos)
        << stats.last_error;
  }
  // The surviving submission published; the failed one left no debris.
  std::size_t archives = 0, strays = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".rmp") ++archives;
    if (entry.path().filename().string().find(".tmp.") != std::string::npos) {
      ++strays;
    }
  }
  EXPECT_EQ(archives, 1u);
  EXPECT_EQ(strays, 0u);
  fs::remove_all(dir);
}

TEST(Staging, DrainOnEmptyNodeReturnsImmediately) {
  const Codecs codecs = make_codecs("zfp");
  StagingNode node(codecs.pair(), {});
  node.drain();
  EXPECT_EQ(node.stats().fields_submitted, 0u);
}

}  // namespace
}  // namespace rmp::core
