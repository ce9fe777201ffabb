// Observability subsystem: span nesting, cross-thread aggregation, JSON
// emission + schema validation, and the determinism guarantee (archives
// are byte-identical with recording on and off).
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "compress/factory.hpp"
#include "core/guard.hpp"
#include "core/pipeline.hpp"
#include "io/container.hpp"
#include "obs/obs.hpp"
#include "sim/field.hpp"

namespace rmp {
namespace {

/// Every test runs against a clean, enabled registry and restores the
/// enabled state afterwards so ordering does not matter.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::Registry::global().reset();
  }
  void TearDown() override {
    obs::Registry::global().reset();
    obs::set_enabled(true);
  }
};

sim::Field make_test_field(std::size_t n = 16) {
  sim::Field field(n, n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t k = 0; k < n; ++k) {
        field.at(i, j, k) = std::sin(0.3 * static_cast<double>(i)) +
                            0.5 * std::cos(0.2 * static_cast<double>(j + k));
      }
    }
  }
  return field;
}

const obs::SpanSnapshot* find_span(const std::vector<obs::SpanSnapshot>& spans,
                                   const std::string& name) {
  for (const auto& span : spans) {
    if (span.name == name) return &span;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Spans

TEST_F(ObsTest, ScopedSpanRecordsOnce) {
  { const obs::ScopedSpan span("unit-test/solo"); }
  const auto spans = obs::Registry::global().spans();
  const auto* solo = find_span(spans, "unit-test/solo");
  ASSERT_NE(solo, nullptr);
  EXPECT_EQ(solo->count, 1u);
  EXPECT_GE(solo->total_seconds, 0.0);
  EXPECT_LE(solo->min_seconds, solo->max_seconds);
}

TEST_F(ObsTest, NestedSpansBuildPaths) {
  {
    const obs::ScopedSpan outer("outer");
    EXPECT_EQ(outer.path(), "outer");
    {
      const obs::ScopedSpan inner("inner");
      EXPECT_EQ(inner.path(), "outer/inner");
      const obs::ScopedSpan deepest("deepest");
      EXPECT_EQ(deepest.path(), "outer/inner/deepest");
    }
    // The nesting stack pops correctly: a sibling after `inner` closes
    // re-roots under "outer", not under the dead sibling.
    const obs::ScopedSpan sibling("sibling");
    EXPECT_EQ(sibling.path(), "outer/sibling");
  }
  const auto spans = obs::Registry::global().spans();
  EXPECT_NE(find_span(spans, "outer"), nullptr);
  EXPECT_NE(find_span(spans, "outer/inner"), nullptr);
  EXPECT_NE(find_span(spans, "outer/inner/deepest"), nullptr);
  EXPECT_NE(find_span(spans, "outer/sibling"), nullptr);
}

TEST_F(ObsTest, SpansOnOtherThreadsRootIndependently) {
  const obs::ScopedSpan outer("main-root");
  std::thread worker([] {
    const obs::ScopedSpan span("worker-root");
    EXPECT_EQ(span.path(), "worker-root");  // not nested under main-root
  });
  worker.join();
  const auto spans = obs::Registry::global().spans();
  EXPECT_NE(find_span(spans, "worker-root"), nullptr);
  EXPECT_EQ(find_span(spans, "main-root/worker-root"), nullptr);
}

TEST_F(ObsTest, DisabledSpanStillTimesButRecordsNothing) {
  obs::set_enabled(false);
  {
    const obs::ScopedSpan span("ghost");
    EXPECT_TRUE(span.path().empty());
    EXPECT_GE(span.elapsed_seconds(), 0.0);
  }
  obs::set_enabled(true);
  EXPECT_TRUE(obs::Registry::global().spans().empty());
}

// ---------------------------------------------------------------------------
// Counters / gauges / histograms

TEST_F(ObsTest, CountersAggregateAcrossThreads) {
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (std::uint64_t n = 0; n < kPerThread; ++n) {
        obs::count("test.cross_thread");
      }
      obs::count("test.bulk", 5);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(obs::Registry::global().counter_value("test.cross_thread"),
            kThreads * kPerThread);
  EXPECT_EQ(obs::Registry::global().counter_value("test.bulk"),
            kThreads * 5u);
}

TEST_F(ObsTest, GaugeKeepsMaximum) {
  obs::gauge_max("test.depth", 3);
  obs::gauge_max("test.depth", 9);
  obs::gauge_max("test.depth", 4);
  const auto gauges = obs::Registry::global().gauges();
  ASSERT_EQ(gauges.size(), 1u);
  EXPECT_EQ(gauges[0].name, "test.depth");
  EXPECT_EQ(gauges[0].value, 9u);
}

TEST_F(ObsTest, HistogramBucketsAndMoments) {
  obs::observe("test.latency", 0.5e-6);   // bucket 0: < 1us
  obs::observe("test.latency", 3e-6);     // ~2-4us
  obs::observe("test.latency", 1e-3);     // ~1ms
  const auto histograms = obs::Registry::global().histograms();
  ASSERT_EQ(histograms.size(), 1u);
  const auto& h = histograms[0];
  EXPECT_EQ(h.count, 3u);
  EXPECT_NEAR(h.sum, 0.5e-6 + 3e-6 + 1e-3, 1e-12);
  EXPECT_NEAR(h.min, 0.5e-6, 1e-12);
  EXPECT_NEAR(h.max, 1e-3, 1e-12);
  std::uint64_t total = 0;
  for (const auto b : h.buckets) total += b;
  EXPECT_EQ(total, 3u);
  ASSERT_FALSE(h.buckets.empty());
  EXPECT_EQ(h.buckets[0], 1u);  // the sub-microsecond observation
}

TEST_F(ObsTest, DisabledCountersAreNoOps) {
  obs::set_enabled(false);
  obs::count("test.ghost");
  obs::gauge_max("test.ghost_gauge", 7);
  obs::observe("test.ghost_hist", 1.0);
  obs::set_enabled(true);
  EXPECT_EQ(obs::Registry::global().counter_value("test.ghost"), 0u);
  EXPECT_TRUE(obs::Registry::global().gauges().empty());
  EXPECT_TRUE(obs::Registry::global().histograms().empty());
}

// ---------------------------------------------------------------------------
// JSON round trip

TEST_F(ObsTest, JsonRoundTripValidatesAndPreservesValues) {
  obs::count("test.bytes", 12345);
  obs::gauge_max("test.peak", 42);
  obs::observe("test.hist", 2e-6);
  { const obs::ScopedSpan span("emit/step"); }

  const std::string json = obs::Registry::global().to_json();
  const auto result = obs::validate_stats_json(json);
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.schema, "rmp-obs-v1");

  const auto doc = obs::json_parse(json);
  const auto* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  const auto* bytes = counters->find("test.bytes");
  ASSERT_NE(bytes, nullptr);
  EXPECT_EQ(bytes->number, 12345.0);
  const auto* spans = doc.find("spans");
  ASSERT_NE(spans, nullptr);
  const auto* step = spans->find("emit/step");
  ASSERT_NE(step, nullptr);
  ASSERT_NE(step->find("count"), nullptr);
  EXPECT_EQ(step->find("count")->number, 1.0);
}

TEST_F(ObsTest, ValidatorRejectsMalformedDocuments) {
  EXPECT_FALSE(obs::validate_stats_json("not json at all").ok);
  EXPECT_FALSE(obs::validate_stats_json("{}").ok);
  EXPECT_FALSE(
      obs::validate_stats_json("{\"schema\": \"rmp-unknown-v9\"}").ok);
  // The bench schemas are retired: a bench document is an unknown schema.
  EXPECT_FALSE(obs::validate_stats_json(
                   "{\"schema\": \"rmp-bench-core-v1\", \"scale\": 1}")
                   .ok);
}

// The self-healing counters (rmpd recovery/scrub/dedup/admission) are
// part of the rmp-obs-v1 surface: they must survive a JSON round trip
// and validate, and the validator must reject counter names outside the
// dot-separated token grammar they follow.
TEST_F(ObsTest, SelfHealingCountersRoundTripAndValidate) {
  obs::count("net.dedup.hits", 3);
  obs::count("net.dedup.evictions");
  obs::count("scrub.sections_checked", 128);
  obs::count("scrub.sections_repaired", 2);
  obs::count("scrub.files_quarantined");
  obs::count("admission.bytes_rejected", 1 << 20);

  const std::string json = obs::Registry::global().to_json();
  const auto result = obs::validate_stats_json(json);
  EXPECT_TRUE(result.ok) << result.error;

  const auto doc = obs::json_parse(json);
  const auto* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  for (const auto& [name, value] :
       {std::pair<const char*, double>{"net.dedup.hits", 3.0},
        {"scrub.sections_checked", 128.0},
        {"admission.bytes_rejected", double{1 << 20}}}) {
    const auto* counter = counters->find(name);
    ASSERT_NE(counter, nullptr) << name;
    EXPECT_EQ(counter->number, value) << name;
  }
}

TEST_F(ObsTest, ValidatorRejectsMalformedCounterNames) {
  auto doc_with_counter = [](const std::string& name) {
    return "{\"schema\": \"rmp-obs-v1\", \"counters\": {\"" + name +
           "\": 1}, \"gauges\": {}, \"spans\": {}, \"histograms\": {}}";
  };
  EXPECT_TRUE(obs::validate_stats_json(doc_with_counter("net.dedup.hits")).ok);
  EXPECT_TRUE(
      obs::validate_stats_json(doc_with_counter("scrub.pass_failures")).ok);
  EXPECT_FALSE(obs::validate_stats_json(doc_with_counter("Net.Dedup")).ok);
  EXPECT_FALSE(obs::validate_stats_json(doc_with_counter(".leading")).ok);
  EXPECT_FALSE(obs::validate_stats_json(doc_with_counter("trailing.")).ok);
  EXPECT_FALSE(obs::validate_stats_json(doc_with_counter("twin..dots")).ok);
  EXPECT_FALSE(obs::validate_stats_json(doc_with_counter("has space")).ok);
}

TEST_F(ObsTest, JsonParserRejectsTrailingGarbage) {
  EXPECT_THROW(obs::json_parse("{\"a\": 1} extra"), std::runtime_error);
  EXPECT_THROW(obs::json_parse("{\"a\": }"), std::runtime_error);
  EXPECT_THROW(obs::json_parse(""), std::runtime_error);
}

// Nesting is capped, so a hostile document throws instead of recursing
// the parser off the end of the stack.
TEST_F(ObsTest, JsonParserRejectsDeepNesting) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_NO_THROW(obs::json_parse(nested(64)));
  EXPECT_THROW(obs::json_parse(nested(65)), std::runtime_error);
  EXPECT_THROW(obs::json_parse(std::string(1'000'000, '[')),
               std::runtime_error);
  std::string objects;
  for (int i = 0; i < 100'000; ++i) objects += "{\"a\":";
  EXPECT_THROW(obs::json_parse(objects), std::runtime_error);
  EXPECT_FALSE(obs::validate_stats_json(std::string(1'000'000, '[')).ok);
}

// ---------------------------------------------------------------------------
// Determinism: instrumentation must never change the produced bytes

TEST_F(ObsTest, ArchivesAreByteIdenticalWithStatsOnAndOff) {
  const sim::Field field = make_test_field();
  const auto reduced = compress::make_sz_original();
  const auto delta = compress::make_sz_delta();
  const core::CodecPair pair{reduced.get(), delta.get()};

  auto encode_bytes = [&](const std::string& method) {
    const auto preconditioner = core::make_preconditioner(method);
    core::EncodeStats stats;
    return io::serialize(preconditioner->encode(field, pair, &stats));
  };

  for (const std::string method : {"pca", "one-base", "wavelet"}) {
    obs::set_enabled(true);
    obs::Registry::global().reset();
    const auto with_stats = encode_bytes(method);
    obs::set_enabled(false);
    const auto without_stats = encode_bytes(method);
    obs::set_enabled(true);
    EXPECT_EQ(with_stats, without_stats) << "method " << method;
  }
}

TEST_F(ObsTest, GuardedEncodeRecordsStageSpans) {
  sim::Field field = make_test_field(8);
  field.at(1, 1, 1) = std::nan("");
  const auto reduced = compress::make_sz_original();
  const auto delta = compress::make_sz_delta();
  const core::CodecPair pair{reduced.get(), delta.get()};

  core::GuardOptions options;
  options.method = "pca";
  const auto result = core::guarded_encode(field, pair, options);
  EXPECT_EQ(result.provenance.masked_cells, 1u);

  const auto spans = obs::Registry::global().spans();
  EXPECT_NE(find_span(spans, "audit"), nullptr);
  EXPECT_NE(find_span(spans, "mask"), nullptr);
  EXPECT_NE(find_span(spans, "precondition"), nullptr);
  EXPECT_NE(find_span(spans, "verify"), nullptr);
  EXPECT_EQ(obs::Registry::global().counter_value("guard.masked_cells"), 1u);
}

TEST_F(ObsTest, PipelineRecordsEncodeDecodeSpansAndByteCounters) {
  const sim::Field field = make_test_field();
  const auto reduced = compress::make_sz_original();
  const auto delta = compress::make_sz_delta();
  const core::CodecPair pair{reduced.get(), delta.get()};
  const auto preconditioner = core::make_preconditioner("pca");

  const auto result = core::run_pipeline(*preconditioner, field, pair);
  auto& registry = obs::Registry::global();
  EXPECT_EQ(registry.counter_value("pipeline.encodes"), 1u);
  EXPECT_EQ(registry.counter_value("pipeline.decodes"), 1u);
  EXPECT_EQ(registry.counter_value("pipeline.bytes.original"),
            result.stats.original_bytes);
  EXPECT_EQ(registry.counter_value("pipeline.bytes.compressed"),
            result.stats.total_bytes);

  const auto spans = registry.spans();
  EXPECT_NE(find_span(spans, "pipeline/encode"), nullptr);
  EXPECT_NE(find_span(spans, "pipeline/decode"), nullptr);
  EXPECT_NE(find_span(spans, "pipeline/encode/precondition/pca"), nullptr);
  EXPECT_NE(find_span(
                spans,
                "pipeline/encode/precondition/pca/delta-compress"),
            nullptr);
}

}  // namespace
}  // namespace rmp
