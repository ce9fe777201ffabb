// Lightweight, zero-dependency observability: scoped steady-clock spans
// with thread-safe aggregation, named counters/gauges, log-bucketed
// latency histograms, and a JSON emitter (DESIGN.md §9).
//
// Everything funnels into a process-wide Registry.  Recording is gated by
// a single cached flag (the RMP_OBS environment variable; any value other
// than "0"/"off"/"false" enables it), so a disabled build pays one relaxed
// atomic load per event and never allocates.  Instrumentation observes --
// it must never change the bytes a pipeline produces, and the
// determinism suite asserts archives are byte-identical with RMP_OBS on
// and off.
//
// Span names form a taxonomy: a ScopedSpan nested inside another (on the
// same thread) records under "parent/child", so `rmpc --stats` can show
// e.g. "pipeline/encode/precondition/delta-compress".  Spans started on
// pool workers are roots of their own thread-local stacks.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rmp::obs {

using Clock = std::chrono::steady_clock;

/// Shared timing helpers (the one implementation of the seconds-since
/// pattern that used to be copy-pasted across core/pipeline and
/// core/staging).
inline Clock::time_point now() noexcept { return Clock::now(); }
inline double seconds_since(Clock::time_point start) noexcept {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Global recording gate, cached from RMP_OBS on first use.
bool enabled() noexcept;
/// Override the gate (tests, CLI).  Wins over the environment.
void set_enabled(bool on) noexcept;

// ---------------------------------------------------------------------------
// Snapshots (what the registry hands back / serializes)

struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};

struct SpanSnapshot {
  std::string name;  ///< full "parent/child" path
  std::uint64_t count = 0;
  double total_seconds = 0.0;
  double min_seconds = 0.0;
  double max_seconds = 0.0;
};

/// Histogram over values >= 0 with log2 buckets of microseconds: bucket 0
/// holds values < 1us, bucket b holds [2^(b-1), 2^b) us.  Trailing empty
/// buckets are trimmed when snapshotted.
struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::vector<std::uint64_t> buckets;
};

// ---------------------------------------------------------------------------
// Registry

class Registry {
 public:
  /// The process-wide instance every hot path records into.
  static Registry& global();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  void add_counter(std::string_view name, std::uint64_t delta);
  /// Gauge with max semantics (e.g. peak queue depth).
  void gauge_max(std::string_view name, std::uint64_t value);
  void record_span(std::string_view path, double seconds);
  void observe(std::string_view name, double value);

  std::vector<CounterSnapshot> counters() const;
  std::vector<CounterSnapshot> gauges() const;
  std::vector<SpanSnapshot> spans() const;
  std::vector<HistogramSnapshot> histograms() const;

  std::uint64_t counter_value(std::string_view name) const;

  void reset();

  /// Serialize the whole registry as a "rmp-obs-v1" JSON object
  /// (sorted keys, so output is stable for a given state).
  std::string to_json() const;

 private:
  struct Impl;
  Impl& impl() const;
};

// ---------------------------------------------------------------------------
// Convenience free functions (no-ops when disabled)

void count(std::string_view name, std::uint64_t delta = 1);
void gauge_max(std::string_view name, std::uint64_t value);
void observe(std::string_view name, double value);

/// RAII span.  The timer always runs (elapsed_seconds() is valid even when
/// recording is disabled, so callers can reuse it for their own stats);
/// only the registry write and the path bookkeeping are gated.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  double elapsed_seconds() const noexcept { return seconds_since(start_); }
  /// Full "parent/child" path; empty when recording was disabled at entry.
  const std::string& path() const noexcept { return path_; }

 private:
  Clock::time_point start_;
  std::string path_;
  ScopedSpan* parent_ = nullptr;
  bool active_ = false;
};

// ---------------------------------------------------------------------------
// Minimal JSON (parser + schema validation for the emitted reports)

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;
};

/// Strict-enough parser for the reports this module emits (objects,
/// arrays, strings with \-escapes, numbers, true/false/null).  Throws
/// std::runtime_error with an offset on malformed input, including
/// arrays/objects nested more than 64 deep.
JsonValue json_parse(std::string_view text);

struct ValidationResult {
  bool ok = true;
  std::string error;
  std::string schema;  ///< schema string found in the document
};

/// Validate a parsed document against "rmp-obs-v1", the schema
/// Registry::to_json emits.  Any other schema name fails.
ValidationResult validate_stats_json(const JsonValue& value);

/// Convenience: parse + validate raw text (parse errors land in .error).
ValidationResult validate_stats_json(std::string_view text);

}  // namespace rmp::obs
