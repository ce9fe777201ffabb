#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <utility>

#include "obs/obs.hpp"

namespace perfbench {
namespace {

using Table = std::vector<std::pair<const char*, const char*>>;

// These tables and BENCHMARK.json list the same names and units; run.py
// refuses a result whose names differ from the file's.
const Table& end_to_end_table() {
  static const Table table = {
      {"encode_mb_s", "MB/s"},   {"decode_mb_s", "MB/s"},
      {"req_s", "req/s"},        {"ratio", "x"},
      {"nrmse", "fraction"},     {"max_rel_error", "fraction"},
      {"setup_s", "s"},          {"peak_rss_mb", "MB"},
  };
  return table;
}

const Table& per_layer_table() {
  static const Table table = {
      {"sz.compress_ms", "ms"},
      {"sz.decompress_ms", "ms"},
      {"sz.bytes_out", "bytes"},
      {"zfp.compress_ms", "ms"},
      {"zfp.decompress_ms", "ms"},
      {"zfp.bytes_out", "bytes"},
      {"core.encode_self_ms", "ms"},
      {"core.decode_self_ms", "ms"},
      {"la.covariance_ms", "ms"},
      {"la.eigen_ms", "ms"},
      {"container.serialize_ms", "ms"},
      {"container.deserialize_ms", "ms"},
      {"file.write_ms", "ms"},
      {"file.read_ms", "ms"},
      {"fs.fsync_count", "count"},
      {"fs.fsync_ms", "ms"},
      {"fs.write_bytes", "bytes"},
      {"fs.pread_bytes", "bytes"},
      {"net.request_encode_ms", "ms"},
      {"net.frame_ms", "ms"},
      {"net.response_decode_ms", "ms"},
      {"net.server_other_ms", "ms"},
      {"server.queue_peak", "count"},
      {"server.rejected_busy", "count"},
      {"server.failed", "count"},
      {"chunk.hit_ratio", "fraction"},
      {"chunk.prefetch_wasted", "count"},
      {"trace.explained_frac_encode", "fraction"},
      {"trace.explained_frac_decode", "fraction"},
      {"trace.overhead_frac", "fraction"},
      // Signed mean error is near zero for SZ and swings with the seed, so
      // it has no steady bound; it is reported here, not end to end.
      {"quality.bias", "fraction"},
  };
  return table;
}

void emit(Result& result, const Table& table, const Values& values,
          bool missing_is_zero) {
  for (const auto& [name, unit] : table) {
    const auto it = values.find(name);
    double value = 0.0;
    if (it != values.end()) {
      value = it->second;
    } else if (!missing_is_zero) {
      result.fail(std::string("metric ") + name + " was not measured");
    }
    if (!std::isfinite(value)) {
      result.fail(std::string("metric ") + name + " is not finite");
      value = 0.0;
    }
    result.metrics.push_back({name, value, unit});
  }
}

std::string number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

void Result::fail(const std::string& what) {
  correct = false;
  ++failed;
  notes.push_back("FAIL: " + what);
}

void emit_end_to_end(Result& result, const Values& values) {
  emit(result, end_to_end_table(), values, /*missing_is_zero=*/false);
}

void emit_per_layer(Result& result, const Values& values) {
  emit(result, per_layer_table(), values, /*missing_is_zero=*/true);
}

std::string format_result(const Result& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

std::string check_round_trip(const std::string& line, const Result& result) {
  using rmp::obs::JsonValue;
  try {
    const JsonValue doc = rmp::obs::json_parse(line);
    const JsonValue* correct = doc.find("correct");
    if (correct == nullptr || correct->type != JsonValue::Type::kBool ||
        correct->boolean != result.correct)
      return "\"correct\" did not read back";
    const JsonValue* attempted = doc.find("attempted");
    const JsonValue* failed = doc.find("failed");
    if (attempted == nullptr ||
        attempted->number != static_cast<double>(result.attempted) ||
        failed == nullptr ||
        failed->number != static_cast<double>(result.failed))
      return "op counts did not read back";
    const JsonValue* metrics = doc.find("metrics");
    if (metrics == nullptr || metrics->type != JsonValue::Type::kObject ||
        metrics->object.size() != result.metrics.size())
      return "metric count did not read back";
    for (const Metric& m : result.metrics) {
      const JsonValue* entry = metrics->find(m.name);
      const JsonValue* value = entry ? entry->find("value") : nullptr;
      const JsonValue* unit = entry ? entry->find("unit") : nullptr;
      if (value == nullptr || value->type != JsonValue::Type::kNumber ||
          value->number != m.value)
        return "value of " + m.name + " did not read back";
      if (unit == nullptr || unit->string != m.unit)
        return "unit of " + m.name + " did not read back";
    }
  } catch (const std::exception& error) {
    return error.what();
  }
  return {};
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double typical_op_s(const std::vector<double>& seconds) {
  return percentile(seconds, 0.25);
}

std::string quantile_note(const std::string& kind,
                          const std::vector<double>& seconds) {
  char line[160];
  std::snprintf(line, sizeof line,
                "%s ms p10 %.1f, p25 %.1f, p50 %.1f, p75 %.1f, p90 %.1f",
                kind.c_str(), 1e3 * percentile(seconds, 0.1),
                1e3 * percentile(seconds, 0.25), 1e3 * median(seconds),
                1e3 * percentile(seconds, 0.75), 1e3 * percentile(seconds, 0.9));
  return line;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
