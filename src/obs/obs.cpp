#include "obs/obs.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <stdexcept>

namespace rmp::obs {
namespace {

// -1 = not yet resolved from the environment.
std::atomic<int> g_enabled{-1};

bool resolve_enabled_from_env() {
  const char* env = std::getenv("RMP_OBS");
  if (env == nullptr) return true;
  return !(std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0 ||
           std::strcmp(env, "false") == 0);
}

struct SpanStat {
  std::uint64_t count = 0;
  double total = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = 0.0;
};

constexpr std::size_t kHistogramBuckets = 48;  // covers < 1us .. > 4000s

struct HistStat {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = 0.0;
  std::uint64_t buckets[kHistogramBuckets] = {};
};

std::size_t bucket_index(double value) {
  const double us = value * 1e6;
  if (!(us >= 1.0)) return 0;  // also routes NaN to bucket 0
  const auto b = static_cast<std::size_t>(std::log2(us)) + 1;
  return std::min(b, kHistogramBuckets - 1);
}

// Chain of nested spans on this thread, used to build "parent/child"
// paths.  Pool workers start their own chains.
thread_local ScopedSpan* tls_current_span = nullptr;

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_json_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    // JSON has no inf/nan; clamp (min of an empty span/histogram).
    out += "0";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

}  // namespace

bool enabled() noexcept {
  int state = g_enabled.load(std::memory_order_relaxed);
  if (state < 0) {
    state = resolve_enabled_from_env() ? 1 : 0;
    g_enabled.store(state, std::memory_order_relaxed);
  }
  return state != 0;
}

void set_enabled(bool on) noexcept {
  g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Registry

struct Registry::Impl {
  mutable std::mutex mutex;
  // std::map keeps snapshots and JSON in sorted order for free.
  std::map<std::string, std::uint64_t, std::less<>> counters;
  std::map<std::string, std::uint64_t, std::less<>> gauges;
  std::map<std::string, SpanStat, std::less<>> spans;
  std::map<std::string, HistStat, std::less<>> histograms;
};

Registry::Impl& Registry::impl() const {
  static Impl instance;
  return instance;
}

Registry& Registry::global() {
  static Registry registry;
  // Build the shared state now, so it outlives every static constructed
  // after the first call (the thread pool's workers record into it).
  registry.impl();
  return registry;
}

void Registry::add_counter(std::string_view name, std::uint64_t delta) {
  Impl& state = impl();
  std::lock_guard lock(state.mutex);
  auto it = state.counters.find(name);
  if (it == state.counters.end()) {
    state.counters.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

void Registry::gauge_max(std::string_view name, std::uint64_t value) {
  Impl& state = impl();
  std::lock_guard lock(state.mutex);
  auto it = state.gauges.find(name);
  if (it == state.gauges.end()) {
    state.gauges.emplace(std::string(name), value);
  } else {
    it->second = std::max(it->second, value);
  }
}

void Registry::record_span(std::string_view path, double seconds) {
  Impl& state = impl();
  std::lock_guard lock(state.mutex);
  auto it = state.spans.find(path);
  if (it == state.spans.end()) {
    it = state.spans.emplace(std::string(path), SpanStat{}).first;
  }
  SpanStat& stat = it->second;
  ++stat.count;
  stat.total += seconds;
  stat.min = std::min(stat.min, seconds);
  stat.max = std::max(stat.max, seconds);
}

void Registry::observe(std::string_view name, double value) {
  Impl& state = impl();
  std::lock_guard lock(state.mutex);
  auto it = state.histograms.find(name);
  if (it == state.histograms.end()) {
    it = state.histograms.emplace(std::string(name), HistStat{}).first;
  }
  HistStat& stat = it->second;
  ++stat.count;
  stat.sum += value;
  stat.min = std::min(stat.min, value);
  stat.max = std::max(stat.max, value);
  ++stat.buckets[bucket_index(value)];
}

std::vector<CounterSnapshot> Registry::counters() const {
  Impl& state = impl();
  std::lock_guard lock(state.mutex);
  std::vector<CounterSnapshot> out;
  out.reserve(state.counters.size());
  for (const auto& [name, value] : state.counters) out.push_back({name, value});
  return out;
}

std::vector<CounterSnapshot> Registry::gauges() const {
  Impl& state = impl();
  std::lock_guard lock(state.mutex);
  std::vector<CounterSnapshot> out;
  out.reserve(state.gauges.size());
  for (const auto& [name, value] : state.gauges) out.push_back({name, value});
  return out;
}

std::vector<SpanSnapshot> Registry::spans() const {
  Impl& state = impl();
  std::lock_guard lock(state.mutex);
  std::vector<SpanSnapshot> out;
  out.reserve(state.spans.size());
  for (const auto& [name, stat] : state.spans) {
    out.push_back({name, stat.count, stat.total,
                   stat.count > 0 ? stat.min : 0.0, stat.max});
  }
  return out;
}

std::vector<HistogramSnapshot> Registry::histograms() const {
  Impl& state = impl();
  std::lock_guard lock(state.mutex);
  std::vector<HistogramSnapshot> out;
  out.reserve(state.histograms.size());
  for (const auto& [name, stat] : state.histograms) {
    HistogramSnapshot snap;
    snap.name = name;
    snap.count = stat.count;
    snap.sum = stat.sum;
    snap.min = stat.count > 0 ? stat.min : 0.0;
    snap.max = stat.max;
    std::size_t last = kHistogramBuckets;
    while (last > 0 && stat.buckets[last - 1] == 0) --last;
    snap.buckets.assign(stat.buckets, stat.buckets + last);
    out.push_back(std::move(snap));
  }
  return out;
}

std::uint64_t Registry::counter_value(std::string_view name) const {
  Impl& state = impl();
  std::lock_guard lock(state.mutex);
  const auto it = state.counters.find(name);
  return it == state.counters.end() ? 0 : it->second;
}

void Registry::reset() {
  Impl& state = impl();
  std::lock_guard lock(state.mutex);
  state.counters.clear();
  state.gauges.clear();
  state.spans.clear();
  state.histograms.clear();
}

std::string Registry::to_json() const {
  // Snapshot first so the lock is not held while building the string.
  const auto counter_snaps = counters();
  const auto gauge_snaps = gauges();
  const auto span_snaps = spans();
  const auto hist_snaps = histograms();

  std::string out = "{\n  \"schema\": \"rmp-obs-v1\",\n  \"counters\": {";
  for (std::size_t i = 0; i < counter_snaps.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    append_json_string(out, counter_snaps[i].name);
    out += ": " + std::to_string(counter_snaps[i].value);
  }
  out += "\n  },\n  \"gauges\": {";
  for (std::size_t i = 0; i < gauge_snaps.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    append_json_string(out, gauge_snaps[i].name);
    out += ": " + std::to_string(gauge_snaps[i].value);
  }
  out += "\n  },\n  \"spans\": {";
  for (std::size_t i = 0; i < span_snaps.size(); ++i) {
    const SpanSnapshot& s = span_snaps[i];
    out += i == 0 ? "\n    " : ",\n    ";
    append_json_string(out, s.name);
    out += ": {\"count\": " + std::to_string(s.count) + ", \"total_seconds\": ";
    append_json_number(out, s.total_seconds);
    out += ", \"min_seconds\": ";
    append_json_number(out, s.min_seconds);
    out += ", \"max_seconds\": ";
    append_json_number(out, s.max_seconds);
    out += "}";
  }
  out += "\n  },\n  \"histograms\": {";
  for (std::size_t i = 0; i < hist_snaps.size(); ++i) {
    const HistogramSnapshot& h = hist_snaps[i];
    out += i == 0 ? "\n    " : ",\n    ";
    append_json_string(out, h.name);
    out += ": {\"count\": " + std::to_string(h.count) + ", \"sum\": ";
    append_json_number(out, h.sum);
    out += ", \"min\": ";
    append_json_number(out, h.min);
    out += ", \"max\": ";
    append_json_number(out, h.max);
    out += ", \"buckets\": [";
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (b > 0) out += ", ";
      out += std::to_string(h.buckets[b]);
    }
    out += "]}";
  }
  out += "\n  }\n}\n";
  return out;
}

// ---------------------------------------------------------------------------
// Free functions

void count(std::string_view name, std::uint64_t delta) {
  if (enabled()) Registry::global().add_counter(name, delta);
}

void gauge_max(std::string_view name, std::uint64_t value) {
  if (enabled()) Registry::global().gauge_max(name, value);
}

void observe(std::string_view name, double value) {
  if (enabled()) Registry::global().observe(name, value);
}

ScopedSpan::ScopedSpan(std::string_view name) : start_(now()) {
  if (!enabled()) return;
  active_ = true;
  parent_ = tls_current_span;
  if (parent_ != nullptr && !parent_->path_.empty()) {
    path_.reserve(parent_->path_.size() + 1 + name.size());
    path_ = parent_->path_;
    path_ += '/';
    path_ += name;
  } else {
    path_ = std::string(name);
  }
  tls_current_span = this;
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  tls_current_span = parent_;
  // set_enabled(false) mid-span: drop the record, never half-record.
  if (enabled()) Registry::global().record_span(path_, elapsed_seconds());
}

// ---------------------------------------------------------------------------
// JSON parser

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error("json: " + what + " at offset " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      if (++depth_ > kMaxDepth) {
        fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
      }
      JsonValue v = c == '{' ? parse_object() : parse_array();
      --depth_;
      return v;
    }
    if (c == '"') {
      JsonValue v;
      v.type = JsonValue::Type::kString;
      v.string = parse_string();
      return v;
    }
    if (consume_literal("true")) {
      JsonValue v;
      v.type = JsonValue::Type::kBool;
      v.boolean = true;
      return v;
    }
    if (consume_literal("false")) {
      JsonValue v;
      v.type = JsonValue::Type::kBool;
      return v;
    }
    if (consume_literal("null")) return JsonValue{};
    return parse_number();
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape digit");
            }
          }
          // The reports only emit control characters this way; anything in
          // the BMP is decoded as (up to 3-byte) UTF-8.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double parsed = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      pos_ = start;
      fail("malformed number");
    }
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    v.number = parsed;
    return v;
  }

  // The reports nest 4 deep.  The cap keeps a hostile document (a
  // megabyte of '[') from recursing the parser off the end of the stack.
  static constexpr int kMaxDepth = 64;

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

JsonValue json_parse(std::string_view text) {
  return JsonParser(text).parse();
}

// ---------------------------------------------------------------------------
// Schema validation

namespace {

bool require(bool ok, const std::string& what, ValidationResult* result) {
  if (!ok && result->ok) {
    result->ok = false;
    result->error = what;
  }
  return ok;
}

bool is_number_object_map(const JsonValue& v) {
  if (v.type != JsonValue::Type::kObject) return false;
  return std::all_of(v.object.begin(), v.object.end(), [](const auto& kv) {
    return kv.second.type == JsonValue::Type::kNumber && kv.second.number >= 0;
  });
}

// Counter/gauge names are dot-separated lowercase tokens
// ("net.dedup.hits", "scrub.sections_repaired",
// "admission.bytes_rejected").  The dashboards key on exact names, so a
// report that smuggles in arbitrary strings fails validation instead of
// silently charting nothing.
bool is_metric_name(std::string_view name) {
  if (name.empty() || name.front() == '.' || name.back() == '.') return false;
  bool prev_dot = false;
  for (const char c : name) {
    if (c == '.') {
      if (prev_dot) return false;
      prev_dot = true;
      continue;
    }
    prev_dot = false;
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

bool all_metric_names(const JsonValue& v) {
  return std::all_of(v.object.begin(), v.object.end(), [](const auto& kv) {
    return is_metric_name(kv.first);
  });
}

bool has_number(const JsonValue& v, std::string_view key) {
  const JsonValue* member = v.find(key);
  return member != nullptr && member->type == JsonValue::Type::kNumber;
}

void validate_obs_v1(const JsonValue& v, ValidationResult* result) {
  const JsonValue* counters = v.find("counters");
  if (require(counters != nullptr && is_number_object_map(*counters),
              "\"counters\" must be an object of non-negative numbers",
              result)) {
    require(all_metric_names(*counters),
            "counter names must be dot-separated [a-z0-9_-] tokens "
            "(e.g. \"net.dedup.hits\", \"scrub.sections_repaired\", "
            "\"admission.bytes_rejected\")",
            result);
  }
  const JsonValue* gauges = v.find("gauges");
  if (require(gauges != nullptr && is_number_object_map(*gauges),
              "\"gauges\" must be an object of non-negative numbers",
              result)) {
    require(all_metric_names(*gauges),
            "gauge names must be dot-separated [a-z0-9_-] tokens", result);
  }

  const JsonValue* spans = v.find("spans");
  if (require(spans != nullptr && spans->type == JsonValue::Type::kObject,
              "\"spans\" must be an object", result)) {
    for (const auto& [name, span] : spans->object) {
      require(has_number(span, "count") && has_number(span, "total_seconds") &&
                  has_number(span, "min_seconds") &&
                  has_number(span, "max_seconds"),
              "span \"" + name +
                  "\" needs numeric count/total_seconds/min_seconds/"
                  "max_seconds",
              result);
    }
  }

  const JsonValue* histograms = v.find("histograms");
  if (require(histograms != nullptr &&
                  histograms->type == JsonValue::Type::kObject,
              "\"histograms\" must be an object", result)) {
    for (const auto& [name, hist] : histograms->object) {
      require(has_number(hist, "count") && has_number(hist, "sum") &&
                  has_number(hist, "min") && has_number(hist, "max"),
              "histogram \"" + name + "\" needs numeric count/sum/min/max",
              result);
      const JsonValue* buckets = hist.find("buckets");
      require(buckets != nullptr && buckets->type == JsonValue::Type::kArray &&
                  std::all_of(buckets->array.begin(), buckets->array.end(),
                              [](const JsonValue& b) {
                                return b.type == JsonValue::Type::kNumber &&
                                       b.number >= 0;
                              }),
              "histogram \"" + name + "\" needs a numeric \"buckets\" array",
              result);
    }
  }
}

}  // namespace

ValidationResult validate_stats_json(const JsonValue& value) {
  ValidationResult result;
  if (!require(value.type == JsonValue::Type::kObject,
               "document root must be an object", &result)) {
    return result;
  }
  const JsonValue* schema = value.find("schema");
  if (!require(schema != nullptr && schema->type == JsonValue::Type::kString,
               "\"schema\" string member is required", &result)) {
    return result;
  }
  result.schema = schema->string;
  if (require(schema->string == "rmp-obs-v1",
              "unknown schema \"" + schema->string + "\"", &result)) {
    validate_obs_v1(value, &result);
  }
  return result;
}

ValidationResult validate_stats_json(std::string_view text) {
  try {
    return validate_stats_json(json_parse(text));
  } catch (const std::exception& e) {
    ValidationResult result;
    result.ok = false;
    result.error = e.what();
    return result;
  }
}

}  // namespace rmp::obs
