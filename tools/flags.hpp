// Table-driven command-line flags shared by rmpc, `rmpc serve` and rmpd.
// Each row names a flag, the placeholder usage text shows for its value,
// and its kind as the type of the setter that receives the parsed value.
// Both "--flag value" and "--flag=value" are accepted; values parse
// strictly (the whole string, no sign, no trailing bytes), so a malformed
// number is a usage error, never an uncaught exception.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "net/server.hpp"

namespace rmp::tools {

/// A field shape: "NX[,NY[,NZ]]" with every component positive.
struct Dims {
  std::size_t nx = 0, ny = 1, nz = 1;
};

inline constexpr std::uint64_t kNoMax =
    std::numeric_limits<std::uint64_t>::max();

struct Flag {
  using Switch = std::function<void()>;
  /// A switch that may carry "=VALUE" (it never takes the next token).
  using OptionalValue = std::function<void(std::optional<std::string>)>;
  using Text = std::function<void(std::string)>;
  using Real = std::function<void(double)>;  ///< finite and >= 0
  using Unsigned = std::function<void(std::uint64_t)>;  ///< in [min, max]
  using Shape = std::function<void(Dims)>;

  std::string_view name;
  std::string_view metavar;  ///< value placeholder in usage text
  std::variant<Switch, OptionalValue, Text, Real, Unsigned, Shape> set;
  std::uint64_t min = 0, max = kNoMax;
};

/// Setter that stores the parsed value into `field`.
template <typename T>
auto store(T& field) {
  return [&field](auto value) { field = static_cast<T>(std::move(value)); };
}

/// The whole of `text` as a decimal integer in [min, max].
inline std::optional<std::uint64_t> parse_unsigned(std::string_view text,
                                                   std::uint64_t min,
                                                   std::uint64_t max) {
  std::uint64_t value = 0;
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (text.empty() || error != std::errc() ||
      end != text.data() + text.size() || value < min || value > max)
    return std::nullopt;
  return value;
}

/// The whole of `text` as a finite double >= 0.
inline std::optional<double> parse_double(std::string_view text) {
  double value = 0;
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (text.empty() || error != std::errc() ||
      end != text.data() + text.size() || !std::isfinite(value) ||
      !(value >= 0.0))
    return std::nullopt;
  return value;
}

/// "NX[,NY[,NZ]]" with one to three positive components.
inline std::optional<Dims> parse_dims(std::string_view text) {
  std::size_t extents[3] = {0, 1, 1};
  for (std::size_t i = 0;; ++i) {
    const std::size_t comma = text.find(',');
    const auto extent = parse_unsigned(text.substr(0, comma), 1, kNoMax);
    if (i == 3 || !extent) return std::nullopt;
    extents[i] = *extent;
    if (comma == std::string_view::npos) break;
    text.remove_prefix(comma + 1);
  }
  return Dims{extents[0], extents[1], extents[2]};
}

/// The row of `table` named `name`, or null.
inline const Flag* find_flag(std::span<const Flag> table,
                             std::string_view name) {
  const auto it = std::find_if(table.begin(), table.end(),
                               [&](const Flag& f) { return f.name == name; });
  return it == table.end() ? nullptr : &*it;
}

/// Parses `args` against `table`.  Tokens that do not start with "--"
/// go to `positional`, or are an error when it is null.  Returns the
/// message for the first malformed flag, or nullopt.
inline std::optional<std::string> parse_flags(
    std::span<const std::string> args, std::span<const Flag> table,
    std::vector<std::string>* positional) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string name = args[i];
    if (!name.starts_with("--")) {
      if (positional == nullptr)
        return "unexpected argument '" + name + "'";
      positional->push_back(name);
      continue;
    }
    std::optional<std::string> value;
    if (const std::size_t eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name.resize(eq);
    }
    const Flag* flag = find_flag(table, name);
    if (flag == nullptr) return "unknown flag '" + name + "'";
    if (const auto* set = std::get_if<Flag::Switch>(&flag->set)) {
      if (value) return name + " does not take a value";
      (*set)();
      continue;
    }
    if (const auto* set = std::get_if<Flag::OptionalValue>(&flag->set)) {
      (*set)(std::move(value));
      continue;
    }
    if (!value) {
      if (i + 1 >= args.size()) return name + " needs a value";
      value = args[++i];
    }
    const auto invalid = [&](const std::string& expected) {
      return "invalid value for " + name + ": \"" + *value + "\" (expected " +
             expected + ")";
    };
    if (const auto* set_text = std::get_if<Flag::Text>(&flag->set)) {
      (*set_text)(std::move(*value));
    } else if (const auto* set_real = std::get_if<Flag::Real>(&flag->set)) {
      const auto number = parse_double(*value);
      if (!number) return invalid("a non-negative finite number");
      (*set_real)(*number);
    } else if (const auto* set_count =
                   std::get_if<Flag::Unsigned>(&flag->set)) {
      const auto number = parse_unsigned(*value, flag->min, flag->max);
      if (!number)
        return invalid(flag->max == kNoMax
                           ? "an integer >= " + std::to_string(flag->min)
                           : "an integer in [" + std::to_string(flag->min) +
                                 ", " + std::to_string(flag->max) + "]");
      (*set_count)(*number);
    } else {
      const auto dims = parse_dims(*value);
      if (!dims) return invalid("NX[,NY[,NZ]] with positive integers");
      std::get<Flag::Shape>(flag->set)(*dims);
    }
  }
  return std::nullopt;
}

/// Appends " [--name METAVAR]" to usage text, first wrapping onto a new
/// line indented by `indent` spaces when the item would pass column 78.
inline void append_usage(std::string& out, const Flag& flag,
                         std::size_t indent) {
  std::string item = " [" + std::string(flag.name);
  if (std::holds_alternative<Flag::OptionalValue>(flag.set))
    item += "[=" + std::string(flag.metavar) + "]";
  else if (!flag.metavar.empty())
    item += " " + std::string(flag.metavar);
  item += "]";
  const std::size_t line_start = out.rfind('\n') + 1;
  if (out.size() - line_start + item.size() > 78)
    out += "\n" + std::string(indent - 1, ' ');
  out += item;
}

/// The daemon flags, shared by rmpd and `rmpc serve`.
inline std::vector<Flag> server_flags(
    net::ServerOptions& options,
    std::optional<std::filesystem::path>& port_file) {
  using U = Flag::Unsigned;
  return {
      {"--port", "N", U(store(options.port)), 0, 65535},
      {"--bind", "ADDR", Flag::Text(store(options.bind_address))},
      {"--queue", "N", U(store(options.queue_capacity)), 0, 1u << 20},
      {"--workers", "N", U(store(options.workers)), 0, 1024},
      {"--max-sessions", "N", U(store(options.max_sessions)), 0, 1u << 20},
      {"--output-dir", "DIR", Flag::Text(store(options.output_dir))},
      {"--no-parity", "", Flag::Switch([&] { options.with_parity = false; })},
      {"--staging-queue", "N", U(store(options.staging_queue)), 0, 1u << 20},
      {"--port-file", "PATH", Flag::Text(store(port_file))},
      {"--debug-stall-ms", "N", U(store(options.debug_stall)), 0, 600'000},
      {"--max-bytes", "N", U(store(options.max_inflight_bytes)), 0,
       std::uint64_t{1} << 40},
      {"--read-timeout-ms", "N", U(store(options.read_stall_timeout)), 0,
       86'400'000},
      {"--dedup-window", "N", U(store(options.dedup_window)), 0, 1u << 24},
      {"--scrub-interval-ms", "N", U(store(options.scrub_interval)), 0,
       86'400'000},
      {"--no-recover", "",
       Flag::Switch([&] { options.recover_on_start = false; })},
  };
}

}  // namespace rmp::tools
