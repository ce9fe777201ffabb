// The run's result object, the metric tables both modes print from, and
// the small statistics the workloads share.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports.  `attempted` and `failed` count operations; a
/// failed correctness check counts as a failed operation.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed above the result line.
  std::vector<std::string> notes;

  void note(std::string line) { notes.push_back(std::move(line)); }
  /// Records a failed check: the run is incorrect, one more op failed.
  void fail(const std::string& what);
};

using Values = std::map<std::string, double>;

/// Appends every end-to-end metric, in table order, from `values`; a
/// missing or non-finite value fails the run.
void emit_end_to_end(Result& result, const Values& values);

/// Appends every per-layer metric, in table order.  A layer `values` does
/// not name did no work in this workload and reports 0.
void emit_per_layer(Result& result, const Values& values);

/// The result as one JSON line with the keys correct, attempted, failed
/// and metrics.  Values print with 17 significant digits.
std::string format_result(const Result& result);

/// Parses `line` back and checks it carries exactly `result`; returns an
/// empty string on success, else what differed.
std::string check_round_trip(const std::string& line, const Result& result);

double median(std::vector<double> values);
/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> values, double q);

/// The op time the throughput metrics divide by: the fast quartile (p25)
/// of a run's op times.  The host's cores run at two speeds that shift
/// from run to run (a busy neighbour slows a core ~40%), so op times split
/// into two modes and a median flips between them; the fast quartile
/// stays in the fast mode as long as one core in four is free.
double typical_op_s(const std::vector<double>& seconds);

/// "<kind> ms p10 .., p25 .., p50 .., p75 .., p90 ..": the op-time
/// distribution behind the metrics, as a note line.
std::string quantile_note(const std::string& kind,
                          const std::vector<double>& seconds);

/// Peak resident set of this process in MB (getrusage max RSS).
double peak_rss_mb();

}  // namespace perfbench
