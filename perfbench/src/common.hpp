// Pieces both workload kinds share: run options, the paper's codec pairs,
// their timing-decorated twins, input generation helpers and the output
// checks.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "compress/compressor.hpp"
#include "core/preconditioner.hpp"
#include "io/container.hpp"
#include "report.hpp"
#include "sim/field.hpp"
#include "sim/heat.hpp"
#include "trace.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path work_dir;   ///< scratch space for archives/stores
  std::filesystem::path trace_out;  ///< span dump of a traced run
};

/// The paper's codec pair: SZ pw-rel 1e-5 reduced / 1e-3 delta, or ZFP
/// fixed precision 16 reduced / 8 delta.
struct CodecSet {
  std::unique_ptr<rmp::compress::Compressor> reduced;
  std::unique_ptr<rmp::compress::Compressor> delta;
  rmp::core::CodecPair pair() const { return {reduced.get(), delta.get()}; }
};
CodecSet make_codecs(bool sz);

/// `codecs` behind TimedCompressor, recording sz.* or zfp.* spans.
class TimedCodecs {
 public:
  TimedCodecs(const CodecSet& codecs, bool sz);
  rmp::core::CodecPair pair() const { return {&reduced_, &delta_}; }

 private:
  TimedCompressor reduced_;
  TimedCompressor delta_;
};

/// Archives carry parity, as `rmpc compress` and rmpd write them.
rmp::io::SerializeOptions archive_options();

/// Heat3d with the hot blob placed by `seed` inside a narrow band around
/// the dataset registry's off-centre default, so seeds vary the input
/// without changing its character.
rmp::sim::HeatConfig seeded_heat_config(std::uint64_t seed, std::size_t n,
                                        std::size_t steps);

std::vector<std::uint8_t> read_file(const std::filesystem::path& path);
std::uint32_t crc_of(std::span<const double> values);

/// Error of decoded against original data, accumulated over any number
/// of fields, relative to the originals' value range.
class QualityMeter {
 public:
  void add(std::span<const double> original, std::span<const double> decoded);
  double nrmse() const;
  double max_rel_error() const;
  /// |mean(decoded - original)| / range (Fox & Lindstrom's bias).
  double bias() const;

 private:
  double range() const;

  double lo_ = 0.0, hi_ = 0.0;
  double sum_sq_ = 0.0, sum_ = 0.0, max_abs_ = 0.0;
  std::size_t count_ = 0;
};

/// Checks the benchmark's own instruments: archives built through the
/// timing decorators (codecs and FileOps) must be byte-identical to
/// undecorated ones, and the result printer must read back.  Returns an
/// empty string on success, else the problem.
std::string self_test(const std::filesystem::path& dir);

Result run_file_workload(const RunOptions& options);
Result run_rmpd_workload(const RunOptions& options);

}  // namespace perfbench
