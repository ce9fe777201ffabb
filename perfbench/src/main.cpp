// perfbench: runs one workload of the repository benchmark in this
// process, prints its metrics, then one JSON result line.
//
//   perfbench --workload pca-sz|onebase-zfp|rmpd-mixed --seed N
//             --seconds S --trace 0|1 --work-dir DIR --trace-out FILE
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// Exit status: 0 when every output checked correct; 1 when a check
// failed (the result line still prints) or the run could not finish; 2 on
// bad arguments.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

int usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --work-dir DIR --trace-out FILE\n",
               problem.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Two pool workers, half the 4-core host, for every workload: set
  // before anything can build the shared pool.
  setenv("RMP_THREADS", "2", 1);

  perfbench::RunOptions options;
  if (argc % 2 != 1) return usage("every flag takes one value");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return usage("unknown flag " + flag);
    }
  }
  const bool file_workload =
      options.workload == "pca-sz" || options.workload == "onebase-zfp";
  if (!file_workload && options.workload != "rmpd-mixed")
    return usage("unknown workload '" + options.workload + "'");
  if (!(options.seconds > 0.0) || options.work_dir.empty() ||
      options.trace_out.empty())
    return usage("--seconds, --work-dir and --trace-out are required");

  perfbench::Result result;
  try {
    std::filesystem::create_directories(options.work_dir);
    const std::string self_test =
        perfbench::self_test(options.work_dir / "self-test");
    result = file_workload ? perfbench::run_file_workload(options)
                           : perfbench::run_rmpd_workload(options);
    if (!self_test.empty()) result.fail("self-test: " + self_test);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
  result.attempted = std::max(result.attempted, result.failed);

  std::printf("# workload %s, seed %llu, %g s, trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const std::string& line : result.notes)
    std::printf("# %s\n", line.c_str());
  for (const perfbench::Metric& m : result.metrics)
    std::printf("%-28s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("error_rate %.6g (%llu failed of %llu attempted)\n",
              static_cast<double>(result.failed) /
                  static_cast<double>(std::max<std::uint64_t>(1, result.attempted)),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));

  std::string line = perfbench::format_result(result);
  const std::string why = perfbench::check_round_trip(line, result);
  if (!why.empty()) {
    result.fail("result line: " + why);
    line = perfbench::format_result(result);
  }
  std::printf("%s\n", line.c_str());
  return result.correct ? 0 : 1;
}
