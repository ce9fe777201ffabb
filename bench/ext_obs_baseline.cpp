// ext_obs_baseline -- unified bench baseline over dataset x preconditioner
// x codec, emitted as JSON: a "schema"/"scale" header and one "runs" row
// per combo.  CI runs this, compares the result against the checked-in
// snapshot at the repo root with bench/bench_gate.py, and uploads it as
// the BENCH_core artifact.
//
//   ext_obs_baseline [scale] [out.json]
//
// Default scale comes from RMP_BENCH_SCALE or 0.4; default output is
// BENCH_core.json in the working directory.  Each combo runs
// RMP_BENCH_REPS times (default 3) and reports the fastest
// encode/decode pair, so the gated throughput numbers are not hostage
// to one scheduler hiccup; ratio/rmse are identical across reps.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sim/datasets.hpp"

namespace {

using namespace rmp;

double finite_or_zero(double v) { return std::isfinite(v) ? v : 0.0; }

void append_number(std::string& out, double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", finite_or_zero(v));
  out += buffer;
}

struct Run {
  std::string dataset, method, codec;
  core::PipelineResult result;
};

void append_run(std::string& out, const Run& run) {
  out += "    {\"dataset\": \"" + run.dataset + "\", \"method\": \"" +
         run.method + "\", \"codec\": \"" + run.codec + "\", ";
  out += "\"ratio\": ";
  append_number(out, run.result.stats.compression_ratio);
  out += ", \"rmse\": ";
  append_number(out, run.result.rmse);
  out += ", \"max_error\": ";
  append_number(out, run.result.max_error);
  out += ", \"encode_seconds\": ";
  append_number(out, run.result.encode_seconds);
  out += ", \"decode_seconds\": ";
  append_number(out, run.result.decode_seconds);
  out += ", \"original_bytes\": ";
  append_number(out, static_cast<double>(run.result.stats.original_bytes));
  out += ", \"compressed_bytes\": ";
  append_number(out, static_cast<double>(run.result.stats.total_bytes));
  out += "}";
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = bench::parse_scale(argc, argv, 0.4);
  const std::string out_path = argc > 2 ? argv[2] : "BENCH_core.json";

  const std::vector<sim::DatasetId> datasets = {
      sim::DatasetId::kHeat3d, sim::DatasetId::kSedovPres,
      sim::DatasetId::kYf17Temp};
  const std::vector<std::string> methods = {"identity", "one-base", "pca",
                                            "wavelet"};

  const core::Codecs sz = core::make_codecs("sz");
  const core::Codecs zfp = core::make_codecs("zfp");
  const std::vector<std::pair<std::string, core::CodecPair>> codecs = {
      {"sz", sz.pair()}, {"zfp", zfp.pair()}};

  bench::print_header("ext_obs_baseline", "dataset x method x codec sweep");
  std::vector<Run> runs;
  for (const auto id : datasets) {
    const auto dataset = sim::make_dataset(id, scale);
    for (const auto& method : methods) {
      const auto preconditioner = core::make_preconditioner(method);
      for (const auto& [codec_name, pair] : codecs) {
        Run run;
        run.dataset = dataset.name;
        run.method = method;
        run.codec = codec_name;
        run.result = core::run_pipeline(*preconditioner, dataset.full, pair);
        int reps = 3;
        if (const char* env = std::getenv("RMP_BENCH_REPS")) {
          reps = std::max(1, std::atoi(env));
        }
        for (int rep = 1; rep < reps; ++rep) {
          auto again = core::run_pipeline(*preconditioner, dataset.full, pair);
          run.result.encode_seconds =
              std::min(run.result.encode_seconds, again.encode_seconds);
          run.result.decode_seconds =
              std::min(run.result.decode_seconds, again.decode_seconds);
        }
        std::printf("%-12s %-10s %-4s ratio %8.2f  rmse %10.3e  enc %7.4fs  "
                    "dec %7.4fs\n",
                    run.dataset.c_str(), method.c_str(), codec_name.c_str(),
                    run.result.stats.compression_ratio, run.result.rmse,
                    run.result.encode_seconds, run.result.decode_seconds);
        runs.push_back(std::move(run));
      }
    }
  }

  std::string json = "{\n  \"schema\": \"rmp-bench-core-v1\",\n  \"scale\": ";
  append_number(json, scale);
  json += ",\n  \"runs\": [\n";
  for (std::size_t r = 0; r < runs.size(); ++r) {
    append_run(json, runs[r]);
    json += r + 1 < runs.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";

  std::FILE* file = std::fopen(out_path.c_str(), "wb");
  if (file == nullptr) {
    std::fprintf(stderr, "ext_obs_baseline: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), file);
  std::fclose(file);
  std::printf("wrote %s (%zu runs)\n", out_path.c_str(), runs.size());
  return 0;
}
