// Extension: cascade preconditioning -- does stripping the dominant
// structure with one method and then preconditioning the residual with
// another beat either alone?  (The paper's "no single best model"
// observation, taken one step further.)
#include "bench_common.hpp"

#include "sim/datasets.hpp"

int main(int argc, char** argv) {
  using namespace rmp;
  const double scale = bench::parse_scale(argc, argv);
  bench::print_header("Extension", "cascade preconditioning");

  const core::Codecs zfp = core::make_codecs("zfp");
  const char* methods[] = {"one-base",      "pca",          "one-base>pca",
                           "one-base>svd",  "pca>wavelet",  "multi-base>pca"};

  std::printf("%-14s %-16s %10s %12s\n", "dataset", "method", "ratio",
              "rmse");
  for (sim::DatasetId id :
       {sim::DatasetId::kHeat3d, sim::DatasetId::kLaplace,
        sim::DatasetId::kAstro}) {
    const auto pair = sim::make_dataset(id, scale);
    for (const char* method : methods) {
      const auto preconditioner = core::make_preconditioner(method);
      const auto result =
          core::run_pipeline(*preconditioner, pair.full, zfp.pair());
      std::printf("%-14s %-16s %9.2fx %12.3e\n",
                  method == methods[0] ? pair.name.c_str() : "", method,
                  result.stats.compression_ratio, result.rmse);
    }
  }
  return 0;
}
