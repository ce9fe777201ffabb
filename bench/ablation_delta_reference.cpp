// Ablation: what the delta is computed against.
//
// The paper computes the delta against the *clean* rank-k reconstruction
// and then lossily compresses both parts -- which is why Fig. 10 shows
// preconditioning amplifying RMSE.  Computing the delta against the
// *decoded* reduced representation instead cancels that loss at decode
// time.  This bench quantifies the trade on every dataset.
#include "bench_common.hpp"

#include "core/pca.hpp"
#include "core/svd_precond.hpp"
#include "sim/datasets.hpp"

int main(int argc, char** argv) {
  using namespace rmp;
  const double scale = bench::parse_scale(argc, argv);
  bench::print_header("Ablation", "delta vs clean / decoded reduced rep");

  const core::Codecs zfp = core::make_codecs("zfp");
  std::printf("%-14s %-6s %12s %10s %12s %10s\n", "dataset", "method",
              "rmse(clean)", "ratio", "rmse(dec)", "ratio");
  for (sim::DatasetId id : sim::all_datasets()) {
    const auto pair = sim::make_dataset(id, scale);

    core::PcaPreconditioner pca_clean({0.95, false});
    core::PcaPreconditioner pca_decoded({0.95, true});
    const auto rc = core::run_pipeline(pca_clean, pair.full, zfp.pair());
    const auto rd = core::run_pipeline(pca_decoded, pair.full, zfp.pair());
    std::printf("%-14s %-6s %12.3e %9.2fx %12.3e %9.2fx\n",
                pair.name.c_str(), "pca", rc.rmse,
                rc.stats.compression_ratio, rd.rmse,
                rd.stats.compression_ratio);

    core::SvdPreconditioner svd_clean({0.95, false});
    core::SvdPreconditioner svd_decoded({0.95, true});
    const auto sc = core::run_pipeline(svd_clean, pair.full, zfp.pair());
    const auto sd = core::run_pipeline(svd_decoded, pair.full, zfp.pair());
    std::printf("%-14s %-6s %12.3e %9.2fx %12.3e %9.2fx\n", "", "svd",
                sc.rmse, sc.stats.compression_ratio, sd.rmse,
                sd.stats.compression_ratio);
  }
  return 0;
}
