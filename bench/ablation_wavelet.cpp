// Ablation: wavelet threshold theta and 2D-matrix vs full-3D transform.
//
// The paper fixes theta = 5% of the max coefficient and uses the 2D
// standard decomposition; it notes (§V-B.1) that raising theta shrinks
// the sparse matrix but makes the delta less compressible.  This bench
// sweeps the threshold and compares the 3D-transform extension.
#include "bench_common.hpp"

#include "core/wavelet_precond.hpp"
#include "sim/datasets.hpp"

int main(int argc, char** argv) {
  using namespace rmp;
  const double scale = bench::parse_scale(argc, argv);
  bench::print_header("Ablation", "wavelet threshold / transform rank");

  const core::Codecs zfp = core::make_codecs("zfp");
  const auto pair = sim::make_dataset(sim::DatasetId::kHeat3d, scale);

  std::printf("%-10s %-5s %12s %12s %10s %12s\n", "theta", "rank",
              "reduced(B)", "delta(B)", "ratio", "rmse");
  for (double theta : {0.01, 0.02, 0.05, 0.10, 0.20}) {
    for (bool use_3d : {false, true}) {
      core::WaveletPreconditioner preconditioner({theta, use_3d});
      const auto result =
          core::run_pipeline(preconditioner, pair.full, zfp.pair());
      std::printf("%-10.2f %-5s %12zu %12zu %9.2fx %12.3e\n", theta,
                  use_3d ? "3d" : "2d", result.stats.reduced_bytes,
                  result.stats.delta_bytes, result.stats.compression_ratio,
                  result.rmse);
    }
  }
  return 0;
}
