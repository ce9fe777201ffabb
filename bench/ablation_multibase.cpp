// Ablation: multi-base slab count.
//
// More slabs capture local structure (better delta) but store more
// reference planes -- §IV-B's explanation for why multi-base does not
// dominate one-base.  The sweep makes the trade-off explicit.
#include "bench_common.hpp"

#include "core/projection.hpp"
#include "sim/datasets.hpp"

int main(int argc, char** argv) {
  using namespace rmp;
  const double scale = bench::parse_scale(argc, argv);
  bench::print_header("Ablation", "multi-base slab count sweep");

  const core::Codecs zfp = core::make_codecs("zfp");
  const auto pair = sim::make_dataset(sim::DatasetId::kHeat3d, scale);

  std::printf("%-8s %12s %12s %10s %12s\n", "slabs", "reduced(B)",
              "delta(B)", "ratio", "rmse");
  for (std::size_t slabs : {1u, 2u, 4u, 8u, 16u}) {
    core::MultiBasePreconditioner preconditioner(slabs);
    const auto result =
        core::run_pipeline(preconditioner, pair.full, zfp.pair());
    std::printf("%-8zu %12zu %12zu %9.2fx %12.3e\n", slabs,
                result.stats.reduced_bytes, result.stats.delta_bytes,
                result.stats.compression_ratio, result.rmse);
  }
  return 0;
}
