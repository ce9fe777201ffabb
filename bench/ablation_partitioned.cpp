// Ablation: partitioned PCA (paper future work #1) -- partition count vs
// encode time, ratio and error.  More partitions cut the per-block score
// computation and adapt k locally, at the cost of storing more bases.
#include "bench_common.hpp"

#include <chrono>

#include "core/blocked.hpp"
#include "core/pca.hpp"
#include "sim/datasets.hpp"

int main(int argc, char** argv) {
  using namespace rmp;
  const double scale = bench::parse_scale(argc, argv);
  bench::print_header("Ablation", "partitioned PCA partition sweep");

  const core::Codecs zfp = core::make_codecs("zfp");
  const auto pair = sim::make_dataset(sim::DatasetId::kHeat3d, scale);

  std::printf("%-12s %10s %12s %10s %12s\n", "partitions", "encode(s)",
              "reduced(B)", "ratio", "rmse");

  // Whole-matrix PCA is the partitions = 1 reference point.
  {
    core::PcaPreconditioner pca;
    const auto result = core::run_pipeline(pca, pair.full, zfp.pair());
    std::printf("%-12s %10.4f %12zu %9.2fx %12.3e\n", "pca(whole)",
                result.encode_seconds, result.stats.reduced_bytes,
                result.stats.compression_ratio, result.rmse);
  }
  for (std::size_t partitions : {1u, 2u, 4u, 8u, 16u}) {
    core::BlockedPreconditioner preconditioner("pca", partitions);
    const auto result =
        core::run_pipeline(preconditioner, pair.full, zfp.pair());
    std::printf("%-12zu %10.4f %12zu %9.2fx %12.3e\n", partitions,
                result.encode_seconds, result.stats.reduced_bytes,
                result.stats.compression_ratio, result.rmse);
  }

  // The generic blocked wrapper extends partitioning to the other
  // reduced methods ("implement the proposed reduced methods in
  // partitioned matrix", §VII).
  std::printf("\n%-16s %10s %12s %10s %12s\n", "blocked method",
              "encode(s)", "reduced(B)", "ratio", "rmse");
  for (const char* method :
       {"blocked-svd", "blocked-wavelet", "blocked-tucker"}) {
    const auto preconditioner = core::make_preconditioner(method);
    const auto result =
        core::run_pipeline(*preconditioner, pair.full, zfp.pair());
    std::printf("%-16s %10.4f %12zu %9.2fx %12.3e\n", method,
                result.encode_seconds, result.stats.reduced_bytes,
                result.stats.compression_ratio, result.rmse);
  }
  return 0;
}
