// Extension: Tucker (HOSVD) preconditioning vs the paper's PCA/SVD on
// all nine datasets -- the tensor-native direction the related work
// (Austin et al.) points at.  Reports ratio, reduced-representation size
// and RMSE under ZFP.
#include "bench_common.hpp"

#include "core/tucker.hpp"
#include "sim/datasets.hpp"

int main(int argc, char** argv) {
  using namespace rmp;
  const double scale = bench::parse_scale(argc, argv);
  bench::print_header("Extension", "Tucker (HOSVD) vs PCA/SVD");

  const core::Codecs zfp = core::make_codecs("zfp");
  const char* methods[] = {"identity", "pca", "svd", "tucker"};

  std::printf("%-14s %-9s %10s %12s %12s\n", "dataset", "method", "ratio",
              "reduced(B)", "rmse");
  for (sim::DatasetId id : sim::all_datasets()) {
    const auto pair = sim::make_dataset(id, scale);
    for (const char* method : methods) {
      const auto preconditioner = core::make_preconditioner(method);
      const auto result =
          core::run_pipeline(*preconditioner, pair.full, zfp.pair());
      std::printf("%-14s %-9s %9.2fx %12zu %12.3e\n",
                  method == methods[0] ? pair.name.c_str() : "", method,
                  result.stats.compression_ratio, result.stats.reduced_bytes,
                  result.rmse);
    }
  }
  return 0;
}
