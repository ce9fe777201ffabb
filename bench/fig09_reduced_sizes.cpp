// Fig. 9: size of the reduced representation produced by PCA, SVD and
// Wavelet on each dataset.
//
// Paper shape to match: Wavelet's reduced representation (the thresholded
// sparse coefficient matrix) is much larger than PCA's and SVD's, which
// is why its end-to-end improvement is marginal.
#include "bench_common.hpp"

#include "sim/datasets.hpp"

int main(int argc, char** argv) {
  using namespace rmp;
  const double scale = bench::parse_scale(argc, argv);
  bench::print_header("Fig. 9", "reduced representation size (bytes)");

  const core::Codecs zfp = core::make_codecs("zfp");
  const char* methods[] = {"pca", "svd", "wavelet"};

  std::printf("%-14s %12s %12s %12s %12s\n", "dataset", "original", "pca",
              "svd", "wavelet");
  for (sim::DatasetId id : sim::all_datasets()) {
    const auto pair = sim::make_dataset(id, scale);
    std::printf("%-14s %12zu", pair.name.c_str(),
                pair.full.size() * sizeof(double));
    for (const char* method : methods) {
      const auto preconditioner = core::make_preconditioner(method);
      core::EncodeStats stats;
      preconditioner->encode(pair.full, zfp.pair(), &stats);
      std::printf(" %12zu", stats.reduced_bytes);
    }
    std::printf("\n");
  }
  return 0;
}
