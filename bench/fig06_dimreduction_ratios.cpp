// Fig. 6: compression ratios of PCA/SVD/Wavelet preconditioning (x ZFP
// and SZ) vs compressing each of the nine datasets directly.
//
// Paper shape to match: PCA and SVD lift Heat3d, Laplace, Wave, Astro and
// Sedov_pres substantially; Fish *loses* under all three preconditioners
// (its exact zeros become less-compressible near-zero deltas); Wavelet's
// improvement is marginal because its reduced representation is large.
#include "bench_common.hpp"

#include "sim/datasets.hpp"

int main(int argc, char** argv) {
  using namespace rmp;
  const double scale = bench::parse_scale(argc, argv);
  bench::print_header("Fig. 6",
                      "dimension-reduction preconditioning, 9 datasets");

  const core::Codecs zfp = core::make_codecs("zfp");
  const core::Codecs sz = core::make_codecs("sz");
  struct CodecRow {
    const char* label;
    core::CodecPair pair;
  };
  const CodecRow codecs[] = {{"ZFP", zfp.pair()}, {"SZ", sz.pair()}};
  const char* methods[] = {"identity", "pca", "svd", "wavelet"};

  std::printf("%-14s %-5s %10s %10s %10s %10s\n", "dataset", "codec",
              "direct", "pca", "svd", "wavelet");
  for (sim::DatasetId id : sim::all_datasets()) {
    const auto pair = sim::make_dataset(id, scale);
    for (const auto& codec : codecs) {
      std::printf("%-14s %-5s", pair.name.c_str(), codec.label);
      for (const char* method : methods) {
        const auto preconditioner = core::make_preconditioner(method);
        core::EncodeStats stats;
        preconditioner->encode(pair.full, codec.pair, &stats);
        std::printf(" %9.2fx", stats.compression_ratio);
      }
      std::printf("\n");
    }
  }
  return 0;
}
