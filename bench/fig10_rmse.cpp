// Fig. 10: RMSE introduced by each method -- direct ZFP/SZ vs the six
// preconditioner x codec conjunctions -- on every dataset.
//
// Paper shape to match: preconditioning yields *higher* RMSE than direct
// compression at the same bounds, because the reduced representation is
// itself lossy and the loss is amplified through the inverse transform;
// Wavelet is worst.
#include "bench_common.hpp"

#include "sim/datasets.hpp"

int main(int argc, char** argv) {
  using namespace rmp;
  const double scale = bench::parse_scale(argc, argv);
  bench::print_header("Fig. 10", "RMSE of direct vs preconditioned");

  const core::Codecs zfp = core::make_codecs("zfp");
  const core::Codecs sz = core::make_codecs("sz");
  struct CodecRow {
    const char* label;
    core::CodecPair pair;
  };
  const CodecRow codecs[] = {{"ZFP", zfp.pair()}, {"SZ", sz.pair()}};
  const char* methods[] = {"identity", "pca", "svd", "wavelet"};

  std::printf("%-14s %-5s %12s %12s %12s %12s\n", "dataset", "codec",
              "direct", "pca", "svd", "wavelet");
  for (sim::DatasetId id : sim::all_datasets()) {
    const auto pair = sim::make_dataset(id, scale);
    for (const auto& codec : codecs) {
      std::printf("%-14s %-5s", pair.name.c_str(), codec.label);
      for (const char* method : methods) {
        const auto preconditioner = core::make_preconditioner(method);
        const auto result =
            core::run_pipeline(*preconditioner, pair.full, codec.pair);
        std::printf(" %12.3e", result.rmse);
      }
      std::printf("\n");
    }
  }
  return 0;
}
