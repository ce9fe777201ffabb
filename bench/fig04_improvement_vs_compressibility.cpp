// Fig. 4: compression-ratio improvement from the one-base reduced model
// vs the compressibility of the original data (captured by the ZFP ratio
// of direct compression), over 20 outputs each of Heat3d and Laplace.
//
// Paper shape to match: improvement grows with compressibility -- the
// more compressible the original, the more one-base helps.
#include "bench_common.hpp"

#include "core/identity.hpp"
#include "core/projection.hpp"
#include "sim/datasets.hpp"

int main(int argc, char** argv) {
  using namespace rmp;
  const double scale = bench::parse_scale(argc, argv);
  bench::print_header("Fig. 4",
                      "one-base improvement vs original compressibility");

  const core::Codecs zfp = core::make_codecs("zfp");
  core::IdentityPreconditioner original;
  core::OneBasePreconditioner one_base;

  std::printf("%-10s %6s %14s %14s %12s\n", "dataset", "output",
              "zfp-direct", "zfp+one-base", "improvement");
  for (sim::DatasetId id : {sim::DatasetId::kHeat3d, sim::DatasetId::kLaplace}) {
    const auto snapshots = sim::make_snapshots(id, 20, scale);
    for (std::size_t s = 0; s < snapshots.size(); ++s) {
      core::EncodeStats direct, preconditioned;
      original.encode(snapshots[s], zfp.pair(), &direct);
      one_base.encode(snapshots[s], zfp.pair(), &preconditioned);
      std::printf("%-10s %6zu %13.2fx %13.2fx %11.2fx\n",
                  sim::dataset_name(id).c_str(), s + 1,
                  direct.compression_ratio, preconditioned.compression_ratio,
                  preconditioned.compression_ratio /
                      direct.compression_ratio);
    }
  }
  return 0;
}
