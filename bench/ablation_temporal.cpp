// Ablation: temporal preconditioning (spatiotemporal extension) --
// keyframe interval vs total bytes and worst-case error, compared to
// independent per-snapshot compression.
#include "bench_common.hpp"

#include "core/identity.hpp"
#include "core/temporal.hpp"
#include "sim/datasets.hpp"
#include "stats/metrics.hpp"

int main(int argc, char** argv) {
  using namespace rmp;
  const double scale = bench::parse_scale(argc, argv);
  bench::print_header("Ablation", "temporal keyframe interval sweep");

  const core::Codecs zfp = core::make_codecs("zfp");
  const auto snapshots = sim::make_snapshots(sim::DatasetId::kHeat3d, 12, scale);
  const std::size_t raw_bytes =
      snapshots.size() * snapshots.front().size() * sizeof(double);

  std::size_t independent = 0;
  core::IdentityPreconditioner identity;
  for (const auto& snapshot : snapshots) {
    core::EncodeStats stats;
    identity.encode(snapshot, zfp.pair(), &stats);
    independent += stats.total_bytes;
  }
  std::printf("%-16s %12s %10s %12s\n", "scheme", "bytes", "ratio",
              "worst rmse");
  std::printf("%-16s %12zu %9.2fx %12s\n", "independent", independent,
              static_cast<double>(raw_bytes) /
                  static_cast<double>(independent),
              "-");

  for (std::size_t interval : {0u, 2u, 4u, 6u}) {
    core::TemporalOptions options;
    options.keyframe_interval = interval;
    const auto sequence =
        core::temporal_encode(snapshots, zfp.pair(), options);
    const auto decoded = core::temporal_decode(sequence, zfp.pair());
    double worst = 0.0;
    for (std::size_t s = 0; s < snapshots.size(); ++s) {
      worst = std::max(worst,
                       stats::rmse(snapshots[s].flat(), decoded[s].flat()));
    }
    std::printf("key-every-%-6zu %12zu %9.2fx %12.3e\n",
                interval == 0 ? snapshots.size() : interval,
                sequence.total_bytes(),
                static_cast<double>(raw_bytes) /
                    static_cast<double>(sequence.total_bytes()),
                worst);
  }
  return 0;
}
