// Table IV: end-to-end compression + I/O time.  Compression throughput
// and ratios are *measured* on this machine's codecs (Heat3d field), then
// projected onto the paper's scenario (64 writers x 16.7 GB) through the
// storage/staging model.
//
// Calibration (documented in DESIGN.md): a single core here is far slower
// than a Titan node, so running the model at Titan's absolute file-system
// bandwidth would make every synchronous pipeline lose to the baseline.
// What Table IV is really about is the *balance* between compression
// throughput and I/O bandwidth; we preserve that balance by scaling the
// modeled bandwidths by the measured-vs-paper ZFP slowdown.  Per-method
// compression times and ratios remain this machine's measurements, so the
// crossovers (ZFP/SZ win, PCA ~ baseline, staging wins big) are
// reproduced, not hard-coded.
//
// Paper shape to match: ZFP/SZ+I/O beat the no-compression baseline;
// PCA's synchronous compression overhead cancels its I/O win (total ~
// baseline); staging collapses the total to the interconnect transfer.
#include "bench_common.hpp"

#include "io/storage_model.hpp"
#include "sim/heat.hpp"

int main(int argc, char** argv) {
  using namespace rmp;
  const double scale = bench::parse_scale(argc, argv);
  bench::print_header("Table IV", "compression and I/O time (projected)");

  sim::HeatConfig config;
  config.n = std::max<std::size_t>(24, static_cast<std::size_t>(48 * scale));
  config.steps = 300;
  const sim::Field field = sim::heat3d_run(config);
  const double field_bytes = static_cast<double>(field.size()) * 8.0;

  const core::Codecs zfp = core::make_codecs("zfp");
  const core::Codecs sz = core::make_codecs("sz");

  struct Measured {
    double seconds_per_byte;
    double ratio;
  };
  auto measure = [&](const char* method, const core::CodecPair& codecs) {
    const auto preconditioner = core::make_preconditioner(method);
    const auto result = core::run_pipeline(*preconditioner, field, codecs);
    return Measured{result.encode_seconds / field_bytes,
                    result.stats.compression_ratio};
  };

  const Measured zfp_direct = measure("identity", zfp.pair());
  const Measured sz_direct = measure("identity", sz.pair());
  const Measured pca_zfp = measure("pca", zfp.pair());
  const Measured pca_sz = measure("pca", sz.pair());

  // Calibrate: scale the modeled bandwidths by how much slower this
  // machine's ZFP is than the paper's (12.09 s for 16.7 GB per writer).
  io::EndToEndScenario scenario;
  const double projected_zfp_seconds =
      zfp_direct.seconds_per_byte * scenario.bytes_per_writer;
  const double slowdown = projected_zfp_seconds / 12.09;
  scenario.storage.filesystem_bandwidth =
      (static_cast<double>(scenario.writers) * scenario.bytes_per_writer /
       52.48) /
      slowdown;
  scenario.storage.interconnect_bandwidth =
      (static_cast<double>(scenario.writers) * scenario.bytes_per_writer /
       13.17) /
      slowdown;
  scenario.storage.write_latency = 0.05 * slowdown;
  std::printf("# calibration: measured ZFP %.1f MB/s per writer; times below"
              " are in Titan-balanced units (x%.1f wall seconds here)\n",
              1.0 / zfp_direct.seconds_per_byte / 1e6, slowdown);

  // Report in paper-equivalent seconds (divide the slowdown back out) so
  // the rows are directly comparable to Table IV.
  auto print_row = [&](const io::EndToEndRow& row, bool has_comp) {
    if (has_comp) {
      std::printf("%-38s %14.2f %10.2f %12.2f\n", row.method.c_str(),
                  row.compression_time / slowdown, row.io_time / slowdown,
                  row.total_time / slowdown);
    } else {
      std::printf("%-38s %14s %10.2f %12.2f\n", row.method.c_str(), "N/A",
                  row.io_time / slowdown, row.total_time / slowdown);
    }
  };

  std::printf("%-38s %14s %10s %12s\n", "Method", "Compression(s)",
              "I/O(s)", "Total(s)");
  print_row(io::make_baseline_row(scenario), false);
  print_row(io::make_row(scenario, "ZFP+I/O",
                         zfp_direct.seconds_per_byte * scenario.bytes_per_writer,
                         zfp_direct.ratio),
            true);
  print_row(io::make_row(scenario, "SZ+I/O",
                         sz_direct.seconds_per_byte * scenario.bytes_per_writer,
                         sz_direct.ratio),
            true);
  print_row(io::make_row(scenario, "PCA(ZFP)+I/O",
                         pca_zfp.seconds_per_byte * scenario.bytes_per_writer,
                         pca_zfp.ratio),
            true);
  print_row(io::make_row(scenario, "PCA(SZ)+I/O",
                         pca_sz.seconds_per_byte * scenario.bytes_per_writer,
                         pca_sz.ratio),
            true);
  print_row(io::make_staging_row(scenario, "Staging+PCA+I/O"), false);
  return 0;
}
