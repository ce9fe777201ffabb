// ext_seek_decode -- seekable-archive decode bench (DESIGN.md §12).
//
// Builds a v4 sequence archive (per-section chunk index + CRC'd
// sequence trailer) of N encoded steps, then measures
//   1. whole-sequence parallel chunked decode across a thread sweep
//      (ChunkFetcher + fetch_all on a ScopedPoolOverride pool), with the
//      decoded fields verified identical to the single-thread run, and
//   2. random access to one step, reporting the bytes actually read --
//      the O(step K) seek property the chunk index buys.
//
// Exits non-zero when any thread count or the single-step read decodes
// fields that differ from the single-thread sweep run.
//
//   ext_seek_decode [scale]
//
// Default scale comes from RMP_BENCH_SCALE or 0.4.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/chunk_fetch.hpp"
#include "io/sequence_file.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/datasets.hpp"

using namespace rmp;

int main(int argc, char** argv) {
  const double scale = bench::parse_scale(argc, argv, 0.4);
  constexpr std::size_t kSteps = 12;

  obs::set_enabled(true);
  bench::print_header("ext_seek_decode",
                      "seekable v4 archive: parallel chunked decode sweep");

  const auto dataset = sim::make_dataset(sim::DatasetId::kHeat3d, scale);
  const core::Codecs sz = core::make_codecs("sz");
  const core::CodecPair pair = sz.pair();
  const auto preconditioner = core::make_preconditioner("pca");

  // Encode kSteps drifted copies of the field into a seekable archive.
  const std::filesystem::path archive =
      std::filesystem::temp_directory_path() / "ext_seek_decode.rmps";
  std::filesystem::remove(archive);
  std::filesystem::remove(io::sequence_journal_path(archive));
  io::SerializeOptions options;
  options.with_chunk_index = true;
  std::size_t original_bytes_per_step = 0;
  {
    io::SequenceWriter writer(archive, options);
    for (std::size_t step = 0; step < kSteps; ++step) {
      std::vector<double> drifted(dataset.full.flat().begin(),
                                  dataset.full.flat().end());
      const double factor = 1.0 + 0.01 * static_cast<double>(step);
      for (double& v : drifted) v *= factor;
      original_bytes_per_step = drifted.size() * sizeof(double);
      const sim::Field field = sim::Field::from_data(
          dataset.full.nx(), dataset.full.ny(), dataset.full.nz(),
          std::move(drifted));
      writer.append(preconditioner->encode(field, pair));
    }
    writer.finish();
  }
  const double total_bytes =
      static_cast<double>(original_bytes_per_step * kSteps);

  // Thread sweep: decode all steps through the chunk fetcher, verifying
  // each run reproduces the single-thread fields exactly.
  std::vector<std::vector<double>> reference;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    parallel::ThreadPool pool(threads);
    parallel::ScopedPoolOverride override_pool(pool);
    const io::SequenceReader reader(archive);
    core::ChunkFetcher fetcher = core::make_sequence_fetcher(reader);

    const auto start = obs::now();
    const auto chunks = core::fetch_all(fetcher);
    std::vector<std::vector<double>> fields(chunks.size());
    for (std::size_t step = 0; step < chunks.size(); ++step) {
      fields[step] = core::reconstruct(*chunks[step], pair).storage();
    }
    const double seconds = obs::seconds_since(start);

    if (reference.empty()) {
      reference = std::move(fields);
    } else if (fields != reference) {
      std::fprintf(stderr,
                   "ext_seek_decode: %zu-thread decode diverged from the "
                   "single-thread result\n",
                   threads);
      return 1;
    }
    std::printf("threads %2zu  decode %8.4fs  %8.2f MB/s\n", threads, seconds,
                total_bytes / seconds / 1e6);
  }

  // Random access: one step, counting the bytes the reader touches.
  const std::size_t probe_step = kSteps / 2;
  const io::SequenceReader reader(archive);
  const std::uint64_t bytes_before =
      obs::Registry::global().counter_value("io.sequence.bytes_read");
  const auto seek_start = obs::now();
  const io::Container step_container = reader.read_step(probe_step);
  const sim::Field step_field = core::reconstruct(step_container, pair);
  const double seek_seconds = obs::seconds_since(seek_start);
  const std::uint64_t bytes_read =
      obs::Registry::global().counter_value("io.sequence.bytes_read") -
      bytes_before;
  std::printf("step %zu alone: %8.4fs, %llu archive bytes read "
              "(%.1f%% of the file)\n",
              probe_step, seek_seconds,
              static_cast<unsigned long long>(bytes_read),
              100.0 * static_cast<double>(bytes_read) /
                  static_cast<double>(std::filesystem::file_size(archive)));
  if (step_field.storage() != reference[probe_step]) {
    std::fprintf(stderr,
                 "ext_seek_decode: seek decode diverged from the sweep\n");
    return 1;
  }

  std::filesystem::remove(archive);
  return 0;
}
