// rmpc -- command-line front end for the reduced-model preconditioning
// pipeline.  Operates on raw little-endian float64 arrays, the common
// interchange format for scientific data dumps.
//
// Run `rmpc` without arguments for the synopsis of every command; it is
// generated from the flag table below (tools/flags.hpp holds the parser
// and the daemon flags `rmpc serve` shares with rmpd).
//
// Exit codes (shared with rmpd, locked down in tests/test_cli.cpp):
//   0 success        1 internal error   2 usage error       3 I/O error
//   4 integrity      5 model failure    6 deadline exceeded
//   7 busy/unavailable                  8 protocol error
//   9 server shutting down
//
// `sequence` compresses each input field as one step of a journaled
// multi-step archive (crash-durable: every completed step is fsync'd
// behind a commit marker before the next begins).  `resume` takes the
// same arguments after a crash or fault-aborted run: it validates the
// committed prefix in `<out.rmps>.part`, re-encodes only the missing
// steps, and publishes an archive byte-identical to an uninterrupted run.
// `--seekable` embeds the v4 per-section chunk index in every written
// container, so later readers can address any slab without loading the
// whole archive (DESIGN.md §12); `decompress` on a sequence archive
// decodes either one step (`--step K`, reading only that step's bytes)
// or every step concurrently through the chunk fetcher.
// `--method auto` runs the predictive selector (no trial compression).
// `--guard` routes the compression through the guard layer: pre-flight
// data audit, NaN/Inf masking into a losslessly stored nanmask section,
// post-encode verification, and graceful demotion down to lossless `raw`
// with the reasons recorded in the archive.  `--verify-bound EPS` (implies
// --guard) additionally demotes any model whose pointwise error on finite
// cells exceeds EPS.  `stats` prints the Fig. 1 data characteristics (byte
// entropy / mean / serial correlation) plus a coarse CDF.  `verify` with
// --dims runs the full compress + reconstruct round trip and prints a
// quality report; without --dims it checks an archive's integrity
// (checksums + parity), prints guard provenance when present, and exits
// non-zero when sections are unrecoverable.  `repair` rewrites a
// damaged-but-recoverable archive as a clean v3 file with parity.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "exit_codes.hpp"
#include "flags.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"

#include "compress/factory.hpp"
#include "core/chunk_fetch.hpp"
#include "core/guard.hpp"
#include "core/model_predict.hpp"
#include "core/pipeline.hpp"
#include "core/quality.hpp"
#include "io/container.hpp"
#include "io/container_error.hpp"
#include "io/sequence_file.hpp"
#include "obs/obs.hpp"
#include "stats/metrics.hpp"

namespace {

using namespace rmp;

/// The whole file as an array of T; exits with the I/O status when it
/// cannot be read or does not hold a whole number of elements.
template <typename T>
std::vector<T> read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  if (!file) {
    std::fprintf(stderr, "rmpc: cannot open %s\n", path.c_str());
    std::exit(tools::kExitIo);
  }
  const auto bytes = static_cast<std::size_t>(file.tellg());
  if (bytes % sizeof(T) != 0) {
    std::fprintf(stderr, "rmpc: %s is not a float64 array\n", path.c_str());
    std::exit(tools::kExitIo);
  }
  std::vector<T> data(bytes / sizeof(T));
  file.seekg(0);
  file.read(reinterpret_cast<char*>(data.data()),
            static_cast<std::streamsize>(bytes));
  return data;
}

template <typename T>
void write_file(const std::string& path, std::span<const T> data) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(reinterpret_cast<const char*>(data.data()),
             static_cast<std::streamsize>(data.size_bytes()));
  if (!file) {
    std::fprintf(stderr, "rmpc: cannot write %s\n", path.c_str());
    std::exit(tools::kExitIo);
  }
}

struct Args {
  std::vector<std::string> positional;
  std::optional<tools::Dims> dims;
  std::string method = "pca";
  std::string codec = "sz";
  bool no_parity = false;
  bool best_effort = false;
  bool seekable = false;  ///< --seekable: embed the v4 chunk index
  std::optional<std::uint64_t> step;  ///< --step K: one sequence step
  bool guard = false;
  std::optional<double> verify_bound;
  bool emit_stats = false;
  std::string stats_path;  ///< empty = stdout
  // Client-mode flags (`rmpc client ...`).
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::uint64_t deadline_ms = 0;
  std::string store_name;     ///< --store NAME: durable file on the server
  std::string sequence_name;  ///< --sequence NAME: journaled sequence step
  std::uint64_t retries = 0;  ///< --retries N: client-side retry budget
  std::uint64_t retry_backoff_ms = 50;  ///< --retry-backoff-ms N
  std::uint64_t request_token = 0;      ///< --token T: idempotency token
};

/// Every rmpc flag; each command reads the ones it needs.
std::vector<tools::Flag> rmpc_flags(Args& args) {
  using tools::Flag;
  using tools::store;
  const Flag::Real bound = [&args](double eps) {
    args.verify_bound = eps;
    args.guard = true;
  };
  return {
      {"--dims", "NX[,NY[,NZ]]", Flag::Shape(store(args.dims))},
      {"--method", "NAME", Flag::Text(store(args.method))},
      {"--codec", "sz|zfp", Flag::Text(store(args.codec))},
      {"--no-parity", "", Flag::Switch([&args] { args.no_parity = true; })},
      {"--best-effort", "", Flag::Switch([&args] { args.best_effort = true; })},
      {"--seekable", "", Flag::Switch([&args] { args.seekable = true; })},
      {"--step", "K", Flag::Unsigned(store(args.step))},
      {"--guard", "", Flag::Switch([&args] { args.guard = true; })},
      {"--verify-bound", "EPS", bound},
      {"--error-bound", "EPS", bound},
      {"--stats", "FILE",
       Flag::OptionalValue([&args](std::optional<std::string> path) {
         args.emit_stats = true;
         if (path) args.stats_path = *path;
       })},
      {"--host", "H", Flag::Text(store(args.host))},
      {"--port", "N", Flag::Unsigned(store(args.port)), 1, 65535},
      {"--deadline-ms", "N", Flag::Unsigned(store(args.deadline_ms)), 1},
      {"--store", "NAME", Flag::Text(store(args.store_name))},
      {"--sequence", "NAME", Flag::Text(store(args.sequence_name))},
      {"--retries", "N", Flag::Unsigned(store(args.retries)), 0, 1000},
      {"--retry-backoff-ms", "N",
       Flag::Unsigned(store(args.retry_backoff_ms)), 1},
      {"--token", "T", Flag::Unsigned(store(args.request_token)), 1},
  };
}

/// One usage line: the command, its operands (required flags included)
/// and the optional flags it reads, space-separated.
struct Synopsis {
  std::string_view command, operands, flags;
};

constexpr Synopsis kSynopses[] = {
    {"compress", "<in.f64> <out.rmp> --dims NX[,NY[,NZ]]",
     "--method --codec --no-parity --seekable --guard --verify-bound "
     "--error-bound"},
    {"decompress", "<in.rmp> <out.f64>", "--codec --best-effort --step"},
    {"info", "<in.rmp>", ""},
    {"predict", "<in.f64> --dims NX[,NY[,NZ]]", ""},
    {"stats", "<in.f64> --dims NX[,NY[,NZ]]", ""},
    {"stats", "<report.json>   (schema validation)", ""},
    {"verify", "<in.f64> --dims NX[,NY[,NZ]]", "--method --codec"},
    {"verify", "<in.rmp>", ""},
    {"repair", "<in.rmp> <out.rmp>", "--no-parity"},
    {"sequence", "<in1.f64> [<in2.f64> ...] <out.rmps> --dims NX[,NY[,NZ]]",
     "--method --codec --no-parity --seekable"},
    {"resume", "<in1.f64> [<in2.f64> ...] <out.rmps> --dims NX[,NY[,NZ]]",
     "--method --codec --no-parity --seekable"},
    {"serve", "", ""},  // every daemon flag, as rmpd
    {"client", "ping|stats|scrub --port N", ""},
    {"client", "encode <in.f64> [<out.rmp>] --dims NX[,NY[,NZ]] --port N",
     "--method --codec --guard --error-bound --store --sequence --token"},
    {"client", "decode <in.rmp> <out.f64> --port N", "--codec --best-effort"},
    {"client", "decode <out.f64> --store NAME --port N",
     "--step --codec --best-effort"},
    {"client", "verify <in.rmp> --port N", ""},
};

[[noreturn]] void usage_and_exit() {
  Args unused;
  const auto flags = rmpc_flags(unused);
  net::ServerOptions server_options;
  std::optional<std::filesystem::path> port_file;
  const auto daemon_flags = tools::server_flags(server_options, port_file);
  std::string text = "usage:\n";
  for (const Synopsis& synopsis : kSynopses) {
    text += "  rmpc " + std::string(synopsis.command);
    text.append(10 - synopsis.command.size(), ' ');
    if (!synopsis.operands.empty())
      text += " " + std::string(synopsis.operands);
    if (synopsis.command == "serve") {
      for (const auto& flag : daemon_flags) tools::append_usage(text, flag, 18);
    }
    for (std::string_view names = synopsis.flags; !names.empty();) {
      const std::string_view name = names.substr(0, names.find(' '));
      tools::append_usage(text, *tools::find_flag(flags, name), 18);
      names.remove_prefix(std::min(name.size() + 1, names.size()));
    }
    text += '\n';
  }
  text +=
      "\n"
      "  client actions also take [--host H] [--deadline-ms N] [--retries N]\n"
      "  [--retry-backoff-ms N]; retried encodes get an idempotency token\n"
      "  unless --token T names one.  --stats[=FILE] after any command dumps\n"
      "  the observability counters and spans as JSON (stdout, or FILE).\n"
      "\n"
      "exit codes: 0 ok, 1 internal, 2 usage, 3 I/O, 4 integrity,\n"
      "            5 model, 6 deadline, 7 busy/unavailable, 8 protocol,\n"
      "            9 server shutting down\n";
  std::fputs(text.c_str(), stderr);
  std::exit(tools::kExitUsage);
}

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "rmpc: %s\n", message.c_str());
  usage_and_exit();
}

sim::Field field_from_file(const std::string& path, const tools::Dims& dims) {
  auto data = read_file<double>(path);
  if (data.size() != dims.nx * dims.ny * dims.nz) {
    std::fprintf(stderr,
                 "rmpc: %s holds %zu doubles but --dims says %zux%zux%zu\n",
                 path.c_str(), data.size(), dims.nx, dims.ny, dims.nz);
    std::exit(tools::kExitUsage);
  }
  return sim::Field::from_data(dims.nx, dims.ny, dims.nz, std::move(data));
}

int cmd_compress(const Args& args) {
  if (args.positional.size() != 2 || !args.dims) usage_and_exit();
  const sim::Field field = field_from_file(args.positional[0], *args.dims);
  const core::Codecs codecs = core::make_codecs(args.codec);
  const core::CodecPair pair = codecs.pair();

  std::string method = args.method;
  if (method == "auto") {
    const auto prediction = core::predict_best_model(field);
    method = prediction.method;
    std::printf("auto-selected method: %s (zeros %.2f, affinity %.2f, "
                "pc1 %.2f)\n",
                method.c_str(), prediction.features.zero_fraction,
                prediction.features.mid_plane_affinity,
                prediction.features.pc1_proportion);
  }

  io::SerializeOptions options;
  options.with_parity = !args.no_parity;
  options.with_chunk_index = args.seekable;

  if (args.guard) {
    core::GuardOptions guard_options;
    guard_options.method = method;
    guard_options.error_bound = args.verify_bound;
    const auto result = core::guarded_encode(field, pair, guard_options);
    io::write_container(args.positional[1], result.container, options);
    std::printf("%s: %zu -> %zu bytes (%.2fx) via %s+%s%s (guarded)\n",
                args.positional[1].c_str(), result.stats.original_bytes,
                result.stats.total_bytes, result.stats.compression_ratio,
                result.provenance.actual.c_str(), args.codec.c_str(),
                args.no_parity ? "" : " (+parity)");
    std::fputs(core::format_provenance(result.provenance).c_str(), stdout);
    return 0;
  }

  const auto preconditioner = core::make_preconditioner(method);
  core::EncodeStats stats;
  const auto container = preconditioner->encode(field, pair, &stats);
  io::write_container(args.positional[1], container, options);
  std::printf("%s: %zu -> %zu bytes (%.2fx) via %s+%s%s\n",
              args.positional[1].c_str(), stats.original_bytes,
              stats.total_bytes, stats.compression_ratio, method.c_str(),
              args.codec.c_str(), args.no_parity ? "" : " (+parity)");
  return 0;
}

/// Sequence-archive decompress: `--step K` reads and decodes exactly one
/// step (touching only that step's bytes plus the trailer -- O(step K)
/// I/O); without `--step`, every step is decoded concurrently through
/// the chunk fetcher and the fields are concatenated into the output.
int cmd_decompress_sequence(const Args& args,
                            const io::SequenceReader& reader) {
  const core::Codecs codecs = core::make_codecs(args.codec);
  const core::CodecPair pair = codecs.pair();
  const std::string& out = args.positional[1];

  if (args.step) {
    if (*args.step >= reader.step_count()) {
      std::fprintf(stderr, "rmpc: %s has %zu step(s); --step %llu is out "
                   "of range\n",
                   args.positional[0].c_str(), reader.step_count(),
                   static_cast<unsigned long long>(*args.step));
      std::exit(tools::kExitUsage);
    }
    const auto step = static_cast<std::size_t>(*args.step);
    if (args.best_effort) {
      const auto bytes = reader.read_step_bytes(step);
      const auto result = core::reconstruct_best_effort(
          std::span<const std::uint8_t>(bytes), pair);
      write_file<double>(out, result.field.flat());
      std::printf("%s: step %zu, %zux%zux%zu doubles (%s)\n", out.c_str(),
                  step, result.field.nx(), result.field.ny(),
                  result.field.nz(), result.detail.c_str());
      return 0;
    }
    const io::Container container = reader.read_step(step);
    const sim::Field field = core::reconstruct(container, pair);
    write_file<double>(out, field.flat());
    std::printf("%s: step %zu of %zu, %zux%zux%zu doubles via %s\n",
                out.c_str(), step, reader.step_count(), field.nx(),
                field.ny(), field.nz(), container.method.c_str());
    return 0;
  }

  // Whole-sequence decode: chunk fetcher + thread pool; the decoded
  // fields are concatenated in step order, bit-identical to reading each
  // step serially.
  core::ChunkFetcher fetcher = core::make_sequence_fetcher(reader);
  const auto chunks = core::fetch_all(fetcher);
  std::vector<double> all;
  for (std::size_t step = 0; step < chunks.size(); ++step) {
    const sim::Field field = core::reconstruct(*chunks[step], pair);
    if (step == 0) all.reserve(field.flat().size() * chunks.size());
    all.insert(all.end(), field.flat().begin(), field.flat().end());
  }
  write_file<double>(out, all);
  std::printf("%s: %zu step(s), %zu doubles total\n", out.c_str(),
              chunks.size(), all.size());
  return 0;
}

int cmd_decompress(const Args& args) {
  if (args.positional.size() != 2) usage_and_exit();

  // Sequence archives are detected by their trailing index; anything
  // without one (including plain v2/v3/v4 containers) falls through to
  // the single-container path below.
  bool index_corrupt = false;
  {
    std::optional<io::SequenceReader> reader;
    try {
      reader.emplace(args.positional[0],
                     io::SequenceReadOptions{.allow_index_rebuild = false});
    } catch (const io::ContainerError& error) {
      if (error.code() != io::ContainerErrc::kIndexCorrupt) throw;
      index_corrupt = true;
    }
    if (reader) return cmd_decompress_sequence(args, *reader);
  }
  if (index_corrupt) {
    // An unusable trailer is either a plain container (no trailer at
    // all) or a sequence whose trailer is torn/corrupt.  Rebuild the
    // index and look for sequence evidence the rebuild alone cannot
    // fake on a plain container: more than one step, or a step located
    // via its CRC'd commit marker.  A lone magic-scan step is just the
    // container itself -- fall through so plain archives keep their
    // exact error/usage behavior.
    std::optional<io::SequenceReader> rebuilt;
    try {
      rebuilt.emplace(args.positional[0]);
    } catch (const io::ContainerError&) {
      // No recoverable steps either; let the container path produce its
      // typed error (bad-magic, truncated, ...).
    }
    if (rebuilt &&
        (rebuilt->step_count() > 1 || (rebuilt->step_count() == 1 &&
                                       rebuilt->step_info(0).has_crc))) {
      std::fprintf(stderr,
                   "rmpc: %s: trailing index unusable; rebuilt from step "
                   "markers (%zu step(s) recovered)\n",
                   args.positional[0].c_str(), rebuilt->step_count());
      return cmd_decompress_sequence(args, *rebuilt);
    }
  }
  if (args.step) {
    std::fprintf(stderr,
                 "rmpc: --step only applies to sequence archives\n");
    usage_and_exit();
  }
  const core::Codecs codecs = core::make_codecs(args.codec);
  const core::CodecPair pair = codecs.pair();

  if (args.best_effort) {
    io::ReadReport report;
    const auto container =
        io::read_container_salvage(args.positional[0], &report);
    const auto result = core::reconstruct_best_effort(container, report, pair);
    write_file<double>(args.positional[1], result.field.flat());
    std::printf("%s: %zux%zux%zu doubles via %s (%s)\n",
                args.positional[1].c_str(), result.field.nx(),
                result.field.ny(), result.field.nz(),
                container.method.c_str(), result.detail.c_str());
    return 0;
  }

  const auto container = io::read_container(args.positional[0]);
  const sim::Field field = core::reconstruct(container, pair);
  write_file<double>(args.positional[1], field.flat());
  std::printf("%s: %zux%zux%zu doubles via %s\n", args.positional[1].c_str(),
              field.nx(), field.ny(), field.nz(),
              container.method.c_str());
  return 0;
}

int cmd_info(const Args& args) {
  if (args.positional.size() != 1) usage_and_exit();
  const auto container = io::read_container(args.positional[0]);
  std::printf("method: %s\n", container.method.c_str());
  std::printf("shape:  %llu x %llu x %llu\n",
              static_cast<unsigned long long>(container.nx),
              static_cast<unsigned long long>(container.ny),
              static_cast<unsigned long long>(container.nz));
  std::printf("payload: %zu bytes in %zu sections\n",
              container.payload_bytes(), container.sections.size());
  for (const auto& section : container.sections) {
    std::printf("  %-12s %10zu bytes\n", section.name.c_str(),
                section.bytes.size());
  }
  if (const io::Section* mask = container.find(core::kNanMaskSection)) {
    const auto nanmask = core::nanmask_from_bytes(mask->bytes);
    std::printf("nanmask: %zu nonfinite cell(s) stored losslessly\n",
                nanmask.size());
  }
  if (const auto provenance = core::read_provenance(container)) {
    std::fputs(core::format_provenance(*provenance).c_str(), stdout);
  }
  return 0;
}

/// `rmpc stats <report.json>`: schema-validate an rmp-obs-v1
/// observability report (the `--stats` output).
int cmd_stats_validate(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    std::fprintf(stderr, "rmpc: cannot open %s\n", path.c_str());
    return tools::kExitIo;
  }
  std::ostringstream text;
  text << file.rdbuf();
  const auto result = obs::validate_stats_json(text.str());
  if (!result.ok) {
    std::printf("%s: INVALID (%s)\n", path.c_str(), result.error.c_str());
    return tools::kExitIntegrity;
  }
  std::printf("%s: valid %s\n", path.c_str(), result.schema.c_str());
  return 0;
}

int cmd_stats(const Args& args) {
  if (args.positional.size() != 1) usage_and_exit();
  if (!args.dims) {
    // Without --dims the positional is a JSON report, not a raw field.
    return cmd_stats_validate(args.positional[0]);
  }
  const sim::Field field = field_from_file(args.positional[0], *args.dims);
  const auto c = stats::byte_characteristics(field.flat());
  std::printf("byte entropy:       %.6f\n", c.entropy);
  std::printf("byte mean:          %.6f\n", c.mean);
  std::printf("serial correlation: %.6f\n", c.correlation);
  std::printf("cdf:");
  for (const auto& point : stats::empirical_cdf(field.flat(), 10)) {
    std::printf(" %.4g:%.2f", point.value, point.probability);
  }
  std::printf("\n");
  return 0;
}

/// Archive-integrity verify (`rmpc verify <in.rmp>`, no --dims): checks
/// every checksum, attempts parity repair, and reports per-section state.
int cmd_verify_archive(const Args& args) {
  io::ReadReport report;
  io::Container container;
  try {
    container = io::read_container_salvage(args.positional[0], &report);
  } catch (const io::ContainerError& e) {
    std::printf("%s: UNREADABLE (%s)\n", args.positional[0].c_str(), e.what());
    return tools::kExitIntegrity;
  }
  std::printf("%s: container v%u, parity %s\n", args.positional[0].c_str(),
              report.version,
              !report.parity_present ? "absent"
              : report.parity_valid  ? "present"
                                     : "present (invalid)");
  for (const auto& section : report.sections) {
    std::printf("  %-12s %10llu bytes  %s\n", section.name.c_str(),
                static_cast<unsigned long long>(section.bytes),
                io::to_string(section.state));
  }
  if (const auto provenance = core::read_provenance(container)) {
    std::fputs(core::format_provenance(*provenance).c_str(), stdout);
  }
  if (report.complete()) {
    std::printf(report.repaired() ? "verify: OK (parity repair applied)\n"
                                  : "verify: OK\n");
    return 0;
  }
  std::printf("verify: FAILED (%zu unrecoverable section(s))\n",
              report.damaged().size());
  return tools::kExitIntegrity;
}

int cmd_verify(const Args& args) {
  if (args.positional.size() != 1) usage_and_exit();
  if (!args.dims) return cmd_verify_archive(args);
  const sim::Field field = field_from_file(args.positional[0], *args.dims);
  const core::Codecs codecs = core::make_codecs(args.codec);
  const core::CodecPair pair = codecs.pair();
  const auto preconditioner = core::make_preconditioner(args.method);
  const auto report = core::assess_quality(*preconditioner, field, pair);
  std::fputs(core::format_report(report).c_str(), stdout);
  return 0;
}

/// `rmpc repair <in.rmp> <out.rmp>`: re-write a damaged-but-recoverable
/// archive as a clean v3 container with fresh checksums and parity.
int cmd_repair(const Args& args) {
  if (args.positional.size() != 2) usage_and_exit();
  io::ReadReport report;
  const auto container =
      io::read_container_salvage(args.positional[0], &report);
  if (!report.complete()) {
    std::fprintf(stderr,
                 "rmpc: %s is not recoverable (%zu damaged section(s))\n",
                 args.positional[0].c_str(), report.damaged().size());
    for (const auto& name : report.damaged()) {
      std::fprintf(stderr, "  damaged: %s\n", name.c_str());
    }
    return tools::kExitIntegrity;
  }
  io::SerializeOptions options;
  options.with_parity = !args.no_parity;
  io::write_container(args.positional[1], container, options);
  std::printf("%s: %s -> clean v3 archive%s\n", args.positional[1].c_str(),
              report.repaired() ? "repaired via parity" : "already intact",
              args.no_parity ? "" : " (+parity)");
  return 0;
}

/// `rmpc sequence` (resume_mode=false) / `rmpc resume` (resume_mode=true):
/// one journaled multi-step archive from N raw fields.  Resume picks up a
/// crashed run's journal, validates the committed prefix, and re-encodes
/// only the missing steps; the published archive is byte-identical to an
/// uninterrupted run when invoked with the same inputs and flags.
int cmd_sequence(const Args& args, bool resume_mode) {
  namespace fs = std::filesystem;
  if (args.positional.size() < 2 || !args.dims) usage_and_exit();
  const std::string out = args.positional.back();
  const std::size_t total_steps = args.positional.size() - 1;
  const core::Codecs codecs = core::make_codecs(args.codec);
  const core::CodecPair pair = codecs.pair();
  io::SerializeOptions options;
  options.with_parity = !args.no_parity;
  options.with_chunk_index = args.seekable;

  std::optional<io::SequenceWriter> writer;
  std::size_t committed = 0;
  const fs::path journal = io::sequence_journal_path(out);
  if (resume_mode && fs::exists(journal)) {
    writer.emplace(io::SequenceWriter::resume(out, options));
    committed = writer->steps_written();
    if (committed > total_steps) {
      std::fprintf(stderr,
                   "rmpc: %s already holds %zu committed step(s) but only "
                   "%zu input(s) were given\n",
                   journal.string().c_str(), committed, total_steps);
      return tools::kExitIntegrity;
    }
    std::printf("resume %s: %zu of %zu step(s) already committed\n",
                out.c_str(), committed, total_steps);
  } else if (resume_mode && fs::exists(out)) {
    // No journal: the previous run either finished (archive is complete)
    // or never started.  Completed archives are left untouched.
    io::SequenceReader reader(out);
    if (reader.step_count() == total_steps) {
      std::printf("%s: already complete (%zu step(s)); nothing to resume\n",
                  out.c_str(), total_steps);
      return 0;
    }
    std::fprintf(stderr,
                 "rmpc: %s is a published archive with %zu step(s), not a "
                 "resumable journal for %zu input(s)\n",
                 out.c_str(), reader.step_count(), total_steps);
    return tools::kExitIntegrity;
  } else {
    writer.emplace(out, options);
    if (resume_mode) {
      std::printf("resume %s: no journal found, starting fresh\n",
                  out.c_str());
    }
  }

  std::string method = args.method;
  if (method == "auto") {
    // Pin the selector's choice from the first field so every step of the
    // sequence (and any later resume) uses the same model.
    const std::size_t probe = committed < total_steps ? committed : 0;
    const auto prediction = core::predict_best_model(
        field_from_file(args.positional[probe], *args.dims));
    method = prediction.method;
    std::printf("auto-selected method: %s\n", method.c_str());
  }
  const auto preconditioner = core::make_preconditioner(method);

  std::size_t appended_bytes = 0;
  for (std::size_t step = committed; step < total_steps; ++step) {
    const sim::Field field = field_from_file(args.positional[step], *args.dims);
    core::EncodeStats stats;
    const auto container = preconditioner->encode(field, pair, &stats);
    writer->append(container);
    appended_bytes += stats.total_bytes;
    std::printf("step %zu/%zu: %s -> %zu bytes\n", step + 1, total_steps,
                args.positional[step].c_str(), stats.total_bytes);
  }
  writer->finish();
  std::printf("%s: %zu step(s) via %s+%s%s (%zu resumed, %zu appended, "
              "%zu payload bytes this run)\n",
              out.c_str(), total_steps, method.c_str(), args.codec.c_str(),
              args.no_parity ? "" : " (+parity)", committed,
              total_steps - committed, appended_bytes);
  return 0;
}

int cmd_predict(const Args& args) {
  if (args.positional.size() != 1 || !args.dims) usage_and_exit();
  const sim::Field field = field_from_file(args.positional[0], *args.dims);
  const auto prediction = core::predict_best_model(field);
  std::printf("predicted method: %s\n", prediction.method.c_str());
  std::printf("  zero fraction:      %.4f\n",
              prediction.features.zero_fraction);
  std::printf("  mid-plane affinity: %.4f\n",
              prediction.features.mid_plane_affinity);
  std::printf("  PC1 proportion:     %.4f\n",
              prediction.features.pc1_proportion);
  return 0;
}

/// --stats[=FILE]: dump the process-wide observability registry as JSON
/// once the command has run (stdout, or FILE when given).
void emit_stats(const Args& args) {
  if (!args.emit_stats) return;
  const std::string json = obs::Registry::global().to_json();
  if (args.stats_path.empty()) {
    std::fputs(json.c_str(), stdout);
    std::fputc('\n', stdout);
    return;
  }
  std::ofstream file(args.stats_path, std::ios::binary | std::ios::trunc);
  file << json << '\n';
  if (!file) {
    std::fprintf(stderr, "rmpc: cannot write stats to %s\n",
                 args.stats_path.c_str());
    std::exit(tools::kExitIo);
  }
}

// ---------------------------------------------------------------------------
// rmpd front end: `rmpc serve` and `rmpc client`

/// `rmpc serve [server flags]`: run the rmpd daemon in-process (same code
/// path and flags as the rmpd binary), so a single installed tool covers
/// both ends.
int cmd_serve(const std::vector<std::string>& raw) {
  net::ServerOptions options;
  std::optional<std::filesystem::path> port_file;
  if (const auto error = tools::parse_flags(
          raw, tools::server_flags(options, port_file), nullptr))
    usage_error(*error);
  return net::run_daemon(options, port_file);
}

int cmd_client_encode(const Args& args, net::Client& client) {
  if (args.positional.size() < 2 || !args.dims) usage_and_exit();
  if (!args.store_name.empty() && !args.sequence_name.empty()) {
    std::fprintf(stderr, "rmpc: --store and --sequence are exclusive\n");
    usage_and_exit();
  }
  net::EncodeRequest request;
  request.method = args.method;
  request.codec = args.codec;
  request.guard = args.guard;
  request.request_token = args.request_token;
  request.error_bound = args.verify_bound;
  request.nx = args.dims->nx;
  request.ny = args.dims->ny;
  request.nz = args.dims->nz;
  request.data =
      std::move(field_from_file(args.positional[1], *args.dims).storage());
  if (!args.store_name.empty()) {
    request.store = net::StoreMode::kFile;
    request.store_name = args.store_name;
  } else if (!args.sequence_name.empty()) {
    request.store = net::StoreMode::kSequence;
    request.store_name = args.sequence_name;
  } else if (args.positional.size() != 3) {
    // Inline mode returns container bytes; an output path is required.
    usage_and_exit();
  }

  const auto response = client.encode(request);
  if (response.stored) {
    std::printf("%s: %llu -> %llu bytes via %s (stored on server)\n",
                response.stored_path.c_str(),
                static_cast<unsigned long long>(response.original_bytes),
                static_cast<unsigned long long>(response.stored_bytes),
                response.method.c_str());
    return tools::kExitOk;
  }
  write_file<std::uint8_t>(args.positional[2], response.container);
  std::printf("%s: %llu -> %llu bytes via %s\n", args.positional[2].c_str(),
              static_cast<unsigned long long>(response.original_bytes),
              static_cast<unsigned long long>(response.stored_bytes),
              response.method.c_str());
  return tools::kExitOk;
}

int cmd_client_decode(const Args& args, net::Client& client) {
  net::DecodeRequest request;
  request.codec = args.codec;
  request.best_effort = args.best_effort;
  std::string out;
  if (!args.store_name.empty()) {
    // Server-side store read: the archive stays on the server; only the
    // decoded doubles travel.  `--step K` picks one step of a sequence.
    if (args.positional.size() != 2) usage_and_exit();
    request.store_name = args.store_name;
    request.step = args.step.value_or(0);
    out = args.positional[1];
  } else {
    if (args.positional.size() != 3) usage_and_exit();
    request.container = read_file<std::uint8_t>(args.positional[1]);
    out = args.positional[2];
  }
  const auto response = client.decode(request);
  write_file<double>(out, response.data);
  std::printf("%s: %llux%llux%llu doubles%s%s\n", out.c_str(),
              static_cast<unsigned long long>(response.nx),
              static_cast<unsigned long long>(response.ny),
              static_cast<unsigned long long>(response.nz),
              response.detail.empty() ? "" : " -- ",
              response.detail.c_str());
  return tools::kExitOk;
}

int cmd_client_verify(const Args& args, net::Client& client) {
  if (args.positional.size() != 2) usage_and_exit();
  net::VerifyRequest request;
  request.container = read_file<std::uint8_t>(args.positional[1]);
  const auto response = client.verify(request);
  std::printf("%s: container v%u\n", args.positional[1].c_str(),
              response.version);
  std::fputs(response.detail.c_str(), stdout);
  if (response.complete) {
    std::printf(response.repaired ? "verify: OK (parity repair applied)\n"
                                  : "verify: OK\n");
    return tools::kExitOk;
  }
  std::printf("verify: FAILED\n");
  return tools::kExitIntegrity;
}

int cmd_client_stats(net::Client& client) {
  const auto stats = client.stats();
  std::printf("queue:             %llu / %llu\n",
              static_cast<unsigned long long>(stats.queue_depth),
              static_cast<unsigned long long>(stats.queue_capacity));
  std::printf("accepted:          %llu\n",
              static_cast<unsigned long long>(stats.accepted));
  std::printf("rejected busy:     %llu\n",
              static_cast<unsigned long long>(stats.rejected_busy));
  std::printf("rejected shutdown: %llu\n",
              static_cast<unsigned long long>(stats.rejected_shutdown));
  std::printf("deadline missed:   %llu\n",
              static_cast<unsigned long long>(stats.deadline_missed));
  std::printf("completed:         %llu\n",
              static_cast<unsigned long long>(stats.completed));
  std::printf("failed:            %llu\n",
              static_cast<unsigned long long>(stats.failed));
  std::printf("sessions:          %llu active, %llu total\n",
              static_cast<unsigned long long>(stats.sessions_active),
              static_cast<unsigned long long>(stats.sessions_total));
  std::printf("protocol errors:   %llu\n",
              static_cast<unsigned long long>(stats.protocol_errors));
  std::printf("recovery:          %llu journals resumed, %llu steps, "
              "%llu repaired, %llu quarantined\n",
              static_cast<unsigned long long>(stats.recovery_journals_resumed),
              static_cast<unsigned long long>(stats.recovery_steps_recovered),
              static_cast<unsigned long long>(stats.recovery_files_repaired),
              static_cast<unsigned long long>(
                  stats.recovery_files_quarantined));
  std::printf("scrub:             %llu passes, %llu sections checked, "
              "%llu repaired, %llu quarantined\n",
              static_cast<unsigned long long>(stats.scrub_passes),
              static_cast<unsigned long long>(stats.scrub_sections_checked),
              static_cast<unsigned long long>(stats.scrub_sections_repaired),
              static_cast<unsigned long long>(stats.scrub_quarantined));
  std::printf("dedup window:      %llu entries, %llu hits, %llu evictions\n",
              static_cast<unsigned long long>(stats.dedup_entries),
              static_cast<unsigned long long>(stats.dedup_hits),
              static_cast<unsigned long long>(stats.dedup_evictions));
  if (stats.max_inflight_bytes > 0) {
    std::printf("inflight bytes:    %llu / %llu (%llu rejected)\n",
                static_cast<unsigned long long>(stats.inflight_bytes),
                static_cast<unsigned long long>(stats.max_inflight_bytes),
                static_cast<unsigned long long>(
                    stats.admission_bytes_rejected));
  } else {
    std::printf("inflight bytes:    %llu (unlimited)\n",
                static_cast<unsigned long long>(stats.inflight_bytes));
  }
  std::printf("stalled sessions:  %llu\n",
              static_cast<unsigned long long>(stats.stalled_sessions));
  return tools::kExitOk;
}

/// `rmpc client scrub`: run one on-demand integrity pass over the
/// server's store and report what it checked, repaired, quarantined.
int cmd_client_scrub(net::Client& client) {
  const auto report = client.scrub();
  std::printf("scrub: %llu files, %llu sections checked\n",
              static_cast<unsigned long long>(report.files_checked),
              static_cast<unsigned long long>(report.sections_checked));
  std::printf("scrub: %llu sections repaired, %llu files rewritten, "
              "%llu quarantined\n",
              static_cast<unsigned long long>(report.sections_repaired),
              static_cast<unsigned long long>(report.files_repaired),
              static_cast<unsigned long long>(report.files_quarantined));
  if (!report.detail.empty()) std::fputs(report.detail.c_str(), stdout);
  // Quarantine means data needed hands-on attention; surface that in the
  // exit code so cron-driven scrubs page someone.
  return report.files_quarantined > 0 ? tools::kExitIntegrity
                                      : tools::kExitOk;
}

/// `rmpc client <action> ...`: talk to a running rmpd.  Every typed
/// failure (BUSY, deadline, integrity, ...) surfaces as the documented
/// exit code via tools::exit_code_for.
int cmd_client(const Args& args) {
  if (args.positional.empty()) usage_and_exit();
  const std::string& action = args.positional[0];
  if (args.port == 0) {
    std::fprintf(stderr, "rmpc: client needs --port\n");
    usage_and_exit();
  }
  net::ClientOptions options;
  options.host = args.host;
  options.port = args.port;
  options.deadline = std::chrono::milliseconds(args.deadline_ms);
  options.max_retries = static_cast<std::size_t>(args.retries);
  options.retry_backoff = std::chrono::milliseconds(args.retry_backoff_ms);
  net::Client client(options);
  if (action == "ping") {
    client.ping();
    std::printf("pong\n");
    return tools::kExitOk;
  }
  if (action == "stats") return cmd_client_stats(client);
  if (action == "scrub") return cmd_client_scrub(client);
  if (action == "encode") return cmd_client_encode(args, client);
  if (action == "decode") return cmd_client_decode(args, client);
  if (action == "verify") return cmd_client_verify(args, client);
  usage_and_exit();
}

int run_command(const std::string& command, const Args& args) {
  if (command == "compress") return cmd_compress(args);
  if (command == "decompress") return cmd_decompress(args);
  if (command == "info") return cmd_info(args);
  if (command == "predict") return cmd_predict(args);
  if (command == "stats") return cmd_stats(args);
  if (command == "verify") return cmd_verify(args);
  if (command == "repair") return cmd_repair(args);
  if (command == "sequence") return cmd_sequence(args, /*resume_mode=*/false);
  if (command == "resume") return cmd_sequence(args, /*resume_mode=*/true);
  if (command == "client") return cmd_client(args);
  usage_and_exit();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage_and_exit();
  const std::string command = argv[1];
  const std::vector<std::string> raw(argv + 2, argv + argc);
  try {
    if (command == "serve") return cmd_serve(raw);
    Args args;
    if (const auto error =
            tools::parse_flags(raw, rmpc_flags(args), &args.positional))
      usage_error(*error);
    const int status = run_command(command, args);
    emit_stats(args);
    return status;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rmpc: %s\n", e.what());
    return tools::exit_code_for(e);
  }
}
