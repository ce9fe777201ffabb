// pca-sz and onebase-zfp: the paper's two headline pipelines run file to
// file, closed loop, one op at a time -- what `rmpc compress` and `rmpc
// decompress` do, in-process.  An encode op is the preconditioner encode
// plus the durable write_container (parity on); a decode op is
// read_container plus core::reconstruct.
#include <pthread.h>
#include <sched.h>

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common.hpp"
#include "core/pipeline.hpp"
#include "core/reshape.hpp"
#include "io/checksum.hpp"
#include "la/covariance.hpp"
#include "la/eigen.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/synthetic.hpp"

namespace perfbench {
namespace {

namespace core = rmp::core;
namespace io = rmp::io;
namespace fs = std::filesystem;
using rmp::sim::Field;

// Astro 128^3 doubles = 16.8 MB: a pca-sz op runs for a few hundred
// milliseconds, long against timer and scheduler noise.
constexpr std::size_t kAstroN = 128;
// Heat3d 64^3 doubles = 2.1 MB: a onebase-zfp op runs for ~10 ms, so a
// run holds thousands of ops and its fast quartile is tight.  At 128^3 a
// run held ~60 ZFP ops of 65-115 ms, split by core speed, and their
// quartiles moved 30% between runs.
constexpr std::size_t kHeatN = 64;
constexpr std::size_t kHeatSteps = 400;
constexpr std::size_t kPoolThreads = 2;  // half of the 4-core host
constexpr int kSetupReps = 5;
constexpr std::size_t kMinPairs = 5;
constexpr double kRotateEveryS = 0.2;

Field make_field(bool pca_sz, std::uint64_t seed) {
  if (pca_sz) {
    rmp::sim::AstroConfig config;
    config.n = kAstroN;
    config.seed = static_cast<unsigned>(seed ^ (seed >> 32));
    return rmp::sim::astro_velocity_field(config);
  }
  return rmp::sim::heat3d_run(seeded_heat_config(seed, kHeatN, kHeatSteps));
}

/// What set-up builds: the pinned pool, the codecs, the preconditioner.
/// `route` is declared after `pool`, so it is destroyed first.
struct Session {
  std::unique_ptr<rmp::parallel::ThreadPool> pool;
  std::unique_ptr<rmp::parallel::ScopedPoolOverride> route;
  CodecSet codecs;
  std::unique_ptr<core::Preconditioner> preconditioner;
};

std::unique_ptr<Session> make_session(bool pca_sz) {
  auto session = std::make_unique<Session>();
  session->pool = std::make_unique<rmp::parallel::ThreadPool>(kPoolThreads);
  session->route =
      std::make_unique<rmp::parallel::ScopedPoolOverride>(*session->pool);
  session->codecs = make_codecs(pca_sz);
  session->preconditioner =
      core::make_preconditioner(pca_sz ? "pca" : "one-base");
  return session;
}

io::Container encode_op(const Session& session, const core::CodecPair& codecs,
                        const Field& field, const fs::path& archive,
                        double* seconds) {
  io::Container container;
  const auto start = Clock::now();
  {
    const TraceSpan op("op.encode");
    {
      const TraceSpan span("core.encode");
      container = session.preconditioner->encode(field, codecs);
    }
    const TraceSpan span("io.write_container");
    io::write_container(archive, container, archive_options());
  }
  *seconds = seconds_between(start, Clock::now());
  return container;
}

Field decode_op(const core::CodecPair& codecs, const fs::path& archive,
                double* seconds) {
  Field decoded;
  const auto start = Clock::now();
  {
    const TraceSpan op("op.decode");
    io::Container container;
    {
      const TraceSpan span("io.read_container");
      container = io::read_container(archive);
    }
    const TraceSpan span("core.reconstruct");
    decoded = core::reconstruct(container, codecs);
  }
  *seconds = seconds_between(start, Clock::now());
  return decoded;
}

struct Samples {
  std::vector<double> encode_s;
  std::vector<double> decode_s;
};

/// Moves the driving thread to the next CPU this process may use at the
/// first op pair after each kRotateEveryS, and restores the full mask on
/// destruction.  On a shared host one core can run ~40% slower than the
/// rest (a busy neighbour), and a busy thread stays on its core for the
/// whole run, so without rotation every op of an unlucky run is slow.
/// With it, each run puts the same share of its ops on each core; between
/// moves the field stays warm in the core's cache.
class CpuRotation {
 public:
  CpuRotation() {
    pthread_getaffinity_np(pthread_self(), sizeof original_, &original_);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
  }
  ~CpuRotation() {
    pthread_setaffinity_np(pthread_self(), sizeof original_, &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.empty()) return;
    const auto now = Clock::now();
    if (moved_ && seconds_between(last_, now) < kRotateEveryS) return;
    moved_ = true;
    last_ = now;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    pthread_setaffinity_np(pthread_self(), sizeof one, &one);
  }

 private:
  cpu_set_t original_{};
  std::vector<int> cpus_;
  std::size_t next_ = 0;
  bool moved_ = false;
  Clock::time_point last_;
};

/// Per-layer numbers from the traced loop's spans, as medians over ops.
/// Self time of a layer = its span minus the child spans of other layers.
Values file_layers(const std::vector<Span>& spans, bool pca_sz,
                   Result& result) {
  struct OpTimes {
    bool seen = false, encode = false;
    double op_ms = 0, core_ms = 0, codec_ms = 0, io_ms = 0, probe_ms = 0;
    double fsync_ms = 0, fsyncs = 0, write_bytes = 0, codec_bytes = 0;
  };
  std::map<std::uint64_t, OpTimes> ops;
  std::vector<double> covariance_ms, eigen_ms;
  for (const Span& s : spans) {
    const std::string_view name = s.name;
    if (name == "probe.la.covariance") covariance_ms.push_back(s.ms());
    if (name == "probe.la.eigen") eigen_ms.push_back(s.ms());
    if (s.op == 0) continue;
    OpTimes& t = ops[s.op];
    if (name == "op.encode" || name == "op.decode") {
      t.seen = true;
      t.encode = name == "op.encode";
      t.op_ms = s.ms();
    } else if (name == "core.encode" || name == "core.reconstruct") {
      t.core_ms = s.ms();
    } else if (name.ends_with("compress")) {
      t.codec_ms += s.ms();
      if (!name.ends_with("decompress"))
        t.codec_bytes += static_cast<double>(s.bytes);
    } else if (name == "io.write_container" || name == "io.read_container") {
      t.io_ms = s.ms();
    } else if (name.starts_with("probe.container.")) {
      t.probe_ms = s.ms();
    } else if (name == "fs.fsync") {
      t.fsync_ms += s.ms();
      t.fsyncs += 1;
    } else if (name == "fs.write") {
      t.write_bytes += static_cast<double>(s.bytes);
    }
  }

  const std::string codec = pca_sz ? "sz" : "zfp";
  std::map<std::string, std::vector<double>> per_op;
  for (const auto& [id, t] : ops) {
    if (!t.seen || t.op_ms <= 0.0) continue;
    const double core_self = t.core_ms - t.codec_ms;
    const double file = t.io_ms - t.probe_ms;
    const double explained =
        (core_self + t.codec_ms + t.probe_ms + file) / t.op_ms;
    if (t.encode) {
      per_op[codec + ".compress_ms"].push_back(t.codec_ms);
      per_op[codec + ".bytes_out"].push_back(t.codec_bytes);
      per_op["core.encode_self_ms"].push_back(core_self);
      per_op["container.serialize_ms"].push_back(t.probe_ms);
      per_op["file.write_ms"].push_back(file);
      per_op["fs.fsync_count"].push_back(t.fsyncs);
      per_op["fs.fsync_ms"].push_back(t.fsync_ms);
      per_op["fs.write_bytes"].push_back(t.write_bytes);
      per_op["trace.explained_frac_encode"].push_back(explained);
      per_op["encode_op_ms"].push_back(t.op_ms);
    } else {
      per_op[codec + ".decompress_ms"].push_back(t.codec_ms);
      per_op["core.decode_self_ms"].push_back(core_self);
      per_op["container.deserialize_ms"].push_back(t.probe_ms);
      per_op["file.read_ms"].push_back(file);
      per_op["trace.explained_frac_decode"].push_back(explained);
      per_op["decode_op_ms"].push_back(t.op_ms);
    }
  }
  Values layers;
  for (const auto& [name, values] : per_op) layers[name] = median(values);
  if (pca_sz) {
    layers["la.covariance_ms"] = median(covariance_ms);
    layers["la.eigen_ms"] = median(eigen_ms);
  }

  // Where an op's time goes: the evidence that each workload puts the
  // layer it claims in charge.
  const double encode_ms = layers["encode_op_ms"];
  const double decode_ms = layers["decode_op_ms"];
  char line[256];
  std::snprintf(line, sizeof line,
                "share of encode op (%.1f ms): %s %.2f, la %.2f, core self "
                "%.2f, container %.2f, file %.2f",
                encode_ms, codec.c_str(),
                layers[codec + ".compress_ms"] / encode_ms,
                (layers["la.covariance_ms"] + layers["la.eigen_ms"]) /
                    encode_ms,
                layers["core.encode_self_ms"] / encode_ms,
                layers["container.serialize_ms"] / encode_ms,
                layers["file.write_ms"] / encode_ms);
  result.note(line);
  std::snprintf(line, sizeof line,
                "share of decode op (%.1f ms): %s %.2f, core self %.2f, "
                "container %.2f, file %.2f",
                decode_ms, codec.c_str(),
                layers[codec + ".decompress_ms"] / decode_ms,
                layers["core.decode_self_ms"] / decode_ms,
                layers["container.deserialize_ms"] / decode_ms,
                layers["file.read_ms"] / decode_ms);
  result.note(line);
  return layers;
}

}  // namespace

Result run_file_workload(const RunOptions& options) {
  Result result;
  const bool pca_sz = options.workload == "pca-sz";
  // Input generation is the load generator's work, outside set-up.
  const Field field = make_field(pca_sz, options.seed);
  const double field_bytes = static_cast<double>(field.size() * sizeof(double));
  const fs::path archive = options.work_dir / "field.rmp";
  result.note(std::string(pca_sz ? "Astro velocity" : "Heat3d") + " " +
              std::to_string(pca_sz ? kAstroN : kHeatN) + "^3 field, " +
              std::to_string(field_bytes / 1e6) + " MB, " +
              (pca_sz ? "pca + sz" : "one-base + zfp") +
              ", file to file; 2 pool threads, 1 closed-loop client");

  std::uint32_t archive_crc = 0, field_crc = 0;
  std::size_t archive_bytes = 0;
  QualityMeter quality;
  // Every pair must reproduce the first warm-up's archive and decode.
  const auto check = [&](const std::vector<std::uint8_t>& bytes,
                         const Field& decoded, bool first) {
    if (decoded.nx() != field.nx() || decoded.ny() != field.ny() ||
        decoded.nz() != field.nz()) {
      result.fail("decoded shape differs from the input");
      return;
    }
    if (first) {
      archive_crc = io::crc32(bytes);
      field_crc = crc_of(decoded.flat());
      archive_bytes = bytes.size();
      quality.add(field.flat(), decoded.flat());
      return;
    }
    if (io::crc32(bytes) != archive_crc)
      result.fail("archive bytes differ from the warm-up archive");
    if (crc_of(decoded.flat()) != field_crc)
      result.fail("decoded field differs from the warm-up decode");
  };

  // Set-up, repeated so its median is steady: pool, codecs and
  // preconditioner construction plus one warm-up encode/decode pair.
  std::unique_ptr<Session> session;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    session.reset();  // its pool route must go before the next installs
    const auto start = Clock::now();
    session = make_session(pca_sz);
    double ignored = 0.0;
    encode_op(*session, session->codecs.pair(), field, archive, &ignored);
    const Field decoded =
        decode_op(session->codecs.pair(), archive, &ignored);
    setup_s.push_back(seconds_between(start, Clock::now()));
    result.attempted += 2;
    check(read_file(archive), decoded, rep == 0);
  }

  std::uint64_t next_op = 1;
  const auto run_loop = [&](double seconds, const core::CodecPair& codecs,
                            bool probes) {
    Samples samples;
    CpuRotation rotation;
    const auto start = Clock::now();
    while (samples.encode_s.size() < kMinPairs ||
           seconds_between(start, Clock::now()) < seconds) {
      rotation.next();
      double encode_s = 0.0, decode_s = 0.0;
      std::vector<std::uint8_t> bytes;
      {
        const OpScope scope(next_op++);
        const io::Container container =
            encode_op(*session, codecs, field, archive, &encode_s);
        if (probes) {
          const TraceSpan span("probe.container.serialize");
          static_cast<void>(io::serialize(container, archive_options()));
        }
        bytes = read_file(archive);
      }
      Field decoded;
      {
        const OpScope scope(next_op++);
        decoded = decode_op(codecs, archive, &decode_s);
        if (probes) {
          const TraceSpan span("probe.container.deserialize");
          static_cast<void>(io::deserialize(bytes));
        }
      }
      result.attempted += 2;
      check(bytes, decoded, false);
      samples.encode_s.push_back(encode_s);
      samples.decode_s.push_back(decode_s);
    }
    return samples;
  };

  if (!options.trace) {
    const Samples s = run_loop(options.seconds, session->codecs.pair(), false);
    result.note("samples: encode " + std::to_string(s.encode_s.size()) +
                ", decode " + std::to_string(s.decode_s.size()) +
                ", set-up " + std::to_string(setup_s.size()));
    result.note(quantile_note("encode", s.encode_s));
    result.note(quantile_note("decode", s.decode_s));
    Values v;
    v["encode_mb_s"] = field_bytes / 1e6 / typical_op_s(s.encode_s);
    v["decode_mb_s"] = field_bytes / 1e6 / typical_op_s(s.decode_s);
    // Ops per second of op time, at the typical op times: one client runs
    // an encode then a decode.  The output checks between ops are the load
    // generator's and stay out.
    v["req_s"] = 2.0 / (typical_op_s(s.encode_s) + typical_op_s(s.decode_s));
    v["ratio"] = field_bytes / static_cast<double>(archive_bytes);
    v["nrmse"] = quality.nrmse();
    v["max_rel_error"] = quality.max_rel_error();
    v["setup_s"] = median(setup_s);
    v["peak_rss_mb"] = peak_rss_mb();
    emit_end_to_end(result, v);
    return result;
  }

  // Traced run: half untraced (the overhead baseline), half traced.
  const Samples plain =
      run_loop(options.seconds / 2, session->codecs.pair(), false);
  const TimedCodecs timed(session->codecs, pca_sz);
  Tracer& tracer = Tracer::global();
  tracer.set_enabled(true);
  Samples traced;
  {
    const ScopedTimedFileOps timed_ops;
    traced = run_loop(options.seconds / 2, timed.pair(), true);
  }
  if (pca_sz) {
    // The la calls the PCA encode makes, on the same matrix.
    const rmp::la::Matrix matrix = core::as_matrix(field);
    for (int rep = 0; rep < 3; ++rep) {
      const rmp::la::Matrix covariance = [&] {
        const TraceSpan span("probe.la.covariance");
        return rmp::la::covariance(matrix);
      }();
      const TraceSpan span("probe.la.eigen");
      static_cast<void>(rmp::la::jacobi_eigen(covariance));
    }
  }
  tracer.set_enabled(false);
  result.note("samples: untraced encode " +
              std::to_string(plain.encode_s.size()) + ", traced encode " +
              std::to_string(traced.encode_s.size()) + ", traced decode " +
              std::to_string(traced.decode_s.size()));
  Values layers = file_layers(tracer.spans(), pca_sz, result);
  layers["trace.overhead_frac"] =
      1.0 - typical_op_s(plain.encode_s) / typical_op_s(traced.encode_s);
  layers["quality.bias"] = quality.bias();
  emit_per_layer(result, layers);
  tracer.write_json(options.trace_out);
  return result;
}

}  // namespace perfbench
