// rmpd-mixed: an in-process rmpd (net::Server on loopback, output dir,
// 2 workers) driven by two closed-loop client connections.
//  * The appender streams 48^3 Heat3d snapshots (0.88 MB each) as tokened
//    pca+sz encodes into a server-side sequence.  Client retries are on,
//    so every append costs an intent-log fsync and a commit fsync.
//  * The reader decodes steps of a sequence published during set-up, in
//    seeded random order over more steps than the server's 32-entry
//    chunk cache holds.
// Small requests make per-request costs (framing and CRC, admission,
// fsync, pread, the chunk cache) a large share of latency, and the two
// clients share the server's workers, so a change that speeds one up at
// the other's cost shows.
#include <atomic>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>

#include "common.hpp"
#include "core/pipeline.hpp"
#include "io/sequence_file.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/obs.hpp"

namespace perfbench {
namespace {

namespace core = rmp::core;
namespace io = rmp::io;
namespace net = rmp::net;
namespace fs = std::filesystem;
using rmp::sim::Field;

constexpr std::size_t kSnapshotN = 48;
constexpr std::size_t kHeatSteps = 800;
constexpr std::size_t kSteps = 48;  // published steps; the cache holds 32
constexpr std::size_t kServerWorkers = 2;
constexpr int kSetupReps = 7;  // a start takes ~15 ms: more reps, steady median
constexpr const char* kReadStore = "read.rmps";
constexpr const char* kAppendStore = "append.rmps";

struct Inputs {
  std::vector<net::EncodeRequest> appends;   ///< one per snapshot
  std::vector<std::uint64_t> payload_bytes;  ///< rmpd's reply per append
  std::vector<io::StepInfo> published;       ///< serialized size + CRC
  std::vector<std::uint32_t> decoded_crc;    ///< local decode of each step
  QualityMeter quality;
  double raw_bytes = 0.0;
  double stored_bytes = 0.0;
};

/// Snapshots, the published read store, and the local reference decode of
/// every step (io::SequenceReader + core::reconstruct).
Inputs make_inputs(std::uint64_t seed, const fs::path& store) {
  Inputs inputs;
  const std::vector<Field> snapshots = rmp::sim::heat3d_snapshots(
      seeded_heat_config(seed, kSnapshotN, kHeatSteps), kSteps);
  const CodecSet codecs = make_codecs(true);
  const auto pca = core::make_preconditioner("pca");
  const fs::path path = store / kReadStore;
  {
    io::SequenceWriter writer(path, archive_options());
    for (const Field& snapshot : snapshots) {
      const io::Container container = pca->encode(snapshot, codecs.pair());
      inputs.payload_bytes.push_back(container.payload_bytes());
      writer.append(container);
    }
    writer.finish();
  }
  const io::SequenceReader reader(path);
  for (std::size_t i = 0; i < kSteps; ++i) {
    inputs.published.push_back(reader.step_info(i));
    const Field decoded = core::reconstruct(reader.read_step(i), codecs.pair());
    inputs.decoded_crc.push_back(crc_of(decoded.flat()));
    inputs.quality.add(snapshots[i].flat(), decoded.flat());
    inputs.raw_bytes += static_cast<double>(snapshots[i].size() * sizeof(double));
    inputs.stored_bytes += static_cast<double>(reader.step_info(i).size);

    net::EncodeRequest request;
    request.method = "pca";
    request.codec = "sz";
    request.store = net::StoreMode::kSequence;
    request.store_name = kAppendStore;
    request.nx = snapshots[i].nx();
    request.ny = snapshots[i].ny();
    request.nz = snapshots[i].nz();
    request.data = snapshots[i].storage();
    inputs.appends.push_back(std::move(request));
  }
  return inputs;
}

/// Distinct nonzero idempotency token for append `index` (splitmix64).
std::uint64_t append_token(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + index + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

net::ClientOptions client_options(std::uint16_t port) {
  net::ClientOptions options;
  options.port = port;
  options.deadline = std::chrono::seconds(30);
  options.max_retries = 3;
  options.retry_backoff = std::chrono::milliseconds(20);
  return options;
}

struct ClientLog {
  std::vector<double> latency_s;  ///< ops that completed inside the window
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;

  void fail(const std::string& what) {
    if (failed++ == 0) first_failure = what;
  }
};

struct Phase {
  double seconds = 0.0;
  ClientLog append;
  ClientLog read;
  net::StatsResponse before;  ///< reader's stats call, traced phase only
  net::StatsResponse after;
};

// Layer calls timed beside an op (not inside it): the client-side wire
// work the op did, redone on the same payload.
void probe_frame(net::MsgType type, std::span<const std::uint8_t> payload) {
  const TraceSpan span("probe.net.frame");
  net::FrameDecoder decoder;
  decoder.feed(net::encode_frame(type, 1, 0, payload));
  const std::optional<net::Frame> frame = decoder.next();
  if (!frame || frame->payload.size() != payload.size())
    throw std::runtime_error("frame probe did not round-trip");
}

void probe_append(const net::EncodeRequest& request) {
  std::vector<std::uint8_t> payload;
  {
    const TraceSpan span("probe.net.request_encode");
    payload = request.encode();
  }
  probe_frame(net::MsgType::kEncode, payload);
}

void probe_read(const net::DecodeResponse& response) {
  const std::vector<std::uint8_t> payload = response.encode();
  probe_frame(net::MsgType::kDecodeResult, payload);
  const TraceSpan span("probe.net.response_decode");
  static_cast<void>(net::DecodeResponse::decode(payload));
}

/// The two clients.  State that spans phases (append count, read order)
/// lives here; each phase runs both loops on fresh connections.
class MixedClients {
 public:
  MixedClients(Inputs& inputs, std::uint64_t seed, std::uint16_t port)
      : inputs_(inputs), seed_(seed), port_(port), order_(seed) {}

  Phase run(double seconds, bool probes) {
    Phase phase;
    phase.seconds = seconds;
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    {
      const std::jthread appender(
          [&] { append_loop(deadline, probes, phase.append); });
      const std::jthread reader(
          [&] { read_loop(deadline, probes, phase); });
    }
    return phase;
  }

  /// Appends the server acknowledged, over every phase.
  std::uint64_t appended() const { return appended_; }

 private:
  void append_loop(Clock::time_point deadline, bool probes, ClientLog& log) {
    try {
      net::Client client(client_options(port_));
      while (Clock::now() < deadline) {
        const std::size_t index = appended_ % kSteps;
        net::EncodeRequest& request = inputs_.appends[index];
        // A failed attempt keeps its token: if it did land, the retry
        // replays instead of appending twice.
        request.request_token = append_token(seed_, appended_);
        ++log.attempted;
        const OpScope scope(next_op_++);
        try {
          const auto start = Clock::now();
          net::EncodeResponse response;
          {
            const TraceSpan op("op.append");
            response = client.encode(request);
          }
          const auto end = Clock::now();
          ++appended_;
          if (!response.stored ||
              response.stored_bytes != inputs_.payload_bytes[index]) {
            log.fail("append " + std::to_string(appended_ - 1) + " stored " +
                     std::to_string(response.stored_bytes) +
                     " bytes, expected " +
                     std::to_string(inputs_.payload_bytes[index]));
            continue;
          }
          if (end <= deadline) log.latency_s.push_back(seconds_between(start, end));
          if (probes) probe_append(request);
        } catch (const std::exception& error) {
          log.fail(std::string("append: ") + error.what());
        }
      }
    } catch (const std::exception& error) {
      log.fail(std::string("appender: ") + error.what());
    }
  }

  void read_loop(Clock::time_point deadline, bool probes, Phase& phase) {
    ClientLog& log = phase.read;
    try {
      net::Client client(client_options(port_));
      if (probes) phase.before = client.stats();
      while (Clock::now() < deadline) {
        const std::size_t step = order_() % kSteps;
        net::DecodeRequest request;
        request.codec = "sz";
        request.store_name = kReadStore;
        request.step = step;
        ++log.attempted;
        const OpScope scope(next_op_++);
        try {
          const auto start = Clock::now();
          net::DecodeResponse response;
          {
            const TraceSpan op("op.read");
            response = client.decode(request);
          }
          const auto end = Clock::now();
          if (response.nx != kSnapshotN || response.ny != kSnapshotN ||
              response.nz != kSnapshotN ||
              response.data.size() != kSnapshotN * kSnapshotN * kSnapshotN ||
              crc_of(response.data) != inputs_.decoded_crc[step]) {
            log.fail("read of step " + std::to_string(step) +
                     " differs from the local decode");
            continue;
          }
          if (end <= deadline) log.latency_s.push_back(seconds_between(start, end));
          if (probes) probe_read(response);
        } catch (const std::exception& error) {
          log.fail(std::string("read: ") + error.what());
        }
      }
      if (probes) phase.after = client.stats();
    } catch (const std::exception& error) {
      log.fail(std::string("reader: ") + error.what());
    }
  }

  Inputs& inputs_;
  const std::uint64_t seed_;
  const std::uint16_t port_;
  std::uint64_t appended_ = 0;  ///< appender thread only
  std::mt19937_64 order_;       ///< reader thread only
  std::atomic<std::uint64_t> next_op_{1};
};

double registry_value(const net::StatsResponse& stats, const char* group,
                      const char* name) {
  if (stats.obs_json.empty()) return 0.0;
  const rmp::obs::JsonValue doc = rmp::obs::json_parse(stats.obs_json);
  const rmp::obs::JsonValue* section = doc.find(group);
  const rmp::obs::JsonValue* value = section ? section->find(name) : nullptr;
  return value != nullptr && value->type == rmp::obs::JsonValue::Type::kNumber
             ? value->number
             : 0.0;
}

/// Per-layer numbers of the traced phase.  Disk work happens on server
/// threads outside any client op, so it is charged per append (fsync,
/// write) or per read (pread) on average.
Values rmpd_layers(const std::vector<Span>& spans, const Phase& phase) {
  struct OpTimes {
    bool seen = false, append = false;
    double op_ms = 0, request_ms = 0, frame_ms = 0, response_ms = 0;
  };
  std::map<std::uint64_t, OpTimes> ops;
  double fsyncs = 0, fsync_ms = 0, write_bytes = 0, pread_bytes = 0;
  for (const Span& s : spans) {
    const std::string_view name = s.name;
    if (name == "fs.fsync") {
      fsyncs += 1;
      fsync_ms += s.ms();
    } else if (name == "fs.write") {
      write_bytes += static_cast<double>(s.bytes);
    } else if (name == "fs.pread") {
      pread_bytes += static_cast<double>(s.bytes);
    }
    if (s.op == 0) continue;
    OpTimes& t = ops[s.op];
    if (name == "op.append" || name == "op.read") {
      t.seen = true;
      t.append = name == "op.append";
      t.op_ms = s.ms();
    } else if (name == "probe.net.request_encode") {
      t.request_ms = s.ms();
    } else if (name == "probe.net.frame") {
      t.frame_ms = s.ms();
    } else if (name == "probe.net.response_decode") {
      t.response_ms = s.ms();
    }
  }
  double appends = 0, reads = 0;
  for (const auto& [id, t] : ops) {
    if (t.seen) (t.append ? appends : reads) += 1;
  }
  const double fsync_ms_per_append = appends > 0 ? fsync_ms / appends : 0.0;

  std::vector<double> request, frame, response, other, explained_append,
      explained_read;
  for (const auto& [id, t] : ops) {
    if (!t.seen || t.op_ms <= 0.0) continue;
    const double client = t.request_ms + t.frame_ms + t.response_ms;
    const double disk = t.append ? fsync_ms_per_append : 0.0;
    frame.push_back(t.frame_ms);
    other.push_back(t.op_ms - client - disk);
    if (t.append) {
      request.push_back(t.request_ms);
      explained_append.push_back((client + disk) / t.op_ms);
    } else {
      response.push_back(t.response_ms);
      explained_read.push_back(client / t.op_ms);
    }
  }

  Values v;
  if (appends > 0) {
    v["fs.fsync_count"] = fsyncs / appends;
    v["fs.fsync_ms"] = fsync_ms_per_append;
    v["fs.write_bytes"] = write_bytes / appends;
  }
  if (reads > 0) v["fs.pread_bytes"] = pread_bytes / reads;
  v["net.request_encode_ms"] = median(request);
  v["net.frame_ms"] = median(frame);
  v["net.response_decode_ms"] = median(response);
  v["net.server_other_ms"] = median(other);
  v["server.queue_peak"] = registry_value(phase.after, "gauges", "net.queue_peak");
  v["server.rejected_busy"] = static_cast<double>(phase.after.rejected_busy);
  v["server.failed"] = static_cast<double>(phase.after.failed);
  const double hits = registry_value(phase.after, "counters", "chunk.cache.hits") -
                      registry_value(phase.before, "counters", "chunk.cache.hits");
  const double misses =
      registry_value(phase.after, "counters", "chunk.cache.misses") -
      registry_value(phase.before, "counters", "chunk.cache.misses");
  v["chunk.hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  v["chunk.prefetch_wasted"] =
      registry_value(phase.after, "counters", "chunk.prefetch.wasted") -
      registry_value(phase.before, "counters", "chunk.prefetch.wasted");
  v["trace.explained_frac_encode"] = median(explained_append);
  v["trace.explained_frac_decode"] = median(explained_read);
  return v;
}

}  // namespace

Result run_rmpd_workload(const RunOptions& options) {
  Result result;
  const fs::path store = options.work_dir / "store";
  fs::create_directories(store);
  // Input generation and the published read store are the load
  // generator's work, outside set-up.
  Inputs inputs = make_inputs(options.seed, store);
  const double snapshot_mb =
      static_cast<double>(kSnapshotN * kSnapshotN * kSnapshotN * sizeof(double)) / 1e6;
  result.note("Heat3d 48^3 snapshots (" + std::to_string(snapshot_mb) +
              " MB), pca + sz; " + std::to_string(kSteps) +
              " published steps vs a 32-entry chunk cache; 2 server "
              "workers, 2 pool threads, 2 closed-loop connections");

  // Set-up, repeated: server start with startup recovery over the
  // published store, until the first ping answers.
  net::ServerOptions server_options;
  server_options.output_dir = store;
  server_options.workers = kServerWorkers;
  std::unique_ptr<net::Server> server;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (server) server->drain();
    server.reset();
    const auto start = Clock::now();
    server = std::make_unique<net::Server>(server_options);
    server->start();
    net::Client(client_options(server->port())).ping();
    setup_s.push_back(seconds_between(start, Clock::now()));
  }

  MixedClients clients(inputs, options.seed, server->port());
  std::vector<Phase> phases;
  Values layers;
  if (!options.trace) {
    phases.push_back(clients.run(options.seconds, false));
  } else {
    // Half untraced (the overhead baseline), half traced.
    phases.push_back(clients.run(options.seconds / 2, false));
    Tracer& tracer = Tracer::global();
    tracer.set_enabled(true);
    {
      const ScopedTimedFileOps timed_ops;
      phases.push_back(clients.run(options.seconds / 2, true));
    }
    tracer.set_enabled(false);
    layers = rmpd_layers(tracer.spans(), phases.back());
    layers["trace.overhead_frac"] =
        1.0 - typical_op_s(phases.front().append.latency_s) /
                  typical_op_s(phases.back().append.latency_s);
    layers["quality.bias"] = inputs.quality.bias();
    tracer.write_json(options.trace_out);
  }
  for (const Phase& phase : phases) {
    for (const ClientLog* log : {&phase.append, &phase.read}) {
      result.attempted += log->attempted;
      if (log->failed > 0) {
        result.correct = false;
        result.failed += log->failed;
        result.note("FAIL: " + std::to_string(log->failed) +
                    " failed op(s), first: " + log->first_failure);
      }
    }
  }

  // Exactly once: drain publishes the appended sequence; its steps must be
  // the snapshots in order, one step per acknowledged append.
  server->drain();
  try {
    const io::SequenceReader appended(store / kAppendStore);
    if (appended.step_count() != clients.appended())
      result.fail("appended sequence holds " +
                  std::to_string(appended.step_count()) + " steps for " +
                  std::to_string(clients.appended()) + " acknowledged appends");
    for (std::size_t i = 0; i < appended.step_count(); ++i) {
      const io::StepInfo& got = appended.step_info(i);
      const io::StepInfo& want = inputs.published[i % kSteps];
      if (got.size != want.size || got.crc != want.crc) {
        result.fail("appended step " + std::to_string(i) +
                    " is not snapshot " + std::to_string(i % kSteps));
        break;
      }
    }
  } catch (const std::exception& error) {
    result.fail(std::string("appended sequence: ") + error.what());
  }
  server.reset();

  const Phase& measured = phases.back();
  result.note("samples: append " + std::to_string(measured.append.latency_s.size()) +
              ", read " + std::to_string(measured.read.latency_s.size()) +
              ", set-up " + std::to_string(setup_s.size()));
  if (options.trace) {
    emit_per_layer(result, layers);
    return result;
  }
  const std::vector<double>& append_s = measured.append.latency_s;
  const std::vector<double>& read_s = measured.read.latency_s;
  result.note(quantile_note("append", append_s));
  result.note(quantile_note("read", read_s));
  Values v;
  v["encode_mb_s"] = snapshot_mb / typical_op_s(append_s);
  v["decode_mb_s"] = snapshot_mb / typical_op_s(read_s);
  v["req_s"] = static_cast<double>(append_s.size() + read_s.size()) /
               measured.seconds;
  v["ratio"] = inputs.raw_bytes / inputs.stored_bytes;
  v["nrmse"] = inputs.quality.nrmse();
  v["max_rel_error"] = inputs.quality.max_rel_error();
  v["setup_s"] = median(setup_s);
  v["peak_rss_mb"] = peak_rss_mb();
  emit_end_to_end(result, v);
  return result;
}

}  // namespace perfbench
