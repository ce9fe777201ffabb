// rmpd -- the fault-tolerant concurrent compression service (DESIGN.md
// §11).  A TCP daemon serving encode/decode/verify/stats requests over
// the length-prefixed binary protocol in net/protocol.hpp, built for the
// in-situ HPC setting where the compressor sits on the simulation's
// critical path and must keep accepting fields even when clients
// misbehave, disks stall, or the process is killed.
//
// Robustness model:
//  * Admission control: every work request passes through a bounded
//    queue (net/bounded_queue.hpp).  A full queue is answered with a
//    typed BUSY rejection immediately -- the server never buffers
//    unboundedly and a slow disk cannot OOM it.
//  * Deadlines end-to-end: the client grants a wall-clock budget per
//    request; the server stamps an absolute deadline on receipt, refuses
//    to *start* work past it, and threads it into io::RetryPolicy so
//    disk-retry backoff loops cannot outlive the request.
//  * Connection-level fault tolerance: torn frames, oversized or garbage
//    headers, CRC mismatches and mid-request disconnects produce typed
//    errors and a clean session teardown -- never a crash or a leaked
//    worker thread.
//  * Self-healing (DESIGN.md §14): startup recovery resumes torn
//    sequence journals and quarantines what cannot be made whole; a
//    background scrubber re-verifies published archives and repairs
//    parity-recoverable damage; tokened requests are deduplicated
//    through a bounded window backed by an fsync'd intent log, so a
//    retry -- even across a SIGKILL -- applies exactly once.
//  * Graceful drain: request_drain() (wired to SIGTERM by run_daemon)
//    stops accepting, answers new requests with SHUTTING_DOWN, finishes
//    every admitted request, flushes journaled sequences via the
//    durable-publish path, then returns.  A SIGKILL instead leaves no
//    torn archives: stored containers are atomic publishes and sequence
//    appends are fsync'd behind commit markers (DESIGN.md §10).
//
// Work placement: session threads only parse frames and do admission;
// compute runs on a small set of worker threads that fan numeric kernels
// out onto parallel::global_pool, and durable store writes ride the
// reused core::StagingNode write-behind worker, whose completion
// callback is what releases the client's response -- a store request is
// only ever answered after its bytes are durable.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/preconditioner.hpp"
#include "net/bounded_queue.hpp"
#include "net/dedup_window.hpp"
#include "net/protocol.hpp"

namespace rmp::core {
class StagingNode;
}
namespace rmp::io {
class SequenceWriter;
}

namespace rmp::net {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; see Server::port()
  /// Admission bound: requests queued awaiting a worker.  Beyond this,
  /// clients get typed BUSY rejections.
  std::size_t queue_capacity = 64;
  /// Dedicated compute workers popping the request queue (each fans out
  /// onto parallel::global_pool); 0 = min(4, default_thread_count()).
  std::size_t workers = 0;
  /// Concurrent sessions; connections beyond this are answered with a
  /// BUSY frame and closed.
  std::size_t max_sessions = 64;
  /// Enables kFile/kSequence store requests; unset = bytes-only service.
  std::optional<std::filesystem::path> output_dir;
  /// Parity protection for stored archives.
  bool with_parity = true;
  /// Write-behind queue depth for store requests (StagingNode bound).
  std::size_t staging_queue = 8;
  /// Test hook: hold each worker for this long before it starts a job,
  /// so saturation/deadline behaviour is deterministic under test.
  std::chrono::milliseconds debug_stall{0};
  /// Byte-budget admission: total request-payload bytes in flight
  /// (queued + executing).  A request that would exceed it gets a typed
  /// BUSY with a retry_after_ms hint instead of being buffered -- the
  /// second shedding axis next to queue_capacity (counts requests, this
  /// counts bytes).  0 = unlimited.
  std::uint64_t max_inflight_bytes = 256ull << 20;
  /// Slowloris defense: a session holding a half-read frame without
  /// delivering a byte for this long is torn down.  0 disables.
  std::chrono::milliseconds read_stall_timeout{30'000};
  /// Idempotency window: completed request tokens whose responses are
  /// cached for replay (net/dedup_window.hpp).
  std::size_t dedup_window = 256;
  /// Background integrity-scrub cadence over output_dir; 0 = on-demand
  /// only (rmpc client scrub).
  std::chrono::milliseconds scrub_interval{0};
  /// Run startup recovery over output_dir before accepting: resume torn
  /// journals, verify/repair/quarantine published files, reload the
  /// dedup window's durable intents (io/store_health.hpp).
  bool recover_on_start = true;
};

/// Monotonic counters (authoritative, independent of RMP_OBS): the
/// COUNTER rows of RMP_STATS_FIELDS, plus send_failures, which stays
/// off the wire.
struct ServerStats {
#define RMP_STATS_DECLARE(name) std::uint64_t name = 0;
#define RMP_STATS_SKIP(name)
  RMP_STATS_FIELDS(RMP_STATS_DECLARE, RMP_STATS_SKIP)
#undef RMP_STATS_DECLARE
#undef RMP_STATS_SKIP
  std::uint64_t send_failures = 0;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  /// Joins everything; drains first if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen + start accepting.  Throws NetError{kIoError} when the
  /// socket cannot be bound.
  void start();

  /// The actually-bound port (useful with options.port == 0).
  std::uint16_t port() const noexcept { return port_; }

  /// Async-signal-safe-ish drain trigger: flips the draining flag and
  /// wakes the accept loop.  Returns immediately; pair with drain() or
  /// wait_until_drained().
  void request_drain() noexcept;

  /// Graceful shutdown: stop accepting, answer queued-but-unstarted and
  /// new requests per the drain policy, finish all admitted work, flush
  /// and publish journaled sequences, tear down sessions.  Idempotent.
  void drain();

  /// Block until someone (a signal handler, another thread) calls
  /// request_drain(), then perform the drain.
  void wait_until_drained();

  bool draining() const noexcept {
    return draining_.load(std::memory_order_acquire);
  }

  ServerStats stats() const;
  std::size_t queue_depth() const { return queue_.depth(); }

 private:
  struct Session;
  struct SequenceState;
  struct Job {
    Frame frame;
    std::shared_ptr<Session> session;
    std::optional<std::chrono::steady_clock::time_point> deadline;
    /// Payload bytes charged against max_inflight_bytes; released by
    /// job_finished.
    std::uint64_t bytes = 0;
  };

  void accept_loop();
  void session_loop(const std::shared_ptr<Session>& session);
  void worker_loop();
  void scrub_loop();
  void handle_frame(const std::shared_ptr<Session>& session, Frame frame);
  void process_job(Job& job);
  /// Encode steps: replay a completed token, or run the model and hand
  /// the container to one store mode -- return it inline, stage it as a
  /// file, or append it to a journaled sequence.  Each step owns the
  /// job's completion.
  void handle_encode(Job& job);
  bool replay_encode(Job& job, std::uint64_t token);
  /// Caches a completed encode's response under `token` (when nonzero).
  void remember_encode(std::uint64_t token,
                       const std::vector<std::uint8_t>& payload);
  void encode_inline(Job& job, std::uint64_t token,
                     const io::Container& container, EncodeResponse response);
  void encode_to_file(Job& job, const EncodeRequest& request,
                      io::Container container, EncodeResponse response);
  void encode_to_sequence(Job& job, const EncodeRequest& request,
                          const io::Container& container,
                          EncodeResponse response);
  void handle_decode(Job& job);
  void handle_verify(Job& job);
  void handle_scrub(Job& job);
  /// One verify/repair/quarantine pass over the store, skipping live
  /// sequences; folds the result into stats_.  Returns the wire summary.
  ScrubResponse run_scrub_pass();
  /// Startup recovery over output_dir (start() calls this before
  /// accepting): adopt resumed journals, seed the dedup window.
  void recover_store_on_start();
  void send_stats(const std::shared_ptr<Session>& session,
                  std::uint64_t request_id);
  void send_error(const std::shared_ptr<Session>& session,
                  std::uint64_t request_id, Status status,
                  const std::string& message, std::uint32_t retry_after_ms = 0);
  void send_frame(const std::shared_ptr<Session>& session, MsgType type,
                  std::uint64_t request_id,
                  std::span<const std::uint8_t> payload,
                  Status status = Status::kOk);
  /// Backoff hint attached to BUSY rejections, scaled by current load.
  std::uint32_t retry_after_hint() const noexcept;
  /// Caller must hold sequences_mutex_.
  SequenceState& sequence_state(const std::string& name);
  void finish_sequences();
  /// Shared seekable reader + chunk fetcher for a published sequence
  /// archive under the output dir.  Returns nullptr when the file is not
  /// a sequence archive (plain container store).  Entries are rebuilt
  /// when the published file's size changes (a writer re-published it).
  std::shared_ptr<struct StoreReadCache> store_read_cache(
      const std::string& name, const std::filesystem::path& path);
  /// Completes one admitted job: accounts the outcome, releases its byte
  /// budget, and drops outstanding_.
  void job_finished(bool ok, std::uint64_t bytes);
  void release_outstanding();

  ServerOptions options_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_sessions_{false};
  std::atomic<bool> drained_{false};

  BoundedQueue<Job> queue_;
  std::vector<std::thread> workers_;
  std::thread accept_thread_;

  std::mutex sessions_mutex_;
  std::vector<std::shared_ptr<Session>> sessions_;
  std::uint64_t session_counter_ = 0;  ///< under sessions_mutex_

  /// Outstanding admitted jobs (queued + executing + awaiting the staging
  /// callback); drain() waits for this to hit zero.
  std::atomic<std::uint64_t> outstanding_{0};
  std::mutex drain_mutex_;
  std::condition_variable drain_cv_;
  std::mutex drain_call_mutex_;  ///< serializes drain() itself

  /// Codecs backing the staging node (CodecPair holds raw pointers).
  core::Codecs staging_codecs_;
  std::unique_ptr<core::StagingNode> staging_;
  std::mutex sequences_mutex_;
  /// Writer + request log per live sequence.  The dedup check, intent
  /// record, append, and window insert for one sequence all run under
  /// sequences_mutex_, which is what coalesces concurrent duplicates of
  /// the same tokened append.
  std::map<std::string, std::unique_ptr<SequenceState>> sequences_;
  /// Store-read side (decode-from-store requests): one shared reader +
  /// fetcher per published sequence, so concurrent decode requests hit
  /// the chunk cache instead of re-reading the archive.
  std::mutex store_readers_mutex_;
  std::map<std::string, std::shared_ptr<struct StoreReadCache>>
      store_readers_;

  mutable std::mutex stats_mutex_;
  ServerStats stats_;

  /// Idempotent-retry window (tokened requests).
  DedupWindow dedup_;
  /// Request-payload bytes admitted and not yet completed.
  std::atomic<std::uint64_t> inflight_bytes_{0};

  /// Background integrity scrubber (options_.scrub_interval > 0).
  std::thread scrub_thread_;
  std::mutex scrub_mutex_;
  std::condition_variable scrub_cv_;
  bool scrub_stop_ = false;
};

/// Daemon front end shared by `rmpd` and `rmpc serve`: installs
/// SIGTERM/SIGINT handlers that trigger a graceful drain, ignores
/// SIGPIPE, starts the server, announces "rmpd: listening on HOST:PORT"
/// on stdout (and writes the port to `port_file` when given, for test
/// harnesses that pass port 0), then blocks until drained.  Returns the
/// process exit code (0 after a clean drain).
int run_daemon(const ServerOptions& options,
               const std::optional<std::filesystem::path>& port_file = {});

}  // namespace rmp::net
