#include "net/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "compress/codec_error.hpp"
#include "core/chunk_fetch.hpp"
#include "core/guard.hpp"
#include "core/pipeline.hpp"
#include "core/precond_error.hpp"
#include "core/staging.hpp"
#include "io/container.hpp"
#include "io/container_error.hpp"
#include "io/sequence_file.hpp"
#include "io/store_health.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"

namespace rmp::net {

namespace {

std::string errno_text(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// The file a store request names under the server's output directory.
/// A server without one, or a name that could escape it (separators,
/// dot-prefixed names), is a malformed request, not an I/O error.
std::filesystem::path store_path(
    const std::optional<std::filesystem::path>& output_dir,
    const std::string& name) {
  if (!output_dir)
    throw NetError(NetErrc::kMalformedPayload,
                   "store requested but the server has no --output-dir");
  if (name.empty())
    throw NetError(NetErrc::kMalformedPayload, "store request without a name");
  if (name.find('/') != std::string::npos ||
      name.find('\\') != std::string::npos || name.front() == '.')
    throw NetError(NetErrc::kMalformedPayload,
                   "store name '" + name +
                       "' must be a plain file name (no separators, no "
                       "leading dot)");
  // Names the self-healing machinery owns inside the store directory:
  // "quarantine" is the damaged-file vault, ".part"/".reqs" suffixes are
  // journal and request-log sidecars, ".tmp." marks staging temps.
  if (name == "quarantine" || name.ends_with(".part") ||
      name.ends_with(".reqs") || name.find(".tmp.") != std::string::npos)
    throw NetError(NetErrc::kMalformedPayload,
                   "store name '" + name +
                       "' is reserved for store maintenance "
                       "(quarantine/, *.part, *.reqs, *.tmp.*)");
  return *output_dir / name;
}

/// Runs the requested model (through the guard layer when asked) and
/// fills the response's method and original size.
io::Container encode_field(EncodeRequest& request, EncodeResponse& response) {
  const core::Codecs codecs = core::make_codecs(request.codec);
  response.method = request.method;
  response.original_bytes = request.data.size() * sizeof(double);
  const sim::Field field = sim::Field::from_data(
      request.nx, request.ny, request.nz, std::move(request.data));
  if (request.guard || request.error_bound) {
    core::GuardOptions guard_options;
    guard_options.method = request.method;
    guard_options.error_bound = request.error_bound;
    auto result = core::guarded_encode(field, codecs.pair(), guard_options);
    response.method = result.provenance.actual;
    return std::move(result.container);
  }
  return core::make_preconditioner(request.method)
      ->encode(field, codecs.pair());
}

}  // namespace

/// Shared read-side state for one published store: a seekable sequence
/// reader plus a chunk fetcher whose cache is shared by every decode
/// request naming this store.  Member order matters -- the fetcher is
/// destroyed first, draining its background prefetch tasks while the
/// reader they capture is still alive.
struct StoreReadCache {
  std::uint64_t file_size = 0;
  io::SequenceReader reader;
  core::ChunkFetcher fetcher;

  StoreReadCache(std::uint64_t size, const std::filesystem::path& path)
      : file_size(size),
        reader(path,
               io::SequenceReadOptions{.allow_index_rebuild = false}),
        fetcher(core::make_sequence_fetcher(reader)) {}
};

/// Per-connection state.  The session thread is the only reader of the
/// socket; writes (responses, possibly from worker threads or staging
/// callbacks) serialize through write_mutex.  The fd is closed by the
/// destructor, i.e. only after every in-flight job's response attempt has
/// released its shared_ptr -- a mid-request disconnect never yields a
/// write to a recycled descriptor.
struct Server::Session {
  int fd = -1;
  std::uint64_t id = 0;
  std::thread thread;
  std::mutex write_mutex;
  std::atomic<bool> alive{true};
  std::atomic<bool> done{false};

  ~Session() {
    if (fd >= 0) ::close(fd);
  }
};

/// One live journaled sequence: the writer plus its request log.  The
/// log is opened lazily on the first tokened append -- untokened flows
/// never grow a sidecar.  `fresh_journal` records whether this
/// generation created the journal (a fresh log must not inherit a
/// predecessor's intents) or adopted it from startup recovery.
struct Server::SequenceState {
  std::unique_ptr<io::SequenceWriter> writer;
  std::unique_ptr<io::RequestLog> log;
  bool fresh_journal = true;
};

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      queue_(options_.queue_capacity),
      dedup_(options_.dedup_window) {}

Server::~Server() {
  if (running_.load(std::memory_order_acquire)) {
    request_drain();
    drain();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void Server::start() {
  if (running_.exchange(true))
    throw std::logic_error("Server::start called twice");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw NetError(NetErrc::kIoError, errno_text("socket"));
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw NetError(NetErrc::kIoError,
                   "bad bind address '" + options_.bind_address + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string text = errno_text("bind");
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw NetError(NetErrc::kIoError, text);
  }
  if (::listen(listen_fd_, 64) != 0) {
    const std::string text = errno_text("listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw NetError(NetErrc::kIoError, text);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0)
    port_ = ntohs(bound.sin_port);

  if (options_.output_dir) {
    std::filesystem::create_directories(*options_.output_dir);
    if (options_.recover_on_start) recover_store_on_start();
    staging_codecs_ = core::make_codecs("sz");
    core::StagingOptions staging_options;
    staging_options.output_dir = options_.output_dir;
    staging_options.max_queue = options_.staging_queue;
    staging_options.serialize.with_parity = options_.with_parity;
    staging_ = std::make_unique<core::StagingNode>(staging_codecs_.pair(),
                                                   staging_options);
    if (options_.scrub_interval.count() > 0)
      scrub_thread_ = std::thread([this] { scrub_loop(); });
  }

  std::size_t workers = options_.workers != 0
                            ? options_.workers
                            : std::min<std::size_t>(
                                  4, parallel::default_thread_count());
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::request_drain() noexcept {
  // Called from signal handlers: a lock-free atomic store only.  The
  // accept and session loops run on short poll ticks and observe it.
  draining_.store(true, std::memory_order_release);
}

void Server::wait_until_drained() {
  while (!draining_.load(std::memory_order_acquire))
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  drain();
}

void Server::drain() {
  std::lock_guard call_guard(drain_call_mutex_);
  if (drained_.load(std::memory_order_acquire) ||
      !running_.load(std::memory_order_acquire))
    return;
  draining_.store(true, std::memory_order_release);

  // 1. Stop accepting connections, and retire the background scrubber
  //    so no repair pass races the final sequence publishes.
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    std::lock_guard lock(scrub_mutex_);
    scrub_stop_ = true;
  }
  scrub_cv_.notify_all();
  if (scrub_thread_.joinable()) scrub_thread_.join();

  // 2. Finish every admitted request (queued, executing, or awaiting a
  //    staging callback).  Sessions that race past the draining check are
  //    covered: they bump outstanding_ *before* try_push.
  {
    std::unique_lock lock(drain_mutex_);
    drain_cv_.wait(lock, [this] {
      return outstanding_.load(std::memory_order_acquire) == 0;
    });
  }

  // 3. Retire the workers (pop() drains any stragglers, then nullopt).
  queue_.close();
  for (auto& worker : workers_)
    if (worker.joinable()) worker.join();
  workers_.clear();

  // 4. Flush the write-behind store and publish journaled sequences via
  //    the durable rename path.
  if (staging_) staging_->drain();
  finish_sequences();

  // 5. Tear down sessions.  No jobs remain, so no response can race the
  //    teardown; fds close when the last shared_ptr drops.
  stop_sessions_.store(true, std::memory_order_release);
  std::vector<std::shared_ptr<Session>> sessions;
  {
    std::lock_guard lock(sessions_mutex_);
    sessions.swap(sessions_);
  }
  for (auto& session : sessions)
    if (session->thread.joinable()) session->thread.join();
  sessions.clear();

  drained_.store(true, std::memory_order_release);
  running_.store(false, std::memory_order_release);
  obs::count("net.drains");
}

ServerStats Server::stats() const {
  std::lock_guard lock(stats_mutex_);
  return stats_;
}

// ---------------------------------------------------------------------------
// Self-healing: startup recovery + integrity scrubbing

void Server::recover_store_on_start() {
  io::SerializeOptions serialize_options;
  serialize_options.with_parity = options_.with_parity;
  io::RecoveryResult recovery =
      io::recover_store(*options_.output_dir, serialize_options);

  // Adopt the resumed journals as live writers: the next append to the
  // same store name continues byte-identically after the last committed
  // step, and the request log keeps extending the surviving intents.
  {
    std::lock_guard lock(sequences_mutex_);
    for (auto& [name, recovered] : recovery.sequences) {
      auto state = std::make_unique<SequenceState>();
      state->writer = std::move(recovered.writer);
      state->fresh_journal = false;
      sequences_[name] = std::move(state);
    }
  }

  // Seed the dedup window with the durable proofs: a client retrying a
  // tokened append across the crash replays the committed outcome.  The
  // replayed response reports the serialized step size and no method
  // name (the original computed values died with the old process) --
  // the documented contract is "applied exactly once", not "response
  // byte-identical".
  for (const auto& [token, replay] : recovery.replayable) {
    EncodeResponse response;
    response.stored = true;
    response.stored_bytes = replay.stored_bytes;
    response.stored_path = (*options_.output_dir / replay.sequence).string();
    remember_encode(token, response.encode());
  }

  {
    std::lock_guard lock(stats_mutex_);
    stats_.recovery_journals_resumed = recovery.report.journals_resumed;
    stats_.recovery_steps_recovered = recovery.report.steps_recovered;
    stats_.recovery_files_repaired = recovery.report.scrub.files_repaired;
    stats_.recovery_files_quarantined =
        recovery.report.journals_quarantined +
        recovery.report.scrub.files_quarantined;
    stats_.scrub_sections_checked = recovery.report.scrub.sections_checked;
    stats_.scrub_sections_repaired = recovery.report.scrub.sections_repaired;
    stats_.scrub_quarantined = recovery.report.scrub.files_quarantined;
  }
  for (const auto& note : recovery.report.notes)
    std::fprintf(stderr, "rmpd: recovery: %s\n", note.c_str());
  for (const auto& note : recovery.report.scrub.notes)
    std::fprintf(stderr, "rmpd: recovery: %s\n", note.c_str());
}

ScrubResponse Server::run_scrub_pass() {
  ScrubResponse response;
  if (!options_.output_dir) {
    response.detail = "server has no --output-dir; nothing to scrub";
    return response;
  }
  io::ScrubOptions scrub_options;
  {
    // Live sequences are the writer's territory: their journal is the
    // authoritative copy and the destination (if present) is the
    // previous complete archive -- skip both.
    std::lock_guard lock(sequences_mutex_);
    for (const auto& [name, state] : sequences_)
      scrub_options.skip.push_back(name);
  }
  const io::ScrubReport report =
      io::scrub_store(*options_.output_dir, scrub_options);

  response.files_checked = report.files_checked;
  response.sections_checked = report.sections_checked;
  response.sections_repaired = report.sections_repaired;
  response.files_repaired = report.files_repaired;
  response.files_quarantined = report.files_quarantined;
  // Cap the detail well under the wire limit (protocol.cpp caps decode
  // at 1 MiB); a huge store's notes are summarized, not truncated
  // mid-line.
  constexpr std::size_t kDetailCap = 256 * 1024;
  std::string detail;
  for (const auto& note : report.notes) {
    if (detail.size() + note.size() > kDetailCap) {
      detail += "... (more notes elided)\n";
      break;
    }
    detail += note;
    detail += '\n';
  }
  response.detail = std::move(detail);

  {
    std::lock_guard lock(stats_mutex_);
    ++stats_.scrub_passes;
    stats_.scrub_sections_checked += report.sections_checked;
    stats_.scrub_sections_repaired += report.sections_repaired;
    stats_.scrub_quarantined += report.files_quarantined;
  }
  obs::count("scrub.passes");
  return response;
}

void Server::scrub_loop() {
  obs::ScopedSpan span("rmpd/scrubber");
  std::unique_lock lock(scrub_mutex_);
  while (!scrub_stop_) {
    if (scrub_cv_.wait_for(lock, options_.scrub_interval,
                           [this] { return scrub_stop_; }))
      return;
    lock.unlock();
    try {
      run_scrub_pass();
    } catch (const std::exception& e) {
      // A failing pass must never take the scrubber (or server) down;
      // the next interval retries.
      obs::count("scrub.pass_failures");
      std::fprintf(stderr, "rmpd: scrub pass failed: %s\n", e.what());
    }
    lock.lock();
  }
}

// ---------------------------------------------------------------------------
// Accept / session plumbing

void Server::accept_loop() {
  while (!draining()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 200);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (rc == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN)
        continue;
      break;
    }
    if (draining()) {
      ::close(fd);
      continue;
    }

    std::lock_guard lock(sessions_mutex_);
    // Reap sessions whose loop has exited, so a long-lived server does
    // not accumulate joinable threads.
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        if ((*it)->thread.joinable()) (*it)->thread.join();
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
    if (sessions_.size() >= options_.max_sessions) {
      // Typed rejection, then close: the client learns *why*.
      const auto bytes = encode_frame(MsgType::kError, 0, 0,
                                      ErrorResponse{"session limit reached"}
                                          .encode(),
                                      Status::kBusy);
      (void)::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      ::close(fd);
      {
        std::lock_guard stats_lock(stats_mutex_);
        ++stats_.rejected_busy;
      }
      obs::count("net.sessions_rejected");
      continue;
    }
    auto session = std::make_shared<Session>();
    session->fd = fd;
    session->id = ++session_counter_;
    {
      std::lock_guard stats_lock(stats_mutex_);
      ++stats_.sessions_total;
      ++stats_.sessions_active;
    }
    obs::count("net.sessions");
    sessions_.push_back(session);
    session->thread =
        std::thread([this, session] { session_loop(session); });
  }
}

void Server::session_loop(const std::shared_ptr<Session>& session) {
  obs::ScopedSpan span("rmpd/session");
  FrameDecoder decoder;
  std::vector<std::uint8_t> buffer(64 * 1024);
  bool torn = false;
  bool failed = false;
  bool stalled = false;
  auto last_progress = std::chrono::steady_clock::now();
  while (!stop_sessions_.load(std::memory_order_acquire) &&
         session->alive.load(std::memory_order_acquire)) {
    pollfd pfd{session->fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 200);
    if (rc < 0) {
      if (errno == EINTR) continue;
      failed = true;
      break;
    }
    if (rc == 0) {
      // Slowloris defense: an idle connection is fine, but a connection
      // holding a HALF-READ frame hostage pins decoder memory and (at
      // the session cap) an admission slot.  No progress on a partial
      // frame within the deadline tears the session down.
      if (options_.read_stall_timeout.count() > 0 && decoder.buffered() > 0 &&
          std::chrono::steady_clock::now() - last_progress >=
              options_.read_stall_timeout) {
        stalled = true;
        break;
      }
      continue;
    }
    const auto n =
        ::recv(session->fd, buffer.data(), buffer.size(), 0);
    if (n == 0) {
      // Clean EOF: the client is done sending.  A partial frame left in
      // the decoder is a torn frame (mid-request disconnect); responses
      // for already-admitted requests still go out below.
      torn = decoder.buffered() > 0;
      break;
    }
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      failed = true;
      break;
    }
    last_progress = std::chrono::steady_clock::now();
    try {
      decoder.feed({buffer.data(), static_cast<std::size_t>(n)});
      while (auto frame = decoder.next())
        handle_frame(session, std::move(*frame));
    } catch (const NetError& e) {
      // Malformed bytes poison the decoder; answer with a typed error
      // (best effort) and tear the session down -- resynchronizing
      // inside a corrupt stream risks misparsing payloads as frames.
      {
        std::lock_guard lock(stats_mutex_);
        ++stats_.protocol_errors;
      }
      obs::count("net.protocol_errors");
      send_error(session, 0, Status::kBadRequest, e.what());
      failed = true;
      break;
    }
  }
  if (torn) {
    {
      std::lock_guard lock(stats_mutex_);
      ++stats_.protocol_errors;
    }
    obs::count("net.torn_frames");
  }
  if (stalled) {
    {
      std::lock_guard lock(stats_mutex_);
      ++stats_.stalled_sessions;
      ++stats_.protocol_errors;
    }
    obs::count("net.stalled_sessions");
    // Best effort: the half-frame has no request id, so the teardown
    // notice goes out unaddressed before the close.
    send_error(session, 0, Status::kBadRequest,
               "read stalled mid-frame; closing session");
  }
  if (failed || torn || stalled) {
    session->alive.store(false, std::memory_order_release);
    ::shutdown(session->fd, SHUT_RDWR);
  }
  {
    std::lock_guard lock(stats_mutex_);
    --stats_.sessions_active;
  }
  session->done.store(true, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Admission

void Server::handle_frame(const std::shared_ptr<Session>& session,
                          Frame frame) {
  const FrameHeader header = frame.header;
  switch (header.type) {
    case MsgType::kPing:
      send_frame(session, MsgType::kPong, header.request_id, {});
      return;
    case MsgType::kStats:
      send_stats(session, header.request_id);
      return;
    case MsgType::kEncode:
    case MsgType::kDecode:
    case MsgType::kVerify:
    case MsgType::kScrub:
      break;
    default: {
      std::lock_guard lock(stats_mutex_);
      ++stats_.protocol_errors;
    }
      send_error(session, header.request_id, Status::kBadRequest,
                 std::string("unexpected ") + to_string(header.type) +
                     " frame on the server side");
      return;
  }

  if (draining()) {
    {
      std::lock_guard lock(stats_mutex_);
      ++stats_.rejected_shutdown;
    }
    obs::count("net.rejected_shutdown");
    send_error(session, header.request_id, Status::kShuttingDown,
               "server is draining and accepts no new work");
    return;
  }

  // Byte-budget admission: the second shedding axis.  queue_capacity
  // bounds request *count*; this bounds the *payload bytes* buffered in
  // queued and executing jobs, so a burst of huge encodes is shed with a
  // typed BUSY (plus a backoff hint) instead of ballooning memory.
  const std::uint64_t payload_bytes = frame.payload.size();
  if (options_.max_inflight_bytes > 0 && payload_bytes > 0) {
    const std::uint64_t inflight =
        inflight_bytes_.fetch_add(payload_bytes, std::memory_order_acq_rel) +
        payload_bytes;
    if (inflight > options_.max_inflight_bytes) {
      inflight_bytes_.fetch_sub(payload_bytes, std::memory_order_acq_rel);
      {
        std::lock_guard lock(stats_mutex_);
        ++stats_.rejected_busy;
        stats_.admission_bytes_rejected += payload_bytes;
      }
      obs::count("net.rejected_busy");
      obs::count("admission.bytes_rejected", payload_bytes);
      send_error(session, header.request_id, Status::kBusy,
                 std::to_string(payload_bytes) +
                     " payload bytes would exceed the in-flight budget (" +
                     std::to_string(options_.max_inflight_bytes) +
                     "); retry",
                 retry_after_hint());
      return;
    }
    obs::gauge_max("net.inflight_bytes_peak", inflight);
  }

  Job job;
  job.session = session;
  if (header.deadline_ms > 0)
    job.deadline = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(header.deadline_ms);
  job.frame = std::move(frame);
  job.bytes = options_.max_inflight_bytes > 0 ? payload_bytes : 0;
  const std::uint64_t charged = job.bytes;

  // outstanding_ rises before admission so drain()'s wait covers a job
  // even in the instant between push and pop.
  outstanding_.fetch_add(1, std::memory_order_acq_rel);
  switch (queue_.try_push(std::move(job))) {
    case BoundedQueue<Job>::Push::kAccepted: {
      {
        std::lock_guard lock(stats_mutex_);
        ++stats_.accepted;
      }
      obs::count("net.accepted");
      obs::gauge_max("net.queue_peak", queue_.depth());
      return;
    }
    case BoundedQueue<Job>::Push::kBusy: {
      {
        std::lock_guard lock(stats_mutex_);
        ++stats_.rejected_busy;
      }
      obs::count("net.rejected_busy");
      send_error(session, header.request_id, Status::kBusy,
                 "request queue full (" +
                     std::to_string(queue_.capacity()) + " deep); retry",
                 retry_after_hint());
      if (charged > 0)
        inflight_bytes_.fetch_sub(charged, std::memory_order_acq_rel);
      release_outstanding();
      return;
    }
    case BoundedQueue<Job>::Push::kClosed: {
      {
        std::lock_guard lock(stats_mutex_);
        ++stats_.rejected_shutdown;
      }
      obs::count("net.rejected_shutdown");
      send_error(session, header.request_id, Status::kShuttingDown,
                 "server is draining and accepts no new work");
      if (charged > 0)
        inflight_bytes_.fetch_sub(charged, std::memory_order_acq_rel);
      release_outstanding();
      return;
    }
  }
}

std::uint32_t Server::retry_after_hint() const noexcept {
  // Scale the hint with load so a fleet of rejected clients spreads its
  // retries instead of stampeding back in lockstep.
  const std::uint64_t backlog =
      outstanding_.load(std::memory_order_acquire) + 1;
  return static_cast<std::uint32_t>(std::min<std::uint64_t>(25 * backlog,
                                                            5'000));
}

// ---------------------------------------------------------------------------
// Workers

void Server::worker_loop() {
  while (auto job = queue_.pop()) {
    if (options_.debug_stall.count() > 0)
      std::this_thread::sleep_for(options_.debug_stall);
    process_job(*job);
  }
}

void Server::process_job(Job& job) {
  const FrameHeader& header = job.frame.header;
  obs::ScopedSpan span(std::string("rmpd/request/") + to_string(header.type));

  if (job.deadline && std::chrono::steady_clock::now() >= *job.deadline) {
    {
      std::lock_guard lock(stats_mutex_);
      ++stats_.deadline_missed;
    }
    obs::count("net.deadline_missed");
    send_error(job.session, header.request_id, Status::kDeadlineExceeded,
               "deadline expired before the request started");
    job_finished(false, job.bytes);
    return;
  }

  try {
    switch (header.type) {
      case MsgType::kEncode:
        handle_encode(job);  // owns its completion (async store path)
        return;
      case MsgType::kDecode:
        handle_decode(job);
        break;
      case MsgType::kVerify:
        handle_verify(job);
        break;
      case MsgType::kScrub:
        handle_scrub(job);
        break;
      default:
        send_error(job.session, header.request_id, Status::kBadRequest,
                   "unhandled request type");
        job_finished(false, job.bytes);
        return;
    }
    job_finished(true, job.bytes);
  } catch (const NetError& e) {
    send_error(job.session, header.request_id, Status::kBadRequest, e.what());
    job_finished(false, job.bytes);
  } catch (const io::ContainerError& e) {
    Status status = Status::kIntegrityError;
    if (e.code() == io::ContainerErrc::kDeadlineExceeded) {
      status = Status::kDeadlineExceeded;
      {
        std::lock_guard lock(stats_mutex_);
        ++stats_.deadline_missed;
      }
      obs::count("net.deadline_missed");
    } else if (e.code() == io::ContainerErrc::kIoError) {
      status = Status::kIoError;
    }
    send_error(job.session, header.request_id, status, e.what());
    job_finished(false, job.bytes);
  } catch (const compress::CodecError& e) {
    // A codec stream that does not parse is damaged archive bytes.
    send_error(job.session, header.request_id, Status::kIntegrityError,
               e.what());
    job_finished(false, job.bytes);
  } catch (const core::PreconditionError& e) {
    send_error(job.session, header.request_id, Status::kPreconditionError,
               e.what());
    job_finished(false, job.bytes);
  } catch (const std::invalid_argument& e) {
    send_error(job.session, header.request_id, Status::kBadRequest, e.what());
    job_finished(false, job.bytes);
  } catch (const std::exception& e) {
    send_error(job.session, header.request_id, Status::kInternalError,
               e.what());
    job_finished(false, job.bytes);
  }
}

void Server::handle_scrub(Job& job) {
  const ScrubResponse response = run_scrub_pass();
  send_frame(job.session, MsgType::kScrubResult, job.frame.header.request_id,
             response.encode());
}

void Server::handle_encode(Job& job) {
  EncodeRequest request = EncodeRequest::decode(job.frame.payload);

  // Idempotent retry: a token we already completed replays the cached
  // outcome -- the side effect (most importantly a sequence append)
  // happened exactly once.  For sequence stores the authoritative
  // re-check runs under sequences_mutex_ in encode_to_sequence; this
  // early check spares the whole encode pipeline for the common retry.
  if (replay_encode(job, request.request_token)) return;

  EncodeResponse response;
  io::Container container = encode_field(request, response);
  switch (request.store) {
    case StoreMode::kReturn:
      return encode_inline(job, request.request_token, container,
                           std::move(response));
    case StoreMode::kFile:
      return encode_to_file(job, request, std::move(container),
                            std::move(response));
    case StoreMode::kSequence:
      return encode_to_sequence(job, request, container, std::move(response));
  }
  throw NetError(NetErrc::kMalformedPayload, "unknown store mode");
}

bool Server::replay_encode(Job& job, std::uint64_t token) {
  if (token == 0) return false;
  const auto cached = dedup_.lookup(token);
  if (!cached) return false;
  send_frame(job.session, cached->type, job.frame.header.request_id,
             cached->payload, cached->status);
  job_finished(true, job.bytes);
  return true;
}

void Server::remember_encode(std::uint64_t token,
                             const std::vector<std::uint8_t>& payload) {
  if (token != 0)
    dedup_.insert(token, DedupWindow::CachedResponse{MsgType::kEncodeResult,
                                                     Status::kOk, payload});
}

void Server::encode_inline(Job& job, std::uint64_t token,
                           const io::Container& container,
                           EncodeResponse response) {
  io::SerializeOptions serialize_options;
  serialize_options.with_parity = options_.with_parity;
  response.container = io::serialize(container, serialize_options);
  response.stored_bytes = response.container.size();
  const auto payload = response.encode();
  // In-memory-only dedup for stateless responses: re-execution after a
  // restart is harmless (no server-side state), so these entries need no
  // durable intent log (DESIGN.md §14 non-guarantees).
  remember_encode(token, payload);
  send_frame(job.session, MsgType::kEncodeResult, job.frame.header.request_id,
             payload);
  job_finished(true, job.bytes);
}

void Server::encode_to_file(Job& job, const EncodeRequest& request,
                            io::Container container, EncodeResponse response) {
  store_path(options_.output_dir, request.store_name);  // validates only
  response.stored = true;
  core::StagingJob staging_job;
  staging_job.container = std::move(container);
  staging_job.name = request.store_name;
  staging_job.retry.emplace().deadline = job.deadline;
  staging_job.on_complete =
      [this, session = job.session,
       request_id = job.frame.header.request_id, job_bytes = job.bytes,
       token = request.request_token, response = std::move(response)](
          const core::StagingJobResult& result) mutable {
        if (result.ok) {
          response.stored_bytes = result.bytes_out;
          response.stored_path = result.path.string();
          const auto payload = response.encode();
          // kFile stores are atomic re-publishes of a whole file -- a
          // re-executed retry overwrites with identical content, so the
          // in-memory window is a fast path, not a correctness
          // requirement (unlike sequence appends).
          remember_encode(token, payload);
          send_frame(session, MsgType::kEncodeResult, request_id, payload);
          job_finished(true, job_bytes);
          return;
        }
        Status status = Status::kInternalError;
        switch (result.error_kind) {
          case core::StagingErrorKind::kDeadlineExceeded:
            status = Status::kDeadlineExceeded;
            {
              std::lock_guard lock(stats_mutex_);
              ++stats_.deadline_missed;
            }
            obs::count("net.deadline_missed");
            break;
          case core::StagingErrorKind::kIoError:
            status = Status::kIoError;
            break;
          case core::StagingErrorKind::kPrecondition:
            status = Status::kPreconditionError;
            break;
          default:
            break;
        }
        send_error(session, request_id, status, result.error);
        job_finished(false, job_bytes);
      };
  // Blocking submit is safe here: only worker threads reach this, and the
  // staging queue bound is the write-behind backpressure.  Completion
  // rides the callback.
  staging_->submit(std::move(staging_job));
}

void Server::encode_to_sequence(Job& job, const EncodeRequest& request,
                                const io::Container& container,
                                EncodeResponse response) {
  const std::filesystem::path destination =
      store_path(options_.output_dir, request.store_name);
  const std::uint64_t token = request.request_token;
  io::RetryPolicy retry;
  retry.deadline = job.deadline;
  std::size_t step = 0;
  std::vector<std::uint8_t> payload;
  {
    // Everything that makes a tokened append exactly-once runs under this
    // lock: the window re-check (coalesces a concurrent duplicate), the
    // fsync'd intent, the append, and the window insert.
    std::lock_guard lock(sequences_mutex_);
    if (replay_encode(job, token)) return;
    SequenceState& state = sequence_state(request.store_name);
    state.writer->set_retry(retry);
    if (token != 0) {
      if (!state.log) {
        state.log = std::make_unique<io::RequestLog>(io::RequestLog::open(
            destination, state.fresh_journal, retry));
        state.fresh_journal = false;
      } else {
        state.log->set_retry(retry);
      }
      // Intent BEFORE append: if we die between the two, recovery sees
      // step == committed count and drops the intent (the retry
      // re-executes); if we die after the append's commit fsync, it sees
      // step < committed and replays.  Either way: exactly once.
      state.log->record(token, state.writer->steps_written());
    }
    try {
      step = state.writer->append(container);
    } catch (...) {
      // The append did not commit; withdraw the intent so the step index
      // cannot be aliased by a later request's append.
      if (token != 0 && state.log) state.log->rollback_last();
      throw;
    }
    response.stored = true;
    response.stored_bytes = container.payload_bytes();
    response.stored_path = destination.string();
    payload = response.encode();
    remember_encode(token, payload);
  }
  send_frame(job.session, MsgType::kEncodeResult, job.frame.header.request_id,
             payload);
  obs::gauge_max("net.sequence_steps", step + 1);
  job_finished(true, job.bytes);
}

std::shared_ptr<StoreReadCache> Server::store_read_cache(
    const std::string& name, const std::filesystem::path& path) {
  std::error_code ec;
  const std::uint64_t size = std::filesystem::file_size(path, ec);
  if (ec)
    throw NetError(NetErrc::kIoError,
                   "store '" + name + "': " + ec.message());
  std::lock_guard lock(store_readers_mutex_);
  auto it = store_readers_.find(name);
  if (it != store_readers_.end() && it->second->file_size == size)
    return it->second;
  // New store, or a writer re-published it (size changed): (re)open.  A
  // file without a sequence trailer is a plain container store, not an
  // error -- signalled by nullptr so the caller takes the whole-file
  // decode path.
  try {
    auto cache = std::make_shared<StoreReadCache>(size, path);
    store_readers_[name] = cache;
    return cache;
  } catch (const io::ContainerError& error) {
    if (error.code() == io::ContainerErrc::kIndexCorrupt) {
      store_readers_.erase(name);
      return nullptr;
    }
    throw;
  }
}

void Server::handle_decode(Job& job) {
  DecodeRequest request = DecodeRequest::decode(job.frame.payload);
  const core::Codecs codecs = core::make_codecs(request.codec);

  // Resolve the archive first: inline bytes, a whole plain-container
  // store, or one step of a sequence store -- an exact read of which
  // goes through the shared chunk cache (`chunk`).
  core::ChunkPtr chunk;
  if (!request.store_name.empty()) {
    const std::filesystem::path path =
        store_path(options_.output_dir, request.store_name);
    if (const auto cache = store_read_cache(request.store_name, path)) {
      if (request.step >= cache->reader.step_count())
        throw NetError(NetErrc::kMalformedPayload,
                       "store '" + request.store_name + "' has " +
                           std::to_string(cache->reader.step_count()) +
                           " steps; step " + std::to_string(request.step) +
                           " requested");
      const auto step = static_cast<std::size_t>(request.step);
      if (request.best_effort)
        request.container = cache->reader.read_step_bytes(step);
      else
        chunk = cache->fetcher.get(step);
    } else {
      std::ifstream in(path, std::ios::binary);
      if (!in)
        throw NetError(NetErrc::kIoError,
                       "store '" + request.store_name + "': cannot open " +
                           path.string());
      request.container.assign(std::istreambuf_iterator<char>(in),
                               std::istreambuf_iterator<char>());
    }
  }

  DecodeResponse response;
  sim::Field field;
  if (request.best_effort) {
    auto result = core::reconstruct_best_effort(
        std::span<const std::uint8_t>(request.container), codecs.pair());
    if (!result.exact) response.detail = result.detail;
    field = std::move(result.field);
  } else if (chunk) {
    field = core::reconstruct(*chunk, codecs.pair());
  } else {
    field = core::reconstruct(io::deserialize(request.container),
                              codecs.pair());
  }
  response.nx = field.nx();
  response.ny = field.ny();
  response.nz = field.nz();
  response.data = std::move(field.storage());
  send_frame(job.session, MsgType::kDecodeResult, job.frame.header.request_id,
             response.encode());
}

void Server::handle_verify(Job& job) {
  const VerifyRequest request = VerifyRequest::decode(job.frame.payload);
  io::ReadReport report;
  io::deserialize_salvage(request.container, &report);
  VerifyResponse response;
  response.complete = report.complete();
  response.repaired = report.repaired();
  response.version = report.version;
  std::string detail;
  for (const auto& section : report.sections) {
    detail += section.name;
    detail += ' ';
    detail += std::to_string(section.bytes);
    detail += ' ';
    detail += io::to_string(section.state);
    detail += '\n';
  }
  response.detail = std::move(detail);
  send_frame(job.session, MsgType::kVerifyResult, job.frame.header.request_id,
             response.encode());
}

// ---------------------------------------------------------------------------
// Responses

void Server::send_stats(const std::shared_ptr<Session>& session,
                        std::uint64_t request_id) {
  StatsResponse response;
  {
    std::lock_guard lock(stats_mutex_);
#define RMP_STATS_COPY(name) response.name = stats_.name;
#define RMP_STATS_SKIP(name)
    RMP_STATS_FIELDS(RMP_STATS_COPY, RMP_STATS_SKIP)
#undef RMP_STATS_COPY
#undef RMP_STATS_SKIP
  }
  response.queue_depth = queue_.depth();
  response.queue_capacity = queue_.capacity();
  const DedupWindow::Stats dedup = dedup_.stats();
  response.dedup_hits = dedup.hits;
  response.dedup_evictions = dedup.evictions;
  response.dedup_entries = dedup.entries;
  response.inflight_bytes = inflight_bytes_.load(std::memory_order_acquire);
  response.max_inflight_bytes = options_.max_inflight_bytes;
  response.obs_json = obs::Registry::global().to_json();
  send_frame(session, MsgType::kStatsResult, request_id, response.encode());
}

void Server::send_error(const std::shared_ptr<Session>& session,
                        std::uint64_t request_id, Status status,
                        const std::string& message,
                        std::uint32_t retry_after_ms) {
  ErrorResponse error{message};
  error.retry_after_ms = retry_after_ms;
  send_frame(session, MsgType::kError, request_id, error.encode(), status);
}

void Server::send_frame(const std::shared_ptr<Session>& session, MsgType type,
                        std::uint64_t request_id,
                        std::span<const std::uint8_t> payload, Status status) {
  if (!session) return;
  const auto bytes = encode_frame(type, request_id, 0, payload, status);
  std::lock_guard lock(session->write_mutex);
  if (!session->alive.load(std::memory_order_acquire)) return;
  std::size_t offset = 0;
  while (offset < bytes.size()) {
    const auto n = ::send(session->fd, bytes.data() + offset,
                          bytes.size() - offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      // Mid-response disconnect: mark the session dead so later
      // responses stop trying, and account for it.  Never throws -- a
      // gone client must not take a worker down.
      session->alive.store(false, std::memory_order_release);
      {
        std::lock_guard stats_lock(stats_mutex_);
        ++stats_.send_failures;
      }
      obs::count("net.send_failures");
      return;
    }
    offset += static_cast<std::size_t>(n);
  }
}

// ---------------------------------------------------------------------------
// Durable sequences + bookkeeping

Server::SequenceState& Server::sequence_state(const std::string& name) {
  auto it = sequences_.find(name);
  if (it == sequences_.end()) {
    io::SerializeOptions serialize_options;
    serialize_options.with_parity = options_.with_parity;
    auto state = std::make_unique<SequenceState>();
    state->writer = std::make_unique<io::SequenceWriter>(
        *options_.output_dir / name, serialize_options);
    state->fresh_journal = true;
    it = sequences_.emplace(name, std::move(state)).first;
  }
  return *it->second;
}

void Server::finish_sequences() {
  std::lock_guard lock(sequences_mutex_);
  for (auto& [name, state] : sequences_) {
    try {
      // Clear any stale per-request deadline: the final publish runs on
      // the drain's budget, not a long-finished request's.
      state->writer->set_retry(io::RetryPolicy{});
      state->writer->finish();
      // The archive is published: its request log's intents are all
      // provable from the archive itself, and a clean shutdown ends the
      // retry window -- retire the sidecar.
      if (state->log) {
        state->log.reset();
        std::error_code ec;
        std::filesystem::remove(
            io::request_log_path(*options_.output_dir / name), ec);
      }
    } catch (const std::exception& e) {
      obs::count("net.sequence_finish_failures");
      std::fprintf(stderr, "rmpd: publishing sequence '%s' failed: %s\n",
                   name.c_str(), e.what());
    }
  }
  sequences_.clear();
}

void Server::job_finished(bool ok, std::uint64_t bytes) {
  {
    std::lock_guard lock(stats_mutex_);
    if (ok)
      ++stats_.completed;
    else
      ++stats_.failed;
  }
  obs::count(ok ? "net.completed" : "net.failed");
  if (bytes > 0) inflight_bytes_.fetch_sub(bytes, std::memory_order_acq_rel);
  release_outstanding();
}

void Server::release_outstanding() {
  if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    {
      std::lock_guard lock(drain_mutex_);
    }
    drain_cv_.notify_all();
  }
}

// ---------------------------------------------------------------------------
// Daemon front end

namespace {

std::atomic<Server*> g_drain_target{nullptr};

void drain_signal_handler(int) {
  // Async-signal-safe: request_drain is a lock-free atomic store.
  if (Server* server = g_drain_target.load()) server->request_drain();
}

}  // namespace

int run_daemon(const ServerOptions& options,
               const std::optional<std::filesystem::path>& port_file) {
  std::signal(SIGPIPE, SIG_IGN);

  Server server(options);
  server.start();
  std::printf("rmpd: listening on %s:%u\n", options.bind_address.c_str(),
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);
  if (port_file) {
    // Written atomically so a harness polling the file never reads an
    // empty or partial port number.
    std::filesystem::path tmp = *port_file;
    tmp += ".tmp";
    {
      std::ofstream out(tmp);
      out << server.port() << "\n";
    }
    std::filesystem::rename(tmp, *port_file);
  }

  g_drain_target.store(&server);
  struct sigaction action {};
  action.sa_handler = drain_signal_handler;
  sigemptyset(&action.sa_mask);
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);

  server.wait_until_drained();

  g_drain_target.store(nullptr);
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
  std::printf("rmpd: drained cleanly\n");
  std::fflush(stdout);
  return 0;
}

}  // namespace rmp::net
