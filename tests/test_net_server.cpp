// In-process rmpd server robustness tests (DESIGN.md §11): round trips,
// typed BUSY under saturation, end-to-end deadlines, protocol-fault
// session teardown, and graceful-drain semantics.  The server binds
// 127.0.0.1 on an ephemeral port per test; raw-socket helpers speak the
// wire protocol directly where a well-behaved Client cannot express the
// misbehavior under test (garbage bytes, torn frames).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "io/container.hpp"
#include "io/sequence_file.hpp"
#include "io/store_health.hpp"
#include "net/client.hpp"
#include "net/net_error.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"

namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;
using namespace rmp;
using net::Client;
using net::ClientOptions;
using net::MsgType;
using net::NetErrc;
using net::NetError;
using net::RemoteError;
using net::Server;
using net::ServerOptions;
using net::Status;

/// Poll `pred` until it holds (returns true) or 5 s pass (returns false).
/// Server counters update after the response is sent, so tests that
/// assert on stats after a client round trip must tolerate a short skew.
bool wait_for(const std::function<bool()>& pred) {
  const auto give_up = std::chrono::steady_clock::now() + 5s;
  while (std::chrono::steady_clock::now() < give_up) {
    if (pred()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return pred();
}

net::EncodeRequest small_encode_request() {
  net::EncodeRequest request;
  request.method = "pca";
  request.nx = 16;
  request.ny = 16;
  request.nz = 16;
  request.data.resize(16 * 16 * 16);
  for (std::size_t i = 0; i < request.data.size(); ++i) {
    request.data[i] = std::sin(0.01 * static_cast<double>(i)) * 40.0;
  }
  return request;
}

ClientOptions client_options(const Server& server,
                             std::chrono::milliseconds deadline = 0ms) {
  ClientOptions options;
  options.port = server.port();
  options.deadline = deadline;
  return options;
}

/// A raw TCP connection for speaking deliberately-broken protocol.
class RawConn {
 public:
  explicit RawConn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    // Never let a misbehaving server wedge the test binary.
    timeval timeout{5, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }
  void send(const std::vector<std::uint8_t>& bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
  }
  /// Read everything until the peer closes its end (EOF); returns the
  /// collected bytes.  Sets `*closed` true iff EOF was reached.
  std::vector<std::uint8_t> recv_until_close(bool* closed) {
    std::vector<std::uint8_t> out;
    *closed = false;
    while (true) {
      std::uint8_t chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n == 0) {
        *closed = true;
        break;
      }
      if (n < 0) break;
      out.insert(out.end(), chunk, chunk + n);
    }
    return out;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

TEST(NetServer, PingEncodeDecodeVerifyRoundTrip) {
  Server server(ServerOptions{});
  server.start();
  Client client(client_options(server));
  client.ping();

  const auto request = small_encode_request();
  const auto encoded = client.encode(request);
  EXPECT_FALSE(encoded.stored);
  EXPECT_FALSE(encoded.container.empty());
  EXPECT_LT(encoded.container.size(), request.data.size() * sizeof(double));

  net::DecodeRequest decode_request;
  decode_request.container = encoded.container;
  const auto decoded = client.decode(decode_request);
  EXPECT_EQ(decoded.nx, 16u);
  ASSERT_EQ(decoded.data.size(), request.data.size());
  for (std::size_t i = 0; i < decoded.data.size(); ++i) {
    ASSERT_NEAR(decoded.data[i], request.data[i], 0.05) << i;
  }

  net::VerifyRequest verify_request;
  verify_request.container = encoded.container;
  const auto verdict = client.verify(verify_request);
  EXPECT_TRUE(verdict.complete);
  EXPECT_FALSE(verdict.repaired);

  EXPECT_TRUE(wait_for([&] { return server.stats().completed == 3; }));
  const auto stats = client.stats();
  EXPECT_EQ(stats.accepted, 3u);  // ping/stats bypass the queue
  EXPECT_EQ(stats.failed, 0u);
}

TEST(NetServer, MalformedRequestGetsBadRequestNotTeardown) {
  Server server(ServerOptions{});
  server.start();
  Client client(client_options(server));
  net::EncodeRequest request = small_encode_request();
  request.method = "no-such-method";
  try {
    (void)client.encode(request);
    FAIL() << "bogus method accepted";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.status(), Status::kBadRequest) << e.what();
  }
  // Application-level rejection is not a protocol error: the session
  // survives and the next request on the same connection succeeds.
  client.ping();
  EXPECT_TRUE(wait_for([&] { return server.stats().failed == 1; }));
  EXPECT_EQ(server.stats().protocol_errors, 0u);
}

TEST(NetServer, DamagedContainerYieldsIntegrityStatus) {
  Server server(ServerOptions{});
  server.start();
  Client client(client_options(server));
  net::DecodeRequest request;
  request.container = {'n', 'o', 't', ' ', 'a', 'n', ' ', 'r', 'm', 'p'};
  try {
    (void)client.decode(request);
    FAIL() << "garbage container decoded";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.status(), Status::kIntegrityError) << e.what();
  }
}

// A codec stream cut short under a valid container CRC is damaged archive
// bytes, answered as an integrity error rather than an internal one.
TEST(NetServer, TruncatedDeltaStreamYieldsIntegrityStatus) {
  Server server(ServerOptions{});
  server.start();
  Client client(client_options(server));
  io::Container container =
      io::deserialize(client.encode(small_encode_request()).container);
  for (auto& section : container.sections) {
    if (section.name == "delta") section.bytes.resize(section.bytes.size() / 2);
  }
  net::DecodeRequest request;
  request.container = io::serialize(container);
  try {
    (void)client.decode(request);
    FAIL() << "truncated delta decoded";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.status(), Status::kIntegrityError) << e.what();
  }
}

TEST(NetServer, SaturationYieldsTypedBusy) {
  // One worker stalled 600 ms per job + a queue of one: the first request
  // occupies the worker, the second fills the queue, the third must be
  // rejected BUSY immediately (not queued, not blocked).
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  options.debug_stall = 600ms;
  Server server(options);
  server.start();

  const auto request = small_encode_request();

  Client a(client_options(server));
  Client b(client_options(server));
  Client c(client_options(server));
  std::thread first([&] { (void)a.encode(request); });
  // Wait until the worker holds the first job (popped, queue empty again).
  ASSERT_TRUE(wait_for([&] {
    return server.stats().accepted >= 1 && server.queue_depth() == 0;
  }));
  std::thread second([&] { (void)b.encode(request); });
  // Wait until the second job fills the queue's single slot.
  ASSERT_TRUE(wait_for([&] { return server.queue_depth() == 1; }));

  bool busy = false;
  try {
    (void)c.encode(request);
  } catch (const RemoteError& e) {
    busy = e.status() == Status::kBusy;
    EXPECT_EQ(e.status(), Status::kBusy) << e.what();
  }
  EXPECT_TRUE(busy) << "saturated server accepted a third request";
  first.join();
  second.join();

  const auto stats = server.stats();
  EXPECT_GE(stats.rejected_busy, 1u);
}

TEST(NetServer, ExpiredDeadlineIsRefusedAtPickup) {
  ServerOptions options;
  options.workers = 1;
  options.debug_stall = 250ms;  // job sits past its 50 ms budget
  Server server(options);
  server.start();
  Client client(client_options(server, /*deadline=*/50ms));
  try {
    (void)client.encode(small_encode_request());
    FAIL() << "expired deadline produced a result";
  } catch (const NetError& e) {
    // Either side may win the race: the server refuses to start the job
    // (RemoteError kDeadlineExceeded) or the client's local receive
    // budget runs out first.  Both are the deadline class.
    EXPECT_EQ(e.code(), NetErrc::kDeadlineExceeded) << e.what();
  }
  // The server keeps serving afterwards.
  Client fresh(client_options(server));
  fresh.ping();
  // The worker records the job's outcome only after its stall; wait for
  // the books to balance instead of racing them.
  EXPECT_TRUE(wait_for([&] {
    const auto stats = server.stats();
    return stats.deadline_missed + stats.completed == stats.accepted;
  }));
  EXPECT_GE(server.stats().deadline_missed, 1u);
}

TEST(NetServer, GarbageHeaderTearsSessionDownTyped) {
  Server server(ServerOptions{});
  server.start();
  RawConn conn(server.port());
  ASSERT_TRUE(conn.connected());
  std::vector<std::uint8_t> garbage(64, 0x5A);
  conn.send(garbage);
  // The server answers with a typed error frame, then closes.
  bool closed = false;
  const auto reply = conn.recv_until_close(&closed);
  EXPECT_TRUE(closed) << "server left the session open after garbage";
  ASSERT_GE(reply.size(), net::kFrameHeaderBytes);
  net::FrameDecoder decoder;
  decoder.feed(reply);
  const auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->header.type, MsgType::kError);
  EXPECT_EQ(frame->header.status, Status::kBadRequest);

  // The server survives and other sessions are unaffected.
  Client client(client_options(server));
  client.ping();
  EXPECT_GE(server.stats().protocol_errors, 1u);
}

TEST(NetServer, TornFrameOnDisconnectCountsAsProtocolError) {
  Server server(ServerOptions{});
  server.start();
  {
    RawConn conn(server.port());
    ASSERT_TRUE(conn.connected());
    const auto wire = net::encode_frame(MsgType::kPing, 1, 0, {});
    conn.send({wire.begin(), wire.begin() + 12});  // torn mid-header
  }  // disconnect with buffered bytes
  // Teardown is asynchronous; poll the counter briefly.
  bool counted = false;
  for (int i = 0; i < 100 && !counted; ++i) {
    counted = server.stats().protocol_errors >= 1;
    if (!counted) std::this_thread::sleep_for(20ms);
  }
  EXPECT_TRUE(counted);
  Client client(client_options(server));
  client.ping();  // still alive
}

TEST(NetServer, CleanDisconnectBetweenFramesIsNotAnError) {
  Server server(ServerOptions{});
  server.start();
  {
    Client client(client_options(server));
    client.ping();
  }  // client hangs up cleanly
  std::this_thread::sleep_for(100ms);
  EXPECT_EQ(server.stats().protocol_errors, 0u);
}

TEST(NetServer, DrainFinishesAdmittedWorkAndRefusesNew) {
  ServerOptions options;
  options.workers = 1;
  options.debug_stall = 200ms;
  Server server(options);
  server.start();

  Client client(client_options(server));
  net::EncodeResponse admitted_result;
  std::thread admitted([&] {
    try {
      admitted_result = client.encode(small_encode_request());
    } catch (const std::exception& e) {
      ADD_FAILURE() << "admitted request did not complete: " << e.what();
    }
  });
  // A second session established BEFORE the drain: the drain must answer
  // its requests with the typed SHUTTING_DOWN rejection.  (Connections
  // arriving after the drain starts are simply not accepted.)
  Client late(client_options(server));
  late.ping();
  ASSERT_TRUE(wait_for([&] { return server.stats().accepted >= 1; }));

  server.request_drain();
  EXPECT_TRUE(server.draining());

  try {
    (void)late.encode(small_encode_request());
    ADD_FAILURE() << "draining server accepted new work";
  } catch (const NetError& e) {
    EXPECT_EQ(e.code(), NetErrc::kShuttingDown) << e.what();
  }

  server.drain();
  admitted.join();
  // The admitted request completed with a full response despite the drain.
  EXPECT_FALSE(admitted_result.container.empty());
  const auto stats = server.stats();
  EXPECT_GE(stats.rejected_shutdown, 1u);
  EXPECT_GE(stats.completed, 1u);
}

TEST(NetServer, StoreModeIsDurableAndSequencesPublishOnDrain) {
  const fs::path dir =
      fs::temp_directory_path() / "rmpd_store_test" /
      std::to_string(::getpid());
  fs::remove_all(dir.parent_path());
  ServerOptions options;
  options.output_dir = dir;
  Server server(options);
  server.start();
  {
    Client client(client_options(server));
    auto request = small_encode_request();
    request.store = net::StoreMode::kFile;
    request.store_name = "stored.rmp";
    const auto response = client.encode(request);
    EXPECT_TRUE(response.stored);
    // The response is only released after the bytes are durable.
    EXPECT_TRUE(fs::exists(dir / "stored.rmp"));

    request.store = net::StoreMode::kSequence;
    request.store_name = "steps.rmps";
    (void)client.encode(request);
    (void)client.encode(request);
    // Journaled, not yet published.
    EXPECT_TRUE(fs::exists(dir / "steps.rmps.part"));
  }
  server.drain();
  EXPECT_TRUE(fs::exists(dir / "steps.rmps"));
  EXPECT_FALSE(fs::exists(dir / "steps.rmps.part"));
  fs::remove_all(dir.parent_path());
}

TEST(NetServer, StoreNameEscapingTheOutputDirIsRejected) {
  const fs::path dir = fs::temp_directory_path() / "rmpd_escape_test" /
                       std::to_string(::getpid());
  fs::remove_all(dir.parent_path());
  ServerOptions options;
  options.output_dir = dir;
  Server server(options);
  server.start();
  Client client(client_options(server));
  for (const std::string name : {"../evil.rmp", "a/b.rmp", ".hidden"}) {
    auto request = small_encode_request();
    request.store = net::StoreMode::kFile;
    request.store_name = name;
    try {
      (void)client.encode(request);
      ADD_FAILURE() << "store name accepted: " << name;
    } catch (const RemoteError& e) {
      EXPECT_EQ(e.status(), Status::kBadRequest) << name;
    }
  }
  fs::remove_all(dir.parent_path());
}

TEST(NetServer, StoreWithoutOutputDirIsBadRequest) {
  Server server(ServerOptions{});
  server.start();
  Client client(client_options(server));
  auto request = small_encode_request();
  request.store = net::StoreMode::kFile;
  request.store_name = "x.rmp";
  try {
    (void)client.encode(request);
    FAIL() << "bytes-only server accepted a store request";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.status(), Status::kBadRequest);
  }
}

TEST(NetServer, ManyConcurrentClientsAllComplete) {
  ServerOptions options;
  options.queue_capacity = 64;
  Server server(options);
  server.start();
  constexpr int kClients = 8;
  constexpr int kRequests = 4;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&] {
      Client client(client_options(server));
      for (int r = 0; r < kRequests; ++r) {
        const auto response = client.encode(small_encode_request());
        if (!response.container.empty()) ok.fetch_add(1);
      }
    });
  }
  for (auto& thread : clients) thread.join();
  EXPECT_EQ(ok.load(), kClients * kRequests);
  // completed is incremented after each response goes out; allow the
  // last worker a moment to balance the books.
  EXPECT_TRUE(wait_for([&] {
    return server.stats().completed ==
           static_cast<std::uint64_t>(kClients * kRequests);
  }));
  EXPECT_EQ(server.stats().failed, 0u);
  server.drain();
}

// ---------------------------------------------------------------------------
// Self-healing surface (DESIGN.md §14)

TEST(NetServer, ByteBudgetAdmissionShedsWithRetryAfterHint) {
  // A budget that fits one 32 KiB encode payload but not two: the second
  // concurrent request must be shed with a typed BUSY carrying a
  // retry_after_ms hint, while the queue (counting requests) still has
  // plenty of room.
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 16;
  // The stall is the window in which the first request pins the budget;
  // it must outlast client b's connect+send even on a loaded CI box, or
  // the budget frees early and nothing is shed.
  options.debug_stall = 1000ms;
  options.max_inflight_bytes = 40'000;
  Server server(options);
  server.start();

  const auto request = small_encode_request();
  Client a(client_options(server));
  std::thread first([&] { (void)a.encode(request); });
  ASSERT_TRUE(wait_for([&] { return server.stats().accepted >= 1; }));

  Client b(client_options(server));
  bool shed = false;
  try {
    (void)b.encode(request);
  } catch (const RemoteError& e) {
    shed = e.status() == Status::kBusy;
    EXPECT_GT(e.retry_after_ms(), 0u) << "BUSY came without a backoff hint";
  }
  first.join();
  EXPECT_TRUE(shed) << "over-budget request was buffered, not shed";
  EXPECT_GE(server.stats().admission_bytes_rejected, 1u);

  // With the budget free again, the same request is admitted.  The
  // release happens just *after* the first response is sent
  // (job_finished), so an instant resubmit can race it by microseconds
  // -- a real client retries, and so do we.
  net::EncodeResponse response;
  ASSERT_TRUE(wait_for([&] {
    try {
      response = b.encode(request);
      return true;
    } catch (const RemoteError&) {
      return false;
    }
  }));
  EXPECT_FALSE(response.container.empty());
  server.drain();
}

TEST(NetServer, StalledHalfFrameSessionIsTornDown) {
  ServerOptions options;
  options.read_stall_timeout = 100ms;
  Server server(options);
  server.start();

  RawConn conn(server.port());
  ASSERT_TRUE(conn.connected());
  // Ten bytes of a 36-byte header, then silence: a slowloris hold.
  conn.send(std::vector<std::uint8_t>(10, 0x42));
  ASSERT_TRUE(wait_for([&] { return server.stats().stalled_sessions >= 1; }))
      << "stalled session was never torn down";
  bool closed = false;
  (void)conn.recv_until_close(&closed);
  EXPECT_TRUE(closed);

  // An honest client on a fresh connection is unaffected.
  Client client(client_options(server));
  client.ping();
  server.drain();
}

TEST(NetServer, ClientRetriesRideOutSaturation) {
  // One worker, one queue slot, every job stalled: bursts of three
  // concurrent encodes guarantee BUSY rejections, and clients configured
  // to retry must all converge to success without surfacing one.
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  options.debug_stall = 150ms;
  Server server(options);
  server.start();

  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 3; ++i) {
    clients.emplace_back([&] {
      ClientOptions copts = client_options(server);
      copts.max_retries = 20;
      copts.retry_backoff = 25ms;
      Client client(copts);
      const auto response = client.encode(small_encode_request());
      if (!response.container.empty()) ok.fetch_add(1);
    });
  }
  for (auto& thread : clients) thread.join();
  EXPECT_EQ(ok.load(), 3);
  server.drain();
}

TEST(NetServer, TokenedEncodeReplaysAcrossReconnect) {
  const fs::path dir = fs::temp_directory_path() / "rmpd_dedup_test" /
                       std::to_string(::getpid());
  fs::remove_all(dir.parent_path());
  ServerOptions options;
  options.output_dir = dir;
  Server server(options);
  server.start();

  auto request = small_encode_request();
  request.store = net::StoreMode::kSequence;
  request.store_name = "steps.rmps";
  request.request_token = 0xD00DFEEDu;

  net::EncodeResponse first;
  {
    Client client(client_options(server));
    first = client.encode(request);
    EXPECT_TRUE(first.stored);
  }
  // A new connection retrying the same token gets the original outcome
  // replayed -- not a second append.
  Client retry_client(client_options(server));
  const auto second = retry_client.encode(request);
  EXPECT_TRUE(second.stored);
  EXPECT_EQ(second.stored_bytes, first.stored_bytes);
  EXPECT_EQ(second.stored_path, first.stored_path);
  const auto stats = retry_client.stats();
  EXPECT_GE(stats.dedup_hits, 1u);
  EXPECT_GE(stats.dedup_entries, 1u);

  server.drain();
  io::SequenceReader reader(dir / "steps.rmps");
  EXPECT_EQ(reader.step_count(), 1u)
      << "retried token double-appended";
  fs::remove_all(dir.parent_path());
}

TEST(NetServer, RecoversCrashedStoreAndReplaysTokensAcrossRestart) {
  const fs::path dir = fs::temp_directory_path() / "rmpd_recover_test" /
                       std::to_string(::getpid());
  fs::remove_all(dir.parent_path());
  fs::create_directories(dir);

  // A crashed daemon's disk state, built through the same io layer the
  // server uses: one committed sequence step whose intent is in the
  // request log, journal never published, nothing cleaned up.
  constexpr std::uint64_t kTokenApplied = 0xFEEDFACEu;
  {
    io::Container step;
    step.method = "crashed_step";
    step.nx = 4;
    step.add("data", std::vector<std::uint8_t>(40, 0x7E));
    auto log = io::RequestLog::open(dir / "run.rmps", /*fresh=*/true);
    io::SequenceWriter writer(dir / "run.rmps");
    log.record(kTokenApplied, 0);
    writer.append(step);
    // Abandoned: destructors leave a resumable journal + intent log.
  }
  ASSERT_TRUE(fs::exists(dir / "run.rmps.part"));

  ServerOptions options;
  options.output_dir = dir;
  Server server(options);  // recover_on_start is the default
  server.start();
  EXPECT_EQ(server.stats().recovery_journals_resumed, 1u);
  EXPECT_EQ(server.stats().recovery_steps_recovered, 1u);

  Client client(client_options(server));
  auto request = small_encode_request();
  request.store = net::StoreMode::kSequence;
  request.store_name = "run.rmps";
  request.request_token = kTokenApplied;
  // The retry of the pre-crash request replays: applied exactly once.
  const auto replayed = client.encode(request);
  EXPECT_TRUE(replayed.stored);
  EXPECT_GE(client.stats().dedup_hits, 1u);

  // A fresh token appends for real, resuming the recovered journal.
  request.request_token = 0xF0E1D2C3u;
  const auto appended = client.encode(request);
  EXPECT_TRUE(appended.stored);

  server.drain();
  io::SequenceReader reader(dir / "run.rmps");
  EXPECT_EQ(reader.step_count(), 2u)
      << "recovered sequence lost or duplicated a step";
  fs::remove_all(dir.parent_path());
}

TEST(NetServer, ScrubRpcQuarantinesGarbageFromTheStore) {
  const fs::path dir = fs::temp_directory_path() / "rmpd_scrub_test" /
                       std::to_string(::getpid());
  fs::remove_all(dir.parent_path());
  ServerOptions options;
  options.output_dir = dir;
  Server server(options);
  server.start();

  // Plant an unreadable archive after startup recovery already ran.
  {
    std::ofstream out(dir / "junk.rmp", std::ios::binary);
    const std::vector<char> garbage(128, '\x5A');
    out.write(garbage.data(), static_cast<std::streamsize>(garbage.size()));
  }

  Client client(client_options(server));
  const auto report = client.scrub();
  EXPECT_GE(report.files_checked, 1u);
  EXPECT_EQ(report.files_quarantined, 1u);
  EXPECT_FALSE(fs::exists(dir / "junk.rmp"));
  EXPECT_TRUE(fs::exists(io::quarantine_dir(dir) / "junk.rmp"));
  EXPECT_TRUE(fs::exists(io::quarantine_manifest_path(dir)));

  // A second pass over the clean store is a no-op, and the pass counter
  // advances.
  const auto again = client.scrub();
  EXPECT_EQ(again.files_quarantined, 0u);
  EXPECT_GE(client.stats().scrub_passes, 2u);
  server.drain();
  fs::remove_all(dir.parent_path());
}

TEST(NetServer, ClientReconnectsAcrossServerRestart) {
  const fs::path dir = fs::temp_directory_path() / "rmpd_restart_test" /
                       std::to_string(::getpid());
  fs::remove_all(dir.parent_path());
  ServerOptions options;
  options.output_dir = dir;
  auto first = std::make_unique<Server>(options);
  first->start();
  const std::uint16_t port = first->port();

  ClientOptions copts;
  copts.port = port;
  copts.max_retries = 30;
  copts.retry_backoff = 50ms;
  Client client(copts);
  client.ping();

  // Restart the daemon on the same port while the client holds its
  // (now dead) connection.
  first->drain();
  first.reset();
  options.port = port;
  Server second(options);
  second.start();

  // The same logical client rides the retry loop onto the new
  // incarnation -- reconnect, re-send, succeed.
  auto request = small_encode_request();
  request.store = net::StoreMode::kSequence;
  request.store_name = "again.rmps";
  request.request_token = 0xAB12CD34u;
  const auto response = client.encode(request);
  EXPECT_TRUE(response.stored);
  second.drain();
  EXPECT_TRUE(fs::exists(dir / "again.rmps"));
  fs::remove_all(dir.parent_path());
}

}  // namespace
