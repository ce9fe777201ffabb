// Wire protocol for rmpd: length-prefixed binary frames carrying
// encode/decode/verify/stats requests and their responses.
//
// Frame layout (little-endian, 36-byte header + payload):
//
//   offset size field
//        0    4 magic "RMPN"
//        4    2 version (kProtocolVersion)
//        6    2 type (MsgType)
//        8    2 status (Status; kOk in requests)
//       10    2 reserved, must be zero
//       12    8 request id (echoed verbatim in the response)
//       20    4 deadline_ms: remaining wall-clock budget granted by the
//               client (0 = none).  The server stamps an absolute
//               deadline on receipt and enforces it end-to-end, including
//               inside disk-retry loops (io::RetryPolicy::deadline).
//       24    4 payload size (bounded by the decoder's max_payload)
//       28    4 payload CRC-32 (zero when the payload is empty)
//       32    4 header CRC-32 over bytes [0, 32)
//
// Integrity is layered: the header CRC rejects torn or bit-flipped
// headers before the length field is trusted, the declared size is
// capped before any allocation, and the payload CRC rejects corrupted
// bodies.  Every malformed input maps to a typed NetError -- the
// deserializer (FrameDecoder) is the fuzz_proto libFuzzer target and
// must never crash, hang, or over-allocate on garbage.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/net_error.hpp"

namespace rmp::net {

inline constexpr std::uint8_t kMagic[4] = {'R', 'M', 'P', 'N'};
/// v2: DecodeRequest grew store_name/step (server-side store reads).
/// v3: self-healing service surface -- EncodeRequest carries an
/// idempotency token, BUSY error frames carry a retry_after_ms hint,
/// kScrub triggers an on-demand integrity pass, and StatsResponse grew
/// the recovery/scrub/dedup/admission counter block.
/// Mismatched peers are rejected at the frame layer, so v1/v2 clients get
/// a typed version error rather than a payload misparse.
inline constexpr std::uint16_t kProtocolVersion = 3;
inline constexpr std::size_t kFrameHeaderBytes = 36;
/// Default payload cap: a 256^3 float64 field plus headroom.
inline constexpr std::size_t kDefaultMaxPayload = 160u << 20;

enum class MsgType : std::uint16_t {
  kPing = 1,
  kPong = 2,
  kEncode = 3,
  kDecode = 4,
  kVerify = 5,
  kStats = 6,
  kEncodeResult = 7,
  kDecodeResult = 8,
  kVerifyResult = 9,
  kStatsResult = 10,
  kError = 11,
  kScrub = 12,  ///< trigger one integrity-scrub pass over the store dir
  kScrubResult = 13,
};

bool is_known_type(std::uint16_t type) noexcept;
bool is_request_type(MsgType type) noexcept;
const char* to_string(MsgType type) noexcept;

/// Response verdicts.  kOk travels in result frames; everything else in
/// kError frames whose payload is a human-readable message.
enum class Status : std::uint16_t {
  kOk = 0,
  kBusy = 1,              ///< admission rejected: request queue full
  kShuttingDown = 2,      ///< server draining, no new work accepted
  kDeadlineExceeded = 3,  ///< the request's wall-clock budget ran out
  kBadRequest = 4,        ///< request payload malformed or semantically bad
  kIntegrityError = 5,    ///< archive bytes damaged (io::ContainerError)
  kPreconditionError = 6, ///< model/numeric failure (core::PreconditionError)
  kIoError = 7,           ///< server-side disk failure
  kInternalError = 8,     ///< anything else; never carries partial results
};

const char* to_string(Status status) noexcept;

struct FrameHeader {
  std::uint16_t version = kProtocolVersion;
  MsgType type = MsgType::kPing;
  Status status = Status::kOk;
  std::uint64_t request_id = 0;
  std::uint32_t deadline_ms = 0;
  std::uint32_t payload_size = 0;
};

struct Frame {
  FrameHeader header;
  std::vector<std::uint8_t> payload;
};

/// Serialize one frame (header CRC and payload CRC filled in).
std::vector<std::uint8_t> encode_frame(MsgType type, std::uint64_t request_id,
                                       std::uint32_t deadline_ms,
                                       std::span<const std::uint8_t> payload,
                                       Status status = Status::kOk);

/// Incremental wire-frame deserializer: feed() arbitrary chunks, next()
/// yields complete validated frames.  Throws NetError (typed: bad magic /
/// version / type, oversized, header or payload CRC mismatch) on the
/// first malformed byte sequence; after a throw the decoder is poisoned
/// and the session must be torn down -- resynchronizing inside a corrupt
/// TCP stream would risk misparsing payload bytes as frames.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_payload = kDefaultMaxPayload)
      : max_payload_(max_payload) {}

  void feed(std::span<const std::uint8_t> bytes);
  /// Next complete frame, or std::nullopt when more bytes are needed.
  std::optional<Frame> next();

  /// Bytes buffered but not yet consumed as frames (torn-frame probe).
  std::size_t buffered() const noexcept { return buffer_.size() - consumed_; }
  bool poisoned() const noexcept { return poisoned_; }

 private:
  FrameHeader parse_header();

  std::size_t max_payload_;
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;
  std::optional<FrameHeader> pending_;  ///< header parsed, payload awaited
  std::uint32_t pending_payload_crc_ = 0;
  bool poisoned_ = false;
};

// ---------------------------------------------------------------------------
// Payload codecs.  Bounds-checked on read: any overrun, oversized string,
// count/shape mismatch or trailing garbage throws
// NetError{kMalformedPayload}.

/// Where an encode request's container should land.
enum class StoreMode : std::uint8_t {
  kReturn = 0,    ///< container bytes come back in the response
  kFile = 1,      ///< durably published under the server's output dir
  kSequence = 2,  ///< appended to a named journaled sequence (fsync'd
                  ///< commit marker; published when the server drains)
};

struct EncodeRequest {
  std::string method = "pca";
  std::string codec = "sz";
  bool guard = false;
  std::optional<double> error_bound;  ///< implies guard when set
  StoreMode store = StoreMode::kReturn;
  std::string store_name;  ///< archive/sequence name for kFile/kSequence
  std::uint64_t nx = 0, ny = 1, nz = 1;
  /// Idempotency token (0 = none).  A retried encode resends the same
  /// token; the server's dedup window replays the cached result instead
  /// of re-executing, so a retry never double-appends to a sequence.
  /// Sequence appends additionally journal the token in a fsync'd
  /// request log, making the guarantee hold across a daemon crash.
  std::uint64_t request_token = 0;
  std::vector<double> data;

  std::vector<std::uint8_t> encode() const;
  static EncodeRequest decode(std::span<const std::uint8_t> payload);
};

struct EncodeResponse {
  std::string method;  ///< model that actually ran (after guard demotion)
  std::uint64_t original_bytes = 0;
  std::uint64_t stored_bytes = 0;
  bool stored = false;       ///< true for kFile/kSequence requests
  std::string stored_path;   ///< where the server put it (stored == true)
  std::vector<std::uint8_t> container;  ///< inline archive (stored == false)

  std::vector<std::uint8_t> encode() const;
  static EncodeResponse decode(std::span<const std::uint8_t> payload);
};

struct DecodeRequest {
  std::string codec = "sz";
  std::vector<std::uint8_t> container;  ///< inline archive bytes
  bool best_effort = false;
  /// Server-side store read: when non-empty, the archive named here under
  /// the server's --output-dir is decoded instead of inline bytes (which
  /// must then be absent).  Works for single containers and for sequence
  /// archives; the server shares one seekable reader + chunk fetcher per
  /// store name, so N clients decoding disjoint steps read concurrently.
  std::string store_name;
  /// Step to decode when the named store is a sequence archive; ignored
  /// for single containers and inline bytes.
  std::uint64_t step = 0;

  std::vector<std::uint8_t> encode() const;
  static DecodeRequest decode(std::span<const std::uint8_t> payload);
};

struct DecodeResponse {
  std::uint64_t nx = 0, ny = 1, nz = 1;
  std::string detail;  ///< non-empty for best-effort reconstructions
  std::vector<double> data;

  std::vector<std::uint8_t> encode() const;
  static DecodeResponse decode(std::span<const std::uint8_t> payload);
};

struct VerifyRequest {
  std::vector<std::uint8_t> container;

  std::vector<std::uint8_t> encode() const;
  static VerifyRequest decode(std::span<const std::uint8_t> payload);
};

struct VerifyResponse {
  bool complete = false;  ///< every section intact or repaired
  bool repaired = false;
  std::uint32_t version = 0;
  std::string detail;  ///< per-section report, human-readable

  std::vector<std::uint8_t> encode() const;
  static VerifyResponse decode(std::span<const std::uint8_t> payload);
};

/// One integrity-scrub pass over the server's store directory (manual
/// trigger via kScrub, or the background scrubber's cumulative totals in
/// StatsResponse).
struct ScrubResponse {
  std::uint64_t files_checked = 0;
  std::uint64_t sections_checked = 0;
  std::uint64_t sections_repaired = 0;
  std::uint64_t files_repaired = 0;     ///< rewritten via parity repair
  std::uint64_t files_quarantined = 0;  ///< moved to quarantine/ + manifest
  std::string detail;  ///< per-file findings, human-readable

  std::vector<std::uint8_t> encode() const;
  static ScrubResponse decode(std::span<const std::uint8_t> payload);
};

/// Every StatsResponse counter, in wire order.  COUNTER(name) marks a
/// monotonic counter the server keeps in ServerStats and copies into the
/// response; LIVE(name) marks a value read from live state at reply time.
/// The recovery..stalled_sessions block is the v3 self-healing surface:
/// startup recovery, background scrub, the idempotent-retry dedup window
/// and byte-budget admission (max_inflight_bytes 0 = unlimited).
#define RMP_STATS_FIELDS(COUNTER, LIVE) \
  LIVE(queue_depth)                     \
  LIVE(queue_capacity)                  \
  COUNTER(accepted)                     \
  COUNTER(rejected_busy)                \
  COUNTER(rejected_shutdown)            \
  COUNTER(deadline_missed)              \
  COUNTER(completed)                    \
  COUNTER(failed)                       \
  COUNTER(sessions_active)              \
  COUNTER(sessions_total)               \
  COUNTER(protocol_errors)              \
  COUNTER(recovery_journals_resumed)    \
  COUNTER(recovery_steps_recovered)     \
  COUNTER(recovery_files_repaired)      \
  COUNTER(recovery_files_quarantined)   \
  COUNTER(scrub_passes)                 \
  COUNTER(scrub_sections_checked)       \
  COUNTER(scrub_sections_repaired)      \
  COUNTER(scrub_quarantined)            \
  LIVE(dedup_hits)                      \
  LIVE(dedup_evictions)                 \
  LIVE(dedup_entries)                   \
  LIVE(inflight_bytes)                  \
  LIVE(max_inflight_bytes)              \
  COUNTER(admission_bytes_rejected)     \
  COUNTER(stalled_sessions)

/// Server-side counters a client can poll without parsing obs JSON.
struct StatsResponse {
#define RMP_STATS_DECLARE(name) std::uint64_t name = 0;
  RMP_STATS_FIELDS(RMP_STATS_DECLARE, RMP_STATS_DECLARE)
#undef RMP_STATS_DECLARE
  std::string obs_json;  ///< full rmp-obs-v1 registry dump

  std::vector<std::uint8_t> encode() const;
  static StatsResponse decode(std::span<const std::uint8_t> payload);
};

struct ErrorResponse {
  std::string message;
  /// For kBusy rejections: how long the client should back off before
  /// retrying (0 = no hint).  Derived from queue pressure server-side.
  std::uint32_t retry_after_ms = 0;

  std::vector<std::uint8_t> encode() const;
  static ErrorResponse decode(std::span<const std::uint8_t> payload);
};

}  // namespace rmp::net
