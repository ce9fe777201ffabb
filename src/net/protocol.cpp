#include "net/protocol.hpp"

#include <algorithm>

#include "base/byte_io.hpp"
#include "io/checksum.hpp"

namespace rmp::net {
namespace {

// Caps on variable-length payload members, enforced on read so a hostile
// length field can never drive an allocation past the frame it arrived in.
constexpr std::size_t kMaxNameBytes = 256;        ///< method/codec names
constexpr std::size_t kMaxStoreNameBytes = 4096;  ///< archive/sequence names
constexpr std::size_t kMaxMessageBytes = 1u << 16;
constexpr std::size_t kMaxDetailBytes = 1u << 20;

/// ByteReader hook for the payloads and the frame header: every fault is
/// a typed NetError{kMalformedPayload} naming the field.
struct PayloadHook {
  [[noreturn]] void fail(ReadFault, const std::string& detail) const {
    throw NetError(NetErrc::kMalformedPayload, "payload: " + detail);
  }
};

}  // namespace

bool is_known_type(std::uint16_t type) noexcept {
  return type >= static_cast<std::uint16_t>(MsgType::kPing) &&
         type <= static_cast<std::uint16_t>(MsgType::kScrubResult);
}

bool is_request_type(MsgType type) noexcept {
  switch (type) {
    case MsgType::kPing:
    case MsgType::kEncode:
    case MsgType::kDecode:
    case MsgType::kVerify:
    case MsgType::kStats:
    case MsgType::kScrub:
      return true;
    default:
      return false;
  }
}

const char* to_string(MsgType type) noexcept {
  switch (type) {
    case MsgType::kPing: return "ping";
    case MsgType::kPong: return "pong";
    case MsgType::kEncode: return "encode";
    case MsgType::kDecode: return "decode";
    case MsgType::kVerify: return "verify";
    case MsgType::kStats: return "stats";
    case MsgType::kEncodeResult: return "encode-result";
    case MsgType::kDecodeResult: return "decode-result";
    case MsgType::kVerifyResult: return "verify-result";
    case MsgType::kStatsResult: return "stats-result";
    case MsgType::kError: return "error";
    case MsgType::kScrub: return "scrub";
    case MsgType::kScrubResult: return "scrub-result";
  }
  return "unknown";
}

const char* to_string(Status status) noexcept {
  switch (status) {
    case Status::kOk: return "ok";
    case Status::kBusy: return "busy";
    case Status::kShuttingDown: return "shutting-down";
    case Status::kDeadlineExceeded: return "deadline-exceeded";
    case Status::kBadRequest: return "bad-request";
    case Status::kIntegrityError: return "integrity-error";
    case Status::kPreconditionError: return "precondition-error";
    case Status::kIoError: return "io-error";
    case Status::kInternalError: return "internal-error";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Frame encode/decode

std::vector<std::uint8_t> encode_frame(MsgType type, std::uint64_t request_id,
                                       std::uint32_t deadline_ms,
                                       std::span<const std::uint8_t> payload,
                                       Status status) {
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderBytes + payload.size());
  put(out, kMagic);
  put(out, kProtocolVersion);
  put(out, static_cast<std::uint16_t>(type));
  put(out, static_cast<std::uint16_t>(status));
  put(out, std::uint16_t{0});  // reserved
  put(out, request_id);
  put(out, deadline_ms);
  put(out, static_cast<std::uint32_t>(payload.size()));
  put(out, io::crc32(payload));
  put(out, io::crc32(out));  // header CRC
  put(out, payload);
  return out;
}

void FrameDecoder::feed(std::span<const std::uint8_t> bytes) {
  // Compact before growing: a long session must not accumulate every
  // consumed frame in memory.
  if (consumed_ > 0 && consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  } else if (consumed_ > (64u << 10)) {
    buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<long>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

FrameHeader FrameDecoder::parse_header() {
  const std::span<const std::uint8_t> h(buffer_.data() + consumed_,
                                        kFrameHeaderBytes);
  ByteReader in(h, PayloadHook{});
  if (!std::ranges::equal(in.block(4, "magic"), kMagic)) {
    throw NetError(NetErrc::kBadMagic, "frame does not start with RMPN");
  }
  FrameHeader header;
  header.version = in.read<std::uint16_t>("version");
  const auto raw_type = in.read<std::uint16_t>("type");
  header.status = static_cast<Status>(in.read<std::uint16_t>("status"));
  const auto reserved = in.read<std::uint16_t>("reserved");
  header.request_id = in.read<std::uint64_t>("request id");
  header.deadline_ms = in.read<std::uint32_t>("deadline");
  header.payload_size = in.read<std::uint32_t>("payload size");
  const auto payload_crc = in.read<std::uint32_t>("payload crc");
  const std::size_t crc_offset = in.offset();
  if (io::crc32(h.first(crc_offset)) != in.read<std::uint32_t>("header crc")) {
    throw NetError(NetErrc::kHeaderCorrupt, "frame header CRC mismatch");
  }
  if (header.version != kProtocolVersion) {
    throw NetError(NetErrc::kBadVersion,
                   "protocol version " + std::to_string(header.version) +
                       " (this peer speaks " +
                       std::to_string(kProtocolVersion) + ")");
  }
  if (!is_known_type(raw_type)) {
    throw NetError(NetErrc::kBadType,
                   "unknown message type " + std::to_string(raw_type));
  }
  if (reserved != 0) {
    throw NetError(NetErrc::kHeaderCorrupt, "reserved header bits set");
  }
  header.type = static_cast<MsgType>(raw_type);
  if (header.payload_size > max_payload_) {
    throw NetError(NetErrc::kFrameTooLarge,
                   "declared payload of " +
                       std::to_string(header.payload_size) +
                       " bytes exceeds cap of " +
                       std::to_string(max_payload_));
  }
  pending_payload_crc_ = payload_crc;
  return header;
}

std::optional<Frame> FrameDecoder::next() {
  if (poisoned_) {
    throw NetError(NetErrc::kHeaderCorrupt,
                   "decoder poisoned by an earlier protocol error");
  }
  try {
    if (!pending_) {
      if (buffer_.size() - consumed_ < kFrameHeaderBytes) return std::nullopt;
      pending_ = parse_header();
      consumed_ += kFrameHeaderBytes;
    }
    if (buffer_.size() - consumed_ < pending_->payload_size) {
      return std::nullopt;
    }
    Frame frame;
    frame.header = *pending_;
    frame.payload.assign(
        buffer_.begin() + static_cast<long>(consumed_),
        buffer_.begin() + static_cast<long>(consumed_ + pending_->payload_size));
    consumed_ += pending_->payload_size;
    pending_.reset();
    if (io::crc32(frame.payload) != pending_payload_crc_) {
      throw NetError(NetErrc::kPayloadCorrupt, "payload CRC mismatch");
    }
    return frame;
  } catch (const NetError&) {
    poisoned_ = true;
    throw;
  }
}

// ---------------------------------------------------------------------------
// Payload codecs

std::vector<std::uint8_t> EncodeRequest::encode() const {
  std::vector<std::uint8_t> out;
  put_string(out, method);
  put_string(out, codec);
  put(out, std::uint8_t{guard});
  put(out, std::uint8_t{error_bound.has_value()});
  put(out, error_bound.value_or(0.0));
  put(out, static_cast<std::uint8_t>(store));
  put_string(out, store_name);
  put(out, nx);
  put(out, ny);
  put(out, nz);
  put(out, request_token);
  put_counted(out, data);
  return out;
}

EncodeRequest EncodeRequest::decode(std::span<const std::uint8_t> payload) {
  ByteReader in(payload, PayloadHook{});
  EncodeRequest req;
  req.method = in.string("method", kMaxNameBytes);
  req.codec = in.string("codec", kMaxNameBytes);
  req.guard = in.read<std::uint8_t>("guard") != 0;
  const bool has_bound = in.read<std::uint8_t>("has_bound") != 0;
  const auto bound = in.read<double>("error_bound");
  if (has_bound) req.error_bound = bound;
  const auto store = in.read<std::uint8_t>("store");
  if (store > static_cast<std::uint8_t>(StoreMode::kSequence)) {
    throw NetError(NetErrc::kMalformedPayload,
                   "unknown store mode " + std::to_string(store));
  }
  req.store = static_cast<StoreMode>(store);
  req.store_name = in.string("store_name", kMaxStoreNameBytes);
  req.nx = in.read<std::uint64_t>("nx");
  req.ny = in.read<std::uint64_t>("ny");
  req.nz = in.read<std::uint64_t>("nz");
  req.request_token = in.read<std::uint64_t>("request_token");
  req.data = in.counted<double>("data");
  in.finish("payload");
  if (req.nx == 0 || req.ny == 0 || req.nz == 0) {
    throw NetError(NetErrc::kMalformedPayload, "zero grid dimension");
  }
  // Overflow-safe shape check: count is bounded by the payload already.
  if (req.data.size() / req.ny / req.nz != req.nx ||
      req.nx * req.ny * req.nz != req.data.size()) {
    throw NetError(NetErrc::kMalformedPayload,
                   "data count does not match nx*ny*nz");
  }
  if ((req.store == StoreMode::kFile || req.store == StoreMode::kSequence) &&
      req.store_name.empty()) {
    throw NetError(NetErrc::kMalformedPayload, "store request without a name");
  }
  return req;
}

std::vector<std::uint8_t> EncodeResponse::encode() const {
  std::vector<std::uint8_t> out;
  put_string(out, method);
  put(out, original_bytes);
  put(out, stored_bytes);
  put(out, std::uint8_t{stored});
  put_string(out, stored_path);
  put_counted(out, container);
  return out;
}

EncodeResponse EncodeResponse::decode(std::span<const std::uint8_t> payload) {
  ByteReader in(payload, PayloadHook{});
  EncodeResponse resp;
  resp.method = in.string("method", kMaxNameBytes);
  resp.original_bytes = in.read<std::uint64_t>("original_bytes");
  resp.stored_bytes = in.read<std::uint64_t>("stored_bytes");
  resp.stored = in.read<std::uint8_t>("stored") != 0;
  resp.stored_path = in.string("stored_path", kMaxStoreNameBytes);
  resp.container = in.counted<std::uint8_t>("container");
  in.finish("payload");
  return resp;
}

std::vector<std::uint8_t> DecodeRequest::encode() const {
  std::vector<std::uint8_t> out;
  put_string(out, codec);
  put(out, std::uint8_t{best_effort});
  put_string(out, store_name);
  put(out, step);
  put_counted(out, container);
  return out;
}

DecodeRequest DecodeRequest::decode(std::span<const std::uint8_t> payload) {
  ByteReader in(payload, PayloadHook{});
  DecodeRequest req;
  req.codec = in.string("codec", kMaxNameBytes);
  req.best_effort = in.read<std::uint8_t>("best_effort") != 0;
  req.store_name = in.string("store_name", kMaxStoreNameBytes);
  req.step = in.read<std::uint64_t>("step");
  req.container = in.counted<std::uint8_t>("container");
  in.finish("payload");
  if (!req.store_name.empty() && !req.container.empty()) {
    throw NetError(NetErrc::kMalformedPayload,
                   "decode request carries both inline bytes and a store "
                   "name; pick one");
  }
  return req;
}

std::vector<std::uint8_t> DecodeResponse::encode() const {
  std::vector<std::uint8_t> out;
  put(out, nx);
  put(out, ny);
  put(out, nz);
  put_string(out, detail);
  put_counted(out, data);
  return out;
}

DecodeResponse DecodeResponse::decode(std::span<const std::uint8_t> payload) {
  ByteReader in(payload, PayloadHook{});
  DecodeResponse resp;
  resp.nx = in.read<std::uint64_t>("nx");
  resp.ny = in.read<std::uint64_t>("ny");
  resp.nz = in.read<std::uint64_t>("nz");
  resp.detail = in.string("detail", kMaxDetailBytes);
  resp.data = in.counted<double>("data");
  in.finish("payload");
  return resp;
}

std::vector<std::uint8_t> VerifyRequest::encode() const {
  std::vector<std::uint8_t> out;
  put_counted(out, container);
  return out;
}

VerifyRequest VerifyRequest::decode(std::span<const std::uint8_t> payload) {
  ByteReader in(payload, PayloadHook{});
  VerifyRequest req;
  req.container = in.counted<std::uint8_t>("container");
  in.finish("payload");
  return req;
}

std::vector<std::uint8_t> VerifyResponse::encode() const {
  std::vector<std::uint8_t> out;
  put(out, std::uint8_t{complete});
  put(out, std::uint8_t{repaired});
  put(out, version);
  put_string(out, detail);
  return out;
}

VerifyResponse VerifyResponse::decode(std::span<const std::uint8_t> payload) {
  ByteReader in(payload, PayloadHook{});
  VerifyResponse resp;
  resp.complete = in.read<std::uint8_t>("complete") != 0;
  resp.repaired = in.read<std::uint8_t>("repaired") != 0;
  resp.version = in.read<std::uint32_t>("version");
  resp.detail = in.string("detail", kMaxDetailBytes);
  in.finish("payload");
  return resp;
}

std::vector<std::uint8_t> ScrubResponse::encode() const {
  std::vector<std::uint8_t> out;
  put(out, files_checked);
  put(out, sections_checked);
  put(out, sections_repaired);
  put(out, files_repaired);
  put(out, files_quarantined);
  put_string(out, detail);
  return out;
}

ScrubResponse ScrubResponse::decode(std::span<const std::uint8_t> payload) {
  ByteReader in(payload, PayloadHook{});
  ScrubResponse resp;
  resp.files_checked = in.read<std::uint64_t>("files_checked");
  resp.sections_checked = in.read<std::uint64_t>("sections_checked");
  resp.sections_repaired = in.read<std::uint64_t>("sections_repaired");
  resp.files_repaired = in.read<std::uint64_t>("files_repaired");
  resp.files_quarantined = in.read<std::uint64_t>("files_quarantined");
  resp.detail = in.string("detail", kMaxDetailBytes);
  in.finish("payload");
  return resp;
}

std::vector<std::uint8_t> StatsResponse::encode() const {
  std::vector<std::uint8_t> out;
#define RMP_STATS_WRITE(name) put(out, name);
  RMP_STATS_FIELDS(RMP_STATS_WRITE, RMP_STATS_WRITE)
#undef RMP_STATS_WRITE
  put_string(out, obs_json);
  return out;
}

StatsResponse StatsResponse::decode(std::span<const std::uint8_t> payload) {
  ByteReader in(payload, PayloadHook{});
  StatsResponse resp;
#define RMP_STATS_READ(name) resp.name = in.read<std::uint64_t>(#name);
  RMP_STATS_FIELDS(RMP_STATS_READ, RMP_STATS_READ)
#undef RMP_STATS_READ
  resp.obs_json = in.string("obs_json", kMaxDetailBytes * 16);
  in.finish("payload");
  return resp;
}

std::vector<std::uint8_t> ErrorResponse::encode() const {
  std::vector<std::uint8_t> out;
  put_string(out, message);
  put(out, retry_after_ms);
  return out;
}

ErrorResponse ErrorResponse::decode(std::span<const std::uint8_t> payload) {
  ByteReader in(payload, PayloadHook{});
  ErrorResponse resp;
  resp.message = in.string("message", kMaxMessageBytes);
  resp.retry_after_ms = in.read<std::uint32_t>("retry_after_ms");
  in.finish("payload");
  return resp;
}

}  // namespace rmp::net
