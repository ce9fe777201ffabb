#include "net/protocol.hpp"

#include <cstring>
#include <limits>

#include "io/checksum.hpp"

namespace rmp::net {
namespace {

// Caps on variable-length payload members, enforced on read so a hostile
// length field can never drive an allocation past the frame it arrived in.
constexpr std::size_t kMaxNameBytes = 256;        ///< method/codec names
constexpr std::size_t kMaxStoreNameBytes = 4096;  ///< archive/sequence names
constexpr std::size_t kMaxMessageBytes = 1u << 16;
constexpr std::size_t kMaxDetailBytes = 1u << 20;

void store_le16(std::uint8_t* out, std::uint16_t v) noexcept {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
}
void store_le32(std::uint8_t* out, std::uint32_t v) noexcept {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
void store_le64(std::uint8_t* out, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
std::uint16_t load_le16(const std::uint8_t* in) noexcept {
  return static_cast<std::uint16_t>(in[0] | (in[1] << 8));
}
std::uint32_t load_le32(const std::uint8_t* in) noexcept {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(in[i]) << (8 * i);
  return v;
}
std::uint64_t load_le64(const std::uint8_t* in) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  return v;
}

/// Append-only payload builder.
class PayloadWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) {
    std::uint8_t buf[4];
    store_le32(buf, v);
    out_.insert(out_.end(), buf, buf + 4);
  }
  void u64(std::uint64_t v) {
    std::uint8_t buf[8];
    store_le64(buf, v);
    out_.insert(out_.end(), buf, buf + 8);
  }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }
  void bytes(std::span<const std::uint8_t> b) {
    u64(b.size());
    out_.insert(out_.end(), b.begin(), b.end());
  }
  void doubles(std::span<const double> d) {
    u64(d.size());
    const std::size_t at = out_.size();
    out_.resize(at + d.size() * sizeof(double));
    for (std::size_t i = 0; i < d.size(); ++i) {
      std::uint64_t bits;
      std::memcpy(&bits, &d[i], sizeof(bits));
      store_le64(out_.data() + at + i * sizeof(double), bits);
    }
  }
  std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  std::vector<std::uint8_t> out_;
};

/// Bounds-checked payload reader; every violation is a typed
/// NetError{kMalformedPayload} naming what failed.
class PayloadReader {
 public:
  explicit PayloadReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8() {
    need(1, "u8");
    return bytes_[pos_++];
  }
  std::uint32_t u32() {
    need(4, "u32");
    const std::uint32_t v = load_le32(bytes_.data() + pos_);
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8, "u64");
    const std::uint64_t v = load_le64(bytes_.data() + pos_);
    pos_ += 8;
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string str(std::size_t max_bytes) {
    const std::uint32_t size = u32();
    if (size > max_bytes) {
      throw NetError(NetErrc::kMalformedPayload,
                     "string length " + std::to_string(size) +
                         " exceeds cap " + std::to_string(max_bytes));
    }
    need(size, "string body");
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), size);
    pos_ += size;
    return s;
  }
  std::vector<std::uint8_t> bytes() {
    const std::uint64_t size = u64();
    need(size, "byte-array body");
    std::vector<std::uint8_t> b(bytes_.begin() + static_cast<long>(pos_),
                                bytes_.begin() + static_cast<long>(pos_ + size));
    pos_ += size;
    return b;
  }
  std::vector<double> doubles() {
    const std::uint64_t count = u64();
    // The count is validated against the *remaining bytes* before any
    // allocation, so a hostile length cannot trigger OOM.
    if (count > (bytes_.size() - pos_) / sizeof(double)) {
      throw NetError(NetErrc::kMalformedPayload,
                     "double-array count " + std::to_string(count) +
                         " exceeds remaining payload");
    }
    std::vector<double> d(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t bits = load_le64(bytes_.data() + pos_);
      std::memcpy(&d[i], &bits, sizeof(double));
      pos_ += sizeof(double);
    }
    return d;
  }
  /// Every payload parser must end with this: trailing garbage is as
  /// malformed as a truncation.
  void finish() const {
    if (pos_ != bytes_.size()) {
      throw NetError(NetErrc::kMalformedPayload,
                     std::to_string(bytes_.size() - pos_) +
                         " trailing byte(s) after payload");
    }
  }

 private:
  void need(std::uint64_t n, const char* what) const {
    if (n > bytes_.size() - pos_) {
      throw NetError(NetErrc::kMalformedPayload,
                     std::string("payload truncated reading ") + what);
    }
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
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
  std::vector<std::uint8_t> out(kFrameHeaderBytes + payload.size());
  std::memcpy(out.data(), kMagic, 4);
  store_le16(out.data() + 4, kProtocolVersion);
  store_le16(out.data() + 6, static_cast<std::uint16_t>(type));
  store_le16(out.data() + 8, static_cast<std::uint16_t>(status));
  store_le16(out.data() + 10, 0);  // reserved
  store_le64(out.data() + 12, request_id);
  store_le32(out.data() + 20, deadline_ms);
  store_le32(out.data() + 24, static_cast<std::uint32_t>(payload.size()));
  store_le32(out.data() + 28, io::crc32(payload));
  store_le32(out.data() + 32, io::crc32({out.data(), 32}));
  // memcpy from an empty span's null data() is undefined even for 0 bytes.
  if (!payload.empty())
    std::memcpy(out.data() + kFrameHeaderBytes, payload.data(), payload.size());
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
  const std::uint8_t* h = buffer_.data() + consumed_;
  if (std::memcmp(h, kMagic, 4) != 0) {
    throw NetError(NetErrc::kBadMagic, "frame does not start with RMPN");
  }
  const std::uint32_t header_crc = load_le32(h + 32);
  if (io::crc32({h, 32}) != header_crc) {
    throw NetError(NetErrc::kHeaderCorrupt, "frame header CRC mismatch");
  }
  const std::uint16_t version = load_le16(h + 4);
  if (version != kProtocolVersion) {
    throw NetError(NetErrc::kBadVersion,
                   "protocol version " + std::to_string(version) +
                       " (this peer speaks " +
                       std::to_string(kProtocolVersion) + ")");
  }
  const std::uint16_t raw_type = load_le16(h + 6);
  if (!is_known_type(raw_type)) {
    throw NetError(NetErrc::kBadType,
                   "unknown message type " + std::to_string(raw_type));
  }
  if (load_le16(h + 10) != 0) {
    throw NetError(NetErrc::kHeaderCorrupt, "reserved header bits set");
  }
  FrameHeader header;
  header.version = version;
  header.type = static_cast<MsgType>(raw_type);
  header.status = static_cast<Status>(load_le16(h + 8));
  header.request_id = load_le64(h + 12);
  header.deadline_ms = load_le32(h + 20);
  header.payload_size = load_le32(h + 24);
  if (header.payload_size > max_payload_) {
    throw NetError(NetErrc::kFrameTooLarge,
                   "declared payload of " +
                       std::to_string(header.payload_size) +
                       " bytes exceeds cap of " +
                       std::to_string(max_payload_));
  }
  pending_payload_crc_ = load_le32(h + 28);
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
  PayloadWriter w;
  w.str(method);
  w.str(codec);
  w.u8(guard ? 1 : 0);
  w.u8(error_bound ? 1 : 0);
  w.f64(error_bound.value_or(0.0));
  w.u8(static_cast<std::uint8_t>(store));
  w.str(store_name);
  w.u64(nx);
  w.u64(ny);
  w.u64(nz);
  w.u64(request_token);
  w.doubles(data);
  return w.take();
}

EncodeRequest EncodeRequest::decode(std::span<const std::uint8_t> payload) {
  PayloadReader r(payload);
  EncodeRequest req;
  req.method = r.str(kMaxNameBytes);
  req.codec = r.str(kMaxNameBytes);
  req.guard = r.u8() != 0;
  const bool has_bound = r.u8() != 0;
  const double bound = r.f64();
  if (has_bound) req.error_bound = bound;
  const std::uint8_t store = r.u8();
  if (store > static_cast<std::uint8_t>(StoreMode::kSequence)) {
    throw NetError(NetErrc::kMalformedPayload,
                   "unknown store mode " + std::to_string(store));
  }
  req.store = static_cast<StoreMode>(store);
  req.store_name = r.str(kMaxStoreNameBytes);
  req.nx = r.u64();
  req.ny = r.u64();
  req.nz = r.u64();
  req.request_token = r.u64();
  req.data = r.doubles();
  r.finish();
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
  PayloadWriter w;
  w.str(method);
  w.u64(original_bytes);
  w.u64(stored_bytes);
  w.u8(stored ? 1 : 0);
  w.str(stored_path);
  w.bytes(container);
  return w.take();
}

EncodeResponse EncodeResponse::decode(std::span<const std::uint8_t> payload) {
  PayloadReader r(payload);
  EncodeResponse resp;
  resp.method = r.str(kMaxNameBytes);
  resp.original_bytes = r.u64();
  resp.stored_bytes = r.u64();
  resp.stored = r.u8() != 0;
  resp.stored_path = r.str(kMaxStoreNameBytes);
  resp.container = r.bytes();
  r.finish();
  return resp;
}

std::vector<std::uint8_t> DecodeRequest::encode() const {
  PayloadWriter w;
  w.str(codec);
  w.u8(best_effort ? 1 : 0);
  w.str(store_name);
  w.u64(step);
  w.bytes(container);
  return w.take();
}

DecodeRequest DecodeRequest::decode(std::span<const std::uint8_t> payload) {
  PayloadReader r(payload);
  DecodeRequest req;
  req.codec = r.str(kMaxNameBytes);
  req.best_effort = r.u8() != 0;
  req.store_name = r.str(kMaxStoreNameBytes);
  req.step = r.u64();
  req.container = r.bytes();
  r.finish();
  if (!req.store_name.empty() && !req.container.empty()) {
    throw NetError(NetErrc::kMalformedPayload,
                   "decode request carries both inline bytes and a store "
                   "name; pick one");
  }
  return req;
}

std::vector<std::uint8_t> DecodeResponse::encode() const {
  PayloadWriter w;
  w.u64(nx);
  w.u64(ny);
  w.u64(nz);
  w.str(detail);
  w.doubles(data);
  return w.take();
}

DecodeResponse DecodeResponse::decode(std::span<const std::uint8_t> payload) {
  PayloadReader r(payload);
  DecodeResponse resp;
  resp.nx = r.u64();
  resp.ny = r.u64();
  resp.nz = r.u64();
  resp.detail = r.str(kMaxDetailBytes);
  resp.data = r.doubles();
  r.finish();
  return resp;
}

std::vector<std::uint8_t> VerifyRequest::encode() const {
  PayloadWriter w;
  w.bytes(container);
  return w.take();
}

VerifyRequest VerifyRequest::decode(std::span<const std::uint8_t> payload) {
  PayloadReader r(payload);
  VerifyRequest req;
  req.container = r.bytes();
  r.finish();
  return req;
}

std::vector<std::uint8_t> VerifyResponse::encode() const {
  PayloadWriter w;
  w.u8(complete ? 1 : 0);
  w.u8(repaired ? 1 : 0);
  w.u32(version);
  w.str(detail);
  return w.take();
}

VerifyResponse VerifyResponse::decode(std::span<const std::uint8_t> payload) {
  PayloadReader r(payload);
  VerifyResponse resp;
  resp.complete = r.u8() != 0;
  resp.repaired = r.u8() != 0;
  resp.version = r.u32();
  resp.detail = r.str(kMaxDetailBytes);
  r.finish();
  return resp;
}

std::vector<std::uint8_t> ScrubResponse::encode() const {
  PayloadWriter w;
  w.u64(files_checked);
  w.u64(sections_checked);
  w.u64(sections_repaired);
  w.u64(files_repaired);
  w.u64(files_quarantined);
  w.str(detail);
  return w.take();
}

ScrubResponse ScrubResponse::decode(std::span<const std::uint8_t> payload) {
  PayloadReader r(payload);
  ScrubResponse resp;
  resp.files_checked = r.u64();
  resp.sections_checked = r.u64();
  resp.sections_repaired = r.u64();
  resp.files_repaired = r.u64();
  resp.files_quarantined = r.u64();
  resp.detail = r.str(kMaxDetailBytes);
  r.finish();
  return resp;
}

std::vector<std::uint8_t> StatsResponse::encode() const {
  PayloadWriter w;
#define RMP_STATS_WRITE(name) w.u64(name);
  RMP_STATS_FIELDS(RMP_STATS_WRITE, RMP_STATS_WRITE)
#undef RMP_STATS_WRITE
  w.str(obs_json);
  return w.take();
}

StatsResponse StatsResponse::decode(std::span<const std::uint8_t> payload) {
  PayloadReader r(payload);
  StatsResponse resp;
#define RMP_STATS_READ(name) resp.name = r.u64();
  RMP_STATS_FIELDS(RMP_STATS_READ, RMP_STATS_READ)
#undef RMP_STATS_READ
  resp.obs_json = r.str(kMaxDetailBytes * 16);
  r.finish();
  return resp;
}

std::vector<std::uint8_t> ErrorResponse::encode() const {
  PayloadWriter w;
  w.str(message);
  w.u32(retry_after_ms);
  return w.take();
}

ErrorResponse ErrorResponse::decode(std::span<const std::uint8_t> payload) {
  PayloadReader r(payload);
  ErrorResponse resp;
  resp.message = r.str(kMaxMessageBytes);
  resp.retry_after_ms = r.u32();
  r.finish();
  return resp;
}

}  // namespace rmp::net
