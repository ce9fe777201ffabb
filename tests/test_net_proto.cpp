// Wire-protocol tests: frame round trips, the validation order of the
// incremental FrameDecoder (magic -> header CRC -> version -> type ->
// reserved -> size cap -> payload CRC), decoder poisoning, and the
// bounds-checked payload codecs.  Complements fuzz/fuzz_proto.cpp, which
// hammers the same deserializer with unstructured bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "io/checksum.hpp"
#include "net/net_error.hpp"
#include "net/protocol.hpp"

namespace {

using namespace rmp;
using net::FrameDecoder;
using net::MsgType;
using net::NetErrc;
using net::NetError;
using net::Status;

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

/// Expect `decoder.next()` after feeding `wire` to throw a NetError with
/// the given code.
void expect_reject(const std::vector<std::uint8_t>& wire, NetErrc code) {
  FrameDecoder decoder;
  decoder.feed(wire);
  try {
    (void)decoder.next();
    FAIL() << "expected NetError[" << net::to_string(code) << "]";
  } catch (const NetError& e) {
    EXPECT_EQ(e.code(), code) << e.what();
  }
  EXPECT_TRUE(decoder.poisoned());
}

/// Re-seal the header CRC after mutating header bytes, so a test reaches
/// the validation step *behind* the CRC check.
void reseal_header(std::vector<std::uint8_t>& wire) {
  ASSERT_GE(wire.size(), net::kFrameHeaderBytes);
  const std::uint32_t crc =
      io::crc32(std::span<const std::uint8_t>(wire.data(), 32));
  std::memcpy(wire.data() + 32, &crc, sizeof(crc));
}

TEST(NetProto, FrameRoundTripsThroughDecoder) {
  const auto payload = bytes_of("hello, rmpd");
  const auto wire = net::encode_frame(MsgType::kEncode, 42, 1500, payload);
  ASSERT_EQ(wire.size(), net::kFrameHeaderBytes + payload.size());

  FrameDecoder decoder;
  decoder.feed(wire);
  const auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->header.type, MsgType::kEncode);
  EXPECT_EQ(frame->header.status, Status::kOk);
  EXPECT_EQ(frame->header.request_id, 42u);
  EXPECT_EQ(frame->header.deadline_ms, 1500u);
  EXPECT_EQ(frame->payload, payload);
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(NetProto, EmptyPayloadAndStatusRoundTrip) {
  const auto wire =
      net::encode_frame(MsgType::kError, 7, 0, {}, Status::kBusy);
  FrameDecoder decoder;
  decoder.feed(wire);
  const auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->header.status, Status::kBusy);
  EXPECT_TRUE(frame->payload.empty());
}

TEST(NetProto, ByteByByteFeedReassemblesFrames) {
  const auto payload = bytes_of("dripped one byte at a time");
  const auto wire = net::encode_frame(MsgType::kDecode, 9, 0, payload);
  FrameDecoder decoder;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    decoder.feed(std::span<const std::uint8_t>(&wire[i], 1));
    EXPECT_FALSE(decoder.next().has_value()) << "frame surfaced early at " << i;
  }
  decoder.feed(std::span<const std::uint8_t>(&wire.back(), 1));
  const auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload, payload);
}

TEST(NetProto, BackToBackFramesInOneFeed) {
  auto wire = net::encode_frame(MsgType::kPing, 1, 0, {});
  const auto second = net::encode_frame(MsgType::kStats, 2, 0, {});
  wire.insert(wire.end(), second.begin(), second.end());
  FrameDecoder decoder;
  decoder.feed(wire);
  const auto a = decoder.next();
  const auto b = decoder.next();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->header.type, MsgType::kPing);
  EXPECT_EQ(b->header.type, MsgType::kStats);
  EXPECT_FALSE(decoder.next().has_value());
}

TEST(NetProto, GarbageMagicIsRejected) {
  auto wire = net::encode_frame(MsgType::kPing, 1, 0, {});
  wire[0] = 'X';
  expect_reject(wire, NetErrc::kBadMagic);
}

TEST(NetProto, HeaderBitFlipFailsHeaderCrc) {
  auto wire = net::encode_frame(MsgType::kPing, 1, 0, {});
  wire[12] ^= 0x01;  // request id byte; CRC not re-sealed
  expect_reject(wire, NetErrc::kHeaderCorrupt);
}

TEST(NetProto, WrongVersionIsRejectedBehindTheCrc) {
  auto wire = net::encode_frame(MsgType::kPing, 1, 0, {});
  wire[4] = 0x7F;  // version lo byte
  reseal_header(wire);
  expect_reject(wire, NetErrc::kBadVersion);
}

TEST(NetProto, UnknownTypeIsRejected) {
  auto wire = net::encode_frame(MsgType::kPing, 1, 0, {});
  wire[6] = 0xEE;  // type lo byte
  reseal_header(wire);
  expect_reject(wire, NetErrc::kBadType);
}

TEST(NetProto, ReservedBitsMustBeZero) {
  auto wire = net::encode_frame(MsgType::kPing, 1, 0, {});
  wire[10] = 0x01;
  reseal_header(wire);
  expect_reject(wire, NetErrc::kHeaderCorrupt);
}

TEST(NetProto, OversizedDeclaredPayloadIsRejectedBeforeAllocation) {
  auto wire = net::encode_frame(MsgType::kEncode, 1, 0, bytes_of("x"));
  const std::uint32_t huge = 0xFFFFFFFFu;
  std::memcpy(wire.data() + 24, &huge, sizeof(huge));
  reseal_header(wire);
  FrameDecoder decoder(/*max_payload=*/1024);
  decoder.feed(wire);
  EXPECT_THROW((void)decoder.next(), NetError);
  EXPECT_TRUE(decoder.poisoned());
}

TEST(NetProto, PayloadBitFlipFailsPayloadCrc) {
  auto wire = net::encode_frame(MsgType::kEncode, 1, 0,
                                bytes_of("payload under test"));
  wire.back() ^= 0x40;
  expect_reject(wire, NetErrc::kPayloadCorrupt);
}

TEST(NetProto, PoisonedDecoderStaysPoisoned) {
  auto bad = net::encode_frame(MsgType::kPing, 1, 0, {});
  bad[0] = 'Z';
  FrameDecoder decoder;
  decoder.feed(bad);
  EXPECT_THROW((void)decoder.next(), NetError);
  // A perfectly valid frame after the poison must NOT resynchronize.
  decoder.feed(net::encode_frame(MsgType::kPing, 2, 0, {}));
  EXPECT_THROW((void)decoder.next(), NetError);
  EXPECT_TRUE(decoder.poisoned());
}

TEST(NetProto, BufferedReportsTornFrameBytes) {
  const auto wire = net::encode_frame(MsgType::kPing, 3, 0, {});
  FrameDecoder decoder;
  decoder.feed(std::span<const std::uint8_t>(wire.data(), 10));
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_EQ(decoder.buffered(), 10u);
}

// --------------------------------------------------------------------------
// Payload codecs

TEST(NetProto, EncodeRequestRoundTrips) {
  net::EncodeRequest request;
  request.method = "svd";
  request.codec = "zfp";
  request.guard = true;
  request.error_bound = 0.125;
  request.store = net::StoreMode::kSequence;
  request.store_name = "run42.rmps";
  request.nx = 4;
  request.ny = 3;
  request.nz = 2;
  request.data.assign(24, 1.5);
  const auto decoded = net::EncodeRequest::decode(request.encode());
  EXPECT_EQ(decoded.method, "svd");
  EXPECT_EQ(decoded.codec, "zfp");
  EXPECT_TRUE(decoded.guard);
  ASSERT_TRUE(decoded.error_bound.has_value());
  EXPECT_DOUBLE_EQ(*decoded.error_bound, 0.125);
  EXPECT_EQ(decoded.store, net::StoreMode::kSequence);
  EXPECT_EQ(decoded.store_name, "run42.rmps");
  EXPECT_EQ(decoded.nx, 4u);
  EXPECT_EQ(decoded.data, request.data);
}

TEST(NetProto, EncodeRequestShapeMismatchIsMalformed) {
  net::EncodeRequest request;
  request.nx = 4;
  request.ny = 4;
  request.nz = 4;
  request.data.assign(63, 0.0);  // 63 != 64
  auto wire = request.encode();
  try {
    (void)net::EncodeRequest::decode(wire);
    FAIL() << "shape mismatch accepted";
  } catch (const NetError& e) {
    EXPECT_EQ(e.code(), NetErrc::kMalformedPayload);
  }
}

/// Decode every proper prefix of `message`'s payload; each one must be a
/// typed kMalformedPayload, never a crash, an untyped throw or a success.
template <typename Message>
void expect_every_cut_malformed(const Message& message, const char* what) {
  const auto wire = message.encode();
  ASSERT_FALSE(wire.empty()) << what;
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    // A copy sized to the cut, so ASan sees a read past the prefix.
    const std::vector<std::uint8_t> head(wire.begin(),
                                         wire.begin() + static_cast<long>(cut));
    try {
      (void)Message::decode(head);
      ADD_FAILURE() << what << " cut at " << cut << " decoded";
    } catch (const NetError& e) {
      EXPECT_EQ(e.code(), NetErrc::kMalformedPayload)
          << what << " cut at " << cut << ": " << e.what();
    }
  }
}

TEST(NetProto, TruncatedPayloadIsMalformedNotACrash) {
  net::EncodeRequest encode_request;
  encode_request.nx = 8;
  encode_request.store = net::StoreMode::kFile;
  encode_request.store_name = "a.rmp";
  encode_request.error_bound = 0.5;
  encode_request.data.assign(8, 2.0);
  expect_every_cut_malformed(encode_request, "EncodeRequest");

  net::EncodeResponse encode_response;
  encode_response.method = "pca";
  encode_response.stored_path = "a.rmp";
  encode_response.container = bytes_of("archive");
  expect_every_cut_malformed(encode_response, "EncodeResponse");

  net::DecodeRequest decode_request;
  decode_request.codec = "zfp";
  decode_request.container = bytes_of("archive");
  expect_every_cut_malformed(decode_request, "DecodeRequest");

  net::DecodeResponse decode_response;
  decode_response.nx = 2;
  decode_response.detail = "approximate";
  decode_response.data = {1.0, 2.0};
  expect_every_cut_malformed(decode_response, "DecodeResponse");

  net::VerifyRequest verify_request;
  verify_request.container = bytes_of("archive");
  expect_every_cut_malformed(verify_request, "VerifyRequest");

  net::VerifyResponse verify_response;
  verify_response.version = 4;
  verify_response.detail = "ok";
  expect_every_cut_malformed(verify_response, "VerifyResponse");

  net::ScrubResponse scrub_response;
  scrub_response.files_checked = 3;
  scrub_response.detail = "clean";
  expect_every_cut_malformed(scrub_response, "ScrubResponse");

  net::StatsResponse stats_response;
  stats_response.accepted = 9;
  stats_response.obs_json = "{}";
  expect_every_cut_malformed(stats_response, "StatsResponse");

  net::ErrorResponse error_response;
  error_response.message = "busy";
  error_response.retry_after_ms = 10;
  expect_every_cut_malformed(error_response, "ErrorResponse");
}

TEST(NetProto, TrailingGarbageIsMalformed) {
  net::VerifyRequest request;
  request.container = bytes_of("container bytes");
  auto wire = request.encode();
  wire.push_back(0xAB);
  EXPECT_THROW((void)net::VerifyRequest::decode(wire), NetError);
}

TEST(NetProto, DecodeAndVerifyAndStatsRoundTrip) {
  net::DecodeRequest decode_request;
  decode_request.codec = "zfp";
  decode_request.container = bytes_of("archive");
  decode_request.best_effort = true;
  const auto decoded = net::DecodeRequest::decode(decode_request.encode());
  EXPECT_EQ(decoded.codec, "zfp");
  EXPECT_EQ(decoded.container, decode_request.container);
  EXPECT_TRUE(decoded.best_effort);

  net::VerifyResponse verify;
  verify.complete = true;
  verify.repaired = true;
  verify.version = 3;
  verify.detail = "meta 16 ok\n";
  const auto verify_decoded = net::VerifyResponse::decode(verify.encode());
  EXPECT_TRUE(verify_decoded.complete);
  EXPECT_TRUE(verify_decoded.repaired);
  EXPECT_EQ(verify_decoded.version, 3u);
  EXPECT_EQ(verify_decoded.detail, verify.detail);

  net::StatsResponse stats;
  stats.queue_depth = 3;
  stats.queue_capacity = 64;
  stats.accepted = 100;
  stats.rejected_busy = 5;
  stats.completed = 90;
  stats.failed = 5;
  stats.obs_json = "{\"v\":\"rmp-obs-v1\"}";
  const auto stats_decoded = net::StatsResponse::decode(stats.encode());
  EXPECT_EQ(stats_decoded.queue_depth, 3u);
  EXPECT_EQ(stats_decoded.queue_capacity, 64u);
  EXPECT_EQ(stats_decoded.accepted, 100u);
  EXPECT_EQ(stats_decoded.rejected_busy, 5u);
  EXPECT_EQ(stats_decoded.completed, 90u);
  EXPECT_EQ(stats_decoded.obs_json, stats.obs_json);
}

// Protocol v3 stats payload: 26 little-endian u64 counters in this exact
// order, then the length-prefixed obs JSON.  Pinned field by field so a
// reordered counter list cannot slip through the round-trip test above.
TEST(NetProto, StatsResponseWireLayoutIsPinned) {
  net::StatsResponse stats;
  std::uint64_t* const counters[] = {
      &stats.queue_depth, &stats.queue_capacity, &stats.accepted,
      &stats.rejected_busy, &stats.rejected_shutdown, &stats.deadline_missed,
      &stats.completed, &stats.failed, &stats.sessions_active,
      &stats.sessions_total, &stats.protocol_errors,
      &stats.recovery_journals_resumed, &stats.recovery_steps_recovered,
      &stats.recovery_files_repaired, &stats.recovery_files_quarantined,
      &stats.scrub_passes, &stats.scrub_sections_checked,
      &stats.scrub_sections_repaired, &stats.scrub_quarantined,
      &stats.dedup_hits, &stats.dedup_evictions, &stats.dedup_entries,
      &stats.inflight_bytes, &stats.max_inflight_bytes,
      &stats.admission_bytes_rejected, &stats.stalled_sessions};
  for (std::size_t i = 0; i < std::size(counters); ++i) {
    *counters[i] = 0x0100000000000000ull + i;
  }
  stats.obs_json = "{}";
  const auto wire = stats.encode();
  ASSERT_EQ(wire.size(), std::size(counters) * 8 + 4 + 2);
  for (std::size_t i = 0; i < std::size(counters); ++i) {
    for (std::size_t byte = 0; byte < 8; ++byte) {
      const std::uint64_t expected =
          ((0x0100000000000000ull + i) >> (8 * byte)) & 0xff;
      EXPECT_EQ(wire[8 * i + byte], expected) << "counter " << i;
    }
  }
  EXPECT_EQ(wire[std::size(counters) * 8], 2u);  // obs_json length
  EXPECT_EQ(wire.back(), '}');
}

TEST(NetProto, EncodeResponseRoundTripsBothShapes) {
  net::EncodeResponse inline_response;
  inline_response.method = "pca";
  inline_response.original_bytes = 2048;
  inline_response.stored_bytes = 512;
  inline_response.container = bytes_of("bytes");
  const auto a = net::EncodeResponse::decode(inline_response.encode());
  EXPECT_FALSE(a.stored);
  EXPECT_EQ(a.container, inline_response.container);
  EXPECT_EQ(a.original_bytes, 2048u);

  net::EncodeResponse stored_response;
  stored_response.stored = true;
  stored_response.stored_path = "/data/out/field.rmp";
  const auto b = net::EncodeResponse::decode(stored_response.encode());
  EXPECT_TRUE(b.stored);
  EXPECT_EQ(b.stored_path, "/data/out/field.rmp");
}

}  // namespace
