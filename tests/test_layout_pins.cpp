// Byte-layout pins for the fixed-width formats outside the codec streams:
// every rmpd wire payload and the frame header, a 3-step sequence archive
// (containers, commit markers, v2 trailer), a 3-record request log, one
// matrix section and one CSR section.  Each pin is the size plus the
// CRC-32 of the bytes a fixed input encodes to, so any change to a field's
// width, order or byte order fails here before it reaches a reader in the
// field.  The inputs are integers and exactly representable doubles only,
// so the bytes do not depend on the compiler's floating-point choices.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <unistd.h>
#include <vector>

#include "core/serialize.hpp"
#include "io/checksum.hpp"
#include "io/container.hpp"
#include "io/sequence_file.hpp"
#include "io/store_health.hpp"
#include "la/matrix.hpp"
#include "la/sparse.hpp"
#include "net/protocol.hpp"

namespace rmp {
namespace {

namespace fs = std::filesystem;

struct Pin {
  std::size_t size;
  std::uint32_t crc;
};

void expect_pin(std::span<const std::uint8_t> bytes, Pin pin,
                const char* what) {
  EXPECT_EQ(bytes.size(), pin.size) << what;
  EXPECT_EQ(io::crc32(bytes), pin.crc)
      << what << ": crc 0x" << std::hex << io::crc32(bytes);
}

std::vector<std::uint8_t> slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

std::vector<std::uint8_t> ramp(std::size_t n, std::uint8_t start) {
  std::vector<std::uint8_t> bytes(n);
  for (std::size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<std::uint8_t>(start + 7 * i);
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// Wire payloads

TEST(LayoutPins, EncodeRequestPayload) {
  net::EncodeRequest request;
  request.method = "pca";
  request.codec = "sz";
  request.guard = true;
  request.error_bound = 0.25;
  request.store = net::StoreMode::kSequence;
  request.store_name = "run.rmps";
  request.nx = 2;
  request.ny = 2;
  request.nz = 1;
  request.request_token = 0x0102030405060708ull;
  request.data = {1.0, -2.5, 0.125, 1024.0};
  expect_pin(request.encode(), {108, 0x97809473u}, "EncodeRequest");
}

TEST(LayoutPins, EncodeResponsePayload) {
  net::EncodeResponse response;
  response.method = "pca";
  response.original_bytes = 4096;
  response.stored_bytes = 123;
  response.stored = true;
  response.stored_path = "out/run.rmps";
  response.container = ramp(9, 3);
  expect_pin(response.encode(), {57, 0x78bc55c2u}, "EncodeResponse");
}

TEST(LayoutPins, DecodeRequestPayload) {
  net::DecodeRequest request;
  request.codec = "zfp";
  request.best_effort = true;
  request.store_name = "run.rmps";
  request.step = 2;
  expect_pin(request.encode(), {36, 0x4091a5eau}, "DecodeRequest");
}

TEST(LayoutPins, DecodeResponsePayload) {
  net::DecodeResponse response;
  response.nx = 3;
  response.ny = 1;
  response.nz = 1;
  response.detail = "best effort";
  response.data = {0.5, -0.75, 3.0};
  expect_pin(response.encode(), {71, 0xd5ba1f0eu}, "DecodeResponse");
}

TEST(LayoutPins, VerifyRequestPayload) {
  net::VerifyRequest request;
  request.container = ramp(13, 40);
  expect_pin(request.encode(), {21, 0x29ecdc76u}, "VerifyRequest");
}

TEST(LayoutPins, VerifyResponsePayload) {
  net::VerifyResponse response;
  response.complete = true;
  response.repaired = false;
  response.version = 4;
  response.detail = "meta 16 ok\n";
  expect_pin(response.encode(), {21, 0x5f5d131du}, "VerifyResponse");
}

TEST(LayoutPins, ScrubResponsePayload) {
  net::ScrubResponse response;
  response.files_checked = 5;
  response.sections_checked = 21;
  response.sections_repaired = 2;
  response.files_repaired = 1;
  response.files_quarantined = 1;
  response.detail = "a.rmp: repaired";
  expect_pin(response.encode(), {59, 0xb559739fu}, "ScrubResponse");
}

TEST(LayoutPins, StatsResponsePayload) {
  net::StatsResponse response;
  std::uint64_t next = 1;
#define RMP_STATS_SET(name) response.name = next++ * 0x0101;
  RMP_STATS_FIELDS(RMP_STATS_SET, RMP_STATS_SET)
#undef RMP_STATS_SET
  response.obs_json = "{\"schema\":\"rmp-obs-v1\"}";
  expect_pin(response.encode(), {235, 0x223a0f33u}, "StatsResponse");
}

TEST(LayoutPins, ErrorResponsePayload) {
  net::ErrorResponse response;
  response.message = "server busy";
  response.retry_after_ms = 250;
  expect_pin(response.encode(), {19, 0x9380502du}, "ErrorResponse");
}

TEST(LayoutPins, FrameHeader) {
  const auto payload = ramp(5, 1);
  const auto frame =
      net::encode_frame(net::MsgType::kDecodeResult, 0x1122334455667788ull,
                        1500, payload, net::Status::kBusy);
  expect_pin(frame, {41, 0x6a1f8bc2u}, "frame");
}

// ---------------------------------------------------------------------------
// Sequence archive and request log

io::Container step_container(int i) {
  io::Container c;
  c.method = "step" + std::to_string(i);
  c.nx = static_cast<std::uint64_t>(i + 2);
  c.ny = 3;
  c.nz = 1;
  c.add("data", ramp(static_cast<std::size_t>(5 + 4 * i),
                     static_cast<std::uint8_t>(i)));
  c.add("meta", ramp(8, 100));
  return c;
}

class LayoutPinFiles : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("rmp_layout_pins_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(LayoutPinFiles, SequenceArchiveWithMarkersAndTrailer) {
  const fs::path path = dir_ / "three.rmps";
  {
    io::SequenceWriter writer(path);
    for (int i = 0; i < 3; ++i) writer.append(step_container(i));
    writer.finish();
  }
  const auto bytes = slurp(path);
  expect_pin(bytes, {502, 0x682d3fceu}, "sequence archive");
  // The trailer ends with the v2 magic "RRMPQSE2".
  ASSERT_GE(bytes.size(), 8u);
  EXPECT_EQ(std::string(bytes.end() - 8, bytes.end()), "RRMPQSE2");

  // The scrubber's rewrite path emits the same bytes from the raw steps.
  std::vector<std::vector<std::uint8_t>> steps;
  for (int i = 0; i < 3; ++i) steps.push_back(io::serialize(step_container(i)));
  const fs::path rewritten = dir_ / "rewritten.rmps";
  io::write_sequence_archive(rewritten, steps);
  EXPECT_EQ(slurp(rewritten), bytes);

  io::SequenceReader reader(path);
  ASSERT_EQ(reader.step_count(), 3u);
  EXPECT_FALSE(reader.index_rebuilt());
  EXPECT_EQ(reader.read_step(2).method, "step2");
}

TEST_F(LayoutPinFiles, RequestLogRecords) {
  const fs::path sequence = dir_ / "run.rmps";
  {
    auto log = io::RequestLog::open(sequence, /*fresh=*/true);
    log.record(101, 0);
    log.record(0x0A0B0C0D0E0F1011ull, 1);
    log.record(103, 2);
  }
  const fs::path log_path = io::request_log_path(sequence);
  expect_pin(slurp(log_path), {72, 0x3c56def0u}, "request log");
  const auto entries = io::scan_request_log(log_path);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[1].token, 0x0A0B0C0D0E0F1011ull);
  EXPECT_EQ(entries[2].step, 2u);
}

// ---------------------------------------------------------------------------
// Archive sections

TEST(LayoutPins, MatrixSection) {
  la::Matrix m(2, 3);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      m(i, j) = static_cast<double>(i * 3 + j) - 2.5;
    }
  }
  const auto bytes = core::matrix_to_bytes(m);
  expect_pin(bytes, {64, 0x495b9d0cu}, "matrix section");
  const la::Matrix back = core::bytes_to_matrix(bytes);
  EXPECT_EQ(back.rows(), 2u);
  EXPECT_EQ(back.flat()[5], 0.5 + 2.0);
}

la::Matrix sparse_source() {
  la::Matrix dense(3, 4);
  dense(0, 1) = 1.5;
  dense(0, 3) = -4.0;
  dense(2, 0) = 0.25;
  dense(2, 2) = 8.0;
  dense(2, 3) = -0.5;
  return dense;
}

TEST(LayoutPins, CsrSection) {
  const la::CsrMatrix csr = la::CsrMatrix::from_dense(sparse_source());
  const auto bytes = core::csr_to_bytes(csr);
  expect_pin(bytes, {116, 0xcbaac509u}, "CSR section");
  const la::CsrMatrix back = core::bytes_to_csr(bytes, 3 * 4);
  const la::Matrix dense = back.to_dense();
  const la::Matrix source = sparse_source();
  EXPECT_TRUE(std::equal(dense.flat().begin(), dense.flat().end(),
                         source.flat().begin(), source.flat().end()));
}

}  // namespace
}  // namespace rmp
