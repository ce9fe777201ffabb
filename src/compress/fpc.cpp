#include "compress/fpc.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>

#include "compress/codec_error.hpp"
#include "obs/obs.hpp"

namespace rmp::compress {
namespace {

constexpr std::uint32_t kMagic = 0x31435046;  // "FPC1"
constexpr unsigned kMinTableBits = 4;
constexpr unsigned kMaxTableBits = 26;

struct Header {
  std::uint32_t magic;
  std::uint8_t table_bits;
  std::uint8_t reserved[3];
  std::uint64_t nx, ny, nz;
};

// Leading-zero-byte count of the XOR residual, with FPC's 3-bit encoding:
// the rare count 4 is folded down to 3 (one extra residual byte stored).
unsigned code_from_lzb(unsigned lzb) {
  return lzb >= 4 ? lzb - 1 : lzb;  // 0,1,2,3,[4->3],5->4,6->5,7->6,8->7
}
unsigned lzb_from_code(unsigned code) {
  return code >= 4 ? code + 1 : code;
}

unsigned leading_zero_bytes(std::uint64_t v) {
  if (v == 0) return 8;
  return static_cast<unsigned>(std::countl_zero(v)) / 8;
}

class PredictorPair {
 public:
  explicit PredictorPair(unsigned table_bits)
      : mask_((std::uint64_t{1} << table_bits) - 1),
        fcm_(mask_ + 1, 0),
        dfcm_(mask_ + 1, 0) {}

  std::uint64_t fcm_prediction() const { return fcm_[fcm_hash_]; }
  std::uint64_t dfcm_prediction() const {
    return dfcm_[dfcm_hash_] + last_value_;
  }

  void update(std::uint64_t actual) {
    fcm_[fcm_hash_] = actual;
    fcm_hash_ = ((fcm_hash_ << 6) ^ (actual >> 48)) & mask_;
    const std::uint64_t delta = actual - last_value_;
    dfcm_[dfcm_hash_] = delta;
    dfcm_hash_ = ((dfcm_hash_ << 2) ^ (delta >> 40)) & mask_;
    last_value_ = actual;
  }

 private:
  std::uint64_t mask_;
  std::vector<std::uint64_t> fcm_;
  std::vector<std::uint64_t> dfcm_;
  std::uint64_t fcm_hash_ = 0;
  std::uint64_t dfcm_hash_ = 0;
  std::uint64_t last_value_ = 0;
};

}  // namespace

FpcCompressor::FpcCompressor(FpcOptions options) : options_(options) {
  if (options_.table_bits < kMinTableBits ||
      options_.table_bits > kMaxTableBits) {
    throw std::invalid_argument("FpcCompressor: table_bits out of range");
  }
}

std::vector<std::uint8_t> FpcCompressor::compress(std::span<const double> data,
                                                  const Dims& dims) const {
  const obs::ScopedSpan span("codec/fpc");
  obs::count("codec.fpc.bytes_in", data.size() * sizeof(double));
  if (data.size() != dims.count()) {
    throw std::invalid_argument("FpcCompressor: data size does not match dims");
  }
  PredictorPair predictors(options_.table_bits);

  // Layout: header | packed 4-bit codes (selector+lzb) | residual bytes.
  std::vector<std::uint8_t> codes;
  codes.reserve((data.size() + 1) / 2);
  std::vector<std::uint8_t> residuals;
  residuals.reserve(data.size() * 4);

  std::uint8_t pending = 0;
  bool half_full = false;
  for (double value : data) {
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));

    const std::uint64_t xor_fcm = bits ^ predictors.fcm_prediction();
    const std::uint64_t xor_dfcm = bits ^ predictors.dfcm_prediction();
    predictors.update(bits);

    const bool use_dfcm = leading_zero_bytes(xor_dfcm) > leading_zero_bytes(xor_fcm);
    const std::uint64_t residual = use_dfcm ? xor_dfcm : xor_fcm;
    const unsigned lzb = lzb_from_code(code_from_lzb(leading_zero_bytes(residual)));
    const unsigned code =
        (use_dfcm ? 8u : 0u) | code_from_lzb(leading_zero_bytes(residual));

    if (half_full) {
      codes.push_back(static_cast<std::uint8_t>(pending | (code << 4)));
      half_full = false;
    } else {
      pending = static_cast<std::uint8_t>(code);
      half_full = true;
    }
    // Residual bytes, most significant non-zero byte first.
    for (unsigned b = 8 - lzb; b-- > 0;) {
      residuals.push_back(static_cast<std::uint8_t>(residual >> (8 * b)));
    }
  }
  if (half_full) codes.push_back(pending);

  std::vector<std::uint8_t> out;
  put(out, Header{kMagic, static_cast<std::uint8_t>(options_.table_bits),
                  {0, 0, 0}, dims.nx, dims.ny, dims.nz});
  put(out, std::uint64_t{codes.size()});
  put(out, codes);
  put(out, residuals);
  obs::count("codec.fpc.bytes_out", out.size());
  return out;
}

std::vector<double> FpcCompressor::decompress(
    std::span<const std::uint8_t> stream) const {
  const obs::ScopedSpan span("codec/fpc");
  StreamReader in(stream, {"FPC"});
  const auto header = in.read<Header>("header");
  const auto code_bytes = in.read<std::uint64_t>("code size");
  constexpr std::size_t code_offset = sizeof(Header) + sizeof(code_bytes);
  if (header.magic != kMagic) {
    in.fail(CodecErrc::kMalformedStream, "bad magic");
  }
  // Same range as the constructor: the tables hold 2^table_bits entries.
  if (header.table_bits < kMinTableBits || header.table_bits > kMaxTableBits) {
    in.fail(CodecErrc::kMalformedStream, "table_bits out of range");
  }
  const std::size_t count =
      checked_cells({header.nx, header.ny, header.nz}, "FPC");
  // Every value costs 4 code bits, so the stream caps the count before
  // anything count-sized is allocated.
  if (count > 2 * in.remaining()) {
    in.fail(CodecErrc::kCountOverflow, "value count exceeds the stream");
  }
  in.block(code_bytes, "code section");  // the loop reads it in place
  if (code_bytes != (count + 1) / 2) {
    in.fail(CodecErrc::kMalformedStream,
            "code section does not match the value count");
  }
  std::size_t residual_offset = code_offset + code_bytes;

  PredictorPair predictors(header.table_bits);
  std::vector<double> out;
  out.reserve(count);

  for (std::size_t n = 0; n < count; ++n) {
    const std::uint8_t packed = stream[code_offset + n / 2];
    const unsigned code = (n % 2 == 0) ? (packed & 0x0f) : (packed >> 4);
    const bool use_dfcm = (code & 8) != 0;
    const unsigned lzb = lzb_from_code(code & 7);

    std::uint64_t residual = 0;
    const unsigned nbytes = 8 - lzb;
    if (nbytes > stream.size() - residual_offset) {
      throw CodecError(CodecErrc::kTruncated,
                       "FPC decode: truncated residuals");
    }
    for (unsigned b = 0; b < nbytes; ++b) {
      residual = (residual << 8) | stream[residual_offset++];
    }

    const std::uint64_t prediction =
        use_dfcm ? predictors.dfcm_prediction() : predictors.fcm_prediction();
    const std::uint64_t bits = prediction ^ residual;
    predictors.update(bits);

    double value;
    std::memcpy(&value, &bits, sizeof(value));
    out.push_back(value);
  }
  return out;
}

}  // namespace rmp::compress
