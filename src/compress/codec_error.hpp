// Typed error taxonomy for the entropy-coding layer (Huffman + LZ
// backend + SZ payload parsing).  Mirrors io::ContainerError: hostile or
// corrupt streams must fail with a dispatchable code -- never bad_alloc
// from a stream-controlled allocation, never fabricated symbols from a
// truncated stream, never an untyped std::out_of_range from deep inside
// a bit loop.  Derives from std::runtime_error so pre-existing catch
// sites keep working.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "base/byte_io.hpp"

namespace rmp::compress {

enum class CodecErrc : std::uint8_t {
  kTruncated = 1,   ///< stream ends before the format says it should
  kCountOverflow,   ///< stream-declared count exceeds the input byte budget
  kMalformedTable,  ///< code table fails validation (lengths / Kraft sum)
  kInvalidCode,     ///< bit pattern matches no canonical code
  kMalformedStream, ///< anything else that does not parse
};

inline const char* to_string(CodecErrc code) {
  switch (code) {
    case CodecErrc::kTruncated: return "truncated";
    case CodecErrc::kCountOverflow: return "count-overflow";
    case CodecErrc::kMalformedTable: return "malformed-table";
    case CodecErrc::kInvalidCode: return "invalid-code";
    case CodecErrc::kMalformedStream: return "malformed-stream";
  }
  return "unknown";
}

class CodecError : public std::runtime_error {
 public:
  CodecError(CodecErrc code, const std::string& detail)
      : std::runtime_error(std::string("codec[") + to_string(code) +
                           "]: " + detail),
        code_(code) {}

  CodecErrc code() const noexcept { return code_; }

 private:
  CodecErrc code_;
};

/// ByteReader hook for the codec streams: a short field is kTruncated, a
/// count the bytes left cannot hold kCountOverflow, trailing bytes
/// kMalformedStream, and every message names the codec, e.g. "SZ decode:
/// stream ends in outlier count".
struct CodecHook {
  const char* codec;

  [[noreturn]] void fail(ReadFault fault, const std::string& detail) const {
    fail(fault == ReadFault::kEnds    ? CodecErrc::kTruncated
         : fault == ReadFault::kCount ? CodecErrc::kCountOverflow
                                      : CodecErrc::kMalformedStream,
         detail);
  }
  [[noreturn]] void fail(CodecErrc code, const std::string& detail) const {
    throw CodecError(code, std::string(codec) + " decode: " + detail);
  }
};

using StreamReader = ByteReader<CodecHook>;

}  // namespace rmp::compress
