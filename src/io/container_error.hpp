// Typed error taxonomy for the archive layer.  Every failure mode of the
// container/sequence formats maps to a ContainerErrc so callers (CLI,
// salvage paths, tests) can dispatch on *what* went wrong and *which*
// section is damaged instead of string-matching std::runtime_error texts.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "base/byte_io.hpp"

namespace rmp::io {

enum class ContainerErrc : std::uint8_t {
  kTruncated = 1,        ///< input ends before the format says it should
  kBadMagic,             ///< not a container at all
  kBadVersion,           ///< version newer/older than this reader supports
  kChecksumMismatch,     ///< v2 whole-file CRC failed (single integrity domain)
  kHeaderCorrupt,        ///< v3 header/ directory CRC failed or flags invalid
  kSectionCorrupt,       ///< a section payload failed its CRC (unrepaired)
  kMissingSection,       ///< decode needs a section the container lacks
  kSectionMalformed,     ///< section present but its contents do not parse
  kIoError,              ///< open/read/write/rename on the underlying file failed
  kIndexCorrupt,         ///< sequence trailer/index unusable and rebuild failed
  kTrailingGarbage,      ///< buffer extends past the container footprint
  kUnrecoverable,        ///< best-effort salvage could not produce any field
  kDeadlineExceeded,     ///< the operation's wall-clock budget ran out
};

inline const char* to_string(ContainerErrc code) {
  switch (code) {
    case ContainerErrc::kTruncated: return "truncated";
    case ContainerErrc::kBadMagic: return "bad-magic";
    case ContainerErrc::kBadVersion: return "bad-version";
    case ContainerErrc::kChecksumMismatch: return "checksum-mismatch";
    case ContainerErrc::kHeaderCorrupt: return "header-corrupt";
    case ContainerErrc::kSectionCorrupt: return "section-corrupt";
    case ContainerErrc::kMissingSection: return "missing-section";
    case ContainerErrc::kSectionMalformed: return "section-malformed";
    case ContainerErrc::kIoError: return "io-error";
    case ContainerErrc::kIndexCorrupt: return "index-corrupt";
    case ContainerErrc::kTrailingGarbage: return "trailing-garbage";
    case ContainerErrc::kUnrecoverable: return "unrecoverable";
    case ContainerErrc::kDeadlineExceeded: return "deadline-exceeded";
  }
  return "unknown";
}

/// Carries the error code plus (when known) the name of the damaged
/// section.  Derives from std::runtime_error so pre-existing catch sites
/// keep working.
class ContainerError : public std::runtime_error {
 public:
  ContainerError(ContainerErrc code, const std::string& detail,
                 std::string section = {})
      : std::runtime_error(format(code, detail, section)),
        code_(code),
        section_(std::move(section)) {}

  ContainerErrc code() const noexcept { return code_; }
  const std::string& section() const noexcept { return section_; }

 private:
  static std::string format(ContainerErrc code, const std::string& detail,
                            const std::string& section) {
    std::string message = "container[";
    message += to_string(code);
    message += "]";
    if (!section.empty()) {
      message += " section '" + section + "'";
    }
    message += ": " + detail;
    return message;
  }

  ContainerErrc code_;
  std::string section_;
};

/// ByteReader hook for the container, sequence-file and request-log
/// layouts: a short field or an oversized length is kTruncated, bytes past
/// the last field kTrailingGarbage.
struct ContainerHook {
  [[noreturn]] void fail(ReadFault fault, const std::string& detail) const {
    throw ContainerError(fault == ReadFault::kTrailing
                             ? ContainerErrc::kTrailingGarbage
                             : ContainerErrc::kTruncated,
                         detail);
  }
};

}  // namespace rmp::io
