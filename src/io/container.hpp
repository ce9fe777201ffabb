// On-disk container for preconditioned, compressed fields.
//
// A container is a small header (magic, version, method name, grid shape)
// followed by named byte sections -- typically "reduced" (the reduced
// representation) and "delta" (the compressed residual), but the format is
// generic so preconditioners can add sections (means, masks, ...).
//
// Format v3 gives every section its own CRC-32 integrity domain (the
// header carries a section directory with per-payload checksums plus its
// own CRC) and can embed an XOR-parity block that repairs any single
// corrupted section.  v2 archives (whole-file CRC trailer) still read
// back unchanged.
//
// Format v4 additionally records an explicit payload offset in every
// directory entry -- a chunk index -- so a seekable reader
// (ContainerFileReader) can pread any single section in O(that section)
// bytes without touching the rest of the archive (DESIGN.md §12).  v4 is
// opt-in (SerializeOptions::with_chunk_index); default output stays v3
// and byte-identical to previous releases, and v2/v3 archives keep
// deserializing unchanged.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "io/container_error.hpp"
#include "io/file_ops.hpp"

namespace rmp::io {

struct Section {
  std::string name;
  std::vector<std::uint8_t> bytes;
};

struct Container {
  std::string method;  ///< preconditioner identifier, e.g. "pca"
  std::uint64_t nx = 1, ny = 1, nz = 1;
  std::vector<Section> sections;

  /// Total payload bytes across all sections (the "compressed size" used
  /// for compression-ratio accounting).
  std::size_t payload_bytes() const;

  const Section* find(const std::string& name) const;
  Section& add(std::string name, std::vector<std::uint8_t> bytes);
};

struct SerializeOptions {
  /// Append an XOR-parity block (sized like the largest section) that can
  /// reconstruct any single corrupted section payload.
  bool with_parity = false;
  /// Emit format v4: directory entries carry explicit payload offsets (a
  /// chunk index) so ContainerFileReader can address any section in O(1).
  /// Off by default -- v3 output stays byte-identical for existing flows.
  bool with_chunk_index = false;
  /// Retry/backoff policy (including the optional wall-clock deadline)
  /// applied to every durable write this archive performs.  Affects only
  /// I/O behaviour, never the serialized bytes, so archives stay
  /// byte-identical across policies.
  RetryPolicy retry;
};

enum class SectionState : std::uint8_t {
  kOk,        ///< payload CRC verified
  kRepaired,  ///< payload CRC failed but the parity block rebuilt it
  kDamaged,   ///< payload CRC failed and no repair was possible
};

/// "ok", "repaired" or "damaged".
const char* to_string(SectionState state);

struct SectionHealth {
  std::string name;
  SectionState state = SectionState::kOk;
  std::uint64_t bytes = 0;
};

/// Forensic record of a deserialization: format version, parity status
/// and the per-section verdicts.
struct ReadReport {
  std::uint32_t version = 0;
  bool parity_present = false;
  bool parity_valid = false;
  std::vector<SectionHealth> sections;

  /// Every section is intact or was repaired.
  bool complete() const;
  /// At least one section was rebuilt from parity.
  bool repaired() const;
  /// Names of sections that are still damaged.
  std::vector<std::string> damaged() const;
};

/// Serialize to a flat byte buffer (format v3, or v4 when
/// options.with_chunk_index is set).
std::vector<std::uint8_t> serialize(const Container& container,
                                    const SerializeOptions& options = {});

/// Strict parse (accepts v2, v3 and v4).  Repairs a single corrupted
/// section via parity when present; throws ContainerError if anything
/// remains damaged.  `report`, when non-null, receives the integrity
/// record.
Container deserialize(std::span<const std::uint8_t> bytes,
                      ReadReport* report = nullptr);

/// Best-effort parse: damaged sections are dropped from the result (and
/// recorded in `report`) instead of aborting the whole read.  Throws only
/// when the envelope itself is unusable (bad magic, corrupt header, v2
/// whole-file checksum mismatch).
Container deserialize_salvage(std::span<const std::uint8_t> bytes,
                              ReadReport* report = nullptr);

/// If a well-formed container starts at bytes[0], returns its full
/// serialized footprint (used by SequenceReader's forward-scan index
/// rebuild); std::nullopt otherwise.  Never throws.
std::optional<std::size_t> probe_container(
    std::span<const std::uint8_t> bytes) noexcept;

/// File round trip.  Writes are atomic: a temp file is populated first
/// and renamed over `path`, so a crashed writer never leaves a torn
/// archive at the destination.
void write_container(const std::filesystem::path& path,
                     const Container& container,
                     const SerializeOptions& options = {});
Container read_container(const std::filesystem::path& path);
Container read_container_salvage(const std::filesystem::path& path,
                                 ReadReport* report = nullptr);

/// One entry of a seekable archive's chunk index.
struct SectionInfo {
  std::string name;
  std::uint64_t offset = 0;  ///< absolute file offset of the payload
  std::uint64_t size = 0;
  std::uint32_t crc = 0;
};

/// Seekable archive reader: parses only the header, then serves
/// individual sections by positional read -- O(that section) bytes per
/// access instead of O(file).  Works on v4 (explicit chunk index) and v3
/// (offsets reconstructed from the directory's cumulative sizes); v2 has
/// a single whole-file integrity domain and is rejected with
/// kBadVersion.  All read methods are const and share one pread-backed
/// ReadFile, so a single reader serves N threads concurrently.
class ContainerFileReader {
 public:
  explicit ContainerFileReader(const std::filesystem::path& path,
                               const RetryPolicy& policy = {});

  std::uint32_t version() const noexcept { return version_; }
  /// Method + dims with no section payloads loaded.
  const Container& shell() const noexcept { return shell_; }
  const std::vector<SectionInfo>& sections() const noexcept {
    return sections_;
  }
  const SectionInfo* find(const std::string& name) const noexcept;
  std::uint64_t file_size() const noexcept { return file_.size(); }

  /// pread + CRC-verify one section payload.  Throws
  /// ContainerError{kSectionCorrupt} naming the section on mismatch.
  std::vector<std::uint8_t> read_section(const SectionInfo& info) const;
  std::vector<std::uint8_t> read_section(const std::string& name) const;

  /// Read and verify every section: the seekable equivalent of
  /// read_container (same bytes, section-at-a-time I/O).
  Container read_all() const;

 private:
  ReadFile file_;
  std::uint32_t version_ = 0;
  Container shell_;
  std::vector<SectionInfo> sections_;
};

}  // namespace rmp::io
