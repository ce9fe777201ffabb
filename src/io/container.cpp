#include "io/container.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>

#include "io/checksum.hpp"
#include "io/file_ops.hpp"
#include "obs/obs.hpp"

namespace rmp::io {
namespace {

constexpr std::uint32_t kMagic = 0x50434D52;  // "RMCP"
constexpr std::uint32_t kVersionV2 = 2;       // whole-file CRC trailer
constexpr std::uint32_t kVersionV3 = 3;       // per-section CRC + parity
constexpr std::uint32_t kVersionV4 = 4;       // v3 + explicit chunk index
constexpr std::uint32_t kFlagParity = 1u << 0;

std::size_t max_section_size(const Container& container) {
  std::size_t max = 0;
  for (const auto& s : container.sections) max = std::max(max, s.bytes.size());
  return max;
}

// Parity step: dst[k] ^= src[k] for every k < src.size(), a word at a time;
// dst is at least as long as src.
void xor_into(std::span<std::uint8_t> dst, std::span<const std::uint8_t> src) {
  std::uint8_t* d = dst.data();
  const std::uint8_t* s = src.data();
  std::size_t k = 0;
  for (; src.size() - k >= 8; k += 8) {
    std::uint64_t a, b;
    std::memcpy(&a, d + k, 8);
    std::memcpy(&b, s + k, 8);
    a ^= b;
    std::memcpy(d + k, &a, 8);
  }
  for (; k < src.size(); ++k) d[k] ^= s[k];
}

// ---------------------------------------------------------------------------
// v3: [magic, version, flags, method, dims, count,
//      directory {name, size, crc}*, (parity_size, parity_crc)?, header_crc]
//     [payload 0]...[payload n-1][parity bytes?]
// v4: identical except each directory entry is {name, offset, size, crc}
//     with `offset` relative to the first payload byte -- the chunk index
//     that lets a seekable reader pread one section without a scan.

struct DirEntry {
  std::string name;
  std::uint64_t offset = 0;  ///< payload-relative; implicit (cumulative) in v3
  std::uint64_t size = 0;
  std::uint32_t crc = 0;
};

struct HeaderV3 {
  std::uint32_t version = 0;
  Container shell;  ///< method + dims, sections empty
  std::vector<DirEntry> dir;
  bool parity = false;
  std::uint64_t parity_size = 0;
  std::uint32_t parity_crc = 0;
  std::size_t payload_offset = 0;  ///< first payload byte
  std::size_t total_size = 0;      ///< full container footprint
};

/// Shared v3/v4 header parse.  `bytes` may be a prefix of the archive
/// (ContainerFileReader grows its read window on kTruncated); `available`
/// is the full archive footprint budget the payloads are validated
/// against -- bytes.size() for in-memory parses, the file size for
/// seekable reads.
HeaderV3 parse_v34_header(std::span<const std::uint8_t> bytes,
                          std::uint64_t available) {
  ByteReader in(bytes, ContainerHook{});
  if (in.read<std::uint32_t>("magic") != kMagic) {
    throw ContainerError(ContainerErrc::kBadMagic, "bad magic");
  }
  HeaderV3 header;
  header.version = in.read<std::uint32_t>("version");
  if (header.version != kVersionV3 && header.version != kVersionV4) {
    throw ContainerError(ContainerErrc::kBadVersion,
                         "not a v3/v4 container");
  }
  const auto flags = in.read<std::uint32_t>("flags");
  if ((flags & ~kFlagParity) != 0) {
    throw ContainerError(ContainerErrc::kHeaderCorrupt,
                         "unknown flag bits set");
  }
  header.parity = (flags & kFlagParity) != 0;
  header.shell.method = in.string("method");
  header.shell.nx = in.read<std::uint64_t>("nx");
  header.shell.ny = in.read<std::uint64_t>("ny");
  header.shell.nz = in.read<std::uint64_t>("nz");
  const auto count = in.read<std::uint32_t>("section count");
  // A directory entry occupies at least 16 bytes (24 in v4), so a count
  // that cannot fit in the remaining input is corruption -- reject before
  // reserving.
  const std::size_t min_entry = header.version == kVersionV4 ? 24 : 16;
  if (count > in.remaining() / min_entry) {
    in.fail(ReadFault::kCount, "section directory larger than input");
  }
  header.dir.reserve(count);
  std::uint64_t running = 0;
  for (std::uint32_t s = 0; s < count; ++s) {
    DirEntry entry;
    entry.name = in.string("section name");
    if (header.version == kVersionV4) {
      entry.offset = in.read<std::uint64_t>("section offset");
      // The chunk index must describe exactly the contiguous layout the
      // serializer emits: gaps or overlaps would let a corrupt entry
      // alias another section's bytes past its CRC domain.
      if (entry.offset != running) {
        throw ContainerError(ContainerErrc::kIndexCorrupt,
                             "chunk index offset mismatch for section",
                             entry.name);
      }
    } else {
      entry.offset = running;
    }
    entry.size = in.read<std::uint64_t>("section size");
    entry.crc = in.read<std::uint32_t>("section crc");
    constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();
    if (entry.size > kMaxU64 - running) {
      throw ContainerError(ContainerErrc::kTruncated,
                           "section sizes overflow");
    }
    running += entry.size;
    header.dir.push_back(std::move(entry));
  }
  if (header.parity) {
    header.parity_size = in.read<std::uint64_t>("parity size");
    header.parity_crc = in.read<std::uint32_t>("parity crc");
  }
  const std::size_t crc_offset = in.offset();
  if (crc32(bytes.first(crc_offset)) != in.read<std::uint32_t>("header crc")) {
    throw ContainerError(ContainerErrc::kHeaderCorrupt,
                         "header checksum mismatch");
  }
  header.payload_offset = in.offset();

  // Overflow-safe footprint: sizes are attacker-controlled u64s.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t need = running;
  if (header.parity) {
    if (header.parity_size > kMax - need) {
      throw ContainerError(ContainerErrc::kTruncated,
                           "parity size overflows");
    }
    need += header.parity_size;
  }
  if (header.payload_offset > available ||
      need > available - header.payload_offset) {
    throw ContainerError(ContainerErrc::kTruncated,
                         "payloads extend past end of input");
  }
  header.total_size = header.payload_offset + static_cast<std::size_t>(need);
  return header;
}

struct ParsedV3 {
  Container container;
  ReadReport report;
};

/// Shared strict/salvage v3/v4 reader.  In strict mode an unrepaired
/// section throws; in salvage mode it is dropped and recorded in the
/// report.
ParsedV3 read_v3(std::span<const std::uint8_t> bytes, bool strict) {
  const HeaderV3 header = parse_v34_header(bytes, bytes.size());
  if (bytes.size() < header.total_size) {
    throw ContainerError(ContainerErrc::kTruncated,
                         "input shorter than container footprint");
  }
  if (bytes.size() > header.total_size) {
    throw ContainerError(ContainerErrc::kTrailingGarbage,
                         "input extends past container footprint");
  }

  std::vector<std::span<const std::uint8_t>> payloads;
  payloads.reserve(header.dir.size());
  std::size_t offset = header.payload_offset;
  std::size_t expected_parity = 0;
  for (const DirEntry& entry : header.dir) {
    payloads.push_back(
        bytes.subspan(header.payload_offset +
                          static_cast<std::size_t>(entry.offset),
                      static_cast<std::size_t>(entry.size)));
    offset += static_cast<std::size_t>(entry.size);
    expected_parity =
        std::max(expected_parity, static_cast<std::size_t>(entry.size));
  }
  const std::span<const std::uint8_t> parity =
      header.parity
          ? bytes.subspan(offset, static_cast<std::size_t>(header.parity_size))
          : std::span<const std::uint8_t>{};

  ParsedV3 result;
  result.report.version = header.version;
  result.report.parity_present = header.parity;
  result.report.parity_valid =
      header.parity && header.parity_size == expected_parity &&
      crc32(parity) == header.parity_crc;

  std::vector<bool> intact(header.dir.size(), true);
  std::size_t damaged_count = 0;
  {
    const obs::ScopedSpan span("crc-verify");
    for (std::size_t s = 0; s < header.dir.size(); ++s) {
      intact[s] = crc32(payloads[s]) == header.dir[s].crc;
      if (!intact[s]) ++damaged_count;
    }
  }
  obs::count("io.container.sections_verified", header.dir.size());
  if (damaged_count > 0) {
    obs::count("io.container.sections_damaged", damaged_count);
  }

  // A single damaged section can be rebuilt from parity XOR the others.
  std::optional<std::size_t> repaired_index;
  std::vector<std::uint8_t> repaired_bytes;
  if (damaged_count == 1 && result.report.parity_valid) {
    const std::size_t target = static_cast<std::size_t>(
        std::find(intact.begin(), intact.end(), false) - intact.begin());
    repaired_bytes.assign(parity.begin(), parity.end());
    for (std::size_t s = 0; s < payloads.size(); ++s) {
      if (s != target) xor_into(repaired_bytes, payloads[s]);
    }
    repaired_bytes.resize(static_cast<std::size_t>(header.dir[target].size));
    if (crc32(repaired_bytes) == header.dir[target].crc) {
      repaired_index = target;
      obs::count("io.container.parity_repairs");
    }
  }

  result.container = header.shell;
  for (std::size_t s = 0; s < header.dir.size(); ++s) {
    SectionHealth health;
    health.name = header.dir[s].name;
    health.bytes = header.dir[s].size;
    if (intact[s]) {
      health.state = SectionState::kOk;
      result.container.add(header.dir[s].name,
                           {payloads[s].begin(), payloads[s].end()});
    } else if (repaired_index && *repaired_index == s) {
      health.state = SectionState::kRepaired;
      result.container.add(header.dir[s].name, repaired_bytes);
    } else {
      health.state = SectionState::kDamaged;
      if (strict) {
        throw ContainerError(ContainerErrc::kSectionCorrupt,
                             "payload checksum mismatch", header.dir[s].name);
      }
    }
    result.report.sections.push_back(std::move(health));
  }
  return result;
}

// ---------------------------------------------------------------------------
// v2 (legacy): [magic, version, method, dims, count,
//               {name, size, bytes}*][whole-file crc]

Container deserialize_v2(std::span<const std::uint8_t> bytes,
                         ReadReport* report) {
  const std::size_t body_size =
      bytes.size() - std::min(bytes.size(), sizeof(std::uint32_t));
  ByteReader trailer(bytes.subspan(body_size), ContainerHook{});
  if (crc32(bytes.first(body_size)) != trailer.read<std::uint32_t>("v2 crc")) {
    throw ContainerError(ContainerErrc::kChecksumMismatch,
                         "v2 whole-file checksum mismatch (corrupt data)");
  }

  ByteReader in(bytes.first(body_size), ContainerHook{});
  if (in.read<std::uint32_t>("magic") != kMagic) {
    throw ContainerError(ContainerErrc::kBadMagic, "bad magic");
  }
  if (in.read<std::uint32_t>("version") != kVersionV2) {
    throw ContainerError(ContainerErrc::kBadVersion, "not a v2 container");
  }
  Container container;
  container.method = in.string("method");
  container.nx = in.read<std::uint64_t>("nx");
  container.ny = in.read<std::uint64_t>("ny");
  container.nz = in.read<std::uint64_t>("nz");
  const auto count = in.read<std::uint32_t>("section count");
  if (count > in.remaining() / 12) {
    in.fail(ReadFault::kCount, "section count larger than input");
  }
  container.sections.reserve(count);
  for (std::uint32_t s = 0; s < count; ++s) {
    Section section;
    section.name = in.string("section name");
    section.bytes = in.counted<std::uint8_t>("section bytes");
    container.sections.push_back(std::move(section));
  }
  in.finish("the last v2 section");
  if (report != nullptr) {
    *report = ReadReport{};
    report->version = kVersionV2;
    for (const auto& section : container.sections) {
      report->sections.push_back(
          {section.name, SectionState::kOk, section.bytes.size()});
    }
  }
  return container;
}

std::uint32_t peek_version(std::span<const std::uint8_t> bytes) {
  ByteReader in(bytes, ContainerHook{});
  const auto magic = in.read<std::uint32_t>("magic");
  const auto version = in.read<std::uint32_t>("version");
  if (magic != kMagic) {
    throw ContainerError(ContainerErrc::kBadMagic, "bad magic");
  }
  return version;
}

std::vector<std::uint8_t> read_file_bytes(const std::filesystem::path& path,
                                          const char* who) {
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  if (!file) {
    throw ContainerError(ContainerErrc::kIoError,
                         std::string(who) + ": cannot open " + path.string());
  }
  const std::streamoff end = file.tellg();
  if (end < 0) {
    throw ContainerError(ContainerErrc::kIoError,
                         std::string(who) + ": cannot stat " + path.string());
  }
  if (end == 0) {
    throw ContainerError(ContainerErrc::kTruncated,
                         std::string(who) + ": " + path.string() +
                             " is empty");
  }
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(end));
  file.seekg(0);
  file.read(reinterpret_cast<char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!file) {
    throw ContainerError(ContainerErrc::kIoError,
                         std::string(who) + ": read failed on " +
                             path.string());
  }
  return bytes;
}

}  // namespace

std::size_t Container::payload_bytes() const {
  std::size_t total = 0;
  for (const auto& s : sections) total += s.bytes.size();
  return total;
}

const Section* Container::find(const std::string& name) const {
  for (const auto& s : sections) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

Section& Container::add(std::string name, std::vector<std::uint8_t> bytes) {
  sections.push_back({std::move(name), std::move(bytes)});
  return sections.back();
}

const char* to_string(SectionState state) {
  switch (state) {
    case SectionState::kOk: return "ok";
    case SectionState::kRepaired: return "repaired";
    case SectionState::kDamaged: return "damaged";
  }
  return "unknown";
}

bool ReadReport::complete() const {
  return std::none_of(sections.begin(), sections.end(), [](const auto& s) {
    return s.state == SectionState::kDamaged;
  });
}

bool ReadReport::repaired() const {
  return std::any_of(sections.begin(), sections.end(), [](const auto& s) {
    return s.state == SectionState::kRepaired;
  });
}

std::vector<std::string> ReadReport::damaged() const {
  std::vector<std::string> names;
  for (const auto& s : sections) {
    if (s.state == SectionState::kDamaged) names.push_back(s.name);
  }
  return names;
}

std::vector<std::uint8_t> serialize(const Container& container,
                                    const SerializeOptions& options) {
  const obs::ScopedSpan span("container-serialize");
  // Parity = byte-wise XOR of all payloads, each zero-padded to the size
  // of the largest section; XOR-ing parity with all-but-one payload
  // reconstructs the missing one.
  std::vector<std::uint8_t> parity;
  if (options.with_parity) {
    parity.assign(max_section_size(container), 0);
    for (const auto& section : container.sections) {
      xor_into(parity, section.bytes);
    }
  }

  std::vector<std::uint8_t> out;
  put(out, kMagic);
  put(out, options.with_chunk_index ? kVersionV4 : kVersionV3);
  put(out, options.with_parity ? kFlagParity : 0u);
  put_string(out, container.method);
  put(out, std::uint64_t{container.nx});
  put(out, std::uint64_t{container.ny});
  put(out, std::uint64_t{container.nz});
  put(out, static_cast<std::uint32_t>(container.sections.size()));
  std::uint64_t payload_cursor = 0;
  for (const auto& section : container.sections) {
    put_string(out, section.name);
    if (options.with_chunk_index) {
      put(out, payload_cursor);
      payload_cursor += section.bytes.size();
    }
    put(out, std::uint64_t{section.bytes.size()});
    put(out, crc32(section.bytes));
  }
  if (options.with_parity) {
    put(out, std::uint64_t{parity.size()});
    put(out, crc32(parity));
  }
  put(out, crc32(out));  // header CRC

  for (const auto& section : container.sections) put(out, section.bytes);
  put(out, parity);
  return out;
}

Container deserialize(std::span<const std::uint8_t> bytes,
                      ReadReport* report) {
  const std::uint32_t version = peek_version(bytes);
  if (version == kVersionV2) return deserialize_v2(bytes, report);
  if (version == kVersionV3 || version == kVersionV4) {
    ParsedV3 parsed = read_v3(bytes, /*strict=*/true);
    if (report != nullptr) *report = std::move(parsed.report);
    return std::move(parsed.container);
  }
  throw ContainerError(ContainerErrc::kBadVersion,
                       "unsupported version " + std::to_string(version));
}

Container deserialize_salvage(std::span<const std::uint8_t> bytes,
                              ReadReport* report) {
  const std::uint32_t version = peek_version(bytes);
  // v2 has a single integrity domain: a checksum mismatch cannot be
  // localized, so salvage degenerates to the strict read.
  if (version == kVersionV2) return deserialize_v2(bytes, report);
  if (version == kVersionV3 || version == kVersionV4) {
    ParsedV3 parsed = read_v3(bytes, /*strict=*/false);
    if (report != nullptr) *report = std::move(parsed.report);
    return std::move(parsed.container);
  }
  throw ContainerError(ContainerErrc::kBadVersion,
                       "unsupported version " + std::to_string(version));
}

std::optional<std::size_t> probe_container(
    std::span<const std::uint8_t> bytes) noexcept {
  try {
    const std::uint32_t version = peek_version(bytes);
    if (version == kVersionV3 || version == kVersionV4) {
      return parse_v34_header(bytes, bytes.size()).total_size;
    }
    if (version == kVersionV2) {
      // Walk the structure to find the candidate end, then demand the
      // whole-file CRC holds -- a corrupt length field would otherwise
      // send the walk (and the scan resting on it) anywhere.
      ByteReader in(bytes, ContainerHook{});
      (void)in.block(2 * sizeof(std::uint32_t), "magic and version");
      (void)in.string("method");
      (void)in.block(3 * sizeof(std::uint64_t), "dims");
      const auto count = in.read<std::uint32_t>("section count");
      if (count > in.remaining() / 12) return std::nullopt;
      for (std::uint32_t s = 0; s < count; ++s) {
        (void)in.string("section name");
        (void)in.block(in.read<std::uint64_t>("section size"), "section bytes");
      }
      const std::size_t body = in.offset();
      if (crc32(bytes.first(body)) != in.read<std::uint32_t>("v2 crc")) {
        return std::nullopt;
      }
      return in.offset();
    }
    return std::nullopt;
  } catch (const ContainerError&) {
    return std::nullopt;
  }
}

void write_container(const std::filesystem::path& path,
                     const Container& container,
                     const SerializeOptions& options) {
  const obs::ScopedSpan span("container-write");
  const auto bytes = serialize(container, options);
  obs::count("io.container.bytes_written", bytes.size());
  // Durable atomic publish (DESIGN.md §10): unique temp next to `path`,
  // write (transient errors retried), fsync, rename, fsync parent dir.
  // The temp is removed on every failure path and errors carry the OS
  // error text.
  atomic_publish_bytes(path, bytes, "write_container", options.retry);
}

Container read_container(const std::filesystem::path& path) {
  const obs::ScopedSpan span("container-read");
  const auto bytes = read_file_bytes(path, "read_container");
  obs::count("io.container.bytes_read", bytes.size());
  return deserialize(bytes);
}

Container read_container_salvage(const std::filesystem::path& path,
                                 ReadReport* report) {
  const obs::ScopedSpan span("container-read");
  const auto bytes = read_file_bytes(path, "read_container_salvage");
  obs::count("io.container.bytes_read", bytes.size());
  return deserialize_salvage(bytes, report);
}

// ---------------------------------------------------------------------------
// ContainerFileReader

ContainerFileReader::ContainerFileReader(const std::filesystem::path& path,
                                         const RetryPolicy& policy)
    : file_(ReadFile::open(path, "ContainerFileReader", policy)) {
  const obs::ScopedSpan span("container-open-seekable");
  const std::uint64_t size = file_.size();
  if (size == 0) {
    throw ContainerError(ContainerErrc::kTruncated,
                         path.string() + " is empty");
  }
  // The header length is not known until it parses; read a window and
  // double it on kTruncated until the parse fits (or the window is the
  // whole file, at which point kTruncated is real).
  std::vector<std::uint8_t> prefix;
  std::size_t window =
      static_cast<std::size_t>(std::min<std::uint64_t>(size, 4096));
  HeaderV3 header;
  for (;;) {
    prefix.resize(window);
    file_.read_exact_at(0, prefix.data(), window);
    try {
      if (peek_version(prefix) == kVersionV2) {
        throw ContainerError(
            ContainerErrc::kBadVersion,
            "v2 containers have one whole-file integrity domain and "
            "cannot be read seekably; use read_container");
      }
      header = parse_v34_header(prefix, size);
      break;
    } catch (const ContainerError& error) {
      if (error.code() == ContainerErrc::kTruncated && window < size) {
        window = static_cast<std::size_t>(
            std::min<std::uint64_t>(size, std::uint64_t{window} * 2));
        continue;
      }
      throw;
    }
  }
  if (size > header.total_size) {
    throw ContainerError(ContainerErrc::kTrailingGarbage,
                         "file extends past container footprint");
  }
  version_ = header.version;
  shell_ = std::move(header.shell);
  sections_.reserve(header.dir.size());
  for (const DirEntry& entry : header.dir) {
    sections_.push_back({entry.name, header.payload_offset + entry.offset,
                         entry.size, entry.crc});
  }
}

const SectionInfo* ContainerFileReader::find(
    const std::string& name) const noexcept {
  for (const auto& info : sections_) {
    if (info.name == name) return &info;
  }
  return nullptr;
}

std::vector<std::uint8_t> ContainerFileReader::read_section(
    const SectionInfo& info) const {
  // Re-validate against the file footprint: the caller may hand us a
  // SectionInfo it fabricated, not one of ours.
  if (info.offset > file_.size() || info.size > file_.size() - info.offset) {
    throw ContainerError(ContainerErrc::kTruncated,
                         "section extends past end of file", info.name);
  }
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(info.size));
  file_.read_exact_at(info.offset, bytes.data(), bytes.size());
  obs::count("io.container.sections_verified");
  if (crc32(bytes) != info.crc) {
    obs::count("io.container.sections_damaged");
    throw ContainerError(ContainerErrc::kSectionCorrupt,
                         "payload checksum mismatch", info.name);
  }
  return bytes;
}

std::vector<std::uint8_t> ContainerFileReader::read_section(
    const std::string& name) const {
  const SectionInfo* info = find(name);
  if (info == nullptr) {
    throw ContainerError(ContainerErrc::kMissingSection,
                         "no such section in chunk index", name);
  }
  return read_section(*info);
}

Container ContainerFileReader::read_all() const {
  Container container = shell_;
  for (const auto& info : sections_) {
    container.add(info.name, read_section(info));
  }
  return container;
}

}  // namespace rmp::io
