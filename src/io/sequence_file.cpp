#include "io/sequence_file.hpp"

#include <algorithm>
#include <fstream>

#include "io/checksum.hpp"
#include "obs/obs.hpp"

namespace rmp::io {
namespace {

// Legacy trailer magic: 16-byte index entries (offset, size), no CRC.
constexpr std::uint64_t kSequenceMagic = 0x51455351504D5252ULL;  // "RRMPQSEQ"
// Current trailer magic: 20-byte entries (offset, size, crc32) -- the
// sequence-level chunk index.  Legacy archives still read back.
constexpr std::uint64_t kSequenceMagicV2 = 0x32455351504D5252ULL;  // ..."QSE2"

// Little-endian byte pattern of the container magic ("RMCP" as u32
// 0x50434D52), used by the forward-scan index rebuild.
constexpr std::uint8_t kContainerMagicBytes[4] = {0x52, 0x4D, 0x43, 0x50};

// Commit-marker magic ("RMSEQCM1" little-endian).  Chosen so its byte
// pattern cannot be mistaken for a container header by the forward scan.
constexpr std::uint64_t kCommitMagic = 0x314D435145534D52ULL;

// Marker layout: magic u64 | step u64 | size u64 | payload crc32 | marker
// crc32 (over the preceding 28 bytes).  Everything needed to decide "is
// the container right before me complete and uncorrupted" without any
// out-of-band state.
struct CommitMarker {
  std::uint64_t magic = kCommitMagic;
  std::uint64_t step = 0;
  std::uint64_t size = 0;
  std::uint32_t payload_crc = 0;
  std::uint32_t marker_crc = 0;
};
static_assert(sizeof(std::uint64_t) * 3 + sizeof(std::uint32_t) * 2 ==
              kSequenceCommitMarkerBytes);

std::vector<std::uint8_t> encode_marker(std::uint64_t step, std::uint64_t size,
                                        std::uint32_t payload_crc) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(kSequenceCommitMarkerBytes);
  put(bytes, kCommitMagic);
  put(bytes, step);
  put(bytes, size);
  put(bytes, payload_crc);
  put(bytes, crc32(bytes));
  return bytes;
}

bool decode_marker(std::span<const std::uint8_t> bytes, CommitMarker* marker) {
  if (bytes.size() < kSequenceCommitMarkerBytes) return false;
  ByteReader in(bytes, ContainerHook{});
  marker->magic = in.read<std::uint64_t>("marker magic");
  marker->step = in.read<std::uint64_t>("marker step");
  marker->size = in.read<std::uint64_t>("marker size");
  marker->payload_crc = in.read<std::uint32_t>("marker payload crc");
  const std::size_t crc_offset = in.offset();
  marker->marker_crc = in.read<std::uint32_t>("marker crc");
  return marker->magic == kCommitMagic &&
         marker->marker_crc == crc32(bytes.first(crc_offset));
}

std::vector<std::uint8_t> encode_trailer(
    const std::vector<JournalScan::Entry>& index) {
  std::vector<std::uint8_t> trailer;
  trailer.reserve(index.size() * 20 + 16);
  for (const JournalScan::Entry& entry : index) {
    put(trailer, entry.offset);
    put(trailer, entry.size);
    put(trailer, entry.crc);
  }
  put(trailer, std::uint64_t{index.size()});
  put(trailer, kSequenceMagicV2);
  return trailer;
}

}  // namespace

std::size_t SequenceScanReport::ok_count() const {
  return static_cast<std::size_t>(
      std::count_if(steps.begin(), steps.end(),
                    [](const StepHealth& s) { return s.ok; }));
}

std::filesystem::path sequence_journal_path(
    const std::filesystem::path& path) {
  std::filesystem::path journal = path;
  journal += ".part";
  return journal;
}

JournalScan scan_sequence_journal(
    std::span<const std::uint8_t> bytes) noexcept {
  JournalScan scan;
  std::size_t pos = 0;
  std::uint64_t step = 0;
  while (pos < bytes.size()) {
    const auto sub = bytes.subspan(pos);
    const auto size = probe_container(sub);
    if (!size) break;
    if (*size > sub.size() ||
        sub.size() - *size < kSequenceCommitMarkerBytes) {
      break;  // container or its marker runs past the end: torn append
    }
    CommitMarker marker;
    if (!decode_marker(sub.subspan(*size), &marker)) break;
    if (marker.step != step || marker.size != *size ||
        marker.payload_crc != crc32(sub.first(*size))) {
      break;
    }
    scan.entries.push_back({pos, *size, marker.payload_crc});
    pos += *size + kSequenceCommitMarkerBytes;
    ++step;
  }
  scan.committed_bytes = pos;
  scan.torn_bytes = bytes.size() - pos;
  return scan;
}

SequenceWriter::SequenceWriter(const std::filesystem::path& path,
                               const SerializeOptions& options)
    : file_(DurableFile::create_exclusive(sequence_journal_path(path),
                                          "SequenceWriter", options.retry)),
      path_(path),
      journal_path_(sequence_journal_path(path)),
      options_(options) {}

SequenceWriter::SequenceWriter(ResumeTag, const std::filesystem::path& path,
                               const SerializeOptions& options)
    : file_(DurableFile::open_append(sequence_journal_path(path),
                                     "SequenceWriter::resume",
                                     options.retry)),
      path_(path),
      journal_path_(sequence_journal_path(path)),
      options_(options) {
  // Validate the committed prefix and drop any torn tail the crashed run
  // left behind (a half-written append or a partial trailer).
  std::vector<std::uint8_t> bytes;
  {
    std::ifstream in(journal_path_, std::ios::binary | std::ios::ate);
    if (!in) {
      throw ContainerError(ContainerErrc::kIoError,
                           "SequenceWriter::resume: cannot read journal " +
                               journal_path_.string());
    }
    bytes.resize(static_cast<std::size_t>(in.tellg()));
    in.seekg(0);
    in.read(reinterpret_cast<char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    if (!in) {
      throw ContainerError(ContainerErrc::kIoError,
                           "SequenceWriter::resume: cannot read journal " +
                               journal_path_.string());
    }
  }
  const JournalScan scan = scan_sequence_journal(bytes);
  if (scan.torn_bytes > 0) {
    file_.truncate(scan.committed_bytes);
    obs::count("io.sequence.resume_truncated_bytes", scan.torn_bytes);
  }
  index_ = scan.entries;
  committed_bytes_ = scan.committed_bytes;
  obs::count("io.sequence.resumes");
}

SequenceWriter SequenceWriter::resume(const std::filesystem::path& path,
                                      const SerializeOptions& options) {
  return SequenceWriter(ResumeTag{}, path, options);
}

SequenceWriter::SequenceWriter(SequenceWriter&& other) noexcept = default;

SequenceWriter::~SequenceWriter() {
  if (finished_ || !file_.is_open()) return;
  // Commit the prefix instead of attempting a full publish: every append
  // already fsync'd its commit marker, so closing the journal is enough
  // for an abandoned writer to leave a resumable file -- never a
  // half-written destination.  Failures cannot escape a destructor; they
  // are recorded instead.
  try {
    file_.close();
  } catch (...) {
    obs::count("io.sequence.destructor_finish_failures");
  }
}

std::size_t SequenceWriter::append(const Container& container) {
  if (finished_) {
    throw std::logic_error("SequenceWriter: append after finish");
  }
  if (failed_) {
    throw ContainerError(ContainerErrc::kIoError,
                         "SequenceWriter: earlier write failure on " +
                             journal_path_.string() +
                             "; reopen with SequenceWriter::resume");
  }
  // A deadline spent before any byte is written is NOT a write failure:
  // nothing is torn, so the writer stays serviceable for the next caller
  // (rmpd threads per-request deadlines through set_retry and the writer
  // outlives each request).
  if (options_.retry.expired()) {
    obs::count("io.retry.deadline_exceeded");
    throw ContainerError(ContainerErrc::kDeadlineExceeded,
                         "SequenceWriter: append on " +
                             journal_path_.string() +
                             " abandoned: wall-clock deadline exceeded");
  }
  const auto bytes = serialize(container, options_);
  const std::uint32_t payload_crc = crc32(bytes);
  const auto marker = encode_marker(index_.size(), bytes.size(), payload_crc);
  try {
    file_.write_all(bytes);
    file_.write_all(marker);
    // The fsync IS the commit: once it returns, this step survives any
    // crash.  A failure before it leaves a torn tail that resume() (or
    // the truncate below) discards.
    file_.sync();
  } catch (...) {
    failed_ = true;
    try {
      file_.truncate(committed_bytes_);
    } catch (...) {
      // Best effort: resume() re-derives the committed prefix anyway.
    }
    throw;
  }
  index_.push_back({committed_bytes_, bytes.size(), payload_crc});
  committed_bytes_ += bytes.size() + kSequenceCommitMarkerBytes;
  obs::count("io.sequence.steps_written");
  obs::count("io.sequence.bytes_written", bytes.size());
  return index_.size() - 1;
}

void SequenceWriter::finish() {
  if (finished_) return;
  if (failed_) {
    throw ContainerError(ContainerErrc::kIoError,
                         "SequenceWriter: earlier write failure on " +
                             journal_path_.string() +
                             "; reopen with SequenceWriter::resume");
  }
  const std::vector<std::uint8_t> trailer = encode_trailer(index_);
  try {
    file_.write_all(trailer);
    file_.sync();
    file_.close();
    // Atomic durable publish: rename the journal over the destination and
    // fsync the parent directory so the new entry survives power loss.
    // On failure the journal stays put -- it is the resumable artifact,
    // not a disposable temp.
    durable_rename(journal_path_, path_, "SequenceWriter::finish",
                   options_.retry);
  } catch (...) {
    failed_ = true;
    throw;
  }
  finished_ = true;
}

void write_sequence_archive(
    const std::filesystem::path& path,
    const std::vector<std::vector<std::uint8_t>>& steps,
    const RetryPolicy& policy) {
  std::vector<JournalScan::Entry> index;
  index.reserve(steps.size());
  std::size_t total = 16;
  for (const auto& step : steps)
    total += step.size() + kSequenceCommitMarkerBytes + 20;
  std::vector<std::uint8_t> bytes;
  bytes.reserve(total);
  for (std::size_t s = 0; s < steps.size(); ++s) {
    const auto& step = steps[s];
    const std::uint32_t payload_crc = crc32(step);
    index.push_back({bytes.size(), step.size(), payload_crc});
    put(bytes, step);
    put(bytes, encode_marker(s, step.size(), payload_crc));
  }
  put(bytes, encode_trailer(index));
  atomic_publish_bytes(path, bytes, "write_sequence_archive", policy);
}

SequenceReader::SequenceReader(const std::filesystem::path& path,
                               const SequenceReadOptions& options)
    : file_(ReadFile::open(path, "SequenceReader")) {
  const std::uint64_t file_size = file_.size();

  // Try the trailing index first; fall back to a forward scan whenever it
  // is missing or implausible (crashed writer, truncated copy, corrupt
  // trailer bytes).  Every read here checks its actual byte count: a file
  // truncated *inside* the trailer must land in the rebuild path below,
  // never produce an index built from stale or partial buffer contents.
  std::string index_problem;
  if (file_size < 16) {
    index_problem = "file too small for a trailer";
  } else {
    std::uint8_t tail[16];
    if (file_.read_at(file_size - 16, tail, sizeof(tail)) != sizeof(tail)) {
      index_problem = "trailer read came up short";
    } else {
      ByteReader trailer(tail, ContainerHook{});
      const auto count = trailer.read<std::uint64_t>("index count");
      const auto magic = trailer.read<std::uint64_t>("trailer magic");
      // Entry stride by trailer generation: 20 bytes with the CRC column,
      // 16 before it.
      std::size_t stride = 0;
      if (magic == kSequenceMagicV2) {
        stride = 20;
      } else if (magic == kSequenceMagic) {
        stride = 16;
      } else {
        index_problem = "bad trailer magic";
      }
      if (stride != 0) {
        if (count > (file_size - 16) / stride) {
          index_problem = "index count larger than file";
        } else {
          const std::uint64_t index_bytes = count * stride;
          const std::uint64_t data_end = file_size - 16 - index_bytes;
          std::vector<std::uint8_t> raw(
              static_cast<std::size_t>(index_bytes));
          if (file_.read_at(data_end, raw.data(), raw.size()) != raw.size()) {
            index_problem = "index read came up short";
          } else {
            index_.resize(static_cast<std::size_t>(count));
            ByteReader in(raw, ContainerHook{});
            for (auto& entry : index_) {
              entry.offset = in.read<std::uint64_t>("index offset");
              entry.size = in.read<std::uint64_t>("index size");
              if (stride == 20) {
                entry.crc = in.read<std::uint32_t>("index crc");
                entry.has_crc = true;
              }
            }
            // Every entry must lie inside the data region (overflow-safe).
            for (const StepInfo& entry : index_) {
              if (entry.offset > data_end ||
                  entry.size > data_end - entry.offset) {
                index_problem = "index entry out of bounds";
                index_.clear();
                break;
              }
            }
          }
        }
      }
    }
  }
  if (!index_problem.empty()) {
    index_.clear();
    if (!options.allow_index_rebuild) {
      throw ContainerError(ContainerErrc::kIndexCorrupt,
                           "SequenceReader: " + index_problem);
    }
    rebuild_index();
    rebuilt_ = true;
    obs::count("io.sequence.index_rebuilds");
  }
}

void SequenceReader::rebuild_index() {
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(file_.size()));
  if (file_.read_at(0, bytes.data(), bytes.size()) != bytes.size()) {
    throw ContainerError(ContainerErrc::kIoError,
                         "SequenceReader: cannot read file for index rebuild");
  }
  const std::span<const std::uint8_t> span(bytes);

  // A journaled file (crashed writer, or a trailer chopped off) carries a
  // validated commit marker after every step: trust that chain first.
  const JournalScan scan = scan_sequence_journal(span);
  for (const auto& entry : scan.entries) {
    index_.push_back({entry.offset, entry.size, entry.crc, true});
  }

  // Fall back to (or continue with) the magic-byte scan past the
  // committed prefix: recovers marker-less files written by older
  // versions and steps whose own marker was damaged but whose container
  // still decodes.
  std::size_t pos = static_cast<std::size_t>(scan.committed_bytes);
  while (pos + sizeof(kContainerMagicBytes) <= bytes.size()) {
    const auto it = std::search(bytes.begin() + static_cast<std::ptrdiff_t>(pos),
                                bytes.end(), std::begin(kContainerMagicBytes),
                                std::end(kContainerMagicBytes));
    if (it == bytes.end()) break;
    const auto candidate =
        static_cast<std::size_t>(it - bytes.begin());
    if (const auto size = probe_container(span.subspan(candidate))) {
      index_.push_back({candidate, *size});
      pos = candidate + *size;
    } else {
      // Not (or no longer) a readable container here; resume scanning one
      // byte further so later steps are still recovered.
      pos = candidate + 1;
    }
  }
  if (index_.empty()) {
    throw ContainerError(
        ContainerErrc::kIndexCorrupt,
        "SequenceReader: no trailing index and no recoverable steps");
  }
}

const StepInfo& SequenceReader::step_info(std::size_t step) const {
  if (step >= index_.size()) {
    throw std::out_of_range("SequenceReader: step out of range");
  }
  return index_[step];
}

std::vector<std::uint8_t> SequenceReader::read_step_bytes(
    std::size_t step) const {
  const StepInfo& entry = step_info(step);
  // Cap the allocation against the file footprint *before* reserving
  // anything: trailer entries are validated at open, but a rebuilt index
  // or a fabricated trailer must still fail typed here, not by bad_alloc.
  if (entry.offset > file_.size() ||
      entry.size > file_.size() - entry.offset) {
    throw ContainerError(ContainerErrc::kIndexCorrupt,
                         "SequenceReader: step " + std::to_string(step) +
                             " entry (offset " + std::to_string(entry.offset) +
                             ", size " + std::to_string(entry.size) +
                             ") extends past the " +
                             std::to_string(file_.size()) + "-byte file");
  }
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(entry.size));
  file_.read_exact_at(entry.offset, bytes.data(), bytes.size());
  obs::count("io.sequence.bytes_read", bytes.size());
  return bytes;
}

Container SequenceReader::read_step(std::size_t step) const {
  const StepInfo& entry = step_info(step);
  auto bytes = read_step_bytes(step);
  if (entry.has_crc && crc32(bytes) != entry.crc) {
    // The chunk CRC localizes damage to this step, but deserialize() is
    // the authority: it can still repair single-section corruption via
    // parity, so record the mismatch and let it decide.
    obs::count("io.sequence.step_crc_mismatch");
  }
  return deserialize(bytes);
}

std::vector<Container> SequenceReader::read_all() const {
  std::vector<Container> containers;
  containers.reserve(index_.size());
  for (std::size_t s = 0; s < index_.size(); ++s) {
    containers.push_back(read_step(s));
  }
  return containers;
}

std::vector<Container> SequenceReader::read_all_salvage(
    SequenceScanReport* report) const {
  if (report != nullptr) {
    *report = SequenceScanReport{};
    report->index_rebuilt = rebuilt_;
  }
  std::vector<Container> containers;
  containers.reserve(index_.size());
  for (std::size_t s = 0; s < index_.size(); ++s) {
    StepHealth health;
    health.step = s;
    try {
      containers.push_back(read_step(s));
      health.ok = true;
      obs::count("io.sequence.steps_salvaged");
    } catch (const std::exception& e) {
      health.ok = false;
      health.error = e.what();
      obs::count("io.sequence.steps_lost");
    }
    if (report != nullptr) report->steps.push_back(std::move(health));
  }
  return containers;
}

}  // namespace rmp::io
