#include "io/store_health.hpp"

#include <algorithm>
#include <fstream>
#include <optional>
#include <set>
#include <string_view>
#include <utility>

#include "io/checksum.hpp"
#include "io/container_error.hpp"
#include "obs/obs.hpp"

namespace rmp::io {
namespace {

// Whole-file read that never throws: scrub and recovery must survive any
// single unreadable file and keep walking the store.
std::optional<std::vector<std::uint8_t>> try_read_bytes(
    const std::filesystem::path& path) noexcept {
  try {
    std::ifstream file(path, std::ios::binary | std::ios::ate);
    if (!file) return std::nullopt;
    const std::streamoff end = file.tellg();
    if (end < 0) return std::nullopt;
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(end));
    file.seekg(0);
    if (!bytes.empty() &&
        !file.read(reinterpret_cast<char*>(bytes.data()),
                   static_cast<std::streamsize>(bytes.size()))) {
      return std::nullopt;
    }
    return bytes;
  } catch (...) {
    return std::nullopt;
  }
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char hex[] = "0123456789abcdef";
          out += "\\u00";
          out += hex[(static_cast<unsigned char>(c) >> 4) & 0xF];
          out += hex[static_cast<unsigned char>(c) & 0xF];
        } else {
          out += c;
        }
        break;
    }
  }
  return out;
}

// Request-log record: magic u32 "RQL1" | token u64 | step u64 | crc32 over
// the preceding 20 bytes.  Fixed stride, so the committed-prefix scan
// needs no framing beyond the per-record CRC.
constexpr std::uint32_t kRequestLogMagic = 0x314C5152;  // "RQL1"
constexpr std::size_t kRequestLogRecordBytes = 4 + 8 + 8 + 4;

std::vector<std::uint8_t> encode_request_record(std::uint64_t token,
                                                std::uint64_t step) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(kRequestLogRecordBytes);
  put(bytes, kRequestLogMagic);
  put(bytes, token);
  put(bytes, step);
  put(bytes, crc32(bytes));
  return bytes;
}

/// What one store file turned out to be.
enum class FileKind : std::uint8_t { kContainer, kSequence, kUnreadable };

// Names the scrubber must never touch: journals (resume's territory),
// request logs (recovery metadata), staging temps, dot-files, and the
// quarantine manifest's directory (skipped anyway as non-regular).
bool is_scrubbable_name(const std::string& name) {
  if (name.empty() || name.front() == '.') return false;
  if (name.size() >= 5 && name.ends_with(".part")) return false;
  if (name.size() >= 5 && name.ends_with(".reqs")) return false;
  if (name.find(".tmp.") != std::string::npos) return false;
  return true;
}

std::uint64_t count_repaired(const ReadReport& report) {
  std::uint64_t repaired = 0;
  for (const auto& section : report.sections) {
    if (section.state == SectionState::kRepaired) ++repaired;
  }
  return repaired;
}

std::string join_names(const std::vector<std::string>& names) {
  std::string out;
  for (const auto& name : names) {
    if (!out.empty()) out += ",";
    out += name;
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Quarantine

std::filesystem::path quarantine_dir(const std::filesystem::path& store_dir) {
  return store_dir / "quarantine";
}

std::filesystem::path quarantine_manifest_path(
    const std::filesystem::path& store_dir) {
  return quarantine_dir(store_dir) / "manifest.json";
}

void quarantine_file(const std::filesystem::path& store_dir,
                     const std::filesystem::path& path,
                     const std::string& reason) {
  const std::filesystem::path dir = quarantine_dir(store_dir);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw ContainerError(ContainerErrc::kIoError,
                         "quarantine_file: cannot create " + dir.string() +
                             ": " + ec.message());
  }
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(std::filesystem::file_size(path, ec));
  // A name collision (the same store name quarantined twice across
  // restarts) gets a numeric suffix instead of clobbering evidence.
  std::filesystem::path dest = dir / path.filename();
  for (int n = 1; std::filesystem::exists(dest); ++n) {
    dest = dir / (path.filename().string() + "." + std::to_string(n));
  }
  durable_rename(path, dest, "quarantine_file");
  obs::count("io.quarantine.files");

  // Manifest append is best-effort: the quarantine itself (getting the
  // damaged file out of the serving path) must not be undone by a
  // metadata write failure.
  const std::filesystem::path manifest = quarantine_manifest_path(store_dir);
  try {
    std::string line = "{\"file\":\"" + json_escape(path.filename().string()) +
                       "\",\"reason\":\"" + json_escape(reason) +
                       "\",\"quarantined_as\":\"" +
                       json_escape(dest.filename().string()) +
                       "\",\"bytes\":" + std::to_string(ec ? 0 : bytes) + "}\n";
    DurableFile file = std::filesystem::exists(manifest)
                           ? DurableFile::open_append(manifest,
                                                      "quarantine_manifest")
                           : DurableFile::create_truncate(
                                 manifest, "quarantine_manifest");
    file.write_all(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(line.data()), line.size()));
    file.sync();
    file.close();
  } catch (...) {
    obs::count("io.quarantine.manifest_failures");
  }
}

// ---------------------------------------------------------------------------
// Request log

std::filesystem::path request_log_path(
    const std::filesystem::path& sequence_path) {
  return std::filesystem::path(sequence_path.string() + ".reqs");
}

RequestLog RequestLog::open(const std::filesystem::path& sequence_path,
                            bool fresh, const RetryPolicy& policy) {
  const std::filesystem::path path = request_log_path(sequence_path);
  // A fresh journal generation must not inherit a predecessor's intents:
  // a stale (token, step) pair could otherwise claim a step the new
  // generation never wrote.
  if (fresh || !std::filesystem::exists(path)) {
    return RequestLog(
        DurableFile::create_truncate(path, "RequestLog::open", policy), 0);
  }
  std::error_code ec;
  const std::uint64_t size = std::filesystem::file_size(path, ec);
  // Only whole CRC-valid records count as committed: an inherited torn
  // tail is truncated away so appends continue from a clean prefix.
  const std::uint64_t committed =
      scan_request_log(path).size() * kRequestLogRecordBytes;
  DurableFile file = DurableFile::open_append(path, "RequestLog::open", policy);
  if (ec || size != committed) file.truncate(committed);
  return RequestLog(std::move(file), committed);
}

void RequestLog::record(std::uint64_t token, std::uint64_t step) {
  const auto bytes = encode_request_record(token, step);
  try {
    // The fsync is what makes the intent usable as recovery evidence: it
    // must be durable BEFORE the append it describes starts committing.
    file_.write_all(bytes);
    file_.sync();
  } catch (...) {
    // Never leave a torn record: a half-written intent would stop the
    // committed-prefix scan and hide every later intent from recovery.
    try {
      file_.truncate(size_);
    } catch (...) {
    }
    throw;
  }
  size_ += bytes.size();
  obs::count("io.reqlog.records");
}

void RequestLog::rollback_last() noexcept {
  if (size_ < kRequestLogRecordBytes) return;
  try {
    file_.truncate(size_ - kRequestLogRecordBytes);
    file_.sync();
    size_ -= kRequestLogRecordBytes;
  } catch (...) {
    obs::count("io.reqlog.rollback_failures");
  }
}

std::vector<RequestLogEntry> scan_request_log(
    const std::filesystem::path& log_path) noexcept {
  std::vector<RequestLogEntry> entries;
  const auto bytes = try_read_bytes(log_path);
  if (!bytes) return entries;
  ByteReader in(*bytes, ContainerHook{});
  while (in.remaining() >= kRequestLogRecordBytes) {
    const auto record = in.block(kRequestLogRecordBytes, "request record");
    ByteReader fields(record, ContainerHook{});
    const auto magic = fields.read<std::uint32_t>("record magic");
    RequestLogEntry entry;
    entry.token = fields.read<std::uint64_t>("record token");
    entry.step = fields.read<std::uint64_t>("record step");
    const std::size_t crc_offset = fields.offset();
    if (magic != kRequestLogMagic ||
        fields.read<std::uint32_t>("record crc") !=
            crc32(record.first(crc_offset))) {
      break;
    }
    entries.push_back(entry);
  }
  return entries;
}

// ---------------------------------------------------------------------------
// Scrub

void ScrubReport::merge(const ScrubReport& other) {
  files_checked += other.files_checked;
  sections_checked += other.sections_checked;
  sections_repaired += other.sections_repaired;
  files_repaired += other.files_repaired;
  files_quarantined += other.files_quarantined;
  notes.insert(notes.end(), other.notes.begin(), other.notes.end());
}

namespace {

/// Scrub one published file.  Returns the per-file report; quarantines on
/// anything that cannot be made whole.  Throws only on quarantine-move
/// failure (caller turns that into a note).
ScrubReport scrub_one_file(const std::filesystem::path& dir,
                           const std::filesystem::path& path,
                           const ScrubOptions& options) {
  ScrubReport report;
  report.files_checked = 1;
  const std::string name = path.filename().string();

  const auto bytes = try_read_bytes(path);
  if (!bytes) {
    report.notes.push_back(name + ": unreadable");
    return report;
  }
  if (bytes->empty()) {
    quarantine_file(dir, path, "empty file");
    report.files_quarantined = 1;
    report.notes.push_back(name + ": quarantined (empty file)");
    return report;
  }

  // A store file is either a single container (probe consumes the whole
  // file) or a sequence archive; anything else is unrecognizable damage.
  const auto probed = probe_container(*bytes);
  if (probed && *probed == bytes->size()) {
    ReadReport rr;
    Container container;
    try {
      container = deserialize_salvage(*bytes, &rr);
    } catch (const std::exception& e) {
      quarantine_file(dir, path, std::string("unusable container: ") +
                                     e.what());
      report.files_quarantined = 1;
      report.notes.push_back(name + ": quarantined (unusable container)");
      return report;
    }
    report.sections_checked = rr.sections.size();
    if (!rr.complete()) {
      quarantine_file(dir, path,
                      "damaged sections beyond repair: " +
                          join_names(rr.damaged()));
      report.files_quarantined = 1;
      report.notes.push_back(name + ": quarantined (damaged: " +
                             join_names(rr.damaged()) + ")");
      return report;
    }
    if (rr.repaired()) {
      // Parity rebuilt every damaged section: republish the healed bytes
      // in the file's own format (parity/chunk-index inferred from what
      // it actually carried) so the store converges back to clean.
      SerializeOptions out;
      out.with_parity = rr.parity_present;
      out.with_chunk_index = rr.version >= 4;
      out.retry = options.retry;
      atomic_publish_bytes(path, serialize(container, out), "scrub_store",
                           options.retry);
      report.sections_repaired = count_repaired(rr);
      report.files_repaired = 1;
      report.notes.push_back(name + ": repaired " +
                             std::to_string(report.sections_repaired) +
                             " section(s) via parity");
    }
    return report;
  }

  // Sequence archive: validate each step's container independently; keep
  // intact steps byte-identical and replace only repaired ones.
  std::vector<std::vector<std::uint8_t>> steps;
  bool republish = false;
  try {
    const SequenceReader reader(path, {.allow_index_rebuild = false});
    steps.reserve(reader.step_count());
    for (std::size_t s = 0; s < reader.step_count(); ++s) {
      auto step_bytes = reader.read_step_bytes(s);
      ReadReport rr;
      Container container = deserialize_salvage(step_bytes, &rr);
      report.sections_checked += rr.sections.size();
      if (!rr.complete()) {
        throw ContainerError(ContainerErrc::kSectionCorrupt,
                             "step " + std::to_string(s) +
                                 " damaged beyond repair: " +
                                 join_names(rr.damaged()));
      }
      if (rr.repaired()) {
        SerializeOptions out;
        out.with_parity = rr.parity_present;
        out.with_chunk_index = rr.version >= 4;
        out.retry = options.retry;
        step_bytes = serialize(container, out);
        report.sections_repaired += count_repaired(rr);
        republish = true;
      }
      steps.push_back(std::move(step_bytes));
    }
  } catch (const std::exception& e) {
    quarantine_file(dir, path, e.what());
    report.sections_repaired = 0;
    report.files_quarantined = 1;
    report.notes.push_back(name + ": quarantined (" + std::string(e.what()) +
                           ")");
    return report;
  }
  if (republish) {
    write_sequence_archive(path, steps, options.retry);
    report.files_repaired = 1;
    report.notes.push_back(name + ": repaired " +
                           std::to_string(report.sections_repaired) +
                           " section(s) via parity");
  }
  return report;
}

}  // namespace

ScrubReport scrub_store(const std::filesystem::path& dir,
                        const ScrubOptions& options) {
  const obs::ScopedSpan span("store-scrub");
  ScrubReport report;
  const std::set<std::string> skip(options.skip.begin(), options.skip.end());

  // Snapshot the listing first: repairs rename files in place and
  // quarantines move them, either of which would invalidate a live
  // directory iterator.
  std::vector<std::filesystem::path> files;
  std::error_code ec;
  for (std::filesystem::directory_iterator it(dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    const std::string name = it->path().filename().string();
    if (!is_scrubbable_name(name) || skip.contains(name)) continue;
    files.push_back(it->path());
  }
  std::sort(files.begin(), files.end());

  for (const auto& path : files) {
    try {
      report.merge(scrub_one_file(dir, path, options));
    } catch (const std::exception& e) {
      // Even the quarantine move failed (e.g. disk full): record and keep
      // walking -- a scrub pass always completes.
      report.notes.push_back(path.filename().string() +
                             ": scrub failed: " + e.what());
    }
  }

  obs::count("scrub.files_checked", report.files_checked);
  obs::count("scrub.sections_checked", report.sections_checked);
  obs::count("scrub.sections_repaired", report.sections_repaired);
  obs::count("scrub.files_repaired", report.files_repaired);
  obs::count("scrub.files_quarantined", report.files_quarantined);
  return report;
}

// ---------------------------------------------------------------------------
// Startup recovery

RecoveryResult recover_store(const std::filesystem::path& dir,
                             const SerializeOptions& options) {
  const obs::ScopedSpan span("store-recover");
  RecoveryResult result;

  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec) || ec) {
    throw ContainerError(ContainerErrc::kIoError,
                         "recover_store: not a directory: " + dir.string());
  }

  // Snapshot journals and request logs up front; recovery renames and
  // unlinks as it goes.
  std::vector<std::filesystem::path> journals;
  std::vector<std::filesystem::path> request_logs;
  for (std::filesystem::directory_iterator it(dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    const std::string name = it->path().filename().string();
    if (name.ends_with(".part")) journals.push_back(it->path());
    if (name.ends_with(".reqs")) request_logs.push_back(it->path());
  }
  std::sort(journals.begin(), journals.end());
  std::sort(request_logs.begin(), request_logs.end());

  std::set<std::filesystem::path> consumed_logs;

  // Pass 1: resume every torn journal (or quarantine the unreadable
  // ones), and turn its request log's durable intents into replayable
  // proofs for the dedup window.
  for (const auto& journal : journals) {
    std::filesystem::path dest = journal;
    dest.replace_extension();  // "<name>.part" -> "<name>"
    const std::string store_name = dest.filename().string();
    const std::filesystem::path log_path = request_log_path(dest);
    consumed_logs.insert(log_path);

    const auto bytes = try_read_bytes(journal);
    JournalScan scan;
    if (bytes) scan = scan_sequence_journal(*bytes);
    try {
      if (!bytes) {
        throw ContainerError(ContainerErrc::kIoError,
                             "journal unreadable: " + journal.string());
      }
      auto writer = std::make_unique<SequenceWriter>(
          SequenceWriter::resume(dest, options));
      const std::uint64_t committed = writer->steps_written();
      result.report.journals_resumed += 1;
      result.report.steps_recovered += committed;
      if (scan.torn_bytes > 0) {
        result.report.notes.push_back(
            store_name + ": truncated " + std::to_string(scan.torn_bytes) +
            " torn byte(s), resumed at step " + std::to_string(committed));
      } else {
        result.report.notes.push_back(store_name + ": resumed at step " +
                                      std::to_string(committed));
      }
      // An intent whose step lies below the committed count proves its
      // append durably committed: the retried request must replay, not
      // re-append.  Intents at/past the committed count died before their
      // commit fsync -- drop them and let the retry re-execute.  When a
      // step carries several intents (failed appends that were retried
      // under new tokens), only the LAST one can be the committing
      // append: intents are recorded immediately before their append, so
      // earlier intents for the same index are superseded failures.
      std::map<std::uint64_t, std::uint64_t> last_token_for_step;
      for (const auto& entry : scan_request_log(log_path)) {
        if (entry.token == 0) continue;
        last_token_for_step[entry.step] = entry.token;
      }
      for (const auto& [step, token] : last_token_for_step) {
        if (step >= committed) continue;
        const auto& info = scan.entries[static_cast<std::size_t>(step)];
        result.replayable[token] =
            ReplayableRequest{store_name, step, info.size};
      }
      result.sequences[store_name] =
          RecoveredSequence{std::move(writer), scan.entries};
    } catch (const std::exception& e) {
      // The journal itself is unusable: no committed prefix to serve, so
      // the only honest outcome is quarantine -- a client retry will
      // rebuild the sequence from scratch.
      result.report.notes.push_back(store_name + ": journal unrecoverable (" +
                                    std::string(e.what()) + ")");
      try {
        quarantine_file(dir, journal, std::string("journal unrecoverable: ") +
                                          e.what());
        result.report.journals_quarantined += 1;
      } catch (const std::exception& qe) {
        result.report.notes.push_back(store_name +
                                      ": quarantine failed: " + qe.what());
      }
      std::filesystem::remove(log_path, ec);
    }
  }

  // Orphaned request logs: the daemon died between finish()'s publish
  // rename and the log unlink.  The published archive is the evidence
  // now -- recover replay proofs from it and leave the file for the
  // server to unlink after adoption.
  for (const auto& log_path : request_logs) {
    if (consumed_logs.contains(log_path)) continue;
    std::filesystem::path dest = log_path;
    dest.replace_extension();  // "<name>.reqs" -> "<name>"
    const std::string store_name = dest.filename().string();
    if (!std::filesystem::exists(dest, ec)) {
      result.report.notes.push_back(store_name +
                                    ": stale request log (no archive)");
      continue;
    }
    try {
      const SequenceReader reader(dest);
      std::map<std::uint64_t, std::uint64_t> last_token_for_step;
      for (const auto& entry : scan_request_log(log_path)) {
        if (entry.token == 0) continue;
        last_token_for_step[entry.step] = entry.token;
      }
      for (const auto& [step, token] : last_token_for_step) {
        if (step >= reader.step_count()) continue;
        result.replayable[token] = ReplayableRequest{
            store_name, step,
            reader.step_info(static_cast<std::size_t>(step)).size};
      }
      result.report.notes.push_back(store_name +
                                    ": recovered intents from published "
                                    "archive");
    } catch (const std::exception& e) {
      result.report.notes.push_back(store_name +
                                    ": cannot read published archive for "
                                    "request log: " +
                                    e.what());
    }
  }
  result.report.tokens_recovered = result.replayable.size();

  // Pass 2: verify/repair/quarantine every published file.  Resumed
  // sequences' destinations are skipped -- their journal is the live
  // copy and the destination (if any) is the previous complete archive.
  ScrubOptions scrub_options;
  scrub_options.retry = options.retry;
  for (const auto& [name, sequence] : result.sequences) {
    scrub_options.skip.push_back(name);
  }
  result.report.scrub = scrub_store(dir, scrub_options);

  obs::count("recovery.journals_resumed", result.report.journals_resumed);
  obs::count("recovery.journals_quarantined",
             result.report.journals_quarantined);
  obs::count("recovery.steps_recovered", result.report.steps_recovered);
  obs::count("recovery.tokens_recovered", result.report.tokens_recovered);
  return result;
}

}  // namespace rmp::io
