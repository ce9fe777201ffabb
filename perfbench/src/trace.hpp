// In-memory span recorder for the benchmark's traced runs, plus the two
// decorators that let it time layers without touching the library:
//
//  * TimedCompressor wraps a compress::Compressor and is handed to the
//    preconditioner through core::CodecPair, so the codec calls the
//    preconditioner itself makes are the ones timed.
//  * ScopedTimedFileOps installs (with io::set_file_ops) a pass-through
//    that times every write/fsync/pread the durable-I/O layer issues, on
//    any thread.
//
// A span records name, start, end, parent and op id.  The parent is the
// span open on the same thread; the op id is the one the thread's OpScope
// set (0 outside any op, e.g. on rmpd's own threads).  Recording is gated
// by one atomic flag, so an untraced phase pays a relaxed load per call.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "compress/compressor.hpp"
#include "io/file_ops.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  const char* name = "";       ///< static string
  std::int64_t start_ns = 0;   ///< since the tracer's epoch
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;    ///< index into the span list, -1 = root
  std::uint64_t op = 0;        ///< 0 = outside any op
  std::uint64_t bytes = 0;     ///< bytes the call produced or moved

  double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

class Tracer {
 public:
  static Tracer& global();

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Opens a span under the calling thread's current span and op.
  std::int64_t begin(const char* name);
  void end(std::int64_t id, std::uint64_t bytes);

  std::vector<Span> spans() const;
  /// Drops every span; only call while no span is open.
  void clear();
  /// Writes every span as one JSON array (the run's trace file).
  void write_json(const std::filesystem::path& path) const;

 private:
  std::int64_t now_ns() const;

  std::atomic<bool> enabled_{false};
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< guarded by mutex_
};

/// RAII span on Tracer::global(); a no-op while tracing is off.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  void set_bytes(std::uint64_t bytes) noexcept { bytes_ = bytes; }

 private:
  std::int64_t id_ = -1;
  std::int64_t saved_parent_ = -1;
  std::uint64_t bytes_ = 0;
};

/// Marks the calling thread as working on op `op` (ids start at 1).
/// Spans opened inside belong to it; the previous id is restored on exit.
/// A probe (a layer call timed outside the op) runs after the op's span
/// has closed, so it is a root span tagged with the op's id.
class OpScope {
 public:
  explicit OpScope(std::uint64_t op);
  ~OpScope();
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  std::uint64_t saved_op_;
  std::int64_t saved_parent_;
};

/// Forwards to `inner`, recording a span named `compress_name` or
/// `decompress_name` with the compressed byte count.  The bytes are the
/// inner codec's, unchanged.
class TimedCompressor final : public rmp::compress::Compressor {
 public:
  /// The names must be static strings.
  TimedCompressor(const rmp::compress::Compressor& inner,
                  const char* compress_name, const char* decompress_name)
      : inner_(inner),
        compress_name_(compress_name),
        decompress_name_(decompress_name) {}

  std::string name() const override { return inner_.name(); }
  bool lossless() const override { return inner_.lossless(); }
  std::vector<std::uint8_t> compress(
      std::span<const double> data,
      const rmp::compress::Dims& dims) const override;
  std::vector<double> decompress(
      std::span<const std::uint8_t> stream) const override;

 private:
  const rmp::compress::Compressor& inner_;
  const char* compress_name_;
  const char* decompress_name_;
};

/// Installs a pass-through to the real POSIX ops that records "fs.write",
/// "fs.fsync" and "fs.pread" spans, and restores the previous ops on exit.
/// The timing ops object itself lives for the whole process, so a server
/// thread still inside a call when this scope ends stays safe.
class ScopedTimedFileOps {
 public:
  ScopedTimedFileOps();
  ~ScopedTimedFileOps();
  ScopedTimedFileOps(const ScopedTimedFileOps&) = delete;
  ScopedTimedFileOps& operator=(const ScopedTimedFileOps&) = delete;

 private:
  rmp::io::FileOps* previous_;
};

}  // namespace perfbench
