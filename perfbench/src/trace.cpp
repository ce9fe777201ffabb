#include "trace.hpp"

#include <fstream>
#include <stdexcept>

namespace perfbench {
namespace {

thread_local std::int64_t t_current_span = -1;
thread_local std::uint64_t t_current_op = 0;

rmp::io::FileOps& real_ops() { return rmp::io::real_file_ops(); }

class TimedFileOps final : public rmp::io::FileOps {
 public:
  int open(const std::string& path, int flags,
           unsigned mode) noexcept override {
    return real_ops().open(path, flags, mode);
  }
  long write(int fd, const void* data, std::size_t size) noexcept override {
    TraceSpan span("fs.write");
    const long n = real_ops().write(fd, data, size);
    if (n > 0) span.set_bytes(static_cast<std::uint64_t>(n));
    return n;
  }
  long pread(int fd, void* data, std::size_t size,
             std::uint64_t offset) noexcept override {
    TraceSpan span("fs.pread");
    const long n = real_ops().pread(fd, data, size, offset);
    if (n > 0) span.set_bytes(static_cast<std::uint64_t>(n));
    return n;
  }
  long fsize(int fd) noexcept override { return real_ops().fsize(fd); }
  int fsync(int fd) noexcept override {
    const TraceSpan span("fs.fsync");
    return real_ops().fsync(fd);
  }
  int close(int fd) noexcept override { return real_ops().close(fd); }
  int rename(const std::string& from,
             const std::string& to) noexcept override {
    return real_ops().rename(from, to);
  }
  int unlink(const std::string& path) noexcept override {
    return real_ops().unlink(path);
  }
  int ftruncate(int fd, std::uint64_t size) noexcept override {
    return real_ops().ftruncate(fd, size);
  }
};

TimedFileOps& timed_file_ops() {
  static TimedFileOps ops;
  return ops;
}

}  // namespace

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

std::int64_t Tracer::begin(const char* name) {
  Span span;
  span.name = name;
  span.parent = t_current_span;
  span.op = t_current_op;
  span.start_ns = now_ns();
  std::lock_guard lock(mutex_);
  spans_.push_back(span);
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::end(std::int64_t id, std::uint64_t bytes) {
  const std::int64_t end_ns = now_ns();
  std::lock_guard lock(mutex_);
  if (static_cast<std::size_t>(id) >= spans_.size()) return;
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = end_ns;
  span.bytes = bytes;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

void Tracer::clear() {
  std::lock_guard lock(mutex_);
  spans_.clear();
}

void Tracer::write_json(const std::filesystem::path& path) const {
  const std::vector<Span> all = spans();
  std::ofstream out(path);
  out << '[';
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op
        << ",\"bytes\":" << s.bytes << '}';
  }
  out << "\n]\n";
  out.flush();
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

TraceSpan::TraceSpan(const char* name) {
  Tracer& tracer = Tracer::global();
  if (!tracer.enabled()) return;
  id_ = tracer.begin(name);
  saved_parent_ = t_current_span;
  t_current_span = id_;
}

TraceSpan::~TraceSpan() {
  if (id_ < 0) return;
  Tracer::global().end(id_, bytes_);
  t_current_span = saved_parent_;
}

OpScope::OpScope(std::uint64_t op)
    : saved_op_(t_current_op), saved_parent_(t_current_span) {
  t_current_op = op;
  t_current_span = -1;
}

OpScope::~OpScope() {
  t_current_op = saved_op_;
  t_current_span = saved_parent_;
}

std::vector<std::uint8_t> TimedCompressor::compress(
    std::span<const double> data, const rmp::compress::Dims& dims) const {
  TraceSpan span(compress_name_);
  auto bytes = inner_.compress(data, dims);
  span.set_bytes(bytes.size());
  return bytes;
}

std::vector<double> TimedCompressor::decompress(
    std::span<const std::uint8_t> stream) const {
  TraceSpan span(decompress_name_);
  span.set_bytes(stream.size());
  return inner_.decompress(stream);
}

ScopedTimedFileOps::ScopedTimedFileOps()
    : previous_(rmp::io::set_file_ops(&timed_file_ops())) {}

ScopedTimedFileOps::~ScopedTimedFileOps() { rmp::io::set_file_ops(previous_); }

}  // namespace perfbench
