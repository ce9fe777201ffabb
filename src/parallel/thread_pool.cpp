#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>

#include "obs/obs.hpp"

namespace rmp::parallel {
namespace {

// Identifies, inside a task body, which pool the current thread belongs
// to.  parallel_for compares it against `this` to detect re-entrant calls.
thread_local ThreadPool* tls_worker_pool = nullptr;

// Pool installed by ScopedPoolOverride; read by the free-function helpers.
std::atomic<ThreadPool*> g_pool_override{nullptr};

// Target number of chunks per worker: enough slack that uneven chunk
// costs balance out, few enough that queue traffic stays negligible.
constexpr std::size_t kChunksPerWorker = 4;

}  // namespace

ThreadPool::ThreadPool(std::size_t workers) {
  // Workers record obs metrics after each task, possibly after the caller
  // has returned.  Creating the registry first makes it outlive a static
  // pool (statics die in reverse order), so exit cannot destroy it under
  // a worker that is still recording.
  obs::Registry::global();
  workers = std::max<std::size_t>(1, workers);
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  ready_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  auto future = packaged.get_future();
  std::size_t depth = 0;
  {
    std::lock_guard lock(mutex_);
    tasks_.push(std::move(packaged));
    depth = tasks_.size();
  }
  obs::count("pool.tasks_submitted");
  obs::gauge_max("pool.queue_depth", depth);
  ready_.notify_one();
  return future;
}

std::size_t ThreadPool::chunk_size(std::size_t count, std::size_t grain) const {
  const std::size_t target_chunks =
      std::max<std::size_t>(1, workers_.size() * kChunksPerWorker);
  const std::size_t balanced = (count + target_chunks - 1) / target_chunks;
  return std::max({std::size_t{1}, grain, balanced});
}

void ThreadPool::parallel_for_ranges(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t grain) {
  if (count == 0) return;
  const std::size_t chunk = chunk_size(count, grain);
  // Inline when parallelism cannot help (one worker / one chunk) or must
  // not be attempted (re-entrant call from one of our own workers, which
  // would deadlock once all workers block waiting on nested tasks).
  if (workers_.size() == 1 || chunk >= count || tls_worker_pool == this) {
    body(0, count);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve((count + chunk - 1) / chunk);
  for (std::size_t begin = 0; begin < count; begin += chunk) {
    const std::size_t end = std::min(count, begin + chunk);
    futures.push_back(submit([&body, begin, end] { body(begin, end); }));
  }
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body,
                              std::size_t grain) {
  parallel_for_ranges(
      count,
      [&body](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) body(i);
      },
      grain);
}

void ThreadPool::worker_loop() {
  tls_worker_pool = this;
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock lock(mutex_);
      ready_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    const obs::Clock::time_point start = obs::now();
    task();
    obs::observe("pool.task_seconds", obs::seconds_since(start));
    obs::count("pool.tasks_completed");
  }
}

std::size_t default_thread_count() {
  if (const char* env = std::getenv("RMP_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool& global_pool() {
  static ThreadPool pool(default_thread_count());
  return pool;
}

ThreadPool& active_pool() {
  if (ThreadPool* override_pool = g_pool_override.load(std::memory_order_acquire)) {
    return *override_pool;
  }
  return global_pool();
}

void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& body,
                  std::size_t grain) {
  active_pool().parallel_for(count, body, grain);
}

void parallel_for_ranges(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t grain) {
  active_pool().parallel_for_ranges(count, body, grain);
}

std::size_t active_thread_count() { return active_pool().worker_count(); }

ScopedPoolOverride::ScopedPoolOverride(ThreadPool& pool)
    : previous_(g_pool_override.exchange(&pool, std::memory_order_acq_rel)) {}

ScopedPoolOverride::~ScopedPoolOverride() {
  g_pool_override.store(previous_, std::memory_order_release);
}

}  // namespace rmp::parallel
