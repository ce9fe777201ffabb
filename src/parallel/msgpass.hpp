// In-process message-passing runtime: the library's stand-in for MPI.
//
// Ranks are std::threads sharing a World; communication is by value
// (copied byte buffers), so the programming model matches the
// distributed-memory discipline of the paper's Heat3d implementation:
// point-to-point send/recv with tags, broadcast, gather, allreduce and a
// barrier.  Algorithm 1 (one-base mid-plane broadcast + delta gather) runs
// verbatim on this runtime.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <mutex>
#include <span>
#include <stdexcept>
#include <vector>

namespace rmp::parallel {

class Communicator;

/// Spawn `world_size` ranks, run `body` on each, join them all.  Any
/// exception thrown by a rank is captured and rethrown (first one wins)
/// after every thread has joined.
void run_ranks(int world_size,
               const std::function<void(Communicator&)>& body);

namespace detail {

struct Message {
  int source;
  int tag;
  std::vector<std::uint8_t> payload;
};

class World {
 public:
  explicit World(int size);

  void post(int dest, Message message);
  Message match(int self, int source, int tag);

  void barrier();

  int size() const noexcept { return size_; }

 private:
  int size_;
  struct Mailbox {
    std::mutex mutex;
    std::condition_variable ready;
    std::deque<Message> messages;
  };
  std::vector<Mailbox> mailboxes_;

  std::mutex barrier_mutex_;
  std::condition_variable barrier_cv_;
  int barrier_count_ = 0;
  std::uint64_t barrier_generation_ = 0;
};

}  // namespace detail

class Communicator {
 public:
  Communicator(detail::World& world, int rank) : world_(world), rank_(rank) {}

  int rank() const noexcept { return rank_; }
  int size() const noexcept { return world_.size(); }

  /// Blocking point-to-point, matched by (source, tag).
  void send_bytes(int dest, int tag, std::span<const std::uint8_t> bytes);
  std::vector<std::uint8_t> recv_bytes(int source, int tag);

  template <typename T>
  void send(int dest, int tag, std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dest, tag,
               {reinterpret_cast<const std::uint8_t*>(values.data()),
                values.size_bytes()});
  }

  template <typename T>
  std::vector<T> recv(int source, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto bytes = recv_bytes(source, tag);
    if (bytes.size() % sizeof(T) != 0) {
      throw std::runtime_error("recv: payload not a multiple of sizeof(T)");
    }
    std::vector<T> values(bytes.size() / sizeof(T));
    // A zero-byte message has no buffer: memcpy's pointers must be valid.
    if (!bytes.empty()) {
      std::memcpy(values.data(), bytes.data(), bytes.size());
    }
    return values;
  }

  void barrier() { world_.barrier(); }

  /// Root's buffer is copied to every rank (buffer sizes must match).
  template <typename T>
  void broadcast(std::vector<T>& data, int root) {
    constexpr int kTag = -1001;
    if (rank_ == root) {
      for (int r = 0; r < size(); ++r) {
        if (r != root) send<T>(r, kTag, data);
      }
    } else {
      data = recv<T>(root, kTag);
    }
  }

  /// Concatenate every rank's contribution at the root, in rank order.
  /// Non-roots receive an empty vector.
  template <typename T>
  std::vector<T> gather(std::span<const T> local, int root) {
    constexpr int kTag = -1002;
    if (rank_ == root) {
      std::vector<T> all;
      for (int r = 0; r < size(); ++r) {
        if (r == root) {
          all.insert(all.end(), local.begin(), local.end());
        } else {
          const auto part = recv<T>(r, kTag);
          all.insert(all.end(), part.begin(), part.end());
        }
      }
      return all;
    }
    send<T>(root, kTag, local);
    return {};
  }

  double allreduce_sum(double value);
  double allreduce_max(double value);

 private:
  detail::World& world_;
  int rank_;
};

}  // namespace rmp::parallel
