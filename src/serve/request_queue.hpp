// Bounded admission queue: the service's front door. Two lanes (one per
// SLA class) behind one mutex; push is admission control — when the queue
// is at capacity the item is rejected immediately with
// RESOURCE_EXHAUSTED instead of building an unbounded backlog. That
// reject-don't-buffer policy is what keeps p99 latency bounded under
// overload (bench E17 measures exactly this).
//
// The policy is generic over the queued item: TwoLaneQueue<T> carries the
// lanes, the capacity bound, and the blocking consumer side, so the same
// admission path fronts both request serving (RequestQueue below) and
// continuous event ingestion (stream::Ingestor).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "common/status.hpp"
#include "serve/request.hpp"

namespace everest::serve {

/// Thread-safe bounded MPMC queue with two priority lanes (lane 0 is
/// always popped first). Producers never block: a full queue rejects.
template <typename T>
class TwoLaneQueue {
 public:
  explicit TwoLaneQueue(std::size_t capacity) : capacity_(capacity) {}

  /// Admission: enqueues into `lane` (0 = priority, 1 = bulk) or rejects
  /// with RESOURCE_EXHAUSTED when full, FAILED_PRECONDITION when closed.
  /// A rejected `item` is left as it was, and the error message names it
  /// as `what` '`name`'. On admission `*depth`, if given, is the queue
  /// depth counting `item`. Never blocks.
  Status push(T&& item, int lane, std::string_view what, std::string_view name,
              std::size_t* depth = nullptr) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) {
        return FailedPrecondition("queue is closed");
      }
      if (total_locked() >= capacity_) {
        return ResourceExhausted("queue full (" + std::to_string(capacity_) +
                                 " pending), " + std::string(what) + " '" +
                                 std::string(name) + "' rejected");
      }
      lanes_[lane == 0 ? 0 : 1].push_back(std::move(item));
      if (depth != nullptr) *depth = total_locked();
    }
    cv_.notify_one();
    return OkStatus();
  }

  /// Pops the oldest item, priority lane first. Blocks up to `timeout`;
  /// returns nullopt on timeout or when closed and drained.
  std::optional<T> pop(std::chrono::microseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, timeout,
                 [this] { return closed_ || total_locked() > 0; });
    for (auto& lane : lanes_) {
      if (!lane.empty()) {
        T out = std::move(lane.front());
        lane.pop_front();
        return out;
      }
    }
    return std::nullopt;
  }

  /// Items currently queued (both lanes).
  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_locked();
  }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Stops admission; consumers drain what is left, then pop() returns
  /// nullopt immediately.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }
  [[nodiscard]] bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

 protected:
  [[nodiscard]] std::size_t total_locked() const {
    return lanes_[0].size() + lanes_[1].size();
  }

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> lanes_[2];
  bool closed_ = false;
};

/// A request plus its completion callback, as held inside the server.
struct PendingRequest {
  Request request;
  ResponseCallback on_done;
};

/// The serving front door: TwoLaneQueue of pending requests with the
/// lanes keyed by SLA class (latency-critical jumps the queue) plus the
/// batcher's kernel-compatible pop.
class RequestQueue : public TwoLaneQueue<PendingRequest> {
 public:
  explicit RequestQueue(std::size_t capacity)
      : TwoLaneQueue<PendingRequest>(capacity) {}

  /// Admission: enqueues or rejects with RESOURCE_EXHAUSTED when full,
  /// FAILED_PRECONDITION when closed. On admission `*depth`, if given, is
  /// the queue depth counting this request. Never blocks the producer.
  Status push(PendingRequest&& pending, std::size_t* depth = nullptr);

  /// Pops the oldest queued request for `kernel` in `sla` class, if any.
  /// Non-blocking; used by the batcher to coalesce compatible requests.
  std::optional<PendingRequest> pop_compatible(const std::string& kernel,
                                               SlaClass sla);
};

}  // namespace everest::serve
