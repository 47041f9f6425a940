#include "serve/batcher.hpp"

#include <thread>

namespace everest::serve {

bool Batcher::next_batch(Batch* out) {
  // Wait for the opening request (bounded waits so close() is honoured).
  std::optional<PendingRequest> head;
  while (!head) {
    head = queue_->pop(std::chrono::microseconds(2000));
    if (!head && queue_->closed() && queue_->size() == 0) return false;
  }

  out->kernel = head->request.kernel;
  out->sla = head->request.sla;
  out->requests.clear();
  out->requests.push_back(std::move(*head));

  const std::size_t cap = out->sla == SlaClass::kLatencyCritical
                              ? policy_.lc_max_batch
                              : policy_.max_batch;
  const Clock::time_point flush_at = Clock::now() + policy_.max_wait;
  while (out->requests.size() < cap) {
    auto more = queue_->pop_compatible(out->kernel, out->sla);
    if (more) {
      out->requests.push_back(std::move(*more));
      continue;
    }
    const Clock::time_point now = Clock::now();
    if (now >= flush_at || queue_->closed()) break;  // size-1 flush on timeout
    // Work-conserving: incompatible work is queued, so waiting for a fuller
    // batch would idle this worker while that work waits too.
    if (queue_->size() != 0) break;
    // Brief nap bounded by the remaining wait budget; keeps the worker
    // from spinning while letting near-simultaneous arrivals coalesce.
    const auto remaining =
        std::chrono::duration_cast<std::chrono::microseconds>(flush_at - now);
    std::this_thread::sleep_for(
        std::min(remaining, std::chrono::microseconds(50)));
  }
  return true;
}

}  // namespace everest::serve
