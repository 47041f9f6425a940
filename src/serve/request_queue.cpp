#include "serve/request_queue.hpp"

#include <algorithm>

namespace everest::serve {

std::string_view to_string(SlaClass sla) {
  switch (sla) {
    case SlaClass::kLatencyCritical: return "latency-critical";
    case SlaClass::kThroughput: return "throughput";
  }
  return "?";
}

Status RequestQueue::push(PendingRequest&& pending, std::size_t* depth) {
  const int lane = static_cast<int>(pending.request.sla);
  // The base moves `pending` only once admitted, and reads the kernel name
  // only to word a rejection.
  return TwoLaneQueue<PendingRequest>::push(std::move(pending), lane, "request",
                                            pending.request.kernel, depth);
}

std::optional<PendingRequest> RequestQueue::pop_compatible(
    const std::string& kernel, SlaClass sla) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& lane = lanes_[static_cast<int>(sla)];
  const auto it = std::find_if(lane.begin(), lane.end(),
                               [&](const PendingRequest& p) {
                                 return p.request.kernel == kernel;
                               });
  if (it == lane.end()) return std::nullopt;
  PendingRequest out = std::move(*it);
  lane.erase(it);
  return out;
}

}  // namespace everest::serve
