// Inter-node interconnect model for the federation: one FIFO clock per
// directed node pair. A hop issued at wall instant `now` starts once the
// link has finished every transfer already booked on it, at
// max(now, busy_until), and then holds the link for
// LinkModel::transfer_us(bytes). Its cost is that wait plus the transfer:
// exactly transfer_us on an idle link, queueing behind the booked backlog
// in a burst. The cost is a model output; nothing moves and nothing
// sleeps.
//
// Per-link locking: hops on distinct node pairs never contend.
#pragma once

#include <chrono>
#include <mutex>
#include <vector>

#include "platform/links.hpp"

namespace everest::cluster {

class ForwardFabric {
 public:
  ForwardFabric(std::size_t num_nodes, platform::LinkModel model);

  /// Models moving `bytes` from `src` to `dst` right now; returns the
  /// hop's total cost (µs) = queueing behind transfers already booked on
  /// that link + the transfer itself. Does not sleep — callers charge
  /// the cost where it belongs (the forwarded request's latency). A hop
  /// from a node to itself costs 0.
  double hop_us(std::size_t src, std::size_t dst, double bytes);

 private:
  /// One directed link: backlog on (a, b) never couples to (c, d).
  struct Link {
    std::mutex mu;
    /// Wall µs (fabric epoch) at which the last booked transfer ends.
    double busy_until_us = 0.0;
  };

  std::size_t n_;
  platform::LinkModel model_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Link> links_;  ///< src * n_ + dst; the diagonal stays unused
};

}  // namespace everest::cluster
