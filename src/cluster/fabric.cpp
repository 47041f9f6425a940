#include "cluster/fabric.hpp"

#include <algorithm>

namespace everest::cluster {

ForwardFabric::ForwardFabric(std::size_t num_nodes,
                             platform::LinkModel model)
    : n_(num_nodes),
      model_(std::move(model)),
      epoch_(std::chrono::steady_clock::now()),
      links_(num_nodes * num_nodes) {}

double ForwardFabric::hop_us(std::size_t src, std::size_t dst,
                             double bytes) {
  if (src == dst || src >= n_ || dst >= n_) return 0.0;
  const double now_us = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - epoch_)
                            .count();
  Link& l = links_[src * n_ + dst];
  std::lock_guard<std::mutex> lock(l.mu);
  const double cost_us =
      std::max(0.0, l.busy_until_us - now_us) + model_.transfer_us(bytes);
  l.busy_until_us = now_us + cost_us;
  return cost_us;
}

}  // namespace everest::cluster
