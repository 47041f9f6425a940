#include "cluster/shard_map.hpp"

#include <algorithm>

#include "data/object.hpp"
#include "data/placement.hpp"

namespace everest::cluster {

double ShardTable::primary_imbalance() const {
  std::uint32_t max_count = 0;
  std::uint64_t total = 0;
  std::size_t holders = 0;
  for (std::uint32_t c : primary_count) {
    if (c == 0) continue;
    ++holders;
    total += c;
    max_count = std::max(max_count, c);
  }
  if (holders == 0) return 0.0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(holders);
  return mean > 0.0 ? static_cast<double>(max_count) / mean : 0.0;
}

ShardMap::ShardMap(std::size_t num_nodes, ShardMapConfig config)
    : num_nodes_(num_nodes), config_(config) {
  if (config_.replication < 1) config_.replication = 1;
  // Version 0: everything healthy (callers rebuild on the first real view
  // anyway; starting populated keeps single-node setups trivial).
  MembershipView all;
  all.health.assign(num_nodes_, resilience::Health::kHealthy);
  for (std::size_t i = 0; i < num_nodes_; ++i) all.routable.push_back(i);
  rebuild(all);
}

std::size_t ShardMap::rebuild(const MembershipView& view) {
  // Equal-weight rendezvous over the healthy nodes via the data plane's
  // placement policy; a failed StorageNode receives nothing, so a dead
  // node's shards land on the next-highest scorers — its replicas.
  std::vector<data::StorageNode> nodes(num_nodes_);
  for (std::size_t i = 0; i < num_nodes_; ++i) {
    nodes[i].name = "node" + std::to_string(i);
    nodes[i].capacity_bytes = 1e18;
    nodes[i].failed =
        i < view.health.size()
            ? view.health[i] != resilience::Health::kHealthy
            : false;
  }
  data::PlacementConfig placement;
  placement.replication = config_.replication;
  placement.salt = config_.salt;
  data::PlacementPolicy policy(std::move(nodes), placement);

  auto next = std::make_shared<ShardTable>();
  next->built_epoch = view.epoch;
  next->num_shards = config_.num_shards;
  next->replicas.resize(config_.num_shards);
  next->primary_count.assign(num_nodes_, 0);
  for (std::uint32_t s = 0; s < config_.num_shards; ++s) {
    const data::ShardKey key{static_cast<data::ObjectId>(s), 0, 0};
    auto placed = policy.place(key, 1.0, data::PlacementPolicy::kNowhere);
    if (placed.ok()) {
      next->replicas[s] = std::move(*placed);
      ++next->primary_count[next->replicas[s].front()];
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  std::size_t moved = 0;
  if (table_ != nullptr && table_->num_shards == next->num_shards) {
    for (std::uint32_t s = 0; s < next->num_shards; ++s) {
      const auto& before = table_->replicas[s];
      const auto& after = next->replicas[s];
      const std::size_t slots = std::max(before.size(), after.size());
      for (std::size_t r = 0; r < slots; ++r) {
        const bool same = r < before.size() && r < after.size() &&
                          before[r] == after[r];
        if (!same) ++moved;
      }
    }
    next->version = table_->version + 1;
  } else if (table_ != nullptr) {
    moved = next->num_shards;
    next->version = table_->version + 1;
  }
  table_ = std::move(next);
  return moved;
}

std::shared_ptr<const ShardTable> ShardMap::table() const {
  std::lock_guard<std::mutex> lock(mu_);
  return table_;
}

std::uint32_t ShardMap::shard_of(std::string_view key) const {
  return shard_of(key, config_.num_shards, config_.salt);
}

std::uint32_t ShardMap::shard_of(std::string_view key,
                                 std::uint32_t num_shards,
                                 std::uint64_t salt) {
  if (num_shards == 0) return 0;
  const data::ShardKey k{data::object_id_from_name(std::string(key)), 0, 0};
  return static_cast<std::uint32_t>(data::hash_key(k, salt) % num_shards);
}

}  // namespace everest::cluster
