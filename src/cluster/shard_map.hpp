// Versioned shard → replica-set map for the serving federation. The key
// space is hashed into a fixed number of shards; each shard's replicas
// are chosen by the data plane's capacity-aware weighted-rendezvous
// placement (data::PlacementPolicy) over the currently healthy nodes, so
// the serving tier and the data tier agree on where a key "lives" — the
// property locality-aware routing depends on. Rendezvous keeps rebuilds
// minimal: failing one node moves only the shards it held; every other
// assignment is byte-identical across the rebuild (the tests pin this).
//
// Tables are immutable snapshots behind a shared_ptr: a router holds one
// for the duration of a decision, rebuilds swap in a new version, and
// the version number makes "which map routed this request" a recordable
// fact.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/membership.hpp"
#include "data/object.hpp"

namespace everest::cluster {

struct ShardMapConfig {
  /// Fixed shard count (the unit of placement/failover granularity).
  std::uint32_t num_shards = 64;
  /// Replicas per shard; capped by the number of healthy nodes.
  int replication = 2;
  /// Salt decorrelating this federation's rendezvous scores.
  std::uint64_t salt = 0x5eedULL;
};

/// Immutable shard table at one version.
struct ShardTable {
  std::uint64_t version = 0;
  /// Membership epoch this table was built from.
  std::uint64_t built_epoch = 0;
  std::uint32_t num_shards = 0;
  /// Per shard: node indices in preference order (index 0 = primary).
  /// Empty when no healthy node could host the shard (cluster down).
  std::vector<std::vector<std::size_t>> replicas;
  /// Per node: shards for which it is primary (placement balance).
  std::vector<std::uint32_t> primary_count;

  /// max/mean primary count over nodes that hold at least one primary
  /// (1.0 = perfectly balanced; 0 when the table is empty).
  [[nodiscard]] double primary_imbalance() const;
};

/// Thread-safe versioned map. One writer calls rebuild() (the
/// federation's pump, on membership transitions); readers call table().
class ShardMap {
 public:
  ShardMap(std::size_t num_nodes, ShardMapConfig config = {});

  /// Recomputes every shard's replica set over `view`'s healthy nodes,
  /// bumps the version, and publishes the new table. Returns the number
  /// of (shard, preference-slot) assignments that changed vs. the
  /// previous table — the shard-movement cost of this membership event.
  std::size_t rebuild(const MembershipView& view);

  [[nodiscard]] std::shared_ptr<const ShardTable> table() const;

  /// Shard owning `key` under this map's geometry. Deterministic; uses
  /// the same name → ObjectId hash as the data plane and the serve input
  /// cache, so "the node that owns the shard" is also "the node whose
  /// input cache is warm for the key".
  [[nodiscard]] std::uint32_t shard_of(std::string_view key) const;
  static std::uint32_t shard_of(std::string_view key,
                                std::uint32_t num_shards, std::uint64_t salt);

  [[nodiscard]] std::size_t num_nodes() const { return num_nodes_; }
  [[nodiscard]] const ShardMapConfig& config() const { return config_; }

 private:
  std::size_t num_nodes_;
  ShardMapConfig config_;

  mutable std::mutex mu_;
  std::shared_ptr<const ShardTable> table_;
};

}  // namespace everest::cluster
