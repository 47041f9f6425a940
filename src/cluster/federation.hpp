// The serving federation: N per-node serve::Server instances composed
// into one horizontally scaled service (the paper's §V distributed
// edge/inner-edge/cloud ecosystem, made concrete as a sharded cluster).
// This is the first subsystem that composes all four prior layers into
// one distributed system:
//
//   * resilience — a phi-accrual Membership driven by a heartbeat pump
//     decides who is routable; dead nodes' shards fail over to replicas
//     within one detection interval;
//   * data       — the ShardMap reuses the data plane's weighted
//     rendezvous placement, so keyed requests land on the node whose
//     input cache is warm for their key (locality first);
//   * platform   — cross-node forwarding pays a modelled per-link FIFO
//     hop (ForwardFabric over the TCP datacenter LinkModel), not a
//     constant;
//   * serve      — each node is a full Server (admission control,
//     batching, autotuned variant selection, graceful drain); keyless
//     traffic is spread by power-of-two-choices on live queue depth;
//   * obs        — every decision and hop is counted/metered through a
//     Registry, and per-hop spans land on an optional Tracer.
//
// Fail-stop is modeled at the network boundary: crash(i) makes node i
// unreachable (submits refused, heartbeats stop) while requests already
// inside it run to completion — the in-process analogue of a process
// whose NIC died; its RAM, input cache included, survives. Clients
// hitting a crashed node are transparently re-routed to the next replica
// (connection-refused retry), so keyed availability holds even before
// detection; detection then rebuilds the shard map (failover), and a
// rejoin rebuilds it again (rebalance) while in-flight work on the
// temporary owners drains naturally. Restart-to-warm after a process
// death is the data plane's job (data::DataPlane::recover()).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "cluster/fabric.hpp"
#include "cluster/membership.hpp"
#include "cluster/router.hpp"
#include "cluster/shard_map.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "runtime/knowledge.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"

namespace everest::cluster {

struct FederationOptions {
  std::size_t num_nodes = 4;
  /// Per-node server template (queue capacity, workers, batching,
  /// input cache, ... — every node gets an identical copy).
  serve::ServerOptions node;
  ShardMapConfig shard_map;
  MembershipConfig membership;
  /// false = ignore data_key and balance everything by queue depth (the
  /// locality ablation the E21 bench runs).
  bool locality_routing = true;
  /// Heartbeat/detection pump cadence (wall µs between passes).
  double pump_period_us = 2'000.0;
  /// Root of ingress choice and keyless candidate draws.
  std::uint64_t seed = 42;
  /// Optional federation-level tracer (per-hop spans, failover/rebalance
  /// instants). The per-node template's tracer traces inside each node.
  /// When both point at the SAME tracer, every ingress request becomes
  /// one stitched cross-node chain: a "federation.request" root span
  /// with the forward hop, the target node's queue/batch/execute/reply
  /// spans, and the reply hop all parented under it (TraceContext
  /// propagation through serve::Request::trace).
  obs::Tracer* tracer = nullptr;
};

/// Aggregated federation counters (snapshot of the registry).
struct FederationStats {
  std::uint64_t submitted = 0;
  std::uint64_t keyed = 0;
  std::uint64_t keyed_data_local = 0;  ///< served by a replica holder
  std::uint64_t routed_primary = 0;
  std::uint64_t routed_failover = 0;
  std::uint64_t routed_no_owner = 0;
  std::uint64_t routed_p2c = 0;
  std::uint64_t ingress_local = 0;  ///< target == ingress, no hop paid
  std::uint64_t forwarded = 0;      ///< paid an ingress → target hop
  std::uint64_t refused_retries = 0;  ///< re-routes around a crashed node
  std::uint64_t unroutable = 0;       ///< no reachable node at all
  std::uint64_t failovers = 0;        ///< dead transitions handled
  std::uint64_t rejoins = 0;
  std::uint64_t rebuilds = 0;         ///< shard-map rebuilds
  double shards_moved_last = 0.0;     ///< assignment churn of last rebuild
  double shard_imbalance = 0.0;       ///< primary max/mean of live table
  /// Wall µs (federation epoch) of the most recent kDead detection.
  double last_detection_us = 0.0;
  /// Forward-hop latency distribution (µs).
  double hop_mean_us = 0.0;
  double hop_p99_us = 0.0;
  std::uint64_t hops = 0;

  [[nodiscard]] double data_local_fraction() const {
    return keyed == 0 ? 0.0
                      : static_cast<double>(keyed_data_local) /
                            static_cast<double>(keyed);
  }
};

class Federation {
 public:
  explicit Federation(FederationOptions options);
  ~Federation();

  Federation(const Federation&) = delete;
  Federation& operator=(const Federation&) = delete;

  /// Registers `endpoint` on every node (each node keeps its own
  /// knowledge base and learns its own calibration). Before start().
  Status register_endpoint(const serve::Endpoint& endpoint);

  /// Starts every node server plus the heartbeat/detection pump.
  Status start();

  /// Routes and submits one request: locality first for keyed traffic,
  /// power-of-two-choices for keyless, connection-refused retry around
  /// crashed nodes, modelled forward/reply hops (ForwardFabric) added to
  /// Response::latency_us. Callback contract matches serve::Server.
  Status submit(serve::Request request, serve::ResponseCallback on_done);

  /// Waits until every node delivered every admitted response.
  void drain();

  /// Graceful shutdown: seals admission on every node (drain_gracefully),
  /// finishes in-flight work, stops the pump and the servers. Idempotent.
  void stop();

  // ---- fault injection (the E21 failover experiments) ----
  /// Fail-stop node `i` at the network boundary: heartbeats cease and
  /// submits are refused; requests already inside finish, and the node's
  /// state (input cache included) survives.
  void crash(std::size_t node);
  /// Reconnects a crashed node as it was: admission reopens, and the next
  /// pump heartbeat revives it and triggers the rejoin rebalance.
  void restart(std::size_t node);
  [[nodiscard]] bool crashed(std::size_t node) const {
    return crashed_[node]->load(std::memory_order_acquire);
  }

  // ---- introspection ----
  [[nodiscard]] const Membership& membership() const { return *membership_; }
  [[nodiscard]] std::shared_ptr<const ShardTable> shard_table() const {
    return shard_map_->table();
  }
  [[nodiscard]] serve::Server& node(std::size_t i) { return *servers_[i]; }
  [[nodiscard]] std::size_t num_nodes() const { return options_.num_nodes; }
  [[nodiscard]] FederationStats stats() const;
  [[nodiscard]] const obs::Registry& registry() const { return registry_; }
  /// Silence → declared-dead bound plus one pump period.
  [[nodiscard]] double detection_interval_us() const {
    return membership_->detection_interval_us() + options_.pump_period_us;
  }
  /// Wall µs since federation construction (the pump/detection clock).
  [[nodiscard]] double now_us() const;

  /// Loadgen adapters: `run_open_loop(fed.submit_fn(), fed.drain_fn(),
  /// spec)` drives the whole cluster with the single-server generator.
  [[nodiscard]] serve::SubmitFn submit_fn();
  [[nodiscard]] serve::DrainFn drain_fn();

 private:
  void pump_loop();
  void rebuild_shard_map(const char* reason);
  [[nodiscard]] std::size_t pick_ingress(std::uint64_t seed) const;

  FederationOptions options_;
  std::chrono::steady_clock::time_point epoch_;

  std::unique_ptr<Membership> membership_;
  std::unique_ptr<ShardMap> shard_map_;
  std::unique_ptr<ClusterRouter> router_;
  std::unique_ptr<ForwardFabric> fabric_;

  /// Per-node stacks: each node owns its knowledge base + server.
  std::vector<std::unique_ptr<runtime::KnowledgeBase>> knowledge_;
  std::vector<std::unique_ptr<serve::Server>> servers_;
  /// Heap-allocated so the vector never relocates a live atomic.
  std::vector<std::unique_ptr<std::atomic<bool>>> crashed_;

  std::thread pump_;
  std::atomic<bool> running_{false};
  std::atomic<bool> pump_running_{false};

  // ---- instruments (owned registry; pointers cached at construction) --
  obs::Registry registry_;
  obs::Counter* submitted_;
  obs::Counter* keyed_;
  obs::Counter* keyed_local_;
  obs::Counter* route_kind_[4];  ///< indexed by RouteKind
  obs::Counter* ingress_local_;
  obs::Counter* forwarded_;
  obs::Counter* refused_retry_;
  obs::Counter* unroutable_;
  obs::Counter* failovers_;
  obs::Counter* rejoins_;
  obs::Counter* rebuilds_;
  obs::Gauge* shards_moved_;
  obs::Gauge* imbalance_;
  obs::Gauge* last_detection_;
  obs::Histogram* hop_us_;
};

}  // namespace everest::cluster
