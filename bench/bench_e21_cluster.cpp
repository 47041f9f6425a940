// E21 — the sharded serving federation quantified. Four experiment
// series plus a routing micro-budget:
//   (1) horizontal scaling: keyless closed-loop throughput and p99 vs
//       node count — power-of-two-choices over live queue depths should
//       keep efficiency near-linear (smoke: >=70% at 8 nodes vs 1);
//   (2) locality routing vs the balance-only ablation at replication 2:
//       fraction of keyed requests served data-local, and what that does
//       to the per-node input caches (smoke: >=80% data-local, locality
//       hit rate beats the ablation);
//   (3) kill-one-node failover timeline: keyed traffic while a node
//       fail-stops and later rejoins — availability holds through the
//       outage via connection-refused re-routing, detection rebuilds the
//       shard map within the phi-detector interval, and p99 recovers
//       (smoke: zero failed responses, detection within 2x the nominal
//       interval, post-detection p99 <= 2x steady);
//   (4) hot-shard skew sweep: Zipf key popularity vs per-node load share
//       — locality routing deliberately trades balance for warm caches,
//       and this series prices that trade;
//   (5) the route() budget: a keyless decision is two snapshot loads +
//       one stateless hash, and must stay under 200 ns (smoke-enforced;
//       bench_micro carries the tracked measurement).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/federation.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "serve/loadgen.hpp"

#include "smoke.hpp"

using namespace everest;
using namespace everest::cluster;

namespace {

constexpr std::uint64_t kSeed = 2026;
/// Fixed per-request service time: makes per-node capacity predictable
/// (worker_threads / kServiceUs), so scaling efficiency is a property of
/// the federation, not of kernel noise.
constexpr long kServiceUs = 800;

serve::Endpoint kv_endpoint() {
  serve::Endpoint ep;
  ep.kernel = "kv";
  compiler::Variant v;
  v.id = "kv-cpu";
  v.kernel = "kv";
  v.target = compiler::TargetKind::kCpu;
  v.latency_us = static_cast<double>(kServiceUs);
  v.energy_uj = 10.0;
  ep.variants = {v};
  ep.handler = [](const serve::Batch& batch, std::vector<double>* values) {
    std::this_thread::sleep_for(std::chrono::microseconds(kServiceUs));
    values->clear();
    for (const serve::PendingRequest& pending : batch.requests) {
      values->push_back(static_cast<double>(pending.request.seed % 1000));
    }
    return OkStatus();
  };
  return ep;
}

FederationOptions base_options(std::size_t nodes) {
  FederationOptions options;
  options.num_nodes = nodes;
  options.node.queue_capacity = 256;
  options.node.worker_threads = 2;
  options.node.batch.max_batch = 1;  // capacity = workers / service time
  options.node.batch.max_wait = std::chrono::microseconds(500);
  options.shard_map.num_shards = 64;
  options.shard_map.replication = 2;
  options.seed = kSeed;
  return options;
}

struct Cluster {
  Federation federation;
  explicit Cluster(FederationOptions options)
      : federation(std::move(options)) {
    Status st = federation.register_endpoint(kv_endpoint());
    if (!st.ok()) std::printf("register failed: %s\n", st.to_string().c_str());
    st = federation.start();
    if (!st.ok()) std::printf("start failed: %s\n", st.to_string().c_str());
  }
};

std::string pct(double x) { return fmt_double(100.0 * x, 1) + "%"; }

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = everest::bench::smoke_mode(argc, argv);
  everest::bench::SmokeChecker checker;

  std::printf(
      "=== E21: sharded multi-node serving federation (locality routing, "
      "live failover) ===\n\n");
  const auto horizon = std::chrono::milliseconds(smoke ? 300 : 600);

  // --- Series 1: throughput & p99 vs node count (keyless, closed loop) --
  std::printf(
      "--- scaling: keyless closed loop, 4 clients/node, 2 workers/node, "
      "%ld us service ---\n", kServiceUs);
  const std::vector<std::size_t> node_counts =
      smoke ? std::vector<std::size_t>{1, 8}
            : std::vector<std::size_t>{1, 2, 4, 8, 16};
  Table s1({"nodes", "achieved rps", "p50 ms", "p99 ms", "efficiency",
            "forwarded", "p2c routed"});
  double base_rps = 0.0;
  double efficiency_at_8 = 0.0;
  for (std::size_t nodes : node_counts) {
    Cluster cluster(base_options(nodes));
    serve::WorkloadSpec spec;
    spec.kernels = {"kv"};
    spec.duration = horizon;
    spec.lc_fraction = 0.0;
    spec.lc_deadline_ms = 0.0;
    spec.tp_deadline_ms = 0.0;
    spec.seed = kSeed;
    const serve::LoadReport report = serve::run_closed_loop(
        cluster.federation.submit_fn(), cluster.federation.drain_fn(), spec,
        /*clients=*/static_cast<int>(4 * nodes));
    const FederationStats stats = cluster.federation.stats();
    cluster.federation.stop();
    const double rps = report.achieved_rps();
    if (nodes == 1) base_rps = rps;
    const double efficiency =
        base_rps > 0.0 ? rps / (static_cast<double>(nodes) * base_rps) : 0.0;
    if (nodes == 8) efficiency_at_8 = efficiency;
    s1.add_row({std::to_string(nodes), fmt_double(rps, 0),
                fmt_double(report.p50_us() / 1e3, 2),
                fmt_double(report.p99_us() / 1e3, 2), pct(efficiency),
                std::to_string(stats.forwarded),
                std::to_string(stats.routed_p2c)});
  }
  std::printf("%s\n", s1.render().c_str());
  std::printf(
      "closed-loop clients saturate each node; power-of-two-choices on\n"
      "live queue depth spreads keyless load without a central balancer.\n\n");
  if (smoke) {
    checker.check(efficiency_at_8 >= 0.70,
                  "scaling-efficiency-at-8-nodes>=70%");
  }

  // --- Series 2: locality routing vs balance-only ablation --------------
  std::printf(
      "--- keyed locality at replication 2 (3 nodes, 48 objects x 64 KiB, "
      "1.25 MiB/node cache) ---\n");
  Table s2({"routing", "data-local", "cache hit rate", "forwarded",
            "hop mean us (modelled)", "p99 ms", "completed"});
  double local_fraction_on = 0.0;
  double hit_on = 0.0;
  double hit_off = 0.0;
  for (const bool locality : {true, false}) {
    FederationOptions options = base_options(3);
    options.locality_routing = locality;
    options.node.input_cache.capacity_bytes = 1.25 * 1024 * 1024;
    options.node.input_stage_scale = 0.2;
    Cluster cluster(options);
    serve::WorkloadSpec spec;
    spec.kernels = {"kv"};
    spec.offered_rps = 800.0;
    spec.duration = horizon;
    spec.lc_fraction = 0.0;
    spec.lc_deadline_ms = 0.0;
    spec.tp_deadline_ms = 0.0;
    spec.num_data_objects = 48;
    spec.zipf_skew = 1.0;
    spec.input_bytes = 64.0 * 1024;
    spec.seed = kSeed;
    const serve::LoadReport report = serve::run_open_loop(
        cluster.federation.submit_fn(), cluster.federation.drain_fn(), spec);
    const FederationStats stats = cluster.federation.stats();
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    for (std::size_t i = 0; i < cluster.federation.num_nodes(); ++i) {
      const data::CacheStats cache = cluster.federation.node(i).input_cache_stats();
      hits += cache.hits;
      misses += cache.misses;
    }
    cluster.federation.stop();
    const double hit_rate =
        hits + misses > 0
            ? static_cast<double>(hits) / static_cast<double>(hits + misses)
            : 0.0;
    if (locality) {
      local_fraction_on = stats.data_local_fraction();
      hit_on = hit_rate;
    } else {
      hit_off = hit_rate;
    }
    s2.add_row({locality ? "locality" : "balance-only (ablation)",
                pct(stats.data_local_fraction()), pct(hit_rate),
                std::to_string(stats.forwarded),
                fmt_double(stats.hop_mean_us, 1),
                fmt_double(report.p99_us() / 1e3, 2),
                std::to_string(report.completed)});
  }
  std::printf("%s\n", s2.render().c_str());
  std::printf(
      "routing a key to its shard's replica holder is what keeps each\n"
      "node's input cache working set at ~1/N of the key space; the\n"
      "ablation spreads every key over every node and thrashes.\n\n");
  if (smoke) {
    checker.check(local_fraction_on >= 0.80, "keyed-data-local>=80%@repl2");
    checker.check(hit_on > hit_off, "locality-beats-ablation-hit-rate");
  }

  // --- Series 3: kill-one-node failover timeline ------------------------
  std::printf(
      "--- failover timeline: 3 nodes, repl 2, keyed 600 rps; node0 "
      "fail-stops, later rejoins ---\n");
  {
    FederationOptions options = base_options(3);
    options.membership.heartbeat_interval_us = 4'000.0;
    options.membership.suspect_phi = 2.0;
    options.membership.dead_phi = 4.0;
    options.pump_period_us = 2'000.0;
    Cluster cluster(options);
    Federation& fed = cluster.federation;

    struct Point {
      double at_ms;
      double latency_us;
      bool ok;
    };
    std::mutex mu;
    std::vector<Point> points;
    serve::SubmitFn timed = [&](serve::Request request,
                                serve::ResponseCallback on_done) {
      return fed.submit(
          std::move(request),
          [&, cb = std::move(on_done)](const serve::Response& response) {
            {
              std::lock_guard<std::mutex> lock(mu);
              points.push_back(Point{fed.now_us() / 1e3,
                                     response.latency_us,
                                     response.status.ok()});
            }
            cb(response);
          });
    };

    serve::WorkloadSpec spec;
    spec.kernels = {"kv"};
    spec.offered_rps = 600.0;
    spec.duration = std::chrono::milliseconds(smoke ? 1000 : 1800);
    spec.lc_fraction = 0.0;
    spec.lc_deadline_ms = 0.0;
    spec.tp_deadline_ms = 0.0;
    spec.num_data_objects = 48;
    spec.zipf_skew = 0.8;
    spec.seed = kSeed;

    const double crash_ms = smoke ? 350.0 : 600.0;
    const double restart_ms = smoke ? 700.0 : 1200.0;
    double crash_at_ms = 0.0;
    std::thread traffic([&] {
      (void)serve::run_open_loop(timed, fed.drain_fn(), spec);
    });
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<long>(crash_ms)));
    crash_at_ms = fed.now_us() / 1e3;
    fed.crash(0);
    std::this_thread::sleep_for(std::chrono::milliseconds(
        static_cast<long>(restart_ms - crash_ms)));
    fed.restart(0);
    traffic.join();

    const FederationStats stats = fed.stats();
    const double detect_ms = stats.last_detection_us / 1e3;
    const double detection_latency_ms = detect_ms - crash_at_ms;
    fed.stop();

    std::uint64_t failed = 0;
    std::vector<double> steady;
    std::vector<double> recovered;
    for (const Point& point : points) {
      if (!point.ok) ++failed;
      if (point.at_ms >= 100.0 && point.at_ms < crash_at_ms) {
        steady.push_back(point.latency_us);
      }
      if (point.at_ms >= detect_ms + 20.0 && point.at_ms < detect_ms + 220.0) {
        recovered.push_back(point.latency_us);
      }
    }
    const double steady_p99 = steady.empty() ? 0.0 : percentile(steady, 99.0);
    const double recovered_p99 =
        recovered.empty() ? 0.0 : percentile(recovered, 99.0);

    // The timeline, in 50 ms windows around the crash.
    Table s3({"window ms", "completions", "p99 ms"});
    const double t0 = std::max(0.0, crash_at_ms - 150.0);
    for (double w = t0; w < restart_ms + 150.0; w += 50.0) {
      std::vector<double> window;
      for (const Point& point : points) {
        if (point.at_ms >= w && point.at_ms < w + 50.0) {
          window.push_back(point.latency_us);
        }
      }
      std::string tag = fmt_double(w, 0) + "-" + fmt_double(w + 50.0, 0);
      if (w <= crash_at_ms && crash_at_ms < w + 50.0) tag += " [crash]";
      if (w <= detect_ms && detect_ms < w + 50.0) tag += " [detected]";
      if (w <= restart_ms && restart_ms < w + 50.0) tag += " [restart]";
      s3.add_row({tag, std::to_string(window.size()),
                  window.empty()
                      ? "-"
                      : fmt_double(percentile(window, 99.0) / 1e3, 2)});
    }
    std::printf("%s\n", s3.render().c_str());
    std::printf(
        "crash at %.0f ms, declared dead at %.0f ms (detection %.0f ms; "
        "nominal interval %.0f ms),\nfailed responses %llu, refused-retry "
        "re-routes %llu, failovers %llu, rejoins %llu, rebuilds %llu,\n"
        "steady p99 %.2f ms vs post-detection p99 %.2f ms\n\n",
        crash_at_ms, detect_ms, detection_latency_ms,
        fed.detection_interval_us() / 1e3,
        static_cast<unsigned long long>(failed),
        static_cast<unsigned long long>(stats.refused_retries),
        static_cast<unsigned long long>(stats.failovers),
        static_cast<unsigned long long>(stats.rejoins),
        static_cast<unsigned long long>(stats.rebuilds), steady_p99 / 1e3,
        recovered_p99 / 1e3);
    if (smoke) {
      checker.check(failed == 0, "failover-zero-failed-responses");
      checker.check(stats.failovers >= 1 && stats.rejoins >= 1,
                    "failover-and-rejoin-detected");
      // 2x the nominal bound: the pump heartbeats on a pump-period grid,
      // so the EWMA inter-arrival mean can sit up to one pump period
      // above the configured heartbeat interval.
      checker.check(detection_latency_ms > 0.0 &&
                        detection_latency_ms <=
                            2.0 * fed.detection_interval_us() / 1e3,
                    "failover-detected-within-2x-interval");
      checker.check(!recovered.empty() && steady_p99 > 0.0 &&
                        recovered_p99 <= 2.0 * steady_p99,
                    "post-crash-p99<=2x-steady");
    }
  }

  // --- Series 4: hot-shard skew sweep -----------------------------------
  std::printf(
      "--- hot-shard skew: 4 nodes, keyed 1200 rps, Zipf skew sweep ---\n");
  const std::vector<double> skews =
      smoke ? std::vector<double>{0.0, 1.5}
            : std::vector<double>{0.0, 0.5, 1.0, 1.5};
  Table s4({"zipf skew", "max node share", "p99 ms", "data-local",
            "completed"});
  double max_share_uniform = 0.0;
  double max_share_skewed = 0.0;
  for (double skew : skews) {
    Cluster cluster(base_options(4));
    serve::WorkloadSpec spec;
    spec.kernels = {"kv"};
    spec.offered_rps = 1200.0;
    spec.duration = horizon;
    spec.lc_fraction = 0.0;
    spec.lc_deadline_ms = 0.0;
    spec.tp_deadline_ms = 0.0;
    spec.num_data_objects = 48;
    spec.zipf_skew = skew;
    spec.seed = kSeed;
    const serve::LoadReport report = serve::run_open_loop(
        cluster.federation.submit_fn(), cluster.federation.drain_fn(), spec);
    const FederationStats stats = cluster.federation.stats();
    std::uint64_t total = 0;
    std::uint64_t max_node = 0;
    for (std::size_t i = 0; i < cluster.federation.num_nodes(); ++i) {
      const std::uint64_t completed =
          cluster.federation.node(i).metrics().snapshot().completed;
      total += completed;
      max_node = std::max(max_node, completed);
    }
    cluster.federation.stop();
    const double share =
        total > 0 ? static_cast<double>(max_node) / static_cast<double>(total)
                  : 0.0;
    if (skew == 0.0) max_share_uniform = share;
    if (skew == 1.5) max_share_skewed = share;
    s4.add_row({fmt_double(skew, 1), pct(share),
                fmt_double(report.p99_us() / 1e3, 2),
                pct(stats.data_local_fraction()),
                std::to_string(report.completed)});
  }
  std::printf("%s\n", s4.render().c_str());
  std::printf(
      "locality routing follows the keys: as popularity skews, the hot\n"
      "shard's primary absorbs a growing share — the price of warm caches\n"
      "(the balance-only ablation in series 2 is the other end of the "
      "trade).\n\n");
  if (smoke) {
    checker.check(max_share_skewed > max_share_uniform,
                  "hot-shard-skew-shifts-load");
  }

  // --- Series 5: the route() budget -------------------------------------
  std::printf("--- route() budget (8-node rig, in-process) ---\n");
  {
    std::vector<std::string> names;
    for (int i = 0; i < 8; ++i) names.push_back("n" + std::to_string(i));
    Membership membership(std::move(names));
    for (std::size_t i = 0; i < 8; ++i) membership.heartbeat(i, 0.0);
    (void)membership.update(0.0);
    ShardMap shard_map(8, ShardMapConfig{64, 2, 0x5eedULL});
    std::size_t depths[8] = {3, 1, 4, 1, 5, 9, 2, 6};
    ClusterRouter router(
        &membership, &shard_map,
        [&depths](std::size_t node) { return depths[node]; }, kSeed);

    const int iterations = smoke ? 200'000 : 1'000'000;
    std::uint64_t sink = 0;
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iterations; ++i) {
      auto decision = router.route("");
      if (decision.ok()) sink += decision->node;
    }
    const double keyless_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count() /
        static_cast<double>(iterations);
    const std::string key = "obj17";
    start = std::chrono::steady_clock::now();
    for (int i = 0; i < iterations; ++i) {
      auto decision = router.route(key);
      if (decision.ok()) sink += decision->node;
    }
    const double keyed_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count() /
        static_cast<double>(iterations);
    std::printf("keyless route: %.0f ns   keyed route: %.0f ns   (sink %llu)\n\n",
                keyless_ns, keyed_ns,
                static_cast<unsigned long long>(sink));
    if (smoke) {
      checker.check(keyless_ns < 200.0, "keyless-route<200ns");
    }
  }

  if (smoke) return checker.report("E21");
  return 0;
}
