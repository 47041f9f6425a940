// Tests for src/stream: event-time windowing determinism (TEST_P over
// eviction policies + same-seed reruns), watermark/late-event edges,
// bounded session queues with drop accounting, two-lane ingest
// admission + WAL replay, pub/sub delta propagation, and the
// crash-mid-window failover replay byte-identity contract.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "data/plane.hpp"
#include "obs/registry.hpp"
#include "platform/desim.hpp"
#include "serve/loadgen.hpp"
#include "stream/engine.hpp"
#include "stream/event.hpp"
#include "stream/federated.hpp"
#include "stream/ingestor.hpp"
#include "stream/operators.hpp"
#include "stream/pubsub.hpp"
#include "stream/session.hpp"
#include "stream/window.hpp"

namespace everest::stream {
namespace {

namespace fs = std::filesystem;

/// Self-cleaning scratch directory for WAL-backed tests.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("everest_stream_test_" + tag + "_" + std::to_string(getpid())))
                .string();
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

Event make_event(std::string topic, std::uint64_t key, std::uint64_t t_us,
                 double value) {
  Event event;
  event.topic = std::move(topic);
  event.key = key;
  event.event_time_us = t_us;
  event.value = value;
  return event;
}

Event punctuation(std::string topic, std::uint64_t t_us) {
  Event event;
  event.topic = std::move(topic);
  event.event_time_us = t_us;
  event.punctuation = true;
  return event;
}

// ---- window assignment ----------------------------------------------------

TEST(WindowSpec, TumblingAssignsOneAlignedWindow) {
  WindowSpec spec;
  spec.kind = WindowKind::kTumbling;
  spec.size_us = 1000;
  std::vector<std::uint64_t> starts;
  spec.windows_of(2500, &starts);
  ASSERT_EQ(starts.size(), 1u);
  EXPECT_EQ(starts[0], 2000u);
  spec.windows_of(0, &starts);
  ASSERT_EQ(starts.size(), 1u);
  EXPECT_EQ(starts[0], 0u);
}

TEST(WindowSpec, SlidingAssignsEveryCoveringWindow) {
  WindowSpec spec;
  spec.kind = WindowKind::kSliding;
  spec.size_us = 1000;
  spec.slide_us = 250;
  std::vector<std::uint64_t> starts;
  spec.windows_of(1000, &starts);
  // Windows starting at 1000, 750, 500, 250 all cover t=1000
  // (start + 1000 > 1000); the one starting at 0 ends exactly at 1000
  // (exclusive) and must NOT contain it.
  ASSERT_EQ(starts.size(), 4u);
  EXPECT_EQ(starts.front(), 1000u);
  EXPECT_EQ(starts.back(), 250u);
}

// ---- windowed operator ----------------------------------------------------

TEST(WindowedOperator, EmitsInWindowEndThenKeyOrder) {
  WindowSpec spec;
  spec.size_us = 1000;
  WindowedOperator op("mean", "aq", spec, mean_accumulator());
  op.offer(make_event("aq", 2, 100, 4.0));
  op.offer(make_event("aq", 1, 200, 2.0));
  op.offer(make_event("aq", 1, 1500, 6.0));
  std::vector<WindowOutput> out;
  op.advance_watermark(2000, &out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].window_end_us, 1000u);
  EXPECT_EQ(out[0].key, 1u);
  EXPECT_DOUBLE_EQ(out[0].value, 2.0);
  EXPECT_EQ(out[1].window_end_us, 1000u);
  EXPECT_EQ(out[1].key, 2u);
  EXPECT_EQ(out[2].window_end_us, 2000u);
  EXPECT_DOUBLE_EQ(out[2].value, 6.0);
  EXPECT_EQ(op.stats().windows_closed, 3u);
  EXPECT_EQ(op.open_cells(), 0u);
}

TEST(WindowedOperator, LateEventDroppedAndCounted) {
  WindowSpec spec;
  spec.size_us = 1000;
  WindowedOperator op("count", "aq", spec, count_accumulator());
  std::vector<WindowOutput> out;
  op.offer(make_event("aq", 0, 500, 1.0));
  op.advance_watermark(1000, &out);
  ASSERT_EQ(out.size(), 1u);
  // t=900 belongs only to window [0,1000), which closed.
  EXPECT_FALSE(op.offer(make_event("aq", 0, 900, 1.0)));
  EXPECT_EQ(op.stats().late_dropped, 1u);
  // t=1000 opens [1000,2000): on time.
  EXPECT_TRUE(op.offer(make_event("aq", 0, 1000, 1.0)));
}

TEST(WindowedOperator, WatermarkNeverRegresses) {
  WindowSpec spec;
  spec.size_us = 1000;
  WindowedOperator op("count", "aq", spec, count_accumulator());
  std::vector<WindowOutput> out;
  op.advance_watermark(5000, &out);
  op.advance_watermark(3000, &out);  // must be a no-op
  EXPECT_EQ(op.watermark_us(), 5000u);
}

TEST(WindowedOperator, SlidingWindowFoldsIntoEveryCover) {
  WindowSpec spec;
  spec.kind = WindowKind::kSliding;
  spec.size_us = 1000;
  spec.slide_us = 500;
  WindowedOperator op("count", "aq", spec, count_accumulator());
  op.offer(make_event("aq", 0, 700, 1.0));  // covers [0,1000) and [500,1500)
  std::vector<WindowOutput> out;
  op.advance_watermark(1500, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0].value, 1.0);
  EXPECT_DOUBLE_EQ(out[1].value, 1.0);
}

// ---- engine + lateness ----------------------------------------------------

TEST(StreamEngine, AllowedLatenessHoldsWindowsOpen) {
  EngineConfig config;
  StreamEngine engine(config);
  WindowSpec spec;
  spec.size_us = 1000;
  spec.allowed_lateness_us = 500;
  engine.add_operator(std::make_unique<WindowedOperator>(
      "count", "aq", spec, count_accumulator()));
  auto session = engine.subscribe("t0", "aq");
  ASSERT_TRUE(session.ok());
  engine.start();
  ASSERT_TRUE(engine.ingest(make_event("aq", 0, 100, 1.0)).ok());
  // Frontier 1200 − lateness 500 = watermark 700 < 1000: window open,
  // and the trailing event at 900 still folds.
  ASSERT_TRUE(engine.ingest(make_event("aq", 0, 1200, 1.0)).ok());
  ASSERT_TRUE(engine.ingest(make_event("aq", 0, 900, 1.0)).ok());
  // Frontier 2000 → watermark 1500: [0,1000) closes holding t=100 AND
  // the late-but-inside-lateness t=900 (2 events, not 1).
  ASSERT_TRUE(engine.ingest(punctuation("aq", 2000)).ok());
  engine.flush();
  auto deliveries = session.value()->drain();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].output.events, 2u);
  engine.stop();
}

// ---- sessions -------------------------------------------------------------

TEST(StreamSession, DropsOldestWhenFullAndCounts) {
  obs::Registry registry;
  SessionConfig config;
  config.queue_capacity = 2;
  StreamSession session(1, "tenant-a", "aq", config, &registry);
  for (int i = 0; i < 4; ++i) {
    WindowOutput output;
    output.window_end_us = 1000u * (i + 1);
    session.push(Delivery{output, 0});
  }
  EXPECT_EQ(session.queued(), 2u);
  EXPECT_EQ(session.stats().dropped, 2u);
  EXPECT_EQ(registry.counter("stream.session.dropped",
                             {{"tenant", "tenant-a"}})
                ->value(),
            2u);
  // The survivors are the two FRESHEST outputs.
  auto deliveries = session.drain();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0].output.window_end_us, 3000u);
  EXPECT_EQ(deliveries[1].output.window_end_us, 4000u);
}

TEST(StreamSession, AckSuppressesReplayedWindows) {
  StreamSession session(1, "t", "aq", SessionConfig{}, nullptr);
  WindowOutput output;
  output.window_end_us = 1000;
  session.push(Delivery{output, 0});
  session.ack(1000);
  session.push(Delivery{output, 0});  // replay duplicate
  output.window_end_us = 2000;
  session.push(Delivery{output, 0});  // genuinely new
  auto deliveries = session.drain();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[1].output.window_end_us, 2000u);
  EXPECT_EQ(session.stats().suppressed, 1u);
  // Acks are monotone.
  session.ack(500);
  EXPECT_EQ(session.acked_watermark_us(), 1000u);
}

TEST(StreamEngine, SubscribeExhaustsAtCapacity) {
  EngineConfig config;
  config.max_sessions = 2;
  StreamEngine engine(config);
  WindowSpec spec;
  engine.add_operator(std::make_unique<WindowedOperator>(
      "count", "aq", spec, count_accumulator()));
  EXPECT_TRUE(engine.subscribe("a", "aq").ok());
  EXPECT_TRUE(engine.subscribe("b", "aq").ok());
  auto third = engine.subscribe("c", "aq");
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kResourceExhausted);
  auto unknown = engine.subscribe("a", "no-such-topic");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
}

// ---- ingestor -------------------------------------------------------------

TEST(Ingestor, TwoLanePriorityAndRejection) {
  IngestorConfig config;
  config.queue_capacity = 3;
  Ingestor ingestor(config);
  Event tp = make_event("aq", 0, 1, 0.0);
  Event lc = make_event("aq", 0, 2, 0.0);
  lc.sla = serve::SlaClass::kLatencyCritical;
  ASSERT_TRUE(ingestor.offer(tp).ok());
  ASSERT_TRUE(ingestor.offer(tp).ok());
  ASSERT_TRUE(ingestor.offer(lc).ok());
  const Status full = ingestor.offer(tp);
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.code(), StatusCode::kResourceExhausted);
  // The latency-critical event jumps both earlier bulk events.
  auto first = ingestor.take(std::chrono::microseconds(1000));
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->event_time_us, 2u);
  EXPECT_EQ(ingestor.stats().admitted, 3u);
  EXPECT_EQ(ingestor.stats().rejected, 1u);
}

TEST(Ingestor, WalRoundtripPreservesOrderAndPunctuation) {
  TempDir dir("wal_roundtrip");
  std::vector<Event> in;
  {
    IngestorConfig config;
    config.wal_dir = dir.path();
    config.wal.sync_every = 1;
    Ingestor ingestor(config);
    in.push_back(make_event("aq", 7, 100, 1.5));
    in.push_back(make_event("traffic", 3, 200, 2.5));
    in.push_back(punctuation("aq", 300));
    Event seeded = make_event("aq", 9, 400, 3.5);
    seeded.seed = 0xDEADBEEFULL;
    in.push_back(seeded);
    for (const Event& event : in) ASSERT_TRUE(ingestor.offer(event).ok());
    ingestor.close();
  }
  // Topic ids were assigned first-seen: aq=0, traffic=1.
  std::vector<Event> out;
  const std::uint64_t n = Ingestor::replay(
      dir.path(), {"aq", "traffic"},
      [&](const Event& event) { out.push_back(event); });
  ASSERT_EQ(n, in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].topic, in[i].topic) << i;
    EXPECT_EQ(out[i].key, in[i].key) << i;
    EXPECT_EQ(out[i].event_time_us, in[i].event_time_us) << i;
    EXPECT_EQ(out[i].value, in[i].value) << i;
    EXPECT_EQ(out[i].seed, in[i].seed) << i;
    EXPECT_EQ(out[i].punctuation, in[i].punctuation) << i;
  }
}

// ---- app operators --------------------------------------------------------

TEST(Operators, PlumeExceedanceFraction) {
  WindowSpec spec;
  spec.size_us = 1000;
  auto op = make_plume_exceedance_operator("aq", spec, /*limit=*/50.0);
  op->offer(make_event("aq", 0, 100, 80.0));   // exceeds
  op->offer(make_event("aq", 0, 200, 20.0));
  op->offer(make_event("aq", 0, 300, 60.0));   // exceeds
  op->offer(make_event("aq", 0, 400, 40.0));
  std::vector<WindowOutput> out;
  op->advance_watermark(1000, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].value, 0.5);
  EXPECT_EQ(out[0].events, 4u);
}

TEST(Operators, PtdrRerouteSwitchesOffCongestedRoute) {
  auto network = std::make_shared<apps::RoadNetwork>(
      apps::RoadNetwork::make_grid(4, 4, /*seed=*/7));
  WindowSpec spec;
  spec.size_us = 1000;
  PtdrRerouteConfig config;
  config.reroute_threshold = 0.02;
  const std::size_t from = 0;
  const std::size_t to = network->num_nodes() - 1;
  PtdrRerouteOperator op("reroute", "traffic", spec, network, {{from, to}},
                         config);
  const std::vector<std::size_t> initial = op.route(0);
  ASSERT_FALSE(initial.empty());
  // Crawl speeds on every segment of the current route.
  for (const std::size_t seg : initial) {
    op.offer(make_event("traffic", seg, 100, 2.0));
  }
  std::vector<WindowOutput> out;
  op.advance_watermark(1000, &out);
  ASSERT_EQ(out.size(), 1u);  // one output per monitored pair
  EXPECT_GE(op.rerouted(), 1u);
  EXPECT_NE(op.route(0), initial);
  EXPECT_GT(out[0].value, 0.0);  // expected travel seconds of the choice
}

/// Feeds `op` 300 tumbling 30 s fcd windows from 06:30 to 09:00 of event
/// time (24 seeded speed readings each, so the hour of day crosses the
/// morning rush), closing each in turn. Returns the fingerprint of every
/// output; `closings` counts the windows that emitted, and `rerouted`
/// receives the operator's switch count.
std::uint64_t ptdr_closings_fingerprint(PtdrRerouteOperator& op,
                                        std::size_t segments,
                                        std::size_t* closings,
                                        std::uint64_t* rerouted) {
  constexpr std::uint64_t kWindowUs = 30'000'000;
  constexpr std::uint64_t kStartUs = 6'500ULL * 3'600'000;  // 06:30
  Rng rng(2024);
  std::vector<WindowOutput> outputs;
  *closings = 0;
  for (std::uint64_t w = 0; w < 300; ++w) {
    const std::uint64_t begin = kStartUs + w * kWindowUs;
    for (int e = 0; e < 24; ++e) {
      op.offer(make_event("fcd", rng.uniform_int(segments),
                          begin + rng.uniform_int(kWindowUs),
                          static_cast<double>(5 + rng.uniform_int(116))));
    }
    const std::size_t before = outputs.size();
    op.advance_watermark(begin + kWindowUs, &outputs);
    if (outputs.size() > before) ++*closings;
  }
  *rerouted = op.rerouted();
  return fingerprint(outputs);
}

TEST(Operators, PtdrRerouteMatchesGoldenFingerprint) {
  auto network = std::make_shared<const apps::RoadNetwork>(
      apps::RoadNetwork::make_grid(10, 10, 17));
  WindowSpec spec;
  spec.size_us = 30'000'000;
  PtdrRerouteOperator op("ptdr_reroute", "fcd", spec, network,
                         {{0, 99}, {9, 90}, {44, 55}, {3, 76}},
                         PtdrRerouteConfig{});
  std::size_t closings = 0;
  std::uint64_t rerouted = 0;
  const std::uint64_t fp = ptdr_closings_fingerprint(
      op, network->num_segments(), &closings, &rerouted);
  EXPECT_EQ(closings, 300u);
  // Recorded when every closing still searched its alternatives afresh;
  // any change to a route or its expected time changes them.
  EXPECT_EQ(fp, 0x78eee0d027312bd8ULL);
  EXPECT_EQ(rerouted, 88u);

  // reset() keeps the memoized alternatives; a replay matches the run.
  op.reset();
  EXPECT_EQ(ptdr_closings_fingerprint(op, network->num_segments(), &closings,
                                      &rerouted),
            fp);
  EXPECT_EQ(closings, 300u);
  EXPECT_EQ(rerouted, 88u);
}

// ---- determinism (TEST_P: eviction policies × same-seed reruns) -----------

/// One full pipeline run: seeded arrival schedule → engine (single lane,
/// so fold order == ingest order) → subscriber; returns the fingerprint
/// of the delivered window outputs. `policy` drives a concurrent data
/// plane + pub/sub publisher whose cache behavior must NOT leak into the
/// window math.
std::uint64_t pipeline_fingerprint(data::EvictionPolicy policy,
                                   std::uint64_t seed) {
  // Concurrent data-plane traffic under the given eviction policy.
  platform::Simulator sim;
  data::PlaneConfig plane_config;
  plane_config.num_nodes = 2;
  plane_config.cache_bytes = 64 * 1024;
  plane_config.eviction = policy;
  data::DataPlane plane(sim, plane_config);
  ShardPublisher publisher(plane);
  publisher.subscribe(1, 1);
  for (int i = 0; i < 8; ++i) {
    publisher.publish(1, 32 * 1024, /*producer=*/0);
    sim.run();
  }

  EngineConfig config;
  StreamEngine engine(config);
  WindowSpec spec;
  spec.kind = WindowKind::kSliding;
  spec.size_us = 40'000;
  spec.slide_us = 20'000;
  spec.allowed_lateness_us = 5'000;
  engine.add_operator(std::make_unique<WindowedOperator>(
      "mean", "aq", spec, mean_accumulator()));
  auto session = engine.subscribe("tenant", "aq");
  EXPECT_TRUE(session.ok());
  engine.start();

  serve::EventStreamSpec stream_spec;
  stream_spec.topics = {"aq"};
  stream_spec.clients = 3;
  stream_spec.events_per_s = 20'000.0;
  stream_spec.duration = std::chrono::milliseconds(200);
  stream_spec.keys_per_topic = 4;
  stream_spec.seed = seed;
  const auto report = serve::run_event_stream(
      [&](const serve::EventArrival& arrival) {
        return engine.ingest(
            make_event(arrival.topic, arrival.key, arrival.event_time_us,
                       arrival.value));
      },
      stream_spec);
  EXPECT_GT(report.admitted, 0u);
  engine.ingest(punctuation("aq", 1'000'000));
  engine.flush();
  std::vector<WindowOutput> outputs;
  for (const Delivery& d : session.value()->drain()) {
    outputs.push_back(d.output);
  }
  engine.stop();
  EXPECT_GT(outputs.size(), 0u);
  return fingerprint(outputs);
}

class StreamDeterminism
    : public ::testing::TestWithParam<data::EvictionPolicy> {};

TEST_P(StreamDeterminism, ByteIdenticalAcrossPoliciesAndReruns) {
  const std::uint64_t seed = 1234;
  const std::uint64_t first = pipeline_fingerprint(GetParam(), seed);
  const std::uint64_t second = pipeline_fingerprint(GetParam(), seed);
  EXPECT_EQ(first, second) << "same-seed rerun diverged";

  // Cross-policy: every parameterization must produce the same bytes
  // (the cache policy can move data, never change analytics).
  static std::map<std::uint64_t, std::uint64_t> baseline;
  auto [it, inserted] = baseline.emplace(seed, first);
  if (!inserted) {
    EXPECT_EQ(first, it->second) << "fingerprint depends on eviction policy";
  }

  // A different seed must (overwhelmingly) give different bytes —
  // guards against a fingerprint that ignores its input.
  EXPECT_NE(pipeline_fingerprint(GetParam(), seed + 1), first);
}

INSTANTIATE_TEST_SUITE_P(Policies, StreamDeterminism,
                         ::testing::Values(data::EvictionPolicy::kLru,
                                           data::EvictionPolicy::kLfu,
                                           data::EvictionPolicy::kCostAware),
                         [](const auto& info) {
                           std::string name(data::to_string(info.param));
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

// ---- pub/sub delta propagation --------------------------------------------

TEST(ShardPublisher, DeltaPushWarmsSubscriberCacheAtNewVersion) {
  platform::Simulator sim;
  data::PlaneConfig config;
  config.num_nodes = 3;
  config.cache_bytes = 8.0 * 1024 * 1024;
  data::DataPlane plane(sim, config);
  ShardPublisher publisher(plane);

  const data::ObjectId object = 42;
  publisher.subscribe(object, /*node=*/2);
  ASSERT_TRUE(publisher.publish(object, 1024.0 * 1024, /*producer=*/0).ok());
  sim.run();  // delta transfers arrive

  const data::DataObject* obj = plane.find(object);
  ASSERT_NE(obj, nullptr);
  // The subscriber's cache answers at the CURRENT version — no refetch.
  for (const data::ShardKey& key : obj->keys()) {
    EXPECT_TRUE(plane.cache(2).contains(key)) << key.to_string();
  }
  const PublishStats& stats = publisher.stats();
  EXPECT_EQ(stats.publishes, 1u);
  EXPECT_GT(stats.deltas_pushed, 0u);
  EXPECT_EQ(stats.deltas_arrived, stats.deltas_pushed);
  EXPECT_LT(stats.delta_bytes, stats.full_bytes);

  // Republishing bumps the version; the old cached keys go stale and
  // the push re-warms at the new version.
  const std::uint64_t old_version = obj->version;
  ASSERT_TRUE(publisher.publish(object, 1024.0 * 1024, /*producer=*/0).ok());
  sim.run();
  obj = plane.find(object);
  ASSERT_NE(obj, nullptr);
  EXPECT_GT(obj->version, old_version);
  for (const data::ShardKey& key : obj->keys()) {
    EXPECT_TRUE(plane.cache(2).contains(key));
  }
}

// ---- multi-producer loss-freedom (the TSan gate exercises this) -----------

TEST(StreamEngine, ConcurrentProducersLoseNothingAdmitted) {
  EngineConfig config;
  config.ingest.queue_capacity = 1 << 16;
  StreamEngine engine(config);
  WindowSpec spec;
  spec.size_us = 1'000'000;
  engine.add_operator(std::make_unique<WindowedOperator>(
      "count", "aq", spec, count_accumulator()));
  auto session = engine.subscribe("t", "aq");
  ASSERT_TRUE(session.ok());
  engine.start();

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  std::atomic<std::uint64_t> admitted{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        Event event = make_event(
            "aq", static_cast<std::uint64_t>(p),
            1 + static_cast<std::uint64_t>(i), 1.0);
        if (engine.ingest(std::move(event)).ok()) {
          admitted.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  engine.ingest(punctuation("aq", 2'000'000));
  engine.flush();
  EXPECT_EQ(engine.stats().events_processed, admitted.load());
  // Every admitted event landed in some window.
  std::uint64_t folded = 0;
  for (const Delivery& d : session.value()->drain()) {
    folded += d.output.events;
  }
  EXPECT_EQ(folded, admitted.load());
  engine.stop();
}

// ---- crash-mid-window failover replay -------------------------------------

struct FailoverRun {
  std::vector<WindowOutput> delivered;
  std::uint64_t fp = 0;
};

/// Drives one topic through the fabric; when `crash_at` is nonzero the
/// home node fail-stops after the event whose index equals it (mid-
/// window) and the fabric re-homes the topic before the rest of the
/// schedule flows. The client acks after every delivery.
FailoverRun run_failover_scenario(const std::string& wal_root,
                                  std::size_t crash_at) {
  FabricConfig config;
  config.num_nodes = 2;
  config.wal_root = wal_root;
  config.engine.ingest.wal.sync_every = 1;
  StreamFabric fabric(config);
  WindowSpec spec;
  spec.size_us = 10'000;
  EXPECT_TRUE(fabric
                  .register_topic("aq",
                                  [spec] {
                                    return std::make_unique<WindowedOperator>(
                                        "mean", "aq", spec,
                                        mean_accumulator());
                                  })
                  .ok());
  fabric.start();
  auto session = fabric.subscribe("tenant", "aq");
  EXPECT_TRUE(session.ok());
  const std::size_t home_before = fabric.home_of("aq").value();

  FailoverRun run;
  auto consume = [&] {
    for (const Delivery& d : session.value()->drain()) {
      run.delivered.push_back(d.output);
      session.value()->ack(d.output.window_end_us);
    }
  };

  // 60 events, one per ms: six full windows plus a seventh in flight.
  Rng rng(99);
  for (std::size_t i = 0; i < 60; ++i) {
    Event event = make_event("aq", i % 3, (i + 1) * 1000, rng.uniform(0, 50));
    EXPECT_TRUE(fabric.ingest(std::move(event)).ok());
    if ((i + 1) % 10 == 0) {
      fabric.flush();
      consume();
    }
    if (crash_at != 0 && i + 1 == crash_at) {
      fabric.flush();
      consume();
      fabric.crash(home_before);
      EXPECT_EQ(fabric.handle_failover(), std::vector<std::string>{"aq"});
      EXPECT_NE(fabric.home_of("aq").value(), home_before);
    }
  }
  Event final_punctuation = punctuation("aq", 100'000);
  EXPECT_TRUE(fabric.ingest(std::move(final_punctuation)).ok());
  fabric.flush();
  consume();
  fabric.stop();
  run.fp = fingerprint(run.delivered);
  return run;
}

TEST(StreamFabric, CrashMidWindowReplayIsByteIdentical) {
  TempDir base("failover");
  const std::string baseline_root = base.path() + "/baseline";
  const std::string crashed_root = base.path() + "/crashed";
  fs::create_directories(baseline_root);
  fs::create_directories(crashed_root);

  const FailoverRun baseline =
      run_failover_scenario(baseline_root, /*crash_at=*/0);
  // Crash at event 35: window [30000,40000) is mid-flight.
  const FailoverRun crashed =
      run_failover_scenario(crashed_root, /*crash_at=*/35);

  ASSERT_GT(baseline.delivered.size(), 0u);
  ASSERT_EQ(baseline.delivered.size(), crashed.delivered.size());
  EXPECT_EQ(baseline.fp, crashed.fp)
      << "client-visible outputs diverged across crash+failover replay";
}

TEST(StreamFabric, IngestUnavailableWhileHomeDown) {
  FabricConfig config;
  config.num_nodes = 2;
  StreamFabric fabric(config);
  WindowSpec spec;
  ASSERT_TRUE(fabric
                  .register_topic("aq",
                                  [spec] {
                                    return std::make_unique<WindowedOperator>(
                                        "count", "aq", spec,
                                        count_accumulator());
                                  })
                  .ok());
  fabric.start();
  const std::size_t home = fabric.home_of("aq").value();
  fabric.crash(home);
  const Status status = fabric.ingest(make_event("aq", 0, 100, 1.0));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  fabric.handle_failover();
  EXPECT_TRUE(fabric.ingest(make_event("aq", 0, 200, 1.0)).ok());
  fabric.stop();
}

// ---- event-stream loadgen (satellite) -------------------------------------

TEST(EventStreamLoadgen, ScheduleIsDeterministicAndOrdered) {
  serve::EventStreamSpec spec;
  spec.topics = {"aq", "traffic"};
  spec.clients = 3;
  spec.events_per_s = 5000.0;
  spec.duration = std::chrono::milliseconds(100);
  spec.seed = 7;
  const auto a = serve::generate_event_arrivals(spec);
  const auto b = serve::generate_event_arrivals(spec);
  ASSERT_GT(a.size(), 100u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].event_time_us, b[i].event_time_us);
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].seed, b[i].seed);
    if (i > 0) {
      EXPECT_GE(a[i].event_time_us, a[i - 1].event_time_us);
    }
  }
  // All clients contributed.
  std::set<int> clients;
  for (const auto& arrival : a) clients.insert(arrival.client);
  EXPECT_EQ(clients.size(), 3u);

  spec.seed = 8;
  const auto c = serve::generate_event_arrivals(spec);
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].event_time_us != c[i].event_time_us || a[i].key != c[i].key;
  }
  EXPECT_TRUE(differs) << "seed does not drive the schedule";
}

TEST(EventStreamLoadgen, BurstModeClustersArrivals) {
  serve::EventStreamSpec spec;
  spec.topics = {"aq"};
  spec.clients = 1;
  spec.events_per_s = 10'000.0;
  spec.duration = std::chrono::milliseconds(100);
  spec.arrival = serve::EventStreamSpec::Arrival::kBurst;
  spec.burst_len = 16;
  const auto schedule = serve::generate_event_arrivals(spec);
  ASSERT_GT(schedule.size(), 32u);
  // Intra-burst gaps are a (1 + idle_factor)× compression of the base
  // gap; inter-burst gaps are idle_factor × burst span. Count both.
  std::size_t tight = 0, wide = 0;
  for (std::size_t i = 1; i < schedule.size(); ++i) {
    const std::uint64_t gap =
        schedule[i].event_time_us - schedule[i - 1].event_time_us;
    if (gap <= 40) ++tight;
    if (gap >= 1000) ++wide;
  }
  EXPECT_GT(tight, schedule.size() / 2);
  EXPECT_GT(wide, 0u);
}

}  // namespace
}  // namespace everest::stream
