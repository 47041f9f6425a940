// stream_ingest: one stream::StreamEngine running the §VI operators —
// sliding plume exceedance on `aq` and PTDR re-routing on `fcd` — with
// WAL journaling on (default group commit) in a fresh directory, fsync
// skipped (see NoSyncEnv). One producer is paced at a fixed event rate;
// one consumer thread per subscriber session drains it. The dispatcher,
// batcher and cluster are not on this path: the shared two-lane queue,
// the storage CatalogLog and the window operators do the work. The whole
// process runs on one CPU.
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <optional>
#include <thread>

#include "apps/traffic.hpp"
#include "obs/registry.hpp"
#include "stream/engine.hpp"
#include "stream/operators.hpp"

#include "harness.hpp"

namespace perfbench {
namespace {

namespace serve = everest::serve;
namespace st = everest::stream;

constexpr double kEventsPerSecond = 20'000.0;
constexpr std::uint64_t kWarmupEvents = 20'000;
constexpr double kLcFraction = 0.3;
/// Lateness covers any reordering the LC lane causes short of a one-second
/// pump stall, so folds match a send-order fold.
constexpr std::uint64_t kLatenessUs = 1'000'000;
constexpr std::size_t kReceptors = 16;
constexpr double kLimitUgm3 = 50.0;
constexpr std::size_t kQueueCapacity = 1 << 16;
constexpr std::size_t kSessionCapacity = 1 << 15;
/// Rejected timed events the reference fold can skip; more fails the check.
constexpr std::size_t kMaxRejected = 4096;
/// Direct-mapped ingest-return stamps per topic (traced run only):
/// 2^18 µs of event time, far more than a delivery lags its event.
constexpr std::size_t kStampSlots = 1 << 18;
/// How often a blocked consumer checks whether it should stop.
constexpr std::chrono::milliseconds kConsumerStopCheck{1};

const std::array<std::string, 2> kTopics = {"aq", "fcd"};
constexpr std::array<st::OdPair, 4> kPairs = {
    {{0, 99}, {9, 90}, {44, 55}, {3, 76}}};

st::WindowSpec aq_window() {
  st::WindowSpec spec;
  spec.kind = st::WindowKind::kSliding;
  spec.size_us = 4'000;
  spec.slide_us = 1'000;
  spec.allowed_lateness_us = kLatenessUs;
  return spec;
}

st::WindowSpec fcd_window() {
  st::WindowSpec spec;
  // A PTDR closing re-routes every OD pair (~0.4 ms); at 10 ms windows
  // they are a tenth of the closings, so the median closing is a plume
  // one and does not sit in the gap between the two kinds.
  spec.size_us = 10'000;
  spec.allowed_lateness_us = kLatenessUs;
  return spec;
}

/// Operators in registration order (aq first, then fcd).
std::vector<std::unique_ptr<st::Operator>> make_operators(
    const std::shared_ptr<const everest::apps::RoadNetwork>& network) {
  std::vector<std::unique_ptr<st::Operator>> ops;
  ops.push_back(
      st::make_plume_exceedance_operator(kTopics[0], aq_window(), kLimitUgm3));
  ops.push_back(st::make_ptdr_reroute_operator(
      kTopics[1], fcd_window(), network,
      std::vector<st::OdPair>(kPairs.begin(), kPairs.end())));
  return ops;
}

/// Whether the event at `event_time_us` on `topic` rides the LC lane; the
/// consumer re-derives it for the event that closed a window.
bool is_lc(std::uint64_t seed, std::size_t topic, std::uint64_t event_time_us) {
  const std::uint64_t h = mix64(seed ^ (0xA24BAED4963EE407ULL * (topic + 1)) ^
                                (event_time_us * 0x9FB21C651E98DF25ULL));
  return static_cast<double>(h >> 11) * 0x1.0p-53 < kLcFraction;
}

/// The event stream in send order, generated incrementally from the seed:
/// Poisson arrivals at kEventsPerSecond, event time = due time in µs on
/// the stream timeline, strictly increasing per topic.
class EventSource {
 public:
  EventSource(std::uint64_t seed, std::size_t segments)
      : seed_(seed), segments_(segments), rng_(seed) {}

  st::Event next(std::size_t* topic_out) {
    clock_us_ += rng_.exponential(1e6 / kEventsPerSecond);
    const std::size_t topic = rng_.below(kTopics.size());
    std::uint64_t& last = last_[topic];
    last = std::max(static_cast<std::uint64_t>(clock_us_), last + 1);
    st::Event event;
    event.topic = kTopics[topic];
    event.event_time_us = last;
    event.seed = rng_.next();
    if (topic == 0) {
      event.key = rng_.below(kReceptors);
      event.value = 100.0 * rng_.uniform();  // µg/m³
    } else {
      // Whole km/h: window means are then exact whatever the fold order.
      event.key = rng_.below(segments_);
      event.value = static_cast<double>(5 + rng_.below(116));
    }
    event.sla = is_lc(seed_, topic, last) ? serve::SlaClass::kLatencyCritical
                                          : serve::SlaClass::kThroughput;
    *topic_out = topic;
    return event;
  }

  /// Event time past every window end and lateness bound so far.
  [[nodiscard]] std::uint64_t closing_time() const {
    return std::max(last_[0], last_[1]) + 2 * kLatenessUs + 1'000'000;
  }

 private:
  std::uint64_t seed_;
  std::size_t segments_;
  Rng rng_;
  double clock_us_ = 0.0;
  std::array<std::uint64_t, 2> last_{};
};

st::Event punctuation(std::size_t topic, std::uint64_t event_time_us) {
  st::Event event;
  event.topic = kTopics[topic];
  event.event_time_us = event_time_us;
  event.punctuation = true;
  return event;
}

/// FNV-1a over the canonical encodings of a topic's outputs, folded one
/// output at a time (equal to stream::fingerprint of the whole sequence).
struct OutputDigest {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  std::uint64_t outputs = 0;
  std::string scratch;

  void add(const st::WindowOutput& output) {
    scratch.clear();
    output.encode(scratch);
    for (const char c : scratch) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 0x100000001b3ULL;
    }
    ++outputs;
  }
};

namespace storage = everest::storage;

/// The engine's filesystem: the real one, except that fsync returns at
/// once. WAL frames are still written to the file in the work directory;
/// only the flush to the device is skipped. CatalogLog flushes inside
/// ingest() every 64 events, and on the shared virtual disk a flush took
/// 0.25-0.3 ms at the median and up to 15 ms, which moved the stream's
/// p50 1.5-3x and its p99 up to 7x from run to run.
class NoSyncEnv final : public storage::Env {
 public:
  everest::Result<std::unique_ptr<storage::WritableFile>> open_append(
      const std::string& path) override {
    return no_sync(base()->open_append(path));
  }
  everest::Result<std::unique_ptr<storage::WritableFile>> open_trunc(
      const std::string& path) override {
    return no_sync(base()->open_trunc(path));
  }
  everest::Result<std::string> read_file(const std::string& path) override {
    return base()->read_file(path);
  }
  everest::Status create_dirs(const std::string& path) override {
    return base()->create_dirs(path);
  }
  everest::Status rename_file(const std::string& from,
                              const std::string& to) override {
    return base()->rename_file(from, to);
  }
  everest::Status remove_file(const std::string& path) override {
    return base()->remove_file(path);
  }
  everest::Status truncate_file(const std::string& path,
                                std::uint64_t size) override {
    return base()->truncate_file(path, size);
  }
  everest::Result<std::vector<std::string>> list_dir(
      const std::string& path) override {
    return base()->list_dir(path);
  }
  everest::Result<std::uint64_t> free_bytes(const std::string& path) override {
    return base()->free_bytes(path);
  }
  bool file_exists(const std::string& path) override {
    return base()->file_exists(path);
  }

 private:
  class File final : public storage::WritableFile {
   public:
    explicit File(std::unique_ptr<storage::WritableFile> file)
        : file_(std::move(file)) {}
    everest::Status append(std::string_view data) override {
      return file_->append(data);
    }
    everest::Status sync() override { return everest::OkStatus(); }
    everest::Status close() override { return file_->close(); }

   private:
    std::unique_ptr<storage::WritableFile> file_;
  };

  static storage::Env* base() { return storage::Env::posix(); }
  static everest::Result<std::unique_ptr<storage::WritableFile>> no_sync(
      everest::Result<std::unique_ptr<storage::WritableFile>> opened) {
    if (!opened.ok()) return opened.status();
    return std::unique_ptr<storage::WritableFile>(
        std::make_unique<File>(std::move(opened).value()));
  }
};

struct StampTable {
  struct Slot {
    std::atomic<std::uint64_t> event_time{~std::uint64_t{0}};
    std::atomic<std::int64_t> ret_ns{0};
  };
  std::unique_ptr<Slot[]> slots[2] = {std::make_unique<Slot[]>(kStampSlots),
                                      std::make_unique<Slot[]>(kStampSlots)};
  Slot& at(std::size_t topic, std::uint64_t t) {
    return slots[topic][t & (kStampSlots - 1)];
  }
};

/// The system under test and its consumer threads, one per session: a
/// thread blocks on one session's condition variable, so one thread for
/// both would hold back the other session's deliveries or poll. The
/// registry outlives the engine; the consumers are joined before either
/// goes.
class System {
 public:
  System(const PhaseConfig& config, const std::string& wal_dir,
         std::shared_ptr<const everest::apps::RoadNetwork> network)
      : seed_(config.seed), wal_dir_(wal_dir) {
    std::filesystem::remove_all(wal_dir_);
    std::filesystem::create_directories(wal_dir_);
    st::EngineConfig engine_config;
    engine_config.ingest.queue_capacity = kQueueCapacity;
    engine_config.ingest.wal_dir = wal_dir_;
    engine_ = std::make_unique<st::StreamEngine>(engine_config, &registry_,
                                                 &env_);
    for (auto& op : make_operators(network)) {
      ok_ = ok_ && engine_->add_operator(std::move(op)).ok();
    }
    st::SessionConfig session_config;
    session_config.queue_capacity = kSessionCapacity;
    for (std::size_t t = 0; t < kTopics.size(); ++t) {
      auto session = engine_->subscribe("dashboard-" + kTopics[t], kTopics[t],
                                        session_config);
      ok_ = ok_ && session.ok();
      if (session.ok()) sessions_[t] = session.value();
    }
    if (config.traced) stamps = std::make_unique<StampTable>();
    if (ok_) {
      engine_->start();
      for (std::size_t t = 0; t < kTopics.size(); ++t) {
        consumers_[t] = std::thread([this, t] { consume(t); });
      }
    }
  }

  ~System() {
    stop_consumers();
    engine_.reset();
    std::error_code ignored;
    std::filesystem::remove_all(wal_dir_, ignored);
  }

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  [[nodiscard]] bool ok() const { return ok_; }
  st::StreamEngine& engine() { return *engine_; }
  everest::obs::Registry& registry() { return registry_; }

  /// Opens the timed window: closings by events at or after
  /// `first_event_us` are sampled, with that event due at `base_ns`;
  /// `span_us` of event time is cut into kSlices slices.
  void arm(std::uint64_t first_event_us, std::int64_t base_ns,
           std::uint64_t span_us) {
    base_ns_.store(base_ns, std::memory_order_relaxed);
    span_us_.store(span_us, std::memory_order_relaxed);
    timed_from_us_.store(first_event_us, std::memory_order_release);
  }
  /// Closes it: later closings (the end-of-stream punctuation) are not
  /// latency samples.
  void disarm(std::uint64_t last_event_us) {
    timed_to_us_.store(last_event_us, std::memory_order_release);
  }

  /// Waits until the consumers hold every output the engine delivered,
  /// then stops them.
  bool drain_outputs() {
    const std::int64_t give_up = now_ns() + 30'000'000'000LL;
    for (;;) {
      const std::uint64_t delivered = engine_->stats().deliveries;
      const std::uint64_t lost = dropped();
      if (received_.load(std::memory_order_acquire) + lost >= delivered) break;
      if (now_ns() > give_up) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    stop_consumers();
    return true;
  }

  [[nodiscard]] std::uint64_t dropped() const {
    std::uint64_t n = 0;
    for (const auto& s : sessions_) {
      if (s != nullptr) n += s->stats().dropped;
    }
    return n;
  }

  std::unique_ptr<StampTable> stamps;  ///< traced run only
  SlicedLatency latency;
  LogHistogram deliver_us;
  std::atomic<std::uint64_t> closings{0};  ///< sampled closings
  /// Closings without an ingest stamp.
  std::atomic<std::uint64_t> unmatched_stamps{0};
  std::array<OutputDigest, 2> digests;

 private:
  void consume(std::size_t topic) {
    st::StreamSession& session = *sessions_[topic];
    while (!stop_.load(std::memory_order_acquire)) {
      if (auto d = session.poll(kConsumerStopCheck)) on_delivery(topic, *d);
      for (const st::Delivery& d : session.drain()) on_delivery(topic, d);
    }
  }

  void on_delivery(std::size_t topic, const st::Delivery& d) {
    const std::int64_t now = now_ns();
    digests[topic].add(d.output);
    received_.fetch_add(1, std::memory_order_release);
    // All outputs of one closing carry the closing event's frontier and
    // arrive together; the first one is the closing's latency sample.
    if (d.frontier_us == last_frontier_[topic]) return;
    last_frontier_[topic] = d.frontier_us;
    const std::uint64_t from = timed_from_us_.load(std::memory_order_acquire);
    if (d.frontier_us < from ||
        d.frontier_us > timed_to_us_.load(std::memory_order_acquire)) {
      return;
    }
    const std::int64_t due =
        base_ns_.load(std::memory_order_relaxed) +
        static_cast<std::int64_t>(d.frontier_us - from) * 1000;
    latency.record(slice_of(d.frontier_us - from,
                            span_us_.load(std::memory_order_relaxed)),
                   static_cast<double>(now - due) / 1e3,
                   is_lc(seed_, topic, d.frontier_us));
    ++closings;
    if (stamps != nullptr) record_deliver(topic, d.frontier_us, now);
  }

  void record_deliver(std::size_t topic, std::uint64_t t, std::int64_t now) {
    // The producer stamps the closing event right after ingest() returns,
    // which may be just after the pump already delivered: let it run.
    StampTable::Slot& slot = stamps->at(topic, t);
    const std::int64_t give_up = now + 1'000'000;
    while (slot.event_time.load(std::memory_order_acquire) != t) {
      if (now_ns() > give_up) {
        ++unmatched_stamps;
        return;
      }
      std::this_thread::yield();
    }
    const std::int64_t ret = slot.ret_ns.load(std::memory_order_relaxed);
    deliver_us.record(static_cast<double>(std::max<std::int64_t>(0, now - ret)) /
                      1e3);
  }

  void stop_consumers() {
    stop_.store(true, std::memory_order_release);
    for (std::thread& consumer : consumers_) {
      if (consumer.joinable()) consumer.join();
    }
  }

  std::uint64_t seed_;
  std::string wal_dir_;
  bool ok_ = true;
  everest::obs::Registry registry_;
  NoSyncEnv env_;
  std::unique_ptr<st::StreamEngine> engine_;
  std::array<std::shared_ptr<st::StreamSession>, 2> sessions_;
  std::array<std::uint64_t, 2> last_frontier_{};
  std::atomic<std::uint64_t> timed_from_us_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> timed_to_us_{~std::uint64_t{0}};
  std::atomic<std::int64_t> base_ns_{0};
  std::atomic<std::uint64_t> span_us_{1};
  std::atomic<std::uint64_t> received_{0};
  std::atomic<bool> stop_{false};
  // Last: joined before the members they use go.
  std::array<std::thread, 2> consumers_;
};

/// Single-threaded fold of the same schedule through fresh operators,
/// with the engine's frontier/watermark rule; `rejected` events are
/// skipped as the engine never admitted them.
std::array<OutputDigest, 2> reference_fold(
    std::uint64_t seed, std::uint64_t events,
    const std::vector<std::uint64_t>& rejected,
    const std::shared_ptr<const everest::apps::RoadNetwork>& network,
    double* events_per_s) {
  auto ops = make_operators(network);
  std::array<OutputDigest, 2> digests;
  std::array<std::uint64_t, 2> frontier{};
  std::vector<st::WindowOutput> out;
  auto process = [&](std::size_t topic, const st::Event& event) {
    frontier[topic] = std::max(frontier[topic], event.event_time_us);
    st::Operator& op = *ops[topic];
    if (!event.punctuation) op.offer(event);
    const std::uint64_t lateness = op.allowed_lateness_us();
    out.clear();
    op.advance_watermark(
        frontier[topic] > lateness ? frontier[topic] - lateness : 0, &out);
    for (const st::WindowOutput& o : out) digests[topic].add(o);
  };
  EventSource source(seed, network->num_segments());
  std::size_t next_rejected = 0;
  const std::int64_t t0 = now_ns();
  for (std::uint64_t i = 0; i < events; ++i) {
    std::size_t topic = 0;
    const st::Event event = source.next(&topic);
    if (next_rejected < rejected.size() && rejected[next_rejected] == i) {
      ++next_rejected;
      continue;
    }
    process(topic, event);
  }
  *events_per_s = static_cast<double>(events) / seconds_between(t0, now_ns());
  const std::uint64_t end = source.closing_time();
  for (std::size_t t = 0; t < kTopics.size(); ++t) process(t, punctuation(t, end));
  return digests;
}

}  // namespace

PhaseResult run_stream_ingest(const PhaseConfig& config) {
  // Hand-offs between producer, pump and consumers are then switches on
  // one vCPU, which KeepAwake keeps from halting between events, rather
  // than wake-ups of idle vCPUs, which the host's other tenants delay.
  const std::vector<int> cpus = use_cpus(1);
  const KeepAwake awake(cpus);
  PhaseResult result;
  std::unique_ptr<System> system;
  std::shared_ptr<const everest::apps::RoadNetwork> network;
  auto wal_dir = [&](int s) {
    return config.work_dir + "/wal-" + std::to_string(::getpid()) + "-" +
           std::to_string(s);
  };

  for (int s = 0; s < config.setups; ++s) {
    system.reset();
    const std::int64_t t0 = now_ns();
    network = std::make_shared<const everest::apps::RoadNetwork>(
        everest::apps::RoadNetwork::make_grid(10, 10, 17));
    system = std::make_unique<System>(config, wal_dir(s), network);
    if (!system->ok()) {
      result.check_failures.push_back("stream engine set-up failed");
      return result;
    }
    // Warm-up: the schedule's first events at full speed, folded and
    // journaled, so window state, sessions and the WAL are in use.
    EventSource warm(config.seed, network->num_segments());
    for (std::uint64_t i = 0; i < kWarmupEvents; ++i) {
      std::size_t topic = 0;
      st::Event event = warm.next(&topic);
      // Sent at full speed, so kept in one lane: the LC lane would
      // overtake more than the allowed lateness.
      event.sla = serve::SlaClass::kThroughput;
      while (!system->engine().ingest(event).ok()) {
        std::this_thread::yield();  // queue full: the producer backs off
      }
    }
    system->engine().flush();
    result.setup_s.push_back(seconds_between(t0, now_ns()));
  }

  System& sys = *system;
  st::StreamEngine& engine = sys.engine();
  EventSource source(config.seed, network->num_segments());
  for (std::uint64_t i = 0; i < kWarmupEvents; ++i) {
    std::size_t topic = 0;
    source.next(&topic);
  }
  const auto count =
      static_cast<std::uint64_t>(kEventsPerSecond * config.seconds);
  everest::obs::Counter* appends = sys.registry().counter("storage.log.appends");
  everest::obs::Counter* syncs = sys.registry().counter("storage.log.syncs");
  const std::uint64_t appends0 = appends->value();
  const std::uint64_t syncs0 = syncs->value();
  const std::uint64_t folded0 = engine.stats().events_processed;
  LogHistogram late_us;
  LogHistogram ingest_us;
  std::vector<std::uint64_t> rejected;  // indices in the schedule
  std::uint64_t rejected_count = 0;
  std::size_t topic = 0;
  st::Event event = source.next(&topic);
  const std::uint64_t first_us = event.event_time_us;
  const std::int64_t base_ns = now_ns() + 1'000'000;
  const auto span_us = static_cast<std::uint64_t>(
      1e6 * static_cast<double>(count) / kEventsPerSecond);
  sys.arm(first_us, base_ns, span_us);
  StealMeter steal(cpus);
  std::size_t slice = 0;
  steal.mark(0);
  std::uint64_t last_us = first_us;
  std::optional<PreciseTimers> precise(std::in_place);
  for (std::uint64_t i = 0; i < count; ++i) {
    if (i > 0) event = source.next(&topic);
    const std::uint64_t t = event.event_time_us;
    while (slice < slice_of(t - first_us, span_us)) steal.mark(++slice);
    last_us = std::max(last_us, t);
    const std::int64_t due =
        base_ns + static_cast<std::int64_t>(t - first_us) * 1000;
    late_us.record(static_cast<double>(wait_until(due)) / 1e3);
    const std::int64_t t0 = sys.stamps != nullptr ? now_ns() : 0;
    const everest::Status admitted = engine.ingest(std::move(event));
    if (sys.stamps != nullptr) {
      const std::int64_t t1 = now_ns();
      ingest_us.record(static_cast<double>(t1 - t0) / 1e3);
      StampTable::Slot& slot = sys.stamps->at(topic, t);
      slot.ret_ns.store(t1, std::memory_order_relaxed);
      slot.event_time.store(t, std::memory_order_release);
    }
    if (!admitted.ok()) {
      ++rejected_count;
      if (rejected.size() < kMaxRejected) rejected.push_back(kWarmupEvents + i);
    }
  }
  precise.reset();
  engine.flush();
  const std::int64_t end_ns = now_ns();
  steal.mark(kSlices);
  sys.disarm(last_us);
  result.peak_rss_mb = peak_rss_mb();
  const std::uint64_t folded = engine.stats().events_processed - folded0;
  const std::uint64_t appends1 = appends->value();
  const std::uint64_t syncs1 = syncs->value();

  // End of stream: close every open window, then collect the outputs.
  const std::uint64_t end_us = source.closing_time();
  for (std::size_t t = 0; t < kTopics.size(); ++t) {
    while (!engine.ingest(punctuation(t, end_us)).ok()) {
      std::this_thread::yield();
    }
  }
  engine.flush();
  if (!sys.drain_outputs()) {
    result.check_failures.push_back("subscribers did not receive every output");
  }
  const std::uint64_t dropped = sys.dropped();

  result.timed_s = seconds_between(base_ns, end_ns);
  result.attempted = count;
  result.failed = rejected_count + dropped;
  result.throughput_per_s = static_cast<double>(folded) / result.timed_s;
  const std::vector<std::size_t> calm = steal.calm_slices();
  result.latency = sys.latency.all(calm);
  result.lc_latency = sys.latency.lc(calm);
  result.notes.push_back(sys.latency.describe(calm));
  result.notes.push_back(steal.describe());

  double reference_eps = 0.0;
  if (rejected_count > kMaxRejected) {
    result.check_failures.push_back(std::to_string(rejected_count) +
                                    " events rejected: too many to re-fold");
  } else {
    const auto expected = reference_fold(config.seed, kWarmupEvents + count,
                                         rejected, network, &reference_eps);
    for (std::size_t t = 0; t < kTopics.size(); ++t) {
      const OutputDigest& got = sys.digests[t];
      if (dropped == 0 && (got.hash != expected[t].hash ||
                           got.outputs != expected[t].outputs)) {
        result.check_failures.push_back(
            kTopics[t] + " outputs differ from the reference fold (" +
            std::to_string(got.outputs) + " vs " +
            std::to_string(expected[t].outputs) + " outputs)");
      }
    }
    result.notes.push_back(
        "check: delivered " + std::to_string(sys.digests[0].outputs) + " aq + " +
        std::to_string(sys.digests[1].outputs) + " fcd outputs; " +
        (dropped == 0 ? "fingerprints compared with the reference fold"
                      : "not comparable: " + std::to_string(dropped) +
                            " outputs dropped"));
    result.notes.push_back(
        "baseline: single-threaded reference fold (no WAL, no queue) ran " +
        std::to_string(static_cast<long>(reference_eps)) + " events/s");
  }
  if (sys.stamps != nullptr && sys.unmatched_stamps.load() != 0) {
    result.notes.push_back(std::to_string(sys.unmatched_stamps.load()) +
                           " closings had no ingest stamp (not sampled)");
  }

  auto& layer = result.layer;
  layer["stream.closings"] = static_cast<double>(sys.closings.load());
  layer["stream.session_dropped"] = static_cast<double>(dropped);
  layer["storage.log.appends_per_sync"] =
      syncs1 > syncs0 ? static_cast<double>(appends1 - appends0) /
                            static_cast<double>(syncs1 - syncs0)
                      : 0.0;
  layer["loadgen.late_p99_us"] = late_us.percentile(99.0);
  result.layer_samples["loadgen.late_p99_us"] = late_us.count();
  if (sys.stamps != nullptr) {
    put_percentiles(result, "stream.ingest_us", ingest_us);
    put_percentiles(result, "stream.deliver_us", sys.deliver_us);
  }
  system.reset();
  return result;
}

}  // namespace perfbench
