#include "stream/engine.hpp"

#include <algorithm>

namespace everest::stream {

namespace {
/// Pump poll granularity while the queue is empty.
constexpr std::chrono::microseconds kIdlePoll{200};
}  // namespace

StreamEngine::StreamEngine(EngineConfig config, obs::Registry* registry,
                           storage::Env* env)
    : config_(config),
      registry_(registry),
      env_(env),
      ingestor_(config_.ingest, registry, env) {
  if (registry_ != nullptr) {
    ctr_events_ = registry_->counter("stream.events_processed");
    ctr_outputs_ = registry_->counter("stream.outputs_emitted");
    // kMax: the merged federation value is the worst watermark lag.
    gauge_watermark_lag_ = registry_->gauge("stream.watermark_lag_us",
                                            obs::GaugeKind::kMax);
    hist_staleness_ = registry_->histogram("stream.staleness_us");
  }
}

StreamEngine::~StreamEngine() { stop(); }

Status StreamEngine::add_operator(std::unique_ptr<Operator> op) {
  if (running_.load()) {
    return FailedPrecondition("cannot register operators while running");
  }
  const std::string topic = op->topic();
  ingestor_.topic_id(topic);  // fix the WAL id in registration order
  if (std::find(topics_.begin(), topics_.end(), topic) == topics_.end()) {
    topics_.push_back(topic);
  }
  by_topic_[topic].push_back(operators_.size());
  operators_.push_back(std::move(op));
  return OkStatus();
}

Status StreamEngine::ingest(Event event) { return ingestor_.offer(std::move(event)); }

Result<std::shared_ptr<StreamSession>> StreamEngine::subscribe(
    const std::string& tenant, const std::string& topic,
    SessionConfig config) {
  if (by_topic_.find(topic) == by_topic_.end()) {
    return Status(NotFound("no operator consumes topic '" + topic + "'"));
  }
  std::lock_guard<std::mutex> lock(sessions_mu_);
  if (sessions_.size() >= config_.max_sessions) {
    return Status(ResourceExhausted(
        "session capacity exhausted (" + std::to_string(config_.max_sessions) +
        " live), subscribe rejected"));
  }
  auto session = std::make_shared<StreamSession>(next_session_id_++, tenant,
                                                 topic, config, registry_);
  sessions_[session->id()] = session;
  return session;
}

Status StreamEngine::unsubscribe(std::uint64_t session_id) {
  std::shared_ptr<StreamSession> session;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    auto it = sessions_.find(session_id);
    if (it == sessions_.end()) {
      return NotFound("unknown session " + std::to_string(session_id));
    }
    session = it->second;
    sessions_.erase(it);
  }
  session->close();
  return OkStatus();
}

Status StreamEngine::attach(std::shared_ptr<StreamSession> session) {
  if (by_topic_.find(session->topic()) == by_topic_.end()) {
    return NotFound("no operator consumes topic '" + session->topic() + "'");
  }
  std::lock_guard<std::mutex> lock(sessions_mu_);
  if (sessions_.size() >= config_.max_sessions) {
    return ResourceExhausted("session capacity exhausted, attach rejected");
  }
  const std::uint64_t id = session->id();
  sessions_[id] = std::move(session);
  next_session_id_ = std::max(next_session_id_, id + 1);
  return OkStatus();
}

Result<std::shared_ptr<StreamSession>> StreamEngine::detach(
    std::uint64_t session_id) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return Status(NotFound("unknown session " + std::to_string(session_id)));
  }
  std::shared_ptr<StreamSession> session = std::move(it->second);
  sessions_.erase(it);
  return session;
}

std::vector<std::shared_ptr<StreamSession>> StreamEngine::detach_all() {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  std::vector<std::shared_ptr<StreamSession>> out;
  out.reserve(sessions_.size());
  for (auto& [id, session] : sessions_) out.push_back(std::move(session));
  sessions_.clear();
  return out;
}

void StreamEngine::start() {
  if (running_.exchange(true)) return;
  stop_requested_.store(false);
  pump_thread_ = std::thread([this] { pump(); });
}

void StreamEngine::stop() {
  if (running_.load()) {
    flush();
    stop_requested_.store(true);
    if (pump_thread_.joinable()) pump_thread_.join();
    running_.store(false);
  }
  std::lock_guard<std::mutex> lock(sessions_mu_);
  for (auto& [id, session] : sessions_) session->close();
}

void StreamEngine::kill() {
  if (!running_.load()) return;
  stop_requested_.store(true);
  if (pump_thread_.joinable()) pump_thread_.join();
  running_.store(false);
}

void StreamEngine::flush() {
  if (!running_.load()) return;
  // Wait until the pump consumed every event admitted so far. The
  // seq_cst loads of consumed_ pair with the pump's post-process
  // increment, so operator/frontier state read afterwards is the folded
  // state. Registering as a waiter first means the pump either sees the
  // registration and notifies, or incremented before the load here.
  const std::uint64_t target = ingestor_.stats().admitted;
  flush_waiters_.fetch_add(1);
  for (std::uint64_t seen; (seen = consumed_.load()) < target;) {
    consumed_.wait(seen);
  }
  flush_waiters_.fetch_sub(1);
  ingestor_.sync_wal();
}

void StreamEngine::pump() {
  while (!stop_requested_.load()) {
    std::optional<Event> event = ingestor_.take(kIdlePoll);
    if (!event.has_value()) continue;
    process(*event);
    consumed_.fetch_add(1);
    if (flush_waiters_.load() != 0) consumed_.notify_all();
  }
}

void StreamEngine::process(const Event& event) {
  auto it = by_topic_.find(event.topic);
  if (it == by_topic_.end()) return;  // replayed topic nobody consumes now

  std::uint64_t frontier;
  {
    std::lock_guard<std::mutex> lock(frontier_mu_);
    std::uint64_t& f = frontiers_[event.topic];
    f = std::max(f, event.event_time_us);
    frontier = f;
  }

  std::vector<WindowOutput> outputs;
  std::uint64_t min_watermark = frontier;
  for (const std::size_t idx : it->second) {
    Operator& op = *operators_[idx];
    if (!event.punctuation) op.offer(event);
    const std::uint64_t lateness = op.allowed_lateness_us();
    const std::uint64_t watermark =
        frontier > lateness ? frontier - lateness : 0;
    op.advance_watermark(watermark, &outputs);
    min_watermark = std::min(min_watermark, op.watermark_us());
  }

  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (!event.punctuation) ++stats_.events_processed;
    stats_.outputs_emitted += outputs.size();
  }
  if (ctr_events_ != nullptr && !event.punctuation) ctr_events_->inc();
  if (ctr_outputs_ != nullptr && !outputs.empty()) {
    ctr_outputs_->inc(outputs.size());
  }
  if (gauge_watermark_lag_ != nullptr) {
    gauge_watermark_lag_->set(static_cast<double>(frontier - min_watermark));
  }
  if (!outputs.empty()) deliver(event.topic, frontier, outputs);
}

void StreamEngine::deliver(const std::string& topic, std::uint64_t frontier,
                           std::vector<WindowOutput>& outputs) {
  std::vector<std::shared_ptr<StreamSession>> targets;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (auto& [id, session] : sessions_) {
      if (session->topic() == topic) targets.push_back(session);
    }
  }
  if (targets.empty()) return;
  obs::Tracer* tracer = config_.tracer;
  const bool tracing = tracer != nullptr && tracer->enabled();
  obs::TraceContext ctx;
  double t0 = 0.0;
  if (tracing) {
    // One trace per fan-out: the "deliver" span roots it and each
    // Delivery carries a context parented under it, so consumer-side
    // spans stitch into this chain.
    ctx = obs::TraceContext{tracer->next_id(), tracer->next_id()};
    t0 = tracer->wall_now_us();
  }
  std::uint64_t delivered = 0;
  for (WindowOutput& output : outputs) {
    if (hist_staleness_ != nullptr && frontier > output.window_start_us) {
      // Staleness of the analytic at delivery: age of the oldest data
      // folded into it, on the stream's own timeline.
      hist_staleness_->record(
          static_cast<double>(frontier - output.window_start_us));
    }
    for (const auto& session : targets) {
      session->push(Delivery{output, frontier, ctx});
      ++delivered;
    }
  }
  if (tracing) {
    tracer->span(obs::TimeDomain::kWall, ctx.trace_id, ctx.parent_span, 0, t0,
                 tracer->wall_now_us(), obs::kAutoTrack, "deliver", "stream",
                 {{"topic", topic},
                  {"outputs", std::to_string(outputs.size())},
                  {"sessions", std::to_string(targets.size())}});
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.deliveries += delivered;
}

Result<std::uint64_t> StreamEngine::replay_wal(std::uint64_t acked_horizon_us) {
  if (running_.load()) {
    return Status(FailedPrecondition("stop the engine before replay"));
  }
  if (config_.ingest.wal_dir.empty()) {
    return Status(FailedPrecondition("engine has no WAL"));
  }
  // Per-topic max window span: an event older than horizon − span can
  // only fall into windows that closed at or before the horizon.
  std::map<std::string, std::uint64_t> span;
  for (const auto& [topic, indices] : by_topic_) {
    std::uint64_t s = 0;
    for (const std::size_t idx : indices) {
      s = std::max(s, operators_[idx]->max_window_span_us());
    }
    span[topic] = s;
  }
  std::uint64_t folded = 0;
  Ingestor::replay(
      config_.ingest.wal_dir, topics(),
      [&](const Event& event) {
        if (acked_horizon_us > 0 && !event.punctuation) {
          auto it = span.find(event.topic);
          const std::uint64_t s = it == span.end() ? 0 : it->second;
          if (event.event_time_us + s <= acked_horizon_us) return;
        }
        process(event);
        ++folded;
      },
      env_);
  return folded;
}

void StreamEngine::reset_topic(const std::string& topic) {
  auto it = by_topic_.find(topic);
  if (it != by_topic_.end()) {
    for (const std::size_t idx : it->second) operators_[idx]->reset();
  }
  std::lock_guard<std::mutex> lock(frontier_mu_);
  frontiers_[topic] = 0;
}

EngineStats StreamEngine::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

std::vector<std::string> StreamEngine::topics() const { return topics_; }

std::uint64_t StreamEngine::frontier_us(const std::string& topic) const {
  std::lock_guard<std::mutex> lock(frontier_mu_);
  auto it = frontiers_.find(topic);
  return it == frontiers_.end() ? 0 : it->second;
}

std::uint64_t StreamEngine::watermark_us(const std::string& topic) const {
  auto it = by_topic_.find(topic);
  if (it == by_topic_.end() || it->second.empty()) return 0;
  std::uint64_t wm = UINT64_MAX;
  for (const std::size_t idx : it->second) {
    wm = std::min(wm, operators_[idx]->watermark_us());
  }
  return wm;
}

std::size_t StreamEngine::num_sessions() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return sessions_.size();
}

}  // namespace everest::stream
