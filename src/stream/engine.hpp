// The stream engine of one node: ties the ingestor (bounded two-lane
// admission + WAL), the windowed operators, and the subscriber sessions
// into a single pump loop.
//
//   producers ──offer──▶ Ingestor ──take──▶ pump ──▶ Operator::offer
//                                            │            │ advance
//                                            ▼            ▼
//                                     topic frontier   WindowOutputs
//                                            │            │
//                                            └─staleness──▶ sessions
//
// The pump is the only thread touching operators, so operator code needs
// no locks and folding is strictly admission-ordered — the determinism
// contract. Watermarks are bounded out-of-orderness: per topic the
// frontier is the max event time admitted, and each operator's watermark
// advances to frontier − its allowed lateness.
//
// Failover path (driven by StreamFabric): stop() the dead engine's
// clients, construct a fresh engine over the same WAL dir on the new
// primary, re-register the same operators in the same order,
// replay_wal(), then attach() the surviving sessions — their acked
// watermarks suppress re-emitted windows, so subscribers see a
// byte-identical continuation.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "storage/env.hpp"
#include "stream/ingestor.hpp"
#include "stream/session.hpp"
#include "stream/window.hpp"

namespace everest::stream {

struct EngineConfig {
  IngestorConfig ingest;
  /// Subscription admission bound: subscribe() rejects with
  /// RESOURCE_EXHAUSTED beyond this.
  std::size_t max_sessions = 64;
  /// Span sink (borrowed; may be null). When enabled, each delivery
  /// fan-out gets a "deliver" span and every Delivery carries a
  /// TraceContext parented under it, so consumer-side work stitches
  /// into the engine's chain.
  obs::Tracer* tracer = nullptr;
};

struct EngineStats {
  std::uint64_t events_processed = 0;
  std::uint64_t outputs_emitted = 0;
  std::uint64_t deliveries = 0;
};

/// One node's streaming runtime. Thread-safe facade; operators are
/// pump-thread-only.
class StreamEngine {
 public:
  explicit StreamEngine(EngineConfig config, obs::Registry* registry = nullptr,
                        storage::Env* env = nullptr);
  ~StreamEngine();

  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  /// Registers an operator. Must happen before start()/replay_wal();
  /// registration order fixes the WAL topic ids, so a failover
  /// replacement must register the same operators in the same order.
  Status add_operator(std::unique_ptr<Operator> op);

  /// Producer-facing admission (thread-safe, never blocks): WAL-append +
  /// two-lane queue; RESOURCE_EXHAUSTED when the queue is full.
  Status ingest(Event event);

  /// Opens a subscription on `topic` for `tenant`. RESOURCE_EXHAUSTED
  /// once `max_sessions` sessions are live; NOT_FOUND for a topic no
  /// operator consumes.
  Result<std::shared_ptr<StreamSession>> subscribe(const std::string& tenant,
                                                   const std::string& topic,
                                                   SessionConfig config = {});

  /// Closes and removes one session. NOT_FOUND if unknown.
  Status unsubscribe(std::uint64_t session_id);

  /// Re-attaches an existing session (failover re-home). The session's
  /// acked watermark keeps suppressing already-delivered windows.
  Status attach(std::shared_ptr<StreamSession> session);

  /// Removes a session without closing it (its queue and ack state
  /// survive for attach() on another engine). NOT_FOUND if unknown.
  Result<std::shared_ptr<StreamSession>> detach(std::uint64_t session_id);

  /// Removes every session without closing them (failover re-home).
  std::vector<std::shared_ptr<StreamSession>> detach_all();

  /// Spawns the pump. Idempotent.
  void start();
  /// Drains the queue, stops the pump, closes every session.
  void stop();
  /// Fail-stop: halts the pump immediately — queued events are lost
  /// (the WAL has them), sessions stay open for re-attach elsewhere.
  void kill();
  [[nodiscard]] bool running() const { return running_.load(); }

  /// Blocks until every admitted event has been folded and delivered.
  void flush();

  /// Replays this engine's WAL through the registered operators in
  /// admission order (engine must not be running). Deliveries flow to
  /// attached sessions — replay duplicates are suppressed by acks.
  /// `acked_horizon_us` trims the replay: an event whose every
  /// containing window closed at or before the horizon (event time +
  /// the topic's max window span <= horizon) only contributes to
  /// already-acked windows, so it is skipped; windows the trim leaves
  /// partially rebuilt are exactly the acked ones the sessions suppress.
  /// Returns events folded.
  Result<std::uint64_t> replay_wal(std::uint64_t acked_horizon_us = 0);

  /// Drops one topic's operator state and frontier (pre-replay reset).
  void reset_topic(const std::string& topic);

  [[nodiscard]] EngineStats stats() const;
  [[nodiscard]] const Ingestor& ingestor() const { return ingestor_; }
  /// Registered topics in registration (WAL id) order.
  [[nodiscard]] std::vector<std::string> topics() const;
  /// Max admitted event time on `topic` (0 when none).
  [[nodiscard]] std::uint64_t frontier_us(const std::string& topic) const;
  /// Min operator watermark on `topic` (0 when none).
  [[nodiscard]] std::uint64_t watermark_us(const std::string& topic) const;
  [[nodiscard]] std::size_t num_sessions() const;

 private:
  void pump();
  /// Folds one event and triggers its topic's operators. Pump thread or
  /// stopped-engine replay only.
  void process(const Event& event);
  void deliver(const std::string& topic, std::uint64_t frontier,
               std::vector<WindowOutput>& outputs);

  EngineConfig config_;
  obs::Registry* registry_;
  storage::Env* env_;
  Ingestor ingestor_;

  /// Registration-ordered; WAL topic id = ingestor_.topic_id(topic).
  std::vector<std::unique_ptr<Operator>> operators_;
  std::vector<std::string> topics_;  ///< registration order
  /// topic -> indices into operators_ (pump-thread-only after start).
  std::map<std::string, std::vector<std::size_t>> by_topic_;
  /// topic -> max admitted event time. Written by the pump, read by
  /// metrics accessors under frontier_mu_.
  mutable std::mutex frontier_mu_;
  std::map<std::string, std::uint64_t> frontiers_;

  mutable std::mutex sessions_mu_;
  std::map<std::uint64_t, std::shared_ptr<StreamSession>> sessions_;
  std::uint64_t next_session_id_ = 1;

  std::thread pump_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  /// Events the pump finished processing (pairs with ingest admitted
  /// count; flush() waits for equality).
  std::atomic<std::uint64_t> consumed_{0};
  /// flush() callers waiting on consumed_; while zero the pump skips the
  /// notify.
  std::atomic<std::uint32_t> flush_waiters_{0};

  mutable std::mutex stats_mu_;
  EngineStats stats_;

  obs::Counter* ctr_events_ = nullptr;
  obs::Counter* ctr_outputs_ = nullptr;
  obs::Gauge* gauge_watermark_lag_ = nullptr;
  obs::Histogram* hist_staleness_ = nullptr;
};

}  // namespace everest::stream
