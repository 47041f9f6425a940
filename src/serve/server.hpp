// The serving front door over the EVEREST runtime (the Fig. 2 loop under
// concurrent traffic): submit() applies admission control and enqueues
// into the one admission queue; each worker thread pulls a batch from it
// per the coalescing policy and executes it — each batch runs the
// mARGOt-style autotuner to pick a variant for the batch's kernel under
// the *live* system state (queue depth, executing batches), executes the
// endpoint handler for real, and feeds the measured service time back
// into the shared knowledge base. A worker holds at most one batch
// outside the queue, so the queue's capacity bounds all buffered work.
// SLA classes steer both batching (latency-critical batches stay small
// and jump the queue) and deadline handling (expired requests are
// dropped at dispatch, not executed late).
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "data/cache.hpp"
#include "obs/trace.hpp"
#include "platform/links.hpp"
#include "resilience/circuit_breaker.hpp"
#include "runtime/autotuner.hpp"
#include "runtime/knowledge.hpp"
#include "serve/batcher.hpp"
#include "serve/endpoints.hpp"
#include "serve/metrics.hpp"
#include "serve/request_queue.hpp"

namespace everest::serve {

struct ServerOptions {
  /// Admission bound: requests beyond this are rejected, not buffered.
  std::size_t queue_capacity = 256;
  /// Worker threads executing batches.
  std::size_t worker_threads = 2;
  BatchPolicy batch;
  /// Autotuner objective for throughput-class batches. Latency-critical
  /// batches always run with a min-latency goal plus the per-request
  /// deadline as the constraint.
  runtime::Goal goal;
  /// FPGA slots visible to variant selection (0 = software only).
  int fpgas_available = 1;

  // ---- graceful degradation ----
  /// Per-(kernel, variant) circuit breakers: batch failures trip the
  /// variant's breaker; selection then falls back to the next variant
  /// (e.g. FPGA → CPU). UNAVAILABLE is returned only when every variant
  /// of a kernel is withheld.
  bool enable_breaker = true;
  resilience::BreakerPolicy breaker;
  /// Fault injection hook for tests/benches: called after variant
  /// selection, before the handler. A non-OK status simulates that the
  /// batch's execution failed on that variant (the handler is skipped and
  /// the failure feeds the breaker).
  std::function<Status(const Batch&, const compiler::Variant&)>
      fault_injector;
  /// While in degraded mode (any breaker open), throughput-class traffic
  /// is shed at admission once the queue passes this fill fraction,
  /// keeping headroom for latency-critical requests.
  double degraded_shed_fill = 0.5;

  // ---- input staging ----
  /// Cache for request input objects (Request::data_key). capacity 0 =
  /// cold path: every keyed request pays its input's transfer time.
  data::CacheConfig input_cache;
  /// Link the input store is reached over; a miss on `data_key` stalls
  /// the batch for input_link.transfer_us(input_bytes) (scaled).
  platform::LinkModel input_link = platform::LinkModel::tcp_datacenter();
  /// Scales simulated staging stalls onto the wall clock (1.0 = one
  /// modelled µs is one slept µs; smaller keeps benches fast).
  double input_stage_scale = 1.0;

  // ---- observability ----
  /// Span sink (borrowed; may be null). When enabled, every admitted
  /// request gets a wall-clock span chain — root "request" with "queue",
  /// "batch", "execute" (annotated with the autotuner's variant
  /// decision), and "reply" children — plus instant events for expiry,
  /// unavailability, and injected faults. A request carrying a valid
  /// TraceContext joins that trace (spans parent under
  /// trace.parent_span); otherwise the server opens a fresh trace at
  /// admission, so local and forwarded traffic alike produce one
  /// root-reachable chain.
  obs::Tracer* tracer = nullptr;
};

/// Multi-tenant request server. Thread-safe: submit() may be called from
/// any number of client threads once start() returned.
class Server {
 public:
  /// `kb` is the shared application knowledge base (owned by the caller,
  /// e.g. the same instance other runtime components use). It must
  /// outlive the server.
  Server(ServerOptions options, runtime::KnowledgeBase* kb);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Registers a servable kernel and loads its variants into the
  /// knowledge base. Must be called before start().
  Status register_endpoint(Endpoint endpoint);

  /// Starts worker_threads workers, each looping: pull a batch from the
  /// admission queue, execute it.
  Status start();

  /// Admission: stamps id/enqueue time and enqueues. Returns
  /// RESOURCE_EXHAUSTED when the queue is full (the callback is NOT
  /// invoked then — the caller owns retry policy), NOT_FOUND for an
  /// unregistered kernel, FAILED_PRECONDITION before start()/after
  /// stop(). On OK the callback fires exactly once, from a worker thread.
  Status submit(Request request, ResponseCallback on_done);

  /// Waits until the queue is empty and all in-flight batches finished.
  void drain();

  /// Graceful drain for failover/rebalance: atomically seals admission
  /// (submit returns UNAVAILABLE while draining), waits until every
  /// already-admitted request has had its response delivered, and
  /// returns how many responses were delivered during the drain. The
  /// server keeps running; resume_admission() re-opens the front door
  /// (the rejoin path). Safe to call concurrently with submit() from any
  /// number of client threads.
  std::uint64_t drain_gracefully();

  /// Re-admits traffic after drain_gracefully().
  void resume_admission();

  /// Admission currently sealed by drain_gracefully()?
  [[nodiscard]] bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  /// drain() + close the queue + join the workers (idempotent).
  void stop();

  [[nodiscard]] const ServingMetrics& metrics() const { return metrics_; }
  ServingMetrics& mutable_metrics() { return metrics_; }
  [[nodiscard]] std::size_t queue_depth() const { return queue_->size(); }
  [[nodiscard]] const resilience::CircuitBreakerBoard& breakers() const {
    return breakers_;
  }
  /// Mutable access for wiring observers (e.g. a flight recorder's
  /// breaker-open trigger). Call before traffic starts.
  resilience::CircuitBreakerBoard& mutable_breakers() { return breakers_; }
  /// Any breaker open right now (degraded mode)?
  [[nodiscard]] bool degraded() const {
    return degraded_.load(std::memory_order_acquire);
  }

  // ---- telemetry-steered admission (SLO burn-rate control) ----
  /// Sheds this fraction of throughput-class traffic at admission
  /// (0 = none, 1 = all). The drop decision hashes Request::seed, so a
  /// replay with the same seeds sheds the same requests. Set from an SLO
  /// monitor's alert callback; cleared on recovery.
  void set_slo_shed_fraction(double fraction) {
    slo_shed_permille_.store(
        static_cast<std::uint32_t>(
            std::clamp(fraction, 0.0, 1.0) * 1000.0),
        std::memory_order_release);
  }
  [[nodiscard]] double slo_shed_fraction() const {
    return slo_shed_permille_.load(std::memory_order_acquire) / 1000.0;
  }
  /// SLO-degraded mode: batches are tuned with a min-latency goal (the
  /// burn says latency is the scarce resource) and throughput-class
  /// traffic additionally obeys the degraded_shed_fill gate even while
  /// no breaker is open.
  void set_slo_degraded(bool on) {
    slo_degraded_.store(on, std::memory_order_release);
  }
  [[nodiscard]] bool slo_degraded() const {
    return slo_degraded_.load(std::memory_order_acquire);
  }

  /// Input-cache counters (hits/misses of data_key staging).
  [[nodiscard]] data::CacheStats input_cache_stats() const;

 private:
  enum class Outcome : std::uint8_t;
  struct BatchRun;

  void worker_loop();
  void execute_batch(Batch batch);
  /// The one exit of an admitted request: fills its Response from the
  /// batch run, records the outcome metric, emits the span chain, invokes
  /// the callback, and counts the request finished.
  void finish(const PendingRequest& pending, Outcome outcome, Status status,
              double value, const BatchRun& run);
  /// Waits until every admitted request has had its response delivered.
  void await_finished();
  /// Wakes await_finished() callers, if any; called after every change to
  /// admitted_requests_ or finished_requests_ that can end their wait.
  void notify_finished();
  /// Stages the batch's distinct data_keys through the input cache;
  /// returns the modelled stall (µs) the misses cost.
  double stage_batch_inputs(const Batch& batch);
  /// Breaker clock: microseconds since server construction.
  [[nodiscard]] double breaker_now_us() const;

  ServerOptions options_;
  runtime::KnowledgeBase* kb_;
  runtime::Autotuner tuner_;
  std::map<std::string, Endpoint> endpoints_;

  std::unique_ptr<RequestQueue> queue_;
  std::unique_ptr<Batcher> batcher_;

  resilience::CircuitBreakerBoard breakers_;
  std::atomic<bool> degraded_{false};
  /// SLO burn-rate controls (telemetry-steered admission).
  std::atomic<std::uint32_t> slo_shed_permille_{0};
  std::atomic<bool> slo_degraded_{false};
  Clock::time_point breaker_epoch_;

  /// Input staging cache; single-owner type, shared across workers under
  /// its own mutex.
  mutable std::mutex input_mu_;
  data::Cache input_cache_;

  ServingMetrics metrics_;
  std::atomic<std::uint64_t> next_id_{1};
  /// Batches workers have pulled and not yet finished (the autotuner's
  /// accelerator-queue signal).
  std::atomic<std::size_t> executing_batches_{0};
  /// Requests past admission vs. requests with a delivered response;
  /// equality is the drain condition (a queue emptiness check would miss
  /// requests held inside a forming batch). submit() counts a request
  /// before it reads draining_ and takes it back on refusal.
  std::atomic<std::uint64_t> admitted_requests_{0};
  std::atomic<std::uint64_t> finished_requests_{0};
  /// await_finished() callers; while zero, no one is signalled.
  std::atomic<std::uint32_t> finish_waiters_{0};
  std::mutex finish_mu_;
  std::condition_variable finish_cv_;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  /// Declared last: the workers use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace everest::serve
