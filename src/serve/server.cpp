#include "serve/server.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "common/rng.hpp"

namespace everest::serve {

namespace {
double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count() /
         1e3;
}

/// Deterministic shed decision: hash the request seed to uniform
/// permille so same-seed replays shed the same requests.
bool slo_shed_hit(std::uint64_t seed, std::uint32_t permille) {
  if (permille == 0) return false;
  SplitMix64 sm(seed ^ 0x51c0517eda11edULL);
  return sm.next() % 1000 < permille;
}
}  // namespace

Server::Server(ServerOptions options, runtime::KnowledgeBase* kb)
    : options_(options),
      kb_(kb),
      tuner_(kb),
      breakers_(options.breaker),
      breaker_epoch_(Clock::now()),
      input_cache_(options.input_cache) {
  options_.worker_threads = std::max<std::size_t>(1, options_.worker_threads);
  queue_ = std::make_unique<RequestQueue>(options_.queue_capacity);
  batcher_ = std::make_unique<Batcher>(queue_.get(), options_.batch);
}

double Server::breaker_now_us() const {
  return us_between(breaker_epoch_, Clock::now());
}

data::CacheStats Server::input_cache_stats() const {
  std::lock_guard<std::mutex> lock(input_mu_);
  return input_cache_.stats();
}

double Server::stage_batch_inputs(const Batch& batch) {
  // Distinct keys only: requests in one batch reading the same object
  // share one staging (the in-batch form of transfer dedup).
  std::map<std::string, double> keyed;
  for (const PendingRequest& pending : batch.requests) {
    if (!pending.request.data_key.empty()) {
      keyed.emplace(pending.request.data_key, pending.request.input_bytes);
    }
  }
  if (keyed.empty()) return 0.0;
  double stall_us = 0.0;
  std::uint64_t hits = 0, misses = 0;
  {
    std::lock_guard<std::mutex> lock(input_mu_);
    for (const auto& [name, bytes] : keyed) {
      const data::ShardKey key{data::object_id_from_name(name), 0, 0};
      if (input_cache_.lookup(key)) {
        ++hits;
        continue;
      }
      ++misses;
      const double cost = options_.input_link.transfer_us(bytes);
      stall_us += cost;
      (void)input_cache_.insert(key, bytes, cost);
    }
  }
  metrics_.record_input_stage(hits, misses, stall_us);
  return stall_us;
}

Server::~Server() { stop(); }

Status Server::register_endpoint(Endpoint endpoint) {
  if (running_.load()) {
    return FailedPrecondition("cannot register endpoints while serving");
  }
  if (endpoint.kernel.empty() ||
      (!endpoint.handler && !endpoint.variant_handler)) {
    return InvalidArgument("endpoint needs a kernel name and a handler");
  }
  if (endpoints_.count(endpoint.kernel) != 0) {
    return AlreadyExists("endpoint '" + endpoint.kernel +
                         "' already registered");
  }
  EVEREST_RETURN_IF_ERROR(kb_->load(endpoint.variants));
  endpoints_.emplace(endpoint.kernel, std::move(endpoint));
  return OkStatus();
}

Status Server::start() {
  if (running_.exchange(true)) {
    return FailedPrecondition("server already started");
  }
  if (endpoints_.empty()) {
    running_.store(false);
    return FailedPrecondition("no endpoints registered");
  }
  for (std::size_t i = 0; i < options_.worker_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  EVEREST_LOG(kInfo, "serve") << "server started: " << endpoints_.size()
                              << " endpoints, " << options_.worker_threads
                              << " workers, queue capacity "
                              << options_.queue_capacity;
  return OkStatus();
}

Status Server::submit(Request request, ResponseCallback on_done) {
  if (!running_.load()) {
    return FailedPrecondition("server is not running");
  }
  metrics_.record_submitted();
  // Counted before the seal is read, both seq_cst: drain_gracefully()
  // stores the seal before it reads this count, so either the drain sees
  // this request and waits for its delivery, or this read sees the seal.
  // Every refusal takes the count back.
  admitted_requests_.fetch_add(1);
  const auto refuse = [this](Status status) {
    admitted_requests_.fetch_sub(1);
    notify_finished();
    return status;
  };
  if (draining_.load()) {
    // Sealed by drain_gracefully(): refuse instead of buffering so the
    // drain condition (finished catches up to admitted) can be reached.
    metrics_.record_unavailable();
    return refuse(Unavailable("server is draining"));
  }
  if (endpoints_.count(request.kernel) == 0) {
    return refuse(NotFound("no endpoint '" + request.kernel + "'"));
  }
  // SLO burn-rate shedding: the monitor asked for a fraction of
  // throughput-class traffic to be dropped at the front door so the
  // remaining budget goes to requests that can still meet the SLO.
  if (request.sla == SlaClass::kThroughput &&
      slo_shed_hit(request.seed,
                   slo_shed_permille_.load(std::memory_order_acquire))) {
    metrics_.record_unavailable();
    return refuse(
        Unavailable("slo burn-rate control: shedding throughput load"));
  }
  // Degraded mode sheds bulk traffic early: with breakers open (or an
  // SLO page standing) the queue is reserved for latency-critical work
  // once it passes the shed threshold.
  if ((degraded_.load(std::memory_order_acquire) ||
       slo_degraded_.load(std::memory_order_acquire)) &&
      request.sla == SlaClass::kThroughput &&
      static_cast<double>(queue_->size()) >=
          options_.degraded_shed_fill *
              static_cast<double>(options_.queue_capacity)) {
    metrics_.record_unavailable();
    return refuse(Unavailable("degraded mode: shedding throughput-class load"));
  }
  request.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  request.enqueue_time = Clock::now();
  if (options_.tracer != nullptr && options_.tracer->enabled()) {
    request.span_id = options_.tracer->next_id();
    // A request arriving without propagated identity starts its own
    // trace here; forwarded requests keep the federation's.
    if (!request.trace.valid()) {
      request.trace = obs::TraceContext{options_.tracer->next_id(), 0};
    }
  }
  PendingRequest pending{std::move(request), std::move(on_done)};
  std::size_t depth = 0;
  const Status admitted = queue_->push(std::move(pending), &depth);
  if (!admitted.ok()) {
    metrics_.record_rejected();
    return refuse(admitted);
  }
  metrics_.record_admitted(depth);
  return OkStatus();
}

void Server::worker_loop() {
  // A worker takes a batch only when it can run it at once: requests wait
  // in the admission queue, where capacity rejection, SLA-priority popping
  // and deadline aging all still apply, never in a second queue behind it.
  Batch batch;
  while (batcher_->next_batch(&batch)) {
    executing_batches_.fetch_add(1, std::memory_order_relaxed);
    execute_batch(std::move(batch));
    executing_batches_.fetch_sub(1, std::memory_order_relaxed);
  }
}

/// How a request ended. The first three end a batch that reached its
/// handler (or a fault injected in its place); the last two never did.
enum class Server::Outcome : std::uint8_t {
  kOk, kDegraded, kFailed, kExpired, kUnavailable
};

/// What one batch did, shared by every request it finishes: the instants
/// its requests' span chains are cut from and their common Response
/// fields. Requests dropped before the handler ran leave the execution
/// fields unset.
struct Server::BatchRun {
  Clock::time_point dispatch, exec_start, exec_end;
  Clock::time_point done;  ///< when its requests finish
  std::size_t size = 0;    ///< 0 for requests expired before it formed
  double service_us = 0.0;
  /// The autotuner's decision (null if none): the variant that ran and
  /// the prediction annotated on the execute span.
  const runtime::Selection* selection = nullptr;
};

void Server::execute_batch(Batch batch) {
  BatchRun run;
  run.dispatch = run.done = Clock::now();  // expired requests end here
  obs::Tracer* tracer = options_.tracer;
  const bool tracing = tracer != nullptr && tracer->enabled();

  // SLA enforcement: answers after the deadline are worthless, so expired
  // requests are dropped here instead of burning handler time.
  std::vector<PendingRequest> live;
  live.reserve(batch.requests.size());
  for (PendingRequest& pending : batch.requests) {
    if (run.dispatch > pending.request.deadline) {
      const double queued_us =
          us_between(pending.request.enqueue_time, run.dispatch);
      finish(pending, Outcome::kExpired,
             DeadlineExceeded("request expired before dispatch (queued " +
                              std::to_string(static_cast<long>(queued_us)) +
                              " us)"),
             0.0, run);
      continue;
    }
    live.push_back(std::move(pending));
  }
  batch.requests = std::move(live);
  if (batch.requests.empty()) return;
  run.size = batch.size();

  // Stage request inputs through the input cache before compute: warm
  // keys are free, cold keys stall the batch for their transfer time.
  const double stage_stall_us = stage_batch_inputs(batch);
  if (stage_stall_us > 0.0 && options_.input_stage_scale > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<std::int64_t>(
            stage_stall_us * options_.input_stage_scale)));
  }

  // Variant selection for the whole batch under the live system state
  // (shared knowledge base; its internal mutex makes this reentrant). The
  // load signals count batches: this one and the others executing, plus
  // the batches the queued requests would form, up to one per worker.
  const double workers = static_cast<double>(options_.worker_threads);
  const double waiting = std::min(
      workers, std::ceil(static_cast<double>(queue_->size()) /
                         static_cast<double>(options_.batch.max_batch)));
  runtime::SystemState state;
  state.fpgas_available = options_.fpgas_available;
  state.fpga_queue_depth =
      static_cast<double>(executing_batches_.load(std::memory_order_relaxed)) +
      waiting;
  state.cpu_load = std::min(0.95, waiting / (workers + 1.0));
  double scale = 0.0;
  for (const PendingRequest& pending : batch.requests) {
    scale += pending.request.payload_scale;
  }
  state.data_scale = scale / static_cast<double>(batch.size());

  runtime::Goal goal = options_.goal;
  // SLO-degraded: latency is the burning budget, so every batch (not
  // just latency-critical ones) is tuned for min latency until the
  // monitor clears the page.
  if (slo_degraded_.load(std::memory_order_acquire)) {
    goal.objective = runtime::Goal::Objective::kMinLatency;
  }
  if (batch.sla == SlaClass::kLatencyCritical) {
    goal.objective = runtime::Goal::Objective::kMinLatency;
    // Tightest remaining deadline in the batch becomes the constraint.
    double tightest_us = goal.latency_deadline_us;
    for (const PendingRequest& pending : batch.requests) {
      if (pending.request.deadline != Clock::time_point::max()) {
        tightest_us = std::min(
            tightest_us, us_between(run.dispatch, pending.request.deadline));
      }
    }
    goal.latency_deadline_us = std::max(1.0, tightest_us);
  }
  if (options_.enable_breaker) {
    state.variant_gate = [this, &batch](const compiler::Variant& v) {
      return breakers_.allow(batch.kernel, v.id, breaker_now_us());
    };
  }
  auto selection = tuner_.select(batch.kernel, goal, state);
  if (selection.ok()) run.selection = &*selection;

  if (!selection.ok() && selection.status().code() == StatusCode::kUnavailable) {
    // Every variant of the kernel is withheld by an open breaker: answer
    // UNAVAILABLE without burning handler time (the caller may retry
    // after the cooldown lets a probe through).
    run.done = Clock::now();
    for (const PendingRequest& pending : batch.requests) {
      finish(pending, Outcome::kUnavailable, selection.status(), 0.0, run);
    }
    return;
  }

  // Execute the endpoint handler (the real work) and time it. The fault
  // injector may veto the execution first, simulating a variant failure
  // (dead FPGA slot, failed reconfiguration) that feeds the breaker.
  const Endpoint& endpoint = endpoints_.at(batch.kernel);
  std::vector<double> values;
  Status handler_status = OkStatus();
  bool fault_injected = false;
  if (selection.ok() && options_.fault_injector) {
    handler_status = options_.fault_injector(batch, selection->variant);
    fault_injected = !handler_status.ok();
  }
  run.exec_start = Clock::now();
  if (handler_status.ok()) {
    if (endpoint.variant_handler) {
      handler_status = endpoint.variant_handler(
          batch, selection.ok() ? &selection->variant : nullptr, &values);
    } else {
      handler_status = endpoint.handler(batch, &values);
    }
  }
  run.exec_end = Clock::now();
  run.service_us = us_between(run.exec_start, run.exec_end);
  const double per_request_us =
      run.service_us / static_cast<double>(batch.size());

  // Data-feature export (the JIT detector's input signal): per-request
  // shape/tenant tuples with each request's share of the batch's handler
  // time — hot (kernel, feature, tenant) tuples and their measured cost
  // become registry facts the detector can mine.
  for (const PendingRequest& pending : batch.requests) {
    metrics_.record_feature(batch.kernel, pending.request.tenant,
                            pending.request.payload_scale, per_request_us);
  }
  if (handler_status.ok() && values.size() != batch.size()) {
    handler_status = Internal("endpoint '" + batch.kernel + "' returned " +
                              std::to_string(values.size()) + " values for " +
                              std::to_string(batch.size()) + " requests");
  }
  metrics_.record_batch(batch.size());
  if (tracing && fault_injected) {
    // Injected variant failure: surface it on the timeline next to the
    // batch it poisoned.
    tracer->instant(obs::TimeDomain::kWall,
                    batch.requests.front().request.trace.trace_id,
                    tracer->wall_us(run.exec_start), obs::kAutoTrack,
                    "fault-injected", "resilience",
                    {{"kernel", batch.kernel},
                     {"variant", selection->variant.id}});
  }

  bool batch_degraded = false;
  if (options_.enable_breaker && selection.ok()) {
    breakers_.record(batch.kernel, selection->variant.id,
                     handler_status.ok(), breaker_now_us());
    batch_degraded =
        handler_status.ok() && breakers_.open_count(batch.kernel) > 0;
    degraded_.store(breakers_.open_count() > 0, std::memory_order_release);
  }

  // Close the Fig. 2 loop: feed the measured per-request cost back so the
  // next selection sees calibrated expectations.
  if (selection.ok() && handler_status.ok()) {
    tuner_.observe(batch.kernel, selection->variant.id, per_request_us,
                   selection->predicted_energy_uj);
  }

  run.done = Clock::now();
  const Outcome outcome = !handler_status.ok() ? Outcome::kFailed
                          : batch_degraded     ? Outcome::kDegraded
                                               : Outcome::kOk;
  for (std::size_t i = 0; i < batch.requests.size(); ++i) {
    finish(batch.requests[i], outcome, handler_status,
           handler_status.ok() ? values[i] : 0.0, run);
  }
}

void Server::finish(const PendingRequest& pending, Outcome outcome,
                    Status status, double value, const BatchRun& run) {
  static constexpr const char* kOutcomeNames[] = {"ok", "degraded", "failed",
                                                  "expired", "unavailable"};
  const char* outcome_name = kOutcomeNames[static_cast<int>(outcome)];
  const bool executed = outcome <= Outcome::kFailed;
  const Request& request = pending.request;
  Response response;
  response.id = request.id;
  response.status = std::move(status);
  response.value = value;
  response.latency_us = us_between(request.enqueue_time, run.done);
  response.service_us = run.service_us;
  response.batch_size = run.size;
  if (run.selection != nullptr) response.variant_id = run.selection->variant.id;
  response.degraded = outcome == Outcome::kDegraded;
  switch (outcome) {
    case Outcome::kOk:
    case Outcome::kDegraded:
      metrics_.record_completion(request.sla, response.latency_us);
      if (response.degraded) metrics_.record_degraded();
      break;
    case Outcome::kFailed: metrics_.record_failed(); break;
    case Outcome::kExpired: metrics_.record_expired(); break;
    case Outcome::kUnavailable: metrics_.record_unavailable(); break;
  }

  obs::Tracer* tracer = options_.tracer;
  if (tracer != nullptr && tracer->enabled() && request.span_id != 0) {
    const std::uint64_t trace_id = request.trace.trace_id;
    const std::uint64_t root = request.span_id;
    const double t_enq = tracer->wall_us(request.enqueue_time);
    const double t_disp = tracer->wall_us(run.dispatch);
    const double t_done = tracer->wall_us(run.done);
    const auto child = [&](double from, double to, const char* name,
                           obs::Annotations annotations = {}) {
      tracer->span(obs::TimeDomain::kWall, trace_id, tracer->next_id(), root,
                   from, to, obs::kAutoTrack, name, "serve",
                   std::move(annotations));
    };
    child(t_enq, t_disp, "queue");
    obs::Annotations request_ann = {{"outcome", outcome_name}};
    if (executed) {
      const double t_exec0 = tracer->wall_us(run.exec_start);
      const double t_exec1 = tracer->wall_us(run.exec_end);
      const std::string batch_size = std::to_string(run.size);
      // Batch formation + input staging + variant selection window.
      child(t_disp, t_exec0, "batch", {{"batch_size", batch_size}});
      obs::Annotations exec_ann = {{"variant", response.variant_id},
                                   {"batch_size", batch_size}};
      if (run.selection != nullptr) {
        // The autotuner's decision, attached where it took effect.
        exec_ann.emplace_back(
            "predicted_latency_us",
            std::to_string(run.selection->predicted_latency_us));
        exec_ann.emplace_back("constraints_met",
                              run.selection->constraints_met ? "1" : "0");
      }
      child(t_exec0, t_exec1, "execute", std::move(exec_ann));
      child(t_exec1, t_done, "reply");
      request_ann.emplace_back(
          "sla", request.sla == SlaClass::kLatencyCritical ? "lc" : "tp");
    } else {
      // Never reached a handler: the outcome marks where it ended.
      tracer->instant(obs::TimeDomain::kWall, trace_id, t_done,
                      obs::kAutoTrack, outcome_name, "serve");
    }
    tracer->span(obs::TimeDomain::kWall, trace_id, root,
                 request.trace.parent_span, t_enq, t_done, obs::kAutoTrack,
                 "request", "serve", std::move(request_ann));
  }
  if (pending.on_done) pending.on_done(response);
  finished_requests_.fetch_add(1);
  notify_finished();
}

void Server::notify_finished() {
  // seq_cst: a waiter registers before it reads the counts, and the
  // caller changed a count before this read, so either the waiter sees
  // the new count or this sees the waiter.
  if (finish_waiters_.load() == 0) return;
  { std::lock_guard<std::mutex> lock(finish_mu_); }
  finish_cv_.notify_all();
}

void Server::await_finished() {
  finish_waiters_.fetch_add(1);
  {
    // seq_cst reads: they pair with submit()'s count-then-check.
    std::unique_lock<std::mutex> lock(finish_mu_);
    finish_cv_.wait(lock, [this] {
      return finished_requests_.load() >= admitted_requests_.load();
    });
  }
  finish_waiters_.fetch_sub(1);
}

void Server::drain() {
  if (running_.load()) await_finished();
}

std::uint64_t Server::drain_gracefully() {
  if (!running_.load()) return 0;
  draining_.store(true);
  const std::uint64_t finished_at_seal = finished_requests_.load();
  await_finished();
  const std::uint64_t drained = finished_requests_.load() - finished_at_seal;
  EVEREST_LOG(kInfo, "serve")
      << "drained " << drained << " in-flight request(s)";
  return drained;
}

void Server::resume_admission() {
  draining_.store(false, std::memory_order_release);
}

void Server::stop() {
  if (!running_.exchange(false)) return;
  // Let admitted work finish, then release the workers from the queue.
  await_finished();
  queue_->close();
  for (std::thread& worker : workers_) worker.join();
  EVEREST_LOG(kInfo, "serve") << "server stopped";
}

}  // namespace everest::serve
