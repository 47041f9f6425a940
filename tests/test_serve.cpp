// Tests for the serving layer: queue admission/backpressure, SLA-priority
// ordering, batch-formation boundaries (size-1 timeout flush, full-batch
// flush, work-conserving early flush), deadline expiry, the worker-pull
// bound on work outside the queue, the autotuner's load signals, metrics
// and their bounded memory, a TEST_P sweep over SLA mixes, a multi-producer
// smoke test asserting no request is lost or duplicated, the response and
// span chain of every request outcome, and the drain contract under a
// drain/resume hammer. Timing assertions are deliberately loose: CI may
// run on one core, so tests check ordering and accounting, not speed.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <condition_variable>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "serve/loadgen.hpp"
#include "serve/server.hpp"

namespace everest::serve {
namespace {

PendingRequest make_pending(const std::string& kernel, SlaClass sla,
                            std::uint64_t id = 0) {
  PendingRequest pending;
  pending.request.id = id;
  pending.request.kernel = kernel;
  pending.request.sla = sla;
  pending.request.enqueue_time = Clock::now();
  return pending;
}

/// A cheap deterministic endpoint for server tests: value = seed % 1000,
/// so responses are verifiable without running the heavy app kernels.
Endpoint test_endpoint(const std::string& kernel = "test_kernel") {
  Endpoint ep;
  ep.kernel = kernel;
  compiler::Variant v;
  v.id = kernel + "-cpu";
  v.kernel = kernel;
  v.target = compiler::TargetKind::kCpu;
  v.latency_us = 50.0;
  v.energy_uj = 100.0;
  ep.variants = {v};
  ep.handler = [](const Batch& batch, std::vector<double>* values) {
    values->clear();
    for (const PendingRequest& pending : batch.requests) {
      values->push_back(static_cast<double>(pending.request.seed % 1000));
    }
    return OkStatus();
  };
  return ep;
}

// ---------------------------------------------------------------- queue

TEST(RequestQueue, AdmitsUpToCapacityThenRejects) {
  RequestQueue queue(4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(queue.push(make_pending("k", SlaClass::kThroughput)).ok());
  }
  // Admission control: 5th and 6th bounce with RESOURCE_EXHAUSTED.
  for (int i = 0; i < 2; ++i) {
    Status st = queue.push(make_pending("k", SlaClass::kThroughput));
    EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  }
  EXPECT_EQ(queue.size(), 4u);
  // Popping one frees one admission slot.
  EXPECT_TRUE(queue.pop(std::chrono::microseconds(1000)).has_value());
  EXPECT_TRUE(queue.push(make_pending("k", SlaClass::kThroughput)).ok());
}

TEST(RequestQueue, LatencyCriticalPopsFirst) {
  RequestQueue queue(8);
  ASSERT_TRUE(queue.push(make_pending("k", SlaClass::kThroughput, 1)).ok());
  ASSERT_TRUE(queue.push(make_pending("k", SlaClass::kThroughput, 2)).ok());
  ASSERT_TRUE(
      queue.push(make_pending("k", SlaClass::kLatencyCritical, 3)).ok());
  auto first = queue.pop(std::chrono::microseconds(1000));
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->request.id, 3u);  // LC lane jumps the TP backlog
  auto second = queue.pop(std::chrono::microseconds(1000));
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->request.id, 1u);  // then FIFO within the TP lane
}

TEST(RequestQueue, PopCompatibleMatchesKernelAndClass) {
  RequestQueue queue(8);
  ASSERT_TRUE(queue.push(make_pending("a", SlaClass::kThroughput, 1)).ok());
  ASSERT_TRUE(queue.push(make_pending("b", SlaClass::kThroughput, 2)).ok());
  ASSERT_TRUE(
      queue.push(make_pending("b", SlaClass::kLatencyCritical, 3)).ok());
  EXPECT_FALSE(queue.pop_compatible("c", SlaClass::kThroughput).has_value());
  auto hit = queue.pop_compatible("b", SlaClass::kThroughput);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->request.id, 2u);  // not the LC "b" request
  EXPECT_EQ(queue.size(), 2u);
}

TEST(RequestQueue, CloseRejectsProducersAndUnblocksConsumers) {
  RequestQueue queue(4);
  queue.close();
  EXPECT_EQ(queue.push(make_pending("k", SlaClass::kThroughput)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(queue.pop(std::chrono::microseconds(100)).has_value());
}

// -------------------------------------------------------------- batcher

TEST(Batcher, FullBatchFlushesAtMaxSize) {
  RequestQueue queue(32);
  BatchPolicy policy;
  policy.max_batch = 4;
  policy.max_wait = std::chrono::microseconds(200000);  // generous
  Batcher batcher(&queue, policy);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(queue.push(make_pending("k", SlaClass::kThroughput,
                                        static_cast<std::uint64_t>(i)))
                    .ok());
  }
  Batch batch;
  ASSERT_TRUE(batcher.next_batch(&batch));
  // Enough compatible requests queued: flushes at max_batch immediately,
  // long before max_wait.
  EXPECT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch.kernel, "k");
  ASSERT_TRUE(batcher.next_batch(&batch));
  EXPECT_EQ(batch.size(), 2u);
}

TEST(Batcher, LoneRequestFlushesAtSizeOneOnTimeout) {
  RequestQueue queue(32);
  BatchPolicy policy;
  policy.max_batch = 8;
  policy.max_wait = std::chrono::microseconds(2000);
  Batcher batcher(&queue, policy);
  ASSERT_TRUE(queue.push(make_pending("k", SlaClass::kThroughput)).ok());
  Batch batch;
  const auto start = Clock::now();
  ASSERT_TRUE(batcher.next_batch(&batch));
  const auto waited = Clock::now() - start;
  EXPECT_EQ(batch.size(), 1u);
  // It must have waited out the policy (>= max_wait, with slack for a
  // loaded machine on the upper side which we don't bound).
  EXPECT_GE(waited, std::chrono::microseconds(1500));
}

TEST(Batcher, DoesNotMixKernelsOrClasses) {
  RequestQueue queue(32);
  BatchPolicy policy;
  policy.max_batch = 8;
  policy.lc_max_batch = 2;
  policy.max_wait = std::chrono::microseconds(1000);
  Batcher batcher(&queue, policy);
  ASSERT_TRUE(queue.push(make_pending("a", SlaClass::kThroughput, 1)).ok());
  ASSERT_TRUE(queue.push(make_pending("b", SlaClass::kThroughput, 2)).ok());
  ASSERT_TRUE(queue.push(make_pending("a", SlaClass::kThroughput, 3)).ok());
  Batch batch;
  ASSERT_TRUE(batcher.next_batch(&batch));
  EXPECT_EQ(batch.kernel, "a");
  EXPECT_EQ(batch.size(), 2u);  // ids 1 and 3; "b" stays queued
  for (const PendingRequest& pending : batch.requests) {
    EXPECT_EQ(pending.request.kernel, "a");
  }
  ASSERT_TRUE(batcher.next_batch(&batch));
  EXPECT_EQ(batch.kernel, "b");
  EXPECT_EQ(batch.size(), 1u);
}

TEST(Batcher, LatencyCriticalCapIsSmaller) {
  RequestQueue queue(32);
  BatchPolicy policy;
  policy.max_batch = 8;
  policy.lc_max_batch = 2;
  policy.max_wait = std::chrono::microseconds(200000);
  Batcher batcher(&queue, policy);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        queue.push(make_pending("k", SlaClass::kLatencyCritical)).ok());
  }
  Batch batch;
  ASSERT_TRUE(batcher.next_batch(&batch));
  EXPECT_EQ(batch.sla, SlaClass::kLatencyCritical);
  EXPECT_EQ(batch.size(), 2u);  // capped at lc_max_batch, not max_batch
}

TEST(Batcher, PartialBatchStopsWaitingWhenOtherWorkIsQueued) {
  RequestQueue queue(32);
  BatchPolicy policy;
  policy.max_batch = 8;
  policy.max_wait = std::chrono::milliseconds(200);
  Batcher batcher(&queue, policy);
  ASSERT_TRUE(queue.push(make_pending("a", SlaClass::kThroughput, 1)).ok());
  // Kernel "b" arrives while the "a" batch waits for company: waiting on
  // would idle this consumer while "b" waits too.
  std::thread late([&queue] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_TRUE(queue.push(make_pending("b", SlaClass::kThroughput, 2)).ok());
  });
  Batch batch;
  const auto start = Clock::now();
  const bool formed = batcher.next_batch(&batch);
  const auto waited = Clock::now() - start;
  late.join();
  ASSERT_TRUE(formed);
  EXPECT_EQ(batch.kernel, "a");
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_LT(waited, std::chrono::milliseconds(100));
  ASSERT_TRUE(batcher.next_batch(&batch));
  EXPECT_EQ(batch.kernel, "b");
  EXPECT_EQ(batch.size(), 1u);
}

// -------------------------------------------------------------- metrics

TEST(ServingMetrics, SnapshotAggregates) {
  ServingMetrics metrics;
  metrics.record_submitted();
  metrics.record_submitted();
  metrics.record_admitted(3);
  metrics.record_rejected();
  metrics.record_batch(4);
  metrics.record_batch(2);
  for (int i = 1; i <= 100; ++i) {
    metrics.record_completion(SlaClass::kThroughput, i * 10.0);
  }
  const MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.submitted, 2u);
  EXPECT_EQ(snap.rejected, 1u);
  EXPECT_EQ(snap.completed, 100u);
  EXPECT_DOUBLE_EQ(snap.rejection_rate(), 0.5);
  EXPECT_NEAR(snap.p50_us, 505.0, 10.0);
  EXPECT_NEAR(snap.p99_us, 991.0, 10.0);
  EXPECT_EQ(snap.batches, 2u);
  EXPECT_DOUBLE_EQ(snap.mean_batch_size, 3.0);
  EXPECT_EQ(snap.batch_histogram.at(4), 1u);
  EXPECT_EQ(snap.max_queue_depth, 3u);
  metrics.reset();
  EXPECT_EQ(metrics.snapshot().submitted, 0u);
}

/// This process's resident set size in kB (VmRSS in /proc/self/status).
long resident_kb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stol(line.substr(6));
  }
  return -1;
}

TEST(ServingMetrics, TenMillionCompletionsKeepResidentMemoryBounded) {
  ServingMetrics metrics;
  (void)metrics.snapshot();
  const long before_kb = resident_kb();
  ASSERT_GT(before_kb, 0);
  // Latencies uniform over 1..1000 µs, one in five latency-critical.
  constexpr std::uint64_t kCompletions = 10'000'000;
  for (std::uint64_t i = 0; i < kCompletions; ++i) {
    metrics.record_completion(
        i % 5 == 0 ? SlaClass::kLatencyCritical : SlaClass::kThroughput,
        static_cast<double>(1 + i % 1000));
  }
  const long grown_kb = resident_kb() - before_kb;
  EXPECT_LT(grown_kb, 8 * 1024) << "resident memory grew by " << grown_kb
                                << " kB over " << kCompletions
                                << " completions";
  const MetricsSnapshot snap = metrics.snapshot();
  const obs::HistogramSnapshot hist = metrics.latency_histogram();
  EXPECT_EQ(snap.completed, kCompletions);
  EXPECT_NEAR(snap.p50_us, 500.0, hist.bucket_width_at(50.0));
  EXPECT_NEAR(snap.p99_us, 990.0, hist.bucket_width_at(99.0));
  EXPECT_NEAR(snap.lc_p99_us, 990.0, hist.bucket_width_at(99.0));
  EXPECT_NEAR(snap.tp_p99_us, 990.0, hist.bucket_width_at(99.0));
}

// --------------------------------------------------------------- server

TEST(Server, RejectsBadConfigurations) {
  runtime::KnowledgeBase kb;
  ServerOptions options;
  Server server(options, &kb);
  EXPECT_EQ(server.start().code(), StatusCode::kFailedPrecondition);  // empty
  ASSERT_TRUE(server.register_endpoint(test_endpoint()).ok());
  EXPECT_EQ(server.register_endpoint(test_endpoint()).code(),
            StatusCode::kAlreadyExists);
  Request before;
  before.kernel = "test_kernel";
  EXPECT_EQ(server.submit(before, nullptr).code(),
            StatusCode::kFailedPrecondition);  // not started
  ASSERT_TRUE(server.start().ok());
  Request unknown;
  unknown.kernel = "nope";
  EXPECT_EQ(server.submit(unknown, nullptr).code(), StatusCode::kNotFound);
  server.stop();
}

TEST(Server, ServesRequestsEndToEnd) {
  runtime::KnowledgeBase kb;
  ServerOptions options;
  options.worker_threads = 2;
  options.batch.max_batch = 4;
  options.batch.max_wait = std::chrono::microseconds(500);
  Server server(options, &kb);
  ASSERT_TRUE(server.register_endpoint(test_endpoint()).ok());
  ASSERT_TRUE(server.start().ok());

  std::mutex mu;
  std::vector<Response> responses;
  for (std::uint64_t i = 0; i < 20; ++i) {
    Request request;
    request.kernel = "test_kernel";
    request.seed = 100 + i;
    ASSERT_TRUE(server
                    .submit(request,
                            [&](const Response& response) {
                              std::lock_guard<std::mutex> lock(mu);
                              responses.push_back(response);
                            })
                    .ok());
  }
  server.drain();
  server.stop();

  ASSERT_EQ(responses.size(), 20u);
  for (const Response& response : responses) {
    EXPECT_TRUE(response.status.ok()) << response.status.to_string();
    EXPECT_GE(response.value, 100.0);  // seed % 1000 for seeds 100..119
    EXPECT_LE(response.value, 119.0);
    EXPECT_GE(response.batch_size, 1u);
    EXPECT_GT(response.latency_us, 0.0);
    EXPECT_EQ(response.variant_id, "test_kernel-cpu");
  }
  const MetricsSnapshot snap = server.metrics().snapshot();
  EXPECT_EQ(snap.completed, 20u);
  EXPECT_EQ(snap.rejected, 0u);
  // The measured service times must have reached the knowledge base
  // (Fig. 2 feedback loop) — one observation per dispatched batch.
  EXPECT_EQ(kb.observation_count("test_kernel", "test_kernel-cpu"),
            static_cast<int>(snap.batches));
}

TEST(Server, ExpiredRequestsAreDroppedNotExecuted) {
  runtime::KnowledgeBase kb;
  ServerOptions options;
  options.worker_threads = 1;
  Server server(options, &kb);
  ASSERT_TRUE(server.register_endpoint(test_endpoint()).ok());
  ASSERT_TRUE(server.start().ok());

  std::mutex mu;
  std::vector<Status> statuses;
  Request request;
  request.kernel = "test_kernel";
  request.deadline = Clock::now() - std::chrono::milliseconds(1);  // past
  ASSERT_TRUE(server
                  .submit(request,
                          [&](const Response& response) {
                            std::lock_guard<std::mutex> lock(mu);
                            statuses.push_back(response.status);
                          })
                  .ok());
  server.drain();
  server.stop();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(server.metrics().snapshot().expired, 1u);
  EXPECT_EQ(server.metrics().snapshot().completed, 0u);
}

TEST(Server, AdmissionControlBouncesOverload) {
  runtime::KnowledgeBase kb;
  ServerOptions options;
  options.queue_capacity = 2;
  options.worker_threads = 1;
  // Slow handler so the queue genuinely fills.
  Server server(options, &kb);
  Endpoint slow = test_endpoint();
  slow.handler = [](const Batch& batch, std::vector<double>* values) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    values->assign(batch.size(), 1.0);
    return OkStatus();
  };
  ASSERT_TRUE(server.register_endpoint(std::move(slow)).ok());
  ASSERT_TRUE(server.start().ok());

  int rejected = 0;
  std::atomic<int> delivered{0};
  for (int i = 0; i < 40; ++i) {
    Request request;
    request.kernel = "test_kernel";
    const Status status =
        server.submit(request, [&](const Response&) { delivered++; });
    if (status.code() == StatusCode::kResourceExhausted) ++rejected;
  }
  server.drain();
  server.stop();
  EXPECT_GT(rejected, 0);  // bounded queue pushed back
  // Every admitted request got exactly one response.
  EXPECT_EQ(delivered.load(), 40 - rejected);
}

TEST(Server, BatchesOutsideTheQueueNeverExceedWorkers) {
  constexpr std::size_t kWorkers = 3;
  constexpr std::size_t kCapacity = 4;
  runtime::KnowledgeBase kb;
  ServerOptions options;
  options.worker_threads = kWorkers;
  options.queue_capacity = kCapacity;
  options.batch.max_batch = 1;
  options.batch.max_wait = std::chrono::microseconds(0);
  // Every handler records how many run at once, then blocks until the
  // gate opens.
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  std::size_t running = 0;
  std::size_t peak = 0;
  std::atomic<std::size_t> delivered{0};
  Endpoint gated = test_endpoint();
  gated.handler = [&](const Batch& batch, std::vector<double>* values) {
    std::unique_lock<std::mutex> lock(mu);
    peak = std::max(peak, ++running);
    cv.notify_all();
    cv.wait(lock, [&] { return open; });
    --running;
    values->assign(batch.size(), 1.0);
    return OkStatus();
  };
  Server server(options, &kb);
  ASSERT_TRUE(server.register_endpoint(std::move(gated)).ok());
  ASSERT_TRUE(server.start().ok());
  const auto submit = [&] {
    Request request;
    request.kernel = "test_kernel";
    return server.submit(request,
                         [&](const Response&) { delivered.fetch_add(1); });
  };

  for (std::size_t i = 0; i < kWorkers; ++i) ASSERT_TRUE(submit().ok());
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return running == kWorkers; });
  }
  // Every worker is blocked in its handler, so nothing may leave the queue:
  // it admits exactly its capacity. The pause after each admission gives
  // anything that pulls work past the queue time to do so.
  std::size_t admitted = 0;
  Status refused;
  for (std::size_t i = 0; i <= kCapacity + 2 * kWorkers && refused.ok(); ++i) {
    const Status status = submit();
    if (!status.ok()) {
      refused = status;
      continue;
    }
    ++admitted;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(admitted, kCapacity);
  EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted);
  {
    std::lock_guard<std::mutex> lock(mu);
    open = true;
  }
  cv.notify_all();
  server.drain();
  server.stop();
  EXPECT_EQ(peak, kWorkers);
  EXPECT_EQ(delivered.load(), kWorkers + admitted);
}

// --------------------------------------------- autotuner load signals

/// `workers` batches executing (the probe's own among them) with `queued`
/// throughput requests behind them, and the SystemState the probe batch
/// must be selected under: waiting = min(ceil(queued / max_batch),
/// workers), fpga_queue_depth = workers + waiting, cpu_load =
/// min(0.95, waiting / (workers + 1)).
struct LoadCase {
  std::size_t workers;
  std::size_t max_batch;
  std::size_t queued;
  double fpga_queue_depth;
  double cpu_load;
};

void PrintTo(const LoadCase& load, std::ostream* os) {
  *os << load.workers << " workers, max_batch " << load.max_batch << ", "
      << load.queued << " queued";
}

class LoadSignalTest : public ::testing::TestWithParam<LoadCase> {};

constexpr double kProbeLatencyUs = 50.0;  // test_endpoint()'s variant

/// Runs one latency-critical probe batch on a `target` variant while every
/// other worker blocks in a handler and `queued` requests wait, and
/// returns the latency the autotuner predicted for it (its execute span's
/// annotation).
double probe_prediction(const LoadCase& load, compiler::TargetKind target) {
  constexpr std::uint64_t kProbeTrace = 77;
  obs::TracerConfig tcfg;
  tcfg.enabled = true;
  obs::Tracer tracer(tcfg);
  std::mutex mu;
  std::condition_variable cv;
  std::size_t blocked = 0;
  std::size_t releases = 0;
  bool probed = false;
  runtime::KnowledgeBase kb;
  ServerOptions options;
  options.worker_threads = load.workers;
  options.queue_capacity = load.queued + 1;
  options.batch.max_batch = load.max_batch;
  options.batch.max_wait = std::chrono::microseconds(0);
  options.tracer = &tracer;
  Endpoint hold = test_endpoint("hold");
  hold.handler = [&](const Batch& batch, std::vector<double>* values) {
    std::unique_lock<std::mutex> lock(mu);
    ++blocked;
    cv.notify_all();
    cv.wait(lock, [&] { return releases > 0; });
    --releases;
    values->assign(batch.size(), 0.0);
    return OkStatus();
  };
  Endpoint probe = test_endpoint("probe");
  probe.variants[0].target = target;
  Server server(options, &kb);
  EXPECT_TRUE(server.register_endpoint(std::move(hold)).ok());
  EXPECT_TRUE(server.register_endpoint(std::move(probe)).ok());
  EXPECT_TRUE(server.register_endpoint(test_endpoint("filler")).ok());
  EXPECT_TRUE(server.start().ok());

  const auto send = [&](const std::string& kernel, SlaClass sla,
                        ResponseCallback on_done) {
    Request request;
    request.kernel = kernel;
    request.sla = sla;
    if (kernel == "probe") request.trace = obs::TraceContext{kProbeTrace, 0};
    EXPECT_TRUE(server.submit(request, std::move(on_done)).ok()) << kernel;
  };
  // One hold request per worker, each pulled alone and blocking.
  for (std::size_t i = 1; i <= load.workers; ++i) {
    send("hold", SlaClass::kThroughput, nullptr);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return blocked == i; });
  }
  for (std::size_t i = 0; i < load.queued; ++i) {
    send("filler", SlaClass::kThroughput, nullptr);
  }
  send("probe", SlaClass::kLatencyCritical, [&](const Response&) {
    std::lock_guard<std::mutex> lock(mu);
    probed = true;
    cv.notify_all();
  });
  // Free one worker: it pulls the probe (the LC lane jumps the queue)
  // while the others stay blocked and the fillers stay queued.
  {
    std::unique_lock<std::mutex> lock(mu);
    ++releases;
    cv.notify_all();
    cv.wait(lock, [&] { return probed; });
    releases += load.workers;
    cv.notify_all();
  }
  server.drain();
  server.stop();

  for (const obs::TraceEvent& event : tracer.collect()) {
    if (event.trace_id != kProbeTrace || event.name != "execute") continue;
    for (const auto& [key, value] : event.annotations) {
      if (key == "predicted_latency_us") return std::stod(value);
    }
  }
  ADD_FAILURE() << "no execute span with a prediction for the probe";
  return 0.0;
}

TEST_P(LoadSignalTest, SelectionSeesExecutingBatchesAndQueuedBatches) {
  const LoadCase& load = GetParam();
  // An FPGA variant's prediction scales with 1 + fpga_queue_depth, a CPU
  // variant's with 1 / (1 - cpu_load).
  const double fpga = probe_prediction(load, compiler::TargetKind::kFpga);
  EXPECT_NEAR(fpga / kProbeLatencyUs - 1.0, load.fpga_queue_depth, 1e-4);
  const double cpu = probe_prediction(load, compiler::TargetKind::kCpu);
  EXPECT_NEAR(1.0 - kProbeLatencyUs / cpu, load.cpu_load, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, LoadSignalTest,
    ::testing::Values(LoadCase{1, 8, 0, 1.0, 0.0},
                      LoadCase{1, 8, 5, 2.0, 0.5},
                      LoadCase{2, 4, 3, 3.0, 1.0 / 3.0},
                      LoadCase{2, 8, 9, 4.0, 2.0 / 3.0},
                      LoadCase{3, 2, 4, 5.0, 0.5},
                      LoadCase{4, 1, 40, 8.0, 0.8}));

// ------------------------------------------------ SLA-mix TEST_P sweep

class SlaMixTest : public ::testing::TestWithParam<double> {};

TEST_P(SlaMixTest, AllRequestsAccountedAtEveryMix) {
  const double lc_fraction = GetParam();
  runtime::KnowledgeBase kb;
  ServerOptions options;
  options.worker_threads = 2;
  options.queue_capacity = 512;
  options.batch.max_batch = 8;
  options.batch.max_wait = std::chrono::microseconds(300);
  Server server(options, &kb);
  ASSERT_TRUE(server.register_endpoint(test_endpoint()).ok());
  ASSERT_TRUE(server.start().ok());

  WorkloadSpec spec;
  spec.kernels = {"test_kernel"};
  spec.offered_rps = 2000.0;
  spec.duration = std::chrono::milliseconds(100);
  spec.lc_fraction = lc_fraction;
  spec.lc_deadline_ms = 0.0;  // no expiry: accounting must be exact
  spec.tp_deadline_ms = 0.0;
  spec.seed = 7;
  const LoadReport report = run_open_loop(server, spec);
  server.stop();

  EXPECT_GT(report.offered, 0u);
  // Conservation: every offered request is exactly one of
  // completed / rejected / failed.
  EXPECT_EQ(report.completed + report.rejected + report.failed,
            report.offered);
  EXPECT_EQ(report.expired, 0u);
  if (lc_fraction == 0.0) {
    EXPECT_TRUE(report.latencies_us[0].empty());
  }
  if (lc_fraction == 1.0) {
    EXPECT_TRUE(report.latencies_us[1].empty());
  }
  const MetricsSnapshot snap = server.metrics().snapshot();
  EXPECT_EQ(snap.completed, report.completed);
  EXPECT_EQ(snap.rejected, report.rejected);
}

INSTANTIATE_TEST_SUITE_P(Mixes, SlaMixTest,
                         ::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0));

// ------------------------------------------- multi-producer smoke test

TEST(Server, EightProducersNoLostOrDuplicatedRequests) {
  runtime::KnowledgeBase kb;
  ServerOptions options;
  options.worker_threads = 4;
  options.queue_capacity = 4096;
  options.batch.max_batch = 16;
  options.batch.max_wait = std::chrono::microseconds(200);
  Server server(options, &kb);
  ASSERT_TRUE(server.register_endpoint(test_endpoint()).ok());
  ASSERT_TRUE(server.start().ok());

  constexpr int kProducers = 8;
  constexpr int kPerProducer = 100;
  std::mutex mu;
  std::multiset<std::uint64_t> seen_seeds;
  std::atomic<int> admitted{0};

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        Request request;
        request.kernel = "test_kernel";
        // Unique seed encodes (producer, index) so duplicates are visible.
        request.seed = static_cast<std::uint64_t>(p) * 1000000 +
                       static_cast<std::uint64_t>(i);
        Status status = server.submit(request, [&](const Response& response) {
          std::lock_guard<std::mutex> lock(mu);
          seen_seeds.insert(response.id);
        });
        if (status.ok()) admitted.fetch_add(1);
      }
    });
  }
  for (std::thread& t : producers) t.join();
  server.drain();
  server.stop();

  // No losses: every admitted request completed. Capacity 4096 > 800, so
  // nothing should have been rejected either.
  EXPECT_EQ(admitted.load(), kProducers * kPerProducer);
  ASSERT_EQ(seen_seeds.size(),
            static_cast<std::size_t>(kProducers * kPerProducer));
  // No duplicates: server-assigned ids are unique.
  std::set<std::uint64_t> unique_ids(seen_seeds.begin(), seen_seeds.end());
  EXPECT_EQ(unique_ids.size(), seen_seeds.size());
}

// ------------------------------------- graceful degradation (breakers)

/// test_endpoint() plus a faster FPGA variant, so selection prefers the
/// FPGA until its breaker trips.
Endpoint dual_variant_endpoint(const std::string& kernel = "dual_kernel") {
  Endpoint ep = test_endpoint(kernel);
  compiler::Variant fpga;
  fpga.id = kernel + "-fpga";
  fpga.kernel = kernel;
  fpga.target = compiler::TargetKind::kFpga;
  fpga.latency_us = 10.0;
  fpga.energy_uj = 20.0;
  ep.variants.push_back(std::move(fpga));
  return ep;
}

TEST(Server, TrippedBreakerDegradesToCpuButKeepsServing) {
  runtime::KnowledgeBase kb;
  ServerOptions options;
  options.worker_threads = 1;
  options.breaker.failure_threshold = 3;
  options.breaker.open_cooldown_us = 1e12;  // no half-open probe in-test
  // Every batch routed to the FPGA variant fails (dead slot model); the
  // CPU variant keeps working.
  options.fault_injector = [](const Batch&, const compiler::Variant& v) {
    if (v.target == compiler::TargetKind::kFpga) {
      return Unavailable("injected: FPGA slot failed");
    }
    return OkStatus();
  };
  Server server(options, &kb);
  ASSERT_TRUE(server.register_endpoint(dual_variant_endpoint()).ok());
  ASSERT_TRUE(server.start().ok());

  std::mutex mu;
  std::vector<Response> responses;
  for (std::uint64_t i = 0; i < 10; ++i) {
    Request request;
    request.kernel = "dual_kernel";
    request.seed = i;
    ASSERT_TRUE(server
                    .submit(request,
                            [&](const Response& response) {
                              std::lock_guard<std::mutex> lock(mu);
                              responses.push_back(response);
                            })
                    .ok());
    server.drain();  // one request per batch: deterministic breaker path
  }
  const bool degraded_mode = server.degraded();
  const int open = server.breakers().open_count("dual_kernel");
  server.stop();

  ASSERT_EQ(responses.size(), 10u);
  std::size_t failed = 0;
  std::size_t degraded_ok = 0;
  for (const Response& response : responses) {
    if (!response.status.ok()) {
      ++failed;
      EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
    } else if (response.degraded) {
      ++degraded_ok;
      EXPECT_EQ(response.variant_id, "dual_kernel-cpu");  // FPGA withheld
    }
  }
  // Three failures trip the FPGA breaker; everything after is served
  // successfully on the CPU fallback, flagged degraded.
  EXPECT_EQ(failed, 3u);
  EXPECT_EQ(degraded_ok, 7u);
  EXPECT_TRUE(degraded_mode);
  EXPECT_EQ(open, 1);
  const MetricsSnapshot snap = server.metrics().snapshot();
  EXPECT_EQ(snap.completed, 7u);
  EXPECT_EQ(snap.failed, 3u);
  EXPECT_EQ(snap.degraded, 7u);
}

TEST(Server, AllVariantsTrippedReturnsUnavailable) {
  runtime::KnowledgeBase kb;
  ServerOptions options;
  options.worker_threads = 1;
  options.breaker.failure_threshold = 2;
  options.breaker.open_cooldown_us = 1e12;
  options.fault_injector = [](const Batch&, const compiler::Variant&) {
    return Unavailable("injected: everything is on fire");
  };
  Server server(options, &kb);
  ASSERT_TRUE(server.register_endpoint(test_endpoint()).ok());
  ASSERT_TRUE(server.start().ok());

  std::mutex mu;
  std::vector<Status> statuses;
  for (std::uint64_t i = 0; i < 6; ++i) {
    Request request;
    request.kernel = "test_kernel";
    request.sla = SlaClass::kLatencyCritical;  // not shed at admission
    ASSERT_TRUE(server
                    .submit(request,
                            [&](const Response& response) {
                              std::lock_guard<std::mutex> lock(mu);
                              statuses.push_back(response.status);
                            })
                    .ok());
    server.drain();
  }
  server.stop();

  ASSERT_EQ(statuses.size(), 6u);
  // First two fail on the variant itself; once its breaker opens, the only
  // variant is withheld and requests answer UNAVAILABLE without running.
  for (const Status& status : statuses) {
    EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  }
  const MetricsSnapshot snap = server.metrics().snapshot();
  EXPECT_EQ(snap.failed, 2u);
  EXPECT_EQ(snap.unavailable, 4u);
  EXPECT_EQ(snap.completed, 0u);
}

TEST(Server, DegradedModeShedsThroughputClassAtAdmission) {
  runtime::KnowledgeBase kb;
  ServerOptions options;
  options.worker_threads = 1;
  options.breaker.failure_threshold = 1;
  options.breaker.open_cooldown_us = 1e12;
  options.degraded_shed_fill = 0.0;  // shed all TP traffic while degraded
  options.fault_injector = [](const Batch&, const compiler::Variant&) {
    return Unavailable("injected");
  };
  Server server(options, &kb);
  ASSERT_TRUE(server.register_endpoint(test_endpoint()).ok());
  ASSERT_TRUE(server.start().ok());

  // One failing request trips the single variant's breaker.
  Request tripper;
  tripper.kernel = "test_kernel";
  tripper.sla = SlaClass::kLatencyCritical;
  ASSERT_TRUE(server.submit(tripper, nullptr).ok());
  server.drain();
  ASSERT_TRUE(server.degraded());

  // Throughput-class traffic now bounces at the front door...
  Request bulk;
  bulk.kernel = "test_kernel";
  bulk.sla = SlaClass::kThroughput;
  EXPECT_EQ(server.submit(bulk, nullptr).code(), StatusCode::kUnavailable);
  // ...while latency-critical traffic is still admitted.
  Request urgent;
  urgent.kernel = "test_kernel";
  urgent.sla = SlaClass::kLatencyCritical;
  EXPECT_TRUE(server.submit(urgent, nullptr).ok());
  server.drain();
  server.stop();
  EXPECT_GE(server.metrics().snapshot().unavailable, 2u);
}

// ------------------------------------------- per-outcome span chains

/// The events of one trace, indexed by name (each name occurs once per
/// request chain).
struct Chain {
  std::map<std::string, obs::TraceEvent> spans;
  std::map<std::string, obs::TraceEvent> instants;
};

Chain chain_of(const std::vector<obs::TraceEvent>& events,
               std::uint64_t trace_id) {
  Chain chain;
  for (const obs::TraceEvent& event : events) {
    if (event.trace_id != trace_id) continue;
    auto& slot = event.kind == obs::TraceEvent::Kind::kSpan ? chain.spans
                                                            : chain.instants;
    EXPECT_TRUE(slot.emplace(event.name, event).second)
        << "trace " << trace_id << " repeats " << event.name;
  }
  return chain;
}

/// Root "request" span plus its "queue" child, common to every outcome:
/// the root parents under the propagated trace context and starts where
/// the queue span starts; the response latency is the root's duration.
void expect_root_and_queue(const Chain& chain, std::uint64_t parent_span,
                           const obs::Annotations& outcome,
                           const Response& response) {
  ASSERT_EQ(chain.spans.count("request"), 1u);
  ASSERT_EQ(chain.spans.count("queue"), 1u);
  const obs::TraceEvent& request = chain.spans.at("request");
  const obs::TraceEvent& queue = chain.spans.at("queue");
  EXPECT_EQ(request.parent_id, parent_span);
  EXPECT_EQ(request.component, "serve");
  EXPECT_EQ(request.annotations, outcome);
  EXPECT_EQ(queue.parent_id, request.span_id);
  EXPECT_EQ(queue.component, "serve");
  EXPECT_TRUE(queue.annotations.empty());
  EXPECT_EQ(queue.start_us, request.start_us);
  EXPECT_LE(queue.start_us, queue.end_us);
  EXPECT_LE(queue.end_us, request.end_us);
  EXPECT_NEAR(response.latency_us, request.duration_us(), 0.01);
}

/// Chain of a request that never reached a handler: queue + root, and an
/// instant named after the outcome where the root ends.
void expect_dropped_chain(const Chain& chain, std::uint64_t parent_span,
                          const std::string& outcome,
                          const Response& response) {
  expect_root_and_queue(chain, parent_span, {{"outcome", outcome}}, response);
  EXPECT_EQ(chain.spans.size(), 2u);
  ASSERT_EQ(chain.instants.size(), 1u);
  ASSERT_EQ(chain.instants.count(outcome), 1u);
  const obs::TraceEvent& instant = chain.instants.at(outcome);
  EXPECT_EQ(instant.component, "serve");
  EXPECT_TRUE(instant.annotations.empty());
  EXPECT_EQ(instant.start_us, chain.spans.at("request").end_us);
}

/// Chain of an executed request: queue → batch → execute → reply tile
/// the root span end to end, each child parented under the root.
void expect_executed_chain(const Chain& chain, std::uint64_t parent_span,
                           const std::string& outcome, const std::string& sla,
                           const std::string& variant,
                           const Response& response) {
  expect_root_and_queue(chain, parent_span,
                        {{"outcome", outcome}, {"sla", sla}}, response);
  ASSERT_EQ(chain.spans.size(), 5u);
  const obs::TraceEvent& request = chain.spans.at("request");
  const obs::TraceEvent& queue = chain.spans.at("queue");
  const obs::TraceEvent& batch = chain.spans.at("batch");
  const obs::TraceEvent& execute = chain.spans.at("execute");
  const obs::TraceEvent& reply = chain.spans.at("reply");
  for (const obs::TraceEvent* child : {&batch, &execute, &reply}) {
    EXPECT_EQ(child->parent_id, request.span_id) << child->name;
    EXPECT_EQ(child->component, "serve") << child->name;
    EXPECT_LE(child->start_us, child->end_us) << child->name;
  }
  EXPECT_EQ(batch.start_us, queue.end_us);
  EXPECT_EQ(execute.start_us, batch.end_us);
  EXPECT_EQ(reply.start_us, execute.end_us);
  EXPECT_EQ(request.end_us, reply.end_us);
  EXPECT_EQ(batch.annotations, (obs::Annotations{{"batch_size", "1"}}));
  EXPECT_TRUE(reply.annotations.empty());
  // The autotuner's decision: the variant, then its prediction.
  ASSERT_EQ(execute.annotations.size(), 4u);
  EXPECT_EQ(execute.annotations[0], (std::pair<std::string, std::string>(
                                        "variant", variant)));
  EXPECT_EQ(execute.annotations[1], (std::pair<std::string, std::string>(
                                        "batch_size", "1")));
  EXPECT_EQ(execute.annotations[2].first, "predicted_latency_us");
  EXPECT_EQ(execute.annotations[3].first, "constraints_met");
}

TEST(Server, EveryOutcomeEmitsItsResponseAndSpanChain) {
  obs::TracerConfig tcfg;
  tcfg.enabled = true;
  obs::Tracer tracer(tcfg);
  runtime::KnowledgeBase kb;
  ServerOptions options;
  options.worker_threads = 1;
  options.tracer = &tracer;
  options.breaker.failure_threshold = 1;
  options.breaker.open_cooldown_us = 1e12;  // no half-open probe in-test
  // FPGA variants always fail (a dead slot), and so does every variant of
  // "lone_kernel": one failure trips its only variant's breaker.
  options.fault_injector = [](const Batch& batch, const compiler::Variant& v) {
    if (v.target == compiler::TargetKind::kFpga ||
        batch.kernel == "lone_kernel") {
      return Unavailable("injected: variant failed");
    }
    return OkStatus();
  };
  Server server(options, &kb);
  ASSERT_TRUE(server.register_endpoint(test_endpoint()).ok());
  ASSERT_TRUE(server.register_endpoint(dual_variant_endpoint()).ok());
  ASSERT_TRUE(server.register_endpoint(test_endpoint("lone_kernel")).ok());
  ASSERT_TRUE(server.start().ok());

  // One request per batch, each on its own propagated trace so its chain
  // is found by trace id and its root parents under trace_id + 1.
  constexpr std::uint64_t kOk = 1'000'000, kExpired = 2'000'000,
                          kFailed = 3'000'000, kDegraded = 4'000'000,
                          kTripLone = 5'000'000, kUnavailable = 6'000'000;
  std::mutex mu;
  std::map<std::uint64_t, Response> responses;
  const auto send = [&](const std::string& kernel, SlaClass sla,
                        std::uint64_t trace_id,
                        Clock::time_point deadline = Clock::time_point::max()) {
    Request request;
    request.kernel = kernel;
    request.sla = sla;
    request.seed = 7;
    request.deadline = deadline;
    request.trace = obs::TraceContext{trace_id, trace_id + 1};
    ASSERT_TRUE(server
                    .submit(request,
                            [&, trace_id](const Response& response) {
                              std::lock_guard<std::mutex> lock(mu);
                              responses[trace_id] = response;
                            })
                    .ok());
    server.drain();
  };
  send("test_kernel", SlaClass::kThroughput, kOk);
  send("test_kernel", SlaClass::kThroughput, kExpired,
       Clock::now() - std::chrono::milliseconds(1));
  send("dual_kernel", SlaClass::kThroughput, kFailed);  // FPGA picked, vetoed
  send("dual_kernel", SlaClass::kLatencyCritical, kDegraded);  // CPU fallback
  send("lone_kernel", SlaClass::kLatencyCritical, kTripLone);
  send("lone_kernel", SlaClass::kLatencyCritical, kUnavailable);
  server.stop();
  const std::vector<obs::TraceEvent> events = tracer.collect();
  ASSERT_EQ(responses.size(), 6u);

  const Response& ok = responses.at(kOk);
  EXPECT_TRUE(ok.status.ok());
  EXPECT_EQ(ok.value, 7.0);
  EXPECT_EQ(ok.batch_size, 1u);
  EXPECT_EQ(ok.variant_id, "test_kernel-cpu");
  EXPECT_FALSE(ok.degraded);
  EXPECT_GT(ok.latency_us, 0.0);
  const Chain ok_chain = chain_of(events, kOk);
  expect_executed_chain(ok_chain, kOk + 1, "ok", "tp", "test_kernel-cpu", ok);
  EXPECT_TRUE(ok_chain.instants.empty());

  const Response& degraded = responses.at(kDegraded);
  EXPECT_TRUE(degraded.status.ok());
  EXPECT_EQ(degraded.value, 7.0);
  EXPECT_EQ(degraded.batch_size, 1u);
  EXPECT_EQ(degraded.variant_id, "dual_kernel-cpu");
  EXPECT_TRUE(degraded.degraded);
  EXPECT_GT(degraded.latency_us, 0.0);
  const Chain degraded_chain = chain_of(events, kDegraded);
  expect_executed_chain(degraded_chain, kDegraded + 1, "degraded", "lc",
                        "dual_kernel-cpu", degraded);
  EXPECT_TRUE(degraded_chain.instants.empty());

  const Response& failed = responses.at(kFailed);
  EXPECT_EQ(failed.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(failed.value, 0.0);
  EXPECT_EQ(failed.batch_size, 1u);
  EXPECT_EQ(failed.variant_id, "dual_kernel-fpga");
  EXPECT_FALSE(failed.degraded);
  EXPECT_GT(failed.latency_us, 0.0);
  const Chain failed_chain = chain_of(events, kFailed);
  expect_executed_chain(failed_chain, kFailed + 1, "failed", "tp",
                        "dual_kernel-fpga", failed);
  ASSERT_EQ(failed_chain.instants.size(), 1u);
  ASSERT_EQ(failed_chain.instants.count("fault-injected"), 1u);
  const obs::TraceEvent& fault = failed_chain.instants.at("fault-injected");
  EXPECT_EQ(fault.component, "resilience");
  EXPECT_EQ(fault.start_us, failed_chain.spans.at("execute").start_us);
  EXPECT_EQ(fault.annotations,
            (obs::Annotations{{"kernel", "dual_kernel"},
                              {"variant", "dual_kernel-fpga"}}));

  const Response& expired = responses.at(kExpired);
  EXPECT_EQ(expired.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(expired.batch_size, 0u);
  EXPECT_EQ(expired.variant_id, "");
  EXPECT_FALSE(expired.degraded);
  EXPECT_GT(expired.latency_us, 0.0);
  const Chain expired_chain = chain_of(events, kExpired);
  expect_dropped_chain(expired_chain, kExpired + 1, "expired", expired);
  EXPECT_EQ(expired_chain.spans.at("queue").end_us,
            expired_chain.spans.at("request").end_us);

  const Response& unavailable = responses.at(kUnavailable);
  EXPECT_EQ(unavailable.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(unavailable.batch_size, 1u);
  EXPECT_EQ(unavailable.variant_id, "");
  EXPECT_FALSE(unavailable.degraded);
  EXPECT_GT(unavailable.latency_us, 0.0);
  expect_dropped_chain(chain_of(events, kUnavailable), kUnavailable + 1,
                       "unavailable", unavailable);

  const MetricsSnapshot snap = server.metrics().snapshot();
  EXPECT_EQ(snap.completed, 2u);  // ok + degraded
  EXPECT_EQ(snap.degraded, 1u);
  EXPECT_EQ(snap.failed, 2u);  // the FPGA veto + the veto tripping lone
  EXPECT_EQ(snap.expired, 1u);
  EXPECT_EQ(snap.unavailable, 1u);
}

// ----------------------------------------- real use-case endpoint smoke

// ---------------------------------------------------------- input cache

TEST(Server, InputCacheWarmsRepeatedDataKeys) {
  runtime::KnowledgeBase kb;
  ServerOptions options;
  options.worker_threads = 1;
  options.batch.max_batch = 1;  // one request per batch: per-request keys
  options.input_cache.capacity_bytes = 8.0 * 1024 * 1024;
  options.input_stage_scale = 0.0;  // account the stall, don't sleep it
  Server server(options, &kb);
  ASSERT_TRUE(server.register_endpoint(test_endpoint()).ok());
  ASSERT_TRUE(server.start().ok());

  for (int i = 0; i < 10; ++i) {
    Request request;
    request.kernel = "test_kernel";
    request.data_key = "tenant-a/hot";  // the same object every time
    request.input_bytes = 64.0 * 1024;
    ASSERT_TRUE(server.submit(request, [](const Response&) {}).ok());
    server.drain();  // serialize batches so the first insert is visible
  }
  server.stop();
  const MetricsSnapshot snap = server.metrics().snapshot();
  EXPECT_EQ(snap.input_misses, 1u);  // only the first read paid the link
  EXPECT_EQ(snap.input_hits, 9u);
  EXPECT_GT(snap.input_hit_rate(), 0.85);
  EXPECT_GT(snap.input_stall_us, 0.0);
}

TEST(Server, ColdInputPathMissesEveryTime) {
  runtime::KnowledgeBase kb;
  ServerOptions options;
  options.worker_threads = 1;
  options.batch.max_batch = 1;
  // Default input_cache capacity is 0: the cold path, every keyed
  // request pays its input transfer.
  options.input_stage_scale = 0.0;
  Server server(options, &kb);
  ASSERT_TRUE(server.register_endpoint(test_endpoint()).ok());
  ASSERT_TRUE(server.start().ok());

  for (int i = 0; i < 5; ++i) {
    Request request;
    request.kernel = "test_kernel";
    request.data_key = "tenant-a/hot";
    request.input_bytes = 64.0 * 1024;
    ASSERT_TRUE(server.submit(request, [](const Response&) {}).ok());
  }
  server.drain();
  server.stop();
  const MetricsSnapshot snap = server.metrics().snapshot();
  EXPECT_EQ(snap.input_hits, 0u);
  EXPECT_GE(snap.input_misses, 1u);
  EXPECT_DOUBLE_EQ(snap.input_hit_rate(), 0.0);
}

TEST(Server, UnkeyedRequestsSkipInputStaging) {
  runtime::KnowledgeBase kb;
  ServerOptions options;
  options.worker_threads = 1;
  options.input_cache.capacity_bytes = 8.0 * 1024 * 1024;
  Server server(options, &kb);
  ASSERT_TRUE(server.register_endpoint(test_endpoint()).ok());
  ASSERT_TRUE(server.start().ok());
  for (int i = 0; i < 5; ++i) {
    Request request;
    request.kernel = "test_kernel";  // no data_key
    ASSERT_TRUE(server.submit(request, [](const Response&) {}).ok());
  }
  server.drain();
  server.stop();
  const MetricsSnapshot snap = server.metrics().snapshot();
  EXPECT_EQ(snap.input_hits + snap.input_misses, 0u);
  EXPECT_DOUBLE_EQ(snap.input_stall_us, 0.0);
}

TEST(Endpoints, StandardEndpointsServeRealWork) {
  runtime::KnowledgeBase kb;
  ServerOptions options;
  options.worker_threads = 2;
  options.batch.max_batch = 4;
  Server server(options, &kb);
  for (Endpoint& ep : standard_endpoints()) {
    ASSERT_TRUE(server.register_endpoint(std::move(ep)).ok());
  }
  ASSERT_TRUE(server.start().ok());
  EXPECT_EQ(kb.kernels().size(), 3u);

  std::mutex mu;
  std::map<std::string, std::vector<double>> values_by_kernel;
  const std::vector<std::string> kernels = {"energy_forecast",
                                            "aq_dispersion", "ptdr_route"};
  for (std::uint64_t i = 0; i < 12; ++i) {
    Request request;
    request.kernel = kernels[i % kernels.size()];
    request.seed = 1000 + i;
    const std::string kernel = request.kernel;
    ASSERT_TRUE(server
                    .submit(request,
                            [&, kernel](const Response& response) {
                              ASSERT_TRUE(response.status.ok())
                                  << response.status.to_string();
                              std::lock_guard<std::mutex> lock(mu);
                              values_by_kernel[kernel].push_back(
                                  response.value);
                            })
                    .ok());
  }
  server.drain();
  server.stop();

  ASSERT_EQ(values_by_kernel.size(), 3u);
  for (double mw : values_by_kernel["energy_forecast"]) {
    EXPECT_GT(mw, 0.0);  // some wind somewhere
  }
  for (double p : values_by_kernel["aq_dispersion"]) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);  // exceedance probability
  }
  for (double s : values_by_kernel["ptdr_route"]) {
    EXPECT_GT(s, 0.0);  // median route time in seconds
  }
}

// ------------------------------------------------------- graceful drain

TEST(Server, GracefulDrainSealsAdmissionAndDeliversEveryAdmitted) {
  runtime::KnowledgeBase kb;
  ServerOptions options;
  options.queue_capacity = 1024;
  options.worker_threads = 2;
  options.batch.max_batch = 4;
  Server server(options, &kb);
  ASSERT_TRUE(server.register_endpoint(test_endpoint()).ok());
  ASSERT_TRUE(server.start().ok());

  // Four producers hammer the server; each exits on the first UNAVAILABLE
  // (the drain seal), like a client whose connection got a GOAWAY.
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> delivered{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0;; ++i) {
        Request request;
        request.kernel = "test_kernel";
        request.seed = static_cast<std::uint64_t>(p) * 100000 + i;
        Status st = server.submit(std::move(request), [&](const Response&) {
          delivered.fetch_add(1, std::memory_order_relaxed);
        });
        if (st.code() == StatusCode::kUnavailable) return;  // sealed
        if (st.ok()) accepted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const std::uint64_t drained = server.drain_gracefully();
  EXPECT_TRUE(server.draining());
  for (std::thread& t : producers) t.join();

  // Everything admitted was delivered by the time the drain returned;
  // nothing snuck in after.
  EXPECT_EQ(delivered.load(), accepted.load());
  EXPECT_GT(delivered.load(), 0u);
  EXPECT_GT(drained, 0u);  // the drain overlapped in-flight work

  // Sealed: a fresh submit bounces without firing its callback.
  Request late;
  late.kernel = "test_kernel";
  bool fired = false;
  EXPECT_EQ(server.submit(std::move(late),
                          [&](const Response&) { fired = true; })
                .code(),
            StatusCode::kUnavailable);
  EXPECT_FALSE(fired);

  // resume_admission reopens the front door (the rejoin path).
  server.resume_admission();
  EXPECT_FALSE(server.draining());
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Request fresh;
  fresh.kernel = "test_kernel";
  fresh.seed = 123;
  ASSERT_TRUE(server
                  .submit(std::move(fresh),
                          [&](const Response& response) {
                            EXPECT_TRUE(response.status.ok());
                            EXPECT_EQ(response.value, 123.0);
                            std::lock_guard<std::mutex> lock(mu);
                            done = true;
                            cv.notify_one();
                          })
                  .ok());
  std::unique_lock<std::mutex> lock(mu);
  cv.wait_for(lock, std::chrono::seconds(10), [&] { return done; });
  EXPECT_TRUE(done);
  server.stop();
}

TEST(Server, GracefulDrainOnIdleServerReturnsZero) {
  runtime::KnowledgeBase kb;
  Server server(ServerOptions{}, &kb);
  ASSERT_TRUE(server.register_endpoint(test_endpoint()).ok());
  ASSERT_TRUE(server.start().ok());
  EXPECT_EQ(server.drain_gracefully(), 0u);
  server.resume_admission();
  server.stop();
  // Not running: a no-op, not a hang.
  EXPECT_EQ(server.drain_gracefully(), 0u);
}

TEST(Server, DrainResumeHammerDeliversNothingWhileSealed) {
  runtime::KnowledgeBase kb;
  ServerOptions options;
  options.worker_threads = 2;
  options.batch.max_wait = std::chrono::microseconds(0);  // prompt delivery
  // Declared before the server so they outlive every callback.
  std::atomic<bool> sealed{false};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> late{0};
  std::array<std::atomic<std::uint64_t>, 3> replies{};
  Server server(options, &kb);
  ASSERT_TRUE(server.register_endpoint(test_endpoint()).ok());
  ASSERT_TRUE(server.start().ok());

  // Closed-loop producers, one request outstanding each, so the server is
  // often idle when a seal lands while a submit is mid-admission.
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < replies.size(); ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t sent = 0; !stop.load();) {
        Request request;
        request.kernel = "test_kernel";
        request.seed = sent;
        const Status st = server.submit(request, [&, p](const Response&) {
          if (sealed.load()) late.fetch_add(1);
          replies[p].fetch_add(1);
          replies[p].notify_one();
        });
        if (!st.ok()) {
          std::this_thread::yield();  // sealed: retry after the resume
          continue;
        }
        ++sent;
        for (std::uint64_t seen; (seen = replies[p].load()) < sent;) {
          replies[p].wait(seen);
        }
      }
    });
  }
  // After drain_gracefully() returns, every admitted request has been
  // delivered, so no callback may fire until admission resumes.
  for (int cycle = 0; cycle < 3000; ++cycle) {
    (void)server.drain_gracefully();
    sealed.store(true);
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    sealed.store(false);
    server.resume_admission();
  }
  stop.store(true);
  for (std::thread& t : producers) t.join();
  server.stop();
  EXPECT_EQ(late.load(), 0u);
  EXPECT_GT(replies[0].load() + replies[1].load() + replies[2].load(), 0u);
}

// ------------------------------------------- loadgen submit-fn plumbing

/// Test double standing in for a server/cluster: replies inline and
/// records every data key per submitting thread-agnostic stream.
struct RecordingTarget {
  std::mutex mu;
  std::vector<std::string> keys;
  std::atomic<bool> drained{false};

  SubmitFn submit_fn() {
    return [this](Request request, ResponseCallback on_done) {
      {
        std::lock_guard<std::mutex> lock(mu);
        if (!request.data_key.empty()) keys.push_back(request.data_key);
      }
      Response response;
      response.status = OkStatus();
      response.value = static_cast<double>(request.seed % 1000);
      response.latency_us = 10.0;
      on_done(response);
      return OkStatus();
    };
  }
  DrainFn drain_fn() {
    return [this] { drained.store(true); };
  }
};

TEST(LoadGen, SubmitFnTargetsGetTheSameTrafficContract) {
  RecordingTarget target;
  WorkloadSpec spec;
  spec.kernels = {"k"};
  spec.offered_rps = 2000.0;
  spec.duration = std::chrono::milliseconds(50);
  spec.num_data_objects = 8;
  const LoadReport report =
      run_open_loop(target.submit_fn(), target.drain_fn(), spec);
  EXPECT_EQ(report.completed, report.offered);  // inline OK replies
  EXPECT_GT(report.completed, 0u);
  EXPECT_TRUE(target.drained.load());  // drain hook ran after the horizon
}

TEST(LoadGen, KeyNamerAndPerClientStrideSeparateHotSets) {
  RecordingTarget target;
  WorkloadSpec spec;
  spec.kernels = {"k"};
  spec.duration = std::chrono::milliseconds(60);
  spec.num_data_objects = 8;
  spec.zipf_skew = 1.2;
  spec.per_client_key_stride = 4;  // client c's rank 0 -> object 4c % 8
  spec.key_namer = [](int client, std::size_t index) {
    return "c" + std::to_string(client) + "-obj" + std::to_string(index);
  };
  const LoadReport report = run_closed_loop(
      target.submit_fn(), target.drain_fn(), spec, /*clients=*/2);
  EXPECT_GT(report.completed, 0u);

  std::set<std::string> distinct(target.keys.begin(), target.keys.end());
  bool saw_c0 = false;
  bool saw_c1 = false;
  for (const std::string& key : distinct) {
    if (key.rfind("c0-", 0) == 0) saw_c0 = true;
    if (key.rfind("c1-", 0) == 0) saw_c1 = true;
  }
  // Both clients generated traffic under their own key namespace.
  EXPECT_TRUE(saw_c0);
  EXPECT_TRUE(saw_c1);
}

TEST(LoadGen, DefaultKeyNamingIsUnchanged) {
  RecordingTarget target;
  WorkloadSpec spec;
  spec.kernels = {"k"};
  spec.offered_rps = 2000.0;
  spec.duration = std::chrono::milliseconds(40);
  spec.num_data_objects = 4;
  (void)run_open_loop(target.submit_fn(), target.drain_fn(), spec);
  ASSERT_FALSE(target.keys.empty());
  for (const std::string& key : target.keys) {
    EXPECT_EQ(key.rfind("obj", 0), 0u) << key;  // "obj<rank>" as before
  }
}

}  // namespace
}  // namespace everest::serve
