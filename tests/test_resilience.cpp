// Tests for src/resilience and its integration with the workflow
// scheduler: fault plans (determinism included), phi-accrual failure
// detection, retry/backoff, circuit breakers, lineage recomputation, and
// chaos simulations (crash recovery, retry rerouting, speculation,
// partitions, degraded links, availability accounting). The headline
// guarantee — same seed + same FaultPlan ⇒ byte-identical event trace —
// is asserted over every fault kind.
#include <gtest/gtest.h>

#include "resilience/circuit_breaker.hpp"
#include "resilience/detector.hpp"
#include "resilience/fault_plan.hpp"
#include "resilience/lineage.hpp"
#include "resilience/retry.hpp"
#include "workflow/scheduler.hpp"
#include "workflow/task_graph.hpp"

namespace everest::resilience {
namespace {

using workflow::SchedulerKind;
using workflow::SimulationOptions;
using workflow::TaskGraph;
using workflow::WorkerSpec;

std::vector<WorkerSpec> workers(std::size_t n, double gflops = 10.0) {
  std::vector<WorkerSpec> out;
  for (std::size_t i = 0; i < n; ++i) {
    WorkerSpec w;
    w.name = "w" + std::to_string(i);
    w.gflops = gflops;
    w.link_gbps = 1.0;
    w.link_latency_us = 10.0;
    out.push_back(std::move(w));
  }
  return out;
}

/// t0 and t1 in parallel, t2 joins both (forces one cross-worker
/// transfer on two workers).
TaskGraph join_graph(double bytes = 1e6) {
  TaskGraph g;
  const auto a = g.add_task({"a", 1e9, bytes, "", {}});
  const auto b = g.add_task({"b", 1e9, bytes, "", {}});
  g.add_task({"join", 1e9, 0.0, "", {a, b}});
  return g;
}

// -------------------------------------------------------------- FaultPlan

TEST(FaultPlan, BuilderKeepsEventsSortedByTime) {
  FaultPlan plan;
  plan.crash(1, 5e5, 1e4).straggler(0, 1e5, 2e5, 4.0).partition(2, 3e5, 1e4);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.events()[0].kind, FaultKind::kStraggler);
  EXPECT_EQ(plan.events()[1].kind, FaultKind::kLinkPartition);
  EXPECT_EQ(plan.events()[2].kind, FaultKind::kNodeCrash);
}

TEST(FaultPlan, CoversAndSeverityQueries) {
  FaultPlan plan;
  plan.straggler(0, 100.0, 200.0, 4.0)
      .straggler(FaultEvent::kAllTargets, 150.0, 100.0, 2.0)
      .transient_errors(1, 0.0, 50.0, 0.25);
  // Outside any window: nominal.
  EXPECT_DOUBLE_EQ(plan.severity(FaultKind::kStraggler, 0, 50.0), 1.0);
  // One covering window.
  EXPECT_DOUBLE_EQ(plan.severity(FaultKind::kStraggler, 0, 120.0), 4.0);
  // Overlapping windows compose multiplicatively.
  EXPECT_DOUBLE_EQ(plan.severity(FaultKind::kStraggler, 0, 160.0), 8.0);
  // kAllTargets hits every worker.
  EXPECT_DOUBLE_EQ(plan.severity(FaultKind::kStraggler, 2, 160.0), 2.0);
  // Probability kinds use the max, not the product.
  EXPECT_DOUBLE_EQ(plan.max_magnitude(FaultKind::kTransientError, 1, 25.0),
                   0.25);
  EXPECT_DOUBLE_EQ(plan.max_magnitude(FaultKind::kTransientError, 0, 25.0),
                   0.0);
  // window_end reports the heal time of an active window.
  EXPECT_DOUBLE_EQ(plan.window_end(FaultKind::kStraggler, 0, 120.0), 300.0);
  EXPECT_DOUBLE_EQ(plan.window_end(FaultKind::kStraggler, 0, 10.0), 10.0);
}

TEST(FaultPlan, RandomPlanIsSeedReproducible) {
  ChaosSpec spec;
  spec.horizon_us = 1e6;
  spec.crash_rate_per_s = 4.0;
  spec.degrade_rate_per_s = 3.0;
  spec.straggler_rate_per_s = 3.0;
  spec.transient_error_probability = 0.1;
  const FaultPlan a = FaultPlan::random(spec, 99, 4);
  const FaultPlan b = FaultPlan::random(spec, 99, 4);
  const FaultPlan c = FaultPlan::random(spec, 100, 4);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a.to_string(), b.to_string());
  EXPECT_NE(a.to_string(), c.to_string());
}

TEST(FaultPlan, ToStringNamesEveryKind) {
  for (FaultKind kind :
       {FaultKind::kNodeCrash, FaultKind::kLinkDegrade,
        FaultKind::kLinkPartition, FaultKind::kStraggler,
        FaultKind::kTransientError, FaultKind::kReconfigFail}) {
    EXPECT_NE(to_string(kind), "?");
  }
  FaultEvent e;
  e.kind = FaultKind::kNodeCrash;
  EXPECT_NE(e.to_string().find("crash"), std::string::npos);
}

// --------------------------------------------------------------- Detector

TEST(PhiAccrual, PhiGrowsWithSilence) {
  PhiAccrualDetector d(1000.0);
  d.heartbeat(0.0);
  d.heartbeat(1000.0);
  d.heartbeat(2000.0);
  EXPECT_LT(d.phi(2500.0), 1.0);      // half an interval of silence
  EXPECT_GT(d.phi(2000.0 + 25000.0), 8.0);  // long silence: surely dead
  // A fresh heartbeat resets the suspicion.
  d.heartbeat(30000.0);
  EXPECT_LT(d.phi(30100.0), 0.5);
}

TEST(HealthRegistry, DetectsDeathOnceAndRevivesOnHeartbeat) {
  HealthRegistry reg(2, 1000.0, /*suspect_phi=*/3.0, /*dead_phi=*/8.0);
  for (double t = 0; t <= 5000.0; t += 1000.0) {
    reg.heartbeat(0, t);
    reg.heartbeat(1, t);
  }
  // Worker 1 goes silent; worker 0 keeps beating.
  std::vector<std::size_t> died;
  for (double t = 6000.0; t <= 60000.0; t += 1000.0) {
    reg.heartbeat(0, t);
    for (std::size_t w : reg.update(t)) died.push_back(w);
  }
  ASSERT_EQ(died.size(), 1u);  // reported dead exactly once
  EXPECT_EQ(died[0], 1u);
  EXPECT_EQ(reg.health(1), Health::kDead);
  EXPECT_FALSE(reg.dispatchable(1));
  EXPECT_TRUE(reg.dispatchable(0));
  EXPECT_EQ(reg.healthy_count(), 1u);
  // Restarted worker announces itself and is healthy again.
  reg.heartbeat(1, 61000.0);
  EXPECT_EQ(reg.health(1), Health::kHealthy);
  EXPECT_TRUE(reg.update(61000.0).empty());
}

TEST(HealthRegistry, SuspectedBeforeDead) {
  HealthRegistry reg(1, 1000.0, 3.0, 8.0);
  for (double t = 0; t <= 3000.0; t += 1000.0) reg.heartbeat(0, t);
  // phi = 0.434 * silence/1000: suspect at ~6.9k us, dead at ~18.4k us.
  reg.update(3000.0 + 8000.0);
  EXPECT_EQ(reg.health(0), Health::kSuspected);
  reg.update(3000.0 + 25000.0);
  EXPECT_EQ(reg.health(0), Health::kDead);
}

// ------------------------------------------------------------ RetryPolicy

TEST(RetryPolicy, ExponentialBackoffWithCapAndJitter) {
  RetryPolicy policy;
  policy.base_delay_us = 100.0;
  policy.multiplier = 2.0;
  policy.max_delay_us = 500.0;
  policy.jitter = 0.25;
  Rng rng(7);
  for (int attempt = 1; attempt <= 5; ++attempt) {
    const double base =
        std::min(policy.max_delay_us, 100.0 * std::pow(2.0, attempt - 1));
    const double d = policy.delay_us(attempt, rng);
    EXPECT_GE(d, base * 0.75) << attempt;
    EXPECT_LE(d, base * 1.25) << attempt;
  }
}

TEST(RetryPolicy, ShouldRetryHonoursBudgetAndCode) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  EXPECT_TRUE(policy.should_retry(1, StatusCode::kUnavailable));
  EXPECT_TRUE(policy.should_retry(2, StatusCode::kAborted));
  EXPECT_FALSE(policy.should_retry(3, StatusCode::kUnavailable));  // spent
  EXPECT_FALSE(policy.should_retry(1, StatusCode::kInvalidArgument));
  EXPECT_FALSE(policy.should_retry(1, StatusCode::kInternal));
}

// --------------------------------------------------------- CircuitBreaker

TEST(CircuitBreaker, ClosedOpenHalfOpenCycle) {
  BreakerPolicy policy;
  policy.failure_threshold = 3;
  policy.open_cooldown_us = 1000.0;
  CircuitBreaker breaker(policy);
  EXPECT_TRUE(breaker.allow(0.0));
  breaker.record_failure(0.0);
  breaker.record_failure(1.0);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.record_failure(2.0);  // third consecutive failure trips it
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.trips(), 1);
  EXPECT_FALSE(breaker.allow(500.0));  // cooling down
  // Cooldown elapsed: exactly one probe is let through.
  EXPECT_TRUE(breaker.allow(1500.0));
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_FALSE(breaker.allow(1500.0));  // second caller still blocked
  breaker.record_success(1600.0);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_TRUE(breaker.allow(1700.0));
}

TEST(CircuitBreaker, HalfOpenFailureReopens) {
  BreakerPolicy policy;
  policy.failure_threshold = 1;
  policy.open_cooldown_us = 100.0;
  CircuitBreaker breaker(policy);
  breaker.record_failure(0.0);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_TRUE(breaker.allow(200.0));  // probe
  breaker.record_failure(200.0);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.trips(), 2);
  EXPECT_FALSE(breaker.allow(250.0));
}

TEST(CircuitBreaker, SuccessResetsConsecutiveCount) {
  BreakerPolicy policy;
  policy.failure_threshold = 2;
  CircuitBreaker breaker(policy);
  breaker.record_failure(0.0);
  breaker.record_success(1.0);  // streak broken
  breaker.record_failure(2.0);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.record_failure(3.0);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
}

TEST(CircuitBreakerBoard, TracksScopesIndependently) {
  BreakerPolicy policy;
  policy.failure_threshold = 1;
  policy.open_cooldown_us = 1e9;
  CircuitBreakerBoard board(policy);
  EXPECT_TRUE(board.allow("node0", "fpga-v1", 0.0));
  board.record("node0", "fpga-v1", /*success=*/false, 0.0);
  EXPECT_FALSE(board.allow("node0", "fpga-v1", 1.0));
  EXPECT_TRUE(board.allow("node1", "fpga-v1", 1.0));  // other scope intact
  EXPECT_TRUE(board.allow("node0", "cpu-v1", 1.0));   // other variant intact
  EXPECT_EQ(board.state("node0", "fpga-v1"), BreakerState::kOpen);
  EXPECT_EQ(board.open_count("node0"), 1);
  EXPECT_EQ(board.open_count("node1"), 0);
  EXPECT_EQ(board.open_count(), 1);
  EXPECT_EQ(board.total_trips(), 1);
}

// ---------------------------------------------------------------- Lineage

TEST(Lineage, RecomputesLostOutputsNeededByIncompleteConsumers) {
  // a → b → c, all of a..b done, c incomplete; outputs of a and b lost.
  const std::vector<std::vector<std::size_t>> deps{{}, {0}, {1}};
  const std::vector<char> done{1, 1, 0};
  const std::vector<char> lost{1, 1, 0};
  const auto rec = recompute_closure(deps, done, lost);
  EXPECT_EQ(rec, (std::vector<std::size_t>{0, 1}));
}

TEST(Lineage, LostOutputWithOnlyCompletedConsumersIsNotRebuilt) {
  // a → b, both done, only a's output lost: b doesn't need it anymore.
  const std::vector<std::vector<std::size_t>> deps{{}, {0}};
  const std::vector<char> done{1, 1};
  const std::vector<char> lost{1, 0};
  EXPECT_TRUE(recompute_closure(deps, done, lost).empty());
}

TEST(Lineage, LostSinkOutputIsAlwaysRebuilt) {
  // The final result of the workflow was lost: recompute it.
  const std::vector<std::vector<std::size_t>> deps{{}, {0}};
  const std::vector<char> done{1, 1};
  const std::vector<char> lost{0, 1};
  EXPECT_EQ(recompute_closure(deps, done, lost),
            (std::vector<std::size_t>{1}));
}

TEST(Lineage, RecomputationPullsInLostTransitiveInputs) {
  // diamond: a → {b, c} → d; d incomplete, b's and a's outputs lost.
  const std::vector<std::vector<std::size_t>> deps{{}, {0}, {0}, {1, 2}};
  const std::vector<char> done{1, 1, 1, 0};
  const std::vector<char> lost{1, 1, 0, 0};
  const auto rec = recompute_closure(deps, done, lost);
  EXPECT_EQ(rec, (std::vector<std::size_t>{0, 1}));
}

// ------------------------------------------------- chaos simulation tests

TEST(ChaosSim, CrashRecoveryRecomputesAndFinishes) {
  TaskGraph g = TaskGraph::pipeline(4, 1, 1e9, 0.0);  // 4-stage chain
  SimulationOptions opts;
  opts.scheduler = SchedulerKind::kFifo;
  auto clean = workflow::simulate_schedule(g, workers(2), opts);
  ASSERT_TRUE(clean.ok());

  FaultPlan plan;
  plan.crash(0, 1.5e5, 1e5);  // mid-stage-2 crash, 100 ms downtime
  opts.fault_plan = &plan;
  auto outcome = workflow::simulate_schedule(g, workers(2), opts);
  ASSERT_TRUE(outcome.ok()) << outcome.status().to_string();
  EXPECT_EQ(outcome->tasks_completed, 4u);
  EXPECT_DOUBLE_EQ(outcome->availability(), 1.0);
  EXPECT_EQ(outcome->lost_executions, 1u);     // stage 1 was running
  EXPECT_EQ(outcome->recomputed_tasks, 1u);    // stage 0's output was lost
  EXPECT_GT(outcome->makespan_us, clean->makespan_us);
  ASSERT_EQ(outcome->detection_latency_us.size(), 1u);
  // phi-accrual at dead_phi 8 with 1 ms heartbeats: ~18.4 ms of silence.
  EXPECT_GT(outcome->detection_latency_us[0], 1.5e4);
  EXPECT_LT(outcome->detection_latency_us[0], 3e4);
  ASSERT_EQ(outcome->recovery_us.size(), 1u);
  EXPECT_GT(outcome->recovery_us[0], outcome->detection_latency_us[0]);
}

TEST(ChaosSim, RetryReroutesToHealthyWorkerInsteadOfPinning) {
  TaskGraph g;
  g.add_task({"only", 1e9, 0.0, "", {}});
  FaultPlan plan;
  plan.transient_errors(0, 0.0, 1e12, 1.0);  // worker 0 always fails

  SimulationOptions pinned;
  pinned.scheduler = SchedulerKind::kFifo;
  pinned.fault_plan = &plan;
  pinned.retry_strategy = workflow::RetryStrategy::kSameWorker;
  auto naive = workflow::simulate_schedule(g, workers(2), pinned);
  // Pinned to the broken worker, the task burns its whole retry budget.
  ASSERT_FALSE(naive.ok());
  EXPECT_EQ(naive.status().code(), StatusCode::kResourceExhausted);

  SimulationOptions rerouted = pinned;
  rerouted.retry_strategy = workflow::RetryStrategy::kAnyHealthy;
  auto healed = workflow::simulate_schedule(g, workers(2), rerouted);
  ASSERT_TRUE(healed.ok()) << healed.status().to_string();
  EXPECT_EQ(healed->retries, 1u);          // one failure, then rerouted
  EXPECT_EQ(healed->assignment[0], 1u);    // finished on the healthy worker
  EXPECT_DOUBLE_EQ(healed->availability(), 1.0);
}

TEST(ChaosSim, SpeculationBeatsStraggler) {
  TaskGraph g;
  g.add_task({"slow", 1e9, 0.0, "", {}});
  FaultPlan plan;
  plan.straggler(0, 0.0, 5e6, 20.0);  // worker 0 is 20x slow
  SimulationOptions opts;
  opts.scheduler = SchedulerKind::kFifo;
  opts.fault_plan = &plan;
  opts.speculation_factor = 2.0;
  auto outcome = workflow::simulate_schedule(g, workers(2), opts);
  ASSERT_TRUE(outcome.ok()) << outcome.status().to_string();
  EXPECT_EQ(outcome->speculative_launches, 1u);
  EXPECT_EQ(outcome->speculative_wins, 1u);
  EXPECT_EQ(outcome->executions, 2u);
  // Nominal 1e5 us; straggled copy would take 2e6 us. The backup launched
  // at ~2e5 us finishes at ~3e5 us.
  EXPECT_LT(outcome->makespan_us, 5e5);
  EXPECT_EQ(outcome->assignment[0], 1u);
}

TEST(ChaosSim, PartitionBlocksTransferUntilHealed) {
  TaskGraph g = join_graph();
  SimulationOptions opts;
  opts.scheduler = SchedulerKind::kFifo;
  auto clean = workflow::simulate_schedule(g, workers(2), opts);
  ASSERT_TRUE(clean.ok());

  FaultPlan plan;
  plan.partition(1, 0.0, 3e5);  // worker 1 unreachable until 300 ms
  opts.fault_plan = &plan;
  auto outcome = workflow::simulate_schedule(g, workers(2), opts);
  ASSERT_TRUE(outcome.ok()) << outcome.status().to_string();
  // The join's input from worker 1 can't move before the partition heals.
  EXPECT_GT(outcome->makespan_us, 3e5 + 1e5 - 1.0);
  EXPECT_GT(outcome->makespan_us, clean->makespan_us);
  EXPECT_EQ(outcome->tasks_completed, 3u);
}

TEST(ChaosSim, DegradedLinkStretchesTransfers) {
  TaskGraph g = join_graph();
  SimulationOptions opts;
  opts.scheduler = SchedulerKind::kFifo;
  auto clean = workflow::simulate_schedule(g, workers(2), opts);
  ASSERT_TRUE(clean.ok());

  FaultPlan plan;
  plan.degrade_link(1, 0.0, 1e6, 50.0);
  opts.fault_plan = &plan;
  auto outcome = workflow::simulate_schedule(g, workers(2), opts);
  ASSERT_TRUE(outcome.ok());
  // ~1 ms nominal transfer becomes ~50 ms.
  EXPECT_GT(outcome->makespan_us, clean->makespan_us + 4e4);
  EXPECT_DOUBLE_EQ(outcome->bytes_transferred, clean->bytes_transferred);
}

TEST(ChaosSim, ExhaustedRetriesFailClosureWhenAbortDisabled) {
  TaskGraph g = TaskGraph::pipeline(4, 1, 1e9, 0.0);
  FaultPlan plan;
  plan.transient_errors(FaultEvent::kAllTargets, 0.0, 1e12, 1.0);
  SimulationOptions opts;
  opts.scheduler = SchedulerKind::kFifo;
  opts.fault_plan = &plan;
  opts.abort_on_retry_exhaustion = false;
  auto outcome = workflow::simulate_schedule(g, workers(2), opts);
  ASSERT_TRUE(outcome.ok()) << outcome.status().to_string();
  // Stage 0 exhausts its budget; descendants can never run either.
  EXPECT_EQ(outcome->tasks_completed, 0u);
  EXPECT_EQ(outcome->tasks_failed, 4u);
  EXPECT_DOUBLE_EQ(outcome->availability(), 0.0);
  EXPECT_EQ(outcome->retries, 3u);  // max_retries attempts on stage 0
}

// ------------------------------------- byte-identical trace determinism

struct TracePlanCase {
  const char* name;
  FaultKind kind;
};

class TraceDeterminism : public ::testing::TestWithParam<TracePlanCase> {};

FaultPlan plan_for(FaultKind kind) {
  FaultPlan plan;
  switch (kind) {
    case FaultKind::kNodeCrash:
      plan.crash(0, 5e4, 5e4).crash(2, 1.2e5, 3e4);
      break;
    case FaultKind::kLinkDegrade:
      plan.degrade_link(0, 0.0, 2e5, 8.0);
      break;
    case FaultKind::kLinkPartition:
      plan.partition(0, 5e4, 1e5);
      break;
    case FaultKind::kStraggler:
      plan.straggler(1, 0.0, 2e5, 6.0);
      break;
    case FaultKind::kTransientError:
      plan.transient_errors(FaultEvent::kAllTargets, 0.0, 2e5, 0.3);
      break;
    case FaultKind::kReconfigFail:
      plan.reconfig_failure(0, 0.0, 2e5, 0.5);
      break;
    case FaultKind::kDiskIoError:
    case FaultKind::kDiskIoFull:
    case FaultKind::kDiskIoCorrupt:
    case FaultKind::kDiskIoSlow:
      // Disk faults act on storage::Env, which the workflow simulator
      // never touches: the plan stays empty.
      break;
  }
  return plan;
}

std::string joined_trace(const workflow::ScheduleOutcome& outcome) {
  std::string all;
  for (const std::string& line : outcome.trace) {
    all += line;
    all += '\n';
  }
  return all;
}

TEST_P(TraceDeterminism, SameSeedAndPlanGiveByteIdenticalTraces) {
  Rng rng(11);
  TaskGraph g = TaskGraph::random_layered(4, 6, 3, rng);
  const FaultPlan plan = plan_for(GetParam().kind);
  SimulationOptions opts;
  opts.scheduler = SchedulerKind::kWorkStealing;
  opts.fault_plan = &plan;
  opts.seed = 42;
  opts.max_retries = 8;
  opts.abort_on_retry_exhaustion = false;
  opts.speculation_factor = 1.5;
  opts.record_trace = true;

  auto first = workflow::simulate_schedule(g, workers(3), opts);
  auto second = workflow::simulate_schedule(g, workers(3), opts);
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  ASSERT_TRUE(second.ok());
  ASSERT_FALSE(first->trace.empty());
  EXPECT_EQ(joined_trace(*first), joined_trace(*second));
  EXPECT_DOUBLE_EQ(first->makespan_us, second->makespan_us);
  EXPECT_EQ(first->executions, second->executions);
  EXPECT_EQ(first->retries, second->retries);
}

TEST(TraceDeterminismExtra, DifferentSeedsDivergeUnderTransientErrors) {
  Rng rng(11);
  TaskGraph g = TaskGraph::random_layered(4, 6, 3, rng);
  const FaultPlan plan = plan_for(FaultKind::kTransientError);
  SimulationOptions opts;
  opts.scheduler = SchedulerKind::kWorkStealing;
  opts.fault_plan = &plan;
  opts.max_retries = 8;
  opts.abort_on_retry_exhaustion = false;
  opts.record_trace = true;
  opts.seed = 1;
  auto a = workflow::simulate_schedule(g, workers(3), opts);
  opts.seed = 2;
  auto b = workflow::simulate_schedule(g, workers(3), opts);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(joined_trace(*a), joined_trace(*b));
}

INSTANTIATE_TEST_SUITE_P(
    AllFaultKinds, TraceDeterminism,
    ::testing::Values(TracePlanCase{"crash", FaultKind::kNodeCrash},
                      TracePlanCase{"degrade", FaultKind::kLinkDegrade},
                      TracePlanCase{"partition", FaultKind::kLinkPartition},
                      TracePlanCase{"straggler", FaultKind::kStraggler},
                      TracePlanCase{"transient", FaultKind::kTransientError}),
    [](const ::testing::TestParamInfo<TracePlanCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace everest::resilience
