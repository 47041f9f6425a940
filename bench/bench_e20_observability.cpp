// E20 — observability: overhead and fidelity of the unified tracing +
// metrics layer (src/obs).
//
// Series A: cost of a *disabled* span call site — the price every hot
//           path pays for having tracing compiled in. Acceptance: <10 ns.
// Series B: the E17 serving sweep replayed with tracing on. Every
//           admitted request must leave one complete span chain
//           (admission → queue → batch → execute → reply), parentage
//           must be acyclic, and the registry histogram's p99 (what
//           ServingMetrics reports) must agree with the exact client-side
//           p99 of the same OK responses within one bucket width. The
//           trace exports as Chrome trace-event JSON
//           (load it in Perfetto / chrome://tracing).
// Series C: the E8 workflow strong-scaling sweep replayed with sim-time
//           tracing on, plus one chaos point (data plane + node crash)
//           — tracing must not perturb the simulation (byte-identical
//           makespans) and the trace must carry the fault instants.
//
// `--smoke` shrinks the sweeps and self-checks all criteria via the
// exit code.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "data/plane.hpp"
#include "obs/obs.hpp"
#include "resilience/fault_plan.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"
#include "workflow/scheduler.hpp"
#include "workflow/task_graph.hpp"

#include "smoke.hpp"

using namespace everest;
using namespace everest::serve;
using namespace everest::workflow;

namespace {

constexpr std::uint64_t kSeed = 2026;

/// Builds a fresh server (and knowledge base) for one sweep point.
struct Service {
  runtime::KnowledgeBase kb;
  Server server;
  Service(ServerOptions options, const std::vector<Endpoint>& endpoints)
      : server(options, &kb) {
    for (const Endpoint& ep : endpoints) {
      Status st = server.register_endpoint(ep);
      if (!st.ok()) std::printf("register failed: %s\n", st.to_string().c_str());
    }
    (void)server.start();
  }
};

/// Nanoseconds per disabled-span call site, best of `repeats` timed
/// loops (the best run is the one least disturbed by the scheduler). The
/// loop starts on a 64-byte boundary: its cost moves by ~20% with where
/// it falls relative to 32-byte fetch blocks, which code-size changes
/// anywhere in the binary shift, so an unpinned loop would measure code
/// placement as well as the call site.
[[gnu::optimize("align-loops=64")]] double disabled_span_ns(int repeats,
                                                          int iters) {
  obs::Tracer tracer;  // default config: disabled
  double best = 1e9;
  for (int r = 0; r < repeats; ++r) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      obs::Tracer::ScopedSpan s = tracer.scoped("noop", "bench");
      // Keep the span object observable so the loop is not deleted.
      asm volatile("" : : "r"(&s) : "memory");
    }
    const auto end = std::chrono::steady_clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(end - start).count() /
        static_cast<double>(iters);
    best = std::min(best, ns);
  }
  return best;
}

std::size_t count_roots(const std::vector<obs::TraceEvent>& events,
                        const char* name) {
  std::size_t n = 0;
  for (const auto& ev : events) {
    if (ev.kind == obs::TraceEvent::Kind::kSpan && ev.parent_id == 0 &&
        ev.name == name) {
      ++n;
    }
  }
  return n;
}

std::size_t count_named(const std::vector<obs::TraceEvent>& events,
                        const char* name) {
  std::size_t n = 0;
  for (const auto& ev : events) {
    if (ev.name == name) ++n;
  }
  return n;
}

/// Serializes + re-parses the trace through common/json and writes it to
/// `path`. Returns false when the round trip fails.
bool export_and_validate(const std::vector<obs::TraceEvent>& events,
                         const char* path) {
  const std::string text = obs::chrome_trace(events);
  auto parsed = json::parse(text);
  if (!parsed.ok()) {
    std::printf("trace JSON re-parse failed: %s\n",
                parsed.status().to_string().c_str());
    return false;
  }
  if (!parsed->contains("traceEvents") ||
      parsed->at("traceEvents").as_array().empty()) {
    std::printf("trace JSON has no traceEvents\n");
    return false;
  }
  std::ofstream out(path);
  out << text;
  std::printf("wrote %s (%zu events, %zu bytes)\n", path, events.size(),
              text.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = everest::bench::smoke_mode(argc, argv);
  everest::bench::SmokeChecker checker;

  std::printf("=== E20: observability — tracing overhead and fidelity ===\n\n");

  // --- Series A: disabled-span overhead ----------------------------------
  std::printf("--- cost of a disabled span call site ---\n");
  const double ns = disabled_span_ns(/*repeats=*/5, smoke ? 2000000 : 5000000);
  std::printf("disabled scoped span: %.2f ns per call site (budget: 10 ns)\n\n",
              ns);
  checker.check(ns < 10.0, "disabled span call site costs <10 ns");

  // --- Series B: E17 serving sweep with tracing on ------------------------
  std::printf("--- E17 replay: mixed-SLA serving with request tracing ---\n");
  const auto horizon = std::chrono::milliseconds(smoke ? 120 : 400);
  const std::vector<Endpoint> endpoints = standard_endpoints();
  Table s2({"offered rps", "admitted", "request roots", "span events",
            "exact p99 ms", "hist p99 ms", "bucket width ms"});
  std::vector<obs::TraceEvent> serving_events;
  std::string registry_text;
  const std::vector<double> offered_sweep =
      smoke ? std::vector<double>{300.0, 800.0}
            : std::vector<double>{300.0, 800.0, 1600.0};
  for (double offered : offered_sweep) {
    obs::TracerConfig tcfg;
    tcfg.enabled = true;
    tcfg.ring_capacity = 1 << 16;
    obs::Tracer tracer(tcfg);

    ServerOptions options;
    options.worker_threads = 2;
    options.queue_capacity = 128;
    options.batch.max_batch = 8;
    options.batch.lc_max_batch = 2;
    options.batch.max_wait = std::chrono::microseconds(2000);
    options.tracer = &tracer;
    Service service(options, endpoints);

    WorkloadSpec spec;
    spec.kernels = {"energy_forecast", "aq_dispersion", "ptdr_route"};
    spec.offered_rps = offered;
    spec.duration = horizon;
    spec.lc_fraction = 0.3;
    spec.lc_deadline_ms = 50.0;
    spec.tp_deadline_ms = 500.0;
    spec.seed = kSeed;
    const LoadReport report = run_open_loop(service.server, spec);
    const MetricsSnapshot snap = service.server.metrics().snapshot();
    const obs::HistogramSnapshot hist =
        service.server.metrics().latency_histogram();
    registry_text = service.server.metrics().registry().to_text();
    service.server.stop();

    const std::vector<obs::TraceEvent> events = tracer.collect();
    const std::size_t roots = count_roots(events, "request");
    const double hist_p99 = hist.percentile(99.0);
    const double width = hist.bucket_width_at(99.0);
    s2.add_row({fmt_double(offered, 0), std::to_string(snap.admitted),
                std::to_string(roots), std::to_string(events.size()),
                fmt_double(report.p99_us() / 1e3, 2),
                fmt_double(hist_p99 / 1e3, 2),
                fmt_double(width / 1e3, 2)});

    checker.check(tracer.dropped() == 0, "serving trace dropped no events");
    checker.check(obs::spans_acyclic(events), "serving span parentage acyclic");
    checker.check(obs::span_chains_complete(events),
                  "serving span chains complete");
    checker.check(roots == snap.admitted,
                  "every admitted request has a root span");
    checker.check(std::abs(hist_p99 - report.p99_us()) <= width,
                  "histogram p99 within 1 bucket of exact client-side p99");
    serving_events = events;
  }
  std::printf("%s\n", s2.render().c_str());
  checker.check(export_and_validate(serving_events, "e20_serving_trace.json"),
                "serving Chrome trace is valid JSON");
  std::printf("each admitted request renders as queue/batch/execute/reply\n"
              "children under one root span; drops, rejects, and injected\n"
              "faults show up as instants on the worker tracks.\n\n");

  // --- Series C: E8 workflow scaling with sim-time tracing -----------------
  std::printf("--- E8 replay: strong scaling with per-task sim-time spans ---\n");
  Rng rng(3);
  TaskGraph graph = TaskGraph::random_layered(10, 64, 3, rng, 2e8, 1e6);
  Table s3({"workers", "makespan (ms)", "traced makespan (ms)", "span events"});
  const std::vector<std::size_t> pools =
      smoke ? std::vector<std::size_t>{1, 4, 16}
            : std::vector<std::size_t>{1, 2, 4, 8, 16, 32};
  for (std::size_t n : pools) {
    std::vector<WorkerSpec> workers;
    for (std::size_t i = 0; i < n; ++i) {
      workers.push_back({"w" + std::to_string(i), 10.0, 1.0, 10.0});
    }
    SimulationOptions base;
    base.scheduler = SchedulerKind::kHeft;
    auto plain = simulate_schedule(graph, workers, base);

    obs::TracerConfig tcfg;
    tcfg.enabled = true;
    obs::Tracer tracer(tcfg);
    SimulationOptions traced = base;
    traced.tracer = &tracer;
    auto with_trace = simulate_schedule(graph, workers, traced);

    if (!checker.check(plain.ok() && with_trace.ok(),
                       "workflow simulations run")) {
      continue;
    }
    const std::vector<obs::TraceEvent> events = tracer.collect();
    s3.add_row({std::to_string(n), fmt_double(plain->makespan_us / 1e3, 1),
                fmt_double(with_trace->makespan_us / 1e3, 1),
                std::to_string(events.size())});
    checker.check(plain->makespan_us == with_trace->makespan_us,
                  "tracing does not perturb the simulation");
    checker.check(tracer.dropped() == 0, "workflow trace dropped no events");
    checker.check(obs::spans_acyclic(events),
                  "workflow span parentage acyclic");
    checker.check(obs::span_chains_complete(events),
                  "workflow span chains complete");
    checker.check(!events.empty(), "workflow trace non-empty");
  }
  std::printf("%s\n", s3.render().c_str());

  // One chaos point: work stealing + data plane + a node crash, so the
  // trace carries transfer spans and fault instants end to end.
  std::printf("--- chaos point: work stealing + data plane + node crash ---\n");
  {
    obs::TracerConfig tcfg;
    tcfg.enabled = true;
    obs::Tracer tracer(tcfg);

    data::PlaneConfig plane;
    plane.cache_bytes = 32.0 * 1024 * 1024;
    resilience::FaultPlan chaos;
    chaos.crash(0, 5e4, 1e5);

    SimulationOptions options;
    options.scheduler = SchedulerKind::kWorkStealing;
    options.data_plane = &plane;
    options.prefetch_depth = 2;
    options.fault_plan = &chaos;
    options.abort_on_retry_exhaustion = false;
    options.tracer = &tracer;
    std::vector<WorkerSpec> workers;
    for (std::size_t i = 0; i < 8; ++i) {
      workers.push_back({"w" + std::to_string(i), 10.0, 1.0, 10.0});
    }
    auto outcome = simulate_schedule(graph, workers, options);
    if (checker.check(outcome.ok(), "chaos simulation runs")) {
      const std::vector<obs::TraceEvent> events = tracer.collect();
      std::printf("makespan %.1f ms, %zu events: %zu transfer spans, "
                  "%zu crash / %zu detect / %zu recompute instants\n",
                  outcome->makespan_us / 1e3, events.size(),
                  count_named(events, "xfer"), count_named(events, "crash"),
                  count_named(events, "detect"),
                  count_named(events, "recompute"));
      checker.check(tracer.dropped() == 0, "chaos trace dropped no events");
      checker.check(obs::spans_acyclic(events), "chaos span parentage acyclic");
      checker.check(obs::span_chains_complete(events),
                    "chaos span chains complete");
      checker.check(count_named(events, "crash") >= 1,
                    "crash instant present in trace");
      checker.check(count_named(events, "xfer") >= 1,
                    "data-plane transfer spans present in trace");
      checker.check(export_and_validate(events, "e20_workflow_trace.json"),
                    "workflow Chrome trace is valid JSON");
    }
  }

  // A taste of the registry export the serving layer now carries.
  std::printf("\n--- serving metrics registry (flat text export, head) ---\n");
  std::size_t printed = 0, pos = 0;
  while (printed < 10 && pos < registry_text.size()) {
    const std::size_t eol = registry_text.find('\n', pos);
    if (eol == std::string::npos) break;
    std::printf("%s\n", registry_text.substr(pos, eol - pos).c_str());
    pos = eol + 1;
    ++printed;
  }

  std::printf("\nE20 done.\n");
  if (smoke) return checker.report("E20");
  return checker.failures() == 0 ? everest::bench::kExitOk
                                 : everest::bench::kExitCriterionFailed;
}
