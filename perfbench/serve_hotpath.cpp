// serve_hotpath: one serve::Server whose two kernels do nothing, so every
// microsecond a request spends goes to the serve framework itself —
// admission, the two-lane queue and its kernel-compatible pops, the
// batcher, dispatcher backpressure, the pool hand-off, metrics and the
// reply. One thread keeps 64 requests outstanding (closed loop) over a
// fixed request count.
#include <memory>

#include "requests.hpp"
#include "runtime/knowledge.hpp"
#include "serve/server.hpp"

namespace perfbench {
namespace {

using everest::compiler::TargetKind;
using everest::compiler::Variant;

constexpr int kWorkers = 2;
constexpr double kLcFraction = 0.2;
const std::array<std::string, 2> kKernels = {"noop_a", "noop_b"};

Variant noop_variant(const std::string& kernel, const std::string& name,
                     TargetKind target, double latency_us) {
  Variant v;
  v.id = kernel + "-" + name;
  v.kernel = kernel;
  v.target = target;
  v.latency_us = latency_us;
  v.energy_uj = latency_us * 10.0;
  if (target == TargetKind::kFpga) v.device = "cloudFPGA-KU060";
  return v;
}

/// A kernel that does no work: each request's value is its seed % 1000.
serve::Endpoint noop_endpoint(const std::string& kernel) {
  serve::Endpoint ep;
  ep.kernel = kernel;
  ep.variants = {noop_variant(kernel, "cpu-t1", TargetKind::kCpu, 2.0),
                 noop_variant(kernel, "cpu-t4", TargetKind::kCpu, 1.0),
                 noop_variant(kernel, "fpga-ku060", TargetKind::kFpga, 0.5)};
  ep.handler = [](const serve::Batch& batch, std::vector<double>* values) {
    values->clear();
    for (const serve::PendingRequest& pending : batch.requests) {
      values->push_back(static_cast<double>(pending.request.seed % 1000));
    }
    return everest::OkStatus();
  };
  return ep;
}

/// The system under test. The knowledge base outlives the server.
class HotpathSystem final : public RequestSystem {
 public:
  bool start(RequestLedger* ledger, LayerProbe* probe) {
    serve::ServerOptions options;
    options.worker_threads = kWorkers;
    options.batch.max_batch = 8;
    options.batch.lc_max_batch = 2;
    options.batch.max_wait = std::chrono::microseconds(50);
    server_ = std::make_unique<serve::Server>(options, &kb_);
    for (const std::string& kernel : kKernels) {
      serve::Endpoint ep = noop_endpoint(kernel);
      if (probe != nullptr) {
        ep = wrap_endpoint(std::move(ep), kNoop, ledger, probe);
      }
      if (!server_->register_endpoint(std::move(ep)).ok()) return false;
    }
    return server_->start().ok();
  }

  everest::Status submit(serve::Request request,
                         serve::ResponseCallback done) override {
    return server_->submit(std::move(request), std::move(done));
  }
  void before_timed() override { before_ = server_->metrics().snapshot(); }
  void after_timed(PhaseResult* result) override {
    const serve::MetricsSnapshot after = server_->metrics().snapshot();
    result->layer["serve.rejected"] =
        static_cast<double>(after.rejected - before_.rejected);
    result->layer["serve.expired"] =
        static_cast<double>(after.expired - before_.expired);
  }

 private:
  everest::runtime::KnowledgeBase kb_;
  std::unique_ptr<serve::Server> server_;
  serve::MetricsSnapshot before_;
};

}  // namespace

PhaseResult run_serve_hotpath(const PhaseConfig& config) {
  std::atomic<std::uint64_t> wrong_values{0};
  RequestWorkload w;
  w.build = [](RequestLedger* ledger,
               LayerProbe* probe) -> std::unique_ptr<RequestSystem> {
    auto system = std::make_unique<HotpathSystem>();
    if (!system->start(ledger, probe)) return nullptr;
    return system;
  };
  w.draw = [](std::uint64_t seq, Rng& rng) {
    Drawn drawn;
    serve::Request& r = drawn.request;
    r.kernel = kKernels[rng.below(kKernels.size())];
    r.sla = rng.uniform() < kLcFraction ? serve::SlaClass::kLatencyCritical
                                        : serve::SlaClass::kThroughput;
    r.payload_scale = 0.5 + rng.uniform();
    r.seed = request_seed(seq, rng);
    drawn.kernel = kNoop;
    return drawn;
  };
  w.check = [&wrong_values](const RequestLedger::Sent& sent,
                            const serve::Response& response) {
    if (response.value != static_cast<double>(sent.seed % 1000)) {
      wrong_values.fetch_add(1, std::memory_order_relaxed);
    }
  };
  w.finish_checks = [&wrong_values](PhaseResult* result) {
    if (wrong_values.load() != 0) {
      result->check_failures.push_back(std::to_string(wrong_values.load()) +
                                       " no-op values differ from seed % 1000");
    }
    result->notes.push_back("check: every no-op value == seed % 1000");
  };
  // Left to the scheduler, the rate flipped between ~90k and ~140-250k
  // requests/s from one run, or one slice of a run, to the next,
  // depending on which threads shared a CPU.
  w.cpus = 1;
  w.warmup_requests = 20'000;
  w.warmup_window = 64;
  // About the framework's rate on one CPU, so a run lasts about
  // --seconds; the count is fixed for a given argument.
  w.requests_per_second = 150'000.0;
  w.window = 64;
  w.submit_metric = "serve.submit_us";
  w.workers = kWorkers;
  w.kernels = {kNoop};
  return run_requests(w, config);
}

}  // namespace perfbench
