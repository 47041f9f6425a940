#include "requests.hpp"

#include <thread>

namespace perfbench {

const std::array<const char*, kKernelCount> kKernelMetricNames = {
    "noop", "energy_forecast", "aq_dispersion", "ptdr_route"};

bool RequestLedger::open(std::uint64_t seq, const Sent& sent) {
  Entry& e = at(seq);
  if (e.tag.load(std::memory_order_acquire) % 2 == 1) return false;
  e.ref_ns.store(sent.ref_ns, std::memory_order_relaxed);
  e.seed.store(sent.seed, std::memory_order_relaxed);
  e.info.store(static_cast<std::uint32_t>(sent.kernel) << 1 | (sent.lc ? 1 : 0),
               std::memory_order_relaxed);
  e.submit_ret_ns.store(0, std::memory_order_relaxed);
  e.handler_ret_ns.store(0, std::memory_order_relaxed);
  e.tag.store(2 * seq + 1, std::memory_order_release);
  return true;
}

void RequestLedger::cancel(std::uint64_t seq) {
  at(seq).tag.store(2 * seq + 2, std::memory_order_release);
}

bool RequestLedger::complete(std::uint64_t seq, Sent* out) {
  Entry& e = at(seq);
  out->ref_ns = e.ref_ns.load(std::memory_order_relaxed);
  out->seed = e.seed.load(std::memory_order_relaxed);
  const std::uint32_t info = e.info.load(std::memory_order_relaxed);
  out->lc = (info & 1) != 0;
  out->kernel = static_cast<int>(info >> 1);
  std::uint64_t expected = 2 * seq + 1;
  return e.tag.compare_exchange_strong(expected, 2 * seq + 2,
                                       std::memory_order_acq_rel);
}

serve::Endpoint wrap_endpoint(serve::Endpoint endpoint, int kernel,
                              RequestLedger* ledger, LayerProbe* probe) {
  serve::BatchHandler inner = std::move(endpoint.handler);
  endpoint.handler = [inner, kernel, ledger, probe](
                         const serve::Batch& batch,
                         std::vector<double>* values) {
    const std::int64_t entry = now_ns();
    const bool armed = probe->armed.load(std::memory_order_relaxed);
    if (armed) {
      for (const serve::PendingRequest& pending : batch.requests) {
        // A handler entered before submit() returned waited 0 after it.
        const std::int64_t ret =
            ledger->submit_return(seq_of(pending.request.seed));
        probe->pre_handler_us.record(
            ret == 0 ? 0.0 : static_cast<double>(std::max<std::int64_t>(
                                 0, entry - ret)) / 1e3);
      }
    }
    const everest::Status status = inner(batch, values);
    const std::int64_t exit = now_ns();
    for (const serve::PendingRequest& pending : batch.requests) {
      ledger->stamp_handler_return(seq_of(pending.request.seed), exit);
    }
    if (armed) {
      probe->handler_us[kernel].record(static_cast<double>(exit - entry) / 1e3);
      probe->batches.fetch_add(1, std::memory_order_relaxed);
      probe->batched_requests.fetch_add(batch.size(),
                                        std::memory_order_relaxed);
      probe->busy_ns.fetch_add(exit - entry, std::memory_order_relaxed);
    }
    return status;
  };
  return endpoint;
}

RequestClient::RequestClient(SubmitFn submit, RequestLedger* ledger,
                             LayerProbe* probe, CheckFn check,
                             SlicedLatency* latency)
    : submit_(std::move(submit)),
      ledger_(ledger),
      probe_(probe),
      check_(std::move(check)),
      latency_(latency) {}

double RequestClient::elapsed_s() const {
  std::int64_t end = 0;
  for (const Slice& s : slices_) end = std::max(end, s.end_ns.load());
  return seconds_between(slices_[0].start_ns, end);
}

double RequestClient::throughput_per_s(
    const std::vector<std::size_t>& slices) const {
  std::uint64_t ok = 0;
  double seconds = 0.0;
  for (const std::size_t i : slices) {
    const Slice& s = slices_[i];
    ok += s.ok.load();
    seconds += seconds_between(s.start_ns, s.end_ns.load());
  }
  return seconds > 0.0 ? static_cast<double>(ok) / seconds : 0.0;
}

bool RequestClient::send(std::uint64_t seq, Drawn drawn, std::int64_t ref_ns,
                         std::int64_t due_ns) {
  const std::size_t index = slice_of(seq - first_seq_, count_);
  if (slices_[index].start_ns == 0) {
    slices_[index].start_ns = ref_ns;
    steal.mark(index);
  }
  serve::Request& request = drawn.request;
  const bool lc = request.sla == serve::SlaClass::kLatencyCritical;
  const double deadline_us = lc ? lc_deadline_us : tp_deadline_us;
  if (deadline_us > 0.0) {
    request.deadline = Clock::time_point(std::chrono::nanoseconds(
        due_ns + static_cast<std::int64_t>(deadline_us * 1e3)));
  }
  ++attempted;
  if (!ledger_->open(seq, {ref_ns, request.seed, lc, drawn.kernel})) {
    failures.push_back("more than " + std::to_string(RequestLedger::kSize) +
                       " requests outstanding");
    return false;
  }
  outstanding_.fetch_add(1, std::memory_order_relaxed);
  const std::int64_t t0 = time_submit ? now_ns() : 0;
  const everest::Status admitted = submit_(
      std::move(request),
      [this, seq](const serve::Response& response) { on_done(seq, response); });
  if (time_submit) {
    const std::int64_t t1 = now_ns();
    ledger_->stamp_submit_return(seq, t1);
    submit_us.record(static_cast<double>(t1 - t0) / 1e3);
  }
  if (!admitted.ok()) {
    ++rejected;
    ledger_->cancel(seq);
    outstanding_.fetch_sub(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

void RequestClient::on_done(std::uint64_t seq,
                            const serve::Response& response) {
  const std::int64_t t = now_ns();
  RequestLedger::Sent sent;
  if (!ledger_->complete(seq, &sent)) {
    duplicates.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::size_t index = slice_of(seq - first_seq_, count_);
  Slice& slice = slices_[index];
  if (response.status.ok()) {
    if (latency_ != nullptr) {
      latency_->record(index, static_cast<double>(t - sent.ref_ns) / 1e3,
                       sent.lc);
    }
    slice.ok.fetch_add(1, std::memory_order_relaxed);
    if (response.variant_id.find("fpga") != std::string::npos) {
      fpga.fetch_add(1, std::memory_order_relaxed);
    }
    if (probe_ != nullptr && probe_->armed.load(std::memory_order_relaxed)) {
      const std::int64_t handler_ret = ledger_->handler_return(seq);
      if (handler_ret != 0) {
        probe_->post_handler_us.record(
            static_cast<double>(t - handler_ret) / 1e3);
      }
    }
    check_(sent, response);
    ok.fetch_add(1, std::memory_order_relaxed);
  } else {
    not_ok.fetch_add(1, std::memory_order_relaxed);
  }
  std::int64_t last = slice.end_ns.load(std::memory_order_relaxed);
  while (last < t && !slice.end_ns.compare_exchange_weak(last, t)) {
  }
  outstanding_.fetch_sub(1, std::memory_order_release);
  window_.release();
}

void RequestClient::closed_loop(std::uint64_t first_seq, std::uint64_t count,
                                std::size_t window, const Draw& draw) {
  first_seq_ = first_seq;
  count_ = count;
  window_.release(static_cast<std::ptrdiff_t>(window));
  for (std::uint64_t i = 0; i < count && failures.empty(); ++i) {
    // An untimed acquire: libstdc++'s timed semaphore waits poll, which
    // would throttle the generator.
    window_.acquire();
    const std::uint64_t seq = first_seq + i;
    const std::int64_t t = now_ns();
    if (!send(seq, draw(seq), t, t)) window_.release();
  }
  wait_all();
  steal.mark(kSlices);
  // Return the window's permits so a later loop starts from zero.
  while (window_.try_acquire()) {
  }
}

void RequestClient::open_loop(std::uint64_t first_seq, std::uint64_t count,
                              double rate_per_s, const Draw& draw, Rng& gaps) {
  first_seq_ = first_seq;
  count_ = count;
  const double mean_gap_ns = 1e9 / rate_per_s;
  double due = static_cast<double>(now_ns());
  for (std::uint64_t i = 0; i < count && failures.empty(); ++i) {
    const std::uint64_t seq = first_seq + i;
    Drawn drawn = draw(seq);
    const auto due_ns = static_cast<std::int64_t>(due);
    late_us.record(static_cast<double>(wait_until(due_ns)) / 1e3);
    send(seq, std::move(drawn), due_ns, due_ns);
    due += gaps.exponential(mean_gap_ns);
  }
  wait_all();
  steal.mark(kSlices);
  while (window_.try_acquire()) {
  }
}

void RequestClient::wait_all() {
  const std::int64_t give_up = now_ns() + 60'000'000'000LL;
  while (outstanding_.load(std::memory_order_acquire) > 0) {
    if (now_ns() > give_up) {
      failures.push_back(
          std::to_string(outstanding_.load()) +
          " admitted requests never called back within 60 s");
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

PhaseResult run_requests(const RequestWorkload& workload,
                         const PhaseConfig& config) {
  const std::vector<int> cpus = use_cpus(workload.cpus);
  std::optional<KeepAwake> awake;
  if (workload.keep_awake) awake.emplace(cpus);
  PhaseResult result;
  RequestLedger ledger;
  auto probe = config.traced ? std::make_unique<LayerProbe>() : nullptr;
  // The timed run's histograms (~3 MB) are allocated once, before the
  // system: allocated per client, they moved peak RSS by 3 MB steps.
  auto latency = std::make_unique<SlicedLatency>();
  auto make_client = [&](RequestSystem& system, SlicedLatency* sliced) {
    return std::make_unique<RequestClient>(
        [&system](serve::Request r, serve::ResponseCallback cb) {
          return system.submit(std::move(r), std::move(cb));
        },
        &ledger, probe.get(), workload.check, sliced);
  };
  // Clients are declared before the system so the system stops (and
  // delivers every callback) before any client goes away.
  std::unique_ptr<RequestClient> warmup;
  std::unique_ptr<RequestClient> timed;
  std::unique_ptr<RequestSystem> system;

  for (int s = 0; s < config.setups; ++s) {
    system.reset();
    const std::int64_t t0 = now_ns();
    system = workload.build(&ledger, probe.get());
    if (system == nullptr) {
      result.check_failures.push_back("set-up failed");
      return result;
    }
    // The warm-up calibrates the knowledge bases, fills the input caches
    // and touches memory with the timed run's request mix.
    Rng rng(config.seed ^ 0x5e7c0ffee0000000ULL ^ static_cast<std::uint64_t>(s));
    warmup = make_client(*system, nullptr);
    warmup->closed_loop(
        warmup_seq_base(s), workload.warmup_requests, workload.warmup_window,
        [&](std::uint64_t seq) { return workload.draw(seq, rng); });
    result.setup_s.push_back(seconds_between(t0, now_ns()));
    for (const std::string& f : warmup->failures) {
      result.check_failures.push_back("warm-up: " + f);
    }
  }

  system->before_timed();
  Rng rng(config.seed);
  const Draw draw = [&](std::uint64_t seq) { return workload.draw(seq, rng); };
  const auto count = static_cast<std::uint64_t>(workload.requests_per_second *
                                                config.seconds);
  timed = make_client(*system, latency.get());
  timed->steal = StealMeter(cpus);
  timed->time_submit = config.traced;
  timed->lc_deadline_us = workload.lc_deadline_us;
  timed->tp_deadline_us = workload.tp_deadline_us;
  if (probe != nullptr) probe->armed.store(true);
  if (workload.window > 0) {
    timed->closed_loop(kTimedSeqBase, count, workload.window, draw);
  } else {
    Rng gaps(config.seed ^ 0x6a95ULL);
    const PreciseTimers precise;
    timed->open_loop(kTimedSeqBase, count, workload.requests_per_second, draw,
                     gaps);
  }
  if (probe != nullptr) probe->armed.store(false);
  result.peak_rss_mb = peak_rss_mb();
  system->after_timed(&result);

  const RequestClient& c = *timed;
  result.timed_s = c.elapsed_s();
  result.attempted = c.attempted;
  result.failed = c.attempted - c.ok.load();
  const std::vector<std::size_t> calm = c.steal.calm_slices();
  result.throughput_per_s = c.throughput_per_s(calm);
  result.latency = latency->all(calm);
  result.lc_latency = latency->lc(calm);
  result.notes.push_back(latency->describe(calm));
  result.notes.push_back(c.steal.describe());
  for (const std::string& f : c.failures) result.check_failures.push_back(f);
  if (c.duplicates.load() != 0) {
    result.check_failures.push_back(std::to_string(c.duplicates.load()) +
                                    " duplicate or unknown callbacks");
  }
  result.notes.push_back("check: " +
                         std::to_string(c.ok.load() + c.not_ok.load()) +
                         " callbacks for " +
                         std::to_string(c.attempted - c.rejected) +
                         " admitted requests");
  workload.finish_checks(&result);

  auto& layer = result.layer;
  layer["runtime.fpga_variant_frac"] = ratio(c.fpga.load(), c.ok.load());
  if (workload.window == 0) {
    layer["loadgen.late_p99_us"] = c.late_us.percentile(99.0);
    result.layer_samples["loadgen.late_p99_us"] = c.late_us.count();
  }
  if (probe != nullptr) {
    put_percentiles(result, workload.submit_metric, c.submit_us);
    put_percentiles(result, "serve.pre_handler_us", probe->pre_handler_us);
    put_percentiles(result, "serve.post_handler_us", probe->post_handler_us);
    for (const int k : workload.kernels) {
      put_percentiles(result,
                      std::string("apps.handler_us.") + kKernelMetricNames[k],
                      probe->handler_us[k]);
    }
    const std::uint64_t batches = probe->batches.load();
    layer["serve.batches"] = static_cast<double>(batches);
    layer["serve.batch_size.mean"] =
        ratio(probe->batched_requests.load(), batches);
    layer["apps.busy_frac"] = static_cast<double>(probe->busy_ns.load()) /
                              1e9 / (result.timed_s * workload.workers);
  }
  system.reset();
  return result;
}

}  // namespace perfbench
