// The request-side harness shared by serve_hotpath and usecase_federation:
// a fixed ring of per-request records, the closed- and open-loop clients
// that drive serve::Server::submit or cluster::Federation::submit, the
// handler wrapper the traced run registers around each endpoint, and the
// set-up / timed-run / report sequence both workloads share.
#pragma once

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <semaphore>
#include <string>
#include <vector>

#include "harness.hpp"
#include "serve/endpoints.hpp"
#include "serve/request.hpp"

namespace perfbench {

namespace serve = everest::serve;

/// Request seeds carry the harness's sequence number above bit 20, so the
/// handler wrapper can find a request's record; the low bits are seeded
/// randomness, and the handlers derive their inputs from the whole seed.
inline std::uint64_t request_seed(std::uint64_t seq, Rng& rng) {
  return (seq << 20) | (rng.next() & 0xFFFFF);
}
inline std::uint64_t seq_of(std::uint64_t seed) { return seed >> 20; }

/// Timed runs number their requests from here, so their inputs do not
/// depend on how many set-ups ran before them.
constexpr std::uint64_t kTimedSeqBase = std::uint64_t{1} << 40;
inline std::uint64_t warmup_seq_base(int setup) {
  return static_cast<std::uint64_t>(setup) << 32;
}

/// Per-request records in a ring indexed by sequence number. Enforces
/// "exactly one callback per admitted request": a callback for a request
/// that is not outstanding is counted as a duplicate.
class RequestLedger {
 public:
  static constexpr std::size_t kSize = 1 << 16;

  struct Sent {
    std::int64_t ref_ns = 0;  ///< latency origin: submit or due time
    std::uint64_t seed = 0;
    bool lc = false;
    int kernel = 0;
  };

  /// Records a request about to be submitted; false when its slot still
  /// holds an outstanding request (more than kSize in flight).
  bool open(std::uint64_t seq, const Sent& sent);
  /// Releases a request refused at admission (no callback will come).
  void cancel(std::uint64_t seq);
  /// Callback side: copies the record out and retires it; false when the
  /// request is not outstanding.
  bool complete(std::uint64_t seq, Sent* out);

  void stamp_submit_return(std::uint64_t seq, std::int64_t ns) {
    at(seq).submit_ret_ns.store(ns, std::memory_order_release);
  }
  /// 0 while the submit call has not returned yet.
  std::int64_t submit_return(std::uint64_t seq) const {
    return at(seq).submit_ret_ns.load(std::memory_order_acquire);
  }
  void stamp_handler_return(std::uint64_t seq, std::int64_t ns) {
    at(seq).handler_ret_ns.store(ns, std::memory_order_release);
  }
  std::int64_t handler_return(std::uint64_t seq) const {
    return at(seq).handler_ret_ns.load(std::memory_order_acquire);
  }

 private:
  struct Entry {
    /// 2*seq+1 while outstanding, 2*seq+2 once retired, 0 never used.
    std::atomic<std::uint64_t> tag{0};
    std::atomic<std::int64_t> ref_ns{0};
    std::atomic<std::uint64_t> seed{0};
    std::atomic<std::uint32_t> info{0};  ///< kernel << 1 | lc
    std::atomic<std::int64_t> submit_ret_ns{0};
    std::atomic<std::int64_t> handler_ret_ns{0};
  };
  Entry& at(std::uint64_t seq) { return entries_[seq & (kSize - 1)]; }
  const Entry& at(std::uint64_t seq) const {
    return entries_[seq & (kSize - 1)];
  }

  std::unique_ptr<Entry[]> entries_ = std::make_unique<Entry[]>(kSize);
};

/// Kernel slots of the per-layer handler timings.
enum KernelIndex : int { kNoop = 0, kEnergy, kAirQuality, kPtdr, kKernelCount };
extern const std::array<const char*, kKernelCount> kKernelMetricNames;

/// Layer timings the traced run takes at the boundaries it can reach from
/// outside the program: around each handler call and at each callback.
/// Records only while armed (the timed run), not during warm-up.
struct LayerProbe {
  std::atomic<bool> armed{false};
  LogHistogram pre_handler_us;   ///< submit return -> handler entry
  LogHistogram post_handler_us;  ///< handler return -> client callback
  std::array<LogHistogram, kKernelCount> handler_us;
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> batched_requests{0};
  std::atomic<std::int64_t> busy_ns{0};
};

/// Wraps the endpoint's handler so the traced run sees batch entry and
/// exit. Values pass through untouched.
serve::Endpoint wrap_endpoint(serve::Endpoint endpoint, int kernel,
                              RequestLedger* ledger, LayerProbe* probe);

/// One generated request plus the kernel slot it is accounted under.
struct Drawn {
  serve::Request request;
  int kernel = kNoop;
};
using Draw = std::function<Drawn(std::uint64_t seq)>;
using SubmitFn =
    std::function<everest::Status(serve::Request, serve::ResponseCallback)>;
/// Runs on every OK response (from a worker thread) to check its value.
using CheckFn = std::function<void(const RequestLedger::Sent&,
                                   const serve::Response&)>;

/// Drives one submit function from the calling thread and accounts every
/// callback. Latencies are this client's own steady-clock stamps.
class RequestClient {
 public:
  /// Latencies go to `latency`, which may be null (warm-ups).
  RequestClient(SubmitFn submit, RequestLedger* ledger, LayerProbe* probe,
                CheckFn check, SlicedLatency* latency);
  RequestClient(const RequestClient&) = delete;
  RequestClient& operator=(const RequestClient&) = delete;

  /// Relative deadlines stamped on open-loop requests (0 = none).
  double lc_deadline_us = 0.0;
  double tp_deadline_us = 0.0;
  /// Time Server/Federation::submit itself (the traced run).
  bool time_submit = false;

  /// `count` requests from `first_seq`, `window` outstanding at a time;
  /// latency counts from each submit call.
  void closed_loop(std::uint64_t first_seq, std::uint64_t count,
                   std::size_t window, const Draw& draw);
  /// Poisson arrivals at `rate_per_s` from now; latency counts from each
  /// request's due time, and the pacer's lateness is recorded.
  void open_loop(std::uint64_t first_seq, std::uint64_t count,
                 double rate_per_s, const Draw& draw, Rng& gaps);

  /// Wall seconds from the first send to the last callback.
  [[nodiscard]] double elapsed_s() const;
  /// OK responses of `slices` per second those slices lasted, each from
  /// its first send to its last callback.
  [[nodiscard]] double throughput_per_s(
      const std::vector<std::size_t>& slices) const;

  // Generator-side counts.
  std::uint64_t attempted = 0;
  std::uint64_t rejected = 0;  ///< refused at admission
  std::vector<std::string> failures;
  LogHistogram submit_us;
  LogHistogram late_us;
  StealMeter steal;

  // Callback-side counts, on their own cache lines.
  alignas(64) std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> not_ok{0};  ///< expired or failed callbacks
  std::atomic<std::uint64_t> duplicates{0};
  std::atomic<std::uint64_t> fpga{0};  ///< OK responses from an FPGA variant

 private:
  struct alignas(64) Slice {
    std::int64_t start_ns = 0;  ///< first send (generator thread)
    std::atomic<std::int64_t> end_ns{0};  ///< last callback
    std::atomic<std::uint64_t> ok{0};
  };

  bool send(std::uint64_t seq, Drawn drawn, std::int64_t ref_ns,
            std::int64_t due_ns);
  void on_done(std::uint64_t seq, const serve::Response& response);
  /// Waits until every admitted request has called back.
  void wait_all();

  SubmitFn submit_;
  RequestLedger* ledger_;
  LayerProbe* probe_;
  CheckFn check_;
  SlicedLatency* latency_;
  std::uint64_t first_seq_ = 0;
  std::uint64_t count_ = 0;
  std::array<Slice, kSlices> slices_;
  alignas(64) std::counting_semaphore<> window_{0};
  std::atomic<std::int64_t> outstanding_{0};
};

/// The system a request workload drives, behind one submit call.
class RequestSystem {
 public:
  virtual ~RequestSystem() = default;
  virtual everest::Status submit(serve::Request request,
                                 serve::ResponseCallback done) = 0;
  /// Reads the public stats when the timed run starts...
  virtual void before_timed() = 0;
  /// ...and reports what they counted during it as per-layer values.
  virtual void after_timed(PhaseResult* result) = 0;
};

/// What differs between the request workloads; run_requests does the rest.
struct RequestWorkload {
  /// Builds and starts the system; nullptr on failure. With a probe,
  /// every endpoint is wrapped (wrap_endpoint).
  std::function<std::unique_ptr<RequestSystem>(RequestLedger*, LayerProbe*)>
      build;
  /// Request `seq`, drawn from `rng`.
  std::function<Drawn(std::uint64_t seq, Rng& rng)> draw;
  /// Runs on every OK response.
  CheckFn check;
  /// After the timed run: output checks over what `check` saw.
  std::function<void(PhaseResult*)> finish_checks;
  /// The process runs on this many CPUs (use_cpus)...
  std::size_t cpus = 1;
  /// ...with KeepAwake on them.
  bool keep_awake = false;
  std::uint64_t warmup_requests = 0;
  std::size_t warmup_window = 0;
  /// Timed run: requests per --seconds second. A closed loop keeps
  /// `window` outstanding; window 0 means Poisson arrivals at this rate.
  double requests_per_second = 0.0;
  std::size_t window = 0;
  double lc_deadline_us = 0.0;  ///< open loop only; 0 = none
  double tp_deadline_us = 0.0;
  /// Per-layer name of the timed submit call.
  std::string submit_metric;
  /// Handler threads in the system, for apps.busy_frac.
  int workers = 1;
  /// Kernel slots whose handler timings are reported.
  std::vector<int> kernels;
};

PhaseResult run_requests(const RequestWorkload& workload,
                         const PhaseConfig& config);

}  // namespace perfbench
