// Workload-independent pieces of perfbench: a fixed-footprint latency
// histogram, the seeded input generator, the open-loop pacer, and the
// process readings. Nothing here includes the system under test, and no
// structure grows with the number of requests or events a run sends.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t t0_ns, std::int64_t t1_ns) {
  return static_cast<double>(t1_ns - t0_ns) / 1e9;
}

inline std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// SplitMix64 stream. The benchmark's inputs are a pure function of the
/// --seed argument and this generator, independent of the program's own
/// RNG code, so a change to the program never changes what it is fed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() { return mix64(state_ += 0x9E3779B97F4A7C15ULL); }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Exponential gap with the given mean.
  double exponential(double mean) { return -mean * std::log1p(-uniform()); }

 private:
  std::uint64_t state_;
};

/// Zipf(skew) ranks over [0, n) by inverse CDF; the table is sized by n,
/// not by the number of draws.
class Zipf {
 public:
  Zipf(std::size_t n, double skew) : cdf_(n) {
    double total = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), skew);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  std::size_t draw(Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Log-bucketed histogram of non-negative values. Every percentile it
/// reports is within kRelError (relative) of the exact nearest-rank
/// percentile of the recorded sample; values at or below kMin read as 0.
/// record() is lock-free and may be called from any thread.
class LogHistogram {
 public:
  static constexpr double kRelError = 0.005;
  static constexpr double kMin = 1e-3;
  static constexpr std::size_t kBuckets = 2800;  // kMin .. ~1e9

  void record(double value) {
    counts_[index(value)].fetch_add(1, std::memory_order_relaxed);
  }

  /// Adds every sample `other` holds.
  void merge(const LogHistogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) {
      counts_[i].fetch_add(other.counts_[i].load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
    }
  }

  [[nodiscard]] std::uint64_t count() const {
    std::uint64_t n = 0;
    for (const auto& c : counts_) n += c.load(std::memory_order_relaxed);
    return n;
  }

  /// Nearest-rank percentile, q in (0, 100]. 0 when empty.
  [[nodiscard]] double percentile(double q) const {
    const std::uint64_t n = count();
    if (n == 0) return 0.0;
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(q / 100.0 * n)));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i].load(std::memory_order_relaxed);
      if (seen >= rank) return representative(i);
    }
    return representative(kBuckets - 1);
  }

 private:
  static constexpr double kGamma = (1.0 + kRelError) / (1.0 - kRelError);

  // Bucket i >= 1 holds (kMin * g^(i-1), kMin * g^i]; bucket 0 holds
  // everything at or below kMin.
  static std::size_t index(double value) {
    if (!(value > kMin)) return 0;
    const double i = std::ceil(std::log(value / kMin) / std::log(kGamma));
    return std::min(kBuckets - 1, static_cast<std::size_t>(std::max(1.0, i)));
  }
  // The harmonic mean of the bucket's bounds is within kRelError of both.
  static double representative(std::size_t i) {
    if (i == 0) return 0.0;
    return kMin * std::pow(kGamma, static_cast<double>(i) - 1.0) * 2.0 *
           kGamma / (1.0 + kGamma);
  }

  std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
};

/// A timing distribution as the report prints it: median, p99 and the
/// number of samples both rest on.
struct Percentiles {
  double p50 = 0.0;
  double p99 = 0.0;
  std::uint64_t n = 0;
};

inline Percentiles summarize(const LogHistogram& h) {
  return {h.percentile(50.0), h.percentile(99.0), h.count()};
}

/// part / whole, 0 when whole is 0.
inline double ratio(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// A timed run is cut into this many equal slices (by request index or
/// event time), so that the slices the host disturbed can be left out of
/// the end-to-end figures (see StealMeter).
constexpr std::size_t kSlices = 64;

inline std::size_t slice_of(std::uint64_t index, std::uint64_t total) {
  if (total == 0) return 0;
  return std::min<std::size_t>(kSlices - 1, index * kSlices / total);
}

/// CPU time the hypervisor withheld from this VM (the steal column of
/// /proc/stat) during each slice of a timed run. On a shared 4-vCPU VM a
/// slice with 1-10% steal holds stalls of milliseconds. How much steal a
/// run meets depends on the host's other tenants and on how often its
/// vCPUs halt, not on how fast the program is.
class StealMeter {
 public:
  /// Counts the steal of `cpus` (those use_cpus returned), or of every
  /// CPU when empty.
  explicit StealMeter(std::vector<int> cpus = {}) : cpus_(std::move(cpus)) {}
  /// Reads the counters at slice boundary `b` (0 .. kSlices).
  void mark(std::size_t boundary);
  /// The slices the end-to-end figures come from, in slice order: every
  /// slice within half a percentage point of the least-stolen one, and
  /// at least the least-stolen quarter.
  [[nodiscard]] std::vector<std::size_t> calm_slices() const;
  [[nodiscard]] std::string describe() const;

 private:
  [[nodiscard]] double steal_frac(std::size_t slice) const;

  struct Reading {
    std::uint64_t steal = 0;
    std::uint64_t total = 0;
  };
  std::vector<int> cpus_;
  std::array<Reading, kSlices + 1> reads_{};
};

/// Every slice index, for whole-run figures.
inline std::vector<std::size_t> all_slices() {
  std::vector<std::size_t> slices(kSlices);
  for (std::size_t i = 0; i < kSlices; ++i) slices[i] = i;
  return slices;
}

/// Latency of one timed run, all requests and the latency-critical class,
/// one histogram per slice.
class SlicedLatency {
 public:
  void record(std::size_t slice, double us, bool lc) {
    all_[slice].record(us);
    if (lc) lc_[slice].record(us);
  }
  /// Percentiles over every sample of `slices`; n is their total count.
  [[nodiscard]] Percentiles all(const std::vector<std::size_t>& slices) const {
    return merged(all_, slices);
  }
  [[nodiscard]] Percentiles lc(const std::vector<std::size_t>& slices) const {
    return merged(lc_, slices);
  }

  /// The run's figures over `calm` slices and over all of them.
  [[nodiscard]] std::string describe(
      const std::vector<std::size_t>& calm) const;

 private:
  static Percentiles merged(const std::array<LogHistogram, kSlices>& h,
                            const std::vector<std::size_t>& slices) {
    auto sum = std::make_unique<LogHistogram>();
    for (const std::size_t i : slices) sum->merge(h[i]);
    return summarize(*sum);
  }

  std::array<LogHistogram, kSlices> all_;
  std::array<LogHistogram, kSlices> lc_;
};

/// While alive, the calling thread's sleeps end on time (1 ns timer slack
/// instead of the default 50 µs), so the pacer can sleep right up to each
/// due time. Restores the previous slack on destruction, so threads the
/// program starts afterwards do not inherit the harness's setting.
class PreciseTimers {
 public:
  PreciseTimers();
  ~PreciseTimers();
  PreciseTimers(const PreciseTimers&) = delete;
  PreciseTimers& operator=(const PreciseTimers&) = delete;

 private:
  int previous_ns_;
};

/// Open-loop pacing: sleeps in short slices until `due_ns`. Returns how
/// late the caller resumes, in ns (>= 0).
std::int64_t wait_until(std::int64_t due_ns);

/// Confines the calling thread, and every thread it starts from then on,
/// to the first `n` CPUs the process may use; returns them.
std::vector<int> use_cpus(std::size_t n);

/// While alive, one idle-priority (SCHED_IDLE) thread spins on each of
/// `cpus`, so none of those vCPUs halts while the program's threads
/// sleep. Any program thread that wakes preempts it at once.
class KeepAwake {
 public:
  explicit KeepAwake(const std::vector<int>& cpus);
  ~KeepAwake();
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Peak resident set of this process so far (VmHWM), in MB.
double peak_rss_mb();

/// Everything one phase of a workload measured: its set-ups, then one
/// timed run. Latencies are the harness's own wall-clock stamps.
struct PhaseResult {
  std::vector<double> setup_s;  ///< one entry per set-up
  double timed_s = 0.0;         ///< wall seconds of the timed run
  std::uint64_t attempted = 0;  ///< requests or events offered
  std::uint64_t failed = 0;     ///< attempted operations without an OK result
  double throughput_per_s = 0.0;
  Percentiles latency;     ///< over the calm slices
  Percentiles lc_latency;
  double peak_rss_mb = 0.0;
  /// Output checks that failed (empty = outputs correct).
  std::vector<std::string> check_failures;
  /// Per-layer values this workload measures; missing names read as 0.
  std::map<std::string, double> layer;
  /// Sample counts behind per-layer percentiles, by metric prefix.
  std::map<std::string, std::uint64_t> layer_samples;
  /// Extra report lines (output checks, modelled figures, baselines).
  std::vector<std::string> notes;
};

struct PhaseConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  int setups = 1;
  std::string work_dir;  ///< scratch space for on-disk state (WALs)
};

/// Records a per-layer timing distribution under `name`.p50 / .p99.
inline void put_percentiles(PhaseResult& r, const std::string& name,
                            const LogHistogram& h) {
  const Percentiles p = summarize(h);
  r.layer[name + ".p50"] = p.p50;
  r.layer[name + ".p99"] = p.p99;
  r.layer_samples[name] = p.n;
}

PhaseResult run_serve_hotpath(const PhaseConfig& config);
PhaseResult run_usecase_federation(const PhaseConfig& config);
PhaseResult run_stream_ingest(const PhaseConfig& config);

}  // namespace perfbench
