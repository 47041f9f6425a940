#include "harness.hpp"

#include <sched.h>
#include <sys/prctl.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

PreciseTimers::PreciseTimers() : previous_ns_(::prctl(PR_GET_TIMERSLACK)) {
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
}

PreciseTimers::~PreciseTimers() {
  ::prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(previous_ns_), 0, 0,
          0);
}

std::int64_t wait_until(std::int64_t due_ns) {
  // Sleep in slices of at most 100 µs: one long sleep on an idle vCPU can
  // wake milliseconds late. No final spin: with 1 ns timer slack the
  // wake-up is prompt, and a vCPU that spins is the one the host preempts
  // first when other tenants load it.
  constexpr std::int64_t kSliceNs = 100'000;
  for (;;) {
    const std::int64_t remaining = due_ns - now_ns();
    if (remaining <= 0) return -remaining;
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(std::min(kSliceNs, remaining)));
  }
}

void StealMeter::mark(std::size_t boundary) {
  std::ifstream stat("/proc/stat");
  Reading r;
  std::string line;
  while (std::getline(stat, line)) {
    std::istringstream fields(line);
    std::string name;
    fields >> name;
    const bool wanted =
        cpus_.empty() ? name == "cpu"
                      : std::find_if(cpus_.begin(), cpus_.end(), [&](int c) {
                          return name == "cpu" + std::to_string(c);
                        }) != cpus_.end();
    if (!wanted) continue;
    for (int field = 0; field < 10; ++field) {
      std::uint64_t v = 0;
      fields >> v;
      r.total += v;
      if (field == 7) r.steal += v;
    }
  }
  reads_[boundary] = r;
}

double StealMeter::steal_frac(std::size_t slice) const {
  const std::uint64_t total = reads_[slice + 1].total - reads_[slice].total;
  return total == 0 ? 0.0
                    : static_cast<double>(reads_[slice + 1].steal -
                                          reads_[slice].steal) /
                          static_cast<double>(total);
}

std::vector<std::size_t> StealMeter::calm_slices() const {
  std::vector<std::size_t> order = all_slices();
  std::stable_sort(order.begin(), order.end(), [this](auto a, auto b) {
    return steal_frac(a) < steal_frac(b);
  });
  const double limit = steal_frac(order[0]) + 0.005;
  std::size_t keep = kSlices / 4;
  while (keep < kSlices && steal_frac(order[keep]) <= limit) ++keep;
  order.resize(keep);
  std::sort(order.begin(), order.end());
  return order;
}

std::string StealMeter::describe() const {
  std::string out = "hypervisor steal per slice (%):";
  for (std::size_t i = 0; i < kSlices; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), " %.1f", 100.0 * steal_frac(i));
    out += buf;
  }
  out += "; calm slices:";
  for (const std::size_t i : calm_slices()) out += " " + std::to_string(i);
  return out;
}

std::string SlicedLatency::describe(
    const std::vector<std::size_t>& calm) const {
  std::string out;
  for (const auto& [label, slices] :
       {std::pair{"calm slices", calm}, std::pair{"all slices", all_slices()}}) {
    const Percentiles p = all(slices);
    const Percentiles l = lc(slices);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s%s: p50 %.1f us, p99 %.1f us (n=%llu), LC p99 %.1f us "
                  "(n=%llu)",
                  out.empty() ? "" : "; ", label, p.p50, p.p99,
                  static_cast<unsigned long long>(p.n), l.p99,
                  static_cast<unsigned long long>(l.n));
    out += buf;
  }
  return out;
}

namespace {

/// The CPUs the process may use, read before any thread was confined.
const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (::sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) out.push_back(cpu);
      }
    }
    return out;
  }();
  return cpus;
}

void pin_calling_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  ::sched_setaffinity(0, sizeof(set), &set);
}

}  // namespace

std::vector<int> use_cpus(std::size_t n) {
  const std::vector<int>& allowed = allowed_cpus();
  std::vector<int> cpus(allowed.begin(),
                        allowed.begin() + std::min(n, allowed.size()));
  if (!cpus.empty()) pin_calling_thread(cpus);
  return cpus;
}

KeepAwake::KeepAwake(const std::vector<int>& cpus) {
  for (const int cpu : cpus) {
    threads_.emplace_back([this, cpu] {
      pin_calling_thread({cpu});
      const sched_param param{};
      ::sched_setscheduler(0, SCHED_IDLE, &param);
      while (!stop_.load(std::memory_order_relaxed)) {
        __builtin_ia32_pause();
      }
    });
  }
}

KeepAwake::~KeepAwake() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads_) t.join();
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

}  // namespace perfbench
