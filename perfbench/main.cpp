// perfbench: the end-to-end and per-layer benchmark of the EVEREST
// serving path, driven from one process through the public APIs of
// serve::Server, cluster::Federation and stream::StreamEngine.
//
//   perfbench --workload <serve_hotpath|usecase_federation|stream_ingest>
//             --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// --trace 0 sets the system up five times (setup_s is their median), runs
// the workload for --seconds with tracing off and reports the end-to-end
// metrics. --trace 1 runs it untraced and then traced, each for half the
// time, and reports the per-layer metrics; trace.overhead_frac compares
// the two halves. The program's own obs::Tracer stays null in both.
// Report lines come first; the last line of standard output is one JSON
// object with each metric's value and, for percentiles, its sample count.
// Units, and the names a workload leaves idle, come from BENCHMARK.json
// (see run.py). The exit code is 1 when an output check failed.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>

#include "harness.hpp"

namespace {

using perfbench::PhaseConfig;
using perfbench::PhaseResult;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string work_dir = ".bench_build/work";
};

bool parse(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args->seconds = std::stod(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0 &&
         (args->trace == 0 || args->trace == 1);
}

PhaseResult run(const std::string& workload, const PhaseConfig& config) {
  if (workload == "serve_hotpath") return perfbench::run_serve_hotpath(config);
  if (workload == "usecase_federation") {
    return perfbench::run_usecase_federation(config);
  }
  return perfbench::run_stream_ingest(config);
}

double finite(double v) { return std::isfinite(v) ? v : 0.0; }

void print_notes(const PhaseResult& r, const char* phase) {
  for (const std::string& note : r.notes) {
    std::printf("  [%s] %s\n", phase, note.c_str());
  }
  for (const std::string& f : r.check_failures) {
    std::printf("  [%s] CHECK FAILED: %s\n", phase, f.c_str());
  }
}

/// The last line: values by name, and the sample count behind each
/// percentile.
void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::map<std::string, double>& metrics,
                const std::map<std::string, std::uint64_t>& samples) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  const char* sep = "";
  for (const auto& [name, value] : metrics) {
    std::printf("%s\"%s\": %.17g", sep, name.c_str(), finite(value));
    sep = ", ";
  }
  std::printf("}, \"samples\": {");
  sep = "";
  for (const auto& [name, n] : samples) {
    std::printf("%s\"%s\": %llu", sep, name.c_str(),
                static_cast<unsigned long long>(n));
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, &args) ||
      (args.workload != "serve_hotpath" &&
       args.workload != "usecase_federation" &&
       args.workload != "stream_ingest")) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "<serve_hotpath|usecase_federation|stream_ingest> --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR]\n");
    return 2;
  }
  std::filesystem::create_directories(args.work_dir);
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace);

  PhaseConfig config;
  config.seed = args.seed;
  config.work_dir = args.work_dir;

  if (args.trace == 0) {
    config.seconds = args.seconds;
    config.setups = 5;
    const PhaseResult r = run(args.workload, config);
    std::string setups;
    for (const double s : r.setup_s) setups += " " + std::to_string(s);
    std::printf("  set-ups (s):%s\n", setups.c_str());
    std::printf("  timed run: %llu of %llu OK in %.3f s\n",
                static_cast<unsigned long long>(r.attempted - r.failed),
                static_cast<unsigned long long>(r.attempted), r.timed_s);
    print_notes(r, "run");
    const std::map<std::string, double> metrics = {
        {"setup_s", perfbench::median(r.setup_s)},
        {"throughput_per_s", r.throughput_per_s},
        {"latency_p50_us", r.latency.p50},
        {"latency_p99_us", r.latency.p99},
        {"lc_latency_p99_us", r.lc_latency.p99},
        {"ok_frac", perfbench::ratio(r.attempted - r.failed, r.attempted)},
        {"peak_rss_mb", r.peak_rss_mb}};
    print_json(r.check_failures.empty(), r.attempted, r.failed, metrics,
               {{"latency_p50_us", r.latency.n},
                {"latency_p99_us", r.latency.n},
                {"lc_latency_p99_us", r.lc_latency.n}});
    return r.check_failures.empty() ? 0 : 1;
  }

  config.seconds = args.seconds / 2.0;
  config.setups = 1;
  const PhaseResult plain = run(args.workload, config);
  config.traced = true;
  const PhaseResult traced = run(args.workload, config);
  std::printf("  untraced half: %.6g /s, p50 %.6g us (n=%llu)\n",
              plain.throughput_per_s, plain.latency.p50,
              static_cast<unsigned long long>(plain.latency.n));
  std::printf("  traced half:   %.6g /s, p50 %.6g us (n=%llu)\n",
              traced.throughput_per_s, traced.latency.p50,
              static_cast<unsigned long long>(traced.latency.n));
  print_notes(plain, "untraced");
  print_notes(traced, "traced");
  std::map<std::string, double> metrics = traced.layer;
  metrics["trace.overhead_frac"] =
      std::max(1.0 - traced.throughput_per_s / plain.throughput_per_s,
               traced.latency.p50 / plain.latency.p50 - 1.0);
  // Sample counts are kept per distribution; each of its percentiles
  // rests on them.
  std::map<std::string, std::uint64_t> samples;
  for (const auto& [stem, n] : traced.layer_samples) {
    for (const char* suffix : {"", ".p50", ".p99"}) {
      if (metrics.count(stem + suffix) != 0) samples[stem + suffix] = n;
    }
  }
  const bool correct =
      plain.check_failures.empty() && traced.check_failures.empty();
  print_json(correct, plain.attempted + traced.attempted,
             plain.failed + traced.failed, metrics, samples);
  return correct ? 0 : 1;
}
