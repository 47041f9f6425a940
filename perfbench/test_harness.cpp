// Checks the harness's own instruments: histogram percentiles against
// exact ones on a seeded sample, merged slice histograms against one
// histogram of the same sample, and the request ledger's one-callback
// rule. Exits 1 when any check fails.
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "requests.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "perfbench_test: FAILED %s\n", what);
    ++failures;
  }
}

/// Nearest-rank percentile of a sorted sample (the histogram's rule).
double exact(const std::vector<double>& sorted, double q) {
  const auto rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(q / 100.0 * sorted.size())));
  return sorted[rank - 1];
}

void histogram_matches_exact_percentiles() {
  perfbench::Rng rng(20260);
  auto h = std::make_unique<perfbench::LogHistogram>();
  std::vector<double> sample;
  // Log-uniform over 0.01 µs .. 1 s plus a heavy cluster near 100 µs.
  for (int i = 0; i < 200'000; ++i) {
    const double v = i % 3 == 0 ? 90.0 + 20.0 * rng.uniform()
                                : std::exp(std::log(0.01) +
                                           rng.uniform() * std::log(1e8));
    sample.push_back(v);
    h->record(v);
  }
  std::sort(sample.begin(), sample.end());
  expect(h->count() == sample.size(), "histogram counts every sample");
  for (const double q : {0.1, 1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    const double want = exact(sample, q);
    const double got = h->percentile(q);
    const double err = std::abs(got - want) / want;
    if (err > perfbench::LogHistogram::kRelError * (1.0 + 1e-9)) {
      std::fprintf(stderr, "  q=%g exact=%.9g histogram=%.9g rel.err=%.3g\n",
                   q, want, got, err);
      expect(false, "percentile within the stated relative error");
    }
  }
  auto empty = std::make_unique<perfbench::LogHistogram>();
  expect(empty->percentile(99.0) == 0.0, "empty histogram reads 0");
}

void merged_slices_equal_one_histogram() {
  perfbench::Rng rng(7);
  perfbench::SlicedLatency sliced;
  auto whole = std::make_unique<perfbench::LogHistogram>();
  for (int i = 0; i < 50'000; ++i) {
    const double v = 10.0 + 1000.0 * rng.uniform() * rng.uniform();
    sliced.record(rng.below(perfbench::kSlices), v, false);
    whole->record(v);
  }
  const perfbench::Percentiles merged = sliced.all(perfbench::all_slices());
  expect(merged.n == whole->count(), "merged slices count every sample");
  expect(merged.p50 == whole->percentile(50.0) &&
             merged.p99 == whole->percentile(99.0),
         "merged slices give the whole sample's percentiles");
}

void ledger_accepts_one_callback_per_request() {
  perfbench::RequestLedger ledger;
  perfbench::RequestLedger::Sent sent{123, 77, true, perfbench::kPtdr};
  perfbench::RequestLedger::Sent out;
  expect(ledger.open(5, sent), "open a fresh slot");
  expect(!ledger.open(5 + perfbench::RequestLedger::kSize, sent),
         "an outstanding slot is not reused");
  expect(ledger.complete(5, &out), "first callback accepted");
  expect(out.ref_ns == 123 && out.seed == 77 && out.lc &&
             out.kernel == perfbench::kPtdr,
         "record round-trips");
  expect(!ledger.complete(5, &out), "second callback is a duplicate");
  expect(!ledger.complete(6, &out), "callback for an unknown request");
  expect(ledger.open(5 + perfbench::RequestLedger::kSize, sent),
         "a retired slot is reused");
}

}  // namespace

int main() {
  histogram_matches_exact_percentiles();
  merged_slices_equal_one_histogram();
  ledger_accepts_one_callback_per_request();
  if (failures == 0) std::fprintf(stderr, "perfbench_test: ok\n");
  return failures == 0 ? 0 : 1;
}
