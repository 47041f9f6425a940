#include "serve/metrics.hpp"

namespace everest::serve {
namespace {

// Latency buckets: 1 µs lower resolution, ×1.5 growth, 64 buckets
// (~1.2e11 µs ceiling) — covers sub-ms service times through pathological
// overload tails.
obs::HistogramOptions latency_buckets() {
  obs::HistogramOptions opt;
  opt.min = 1.0;
  opt.growth = 1.5;
  opt.buckets = 64;
  return opt;
}

// Payload-scale buckets: 1/64x resolution, x1.25 growth, 48 buckets
// (~2^15 ceiling) — covers the feature_bucket range at finer grain.
obs::HistogramOptions scale_buckets() {
  obs::HistogramOptions opt;
  opt.min = 1.0 / 64.0;
  opt.growth = 1.25;
  opt.buckets = 48;
  return opt;
}

}  // namespace

ServingMetrics::ServingMetrics()
    : submitted_(registry_.counter("serve.submitted")),
      admitted_(registry_.counter("serve.admitted")),
      rejected_(registry_.counter("serve.rejected")),
      expired_(registry_.counter("serve.expired")),
      failed_(registry_.counter("serve.failed")),
      completed_(registry_.counter("serve.completed")),
      unavailable_(registry_.counter("serve.unavailable")),
      degraded_(registry_.counter("serve.degraded")),
      input_hits_(registry_.counter("serve.input_hits")),
      input_misses_(registry_.counter("serve.input_misses")),
      // Merge kinds pinned per the registry contract: total stall time
      // partitions across nodes (sum); queue depth is a watermark (max).
      input_stall_us_(registry_.gauge("serve.input_stall_us",
                                      obs::GaugeKind::kSum)),
      max_queue_depth_(registry_.gauge("serve.max_queue_depth",
                                       obs::GaugeKind::kMax)) {
  latency_hist_[0] = registry_.histogram("serve.latency_us", latency_buckets(),
                                         {{"class", "lc"}});
  latency_hist_[1] = registry_.histogram("serve.latency_us", latency_buckets(),
                                         {{"class", "tp"}});
}

void ServingMetrics::record_admitted(std::size_t queue_depth_after) {
  admitted_->inc();
  max_queue_depth_->set_max(static_cast<double>(queue_depth_after));
}

void ServingMetrics::record_batch(std::size_t batch_size) {
  std::lock_guard<std::mutex> lock(mu_);
  ++batch_sizes_[batch_size];
}

void ServingMetrics::record_input_stage(std::uint64_t hits,
                                        std::uint64_t misses,
                                        double stall_us) {
  input_hits_->inc(hits);
  input_misses_->inc(misses);
  input_stall_us_->add(stall_us);
}

void ServingMetrics::record_feature(const std::string& kernel,
                                    const std::string& tenant,
                                    double payload_scale,
                                    double service_share_us) {
  const int bucket = feature_bucket(payload_scale);
  FeatureInstruments instruments;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = features_.find(std::tie(kernel, tenant, bucket));
    if (it == features_.end()) {
      const obs::Labels labels = {{"kernel", kernel},
                                  {"tenant", tenant},
                                  {"bucket", std::to_string(bucket)}};
      const obs::Labels kernel_label = {{"kernel", kernel}};
      FeatureInstruments fresh;
      fresh.requests = registry_.counter("serve.feature.requests", labels);
      fresh.service_us = registry_.histogram("serve.feature.service_us",
                                             latency_buckets(), labels);
      fresh.scale = registry_.histogram("serve.feature.scale",
                                        scale_buckets(), kernel_label);
      // kLastWrite pinned here, the registration site: an instantaneous
      // node-local value the cross-node rollup must drop, per the PR 9
      // GaugeKind contract.
      fresh.last_scale = registry_.gauge(
          "serve.feature.last_scale", obs::GaugeKind::kLastWrite, kernel_label);
      it = features_.emplace(std::make_tuple(kernel, tenant, bucket), fresh)
               .first;
    }
    instruments = it->second;
  }
  instruments.requests->inc();
  instruments.service_us->record(service_share_us);
  instruments.scale->record(payload_scale);
  instruments.last_scale->set(payload_scale);
}

void ServingMetrics::record_completion(SlaClass sla, double latency_us) {
  completed_->inc();
  latency_hist_[static_cast<int>(sla)]->record(latency_us);
}

MetricsSnapshot ServingMetrics::snapshot() const {
  MetricsSnapshot snap;
  snap.submitted = submitted_->value();
  snap.admitted = admitted_->value();
  snap.rejected = rejected_->value();
  snap.expired = expired_->value();
  snap.failed = failed_->value();
  snap.completed = completed_->value();
  snap.unavailable = unavailable_->value();
  snap.degraded = degraded_->value();
  snap.input_hits = input_hits_->value();
  snap.input_misses = input_misses_->value();
  snap.input_stall_us = input_stall_us_->value();
  snap.max_queue_depth = static_cast<std::size_t>(max_queue_depth_->value());

  const obs::HistogramSnapshot lc = latency_hist_[0]->snapshot();
  const obs::HistogramSnapshot tp = latency_hist_[1]->snapshot();
  obs::HistogramSnapshot all = lc;
  all.merge(tp);
  snap.p50_us = all.percentile(50.0);
  snap.p99_us = all.percentile(99.0);
  snap.lc_p99_us = lc.percentile(99.0);
  snap.tp_p99_us = tp.percentile(99.0);

  std::lock_guard<std::mutex> lock(mu_);
  snap.batch_histogram = batch_sizes_;
  std::uint64_t requests = 0;
  for (const auto& [size, n] : batch_sizes_) {
    snap.batches += n;
    requests += size * n;
  }
  if (snap.batches > 0) {
    snap.mean_batch_size = static_cast<double>(requests) /
                           static_cast<double>(snap.batches);
  }
  return snap;
}

obs::HistogramSnapshot ServingMetrics::latency_histogram() const {
  obs::HistogramSnapshot merged = latency_hist_[0]->snapshot();
  merged.merge(latency_hist_[1]->snapshot());
  return merged;
}

void ServingMetrics::reset() {
  registry_.reset();
  std::lock_guard<std::mutex> lock(mu_);
  batch_sizes_.clear();
}

}  // namespace everest::serve
