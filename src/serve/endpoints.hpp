// Servable endpoints: the three paper use cases (§VI) wrapped as batch
// handlers behind stable kernel names. Each handler does real work and is
// written batch-first — the expensive shared setup (weather ensemble,
// dispersion ensemble) is computed once per batch, the static state
// (downscale terrain, road network) once at construction, and only the
// cheap per-request part runs per element. That shape is what makes
// batching a genuine throughput lever in bench E17 rather than a
// simulation constant.
//
// Handlers are pure w.r.t. shared state (all shared state is immutable
// after construction) and deterministic given the requests' seeds, so any
// worker thread may execute any batch.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "compiler/variants.hpp"
#include "serve/batcher.hpp"

namespace everest::serve {

/// Executes one formed batch; must write exactly batch.size() values.
/// Runs on a worker thread; must be thread-safe and deterministic in the
/// request seeds.
using BatchHandler =
    std::function<Status(const Batch& batch, std::vector<double>* values)>;

/// Variant-aware batch handler: additionally receives the variant the
/// autotuner selected for this batch (null when selection failed and the
/// batch runs generically), so the execution cost genuinely depends on
/// the decision — tiling/layout choices matched to the batch's shape run
/// faster. This is what lets the JIT's minted variants move measured
/// latency, not just predictions (bench E26).
using VariantBatchHandler = std::function<Status(
    const Batch& batch, const compiler::Variant* variant,
    std::vector<double>* values)>;

/// A servable kernel: its handler plus the compiler-style variant
/// metadata the autotuner selects from (loaded into the knowledge base at
/// registration). Exactly one of handler / variant_handler must be set;
/// variant_handler wins when both are.
struct Endpoint {
  std::string kernel;
  std::vector<compiler::Variant> variants;
  BatchHandler handler;
  VariantBatchHandler variant_handler;
};

/// §VI-A wind-power forecast: per batch one wind field downscaled over a
/// terrain drawn at construction; per request a wind-farm power-curve
/// evaluation on it.
/// Kernel name: "energy_forecast".
Endpoint make_energy_endpoint(std::uint64_t base_seed = 11);

/// §VI-B air quality: per batch an ensemble of Gaussian-plume dispersion
/// fields; per request the exceedance probability at a receptor.
/// Kernel name: "aq_dispersion".
Endpoint make_airquality_endpoint(std::uint64_t base_seed = 13);

/// §VI-C traffic PTDR: shared road network (built once); per request a
/// Monte-Carlo route-time distribution for a sampled origin/destination.
/// Kernel name: "ptdr_route".
Endpoint make_traffic_endpoint(std::uint64_t base_seed = 17);

/// All three, for convenience in benches/tests.
std::vector<Endpoint> standard_endpoints();

}  // namespace everest::serve
