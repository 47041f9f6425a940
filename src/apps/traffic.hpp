// Use case §VI-C: traffic modeling for intelligent transportation. A road
// network with time-dependent probabilistic speed profiles (learned from
// synthetic FCD), probabilistic time-dependent routing (PTDR) via Monte
// Carlo over alternative paths, and a lightweight traffic simulator that
// "boosts the raw sensory data into rich training sequences".
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"

namespace everest::apps {

/// One directed road segment.
struct RoadSegment {
  std::size_t from = 0;
  std::size_t to = 0;
  double length_km = 1.0;
  double freeflow_kmh = 50.0;
  /// Capacity in vehicles (for the simulator's congestion model).
  double capacity = 40.0;
};

/// Hourly speed multiplier distribution for a segment: mean and spread of
/// (actual speed / free-flow speed) per hour of day.
struct SpeedProfile {
  std::array<double, 24> mean_factor;
  std::array<double, 24> stddev;
};

/// A road network: grid-shaped generator plus speed profiles per segment.
/// Routing runs Dijkstra straight over the per-node outgoing segment
/// lists, weighting each segment by its expected time at the query hour
/// as it is relaxed.
class RoadNetwork {
 public:
  /// Manhattan grid of rows × cols intersections, bidirectional streets,
  /// a fraction of "arterial" segments with higher speed/capacity.
  static RoadNetwork make_grid(int rows, int cols, std::uint64_t seed);

  [[nodiscard]] std::size_t num_nodes() const { return num_nodes_; }
  [[nodiscard]] std::size_t num_segments() const { return segments_.size(); }
  [[nodiscard]] const RoadSegment& segment(std::size_t i) const {
    return segments_[i];
  }
  [[nodiscard]] const SpeedProfile& profile(std::size_t i) const {
    return profiles_[i];
  }
  SpeedProfile& mutable_profile(std::size_t i) { return profiles_[i]; }

  /// Expected travel time (s) of a segment departing at `hour`.
  [[nodiscard]] double expected_time_s(std::size_t segment, int hour) const;

  /// Sampled travel time (s) with the profile's randomness.
  [[nodiscard]] double sample_time_s(std::size_t segment, int hour,
                                     Rng& rng) const;

  /// Shortest path (by expected time at `hour`) between two nodes; empty
  /// when unreachable, when from == to, or when either id is not below
  /// num_nodes(). Returns segment indices.
  [[nodiscard]] std::vector<std::size_t> shortest_path(std::size_t from,
                                                       std::size_t to,
                                                       int hour) const;

  /// K alternative paths via iterative edge-penalization: each search
  /// multiplies the weight of every segment the previous paths used by
  /// 1.4; identical paths are kept once. Empty when unreachable or an id
  /// is out of range; one empty path when from == to.
  [[nodiscard]] std::vector<std::vector<std::size_t>> alternative_paths(
      std::size_t from, std::size_t to, int hour, int k) const;

 private:
  /// Dijkstra from `from`, each segment weighted by expected_time_s at
  /// `hour`, times penalty[segment] when `penalty` is given. Ties in
  /// distance pop the lower node id first. nullopt when `to` is
  /// unreachable or an id is out of range.
  [[nodiscard]] std::optional<std::vector<std::size_t>> route(
      std::size_t from, std::size_t to, int hour,
      const std::vector<double>* penalty) const;

  std::size_t num_nodes_ = 0;
  std::vector<RoadSegment> segments_;
  std::vector<SpeedProfile> profiles_;
  /// Outgoing segment indices per node, ascending.
  std::vector<std::vector<std::size_t>> out_segments_;
};

/// Travel-time distribution of one path from Monte Carlo sampling.
struct TravelTimeDistribution {
  double mean_s = 0.0;
  double stddev_s = 0.0;
  double p50_s = 0.0;
  double p95_s = 0.0;
  std::size_t samples = 0;
};

/// PTDR: samples departure at `hour`, walking the path with per-segment
/// stochastic speeds, hour advancing as time accumulates.
TravelTimeDistribution ptdr_route_time(const RoadNetwork& network,
                                       const std::vector<std::size_t>& path,
                                       int hour, std::size_t samples,
                                       Rng& rng);

/// Route choice: evaluates k alternatives with PTDR and picks by the given
/// risk quantile (0.5 = median optimizer, 0.95 = risk-averse).
struct RouteChoice {
  std::vector<std::size_t> path;
  TravelTimeDistribution distribution;
  int alternatives_evaluated = 0;
};
Result<RouteChoice> choose_route(const RoadNetwork& network, std::size_t from,
                                 std::size_t to, int hour, int k,
                                 std::size_t mc_samples, double risk_quantile,
                                 Rng& rng);

/// Synthetic floating-car data point.
struct FcdPoint {
  std::size_t segment = 0;
  int hour = 0;
  double speed_kmh = 0.0;
};

/// The traffic simulator: routes `vehicles` O/D trips through the network
/// over one day, congestion feeding back into speeds (BPR curve); emits
/// FCD that can retrain the speed profiles.
struct SimulationDay {
  std::vector<FcdPoint> fcd;
  double mean_trip_time_s = 0.0;
  double vehicle_km = 0.0;
};
SimulationDay simulate_traffic_day(const RoadNetwork& network,
                                   std::size_t vehicles, std::uint64_t seed);

/// Re-estimates speed profiles from FCD (per segment × hour mean/std);
/// segments/hours without data keep their prior. Returns segments updated.
std::size_t calibrate_profiles(RoadNetwork& network,
                               const std::vector<FcdPoint>& fcd,
                               std::size_t min_samples = 5);

}  // namespace everest::apps
