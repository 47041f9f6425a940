#include "apps/traffic.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <queue>

#include "common/stats.hpp"

namespace everest::apps {

namespace {

/// Typical urban rush-hour shape: factor of free-flow speed by hour.
double rush_hour_factor(int hour) {
  // Morning (7-9) and evening (16-19) dips.
  static const double kFactors[24] = {
      0.95, 0.97, 0.98, 0.98, 0.95, 0.90, 0.75, 0.55, 0.60, 0.75,
      0.85, 0.85, 0.80, 0.82, 0.85, 0.80, 0.65, 0.52, 0.58, 0.75,
      0.85, 0.90, 0.93, 0.95};
  return kFactors[hour % 24];
}

}  // namespace

RoadNetwork RoadNetwork::make_grid(int rows, int cols, std::uint64_t seed) {
  RoadNetwork net;
  Rng rng(seed);
  net.num_nodes_ = static_cast<std::size_t>(rows) * cols;
  net.out_segments_.assign(net.num_nodes_, {});
  auto node = [cols](int r, int c) {
    return static_cast<std::size_t>(r) * cols + c;
  };
  auto add_street = [&](std::size_t a, std::size_t b, bool arterial) {
    for (auto [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
      RoadSegment seg;
      seg.from = from;
      seg.to = to;
      seg.length_km = arterial ? 1.2 : 0.6;
      seg.freeflow_kmh = arterial ? 70.0 : 40.0;
      seg.capacity = arterial ? 120.0 : 35.0;
      SpeedProfile profile;
      for (int h = 0; h < 24; ++h) {
        const double congestion_sensitivity = arterial ? 0.8 : 1.0;
        profile.mean_factor[h] =
            1.0 - congestion_sensitivity * (1.0 - rush_hour_factor(h));
        profile.stddev[h] = 0.06 + 0.20 * (1.0 - rush_hour_factor(h));
      }
      net.out_segments_[from].push_back(net.segments_.size());
      net.segments_.push_back(seg);
      net.profiles_.push_back(profile);
    }
  };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const bool arterial_row = r % 4 == 0;
      const bool arterial_col = c % 4 == 0;
      if (c + 1 < cols) add_street(node(r, c), node(r, c + 1), arterial_row);
      if (r + 1 < rows) add_street(node(r, c), node(r + 1, c), arterial_col);
    }
  }
  (void)rng;
  return net;
}

double RoadNetwork::expected_time_s(std::size_t segment, int hour) const {
  const RoadSegment& seg = segments_[segment];
  const SpeedProfile& profile = profiles_[segment];
  const double speed =
      std::max(2.0, seg.freeflow_kmh * profile.mean_factor[hour % 24]);
  return seg.length_km / speed * 3600.0;
}

double RoadNetwork::sample_time_s(std::size_t segment, int hour,
                                  Rng& rng) const {
  const RoadSegment& seg = segments_[segment];
  const SpeedProfile& profile = profiles_[segment];
  const double factor = std::max(
      0.05, rng.normal(profile.mean_factor[hour % 24], profile.stddev[hour % 24]));
  const double speed = std::max(2.0, seg.freeflow_kmh * factor);
  return seg.length_km / speed * 3600.0;
}

std::optional<std::vector<std::size_t>> RoadNetwork::route(
    std::size_t from, std::size_t to, int hour,
    const std::vector<double>* penalty) const {
  if (from >= num_nodes_ || to >= num_nodes_) return std::nullopt;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(num_nodes_, kInf);
  std::vector<std::size_t> via(num_nodes_);  // segment that reached a node
  using Item = std::pair<double, std::size_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[from] = 0.0;
  pq.emplace(0.0, from);
  while (!pq.empty()) {
    const auto [d, n] = pq.top();
    pq.pop();
    if (d > dist[n]) continue;
    for (const std::size_t s : out_segments_[n]) {
      double w = expected_time_s(s, hour);
      if (penalty != nullptr) w *= (*penalty)[s];
      const double nd = d + w;
      const std::size_t next = segments_[s].to;
      if (nd < dist[next]) {
        dist[next] = nd;
        via[next] = s;
        pq.emplace(nd, next);
      }
    }
  }
  if (dist[to] == kInf) return std::nullopt;
  std::vector<std::size_t> path;
  for (std::size_t n = to; n != from; n = segments_[via[n]].from) {
    path.push_back(via[n]);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<std::size_t> RoadNetwork::shortest_path(std::size_t from,
                                                    std::size_t to,
                                                    int hour) const {
  auto path = route(from, to, hour, nullptr);
  return path ? std::move(*path) : std::vector<std::size_t>{};
}

std::vector<std::vector<std::size_t>> RoadNetwork::alternative_paths(
    std::size_t from, std::size_t to, int hour, int k) const {
  std::vector<std::vector<std::size_t>> alternatives;
  std::vector<double> penalty(segments_.size(), 1.0);  // weight multiplier
  for (int i = 0; i < k; ++i) {
    auto path = route(from, to, hour, &penalty);
    if (!path) break;
    // Penalize used segments to push the next search elsewhere.
    for (const std::size_t s : *path) penalty[s] *= 1.4;
    // Deduplicate identical alternatives.
    bool duplicate = false;
    for (const auto& existing : alternatives) duplicate |= existing == *path;
    if (!duplicate) alternatives.push_back(std::move(*path));
  }
  return alternatives;
}

TravelTimeDistribution ptdr_route_time(const RoadNetwork& network,
                                       const std::vector<std::size_t>& path,
                                       int hour, std::size_t samples,
                                       Rng& rng) {
  std::vector<double> times;
  times.reserve(samples);
  OnlineStats stats;
  for (std::size_t i = 0; i < samples; ++i) {
    double t = 0.0;
    for (std::size_t segment : path) {
      const int current_hour = (hour + static_cast<int>(t / 3600.0)) % 24;
      t += network.sample_time_s(segment, current_hour, rng);
    }
    times.push_back(t);
    stats.add(t);
  }
  TravelTimeDistribution out;
  out.samples = samples;
  out.mean_s = stats.mean();
  out.stddev_s = stats.stddev();
  out.p50_s = percentile(times, 50.0);
  out.p95_s = percentile(times, 95.0);
  return out;
}

Result<RouteChoice> choose_route(const RoadNetwork& network, std::size_t from,
                                 std::size_t to, int hour, int k,
                                 std::size_t mc_samples, double risk_quantile,
                                 Rng& rng) {
  const auto alternatives = network.alternative_paths(from, to, hour, k);
  if (alternatives.empty()) {
    return NotFound("no route between the requested nodes");
  }
  RouteChoice best;
  double best_score = 1e300;
  for (const auto& path : alternatives) {
    const TravelTimeDistribution dist =
        ptdr_route_time(network, path, hour, mc_samples, rng);
    const double score =
        risk_quantile >= 0.95
            ? dist.p95_s
            : (risk_quantile <= 0.5 ? dist.p50_s
                                    : dist.p50_s + (dist.p95_s - dist.p50_s) *
                                                       (risk_quantile - 0.5) /
                                                       0.45);
    if (score < best_score) {
      best_score = score;
      best.path = path;
      best.distribution = dist;
    }
  }
  best.alternatives_evaluated = static_cast<int>(alternatives.size());
  return best;
}

SimulationDay simulate_traffic_day(const RoadNetwork& network,
                                   std::size_t vehicles, std::uint64_t seed) {
  Rng rng(seed);
  SimulationDay day;
  // Per segment per hour: vehicle counts for the congestion feedback.
  std::vector<std::array<double, 24>> load(network.num_segments());
  for (auto& l : load) l.fill(0.0);

  OnlineStats trip_stats;
  for (std::size_t v = 0; v < vehicles; ++v) {
    const std::size_t from = rng.uniform_int(network.num_nodes());
    std::size_t to = rng.uniform_int(network.num_nodes());
    if (to == from) to = (to + 1) % network.num_nodes();
    // Departure skewed to rush hours.
    const int hour = rng.bernoulli(0.5)
                         ? static_cast<int>(rng.uniform_int(7, 9))
                         : static_cast<int>(rng.uniform_int(0, 23));
    const auto path = network.shortest_path(from, to, hour);
    if (path.empty()) continue;
    double t = 0.0;
    for (std::size_t segment : path) {
      const int h = (hour + static_cast<int>(t / 3600.0)) % 24;
      const RoadSegment& seg = network.segment(segment);
      // BPR congestion: time multiplier 1 + 0.15 (v/c)^4.
      const double vc = load[segment][h] / seg.capacity;
      const double congestion = 1.0 + 0.15 * vc * vc * vc * vc;
      const double base = network.sample_time_s(segment, h, rng);
      const double time_s = base * congestion;
      t += time_s;
      load[segment][h] += 1.0;
      day.vehicle_km += seg.length_km;
      FcdPoint fcd;
      fcd.segment = segment;
      fcd.hour = h;
      fcd.speed_kmh = seg.length_km / (time_s / 3600.0);
      day.fcd.push_back(fcd);
    }
    trip_stats.add(t);
  }
  day.mean_trip_time_s = trip_stats.mean();
  return day;
}

std::size_t calibrate_profiles(RoadNetwork& network,
                               const std::vector<FcdPoint>& fcd,
                               std::size_t min_samples) {
  // Aggregate FCD into (segment, hour) cells.
  std::map<std::pair<std::size_t, int>, OnlineStats> cells;
  for (const FcdPoint& point : fcd) {
    cells[{point.segment, point.hour}].add(
        point.speed_kmh / network.segment(point.segment).freeflow_kmh);
  }
  std::size_t updated = 0;
  for (const auto& [key, stats] : cells) {
    if (stats.count() < min_samples) continue;
    SpeedProfile& profile = network.mutable_profile(key.first);
    profile.mean_factor[key.second % 24] = stats.mean();
    profile.stddev[key.second % 24] = std::max(0.02, stats.stddev());
    ++updated;
  }
  return updated;
}

}  // namespace everest::apps
