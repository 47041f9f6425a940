#include "apps/energy.hpp"

#include <algorithm>
#include <cmath>

#include "common/stats.hpp"

namespace everest::apps {

namespace {
constexpr double kPi = 3.14159265358979323846;
constexpr double kBasePriceEurMwh = 50.0;
constexpr double kShortfallMultiplier = 3.0;
}  // namespace

double WindFarm::turbine_power(double v, double rated_mw) const {
  if (v < cut_in_ms || v >= cut_out_ms) return 0.0;
  if (v >= rated_ms) return rated_mw;
  // Cubic ramp between cut-in and rated.
  const double f = (v - cut_in_ms) / (rated_ms - cut_in_ms);
  return rated_mw * f * f * f;
}

double WindFarm::farm_power(const WeatherField& wind) const {
  double total = 0.0;
  for (const Turbine& t : turbines) {
    const double v = wind.sample(t.y_km / wind.dx_km, t.x_km / wind.dx_km);
    total += turbine_power(v, t.rated_mw);
  }
  return total;
}

double WindFarm::capacity_mw() const {
  double total = 0.0;
  for (const Turbine& t : turbines) total += t.rated_mw;
  return total;
}

WindFarm WindFarm::make_cluster(int n, double domain_y_km, double domain_x_km,
                                std::uint64_t seed) {
  WindFarm farm;
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    Turbine t;
    t.y_km = domain_y_km * (0.4 + 0.2 * rng.uniform());
    t.x_km = domain_x_km * (0.4 + 0.2 * rng.uniform());
    t.rated_mw = 3.0;
    farm.turbines.push_back(t);
  }
  return farm;
}

const std::vector<double>& EnergyForecaster::terrain(int factor) {
  auto it = terrains_.find(factor);
  if (it == terrains_.end()) {
    const WeatherOptions& grid = generator_.options();
    it = terrains_
             .emplace(factor,
                      downscale_terrain(grid.ny, grid.nx, factor, seed_))
             .first;
  }
  return it->second;
}

std::vector<double> EnergyForecaster::hour_features(
    const std::vector<WeatherState>& members_hour, int hour,
    int downscale_factor, const std::vector<double>& terrain) const {
  // Farm-cell wind statistics across the ensemble.
  OnlineStats wind_stats, power_stats;
  for (const WeatherState& member : members_hour) {
    const WeatherField fine =
        downscale(member.wind_speed, downscale_factor, 0.05, terrain);
    double mean_wind = 0.0;
    for (const Turbine& t : farm_.turbines) {
      mean_wind += fine.sample(t.y_km / fine.dx_km, t.x_km / fine.dx_km);
    }
    mean_wind /= static_cast<double>(farm_.turbines.size());
    wind_stats.add(mean_wind);
    power_stats.add(farm_.farm_power(fine));
  }
  const double capacity = farm_.capacity_mw();
  return {
      wind_stats.mean() / 15.0,
      wind_stats.stddev() / 5.0,
      power_stats.mean() / capacity,
      power_stats.stddev() / capacity,
      std::sin(2.0 * kPi * hour / 24.0),
      std::cos(2.0 * kPi * hour / 24.0),
  };
}

double EnergyForecaster::physical_power(
    const std::vector<WeatherState>& members_hour,
    int downscale_factor, const std::vector<double>& terrain) const {
  double total = 0.0;
  for (const WeatherState& member : members_hour) {
    const WeatherField fine =
        downscale(member.wind_speed, downscale_factor, 0.05, terrain);
    total += farm_.farm_power(fine);
  }
  return total / static_cast<double>(members_hour.size());
}

double EnergyForecaster::actual_production(
    const WeatherState& truth_hour, int downscale_factor,
    const std::vector<double>& terrain) const {
  const WeatherField fine =
      downscale(truth_hour.wind_speed, downscale_factor, 0.05, terrain);
  const double raw = farm_.farm_power(fine);
  // Wake losses (~10%) plus an air-density term: warm air is thinner, so
  // production drops ~0.6%/°C above 12 °C.
  const double gy = farm_.turbines.empty()
                        ? 0.0
                        : farm_.turbines[0].y_km / truth_hour.temperature.dx_km;
  const double gx = farm_.turbines.empty()
                        ? 0.0
                        : farm_.turbines[0].x_km / truth_hour.temperature.dx_km;
  const double temp = truth_hour.temperature.sample(gy, gx);
  const double loss = 0.90 * (1.0 - 0.006 * (temp - 12.0));
  return std::clamp(raw * loss, 0.0, farm_.capacity_mw());
}

double EnergyForecaster::train(int days, int epochs) {
  ForecastOptions options;  // defaults for history generation
  const int factor = options.downscale_factor;
  const std::vector<double>& fine_terrain = terrain(factor);
  std::vector<std::vector<double>> features;
  std::vector<std::vector<double>> targets;
  const double capacity = farm_.capacity_mw();
  for (int day = 0; day < days; ++day) {
    const auto truth = generator_.generate_truth(options.horizon_hours);
    std::vector<std::vector<WeatherState>> members;
    for (int m = 0; m < options.ensemble_members; ++m) {
      members.push_back(
          generator_.perturb_member(truth, options.member_error_growth));
    }
    for (int h = 0; h < options.horizon_hours; ++h) {
      std::vector<WeatherState> hour_states;
      for (const auto& member : members) hour_states.push_back(member[h]);
      features.push_back(hour_features(hour_states, h, factor, fine_terrain));
      targets.push_back(
          {actual_production(truth[h], factor, fine_terrain) / capacity});
    }
  }
  Rng rng(seed_ ^ 0xABCDEF);
  correction_ = std::make_unique<Mlp>(
      std::vector<int>{static_cast<int>(features.front().size()), 16, 1}, rng);
  double loss = 0.0;
  for (int e = 0; e < epochs; ++e) {
    loss = correction_->train_epoch(features, targets, 0.02, rng);
  }
  return loss;
}

ForecastResult EnergyForecaster::forecast_day(const ForecastOptions& options) {
  ForecastResult result;
  const double capacity = farm_.capacity_mw();
  const int factor = options.downscale_factor;
  const std::vector<double>& fine_terrain = terrain(factor);
  const auto truth = generator_.generate_truth(options.horizon_hours);
  std::vector<std::vector<WeatherState>> members;
  for (int m = 0; m < options.ensemble_members; ++m) {
    members.push_back(
        generator_.perturb_member(truth, options.member_error_growth));
  }
  double se = 0.0, physical_se = 0.0;
  for (int h = 0; h < options.horizon_hours; ++h) {
    std::vector<WeatherState> hour_states;
    for (const auto& member : members) hour_states.push_back(member[h]);
    const double physical = physical_power(hour_states, factor, fine_terrain);
    double forecast = physical;
    if (correction_ != nullptr) {
      const auto f = hour_features(hour_states, h, factor, fine_terrain);
      forecast = std::clamp(correction_->predict(f)[0], 0.0, 1.0) * capacity;
    }
    const double actual = actual_production(truth[h], factor, fine_terrain);
    result.forecast_mw.push_back(forecast);
    result.physical_mw.push_back(physical);
    result.actual_mw.push_back(actual);
    se += (forecast - actual) * (forecast - actual);
    physical_se += (physical - actual) * (physical - actual);
    const double error_mwh = forecast - actual;  // 1-hour settlement
    result.imbalance_cost_eur +=
        kBasePriceEurMwh *
        (error_mwh > 0 ? kShortfallMultiplier * error_mwh : -error_mwh);
    result.compute_flops +=
        static_cast<double>(options.ensemble_members + 1) *
        downscale_flops(truth[h].wind_speed, factor);
  }
  result.rmse_mw = std::sqrt(se / options.horizon_hours);
  result.physical_rmse_mw = std::sqrt(physical_se / options.horizon_hours);
  return result;
}

}  // namespace everest::apps
