// Use case §VI-A: weather-based prediction of wind-farm production for the
// energy trading market. Pipeline: ensemble weather → downscale → farm
// power model → MLP correction trained on history → hourly 24-h forecast;
// scored by RMSE and the asymmetric imbalance cost the market charges.
#pragma once

#include <map>
#include <vector>

#include "apps/mlp.hpp"
#include "apps/weather.hpp"
#include "common/status.hpp"

namespace everest::apps {

/// One turbine position in kilometres within the weather domain; fields
/// convert via their own dx_km, so the same farm works at any resolution.
struct Turbine {
  double y_km = 0.0;
  double x_km = 0.0;
  double rated_mw = 3.0;
};

/// A wind farm with the standard piecewise power curve.
struct WindFarm {
  std::vector<Turbine> turbines;
  double cut_in_ms = 3.0;
  double rated_ms = 12.0;
  double cut_out_ms = 25.0;

  /// Power (MW) of one turbine at wind speed v.
  [[nodiscard]] double turbine_power(double v, double rated_mw) const;
  /// Farm output (MW) given a wind field (fine grid).
  [[nodiscard]] double farm_power(const WeatherField& wind) const;
  [[nodiscard]] double capacity_mw() const;

  /// A layout of `n` turbines clustered in the center of a domain of the
  /// given size (km).
  static WindFarm make_cluster(int n, double domain_y_km, double domain_x_km,
                               std::uint64_t seed);
};

/// Forecast configuration.
struct ForecastOptions {
  int ensemble_members = 8;
  int downscale_factor = 4;   // 25 km → ~6 km
  int horizon_hours = 24;
  double member_error_growth = 0.04;
};

/// One day's forecast vs truth.
struct ForecastResult {
  std::vector<double> forecast_mw;   // per hour (MLP-corrected if trained)
  std::vector<double> physical_mw;   // raw ensemble power-curve forecast
  std::vector<double> actual_mw;     // per hour
  double physical_rmse_mw = 0.0;
  double rmse_mw = 0.0;
  /// Imbalance cost in EUR: shortfall penalized 3× surplus (typical
  /// day-ahead market asymmetry), 50 EUR/MWh base.
  double imbalance_cost_eur = 0.0;
  /// FLOPs spent on the weather processing (downscale + ensemble).
  double compute_flops = 0.0;
};

/// The end-to-end energy-forecast application.
class EnergyForecaster {
 public:
  EnergyForecaster(WeatherOptions weather, WindFarm farm, std::uint64_t seed)
      : generator_(weather, seed), farm_(std::move(farm)), seed_(seed) {}

  /// Generates `days` of history and trains the MLP correction model that
  /// maps ensemble statistics → actual power. Returns final training MSE.
  double train(int days, int epochs = 60);

  /// Forecasts the next day and scores it against generated truth.
  ForecastResult forecast_day(const ForecastOptions& options);

  [[nodiscard]] const WindFarm& farm() const { return farm_; }

 private:
  /// The downscale terrain for `factor` on this forecaster's grid, drawn
  /// from its seed once and kept: grid and seed are fixed at
  /// construction, while the factor arrives with each call.
  const std::vector<double>& terrain(int factor);

  /// Ensemble features for one hour: mean/std of farm-cell wind +
  /// hour-of-day encoding.
  std::vector<double> hour_features(
      const std::vector<WeatherState>& members_hour, int hour,
      int downscale_factor, const std::vector<double>& terrain) const;
  /// Raw physical forecast (power curve on the ensemble-mean wind).
  double physical_power(const std::vector<WeatherState>& members_hour,
                        int downscale_factor,
                        const std::vector<double>& terrain) const;
  /// Actual production: power curve on the true wind, degraded by wake and
  /// air-density losses the physical model does not capture (this is the
  /// systematic signal the AI correction learns, paper §VI-D "quality of
  /// predictions").
  double actual_production(const WeatherState& truth_hour,
                           int downscale_factor,
                           const std::vector<double>& terrain) const;

  WeatherGenerator generator_;
  WindFarm farm_;
  std::uint64_t seed_;
  std::map<int, std::vector<double>> terrains_;  ///< by downscale factor
  std::unique_ptr<Mlp> correction_;
  double feature_scale_ = 1.0;
};

}  // namespace everest::apps
