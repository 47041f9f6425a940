// Synthetic weather-ensemble substrate (paper §VI-A/B). Stands in for the
// ECMWF/WRF products the project uses: spatially correlated fields with
// diurnal structure, ensemble perturbations, and a downscaling operator
// ("increase the resolution of weather forecast ensembles", §VI-A).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"

namespace everest::apps {

/// One scalar field on a regular ny × nx grid (row-major).
struct WeatherField {
  int ny = 0;
  int nx = 0;
  /// Grid spacing in km.
  double dx_km = 25.0;
  std::vector<double> data;

  [[nodiscard]] double at(int y, int x) const {
    return data[static_cast<std::size_t>(y) * static_cast<std::size_t>(nx) +
                static_cast<std::size_t>(x)];
  }
  double& at(int y, int x) {
    return data[static_cast<std::size_t>(y) * static_cast<std::size_t>(nx) +
                static_cast<std::size_t>(x)];
  }
  /// Bilinear sample at fractional grid coordinates (clamped).
  [[nodiscard]] double sample(double y, double x) const;
};

/// Weather state for one hour: the variables the use cases need.
struct WeatherState {
  WeatherField wind_speed;   // m/s at hub height
  WeatherField wind_dir;     // radians
  WeatherField temperature;  // °C
  WeatherField solar;        // W/m²
};

/// Configuration of the synthetic atmosphere.
struct WeatherOptions {
  int ny = 24;
  int nx = 24;
  double dx_km = 25.0;
  double mean_wind = 8.0;        // m/s
  double wind_variability = 3.0; // synoptic std-dev
  double correlation_cells = 4.0;  // spatial correlation length (cells)
  /// Probability per day of a ramp event (front passage), the phenomenon
  /// §VI-A targets ("severe meteorological ramp-up/down events").
  double ramp_probability = 0.15;
};

/// Generates "truth" weather and perturbed ensembles around it.
class WeatherGenerator {
 public:
  WeatherGenerator(WeatherOptions options, std::uint64_t seed)
      : options_(options), rng_(seed) {}

  /// Generates `hours` consecutive truth states (hour 0 = midnight).
  std::vector<WeatherState> generate_truth(int hours);

  /// Perturbs a truth sequence into one ensemble member: correlated noise
  /// plus a phase/amplitude error that grows with lead time.
  std::vector<WeatherState> perturb_member(
      const std::vector<WeatherState>& truth, double error_growth = 0.04);

  [[nodiscard]] const WeatherOptions& options() const { return options_; }

 private:
  WeatherField correlated_noise(double stddev);
  WeatherOptions options_;
  Rng rng_;
};

/// The fine-scale terrain `downscale` modulates by: one standard normal
/// per cell of the (ny·factor) × (nx·factor) fine grid, row-major, drawn
/// from `seed`. Empty when factor <= 1. It depends only on its arguments,
/// so a caller that downscales the same grid repeatedly draws it once.
std::vector<double> downscale_terrain(int ny, int nx, int factor,
                                      std::uint64_t seed);

/// Bilinear downscaling by an integer factor with terrain-like small-scale
/// perturbation: fine = bilinear(coarse) · (1 + perturbation · terrain).
/// `terrain` holds downscale_terrain(coarse.ny, coarse.nx, factor, ·).
/// Returns `coarse` unchanged when factor <= 1.
WeatherField downscale(const WeatherField& coarse, int factor,
                       double perturbation, const std::vector<double>& terrain);

/// The same with the terrain drawn from `seed` (deterministic, so members
/// stay comparable).
WeatherField downscale(const WeatherField& coarse, int factor,
                       double perturbation = 0.05, std::uint64_t seed = 17);

/// FLOPs a downscale of this size costs (for compute accounting).
double downscale_flops(const WeatherField& coarse, int factor);

}  // namespace everest::apps
