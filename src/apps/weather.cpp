#include "apps/weather.hpp"

#include <algorithm>
#include <cmath>

namespace everest::apps {

namespace {
constexpr double kPi = 3.14159265358979323846;

WeatherField make_field(int ny, int nx, double dx_km, double fill = 0.0) {
  WeatherField f;
  f.ny = ny;
  f.nx = nx;
  f.dx_km = dx_km;
  f.data.assign(static_cast<std::size_t>(ny) * static_cast<std::size_t>(nx),
                fill);
  return f;
}

/// Box-smooths a field `passes` times with the given radius — a cheap
/// separable approximation of Gaussian spatial correlation.
void smooth(WeatherField& f, int radius, int passes) {
  if (radius <= 0) return;
  WeatherField tmp = f;
  for (int pass = 0; pass < passes; ++pass) {
    // Horizontal.
    for (int y = 0; y < f.ny; ++y) {
      for (int x = 0; x < f.nx; ++x) {
        double sum = 0.0;
        int count = 0;
        for (int k = -radius; k <= radius; ++k) {
          const int xx = std::clamp(x + k, 0, f.nx - 1);
          sum += f.at(y, xx);
          ++count;
        }
        tmp.at(y, x) = sum / count;
      }
    }
    // Vertical.
    for (int y = 0; y < f.ny; ++y) {
      for (int x = 0; x < f.nx; ++x) {
        double sum = 0.0;
        int count = 0;
        for (int k = -radius; k <= radius; ++k) {
          const int yy = std::clamp(y + k, 0, f.ny - 1);
          sum += tmp.at(yy, x);
          ++count;
        }
        f.at(y, x) = sum / count;
      }
    }
  }
}

}  // namespace

double WeatherField::sample(double y, double x) const {
  const double cy = std::clamp(y, 0.0, static_cast<double>(ny - 1));
  const double cx = std::clamp(x, 0.0, static_cast<double>(nx - 1));
  const int y0 = static_cast<int>(cy);
  const int x0 = static_cast<int>(cx);
  const int y1 = std::min(y0 + 1, ny - 1);
  const int x1 = std::min(x0 + 1, nx - 1);
  const double fy = cy - y0;
  const double fx = cx - x0;
  return at(y0, x0) * (1 - fy) * (1 - fx) + at(y0, x1) * (1 - fy) * fx +
         at(y1, x0) * fy * (1 - fx) + at(y1, x1) * fy * fx;
}

WeatherField WeatherGenerator::correlated_noise(double stddev) {
  WeatherField noise = make_field(options_.ny, options_.nx, options_.dx_km);
  for (double& v : noise.data) v = rng_.normal(0.0, 1.0);
  const int radius = std::max(1, static_cast<int>(options_.correlation_cells));
  smooth(noise, radius, 2);
  // Smoothing shrinks variance: renormalize to the requested stddev.
  double mean = 0.0, var = 0.0;
  for (double v : noise.data) mean += v;
  mean /= static_cast<double>(noise.data.size());
  for (double v : noise.data) var += (v - mean) * (v - mean);
  var /= static_cast<double>(noise.data.size());
  const double scale = var > 1e-12 ? stddev / std::sqrt(var) : 0.0;
  for (double& v : noise.data) v = (v - mean) * scale;
  return noise;
}

std::vector<WeatherState> WeatherGenerator::generate_truth(int hours) {
  std::vector<WeatherState> out;
  out.reserve(static_cast<std::size_t>(hours));
  // Synoptic base patterns evolve slowly; ramps flip the regime.
  WeatherField wind_base = correlated_noise(options_.wind_variability);
  WeatherField dir_base = correlated_noise(0.6);
  double regime = 0.0;  // ramp offset added to wind
  double regime_target = 0.0;
  for (int h = 0; h < hours; ++h) {
    if (h % 24 == 0 && rng_.bernoulli(options_.ramp_probability)) {
      // Ramp event arriving at a random hour today.
      regime_target = rng_.bernoulli(0.5) ? options_.mean_wind * 0.8
                                          : -options_.mean_wind * 0.5;
    }
    regime += 0.15 * (regime_target - regime);
    regime_target *= 0.98;
    // Slow pattern evolution.
    WeatherField evolve = correlated_noise(options_.wind_variability * 0.15);
    for (std::size_t i = 0; i < wind_base.data.size(); ++i) {
      wind_base.data[i] =
          0.97 * wind_base.data[i] + evolve.data[static_cast<std::size_t>(i)];
    }
    const double hour_angle = 2.0 * kPi * (h % 24) / 24.0;
    const double diurnal_wind = 1.0 + 0.12 * std::sin(hour_angle - kPi / 2);

    WeatherState state;
    state.wind_speed = make_field(options_.ny, options_.nx, options_.dx_km);
    state.wind_dir = make_field(options_.ny, options_.nx, options_.dx_km);
    state.temperature = make_field(options_.ny, options_.nx, options_.dx_km);
    state.solar = make_field(options_.ny, options_.nx, options_.dx_km);
    for (int y = 0; y < options_.ny; ++y) {
      for (int x = 0; x < options_.nx; ++x) {
        const double w = (options_.mean_wind + wind_base.at(y, x) + regime) *
                         diurnal_wind;
        state.wind_speed.at(y, x) = std::max(0.0, w);
        state.wind_dir.at(y, x) = dir_base.at(y, x) + 0.3 * std::sin(hour_angle);
        state.temperature.at(y, x) =
            12.0 + 6.0 * std::sin(hour_angle - kPi / 2) +
            0.4 * wind_base.at(y, x);
        state.solar.at(y, x) =
            std::max(0.0, 800.0 * std::sin(hour_angle - kPi / 2));
      }
    }
    out.push_back(std::move(state));
  }
  return out;
}

std::vector<WeatherState> WeatherGenerator::perturb_member(
    const std::vector<WeatherState>& truth, double error_growth) {
  std::vector<WeatherState> member = truth;
  WeatherField bias = correlated_noise(1.0);
  for (std::size_t h = 0; h < member.size(); ++h) {
    const double amplitude =
        error_growth * static_cast<double>(h + 1);  // grows with lead time
    WeatherField jitter = correlated_noise(1.0);
    for (int y = 0; y < member[h].wind_speed.ny; ++y) {
      for (int x = 0; x < member[h].wind_speed.nx; ++x) {
        const double eps =
            amplitude * (0.7 * bias.at(y, x) + 0.5 * jitter.at(y, x));
        double& w = member[h].wind_speed.at(y, x);
        w = std::max(0.0, w * (1.0 + eps) );
        member[h].temperature.at(y, x) += 2.0 * eps;
        member[h].wind_dir.at(y, x) += 0.2 * eps;
      }
    }
  }
  return member;
}

std::vector<double> downscale_terrain(int ny, int nx, int factor,
                                      std::uint64_t seed) {
  if (factor <= 1) return {};
  std::vector<double> terrain(static_cast<std::size_t>(ny) * factor *
                              static_cast<std::size_t>(nx) * factor);
  Rng rng(seed);
  for (double& t : terrain) t = rng.normal(0.0, 1.0);
  return terrain;
}

WeatherField downscale(const WeatherField& coarse, int factor,
                       double perturbation,
                       const std::vector<double>& terrain) {
  if (factor <= 1) return coarse;
  WeatherField fine;
  fine.ny = coarse.ny * factor;
  fine.nx = coarse.nx * factor;
  fine.dx_km = coarse.dx_km / factor;
  fine.data.resize(static_cast<std::size_t>(fine.ny) *
                   static_cast<std::size_t>(fine.nx));
  for (int y = 0; y < fine.ny; ++y) {
    for (int x = 0; x < fine.nx; ++x) {
      const double cy = static_cast<double>(y) / factor;
      const double cx = static_cast<double>(x) / factor;
      const double base = coarse.sample(cy, cx);
      const double t =
          terrain[static_cast<std::size_t>(y) *
                      static_cast<std::size_t>(fine.nx) +
                  static_cast<std::size_t>(x)];
      fine.at(y, x) = base * (1.0 + perturbation * t);
    }
  }
  return fine;
}

WeatherField downscale(const WeatherField& coarse, int factor,
                       double perturbation, std::uint64_t seed) {
  return downscale(coarse, factor, perturbation,
                   downscale_terrain(coarse.ny, coarse.nx, factor, seed));
}

double downscale_flops(const WeatherField& coarse, int factor) {
  // ~12 FLOPs per fine cell (bilinear weights + modulation).
  return 12.0 * coarse.data.size() * factor * factor;
}

}  // namespace everest::apps
