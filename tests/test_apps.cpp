// Tests for the use-case applications: MLP, weather substrate, energy
// forecasting, air-quality dispersion, and traffic/PTDR.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "apps/airquality.hpp"
#include "common/stats.hpp"
#include "apps/energy.hpp"
#include "apps/mlp.hpp"
#include "apps/traffic.hpp"
#include "apps/weather.hpp"
#include "common/hash.hpp"
#include "compiler/lowering.hpp"
#include "ir/verifier.hpp"

namespace everest::apps {
namespace {

// ------------------------------------------------------------------- MLP --

TEST(Mlp, LearnsLinearFunction) {
  Rng rng(7);
  Mlp net({2, 8, 1}, rng);
  std::vector<std::vector<double>> inputs, targets;
  for (int i = 0; i < 200; ++i) {
    const double a = rng.uniform(-1, 1), b = rng.uniform(-1, 1);
    inputs.push_back({a, b});
    targets.push_back({0.3 * a - 0.7 * b + 0.1});
  }
  const double before = net.evaluate(inputs, targets);
  for (int e = 0; e < 200; ++e) net.train_epoch(inputs, targets, 0.05, rng);
  const double after = net.evaluate(inputs, targets);
  EXPECT_LT(after, before * 0.05);
  EXPECT_LT(after, 1e-3);
}

TEST(Mlp, LearnsNonlinearFunction) {
  Rng rng(9);
  Mlp net({1, 16, 1}, rng);
  std::vector<std::vector<double>> inputs, targets;
  for (int i = 0; i < 300; ++i) {
    const double x = rng.uniform(-2, 2);
    inputs.push_back({x});
    targets.push_back({std::sin(x)});
  }
  for (int e = 0; e < 400; ++e) net.train_epoch(inputs, targets, 0.02, rng);
  EXPECT_LT(net.evaluate(inputs, targets), 5e-3);
}

TEST(Mlp, ParameterCount) {
  Rng rng(1);
  Mlp net({4, 8, 2}, rng);
  EXPECT_EQ(net.num_parameters(), 4u * 8 + 8 + 8 * 2 + 2);
  EXPECT_EQ(net.num_inputs(), 4);
  EXPECT_EQ(net.num_outputs(), 2);
}

TEST(Mlp, TensorProgramMatchesPrediction) {
  // The exported tensor program must verify and lower through the SDK.
  Rng rng(3);
  Mlp net({3, 5, 2}, rng);
  dsl::TensorProgram program = net.to_tensor_program("mlp_infer", 4);
  auto module = program.lower();
  ASSERT_TRUE(module.ok()) << module.status().to_string();
  EXPECT_TRUE(ir::verify(*module).ok()) << ir::verify(*module).to_string();
  auto lowered = compiler::lower_to_kernel(*module, "mlp_infer");
  EXPECT_TRUE(lowered.ok()) << lowered.status().to_string();
}

// --------------------------------------------------------------- Weather --

TEST(Weather, TruthHasPlausibleStructure) {
  WeatherOptions options;
  WeatherGenerator gen(options, 11);
  const auto truth = gen.generate_truth(48);
  ASSERT_EQ(truth.size(), 48u);
  OnlineStats wind;
  for (const auto& state : truth) {
    for (double w : state.wind_speed.data) {
      EXPECT_GE(w, 0.0);
      wind.add(w);
    }
    for (double s : state.solar.data) EXPECT_GE(s, 0.0);
  }
  EXPECT_NEAR(wind.mean(), options.mean_wind, 4.0);
  // Solar zero at midnight, positive at noon.
  EXPECT_DOUBLE_EQ(truth[0].solar.at(0, 0), 0.0);
  EXPECT_GT(truth[12].solar.at(5, 5), 100.0);
}

TEST(Weather, EnsembleSpreadGrowsWithLeadTime) {
  WeatherGenerator gen(WeatherOptions{}, 23);
  const auto truth = gen.generate_truth(24);
  std::vector<std::vector<WeatherState>> members;
  for (int m = 0; m < 6; ++m) members.push_back(gen.perturb_member(truth));
  auto spread_at = [&](int h) {
    OnlineStats s;
    for (const auto& member : members) {
      s.add(member[h].wind_speed.at(10, 10));
    }
    return s.stddev();
  };
  // Averaged over several cells to reduce sampling noise.
  double early = 0.0, late = 0.0;
  for (int h = 0; h < 4; ++h) early += spread_at(h);
  for (int h = 20; h < 24; ++h) late += spread_at(h);
  EXPECT_GT(late, early);
}

TEST(Weather, DownscalePreservesLargeScale) {
  WeatherGenerator gen(WeatherOptions{}, 5);
  const auto truth = gen.generate_truth(1);
  const WeatherField& coarse = truth[0].wind_speed;
  const WeatherField fine = downscale(coarse, 4, 0.05, 7);
  EXPECT_EQ(fine.ny, coarse.ny * 4);
  EXPECT_NEAR(fine.dx_km, coarse.dx_km / 4, 1e-12);
  // Means agree within the perturbation amplitude.
  double cm = 0, fm = 0;
  for (double v : coarse.data) cm += v;
  for (double v : fine.data) fm += v;
  cm /= coarse.data.size();
  fm /= fine.data.size();
  EXPECT_NEAR(fm, cm, 0.15 * cm + 0.2);
  // Identity for factor 1, deterministic for equal seeds.
  const WeatherField same = downscale(coarse, 1);
  EXPECT_EQ(same.data, coarse.data);
  const WeatherField fine2 = downscale(coarse, 4, 0.05, 7);
  EXPECT_EQ(fine.data, fine2.data);
  EXPECT_GT(downscale_flops(coarse, 4), 0.0);
}

TEST(Weather, DownscaleOverTerrainEqualsSeededDownscale) {
  WeatherGenerator gen(WeatherOptions{}, 5);
  const auto truth = gen.generate_truth(1);
  const WeatherField& coarse = truth[0].wind_speed;
  for (const int factor : {1, 2, 4}) {
    const std::vector<double> terrain =
        downscale_terrain(coarse.ny, coarse.nx, factor, 7);
    const WeatherField seeded = downscale(coarse, factor, 0.05, 7);
    const WeatherField given = downscale(coarse, factor, 0.05, terrain);
    EXPECT_EQ(given.ny, seeded.ny);
    EXPECT_EQ(given.nx, seeded.nx);
    EXPECT_EQ(given.dx_km, seeded.dx_km);
    ASSERT_EQ(given.data.size(), seeded.data.size());
    for (std::size_t i = 0; i < given.data.size(); ++i) {
      ASSERT_EQ(given.data[i], seeded.data[i]) << "factor " << factor
                                               << " cell " << i;
    }
  }
  // The seeded output itself, recorded when it drew its terrain inline.
  const WeatherField fine = downscale(coarse, 4, 0.05, 7);
  std::uint64_t h = kFnv1aBasis;
  for (const double v : fine.data) {
    h = fnv1a_u64(std::bit_cast<std::uint64_t>(v), h);
  }
  EXPECT_EQ(h, 0xaa33d15f0c6e15b9ULL);
}

TEST(Weather, FieldSampleBilinear) {
  WeatherField f;
  f.ny = 2;
  f.nx = 2;
  f.data = {0.0, 1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(f.sample(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(f.sample(0.5, 0.5), 1.5);
  EXPECT_DOUBLE_EQ(f.sample(1, 1), 3.0);
  EXPECT_DOUBLE_EQ(f.sample(-5, 9), 1.0);  // clamped
}

// ---------------------------------------------------------------- Energy --

TEST(Energy, PowerCurveShape) {
  WindFarm farm;
  EXPECT_DOUBLE_EQ(farm.turbine_power(1.0, 3.0), 0.0);   // below cut-in
  EXPECT_DOUBLE_EQ(farm.turbine_power(30.0, 3.0), 0.0);  // above cut-out
  EXPECT_DOUBLE_EQ(farm.turbine_power(12.0, 3.0), 3.0);  // rated
  const double mid = farm.turbine_power(7.0, 3.0);
  EXPECT_GT(mid, 0.0);
  EXPECT_LT(mid, 3.0);
  // Monotone between cut-in and rated.
  EXPECT_LT(farm.turbine_power(5.0, 3.0), farm.turbine_power(9.0, 3.0));
}

TEST(Energy, FarmAggregatesTurbines) {
  WindFarm farm = WindFarm::make_cluster(20, 600, 600, 3);
  EXPECT_EQ(farm.turbines.size(), 20u);
  EXPECT_DOUBLE_EQ(farm.capacity_mw(), 60.0);
  WeatherField wind;
  wind.ny = 24;
  wind.nx = 24;
  wind.dx_km = 25.0;
  wind.data.assign(24 * 24, 12.0);  // rated everywhere
  EXPECT_NEAR(farm.farm_power(wind), 60.0, 1e-9);
}

TEST(Energy, TrainedForecastBeatsRawPhysical) {
  WeatherOptions weather;
  weather.ny = 12;
  weather.nx = 12;
  WindFarm farm = WindFarm::make_cluster(12, weather.ny * weather.dx_km,
                                         weather.nx * weather.dx_km, 3);
  ForecastOptions options;
  options.ensemble_members = 4;
  options.downscale_factor = 2;

  EnergyForecaster trained(weather, farm, 99);
  trained.train(/*days=*/8, /*epochs=*/60);
  double trained_rmse = 0.0, physical_rmse = 0.0;
  for (int d = 0; d < 4; ++d) {
    const ForecastResult result = trained.forecast_day(options);
    trained_rmse += result.rmse_mw;
    physical_rmse += result.physical_rmse_mw;
  }
  // The AI correction learns the systematic wake/density losses the raw
  // power-curve model misses (paper §VI-D "quality of predictions").
  EXPECT_LT(trained_rmse, physical_rmse);
}

TEST(Energy, ForecastResultAccounting) {
  WeatherOptions weather;
  weather.ny = 8;
  weather.nx = 8;
  WindFarm farm = WindFarm::make_cluster(6, 200, 200, 3);
  EnergyForecaster forecaster(weather, farm, 42);
  ForecastOptions options;
  options.ensemble_members = 3;
  options.downscale_factor = 2;
  const ForecastResult result = forecaster.forecast_day(options);
  EXPECT_EQ(result.forecast_mw.size(), 24u);
  EXPECT_EQ(result.actual_mw.size(), 24u);
  EXPECT_GE(result.rmse_mw, 0.0);
  EXPECT_GE(result.imbalance_cost_eur, 0.0);
  EXPECT_GT(result.compute_flops, 0.0);
  for (double p : result.forecast_mw) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, farm.capacity_mw() + 1e-9);
  }
}

// ------------------------------------------------------------ AirQuality --

TEST(AirQuality, StabilityClassification) {
  EXPECT_EQ(classify_stability(800, 2.0), Stability::kA);
  EXPECT_EQ(classify_stability(800, 4.0), Stability::kB);
  EXPECT_EQ(classify_stability(0, 2.0), Stability::kF);
  EXPECT_EQ(classify_stability(0, 4.0), Stability::kE);
  EXPECT_EQ(classify_stability(500, 8.0), Stability::kD);
}

TEST(AirQuality, SigmasGrowWithDistanceAndInstability) {
  double sy1, sz1, sy2, sz2;
  briggs_sigmas(Stability::kD, 500, &sy1, &sz1);
  briggs_sigmas(Stability::kD, 2000, &sy2, &sz2);
  EXPECT_GT(sy2, sy1);
  EXPECT_GT(sz2, sz1);
  double sy_a, sz_a, sy_f, sz_f;
  briggs_sigmas(Stability::kA, 1000, &sy_a, &sz_a);
  briggs_sigmas(Stability::kF, 1000, &sy_f, &sz_f);
  EXPECT_GT(sy_a, sy_f);
  EXPECT_GT(sz_a, sz_f);
}

TEST(AirQuality, PlumePhysics) {
  StackSource stack;
  stack.y_km = 5.0;
  stack.x_km = 5.0;
  stack.height_m = 50.0;
  stack.emission_gs = 100.0;
  const double wind = 5.0, dir = 0.0;  // blowing towards +x
  // Zero upwind.
  EXPECT_DOUBLE_EQ(plume_concentration(stack, wind, dir, Stability::kD, 5.0,
                                       4.0),
                   0.0);
  // Positive downwind on the centerline.
  const double c1 = plume_concentration(stack, wind, dir, Stability::kD, 5.0,
                                        6.0);
  EXPECT_GT(c1, 0.0);
  // Decays off-centerline.
  const double off = plume_concentration(stack, wind, dir, Stability::kD, 6.5,
                                         6.0);
  EXPECT_LT(off, c1);
  // Stronger wind dilutes (far enough downwind).
  const double strong = plume_concentration(stack, 12.0, dir, Stability::kD,
                                            5.0, 9.0);
  const double weak = plume_concentration(stack, 4.0, dir, Stability::kD,
                                          5.0, 9.0);
  EXPECT_LT(strong, weak);
  // Emission scales linearly.
  StackSource doubled = stack;
  doubled.emission_gs *= 2.0;
  EXPECT_NEAR(
      plume_concentration(doubled, wind, dir, Stability::kD, 5.0, 6.0),
      2.0 * c1, 1e-9);
}

TEST(AirQuality, ForecastPipelineProducesDecisions) {
  WeatherOptions weather;
  weather.ny = 8;
  weather.nx = 8;
  weather.dx_km = 2.0;
  weather.mean_wind = 3.0;  // calm → high concentrations
  WeatherGenerator gen(weather, 31);
  std::vector<StackSource> sources = {
      {5.0, 5.0, 40.0, 500.0},
      {5.5, 5.0, 30.0, 300.0},
  };
  std::vector<Receptor> receptors = {
      {"school", 5.0, 7.0},
      {"station", 7.0, 5.0},
  };
  AirQualityOptions options;
  options.ensemble_members = 4;
  options.grid_ny = 20;
  options.grid_nx = 20;
  options.grid_dx_km = 0.5;
  options.limit_ugm3 = 20.0;
  const AirQualityForecast forecast =
      forecast_air_quality(sources, receptors, gen, options);
  ASSERT_EQ(forecast.exceedance_probability.size(), 2u);
  ASSERT_EQ(forecast.exceedance_probability[0].size(), 24u);
  for (const auto& row : forecast.exceedance_probability) {
    for (double p : row) {
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
  }
  EXPECT_GT(forecast.compute_flops, 0.0);
  // With strong sources and a low limit some hour should trigger curtailment.
  EXPECT_FALSE(forecast.curtail_hours.empty());
}

// ----------------------------------------------------------------- Traffic --

TEST(Traffic, GridNetworkStructure) {
  RoadNetwork net = RoadNetwork::make_grid(5, 5, 7);
  EXPECT_EQ(net.num_nodes(), 25u);
  // 2 directions × (rows*(cols-1) + cols*(rows-1)) = 2 × 40 = 80.
  EXPECT_EQ(net.num_segments(), 80u);
}

TEST(Traffic, RushHourSlowsTravel) {
  RoadNetwork net = RoadNetwork::make_grid(5, 5, 7);
  const double off_peak = net.expected_time_s(0, 3);
  const double peak = net.expected_time_s(0, 8);
  EXPECT_GT(peak, off_peak);
}

TEST(Traffic, ShortestPathConnectsGrid) {
  RoadNetwork net = RoadNetwork::make_grid(6, 6, 7);
  const auto path = net.shortest_path(0, 35, 12);
  ASSERT_FALSE(path.empty());
  // Path connects 0 → 35: follow segments.
  std::size_t at = 0;
  for (std::size_t s : path) {
    EXPECT_EQ(net.segment(s).from, at);
    at = net.segment(s).to;
  }
  EXPECT_EQ(at, 35u);
}

/// FNV-1a over every shortest_path and alternative_paths(k = 3) result of
/// a stride sweep of (from, to) at hours 0, 8 and 17: each path's length,
/// then its segment ids. The sweep includes from == to pairs.
std::uint64_t routing_digest(const RoadNetwork& net) {
  std::uint64_t h = kFnv1aBasis;
  auto fold = [&h](const std::vector<std::size_t>& path) {
    h = fnv1a_u64(path.size(), h);
    for (const std::size_t s : path) h = fnv1a_u64(s, h);
  };
  for (const int hour : {0, 8, 17}) {
    for (std::size_t from = 0; from < net.num_nodes(); from += 7) {
      for (std::size_t to = 3; to < net.num_nodes(); to += 11) {
        fold(net.shortest_path(from, to, hour));
        const auto alternatives = net.alternative_paths(from, to, hour, 3);
        h = fnv1a_u64(alternatives.size(), h);
        for (const auto& alt : alternatives) fold(alt);
      }
    }
  }
  return h;
}

TEST(Traffic, RoutingMatchesGoldenDigest) {
  // Recorded when routing still built a weighted graph per query; any
  // changed route changes them.
  EXPECT_EQ(routing_digest(RoadNetwork::make_grid(10, 10, 17)),
            0x718356ea6ab0faf4ULL);
  EXPECT_EQ(routing_digest(RoadNetwork::make_grid(12, 12, 9)),
            0xa977495bebb44e14ULL);
}

TEST(Traffic, OutOfRangeNodeIdsRouteNowhere) {
  const RoadNetwork net = RoadNetwork::make_grid(10, 10, 17);
  EXPECT_TRUE(net.shortest_path(150, 3, 8).empty());
  EXPECT_TRUE(net.shortest_path(3, 150, 8).empty());
  EXPECT_TRUE(net.shortest_path(net.num_nodes(), 0, 8).empty());
  EXPECT_TRUE(net.alternative_paths(150, 3, 8, 3).empty());
  EXPECT_TRUE(net.alternative_paths(3, net.num_nodes(), 8, 3).empty());
  Rng rng(1);
  EXPECT_EQ(choose_route(net, 150, 3, 8, 3, 16, 0.5, rng).status().code(),
            StatusCode::kNotFound);
  // The last node is still routable.
  EXPECT_FALSE(net.shortest_path(net.num_nodes() - 1, 0, 8).empty());
}

TEST(Traffic, AlternativePathsAreDistinct) {
  RoadNetwork net = RoadNetwork::make_grid(8, 8, 7);
  const auto alts = net.alternative_paths(0, 63, 8, 3);
  ASSERT_GE(alts.size(), 2u);
  EXPECT_NE(alts[0], alts[1]);
}

TEST(Traffic, PtdrConvergesWithSamples) {
  RoadNetwork net = RoadNetwork::make_grid(8, 8, 7);
  const auto path = net.shortest_path(0, 63, 8);
  ASSERT_FALSE(path.empty());
  Rng rng(5);
  const auto small = ptdr_route_time(net, path, 8, 50, rng);
  const auto large = ptdr_route_time(net, path, 8, 5000, rng);
  EXPECT_GT(small.mean_s, 0.0);
  EXPECT_NEAR(small.mean_s, large.mean_s, large.mean_s * 0.1);
  EXPECT_GE(large.p95_s, large.p50_s);
  // Reference: expected time sum should be in the same ballpark.
  double expected = 0.0;
  for (std::size_t s : path) expected += net.expected_time_s(s, 8);
  EXPECT_NEAR(large.mean_s, expected, expected * 0.25);
}

TEST(Traffic, RiskAverseRoutingPrefersReliablePath) {
  RoadNetwork net = RoadNetwork::make_grid(8, 8, 7);
  Rng rng(5);
  auto median = choose_route(net, 0, 63, 8, 4, 400, 0.5, rng);
  auto averse = choose_route(net, 0, 63, 8, 4, 400, 0.95, rng);
  ASSERT_TRUE(median.ok() && averse.ok());
  EXPECT_GE(median->alternatives_evaluated, 2);
  // The risk-averse p95 must not exceed the median-optimal p95 beyond
  // Monte Carlo noise.
  EXPECT_LE(averse->distribution.p95_s, median->distribution.p95_s * 1.05);
}

TEST(Traffic, SimulatorEmitsFcdAndCalibrationImproves) {
  RoadNetwork net = RoadNetwork::make_grid(6, 6, 7);
  const SimulationDay day = simulate_traffic_day(net, 800, 13);
  EXPECT_GT(day.fcd.size(), 1000u);
  EXPECT_GT(day.mean_trip_time_s, 0.0);
  EXPECT_GT(day.vehicle_km, 0.0);
  // Calibrate a copy with flattened priors; profiles should move towards
  // the simulated (rush-hour) reality.
  RoadNetwork blank = RoadNetwork::make_grid(6, 6, 7);
  for (std::size_t s = 0; s < blank.num_segments(); ++s) {
    blank.mutable_profile(s).mean_factor.fill(1.0);
    blank.mutable_profile(s).stddev.fill(0.05);
  }
  const std::size_t updated = calibrate_profiles(blank, day.fcd, 3);
  EXPECT_GT(updated, 50u);
  // After calibration, morning-rush factors on busy segments are below 1.
  double min_factor = 1.0;
  for (std::size_t s = 0; s < blank.num_segments(); ++s) {
    min_factor = std::min(min_factor, blank.profile(s).mean_factor[8]);
  }
  EXPECT_LT(min_factor, 0.9);
}

TEST(Traffic, ChooseRouteFailsWhenDisconnected) {
  RoadNetwork net = RoadNetwork::make_grid(3, 3, 7);
  Rng rng(1);
  auto r = choose_route(net, 0, 0, 8, 2, 10, 0.5, rng);
  // from == to: alternative_paths yields the empty path... accept either
  // a trivial result or NOT_FOUND, but never a crash.
  (void)r;
  SUCCEED();
}

}  // namespace
}  // namespace everest::apps
