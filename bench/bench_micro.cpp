// Micro-benchmarks (google-benchmark) for the SDK's hot paths: crypto,
// IR construction/verification, einsum inference, HLS synthesis, scheduler
// throughput, PTDR sampling and re-routing, and the energy downscale.
// These guard against performance regressions in the toolchain itself.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <array>
#include <filesystem>
#include <memory>

#include "apps/traffic.hpp"
#include "apps/weather.hpp"
#include "cluster/membership.hpp"
#include "cluster/router.hpp"
#include "cluster/shard_map.hpp"
#include "common/rng.hpp"
#include "compiler/lowering.hpp"
#include "compiler/variants.hpp"
#include "dsl/einsum.hpp"
#include "dsl/tensor_expr.hpp"
#include "hls/hls.hpp"
#include "ir/builder.hpp"
#include "ir/dialect.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "jit/cache.hpp"
#include "jit/detector.hpp"
#include "obs/obs.hpp"
#include "serve/metrics.hpp"
#include "security/aes.hpp"
#include "security/sha256.hpp"
#include "storage/storage.hpp"
#include "stream/operators.hpp"
#include "stream/pubsub.hpp"
#include "workflow/scheduler.hpp"

namespace {

using namespace everest;

void BM_AesGcmEncrypt(benchmark::State& state) {
  security::Block16 key{};
  std::array<std::uint8_t, 12> iv{};
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)));
  Rng rng(1);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_int(256));
  for (auto _ : state) {
    auto out = security::aes128_gcm_encrypt(key, iv, data);
    benchmark::DoNotOptimize(out.tag);
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_AesGcmEncrypt)->Arg(4096)->Arg(65536);

void BM_Sha256(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) {
    auto digest = security::sha256(data);
    benchmark::DoNotOptimize(digest);
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(4096)->Arg(1 << 20);

void BM_IrBuildVerify(benchmark::State& state) {
  ir::register_everest_dialects();
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ir::Module m("bench");
    ir::Type t = ir::Type::tensor({16}, ir::ScalarKind::kF64);
    ir::Function* fn =
        m.add_function("f", ir::Type::function({t}, {t})).value();
    ir::OpBuilder b(&fn->entry());
    ir::Value v = fn->arg(0);
    for (int i = 0; i < n; ++i) {
      v = b.create_value("tensor.add", {v, v}, t);
    }
    b.ret({v});
    benchmark::DoNotOptimize(ir::verify(m).ok());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * n);
}
BENCHMARK(BM_IrBuildVerify)->Arg(100)->Arg(1000);

void BM_IrPrintParseRoundTrip(benchmark::State& state) {
  ir::register_everest_dialects();
  ir::Module m("bench");
  ir::Type t = ir::Type::tensor({16}, ir::ScalarKind::kF64);
  ir::Function* fn = m.add_function("f", ir::Type::function({t}, {t})).value();
  ir::OpBuilder b(&fn->entry());
  ir::Value v = fn->arg(0);
  for (int i = 0; i < 200; ++i) v = b.create_value("tensor.add", {v, v}, t);
  b.ret({v});
  for (auto _ : state) {
    const std::string text = ir::print(m);
    auto parsed = ir::parse_module(text);
    benchmark::DoNotOptimize(parsed.ok());
  }
}
BENCHMARK(BM_IrPrintParseRoundTrip);

void BM_EinsumInference(benchmark::State& state) {
  for (auto _ : state) {
    auto spec = dsl::parse_einsum("abc,cd,de->abe");
    auto shape = dsl::infer_output_shape(
        *spec, {{8, 16, 32}, {32, 64}, {64, 4}});
    benchmark::DoNotOptimize(shape.ok());
  }
}
BENCHMARK(BM_EinsumInference);

void BM_HlsSynthesis(benchmark::State& state) {
  dsl::TensorProgram p("k");
  auto a = p.input("a", {64, 64});
  auto w = p.input("w", {64, 64});
  p.output("y", relu(matmul(a, w)));
  ir::Module m = p.lower().value();
  (void)compiler::lower_to_kernel(m, "k");
  ir::Function* kfn = m.find("k_kernel");
  hls::HlsConfig config;
  config.unroll = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto design = hls::synthesize(*kfn, config, hls::FpgaDevice::p9_vu9p());
    benchmark::DoNotOptimize(design.ok());
  }
}
BENCHMARK(BM_HlsSynthesis)->Arg(1)->Arg(8);

void BM_VariantGeneration(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    dsl::TensorProgram p("k");
    auto a = p.input("a", {64, 64});
    auto w = p.input("w", {64, 64});
    p.output("y", relu(matmul(a, w)));
    ir::Module m = p.lower().value();
    state.ResumeTiming();
    compiler::VariantSpace space;
    space.devices = {hls::FpgaDevice::p9_vu9p()};
    auto variants = compiler::generate_variants(m, "k", space,
                                                compiler::CpuModel::power9());
    benchmark::DoNotOptimize(variants.ok());
  }
}
BENCHMARK(BM_VariantGeneration);

void BM_WorkflowSimulation(benchmark::State& state) {
  Rng rng(3);
  workflow::TaskGraph graph = workflow::TaskGraph::random_layered(
      10, static_cast<std::size_t>(state.range(0)), 3, rng);
  std::vector<workflow::WorkerSpec> workers;
  for (int i = 0; i < 16; ++i) {
    workers.push_back({"w" + std::to_string(i), 10.0, 1.0, 10.0});
  }
  workflow::SimulationOptions options;
  options.scheduler = workflow::SchedulerKind::kHeft;
  for (auto _ : state) {
    auto outcome = workflow::simulate_schedule(graph, workers, options);
    benchmark::DoNotOptimize(outcome.ok());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(graph.size()));
}
BENCHMARK(BM_WorkflowSimulation)->Arg(32)->Arg(256);

void BM_PtdrSampling(benchmark::State& state) {
  apps::RoadNetwork city = apps::RoadNetwork::make_grid(12, 12, 9);
  const auto path = city.shortest_path(0, city.num_nodes() - 1, 8);
  Rng rng(5);
  for (auto _ : state) {
    auto dist = apps::ptdr_route_time(
        city, path, 8, static_cast<std::size_t>(state.range(0)), rng);
    benchmark::DoNotOptimize(dist.mean_s);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_PtdrSampling)->Arg(100)->Arg(1000);

// The stream's PTDR re-routing searches: k = 3 alternatives for each of
// the four OD pairs the operator monitors in perfbench's stream_ingest,
// on the same 10 × 10 grid. Items are Dijkstra runs.
constexpr std::array<stream::OdPair, 4> kMonitoredPairs = {
    {{0, 99}, {9, 90}, {44, 55}, {3, 76}}};

void BM_RoadAlternativePaths(benchmark::State& state) {
  const apps::RoadNetwork city = apps::RoadNetwork::make_grid(10, 10, 17);
  for (auto _ : state) {
    for (const stream::OdPair& pair : kMonitoredPairs) {
      auto alternatives = city.alternative_paths(pair.from, pair.to, 0, 3);
      benchmark::DoNotOptimize(alternatives.data());
    }
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(kMonitoredPairs.size()) * 3);
}
BENCHMARK(BM_RoadAlternativePaths);

// One fcd window closing through the PTDR operator as stream_ingest runs
// it (10 ms tumbling windows, ~100 speed readings each): fold the
// window's readings, then move the watermark past it, which updates the
// overlay and re-evaluates every pair.
void BM_PtdrRerouteClosing(benchmark::State& state) {
  constexpr std::uint64_t kWindowUs = 10'000;
  auto city = std::make_shared<const apps::RoadNetwork>(
      apps::RoadNetwork::make_grid(10, 10, 17));
  stream::WindowSpec spec;
  spec.size_us = kWindowUs;
  stream::PtdrRerouteOperator op(
      "ptdr_reroute", "fcd", spec, city,
      std::vector<stream::OdPair>(kMonitoredPairs.begin(),
                                  kMonitoredPairs.end()),
      stream::PtdrRerouteConfig{});
  Rng rng(3);
  stream::Event event;
  event.topic = "fcd";
  std::vector<stream::WindowOutput> out;
  std::uint64_t begin = 0;
  for (auto _ : state) {
    for (int i = 0; i < 100; ++i) {
      event.key = rng.uniform_int(city->num_segments());
      event.event_time_us = begin + rng.uniform_int(kWindowUs);
      event.value = static_cast<double>(5 + rng.uniform_int(116));
      op.offer(event);
    }
    begin += kWindowUs;
    out.clear();
    op.advance_watermark(begin, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PtdrRerouteClosing);

// The energy_forecast handler's shared step: one 24 × 24 coarse wind
// field downscaled 4x to 96 × 96, over the terrain the endpoint draws at
// construction.
void BM_EnergyDownscale(benchmark::State& state) {
  apps::WeatherOptions options;
  options.ny = 24;
  options.nx = 24;
  apps::WeatherGenerator generator(options, 11);
  const apps::WeatherField coarse = generator.generate_truth(1)[0].wind_speed;
  const std::vector<double> terrain =
      apps::downscale_terrain(24, 24, 4, 11 ^ 0xD5);
  for (auto _ : state) {
    const apps::WeatherField fine = apps::downscale(coarse, 4, 0.05, terrain);
    benchmark::DoNotOptimize(fine.data.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EnergyDownscale);

// The observability contract: a disabled tracer costs one relaxed load +
// branch per call site (<10 ns; bench_e20 enforces the budget), an
// enabled span pays string materialisation + one ring push, and the
// instruments stay O(ns) so hot paths can record unconditionally.
void BM_SpanDisabled(benchmark::State& state) {
  obs::Tracer tracer;  // disabled
  for (auto _ : state) {
    obs::Tracer::ScopedSpan s = tracer.scoped("noop", "bench");
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_SpanDisabled);

void BM_SpanEnabled(benchmark::State& state) {
  obs::TracerConfig config;
  config.enabled = true;
  config.ring_capacity = 1 << 10;
  obs::Tracer tracer(config);
  for (auto _ : state) {
    obs::Tracer::ScopedSpan s = tracer.scoped("op", "bench");
    benchmark::DoNotOptimize(s);
  }
  state.counters["dropped"] = double(tracer.dropped());
}
BENCHMARK(BM_SpanEnabled);

void BM_CounterInc(benchmark::State& state) {
  obs::Counter counter;
  for (auto _ : state) counter.inc();
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_CounterInc);

void BM_HistogramRecord(benchmark::State& state) {
  obs::Histogram hist;
  Rng rng(9);
  std::vector<double> values(1024);
  for (double& v : values) v = rng.uniform() * 1e5;
  std::size_t i = 0;
  for (auto _ : state) {
    hist.record(values[i++ & 1023]);
  }
  benchmark::DoNotOptimize(hist.count());
}
BENCHMARK(BM_HistogramRecord);

// Propagating a TraceContext across a forward hop is two 64-bit copies;
// the E25 smoke holds it under 50 ns so cross-node stitching can ride
// every federation forward unconditionally.
void BM_TraceContextPropagation(benchmark::State& state) {
  obs::TraceContext ctx{1, 1};
  for (auto _ : state) {
    ctx = ctx.child(ctx.parent_span + 1);
    benchmark::DoNotOptimize(ctx);
  }
}
BENCHMARK(BM_TraceContextPropagation);

// TimeSeriesStore::append is ring bookkeeping only (the snapshot build
// is the sampler's cost); the E25 smoke holds it under 100 ns.
void BM_TsdbAppend(benchmark::State& state) {
  obs::Registry registry;
  obs::TimeSeriesConfig config;
  config.capacity = 128;
  obs::TimeSeriesStore store(&registry, config);
  for (auto _ : state) {
    store.append(obs::RegistrySnapshot{});
  }
  state.counters["ring"] = double(store.size());
}
BENCHMARK(BM_TsdbAppend);

/// Shared 8-node routing rig for the cluster router benchmarks.
struct RouterRig {
  cluster::Membership membership;
  cluster::ShardMap shard_map;
  cluster::ClusterRouter router;

  RouterRig()
      : membership({"n0", "n1", "n2", "n3", "n4", "n5", "n6", "n7"}),
        shard_map(8, cluster::ShardMapConfig{64, 2, 0x5eedULL}),
        router(&membership, &shard_map,
               [](std::size_t node) { return (node * 7 + 3) % 5; }, 42) {}
};

// Keyless routing is the federation's per-request hot path (two snapshot
// loads + one stateless p2c hash); E21's smoke enforces <200 ns on it.
void BM_RouterKeylessRoute(benchmark::State& state) {
  RouterRig rig;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    auto decision = rig.router.route("");
    if (decision.ok()) sink += decision->node;
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_RouterKeylessRoute);

void BM_RouterKeyedRoute(benchmark::State& state) {
  RouterRig rig;
  const std::string keys[4] = {"obj3", "obj17", "obj29", "obj41"};
  std::uint64_t sink = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    auto decision = rig.router.route(keys[i++ & 3]);
    if (decision.ok()) sink += decision->node;
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_RouterKeyedRoute);

// Catalog-log append is on the data plane's mutation path (every put/
// place/demote): encode + CRC + buffered fwrite under one mutex. Arg is
// sync_every — 1 pays an fsync per append, 64 amortizes (group commit).
void BM_CatalogLogAppend(benchmark::State& state) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("everest_bm_wal_" + std::to_string(getpid())))
          .string();
  std::filesystem::remove_all(dir);
  storage::LogConfig config;
  config.sync_every = static_cast<std::size_t>(state.range(0));
  storage::CatalogLog log(dir, config);
  storage::LogRecord record{storage::LogRecordType::kPlace, 0, 7, 0, 0, 1,
                            1e6};
  std::uint64_t sink = 0;
  for (auto _ : state) {
    record.object = sink & 1023;
    sink += log.append(record).seq;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_CatalogLogAppend)->Arg(1)->Arg(64);

// Segment-store lookup backs every tier residency probe the data plane
// makes on a cache miss (one map walk; no I/O).
void BM_SegmentLocate(benchmark::State& state) {
  storage::SegmentStore store("");  // in-memory: index cost only
  const std::uint64_t keys = 4096;
  for (std::uint64_t i = 0; i < keys; ++i) {
    (void)store.append(data::ShardKey{i, 0, 0}, 1e6);
  }
  double sink = 0.0;
  std::uint64_t i = 0;
  for (auto _ : state) {
    auto located = store.locate(data::ShardKey{i++ & (keys - 1), 0, 0});
    if (located.ok()) sink += located.value();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SegmentLocate);

// Frame verification is the scrubber's inner loop: re-read one sealed
// segment, CRC every frame, and check the chain + footer against the
// index. items/s = records verified per second (ns/record when
// inverted); the byte-rate budget in ScrubConfig is set against this.
void BM_SegmentFrameVerify(benchmark::State& state) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("everest_bm_verify_" + std::to_string(getpid())))
          .string();
  std::filesystem::remove_all(dir);
  const std::uint64_t records = static_cast<std::uint64_t>(state.range(0));
  storage::SegmentConfig config;
  config.segment_bytes = 1e18;  // everything lands in one segment
  storage::SegmentStore store(dir, config);
  for (std::uint64_t i = 0; i < records; ++i) {
    (void)store.append(data::ShardKey{i, 0, 0}, 1e6);
  }
  store.seal_active();
  const std::uint64_t id = store.sealed_segment_ids().front();
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sink += store.verify_segment(id).frames;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_SegmentFrameVerify)->Arg(256)->Arg(4096);

// One full scrub pass over a multi-segment store: what a background
// scrub cycle costs end to end. bytes/s = physical segment-file bytes
// scanned per second (the MB/s the ScrubConfig budget throttles).
void BM_ScrubFullPass(benchmark::State& state) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("everest_bm_scrub_" + std::to_string(getpid())))
          .string();
  std::filesystem::remove_all(dir);
  storage::SegmentConfig config;
  config.segment_bytes = 1e6;  // ~19k frames per sealed segment
  storage::SegmentStore store(dir, config);
  for (std::uint64_t i = 0; i < 4096; ++i) {
    (void)store.append(data::ShardKey{i, 0, 0}, 4096.0);
  }
  store.seal_active();
  storage::Scrubber scrubber(store);
  double bytes = 0.0;
  for (auto _ : state) {
    bytes += scrubber.full_pass().bytes_scanned;
  }
  benchmark::DoNotOptimize(bytes);
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_ScrubFullPass);

// Window advance is the stream pump's per-event trigger check plus the
// occasional close cascade: fold one event, move the watermark one slide.
// Arg is the keys per topic — cell-map size is the dominant cost.
void BM_StreamWindowAdvance(benchmark::State& state) {
  const std::uint64_t keys = static_cast<std::uint64_t>(state.range(0));
  stream::WindowSpec spec;
  spec.kind = stream::WindowKind::kSliding;
  spec.size_us = 4000;
  spec.slide_us = 1000;
  stream::WindowedOperator op("mean", "aq", spec, stream::mean_accumulator());
  stream::Event event;
  event.topic = "aq";
  std::vector<stream::WindowOutput> out;
  std::uint64_t t = 0;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    t += 250;
    event.key = t % keys;
    event.event_time_us = t;
    event.value = 1.0;
    op.offer(event);
    out.clear();
    op.advance_watermark(t > 4000 ? t - 4000 : 0, &out);
    sink += out.size();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StreamWindowAdvance)->Arg(4)->Arg(64);

// Publish fan-out is the pub/sub invalidation hot path: one put() and a
// delta transfer scheduled per (subscriber, shard). Arg is subscribers.
void BM_StreamPublishFanout(benchmark::State& state) {
  platform::Simulator sim;
  data::PlaneConfig config;
  config.num_nodes = static_cast<std::size_t>(state.range(0)) + 1;
  config.cache_bytes = 64.0 * 1024 * 1024;
  data::DataPlane plane(sim, config);
  stream::ShardPublisher publisher(plane);
  for (std::int64_t node = 1; node <= state.range(0); ++node) {
    publisher.subscribe(1, static_cast<std::size_t>(node));
  }
  for (auto _ : state) {
    (void)publisher.publish(1, 1024.0 * 1024, /*producer=*/0);
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StreamPublishFanout)->Arg(1)->Arg(8);

// The JIT's serving-path tax: every batch's coverage probe is one
// covers() call — a hash lookup plus an LRU tick, budgeted <200 ns so
// specialization checks never show up in a p99 (same bar as the cluster
// router's keyless route()). Arg is the number of cached tuples.
void BM_JitVariantCacheLookup(benchmark::State& state) {
  runtime::KnowledgeBase kb;
  jit::VariantCache cache(&kb, nullptr,
                          {static_cast<std::size_t>(state.range(0))});
  compiler::Variant v;
  v.kernel = "k";
  v.threads = 1;
  v.layout = "soa";
  v.latency_us = 10.0;
  for (int b = 0; b < state.range(0); ++b) {
    jit::MintedVariants minted;
    v.id = "jit-k-b" + std::to_string(b);
    minted.variants = {v};
    (void)cache.publish({"k", b, ""}, minted, /*seed=*/1);
  }
  const jit::HotTuple hot{"k", static_cast<int>(state.range(0)) / 2, ""};
  std::uint64_t hits = 0;
  for (auto _ : state) {
    hits += cache.covers(hot);
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JitVariantCacheLookup)->Arg(8)->Arg(64);

// One detector pass over a populated serving registry: parse every
// serve.feature.* series, delta against the previous window, rank by
// requests x regret. Runs once per scan period (default 250 ms), so the
// budget is microseconds, not nanoseconds — but it must stay flat in the
// number of (kernel, bucket, tenant) series. Arg is distinct tuples.
void BM_JitHotTupleScan(benchmark::State& state) {
  runtime::KnowledgeBase kb;
  compiler::Variant v;
  v.kernel = "k";
  v.id = "cpu-generic";
  v.threads = 1;
  v.layout = "soa";
  v.latency_us = 25.0;
  (void)kb.load({v});
  serve::ServingMetrics metrics;
  Rng rng(7);
  for (int t = 0; t < state.range(0); ++t) {
    const double scale = std::exp2(t % 8);
    for (int i = 0; i < 40; ++i) {
      metrics.record_feature("k", "tenant" + std::to_string(t / 8), scale,
                             scale * rng.uniform(20.0, 200.0));
    }
  }
  jit::HotTupleDetector detector(&kb);
  double now_us = 0.0;
  std::size_t sink = 0;
  for (auto _ : state) {
    now_us += 250'000.0;
    sink += detector.scan(metrics.registry().snapshot(now_us)).size();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JitHotTupleScan)->Arg(8)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
