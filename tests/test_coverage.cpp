// Breadth-coverage tests for corners the per-module suites do not reach:
// IR block surgery, dialect registry queries, HLS device presets and
// config plumbing, knowledge-base/autotuner scoring details,
// workflow-from-IR integration, and app physics edge cases.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/airquality.hpp"
#include "apps/traffic.hpp"
#include "common/rng.hpp"
#include "dsl/workflow_dsl.hpp"
#include "hls/hls.hpp"
#include "ir/builder.hpp"
#include "ir/dialect.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "runtime/autotuner.hpp"
#include "workflow/scheduler.hpp"

namespace everest {
namespace {

// ----------------------------------------------------------- IR surgery --

TEST(IrSurgery, BlockInsertTakeIndexOf) {
  ir::register_everest_dialects();
  ir::Module m("t");
  ir::Function* fn = m.add_function("f", ir::Type::function({}, {})).value();
  ir::OpBuilder b(&fn->entry());
  ir::Value c1 = b.constant_f64(1.0);
  ir::Value c2 = b.constant_f64(2.0);
  (void)c1;
  (void)c2;
  ir::Block& block = fn->entry();
  ASSERT_EQ(block.size(), 2u);
  EXPECT_EQ(block.index_of(&block.op(1)), 1u);

  // take() removes without destroying; re-insert at the front.
  auto taken = block.take(1);
  EXPECT_EQ(block.size(), 1u);
  EXPECT_EQ(taken->parent(), nullptr);
  ir::Operation& reinserted = block.insert(0, std::move(taken));
  EXPECT_EQ(block.index_of(&reinserted), 0u);
  EXPECT_EQ(reinserted.parent(), &block);
  EXPECT_EQ(block.size(), 2u);
}

TEST(IrSurgery, ReplaceAllUsesCountsRewrites) {
  ir::register_everest_dialects();
  ir::Module m("t");
  ir::Type t = ir::Type::tensor({4}, ir::ScalarKind::kF64);
  ir::Function* fn = m.add_function("f", ir::Type::function({t, t}, {t})).value();
  ir::OpBuilder b(&fn->entry());
  ir::Value sum = b.create_value("tensor.add", {fn->arg(0), fn->arg(0)}, t);
  b.ret({sum});
  // arg0 is used twice by the add.
  const std::size_t n =
      ir::replace_all_uses(fn->entry(), fn->arg(0), fn->arg(1));
  EXPECT_EQ(n, 2u);
  EXPECT_TRUE(ir::verify(m).ok());
  EXPECT_EQ(fn->entry().op(0).operand(0), fn->arg(1));
}

TEST(IrSurgery, WalkIsPreOrder) {
  ir::register_everest_dialects();
  ir::Module m("t");
  ir::Function* fn = m.add_function("f", ir::Type::function({}, {})).value();
  ir::OpBuilder b(&fn->entry());
  ir::Operation& loop = b.create("kernel.for", {}, {},
                                 {{"lb", ir::Attribute::integer(0)},
                                  {"ub", ir::Attribute::integer(2)},
                                  {"step", ir::Attribute::integer(1)}});
  ir::Block& body = loop.emplace_region().emplace_block({ir::Type::index()});
  ir::OpBuilder ib(&body);
  ib.create("kernel.yield", {}, {});
  b.ret();
  std::vector<std::string> order;
  fn->walk([&](ir::Operation& op) { order.push_back(op.name()); });
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "kernel.for");   // parent before children
  EXPECT_EQ(order[1], "kernel.yield");
  EXPECT_EQ(order[2], "builtin.return");
}

TEST(DialectRegistry, QueriesWork) {
  ir::register_everest_dialects();
  auto& reg = ir::DialectRegistry::instance();
  EXPECT_TRUE(reg.has_dialect("tensor"));
  EXPECT_TRUE(reg.has_dialect("workflow"));
  EXPECT_FALSE(reg.has_dialect("bogus"));
  EXPECT_NE(reg.lookup("kernel.for"), nullptr);
  EXPECT_EQ(reg.lookup("kernel.nonesuch"), nullptr);
  EXPECT_GT(reg.registered_ops().size(), 25u);
}

// ------------------------------------------------------------- HLS misc --

TEST(HlsMisc, DevicePresetsAreOrdered) {
  const auto edge = hls::FpgaDevice::edge_zu7ev();
  const auto ku = hls::FpgaDevice::cloudfpga_ku060();
  const auto vu = hls::FpgaDevice::p9_vu9p();
  EXPECT_LT(edge.luts, ku.luts);
  EXPECT_LT(ku.luts, vu.luts);
  EXPECT_LT(edge.bram_blocks, vu.bram_blocks);
  EXPECT_GT(vu.max_fmax_mhz, edge.max_fmax_mhz);
}

TEST(HlsMisc, ConfigSummaryMentionsSecurity) {
  hls::HlsConfig config;
  config.unroll = 4;
  config.enable_dift = true;
  config.encrypt_offchip = "aes128-gcm";
  const std::string s = config.summary();
  EXPECT_NE(s.find("unroll=4"), std::string::npos);
  EXPECT_NE(s.find("+dift"), std::string::npos);
  EXPECT_NE(s.find("aes128-gcm"), std::string::npos);
}

TEST(HlsMisc, UtilizationIsMaxAcrossResources) {
  hls::ResourceUsage usage;
  usage.luts = 100;
  usage.dsps = 90;
  hls::FpgaDevice dev;
  dev.luts = 1000;
  dev.ffs = 1000;
  dev.dsps = 100;   // DSP is the binding resource: 90%
  dev.bram_blocks = 1000;
  EXPECT_NEAR(usage.utilization(dev), 0.9, 1e-12);
  EXPECT_TRUE(usage.fits(dev));
  usage.dsps = 101;
  EXPECT_FALSE(usage.fits(dev));
}

TEST(HlsMisc, OpClassification) {
  using hls::OpClass;
  EXPECT_EQ(hls::classify_op("kernel.binop", "mul"), OpClass::kMul);
  EXPECT_EQ(hls::classify_op("kernel.binop", "mod"), OpClass::kLogic);
  EXPECT_EQ(hls::classify_op("kernel.binop", "max"), OpClass::kAdd);
  EXPECT_EQ(hls::classify_op("kernel.unop", "exp"), OpClass::kSpecial);
  EXPECT_EQ(hls::classify_op("kernel.unop", "neg"), OpClass::kAdd);
  EXPECT_EQ(hls::classify_op("kernel.load", ""), OpClass::kLoad);
  // Every class has a positive-latency profile.
  for (auto cls : {OpClass::kAdd, OpClass::kMul, OpClass::kDiv,
                   OpClass::kSpecial, OpClass::kLoad, OpClass::kStore,
                   OpClass::kCast, OpClass::kLogic}) {
    EXPECT_GE(hls::profile_for(cls).latency, 1);
    EXPECT_GT(hls::profile_for(cls).delay_ns, 0.0);
  }
}

// --------------------------------------------------------- Runtime misc --

TEST(RuntimeMisc, MonitorModePrefersProtectedVariants) {
  runtime::KnowledgeBase kb;
  compiler::Variant fast;
  fast.id = "fast";
  fast.kernel = "k";
  fast.target = compiler::TargetKind::kFpga;
  fast.device = "P9-VU9P";
  fast.latency_us = 100.0;
  compiler::Variant secured = fast;
  secured.id = "secured";
  secured.dift = true;
  secured.latency_us = 115.0;  // within the 20% monitor-mode bonus
  ASSERT_TRUE(kb.load({fast, secured}).ok());
  runtime::Autotuner tuner(&kb);
  runtime::SystemState normal;
  auto plain = tuner.select("k", runtime::Goal{}, normal);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->variant.id, "fast");
  runtime::SystemState monitor;
  monitor.protection = security::ProtectionLevel::kMonitor;
  auto watched = tuner.select("k", runtime::Goal{}, monitor);
  ASSERT_TRUE(watched.ok());
  EXPECT_EQ(watched->variant.id, "secured");
}

TEST(RuntimeMisc, DataScaleScalesBothMetrics) {
  runtime::KnowledgeBase kb;
  compiler::Variant v;
  v.id = "v";
  v.kernel = "k";
  v.target = compiler::TargetKind::kCpu;
  v.latency_us = 100.0;
  v.energy_uj = 1000.0;
  ASSERT_TRUE(kb.load({v}).ok());
  runtime::Autotuner tuner(&kb);
  runtime::SystemState big;
  big.data_scale = 3.0;
  auto sel = tuner.select("k", runtime::Goal{}, big);
  ASSERT_TRUE(sel.ok());
  EXPECT_NEAR(sel->predicted_latency_us, 300.0, 1e-9);
  EXPECT_NEAR(sel->predicted_energy_uj, 3000.0, 1e-9);
}

// -------------------------------------------------- Workflow integration --

TEST(WorkflowIntegration, DslToIrToScheduleEndToEnd) {
  dsl::WorkflowBuilder wf("pipeline");
  auto src = wf.source("sensor");
  auto stage1 = wf.task("clean").kernel("k1").inputs({src})
                    .output_shape({4096}).flops(4e8).done();
  auto stage2a = wf.task("featA").kernel("k2").inputs({stage1})
                     .output_shape({256}).flops(8e8).done();
  auto stage2b = wf.task("featB").kernel("k3").inputs({stage1})
                     .output_shape({256}).flops(8e8).done();
  auto merge = wf.task("merge").kernel("k4").inputs({stage2a, stage2b})
                   .output_shape({64}).flops(1e8).done();
  ASSERT_TRUE(wf.sink("out", merge).ok());
  auto module = wf.lower();
  ASSERT_TRUE(module.ok());
  auto graph = workflow::TaskGraph::from_ir(*module->find("pipeline"));
  ASSERT_TRUE(graph.ok());
  std::vector<workflow::WorkerSpec> workers = {
      {"w0", 10.0, 1.0, 10.0}, {"w1", 10.0, 1.0, 10.0}};
  for (auto kind : {workflow::SchedulerKind::kFifo,
                    workflow::SchedulerKind::kHeft,
                    workflow::SchedulerKind::kWorkStealing}) {
    workflow::SimulationOptions options;
    options.scheduler = kind;
    auto outcome = workflow::simulate_schedule(*graph, workers, options);
    ASSERT_TRUE(outcome.ok()) << outcome.status().to_string();
    // Lower bound: both 0.8-GFLOP feature stages cannot finish faster than
    // one each on the two workers.
    EXPECT_GE(outcome->makespan_us, 8e8 / (10.0 * 1e3) * 0.99);
  }
}

// ------------------------------------------------------------ App physics --

TEST(AppPhysics, PlumePeaksDownwindOfStack) {
  apps::StackSource stack;
  stack.y_km = 5.0;
  stack.x_km = 5.0;
  stack.height_m = 80.0;
  stack.emission_gs = 100.0;
  // Elevated release: ground concentration rises, peaks, then decays.
  double prev = 0.0, peak = 0.0, peak_x = 0.0;
  bool rose = false;
  for (double x = 5.1; x < 15.0; x += 0.1) {
    const double c = apps::plume_concentration(stack, 5.0, 0.0,
                                               apps::Stability::kD, 5.0, x);
    if (c > peak) {
      peak = c;
      peak_x = x;
    }
    rose |= c > prev;
    prev = c;
  }
  EXPECT_TRUE(rose);
  EXPECT_GT(peak, 0.0);
  EXPECT_GT(peak_x, 5.2);   // not at the stack
  EXPECT_LT(peak_x, 14.0);  // and decaying before the domain edge
  // Far-field value below the peak.
  const double far = apps::plume_concentration(stack, 5.0, 0.0,
                                               apps::Stability::kD, 5.0, 14.9);
  EXPECT_LT(far, peak);
}

TEST(AppPhysics, TallerStackLowersGroundPeak) {
  apps::StackSource low;
  low.y_km = 5.0;
  low.x_km = 5.0;
  low.height_m = 30.0;
  apps::StackSource tall = low;
  tall.height_m = 120.0;
  double low_peak = 0.0, tall_peak = 0.0;
  for (double x = 5.1; x < 15.0; x += 0.1) {
    low_peak = std::max(low_peak,
                        apps::plume_concentration(low, 5.0, 0.0,
                                                  apps::Stability::kC, 5.0, x));
    tall_peak = std::max(
        tall_peak, apps::plume_concentration(tall, 5.0, 0.0,
                                             apps::Stability::kC, 5.0, x));
  }
  EXPECT_GT(low_peak, tall_peak);
}

TEST(AppPhysics, ArterialsAreFasterThanSideStreets) {
  apps::RoadNetwork net = apps::RoadNetwork::make_grid(9, 9, 3);
  double arterial_speed = 0.0, side_speed = 1e9;
  for (std::size_t s = 0; s < net.num_segments(); ++s) {
    arterial_speed = std::max(arterial_speed, net.segment(s).freeflow_kmh);
    side_speed = std::min(side_speed, net.segment(s).freeflow_kmh);
  }
  EXPECT_GT(arterial_speed, side_speed);
  // Expected segment time respects speed floor (no divide-by-zero blowups).
  for (std::size_t s = 0; s < net.num_segments(); s += 7) {
    for (int h = 0; h < 24; ++h) {
      const double t = net.expected_time_s(s, h);
      EXPECT_GT(t, 0.0);
      EXPECT_LT(t, 3600.0);
    }
  }
}

}  // namespace
}  // namespace everest
