// Tests for the runtime: knowledge base, autotuner selection under
// goals/states/protection levels, and knowledge-base hot swap.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "runtime/autotuner.hpp"
#include "runtime/knowledge.hpp"

namespace everest::runtime {
namespace {

using compiler::TargetKind;
using compiler::Variant;

Variant make_variant(const std::string& id, TargetKind target, double latency,
                     double energy, bool dift = false,
                     const std::string& enc = "") {
  Variant v;
  v.id = id;
  v.kernel = "k";
  v.target = target;
  v.latency_us = latency;
  v.energy_uj = energy;
  v.bytes_in = 1e6;
  v.bytes_out = 1e5;
  v.dift = dift;
  v.encrypted = enc;
  v.device = target == TargetKind::kFpga ? "P9-VU9P" : "";
  return v;
}

std::vector<Variant> standard_variants() {
  return {
      make_variant("cpu-fast", TargetKind::kCpu, 100.0, 9000.0),
      make_variant("cpu-eco", TargetKind::kCpu, 300.0, 4000.0),
      make_variant("fpga-fast", TargetKind::kFpga, 40.0, 1500.0),
      make_variant("fpga-dift", TargetKind::kFpga, 48.0, 1800.0, true),
      make_variant("fpga-enc", TargetKind::kFpga, 55.0, 2000.0, false,
                   "aes128-gcm"),
  };
}

// --------------------------------------------------------- KnowledgeBase --

TEST(KnowledgeBase, LoadAndQuery) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.load(standard_variants()).ok());
  EXPECT_EQ(kb.kernels(), (std::vector<std::string>{"k"}));
  EXPECT_EQ(kb.variants_for("k")->size(), 5u);
  EXPECT_TRUE(kb.find("k", "cpu-fast").has_value());
  EXPECT_FALSE(kb.find("k", "nope").has_value());
  EXPECT_TRUE(kb.variants_for("other")->empty());
  // Duplicate id rejected.
  EXPECT_EQ(kb.load({make_variant("cpu-fast", TargetKind::kCpu, 1, 1)}).code(),
            StatusCode::kAlreadyExists);
}

TEST(KnowledgeBase, LoadFromJsonMetadata) {
  const auto doc = compiler::variants_to_json(standard_variants());
  KnowledgeBase kb;
  ASSERT_TRUE(kb.load_json(doc.dump()).ok());
  EXPECT_EQ(kb.variants_for("k")->size(), 5u);
  EXPECT_FALSE(kb.load_json("{bad json").ok());
}

TEST(KnowledgeBase, ObservationsOverrideEstimates) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.load(standard_variants()).ok());
  const Variant v = *kb.find("k", "cpu-fast");
  EXPECT_DOUBLE_EQ(kb.expected_latency("k", v), 100.0);  // static estimate
  // Reality is 4x slower than estimated.
  for (int i = 0; i < 5; ++i) kb.observe("k", "cpu-fast", 400.0, 9000.0);
  EXPECT_NEAR(kb.expected_latency("k", v), 400.0, 1.0);
  EXPECT_EQ(kb.observation_count("k", "cpu-fast"), 5);
  EXPECT_EQ(kb.observation_count("k", "cpu-eco"), 0);
}

TEST(KnowledgeBase, BlendIsGradual) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.load(standard_variants()).ok());
  const Variant v = *kb.find("k", "cpu-fast");
  kb.observe("k", "cpu-fast", 400.0, 9000.0);
  const double after_one = kb.expected_latency("k", v);
  EXPECT_GT(after_one, 100.0);
  EXPECT_LT(after_one, 400.0);
}

// ------------------------------------------------------------- Autotuner --

TEST(Autotuner, PicksFastestForLatencyGoal) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.load(standard_variants()).ok());
  Autotuner tuner(&kb);
  auto sel = tuner.select("k", Goal{}, SystemState{});
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->variant.id, "fpga-fast");
  EXPECT_TRUE(sel->constraints_met);
}

TEST(Autotuner, PicksEcoForEnergyGoal) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.load(standard_variants()).ok());
  Autotuner tuner(&kb);
  Goal goal;
  goal.objective = Goal::Objective::kMinEnergy;
  auto sel = tuner.select("k", goal, SystemState{});
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->variant.id, "fpga-fast");  // lowest energy too
  // Remove FPGA: eco CPU wins on energy.
  SystemState no_fpga;
  no_fpga.fpgas_available = 0;
  auto sel2 = tuner.select("k", goal, no_fpga);
  ASSERT_TRUE(sel2.ok());
  EXPECT_EQ(sel2->variant.id, "cpu-eco");
}

TEST(Autotuner, FpgaUnavailableFallsBackToCpu) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.load(standard_variants()).ok());
  Autotuner tuner(&kb);
  SystemState state;
  state.fpgas_available = 0;
  auto sel = tuner.select("k", Goal{}, state);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->variant.id, "cpu-fast");
}

TEST(Autotuner, QueueDepthShiftsChoiceToCpu) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.load(standard_variants()).ok());
  Autotuner tuner(&kb);
  SystemState congested;
  congested.fpga_queue_depth = 3.0;  // 40us * 4 = 160us > 100us CPU
  auto sel = tuner.select("k", Goal{}, congested);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->variant.id, "cpu-fast");
}

TEST(Autotuner, CpuLoadShiftsChoiceToFpga) {
  KnowledgeBase kb;
  // Only CPU is nominally faster here.
  std::vector<Variant> variants = {
      make_variant("cpu", TargetKind::kCpu, 30.0, 100.0),
      make_variant("fpga", TargetKind::kFpga, 40.0, 100.0),
  };
  ASSERT_TRUE(kb.load(variants).ok());
  Autotuner tuner(&kb);
  auto idle = tuner.select("k", Goal{}, SystemState{});
  ASSERT_TRUE(idle.ok());
  EXPECT_EQ(idle->variant.id, "cpu");
  SystemState loaded;
  loaded.cpu_load = 0.8;  // 30/0.2 = 150us
  auto busy = tuner.select("k", Goal{}, loaded);
  ASSERT_TRUE(busy.ok());
  EXPECT_EQ(busy->variant.id, "fpga");
}

TEST(Autotuner, ProtectLevelRequiresSecuredVariant) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.load(standard_variants()).ok());
  Autotuner tuner(&kb);
  SystemState state;
  state.protection = security::ProtectionLevel::kProtect;
  auto sel = tuner.select("k", Goal{}, state);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->variant.id, "fpga-dift");  // fastest protected variant
}

TEST(Autotuner, QuarantineBlocksExecution) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.load(standard_variants()).ok());
  Autotuner tuner(&kb);
  SystemState state;
  state.protection = security::ProtectionLevel::kQuarantine;
  EXPECT_EQ(tuner.select("k", Goal{}, state).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(Autotuner, DeadlineConstraintFiltersThenFallsBack) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.load(standard_variants()).ok());
  Autotuner tuner(&kb);
  Goal goal;
  goal.objective = Goal::Objective::kMinEnergy;
  goal.latency_deadline_us = 60.0;  // only FPGA variants qualify
  auto sel = tuner.select("k", goal, SystemState{});
  ASSERT_TRUE(sel.ok());
  EXPECT_TRUE(sel->constraints_met);
  EXPECT_EQ(sel->variant.target, TargetKind::kFpga);
  // Impossible deadline: least-violating variant returned, flagged.
  goal.latency_deadline_us = 1.0;
  auto fallback = tuner.select("k", goal, SystemState{});
  ASSERT_TRUE(fallback.ok());
  EXPECT_FALSE(fallback->constraints_met);
  EXPECT_EQ(fallback->variant.id, "fpga-fast");
}

TEST(Autotuner, LearnsFromMispredictedEstimates) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.load(standard_variants()).ok());
  Autotuner tuner(&kb);
  // fpga-fast turns out to be 10x slower than estimated.
  for (int i = 0; i < 5; ++i) tuner.observe("k", "fpga-fast", 400.0, 1500.0);
  auto sel = tuner.select("k", Goal{}, SystemState{});
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->variant.id, "fpga-dift");  // next best
}

TEST(Autotuner, MissingKernelReported) {
  KnowledgeBase kb;
  Autotuner tuner(&kb);
  EXPECT_EQ(tuner.select("ghost", Goal{}, SystemState{}).status().code(),
            StatusCode::kNotFound);
}

// ------------------------------------------------- hot swap (JIT loop) --

TEST(KnowledgeBaseHotSwap, UpsertReplacesAndResetsObservations) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.load(standard_variants()).ok());
  const std::uint64_t e0 = kb.epoch("k");
  ASSERT_GE(e0, 1u);
  for (int i = 0; i < 5; ++i) kb.observe("k", "cpu-fast", 400.0, 9000.0);

  // Re-mint cpu-fast with a new estimate: the stale EWMA must not
  // mis-calibrate the new code.
  std::uint64_t e1 = 0;
  ASSERT_TRUE(
      kb.upsert("k", {make_variant("cpu-fast", TargetKind::kCpu, 50.0, 800.0)},
                &e1)
          .ok());
  EXPECT_GT(e1, e0);
  EXPECT_EQ(kb.variants_for("k")->size(), 5u);  // replaced, not appended
  EXPECT_EQ(kb.observation_count("k", "cpu-fast"), 0);
  EXPECT_DOUBLE_EQ(kb.find("k", "cpu-fast")->latency_us, 50.0);

  // Mismatched kernel name rejected.
  Variant wrong = make_variant("x", TargetKind::kCpu, 1.0, 1.0);
  wrong.kernel = "other";
  EXPECT_EQ(kb.upsert("k", {wrong}).code(), StatusCode::kInvalidArgument);
}

TEST(KnowledgeBaseHotSwap, RetireRemovesFromNewSnapshotsOnly) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.load(standard_variants()).ok());
  const VariantSet before = kb.variants_for("k");

  std::uint64_t epoch = 0;
  EXPECT_EQ(kb.retire("k", {"cpu-eco", "does-not-exist"}, &epoch), 1u);
  EXPECT_EQ(kb.epoch("k"), epoch);
  EXPECT_FALSE(kb.find("k", "cpu-eco").has_value());
  EXPECT_EQ(kb.variants_for("k")->size(), 4u);
  // The pre-retire snapshot is immutable: an in-flight batch that picked
  // cpu-eco still sees it until the batch lets the snapshot go.
  EXPECT_EQ(before->size(), 5u);
  // Retiring nothing does not bump the epoch.
  const std::uint64_t e = kb.epoch("k");
  EXPECT_EQ(kb.retire("k", {"nope"}), 0u);
  EXPECT_EQ(kb.epoch("k"), e);
}

TEST(Autotuner, SpecializationWindowGatesEligibility) {
  EXPECT_TRUE(specialization_matches(
      make_variant("g", TargetKind::kCpu, 1.0, 1.0), 37.0));  // generic
  Variant s = make_variant("s", TargetKind::kCpu, 1.0, 1.0);
  s.specialized_scale = 4.0;
  EXPECT_TRUE(specialization_matches(s, 4.0));
  EXPECT_TRUE(specialization_matches(s, 4.0 * 1.4));   // inside half bucket
  EXPECT_FALSE(specialization_matches(s, 8.0));        // next bucket
  EXPECT_FALSE(specialization_matches(s, 1.0));

  KnowledgeBase kb;
  Variant spec4 = make_variant("cpu-spec4", TargetKind::kCpu, 10.0, 500.0);
  spec4.specialized_scale = 4.0;
  ASSERT_TRUE(
      kb.load({make_variant("cpu-gen", TargetKind::kCpu, 100.0, 9000.0),
               spec4})
          .ok());
  Autotuner tuner(&kb);
  SystemState state;
  state.fpgas_available = 0;
  state.data_scale = 4.0;
  auto at_scale = tuner.select("k", Goal{}, state);
  ASSERT_TRUE(at_scale.ok());
  EXPECT_EQ(at_scale->variant.id, "cpu-spec4");
  EXPECT_EQ(at_scale->kb_epoch, kb.epoch("k"));
  state.data_scale = 1.0;  // outside the window: specialist ineligible
  auto off_scale = tuner.select("k", Goal{}, state);
  ASSERT_TRUE(off_scale.ok());
  EXPECT_EQ(off_scale->variant.id, "cpu-gen");
}

// The TSan regression for the compile↔serve loop: concurrent hot-swap +
// observe + selection, with the invariant that a selection STARTED after
// a retire completed never returns the retired variant.
TEST(KnowledgeBaseHotSwap, ConcurrentSwapObserveSelectIsSafe) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.load(standard_variants()).ok());
  Autotuner tuner(&kb);

  std::atomic<bool> stop{false};
  std::atomic<int> minted_generation{0};
  std::atomic<int> violations{0};

  std::thread writer([&] {
    for (int gen = 1; gen <= 200; ++gen) {
      const std::string id = "jit-gen-" + std::to_string(gen);
      Variant v = make_variant(id, TargetKind::kCpu, 5.0 + gen % 3, 100.0);
      EXPECT_TRUE(kb.upsert("k", {v}).ok());
      const std::string prev = "jit-gen-" + std::to_string(gen - 1);
      if (gen > 1) kb.retire("k", {prev});
      // Publish order: retire(prev) happens-before this store, so any
      // reader that sees `gen` must not be handed `prev` on a fresh
      // selection.
      minted_generation.store(gen, std::memory_order_release);
    }
    stop.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      SystemState state;
      state.fpgas_available = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const int gen = minted_generation.load(std::memory_order_acquire);
        auto sel = tuner.select("k", Goal{}, state);
        if (!sel.ok()) continue;
        kb.observe("k", sel->variant.id, sel->predicted_latency_us, 100.0);
        if (gen > 1) {
          // Any generation older than the one visible BEFORE this
          // selection started is retired; serving it would be the
          // lost-hot-swap bug.
          for (int old = 1; old < gen; ++old) {
            if (sel->variant.id == "jit-gen-" + std::to_string(old)) {
              violations.fetch_add(1);
            }
          }
        }
      }
    });
  }
  writer.join();
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_TRUE(kb.find("k", "jit-gen-200").has_value());
  EXPECT_FALSE(kb.find("k", "jit-gen-199").has_value());
}

}  // namespace
}  // namespace everest::runtime
