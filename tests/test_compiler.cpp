// Tests for the compiler middle-end: static analysis, tensor→kernel
// lowering, transforms (fold/CSE/DCE/tiling/interchange), variant
// generation, and design-space exploration.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.hpp"
#include "compiler/analysis.hpp"
#include "compiler/dse.hpp"
#include "compiler/interpreter.hpp"
#include "compiler/lowering.hpp"
#include "compiler/transforms.hpp"
#include "compiler/variants.hpp"
#include "dsl/tensor_expr.hpp"
#include "hls/cdfg.hpp"
#include "hls/hls.hpp"
#include "ir/builder.hpp"
#include "ir/dialect.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"

namespace everest::compiler {
namespace {

using dsl::TensorProgram;

ir::Module mlp_module() {
  TensorProgram p("mlp");
  auto x = p.input("x", {16, 32});
  auto w1 = p.input("w1", {32, 64});
  auto w2 = p.input("w2", {64, 8});
  p.output("y", matmul(relu(matmul(x, w1)), w2));
  return p.lower().value();
}

// -------------------------------------------------------------- Analysis --

TEST(Analysis, MatmulFlopsAndBytes) {
  TensorProgram p("mm");
  auto a = p.input("a", {8, 16});
  auto b = p.input("b", {16, 4});
  p.output("c", matmul(a, b));
  ir::Module m = p.lower().value();
  auto profile = profile_kernel(*m.find("mm"));
  ASSERT_TRUE(profile.ok());
  EXPECT_DOUBLE_EQ(profile->flops, 2.0 * 8 * 16 * 4);
  EXPECT_DOUBLE_EQ(profile->bytes_read, (8 * 16 + 16 * 4) * 8.0);
  EXPECT_DOUBLE_EQ(profile->bytes_written, 8 * 4 * 8.0);
  EXPECT_GT(profile->intensity(), 0.0);
}

TEST(Analysis, SpecialOpsCountedSeparately) {
  TensorProgram p("act");
  auto x = p.input("x", {100});
  p.output("y", exp(x));
  ir::Module m = p.lower().value();
  auto profile = profile_kernel(*m.find("act"));
  ASSERT_TRUE(profile.ok());
  EXPECT_DOUBLE_EQ(profile->special_ops, 100.0);
  EXPECT_DOUBLE_EQ(profile->flops, 0.0);
}

TEST(Analysis, ContractUsesEinsumFlops) {
  TensorProgram p("bc");
  auto a = p.input("a", {4, 5, 6});
  auto b = p.input("b", {4, 6, 7});
  p.output("c", dsl::contract("bij,bjk->bik", {a, b}));
  ir::Module m = p.lower().value();
  auto profile = profile_kernel(*m.find("bc"));
  ASSERT_TRUE(profile.ok());
  EXPECT_DOUBLE_EQ(profile->flops, 2.0 * 4 * 5 * 6 * 7);
}

TEST(Analysis, ProfilesWholeModule) {
  ir::Module m = mlp_module();
  auto profiles = profile_module(m);
  ASSERT_TRUE(profiles.ok());
  EXPECT_EQ(profiles->count("mlp"), 1u);
}

// -------------------------------------------------------------- Lowering --

TEST(Lowering, MlpLowersToVerifiedKernelFunction) {
  ir::Module m = mlp_module();
  auto name = lower_to_kernel(m, "mlp");
  ASSERT_TRUE(name.ok()) << name.status().to_string();
  EXPECT_EQ(*name, "mlp_kernel");
  Status st = ir::verify(m);
  EXPECT_TRUE(st.ok()) << st.to_string() << "\n" << ir::print(m);
  ir::Function* kfn = m.find("mlp_kernel");
  ASSERT_NE(kfn, nullptr);
  // 3 inputs + 0 constants + 1 output = 4 memref args, void result.
  EXPECT_EQ(kfn->input_types().size(), 4u);
  EXPECT_TRUE(kfn->result_types().empty());
  for (const ir::Type& t : kfn->input_types()) {
    EXPECT_TRUE(t.is_memref());
    EXPECT_EQ(t.memory_space(), ir::MemorySpace::kDevice);
  }
  // matmul → init+accumulate nests ×2, relu → 1 nest: 5 top-level nests.
  EXPECT_EQ(count_loop_nests(*kfn), 5u);
}

TEST(Lowering, LoweredKernelIsSynthesizable) {
  ir::Module m = mlp_module();
  ASSERT_TRUE(lower_to_kernel(m, "mlp").ok());
  auto design = hls::synthesize(*m.find("mlp_kernel"), hls::HlsConfig{},
                                hls::FpgaDevice::p9_vu9p());
  ASSERT_TRUE(design.ok()) << design.status().to_string();
  EXPECT_GT(design->estimate.total_cycles, 16 * 64 * 32);  // first matmul work
  EXPECT_GT(design->estimate.resources.brams, 0);  // on-chip intermediates
}

TEST(Lowering, ElementwiseChainFusesIntoOneNest) {
  TensorProgram p("chain");
  auto x = p.input("x", {64});
  auto y = p.input("y", {64});
  p.output("z", relu(scale(x + y, 2.0) * x));
  ir::Module m = p.lower().value();
  LoweringOptions fused;
  auto name = lower_to_kernel(m, "chain", fused);
  ASSERT_TRUE(name.ok()) << name.status().to_string();
  EXPECT_TRUE(ir::verify(m).ok()) << ir::verify(m).to_string();
  // add, scale, mul, relu all fuse into a single loop nest.
  EXPECT_EQ(count_loop_nests(*m.find("chain_kernel")), 1u);
}

TEST(Lowering, FusionDisabledMaterializesEachOp) {
  TensorProgram p("chain2");
  auto x = p.input("x", {64});
  auto y = p.input("y", {64});
  p.output("z", relu(x + y));
  ir::Module m = p.lower().value();
  LoweringOptions opts;
  opts.fuse_elementwise = false;
  auto name = lower_to_kernel(m, "chain2", opts);
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(count_loop_nests(*m.find("chain2_kernel")), 2u);
}

TEST(Lowering, SharedSubexpressionIsNotFused) {
  // h used twice → must materialize once, not be recomputed per use.
  TensorProgram p("shared");
  auto x = p.input("x", {32});
  auto h = x + x;
  p.output("z", (h * h));
  ir::Module m = p.lower().value();
  auto name = lower_to_kernel(m, "shared");
  ASSERT_TRUE(name.ok());
  // h gets its own nest; the mul another.
  EXPECT_EQ(count_loop_nests(*m.find("shared_kernel")), 2u);
  EXPECT_TRUE(ir::verify(m).ok());
}

TEST(Lowering, ConstantsArePromotedToArguments) {
  TensorProgram p("withc");
  auto x = p.input("x", {4});
  auto c = p.constant({4}, {1, 2, 3, 4});
  p.output("y", x + c);
  ir::Module m = p.lower().value();
  auto name = lower_to_kernel(m, "withc");
  ASSERT_TRUE(name.ok()) << name.status().to_string();
  ir::Function* kfn = m.find("withc_kernel");
  // input + promoted constant + output.
  EXPECT_EQ(kfn->input_types().size(), 3u);
  EXPECT_EQ(kfn->attr("ev.promoted_constants")->as_int(), 1);
  EXPECT_TRUE(ir::verify(m).ok()) << ir::verify(m).to_string();
}

TEST(Lowering, PassThroughReturnGetsCopyNest) {
  TensorProgram p("idf");
  auto x = p.input("x", {8});
  p.output("y", x);  // identity
  ir::Module m = p.lower().value();
  auto name = lower_to_kernel(m, "idf");
  ASSERT_TRUE(name.ok()) << name.status().to_string();
  EXPECT_EQ(count_loop_nests(*m.find("idf_kernel")), 1u);  // the copy
  EXPECT_TRUE(ir::verify(m).ok());
}

TEST(Lowering, ReduceAndTransposeLower) {
  TensorProgram p("rt");
  auto x = p.input("x", {8, 4});
  p.output("s", reduce("sum", transpose(x, {1, 0})));
  ir::Module m = p.lower().value();
  auto name = lower_to_kernel(m, "rt");
  ASSERT_TRUE(name.ok()) << name.status().to_string();
  EXPECT_TRUE(ir::verify(m).ok()) << ir::verify(m).to_string();
  // transpose copy + reduce init + reduce accumulate = 3 nests.
  EXPECT_EQ(count_loop_nests(*m.find("rt_kernel")), 3u);
}

TEST(Lowering, MeanAddsScalingNest) {
  TensorProgram p("mn");
  auto x = p.input("x", {10});
  p.output("m", reduce("mean", x));
  ir::Module m = p.lower().value();
  ASSERT_TRUE(lower_to_kernel(m, "mn").ok());
  // init + accumulate + scale = 3.
  EXPECT_EQ(count_loop_nests(*m.find("mn_kernel")), 3u);
}

TEST(Lowering, DuplicateLoweringRejected) {
  ir::Module m = mlp_module();
  ASSERT_TRUE(lower_to_kernel(m, "mlp").ok());
  EXPECT_EQ(lower_to_kernel(m, "mlp").status().code(),
            StatusCode::kAlreadyExists);
}

TEST(Lowering, MissingFunctionRejected) {
  ir::Module m("empty");
  EXPECT_EQ(lower_to_kernel(m, "nope").status().code(), StatusCode::kNotFound);
}

// ------------------------------------------------------------ Transforms --

ir::Module kernel_module_with_constants() {
  ir::register_everest_dialects();
  ir::Module m("t");
  ir::Function* fn =
      m.add_function("f", ir::Type::function({}, {})).value();
  ir::OpBuilder b(&fn->entry());
  ir::Value c1 = b.constant_f64(3.0);
  ir::Value c2 = b.constant_f64(4.0);
  ir::Value sum = b.create_value("kernel.binop", {c1, c2}, ir::Type::f64(),
                                 {{"op", ir::Attribute::string("add")}});
  ir::Value root = b.create_value("kernel.unop", {sum}, ir::Type::f64(),
                                  {{"fn", ir::Attribute::string("sqrt")}});
  ir::Value mem = b.create_value(
      "kernel.alloc", {}, ir::Type::memref({}, ir::ScalarKind::kF64,
                                           ir::MemorySpace::kOnChip));
  b.create("kernel.store", {root, mem}, {});
  b.ret();
  return m;
}

TEST(Transforms, ConstantFoldCollapsesArithmetic) {
  ir::Module m = kernel_module_with_constants();
  ir::PassManager pm;
  pm.add<ConstantFoldPass>();
  pm.add<DcePass>();
  ASSERT_TRUE(pm.run(m).ok());
  // sqrt(3+4) folds to a single constant feeding the store.
  int binops = 0, unops = 0, constants = 0;
  m.find("f")->walk([&](ir::Operation& op) {
    binops += op.name() == "kernel.binop";
    unops += op.name() == "kernel.unop";
    constants += op.name() == "builtin.constant";
  });
  EXPECT_EQ(binops, 0);
  EXPECT_EQ(unops, 0);
  EXPECT_EQ(constants, 1);
  bool value_ok = false;
  m.find("f")->walk([&](ir::Operation& op) {
    if (op.name() == "builtin.constant") {
      value_ok = std::abs(op.double_attr("value") - std::sqrt(7.0)) < 1e-12;
    }
  });
  EXPECT_TRUE(value_ok);
}

/// Folds `a <op> b` over two constants and returns the folded constant.
double fold_binop(const std::string& op, double a, double b) {
  ir::register_everest_dialects();
  ir::Module m("t");
  ir::Function* fn = m.add_function("f", ir::Type::function({}, {})).value();
  ir::OpBuilder builder(&fn->entry());
  ir::Value result = builder.create_value(
      "kernel.binop", {builder.constant_f64(a), builder.constant_f64(b)},
      ir::Type::f64(), {{"op", ir::Attribute::string(op)}});
  ir::Value mem = builder.create_value(
      "kernel.alloc", {}, ir::Type::memref({}, ir::ScalarKind::kF64,
                                           ir::MemorySpace::kOnChip));
  builder.create("kernel.store", {result, mem}, {});
  builder.ret();
  EXPECT_TRUE(ConstantFoldPass().run(m).ok());
  for (const auto& op : fn->entry()) {
    if (op->name() != "kernel.store") continue;
    const ir::Operation* folded = op->operand(0).defining_op();
    EXPECT_EQ(folded->name(), "builtin.constant");
    return folded->double_attr("value");
  }
  ADD_FAILURE() << "store lost";
  return 0.0;
}

TEST(Transforms, ConstantFoldModNeverTraps) {
  struct Case {
    double a, b, expected;
  };
  const double int64_min = -9223372036854775808.0;
  const Case cases[] = {
      // A divisor in (-1, 1) truncates to 0 and folds to 0, like `mod 0`;
      // the integer remainder by that 0 used to trap.
      {7.0, 0.5, 0.0},
      {7.0, -0.25, 0.0},
      {7.0, 0.0, 0.0},
      // INT64_MIN % -1 overflows the quotient and traps too.
      {int64_min, -1.0, 0.0},
      {5.0, -1.0, 0.0},
      // Ordinary operands keep the truncating integer remainder.
      {7.0, 3.0, 1.0},
      {-7.0, 3.0, -1.0},
      {7.9, 2.5, 1.0},
      {int64_min, 7.0, -1.0},
  };
  for (const Case& c : cases) {
    const double folded = fold_binop("mod", c.a, c.b);
    EXPECT_EQ(folded, c.expected) << c.a << " mod " << c.b;
    // Folding evaluates with the interpreter's semantics, not a copy.
    EXPECT_EQ(folded, apply_binop("mod", c.a, c.b)) << c.a << " mod " << c.b;
  }
  // NaN and operands beyond int64 fold without an out-of-range cast.
  for (const double wild : {std::nan(""), 1e300, -1e300, HUGE_VAL}) {
    EXPECT_EQ(fold_binop("mod", wild, 3.0), apply_binop("mod", wild, 3.0));
    EXPECT_EQ(fold_binop("mod", 3.0, wild), apply_binop("mod", 3.0, wild));
  }
}

TEST(Transforms, CseMergesIdenticalPureOps) {
  ir::register_everest_dialects();
  ir::Module m("t");
  ir::Function* fn = m.add_function("f", ir::Type::function({ir::Type::f64()},
                                                            {})).value();
  ir::OpBuilder b(&fn->entry());
  ir::Value x = fn->arg(0);
  ir::Value a = b.create_value("kernel.unop", {x}, ir::Type::f64(),
                               {{"fn", ir::Attribute::string("exp")}});
  ir::Value b2 = b.create_value("kernel.unop", {x}, ir::Type::f64(),
                                {{"fn", ir::Attribute::string("exp")}});
  ir::Value sum = b.create_value("kernel.binop", {a, b2}, ir::Type::f64(),
                                 {{"op", ir::Attribute::string("add")}});
  ir::Value mem = b.create_value(
      "kernel.alloc", {}, ir::Type::memref({}, ir::ScalarKind::kF64,
                                           ir::MemorySpace::kOnChip));
  b.create("kernel.store", {sum, mem}, {});
  b.ret();
  ir::PassManager pm;
  pm.add<CsePass>();
  ASSERT_TRUE(pm.run(m).ok());
  int unops = 0;
  fn->walk([&](ir::Operation& op) { unops += op.name() == "kernel.unop"; });
  EXPECT_EQ(unops, 1);
  EXPECT_TRUE(ir::verify(m).ok()) << ir::verify(m).to_string();
}

TEST(Transforms, DceKeepsLiveAndEffectfulOps) {
  ir::register_everest_dialects();
  ir::Module m("t");
  ir::Function* fn =
      m.add_function("f", ir::Type::function({ir::Type::f64()}, {})).value();
  ir::OpBuilder b(&fn->entry());
  b.create_value("kernel.unop", {fn->arg(0)}, ir::Type::f64(),
                 {{"fn", ir::Attribute::string("exp")}});  // dead
  ir::Value mem = b.create_value(
      "kernel.alloc", {}, ir::Type::memref({}, ir::ScalarKind::kF64,
                                           ir::MemorySpace::kOnChip));
  b.create("kernel.store", {fn->arg(0), mem}, {});  // effectful: kept
  b.ret();
  ir::PassManager pm;
  pm.add<DcePass>();
  ASSERT_TRUE(pm.run(m).ok());
  int unops = 0, stores = 0;
  fn->walk([&](ir::Operation& op) {
    unops += op.name() == "kernel.unop";
    stores += op.name() == "kernel.store";
  });
  EXPECT_EQ(unops, 0);
  EXPECT_EQ(stores, 1);
}

ir::Module vecadd_kernel_module(std::int64_t n) {
  TensorProgram p("va");
  auto a = p.input("a", {n});
  auto b = p.input("b", {n});
  p.output("c", a + b);
  ir::Module m = p.lower().value();
  EXPECT_TRUE(lower_to_kernel(m, "va").ok());
  return m;
}

TEST(Transforms, TileInnermostPreservesSemanticsStructure) {
  ir::Module m = vecadd_kernel_module(64);
  ir::Function* kfn = m.find("va_kernel");
  ASSERT_TRUE(tile_innermost(*kfn, 0, 8).ok());
  EXPECT_TRUE(ir::verify(m).ok()) << ir::verify(m).to_string() << ir::print(m);
  // Nest now has two levels: 8 tiles × 8 elements.
  auto nests = hls::extract_loop_nests(*kfn);
  ASSERT_TRUE(nests.ok()) << nests.status().to_string();
  ASSERT_EQ((*nests)[0].loops.size(), 2u);
  EXPECT_EQ((*nests)[0].loops[0].trip_count(), 8);
  EXPECT_EQ((*nests)[0].loops[1].trip_count(), 8);
  // Accesses remain affine: iv = it*8 + ii → coeff 1 in the innermost var.
  for (const auto& acc : (*nests)[0].accesses) {
    EXPECT_TRUE(acc.index.analyzable);
    EXPECT_EQ(acc.index.coeff, 1);
  }
}

TEST(Transforms, TileRejectsNonDivisibleFactor) {
  ir::Module m = vecadd_kernel_module(30);
  EXPECT_EQ(tile_innermost(*m.find("va_kernel"), 0, 8).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(tile_innermost(*m.find("va_kernel"), 0, 1).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(tile_innermost(*m.find("va_kernel"), 9, 2).code(),
            StatusCode::kNotFound);
}

TEST(Transforms, InterchangeSwapsLoopsWhenLegal) {
  // Build a 2-level copy nest: out[i][j] = in[i][j] with asymmetric extents.
  TensorProgram p("tp");
  auto x = p.input("x", {4, 16});
  p.output("y", transpose(x, {1, 0}));
  ir::Module m = p.lower().value();
  ASSERT_TRUE(lower_to_kernel(m, "tp").ok());
  ir::Function* kfn = m.find("tp_kernel");
  auto before = hls::extract_loop_nests(*kfn);
  ASSERT_TRUE(before.ok());
  const auto trip0 = (*before)[0].loops[0].trip_count();
  ASSERT_TRUE(interchange_loops(*kfn, 0, 0, 1).ok());
  EXPECT_TRUE(ir::verify(m).ok()) << ir::verify(m).to_string();
  auto after = hls::extract_loop_nests(*kfn);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ((*after)[0].loops[1].trip_count(), trip0);
}

TEST(Transforms, MatmulInterchangeIsLegalByDependenceAnalysis) {
  // The ikj accumulation carries its dependence on the k loop; swapping
  // i and j (or k and j) keeps every direction vector positive, so the
  // precise analysis allows what a read/write-conflict heuristic would
  // reject.
  TensorProgram p("mm2");
  auto a = p.input("a", {8, 8});
  auto b = p.input("b", {8, 8});
  p.output("c", matmul(a, b));
  ir::Module m = p.lower().value();
  ASSERT_TRUE(lower_to_kernel(m, "mm2").ok());
  // Nest 1 is the accumulation nest (0 is the zero-init).
  EXPECT_TRUE(interchange_loops(*m.find("mm2_kernel"), 1, 0, 2).ok());
  EXPECT_TRUE(ir::verify(m).ok()) << ir::verify(m).to_string();
}

// -------------------------------------------------------------- Variants --

TEST(Variants, SoftwareSweepProducesDistinctEstimates) {
  ir::Module m = mlp_module();
  VariantSpace space;
  space.devices.clear();  // software only
  auto variants = generate_variants(m, "mlp", space, CpuModel::power9());
  ASSERT_TRUE(variants.ok()) << variants.status().to_string();
  EXPECT_EQ(variants->size(),
            space.thread_counts.size() * space.tile_sizes.size() *
                space.layouts.size());
  // More threads should not be slower for a compute-heavy kernel.
  double t1 = 0, t8 = 0;
  for (const Variant& v : *variants) {
    if (v.id == "cpu-t1-tile0-soa") t1 = v.latency_us;
    if (v.id == "cpu-t8-tile0-soa") t8 = v.latency_us;
  }
  EXPECT_GT(t1, t8);
}

TEST(Variants, HardwareVariantsGeneratedAndFitFiltered) {
  ir::Module m = mlp_module();
  VariantSpace space;
  space.thread_counts = {1};
  space.tile_sizes = {0};
  space.layouts = {"soa"};
  space.unroll_factors = {1, 4};
  space.devices = {hls::FpgaDevice::p9_vu9p()};
  auto variants = generate_variants(m, "mlp", space, CpuModel::power9());
  ASSERT_TRUE(variants.ok()) << variants.status().to_string();
  int hw = 0;
  for (const Variant& v : *variants) {
    if (v.target == TargetKind::kFpga) {
      ++hw;
      EXPECT_GT(v.latency_us, 0);
      EXPECT_GT(v.area_fraction, 0);
      EXPECT_LE(v.area_fraction, 1.0);
      EXPECT_EQ(v.device, "P9-VU9P");
    }
  }
  EXPECT_EQ(hw, 2);
  // The kernel lowering was created on demand.
  EXPECT_NE(m.find("mlp_kernel"), nullptr);
}

TEST(Variants, SecurityModesAddVariants) {
  ir::Module m = mlp_module();
  VariantSpace space;
  space.thread_counts = {1};
  space.tile_sizes = {0};
  space.layouts = {"soa"};
  space.unroll_factors = {1};
  space.devices = {hls::FpgaDevice::p9_vu9p()};
  space.with_dift = true;
  space.with_encryption = "aes128-gcm";
  auto variants = generate_variants(m, "mlp", space, CpuModel::power9());
  ASSERT_TRUE(variants.ok());
  bool has_dift = false, has_enc = false;
  for (const Variant& v : *variants) {
    has_dift |= v.dift;
    has_enc |= !v.encrypted.empty();
  }
  EXPECT_TRUE(has_dift);
  EXPECT_TRUE(has_enc);
}

TEST(Variants, JsonRoundTrip) {
  ir::Module m = mlp_module();
  VariantSpace space;
  auto variants = generate_variants(m, "mlp", space, CpuModel::power9());
  ASSERT_TRUE(variants.ok());
  const json::Value doc = variants_to_json(*variants);
  auto parsed = json::parse(doc.dump());
  ASSERT_TRUE(parsed.ok());
  auto restored = variants_from_json(*parsed);
  ASSERT_TRUE(restored.ok()) << restored.status().to_string();
  ASSERT_EQ(restored->size(), variants->size());
  for (std::size_t i = 0; i < restored->size(); ++i) {
    EXPECT_EQ((*restored)[i].id, (*variants)[i].id);
    EXPECT_NEAR((*restored)[i].latency_us, (*variants)[i].latency_us, 1e-9);
  }
  json::Object bad;
  bad["schema"] = "other";
  EXPECT_FALSE(variants_from_json(json::Value(bad)).ok());
}

TEST(Variants, SoftwareModelRooflineBehaviour) {
  // Memory-bound profile: tiny flops, huge bytes → latency tracks bytes.
  KernelProfile mem_bound;
  mem_bound.flops = 1e3;
  mem_bound.bytes_read = 1e9;
  const auto est =
      estimate_software(mem_bound, CpuModel::power9(), 8, 0, "soa");
  EXPECT_GT(est.memory_us, est.compute_us * 10);
  // AoS layout halves (or worse) effective bandwidth.
  const auto aos = estimate_software(mem_bound, CpuModel::power9(), 8, 0, "aos");
  EXPECT_GT(aos.latency_us, est.latency_us * 1.5);
  // Compute-bound profile benefits from threads.
  KernelProfile cpu_bound;
  cpu_bound.flops = 1e10;
  cpu_bound.bytes_read = 1e5;
  const auto one = estimate_software(cpu_bound, CpuModel::power9(), 1, 0, "soa");
  const auto many = estimate_software(cpu_bound, CpuModel::power9(), 8, 0, "soa");
  EXPECT_GT(one.latency_us, many.latency_us * 4);
}

// ------------------------------------------------------------------- DSE --

std::vector<Variant> synthetic_variants() {
  auto make = [](const char* id, double lat, double en, double area = 0.0) {
    Variant v;
    v.id = id;
    v.kernel = "k";
    v.latency_us = lat;
    v.energy_uj = en;
    v.area_fraction = area;
    return v;
  };
  return {make("a", 10, 100), make("b", 20, 50), make("c", 30, 20),
          make("d", 25, 60),   // dominated by b
          make("e", 10, 100)}; // ties with a: both stay
}

TEST(Dse, ParetoFrontFiltersDominated) {
  auto variants = synthetic_variants();
  auto front = pareto_front(variants);
  std::vector<std::string> ids;
  for (std::size_t i : front) ids.push_back(variants[i].id);
  EXPECT_EQ(ids, (std::vector<std::string>{"a", "b", "c", "e"}));
}

TEST(Dse, KneePointBalancesObjectives) {
  auto variants = synthetic_variants();
  const std::size_t knee = knee_point(variants);
  EXPECT_EQ(variants[knee].id, "b");  // middle of the front
  EXPECT_EQ(knee_point({}), static_cast<std::size_t>(-1));
}

TEST(Dse, AreaObjectiveChangesFront) {
  std::vector<Variant> variants = synthetic_variants();
  variants[0].area_fraction = 0.9;  // "a" big in area
  variants[4].area_fraction = 0.9;  // and its twin "e"
  Variant tiny;
  tiny.id = "tiny";
  tiny.kernel = "k";
  tiny.latency_us = 12;
  tiny.energy_uj = 110;
  tiny.area_fraction = 0.0;
  variants.push_back(tiny);
  DseObjectives with_area;
  with_area.area = true;
  auto front = pareto_front(variants, with_area);
  bool tiny_on_front = false;
  for (std::size_t i : front) tiny_on_front |= variants[i].id == "tiny";
  EXPECT_TRUE(tiny_on_front);
}

/// Property: the Pareto front never contains a pair where one dominates the
/// other, and every excluded variant is dominated by someone on the front.
class ParetoProperty : public ::testing::TestWithParam<int> {};

TEST_P(ParetoProperty, FrontIsSoundAndComplete) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<Variant> variants;
  for (int i = 0; i < 40; ++i) {
    Variant v;
    v.id = "v" + std::to_string(i);
    v.kernel = "k";
    v.latency_us = rng.uniform(1, 100);
    v.energy_uj = rng.uniform(1, 100);
    variants.push_back(v);
  }
  auto front = pareto_front(variants);
  std::set<std::size_t> on_front(front.begin(), front.end());
  auto dominates = [](const Variant& a, const Variant& b) {
    return a.latency_us <= b.latency_us && a.energy_uj <= b.energy_uj &&
           (a.latency_us < b.latency_us || a.energy_uj < b.energy_uj);
  };
  for (std::size_t i : front) {
    for (std::size_t j : front) {
      if (i != j) {
        EXPECT_FALSE(dominates(variants[i], variants[j]));
      }
    }
  }
  for (std::size_t i = 0; i < variants.size(); ++i) {
    if (on_front.count(i)) continue;
    bool dominated = false;
    for (std::size_t j : front) dominated |= dominates(variants[j], variants[i]);
    EXPECT_TRUE(dominated) << variants[i].id;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParetoProperty, ::testing::Range(0, 10));

}  // namespace
}  // namespace everest::compiler
