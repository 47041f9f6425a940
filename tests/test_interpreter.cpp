// Semantics tests: the kernel-dialect IR produced by lower_to_kernel (and
// then transformed by tiling/interchange) must compute the same values as
// the tensor-dialect reference interpreter — end-to-end proof that the
// compiler preserves meaning.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "apps/mlp.hpp"
#include "common/rng.hpp"
#include "compiler/interpreter.hpp"
#include "compiler/lowering.hpp"
#include "compiler/transforms.hpp"
#include "dsl/tensor_expr.hpp"
#include "ir/builder.hpp"
#include "ir/dialect.hpp"
#include "ir/verifier.hpp"

namespace everest::compiler {
namespace {

using dsl::TensorProgram;

TensorValue random_tensor(std::vector<std::int64_t> shape, Rng& rng,
                          double lo = -2.0, double hi = 2.0) {
  TensorValue v = TensorValue::zeros(std::move(shape));
  for (double& x : v.data) x = rng.uniform(lo, hi);
  return v;
}

void expect_close(const TensorValue& a, const TensorValue& b,
                  double tol = 1e-9) {
  ASSERT_EQ(a.shape, b.shape);
  ASSERT_EQ(a.data.size(), b.data.size());
  for (std::size_t i = 0; i < a.data.size(); ++i) {
    EXPECT_NEAR(a.data[i], b.data[i], tol) << "element " << i;
  }
}

/// Runs the tensor reference and the lowered kernel on the same inputs and
/// compares outputs.
void check_lowering_equivalence(TensorProgram& program,
                                std::vector<TensorValue> inputs,
                                double tol = 1e-9) {
  auto module = program.lower();
  ASSERT_TRUE(module.ok()) << module.status().to_string();
  auto reference = run_tensor_function(*module, program.name(), inputs);
  ASSERT_TRUE(reference.ok()) << reference.status().to_string();

  auto kernel_name = lower_to_kernel(*module, program.name());
  ASSERT_TRUE(kernel_name.ok()) << kernel_name.status().to_string();
  ASSERT_TRUE(ir::verify(*module).ok()) << ir::verify(*module).to_string();

  auto constants = promoted_constant_values(*module, program.name());
  ASSERT_TRUE(constants.ok());
  std::vector<TensorValue> bound = inputs;
  for (const TensorValue& c : *constants) bound.push_back(c);
  auto lowered = run_kernel_function(*module, *kernel_name, bound);
  ASSERT_TRUE(lowered.ok()) << lowered.status().to_string();

  ASSERT_EQ(lowered->size(), reference->size());
  for (std::size_t i = 0; i < lowered->size(); ++i) {
    expect_close((*lowered)[i], (*reference)[i], tol);
  }
}

TEST(Interpreter, ElementwiseChain) {
  TensorProgram p("chain");
  auto x = p.input("x", {8, 8});
  auto y = p.input("y", {8, 8});
  p.output("z", relu(scale(x + y, 2.0) * x - y));
  Rng rng(1);
  check_lowering_equivalence(
      p, {random_tensor({8, 8}, rng), random_tensor({8, 8}, rng)});
}

TEST(Interpreter, MatmulIkjOrderIsExact) {
  TensorProgram p("mm");
  auto a = p.input("a", {5, 7});
  auto b = p.input("b", {7, 3});
  p.output("c", matmul(a, b));
  Rng rng(2);
  check_lowering_equivalence(
      p, {random_tensor({5, 7}, rng), random_tensor({7, 3}, rng)}, 1e-12);
}

TEST(Interpreter, MlpWithConstants) {
  Rng rng(3);
  apps::Mlp net({4, 6, 2}, rng);
  TensorProgram p = net.to_tensor_program("mlp", 3);
  Rng drng(4);
  TensorValue x = random_tensor({3, 4}, drng);
  auto module = p.lower();
  ASSERT_TRUE(module.ok());
  // Reference #1: the MLP itself.
  auto irref = run_tensor_function(*module, "mlp", {x});
  ASSERT_TRUE(irref.ok()) << irref.status().to_string();
  for (int row = 0; row < 3; ++row) {
    std::vector<double> sample(x.data.begin() + row * 4,
                               x.data.begin() + (row + 1) * 4);
    const auto direct = net.predict(sample);
    for (int c = 0; c < 2; ++c) {
      EXPECT_NEAR((*irref)[0].data[static_cast<std::size_t>(row * 2 + c)],
                  direct[static_cast<std::size_t>(c)], 1e-9)
          << "IR tensor semantics must match the MLP";
    }
  }
  // Reference #2: lowered kernel vs tensor dialect.
  check_lowering_equivalence(p, {x}, 1e-9);
}

TEST(Interpreter, ContractBatched) {
  TensorProgram p("bc");
  auto a = p.input("a", {3, 4, 5});
  auto b = p.input("b", {3, 5, 2});
  p.output("c", dsl::contract("bij,bjk->bik", {a, b}));
  Rng rng(5);
  check_lowering_equivalence(
      p, {random_tensor({3, 4, 5}, rng), random_tensor({3, 5, 2}, rng)},
      1e-12);
}

TEST(Interpreter, TransposedContractionScaleAndSum) {
  // A·Bᵀ through "ij,kj->ik": the contraction walks both operands along
  // their rows. Then transpose, scale and sum.
  TensorProgram p("misc");
  auto a = p.input("a", {2, 3});
  auto b = p.input("b", {2, 3});
  p.output("total",
           reduce("sum", scale(transpose(dsl::contract("ij,kj->ik", {a, b}),
                                         {1, 0}),
                               2.0)));
  auto module = p.lower();
  ASSERT_TRUE(module.ok()) << module.status().to_string();
  const TensorValue x = TensorValue::from({2, 3}, {1, 2, 3, 4, 5, 6});
  auto result = run_tensor_function(*module, "misc", {x, x});
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  // X·Xᵀ = [[14, 32], [32, 77]]; the total is twice its sum.
  EXPECT_NEAR((*result)[0].data[0], 2.0 * (14 + 32 + 32 + 77), 1e-12);
  check_lowering_equivalence(p, {x, x}, 1e-12);
}

/// A kernel-dialect function computing out[0] = in[0] mod in[1].
ir::Module mod_kernel_module() {
  ir::register_everest_dialects();
  ir::Module m("modk");
  const ir::Type buf =
      ir::Type::memref({2}, ir::ScalarKind::kF64, ir::MemorySpace::kDevice);
  ir::Function* fn =
      m.add_function("modk", ir::Type::function({buf, buf}, {})).value();
  fn->set_attr("ev.num_inputs", ir::Attribute::integer(1));
  fn->set_attr("ev.num_outputs", ir::Attribute::integer(1));
  ir::OpBuilder b(&fn->entry());
  const ir::Value i0 = b.constant_index(0);
  const ir::Value i1 = b.constant_index(1);
  const ir::Value x =
      b.create_value("kernel.load", {fn->arg(0), i0}, ir::Type::f64());
  const ir::Value y =
      b.create_value("kernel.load", {fn->arg(0), i1}, ir::Type::f64());
  const ir::Value r = b.create_value("kernel.binop", {x, y}, ir::Type::f64(),
                                     {{"op", ir::Attribute::string("mod")}});
  b.create("kernel.store", {r, fn->arg(1), i0}, {});
  b.ret();
  return m;
}

TEST(Interpreter, KernelModNeverTraps) {
  ir::Module m = mod_kernel_module();
  ASSERT_TRUE(ir::verify(m).ok()) << ir::verify(m).to_string();
  struct Case {
    double a, b, expected;
  };
  const Case cases[] = {
      {7.0, 0.5, 0.0},                     // divisor truncates to 0
      {-9223372036854775808.0, -1.0, 0.0},  // INT64_MIN % -1 overflows
      {7.0, 3.0, 1.0},
      {-7.0, 3.0, -1.0},
  };
  for (const Case& c : cases) {
    auto out =
        run_kernel_function(m, "modk", {TensorValue::from({2}, {c.a, c.b})});
    ASSERT_TRUE(out.ok()) << out.status().to_string();
    EXPECT_EQ((*out)[0].data[0], c.expected) << c.a << " mod " << c.b;
  }
}

/// Two kernel-dialect functions addressing a 2×2 buffer at the position
/// held in the input `idx` (f64 data cast to index type):
/// gather: out[0] = data[idx[0]][idx[1]]; scatter: out[idx[0]][idx[1]] = 1.
ir::Module indexed_access_module() {
  ir::register_everest_dialects();
  ir::Module m("indexed");
  const auto mem = [](std::vector<std::int64_t> shape) {
    return ir::Type::memref(std::move(shape), ir::ScalarKind::kF64,
                            ir::MemorySpace::kDevice);
  };
  const auto position = [](ir::OpBuilder& b, const ir::Value& idx) {
    std::vector<ir::Value> at;
    for (std::int64_t d = 0; d < 2; ++d) {
      const ir::Value x = b.create_value(
          "kernel.load", {idx, b.constant_index(d)}, ir::Type::f64());
      at.push_back(b.create_value("kernel.cast", {x}, ir::Type::index()));
    }
    return at;
  };
  ir::Function* gather =
      m.add_function("gather", ir::Type::function(
                                   {mem({2}), mem({2, 2}), mem({1})}, {}))
          .value();
  gather->set_attr("ev.num_inputs", ir::Attribute::integer(2));
  gather->set_attr("ev.num_outputs", ir::Attribute::integer(1));
  {
    ir::OpBuilder b(&gather->entry());
    const std::vector<ir::Value> at = position(b, gather->arg(0));
    const ir::Value v = b.create_value(
        "kernel.load", {gather->arg(1), at[0], at[1]}, ir::Type::f64());
    b.create("kernel.store", {v, gather->arg(2), b.constant_index(0)}, {});
    b.ret();
  }
  ir::Function* scatter =
      m.add_function("scatter",
                     ir::Type::function({mem({2}), mem({2, 2})}, {}))
          .value();
  scatter->set_attr("ev.num_inputs", ir::Attribute::integer(1));
  scatter->set_attr("ev.num_outputs", ir::Attribute::integer(1));
  {
    ir::OpBuilder b(&scatter->entry());
    const std::vector<ir::Value> at = position(b, scatter->arg(0));
    b.create("kernel.store",
             {b.constant_f64(1.0), scatter->arg(1), at[0], at[1]}, {});
    b.ret();
  }
  return m;
}

TEST(Interpreter, KernelIndexOutsideItsDimensionIsOutOfRange) {
  ir::Module m = indexed_access_module();
  ASSERT_TRUE(ir::verify(m).ok()) << ir::verify(m).to_string();
  const TensorValue data = TensorValue::from({2, 2}, {10, 11, 12, 13});
  const auto gather = [&](double row, double col) {
    return run_kernel_function(m, "gather",
                               {TensorValue::from({2}, {row, col}), data});
  };
  const auto scatter = [&](double row, double col) {
    return run_kernel_function(m, "scatter",
                               {TensorValue::from({2}, {row, col})});
  };
  // In range: each index addresses its own element; a fractional index
  // truncates toward zero.
  const double in_range[][3] = {
      {0, 0, 0}, {0, 1, 1}, {1, 0, 2}, {1, 1, 3}, {1.5, 0.25, 2}};
  for (const auto& [row, col, element] : in_range) {
    auto read = gather(row, col);
    ASSERT_TRUE(read.ok()) << read.status().to_string();
    EXPECT_EQ((*read)[0].data[0], data.data[static_cast<std::size_t>(element)])
        << "[" << row << "][" << col << "]";
    auto written = scatter(row, col);
    ASSERT_TRUE(written.ok()) << written.status().to_string();
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ((*written)[0].data[i],
                static_cast<double>(i) == element ? 1.0 : 0.0)
          << "[" << row << "][" << col << "] element " << i;
    }
  }
  // Out of range in one dimension, including where the row-major offset
  // would still land inside the buffer ([1][-1], [2][-3] and [0][2]).
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double out_of_range[][2] = {{1, -1},   {2, -3},    {0, 2},
                                    {1e300, 1}, {-1e300, 0}, {-0.5, 0},
                                    {0, inf},  {nan, 0}};
  for (const auto& [row, col] : out_of_range) {
    EXPECT_EQ(gather(row, col).status().code(), StatusCode::kOutOfRange)
        << "load [" << row << "][" << col << "]";
    EXPECT_EQ(scatter(row, col).status().code(), StatusCode::kOutOfRange)
        << "store [" << row << "][" << col << "]";
  }
  // A bound 2×2 tensor that carries one element: [1][1] is in its shape
  // but past its data.
  EXPECT_EQ(run_kernel_function(m, "gather",
                                {TensorValue::from({2}, {1, 1}),
                                 TensorValue::from({2, 2}, {10})})
                .status()
                .code(),
            StatusCode::kOutOfRange);
}

TEST(Interpreter, ReduceKindsIncludingNegatives) {
  for (const char* kind : {"sum", "mean", "max", "min"}) {
    TensorProgram p(std::string("red_") + kind);
    auto x = p.input("x", {4, 6});
    p.output("r", reduce(kind, x));
    Rng rng(7);
    // Negative data: catches wrong max/min initialization.
    check_lowering_equivalence(p, {random_tensor({4, 6}, rng, -5.0, -1.0)},
                               1e-12);
  }
}

TEST(Interpreter, TransposeRank3) {
  TensorProgram p("tp");
  auto x = p.input("x", {2, 3, 4});
  p.output("y", transpose(x, {2, 0, 1}));
  Rng rng(8);
  check_lowering_equivalence(p, {random_tensor({2, 3, 4}, rng)}, 1e-12);
}

TEST(Interpreter, ReshapeLowersAndMatches) {
  TensorProgram p("rs");
  auto x = p.input("x", {4, 6});
  // reshape → elementwise → reshape back: exercises div/mod indexing on
  // both the load and store sides.
  p.output("y", reshape(relu(reshape(x, {8, 3})), {2, 12}));
  Rng rng(21);
  check_lowering_equivalence(p, {random_tensor({4, 6}, rng)}, 1e-12);
}

TEST(Interpreter, ReshapeToFlatVector) {
  TensorProgram p("rs2");
  auto x = p.input("x", {3, 5});
  p.output("y", reshape(x, {15}));
  Rng rng(22);
  check_lowering_equivalence(p, {random_tensor({3, 5}, rng)}, 1e-12);
}

TEST(Interpreter, ReshapeRejectsBadShapes) {
  TensorProgram p("rs3");
  auto x = p.input("x", {4});
  auto bad = dsl::reshape(x, {3});
  EXPECT_FALSE(bad.ok());
  auto neg = dsl::reshape(x, {-4});
  EXPECT_FALSE(neg.ok());
}

TEST(Interpreter, PassThroughAndDuplicateReturns) {
  TensorProgram p("multi");
  auto x = p.input("x", {6});
  auto h = relu(x);
  p.output("a", h);
  p.output("b", h);  // same value returned twice
  p.output("c", x);  // pass-through
  Rng rng(9);
  check_lowering_equivalence(p, {random_tensor({6}, rng)});
}

TEST(Interpreter, TilingPreservesSemantics) {
  TensorProgram p("tiled");
  auto x = p.input("x", {64});
  auto y = p.input("y", {64});
  p.output("z", x * y + x);
  auto module = p.lower();
  ASSERT_TRUE(module.ok());
  Rng rng(10);
  TensorValue a = random_tensor({64}, rng);
  TensorValue b = random_tensor({64}, rng);
  auto reference = run_tensor_function(*module, "tiled", {a, b});
  ASSERT_TRUE(reference.ok());
  auto kernel_name = lower_to_kernel(*module, "tiled");
  ASSERT_TRUE(kernel_name.ok());
  ir::Function* kfn = module->find(*kernel_name);
  ASSERT_TRUE(tile_innermost(*kfn, 0, 8).ok());
  ASSERT_TRUE(ir::verify(*module).ok()) << ir::verify(*module).to_string();
  auto tiled = run_kernel_function(*module, *kernel_name, {a, b});
  ASSERT_TRUE(tiled.ok()) << tiled.status().to_string();
  expect_close((*tiled)[0], (*reference)[0]);
}

TEST(Interpreter, InterchangePreservesSemantics) {
  TensorProgram p("ic");
  auto x = p.input("x", {4, 16});
  p.output("y", transpose(x, {1, 0}));
  auto module = p.lower();
  ASSERT_TRUE(module.ok());
  Rng rng(11);
  TensorValue a = random_tensor({4, 16}, rng);
  auto reference = run_tensor_function(*module, "ic", {a});
  ASSERT_TRUE(reference.ok());
  auto kernel_name = lower_to_kernel(*module, "ic");
  ASSERT_TRUE(kernel_name.ok());
  ir::Function* kfn = module->find(*kernel_name);
  ASSERT_TRUE(interchange_loops(*kfn, 0, 0, 1).ok());
  auto swapped = run_kernel_function(*module, *kernel_name, {a});
  ASSERT_TRUE(swapped.ok()) << swapped.status().to_string();
  expect_close((*swapped)[0], (*reference)[0]);
}

TEST(Interpreter, FusionOnOffAgree) {
  TensorProgram p("fuse");
  auto x = p.input("x", {32});
  auto y = p.input("y", {32});
  p.output("z", exp(scale(x - y, 0.5)));
  Rng rng(12);
  TensorValue a = random_tensor({32}, rng);
  TensorValue b = random_tensor({32}, rng);
  std::vector<TensorValue> fused_out, unfused_out;
  for (bool fuse : {true, false}) {
    auto module = p.lower();
    ASSERT_TRUE(module.ok());
    LoweringOptions options;
    options.fuse_elementwise = fuse;
    auto name = lower_to_kernel(*module, "fuse", options);
    ASSERT_TRUE(name.ok());
    auto out = run_kernel_function(*module, *name, {a, b});
    ASSERT_TRUE(out.ok());
    (fuse ? fused_out : unfused_out) = std::move(out).value();
  }
  expect_close(fused_out[0], unfused_out[0]);
}

TEST(Interpreter, ErrorsSurfaced) {
  ir::Module m("empty");
  EXPECT_EQ(run_tensor_function(m, "nope", {}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(run_kernel_function(m, "nope", {}).status().code(),
            StatusCode::kNotFound);
  // Wrong input count.
  TensorProgram p("one");
  (void)p.input("x", {4});
  p.output("y", p.input("y", {4}));
  auto module = p.lower();
  ASSERT_TRUE(module.ok());
  EXPECT_EQ(run_tensor_function(*module, "one", {}).status().code(),
            StatusCode::kInvalidArgument);
  // Kernel function without lowering metadata.
  EXPECT_EQ(run_kernel_function(*module, "one", {}).status().code(),
            StatusCode::kFailedPrecondition);
}

/// Property sweep: random elementwise DAGs agree between the tensor
/// reference and the (fused) kernel lowering.
class RandomProgramEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(RandomProgramEquivalence, TensorVsKernel) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 7);
  TensorProgram p("rand" + std::to_string(GetParam()));
  std::vector<dsl::TensorExpr> pool = {p.input("a", {16}), p.input("b", {16})};
  for (int i = 0; i < 6; ++i) {
    const auto& x = pool[rng.uniform_int(pool.size())];
    const auto& y = pool[rng.uniform_int(pool.size())];
    switch (rng.uniform_int(5u)) {
      case 0: pool.push_back(x + y); break;
      case 1: pool.push_back(x - y); break;
      case 2: pool.push_back(x * y); break;
      case 3: pool.push_back(relu(x)); break;
      default: pool.push_back(scale(x, rng.uniform(-1.5, 1.5))); break;
    }
  }
  p.output("out", pool.back());
  Rng drng(GetParam());
  check_lowering_equivalence(
      p, {random_tensor({16}, drng), random_tensor({16}, drng)}, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramEquivalence,
                         ::testing::Range(0, 15));

}  // namespace
}  // namespace everest::compiler
