// Tests for the dependence analysis (direction vectors, interchange
// legality, innermost-parallelism).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "compiler/dependence.hpp"
#include "compiler/interpreter.hpp"
#include "compiler/lowering.hpp"
#include "compiler/transforms.hpp"
#include "dsl/tensor_expr.hpp"
#include "ir/builder.hpp"
#include "ir/dialect.hpp"
#include "ir/verifier.hpp"

namespace everest::compiler {
namespace {

using ir::Attribute;
using ir::OpBuilder;
using ir::Type;

/// Builds a 2-level nest over [1,n)x[0,n-1) computing
///   A[i][j] = f(A[i-1][j+1])  — dependence distance (+1, -1): the classic
/// interchange-illegal stencil.
ir::Module make_skew_stencil(std::int64_t n) {
  ir::register_everest_dialects();
  ir::Module m("skew");
  Type mem = Type::memref({n, n}, ir::ScalarKind::kF64,
                          ir::MemorySpace::kOnChip);
  ir::Function* fn = m.add_function("k", Type::function({mem}, {})).value();
  OpBuilder b(&fn->entry());
  ir::Operation& li = b.create("kernel.for", {}, {},
                               {{"lb", Attribute::integer(1)},
                                {"ub", Attribute::integer(n)},
                                {"step", Attribute::integer(1)}});
  ir::Block& bi = li.emplace_region().emplace_block({Type::index()});
  OpBuilder obi(&bi);
  ir::Operation& lj = obi.create("kernel.for", {}, {},
                                 {{"lb", Attribute::integer(0)},
                                  {"ub", Attribute::integer(n - 1)},
                                  {"step", Attribute::integer(1)}});
  ir::Block& bj = lj.emplace_region().emplace_block({Type::index()});
  OpBuilder obj(&bj);
  ir::Value one = obj.constant_index(1);
  ir::Value im1 = obj.create_value("kernel.binop", {bi.arg(0), one},
                                   Type::index(),
                                   {{"op", Attribute::string("sub")}});
  ir::Value jp1 = obj.create_value("kernel.binop", {bj.arg(0), one},
                                   Type::index(),
                                   {{"op", Attribute::string("add")}});
  ir::Value x = obj.create_value("kernel.load", {fn->arg(0), im1, jp1},
                                 Type::f64());
  ir::Value y = obj.create_value("kernel.unop", {x}, Type::f64(),
                                 {{"fn", Attribute::string("sqrt")}});
  obj.create("kernel.store", {y, fn->arg(0), bi.arg(0), bj.arg(0)}, {});
  obj.create("kernel.yield", {}, {});
  obi.create("kernel.yield", {}, {});
  b.ret();
  EXPECT_TRUE(ir::verify(m).ok()) << ir::verify(m).to_string();
  return m;
}

TEST(Dependence, SkewStencilVectors) {
  ir::Module m = make_skew_stencil(8);
  auto deps = analyze_dependences(*m.find("k"), 0);
  ASSERT_TRUE(deps.ok()) << deps.status().to_string();
  // One pair (load, store), two orientations: (<,>) and (>,<).
  ASSERT_EQ(deps->size(), 2u);
  bool has_pos = false;
  for (const auto& d : *deps) {
    EXPECT_FALSE(d.unknown);
    ASSERT_EQ(d.dir.size(), 2u);
    if (d.dir[0] == '<') {
      EXPECT_EQ(d.dir[1], '>');
      has_pos = true;
    }
  }
  EXPECT_TRUE(has_pos);
}

TEST(Dependence, SkewStencilInterchangeIllegal) {
  ir::Module m = make_skew_stencil(8);
  auto deps = analyze_dependences(*m.find("k"), 0);
  ASSERT_TRUE(deps.ok());
  EXPECT_FALSE(interchange_is_legal(*deps, 0, 1));
  EXPECT_EQ(interchange_loops(*m.find("k"), 0, 0, 1).code(),
            StatusCode::kFailedPrecondition);
}

TEST(Dependence, MatmulAccumulationVectors) {
  dsl::TensorProgram p("mm");
  auto a = p.input("a", {6, 6});
  auto b = p.input("b", {6, 6});
  p.output("c", matmul(a, b));
  ir::Module m = p.lower().value();
  ASSERT_TRUE(lower_to_kernel(m, "mm").ok());
  // Nest 1 = accumulation (i,k,j).
  auto deps = analyze_dependences(*m.find("mm_kernel"), 1);
  ASSERT_TRUE(deps.ok()) << deps.status().to_string();
  ASSERT_FALSE(deps->empty());
  // All C-array dependences must be (=,*,=) — carried by k only.
  for (const auto& d : *deps) {
    EXPECT_FALSE(d.unknown) << d.kind;
    ASSERT_EQ(d.dir.size(), 3u);
    EXPECT_EQ(d.dir[0], '=');
    EXPECT_EQ(d.dir[1], '*');
    EXPECT_EQ(d.dir[2], '=');
  }
  // Any single interchange is legal; innermost (j) carries nothing.
  EXPECT_TRUE(interchange_is_legal(*deps, 0, 2));
  EXPECT_TRUE(interchange_is_legal(*deps, 1, 2));
  EXPECT_TRUE(innermost_is_parallel(*deps));
}

TEST(Dependence, InterchangedMatmulStaysCorrect) {
  dsl::TensorProgram p("mmx");
  auto a = p.input("a", {5, 4});
  auto b = p.input("b", {4, 3});
  p.output("c", matmul(a, b));
  ir::Module m = p.lower().value();
  Rng rng(3);
  TensorValue av = TensorValue::zeros({5, 4});
  TensorValue bv = TensorValue::zeros({4, 3});
  for (double& x : av.data) x = rng.uniform(-1, 1);
  for (double& x : bv.data) x = rng.uniform(-1, 1);
  auto reference = run_tensor_function(m, "mmx", {av, bv});
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(lower_to_kernel(m, "mmx").ok());
  ir::Function* kfn = m.find("mmx_kernel");
  ASSERT_TRUE(interchange_loops(*kfn, 1, 1, 2).ok());  // ikj → ijk
  auto swapped = run_kernel_function(m, "mmx_kernel", {av, bv});
  ASSERT_TRUE(swapped.ok()) << swapped.status().to_string();
  for (std::size_t i = 0; i < (*reference)[0].data.size(); ++i) {
    EXPECT_NEAR((*swapped)[0].data[i], (*reference)[0].data[i], 1e-12);
  }
}

TEST(Dependence, ElementwiseLoopIsFullyParallel) {
  dsl::TensorProgram p("ew");
  auto x = p.input("x", {16});
  auto y = p.input("y", {16});
  p.output("z", x + y);
  ir::Module m = p.lower().value();
  ASSERT_TRUE(lower_to_kernel(m, "ew").ok());
  auto deps = analyze_dependences(*m.find("ew_kernel"), 0);
  ASSERT_TRUE(deps.ok());
  EXPECT_TRUE(deps->empty());  // distinct arrays read vs written
  EXPECT_TRUE(innermost_is_parallel(*deps));
}

TEST(Dependence, ReductionInnermostNotParallel) {
  dsl::TensorProgram p("rd");
  auto x = p.input("x", {16});
  p.output("s", reduce("sum", x));
  ir::Module m = p.lower().value();
  ASSERT_TRUE(lower_to_kernel(m, "rd").ok());
  // Nest 1 is the accumulation loop (rank-0 accumulator: dir ('*')).
  auto deps = analyze_dependences(*m.find("rd_kernel"), 1);
  ASSERT_TRUE(deps.ok());
  ASSERT_FALSE(deps->empty());
  EXPECT_FALSE(innermost_is_parallel(*deps));
}

TEST(Dependence, MissingNestReported) {
  ir::register_everest_dialects();
  ir::Module m("none");
  ir::Function* fn = m.add_function("f", Type::function({}, {})).value();
  OpBuilder b(&fn->entry());
  b.ret();
  EXPECT_EQ(analyze_dependences(*fn, 0).status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace everest::compiler
