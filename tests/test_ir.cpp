// Unit tests for the IR core: types, attributes, operations, module
// structure, builder, verifier, and pass manager.
#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "ir/dialect.hpp"
#include "ir/module.hpp"
#include "ir/pass.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"

namespace everest::ir {
namespace {

// ------------------------------------------------------------------ Type --

TEST(Type, ScalarRendering) {
  EXPECT_EQ(Type::f64().to_string(), "f64");
  EXPECT_EQ(Type::i32().to_string(), "i32");
  EXPECT_EQ(Type::index().to_string(), "index");
}

TEST(Type, TensorShapeAndSize) {
  Type t = Type::tensor({4, 8}, ScalarKind::kF64);
  EXPECT_TRUE(t.is_tensor());
  EXPECT_EQ(t.rank(), 2u);
  EXPECT_EQ(t.num_elements(), 32);
  EXPECT_EQ(t.byte_size(), 256);
  EXPECT_EQ(t.to_string(), "tensor<4x8xf64>");
}

TEST(Type, MemRefSpaces) {
  Type m = Type::memref({16}, ScalarKind::kF32, MemorySpace::kOnChip);
  EXPECT_EQ(m.to_string(), "memref<16xf32, onchip>");
  EXPECT_EQ(m.with_memory_space(MemorySpace::kDefault).to_string(),
            "memref<16xf32>");
  EXPECT_NE(m, m.with_memory_space(MemorySpace::kDevice));
}

TEST(Type, StructuralEquality) {
  EXPECT_EQ(Type::tensor({2, 3}, ScalarKind::kF64),
            Type::tensor({2, 3}, ScalarKind::kF64));
  EXPECT_NE(Type::tensor({2, 3}, ScalarKind::kF64),
            Type::tensor({3, 2}, ScalarKind::kF64));
  EXPECT_NE(Type::tensor({2}, ScalarKind::kF64),
            Type::memref({2}, ScalarKind::kF64));
  EXPECT_EQ(Type::stream(ScalarKind::kF32), Type::stream(ScalarKind::kF32));
}

TEST(Type, FunctionType) {
  Type f = Type::function({Type::f64()}, {Type::f64(), Type::i32()});
  EXPECT_TRUE(f.is_function());
  EXPECT_EQ(f.signature().inputs.size(), 1u);
  EXPECT_EQ(f.signature().results.size(), 2u);
  EXPECT_EQ(f.to_string(), "(f64) -> (f64, i32)");
}

TEST(Type, RankZeroTensor) {
  Type t = Type::tensor({}, ScalarKind::kF64);
  EXPECT_EQ(t.num_elements(), 1);
  EXPECT_EQ(t.to_string(), "tensor<f64>");
}

// ------------------------------------------------------------- Attribute --

TEST(Attribute, KindsAndAccessors) {
  EXPECT_TRUE(Attribute::unit().is_unit());
  EXPECT_EQ(Attribute::integer(-7).as_int(), -7);
  EXPECT_DOUBLE_EQ(Attribute::real(2.5).as_double(), 2.5);
  EXPECT_EQ(Attribute::string("x").as_string(), "x");
  EXPECT_TRUE(Attribute::boolean(true).as_bool());
  auto arr = Attribute::int_array({1, 2, 3});
  EXPECT_EQ(arr.as_int_array(), (std::vector<std::int64_t>{1, 2, 3}));
  auto dense = Attribute::dense_f64({1.0, 2.0});
  EXPECT_EQ(dense.as_dense_f64().size(), 2u);
}

TEST(Attribute, Equality) {
  EXPECT_EQ(Attribute::integer(3), Attribute::integer(3));
  EXPECT_NE(Attribute::integer(3), Attribute::real(3.0));
  EXPECT_EQ(Attribute::int_array({1, 2}), Attribute::int_array({1, 2}));
  EXPECT_NE(Attribute::int_array({1, 2}), Attribute::int_array({2, 1}));
}

// ----------------------------------------------------- Module / Function --

TEST(Module, AddAndFindFunctions) {
  Module m("app");
  auto f = m.add_function("kernel", Type::function({Type::f64()}, {Type::f64()}));
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(m.num_functions(), 1u);
  EXPECT_NE(m.find("kernel"), nullptr);
  EXPECT_EQ(m.find("nope"), nullptr);
  auto dup = m.add_function("kernel", Type::function({}, {}));
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
  auto bad = m.add_function("bad", Type::f64());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(Function, EntryBlockCarriesArguments) {
  Module m("app");
  Type t = Type::tensor({4}, ScalarKind::kF64);
  auto f = m.add_function("f", Type::function({t, t}, {t}));
  ASSERT_TRUE(f.ok());
  Function* fn = f.value();
  EXPECT_EQ(fn->entry().num_args(), 2u);
  EXPECT_EQ(fn->arg(0).type(), t);
  EXPECT_TRUE(fn->arg(0).is_block_arg());
  EXPECT_NE(fn->arg(0), fn->arg(1));
}

// --------------------------------------------------------------- Builder --

Module make_simple_module() {
  register_everest_dialects();
  Module m("app");
  Type t = Type::tensor({4}, ScalarKind::kF64);
  Function* fn =
      m.add_function("double_it", Type::function({t}, {t})).value();
  OpBuilder b(&fn->entry());
  Value sum = b.create_value("tensor.add", {fn->arg(0), fn->arg(0)}, t);
  b.ret({sum});
  return m;
}

TEST(Builder, BuildsVerifiableModule) {
  Module m = make_simple_module();
  EXPECT_TRUE(verify(m).ok()) << verify(m).to_string();
  EXPECT_EQ(m.find("double_it")->entry().size(), 2u);
}

TEST(Builder, WalkVisitsNestedOps) {
  register_everest_dialects();
  Module m("app");
  Function* fn = m.add_function("f", Type::function({}, {})).value();
  OpBuilder b(&fn->entry());
  Operation& loop = b.create("kernel.for", {}, {},
                             {{"lb", Attribute::integer(0)},
                              {"ub", Attribute::integer(4)},
                              {"step", Attribute::integer(1)}});
  Block& body = loop.emplace_region().emplace_block({Type::index()});
  OpBuilder inner(&body);
  inner.create("kernel.yield", {}, {});
  b.ret();
  int count = 0;
  fn->walk([&](Operation&) { ++count; });
  EXPECT_EQ(count, 3);  // for + yield + return
}

// -------------------------------------------------------------- Verifier --

TEST(Verifier, RejectsUnregisteredOp) {
  register_everest_dialects();
  Module m("app");
  Function* fn = m.add_function("f", Type::function({}, {})).value();
  OpBuilder b(&fn->entry());
  b.create("bogus.op", {}, {});
  Status st = verify(m);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("not registered"), std::string::npos);
}

TEST(Verifier, RejectsMissingRequiredAttr) {
  register_everest_dialects();
  Module m("app");
  Function* fn = m.add_function("f", Type::function({}, {})).value();
  OpBuilder b(&fn->entry());
  b.create("builtin.constant", {}, {Type::f64()});  // missing 'value'
  EXPECT_FALSE(verify(m).ok());
}

TEST(Verifier, RejectsOperandCountViolation) {
  register_everest_dialects();
  Module m("app");
  Type t = Type::tensor({4}, ScalarKind::kF64);
  Function* fn = m.add_function("f", Type::function({t}, {})).value();
  OpBuilder b(&fn->entry());
  b.create("tensor.add", {fn->arg(0)}, {t});  // needs 2 operands
  EXPECT_FALSE(verify(m).ok());
}

TEST(Verifier, RejectsTypeMismatchInElementwise) {
  register_everest_dialects();
  Module m("app");
  Type t4 = Type::tensor({4}, ScalarKind::kF64);
  Type t8 = Type::tensor({8}, ScalarKind::kF64);
  Function* fn = m.add_function("f", Type::function({t4, t8}, {})).value();
  OpBuilder b(&fn->entry());
  b.create("tensor.add", {fn->arg(0), fn->arg(1)}, {t4});
  b.ret();
  Status st = verify(m);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("differ"), std::string::npos);
}

TEST(Verifier, RejectsMatmulShapeMismatch) {
  register_everest_dialects();
  Module m("app");
  Type a = Type::tensor({2, 3}, ScalarKind::kF64);
  Type b_t = Type::tensor({4, 5}, ScalarKind::kF64);
  Type r = Type::tensor({2, 5}, ScalarKind::kF64);
  Function* fn = m.add_function("f", Type::function({a, b_t}, {})).value();
  OpBuilder b(&fn->entry());
  b.create("tensor.matmul", {fn->arg(0), fn->arg(1)}, {r});
  EXPECT_FALSE(verify(m).ok());
}

TEST(Verifier, AcceptsValidMatmul) {
  register_everest_dialects();
  Module m("app");
  Type a = Type::tensor({2, 3}, ScalarKind::kF64);
  Type bt = Type::tensor({3, 5}, ScalarKind::kF64);
  Type r = Type::tensor({2, 5}, ScalarKind::kF64);
  Function* fn = m.add_function("f", Type::function({a, bt}, {r})).value();
  OpBuilder b(&fn->entry());
  Value v = b.create_value("tensor.matmul", {fn->arg(0), fn->arg(1)}, r);
  b.ret({v});
  EXPECT_TRUE(verify(m).ok()) << verify(m).to_string();
}

TEST(Verifier, RejectsTerminatorInMiddle) {
  register_everest_dialects();
  Module m("app");
  Function* fn = m.add_function("f", Type::function({}, {})).value();
  OpBuilder b(&fn->entry());
  b.ret();
  b.create("builtin.call", {}, {}, {{"callee", Attribute::string("g")}});
  Status st = verify(m);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("terminator"), std::string::npos);
}

TEST(Verifier, RejectsUseBeforeDef) {
  register_everest_dialects();
  Module m("app");
  Type t = Type::tensor({4}, ScalarKind::kF64);
  Function* fn = m.add_function("f", Type::function({t}, {})).value();
  // Build op B using result of op A, but insert B first.
  auto op_a = std::make_unique<Operation>(
      "tensor.add", std::vector<Value>{fn->arg(0), fn->arg(0)},
      std::vector<Type>{t});
  Value a_result = op_a->result(0);
  auto op_b = std::make_unique<Operation>(
      "tensor.add", std::vector<Value>{a_result, a_result},
      std::vector<Type>{t});
  fn->entry().append(std::move(op_b));
  fn->entry().append(std::move(op_a));
  Status st = verify(m);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("SSA"), std::string::npos);
}

TEST(Verifier, NestedRegionSeesEnclosingValues) {
  register_everest_dialects();
  Module m("app");
  Type mem = Type::memref({16}, ScalarKind::kF64);
  Function* fn = m.add_function("f", Type::function({mem}, {})).value();
  OpBuilder b(&fn->entry());
  Operation& loop = b.create("kernel.for", {}, {},
                             {{"lb", Attribute::integer(0)},
                              {"ub", Attribute::integer(16)},
                              {"step", Attribute::integer(1)}});
  Block& body = loop.emplace_region().emplace_block({Type::index()});
  OpBuilder inner(&body);
  Value x = inner.create_value("kernel.load", {fn->arg(0), body.arg(0)},
                               Type::f64());
  inner.create("kernel.store", {x, fn->arg(0), body.arg(0)}, {});
  inner.create("kernel.yield", {}, {});
  b.ret();
  EXPECT_TRUE(verify(m).ok()) << verify(m).to_string();
}

TEST(Verifier, RejectsForWithoutYield) {
  register_everest_dialects();
  Module m("app");
  Function* fn = m.add_function("f", Type::function({}, {})).value();
  OpBuilder b(&fn->entry());
  Operation& loop = b.create("kernel.for", {}, {},
                             {{"lb", Attribute::integer(0)},
                              {"ub", Attribute::integer(4)}});
  loop.emplace_region().emplace_block({Type::index()});
  b.ret();
  EXPECT_FALSE(verify(m).ok());
}

TEST(Verifier, RejectsBadMemorySemantics) {
  register_everest_dialects();
  Module m("app");
  Type mem = Type::memref({4, 4}, ScalarKind::kF64);
  Function* fn = m.add_function("f", Type::function({mem}, {})).value();
  OpBuilder b(&fn->entry());
  Value i = b.constant_index(0);
  // rank-2 memref but only 1 index
  b.create("kernel.load", {fn->arg(0), i}, {Type::f64()});
  EXPECT_FALSE(verify(m).ok());
}

// ------------------------------------------------------------------ Pass --

class CountOpsPass : public Pass {
 public:
  explicit CountOpsPass(int* counter) : counter_(counter) {}
  [[nodiscard]] std::string_view name() const override { return "count-ops"; }
  Status run(Module& module) override {
    module.walk([&](Operation&) { ++*counter_; });
    return OkStatus();
  }

 private:
  int* counter_;
};

class FailingPass : public Pass {
 public:
  [[nodiscard]] std::string_view name() const override { return "failing"; }
  Status run(Module&) override { return Internal("deliberate"); }
};

class BreakIrPass : public Pass {
 public:
  [[nodiscard]] std::string_view name() const override { return "break-ir"; }
  Status run(Module& module) override {
    OpBuilder b(&module.function(0).entry());
    b.create("bogus.op", {}, {});
    return OkStatus();
  }
};

TEST(PassManager, RunsPassesInOrderAndRecordsTiming) {
  Module m = make_simple_module();
  int count = 0;
  PassManager pm;
  pm.add<CountOpsPass>(&count);
  pm.add<CountOpsPass>(&count);
  ASSERT_TRUE(pm.run(m).ok());
  EXPECT_EQ(count, 4);  // 2 ops, visited twice
  ASSERT_EQ(pm.records().size(), 2u);
  EXPECT_TRUE(pm.records()[0].ok);
  EXPECT_GE(pm.records()[0].millis, 0.0);
}

TEST(PassManager, StopsOnFailure) {
  Module m = make_simple_module();
  int count = 0;
  PassManager pm;
  pm.add<FailingPass>();
  pm.add<CountOpsPass>(&count);
  EXPECT_FALSE(pm.run(m).ok());
  EXPECT_EQ(count, 0);
  ASSERT_EQ(pm.records().size(), 1u);
  EXPECT_FALSE(pm.records()[0].ok);
}

TEST(PassManager, CatchesIrBreakageWhenVerifying) {
  Module m = make_simple_module();
  PassManager pm(/*verify_each=*/true);
  pm.add<BreakIrPass>();
  Status st = pm.run(m);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("broke the IR"), std::string::npos);
}

}  // namespace
}  // namespace everest::ir
