// Printer/parser round-trip tests: print(parse(print(m))) == print(m),
// plus targeted grammar cases and property-style sweeps over random modules.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.hpp"
#include "ir/builder.hpp"
#include "ir/dialect.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"

namespace everest::ir {
namespace {

void expect_roundtrip(const Module& m) {
  const std::string text = print(m);
  auto parsed = parse_module(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string() << "\n" << text;
  EXPECT_TRUE(verify(**parsed).ok()) << verify(**parsed).to_string();
  const std::string text2 = print(**parsed);
  EXPECT_EQ(text, text2);
}

TEST(RoundTrip, SimpleFunction) {
  register_everest_dialects();
  Module m("app");
  Type t = Type::tensor({4}, ScalarKind::kF64);
  Function* fn = m.add_function("f", Type::function({t}, {t})).value();
  OpBuilder b(&fn->entry());
  Value v = b.create_value("tensor.add", {fn->arg(0), fn->arg(0)}, t);
  b.ret({v});
  expect_roundtrip(m);
}

TEST(RoundTrip, AttributesOfAllKinds) {
  register_everest_dialects();
  Module m("app");
  Function* fn = m.add_function("f", Type::function({}, {})).value();
  OpBuilder b(&fn->entry());
  b.create("builtin.call", {}, {},
           {{"callee", Attribute::string("target")},
            {"flag", Attribute::unit()},
            {"enabled", Attribute::boolean(true)},
            {"count", Attribute::integer(-12)},
            {"scale", Attribute::real(2.5)},
            {"shape", Attribute::int_array({1, 2, 3})},
            {"weights", Attribute::dense_f64({0.5, -1.25, 3.0})},
            {"ty", Attribute::type(Type::tensor({2, 2}, ScalarKind::kF32))}});
  b.ret();
  expect_roundtrip(m);
}

TEST(RoundTrip, NestedLoops) {
  register_everest_dialects();
  Module m("app");
  Type mem = Type::memref({8, 8}, ScalarKind::kF64, MemorySpace::kOnChip);
  Function* fn = m.add_function("k", Type::function({mem}, {})).value();
  OpBuilder b(&fn->entry());
  Operation& outer = b.create("kernel.for", {}, {},
                              {{"lb", Attribute::integer(0)},
                               {"ub", Attribute::integer(8)},
                               {"step", Attribute::integer(1)}});
  Block& obody = outer.emplace_region().emplace_block({Type::index()});
  OpBuilder ob(&obody);
  Operation& inner = ob.create("kernel.for", {}, {},
                               {{"lb", Attribute::integer(0)},
                                {"ub", Attribute::integer(8)},
                                {"step", Attribute::integer(2)}});
  Block& ibody = inner.emplace_region().emplace_block({Type::index()});
  OpBuilder ib(&ibody);
  Value x = ib.create_value("kernel.load",
                            {fn->arg(0), obody.arg(0), ibody.arg(0)},
                            Type::f64());
  Value y = ib.create_value("kernel.binop", {x, x}, Type::f64(),
                            {{"op", Attribute::string("mul")}});
  ib.create("kernel.store", {y, fn->arg(0), obody.arg(0), ibody.arg(0)}, {});
  ib.create("kernel.yield", {}, {});
  ob.create("kernel.yield", {}, {});
  b.ret();
  ASSERT_TRUE(verify(m).ok()) << verify(m).to_string();
  expect_roundtrip(m);
}

TEST(RoundTrip, ModuleAndFunctionAttributes) {
  register_everest_dialects();
  Module m("weather_app");
  m.attributes()["version"] = Attribute::integer(2);
  Function* fn = m.add_function("f", Type::function({}, {})).value();
  fn->set_attr("target", Attribute::string("fpga"));
  fn->set_attr("confidential", Attribute::boolean(true));
  OpBuilder b(&fn->entry());
  b.ret();
  expect_roundtrip(m);
}

TEST(RoundTrip, MultipleFunctionsAndCalls) {
  register_everest_dialects();
  Module m("app");
  Type t = Type::tensor({16}, ScalarKind::kF32);
  Function* g = m.add_function("g", Type::function({t}, {t})).value();
  {
    OpBuilder b(&g->entry());
    Value v = b.create_value("tensor.map", {g->arg(0)}, t,
                             {{"fn", Attribute::string("relu")}});
    b.ret({v});
  }
  Function* f = m.add_function("f", Type::function({t}, {t})).value();
  {
    OpBuilder b(&f->entry());
    Operation& call = b.call("g", {f->arg(0)}, {t});
    b.ret({call.result(0)});
  }
  expect_roundtrip(m);
}

TEST(RoundTrip, StreamTypesAndWorkflowOps) {
  register_everest_dialects();
  Module m("pipeline");
  Type s = Type::stream(ScalarKind::kF32);
  Type t = Type::tensor({128}, ScalarKind::kF32);
  Function* fn = m.add_function("wf", Type::function({}, {})).value();
  OpBuilder b(&fn->entry());
  Value src = b.create_value("workflow.source", {}, s,
                             {{"name", Attribute::string("sensor")},
                              {"rate_hz", Attribute::real(100.0)}});
  Value win = b.create_value("hw.stream_read", {src}, t);
  Value out = b.create_value(
      "workflow.task", {win}, t,
      {{"kernel", Attribute::string("denoise")},
       {"volume_mb", Attribute::real(0.5)},
       {"confidential", Attribute::boolean(true)}});
  b.create("workflow.sink", {out}, {}, {{"name", Attribute::string("db")}});
  b.ret();
  ASSERT_TRUE(verify(m).ok()) << verify(m).to_string();
  expect_roundtrip(m);
}

TEST(Parser, RejectsUnknownValue) {
  auto r = parse_module(
      "module @m {\n"
      "  func @f() -> () {\n"
      "    builtin.return(%9) : (f64) -> ()\n"
      "  }\n"
      "}\n");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("unknown value"), std::string::npos);
}

TEST(Parser, RejectsTypeCountMismatch) {
  auto r = parse_module(
      "module @m {\n"
      "  func @f(%arg0: f64) -> () {\n"
      "    builtin.return(%arg0) : () -> ()\n"
      "  }\n"
      "}\n");
  EXPECT_FALSE(r.ok());
}

TEST(Parser, ParsesStandaloneTypes) {
  auto t1 = parse_type("tensor<4x8xf64>");
  ASSERT_TRUE(t1.ok());
  EXPECT_EQ(t1->to_string(), "tensor<4x8xf64>");
  auto t2 = parse_type("memref<16xf32, device>");
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(t2->memory_space(), MemorySpace::kDevice);
  auto t3 = parse_type("stream<i32>");
  ASSERT_TRUE(t3.ok());
  EXPECT_TRUE(t3->is_stream());
  EXPECT_FALSE(parse_type("tensor<4x").ok());
  EXPECT_FALSE(parse_type("blob<4>").ok());
}

TEST(RoundTrip, NonFiniteReals) {
  register_everest_dialects();
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Module m("app");
  Function* fn = m.add_function("f", Type::function({}, {})).value();
  OpBuilder b(&fn->entry());
  b.create("builtin.call", {}, {},
           {{"callee", Attribute::string("target")},
            {"pos_inf", Attribute::real(inf)},
            {"neg_inf", Attribute::real(-inf)},
            {"not_a_number", Attribute::real(nan)},
            {"negative_nan", Attribute::real(-nan)},
            {"listed", Attribute::array({Attribute::real(inf),
                                         Attribute::real(nan)})},
            {"weights", Attribute::dense_f64({inf, -inf, nan, 1.0})}});
  b.ret();
  expect_roundtrip(m);

  auto parsed = parse_module(print(m));
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  const Operation& call = *(*parsed)->find("f")->entry().begin()->get();
  EXPECT_EQ(call.attr("pos_inf")->as_double(), inf);
  EXPECT_EQ(call.attr("neg_inf")->as_double(), -inf);
  EXPECT_TRUE(std::isnan(call.attr("not_a_number")->as_double()));
  EXPECT_FALSE(std::signbit(call.attr("not_a_number")->as_double()));
  EXPECT_TRUE(std::signbit(call.attr("negative_nan")->as_double()));
  const std::vector<double>& weights = call.attr("weights")->as_dense_f64();
  ASSERT_EQ(weights.size(), 4u);
  EXPECT_EQ(weights[1], -inf);
  EXPECT_TRUE(std::isnan(weights[2]));
}

TEST(Parser, IntegerOutsideInt64IsInvalidArgument) {
  const auto attribute = [](const std::string& literal) {
    return parse_module("module @m attributes {a = " + literal +
                        "} {\n}\n");
  };
  for (const char* literal : {"99999999999999999999", "-99999999999999999999",
                              "9223372036854775808", "-9223372036854775809"}) {
    EXPECT_EQ(attribute(literal).status().code(),
              StatusCode::kInvalidArgument)
        << literal;
  }
  // Both ends of int64 parse exactly, past double's 53-bit mantissa.
  for (const std::int64_t value : {std::numeric_limits<std::int64_t>::min(),
                                   std::numeric_limits<std::int64_t>::max(),
                                   std::int64_t{9007199254740993}}) {
    auto parsed = attribute(std::to_string(value));
    ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
    EXPECT_EQ((*parsed)->attributes().at("a").as_int(), value);
  }
  // Shape dimensions: the leading one and the later ones.
  for (const char* type : {"tensor<99999999999999999999xf64>",
                           "tensor<4x99999999999999999999xf64>",
                           "memref<1e300xf64>"}) {
    EXPECT_EQ(parse_type(type).status().code(), StatusCode::kInvalidArgument)
        << type;
  }
}

TEST(Parser, ToleratesComments) {
  auto r = parse_module(
      "// EVEREST IR dump\n"
      "module @m {\n"
      "  func @f() -> () {\n"
      "    // no-op body\n"
      "    builtin.return() : () -> ()\n"
      "  }\n"
      "}\n");
  ASSERT_TRUE(r.ok()) << r.status().to_string();
}

// Property-style sweep: random DAGs of elementwise tensor ops round-trip.
class RandomDagRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(RandomDagRoundTrip, PrintParsePrintIsStable) {
  register_everest_dialects();
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  Module m("rand");
  Type t = Type::tensor({8}, ScalarKind::kF64);
  Function* fn = m.add_function("f", Type::function({t, t}, {t})).value();
  OpBuilder b(&fn->entry());
  std::vector<Value> pool = {fn->arg(0), fn->arg(1)};
  const int n_ops = 3 + static_cast<int>(rng.uniform_int(12));
  static const char* kOps[] = {"tensor.add", "tensor.sub", "tensor.mul"};
  for (int i = 0; i < n_ops; ++i) {
    Value a = pool[rng.uniform_int(pool.size())];
    Value c = pool[rng.uniform_int(pool.size())];
    pool.push_back(
        b.create_value(kOps[rng.uniform_int(3)], {a, c}, t,
                       {{"id", Attribute::integer(i)}}));
  }
  b.ret({pool.back()});
  ASSERT_TRUE(verify(m).ok()) << verify(m).to_string();
  const std::string text = print(m);
  auto parsed = parse_module(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(print(**parsed), text);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagRoundTrip, ::testing::Range(0, 20));

// ------------------------------------------------------- hostile input --

/// `levels` copies of `open`, then `inner`, then `levels` copies of `close`.
std::string nested(std::size_t levels, const std::string& open,
                   const std::string& inner, const std::string& close) {
  std::string text;
  text.reserve(levels * (open.size() + close.size()) + inner.size());
  for (std::size_t i = 0; i < levels; ++i) text += open;
  text += inner;
  for (std::size_t i = 0; i < levels; ++i) text += close;
  return text;
}

TEST(IrParser, NestingBombReturnsInvalidArgument) {
  // Each level is an op whose one region holds the next op.
  auto regions = [](std::size_t levels) {
    return "module @m {\nfunc @f() -> () {\n" +
           nested(levels, "x() : () -> () {^():\n", "x() : () -> ()\n",
                  "}\n") +
           "builtin.return() : () -> ()\n}\n}\n";
  };
  // Each level is an attribute array holding the next.
  auto arrays = [](std::size_t levels) {
    return "module @m attributes {a = " + nested(levels, "[", "1", "]") +
           "} {\n}\n";
  };
  // 512 levels parse; one more is refused before the parser recurses.
  const auto deepest_regions = parse_module(regions(512));
  EXPECT_TRUE(deepest_regions.ok()) << deepest_regions.status().to_string();
  const auto deepest_arrays = parse_module(arrays(512));
  EXPECT_TRUE(deepest_arrays.ok()) << deepest_arrays.status().to_string();
  for (const std::size_t levels : {513u, 1'000'000u}) {
    EXPECT_EQ(parse_module(regions(levels)).status().code(),
              StatusCode::kInvalidArgument)
        << levels;
    EXPECT_EQ(parse_module(arrays(levels)).status().code(),
              StatusCode::kInvalidArgument)
        << levels;
  }
}

/// A module touching most of the grammar: module and function attributes,
/// every attribute kind, nested regions with block arguments, calls.
Module grammar_sample() {
  register_everest_dialects();
  Module m("sample");
  m.attributes()["version"] = Attribute::integer(2);
  Type mem = Type::memref({8, 8}, ScalarKind::kF64, MemorySpace::kOnChip);
  Function* fn = m.add_function("k", Type::function({mem}, {})).value();
  fn->set_attr("target", Attribute::string("fpga"));
  OpBuilder b(&fn->entry());
  b.create("builtin.call", {}, {},
           {{"callee", Attribute::string("target")},
            {"flag", Attribute::unit()},
            {"enabled", Attribute::boolean(true)},
            {"count", Attribute::integer(-12)},
            {"scale", Attribute::real(2.5)},
            {"shape", Attribute::int_array({1, 2, 3})},
            {"weights", Attribute::dense_f64({0.5, -1.25, 3.0})},
            {"ty", Attribute::type(Type::tensor({2, 2}, ScalarKind::kF32))}});
  Operation& loop = b.create("kernel.for", {}, {},
                             {{"lb", Attribute::integer(0)},
                              {"ub", Attribute::integer(8)},
                              {"step", Attribute::integer(1)}});
  Block& body = loop.emplace_region().emplace_block({Type::index()});
  OpBuilder lb(&body);
  Value x = lb.create_value("kernel.load", {fn->arg(0), body.arg(0),
                                            body.arg(0)},
                            Type::f64());
  Value y = lb.create_value("kernel.binop", {x, x}, Type::f64(),
                            {{"op", Attribute::string("mul")}});
  lb.create("kernel.store", {y, fn->arg(0), body.arg(0), body.arg(0)}, {});
  lb.create("kernel.yield", {}, {});
  b.ret();
  return m;
}

/// Seeded byte mutations of a printed module: whatever the bytes, the
/// parser returns a Status, and a module it accepts can be verified.
class MutatedModuleParse : public ::testing::TestWithParam<int> {};

TEST_P(MutatedModuleParse, EveryInputReturnsAStatus) {
  const std::string base = print(grammar_sample());
  ASSERT_TRUE(parse_module(base).ok());
  static const std::string kTokens = "{}[]()<>^%@:,=-\"x0123456789.e \n";
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  for (int input = 0; input < 250; ++input) {
    std::string text = base;
    const auto edits = 1 + rng.uniform_int(4);
    for (std::uint64_t e = 0; e < edits && !text.empty(); ++e) {
      const std::size_t pos = rng.uniform_int(text.size());
      switch (rng.uniform_int(4)) {
        case 0:  // a grammar character
          text[pos] = kTokens[rng.uniform_int(kTokens.size())];
          break;
        case 1:  // any byte
          text[pos] = static_cast<char>(rng.uniform_int(256));
          break;
        case 2:  // drop a run
          text.erase(pos, 1 + rng.uniform_int(8));
          break;
        default:  // duplicate a run from elsewhere
          text.insert(pos, text.substr(rng.uniform_int(text.size()),
                                       1 + rng.uniform_int(16)));
      }
    }
    const auto parsed = parse_module(text);
    if (parsed.ok()) {
      (void)verify(**parsed);
    } else {
      const StatusCode code = parsed.status().code();
      EXPECT_TRUE(code == StatusCode::kInvalidArgument ||
                  code == StatusCode::kAlreadyExists)
          << parsed.status().to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutatedModuleParse, ::testing::Range(0, 16));

}  // namespace
}  // namespace everest::ir
