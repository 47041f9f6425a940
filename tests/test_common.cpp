// Unit tests for the common substrate: status, rng, stats, graph, json,
// strings, table, logging.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/graph.hpp"
#include "common/hash.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

namespace everest {
namespace {

// ---------------------------------------------------------------- Status --

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = InvalidArgument("bad tile size");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad tile size");
  EXPECT_EQ(s.to_string(), "INVALID_ARGUMENT: bad tile size");
}

TEST(Status, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(FailedPrecondition("x").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(ResourceExhausted("x").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(PermissionDenied("x").code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(DataLoss("x").code(), StatusCode::kDataLoss);
  EXPECT_EQ(Unavailable("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Aborted("x").code(), StatusCode::kAborted);
}

TEST(Status, ResilienceCodesStringify) {
  EXPECT_EQ(Unavailable("no variant left").to_string(),
            "UNAVAILABLE: no variant left");
  EXPECT_EQ(Aborted("lost the race").to_string(), "ABORTED: lost the race");
}

TEST(Status, IsRetryableClassifiesTransientCodes) {
  // Transient conditions: a later attempt may succeed.
  EXPECT_TRUE(is_retryable(StatusCode::kUnavailable));
  EXPECT_TRUE(is_retryable(StatusCode::kAborted));
  EXPECT_TRUE(is_retryable(StatusCode::kResourceExhausted));
  EXPECT_TRUE(is_retryable(StatusCode::kDeadlineExceeded));
  // Deterministic failures: retrying cannot help.
  EXPECT_FALSE(is_retryable(StatusCode::kOk));
  EXPECT_FALSE(is_retryable(StatusCode::kInvalidArgument));
  EXPECT_FALSE(is_retryable(StatusCode::kNotFound));
  EXPECT_FALSE(is_retryable(StatusCode::kInternal));
  EXPECT_FALSE(is_retryable(StatusCode::kDataLoss));
}

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(Result, HoldsError) {
  Result<int> r = NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

Result<int> half(int x) {
  if (x % 2 != 0) return InvalidArgument("odd");
  return x / 2;
}

Status use_half(int x, int* out) {
  EVEREST_ASSIGN_OR_RETURN(*out, half(x));
  return OkStatus();
}

TEST(Result, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(use_half(8, &out).ok());
  EXPECT_EQ(out, 4);
  EXPECT_EQ(use_half(7, &out).code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------------ hash --

TEST(Fnv1a, MatchesReferenceVectors) {
  EXPECT_EQ(fnv1a(""), kFnv1aBasis);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ULL);
  // Folding is incremental, and fnv1a_u64 hashes little-endian bytes.
  EXPECT_EQ(fnv1a("b", fnv1a("a")), fnv1a("ab"));
  EXPECT_EQ(fnv1a_u64(0x0102030405060708ULL),
            fnv1a(std::string_view("\x08\x07\x06\x05\x04\x03\x02\x01", 8)));
}

// ------------------------------------------------------------------- Rng --

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntRespectsBounds) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(11);
  OnlineStats st;
  for (int i = 0; i < 50000; ++i) st.add(rng.normal());
  EXPECT_NEAR(st.mean(), 0.0, 0.03);
  EXPECT_NEAR(st.stddev(), 1.0, 0.03);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(13);
  OnlineStats st;
  for (int i = 0; i < 50000; ++i) st.add(rng.exponential(4.0));
  EXPECT_NEAR(st.mean(), 0.25, 0.01);
}

TEST(Rng, WeightedIndexFollowsWeights) {
  Rng rng(17);
  std::vector<double> w = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 40000; ++i) {
    const std::size_t k = rng.weighted_index(w);
    ASSERT_LT(k, 3u);
    counts[k]++;
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.2);
}

TEST(Rng, WeightedIndexAllZeroReturnsSize) {
  Rng rng(1);
  std::vector<double> w = {0.0, 0.0};
  EXPECT_EQ(rng.weighted_index(w), 2u);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(5);
  Rng child = a.fork();
  EXPECT_NE(child.next(), a.next());
}

// ----------------------------------------------------------------- Stats --

TEST(OnlineStats, MeanVarianceMinMax) {
  OnlineStats st;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) st.add(v);
  EXPECT_EQ(st.count(), 8u);
  EXPECT_DOUBLE_EQ(st.mean(), 5.0);
  EXPECT_NEAR(st.variance(), 4.571428571, 1e-6);
  EXPECT_DOUBLE_EQ(st.min(), 2.0);
  EXPECT_DOUBLE_EQ(st.max(), 9.0);
}

TEST(OnlineStats, MergeEqualsCombinedStream) {
  OnlineStats a, b, all;
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const double v = rng.normal(10, 2);
    (i % 2 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Ewma, TracksShiftedMean) {
  Ewma e(0.2);
  for (int i = 0; i < 200; ++i) e.add(5.0);
  EXPECT_NEAR(e.mean(), 5.0, 1e-9);
  for (int i = 0; i < 200; ++i) e.add(9.0);
  EXPECT_NEAR(e.mean(), 9.0, 0.01);
}

TEST(Ewma, ZscoreFlagsOutlier) {
  Ewma e(0.1);
  Rng rng(21);
  for (int i = 0; i < 500; ++i) e.add(rng.normal(10.0, 1.0));
  EXPECT_GT(e.zscore(20.0), 5.0);
  EXPECT_LT(std::abs(e.zscore(10.0)), 1.5);
}

TEST(OnlineStats, MergeWithEmptySideIsIdentity) {
  OnlineStats filled;
  for (double v : {2.0, 4.0, 9.0}) filled.add(v);

  // Empty right-hand side: the accumulator is unchanged.
  OnlineStats a = filled;
  a.merge(OnlineStats{});
  EXPECT_EQ(a.count(), filled.count());
  EXPECT_DOUBLE_EQ(a.mean(), filled.mean());
  EXPECT_DOUBLE_EQ(a.variance(), filled.variance());
  EXPECT_DOUBLE_EQ(a.min(), filled.min());
  EXPECT_DOUBLE_EQ(a.max(), filled.max());

  // Empty left-hand side: adopts the other side wholesale, including
  // min/max (an empty accumulator's min_=0 must not leak in).
  OnlineStats b;
  b.merge(filled);
  EXPECT_EQ(b.count(), 3u);
  EXPECT_DOUBLE_EQ(b.mean(), 5.0);
  EXPECT_DOUBLE_EQ(b.min(), 2.0);
  EXPECT_DOUBLE_EQ(b.max(), 9.0);

  // Empty-with-empty stays empty.
  OnlineStats c;
  c.merge(OnlineStats{});
  EXPECT_EQ(c.count(), 0u);
}

TEST(Ewma, ZscoreDegenerateStreamSaturatesAtCap) {
  Ewma e(0.1);
  EXPECT_DOUBLE_EQ(e.zscore(123.0), 0.0);  // not warm yet
  for (int i = 0; i < 100; ++i) e.add(5.0);  // zero-variance stream
  EXPECT_DOUBLE_EQ(e.zscore(5.0), 0.0);
  EXPECT_DOUBLE_EQ(e.zscore(6.0), Ewma::kZscoreCap);
  EXPECT_DOUBLE_EQ(e.zscore(4.0), -Ewma::kZscoreCap);
  // The cap is finite, so score arithmetic stays well-defined.
  EXPECT_TRUE(std::isfinite(e.zscore(1e300) * 2.0 - 1.0));
}

TEST(Percentile, InterpolatesLinearly) {
  std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
}

TEST(Percentile, EdgeCases) {
  // Empty input: every percentile is 0, including the boundaries.
  EXPECT_DOUBLE_EQ(percentile({}, 0), 0.0);
  EXPECT_DOUBLE_EQ(percentile({}, 100), 0.0);
  // Single element: every percentile is that element.
  EXPECT_DOUBLE_EQ(percentile({7.5}, 0), 7.5);
  EXPECT_DOUBLE_EQ(percentile({7.5}, 50), 7.5);
  EXPECT_DOUBLE_EQ(percentile({7.5}, 99.9), 7.5);
  EXPECT_DOUBLE_EQ(percentile({7.5}, 100), 7.5);
  // Out-of-range p clamps to the extremes instead of indexing wild.
  std::vector<double> v = {3, 1, 2};
  EXPECT_DOUBLE_EQ(percentile(v, -10), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 250), 3.0);
}

TEST(Stats, RmseAndPearson) {
  std::vector<double> a = {1, 2, 3, 4};
  std::vector<double> b = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(rmse(a, b), 0.0);
  EXPECT_NEAR(pearson(a, b), 1.0, 1e-12);
  std::vector<double> c = {4, 3, 2, 1};
  EXPECT_NEAR(pearson(a, c), -1.0, 1e-12);
  EXPECT_DOUBLE_EQ(rmse(a, c), std::sqrt((9.0 + 1 + 1 + 9) / 4));
}

// ----------------------------------------------------------------- Graph --

TEST(Digraph, TopologicalOrderOnDag) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  auto order = g.topological_order();
  ASSERT_TRUE(order.has_value());
  ASSERT_EQ(order->size(), 4u);
  std::vector<std::size_t> pos(4);
  for (std::size_t i = 0; i < 4; ++i) pos[(*order)[i]] = i;
  EXPECT_LT(pos[0], pos[1]);
  EXPECT_LT(pos[0], pos[2]);
  EXPECT_LT(pos[1], pos[3]);
  EXPECT_LT(pos[2], pos[3]);
  EXPECT_FALSE(g.has_cycle());
  EXPECT_EQ(g.critical_path_length(), 2u);
}

TEST(Digraph, DetectsCycle) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  EXPECT_TRUE(g.has_cycle());
  EXPECT_FALSE(g.topological_order().has_value());
}

TEST(Digraph, DegreesTracked) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.in_degree(1), 1u);
  EXPECT_EQ(g.in_degree(0), 0u);
  EXPECT_EQ(g.num_edges(), 2u);
}

// The prefetcher's lookahead is built on these two helpers — the shapes
// below (diamond, disconnected components, single node) are the cases a
// frontier walk gets wrong first.

TEST(Digraph, FrontierOnDiamond) {
  Digraph g(4);  // 0 → {1, 2} → 3
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  EXPECT_EQ(g.frontier({0, 0, 0, 0}), (std::vector<std::size_t>{0}));
  EXPECT_EQ(g.frontier({1, 0, 0, 0}), (std::vector<std::size_t>{1, 2}));
  // The join is not ready until BOTH branches are done.
  EXPECT_EQ(g.frontier({1, 1, 0, 0}), (std::vector<std::size_t>{2}));
  EXPECT_EQ(g.frontier({1, 1, 1, 0}), (std::vector<std::size_t>{3}));
  EXPECT_TRUE(g.frontier({1, 1, 1, 1}).empty());
}

TEST(Digraph, FrontierOnDisconnectedComponents) {
  Digraph g(4);  // 0 → 1 and 2 → 3, unrelated
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_EQ(g.frontier({0, 0, 0, 0}), (std::vector<std::size_t>{0, 2}));
  // Progress in one component never unblocks the other.
  EXPECT_EQ(g.frontier({1, 0, 0, 0}), (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(g.frontier({1, 1, 0, 0}), (std::vector<std::size_t>{2}));
}

TEST(Digraph, FrontierOnSingleNode) {
  Digraph g(1);
  EXPECT_EQ(g.frontier({0}), (std::vector<std::size_t>{0}));
  EXPECT_TRUE(g.frontier({1}).empty());
}

TEST(Digraph, FrontierWithinWalksWaves) {
  Digraph g(4);  // diamond again
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  const std::vector<char> none = {0, 0, 0, 0};
  EXPECT_TRUE(g.frontier_within(none, 0).empty());  // depth 0 disables
  EXPECT_EQ(g.frontier_within(none, 1), (std::vector<std::size_t>{0}));
  EXPECT_EQ(g.frontier_within(none, 2), (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(g.frontier_within(none, 3),
            (std::vector<std::size_t>{0, 1, 2, 3}));
  // Depth beyond the graph saturates rather than looping.
  EXPECT_EQ(g.frontier_within(none, 100),
            (std::vector<std::size_t>{0, 1, 2, 3}));
}

// ------------------------------------------------------------------ JSON --

TEST(Json, RoundTripObject) {
  json::Object obj;
  obj["name"] = "variant-3";
  obj["latency_us"] = 12.5;
  obj["threads"] = 8;
  obj["hw"] = true;
  obj["tags"] = json::Array{"fpga", "tiled"};
  const std::string text = json::Value(obj).dump();
  auto parsed = json::parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->at("name").as_string(), "variant-3");
  EXPECT_DOUBLE_EQ(parsed->at("latency_us").as_number(), 12.5);
  EXPECT_EQ(parsed->at("threads").as_int(), 8);
  EXPECT_TRUE(parsed->at("hw").as_bool());
  EXPECT_EQ(parsed->at("tags").as_array().size(), 2u);
}

TEST(Json, ParsesNestedAndEscapes) {
  auto v = json::parse(R"({"a": [1, 2.5, null, "x\"y\n"], "b": {"c": false}})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->at("a").as_array().size(), 4u);
  EXPECT_TRUE(v->at("a").as_array()[2].is_null());
  EXPECT_EQ(v->at("a").as_array()[3].as_string(), "x\"y\n");
  EXPECT_FALSE(v->at("b").at("c").as_bool());
  EXPECT_TRUE(v->at("missing").is_null());
}

TEST(Json, RejectsMalformed) {
  EXPECT_FALSE(json::parse("{").ok());
  EXPECT_FALSE(json::parse("[1,]").ok());
  EXPECT_FALSE(json::parse("{\"a\" 1}").ok());
  EXPECT_FALSE(json::parse("12 34").ok());
  EXPECT_FALSE(json::parse("\"unterminated").ok());
}

TEST(Json, NestingBombReturnsInvalidArgument) {
  auto nested = [](std::size_t levels, const std::string& open,
                   const std::string& inner, const std::string& close) {
    std::string text;
    for (std::size_t i = 0; i < levels; ++i) text += open;
    text += inner;
    for (std::size_t i = 0; i < levels; ++i) text += close;
    return text;
  };
  // 512 levels parse; one more is refused before it recurses.
  EXPECT_TRUE(json::parse(nested(512, "[", "1", "]")).ok());
  EXPECT_TRUE(json::parse(nested(512, "{\"a\":", "1", "}")).ok());
  for (const std::size_t levels : {513u, 20'000u, 1'000'000u}) {
    const auto arrays = json::parse(nested(levels, "[", "", "]"));
    EXPECT_EQ(arrays.status().code(), StatusCode::kInvalidArgument) << levels;
    const auto objects = json::parse(nested(levels, "{\"a\":", "1", "}"));
    EXPECT_EQ(objects.status().code(), StatusCode::kInvalidArgument) << levels;
    // Unterminated bombs are refused the same way.
    EXPECT_FALSE(json::parse(std::string(levels, '[')).ok()) << levels;
  }
}

TEST(Json, PrettyPrintStable) {
  json::Object obj;
  obj["k"] = json::Array{1, 2};
  const std::string pretty = json::Value(obj).dump(2);
  EXPECT_NE(pretty.find("\n"), std::string::npos);
  auto round = json::parse(pretty);
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->at("k").as_array().size(), 2u);
}

TEST(Json, UnicodeEscapeDecodesToUtf8) {
  auto v = json::parse(R"("é")");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->as_string(), "\xc3\xa9");
}

// --------------------------------------------------------------- Strings --

TEST(Strings, SplitJoinTrim) {
  auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(join(parts, "-"), "a-b--c");
  EXPECT_EQ(trim("  x y \n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_TRUE(starts_with("tensor.add", "tensor."));
  EXPECT_FALSE(starts_with("tensor", "tensor."));
  EXPECT_TRUE(ends_with("kernel.for", ".for"));
}

TEST(Strings, Strprintf) {
  EXPECT_EQ(strprintf("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(strprintf("%.2f", 1.239), "1.24");
}

// ----------------------------------------------------------------- Table --

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "22"});
  const std::string text = t.render();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("long-name"), std::string::npos);
  EXPECT_NE(text.find("----"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, FormatsDoubles) {
  EXPECT_EQ(fmt_double(1.23456, 2), "1.23");
  EXPECT_EQ(fmt_double(2.0, 0), "2");
}

// --------------------------------------------------------------- Logging --

TEST(Logger, LinePrefixCarriesTimestampAndThreadId) {
  std::vector<std::string> lines;
  Logger::instance().set_sink(
      [&lines](std::string_view line) { lines.emplace_back(line); });
  Logger::instance().set_level(LogLevel::kInfo);
  EVEREST_LOG(kInfo, "unit") << "hello " << 42;
  Logger::instance().set_sink(nullptr);
  Logger::instance().set_level(LogLevel::kWarn);

  ASSERT_EQ(lines.size(), 1u);
  const std::string& line = lines[0];
  // [<monotonic us>us][t<id>][INFO][unit] hello 42\n
  EXPECT_EQ(line.front(), '[');
  EXPECT_NE(line.find("us][t"), std::string::npos);
  EXPECT_NE(line.find("[INFO][unit] hello 42\n"), std::string::npos);
  // Timestamps are monotonic across consecutive calls.
  const std::int64_t t0 = Logger::monotonic_us();
  const std::int64_t t1 = Logger::monotonic_us();
  EXPECT_GE(t1, t0);
  EXPECT_GE(t0, 0);
}

TEST(Logger, NoInterleavingUnderConcurrentWriters) {
  constexpr int kWriters = 8;
  constexpr int kLinesPerWriter = 200;

  std::mutex mu;
  std::vector<std::string> lines;
  Logger::instance().set_sink([&](std::string_view line) {
    // The sink itself is called under the logger mutex, but collect under
    // our own lock so the test does not rely on that detail.
    std::lock_guard<std::mutex> lock(mu);
    lines.emplace_back(line);
  });
  Logger::instance().set_level(LogLevel::kInfo);

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([w] {
      for (int i = 0; i < kLinesPerWriter; ++i) {
        EVEREST_LOG(kInfo, "interleave")
            << "writer=" << w << " seq=" << i << " end";
      }
    });
  }
  for (auto& t : writers) t.join();
  Logger::instance().set_sink(nullptr);
  Logger::instance().set_level(LogLevel::kWarn);

  ASSERT_EQ(lines.size(),
            static_cast<std::size_t>(kWriters) * kLinesPerWriter);
  // Every emitted line must be intact: exactly one complete message per
  // sink call, never a torn or concatenated fragment.
  std::vector<std::set<int>> seen(kWriters);
  for (const std::string& line : lines) {
    EXPECT_EQ(std::count(line.begin(), line.end(), '\n'), 1);
    EXPECT_EQ(line.back(), '\n');
    const auto wpos = line.find("writer=");
    const auto spos = line.find(" seq=");
    const auto epos = line.find(" end\n");
    ASSERT_NE(wpos, std::string::npos) << line;
    ASSERT_NE(spos, std::string::npos) << line;
    ASSERT_NE(epos, std::string::npos) << line;
    const int w = std::stoi(line.substr(wpos + 7, spos - (wpos + 7)));
    const int s = std::stoi(line.substr(spos + 5, epos - (spos + 5)));
    ASSERT_GE(w, 0);
    ASSERT_LT(w, kWriters);
    EXPECT_TRUE(seen[w].insert(s).second) << "duplicate line: " << line;
  }
  for (int w = 0; w < kWriters; ++w) {
    EXPECT_EQ(seen[w].size(), static_cast<std::size_t>(kLinesPerWriter));
  }
}

}  // namespace
}  // namespace everest
