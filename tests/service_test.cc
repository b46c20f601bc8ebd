// Tests for the query service layer (src/service/): the Engine facade's
// non-aborting error model, deadline and admission control, batch
// determinism across thread counts, the line-JSON protocol, and the
// stream/TCP serve loops. This suite runs in the TSan CI job, so every
// concurrent path it exercises is also a data-race check.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dynamic/dynamic_graph.h"
#include "gen/generators.h"
#include "graph/prob_assign.h"
#include "graph/prob_graph.h"
#include "index/cascade_index.h"
#include "runtime/parallel_for.h"
#include "service/drift_rebuild.h"
#include "service/engine.h"
#include "service/hot_swap.h"
#include "service/protocol.h"
#include "service/server.h"
#include "test_temp_dir.h"
#include "util/rng.h"

namespace soi::service {
namespace {

// The running example from the paper (Figure 1 topology).
ProbGraph PaperExampleGraph() {
  ProbGraphBuilder b(5);
  EXPECT_TRUE(b.AddEdge(4, 0, 0.7).ok());
  EXPECT_TRUE(b.AddEdge(4, 1, 0.4).ok());
  EXPECT_TRUE(b.AddEdge(4, 3, 0.3).ok());
  EXPECT_TRUE(b.AddEdge(0, 1, 0.1).ok());
  EXPECT_TRUE(b.AddEdge(1, 0, 0.1).ok());
  EXPECT_TRUE(b.AddEdge(1, 2, 0.4).ok());
  EXPECT_TRUE(b.AddEdge(3, 1, 0.6).ok());
  auto g = b.Build();
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

ProbGraph RandomGraph(NodeId n, uint64_t m, uint64_t seed) {
  Rng rng(seed);
  auto topology = GenerateErdosRenyi(n, m, /*undirected=*/false, &rng);
  SOI_CHECK(topology.ok());
  auto graph = AssignUniform(*topology, &rng);
  SOI_CHECK(graph.ok());
  return std::move(graph).value();
}

Engine MakeEngine(ProbGraph graph, EngineOptions options = {}) {
  if (options.index.num_worlds == 256) options.index.num_worlds = 16;
  auto engine = Engine::Create(std::move(graph), options);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

Request MakeCascade(std::vector<NodeId> seeds, uint32_t world) {
  Request r;
  r.payload = CascadeRequest{std::move(seeds), world};
  return r;
}

TEST(EngineTest, CreateValidatesOptions) {
  EngineOptions options;
  options.max_batch = 0;
  EXPECT_FALSE(Engine::Create(PaperExampleGraph(), options).ok());
  options.max_batch = 1;
  options.max_in_flight = 0;
  EXPECT_FALSE(Engine::Create(PaperExampleGraph(), options).ok());
}

TEST(EngineTest, InvalidNodeIdReturnsStatusNotAbort) {
  Engine engine = MakeEngine(PaperExampleGraph());
  Request request = MakeCascade({99}, 0);
  const Result<Response> result = engine.Run(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("out of range"), std::string::npos);
}

TEST(EngineTest, EmptySeedSetReturnsInvalidArgument) {
  Engine engine = MakeEngine(PaperExampleGraph());
  Request request;
  request.payload = SpreadRequest{{}};
  const Result<Response> result = engine.Run(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("empty"), std::string::npos);
}

TEST(EngineTest, OutOfRangeWorldReturnsInvalidArgument) {
  Engine engine = MakeEngine(PaperExampleGraph());
  const Result<Response> result = engine.Run(MakeCascade({0}, 1u << 20));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, UnknownSeedSelectMethodReturnsInvalidArgument) {
  Engine engine = MakeEngine(PaperExampleGraph());
  Request request;
  request.payload = SeedSelectRequest{2, "magic"};
  const Result<Response> result = engine.Run(request);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("magic"), std::string::npos);
}

TEST(EngineTest, EngineReuseAcrossRequestTypes) {
  Engine engine = MakeEngine(PaperExampleGraph());
  Request typical;
  typical.payload = TypicalCascadeRequest{{4}, false};
  Request spread;
  spread.payload = SpreadRequest{{4}};
  Request select_tc;
  select_tc.payload = SeedSelectRequest{2, "tc"};
  Request select_std;
  select_std.payload = SeedSelectRequest{2, "std"};
  Request reliability;
  reliability.payload = ReliabilityRequest{{4}, 0.5};

  for (const Request* request :
       {&typical, &spread, &select_tc, &select_std, &reliability}) {
    const Result<Response> result = engine.Run(*request);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  }
  // Same engine, same answers on a repeat run (cached state is read-only).
  const Result<Response> once = engine.Run(select_tc);
  const Result<Response> again = engine.Run(select_tc);
  ASSERT_TRUE(once.ok());
  ASSERT_TRUE(again.ok());
  const auto& first = std::get<SeedSelectResponse>(once->payload);
  const auto& second = std::get<SeedSelectResponse>(again->payload);
  EXPECT_EQ(first.seeds, second.seeds);
  EXPECT_EQ(first.objective, second.objective);
}

TEST(EngineTest, SpreadMatchesCascadeSizeAverage) {
  Engine engine = MakeEngine(PaperExampleGraph());
  Request spread;
  spread.payload = SpreadRequest{{4}};
  const Result<Response> result = engine.Run(spread);
  ASSERT_TRUE(result.ok());
  double total = 0.0;
  for (uint32_t i = 0; i < engine.index().num_worlds(); ++i) {
    const Result<Response> one = engine.Run(MakeCascade({4}, i));
    ASSERT_TRUE(one.ok());
    total +=
        static_cast<double>(std::get<CascadeResponse>(one->payload).cascade.size());
  }
  EXPECT_DOUBLE_EQ(std::get<SpreadResponse>(result->payload).spread,
                   total / engine.index().num_worlds());
}

TEST(EngineTest, BatchTooLargeRejectedWhole) {
  EngineOptions options;
  options.max_batch = 4;
  Engine engine = MakeEngine(PaperExampleGraph(), options);
  std::vector<Request> requests(5, MakeCascade({0}, 0));
  const auto batch = engine.RunBatch(requests);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(engine.in_flight(), 0u);  // slot released on rejection
}

TEST(EngineTest, InFlightIsZeroWhenIdle) {
  Engine engine = MakeEngine(PaperExampleGraph());
  EXPECT_EQ(engine.in_flight(), 0u);
  ASSERT_TRUE(engine.Run(MakeCascade({0}, 0)).ok());
  EXPECT_EQ(engine.in_flight(), 0u);
}

// Fake clock: every call advances by 10ms, so the second reading (request
// pickup) is 10ms after the first (batch admission).
std::atomic<uint64_t> g_fake_now_ns{0};
uint64_t FakeClock() { return g_fake_now_ns.fetch_add(10'000'000ull); }

TEST(EngineTest, DeadlineExceededViaFakeClock) {
  EngineOptions options;
  options.clock_ns = &FakeClock;
  Engine engine = MakeEngine(PaperExampleGraph(), options);

  g_fake_now_ns.store(0);
  Request request = MakeCascade({0}, 0);
  request.timeout_ms = 5;  // pickup happens a simulated 10ms after admission
  const Result<Response> expired = engine.Run(request);
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);

  g_fake_now_ns.store(0);
  request.timeout_ms = 50;  // generous deadline: same request succeeds
  EXPECT_TRUE(engine.Run(request).ok());

  g_fake_now_ns.store(0);
  request.timeout_ms = 0;  // no deadline at all
  EXPECT_TRUE(engine.Run(request).ok());
}

TEST(EngineTest, DefaultTimeoutAppliesWhenRequestHasNone) {
  EngineOptions options;
  options.clock_ns = &FakeClock;
  options.default_timeout_ms = 5;
  Engine engine = MakeEngine(PaperExampleGraph(), options);
  g_fake_now_ns.store(0);
  const Result<Response> expired = engine.Run(MakeCascade({0}, 0));
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);
}

// ---------------------------------------------------------------------------
// Accuracy routing: the sketch tier, auto degradation, and the max_error
// gate. A single in-flight request sees in_flight == 1 at route time, so
// sketch_pressure_in_flight = 1 forces the pressure path deterministically.
// ---------------------------------------------------------------------------

Request MakeSpread(std::vector<NodeId> seeds,
                   Accuracy accuracy = Accuracy::kExact) {
  Request r;
  r.payload = SpreadRequest{std::move(seeds)};
  r.accuracy = accuracy;
  return r;
}

TEST(AccuracyRoutingTest, CreateRejectsUndersizedSketchK) {
  EngineOptions options;
  options.sketch_k = 2;
  const auto engine = Engine::Create(PaperExampleGraph(), options);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST(AccuracyRoutingTest, ExplicitSketchWithoutTierIsFailedPrecondition) {
  Engine engine = MakeEngine(PaperExampleGraph());  // sketch_k = 0
  const Result<Response> result = engine.Run(MakeSpread({4}, Accuracy::kSketch));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(result.status().ToString().find("sketch"), std::string::npos);
}

TEST(AccuracyRoutingTest, ExplicitSketchOnNonCapableOpIsFailedPrecondition) {
  EngineOptions options;
  options.sketch_k = 16;
  Engine engine = MakeEngine(PaperExampleGraph(), options);
  Request cascade = MakeCascade({0}, 0);
  cascade.accuracy = Accuracy::kSketch;
  const Result<Response> result = engine.Run(cascade);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(result.status().ToString().find("no sketch path"),
            std::string::npos);
}

TEST(AccuracyRoutingTest, SketchResponsesCarryTierAndErrorBound) {
  EngineOptions options;
  options.sketch_k = 16;
  Engine engine = MakeEngine(PaperExampleGraph(), options);

  const Result<Response> exact = engine.Run(MakeSpread({4}));
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_STREQ(exact->meta.tier, "exact");
  EXPECT_DOUBLE_EQ(exact->meta.est_error, 0.0);

  const Result<Response> sketch =
      engine.Run(MakeSpread({4}, Accuracy::kSketch));
  ASSERT_TRUE(sketch.ok()) << sketch.status().ToString();
  EXPECT_STREQ(sketch->meta.tier, "sketch");
  EXPECT_DOUBLE_EQ(sketch->meta.est_error,
                   SketchSpreadOracle::RelativeErrorBound(16));
  EXPECT_GT(std::get<SpreadResponse>(sketch->payload).spread, 0.0);

  Request select;
  select.payload = SeedSelectRequest{2, "tc"};
  select.accuracy = Accuracy::kSketch;
  const Result<Response> selected = engine.Run(select);
  ASSERT_TRUE(selected.ok()) << selected.status().ToString();
  EXPECT_STREQ(selected->meta.tier, "sketch");
  EXPECT_EQ(std::get<SeedSelectResponse>(selected->payload).seeds.size(), 2u);
}

TEST(AccuracyRoutingTest, AutoStaysExactWithHeadroom) {
  EngineOptions options;
  options.sketch_k = 16;  // pressure threshold defaults to max_in_flight = 4
  Engine engine = MakeEngine(PaperExampleGraph(), options);
  const Result<Response> result = engine.Run(MakeSpread({4}, Accuracy::kAuto));
  ASSERT_TRUE(result.ok());
  EXPECT_STREQ(result->meta.tier, "exact");
}

TEST(AccuracyRoutingTest, AutoDegradesUnderAdmissionPressure) {
  EngineOptions options;
  options.sketch_k = 16;
  options.sketch_pressure_in_flight = 1;  // a single request is "pressure"
  Engine engine = MakeEngine(PaperExampleGraph(), options);
  const Result<Response> degraded =
      engine.Run(MakeSpread({4}, Accuracy::kAuto));
  ASSERT_TRUE(degraded.ok());
  EXPECT_STREQ(degraded->meta.tier, "sketch");
  EXPECT_GT(degraded->meta.est_error, 0.0);
  // Exact requests ignore pressure entirely.
  const Result<Response> exact = engine.Run(MakeSpread({4}));
  ASSERT_TRUE(exact.ok());
  EXPECT_STREQ(exact->meta.tier, "exact");
}

TEST(AccuracyRoutingTest, AutoDegradesInsteadOfSheddingOnDeadline) {
  EngineOptions options;
  options.clock_ns = &FakeClock;
  options.sketch_k = 16;
  Engine engine = MakeEngine(PaperExampleGraph(), options);

  // Exact contract unchanged: an expired exact request is shed.
  g_fake_now_ns.store(0);
  Request exact = MakeSpread({4});
  exact.timeout_ms = 5;  // pickup is a simulated 10ms after admission
  const Result<Response> shed = engine.Run(exact);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kDeadlineExceeded);

  // The same expired request under auto is answered from the sketch tier.
  g_fake_now_ns.store(0);
  Request auto_request = MakeSpread({4}, Accuracy::kAuto);
  auto_request.timeout_ms = 5;
  const Result<Response> degraded = engine.Run(auto_request);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_STREQ(degraded->meta.tier, "sketch");
}

TEST(AccuracyRoutingTest, MaxErrorGateKeepsAutoExact) {
  EngineOptions options;
  options.sketch_k = 3;  // error bound 1/sqrt(1) = 1.0
  options.sketch_pressure_in_flight = 1;  // always under pressure
  Engine engine = MakeEngine(PaperExampleGraph(), options);

  // Demanding better accuracy than the tier can promise pins the request to
  // the exact tier even under pressure.
  Request strict = MakeSpread({4}, Accuracy::kAuto);
  strict.max_error = 0.5;
  const Result<Response> exact = engine.Run(strict);
  ASSERT_TRUE(exact.ok());
  EXPECT_STREQ(exact->meta.tier, "exact");

  // max_error = 0 (any error acceptable) degrades as usual.
  const Result<Response> degraded =
      engine.Run(MakeSpread({4}, Accuracy::kAuto));
  ASSERT_TRUE(degraded.ok());
  EXPECT_STREQ(degraded->meta.tier, "sketch");
}

TEST(AccuracyRoutingTest, SaturatedAutoBatchDegradesWithZeroShed) {
  // Saturating replay: a large all-auto batch under a 1-deep pressure
  // threshold must answer every request (zero shed), all from the sketch
  // tier, and identically at every thread count.
  EngineOptions options;
  options.sketch_k = 16;
  options.sketch_pressure_in_flight = 1;
  const ProbGraph graph = RandomGraph(100, 400, 3);
  std::vector<Request> requests;
  for (uint32_t i = 0; i < 200; ++i) {
    requests.push_back(MakeSpread({i % 100}, Accuracy::kAuto));
  }
  std::vector<std::string> reference;
  for (const uint32_t threads : {1u, 8u}) {
    SetGlobalThreads(threads);
    Engine engine = MakeEngine(ProbGraph(graph), options);
    const auto batch = engine.RunBatch(requests);
    ASSERT_TRUE(batch.ok());
    std::vector<std::string> lines;
    for (size_t i = 0; i < batch->size(); ++i) {
      const Result<Response>& r = (*batch)[i];
      ASSERT_TRUE(r.ok()) << "request " << i << " shed: "
                          << r.status().ToString();
      EXPECT_STREQ(r->meta.tier, "sketch");
      lines.push_back(FormatResponseLine(static_cast<int64_t>(i), r));
    }
    if (reference.empty()) {
      reference = std::move(lines);
    } else {
      EXPECT_EQ(reference, lines) << "threads " << threads;
    }
  }
  SetGlobalThreads(0);
}

TEST(AccuracyRoutingTest, UpdateBatchInvalidatesSketches) {
  EngineOptions options;
  options.sketch_k = 16;
  options.index.num_worlds = 8;
  auto engine = Engine::CreateDynamic(RandomGraph(30, 120, 9), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const Result<Response> before =
      engine->Run(MakeSpread({3}, Accuracy::kSketch));
  ASSERT_TRUE(before.ok());

  Request update;
  update.payload =
      UpdateRequest{{GraphUpdate{UpdateKind::kEdgeInsert, 3, 27, 0.9}}};
  ASSERT_TRUE(engine->Run(update).ok());

  // Post-update sketches are rebuilt over the patched index; the new edge
  // can only grow node 3's estimate.
  const Result<Response> after =
      engine->Run(MakeSpread({3}, Accuracy::kSketch));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_GE(std::get<SpreadResponse>(after->payload).spread,
            std::get<SpreadResponse>(before->payload).spread - 1e-9);
}

// The acceptance bar for the batching layer: a 1000-request mixed batch is
// byte-identical (after wire formatting) at --threads 1 and --threads 8.
TEST(EngineTest, MixedBatchDeterministicAcrossThreadCounts) {
  const ProbGraph graph = RandomGraph(200, 800, 7);
  std::vector<Request> requests;
  requests.reserve(1000);
  for (uint32_t i = 0; i < 1000; ++i) {
    Request r;
    const NodeId v = static_cast<NodeId>(i % graph.num_nodes());
    switch (i % 5) {
      case 0: r.payload = TypicalCascadeRequest{{v}, false}; break;
      case 1: r.payload = CascadeRequest{{v}, i % 16}; break;
      case 2: r.payload = SpreadRequest{{v}}; break;
      case 3: r.payload = SeedSelectRequest{1 + i % 4, "tc"}; break;
      case 4: r.payload = ReliabilityRequest{{v}, 0.25}; break;
    }
    requests.push_back(std::move(r));
  }

  auto run_at = [&](uint32_t threads) {
    EngineOptions options;
    options.index.num_worlds = 16;
    options.threads = threads;
    Engine engine = MakeEngine(ProbGraph(graph), options);
    const auto batch = engine.RunBatch(requests);
    SOI_CHECK(batch.ok());
    std::string wire;
    for (size_t i = 0; i < batch->size(); ++i) {
      wire += FormatResponseLine(static_cast<int64_t>(i), (*batch)[i]);
    }
    return wire;
  };

  const std::string at_one = run_at(1);
  const std::string at_eight = run_at(8);
  SetGlobalThreads(0);
  EXPECT_EQ(at_one, at_eight);
}

// Concurrent batches against one engine: no data races (TSan job) and
// every outcome is either success or an explicit admission rejection.
TEST(EngineTest, ConcurrentBatchesAreRaceFree) {
  EngineOptions options;
  options.max_in_flight = 2;
  Engine engine = MakeEngine(RandomGraph(100, 400, 3), options);
  std::vector<Request> requests;
  for (uint32_t i = 0; i < 50; ++i) {
    requests.push_back(MakeCascade({i % 100}, i % 16));
  }
  std::atomic<int> ok_batches{0};
  std::atomic<int> rejected{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 5; ++round) {
        const auto batch = engine.RunBatch(requests);
        if (batch.ok()) {
          ok_batches.fetch_add(1);
          for (const auto& r : *batch) SOI_CHECK(r.ok());
        } else {
          SOI_CHECK(batch.status().code() == StatusCode::kResourceExhausted);
          rejected.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_GT(ok_batches.load(), 0);
  EXPECT_EQ(ok_batches.load() + rejected.load(), 20);
  EXPECT_EQ(engine.in_flight(), 0u);
}

// ---------------------------------------------------------------------------
// Protocol.
// ---------------------------------------------------------------------------

TEST(ProtocolTest, ParsesEveryOp) {
  const auto typical =
      ParseRequestLine(R"({"op":"typical","seeds":[4],"id":1})");
  ASSERT_TRUE(typical.ok());
  EXPECT_EQ(typical->id, 1);
  EXPECT_EQ(std::get<TypicalCascadeRequest>(typical->request.payload).seeds,
            std::vector<NodeId>({4}));

  const auto cascade = ParseRequestLine(
      R"({"op":"cascade","seeds":[0,3],"world":2,"timeout_ms":25})");
  ASSERT_TRUE(cascade.ok());
  EXPECT_EQ(cascade->id, -1);
  EXPECT_EQ(cascade->request.timeout_ms, 25u);
  EXPECT_EQ(std::get<CascadeRequest>(cascade->request.payload).world, 2u);

  const auto spread = ParseRequestLine(R"({"op":"spread","seeds":[1,2]})");
  ASSERT_TRUE(spread.ok());

  const auto select =
      ParseRequestLine(R"({"op":"seed_select","k":5,"method":"std"})");
  ASSERT_TRUE(select.ok());
  EXPECT_EQ(std::get<SeedSelectRequest>(select->request.payload).k, 5u);
  EXPECT_EQ(std::get<SeedSelectRequest>(select->request.payload).method,
            "std");

  const auto reliability =
      ParseRequestLine(R"({"op":"reliability","seeds":[4],"threshold":0.7})");
  ASSERT_TRUE(reliability.ok());
  EXPECT_DOUBLE_EQ(
      std::get<ReliabilityRequest>(reliability->request.payload).threshold,
      0.7);
}

TEST(ProtocolTest, RejectsMalformedInputWithNamedField) {
  EXPECT_FALSE(ParseRequestLine("not json").ok());
  EXPECT_FALSE(ParseRequestLine("{\"op\":\"typical\"").ok());  // truncated
  EXPECT_FALSE(ParseRequestLine(R"([1,2,3])").ok());  // not an object
  EXPECT_FALSE(ParseRequestLine(R"({"seeds":[1]})").ok());  // no op

  const auto unknown_op = ParseRequestLine(R"({"op":"frobnicate"})");
  ASSERT_FALSE(unknown_op.ok());
  EXPECT_NE(unknown_op.status().message().find("frobnicate"),
            std::string::npos);

  const auto no_seeds = ParseRequestLine(R"({"op":"spread"})");
  ASSERT_FALSE(no_seeds.ok());
  EXPECT_NE(no_seeds.status().message().find("seeds"), std::string::npos);

  const auto bad_seed =
      ParseRequestLine(R"({"op":"spread","seeds":[-1]})");
  EXPECT_FALSE(bad_seed.ok());
  EXPECT_FALSE(
      ParseRequestLine(R"({"op":"spread","seeds":[1.5]})").ok());
  EXPECT_FALSE(
      ParseRequestLine(R"({"op":"cascade","seeds":[1]})").ok());  // no world
  EXPECT_FALSE(ParseRequestLine(R"({"op":"seed_select","k":0})").ok());
  EXPECT_FALSE(
      ParseRequestLine(R"({"op":"spread","seeds":[1]} trailing)").ok());
}

TEST(ProtocolTest, FormatsSuccessAndErrorLines) {
  SeedSelectResponse select;
  select.seeds = {7, 3};
  select.objective = 41.5;
  const std::string ok_line =
      FormatResponseLine(9, Result<Response>(Response(select)));
  EXPECT_EQ(ok_line,
            "{\"id\":9,\"status\":\"ok\",\"op\":\"seed_select\","
            "\"seeds\":[7,3],\"objective\":41.5}\n");

  const std::string err_line = FormatResponseLine(
      -1, Result<Response>(Status::InvalidArgument("bad \"stuff\"")));
  EXPECT_EQ(err_line,
            "{\"id\":-1,\"status\":\"invalid_argument\","
            "\"error\":\"bad \\\"stuff\\\"\"}\n");
}

TEST(ProtocolTest, RoundTripThroughEngine) {
  Engine engine = MakeEngine(PaperExampleGraph());
  const auto parsed =
      ParseRequestLine(R"({"op":"cascade","seeds":[4],"world":0,"id":3})");
  ASSERT_TRUE(parsed.ok());
  const std::string line =
      FormatResponseLine(parsed->id, engine.Run(parsed->request));
  EXPECT_EQ(line.rfind("{\"id\":3,\"status\":\"ok\",\"op\":\"cascade\"", 0),
            0u);
  EXPECT_EQ(line.back(), '\n');
}

TEST(ProtocolTest, WireStatusStringsAreSnakeCase) {
  EXPECT_STREQ(StatusCodeToWireString(StatusCode::kOk), "ok");
  EXPECT_STREQ(StatusCodeToWireString(StatusCode::kDeadlineExceeded),
               "deadline_exceeded");
  EXPECT_STREQ(StatusCodeToWireString(StatusCode::kResourceExhausted),
               "resource_exhausted");
}

// ---------------------------------------------------------------------------
// Protocol v2: the versioned envelope, accuracy fields, and structured
// error codes.
// ---------------------------------------------------------------------------

TEST(ProtocolV2Test, VersionFieldParseMatrix) {
  // No "v" and "v":1 are both v1.
  const auto implicit = ParseRequestLine(R"({"op":"spread","seeds":[1]})");
  ASSERT_TRUE(implicit.ok());
  EXPECT_EQ(implicit->version, 1);
  const auto explicit_v1 =
      ParseRequestLine(R"({"v":1,"op":"spread","seeds":[1]})");
  ASSERT_TRUE(explicit_v1.ok());
  EXPECT_EQ(explicit_v1->version, 1);

  const auto v2 = ParseRequestLine(R"({"v":2,"op":"spread","seeds":[1]})");
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2->version, 2);
  EXPECT_EQ(v2->request.accuracy, Accuracy::kExact);  // default

  // Unknown versions and wrong types are named errors, not silent v1.
  const auto v3 = ParseRequestLine(R"({"v":3,"op":"spread","seeds":[1]})");
  ASSERT_FALSE(v3.ok());
  EXPECT_NE(v3.status().message().find("unsupported protocol version"),
            std::string::npos);
  EXPECT_FALSE(
      ParseRequestLine(R"({"v":"2","op":"spread","seeds":[1]})").ok());
  EXPECT_FALSE(
      ParseRequestLine(R"({"v":1.5,"op":"spread","seeds":[1]})").ok());
}

TEST(ProtocolV2Test, AccuracyFieldParseMatrix) {
  const auto sketch = ParseRequestLine(
      R"({"v":2,"op":"spread","seeds":[1],"accuracy":"sketch"})");
  ASSERT_TRUE(sketch.ok());
  EXPECT_EQ(sketch->request.accuracy, Accuracy::kSketch);

  const auto with_bound = ParseRequestLine(
      R"({"v":2,"op":"seed_select","k":3,"accuracy":"auto","max_error":0.25})");
  ASSERT_TRUE(with_bound.ok());
  EXPECT_EQ(with_bound->request.accuracy, Accuracy::kAuto);
  EXPECT_DOUBLE_EQ(with_bound->request.max_error, 0.25);

  const auto exact = ParseRequestLine(
      R"({"v":2,"op":"spread","seeds":[1],"accuracy":"exact"})");
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact->request.accuracy, Accuracy::kExact);

  // Unknown accuracy and malformed max_error are named errors.
  const auto bogus = ParseRequestLine(
      R"({"v":2,"op":"spread","seeds":[1],"accuracy":"fast"})");
  ASSERT_FALSE(bogus.ok());
  EXPECT_NE(bogus.status().message().find("accuracy"), std::string::npos);
  EXPECT_FALSE(ParseRequestLine(
      R"({"v":2,"op":"spread","seeds":[1],"max_error":-0.5})").ok());
  EXPECT_FALSE(ParseRequestLine(
      R"({"v":2,"op":"spread","seeds":[1],"max_error":"low"})").ok());
  EXPECT_FALSE(ParseRequestLine(
      R"({"v":2,"op":"spread","seeds":[1],"accuracy":7})").ok());
}

TEST(ProtocolV2Test, AccuracyOnV1LineIsAnErrorNamingTheFix) {
  const auto v1_accuracy = ParseRequestLine(
      R"({"op":"spread","seeds":[1],"accuracy":"sketch"})");
  ASSERT_FALSE(v1_accuracy.ok());
  EXPECT_NE(v1_accuracy.status().message().find("add \"v\":2"),
            std::string::npos);
  EXPECT_FALSE(ParseRequestLine(
      R"({"v":1,"op":"spread","seeds":[1],"max_error":0.1})").ok());
}

TEST(ProtocolV2Test, V2SuccessLinesCarryResponseMetadata) {
  Response response{SpreadResponse{12.25}};
  response.meta.tier = "sketch";
  response.meta.est_error = 0.25;
  response.meta.elapsed_us = 42;
  EXPECT_EQ(FormatResponseLine(7, 2, Result<Response>(response)),
            "{\"id\":7,\"status\":\"ok\",\"op\":\"spread\",\"spread\":12.25,"
            "\"tier\":\"sketch\",\"est_error\":0.25,\"elapsed_us\":42}\n");
  // The 3-arg overload at version 1 is byte-identical to the v1 formatter.
  EXPECT_EQ(FormatResponseLine(7, 1, Result<Response>(response)),
            FormatResponseLine(7, Result<Response>(response)));
}

TEST(ProtocolV2Test, V2ErrorLinesAreStructured) {
  const std::string line = FormatResponseLine(
      9, 2, Result<Response>(Status::DeadlineExceeded("too slow")));
  EXPECT_EQ(line,
            "{\"id\":9,\"status\":\"error\",\"code\":\"DEADLINE_EXCEEDED\","
            "\"message\":\"too slow\"}\n");
  EXPECT_STREQ(StatusCodeToErrorCode(StatusCode::kInvalidArgument),
               "INVALID_ARGUMENT");
  EXPECT_STREQ(StatusCodeToErrorCode(StatusCode::kFailedPrecondition),
               "FAILED_PRECONDITION");
  EXPECT_STREQ(StatusCodeToErrorCode(StatusCode::kResourceExhausted),
               "RESOURCE_EXHAUSTED");
  EXPECT_STREQ(StatusCodeToErrorCode(StatusCode::kOk), "OK");
}

// ---------------------------------------------------------------------------
// Serve loops.
// ---------------------------------------------------------------------------

// Runs ServeStream over pipes: input written up front, EOF, then the full
// output is read back.
std::string ServeOnce(Engine* engine, const std::string& input,
                      const ServeOptions& options = {}) {
  int in_pipe[2];
  int out_pipe[2];
  SOI_CHECK(::pipe(in_pipe) == 0);
  SOI_CHECK(::pipe(out_pipe) == 0);
  // Writer thread: pipes have finite buffers, so feed input concurrently.
  std::thread writer([&] {
    size_t off = 0;
    while (off < input.size()) {
      const ssize_t n =
          ::write(in_pipe[1], input.data() + off, input.size() - off);
      SOI_CHECK(n > 0);
      off += static_cast<size_t>(n);
    }
    ::close(in_pipe[1]);
  });
  std::string output;
  std::thread reader([&] {
    char buf[4096];
    ssize_t n;
    while ((n = ::read(out_pipe[0], buf, sizeof(buf))) > 0) {
      output.append(buf, static_cast<size_t>(n));
    }
  });
  const Status status =
      ServeStream(engine, in_pipe[0], out_pipe[1], options);
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  writer.join();
  reader.join();
  ::close(out_pipe[0]);
  SOI_CHECK(status.ok());
  return output;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  size_t nl;
  while ((nl = text.find('\n', start)) != std::string::npos) {
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

TEST(ServeStreamTest, AnswersInOrderAndSurvivesMalformedLines) {
  Engine engine = MakeEngine(PaperExampleGraph());
  const std::string input =
      "{\"op\":\"spread\",\"seeds\":[4],\"id\":1}\n"
      "this is not json\n"
      "\n"
      "{\"op\":\"cascade\",\"seeds\":[4],\"world\":0,\"id\":2}\n"
      "{\"op\":\"spread\",\"seeds\":[999],\"id\":3}\n";
  const std::vector<std::string> lines =
      SplitLines(ServeOnce(&engine, input));
  ASSERT_EQ(lines.size(), 4u);  // blank line is not a request
  EXPECT_EQ(lines[0].rfind("{\"id\":1,\"status\":\"ok\"", 0), 0u);
  EXPECT_EQ(lines[1].rfind("{\"id\":-1,\"status\":\"invalid_argument\"", 0),
            0u);
  EXPECT_EQ(lines[2].rfind("{\"id\":2,\"status\":\"ok\"", 0), 0u);
  EXPECT_EQ(lines[3].rfind("{\"id\":3,\"status\":\"invalid_argument\"", 0),
            0u);
}

TEST(ServeStreamTest, SalvagesIdFromMalformedLine) {
  Engine engine = MakeEngine(PaperExampleGraph());
  const std::string output = ServeOnce(
      &engine, "{\"op\":\"spread\",\"seeds\":[oops],\"id\":42}\n");
  EXPECT_EQ(output.rfind("{\"id\":42,\"status\":\"invalid_argument\"", 0),
            0u);
}

TEST(ServeStreamTest, TrailingLineWithoutNewlineIsServed) {
  Engine engine = MakeEngine(PaperExampleGraph());
  const std::string output =
      ServeOnce(&engine, "{\"op\":\"spread\",\"seeds\":[4],\"id\":8}");
  EXPECT_EQ(output.rfind("{\"id\":8,\"status\":\"ok\"", 0), 0u);
}

TEST(ServeStreamTest, ManyRequestsBatchAndStayOrdered) {
  Engine engine = MakeEngine(PaperExampleGraph());
  std::string input;
  for (int i = 0; i < 100; ++i) {
    input += "{\"op\":\"cascade\",\"seeds\":[" + std::to_string(i % 5) +
             "],\"world\":" + std::to_string(i % 16) +
             ",\"id\":" + std::to_string(i) + "}\n";
  }
  ServeOptions options;
  options.batch_max = 8;
  const std::vector<std::string> lines =
      SplitLines(ServeOnce(&engine, input, options));
  ASSERT_EQ(lines.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(lines[i].rfind("{\"id\":" + std::to_string(i) + ",", 0), 0u)
        << lines[i];
  }
}

TEST(ProtocolV2Test, MixedVersionStreamAnswersEachLineInItsOwnShape) {
  EngineOptions options;
  options.sketch_k = 16;
  Engine engine = MakeEngine(PaperExampleGraph(), options);
  const std::string input =
      "{\"op\":\"spread\",\"seeds\":[4],\"id\":1}\n"
      "{\"v\":2,\"op\":\"spread\",\"seeds\":[4],\"id\":2}\n"
      "{\"v\":2,\"op\":\"spread\",\"seeds\":[4],\"accuracy\":\"sketch\","
      "\"id\":3}\n"
      "{\"v\":2,\"op\":\"cascade\",\"seeds\":[4],\"world\":0,"
      "\"accuracy\":\"sketch\",\"id\":4}\n";
  const std::vector<std::string> lines = SplitLines(ServeOnce(&engine, input));
  ASSERT_EQ(lines.size(), 4u);
  // v1 line: v1 shape, no metadata.
  EXPECT_EQ(lines[0].find("tier"), std::string::npos);
  EXPECT_EQ(lines[0].rfind("{\"id\":1,\"status\":\"ok\",\"op\":\"spread\"", 0),
            0u);
  // v2 exact: metadata names the exact tier.
  EXPECT_NE(lines[1].find("\"tier\":\"exact\",\"est_error\":0,"),
            std::string::npos);
  // v2 sketch: sketch tier with its error bound 1/sqrt(16-2).
  EXPECT_NE(lines[2].find("\"tier\":\"sketch\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"est_error\":0.2672612419"), std::string::npos);
  // v2 structured error for the op with no sketch path.
  EXPECT_EQ(lines[3].rfind("{\"id\":4,\"status\":\"error\","
                           "\"code\":\"FAILED_PRECONDITION\"",
                           0),
            0u);
}

TEST(ProtocolV2Test, MalformedV2LineSalvagesTheV2ErrorShape) {
  Engine engine = MakeEngine(PaperExampleGraph());
  const std::string input =
      "{\"v\":2,\"op\":\"spread\",\"seeds\":[oops],\"id\":5}\n"
      "{\"v\": 2, \"id\": 6, \"op\":\"nope\"}\n"
      "{\"op\":\"nope\",\"id\":7}\n";
  const std::vector<std::string> lines = SplitLines(ServeOnce(&engine, input));
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].rfind("{\"id\":5,\"status\":\"error\","
                           "\"code\":\"INVALID_ARGUMENT\"",
                           0),
            0u);
  EXPECT_EQ(lines[1].rfind("{\"id\":6,\"status\":\"error\"", 0), 0u);
  // A v1 malformed line keeps the v1 error shape.
  EXPECT_EQ(lines[2].rfind("{\"id\":7,\"status\":\"invalid_argument\"", 0),
            0u);
}

// ---------------------------------------------------------------------------
// Hot swap.
// ---------------------------------------------------------------------------

// Swapping engines while four threads hammer the handle: every batch must
// land entirely on one engine (the Acquire() shared_ptr pins it), every
// answer must match the single-engine reference (replacement engines are
// built from the same graph and options, so a divergent answer means a
// torn read), and no engine may be destroyed while a batch still runs.
// This test runs under TSan in CI.
TEST(HotSwapTest, SwapUnderConcurrentLoadKeepsAnswersByteIdentical) {
  EngineOptions options;
  options.index.num_worlds = 16;
  options.max_in_flight = 8;
  const auto make_engine = [&] {
    return MakeEngine(RandomGraph(100, 400, 3), options);
  };

  std::vector<Request> requests;
  for (uint32_t i = 0; i < 20; ++i) {
    requests.push_back(MakeCascade({i % 100}, i % 16));
  }
  // Reference answers from a plain engine; every engine in this test is
  // deterministic-identical, so these must never change across swaps.
  std::vector<std::string> reference;
  {
    Engine probe = make_engine();
    auto batch = probe.RunBatch(requests);
    ASSERT_TRUE(batch.ok());
    for (size_t i = 0; i < batch->size(); ++i) {
      reference.push_back(
          FormatResponseLine(static_cast<int64_t>(i), (*batch)[i]));
    }
  }

  EngineHandle handle(make_engine());
  std::atomic<bool> stop{false};
  std::atomic<int> batches_ok{0};
  std::atomic<bool> mismatch{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const std::shared_ptr<Engine> engine = handle.Acquire();
        const auto batch = engine->RunBatch(requests);
        if (!batch.ok()) {
          // Admission control may reject under contention; that's not a
          // swap bug.
          SOI_CHECK(batch.status().code() == StatusCode::kResourceExhausted);
          continue;
        }
        batches_ok.fetch_add(1);
        for (size_t i = 0; i < batch->size(); ++i) {
          if (FormatResponseLine(static_cast<int64_t>(i), (*batch)[i]) !=
              reference[i]) {
            mismatch.store(true);
          }
        }
      }
    });
  }
  constexpr int kSwaps = 5;
  for (int s = 0; s < kSwaps; ++s) {
    handle.Swap(make_engine());
  }
  // Let the workers observe the final engine before stopping.
  while (batches_ok.load() < 8) std::this_thread::yield();
  stop.store(true);
  for (std::thread& t : workers) t.join();
  EXPECT_FALSE(mismatch.load());
  EXPECT_GT(batches_ok.load(), 0);
  EXPECT_EQ(handle.epoch(), static_cast<uint64_t>(kSwaps));
}

// The serve loop's poll hook swapping mid-stream: responses before and
// after the swap come from different engines yet stay byte-identical and
// in request order.
TEST(HotSwapTest, ServeStreamPollHookSwapsMidStream) {
  EngineOptions options;
  options.index.num_worlds = 16;
  EngineHandle handle(MakeEngine(RandomGraph(100, 400, 3), options));

  std::string input;
  for (int i = 0; i < 40; ++i) {
    input += "{\"op\":\"spread\",\"seeds\":[" + std::to_string(i % 100) +
             "],\"id\":" + std::to_string(i) + "}\n";
  }

  std::atomic<int> polls{0};
  ServeOptions serve_options;
  serve_options.poll = [&] {
    // Swap exactly once, after some responses have already been served.
    if (polls.fetch_add(1) == 1) {
      handle.Swap(MakeEngine(RandomGraph(100, 400, 3), options));
    }
  };

  int in_pipe[2];
  int out_pipe[2];
  SOI_CHECK(::pipe(in_pipe) == 0);
  SOI_CHECK(::pipe(out_pipe) == 0);
  std::thread writer([&] {
    // Dribble the input so the serve loop wakes (and polls) many times.
    for (size_t off = 0; off < input.size();) {
      const size_t chunk = std::min<size_t>(64, input.size() - off);
      ssize_t n = ::write(in_pipe[1], input.data() + off, chunk);
      SOI_CHECK(n > 0);
      off += static_cast<size_t>(n);
    }
    ::close(in_pipe[1]);
  });
  std::string output;
  std::thread reader([&] {
    char buf[4096];
    ssize_t n;
    while ((n = ::read(out_pipe[0], buf, sizeof(buf))) > 0) {
      output.append(buf, static_cast<size_t>(n));
    }
  });
  const Status served =
      ServeStream(&handle, in_pipe[0], out_pipe[1], serve_options);
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  writer.join();
  reader.join();
  ::close(out_pipe[0]);
  ASSERT_TRUE(served.ok()) << served.ToString();
  EXPECT_EQ(handle.epoch(), 1u);

  const std::vector<std::string> lines = SplitLines(output);
  ASSERT_EQ(lines.size(), 40u);
  // Identical engines => identical per-request answers; compare each
  // response against a fresh single-engine run.
  Engine probe = MakeEngine(RandomGraph(100, 400, 3), options);
  for (int i = 0; i < 40; ++i) {
    Request r;
    r.payload = SpreadRequest{{static_cast<NodeId>(i % 100)}};
    EXPECT_EQ(lines[static_cast<size_t>(i)] + "\n",
              FormatResponseLine(i, probe.Run(r)))
        << "request " << i;
  }
}

// ---------------------------------------------------------------------------
// Dynamic engines (incremental updates racing queries; drift hot-swap).
// ---------------------------------------------------------------------------

// A graph whose edge set is known exactly, so a single updater thread can
// generate always-valid updates from local shadow state: a ring plus
// chords; arcs (u, u+3) are reserved for dynamic inserts.
ProbGraph RingGraph(NodeId n) {
  ProbGraphBuilder b(n);
  for (NodeId u = 0; u < n; ++u) {
    EXPECT_TRUE(b.AddEdge(u, (u + 1) % n, 0.15).ok());
    EXPECT_TRUE(b.AddEdge(u, (u + 7) % n, 0.1).ok());
  }
  auto g = b.Build();
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

TEST(DynamicEngineTest, StaticEngineAnswersUpdateWithFailedPrecondition) {
  Engine engine = MakeEngine(PaperExampleGraph());
  Request update;
  update.payload =
      UpdateRequest{{GraphUpdate{UpdateKind::kEdgeInsert, 0, 2, 0.3}}};
  const Result<Response> result = engine.Run(update);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(result.status().message().find("dynamic"), std::string::npos);
  EXPECT_FALSE(engine.dynamic());
  EXPECT_EQ(engine.drift(), 0u);
}

TEST(DynamicEngineTest, UpdateRoundTripsThroughProtocol) {
  auto engine = Engine::CreateDynamic(PaperExampleGraph());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const auto parsed = ParseRequestLine(
      R"({"op":"update","ops":[{"op":"insert","src":0,"dst":2,"prob":0.3},)"
      R"({"op":"prob","src":0,"dst":2,"prob":0.5},)"
      R"({"op":"delete","src":0,"dst":2}],"id":8})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::string line =
      FormatResponseLine(parsed->id, engine->Run(parsed->request));
  EXPECT_EQ(line.rfind("{\"id\":8,\"status\":\"ok\",\"op\":\"update\","
                       "\"applied\":3",
                       0),
            0u)
      << line;
  EXPECT_EQ(engine->drift(), 3u);

  // The same line against a static engine maps to the wire status.
  Engine static_engine = MakeEngine(PaperExampleGraph());
  const std::string rejected =
      FormatResponseLine(parsed->id, static_engine.Run(parsed->request));
  EXPECT_NE(rejected.find("\"status\":\"failed_precondition\""),
            std::string::npos)
      << rejected;
}

// The TSan centerpiece: query batches racing an update stream through an
// EngineHandle, with the updater enforcing the drift-rebuild policy —
// rebuild from a consistent capture, journal catch-up, hot-swap — while
// queries keep flowing. Afterwards the served index must be byte-identical
// to a from-scratch build on the final graph.
TEST(DynamicEngineTest, UpdatesRacingQueriesWithDriftHotSwap) {
  constexpr NodeId kN = 40;
  constexpr uint64_t kDriftThreshold = 48;
  EngineOptions options;
  options.index.num_worlds = 12;
  options.max_in_flight = 8;
  options.drift_rebuild_threshold = kDriftThreshold;
  auto first = Engine::CreateDynamic(RingGraph(kN), options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EngineHandle handle(std::move(*first));

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::atomic<int> query_batches{0};
  std::vector<std::thread> queriers;
  for (int t = 0; t < 3; ++t) {
    queriers.emplace_back([&, t] {
      std::vector<Request> batch;
      for (uint32_t i = 0; i < 6; ++i) {
        batch.push_back(MakeCascade({(static_cast<NodeId>(t) * 11 + i) % kN},
                                    i % 16));
      }
      Request spread;
      spread.payload = SpreadRequest{{static_cast<NodeId>(t)}};
      batch.push_back(spread);
      Request typical;
      typical.payload =
          TypicalCascadeRequest{{static_cast<NodeId>(t * 7 % kN)}, false};
      batch.push_back(typical);
      // seed_select re-runs the full typical sweep whenever an update
      // invalidated it; issue it on every 8th batch so the race is
      // exercised without the sweep dominating the test's runtime.
      std::vector<Request> batch_with_select = batch;
      Request select;
      select.payload = SeedSelectRequest{2, "tc"};
      batch_with_select.push_back(select);
      uint32_t iteration = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::shared_ptr<Engine> engine = handle.Acquire();
        const auto responses = engine->RunBatch(
            ++iteration % 8 == 0 ? batch_with_select : batch);
        if (!responses.ok()) {
          if (responses.status().code() != StatusCode::kResourceExhausted) {
            failed.store(true);
          }
          continue;
        }
        query_batches.fetch_add(1);
        for (const auto& r : *responses) {
          if (!r.ok()) failed.store(true);
        }
      }
    });
  }

  // Sole mutator: toggles reserved (u, u+3) arcs, so validity needs no
  // coordination with the queriers. Applies the drift-rebuild policy
  // exactly the way soi_cli serve --dynamic does.
  uint64_t swaps = 0;
  std::vector<bool> present(kN, false);
  for (int round = 0; round < 200 && !failed.load(); ++round) {
    const NodeId u = static_cast<NodeId>(round) % kN;
    GraphUpdate op;
    op.src = u;
    op.dst = (u + 3) % kN;
    if (present[u]) {
      op.kind = UpdateKind::kEdgeDelete;
    } else {
      op.kind = UpdateKind::kEdgeInsert;
      op.prob = 0.2;
    }
    present[u] = !present[u];
    const std::shared_ptr<Engine> engine = handle.Acquire();
    Request update;
    update.payload = UpdateRequest{{op}};
    Result<Response> applied = engine->Run(update);
    while (!applied.ok() &&
           applied.status().code() == StatusCode::kResourceExhausted) {
      std::this_thread::yield();
      applied = engine->Run(update);
    }
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    if (engine->drift() < kDriftThreshold) continue;
    auto state = engine->CaptureDynamicState();
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    auto next = Engine::CreateDynamic(std::move(state->graph), options);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    const auto catchup = engine->JournalSince(state->journal_seq);
    EXPECT_TRUE(catchup.empty());  // single mutator => nothing to replay
    handle.Swap(std::move(*next));
    ++swaps;
  }
  // Let queriers observe the post-swap engine, then stop.
  const int seen = query_batches.load();
  while (query_batches.load() < seen + 2 && !failed.load()) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& t : queriers) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_GT(query_batches.load(), 0);
  EXPECT_GE(swaps, 1u);  // the drift threshold actually fired mid-stream
  EXPECT_EQ(handle.epoch(), swaps);

  // Convergence: the served index equals a from-scratch build on the final
  // graph, byte for byte (rebuild equivalence survived the whole race).
  const std::shared_ptr<Engine> last = handle.Acquire();
  auto final_state = last->CaptureDynamicState();
  ASSERT_TRUE(final_state.ok());
  auto reference =
      Engine::CreateDynamic(std::move(final_state->graph), options);
  ASSERT_TRUE(reference.ok());
  EXPECT_TRUE(SameWorlds(last->index(), reference->index()));
  EXPECT_EQ(last->fingerprint(), reference->fingerprint());
}

TEST(ServeTcpTest, ServesOneConnectionOnEphemeralPort) {
  Engine engine = MakeEngine(PaperExampleGraph());
  std::promise<uint16_t> port_promise;
  std::future<uint16_t> port_future = port_promise.get_future();
  ServeOptions options;
  options.max_connections = 1;
  options.on_listening = [&](uint16_t port) { port_promise.set_value(port); };
  std::thread server([&] {
    const Status status = ServeTcp(&engine, /*port=*/0, options);
    SOI_CHECK(status.ok());
  });
  const uint16_t port = port_future.get();
  ASSERT_NE(port, 0);

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const std::string request = "{\"op\":\"spread\",\"seeds\":[4],\"id\":5}\n";
  ASSERT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char buf[1024];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  server.join();
  EXPECT_EQ(response.rfind("{\"id\":5,\"status\":\"ok\",\"op\":\"spread\"", 0),
            0u);
}

// ---------------------------------------------------------------------------
// Serving data plane: salvage scanner, in-situ parser, line guard, and the
// epoll event loop under concurrent clients. These run in the TSan and ASan
// CI jobs, so every concurrent path doubles as a race/sanitizer check.

TEST(SalvageTest, IdToleratesWhitespaceAroundColon) {
  EXPECT_EQ(SalvageId("{\"id\" : 42, \"op\":}"), 42);
  EXPECT_EQ(SalvageId("{\"id\"\t:\t-7,\"op\":}"), -7);
  EXPECT_EQ(SalvageId("{\"op\":oops,\"id\"  :  9}"), 9);
  EXPECT_EQ(SalvageId("{\"id\":5,\"op\":oops}"), 5);
}

TEST(SalvageTest, IdInsideStringValueDoesNotCount) {
  // "id" as a string VALUE (followed by ',' / '}' rather than ':').
  EXPECT_EQ(SalvageId("{\"mode\":\"id\",\"op\":oops}"), -1);
  // "id": 99 embedded inside a string value via escaped quotes.
  EXPECT_EQ(SalvageId("{\"note\":\"\\\"id\\\": 99\",\"op\":oops}"), -1);
  // The real key still wins even after a decoy value.
  EXPECT_EQ(SalvageId("{\"note\":\"\\\"id\\\": 99\",\"id\":3,\"op\":oops}"),
            3);
  // No digits after the colon: not a salvageable id.
  EXPECT_EQ(SalvageId("{\"id\":,\"op\":oops}"), -1);
  EXPECT_EQ(SalvageId("{\"id\":\"7\",\"op\":oops}"), -1);
}

TEST(SalvageTest, VersionRequiresIntegerTwo) {
  EXPECT_EQ(SalvageVersion("{\"v\" : 2,\"op\":oops}"), 2);
  EXPECT_EQ(SalvageVersion("{\"v\":2,\"op\":oops}"), 2);
  EXPECT_EQ(SalvageVersion("{\"v\":1,\"op\":oops}"), 1);
  // The old substring scanner reported 2 for "23" and for string-embedded
  // decoys; the tokenizer must not.
  EXPECT_EQ(SalvageVersion("{\"v\":23,\"op\":oops}"), 1);
  EXPECT_EQ(SalvageVersion("{\"v\":\"2\",\"op\":oops}"), 1);
  EXPECT_EQ(SalvageVersion("{\"note\":\"\\\"v\\\":2\",\"op\":oops}"), 1);
  EXPECT_EQ(SalvageVersion("{\"op\":oops}"), 1);
}

// Every line in this corpus must behave identically through the in-situ
// parser and the canonical allocating parser: same accept/reject decision,
// byte-identical error messages, and — for accepted lines — identical
// engine responses and envelope fields.
TEST(ParseIntoTest, MatchesCanonicalParserAcrossCorpus) {
  EngineOptions options;
  options.sketch_k = 16;
  // A frozen clock pins the v2 envelope's elapsed_us field so responses are
  // byte-comparable.
  options.clock_ns = [] { return uint64_t{0}; };
  Engine engine = MakeEngine(PaperExampleGraph(), options);
  const char* corpus[] = {
      "{\"op\":\"spread\",\"seeds\":[4],\"id\":1}",
      "{\"op\":\"typical\",\"seeds\":[4,0,1],\"local_search\":true,\"id\":2}",
      "{\"op\":\"cascade\",\"seeds\":[4],\"world\":3,\"id\":4}",
      "{\"op\":\"seed_select\",\"k\":2,\"method\":\"std\",\"id\":5}",
      "{\"op\":\"seed_select\",\"k\":2,\"id\":51}",
      "{\"op\":\"reliability\",\"seeds\":[4],\"threshold\":0.25,\"id\":6}",
      "{\"v\":2,\"op\":\"spread\",\"seeds\":[4],\"accuracy\":\"sketch\","
      "\"id\":7}",
      "{\"v\":2,\"op\":\"spread\",\"seeds\":[4],\"accuracy\":\"auto\","
      "\"max_error\":0.5,\"id\":8}",
      "{ \"op\" : \"spread\" , \"seeds\" : [ 4 ] , \"id\" : 9 }",
      "{\"id\":10,\"timeout_ms\":1000,\"op\":\"spread\",\"seeds\":[4]}",
      "{\"op\":\"update\",\"ops\":[{\"op\":\"insert\",\"src\":0,\"dst\":1,"
      "\"prob\":0.5}],\"id\":11}",
      // Escapes force the canonical fallback; the result must still match.
      "{\"op\":\"seed_select\",\"k\":1,\"method\":\"t\\u0063\",\"id\":13}",
      // Duplicate keys: the canonical reader honors the first occurrence.
      "{\"op\":\"spread\",\"seeds\":[4],\"id\":1,\"id\":2}",
      // Unknown fields are ignored by the canonical reader.
      "{\"op\":\"spread\",\"seeds\":[4],\"extra\":3,\"id\":12}",
      // Error corpus: messages must be byte-identical to the canonical ones.
      "garbage",
      "{\"op\":\"spread\",\"seeds\":[4]",
      "{\"op\":\"bogus\",\"seeds\":[4]}",
      "{\"op\":\"spread\"}",
      "{\"op\":\"spread\",\"seeds\":[-1]}",
      "{\"op\":\"spread\",\"seeds\":[4],\"accuracy\":\"sketch\"}",
      "{\"v\":3,\"op\":\"spread\",\"seeds\":[4]}",
      "{\"op\":\"spread\",\"seeds\":[4],\"id\":1.5}",
      "{\"op\":\"spread\",\"seeds\":[4],\"id\":true}",
      "{\"op\":\"spread\",\"seeds\":[4.5]}",
      "{\"op\":\"spread\",\"seeds\":[4],\"threshold\":.5}",
      "{\"op\":\"spread\",\"seeds\":[4]}trailing",
  };
  // The reused slot starts dirty — parsed from a request whose every field
  // differs from the corpus lines — so the test also proves reuse leaves no
  // residue behind.
  ProtocolRequest reused;
  ASSERT_TRUE(ParseRequestLineInto(
                  "{\"v\":2,\"op\":\"typical\",\"seeds\":[0,1,3],"
                  "\"local_search\":true,\"timeout_ms\":9999,\"id\":-5}",
                  &reused)
                  .ok());
  for (const char* line : corpus) {
    SCOPED_TRACE(line);
    Result<ProtocolRequest> canonical = ParseRequestLine(line);
    const Status into_status = ParseRequestLineInto(line, &reused);
    ASSERT_EQ(canonical.ok(), into_status.ok());
    if (!canonical.ok()) {
      EXPECT_EQ(canonical.status().ToString(), into_status.ToString());
      continue;
    }
    EXPECT_EQ(canonical->id, reused.id);
    EXPECT_EQ(canonical->version, reused.version);
    EXPECT_EQ(canonical->request.timeout_ms, reused.request.timeout_ms);
    EXPECT_EQ(static_cast<int>(canonical->request.accuracy),
              static_cast<int>(reused.request.accuracy));
    EXPECT_EQ(canonical->request.max_error, reused.request.max_error);
    // Identical wire responses through a deterministic engine == identical
    // payloads, without enumerating every variant alternative here.
    const std::string from_canonical = FormatResponseLine(
        canonical->id, canonical->version, engine.Run(canonical->request));
    const std::string from_into = FormatResponseLine(
        reused.id, reused.version, engine.Run(reused.request));
    EXPECT_EQ(from_canonical, from_into);
  }
}

TEST(LineGuardTest, OversizedLineGetsInOrderErrorAndResyncs) {
  Engine engine = MakeEngine(PaperExampleGraph());
  ServeOptions options;
  options.max_line_bytes = 64;
  std::string giant = "{\"id\":9,\"op\":\"spread\",\"seeds\":[4],\"pad\":\"";
  giant.append(200, 'x');
  giant += "\"}";
  const std::string input =
      "{\"op\":\"spread\",\"seeds\":[4],\"id\":1}\n" + giant + "\n" +
      "{\"op\":\"spread\",\"seeds\":[4],\"id\":2}\n";
  const std::vector<std::string> lines =
      SplitLines(ServeOnce(&engine, input, options));
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].rfind("{\"id\":1,\"status\":\"ok\"", 0), 0u);
  // The oversized line's id is still salvaged and the error is in order.
  EXPECT_EQ(lines[1].rfind("{\"id\":9,\"status\":\"invalid_argument\"", 0),
            0u)
      << lines[1];
  EXPECT_NE(lines[1].find("max_line_bytes=64"), std::string::npos);
  // Parsing resynchronized at the newline: the next request still works.
  EXPECT_EQ(lines[2].rfind("{\"id\":2,\"status\":\"ok\"", 0), 0u);
}

TEST(LineGuardTest, NewlinelessStreamIsBoundedAndAnsweredOnce) {
  Engine engine = MakeEngine(PaperExampleGraph());
  ServeOptions options;
  options.max_line_bytes = 64;
  // 1 MiB of newline-less garbage: the guard must answer exactly one error
  // (when the buffer first exceeds the cap) and drop the rest — the old
  // loop would have buffered all of it.
  std::string input(1 << 20, 'x');
  const std::vector<std::string> lines =
      SplitLines(ServeOnce(&engine, input + "\n", options));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].rfind("{\"id\":-1,\"status\":\"invalid_argument\"", 0),
            0u);
}

namespace tcp {

int Connect(uint16_t port) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  SOI_CHECK(fd >= 0);
  SOI_CHECK(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)) == 0);
  return fd;
}

void WriteAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::write(fd, data.data(), data.size());
    SOI_CHECK(n > 0);
    data.remove_prefix(static_cast<size_t>(n));
  }
}

std::string ReadUntilEof(int fd) {
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    out.append(buf, static_cast<size_t>(n));
  }
  return out;
}

}  // namespace tcp

// The acceptance bar for the event loop: N pipelined connections served
// concurrently must each receive exactly the bytes the single-connection
// stdin path produces for their stream — at 1 worker thread and at 8.
TEST(ServeTcpTest, ConcurrentPipelinedClientsMatchStdinReplay) {
  EngineOptions engine_options;
  engine_options.sketch_k = 16;
  // Frozen clock: elapsed_us would otherwise differ between the reference
  // replay and the live serve, breaking byte-for-byte comparison.
  engine_options.clock_ns = [] { return uint64_t{0}; };
  Engine engine = MakeEngine(PaperExampleGraph(), engine_options);

  constexpr int kClients = 3;
  std::vector<std::string> streams(kClients);
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < 12; ++i) {
      const int id = c * 100 + i;
      switch (i % 4) {
        case 0:
          streams[c] += "{\"op\":\"spread\",\"seeds\":[" +
                        std::to_string(i % 5) +
                        "],\"id\":" + std::to_string(id) + "}\n";
          break;
        case 1:
          streams[c] += "{\"v\":2,\"op\":\"spread\",\"seeds\":[" +
                        std::to_string(i % 5) +
                        "],\"accuracy\":\"sketch\",\"id\":" +
                        std::to_string(id) + "}\n";
          break;
        case 2:
          streams[c] += "{\"op\":\"typical\",\"seeds\":[" +
                        std::to_string(i % 5) +
                        "],\"id\":" + std::to_string(id) + "}\n";
          break;
        case 3:  // malformed: error responses must interleave in order too
          streams[c] +=
              "{\"op\":\"spread\",\"seeds\":[oops],\"id\":" +
              std::to_string(id) + "}\n";
          break;
      }
    }
  }
  // Reference bytes from the single-connection stream path.
  std::vector<std::string> expected(kClients);
  for (int c = 0; c < kClients; ++c) {
    expected[c] = ServeOnce(&engine, streams[c]);
  }

  for (const uint32_t threads : {1u, 8u}) {
    SetGlobalThreads(threads);
    std::promise<uint16_t> port_promise;
    std::future<uint16_t> port_future = port_promise.get_future();
    ServeOptions options;
    options.max_connections = kClients;
    options.on_listening = [&](uint16_t port) {
      port_promise.set_value(port);
    };
    std::thread server([&] {
      const Status status = ServeTcp(&engine, /*port=*/0, options);
      SOI_CHECK(status.ok());
    });
    const uint16_t port = port_future.get();

    std::vector<std::string> got(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        const int fd = tcp::Connect(port);
        // Fully pipelined: the whole stream goes out before any read.
        tcp::WriteAll(fd, streams[c]);
        ::shutdown(fd, SHUT_WR);
        got[c] = tcp::ReadUntilEof(fd);
        ::close(fd);
      });
    }
    for (auto& t : clients) t.join();
    server.join();
    for (int c = 0; c < kClients; ++c) {
      EXPECT_EQ(got[c], expected[c])
          << "client " << c << " at threads=" << threads;
    }
  }
  SetGlobalThreads(0);
}

// Fuzz-ish corpus over a real socket: torn lines, pipelined half-writes,
// binary garbage, and oversized lines. The connection must survive all of
// it and answer every non-blank line, in order.
TEST(ServeTcpTest, SurvivesTornLinesGarbageAndOversizedLines) {
  Engine engine = MakeEngine(PaperExampleGraph());
  std::promise<uint16_t> port_promise;
  std::future<uint16_t> port_future = port_promise.get_future();
  ServeOptions options;
  options.max_connections = 1;
  options.max_line_bytes = 128;
  options.on_listening = [&](uint16_t port) { port_promise.set_value(port); };
  std::thread server([&] {
    const Status status = ServeTcp(&engine, /*port=*/0, options);
    SOI_CHECK(status.ok());
  });
  const int fd = tcp::Connect(port_future.get());

  const auto pause = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  };
  // 1: a request torn across two writes, split mid-keyword.
  tcp::WriteAll(fd, "{\"op\":\"spr");
  pause();
  tcp::WriteAll(fd, "ead\",\"seeds\":[4],\"id\":1}\n");
  // 2 + 3: two requests in one write, the second torn mid-line; its tail
  // shares a write with binary garbage (4).
  tcp::WriteAll(fd,
                "{\"op\":\"spread\",\"seeds\":[4],\"id\":2}\n"
                "{\"op\":\"cascade\",\"seeds\":[4],\"wor");
  pause();
  static constexpr char kTail[] = "ld\":0,\"id\":3}\n\x00\x01\xff\xfe\n";
  tcp::WriteAll(fd, std::string(kTail, sizeof(kTail) - 1));
  // 5: an oversized line (beyond max_line_bytes=128), then 6: recovery.
  std::string giant = "{\"id\":5,\"pad\":\"";
  giant.append(300, 'y');
  giant += "\"}\n";
  tcp::WriteAll(fd, giant);
  tcp::WriteAll(fd, "{\"op\":\"spread\",\"seeds\":[4],\"id\":6}\n");
  ::shutdown(fd, SHUT_WR);
  const std::vector<std::string> lines =
      SplitLines(tcp::ReadUntilEof(fd));
  ::close(fd);
  server.join();

  ASSERT_EQ(lines.size(), 6u);
  EXPECT_EQ(lines[0].rfind("{\"id\":1,\"status\":\"ok\"", 0), 0u);
  EXPECT_EQ(lines[1].rfind("{\"id\":2,\"status\":\"ok\"", 0), 0u);
  EXPECT_EQ(lines[2].rfind("{\"id\":3,\"status\":\"ok\"", 0), 0u);
  EXPECT_EQ(lines[3].rfind("{\"id\":-1,\"status\":\"invalid_argument\"", 0),
            0u)
      << lines[3];
  EXPECT_EQ(lines[4].rfind("{\"id\":5,\"status\":\"invalid_argument\"", 0),
            0u)
      << lines[4];
  EXPECT_NE(lines[4].find("max_line_bytes=128"), std::string::npos);
  EXPECT_EQ(lines[5].rfind("{\"id\":6,\"status\":\"ok\"", 0), 0u);
}

// Cross-connection batching with a window: requests from separate
// connections arriving inside the window coalesce into one engine batch
// (visible via the serve/batch_size histogram) and still demux correctly.
TEST(ServeTcpTest, BatchWindowCoalescesAcrossConnections) {
  Engine engine = MakeEngine(PaperExampleGraph());
  std::promise<uint16_t> port_promise;
  std::future<uint16_t> port_future = port_promise.get_future();
  ServeOptions options;
  options.max_connections = 2;
  options.batch_window_us = 50000;  // 50ms: generous on a loaded CI box
  options.on_listening = [&](uint16_t port) { port_promise.set_value(port); };
  std::thread server([&] {
    const Status status = ServeTcp(&engine, /*port=*/0, options);
    SOI_CHECK(status.ok());
  });
  const uint16_t port = port_future.get();
  std::vector<std::string> got(2);
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      const int fd = tcp::Connect(port);
      tcp::WriteAll(fd, "{\"op\":\"spread\",\"seeds\":[4],\"id\":" +
                            std::to_string(c) + "}\n");
      ::shutdown(fd, SHUT_WR);
      got[c] = tcp::ReadUntilEof(fd);
      ::close(fd);
    });
  }
  for (auto& t : clients) t.join();
  server.join();
  for (int c = 0; c < 2; ++c) {
    EXPECT_EQ(got[c].rfind("{\"id\":" + std::to_string(c) + ",\"status\":"
                           "\"ok\"",
                           0),
              0u)
        << got[c];
  }
}

// ---------------------------------------------------------------------------
// Updates on the data plane: a dynamic engine's updates run on the event
// loop's writer thread, the sending connection is parked, and every other
// connection keeps being served (DESIGN §16.6).
// ---------------------------------------------------------------------------

namespace tcp {

// Reads one '\n'-terminated line (without the '\n'), buffering the excess
// in `*pending`. Returns false on EOF before a full line.
bool ReadLine(int fd, std::string* pending, std::string* line) {
  while (true) {
    const size_t nl = pending->find('\n');
    if (nl != std::string::npos) {
      *line = pending->substr(0, nl);
      pending->erase(0, nl + 1);
      return true;
    }
    char buf[4096];
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) return false;
    pending->append(buf, static_cast<size_t>(n));
  }
}

// True when `fd` has bytes (or EOF) to read right now.
bool ReadableNow(int fd) {
  struct pollfd pfd{fd, POLLIN, 0};
  return ::poll(&pfd, 1, /*timeout_ms=*/0) > 0;
}

}  // namespace tcp

std::string UpdateLine(int64_t id, const std::vector<GraphUpdate>& ops) {
  std::string line = "{\"op\":\"update\",\"id\":" + std::to_string(id) +
                     ",\"ops\":[";
  for (size_t i = 0; i < ops.size(); ++i) {
    const GraphUpdate& op = ops[i];
    if (i > 0) line += ",";
    const char* kind = op.kind == UpdateKind::kEdgeInsert   ? "insert"
                       : op.kind == UpdateKind::kEdgeDelete ? "delete"
                                                            : "prob";
    line += std::string("{\"op\":\"") + kind +
            "\",\"src\":" + std::to_string(op.src) +
            ",\"dst\":" + std::to_string(op.dst);
    if (op.kind != UpdateKind::kEdgeDelete) {
      line += ",\"prob\":" + std::to_string(op.prob);
    }
    line += "}";
  }
  return line + "]}\n";
}

std::string SpreadLine(int64_t id, NodeId seed) {
  return "{\"op\":\"spread\",\"seeds\":[" + std::to_string(seed) +
         "],\"id\":" + std::to_string(id) + "}\n";
}

// The graph with `ops` applied, as a fresh build would see it.
ProbGraph Apply(const ProbGraph& graph, const std::vector<GraphUpdate>& ops) {
  DynamicGraph dynamic = DynamicGraph::FromGraph(graph);
  for (const GraphUpdate& op : ops) SOI_CHECK(dynamic.Apply(op).ok());
  auto materialized = dynamic.Materialize();
  SOI_CHECK(materialized.ok());
  return std::move(materialized).value();
}

struct TcpServer {
  std::thread thread;
  uint16_t port = 0;
  Status status = Status::OK();
};

// Starts ServeTcp over `engine` or `handle` on an ephemeral port.
void StartTcp(Engine* engine, const EngineHandle* handle,
              ServeOptions options, TcpServer* server) {
  std::promise<uint16_t> port_promise;
  std::future<uint16_t> port_future = port_promise.get_future();
  options.on_listening = [&](uint16_t port) { port_promise.set_value(port); };
  server->thread = std::thread([engine, handle, options, server] {
    server->status = engine != nullptr ? ServeTcp(engine, 0, options)
                                       : ServeTcp(handle, 0, options);
  });
  server->port = port_future.get();
}

// A read on connection B is answered while connection A's large update
// (all 64 worlds re-derived) is still in flight. An update run on the loop
// thread would hold B's read behind it, so A's response would always
// arrive first. The writer's update takes no admission slot, so B's reads
// are admitted even at max_in_flight = 1.
void ExpectReadsFlowDuringUpdate(uint32_t max_in_flight) {
  constexpr NodeId kN = 6000;
  const ProbGraph graph = RandomGraph(kN, 24000, /*seed=*/31);
  EngineOptions options;
  options.index.num_worlds = 64;
  options.max_in_flight = max_in_flight;
  auto engine = Engine::CreateDynamic(graph, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // Near-certain inserts from many sources: every world changes.
  std::vector<GraphUpdate> ops;
  DynamicGraph shadow = DynamicGraph::FromGraph(graph);
  for (NodeId u = 0; ops.size() < 48; u += 7) {
    const GraphUpdate op{UpdateKind::kEdgeInsert, u, (u + 1013) % kN, 0.95};
    if (shadow.Apply(op).ok()) ops.push_back(op);
  }

  ServeOptions serve;
  serve.max_connections = 2;
  TcpServer server;
  StartTcp(&*engine, nullptr, serve, &server);
  const int a = tcp::Connect(server.port);
  const int b = tcp::Connect(server.port);
  tcp::WriteAll(a, UpdateLine(1, ops));

  uint32_t answered_during_update = 0;
  std::string b_pending, line;
  for (int64_t id = 2; !tcp::ReadableNow(a); ++id) {
    tcp::WriteAll(b, SpreadLine(id, static_cast<NodeId>(id % kN)));
    ASSERT_TRUE(tcp::ReadLine(b, &b_pending, &line));
    EXPECT_EQ(line.rfind("{\"id\":" + std::to_string(id) + ",\"status\":\"ok\"",
                         0),
              0u)
        << line;
    // Count the answer only if A's response had not arrived by then.
    if (!tcp::ReadableNow(a)) ++answered_during_update;
  }
  std::string a_pending;
  ASSERT_TRUE(tcp::ReadLine(a, &a_pending, &line));
  EXPECT_EQ(line.rfind("{\"id\":1,\"status\":\"ok\",\"op\":\"update\","
                       "\"applied\":48,\"affected_worlds\":64",
                       0),
            0u)
      << line;
  EXPECT_GE(answered_during_update, 1u);
  ::shutdown(a, SHUT_WR);
  ::shutdown(b, SHUT_WR);
  EXPECT_EQ(tcp::ReadUntilEof(a), "");
  EXPECT_EQ(tcp::ReadUntilEof(b), "");
  ::close(a);
  ::close(b);
  server.thread.join();
  EXPECT_TRUE(server.status.ok()) << server.status.ToString();
  EXPECT_EQ(engine->drift(), 48u);
  EXPECT_EQ(engine->in_flight(), 0u);
}

TEST(DynamicServeTest, ReadsFlowWhileAnotherConnectionsUpdateIsInFlight) {
  ExpectReadsFlowDuringUpdate(/*max_in_flight=*/4);
}

TEST(DynamicServeTest, ReadsAreAdmittedAtMaxInFlightOneDuringAnUpdate) {
  ExpectReadsFlowDuringUpdate(/*max_in_flight=*/1);
}

// `spread; update; spread` pipelined on one connection (and in one engine
// batch): the first read answers on the old graph, the second on the new.
TEST(DynamicServeTest, PipelinedReadUpdateReadAnswersInRequestOrder) {
  constexpr NodeId kN = 40;
  const ProbGraph graph = RingGraph(kN);
  EngineOptions options;
  options.index.num_worlds = 16;
  const std::vector<GraphUpdate> ops = {
      GraphUpdate{UpdateKind::kEdgeInsert, 0, 20, 0.9}};
  auto before = Engine::CreateDynamic(graph, options);
  auto after = Engine::CreateDynamic(Apply(graph, ops), options);
  ASSERT_TRUE(before.ok() && after.ok());
  Request spread;
  spread.payload = SpreadRequest{{0}};
  const std::string want_old = FormatResponseLine(1, before->Run(spread));
  const std::string want_new = FormatResponseLine(3, after->Run(spread));
  ASSERT_NE(want_old.substr(6), want_new.substr(6));  // the update shows

  // Over TCP, through the writer thread.
  auto served = Engine::CreateDynamic(graph, options);
  ASSERT_TRUE(served.ok());
  ServeOptions serve;
  serve.max_connections = 1;
  TcpServer server;
  StartTcp(&*served, nullptr, serve, &server);
  const int fd = tcp::Connect(server.port);
  tcp::WriteAll(fd, SpreadLine(1, 0) + UpdateLine(2, ops) + SpreadLine(3, 0));
  ::shutdown(fd, SHUT_WR);
  const std::vector<std::string> lines = SplitLines(tcp::ReadUntilEof(fd));
  ::close(fd);
  server.thread.join();
  ASSERT_TRUE(server.status.ok()) << server.status.ToString();
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0] + "\n", want_old);
  EXPECT_EQ(lines[1].rfind("{\"id\":2,\"status\":\"ok\",\"op\":\"update\"", 0),
            0u)
      << lines[1];
  EXPECT_EQ(lines[2] + "\n", want_new);

  // The same three requests as one engine batch.
  auto batched = Engine::CreateDynamic(graph, options);
  ASSERT_TRUE(batched.ok());
  Request update;
  update.payload = UpdateRequest{ops};
  const std::vector<Request> batch = {spread, update, spread};
  const auto results = batched->RunBatch(batch);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(FormatResponseLine(1, (*results)[0]), want_old);
  ASSERT_TRUE((*results)[1].ok());
  EXPECT_EQ(FormatResponseLine(3, (*results)[2]), want_new);
}

// The blocking driver (`serve --stdin < file`) and the epoll driver (a
// pipe) send updates through the same writer path: byte-identical output.
TEST(DynamicServeTest, FileAndPipeStdinAnswerUpdatesIdentically) {
  const ProbGraph graph = RingGraph(40);
  EngineOptions options;
  options.index.num_worlds = 16;
  const std::string input =
      SpreadLine(1, 0) +
      UpdateLine(2, {GraphUpdate{UpdateKind::kEdgeInsert, 0, 3, 0.5},
                     GraphUpdate{UpdateKind::kEdgeInsert, 5, 8, 0.4}}) +
      "not json\n" + SpreadLine(3, 0) +
      UpdateLine(4, {GraphUpdate{UpdateKind::kEdgeDelete, 9, 12, 0}}) +
      UpdateLine(5, {GraphUpdate{UpdateKind::kProbUpdate, 0, 3, 0.25}}) +
      "{\"op\":\"seed_select\",\"k\":2,\"id\":6}\n" +
      UpdateLine(7, {GraphUpdate{UpdateKind::kEdgeDelete, 5, 8, 0}}) +
      "{\"op\":\"seed_select\",\"k\":2,\"id\":8}\n" +
      "{\"op\":\"typical\",\"seeds\":[0],\"id\":9}\n" + SpreadLine(10, 0);

  auto piped_engine = Engine::CreateDynamic(graph, options);
  ASSERT_TRUE(piped_engine.ok());
  const std::string piped = ServeOnce(&*piped_engine, input);

  const std::string in_path = TestTempPath("dynamic.requests.jsonl");
  const std::string out_path = TestTempPath("dynamic.responses.jsonl");
  {
    std::FILE* f = std::fopen(in_path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(input.data(), 1, input.size(), f), input.size());
    std::fclose(f);
  }
  auto file_engine = Engine::CreateDynamic(graph, options);
  ASSERT_TRUE(file_engine.ok());
  const int in_fd = ::open(in_path.c_str(), O_RDONLY);
  const int out_fd = ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                            0644);
  ASSERT_GE(in_fd, 0);
  ASSERT_GE(out_fd, 0);
  const Status status = ServeStream(&*file_engine, in_fd, out_fd);
  ::close(in_fd);
  ::close(out_fd);
  ASSERT_TRUE(status.ok()) << status.ToString();
  const int read_fd = ::open(out_path.c_str(), O_RDONLY);
  const std::string from_file = tcp::ReadUntilEof(read_fd);
  ::close(read_fd);

  EXPECT_EQ(piped, from_file);
  const std::vector<std::string> lines = SplitLines(piped);
  ASSERT_EQ(lines.size(), 11u);
  EXPECT_NE(lines[2].find("\"status\":\"invalid_argument\""),
            std::string::npos)  // the malformed line, in order
      << lines[2];
  EXPECT_NE(lines[4].find("\"status\":\"invalid_argument\""),
            std::string::npos)  // deleting an arc that does not exist
      << lines[4];
  EXPECT_EQ(piped_engine->fingerprint(), file_engine->fingerprint());
  EXPECT_EQ(piped_engine->drift(), 4u);
}

// The client side of a pipelined update stream: `ops` as update requests,
// each followed by a spread, all written before any answer is read.
// Appends every acknowledged update to `acked` and, once the stream is
// answered, stores in `*swaps_at_end` how many swaps had landed by then.
void StreamPipelinedUpdates(uint16_t port, int64_t first_id,
                            const std::vector<GraphUpdate>& ops,
                            const std::atomic<uint32_t>& swaps,
                            std::vector<GraphUpdate>* acked,
                            uint32_t* swaps_at_end) {
  const int fd = tcp::Connect(port);
  std::string requests;
  for (size_t i = 0; i < ops.size(); ++i) {
    const int64_t id = first_id + 2 * static_cast<int64_t>(i);
    requests += UpdateLine(id, {ops[i]}) + SpreadLine(id + 1, ops[i].src);
  }
  tcp::WriteAll(fd, requests);
  std::string pending, line;
  for (size_t i = 0; i < ops.size(); ++i) {
    const int64_t id = first_id + 2 * static_cast<int64_t>(i);
    ASSERT_TRUE(tcp::ReadLine(fd, &pending, &line));
    ASSERT_EQ(
        line.rfind("{\"id\":" + std::to_string(id) + ",\"status\":\"ok\"", 0),
        0u)
        << line;
    acked->push_back(ops[i]);
    ASSERT_TRUE(tcp::ReadLine(fd, &pending, &line));
    EXPECT_EQ(line.rfind("{\"id\":" + std::to_string(id + 1) +
                             ",\"status\":\"ok\"",
                         0),
              0u)
        << line;
  }
  *swaps_at_end = swaps.load();
  ::shutdown(fd, SHUT_WR);
  EXPECT_EQ(tcp::ReadUntilEof(fd), "");
  ::close(fd);
}

// The drift rebuild under live TCP traffic: two connections pipeline
// disjoint updates and reads through a handle whose DriftRebuilder swaps
// in rebuilt engines. The writer never goes idle on its own while both
// streams are queued, so swaps land only because new updates are held
// back for the owed poll; they must land before either stream is done,
// and no acknowledged update may be lost to one.
TEST(DynamicServeTest, DriftRebuildUnderTcpLosesNoAcknowledgedUpdate) {
  constexpr NodeId kN = 40;
  const ProbGraph graph = RingGraph(kN);
  EngineOptions options;
  options.index.num_worlds = 12;
  options.drift_rebuild_threshold = 4;
  auto first = Engine::CreateDynamic(graph, options);
  ASSERT_TRUE(first.ok());
  EngineHandle handle(std::move(*first));
  DriftRebuilder rebuilder(&handle, options);
  std::atomic<uint32_t> swaps{0};
  std::atomic<bool> poll_failed{false};

  ServeOptions serve;
  serve.max_connections = 2;
  serve.poll = [&] {
    const DriftRebuilder::Event event = rebuilder.Poll();
    if (!event.status.ok()) poll_failed.store(true);
    if (event.swapped) swaps.fetch_add(1);
  };
  TcpServer server;
  StartTcp(nullptr, &handle, serve, &server);

  // Connection c owns the reserved arcs (u, u+3) with u % 2 == c; each
  // update toggles one of them, so the two streams never conflict.
  constexpr int kUpdatesPerConn = 400;
  std::vector<std::vector<GraphUpdate>> ops(2), acked(2);
  for (int c = 0; c < 2; ++c) {
    std::vector<bool> present(kN, false);
    for (int i = 0; i < kUpdatesPerConn; ++i) {
      const NodeId u = static_cast<NodeId>((2 * i + c) % kN);
      ops[c].push_back(GraphUpdate{present[u] ? UpdateKind::kEdgeDelete
                                              : UpdateKind::kEdgeInsert,
                                   u, (u + 3) % kN, present[u] ? 0.0 : 0.3});
      present[u] = !present[u];
    }
  }
  uint32_t swaps_at_end[2] = {0, 0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      StreamPipelinedUpdates(server.port, c * 10000, ops[c], swaps, &acked[c],
                             &swaps_at_end[c]);
    });
  }
  for (auto& t : clients) t.join();
  server.thread.join();
  ASSERT_TRUE(server.status.ok()) << server.status.ToString();
  EXPECT_FALSE(poll_failed.load());
  EXPECT_GE(std::min(swaps_at_end[0], swaps_at_end[1]), 1u)
      << "no swap landed while both update streams were running";
  EXPECT_EQ(handle.epoch(), swaps.load());

  std::vector<GraphUpdate> all = acked[0];
  all.insert(all.end(), acked[1].begin(), acked[1].end());
  ASSERT_EQ(all.size(), 2u * kUpdatesPerConn);
  auto reference = Engine::CreateDynamic(Apply(graph, all), options);
  ASSERT_TRUE(reference.ok());
  const std::shared_ptr<Engine> served = handle.Acquire();
  EXPECT_EQ(served->fingerprint(), reference->fingerprint());
  EXPECT_TRUE(SameWorlds(served->index(), reference->index()));
}

// Two connections pipeline `update; update; spread; ...` at batch_max 2.
// Both updates can complete in one eventfd drain; resuming the first
// connection then flushes, which parks the second on its next update
// before the loop comes to parse the second's buffer. A parked connection
// must parse nothing (its slots must not grow under the writer), and every
// answer still arrives in request order.
TEST(DynamicServeTest, ConnectionReparkedDuringResumeParsesNothing) {
  constexpr NodeId kN = 40;
  const ProbGraph graph = RingGraph(kN);
  EngineOptions options;
  options.index.num_worlds = 8;
  auto engine = Engine::CreateDynamic(graph, options);
  ASSERT_TRUE(engine.ok());
  ServeOptions serve;
  serve.max_connections = 2;
  serve.batch_max = 2;
  TcpServer server;
  StartTcp(&*engine, nullptr, serve, &server);

  constexpr int kRounds = 60;
  std::vector<std::vector<GraphUpdate>> acked(2);
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      const int fd = tcp::Connect(server.port);
      std::string requests;
      std::vector<int64_t> ids;
      std::vector<GraphUpdate> ops;
      for (int r = 0; r < kRounds; ++r) {
        // Two arcs per round, inserted on even rounds and deleted on odd
        // ones; the connections own disjoint sources.
        const NodeId u = static_cast<NodeId>((4 * (r / 2) + 2 * c) % kN);
        for (NodeId v : {u, static_cast<NodeId>(u + 1)}) {
          const GraphUpdate op{r % 2 == 0 ? UpdateKind::kEdgeInsert
                                          : UpdateKind::kEdgeDelete,
                               v, (v + 5) % kN, r % 2 == 0 ? 0.4 : 0.0};
          const int64_t id = c * 10000 + static_cast<int64_t>(ids.size());
          requests += UpdateLine(id, {op});
          ids.push_back(id);
          ops.push_back(op);
        }
        for (int k = 0; k < 3; ++k) {
          const int64_t id = c * 10000 + static_cast<int64_t>(ids.size());
          requests += SpreadLine(id, u);
          ids.push_back(id);
        }
      }
      tcp::WriteAll(fd, requests);
      ::shutdown(fd, SHUT_WR);
      const std::vector<std::string> lines =
          SplitLines(tcp::ReadUntilEof(fd));
      ::close(fd);
      ASSERT_EQ(lines.size(), ids.size());
      for (size_t i = 0; i < ids.size(); ++i) {
        EXPECT_EQ(lines[i].rfind("{\"id\":" + std::to_string(ids[i]) +
                                     ",\"status\":\"ok\"",
                                 0),
                  0u)
            << lines[i];
      }
      acked[c] = ops;
    });
  }
  for (auto& t : clients) t.join();
  server.thread.join();
  ASSERT_TRUE(server.status.ok()) << server.status.ToString();
  std::vector<GraphUpdate> all = acked[0];
  all.insert(all.end(), acked[1].begin(), acked[1].end());
  ASSERT_EQ(all.size(), 2u * 2 * kRounds);
  auto reference = Engine::CreateDynamic(Apply(graph, all), options);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(engine->fingerprint(), reference->fingerprint());
  EXPECT_EQ(engine->drift(), all.size());
}

// A client that hangs up right after sending an update: the update still
// applies, and the connection is reaped only once the writer is done.
TEST(DynamicServeTest, ClientGoneDuringItsUpdateIsReapedAfterTheWriter) {
  const ProbGraph graph = RingGraph(40);
  EngineOptions options;
  options.index.num_worlds = 16;
  auto engine = Engine::CreateDynamic(graph, options);
  ASSERT_TRUE(engine.ok());
  ServeOptions serve;
  serve.max_connections = 1;
  TcpServer server;
  StartTcp(&*engine, nullptr, serve, &server);
  const int fd = tcp::Connect(server.port);
  const std::vector<GraphUpdate> ops = {
      GraphUpdate{UpdateKind::kEdgeInsert, 0, 3, 0.5},
      GraphUpdate{UpdateKind::kEdgeInsert, 1, 4, 0.5}};
  tcp::WriteAll(fd, UpdateLine(1, ops) + SpreadLine(2, 0));
  ::close(fd);
  server.thread.join();
  EXPECT_TRUE(server.status.ok()) << server.status.ToString();
  EXPECT_EQ(engine->drift(), 2u);
}

}  // namespace
}  // namespace soi::service
