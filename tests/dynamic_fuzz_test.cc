// Differential update-fuzz harness for the incremental maintenance layer
// (src/dynamic/ + service::Engine dynamic mode).
//
// The contract under test is *exact rebuild equivalence*: after any
// sequence of successful update batches, the incrementally maintained
// engine must be indistinguishable — every world's condensation, graph
// fingerprint, and every query answer — from a fresh CreateDynamic engine
// built from the updated graph with the same options and seed.
//
// The harness drives >= 1000 randomized insert / delete / prob-update ops
// per model through the engine in small batches, interleaved with typical /
// cascade / spread / seed_select queries (whose wire-formatted responses
// form a transcript), and at every ~100-op checkpoint rebuilds from scratch
// and byte-compares. The whole run executes twice, at 1 and at 8 threads;
// transcripts and final index worlds must match exactly (the runtime
// determinism contract extends to the update path).

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dynamic/dynamic_graph.h"
#include "dynamic/dynamic_index.h"
#include "graph/prob_graph.h"
#include "index/cascade_index.h"
#include "runtime/parallel_for.h"
#include "service/engine.h"
#include "service/protocol.h"
#include "util/rng.h"

namespace soi::service {
namespace {

constexpr uint32_t kNodes = 40;
constexpr uint32_t kWorlds = 32;
constexpr uint64_t kEngineSeed = 17;
constexpr uint32_t kMinOps = 1000;
constexpr uint32_t kCheckpointEvery = 100;
// Small enough that even ~50 in-edges stay within the LT weight budget.
constexpr double kMinProb = 0.002;
constexpr double kMaxProb = 0.02;

// Generates valid-by-construction updates against a shadow copy of the
// edge set (so every op the harness sends is expected to succeed, and a
// failure is a real bug, not a generator artifact). LT in-weight budgets
// are tracked per node and respected for both models so the same op stream
// shape works for either.
class UpdateStream {
 public:
  explicit UpdateStream(uint64_t seed) : rng_(seed) {}

  void SeedEdge(NodeId u, NodeId v, double p) {
    edges_[{u, v}] = p;
    in_weight_[v] += p;
  }

  GraphUpdate Next() {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const uint32_t dice = rng_.NextBounded(10);
      if (dice < 4 || edges_.empty()) {
        const NodeId u = static_cast<NodeId>(rng_.NextBounded(kNodes));
        const NodeId v = static_cast<NodeId>(rng_.NextBounded(kNodes));
        const double p = NextProb();
        if (u == v || edges_.count({u, v}) != 0) continue;
        if (in_weight_[v] + p > 0.98) continue;
        SeedEdge(u, v, p);
        return GraphUpdate{UpdateKind::kEdgeInsert, u, v, p};
      }
      auto it = edges_.begin();
      std::advance(it, rng_.NextBounded(static_cast<uint32_t>(edges_.size())));
      const auto [u, v] = it->first;
      if (dice < 7) {
        in_weight_[v] -= it->second;
        edges_.erase(it);
        return GraphUpdate{UpdateKind::kEdgeDelete, u, v, 0.0};
      }
      const double p = NextProb();
      if (in_weight_[v] - it->second + p > 0.98) continue;
      in_weight_[v] += p - it->second;
      it->second = p;
      return GraphUpdate{UpdateKind::kProbUpdate, u, v, p};
    }
    SOI_CHECK(false);  // generator starved — shrink kNodes or probs
    return {};
  }

 private:
  double NextProb() {
    return kMinProb + (kMaxProb - kMinProb) * rng_.NextDouble();
  }

  Rng rng_;
  std::map<std::pair<NodeId, NodeId>, double> edges_;
  std::map<NodeId, double> in_weight_;
};

// A sparse deterministic base graph, LT-valid by construction.
ProbGraph BaseGraph(UpdateStream* stream) {
  Rng rng(99);
  ProbGraphBuilder b(kNodes);
  std::map<std::pair<NodeId, NodeId>, bool> seen;
  uint32_t added = 0;
  while (added < 150) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(kNodes));
    const NodeId v = static_cast<NodeId>(rng.NextBounded(kNodes));
    if (u == v || seen.count({u, v}) != 0) continue;
    const double p = kMinProb + (kMaxProb - kMinProb) * rng.NextDouble();
    SOI_CHECK(b.AddEdge(u, v, p).ok());
    seen[{u, v}] = true;
    stream->SeedEdge(u, v, p);
    ++added;
  }
  auto g = b.Build();
  SOI_CHECK(g.ok());
  return std::move(g).value();
}

EngineOptions DynamicOptions(PropagationModel model) {
  EngineOptions options;
  options.index.num_worlds = kWorlds;
  options.index.model = model;
  options.seed = kEngineSeed;
  options.max_batch = 64;
  return options;
}

std::string Transcribe(int64_t id, const Result<Response>& result) {
  return FormatResponseLine(id, result);
}

// Runs queries whose answers depend on every layer the updates patch:
// condensations (cascade), closures / spread accumulators (spread), and
// the typical-cascade table + cover engine (typical, seed_select).
std::string ProbeQueries(Engine* engine, uint64_t salt) {
  Rng rng(salt);
  std::vector<Request> batch;
  Request typical;
  typical.payload = TypicalCascadeRequest{
      {static_cast<NodeId>(rng.NextBounded(kNodes))}, false};
  batch.push_back(typical);
  Request cascade;
  cascade.payload =
      CascadeRequest{{static_cast<NodeId>(rng.NextBounded(kNodes))},
                     static_cast<uint32_t>(rng.NextBounded(kWorlds))};
  batch.push_back(cascade);
  Request spread;
  spread.payload =
      SpreadRequest{{static_cast<NodeId>(rng.NextBounded(kNodes)),
                     static_cast<NodeId>(rng.NextBounded(kNodes))}};
  batch.push_back(spread);
  Request select;
  select.payload = SeedSelectRequest{3, "tc"};
  batch.push_back(select);

  auto responses = engine->RunBatch(batch);
  std::string out;
  if (!responses.ok()) {
    out += "batch-error: " + responses.status().ToString() + "\n";
    return out;
  }
  for (size_t i = 0; i < responses->size(); ++i) {
    out += Transcribe(static_cast<int64_t>(i), (*responses)[i]);
  }
  return out;
}

// Owned copies of every world's condensation, compared with
// Condensation::operator== (the whole of the index a rebuild must match).
std::vector<Condensation> Worlds(const CascadeIndex& index) {
  std::vector<Condensation> worlds;
  for (uint32_t w = 0; w < index.num_worlds(); ++w) {
    worlds.push_back(index.world(w));
  }
  return worlds;
}

struct FuzzRun {
  std::string transcript;    // every interleaved query response, in order
  std::vector<Condensation> final_worlds;  // the index after the last op
  uint64_t fingerprint = 0;  // graph fingerprint after the last op
  uint32_t applied = 0;
};

// The core differential loop. Asserts rebuild equivalence at every
// checkpoint; returns the transcript for cross-thread-count comparison.
FuzzRun RunFuzz(PropagationModel model, uint32_t threads) {
  SetGlobalThreads(threads);
  UpdateStream stream(model == PropagationModel::kLinearThreshold ? 7 : 5);
  ProbGraph base = BaseGraph(&stream);
  const EngineOptions options = DynamicOptions(model);

  auto engine = Engine::CreateDynamic(std::move(base), options);
  SOI_CHECK(engine.ok());

  FuzzRun run;
  Rng shape_rng(model == PropagationModel::kLinearThreshold ? 71 : 51);
  uint32_t next_checkpoint = kCheckpointEvery;
  uint64_t iteration = 0;
  while (run.applied < kMinOps) {
    ++iteration;
    // One update batch of 1..8 ops...
    const uint32_t batch_size = 1 + shape_rng.NextBounded(8);
    std::vector<GraphUpdate> ops;
    ops.reserve(batch_size);
    for (uint32_t i = 0; i < batch_size; ++i) ops.push_back(stream.Next());
    Request update;
    update.payload = UpdateRequest{ops};
    auto response = engine->Run(update);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    if (!response.ok()) break;
    run.applied += static_cast<uint32_t>(ops.size());
    run.transcript +=
        Transcribe(static_cast<int64_t>(iteration), response);

    // ...interleaved with queries (the cheap ones every iteration, the
    // full typical-sweep-backed seed_select every 16th).
    if (iteration % 16 == 0) {
      run.transcript += ProbeQueries(&*engine, 1000 + iteration);
    } else {
      Request spread;
      spread.payload = SpreadRequest{
          {static_cast<NodeId>(shape_rng.NextBounded(kNodes))}};
      run.transcript += Transcribe(-1, engine->Run(spread));
    }

    if (run.applied < next_checkpoint && run.applied < kMinOps) continue;
    next_checkpoint += kCheckpointEvery;

    // Checkpoint: a from-scratch build on the updated graph must agree
    // byte-for-byte — index, fingerprint, and probe answers.
    auto state = engine->CaptureDynamicState();
    EXPECT_TRUE(state.ok()) << state.status().ToString();
    if (!state.ok()) break;
    const uint64_t live_fp = engine->fingerprint();
    EXPECT_EQ(live_fp, GraphFingerprint(state->graph));
    auto fresh = Engine::CreateDynamic(std::move(state->graph), options);
    EXPECT_TRUE(fresh.ok()) << fresh.status().ToString();
    if (!fresh.ok()) break;
    EXPECT_TRUE(SameWorlds(engine->index(), fresh->index()))
        << "index worlds diverged at op " << run.applied;
    EXPECT_EQ(live_fp, fresh->fingerprint());
    EXPECT_EQ(ProbeQueries(&*engine, 31 + run.applied),
              ProbeQueries(&*fresh, 31 + run.applied))
        << "query answers diverged at op " << run.applied;
  }

  run.final_worlds = Worlds(engine->index());
  run.fingerprint = engine->fingerprint();
  SetGlobalThreads(0);
  return run;
}

class DynamicFuzz : public ::testing::TestWithParam<PropagationModel> {};

TEST_P(DynamicFuzz, RebuildEquivalenceAndThreadCountInvariance) {
  const FuzzRun one = RunFuzz(GetParam(), 1);
  const FuzzRun eight = RunFuzz(GetParam(), 8);
  EXPECT_GE(one.applied, kMinOps);
  // The exact same run at 8 threads: byte-identical transcript and index.
  EXPECT_EQ(one.transcript, eight.transcript);
  EXPECT_TRUE(one.final_worlds == eight.final_worlds);
  EXPECT_EQ(one.fingerprint, eight.fingerprint);
}

INSTANTIATE_TEST_SUITE_P(
    Models, DynamicFuzz,
    ::testing::Values(PropagationModel::kIndependentCascade,
                      PropagationModel::kLinearThreshold),
    [](const ::testing::TestParamInfo<PropagationModel>& info) {
      return info.param == PropagationModel::kLinearThreshold ? "Lt" : "Ic";
    });

// The prepare/commit split under the same op stream, with the typical
// table materialized: a prepared batch leaves the served index and table
// untouched until its commit, the commit lands exactly where ApplyUpdates
// does, and a table built between prepare and commit is dropped rather
// than left stale. Records a transcript of every batch's stats and the
// table, which must match at 1 and 8 threads.
std::string RunPrepareCommit(PropagationModel model, uint32_t threads) {
  SetGlobalThreads(threads);
  UpdateStream stream(model == PropagationModel::kLinearThreshold ? 13 : 11);
  const ProbGraph base = BaseGraph(&stream);
  const EngineOptions options = DynamicOptions(model);
  auto split = DynamicIndex::Build(base, options.index, options.seed);
  auto whole = DynamicIndex::Build(base, options.index, options.seed);
  SOI_CHECK(split.ok() && whole.ok());
  SOI_CHECK(split->EnsureTypical().ok() && whole->EnsureTypical().ok());

  std::string transcript;
  uint32_t patched_batches = 0;  // rows recomputed by the prepare step
  Rng shape_rng(model == PropagationModel::kLinearThreshold ? 73 : 53);
  for (uint32_t applied = 0, batch = 0; applied < 400; ++batch) {
    std::vector<GraphUpdate> ops(1 + shape_rng.NextBounded(8));
    for (GraphUpdate& op : ops) op = stream.Next();
    applied += static_cast<uint32_t>(ops.size());

    const std::vector<Condensation> before = Worlds(split->index());
    const FlatSets typical_before = split->typical();
    // Every 8th batch: the table looked absent at prepare time (as when
    // EnsureTypical races the prepare); the commit must drop it.
    const bool racing_typical = batch % 8 == 7;
    auto prepared = split->PrepareUpdates(ops, !racing_typical);
    EXPECT_TRUE(prepared.ok()) << prepared.status().ToString();
    if (!prepared.ok()) break;
    EXPECT_TRUE(Worlds(split->index()) == before) << "batch " << batch;
    EXPECT_TRUE(split->has_typical());
    EXPECT_TRUE(split->typical() == typical_before) << "batch " << batch;
    const UpdateStats got = split->CommitUpdates(&*prepared);
    auto want = whole->ApplyUpdates(ops);
    EXPECT_TRUE(want.ok()) << want.status().ToString();
    if (!want.ok()) break;

    EXPECT_EQ(got.applied_ops, want->applied_ops);
    EXPECT_EQ(got.affected_worlds, want->affected_worlds);
    EXPECT_EQ(got.drift, want->drift);
    EXPECT_TRUE(SameWorlds(split->index(), whole->index()))
        << "batch " << batch;
    if (racing_typical && got.affected_worlds > 0) {
      EXPECT_FALSE(split->has_typical()) << "batch " << batch;
      EXPECT_EQ(got.affected_nodes, kNodes);
    } else {
      EXPECT_EQ(got.affected_nodes, want->affected_nodes);
      if (got.affected_nodes > 0 && got.affected_nodes < kNodes) {
        ++patched_batches;
      }
    }
    SOI_CHECK(split->EnsureTypical().ok() && whole->EnsureTypical().ok());
    EXPECT_TRUE(split->typical() == whole->typical()) << "batch " << batch;

    transcript += std::to_string(got.applied_ops) + " " +
                  std::to_string(got.affected_worlds) + " " +
                  std::to_string(got.affected_nodes) + " " +
                  std::to_string(got.drift) + ":";
    const FlatSets& table = split->typical();
    for (uint32_t v = 0; v < table.num_sets(); ++v) {
      for (const NodeId u : table.Set(v)) transcript += std::to_string(u) + ",";
      transcript += ";";
    }
    transcript += "\n";
  }
  EXPECT_GT(patched_batches, 0u);
  SetGlobalThreads(0);
  return transcript;
}

TEST_P(DynamicFuzz, PrepareCommitMatchesApplyAtEveryThreadCount) {
  const std::string one = RunPrepareCommit(GetParam(), 1);
  const std::string eight = RunPrepareCommit(GetParam(), 8);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, eight);
}

// Invalid ops must leave the engine untouched (batch atomicity seen from
// the service layer): a batch with a bad tail op changes nothing.
TEST(DynamicFuzzAtomicity, FailedBatchLeavesIndexByteIdentical) {
  UpdateStream stream(3);
  ProbGraph base = BaseGraph(&stream);
  auto engine = Engine::CreateDynamic(
      std::move(base), DynamicOptions(PropagationModel::kIndependentCascade));
  ASSERT_TRUE(engine.ok());
  const std::vector<Condensation> before = Worlds(engine->index());
  const uint64_t fp_before = engine->fingerprint();

  std::vector<GraphUpdate> ops;
  ops.push_back(stream.Next());
  ops.push_back(GraphUpdate{UpdateKind::kEdgeInsert, 0, 0, 0.5});  // self loop
  Request update;
  update.payload = UpdateRequest{ops};
  auto response = engine->Run(update);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(Worlds(engine->index()) == before);
  EXPECT_EQ(engine->fingerprint(), fp_before);
  EXPECT_EQ(engine->drift(), 0u);
}

}  // namespace
}  // namespace soi::service
