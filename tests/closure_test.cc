// Equivalence suite for the per-world closure cache (scc/closure.h,
// index/cascade_index.cc): the cache is a pure memoization, so every query
// and every downstream result must be byte-identical between the cached and
// the traversal path, across models, reduction settings, thread counts and
// budget decisions. Also unit-tests the closure build invariants directly.

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cascade/threshold.h"
#include "core/typical_cascade.h"
#include "gen/generators.h"
#include "graph/prob_assign.h"
#include "index/cascade_index.h"
#include "infmax/spread_oracle.h"
#include "runtime/parallel_for.h"
#include "scc/closure.h"
#include "scc/condensation.h"
#include "scc/transitive.h"
#include "util/packed_runs.h"
#include "util/rng.h"

namespace soi {
namespace {

// A directed graph with non-trivial SCCs and fan-out so worlds have both
// multi-node components and deep DAGs. LT additionally normalizes in-weights.
ProbGraph TestGraph(PropagationModel model) {
  Rng gen_rng(7);
  auto topo = GenerateRmat(7, 600, {}, &gen_rng);
  EXPECT_TRUE(topo.ok());
  Rng assign_rng(8);
  auto g = AssignUniform(*topo, &assign_rng, 0.05, 0.35);
  EXPECT_TRUE(g.ok());
  if (model == PropagationModel::kLinearThreshold) {
    auto lt = NormalizeLtWeights(*g, 0.9);
    EXPECT_TRUE(lt.ok());
    return std::move(lt).value();
  }
  return std::move(g).value();
}

CascadeIndex BuildIndex(const ProbGraph& g, PropagationModel model,
                        bool reduction, uint64_t budget_mb,
                        uint32_t worlds = 48, uint64_t seed = 11,
                        ClosureTierPolicy policy = ClosureTierPolicy::kAuto) {
  CascadeIndexOptions options;
  options.num_worlds = worlds;
  options.model = model;
  options.transitive_reduction = reduction;
  options.closure_budget_mb = budget_mb;
  options.tier_policy = policy;
  Rng rng(seed);
  auto index = CascadeIndex::Build(g, options, &rng);
  EXPECT_TRUE(index.ok());
  return std::move(index).value();
}

// ---------------------------------------------------------------------------
// Closure build invariants.
// ---------------------------------------------------------------------------

TEST(ClosureBuildTest, MatchesReachableComponentsOnSampledWorlds) {
  const ProbGraph g = TestGraph(PropagationModel::kIndependentCascade);
  const CascadeIndex index =
      BuildIndex(g, PropagationModel::kIndependentCascade, true, 0, 16);
  std::vector<uint32_t> stamp;
  std::vector<uint32_t> reached;
  for (uint32_t i = 0; i < index.num_worlds(); ++i) {
    const Condensation& cond = index.world(i);
    const ReachabilityClosure closure =
        BuildReachabilityClosure(cond, UINT64_MAX);
    ASSERT_EQ(closure.num_components(), cond.num_components());
    EXPECT_GT(closure.ApproxBytes(), 0u);
    stamp.assign(cond.num_components(), 0);
    uint32_t stamp_id = 0;
    for (uint32_t c = 0; c < cond.num_components(); ++c) {
      const auto comp_closure = closure.Closure(c);
      // Ascending, includes c, and identical to a fresh DFS.
      EXPECT_TRUE(std::is_sorted(comp_closure.begin(), comp_closure.end()));
      EXPECT_TRUE(std::binary_search(comp_closure.begin(), comp_closure.end(),
                                     c));
      reached.clear();
      ReachableComponents(cond, c, &stamp, ++stamp_id, &reached);
      std::sort(reached.begin(), reached.end());
      ASSERT_EQ(comp_closure.size(), reached.size());
      EXPECT_TRUE(std::equal(comp_closure.begin(), comp_closure.end(),
                             reached.begin()));
      // The materialized run is the sorted union of the closure's members.
      const auto run = closure.Cascade(c);
      EXPECT_TRUE(std::is_sorted(run.begin(), run.end()));
      uint64_t member_total = 0;
      for (uint32_t cc : comp_closure) member_total += cond.ComponentSize(cc);
      EXPECT_EQ(run.size(), member_total);
      EXPECT_EQ(closure.NodeCount(c), member_total);
      for (NodeId v : cond.ComponentMembers(c)) {
        EXPECT_TRUE(std::binary_search(run.begin(), run.end(), v));
      }
    }
  }
}

TEST(ClosureBuildTest, NodeCapBailsToEmptyClosure) {
  const ProbGraph g = TestGraph(PropagationModel::kIndependentCascade);
  const CascadeIndex index =
      BuildIndex(g, PropagationModel::kIndependentCascade, true, 0, 4);
  const Condensation& cond = index.world(0);
  ASSERT_GT(cond.num_components(), 1u);
  const ReachabilityClosure bailed = BuildReachabilityClosure(cond, 1);
  EXPECT_EQ(bailed.num_components(), 0u);
  EXPECT_TRUE(bailed.nodes.empty());
  // An exact cap (total run length) succeeds.
  const ReachabilityClosure full = BuildReachabilityClosure(cond, UINT64_MAX);
  const ReachabilityClosure at_cap =
      BuildReachabilityClosure(cond, full.nodes.size());
  EXPECT_EQ(at_cap.num_components(), cond.num_components());
  EXPECT_EQ(at_cap.nodes, full.nodes);
}

TEST(ClosureBuildTest, MergeComponentMemberRunsMatchesGatherSort) {
  const ProbGraph g = TestGraph(PropagationModel::kIndependentCascade);
  const CascadeIndex index =
      BuildIndex(g, PropagationModel::kIndependentCascade, true, 0, 4);
  const Condensation& cond = index.world(1);
  const ReachabilityClosure closure = BuildReachabilityClosure(cond, UINT64_MAX);
  RunMergeScratch scratch;
  for (uint32_t c = 0; c < cond.num_components(); ++c) {
    std::vector<NodeId> merged;
    MergeComponentMemberRuns(cond, closure.Closure(c), &scratch, &merged);
    std::vector<NodeId> gathered;
    for (uint32_t cc : closure.Closure(c)) {
      const auto m = cond.ComponentMembers(cc);
      gathered.insert(gathered.end(), m.begin(), m.end());
    }
    std::sort(gathered.begin(), gathered.end());
    EXPECT_EQ(merged, gathered);
  }
}

// ---------------------------------------------------------------------------
// Child-run reuse vs the from-scratch build.
// ---------------------------------------------------------------------------

// The from-scratch closure build that BuildReachabilityClosure replaced,
// kept as the byte-level oracle: per component, gather the whole closure by
// stamping every successor's closure, sort it, and k-way merge all member
// runs. Same cap rule: bail before appending a run that would exceed it.
ReachabilityClosure ReferenceClosure(const Condensation& cond,
                                     uint64_t max_total_nodes) {
  const uint32_t nc = cond.num_components();
  ReachabilityClosure out;
  out.comp_offsets.push_back(0);
  out.node_offsets.push_back(0);
  std::vector<uint32_t> stamp(nc, 0);
  std::vector<uint32_t> gather;
  RunMergeScratch scratch;
  for (uint32_t c = 0; c < nc; ++c) {
    const uint32_t id = c + 1;
    gather.assign(1, c);
    stamp[c] = id;
    uint64_t cascade_nodes = cond.ComponentSize(c);
    for (uint32_t s : cond.DagSuccessors(c)) {
      for (uint32_t x : out.Closure(s)) {
        if (stamp[x] != id) {
          stamp[x] = id;
          gather.push_back(x);
          cascade_nodes += cond.ComponentSize(x);
        }
      }
    }
    if (out.nodes.size() + cascade_nodes > max_total_nodes) {
      return ReachabilityClosure{};
    }
    std::sort(gather.begin(), gather.end());
    out.comps.insert(out.comps.end(), gather.begin(), gather.end());
    out.comp_offsets.push_back(out.comps.size());
    MergeComponentMemberRuns(cond, gather, &scratch, &out.nodes);
    out.node_offsets.push_back(out.nodes.size());
  }
  return out;
}

void ExpectSameClosure(const ReachabilityClosure& got,
                       const ReachabilityClosure& want) {
  EXPECT_EQ(got.comp_offsets, want.comp_offsets);
  EXPECT_EQ(got.comps, want.comps);
  EXPECT_EQ(got.node_offsets, want.node_offsets);
  EXPECT_EQ(got.nodes, want.nodes);
}

// Builds and reduces the condensation of `edges` over n nodes. Node ids are
// shuffled so member runs of different components interleave.
Condensation CondenseShuffled(uint32_t n,
                              std::vector<std::pair<NodeId, NodeId>> edges,
                              bool reduce, Rng* rng) {
  std::vector<NodeId> perm(n);
  for (NodeId v = 0; v < n; ++v) perm[v] = v;
  for (NodeId v = n; v > 1; --v) std::swap(perm[v - 1], perm[rng->NextBounded(v)]);
  for (auto& [u, v] : edges) {
    u = perm[u];
    v = perm[v];
  }
  Condensation cond = Condensation::Build(
      Csr::FromEdges(n, std::move(edges), /*dedupe=*/true));
  if (reduce) TransitiveReduce(&cond);
  return cond;
}

TEST(ClosureBuildTest, MatchesReferenceOnShapedDags) {
  Rng rng(21);
  for (bool reduce : {false, true}) {
    std::vector<std::pair<std::string, Condensation>> cases;
    const uint32_t n = 300;
    std::vector<std::pair<NodeId, NodeId>> chain, diamonds, fan, dense, cyc;
    for (NodeId v = 1; v < n; ++v) chain.emplace_back(v, v - 1);
    for (NodeId v = 0; v + 3 < n; v += 3) {  // stacked diamonds
      diamonds.insert(diamonds.end(),
                      {{v + 3, v + 1}, {v + 3, v + 2}, {v + 1, v}, {v + 2, v}});
    }
    // Wide fan-out: 10 roots over overlapping chain fragments.
    for (NodeId v = 10; v < n; ++v) {
      for (NodeId r = 0; r < 10; ++r) {
        if (rng.NextBounded(2) == 0) fan.emplace_back(r, v);
      }
      if (v > 10 && rng.NextBounded(4) == 0) fan.emplace_back(v, v - 1);
    }
    for (NodeId u = 1; u < n; ++u) {  // dense DAG: u -> v for v < u
      for (NodeId v = 0; v < u; ++v) {
        if (rng.NextBounded(8) == 0) dense.emplace_back(u, v);
      }
    }
    for (uint32_t i = 0; i < 3 * n; ++i) {  // random digraph: SCCs too
      cyc.emplace_back(static_cast<NodeId>(rng.NextBounded(n)),
                       static_cast<NodeId>(rng.NextBounded(n)));
    }
    cases.emplace_back("chain", CondenseShuffled(n, chain, reduce, &rng));
    cases.emplace_back("diamonds", CondenseShuffled(n, diamonds, reduce, &rng));
    cases.emplace_back("fan", CondenseShuffled(n, fan, reduce, &rng));
    cases.emplace_back("dense", CondenseShuffled(n, dense, reduce, &rng));
    cases.emplace_back("cyclic", CondenseShuffled(n, cyc, reduce, &rng));
    for (const auto& [name, cond] : cases) {
      SCOPED_TRACE(name + (reduce ? " reduced" : " unreduced"));
      ExpectSameClosure(BuildReachabilityClosure(cond, UINT64_MAX),
                        ReferenceClosure(cond, UINT64_MAX));
    }
  }
}

TEST(ClosureBuildTest, MatchesReferenceOnIndexWorlds) {
  for (PropagationModel model : {PropagationModel::kIndependentCascade,
                                 PropagationModel::kLinearThreshold}) {
    const ProbGraph g = TestGraph(model);
    for (bool reduction : {false, true}) {
      const CascadeIndex index = BuildIndex(g, model, reduction, 0, 16);
      for (uint32_t i = 0; i < index.num_worlds(); ++i) {
        SCOPED_TRACE(::testing::Message() << "world " << i);
        ExpectSameClosure(BuildReachabilityClosure(index.world(i), UINT64_MAX),
                          ReferenceClosure(index.world(i), UINT64_MAX));
      }
    }
  }
}

TEST(ClosureBuildTest, CapMatchesReferenceAtTotalAndOneBelow) {
  const ProbGraph g = TestGraph(PropagationModel::kIndependentCascade);
  const CascadeIndex index =
      BuildIndex(g, PropagationModel::kIndependentCascade, true, 0, 8);
  for (uint32_t i = 0; i < index.num_worlds(); ++i) {
    const Condensation& cond = index.world(i);
    const uint64_t total = ReferenceClosure(cond, UINT64_MAX).nodes.size();
    const ReachabilityClosure at = BuildReachabilityClosure(cond, total);
    EXPECT_EQ(at.num_components(), cond.num_components());
    ExpectSameClosure(at, ReferenceClosure(cond, total));
    const ReachabilityClosure below = BuildReachabilityClosure(cond, total - 1);
    EXPECT_EQ(below.num_components(), 0u);
    ExpectSameClosure(below, ReferenceClosure(cond, total - 1));
  }
}

// ---------------------------------------------------------------------------
// Cached vs traversal equivalence across models and reduction settings.
// ---------------------------------------------------------------------------

struct EquivalenceCase {
  PropagationModel model;
  bool reduction;
};

class ClosureEquivalenceTest
    : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(ClosureEquivalenceTest, QueriesByteIdentical) {
  const auto [model, reduction] = GetParam();
  const ProbGraph g = TestGraph(model);
  // Same Build seed: identical sampled worlds, only the cache differs.
  const CascadeIndex cached = BuildIndex(g, model, reduction, 512);
  const CascadeIndex plain = BuildIndex(g, model, reduction, 0);
  ASSERT_TRUE(cached.has_closure_cache());
  ASSERT_FALSE(plain.has_closure_cache());
  EXPECT_GT(cached.stats().closure_bytes, 0u);
  EXPECT_EQ(plain.stats().closure_bytes, 0u);
  EXPECT_EQ(cached.stats().approx_bytes,
            plain.stats().approx_bytes + cached.stats().closure_bytes);

  CascadeIndex::Workspace ws_cached, ws_plain;
  const NodeId n = g.num_nodes();
  for (uint32_t i = 0; i < cached.num_worlds(); ++i) {
    for (NodeId v = 0; v < n; ++v) {
      const auto a = cached.Cascade(v, i, &ws_cached).value();
      const auto b = plain.Cascade(v, i, &ws_plain).value();
      ASSERT_EQ(a, b) << "node " << v << " world " << i;
      const auto span = cached.CachedCascade(v, i);
      ASSERT_TRUE(std::equal(span.begin(), span.end(), a.begin(), a.end()));
      ASSERT_EQ(cached.CascadeSize(v, i, &ws_cached).value(), a.size());
      ASSERT_EQ(plain.CascadeSize(v, i, &ws_plain).value(), b.size());
    }
  }
  // Multi-seed queries exercise the stamped closure-union + run-merge path.
  const std::vector<std::vector<NodeId>> seed_sets = {
      {0, 1}, {2, 3, 5, 7}, {0, static_cast<NodeId>(n - 1)},
      {10, 11, 12, 13, 14, 15, 16, 17}};
  for (const auto& seeds : seed_sets) {
    for (uint32_t i = 0; i < cached.num_worlds(); ++i) {
      const auto a = cached.Cascade(seeds, i, &ws_cached).value();
      const auto b = plain.Cascade(seeds, i, &ws_plain).value();
      ASSERT_EQ(a, b);
      ASSERT_EQ(cached.CascadeSize(seeds, i, &ws_cached).value(), a.size());
      ASSERT_EQ(plain.CascadeSize(seeds, i, &ws_plain).value(), a.size());
    }
  }
}

TEST_P(ClosureEquivalenceTest, TypicalSweepByteIdenticalAcrossThreads) {
  const auto [model, reduction] = GetParam();
  const ProbGraph g = TestGraph(model);
  const CascadeIndex cached = BuildIndex(g, model, reduction, 512);
  const CascadeIndex plain = BuildIndex(g, model, reduction, 0);
  ASSERT_TRUE(cached.has_closure_cache());
  ASSERT_FALSE(plain.has_closure_cache());

  const uint32_t saved_threads = GlobalThreads();
  std::vector<std::vector<TypicalCascadeResult>> sweeps;
  for (const CascadeIndex* index : {&cached, &plain}) {
    for (uint32_t threads : {1u, 8u}) {
      SetGlobalThreads(threads);
      TypicalCascadeComputer computer(index);
      auto result = computer.ComputeAll({});
      ASSERT_TRUE(result.ok());
      sweeps.push_back(std::move(result).value());
    }
  }
  SetGlobalThreads(saved_threads);
  const auto& reference = sweeps[0];
  for (size_t s = 1; s < sweeps.size(); ++s) {
    ASSERT_EQ(sweeps[s].size(), reference.size());
    for (size_t v = 0; v < reference.size(); ++v) {
      ASSERT_EQ(sweeps[s][v].cascade, reference[v].cascade)
          << "sweep " << s << " node " << v;
      ASSERT_EQ(sweeps[s][v].in_sample_cost, reference[v].in_sample_cost);
      ASSERT_EQ(sweeps[s][v].mean_sample_size, reference[v].mean_sample_size);
      ASSERT_EQ(sweeps[s][v].median_source, reference[v].median_source);
    }
  }
}

TEST_P(ClosureEquivalenceTest, SpreadOracleGainsIdentical) {
  const auto [model, reduction] = GetParam();
  const ProbGraph g = TestGraph(model);
  const CascadeIndex cached = BuildIndex(g, model, reduction, 512);
  const CascadeIndex plain = BuildIndex(g, model, reduction, 0);
  ASSERT_TRUE(cached.has_closure_cache());
  SpreadOracle oracle_cached(&cached);
  SpreadOracle oracle_plain(&plain);
  // First round: the cached oracle answers from NodeCount lookups.
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(oracle_cached.MarginalGain(v), oracle_plain.MarginalGain(v));
  }
  // After a commit both fall back to the traversal and must still agree.
  EXPECT_EQ(oracle_cached.Add(3), oracle_plain.Add(3));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(oracle_cached.MarginalGain(v), oracle_plain.MarginalGain(v));
  }
  EXPECT_EQ(oracle_cached.CurrentSpread(), oracle_plain.CurrentSpread());
}

TEST_P(ClosureEquivalenceTest, LabelsTierByteIdenticalAcrossThreads) {
  const auto [model, reduction] = GetParam();
  const ProbGraph g = TestGraph(model);
  const CascadeIndex materialized = BuildIndex(g, model, reduction, 512);
  const CascadeIndex labeled = BuildIndex(
      g, model, reduction, 512, 48, 11, ClosureTierPolicy::kLabels);
  ASSERT_TRUE(materialized.has_closure_cache());
  ASSERT_FALSE(labeled.has_closure_cache());
  ASSERT_EQ(labeled.stats().worlds_labeled, labeled.num_worlds());
  ASSERT_TRUE(labeled.has_fast_counts());
  EXPECT_GT(labeled.stats().label_bytes, 0u);
  EXPECT_LT(labeled.stats().label_bytes, materialized.stats().closure_bytes);

  // The O(1) per-component counts agree across tiers, and the label
  // intervals expand to exactly the materialized closure lists.
  std::vector<uint32_t> expanded;
  for (uint32_t i = 0; i < labeled.num_worlds(); ++i) {
    const ReachLabels& lab = labeled.labels(i);
    const ReachabilityClosure& cl = materialized.closure(i);
    for (uint32_t c = 0; c < labeled.world(i).num_components(); ++c) {
      ASSERT_EQ(labeled.ReachNodeCount(c, i),
                materialized.ReachNodeCount(c, i));
      expanded.clear();
      lab.AppendClosure(c, &expanded);
      const auto ref = cl.Closure(c);
      ASSERT_TRUE(std::equal(expanded.begin(), expanded.end(), ref.begin(),
                             ref.end()));
      ASSERT_EQ(lab.ClosureLength(c), ref.size());
      for (uint32_t x : ref) ASSERT_TRUE(lab.Reaches(c, x));
    }
  }

  // Single- and multi-seed queries byte-identical.
  CascadeIndex::Workspace ws_a, ws_b;
  const std::vector<std::vector<NodeId>> seed_sets = {
      {0}, {0, 1}, {2, 3, 5, 7},
      {0, static_cast<NodeId>(g.num_nodes() - 1)}};
  for (const auto& seeds : seed_sets) {
    for (uint32_t i = 0; i < labeled.num_worlds(); ++i) {
      const auto a = labeled.Cascade(seeds, i, &ws_a).value();
      ASSERT_EQ(a, materialized.Cascade(seeds, i, &ws_b).value());
      ASSERT_EQ(labeled.CascadeSize(seeds, i, &ws_a).value(), a.size());
    }
  }

  // Typical sweep byte-identical across tiers and thread counts.
  const uint32_t saved_threads = GlobalThreads();
  std::vector<std::vector<TypicalCascadeResult>> sweeps;
  for (const CascadeIndex* index : {&materialized, &labeled}) {
    for (uint32_t threads : {1u, 8u}) {
      SetGlobalThreads(threads);
      TypicalCascadeComputer computer(index);
      auto result = computer.ComputeAll({});
      ASSERT_TRUE(result.ok());
      sweeps.push_back(std::move(result).value());
    }
  }
  SetGlobalThreads(saved_threads);
  for (size_t s = 1; s < sweeps.size(); ++s) {
    ASSERT_EQ(sweeps[s].size(), sweeps[0].size());
    for (size_t v = 0; v < sweeps[0].size(); ++v) {
      ASSERT_EQ(sweeps[s][v].cascade, sweeps[0][v].cascade);
      ASSERT_EQ(sweeps[s][v].median_source, sweeps[0][v].median_source);
    }
  }

  // Spread-oracle gains identical (first round takes the fast-count path on
  // both indexes, later rounds traverse).
  SpreadOracle oracle_lab(&labeled);
  SpreadOracle oracle_mat(&materialized);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(oracle_lab.MarginalGain(v), oracle_mat.MarginalGain(v));
  }
  EXPECT_EQ(oracle_lab.Add(3), oracle_mat.Add(3));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(oracle_lab.MarginalGain(v), oracle_mat.MarginalGain(v));
  }
}

// An index over the same worlds whose closures borrow packed runs (the
// snapshot's serving form), encoded from `built`'s closures into `comps` /
// `nodes`, which must outlive the returned index.
CascadeIndex PackedCopy(const CascadeIndex& built,
                        std::vector<PackedRuns>* comps,
                        std::vector<PackedRuns>* nodes) {
  const uint32_t l = built.num_worlds();
  comps->assign(l, PackedRuns());
  nodes->assign(l, PackedRuns());
  std::vector<Condensation> worlds;
  std::vector<ReachabilityClosure> closures(l);
  for (uint32_t i = 0; i < l; ++i) {
    worlds.push_back(built.world(i));
    const ReachabilityClosure& cl = built.closure(i);
    for (uint32_t c = 0; c < cl.num_components(); ++c) {
      (*comps)[i].AddRun(cl.Closure(c));
      (*nodes)[i].AddRun(cl.Cascade(c));
    }
    closures[i] = ReachabilityClosure::BorrowedPacked((*comps)[i], (*nodes)[i]);
  }
  auto index = CascadeIndex::FromParts(
      built.num_nodes(), std::move(worlds), std::move(closures), {},
      std::vector<WorldTier>(l, WorldTier::kMaterialized));
  EXPECT_TRUE(index.ok());
  return std::move(index).value();
}

TEST_P(ClosureEquivalenceTest, MultiSeedAndPackedBorrowedAgreeAcrossTiers) {
  const auto [model, reduction] = GetParam();
  const ProbGraph g = TestGraph(model);
  const CascadeIndex materialized = BuildIndex(g, model, reduction, 512);
  const CascadeIndex labeled = BuildIndex(
      g, model, reduction, 512, 48, 11, ClosureTierPolicy::kLabels);
  const CascadeIndex plain = BuildIndex(g, model, reduction, 0);
  ASSERT_TRUE(materialized.has_closure_cache());
  ASSERT_EQ(labeled.stats().worlds_labeled, labeled.num_worlds());
  std::vector<PackedRuns> comps, nodes;
  const CascadeIndex packed = PackedCopy(materialized, &comps, &nodes);
  ASSERT_TRUE(packed.has_closure_cache());
  EXPECT_EQ(packed.stats().closure_bytes, materialized.stats().closure_bytes);
  const CascadeIndex* indexes[] = {&materialized, &labeled, &plain, &packed};

  // Closure by closure, the packed runs decode to the owned ones.
  std::vector<uint32_t> ids;
  std::vector<NodeId> run;
  for (uint32_t i = 0; i < materialized.num_worlds(); ++i) {
    const ReachabilityClosure& owned = materialized.closure(i);
    const ReachabilityClosure& borrowed = packed.closure(i);
    ASSERT_TRUE(borrowed.borrowed() && borrowed.packed());
    for (uint32_t c = 0; c < owned.num_components(); ++c) {
      ids.clear();
      borrowed.ForEachClosureComp(c, [&](uint32_t x) { ids.push_back(x); });
      ASSERT_TRUE(std::ranges::equal(ids, owned.Closure(c)));
      run.clear();
      borrowed.AppendCascade(c, &run);
      ASSERT_TRUE(std::ranges::equal(run, owned.Cascade(c)));
      ASSERT_EQ(borrowed.NodeCount(c), owned.NodeCount(c));
    }
  }

  const NodeId n = g.num_nodes();
  std::vector<CascadeIndex::Workspace> ws(4);
  for (uint32_t i = 0; i < materialized.num_worlds(); ++i) {
    std::vector<std::vector<NodeId>> seed_sets = {
        {4, 4}, {0, 1, 0}, {2, 3, 5, 7, 3, 2}, {9, 21, 33, 47, 60, 71, 88,
                                                 95, 101, static_cast<NodeId>(n - 1)}};
    // Seeds inside another seed's closure, in both orders: the second seed
    // of {s, t} is covered already, the first seed of {t, s} is not.
    for (const NodeId s : {NodeId{0}, NodeId{17}, static_cast<NodeId>(n / 2)}) {
      const auto reach = materialized.Cascade(s, i, &ws[0]).value();
      const NodeId t = reach[reach.size() / 2];
      seed_sets.push_back({s, t});
      seed_sets.push_back({t, s});
      seed_sets.push_back({t, s, reach.back(), s});
    }
    for (const auto& seeds : seed_sets) {
      const auto expected = plain.Cascade(seeds, i, &ws[2]).value();
      for (size_t k = 0; k < 4; ++k) {
        ASSERT_EQ(indexes[k]->Cascade(seeds, i, &ws[k]).value(), expected)
            << "index " << k << " world " << i;
        ASSERT_EQ(indexes[k]->CascadeSize(seeds, i, &ws[k]).value(),
                  expected.size())
            << "index " << k << " world " << i;
      }
    }
    for (NodeId v = 0; v < n; ++v) {
      ASSERT_EQ(packed.Cascade(v, i, &ws[3]).value(),
                materialized.Cascade(v, i, &ws[0]).value());
    }
  }

  // The typical sweep byte-identical with packed worlds extracted.
  TypicalCascadeComputer a(&materialized);
  TypicalCascadeComputer b(&packed);
  const auto sa = a.ComputeAll({});
  const auto sb = b.ComputeAll({});
  ASSERT_TRUE(sa.ok() && sb.ok());
  for (NodeId v = 0; v < n; ++v) {
    ASSERT_EQ((*sa)[v].cascade, (*sb)[v].cascade);
    ASSERT_EQ((*sa)[v].in_sample_cost, (*sb)[v].in_sample_cost);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndReduction, ClosureEquivalenceTest,
    ::testing::Values(
        EquivalenceCase{PropagationModel::kIndependentCascade, true},
        EquivalenceCase{PropagationModel::kIndependentCascade, false},
        EquivalenceCase{PropagationModel::kLinearThreshold, true},
        EquivalenceCase{PropagationModel::kLinearThreshold, false}),
    [](const ::testing::TestParamInfo<EquivalenceCase>& info) {
      std::string name = info.param.model ==
                                 PropagationModel::kIndependentCascade
                             ? "Ic"
                             : "Lt";
      return name + (info.param.reduction ? "Reduced" : "Unreduced");
    });

// ---------------------------------------------------------------------------
// Budget semantics.
// ---------------------------------------------------------------------------

TEST(ClosureBudgetTest, OverBudgetDemotesToCheaperTiersWithIdenticalOutputs) {
  // Dense enough that the total closure size dwarfs a 1 MiB budget.
  Rng gen_rng(17);
  auto topo = GenerateRmat(10, 6000, {}, &gen_rng);
  ASSERT_TRUE(topo.ok());
  Rng assign_rng(18);
  auto g = AssignUniform(*topo, &assign_rng, 0.2, 0.5);
  ASSERT_TRUE(g.ok());
  const CascadeIndex tiny =
      BuildIndex(*g, PropagationModel::kIndependentCascade, true, 1, 16);
  const CascadeIndex plain =
      BuildIndex(*g, PropagationModel::kIndependentCascade, true, 0, 16);
  // kAuto: over budget no longer means "retain nothing" — worlds demote to
  // labels (or traversal), the retained bytes stay under budget, and every
  // query is still byte-identical.
  ASSERT_FALSE(tiny.has_closure_cache());
  const CascadeIndexStats& st = tiny.stats();
  EXPECT_EQ(st.worlds_materialized + st.worlds_labeled + st.worlds_traversal,
            tiny.num_worlds());
  EXPECT_GT(st.worlds_labeled + st.worlds_traversal, 0u);
  EXPECT_GT(st.worlds_labeled, 0u);  // labels fit where closures did not
  EXPECT_LE(st.closure_bytes + st.label_bytes, uint64_t{1} << 20);
  EXPECT_EQ(st.approx_bytes, plain.stats().approx_bytes + st.closure_bytes +
                                 st.label_bytes);
  // The legacy all-or-nothing policy still retains nothing when over.
  const CascadeIndex legacy =
      BuildIndex(*g, PropagationModel::kIndependentCascade, true, 1, 16, 11,
                 ClosureTierPolicy::kMaterialized);
  ASSERT_FALSE(legacy.has_closure_cache());
  EXPECT_EQ(legacy.stats().closure_bytes, 0u);
  EXPECT_EQ(legacy.stats().label_bytes, 0u);
  EXPECT_EQ(legacy.stats().worlds_traversal, legacy.num_worlds());
  EXPECT_EQ(legacy.stats().approx_bytes, plain.stats().approx_bytes);
  // And budget 0 pins every world to the traversal tier.
  EXPECT_EQ(plain.stats().worlds_traversal, plain.num_worlds());
  EXPECT_EQ(plain.stats().label_bytes, 0u);
  CascadeIndex::Workspace ws_a, ws_b, ws_c;
  for (uint32_t i = 0; i < tiny.num_worlds(); ++i) {
    for (NodeId v = 0; v < g->num_nodes(); v += 37) {
      const auto a = tiny.Cascade(v, i, &ws_a).value();
      ASSERT_EQ(a, plain.Cascade(v, i, &ws_b).value());
      ASSERT_EQ(a, legacy.Cascade(v, i, &ws_c).value());
      ASSERT_EQ(tiny.CascadeSize(v, i, &ws_a).value(), a.size());
    }
  }
}

TEST(ClosureBudgetTest, ExactByteBudgetBoundaryAdmitsWorld) {
  const ProbGraph g = TestGraph(PropagationModel::kIndependentCascade);
  CascadeIndex index =
      BuildIndex(g, PropagationModel::kIndependentCascade, true, 0, 8);
  const uint64_t w0_bytes =
      BuildReachabilityClosure(index.world(0), UINT64_MAX).ApproxBytes();
  // Budget exactly equal to world 0's materialized bytes: the world must be
  // admitted (<=, not <), and nothing else can fit a closure.
  index.RebuildClosureTiersBytes(w0_bytes, ClosureTierPolicy::kAuto);
  EXPECT_EQ(index.tier(0), WorldTier::kMaterialized);
  EXPECT_EQ(index.stats().closure_bytes, w0_bytes);
  for (uint32_t i = 1; i < index.num_worlds(); ++i) {
    EXPECT_NE(index.tier(i), WorldTier::kMaterialized) << "world " << i;
  }
  // One byte short: world 0 demotes (labels at best, never materialized).
  index.RebuildClosureTiersBytes(w0_bytes - 1, ClosureTierPolicy::kAuto);
  EXPECT_NE(index.tier(0), WorldTier::kMaterialized);
  EXPECT_LE(index.stats().closure_bytes + index.stats().label_bytes,
            w0_bytes - 1);
  // Budget 0 via the byte-granular path: all traversal.
  index.RebuildClosureTiersBytes(0, ClosureTierPolicy::kAuto);
  EXPECT_EQ(index.stats().worlds_traversal, index.num_worlds());
  EXPECT_EQ(index.stats().closure_bytes + index.stats().label_bytes, 0u);
}

TEST(ClosureBudgetTest, FromWorldsRebuildsCacheUnderBudget) {
  const ProbGraph g = TestGraph(PropagationModel::kIndependentCascade);
  const CascadeIndex built =
      BuildIndex(g, PropagationModel::kIndependentCascade, true, 512, 16);
  ASSERT_TRUE(built.has_closure_cache());
  std::vector<Condensation> worlds;
  for (uint32_t i = 0; i < built.num_worlds(); ++i) {
    worlds.push_back(built.world(i));
  }
  auto reloaded = CascadeIndex::FromWorlds(g.num_nodes(), worlds, 512);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_TRUE(reloaded->has_closure_cache());
  EXPECT_EQ(reloaded->stats().closure_bytes, built.stats().closure_bytes);
  EXPECT_EQ(reloaded->stats().approx_bytes, built.stats().approx_bytes);

  auto disabled = CascadeIndex::FromWorlds(g.num_nodes(), std::move(worlds), 0);
  ASSERT_TRUE(disabled.ok());
  EXPECT_FALSE(disabled->has_closure_cache());
  EXPECT_EQ(disabled->stats().closure_bytes, 0u);

  CascadeIndex::Workspace ws_a, ws_b;
  for (uint32_t i = 0; i < built.num_worlds(); ++i) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const auto a = reloaded->Cascade(v, i, &ws_a).value();
      ASSERT_EQ(a, disabled->Cascade(v, i, &ws_b).value());
      ASSERT_TRUE(std::ranges::equal(built.CachedCascade(v, i), a));
    }
  }
}

}  // namespace
}  // namespace soi
