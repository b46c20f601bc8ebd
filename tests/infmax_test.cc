#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "cascade/exact.h"
#include "gen/generators.h"
#include "graph/prob_assign.h"
#include "index/cascade_index.h"
#include "infmax/baselines.h"
#include "infmax/evaluate.h"
#include "infmax/greedy_std.h"
#include "infmax/infmax_tc.h"
#include "infmax/spread_oracle.h"
#include "util/rng.h"

namespace soi {
namespace {

ProbGraph RandomTestGraph(NodeId n, uint64_t m, uint64_t seed, double lo = 0.05,
                          double hi = 0.3) {
  Rng gen_rng(seed);
  auto topo = GenerateErdosRenyi(n, m, false, &gen_rng);
  EXPECT_TRUE(topo.ok());
  Rng assign_rng(seed + 1);
  auto g = AssignUniform(*topo, &assign_rng, lo, hi);
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

CascadeIndex BuildIndex(const ProbGraph& g, uint32_t worlds, uint64_t seed) {
  CascadeIndexOptions options;
  options.num_worlds = worlds;
  Rng rng(seed);
  auto index = CascadeIndex::Build(g, options, &rng);
  EXPECT_TRUE(index.ok());
  return std::move(index).value();
}

// ----------------------------------------------------------- SpreadOracle ---

TEST(SpreadOracleTest, GainsMatchCommittedSpread) {
  const ProbGraph g = RandomTestGraph(60, 150, 1);
  const CascadeIndex index = BuildIndex(g, 32, 2);
  SpreadOracle oracle(&index);
  double sum_gains = 0.0;
  for (NodeId v : {NodeId{3}, NodeId{10}, NodeId{42}}) {
    const double predicted = oracle.MarginalGain(v);
    const double realized = oracle.Add(v);
    EXPECT_DOUBLE_EQ(predicted, realized);
    sum_gains += realized;
  }
  EXPECT_DOUBLE_EQ(oracle.CurrentSpread(), sum_gains);
}

TEST(SpreadOracleTest, CommittedNodeHasZeroGain) {
  const ProbGraph g = RandomTestGraph(40, 100, 3);
  const CascadeIndex index = BuildIndex(g, 16, 4);
  SpreadOracle oracle(&index);
  oracle.Add(5);
  EXPECT_DOUBLE_EQ(oracle.MarginalGain(5), 0.0);
}

TEST(SpreadOracleTest, SingletonGainMatchesMeanCascadeSize) {
  const ProbGraph g = RandomTestGraph(40, 100, 5);
  const CascadeIndex index = BuildIndex(g, 64, 6);
  SpreadOracle oracle(&index);
  CascadeIndex::Workspace ws;
  for (NodeId v = 0; v < 10; ++v) {
    uint64_t total = 0;
    for (uint32_t i = 0; i < index.num_worlds(); ++i) {
      total += index.CascadeSize(v, i, &ws).value();
    }
    EXPECT_DOUBLE_EQ(oracle.MarginalGain(v),
                     static_cast<double>(total) / index.num_worlds());
  }
}

TEST(SpreadOracleTest, SubmodularityAndMonotonicity) {
  // gain(v | S) >= gain(v | S + w) >= 0 for every evaluation order.
  const ProbGraph g = RandomTestGraph(50, 140, 7);
  const CascadeIndex index = BuildIndex(g, 32, 8);
  SpreadOracle oracle(&index);
  std::vector<double> before(20);
  for (NodeId v = 0; v < 20; ++v) before[v] = oracle.MarginalGain(v);
  oracle.Add(25);
  for (NodeId v = 0; v < 20; ++v) {
    const double after = oracle.MarginalGain(v);
    EXPECT_GE(after, 0.0);
    EXPECT_LE(after, before[v] + 1e-12);
  }
}

TEST(SpreadOracleTest, ResetClearsState) {
  const ProbGraph g = RandomTestGraph(30, 80, 9);
  const CascadeIndex index = BuildIndex(g, 16, 10);
  SpreadOracle oracle(&index);
  const double gain_first = oracle.MarginalGain(7);
  oracle.Add(7);
  oracle.Reset();
  EXPECT_DOUBLE_EQ(oracle.CurrentSpread(), 0.0);
  EXPECT_DOUBLE_EQ(oracle.MarginalGain(7), gain_first);
}

// -------------------------------------------------------------- InfMaxStd ---

TEST(InfMaxStdTest, RejectsBadK) {
  const ProbGraph g = RandomTestGraph(20, 50, 11);
  const CascadeIndex index = BuildIndex(g, 8, 12);
  GreedyStdOptions options;
  options.k = 0;
  EXPECT_FALSE(InfMaxStd(index, options).ok());
}

TEST(InfMaxStdTest, CelfMatchesExhaustive) {
  // CELF is a pure optimization: the selected sequence must be identical.
  const ProbGraph g = RandomTestGraph(60, 180, 13);
  const CascadeIndex index = BuildIndex(g, 24, 14);
  GreedyStdOptions celf, plain;
  celf.k = plain.k = 8;
  celf.use_celf = true;
  plain.use_celf = false;
  const auto a = InfMaxStd(index, celf);
  const auto b = InfMaxStd(index, plain);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->seeds, b->seeds);
  for (size_t i = 0; i < a->steps.size(); ++i) {
    EXPECT_DOUBLE_EQ(a->steps[i].marginal_gain, b->steps[i].marginal_gain);
  }
}

TEST(InfMaxStdTest, SeedsDistinctAndGainsNonIncreasing) {
  const ProbGraph g = RandomTestGraph(80, 240, 15);
  const CascadeIndex index = BuildIndex(g, 16, 16);
  GreedyStdOptions options;
  options.k = 10;
  const auto result = InfMaxStd(index, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->seeds.size(), 10u);
  const std::set<NodeId> unique(result->seeds.begin(), result->seeds.end());
  EXPECT_EQ(unique.size(), 10u);
  for (size_t i = 1; i < result->steps.size(); ++i) {
    EXPECT_LE(result->steps[i].marginal_gain,
              result->steps[i - 1].marginal_gain + 1e-9);
  }
}

TEST(InfMaxStdTest, FirstSeedMaximizesSingletonSpread) {
  const ProbGraph g = RandomTestGraph(50, 150, 17);
  const CascadeIndex index = BuildIndex(g, 32, 18);
  GreedyStdOptions options;
  options.k = 1;
  const auto result = InfMaxStd(index, options);
  ASSERT_TRUE(result.ok());
  SpreadOracle oracle(&index);
  double best = 0.0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    best = std::max(best, oracle.MarginalGain(v));
  }
  EXPECT_DOUBLE_EQ(result->steps[0].marginal_gain, best);
}

TEST(InfMaxStdTest, KClampedToNodeCount) {
  const ProbGraph g = RandomTestGraph(10, 20, 19);
  const CascadeIndex index = BuildIndex(g, 8, 20);
  GreedyStdOptions options;
  options.k = 100;
  const auto result = InfMaxStd(index, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->seeds.size(), 10u);
}

TEST(InfMaxStdTest, SaturationTrackingPopulatesRatios) {
  const ProbGraph g = RandomTestGraph(40, 120, 21);
  const CascadeIndex index = BuildIndex(g, 8, 22);
  GreedyStdOptions options;
  options.k = 5;
  options.track_saturation = true;
  const auto result = InfMaxStd(index, options);
  ASSERT_TRUE(result.ok());
  for (const auto& step : result->steps) {
    EXPECT_GE(step.mg_ratio_10_1, 0.0);
    EXPECT_LE(step.mg_ratio_10_1, 1.0 + 1e-12);
  }
}

// Parameterized exactness sweep: on tiny graphs the oracle's singleton gain
// (empty committed set) must converge to the exact expected spread.
class SpreadOracleExactSweep : public ::testing::TestWithParam<int> {};

TEST_P(SpreadOracleExactSweep, SingletonGainsMatchExactSpread) {
  Rng graph_rng(700 + GetParam());
  const NodeId n = 6;
  ProbGraphBuilder builder(n);
  int added = 0;
  for (NodeId u = 0; u < n && added < 10; ++u) {
    for (NodeId v = 0; v < n && added < 10; ++v) {
      if (u == v) continue;
      if (graph_rng.NextBernoulli(0.35)) {
        EXPECT_TRUE(
            builder.AddEdge(u, v, 0.2 + 0.6 * graph_rng.NextDouble()).ok());
        ++added;
      }
    }
  }
  const auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  const CascadeIndex index = BuildIndex(*g, 20000, 800 + GetParam());
  SpreadOracle oracle(&index);
  for (NodeId v = 0; v < n; ++v) {
    const std::vector<NodeId> seeds = {v};
    const auto exact = ExactExpectedSpread(*g, seeds);
    ASSERT_TRUE(exact.ok());
    EXPECT_NEAR(oracle.MarginalGain(v), *exact, 0.05) << "node " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTinyGraphs, SpreadOracleExactSweep,
                         ::testing::Range(0, 10));

// ------------------------------------------------------------ InfMaxStdMc ---

TEST(InfMaxStdMcTest, RejectsBadArgs) {
  const ProbGraph g = RandomTestGraph(20, 50, 60);
  Rng rng(61);
  GreedyStdMcOptions options;
  options.k = 0;
  EXPECT_FALSE(InfMaxStdMc(g, options, &rng).ok());
  options.k = 2;
  options.mc_samples = 0;
  EXPECT_FALSE(InfMaxStdMc(g, options, &rng).ok());
}

TEST(InfMaxStdMcTest, FindsDominantInfluencerDespiteNoise) {
  // One node reaches 10 others deterministically; MC noise cannot hide it.
  ProbGraphBuilder b(20);
  for (NodeId v = 1; v <= 10; ++v) {
    ASSERT_TRUE(b.AddEdge(0, v, 1.0).ok());
  }
  ASSERT_TRUE(b.AddEdge(11, 12, 0.5).ok());
  const auto g = b.Build();
  ASSERT_TRUE(g.ok());
  Rng rng(62);
  GreedyStdMcOptions options;
  options.k = 1;
  options.mc_samples = 50;
  const auto result = InfMaxStdMc(*g, options, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->seeds[0], 0u);
  EXPECT_NEAR(result->steps[0].objective_after, 11.0, 1e-9);
}

TEST(InfMaxStdMcTest, SeedsDistinctAndDeterministicGivenSeed) {
  const ProbGraph g = RandomTestGraph(40, 120, 63);
  GreedyStdMcOptions options;
  options.k = 6;
  options.mc_samples = 30;
  Rng ra(64), rb(64);
  const auto a = InfMaxStdMc(g, options, &ra);
  const auto b = InfMaxStdMc(g, options, &rb);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->seeds, b->seeds);
  const std::set<NodeId> unique(a->seeds.begin(), a->seeds.end());
  EXPECT_EQ(unique.size(), a->seeds.size());
}

TEST(InfMaxStdMcTest, SaturationTrackingPopulatesRatios) {
  const ProbGraph g = RandomTestGraph(30, 90, 65);
  Rng rng(66);
  GreedyStdMcOptions options;
  options.k = 4;
  options.mc_samples = 20;
  options.track_saturation = true;
  const auto result = InfMaxStdMc(g, options, &rng);
  ASSERT_TRUE(result.ok());
  for (const auto& step : result->steps) {
    EXPECT_GE(step.mg_ratio_10_1, 0.0);
    EXPECT_LE(step.mg_ratio_10_1, 1.0 + 1e-12);
  }
}

TEST(InfMaxStdMcTest, ObjectiveApproximatesFixedWorldGreedy) {
  // With generous sample counts, the MC variant's final spread should land
  // close to the fixed-world variant's (same underlying objective).
  const ProbGraph g = RandomTestGraph(50, 150, 67);
  const CascadeIndex index = BuildIndex(g, 256, 68);
  GreedyStdOptions fixed_options;
  fixed_options.k = 5;
  const auto fixed = InfMaxStd(index, fixed_options);
  ASSERT_TRUE(fixed.ok());
  Rng rng(69);
  GreedyStdMcOptions mc_options;
  mc_options.k = 5;
  mc_options.mc_samples = 256;
  const auto mc = InfMaxStdMc(g, mc_options, &rng);
  ASSERT_TRUE(mc.ok());
  Rng eval_rng(70);
  const auto fixed_spread = EvaluateSpread(g, fixed->seeds, 500, &eval_rng);
  const auto mc_spread = EvaluateSpread(g, mc->seeds, 500, &eval_rng);
  ASSERT_TRUE(fixed_spread.ok());
  ASSERT_TRUE(mc_spread.ok());
  EXPECT_NEAR(*mc_spread, *fixed_spread, 0.15 * *fixed_spread);
}

// --------------------------------------------------------------- InfMaxTC ---

std::vector<std::vector<NodeId>> ToyCascades() {
  // 6 nodes; cascades chosen so greedy coverage is predictable.
  return {
      {0, 1, 2},  // node 0 covers 3
      {1},        // node 1
      {2, 3},     // node 2 covers 2
      {3, 4, 5},  // node 3 covers 3
      {4},        // node 4
      {5},        // node 5
  };
}

TEST(InfMaxTcTest, GreedyCoverageSequence) {
  InfMaxTcOptions options;
  options.k = 2;
  const auto result = InfMaxTC(ToyCascades(), 6, options);
  ASSERT_TRUE(result.ok());
  // First pick: node 0 or 3 (both cover 3; tie broken to smaller id = 0).
  EXPECT_EQ(result->seeds[0], 0u);
  // Second pick: node 3 covers {3,4,5} = 3 new nodes.
  EXPECT_EQ(result->seeds[1], 3u);
  EXPECT_DOUBLE_EQ(result->steps[1].objective_after, 6.0);
}

TEST(InfMaxTcTest, CelfMatchesExhaustive) {
  Rng rng(23);
  std::vector<std::vector<NodeId>> cascades(40);
  for (auto& c : cascades) {
    for (NodeId v = 0; v < 40; ++v) {
      if (rng.NextBernoulli(0.15)) c.push_back(v);
    }
  }
  InfMaxTcOptions options;
  options.k = 10;
  const auto a = InfMaxTC(cascades, 40, options);
  ASSERT_TRUE(a.ok());
  // Exhaustive greedy: rescan every unselected cascade's new coverage each
  // round, ties to the smaller id.
  std::vector<bool> covered(40, false), selected(40, false);
  std::vector<NodeId> exhaustive;
  for (uint32_t round = 0; round < options.k; ++round) {
    NodeId best = 0;
    int best_gain = -1;
    for (NodeId v = 0; v < 40; ++v) {
      if (selected[v]) continue;
      int gain = 0;
      for (NodeId u : cascades[v]) gain += covered[u] ? 0 : 1;
      if (gain > best_gain) {
        best = v;
        best_gain = gain;
      }
    }
    selected[best] = true;
    for (NodeId u : cascades[best]) covered[u] = true;
    exhaustive.push_back(best);
  }
  EXPECT_EQ(a->seeds, exhaustive);
}

TEST(InfMaxTcTest, CoverageMonotoneNonDecreasing) {
  Rng rng(24);
  std::vector<std::vector<NodeId>> cascades(30);
  for (auto& c : cascades) {
    for (NodeId v = 0; v < 30; ++v) {
      if (rng.NextBernoulli(0.2)) c.push_back(v);
    }
  }
  InfMaxTcOptions options;
  options.k = 15;
  const auto result = InfMaxTC(cascades, 30, options);
  ASSERT_TRUE(result.ok());
  for (size_t i = 1; i < result->steps.size(); ++i) {
    EXPECT_GE(result->steps[i].objective_after,
              result->steps[i - 1].objective_after);
    EXPECT_LE(result->steps[i].marginal_gain,
              result->steps[i - 1].marginal_gain + 1e-12);
  }
}

TEST(InfMaxTcTest, RejectsBadInputs) {
  InfMaxTcOptions options;
  options.k = 2;
  EXPECT_FALSE(InfMaxTC({{0}}, 5, options).ok());  // wrong cascade count
  EXPECT_FALSE(InfMaxTC({{9}, {0}}, 2, options).ok());  // id out of range
  options.k = 0;
  EXPECT_FALSE(InfMaxTC(ToyCascades(), 6, options).ok());
}

TEST(InfMaxTcTest, SaturationTrackingPopulatesRatios) {
  InfMaxTcOptions options;
  options.k = 3;
  options.track_saturation = true;
  Rng rng(25);
  std::vector<std::vector<NodeId>> cascades(20);
  for (auto& c : cascades) {
    for (NodeId v = 0; v < 20; ++v) {
      if (rng.NextBernoulli(0.3)) c.push_back(v);
    }
  }
  const auto result = InfMaxTC(cascades, 20, options);
  ASSERT_TRUE(result.ok());
  for (const auto& step : result->steps) {
    EXPECT_GE(step.mg_ratio_10_1, 0.0);
    EXPECT_LE(step.mg_ratio_10_1, 1.0 + 1e-12);
  }
}

// -------------------------------------------------------------- Baselines ---

TEST(BaselinesTest, TopDegreeOrdered) {
  const ProbGraph g = RandomTestGraph(50, 200, 26);
  const auto seeds = SelectTopDegree(g, 5);
  ASSERT_TRUE(seeds.ok());
  ASSERT_EQ(seeds->size(), 5u);
  for (size_t i = 1; i < seeds->size(); ++i) {
    EXPECT_GE(g.OutDegree((*seeds)[i - 1]), g.OutDegree((*seeds)[i]));
  }
}

TEST(BaselinesTest, TopExpectedDegreeOrdered) {
  const ProbGraph g = RandomTestGraph(50, 200, 27);
  const auto seeds = SelectTopExpectedDegree(g, 5);
  ASSERT_TRUE(seeds.ok());
  for (size_t i = 1; i < seeds->size(); ++i) {
    EXPECT_GE(g.ExpectedOutDegree((*seeds)[i - 1]),
              g.ExpectedOutDegree((*seeds)[i]) - 1e-12);
  }
}

TEST(BaselinesTest, RandomDistinct) {
  const ProbGraph g = RandomTestGraph(30, 60, 28);
  Rng rng(29);
  const auto seeds = SelectRandom(g, 10, &rng);
  ASSERT_TRUE(seeds.ok());
  const std::set<NodeId> unique(seeds->begin(), seeds->end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(BaselinesTest, RejectBadK) {
  const ProbGraph g = RandomTestGraph(10, 20, 30);
  Rng rng(31);
  EXPECT_FALSE(SelectTopDegree(g, 0).ok());
  EXPECT_FALSE(SelectTopDegree(g, 11).ok());
  EXPECT_FALSE(SelectRandom(g, 0, &rng).ok());
}

// --------------------------------------------------------------- Evaluate ---

TEST(EvaluateTest, PrefixSpreadsMonotone) {
  const ProbGraph g = RandomTestGraph(60, 180, 32);
  Rng rng(33);
  const std::vector<NodeId> seeds = {1, 5, 9, 13, 17};
  const auto spreads = EvaluatePrefixSpreads(g, seeds, 100, &rng);
  ASSERT_TRUE(spreads.ok());
  ASSERT_EQ(spreads->size(), 5u);
  EXPECT_GE((*spreads)[0], 1.0);
  for (size_t i = 1; i < spreads->size(); ++i) {
    EXPECT_GE((*spreads)[i], (*spreads)[i - 1]);
  }
  EXPECT_LE(spreads->back(), g.num_nodes());
}

TEST(EvaluateTest, FinalPrefixMatchesEvaluateSpread) {
  const ProbGraph g = RandomTestGraph(40, 120, 34);
  const std::vector<NodeId> seeds = {2, 4, 6};
  Rng ra(35), rb(35);
  const auto prefix = EvaluatePrefixSpreads(g, seeds, 400, &ra);
  const auto full = EvaluateSpread(g, seeds, 400, &rb);
  ASSERT_TRUE(prefix.ok());
  ASSERT_TRUE(full.ok());
  // Different traversal structure but same worlds (same RNG stream feeds
  // SampleWorld in both paths) => values agree closely; allow MC jitter
  // because EvaluatePrefixSpreads builds condensations (same edges, same
  // counts) — equality should in fact be exact.
  EXPECT_NEAR(prefix->back(), *full, 1e-9);
}

TEST(EvaluateTest, RejectsBadArgs) {
  const ProbGraph g = RandomTestGraph(10, 20, 36);
  Rng rng(37);
  const std::vector<NodeId> empty;
  const std::vector<NodeId> seeds = {0};
  EXPECT_FALSE(EvaluatePrefixSpreads(g, empty, 10, &rng).ok());
  EXPECT_FALSE(EvaluatePrefixSpreads(g, seeds, 0, &rng).ok());
  const std::vector<NodeId> bad = {99};
  EXPECT_FALSE(EvaluateSpread(g, bad, 10, &rng).ok());
}

TEST(EvaluateTest, DeterministicSeedsDeterministicSpread) {
  // All-probability-1 graph: spread is exact regardless of sampling.
  ProbGraphBuilder b(4);
  ASSERT_TRUE(b.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(b.AddEdge(1, 2, 1.0).ok());
  const auto g = b.Build();
  ASSERT_TRUE(g.ok());
  Rng rng(38);
  const std::vector<NodeId> seeds = {0, 3};
  const auto spread = EvaluateSpread(*g, seeds, 7, &rng);
  ASSERT_TRUE(spread.ok());
  EXPECT_DOUBLE_EQ(*spread, 4.0);
}

}  // namespace
}  // namespace soi
