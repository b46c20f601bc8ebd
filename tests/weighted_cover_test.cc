#include <vector>

#include <gtest/gtest.h>

#include "infmax/weighted_cover.h"
#include "util/rng.h"

namespace soi {
namespace {

// 6 nodes; cascade of node v as in the unweighted InfMaxTC test, but node
// values make node 2's small cascade the most valuable.
std::vector<std::vector<NodeId>> ToyCascades() {
  return {
      {0, 1, 2},  // covers value depending on weights
      {1},        //
      {2, 3},     //
      {3, 4, 5},  //
      {4},        //
      {5},        //
  };
}

TEST(WeightedCoverTest, UnitValuesMatchUnweightedGreedy) {
  const std::vector<double> unit(6, 1.0);
  WeightedCoverOptions options;
  options.k = 2;
  const auto result = InfMaxTcWeighted(ToyCascades(), unit, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->seeds[0], 0u);
  EXPECT_EQ(result->seeds[1], 3u);
  EXPECT_DOUBLE_EQ(result->steps[1].objective_after, 6.0);
}

TEST(WeightedCoverTest, ValuesRedirectSelection) {
  // Node 3's value-heavy cascade {3,4,5} = 0.3; node 2's {2,3} = 10.1.
  const std::vector<double> values = {0.1, 0.1, 10.0, 0.1, 0.1, 0.1};
  WeightedCoverOptions options;
  options.k = 1;
  const auto result = InfMaxTcWeighted(ToyCascades(), values, options);
  ASSERT_TRUE(result.ok());
  // Best single = cascade containing node 2 with max value: node 0 covers
  // {0,1,2} = 10.2, node 2 covers {2,3} = 10.1.
  EXPECT_EQ(result->seeds[0], 0u);
  EXPECT_NEAR(result->steps[0].marginal_gain, 10.2, 1e-12);
}

// Exhaustive greedy oracle for the lazy kernel: every round rescans the
// uncovered value of every unselected cascade; ties go to the smaller id.
std::vector<NodeId> ExhaustiveWeightedGreedy(
    const std::vector<std::vector<NodeId>>& cascades,
    const std::vector<double>& values, uint32_t k) {
  std::vector<bool> covered(values.size(), false);
  std::vector<bool> selected(cascades.size(), false);
  std::vector<NodeId> seeds;
  for (uint32_t round = 0; round < k; ++round) {
    NodeId best = 0;
    double best_gain = -1.0;
    for (NodeId v = 0; v < cascades.size(); ++v) {
      if (selected[v]) continue;
      double gain = 0.0;
      for (NodeId u : cascades[v]) gain += covered[u] ? 0.0 : values[u];
      if (gain > best_gain) {
        best = v;
        best_gain = gain;
      }
    }
    selected[best] = true;
    for (NodeId u : cascades[best]) covered[u] = true;
    seeds.push_back(best);
  }
  return seeds;
}

TEST(WeightedCoverTest, CelfMatchesExhaustive) {
  Rng rng(1);
  std::vector<std::vector<NodeId>> cascades(40);
  std::vector<double> values(40);
  for (auto& c : cascades) {
    for (NodeId v = 0; v < 40; ++v) {
      if (rng.NextBernoulli(0.2)) c.push_back(v);
    }
  }
  for (auto& v : values) v = rng.NextDouble() * 5;
  WeightedCoverOptions options;
  options.k = 10;
  const auto a = InfMaxTcWeighted(cascades, values, options);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->seeds, ExhaustiveWeightedGreedy(cascades, values, options.k));
}

TEST(WeightedCoverTest, RejectsBadInputs) {
  WeightedCoverOptions options;
  options.k = 1;
  EXPECT_FALSE(
      InfMaxTcWeighted(std::vector<std::vector<NodeId>>{}, {}, options).ok());
  EXPECT_FALSE(
      InfMaxTcWeighted(ToyCascades(), {1.0, 1.0}, options).ok());  // size
  std::vector<double> negative(6, 1.0);
  negative[3] = -1.0;
  EXPECT_FALSE(InfMaxTcWeighted(ToyCascades(), negative, options).ok());
  options.k = 0;
  EXPECT_FALSE(
      InfMaxTcWeighted(ToyCascades(), std::vector<double>(6, 1.0), options)
          .ok());
}

TEST(WeightedCoverTest, ZeroValueNodesIgnoredInObjective) {
  const std::vector<double> values = {0, 0, 0, 1, 1, 1};
  WeightedCoverOptions options;
  options.k = 1;
  const auto result = InfMaxTcWeighted(ToyCascades(), values, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->seeds[0], 3u);  // covers {3,4,5} = all the value
  EXPECT_DOUBLE_EQ(result->steps[0].objective_after, 3.0);
}

// ------------------------------------------------------------- Budgeted ---

TEST(BudgetedCoverTest, RespectsBudget) {
  const std::vector<double> values(6, 1.0);
  const std::vector<double> costs = {3.0, 1.0, 1.0, 3.0, 1.0, 1.0};
  BudgetedCoverOptions options;
  options.budget = 4.0;
  const auto result = InfMaxTcBudgeted(ToyCascades(), values, costs, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->total_cost, 4.0 + 1e-12);
  EXPECT_GT(result->covered_value, 0.0);
}

TEST(BudgetedCoverTest, RatioGreedyPrefersCheapCoverage) {
  // Node 0 covers 3 nodes at cost 10 (ratio 0.3); node 2 covers 2 at cost 1
  // (ratio 2.0). With budget 2, ratio greedy picks 2 then another cheap one.
  const std::vector<double> values(6, 1.0);
  const std::vector<double> costs = {10.0, 1.0, 1.0, 10.0, 1.0, 1.0};
  BudgetedCoverOptions options;
  options.budget = 2.0;
  const auto result = InfMaxTcBudgeted(ToyCascades(), values, costs, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->seeds[0], 2u);
  EXPECT_LE(result->total_cost, 2.0);
}

// Khuller-Moss-Naor counterexample shape: ratio greedy gets trapped by a
// cheap tiny-coverage seed; the best-single fallback restores the bound.
TEST(BudgetedCoverTest, SingleFallbackConcrete) {
  // Two candidate seeds over a 6-node universe.
  std::vector<std::vector<NodeId>> cascades(6);
  cascades[0] = {0};
  cascades[1] = {0, 1, 2, 3, 4, 5};
  const std::vector<double> values(6, 1.0);
  std::vector<double> costs(6, 100.0);  // others unaffordable
  costs[0] = 0.1;
  costs[1] = 10.0;
  BudgetedCoverOptions options;
  options.budget = 10.0;
  const auto result = InfMaxTcBudgeted(cascades, values, costs, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->used_single_fallback);
  EXPECT_EQ(result->seeds, std::vector<NodeId>{1});
  EXPECT_DOUBLE_EQ(result->covered_value, 6.0);

  options.best_single_fallback = false;
  const auto no_fallback = InfMaxTcBudgeted(cascades, values, costs, options);
  ASSERT_TRUE(no_fallback.ok());
  EXPECT_FALSE(no_fallback->used_single_fallback);
  EXPECT_LT(no_fallback->covered_value, 6.0);
}

TEST(BudgetedCoverTest, RejectsBadInputs) {
  const std::vector<double> values(6, 1.0);
  const std::vector<double> costs(6, 1.0);
  BudgetedCoverOptions options;
  options.budget = 0.0;
  EXPECT_FALSE(InfMaxTcBudgeted(ToyCascades(), values, costs, options).ok());
  options.budget = 5.0;
  std::vector<double> bad_costs(6, 1.0);
  bad_costs[2] = 0.0;
  EXPECT_FALSE(
      InfMaxTcBudgeted(ToyCascades(), values, bad_costs, options).ok());
  EXPECT_FALSE(
      InfMaxTcBudgeted(ToyCascades(), values, {1.0}, options).ok());
}

TEST(BudgetedCoverTest, LargeBudgetCoversEverything) {
  const std::vector<double> values(6, 1.0);
  const std::vector<double> costs(6, 1.0);
  BudgetedCoverOptions options;
  options.budget = 100.0;
  const auto result = InfMaxTcBudgeted(ToyCascades(), values, costs, options);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->covered_value, 6.0);
}

}  // namespace
}  // namespace soi
