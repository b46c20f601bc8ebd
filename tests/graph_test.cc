#include <algorithm>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "graph/graph_io.h"
#include "graph/prob_assign.h"
#include "graph/prob_graph.h"
#include "test_temp_dir.h"
#include "util/rng.h"

namespace soi {
namespace {

ProbGraph SmallGraph() {
  ProbGraphBuilder b(4);
  EXPECT_TRUE(b.AddEdge(0, 1, 0.5).ok());
  EXPECT_TRUE(b.AddEdge(0, 2, 0.25).ok());
  EXPECT_TRUE(b.AddEdge(2, 1, 1.0).ok());
  EXPECT_TRUE(b.AddEdge(3, 0, 0.75).ok());
  auto g = b.Build();
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

// ----------------------------------------------------------------- Build ---

TEST(ProbGraphBuilderTest, BuildsCsr) {
  const ProbGraph g = SmallGraph();
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  const auto n0 = g.OutNeighbors(0);
  ASSERT_EQ(n0.size(), 2u);
  EXPECT_EQ(n0[0], 1u);
  EXPECT_EQ(n0[1], 2u);
  const auto p0 = g.OutProbs(0);
  EXPECT_DOUBLE_EQ(p0[0], 0.5);
  EXPECT_DOUBLE_EQ(p0[1], 0.25);
  EXPECT_EQ(g.OutDegree(1), 0u);
  EXPECT_EQ(g.OutDegree(3), 1u);
}

TEST(ProbGraphBuilderTest, ReverseCsr) {
  const ProbGraph g = SmallGraph();
  const auto in1 = g.InNeighbors(1);
  ASSERT_EQ(in1.size(), 2u);
  EXPECT_EQ(in1[0], 0u);
  EXPECT_EQ(in1[1], 2u);
  EXPECT_EQ(g.InDegree(0), 1u);
  EXPECT_EQ(g.InDegree(3), 0u);
}

TEST(ProbGraphBuilderTest, EdgeAccessors) {
  const ProbGraph g = SmallGraph();
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto found = g.FindEdge(g.EdgeSource(e), g.EdgeTarget(e));
    ASSERT_TRUE(found.ok());
    EXPECT_EQ(found.value(), e);
  }
  EXPECT_EQ(g.FindEdge(1, 0).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(g.FindEdge(9, 0).status().code(), StatusCode::kOutOfRange);
}

TEST(ProbGraphBuilderTest, RejectsSelfLoop) {
  ProbGraphBuilder b(3);
  EXPECT_EQ(b.AddEdge(1, 1, 0.5).code(), StatusCode::kInvalidArgument);
}

TEST(ProbGraphBuilderTest, RejectsOutOfRangeNode) {
  ProbGraphBuilder b(3);
  EXPECT_EQ(b.AddEdge(0, 3, 0.5).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(b.AddEdge(3, 0, 0.5).code(), StatusCode::kOutOfRange);
}

TEST(ProbGraphBuilderTest, RejectsBadProbability) {
  ProbGraphBuilder b(3);
  EXPECT_FALSE(b.AddEdge(0, 1, 0.0).ok());
  EXPECT_FALSE(b.AddEdge(0, 1, -0.1).ok());
  EXPECT_FALSE(b.AddEdge(0, 1, 1.5).ok());
  EXPECT_TRUE(b.AddEdge(0, 1, 1.0).ok());
}

TEST(ProbGraphBuilderTest, RejectsDuplicateByDefault) {
  ProbGraphBuilder b(3);
  ASSERT_TRUE(b.AddEdge(0, 1, 0.5).ok());
  ASSERT_TRUE(b.AddEdge(0, 1, 0.7).ok());
  EXPECT_EQ(b.Build().status().code(), StatusCode::kInvalidArgument);
}

TEST(ProbGraphBuilderTest, KeepMaxDuplicate) {
  ProbGraphBuilder b(3);
  b.keep_max_duplicate(true);
  ASSERT_TRUE(b.AddEdge(0, 1, 0.5).ok());
  ASSERT_TRUE(b.AddEdge(0, 1, 0.7).ok());
  ASSERT_TRUE(b.AddEdge(0, 1, 0.6).ok());
  const auto g = b.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 1u);
  EXPECT_DOUBLE_EQ(g->EdgeProb(0), 0.7);
}

TEST(ProbGraphBuilderTest, UndirectedAddsBothArcs) {
  ProbGraphBuilder b(3);
  ASSERT_TRUE(b.AddUndirectedEdge(0, 2, 0.4).ok());
  const auto g = b.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 2u);
  EXPECT_TRUE(g->FindEdge(0, 2).ok());
  EXPECT_TRUE(g->FindEdge(2, 0).ok());
}

TEST(ProbGraphBuilderTest, EmptyGraph) {
  ProbGraphBuilder b(0);
  const auto g = b.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_nodes(), 0u);
  EXPECT_EQ(g->num_edges(), 0u);
}

TEST(ProbGraphTest, WithProbsReplacesProbabilities) {
  const ProbGraph g = SmallGraph();
  const auto g2 = g.WithProbs({0.1, 0.2, 0.3, 0.4});
  ASSERT_TRUE(g2.ok());
  EXPECT_DOUBLE_EQ(g2->EdgeProb(0), 0.1);
  EXPECT_EQ(g2->num_edges(), g.num_edges());
  EXPECT_FALSE(g.WithProbs({0.1}).ok());             // size mismatch
  EXPECT_FALSE(g.WithProbs({0.1, 0.2, 0.3, 0.0}).ok());  // zero prob
}

TEST(ProbGraphTest, EdgesRoundTrip) {
  const ProbGraph g = SmallGraph();
  const auto edges = g.Edges();
  ASSERT_EQ(edges.size(), 4u);
  ProbGraphBuilder b(4);
  for (const auto& e : edges) {
    ASSERT_TRUE(b.AddEdge(e.src, e.dst, e.prob).ok());
  }
  const auto g2 = b.Build();
  ASSERT_TRUE(g2.ok());
  EXPECT_EQ(g2->num_edges(), g.num_edges());
}

TEST(ProbGraphTest, ExpectedOutDegree) {
  const ProbGraph g = SmallGraph();
  EXPECT_DOUBLE_EQ(g.ExpectedOutDegree(0), 0.75);
  EXPECT_DOUBLE_EQ(g.ExpectedOutDegree(1), 0.0);
}

// -------------------------------------------------------------------- IO ---

TEST(GraphIoTest, ParsesEdgeListWithProbs) {
  const auto g = ParseEdgeList("0 1 0.5\n1 2 0.25\n");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_nodes(), 3u);
  EXPECT_EQ(g->num_edges(), 2u);
  EXPECT_DOUBLE_EQ(g->EdgeProb(g->FindEdge(1, 2).value()), 0.25);
}

TEST(GraphIoTest, CommentsAndBlankLines) {
  const auto g = ParseEdgeList("# header\n\n  # indented comment\n0 1 0.5\n");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 1u);
}

TEST(GraphIoTest, DefaultProbability) {
  EdgeListOptions options;
  options.default_prob = 0.33;
  const auto g = ParseEdgeList("0 1\n", options);
  ASSERT_TRUE(g.ok());
  EXPECT_DOUBLE_EQ(g->EdgeProb(0), 0.33);
}

TEST(GraphIoTest, UndirectedOption) {
  EdgeListOptions options;
  options.undirected = true;
  const auto g = ParseEdgeList("0 1 0.5\n", options);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 2u);
}

TEST(GraphIoTest, ExplicitNumNodes) {
  EdgeListOptions options;
  options.num_nodes = 10;
  const auto g = ParseEdgeList("0 1 0.5\n", options);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_nodes(), 10u);

  options.num_nodes = 2;
  EXPECT_EQ(ParseEdgeList("0 5 0.5\n", options).status().code(),
            StatusCode::kOutOfRange);
}

TEST(GraphIoTest, MalformedRows) {
  EXPECT_EQ(ParseEdgeList("0\n").status().code(), StatusCode::kIOError);
  EXPECT_EQ(ParseEdgeList("a b\n").status().code(), StatusCode::kIOError);
  EXPECT_EQ(ParseEdgeList("0 1 0.5 junk\n").status().code(),
            StatusCode::kIOError);
}

TEST(GraphIoTest, InvalidProbabilityPropagates) {
  EXPECT_FALSE(ParseEdgeList("0 1 0\n").ok());
  EXPECT_FALSE(ParseEdgeList("0 1 1.5\n").ok());
}

TEST(GraphIoTest, SaveLoadRoundTrip) {
  const ProbGraph g = SmallGraph();
  const std::filesystem::path path = TestTempPath("graph.txt");
  ASSERT_TRUE(SaveEdgeList(g, path.string()).ok());
  EdgeListOptions options;
  options.num_nodes = g.num_nodes();
  const auto loaded = LoadEdgeList(path.string(), options);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_nodes(), g.num_nodes());
  EXPECT_EQ(loaded->num_edges(), g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(loaded->EdgeSource(e), g.EdgeSource(e));
    EXPECT_EQ(loaded->EdgeTarget(e), g.EdgeTarget(e));
    EXPECT_NEAR(loaded->EdgeProb(e), g.EdgeProb(e), 1e-9);
  }
  std::filesystem::remove(path);
}

TEST(GraphIoTest, SaveLoadRoundTripKeepsTrailingIsolatedNodes) {
  // Nodes 4..6 have no edges: only the header can say they exist.
  ProbGraphBuilder b(7);
  ASSERT_TRUE(b.AddEdge(0, 1, 0.5).ok());
  ASSERT_TRUE(b.AddEdge(3, 2, 0.25).ok());
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  const std::filesystem::path path = TestTempPath("isolated.txt");
  ASSERT_TRUE(SaveEdgeList(*g, path.string()).ok());
  const auto loaded = LoadEdgeList(path.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_nodes(), 7u);
  EXPECT_EQ(loaded->num_edges(), 2u);
  EXPECT_EQ(GraphFingerprint(*loaded), GraphFingerprint(*g));
  std::filesystem::remove(path);

  // An explicit num_nodes still wins over the header.
  EdgeListOptions options;
  options.num_nodes = 9;
  const auto wider = ParseEdgeList(ToEdgeListString(*g), options);
  ASSERT_TRUE(wider.ok());
  EXPECT_EQ(wider->num_nodes(), 9u);
}

TEST(GraphIoTest, HeaderSmallerThanLargestIdIsRejected) {
  const auto g = ParseEdgeList("# soi edge list: n=3 m=1 directed\n0 5 0.5\n");
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(g.status().message().find("header"), std::string::npos)
      << g.status().ToString();
  EXPECT_EQ(ParseEdgeList("# soi edge list: n=x m=1 directed\n0 1 0.5\n")
                .status()
                .code(),
            StatusCode::kIOError);
  // Other comments are still just comments.
  const auto plain = ParseEdgeList("# soi graph\n0 5 0.5\n");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->num_nodes(), 6u);
}

TEST(GraphIoTest, LoadMissingFileFails) {
  EXPECT_EQ(LoadEdgeList("/nonexistent/soi.txt").status().code(),
            StatusCode::kIOError);
}

// --------------------------------------------------------------- Assign ---

TEST(ProbAssignTest, WeightedCascade) {
  // Node 1 has in-degree 2, node 2 in-degree 1.
  ProbGraphBuilder b(3);
  ASSERT_TRUE(b.AddEdge(0, 1, 0.9).ok());
  ASSERT_TRUE(b.AddEdge(2, 1, 0.9).ok());
  ASSERT_TRUE(b.AddEdge(0, 2, 0.9).ok());
  const auto g = b.Build();
  ASSERT_TRUE(g.ok());
  const auto wc = AssignWeightedCascade(*g);
  ASSERT_TRUE(wc.ok());
  EXPECT_DOUBLE_EQ(wc->EdgeProb(wc->FindEdge(0, 1).value()), 0.5);
  EXPECT_DOUBLE_EQ(wc->EdgeProb(wc->FindEdge(2, 1).value()), 0.5);
  EXPECT_DOUBLE_EQ(wc->EdgeProb(wc->FindEdge(0, 2).value()), 1.0);
}

TEST(ProbAssignTest, Fixed) {
  const ProbGraph g = SmallGraph();
  const auto fixed = AssignFixed(g, 0.1);
  ASSERT_TRUE(fixed.ok());
  for (EdgeId e = 0; e < fixed->num_edges(); ++e) {
    EXPECT_DOUBLE_EQ(fixed->EdgeProb(e), 0.1);
  }
  EXPECT_FALSE(AssignFixed(g, 0.0).ok());
  EXPECT_FALSE(AssignFixed(g, 1.1).ok());
}

TEST(ProbAssignTest, Trivalency) {
  const ProbGraph g = SmallGraph();
  Rng rng(9);
  const auto tv = AssignTrivalency(g, &rng);
  ASSERT_TRUE(tv.ok());
  for (EdgeId e = 0; e < tv->num_edges(); ++e) {
    const double p = tv->EdgeProb(e);
    EXPECT_TRUE(p == 0.1 || p == 0.01 || p == 0.001) << p;
  }
}

TEST(ProbAssignTest, UniformWithinRange) {
  const ProbGraph g = SmallGraph();
  Rng rng(10);
  const auto u = AssignUniform(g, &rng, 0.2, 0.4);
  ASSERT_TRUE(u.ok());
  for (EdgeId e = 0; e < u->num_edges(); ++e) {
    EXPECT_GE(u->EdgeProb(e), 0.2);
    EXPECT_LE(u->EdgeProb(e), 0.4);
  }
  EXPECT_FALSE(AssignUniform(g, &rng, 0.4, 0.2).ok());
  EXPECT_FALSE(AssignUniform(g, &rng, 0.0, 0.5).ok());
}

TEST(ProbAssignTest, ExponentialClipped) {
  const ProbGraph g = SmallGraph();
  Rng rng(11);
  const auto x = AssignExponential(g, &rng, 0.05, 0.5);
  ASSERT_TRUE(x.ok());
  for (EdgeId e = 0; e < x->num_edges(); ++e) {
    EXPECT_GT(x->EdgeProb(e), 0.0);
    EXPECT_LE(x->EdgeProb(e), 0.5);
  }
  EXPECT_FALSE(AssignExponential(g, &rng, -1.0, 0.5).ok());
}

TEST(ProbAssignTest, TopologyUntouched) {
  const ProbGraph g = SmallGraph();
  Rng rng(12);
  const auto u = AssignUniform(g, &rng);
  ASSERT_TRUE(u.ok());
  ASSERT_EQ(u->num_edges(), g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(u->EdgeSource(e), g.EdgeSource(e));
    EXPECT_EQ(u->EdgeTarget(e), g.EdgeTarget(e));
  }
}

}  // namespace
}  // namespace soi
