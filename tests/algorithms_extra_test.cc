// Property suite for the extended algorithm library (clustering, HITS,
// multi-source BFS, diameter, bipartiteness, topological layers, densest
// subgraph, personalized PageRank) against the reference oracles.

#include <gtest/gtest.h>

#include <cmath>

#include "algorithms/algorithms.h"
#include "reference/reference.h"
#include "tests/test_util.h"

namespace flash {
namespace {

using testing::AllRuntimeCases;
using testing::MakeOptions;
using testing::RuntimeCase;
using testing::TestGraphs;

class ExtraSweep : public ::testing::TestWithParam<RuntimeCase> {
 protected:
  RuntimeOptions options() const { return MakeOptions(GetParam()); }
};

TEST_P(ExtraSweep, ClusteringCoefficient) {
  for (const auto& [name, graph] : TestGraphs()) {
    auto result = algo::RunClusteringCoefficient(graph, options());
    auto triangles = reference::LocalTriangleCounts(*graph);
    for (VertexId v = 0; v < graph->NumVertices(); ++v) {
      uint32_t deg = graph->Degree(v);
      double expected =
          deg < 2 ? 0.0
                  : 2.0 * static_cast<double>(triangles[v]) /
                        (static_cast<double>(deg) * (deg - 1));
      ASSERT_NEAR(result.local[v], expected, 1e-12) << name << " v" << v;
    }
    EXPECT_GE(result.average, 0.0) << name;
    EXPECT_LE(result.average, 1.0) << name;
  }
}

TEST_P(ExtraSweep, Hits) {
  for (const auto& [name, graph] : TestGraphs(/*directed=*/true)) {
    auto result = algo::RunHits(graph, 8, options());
    auto expected = reference::Hits(*graph, 8);
    for (VertexId v = 0; v < graph->NumVertices(); ++v) {
      ASSERT_NEAR(result.hub[v], expected.hub[v], 1e-9) << name << " v" << v;
      ASSERT_NEAR(result.authority[v], expected.authority[v], 1e-9)
          << name << " v" << v;
    }
  }
}

TEST_P(ExtraSweep, MultiSourceBfs) {
  for (const auto& [name, graph] : TestGraphs()) {
    std::vector<VertexId> sources;
    for (VertexId s = 0; s < graph->NumVertices() && sources.size() < 7;
         s += std::max<VertexId>(1, graph->NumVertices() / 7)) {
      sources.push_back(s);
    }
    auto result = algo::RunMultiSourceBfs(graph, sources, options());
    auto expected = reference::DistancesFromSources(*graph, sources);
    for (VertexId v = 0; v < graph->NumVertices(); ++v) {
      ASSERT_EQ(result.distance_sum[v], expected.distance_sum[v])
          << name << " v" << v;
      ASSERT_NEAR(result.harmonic[v], expected.harmonic[v], 1e-9)
          << name << " v" << v;
    }
  }
}

TEST(MultiSourceBfsCore, LevelsAscendAndHoldExactDistances) {
  // Each level's fresh list is merged from the workers' ascending runs:
  // under the hash partition those interleave, and the merged list must
  // still ascend. Bit s of v's mask arrives exactly once, at dist(s, v),
  // also for the repeated source n / 3.
  for (const auto& [name, graph] : TestGraphs()) {
    const VertexId n = graph->NumVertices();
    const std::vector<VertexId> sources = {0, n / 3, 2 * n / 3, n / 3};
    std::vector<std::vector<uint32_t>> level_of(
        sources.size(), std::vector<uint32_t>(n, reference::kUnreachable));
    algo::MsBfsCoreOptions core;
    core.on_level = [&](const algo::MsBfsLevel& lv) {
      for (size_t i = 1; i < lv.fresh.size(); ++i) {
        EXPECT_LT(lv.fresh[i - 1].vertex, lv.fresh[i].vertex)
            << name << " level " << lv.level;
      }
      for (const auto& [v, mask] : lv.fresh) {
        for (size_t s = 0; s < sources.size(); ++s) {
          if (((mask >> s) & 1) == 0) continue;
          EXPECT_EQ(level_of[s][v], reference::kUnreachable) << name;
          level_of[s][v] = lv.level;
        }
      }
      return true;
    };
    RuntimeOptions options;
    options.num_workers = 3;
    algo::RunMultiSourceBfsCore(graph, sources, options, core);
    for (size_t s = 0; s < sources.size(); ++s) {
      EXPECT_EQ(level_of[s], reference::BfsDistances(*graph, sources[s]))
          << name << " source " << sources[s];
    }
  }
}

TEST(MultiSourceBfsPull, SettledLevelScansNoEdges) {
  // The pull's C skips a vertex that every source has reached. On a
  // connected graph the traversal's last level finds nothing new, and by
  // then every vertex holds the full mask, so that level examines no edge.
  // Width 64 (sources folded onto the cycle's 12 vertices) fills every bit.
  auto graph = MakeCycle(12).value();
  for (size_t width : {1, 5, 64}) {
    std::vector<VertexId> sources;
    for (size_t i = 0; i < width; ++i) {
      sources.push_back(static_cast<VertexId>(i * 5 % 12));
    }
    RuntimeOptions options;
    options.num_workers = 3;
    options.edgemap_mode = EdgeMapMode::kPull;
    options.record_steps = true;
    auto result = algo::RunMultiSourceBfs(graph, sources, options);
    std::vector<uint64_t> dense_edges;
    for (const StepSample& step : result.metrics.steps) {
      if (step.kind == StepKind::kEdgeMapDense) {
        dense_edges.push_back(step.edges_total);
      }
    }
    ASSERT_EQ(dense_edges.size(), static_cast<size_t>(result.rounds))
        << "width " << width;
    EXPECT_GT(dense_edges.front(), 0u) << "width " << width;
    EXPECT_EQ(dense_edges.back(), 0u) << "width " << width;
  }
}

TEST_P(ExtraSweep, HarmonicCentrality) {
  for (const auto& [name, graph] : TestGraphs()) {
    // 70 sources forces two MS-BFS batches.
    std::vector<VertexId> sources;
    for (VertexId s = 0; s < graph->NumVertices() && sources.size() < 70; ++s) {
      sources.push_back(s);
    }
    auto result = algo::RunHarmonicCentrality(graph, sources, options());
    auto expected = reference::DistancesFromSources(*graph, sources);
    for (VertexId v = 0; v < graph->NumVertices(); ++v) {
      ASSERT_NEAR(result.harmonic[v], expected.harmonic[v], 1e-9)
          << name << " v" << v;
    }
  }
}

TEST_P(ExtraSweep, DiameterEstimate) {
  for (const auto& [name, graph] : TestGraphs()) {
    auto result = algo::RunDiameterEstimate(graph, 0, options());
    uint32_t exact = reference::ExactDiameter(*graph);
    EXPECT_LE(result.lower_bound, exact) << name;
    // Double sweep finds at least the seed's eccentricity.
    auto from_seed = reference::BfsDistances(*graph, 0);
    uint32_t ecc = 0;
    for (uint32_t d : from_seed) {
      if (d != reference::kUnreachable) ecc = std::max(ecc, d);
    }
    EXPECT_GE(result.lower_bound, ecc) << name;
  }
}

TEST_P(ExtraSweep, DiameterExactOnTreesAndPaths) {
  RuntimeOptions opts = options();
  auto path = MakePath(33).value();
  EXPECT_EQ(algo::RunDiameterEstimate(path, 5, opts).lower_bound, 32u);
  auto tree = MakeBinaryTree(31).value();
  EXPECT_EQ(algo::RunDiameterEstimate(tree, 0, opts).lower_bound,
            reference::ExactDiameter(*tree));
}

TEST_P(ExtraSweep, BipartiteCheck) {
  for (const auto& [name, graph] : TestGraphs()) {
    auto result = algo::RunBipartiteCheck(graph, options());
    EXPECT_EQ(result.is_bipartite, reference::IsBipartite(*graph)) << name;
    if (result.is_bipartite) {
      graph->ForEachEdge([&](VertexId u, VertexId v, float) {
        if (u != v) {
          EXPECT_NE(result.side[u], result.side[v]) << name;
        }
      });
    }
  }
}

TEST_P(ExtraSweep, BipartiteFixtures) {
  RuntimeOptions opts = options();
  EXPECT_TRUE(algo::RunBipartiteCheck(MakePath(10).value(), opts).is_bipartite);
  EXPECT_TRUE(
      algo::RunBipartiteCheck(MakeCycle(8).value(), opts).is_bipartite);
  EXPECT_FALSE(
      algo::RunBipartiteCheck(MakeCycle(9).value(), opts).is_bipartite);
  EXPECT_TRUE(
      algo::RunBipartiteCheck(MakeBinaryTree(20).value(), opts).is_bipartite);
  EXPECT_FALSE(
      algo::RunBipartiteCheck(MakeComplete(4).value(), opts).is_bipartite);
}

TEST_P(ExtraSweep, TopologicalLayers) {
  for (const auto& [name, graph] : TestGraphs(/*directed=*/true)) {
    auto result = algo::RunTopologicalLayers(graph, options());
    auto expected = reference::TopologicalLayers(*graph);
    EXPECT_EQ(result.is_dag, expected.is_dag) << name;
    for (VertexId v = 0; v < graph->NumVertices(); ++v) {
      uint32_t want = expected.layer[v] == reference::kUnreachable
                          ? algo::kInf32
                          : expected.layer[v];
      ASSERT_EQ(result.layer[v], want) << name << " v" << v;
    }
  }
}

TEST_P(ExtraSweep, TopologicalLayersOnDag) {
  // Binary tree edges point parent -> child: a DAG with log-depth layers.
  auto dag = MakeBinaryTree(31, /*symmetrize=*/false).value();
  auto result = algo::RunTopologicalLayers(dag, options());
  EXPECT_TRUE(result.is_dag);
  EXPECT_EQ(result.layer[0], 0u);
  EXPECT_EQ(result.layer[30], 4u);
}

TEST_P(ExtraSweep, DensestSubgraph) {
  for (const auto& [name, graph] : TestGraphs()) {
    const double eps = 0.1;
    auto result = algo::RunDensestSubgraph(graph, eps, options());
    // Reported density must match the returned set...
    EXPECT_NEAR(result.density,
                reference::InducedDensity(*graph, result.in_subgraph), 1e-9)
        << name;
    // ...and satisfy the 2(1+eps) approximation versus Charikar's bound.
    double charikar = reference::CharikarPeelMaxDensity(*graph);
    EXPECT_GE(result.density + 1e-9, charikar / (2.0 * (1.0 + eps))) << name;
  }
}

TEST_P(ExtraSweep, DensestFindsPlantedClique) {
  // A sparse background plus a planted K8: the K8 (density 3.5) must be
  // found (within the approximation factor of its exact density).
  GraphBuilder builder(64);
  for (VertexId v = 0; v + 1 < 56; ++v) builder.AddEdge(v, v + 1);
  for (VertexId i = 56; i < 64; ++i) {
    for (VertexId j = i + 1; j < 64; ++j) builder.AddEdge(i, j);
  }
  BuildOptions opt;
  opt.symmetrize = true;
  auto graph = builder.Build(opt).value();
  auto result = algo::RunDensestSubgraph(graph, 0.05, options());
  EXPECT_GE(result.density, 3.5 / 2.1);
  // The planted clique survives in the reported subgraph.
  for (VertexId v = 56; v < 64; ++v) EXPECT_TRUE(result.in_subgraph[v]);
}

TEST_P(ExtraSweep, PersonalizedPageRank) {
  for (const auto& [name, graph] : TestGraphs(/*directed=*/true)) {
    auto result = algo::RunPersonalizedPageRank(graph, 0, 12, options());
    auto expected = reference::PersonalizedPageRank(*graph, 0, 12);
    double mass = 0;
    for (VertexId v = 0; v < graph->NumVertices(); ++v) {
      ASSERT_NEAR(result.rank[v], expected[v], 1e-9) << name << " v" << v;
      mass += result.rank[v];
    }
    EXPECT_NEAR(mass, 1.0, 1e-6) << name;  // Probability mass conserved.
  }
}

TEST_P(ExtraSweep, SsspDeltaStepping) {
  for (const auto& [name, graph] : TestGraphs(false, /*weighted=*/true)) {
    for (float delta : {0.1f, 0.3f, 2.0f}) {  // 2.0 degenerates to B-F.
      auto result = algo::RunSsspDeltaStepping(graph, 0, delta, options());
      auto expected = reference::SsspDistances(*graph, 0);
      for (VertexId v = 0; v < graph->NumVertices(); ++v) {
        if (std::isinf(expected[v])) {
          ASSERT_TRUE(std::isinf(result.distance[v]))
              << name << " d=" << delta << " v" << v;
        } else {
          ASSERT_NEAR(result.distance[v], expected[v], 1e-4)
              << name << " d=" << delta << " v" << v;
        }
      }
    }
  }
}

TEST_P(ExtraSweep, ApproxBetweenness) {
  for (const auto& [name, graph] : TestGraphs()) {
    std::vector<VertexId> sources = {0};
    if (graph->NumVertices() > 5) sources.push_back(5);
    auto result = algo::RunApproxBetweenness(graph, sources, options());
    std::vector<double> expected(graph->NumVertices(), 0.0);
    for (VertexId s : sources) {
      auto one = reference::BetweennessFromSource(*graph, s);
      for (VertexId v = 0; v < graph->NumVertices(); ++v) expected[v] += one[v];
    }
    for (VertexId v = 0; v < graph->NumVertices(); ++v) {
      ASSERT_NEAR(result.score[v], expected[v], 1e-6) << name << " v" << v;
    }
  }
}

TEST_P(ExtraSweep, KTruss) {
  for (const auto& [name, graph] : TestGraphs()) {
    for (uint32_t k : {3u, 4u}) {
      auto result = algo::RunKTruss(graph, k, options());
      auto expected = reference::KTrussAdjacency(*graph, k);
      uint64_t expected_edges = 0;
      for (const auto& adj : expected) expected_edges += adj.size();
      ASSERT_EQ(result.edges_remaining, expected_edges / 2)
          << name << " k=" << k;
      ASSERT_EQ(result.adjacency, expected) << name << " k=" << k;
    }
  }
}

TEST_P(ExtraSweep, KTrussFixtures) {
  RuntimeOptions opts = options();
  // K5: every edge closes 3 triangles => the whole graph is a 5-truss.
  auto k5 = MakeComplete(5).value();
  EXPECT_EQ(algo::RunKTruss(k5, 5, opts).edges_remaining, 10u);
  EXPECT_EQ(algo::RunKTruss(k5, 6, opts).edges_remaining, 0u);
  // A cycle has no triangles: any k >= 3 empties it.
  auto cycle = MakeCycle(10).value();
  EXPECT_EQ(algo::RunKTruss(cycle, 3, opts).edges_remaining, 0u);
  EXPECT_EQ(algo::RunKTruss(cycle, 2, opts).edges_remaining, 10u);
}

INSTANTIATE_TEST_SUITE_P(Runtimes, ExtraSweep,
                         ::testing::ValuesIn(AllRuntimeCases()),
                         [](const auto& info) {
                           std::ostringstream os;
                           os << info.param;
                           return os.str();
                         });

}  // namespace
}  // namespace flash
