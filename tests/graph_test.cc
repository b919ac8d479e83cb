// Unit tests for src/graph: CSR building, generators, partitioning, I/O,
// and the dataset twins.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>

#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "graph/partition.h"

namespace flash {
namespace {

TEST(GraphBuilder, BuildsCsrBothDirections) {
  GraphBuilder builder(4);
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 2);
  builder.AddEdge(2, 3);
  auto graph = builder.Build(BuildOptions{}).value();
  EXPECT_EQ(graph->NumVertices(), 4u);
  EXPECT_EQ(graph->NumEdges(), 3u);
  EXPECT_EQ(graph->OutDegree(0), 2u);
  EXPECT_EQ(graph->InDegree(3), 1u);
  auto nbrs = graph->OutNeighbors(0);
  EXPECT_EQ(std::vector<VertexId>(nbrs.begin(), nbrs.end()),
            (std::vector<VertexId>{1, 2}));
  auto in3 = graph->InNeighbors(3);
  EXPECT_EQ(in3[0], 2u);
  EXPECT_TRUE(graph->HasEdge(0, 2));
  EXPECT_FALSE(graph->HasEdge(2, 0));
}

TEST(GraphBuilder, SymmetrizeAddsReverseEdges) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1);
  BuildOptions opt;
  opt.symmetrize = true;
  auto graph = builder.Build(opt).value();
  EXPECT_EQ(graph->NumEdges(), 2u);
  EXPECT_TRUE(graph->HasEdge(1, 0));
  EXPECT_TRUE(graph->is_symmetric());
}

TEST(GraphBuilder, DeduplicatesAndDropsSelfLoops) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1, 5.0f);
  builder.AddEdge(0, 1, 2.0f);
  builder.AddEdge(1, 1);
  BuildOptions opt;
  opt.keep_weights = true;
  auto graph = builder.Build(opt).value();
  EXPECT_EQ(graph->NumEdges(), 1u);
  EXPECT_EQ(graph->OutWeights(0)[0], 2.0f);  // Min weight kept.
}

TEST(GraphBuilder, InfersVertexCount) {
  GraphBuilder builder;
  builder.AddEdge(3, 9);
  auto graph = builder.Build(BuildOptions{}).value();
  EXPECT_EQ(graph->NumVertices(), 10u);
}

TEST(GraphBuilder, RejectsOutOfRangeEndpoint) {
  GraphBuilder builder(2);
  builder.AddEdge(0, 5);
  auto result = builder.Build(BuildOptions{});
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(GraphBuilder, EmptyGraph) {
  GraphBuilder builder(0);
  auto graph = builder.Build(BuildOptions{}).value();
  EXPECT_EQ(graph->NumVertices(), 0u);
  EXPECT_EQ(graph->NumEdges(), 0u);
}

TEST(Generators, RmatHasRequestedShape) {
  RmatOptions opt;
  opt.scale = 10;
  opt.avg_degree = 8;
  opt.symmetrize = false;
  auto graph = GenerateRmat(opt).value();
  EXPECT_EQ(graph->NumVertices(), 1u << 10);
  EXPECT_GT(graph->NumEdges(), 4u * graph->NumVertices());
  // Determinism.
  auto again = GenerateRmat(opt).value();
  EXPECT_EQ(graph->NumEdges(), again->NumEdges());
  EXPECT_EQ(graph->out_targets(), again->out_targets());
}

TEST(Generators, RmatIsSkewed) {
  RmatOptions opt;
  opt.scale = 12;
  opt.avg_degree = 16;
  auto graph = GenerateRmat(opt).value();
  uint32_t max_deg = 0;
  uint64_t total = 0;
  for (VertexId v = 0; v < graph->NumVertices(); ++v) {
    max_deg = std::max(max_deg, graph->OutDegree(v));
    total += graph->OutDegree(v);
  }
  double avg = static_cast<double>(total) / graph->NumVertices();
  EXPECT_GT(max_deg, 20 * avg);  // Hubs exist.
}

TEST(Generators, GridHasLargeDiameterLowDegree) {
  GridOptions opt;
  opt.rows = 40;
  opt.cols = 30;
  opt.keep_prob = 1.0;
  opt.highway_fraction = 0;
  auto graph = GenerateGrid(opt).value();
  EXPECT_EQ(graph->NumVertices(), 1200u);
  for (VertexId v = 0; v < graph->NumVertices(); ++v) {
    EXPECT_LE(graph->OutDegree(v), 4u);
  }
  EXPECT_TRUE(graph->is_symmetric());
}

TEST(Generators, WebGraphConnectsEveryVertex) {
  WebGraphOptions opt;
  opt.num_vertices = 2000;
  opt.out_degree = 6;
  auto graph = GenerateWebGraph(opt).value();
  for (VertexId v = 1; v < graph->NumVertices(); ++v) {
    EXPECT_GT(graph->Degree(v), 0u) << v;
  }
}

TEST(Generators, FixturesHaveExpectedSizes) {
  EXPECT_EQ(MakePath(5).value()->NumEdges(), 8u);  // Symmetrized.
  EXPECT_EQ(MakeCycle(5).value()->NumEdges(), 10u);
  EXPECT_EQ(MakeStar(5).value()->NumEdges(), 8u);
  EXPECT_EQ(MakeComplete(5).value()->NumEdges(), 20u);
  EXPECT_EQ(MakeBinaryTree(7).value()->NumEdges(), 12u);
}

TEST(Partition, HashAndChunkCoverAllVertices) {
  auto graph = MakePath(100).value();
  for (auto scheme : {PartitionScheme::kHash, PartitionScheme::kChunk}) {
    auto part = Partition::Create(graph, 7, scheme).value();
    std::set<VertexId> seen;
    for (int w = 0; w < 7; ++w) {
      for (VertexId v : part.OwnedVertices(w)) {
        EXPECT_EQ(part.Owner(v), w);
        EXPECT_TRUE(seen.insert(v).second);
      }
    }
    EXPECT_EQ(seen.size(), 100u);
  }
}

TEST(Partition, ChunkIsContiguous) {
  auto graph = MakePath(10).value();
  auto part = Partition::Create(graph, 3, PartitionScheme::kChunk).value();
  EXPECT_EQ(part.Owner(0), 0);
  EXPECT_EQ(part.Owner(3), 0);
  EXPECT_EQ(part.Owner(4), 1);
  EXPECT_EQ(part.Owner(9), 2);
}

TEST(Partition, MirrorMaskCoversNeighbourOwners) {
  auto graph = MakePath(10).value();  // 0-1-2-...-9 symmetric.
  auto part = Partition::Create(graph, 2, PartitionScheme::kHash).value();
  // Vertex 4 (owner 0) has neighbours 3 and 5, both owned by worker 1.
  EXPECT_EQ(part.MirrorMask(4), uint64_t{1} << 1);
  // A vertex never mirrors to its own owner.
  for (VertexId v = 0; v < 10; ++v) {
    EXPECT_EQ(part.MirrorMask(v) & (uint64_t{1} << part.Owner(v)), 0u);
  }
}

TEST(Partition, ChunkCutsFewerGridEdgesThanHash) {
  GridOptions opt;
  opt.rows = 30;
  opt.cols = 30;
  auto graph = GenerateGrid(opt).value();
  auto hash = Partition::Create(graph, 4, PartitionScheme::kHash).value();
  auto chunk = Partition::Create(graph, 4, PartitionScheme::kChunk).value();
  EXPECT_LT(chunk.CutEdges(*graph), hash.CutEdges(*graph));
}

TEST(Partition, RejectsBadWorkerCounts) {
  auto graph = MakePath(4).value();
  EXPECT_FALSE(Partition::Create(graph, 0).ok());
  EXPECT_FALSE(Partition::Create(graph, 65).ok());
  EXPECT_FALSE(Partition::Create(nullptr, 2).ok());
}

TEST(GraphIo, RoundTrip) {
  GridOptions opt;
  opt.rows = 5;
  opt.cols = 5;
  opt.weighted = true;
  auto graph = GenerateGrid(opt).value();
  std::string path =
      (std::filesystem::temp_directory_path() / "flash_io_test.el").string();
  ASSERT_TRUE(SaveEdgeListFile(*graph, path).ok());
  BuildOptions load_opt;
  load_opt.keep_weights = true;
  auto loaded = LoadEdgeListFile(path, load_opt).value();
  EXPECT_EQ(loaded->NumVertices(), graph->NumVertices());
  EXPECT_EQ(loaded->NumEdges(), graph->NumEdges());
  EXPECT_EQ(loaded->out_targets(), graph->out_targets());
  std::remove(path.c_str());
}

TEST(GraphIo, MissingFileIsIOError) {
  auto result = LoadEdgeListFile("/nonexistent/path/graph.el");
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError());
}

// --- Dual-backend parameterized suite -------------------------------------
//
// Every Graph accessor must behave identically whether the adjacency lives
// in the in-memory CSR or behind the paged block store. The fixture routes
// the same built graph through the requested backend.

class GraphBackend : public ::testing::TestWithParam<const char*> {
 protected:
  GraphPtr Backend(const GraphPtr& mem) {
    if (std::string(GetParam()) == "mem") return mem;
    std::string path = (std::filesystem::temp_directory_path() /
                        ("flash_backend_test_" + std::to_string(paths_.size()) +
                         ".fblk"))
                           .string();
    BlockFileOptions options;
    options.block_payload_bytes = 512;  // Force multiple blocks.
    EXPECT_TRUE(SaveBlockFile(*mem, path, options).ok());
    paths_.push_back(path);
    return OpenPagedGraph(path).value();
  }

  void TearDown() override {
    for (const std::string& p : paths_) std::remove(p.c_str());
  }

  std::vector<std::string> paths_;
};

TEST_P(GraphBackend, CsrAccessorsMatchHandBuiltGraph) {
  GraphBuilder builder(4);
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 2);
  builder.AddEdge(2, 3);
  GraphPtr graph = Backend(builder.Build(BuildOptions{}).value());
  EXPECT_EQ(graph->NumVertices(), 4u);
  EXPECT_EQ(graph->NumEdges(), 3u);
  EXPECT_EQ(graph->OutDegree(0), 2u);
  EXPECT_EQ(graph->InDegree(3), 1u);
  auto nbrs = graph->OutNeighbors(0);
  EXPECT_EQ(std::vector<VertexId>(nbrs.begin(), nbrs.end()),
            (std::vector<VertexId>{1, 2}));
  auto in3 = graph->InNeighbors(3);
  EXPECT_EQ(in3[0], 2u);
  EXPECT_TRUE(graph->HasEdge(0, 2));
  EXPECT_FALSE(graph->HasEdge(2, 0));
  EXPECT_EQ(graph->is_paged(), std::string(GetParam()) == "paged");
}

TEST_P(GraphBackend, AdjacencyAndOffsetsMatchOnGeneratedGraph) {
  RmatOptions opt;
  opt.scale = 9;
  opt.avg_degree = 8;
  opt.symmetrize = true;
  GraphPtr mem = GenerateRmat(opt).value();
  GraphPtr graph = Backend(mem);
  ASSERT_EQ(graph->NumVertices(), mem->NumVertices());
  ASSERT_EQ(graph->NumEdges(), mem->NumEdges());
  EXPECT_EQ(graph->out_offsets(), mem->out_offsets());
  EXPECT_EQ(graph->in_offsets(), mem->in_offsets());
  for (VertexId v = 0; v < mem->NumVertices(); ++v) {
    auto a = mem->OutNeighbors(v);
    auto b = graph->OutNeighbors(v);
    ASSERT_EQ(std::vector<VertexId>(a.begin(), a.end()),
              std::vector<VertexId>(b.begin(), b.end()))
        << "vertex " << v;
    auto ia = mem->InNeighbors(v);
    auto ib = graph->InNeighbors(v);
    ASSERT_EQ(std::vector<VertexId>(ia.begin(), ia.end()),
              std::vector<VertexId>(ib.begin(), ib.end()))
        << "vertex " << v;
  }
}

TEST_P(GraphBackend, ForEachEdgeEnumeratesInCsrOrder) {
  RmatOptions opt;
  opt.scale = 8;
  opt.avg_degree = 6;
  GraphPtr mem = GenerateRmat(opt).value();
  GraphPtr graph = Backend(mem);
  std::vector<std::pair<VertexId, VertexId>> expect;
  mem->ForEachEdge(
      [&](VertexId u, VertexId v, float) { expect.emplace_back(u, v); });
  std::vector<std::pair<VertexId, VertexId>> got;
  graph->ForEachEdge(
      [&](VertexId u, VertexId v, float) { got.emplace_back(u, v); });
  EXPECT_EQ(got, expect);
}

TEST_P(GraphBackend, WeightsSurviveTheBackend) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1, 2.5f);
  builder.AddEdge(1, 2, 7.25f);
  BuildOptions opt;
  opt.keep_weights = true;
  GraphPtr graph = Backend(builder.Build(opt).value());
  EXPECT_TRUE(graph->is_weighted());
  EXPECT_EQ(graph->OutWeights(0)[0], 2.5f);
  EXPECT_EQ(graph->OutWeights(1)[0], 7.25f);
  EXPECT_EQ(graph->InWeights(2)[0], 7.25f);
}

INSTANTIATE_TEST_SUITE_P(Backends, GraphBackend,
                         ::testing::Values("mem", "paged"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(Datasets, AllSixTwinsBuild) {
  for (const auto& abbr : DatasetAbbrs()) {
    auto info = MakeDataset(abbr, /*scale=*/0.05).value();
    EXPECT_EQ(info.abbr, abbr);
    EXPECT_GT(info.graph->NumVertices(), 0u);
    EXPECT_GT(info.graph->NumEdges(), 0u);
  }
}

TEST(Datasets, DomainsMatchPaperTableIII) {
  EXPECT_EQ(MakeDataset("OR", 0.05)->domain, "SN");
  EXPECT_EQ(MakeDataset("US", 0.05)->domain, "RN");
  EXPECT_EQ(MakeDataset("SK", 0.05)->domain, "WG");
}

TEST(Datasets, UnknownAbbrIsNotFound) {
  EXPECT_FALSE(MakeDataset("XX").ok());
}

}  // namespace
}  // namespace flash
