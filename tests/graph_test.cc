// Unit tests for src/graph: CSR building, generators, partitioning, I/O,
// and the dataset twins.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <utility>

#include "common/hash.h"
#include "common/random.h"
#include "common/thread_pool.h"
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

/// Writes `text` to a temporary edge-list file and loads it.
Result<GraphPtr> LoadText(const std::string& name, const std::string& text) {
  const std::string path =
      (std::filesystem::temp_directory_path() / name).string();
  std::ofstream(path) << text;
  auto result = LoadEdgeListFile(path);
  std::remove(path.c_str());
  return result;
}

TEST(GraphIo, MalformedWeightIsIOErrorWithLine) {
  for (const char* line : {"0 1 abc", "0 1 2.5 x", "0 1 2.5abc", "0 1abc"}) {
    SCOPED_TRACE(line);
    auto result = LoadText("flash_weight_test.el",
                           "# weights\n0 2 0.5\n" + std::string(line) + "\n");
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsIOError());
    EXPECT_NE(result.status().ToString().find("flash_weight_test.el:3:"),
              std::string::npos)
        << result.status().ToString();
  }
  // Present weights, trailing blanks and a missing column all still load.
  auto ok = LoadText("flash_weight_test.el", "0 1 2.5  \n1 2\n2 0 \t\n");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value()->NumEdges(), 3u);
}

TEST(GraphIo, VertexCountAtTheIdLimitIsOutOfRange) {
  // Max id 0xFFFFFFFE makes 2^32 - 1 vertices: one more than a VertexId
  // can count with kInvalidVertex reserved, and an offset array of n + 1
  // would wrap to empty in 32 bits.
  auto result = LoadText("flash_wrap_test.el", "4294967294 0\n");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsOutOfRange()) << result.status().ToString();
  GraphBuilder builder;
  builder.AddEdge(kInvalidVertex, 0);
  EXPECT_TRUE(builder.Build().status().IsOutOfRange());
  EXPECT_TRUE(GraphBuilder(kInvalidVertex).Build().status().IsOutOfRange());
}

TEST(GraphIo, MissingFileIsIOError) {
  auto result = LoadEdgeListFile("/nonexistent/path/graph.el");
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError());
}

// --- Golden CSR digests ---------------------------------------------------
//
// One FNV-1a digest over all six CSR arrays (both directions' offsets,
// targets/sources and weights, each prefixed by its length) pins every
// generator, the edge-list loader and the BuildOptions combinations bit for
// bit. A change to the build may only move a digest on purpose.

uint64_t CsrDigest(const Graph& graph) {
  const GraphStorage& s = *graph.storage();
  uint64_t h = Fnv1a64(nullptr, 0);
  auto mix = [&h](const auto* vec) {
    const uint64_t size = vec == nullptr ? 0 : vec->size();
    h = Fnv1a64(&size, sizeof(size), h);
    if (size > 0) h = Fnv1a64(vec->data(), size * sizeof((*vec)[0]), h);
  };
  mix(&s.out_offsets());
  mix(s.out_targets_vec());
  mix(s.out_weights_vec());
  mix(&s.in_offsets());
  mix(s.in_sources_vec());
  mix(s.in_weights_vec());
  const uint64_t flags = (graph.is_symmetric() ? 1 : 0) |
                         (graph.is_weighted() ? 2 : 0);
  return Fnv1a64(&flags, sizeof(flags), h);
}

std::string Hex(uint64_t digest) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

std::vector<Edge> EdgesOf(const Graph& graph) {
  std::vector<Edge> edges;
  graph.ForEachEdge(
      [&](VertexId u, VertexId v, float w) { edges.push_back({u, v, w}); });
  return edges;
}

GraphPtr BuildFrom(const std::vector<Edge>& edges, const BuildOptions& options,
                   int pool_width, VertexId num_vertices = 0) {
  ThreadPool pool(pool_width);
  GraphBuilder builder(num_vertices);
  builder.AddEdges(edges);
  auto graph = builder.Build(options, pool);
  EXPECT_TRUE(graph.ok()) << graph.status().ToString();
  return std::move(graph).value();
}

struct GoldenGraph {
  const char* name;
  Result<GraphPtr> (*make)();
  uint64_t digest;
};

const GoldenGraph kGoldenGraphs[] = {
    {"rmat-symmetric",
     [] {
       RmatOptions o;
       o.scale = 10;
       o.avg_degree = 8;
       return GenerateRmat(o);
     },
     0x6598210bace7d210},
    {"rmat-directed-weighted",
     [] {
       RmatOptions o;
       o.scale = 13;
       o.avg_degree = 10;
       o.symmetrize = false;
       o.weighted = true;
       o.seed = 2;
       return GenerateRmat(o);
     },
     0xa4d9dcf85084654c},
    {"grid-weighted",
     [] {
       GridOptions o;
       o.rows = 40;
       o.cols = 30;
       o.highway_fraction = 0.01;
       o.weighted = true;
       o.seed = 3;
       return GenerateGrid(o);
     },
     0x0d52fa5c738190d2},
    {"road-grid-weighted",
     [] {
       RoadGridOptions o;
       o.target_diameter = 256;
       o.weighted = true;
       return MakeRoadGrid(o);
     },
     0x227fc8ade0e52116},
    {"web-symmetric",
     [] {
       WebGraphOptions o;
       o.num_vertices = 3000;
       o.out_degree = 6;
       return GenerateWebGraph(o);
     },
     0x9888157e2daa9db4},
    {"web-directed-weighted",
     [] {
       WebGraphOptions o;
       o.num_vertices = 3000;
       o.out_degree = 6;
       o.symmetrize = false;
       o.weighted = true;
       o.seed = 4;
       return GenerateWebGraph(o);
     },
     0x1154839626e8f779},
    {"erdos-renyi-symmetric",
     [] { return GenerateErdosRenyi(500, 4000, true, 5); }, 0x0d50cb9bb70e8d20},
    {"erdos-renyi-directed-weighted",
     [] { return GenerateErdosRenyi(500, 4000, false, 6, true); },
     0xb078e34137ce2380},
    {"path", [] { return MakePath(9); }, 0xdf11d552e1ea5da4},
    {"cycle-directed", [] { return MakeCycle(9, false); }, 0x4d5f79956a7f5845},
    {"star", [] { return MakeStar(9); }, 0x975d68419b8e39a4},
    {"complete", [] { return MakeComplete(6); }, 0x9ff2285a583702a5},
    {"binary-tree", [] { return MakeBinaryTree(15); }, 0x9a9c1a4a4d25ebe4},
    {"binary-tree-directed", [] { return MakeBinaryTree(15, false); },
     0xc2c52cac0328c0f5},
};

TEST(CsrGolden, EveryGeneratorIsPinned) {
  for (const GoldenGraph& golden : kGoldenGraphs) {
    SCOPED_TRACE(golden.name);
    GraphPtr graph = golden.make().value();
    EXPECT_EQ(Hex(CsrDigest(*graph)), Hex(golden.digest));
    // Rebuilding the graph from its own edge list reproduces it exactly,
    // at any pool width.
    BuildOptions options;
    options.symmetrize = graph->is_symmetric();
    options.keep_weights = graph->is_weighted();
    for (int width : {1, 4}) {
      EXPECT_EQ(Hex(CsrDigest(*BuildFrom(EdgesOf(*graph), options, width,
                                         graph->NumVertices()))),
                Hex(golden.digest))
          << "pool width " << width;
    }
  }
}

/// A raw edge list with parallel edges (of several weights), exact
/// duplicates and self-loops; weights are exact in decimal text.
std::vector<Edge> RawEdges() {
  Rng rng(7);
  std::vector<Edge> edges;
  for (int i = 0; i < 3000; ++i) {
    edges.push_back({static_cast<VertexId>(rng.Uniform(60)),
                     static_cast<VertexId>(rng.Uniform(60)),
                     0.5f + 0.5f * static_cast<float>(rng.Uniform(8))});
  }
  return edges;
}

BuildOptions ComboOptions(int combo) {
  BuildOptions options;
  options.symmetrize = (combo & 1) != 0;
  options.deduplicate = (combo & 2) != 0;
  options.remove_self_loops = (combo & 4) != 0;
  options.keep_weights = combo != 8;
  return options;
}

// Combos 0-7 walk (symmetrize, deduplicate, remove_self_loops) with weights
// kept; combo 8 is the defaults (dedup, no self-loops, unweighted).
const uint64_t kComboDigests[9] = {
    0xab79a14066ec6bff, 0x45d5e3f2c9b9fbda, 0x68dce60716b94360,
    0x931e874367df15ca, 0x02613ba1b4083a54, 0x7e2323f34fa23586,
    0xec5eaf2922ebc3e6, 0x97fb62d0d1c1d906, 0x3693d4cc00ca91a5};

TEST(CsrGolden, EveryBuildOptionComboIsPinned) {
  const std::vector<Edge> raw = RawEdges();
  for (int combo = 0; combo < 9; ++combo) {
    SCOPED_TRACE("combo " + std::to_string(combo));
    for (int width : {1, 4}) {
      EXPECT_EQ(Hex(CsrDigest(*BuildFrom(raw, ComboOptions(combo), width))),
                Hex(kComboDigests[combo]))
          << "pool width " << width;
    }
  }
}

TEST(CsrGolden, ShuffledOrHeavierDuplicateEdgesChangeNothing) {
  const std::vector<Edge> raw = RawEdges();
  Rng rng(11);
  std::vector<Edge> shuffled = raw;
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.Uniform(i)]);
  }
  std::vector<Edge> heavier = shuffled;
  for (size_t i = 0; i < raw.size(); i += 3) {
    heavier.push_back({raw[i].src, raw[i].dst, raw[i].weight + 1.0f});
  }
  for (int combo = 0; combo < 9; ++combo) {
    SCOPED_TRACE("combo " + std::to_string(combo));
    const BuildOptions options = ComboOptions(combo);
    for (int width : {1, 4}) {
      EXPECT_EQ(Hex(CsrDigest(*BuildFrom(shuffled, options, width))),
                Hex(kComboDigests[combo]))
          << "pool width " << width;
      if (options.deduplicate) {
        EXPECT_EQ(Hex(CsrDigest(*BuildFrom(heavier, options, width))),
                  Hex(kComboDigests[combo]))
            << "pool width " << width;
      }
    }
  }
}

TEST(CsrGolden, SignedZeroWeightsTieBreakByBits) {
  // -0.0 == +0.0, so `<` cannot order them; the build sorts -0.0 first in
  // any insertion order and at any pool width, and dedup keeps it.
  const Edge neg{0, 1, -0.0f}, pos{0, 1, +0.0f};
  for (const auto& edges : {std::vector<Edge>{neg, pos}, {pos, neg}}) {
    for (int width : {1, 4}) {
      BuildOptions options;
      options.keep_weights = true;
      GraphPtr deduped = BuildFrom(edges, options, width);
      ASSERT_EQ(deduped->NumEdges(), 1u);
      EXPECT_TRUE(std::signbit(deduped->OutWeights(0)[0]));
      EXPECT_TRUE(std::signbit(deduped->InWeights(1)[0]));
      options.deduplicate = false;
      GraphPtr both = BuildFrom(edges, options, width);
      ASSERT_EQ(both->NumEdges(), 2u);
      EXPECT_TRUE(std::signbit(both->OutWeights(0)[0]));
      EXPECT_FALSE(std::signbit(both->OutWeights(0)[1]));
    }
  }
}

TEST(CsrGolden, EdgeListLoaderIsPinned) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "flash_golden_test.el")
          .string();
  {
    std::ofstream out(path);
    out << "# raw edges\n";
    for (const Edge& e : RawEdges()) {
      out << e.src << ' ' << e.dst << ' ' << e.weight << '\n';
    }
  }
  for (int combo : {3, 6, 8}) {
    SCOPED_TRACE("combo " + std::to_string(combo));
    auto loaded = LoadEdgeListFile(path, ComboOptions(combo)).value();
    EXPECT_EQ(Hex(CsrDigest(*loaded)), Hex(kComboDigests[combo]));
  }
  std::remove(path.c_str());
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
