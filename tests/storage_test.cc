// Semi-external storage tier: block-file round-trips, exact byte
// accounting, LRU eviction at barriers, and the dual-backend matrix —
// every algorithm result and every deterministic counter must be
// bit-identical whether the edges live in RAM (InMemoryStorage) or on
// disk behind the paged LRU cache (PagedStorage), at any host_threads
// and with a cache smaller than the edge file.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "algorithms/algorithms.h"
#include "common/hash.h"
#include "common/thread_pool.h"
#include "core/api.h"
#include "flashware/runtime.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/paged_storage.h"
#include "graph/partition.h"
#include "graph/storage.h"
#include "serving/server.h"
#include "tests/test_util.h"
#include "walks/walk_engine.h"

namespace flash {
namespace {

/// A block file on disk, deleted when the fixture goes away.
class TempBlockFile {
 public:
  TempBlockFile(const Graph& graph, uint64_t block_payload_bytes,
                const char* tag) {
    path_ = std::string("/tmp/flash_storage_test_") + tag + "_" +
            std::to_string(::getpid()) + "_" +
            std::to_string(block_payload_bytes) + ".fblk";
    BlockFileOptions options;
    options.block_payload_bytes = block_payload_bytes;
    Status st = SaveBlockFile(graph, path_, options);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  ~TempBlockFile() { std::remove(path_.c_str()); }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

GraphPtr TestGraph(bool weighted = false) {
  auto make = [](bool w) {
    RmatOptions options;
    options.scale = 11;
    options.avg_degree = 16.0;
    options.symmetrize = true;
    options.weighted = w;
    options.seed = 42;
    return GenerateRmat(options).value();
  };
  static GraphPtr plain = make(false);
  static GraphPtr heavy = make(true);
  return weighted ? heavy : plain;
}

/// Opens `path` as a paged graph with an LRU budget of `cache_bytes`.
GraphPtr OpenWithBudget(const std::string& path, uint64_t cache_bytes) {
  PagedOptions options;
  options.cache_bytes = cache_bytes;
  return OpenPagedGraph(path, options).value();
}

/// First vertex with outgoing edges — a BFS/SSSP root that actually pages.
VertexId RootWithEdges(const Graph& g) {
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (g.OutDegree(v) > 0) return v;
  }
  return 0;
}

void ExpectSameAdjacency(const Graph& mem, const Graph& paged) {
  ASSERT_EQ(mem.NumVertices(), paged.NumVertices());
  ASSERT_EQ(mem.NumEdges(), paged.NumEdges());
  ASSERT_EQ(mem.is_weighted(), paged.is_weighted());
  for (VertexId v = 0; v < mem.NumVertices(); ++v) {
    auto mo = mem.OutNeighbors(v);
    auto po = paged.OutNeighbors(v);
    ASSERT_EQ(std::vector<VertexId>(mo.begin(), mo.end()),
              std::vector<VertexId>(po.begin(), po.end()))
        << "out adjacency of " << v;
    auto mi = mem.InNeighbors(v);
    auto pi = paged.InNeighbors(v);
    ASSERT_EQ(std::vector<VertexId>(mi.begin(), mi.end()),
              std::vector<VertexId>(pi.begin(), pi.end()))
        << "in adjacency of " << v;
    if (mem.is_weighted()) {
      auto mw = mem.OutWeights(v);
      auto pw = paged.OutWeights(v);
      ASSERT_EQ(std::vector<float>(mw.begin(), mw.end()),
                std::vector<float>(pw.begin(), pw.end()))
          << "out weights of " << v;
    }
  }
}

// --- Golden block files ---------------------------------------------------

std::string Hex(uint64_t digest) {
  char text[19];
  std::snprintf(text, sizeof(text), "0x%016llx",
                static_cast<unsigned long long>(digest));
  return text;
}

/// FNV-1a digest and size of the delta block file SaveBlockFile writes.
std::pair<std::string, uint64_t> DeltaFileDigest(const Graph& graph,
                                                 uint64_t block_bytes,
                                                 const char* tag) {
  const std::string path = std::string("/tmp/flash_storage_golden_") + tag +
                           "_" + std::to_string(::getpid()) + ".fblk";
  BlockFileOptions options;
  options.block_payload_bytes = block_bytes;
  options.codec = BlockCodec::kDelta;
  const Status st = SaveBlockFile(graph, path, options);
  EXPECT_TRUE(st.ok()) << st.ToString();
  std::ifstream in(path, std::ios::binary);
  const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return {Hex(Fnv1a64(bytes.data(), bytes.size())), bytes.size()};
}

/// 300 vertices: vertex 0 is a hub with 199 weighted out-edges (its list
/// alone outgrows a 512-byte block), a short chain hangs off vertex 200,
/// and vertices 250 and up have no edges at all.
GraphPtr HubAndIsolatedGraph() {
  GraphBuilder builder(300);
  for (VertexId v = 1; v < 200; ++v) {
    builder.AddEdge(0, v, 0.5f + static_cast<float>(v % 7));
  }
  for (VertexId v = 200; v < 210; ++v) builder.AddEdge(v, v + 1, 2.0f);
  builder.AddEdge(9, 0, 3.0f);
  BuildOptions options;
  options.symmetrize = false;
  options.keep_weights = true;
  return builder.Build(options).value();
}

struct GoldenBlockFile {
  const char* name;
  std::function<GraphPtr()> make;
  uint64_t block_bytes;
  const char* digest;
  uint64_t size;
};

// Every byte SaveBlockFile writes is pinned: header, offsets, both block
// indices and every delta payload.
TEST(BlockFileGolden, DeltaFilesArePinned) {
  const std::vector<GoldenBlockFile> cases = {
      {"rmat-symmetric", [] { return TestGraph(); }, 8 << 10,
       "0x786165386e08968d", 135206},
      {"rmat-directed-weighted",
       [] {
         RmatOptions options;
         options.scale = 10;
         options.avg_degree = 8.0;
         options.symmetrize = false;
         options.weighted = true;
         options.seed = 7;
         return GenerateRmat(options).value();
       },
       4 << 10, "0xce92f0c5a4c6b513", 86393},
      {"hub-and-isolated", HubAndIsolatedGraph, 512, "0x2d8ac023bc7b59be",
       7328},
  };
  for (const GoldenBlockFile& golden : cases) {
    SCOPED_TRACE(golden.name);
    const auto [digest, size] =
        DeltaFileDigest(*golden.make(), golden.block_bytes, golden.name);
    EXPECT_EQ(digest, golden.digest);
    EXPECT_EQ(size, golden.size);
  }
}

// --- Round trips across page sizes ----------------------------------------

class RoundTrip
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(RoundTrip, AdjacencyIdenticalAndBytesExact) {
  const auto [block_bytes, weighted] = GetParam();
  GraphPtr mem = TestGraph(weighted);
  TempBlockFile file(*mem, block_bytes, weighted ? "w" : "u");

  auto paged = OpenPagedGraph(file.path());
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  GraphPtr pg = *paged;
  ASSERT_TRUE(pg->is_paged());

  ExpectSameAdjacency(*mem, *pg);

  // Every vertex in both directions was touched exactly once above, so the
  // cold demand-read bytes equal the file's total stored block bytes.
  auto* storage = static_cast<PagedStorage*>(pg->storage());
  EXPECT_EQ(storage->stats().bytes_read, storage->total_block_bytes());
  const uint64_t blocks = storage->block_index(true).size() +
                          storage->block_index(false).size();
  EXPECT_EQ(storage->stats().blocks_read, blocks);

  // Re-reading everything is free: the default 64 MiB budget holds the
  // whole test file, so the working set stays resident.
  const uint64_t cold = storage->stats().bytes_read;
  ExpectSameAdjacency(*mem, *pg);
  EXPECT_EQ(storage->stats().bytes_read, cold);
}

INSTANTIATE_TEST_SUITE_P(
    PageSizes, RoundTrip,
    ::testing::Combine(::testing::Values(uint64_t{4} << 10, uint64_t{64} << 10,
                                         uint64_t{1} << 20),
                       ::testing::Values(false, true)),
    [](const auto& info) {
      return "block" + std::to_string(std::get<0>(info.param) >> 10) + "k" +
             (std::get<1>(info.param) ? "_weighted" : "_unweighted");
    });

TEST(StorageTier, PartialTouchReadsExactlyTheTouchedBlocks) {
  GraphPtr mem = TestGraph();
  TempBlockFile file(*mem, 4 << 10, "partial");
  auto paged = OpenPagedGraph(file.path());
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  GraphPtr pg = *paged;
  auto* storage = static_cast<PagedStorage*>(pg->storage());

  // Touch one edge-bearing vertex in every third out-block: the bytes read
  // must be exactly the sum of those blocks' stored bytes. (A zero-degree
  // vertex would early-out without I/O, so pick one with edges.)
  const std::vector<BlockMeta>& metas = storage->block_index(true);
  ASSERT_GT(metas.size(), 3u) << "graph too small for a partial-touch test";
  const std::vector<EdgeId>& offsets = pg->out_offsets();
  uint64_t expected = 0;
  VertexId touched = kInvalidVertex;
  for (size_t b = 0; b < metas.size(); b += 3) {
    for (VertexId v = metas[b].first_vertex;
         v < metas[b].first_vertex + metas[b].vertex_count; ++v) {
      if (offsets[v + 1] > offsets[v]) {
        (void)pg->OutNeighbors(v);
        expected += metas[b].stored_bytes;
        touched = v;
        break;
      }
    }
  }
  EXPECT_EQ(storage->stats().bytes_read, expected);

  // Touching the same vertex again hits the resident block: no new bytes.
  ASSERT_NE(touched, kInvalidVertex);
  (void)pg->OutNeighbors(touched);
  EXPECT_EQ(storage->stats().bytes_read, expected);
}

TEST(StorageTier, ZeroDegreeVertexCostsNoIo) {
  GraphBuilder builder(4);
  builder.AddEdge(0, 1);
  GraphPtr mem = builder.Build().value();
  TempBlockFile file(*mem, 4 << 10, "zdeg");
  auto paged = OpenPagedGraph(file.path());
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  GraphPtr pg = *paged;
  EXPECT_TRUE(pg->OutNeighbors(3).empty());
  EXPECT_TRUE(pg->InNeighbors(0).empty());
  auto* storage = static_cast<PagedStorage*>(pg->storage());
  EXPECT_EQ(storage->stats().bytes_read, 0u);
  EXPECT_EQ(storage->stats().accesses, 0u);
}

// --- Epoch machinery: eviction, planned loads, plan invariance ------------

TEST(StorageTier, EvictionEnforcesBudgetAtBarriers) {
  GraphPtr mem = TestGraph();
  TempBlockFile file(*mem, 4 << 10, "evict");
  PagedOptions options;
  options.cache_bytes = 16 << 10;  // Far below the file's block bytes.
  auto storage_or = PagedStorage::Open(file.path(), options);
  ASSERT_TRUE(storage_or.ok()) << storage_or.status().ToString();
  std::shared_ptr<PagedStorage> storage = *storage_or;
  ASSERT_GT(storage->total_block_bytes(), options.cache_bytes);

  storage->BeginEpoch();
  for (VertexId v = 0; v < mem->NumVertices(); ++v) {
    (void)storage->OutNeighbors(v);
  }
  EpochIo io = storage->EndEpoch();
  EXPECT_EQ(io.bytes, storage->total_block_bytes() -
                          [&] {
                            uint64_t in = 0;
                            for (const auto& m : storage->block_index(false)) {
                              in += m.stored_bytes;
                            }
                            return in;
                          }());
  EXPECT_LE(storage->resident_bytes(), options.cache_bytes);
  EXPECT_GT(storage->stats().evictions, 0u);

  // An evicted block demand-loads again next epoch: bytes accrue afresh.
  storage->BeginEpoch();
  (void)storage->OutNeighbors(0);
  EpochIo io2 = storage->EndEpoch();
  EXPECT_GT(io2.bytes, 0u);
}

TEST(StorageTier, DenseSweepLoadsEveryBlockOnce) {
  GraphPtr mem = TestGraph();
  TempBlockFile file(*mem, 4 << 10, "sweep");
  auto storage = PagedStorage::Open(file.path()).value();

  ThreadPool pool(1);
  storage->BeginEpoch();
  storage->PlanSweep(pool, /*out_dir=*/false, mem->NumVertices());
  for (VertexId v = 0; v < mem->NumVertices(); ++v) {
    (void)storage->InNeighbors(v);
  }
  EpochIo io = storage->EndEpoch();
  uint64_t in_bytes = 0;
  for (const auto& m : storage->block_index(false)) in_bytes += m.stored_bytes;
  EXPECT_EQ(io.bytes, in_bytes);
  EXPECT_EQ(storage->stats().dense_plans, 1u);
}

// Plans load their blocks on the caller's pool. The pool's width never
// changes a counter, and a planned block is never a demand miss.
TEST(StorageTier, PlannedLoadsAreIdenticalAtAnyPoolWidth) {
  GraphPtr mem = TestGraph();
  TempBlockFile file(*mem, 4 << 10, "pool");
  std::vector<VertexId> frontier;
  for (VertexId v = 0; v < mem->NumVertices(); v += 7) frontier.push_back(v);

  auto run = [&](int threads) {
    ThreadPool pool(threads);
    // PlanBlocks under a budget the barriers evict down to, so every epoch
    // reloads part of its plan.
    PagedOptions tight;
    tight.cache_bytes = 32 << 10;
    auto blocks = PagedStorage::Open(file.path(), tight).value();
    for (int epoch = 0; epoch < 4; ++epoch) {
      blocks->BeginEpoch();
      blocks->PlanBlocks(pool, frontier, /*out_dir=*/true);
      for (VertexId v : frontier) (void)blocks->OutNeighbors(v);
      blocks->EndEpoch();
    }
    // PlanSweep under the default budget, which holds a whole direction:
    // the first epoch loads every in-block, the second finds them resident.
    auto sweep = PagedStorage::Open(file.path()).value();
    for (int epoch = 0; epoch < 2; ++epoch) {
      sweep->BeginEpoch();
      sweep->PlanSweep(pool, /*out_dir=*/false, mem->NumVertices());
      for (VertexId v = 0; v < mem->NumVertices(); ++v) {
        (void)sweep->InNeighbors(v);
      }
      sweep->EndEpoch();
    }
    return std::pair(blocks->stats(), sweep->stats());
  };

  const auto [blocks1, sweep1] = run(1);
  const auto [blocks4, sweep4] = run(4);
  EXPECT_EQ(blocks1, blocks4) << blocks1.ToString() << " vs "
                              << blocks4.ToString();
  EXPECT_EQ(sweep1, sweep4) << sweep1.ToString() << " vs "
                            << sweep4.ToString();

  EXPECT_GT(blocks1.blocks_read, 0u);
  EXPECT_GT(blocks1.evictions, 0u);
  EXPECT_EQ(blocks1.dense_plans, 4u);
  EXPECT_EQ(blocks1.demand_misses, 0u);
  EXPECT_EQ(sweep1.blocks_read,
            PagedStorage::Open(file.path()).value()->block_index(false).size());
  EXPECT_EQ(sweep1.dense_plans, 2u);
  EXPECT_EQ(sweep1.demand_misses, 0u);
}

// The budget is set once, at open, and holds for every run on the graph.
TEST(StorageTier, OpenTimeBudgetHoldsForEveryRun) {
  GraphPtr mem = TestGraph();
  TempBlockFile file(*mem, 4 << 10, "budget");
  GraphPtr pg = OpenWithBudget(file.path(), 16 << 10);
  auto* storage = static_cast<PagedStorage*>(pg->storage());
  ASSERT_GT(storage->total_block_bytes(), uint64_t{16} << 10);

  RuntimeOptions options;
  options.num_workers = 2;
  for (int run = 0; run < 2; ++run) {
    auto bfs = algo::RunBfs(pg, RootWithEdges(*mem), options);
    EXPECT_GT(bfs.metrics.storage_bytes_read, 0u) << "run " << run;
    // The last barrier evicted down to the budget.
    EXPECT_LE(storage->resident_bytes(), uint64_t{16} << 10) << "run " << run;
  }
}

// A traced pass whose tracer the engine owns (trace on, no tracer given)
// frees that tracer when the engine dies, but the graph lives on: the
// storage must not keep recording demand reads into it afterwards.
TEST(StorageTier, TracedPassDetachesItsTracerFromTheStorage) {
  GraphPtr mem = TestGraph();
  TempBlockFile file(*mem, 4 << 10, "tracer");
  // Barriers evict most blocks.
  GraphPtr pg = OpenWithBudget(file.path(), 16 << 10);
  auto* storage = static_cast<PagedStorage*>(pg->storage());

  RuntimeOptions options;
  options.num_workers = 2;
  options.trace = true;
  ASSERT_EQ(options.tracer, nullptr);
  auto run = algo::RunBfs(pg, RootWithEdges(*mem), options);
  EXPECT_GT(run.metrics.storage_bytes_read, 0u);

  // Demand-read every out-block outside any engine: the cold ones load.
  const uint64_t blocks_before = storage->stats().blocks_read;
  for (VertexId v = 0; v < pg->NumVertices(); ++v) (void)pg->OutNeighbors(v);
  EXPECT_GT(storage->stats().blocks_read, blocks_before);
}

// --- Dual-backend matrix --------------------------------------------------

struct MatrixCase {
  const char* abbr;
  int host_threads;
};

class DualBackend : public ::testing::TestWithParam<MatrixCase> {
 protected:
  static GraphPtr Mem(const char* abbr, bool weighted) {
    return MakeDataset(abbr, /*scale=*/0.12, weighted).value().graph;
  }
};

std::string MatrixName(const ::testing::TestParamInfo<MatrixCase>& info) {
  return std::string(info.param.abbr) + "_t" +
         std::to_string(info.param.host_threads);
}

TEST_P(DualBackend, AlgorithmsBitIdenticalWithColdUndersizedCache) {
  const MatrixCase& c = GetParam();
  GraphPtr mem = Mem(c.abbr, /*weighted=*/false);
  GraphPtr memw = Mem(c.abbr, /*weighted=*/true);
  TempBlockFile file(*mem, 8 << 10, c.abbr);
  TempBlockFile filew(*memw, 8 << 10, (std::string(c.abbr) + "w").c_str());
  // Strictly smaller than the edge file: the run must page.
  const uint64_t budget =
      PagedStorage::Open(file.path()).value()->total_block_bytes() / 3;
  ASSERT_GT(budget, 0u);
  GraphPtr paged = OpenWithBudget(file.path(), budget);
  GraphPtr pagedw = OpenWithBudget(filew.path(), budget);

  RuntimeOptions options;
  options.num_workers = 4;
  options.host_threads = c.host_threads;

  {
    const VertexId root = RootWithEdges(*mem);
    auto a = algo::RunBfs(mem, root, options);
    auto b = algo::RunBfs(paged, root, options);
    ASSERT_EQ(a.distance, b.distance);
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.metrics.supersteps, b.metrics.supersteps);
    EXPECT_EQ(a.metrics.edges_scanned, b.metrics.edges_scanned);
    EXPECT_EQ(a.metrics.messages, b.metrics.messages);
    EXPECT_EQ(a.metrics.bytes, b.metrics.bytes);
    EXPECT_EQ(a.metrics.vertices_updated, b.metrics.vertices_updated);
    EXPECT_EQ(a.metrics.storage_bytes_read, 0u);
    EXPECT_GT(b.metrics.storage_bytes_read, 0u);
  }
  {
    auto a = algo::RunCcOpt(mem, options);
    auto b = algo::RunCcOpt(paged, options);
    ASSERT_EQ(a.label, b.label);
    EXPECT_EQ(a.metrics.supersteps, b.metrics.supersteps);
    EXPECT_EQ(a.metrics.bytes, b.metrics.bytes);
  }
  {
    auto a = algo::RunPageRank(mem, 10, options);
    auto b = algo::RunPageRank(paged, 10, options);
    ASSERT_EQ(a.rank, b.rank);  // Bit-identical doubles, not approximate.
    EXPECT_EQ(a.metrics.bytes, b.metrics.bytes);
  }
  {
    const VertexId rootw = RootWithEdges(*memw);
    auto a = algo::RunSssp(memw, rootw, options);
    auto b = algo::RunSssp(pagedw, rootw, options);
    ASSERT_EQ(a.distance, b.distance);  // Bit-identical floats.
    EXPECT_EQ(a.metrics.supersteps, b.metrics.supersteps);
    EXPECT_EQ(a.metrics.bytes, b.metrics.bytes);
  }
}

TEST_P(DualBackend, PagedRunsAreBitIdenticalAcrossRepeats) {
  const MatrixCase& c = GetParam();
  GraphPtr mem = Mem(c.abbr, /*weighted=*/false);
  TempBlockFile file(*mem, 8 << 10, (std::string(c.abbr) + "r").c_str());
  const uint64_t budget =
      PagedStorage::Open(file.path()).value()->total_block_bytes() / 3;
  GraphPtr paged = OpenWithBudget(file.path(), budget);

  RuntimeOptions options;
  options.num_workers = 4;
  options.host_threads = c.host_threads;

  const VertexId root = RootWithEdges(*mem);
  // Two independent opens of the same block file replay the same history
  // (cold run, then warm run). The cache is history-dependent — a warm run
  // reads whatever its predecessor left non-resident — but it is a pure
  // function of that history, so the two replicas must agree run for run,
  // on answers AND on exact byte accounting.
  GraphPtr twin = OpenWithBudget(file.path(), budget);
  auto a = algo::RunBfs(paged, root, options);
  auto b = algo::RunBfs(paged, root, options);
  auto a2 = algo::RunBfs(twin, root, options);
  auto b2 = algo::RunBfs(twin, root, options);
  ASSERT_EQ(a.distance, b.distance);
  ASSERT_EQ(a.distance, a2.distance);
  EXPECT_EQ(a.metrics.supersteps, b.metrics.supersteps);
  EXPECT_EQ(a.metrics.bytes, b.metrics.bytes);
  EXPECT_EQ(a.metrics.storage_bytes_read, a2.metrics.storage_bytes_read);
  EXPECT_EQ(a.metrics.storage_blocks_read, a2.metrics.storage_blocks_read);
  EXPECT_EQ(b.metrics.storage_bytes_read, b2.metrics.storage_bytes_read);
  EXPECT_EQ(b.metrics.storage_blocks_read, b2.metrics.storage_blocks_read);
  // A warm start can only turn misses into hits (eviction is barrier-only
  // LRU, so leftover residents age out before anything the run touches).
  EXPECT_LE(b.metrics.storage_bytes_read, a.metrics.storage_bytes_read);
}

INSTANTIATE_TEST_SUITE_P(WebGraphs, DualBackend,
                         ::testing::Values(MatrixCase{"UK", 1},
                                           MatrixCase{"UK", 4},
                                           MatrixCase{"UK", 8},
                                           MatrixCase{"SK", 1},
                                           MatrixCase{"SK", 4},
                                           MatrixCase{"SK", 8}),
                         MatrixName);

// --- Delta blocks ---------------------------------------------------------

TEST(StorageCodec, DeltaFilesRoundTripBelowFixedWidthSize) {
  for (const bool weighted : {false, true}) {
    GraphPtr mem = TestGraph(weighted);
    TempBlockFile file(*mem, 8 << 10, weighted ? "mdeltaw" : "mdelta");
    std::ifstream in(file.path(), std::ios::binary);
    char magic[8] = {};
    in.read(magic, sizeof(magic));
    EXPECT_EQ(std::string(magic, sizeof(magic)), "FLSHBLK2");

    GraphPtr pg = OpenPagedGraph(file.path()).value();
    ExpectSameAdjacency(*mem, *pg);
    // The stored blocks undercut what 4-byte ids (+ 4-byte weights) in the
    // same blocks would take, and the decoded bytes are exactly that.
    auto* storage = static_cast<PagedStorage*>(pg->storage());
    const uint64_t edge_bytes = weighted ? 8 : 4;
    const uint64_t blocks = storage->block_index(true).size() +
                            storage->block_index(false).size();
    EXPECT_LT(storage->total_block_bytes(),
              2 * mem->NumEdges() * edge_bytes + blocks * sizeof(BlockHeader));
    EXPECT_EQ(storage->stats().decode_bytes, 2 * mem->NumEdges() * edge_bytes);
  }
}

// --- Async plan-ahead paging ----------------------------------------------

TEST(StorageCodec, AsyncPlanAheadCutsDemandMissesNotAnswers) {
  GraphPtr mem = TestGraph();
  TempBlockFile file(*mem, 4 << 10, "asyncplan");
  const VertexId root = RootWithEdges(*mem);

  auto run = [&](bool plan, int host_threads, uint64_t cache_bytes) {
    GraphPtr pg = OpenWithBudget(file.path(), cache_bytes);
    RuntimeOptions options;
    options.num_workers = 4;
    options.host_threads = host_threads;
    options.execution_mode = ExecutionMode::kAsync;
    options.async_plan_blocks = plan;
    auto r = algo::RunBfs(pg, root, options);
    StorageStats stats = static_cast<PagedStorage*>(pg->storage())->stats();
    return std::pair(r.distance, stats);
  };

  // A cache budget far below the decoded working set: the seeding barrier
  // evicts most of what partition construction faulted in, so the async
  // rounds actually page. (With a cache that holds the whole file, both
  // modes read everything once up front and no round ever misses.)
  constexpr uint64_t kTightCache = 64 << 10;
  const uint64_t kWholeFile = PagedOptions{}.cache_bytes;

  for (int threads : {1, 4, 8}) {
    // Fits-in-cache regime: planning cannot change what is read — each
    // touched block loads exactly once either way — and nothing misses.
    auto [planned_dist, planned] = run(/*plan=*/true, threads, kWholeFile);
    auto [demand_dist, demand] = run(/*plan=*/false, threads, kWholeFile);
    ASSERT_EQ(planned_dist, demand_dist) << "host_threads=" << threads;
    EXPECT_EQ(planned.bytes_read, demand.bytes_read)
        << "host_threads=" << threads;
    EXPECT_EQ(planned.blocks_read, demand.blocks_read)
        << "host_threads=" << threads;
    EXPECT_LE(planned.demand_misses, demand.demand_misses)
        << "host_threads=" << threads;

    // Tight-cache regime: the demand baseline stalls on un-planned,
    // un-resident blocks every round; the plan routes those same reads
    // through the storage pipeline. Answers stay bit-identical. (File
    // traffic may differ here — the planned mode's per-round barriers
    // evict eagerly — so only the miss counters are compared.)
    auto [planned_dist2, planned2] = run(/*plan=*/true, threads, kTightCache);
    auto [demand_dist2, demand2] = run(/*plan=*/false, threads, kTightCache);
    ASSERT_EQ(planned_dist2, demand_dist2) << "host_threads=" << threads;
    ASSERT_EQ(planned_dist2, planned_dist) << "host_threads=" << threads;
    EXPECT_GT(demand2.demand_misses, 0u) << "host_threads=" << threads;
    EXPECT_LT(planned2.demand_misses, demand2.demand_misses)
        << "host_threads=" << threads;
  }
}


// --- Inline E / reverse(E) enumeration ------------------------------------

/// E or reverse(E) enumerated through the virtual EdgeSet interface: the
/// same CSR spans, subset-of-E flag and orientations as the engine's own
/// sets, walked by its own loops. It is not fl.E()/fl.ReverseE(), so the
/// engine runs it down the virtual path while its own sets run inline.
/// Weights are read per edge, the engine's paged access pattern, so the
/// storage access counters compare too.
template <typename VData>
class VirtualCsr final : public EdgeSet<VData> {
 public:
  VirtualCsr(GraphPtr graph, bool reversed)
      : graph_(std::move(graph)), reversed_(reversed) {}

  void ForOut(VertexId src, const VertexStore<VData>&,
              const typename EdgeSet<VData>::OutFn& fn) const override {
    const Graph& g = *graph_;
    const auto nbrs = reversed_ ? g.InNeighbors(src) : g.OutNeighbors(src);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      fn(nbrs[i], Weight(src, i, /*out_edges=*/!reversed_));
    }
  }

  void ForIn(VertexId dst, const VertexStore<VData>&,
             const typename EdgeSet<VData>::InFn& fn) const override {
    const Graph& g = *graph_;
    const auto nbrs = reversed_ ? g.OutNeighbors(dst) : g.InNeighbors(dst);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      if (!fn(nbrs[i], Weight(dst, i, /*out_edges=*/reversed_))) return;
    }
  }

  uint64_t OutDegreeHint(VertexId src) const override {
    return reversed_ ? graph_->InDegree(src) : graph_->OutDegree(src);
  }
  bool is_subset_of_e() const override { return true; }
  EdgeOrientation push_source() const override {
    return reversed_ ? EdgeOrientation::kInEdges : EdgeOrientation::kOutEdges;
  }
  EdgeOrientation pull_source() const override {
    return reversed_ ? EdgeOrientation::kOutEdges : EdgeOrientation::kInEdges;
  }

 private:
  float Weight(VertexId v, size_t i, bool out_edges) const {
    const Graph& g = *graph_;
    if (!g.is_weighted()) return 1.0f;
    return out_edges ? g.OutWeights(v)[i] : g.InWeights(v)[i];
  }

  GraphPtr graph_;
  bool reversed_;
};

/// What one run of a program exposes: its answer, the frontier after every
/// primitive, and the exact counters.
struct ProgramRun {
  std::vector<double> values;
  std::vector<std::vector<VertexId>> frontiers;
  Metrics metrics;
};

std::vector<VertexId> Members(const VertexSubset& U) {
  std::vector<VertexId> ids;
  U.ForEach([&](VertexId v) { ids.push_back(v); });
  return ids;
}

struct ParentData {
  VertexId parent = kInvalidVertex;
  FLASH_FIELDS(parent)
};

/// BFS parents by EDGEMAP from vertex 0. C stops a target's in-edge scan
/// once it has a parent, so a pull that ignored the early stop would both
/// scan more edges and overwrite parents. `mode` picks pull or adaptive.
ProgramRun RunParents(const GraphPtr& graph, RuntimeOptions options,
                      EdgeMapMode mode, bool virtual_set) {
  options.edgemap_mode = mode;
  GraphApi<ParentData> fl(graph, options);
  const EdgeSetPtr<ParentData> H =
      virtual_set ? std::make_shared<VirtualCsr<ParentData>>(graph, false) : fl.E();
  fl.VertexMap(fl.Single(0), CTrue, [](ParentData& d) { d.parent = 0; });
  ProgramRun run;
  VertexSubset frontier = fl.Single(0);
  while (!frontier.Empty()) {
    frontier = fl.EdgeMap(
        frontier, H, CTrue,
        [](const ParentData&, ParentData& d, VertexId sid, VertexId) {
          d.parent = sid;
        },
        [](const ParentData& d) { return d.parent == kInvalidVertex; },
        [](const ParentData& t, ParentData& d) {
          d.parent = std::min(d.parent, t.parent);
        });
    run.frontiers.push_back(Members(frontier));
  }
  for (const ParentData& d : fl.GatherMasters()) run.values.push_back(d.parent);
  run.metrics = fl.metrics();
  return run;
}

struct DistData {
  float dist = std::numeric_limits<float>::infinity();
  FLASH_FIELDS(dist)
};

/// Weighted SSSP from vertex 0 by EDGEMAPSPARSE: dropped weights change
/// every distance.
ProgramRun RunDistances(const GraphPtr& graph, const RuntimeOptions& options,
                        bool virtual_set) {
  GraphApi<DistData> fl(graph, options);
  const EdgeSetPtr<DistData> H =
      virtual_set ? std::make_shared<VirtualCsr<DistData>>(graph, false) : fl.E();
  fl.VertexMap(fl.Single(0), CTrue, [](DistData& d) { d.dist = 0; });
  ProgramRun run;
  VertexSubset frontier = fl.Single(0);
  while (!frontier.Empty()) {
    frontier = fl.EdgeMapSparse(
        frontier, H,
        [](const DistData& s, const DistData& d, VertexId, VertexId,
           float w) { return s.dist + w < d.dist; },
        [](const DistData& s, DistData& d, VertexId, VertexId, float w) {
          d.dist = s.dist + w;
        },
        CTrue,
        [](const DistData& t, DistData& d) { d.dist = std::min(d.dist, t.dist); });
    run.frontiers.push_back(Members(frontier));
  }
  for (const DistData& d : fl.GatherMasters()) run.values.push_back(d.dist);
  run.metrics = fl.metrics();
  return run;
}

struct PullData {
  double acc = 0;
  FLASH_FIELDS(acc)
};

/// Three rounds of a weighted pull along reverse(E) over a sparse frontier:
/// each target folds in its out-neighbors' ids, so a swapped direction or
/// dropped weights change the sums.
ProgramRun RunReversePull(const GraphPtr& graph, const RuntimeOptions& options,
                          bool virtual_set) {
  GraphApi<PullData> fl(graph, options);
  const EdgeSetPtr<PullData> H =
      virtual_set ? std::make_shared<VirtualCsr<PullData>>(graph, true) : fl.ReverseE();
  ProgramRun run;
  VertexSubset frontier = fl.VertexMap(
      fl.V(), [](const PullData&, VertexId v) { return v % 3 == 0; });
  for (int round = 0; round < 3; ++round) {
    frontier = fl.EdgeMapDense(
        frontier, H, CTrue,
        [](const PullData& s, PullData& d, VertexId sid, VertexId, float w) {
          d.acc += (s.acc + 1.0 + sid) * w;
        },
        CTrue);
    run.frontiers.push_back(Members(frontier));
  }
  for (const PullData& d : fl.GatherMasters()) run.values.push_back(d.acc);
  run.metrics = fl.metrics();
  return run;
}

void ExpectSameRun(const ProgramRun& inline_run, const ProgramRun& virtual_run,
                   const std::string& what) {
  EXPECT_EQ(inline_run.values, virtual_run.values) << what;
  EXPECT_EQ(inline_run.frontiers, virtual_run.frontiers) << what;
  const Metrics& a = inline_run.metrics;
  const Metrics& b = virtual_run.metrics;
  EXPECT_EQ(a.supersteps, b.supersteps) << what;
  EXPECT_EQ(a.dense_steps, b.dense_steps) << what;
  EXPECT_EQ(a.sparse_steps, b.sparse_steps) << what;
  EXPECT_EQ(a.edges_scanned, b.edges_scanned) << what;
  EXPECT_EQ(a.bytes, b.bytes) << what;
  EXPECT_EQ(a.messages, b.messages) << what;
  EXPECT_EQ(a.storage.accesses, b.storage.accesses) << what;
  EXPECT_EQ(a.storage.blocks_read, b.storage.blocks_read) << what;
  EXPECT_EQ(a.storage.bytes_read, b.storage.bytes_read) << what;
}

TEST(InlineEdgeSets, MatchTheVirtualPathOnBothBackends) {
  // Directed and weighted, so direction and weights both show in answers.
  RmatOptions rmat;
  rmat.scale = 9;
  rmat.avg_degree = 8.0;
  rmat.symmetrize = false;
  rmat.weighted = true;
  rmat.seed = 17;
  GraphPtr mem = GenerateRmat(rmat).value();
  TempBlockFile file(*mem, 4 << 10, "inline");
  // Each run gets a fresh paged open, so every run starts from a cold cache.
  auto graph_for = [&](bool paged) {
    return paged ? OpenPagedGraph(file.path()).value() : mem;
  };
  for (const bool paged : {false, true}) {
    for (const int threads : {1, 4}) {
      RuntimeOptions options;
      options.num_workers = 4;
      options.threads_per_worker = 2;
      options.host_threads = threads;
      const std::string where = std::string(paged ? "paged" : "mem") +
                                " host_threads=" + std::to_string(threads);
      for (const EdgeMapMode mode : {EdgeMapMode::kPull, EdgeMapMode::kAdaptive}) {
        const ProgramRun a = RunParents(graph_for(paged), options, mode, false);
        const ProgramRun b = RunParents(graph_for(paged), options, mode, true);
        ASSERT_GT(a.frontiers.size(), 2u);
        ExpectSameRun(a, b, "parents " + where);
      }
      ExpectSameRun(RunDistances(graph_for(paged), options, false),
                    RunDistances(graph_for(paged), options, true),
                    "distances " + where);
      ExpectSameRun(RunReversePull(graph_for(paged), options, false),
                    RunReversePull(graph_for(paged), options, true),
                    "reverse pull " + where);
    }
  }
}

// --- One partition per (graph, workers, scheme) ----------------------------

TEST(SharedPartition, OnePerGraphWorkerCountAndScheme) {
  GraphPtr graph = MakePath(40).value();
  RuntimeOptions options;
  options.num_workers = 4;
  GraphApi<PullData> a(graph, options);
  GraphApi<PullData> b(graph, options);
  EXPECT_EQ(&a.partition(), &b.partition());
  ThreadPool pool(1);
  const PartitionScheme hash = PartitionScheme::kHash;
  EXPECT_EQ(Partition::ForGraph(graph, 4, hash, pool).value().get(),
            &a.partition());

  options.num_workers = 3;
  GraphApi<PullData> fewer(graph, options);
  EXPECT_NE(&fewer.partition(), &a.partition());
  EXPECT_EQ(fewer.partition().num_workers(), 3);

  options.num_workers = 4;
  options.partition = PartitionScheme::kChunk;
  GraphApi<PullData> chunk(graph, options);
  EXPECT_NE(&chunk.partition(), &a.partition());
  EXPECT_EQ(chunk.partition().scheme(), PartitionScheme::kChunk);
  EXPECT_EQ(&GraphApi<PullData>(graph, options).partition(), &chunk.partition());

  // Memoised per graph object, not per adjacency: a second graph with the
  // same edges builds its own.
  GraphPtr twin = MakePath(40).value();
  EXPECT_NE(Partition::ForGraph(twin, 4, hash, pool).value().get(),
            &a.partition());

  EXPECT_FALSE(Partition::ForGraph(graph, 0, hash, pool).ok());
  EXPECT_FALSE(Partition::ForGraph(graph, 65, hash, pool).ok());
  EXPECT_FALSE(Partition::ForGraph(nullptr, 2, hash, pool).ok());
}

/// Everything a walk run and a serving burst report, for exact comparison.
struct SurfaceRun {
  std::vector<uint64_t> visits;
  WalkStats walks;
  uint64_t walk_bytes = 0;
  uint64_t walk_messages = 0;
  std::vector<std::pair<uint64_t, double>> answers;
  uint64_t passes = 0;
  Metrics serve;
  StorageStats storage;          // Backend totals after both surfaces.
  uint64_t surface_accesses = 0; // Accesses made by the surfaces alone.
};

SurfaceRun RunSurfaces(const GraphPtr& graph, int host_threads) {
  RuntimeOptions options;
  options.num_workers = 4;
  options.host_threads = host_threads;
  options.num_walkers = 1500;
  options.walk_length = 6;
  SurfaceRun run;
  const uint64_t before = graph->storage()->stats().accesses;

  walks::WalkSpec spec;
  spec.seed = 5;
  walks::WalkResult walk = walks::WalkEngine(graph, options).Run(spec);
  run.visits = walk.visits;
  run.walks = walk.metrics.walks;
  run.walk_bytes = walk.metrics.bytes;
  run.walk_messages = walk.metrics.messages;

  // Narrow batches, so one burst runs several engine passes.
  serving::ServerOptions server_options;
  server_options.scheduler.batch_window = 4;
  serving::Server server(graph, options, server_options);
  const VertexId n = graph->NumVertices();
  for (uint32_t i = 0; i < 24; ++i) {
    serving::Query q;
    q.kind = i % 3 == 0 ? serving::QueryKind::kKHop
                        : serving::QueryKind::kBfsDistance;
    q.source = (i * 37) % n;
    q.target = (i * 53 + 11) % n;
    q.k = 2;
    EXPECT_TRUE(server.Submit(q, 0.0).ok());
  }
  server.Drain();
  for (const serving::Answer& a : server.answers()) {
    run.answers.push_back({a.query_id, a.value});
  }
  run.passes = server.stats().engine_passes;
  run.serve = server.stats().engine_metrics;
  run.storage = graph->storage()->stats();
  run.surface_accesses = run.storage.accesses - before;
  return run;
}

TEST(SharedPartition, WalksAndServingPassesReuseItWithUnchangedCounters) {
  auto make_mem = [] {
    RmatOptions rmat;
    rmat.scale = 9;
    rmat.avg_degree = 8.0;
    rmat.symmetrize = true;
    rmat.seed = 23;
    return GenerateRmat(rmat).value();
  };
  TempBlockFile file(*make_mem(), 4 << 10, "shared_partition");
  // A new graph object: no partition memoised yet, cold cache when paged.
  auto fresh = [&](bool paged) {
    return paged ? OpenPagedGraph(file.path()).value() : make_mem();
  };
  for (const bool paged : {false, true}) {
    // What one partition build costs the backend: a scan of every out-list.
    GraphPtr probe = fresh(paged);
    ASSERT_TRUE(Partition::Create(probe, 4).ok());
    const uint64_t scan = probe->storage()->stats().accesses;
    EXPECT_EQ(scan > 0, paged);
    for (const int threads : {1, 4}) {
      const std::string where = std::string(paged ? "paged" : "mem") +
                                " host_threads=" + std::to_string(threads);
      // Fresh: the walk builds the partition, every later pass reuses it.
      const SurfaceRun cold = RunSurfaces(fresh(paged), threads);
      // Shared: the partition exists before either surface runs.
      GraphPtr graph = fresh(paged);
      ThreadPool pool(threads);
      const PartitionScheme hash = PartitionScheme::kHash;
      const Partition* shared =
          Partition::ForGraph(graph, 4, hash, pool).value().get();
      const SurfaceRun warm = RunSurfaces(graph, threads);
      EXPECT_EQ(Partition::ForGraph(graph, 4, hash, pool).value().get(),
                shared)
          << where;

      ASSERT_GE(warm.passes, 4u) << where;
      EXPECT_EQ(warm.visits, cold.visits) << where;
      EXPECT_EQ(warm.walks, cold.walks) << where;
      EXPECT_EQ(warm.walk_bytes, cold.walk_bytes) << where;
      EXPECT_EQ(warm.walk_messages, cold.walk_messages) << where;
      EXPECT_EQ(warm.answers, cold.answers) << where;
      EXPECT_EQ(warm.passes, cold.passes) << where;
      EXPECT_EQ(warm.serve.supersteps, cold.serve.supersteps) << where;
      EXPECT_EQ(warm.serve.edges_scanned, cold.serve.edges_scanned) << where;
      EXPECT_EQ(warm.serve.bytes, cold.serve.bytes) << where;
      EXPECT_EQ(warm.serve.messages, cold.serve.messages) << where;
      // The same operations in the same order reach the backend, and the
      // one build happened before the surfaces (warm) or inside the walk
      // (cold): no pass of either run scanned the graph again.
      EXPECT_EQ(warm.storage, cold.storage) << where;
      EXPECT_EQ(warm.surface_accesses + scan, cold.surface_accesses) << where;
    }
  }
}

// --- Partition golden digests ----------------------------------------------
//
// Pins every owned list and mirror mask Partition::Create computes, on both
// backends and both schemes, whether a Runtime builds it on its pool
// (host_threads 1 and 4) or a caller builds it directly; and pins what the
// build costs a cold paged graph, so a change to how Create reads the
// adjacency fails here first.

uint64_t PartitionDigest(const Partition& part, VertexId n) {
  uint64_t h = Fnv1a64(nullptr, 0);
  for (int w = 0; w < part.num_workers(); ++w) {
    const std::vector<VertexId>& owned = part.OwnedVertices(w);
    const uint64_t size = owned.size();
    h = Fnv1a64(&size, sizeof(size), h);
    h = Fnv1a64(owned.data(), size * sizeof(VertexId), h);
  }
  for (VertexId v = 0; v < n; ++v) {
    const uint64_t mask = part.MirrorMask(v);
    h = Fnv1a64(&mask, sizeof(mask), h);
  }
  return h;
}

struct GoldenPartitionGraph {
  const char* name;
  bool symmetric;
  uint64_t seed;
  uint64_t hash_digest;   // PartitionScheme::kHash, 5 workers.
  uint64_t chunk_digest;  // PartitionScheme::kChunk, 5 workers.
  const char* paged_stats;  // A cold paged graph's stats after one build.
};

const GoldenPartitionGraph kGoldenPartitions[] = {
    {"rmat-symmetric", true, 31, 0xaa53a648996a1fd6, 0xcc1720e0f7f5f290,
     "accesses=1544 blocks=54 bytes=30735 decode_bytes=102032 stream_bytes=0 "
     "evictions=0 epochs=0 dense=0 sparse=0 demand_misses=0 peak_resident=0"},
    {"rmat-directed", false, 32, 0xf223872df81484b9, 0x0bd66e4c24258556,
     "accesses=1316 blocks=29 bytes=17641 decode_bytes=55584 stream_bytes=0 "
     "evictions=0 epochs=0 dense=0 sparse=0 demand_misses=0 peak_resident=0"},
};

TEST(PartitionGolden, OwnedListsMasksAndPagedStatsArePinned) {
  constexpr int kWorkers = 5;
  for (const GoldenPartitionGraph& golden : kGoldenPartitions) {
    SCOPED_TRACE(golden.name);
    RmatOptions rmat;
    rmat.scale = 11;
    rmat.avg_degree = 8.0;
    rmat.symmetrize = golden.symmetric;
    rmat.seed = golden.seed;
    GraphPtr mem = GenerateRmat(rmat).value();
    TempBlockFile file(*mem, 2 << 10, golden.name);
    const VertexId n = mem->NumVertices();
    for (const bool paged : {false, true}) {
      for (const PartitionScheme scheme :
           {PartitionScheme::kHash, PartitionScheme::kChunk}) {
        const uint64_t want = scheme == PartitionScheme::kHash
                                  ? golden.hash_digest
                                  : golden.chunk_digest;
        // A new graph object per build: nothing memoised, a cold cache.
        auto fresh = [&] {
          return paged ? OpenPagedGraph(file.path()).value()
                       : GenerateRmat(rmat).value();
        };
        auto check_stats = [&](const GraphPtr& graph, const std::string& how) {
          if (paged) {
            EXPECT_EQ(graph->storage()->stats().ToString(), golden.paged_stats)
                << how;
          }
        };
        const std::string where = std::string(paged ? "paged" : "mem") +
                                  (scheme == PartitionScheme::kHash
                                       ? " hash"
                                       : " chunk");
        GraphPtr direct = fresh();
        const Partition part =
            Partition::Create(direct, kWorkers, scheme).value();
        EXPECT_EQ(Hex(PartitionDigest(part, n)), Hex(want))
            << where << " direct";
        check_stats(direct, where + " direct");
        for (const int width : {1, 4}) {
          RuntimeOptions options;
          options.num_workers = kWorkers;
          options.partition = scheme;
          options.host_threads = width;
          GraphPtr graph = fresh();
          Runtime runtime(graph, options, RuntimeSurface::kGraph);
          const std::string how =
              where + " pool width " + std::to_string(width);
          EXPECT_EQ(Hex(PartitionDigest(runtime.partition(), n)),
                    Hex(want))
              << how;
          check_stats(graph, how);
        }
      }
    }
  }
}

}  // namespace
}  // namespace flash
