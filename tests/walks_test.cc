// Random-walk engine (src/walks/): the determinism contract — traces,
// visit counters, WalkStats, and wire accounting bit-identical at
// host_threads 1/4/8, threads_per_worker 1/3/4 and on both storage
// backends, and equal to pinned golden values — plus statistical
// convergence of walk-based PPR onto the power-iteration oracle as the
// walker count grows.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "algorithms/algorithms.h"
#include "common/hash.h"
#include "flashware/runtime.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/paged_storage.h"
#include "obs/tracer.h"
#include "walks/walk_algorithms.h"
#include "walks/walk_engine.h"

namespace flash {
namespace walks {
namespace {

GraphPtr TestGraph() {
  static GraphPtr graph = [] {
    RmatOptions options;
    options.scale = 9;  // 512 vertices, enough skew to exercise the shuffle.
    options.avg_degree = 12.0;
    options.symmetrize = true;
    options.seed = 7;
    return GenerateRmat(options).value();
  }();
  return graph;
}

/// A paged twin of `graph`: spilled to a temp block file and reopened
/// behind the LRU cache. The file is removed when the guard dies.
struct PagedTwin {
  PagedTwin(const GraphPtr& graph, const char* tag,
            uint64_t cache_bytes = PagedOptions{}.cache_bytes) {
    path = std::string("/tmp/flash_walks_test_") + tag + "_" +
           std::to_string(::getpid()) + ".fblk";
    BlockFileOptions options;
    options.block_payload_bytes = 4096;  // Many blocks: real paging traffic.
    Status st = SaveBlockFile(*graph, path, options);
    EXPECT_TRUE(st.ok()) << st.ToString();
    PagedOptions paged;
    paged.cache_bytes = cache_bytes;
    twin = OpenPagedGraph(path, paged).value();
  }
  ~PagedTwin() { std::remove(path.c_str()); }

  std::string path;
  GraphPtr twin;
};

RuntimeOptions WalkOptions(int host_threads, uint64_t walkers,
                           uint32_t length, int threads_per_worker = 1) {
  RuntimeOptions options;
  options.num_workers = 4;
  options.host_threads = host_threads;
  options.threads_per_worker = threads_per_worker;
  options.num_walkers = walkers;
  options.walk_length = length;
  return options;
}

/// The full equality check between two runs of the same spec: traces,
/// exact counters, WalkStats, and wire accounting. Never modelled seconds
/// or comp_* fields — those track measured host compute and may jitter.
void ExpectSameWalk(const WalkResult& a, const WalkResult& b,
                    const char* what) {
  EXPECT_EQ(a.traces, b.traces) << what;
  EXPECT_EQ(a.visits, b.visits) << what;
  EXPECT_EQ(a.total_visits, b.total_visits) << what;
  EXPECT_TRUE(a.metrics.walks == b.metrics.walks)
      << what << ": " << a.metrics.walks.ToString() << " vs "
      << b.metrics.walks.ToString();
  EXPECT_EQ(a.metrics.bytes, b.metrics.bytes) << what;
  EXPECT_EQ(a.metrics.messages, b.metrics.messages) << what;
}

TEST(WalkEngine, DeterministicAcrossThreadsBackendsAndShuffleModes) {
  GraphPtr mem = TestGraph();
  PagedTwin paged(mem, "det");
  for (const WalkKind kind :
       {WalkKind::kUniform, WalkKind::kNode2Vec, WalkKind::kPpr}) {
    WalkSpec spec;
    spec.kind = kind;
    spec.seed = 1234;
    spec.record_traces = kind != WalkKind::kPpr;
    WalkResult baseline =
        WalkEngine(mem, WalkOptions(1, 3000, 8)).Run(spec);
    EXPECT_GT(baseline.total_visits, 0u);
    EXPECT_GT(baseline.metrics.walks.walkers_shipped, 0u)
        << "test graph never crosses partitions; weaken it";
    // threads_per_worker sets the shard tasks per worker of the batched
    // step; 3 leaves uneven shard sizes.
    for (const int host_threads : {1, 4, 8}) {
      for (const int threads_per_worker : {1, 3, 4}) {
        for (const bool use_paged : {false, true}) {
          WalkResult run = WalkEngine(use_paged ? paged.twin : mem,
                                      WalkOptions(host_threads, 3000, 8,
                                                  threads_per_worker))
                               .Run(spec);
          std::string what =
              "kind=" + std::to_string(static_cast<int>(kind)) +
              " threads=" + std::to_string(host_threads) +
              " threads_per_worker=" + std::to_string(threads_per_worker) +
              (use_paged ? " paged" : " mem");
          ExpectSameWalk(baseline, run, what.c_str());
          if (use_paged) {
            // The twin's LRU cache stays warm across runs, so per-run file
            // bytes may be zero; the lifetime stats prove the walk drove the
            // epoch protocol (one epoch per step, spans served).
            EXPECT_GT(run.metrics.storage.epochs, 0u) << what;
            EXPECT_GT(run.metrics.storage.accesses, 0u) << what;
          }
        }
      }
    }
    // The naive per-walker baseline must reproduce the same walks; its
    // shuffle/byte accounting legitimately differs (per-walker frames).
    WalkSpec naive = spec;
    naive.batch_by_vertex = false;
    WalkResult naive_run =
        WalkEngine(mem, WalkOptions(4, 3000, 8)).Run(naive);
    EXPECT_EQ(baseline.traces, naive_run.traces);
    EXPECT_EQ(baseline.visits, naive_run.visits);
    EXPECT_EQ(baseline.metrics.walks.walker_steps,
              naive_run.metrics.walks.walker_steps);
    EXPECT_EQ(baseline.metrics.walks.walkers_shipped,
              naive_run.metrics.walks.walkers_shipped);
    EXPECT_EQ(naive_run.metrics.walks.shuffle_entries, 0u);
    EXPECT_GT(naive_run.metrics.bytes, baseline.metrics.bytes)
        << "per-walker frames should cost more wire bytes";
    // Messages count discrete wire frames: naive pays one per shipped
    // walker, batched one per non-empty channel per step.
    EXPECT_GT(naive_run.metrics.messages, baseline.metrics.messages);
    EXPECT_EQ(naive_run.metrics.messages,
              naive_run.metrics.walks.walkers_shipped);
  }
}

// A star puts every walker on its hub at every other step, so one vertex
// holds all of its worker's pool. The shard cut must keep a vertex's walkers
// in one task: visits[hub] then has one writer (the TSan lane checks it) and
// every shard count reproduces the one-shard run.
TEST(WalkEngine, HubSkewNeverSplitsAVertexAcrossShards) {
  const GraphPtr star = MakeStar(257).value();
  constexpr uint64_t kWalkers = 4000;
  constexpr uint32_t kLength = 7;
  WalkSpec spec;
  spec.seed = 77;
  const WalkResult baseline =
      WalkEngine(star, WalkOptions(1, kWalkers, kLength)).Run(spec);
  // Every walk alternates hub and leaf over its kLength + 1 positions.
  EXPECT_EQ(baseline.visits[0], kWalkers * (kLength + 1) / 2);
  EXPECT_EQ(baseline.total_visits, kWalkers * (kLength + 1));
  for (const int host_threads : {4, 8}) {
    for (const int threads_per_worker : {2, 3, 4}) {
      const WalkResult run =
          WalkEngine(star, WalkOptions(host_threads, kWalkers, kLength,
                                       threads_per_worker))
              .Run(spec);
      const std::string what =
          "threads=" + std::to_string(host_threads) +
          " threads_per_worker=" + std::to_string(threads_per_worker);
      ExpectSameWalk(baseline, run, what.c_str());
    }
  }
}

TEST(WalkEngine, TracesHaveTheRightShape) {
  GraphPtr graph = TestGraph();
  auto r = RunDeepWalk(graph, WalkOptions(4, 2000, 10), /*seed=*/5);
  ASSERT_EQ(r.walks.size(), 2000u);
  uint64_t entries = 0;
  for (uint64_t i = 0; i < r.walks.size(); ++i) {
    const auto& walk = r.walks[i];
    ASSERT_FALSE(walk.empty());
    // Start rotation: walker i begins at i mod n.
    EXPECT_EQ(walk[0], static_cast<VertexId>(i % graph->NumVertices()));
    EXPECT_LE(walk.size(), 11u);  // start + walk_length hops
    // Every hop is a real edge.
    for (size_t s = 0; s + 1 < walk.size(); ++s) {
      EXPECT_TRUE(graph->HasEdge(walk[s], walk[s + 1]))
          << "walk " << i << " hop " << s;
    }
    entries += walk.size();
  }
  // Exact visit invariant: the counters are the trace-entry histogram.
  std::vector<uint64_t> histogram(graph->NumVertices(), 0);
  for (const auto& walk : r.walks) {
    for (VertexId v : walk) ++histogram[v];
  }
  EXPECT_EQ(r.metrics.walks.walkers, 2000u);
  EXPECT_EQ(r.metrics.walks.walker_steps + r.walks.size(), entries);
}

TEST(WalkEngine, Node2VecWithNeutralParamsMatchesDeepWalk) {
  // p = q = 1 makes every proposal weight 1 and the acceptance bound 1, so
  // the first rejection-sampling proposal is always accepted — which is
  // exactly the uniform draw DeepWalk makes with the same counter key.
  GraphPtr graph = TestGraph();
  RuntimeOptions options = WalkOptions(4, 1500, 6);
  auto deepwalk = RunDeepWalk(graph, options, /*seed=*/99);
  auto node2vec = RunNode2Vec(graph, options, /*seed=*/99);
  EXPECT_EQ(deepwalk.walks, node2vec.walks);
  EXPECT_EQ(node2vec.metrics.walks.rejections, 0u);
}

TEST(WalkEngine, Node2VecParamsSteerTheWalk) {
  // A strongly returning walk (p << 1) revisits its previous vertex far
  // more often than a strongly exploring one (p >> 1, q << 1).
  GraphPtr graph = TestGraph();
  auto returns = [&](double p, double q) {
    RuntimeOptions options = WalkOptions(4, 1000, 8);
    options.node2vec_p = p;
    options.node2vec_q = q;
    auto r = RunNode2Vec(graph, options, /*seed=*/3);
    uint64_t backtracks = 0, hops = 0;
    for (const auto& walk : r.walks) {
      for (size_t s = 2; s < walk.size(); ++s) {
        backtracks += walk[s] == walk[s - 2];
        ++hops;
      }
    }
    EXPECT_GT(r.metrics.walks.rejections, 0u);
    return hops == 0 ? 0.0 : static_cast<double>(backtracks) / hops;
  };
  const double returning = returns(0.05, 1.0);
  const double exploring = returns(20.0, 0.25);
  EXPECT_GT(returning, 2.0 * exploring)
      << "returning=" << returning << " exploring=" << exploring;
}

TEST(WalkPpr, ConvergesToThePowerIterationOracle) {
  GraphPtr graph = TestGraph();
  const VertexId source = 3;
  RuntimeOptions options;
  options.num_workers = 4;
  auto oracle = algo::RunPersonalizedPageRank(graph, source, /*iters=*/80,
                                              options);
  auto l1_error = [&](uint64_t walkers) {
    RuntimeOptions wopt = WalkOptions(4, walkers, /*length=*/200);
    auto r = RunWalkPpr(graph, source, wopt, /*alpha=*/0.15, /*seed=*/17);
    EXPECT_GT(r.total_visits, walkers);  // geometric walks, not truncated
    double err = 0;
    for (VertexId v = 0; v < graph->NumVertices(); ++v) {
      err += std::fabs(r.rank[v] - oracle.rank[v]);
    }
    return err;
  };
  const double coarse = l1_error(1000);
  const double fine = l1_error(16000);
  // Monte-Carlo error shrinks like 1/sqrt(walkers): 16x walkers is 4x less
  // error in expectation; assert half to leave statistical headroom.
  EXPECT_LT(fine, coarse / 2.0)
      << "coarse=" << coarse << " fine=" << fine;
  EXPECT_LT(fine, 0.15) << "walk-PPR estimate is off the oracle";
}

TEST(WalkPpr, VisitCountersAreExactAndDeterministic) {
  GraphPtr mem = TestGraph();
  PagedTwin paged(mem, "ppr");
  RuntimeOptions options = WalkOptions(1, 4000, 100);
  auto baseline = RunWalkPpr(mem, /*source=*/1, options);
  uint64_t sum = 0;
  for (uint64_t c : baseline.visits) sum += c;
  EXPECT_EQ(sum, baseline.total_visits);
  EXPECT_EQ(baseline.metrics.walks.walkers, 4000u);
  // Every walker contributes hops+1 visits (arrival + drain discipline).
  EXPECT_EQ(baseline.total_visits,
            baseline.metrics.walks.walker_steps + 4000u);
  for (const int host_threads : {4, 8}) {
    for (const bool use_paged : {false, true}) {
      auto run = RunWalkPpr(use_paged ? paged.twin : mem, /*source=*/1,
                            WalkOptions(host_threads, 4000, 100));
      EXPECT_EQ(run.visits, baseline.visits)
          << "threads=" << host_threads << " paged=" << use_paged;
      EXPECT_EQ(run.total_visits, baseline.total_visits);
      EXPECT_EQ(run.rank, baseline.rank);
    }
  }
}

TEST(WalkEngine, WalkStepSamplesFeedTheCostModel) {
  GraphPtr graph = TestGraph();
  RuntimeOptions options = WalkOptions(2, 2000, 6);
  options.record_steps = true;
  WalkSpec spec;
  auto r = WalkEngine(graph, options).Run(spec);
  ASSERT_EQ(r.metrics.steps.size(), r.metrics.walks.steps);
  ASSERT_GT(r.metrics.steps.size(), 0u);
  uint64_t verts = 0;
  for (const StepSample& s : r.metrics.steps) {
    EXPECT_EQ(s.kind, StepKind::kWalkStep);
    verts += s.verts_total;
  }
  // Every processed walker shows up in the samples the cost model prices.
  EXPECT_EQ(verts, r.metrics.walks.walker_steps +
                       r.metrics.walks.terminations);
}

// The result owns the tracer of a traced walk (trace on, no tracer given);
// once the result dies, a demand read on the still-live paged graph must not
// record into it.
TEST(WalkEngine, TracedRunDetachesItsTracerFromTheStorage) {
  GraphPtr mem = TestGraph();
  PagedTwin paged(mem, "tracer", 8 << 10);  // Barriers evict most blocks.
  RuntimeOptions options = WalkOptions(2, 500, 4);
  options.trace = true;
  {
    auto r = WalkEngine(paged.twin, options).Run(WalkSpec{});
    ASSERT_NE(r.tracer, nullptr);
  }
  auto* storage = paged.twin->storage();
  const uint64_t blocks_before = storage->stats().blocks_read;
  for (VertexId v = 0; v < paged.twin->NumVertices(); ++v) {
    (void)paged.twin->OutNeighbors(v);
  }
  EXPECT_GT(storage->stats().blocks_read, blocks_before);
}

// Walks have no crash recovery: a crash or checkpoint plan is rejected when
// the engine is built, never run without its crashes. Message faults run.
TEST(WalkEngine, RejectsCrashAndCheckpointPlans) {
  RuntimeOptions options = WalkOptions(1, 500, 4);
  options.fault_plan.worker_crash_schedule.push_back({2, 1});
  EXPECT_TRUE(CheckRuntimeOptions(options, RuntimeSurface::kWalks)
                  .IsInvalidArgument());
  EXPECT_DEATH(WalkEngine(TestGraph(), options), "worker_crash_schedule");

  options.fault_plan.worker_crash_schedule.clear();
  options.fault_plan.checkpoint_interval = 2;
  EXPECT_DEATH(WalkEngine(TestGraph(), options), "checkpoint_interval");

  options.fault_plan.checkpoint_interval = 0;
  options.fault_plan.msg_drop_rate = 0.05;
  auto r = WalkEngine(TestGraph(), options).Run(WalkSpec{});
  EXPECT_GT(r.metrics.fault.drops, 0u);
}

// perfbench's walks.shuffle_s sums the walk:shuffle task spans, so a traced
// batched run must record them in every step; without them that metric
// reads 0 with no error. One span per non-empty channel, whose first arg is
// the walkers it sorted: every walker that survives a step is sorted once.
TEST(WalkEngine, TracedBatchedRunRecordsShuffleSpansEveryStep) {
  RuntimeOptions options = WalkOptions(4, 2000, 6, /*threads_per_worker=*/2);
  options.trace = true;
  const WalkResult r = WalkEngine(TestGraph(), options).Run(WalkSpec{});
  ASSERT_NE(r.tracer, nullptr);
  std::set<uint64_t> steps;
  uint64_t sorted = 0;
  for (const obs::Span& span : r.tracer->spans()) {
    if (std::string(span.name) != "walk:shuffle") continue;
    EXPECT_EQ(span.kind, obs::SpanKind::kTask);
    steps.insert(span.superstep);
    sorted += span.arg0;
  }
  EXPECT_EQ(steps.size(), r.metrics.walks.steps);
  EXPECT_EQ(sorted, r.metrics.walks.walker_steps);
}

// --- Golden walks ---------------------------------------------------------
//
// Fixed outputs of the walk engine, captured once and pinned here. The sweep
// above compares the engine only with itself, so a rewrite that changed
// every walk the same way would still pass it; these values would not.

/// FNV-1a over every trace (length, then vertices) and the visit counters.
uint64_t WalkDigest(const WalkResult& r) {
  uint64_t h = Fnv1a64(nullptr, 0);
  for (const std::vector<VertexId>& trace : r.traces) {
    const uint64_t size = trace.size();
    h = Fnv1a64(&size, sizeof(size), h);
    h = Fnv1a64(trace.data(), trace.size() * sizeof(VertexId), h);
  }
  return Fnv1a64(r.visits.data(), r.visits.size() * sizeof(uint64_t), h);
}

/// Everything a golden case pins, in the order of the table below. The
/// fault column lists FaultStats' transport counters (fragments sent, drops,
/// duplicates, reorders, retries, escalations); the last two fields are the
/// paged backend's StorageStats, zero on the in-memory one.
struct GoldenValues {
  uint64_t digest = 0;
  WalkStats walks;
  uint64_t bytes = 0;
  uint64_t messages = 0;
  FaultStats fault;
  uint64_t blocks_read = 0;
  uint64_t demand_misses = 0;

  bool operator==(const GoldenValues&) const = default;

  std::string ToString() const {
    const WalkStats& w = walks;
    const FaultStats& f = fault;
    // Printed as a table row, so a deliberate change can be re-pinned.
    std::ostringstream row;
    row << "{" << digest << "ull, {" << w.walkers << "u, " << w.steps
        << "u, " << w.walker_steps << "u, " << w.shuffle_entries << "u, "
        << w.walkers_shipped << "u, " << w.frame_bytes << "u, " << w.restarts
        << "u, " << w.terminations << "u, " << w.rejections << "u}, " << bytes
        << "u, " << messages << "u, {" << f.fragments_sent << "u, " << f.drops
        << "u, " << f.duplicates << "u, " << f.reorders << "u, " << f.retries
        << "u, " << f.escalations << "u}, " << blocks_read << "u, "
        << demand_misses << "u}";
    return row.str();
  }
};

struct GoldenCase {
  const char* name;
  WalkKind kind;
  bool paged;
  bool batched;
  bool faults;
  GoldenValues expected;
};

// Captured once from a build whose step sorted each pool and each channel
// with std::sort. The values, not that algorithm, are the contract.
const GoldenCase kGoldenCases[] = {
    {"uniform-mem-batched", WalkKind::kUniform, false, true, false,
     {7199532704893638616ull,
      {3000u, 8u, 20528u, 34980u, 14018u, 56797u, 0u, 434u, 0u},
      56797u, 96u, {0u, 0u, 0u, 0u, 0u, 0u}, 0u, 0u}},
    {"uniform-mem-naive", WalkKind::kUniform, false, false, false,
     {7199532704893638616ull,
      {3000u, 8u, 20528u, 0u, 14018u, 244464u, 0u, 434u, 0u},
      244464u, 14018u, {0u, 0u, 0u, 0u, 0u, 0u}, 0u, 0u}},
    {"uniform-paged-batched", WalkKind::kUniform, true, true, false,
     {7199532704893638616ull,
      {3000u, 8u, 20528u, 34980u, 14018u, 56797u, 0u, 434u, 0u},
      56797u, 96u, {0u, 0u, 0u, 0u, 0u, 0u}, 57u, 0u}},
    {"uniform-paged-naive", WalkKind::kUniform, true, false, false,
     {7199532704893638616ull,
      {3000u, 8u, 20528u, 0u, 14018u, 244464u, 0u, 434u, 0u},
      244464u, 14018u, {0u, 0u, 0u, 0u, 0u, 0u}, 57u, 0u}},
    {"node2vec-mem-batched", WalkKind::kNode2Vec, false, true, false,
     {1646426739115226265ull,
      {3000u, 8u, 20528u, 34721u, 13759u, 62733u, 0u, 434u, 33854u},
      62733u, 96u, {0u, 0u, 0u, 0u, 0u, 0u}, 0u, 0u}},
    {"node2vec-mem-naive", WalkKind::kNode2Vec, false, false, false,
     {1646426739115226265ull,
      {3000u, 8u, 20528u, 0u, 13759u, 246701u, 0u, 434u, 33854u},
      246701u, 13759u, {0u, 0u, 0u, 0u, 0u, 0u}, 0u, 0u}},
    {"node2vec-paged-batched", WalkKind::kNode2Vec, true, true, false,
     {1646426739115226265ull,
      {3000u, 8u, 20528u, 34721u, 13759u, 62733u, 0u, 434u, 33854u},
      62733u, 96u, {0u, 0u, 0u, 0u, 0u, 0u}, 57u, 0u}},
    {"node2vec-paged-naive", WalkKind::kNode2Vec, true, false, false,
     {1646426739115226265ull,
      {3000u, 8u, 20528u, 0u, 13759u, 246701u, 0u, 434u, 33854u},
      246701u, 13759u, {0u, 0u, 0u, 0u, 0u, 0u}, 57u, 0u}},
    {"ppr-mem-batched", WalkKind::kPpr, false, true, false,
     {7297361737649633582ull,
      {3000u, 8u, 12368u, 23200u, 8644u, 35444u, 0u, 2188u, 0u},
      35444u, 87u, {0u, 0u, 0u, 0u, 0u, 0u}, 0u, 0u}},
    {"ppr-mem-naive", WalkKind::kPpr, false, false, false,
     {7297361737649633582ull,
      {3000u, 8u, 12368u, 0u, 8644u, 150757u, 0u, 2188u, 0u},
      150757u, 8644u, {0u, 0u, 0u, 0u, 0u, 0u}, 0u, 0u}},
    {"ppr-paged-batched", WalkKind::kPpr, true, true, false,
     {7297361737649633582ull,
      {3000u, 8u, 12368u, 23200u, 8644u, 35444u, 0u, 2188u, 0u},
      35444u, 87u, {0u, 0u, 0u, 0u, 0u, 0u}, 57u, 0u}},
    {"ppr-paged-naive", WalkKind::kPpr, true, false, false,
     {7297361737649633582ull,
      {3000u, 8u, 12368u, 0u, 8644u, 150757u, 0u, 2188u, 0u},
      150757u, 8644u, {0u, 0u, 0u, 0u, 0u, 0u}, 57u, 0u}},
    {"uniform-mem-batched-faulty", WalkKind::kUniform, false, true, true,
     {7199532704893638616ull,
      {3000u, 8u, 20528u, 34980u, 14018u, 62195u, 0u, 434u, 0u},
      62195u, 96u, {264u, 11u, 15u, 10u, 11u, 0u}, 0u, 0u}},
};

GoldenValues RunGolden(const GoldenCase& c, const std::string& block_path,
                       int threads_per_worker) {
  RuntimeOptions options = WalkOptions(4, 3000, 8);
  options.threads_per_worker = threads_per_worker;
  options.node2vec_p = 0.5;  // Both biases on, so rejections happen.
  options.node2vec_q = 2.0;
  if (c.faults) {
    options.fault_plan.seed = 99;
    options.fault_plan.msg_drop_rate = 0.05;
    options.fault_plan.msg_dup_rate = 0.05;
    options.fault_plan.msg_reorder_rate = 0.05;
    options.fault_plan.fragment_bytes = 256;
  }
  WalkSpec spec;
  spec.kind = c.kind;
  spec.seed = 2024;
  spec.ppr_source = 5;
  spec.batch_by_vertex = c.batched;
  // A fresh open per run: a cold cache and an unmemoised partition, so the
  // storage counters do not depend on which case ran before.
  PagedOptions paged;
  paged.cache_bytes = 4 << 10;  // Barriers evict: real paging.
  const GraphPtr graph =
      c.paged ? OpenPagedGraph(block_path, paged).value() : TestGraph();
  const WalkResult r = WalkEngine(graph, options).Run(spec);
  GoldenValues v;
  v.digest = WalkDigest(r);
  v.walks = r.metrics.walks;
  v.bytes = r.metrics.bytes;
  v.messages = r.metrics.messages;
  v.fault = r.metrics.fault;
  if (c.paged) {
    v.blocks_read = r.metrics.storage.blocks_read;
    v.demand_misses = r.metrics.storage.demand_misses;
  }
  return v;
}

TEST(WalkGolden, OutputsMatchTheCapturedValues) {
  PagedTwin file(TestGraph(), "golden");
  for (const GoldenCase& c : kGoldenCases) {
    for (const int threads_per_worker : {1, 4}) {
      const GoldenValues got = RunGolden(c, file.path, threads_per_worker);
      EXPECT_TRUE(got == c.expected)
          << c.name << " threads_per_worker=" << threads_per_worker
          << "\n  got " << got.ToString();
    }
  }
}

}  // namespace
}  // namespace walks
}  // namespace flash
