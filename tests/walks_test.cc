// Random-walk engine (src/walks/): the determinism contract — traces,
// visit counters, WalkStats, and wire accounting bit-identical at
// host_threads 1/4/8 and on both storage backends — plus statistical
// convergence of walk-based PPR onto the power-iteration oracle as the
// walker count grows.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "algorithms/algorithms.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/paged_storage.h"
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
  explicit PagedTwin(const GraphPtr& graph, const char* tag) {
    path = std::string("/tmp/flash_walks_test_") + tag + "_" +
           std::to_string(::getpid()) + ".fblk";
    BlockFileOptions options;
    options.block_payload_bytes = 4096;  // Many blocks: real paging traffic.
    Status st = SaveBlockFile(*graph, path, options);
    EXPECT_TRUE(st.ok()) << st.ToString();
    twin = OpenPagedGraph(path).value();
  }
  ~PagedTwin() { std::remove(path.c_str()); }

  std::string path;
  GraphPtr twin;
};

RuntimeOptions WalkOptions(int host_threads, uint64_t walkers,
                           uint32_t length) {
  RuntimeOptions options;
  options.num_workers = 4;
  options.host_threads = host_threads;
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
    for (const int host_threads : {1, 4, 8}) {
      for (const bool use_paged : {false, true}) {
        WalkResult run =
            WalkEngine(use_paged ? paged.twin : mem,
                       WalkOptions(host_threads, 3000, 8))
                .Run(spec);
        std::string what = "kind=" + std::to_string(static_cast<int>(kind)) +
                           " threads=" + std::to_string(host_threads) +
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
  PagedTwin paged(mem, "tracer");
  RuntimeOptions options = WalkOptions(2, 500, 4);
  options.edge_cache_bytes = 8 << 10;  // Barriers evict most blocks.
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

}  // namespace
}  // namespace walks
}  // namespace flash
