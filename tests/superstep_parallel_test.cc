// Stress tests for the concurrent superstep scheduler: every runtime
// configuration — num_workers x threads_per_worker x host_threads (1 =
// inline in order, the reference; workers x threads = one host thread per
// task) — must produce identical results, identical per-superstep
// frontiers, and identical wire traffic. The simulated cluster's answer (and
// its communication bill) may depend on the partition, never on how the host
// schedules the work.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "algorithms/algorithms.h"
#include "core/api.h"
#include "graph/generators.h"

namespace flash {
namespace {

RuntimeOptions Opts(int workers, int threads, int host_threads) {
  RuntimeOptions options;
  options.num_workers = workers;
  options.threads_per_worker = threads;
  options.host_threads = host_threads;
  return options;
}

// The host_threads axis of a workers x threads config: 1, and one thread per
// task — a genuinely multi-threaded pool even on small hosts, so the
// schedule-invariance claims are exercised with real concurrency (and a
// ThreadSanitizer build sees the actual interleavings).
std::vector<int> HostThreadAxis(int workers, int threads) {
  return {1, workers * threads};
}

GraphPtr StressGraph() {
  static GraphPtr graph =
      GenerateErdosRenyi(400, 3200, /*symmetrize=*/true, /*seed=*/99).value();
  return graph;
}

constexpr int kWorkerCounts[] = {1, 4, 8};
constexpr int kThreadCounts[] = {1, 4};

std::vector<std::pair<uint32_t, uint32_t>> FrontierTrace(const Metrics& m) {
  std::vector<std::pair<uint32_t, uint32_t>> trace;
  trace.reserve(m.steps.size());
  for (const StepSample& s : m.steps) {
    trace.emplace_back(s.frontier_in, s.frontier_out);
  }
  return trace;
}

TEST(SuperstepParallel, BfsResultsInvariantToAllConfigs) {
  auto reference = algo::RunBfs(StressGraph(), 0, Opts(1, 1, 1));
  for (int nw : kWorkerCounts) {
    for (int tpw : kThreadCounts) {
      for (int host : HostThreadAxis(nw, tpw)) {
        auto run = algo::RunBfs(StressGraph(), 0, Opts(nw, tpw, host));
        EXPECT_EQ(run.distance, reference.distance)
            << "nw=" << nw << " tpw=" << tpw << " host=" << host;
        EXPECT_EQ(run.rounds, reference.rounds);
      }
    }
  }
}

TEST(SuperstepParallel, CcResultsInvariantToAllConfigs) {
  auto reference = algo::RunCcOpt(StressGraph(), Opts(1, 1, 1));
  for (int nw : kWorkerCounts) {
    for (int tpw : kThreadCounts) {
      for (int host : HostThreadAxis(nw, tpw)) {
        auto run = algo::RunCcOpt(StressGraph(), Opts(nw, tpw, host));
        EXPECT_EQ(run.label, reference.label)
            << "nw=" << nw << " tpw=" << tpw << " host=" << host;
      }
    }
  }
}

// For a fixed partition (= fixed num_workers), the byte/message counters and
// the per-superstep frontier trace must be bit-identical whatever the shard
// count or host thread count: the wire carries the same updates in the same
// serialised order.
TEST(SuperstepParallel, TrafficAndFrontiersInvariantToScheduling) {
  for (int nw : kWorkerCounts) {
    auto reference = algo::RunBfs(StressGraph(), 0, Opts(nw, 1, 1));
    auto ref_trace = FrontierTrace(reference.metrics);
    for (int tpw : kThreadCounts) {
      for (int host : HostThreadAxis(nw, tpw)) {
        auto run = algo::RunBfs(StressGraph(), 0, Opts(nw, tpw, host));
        EXPECT_EQ(run.metrics.supersteps, reference.metrics.supersteps)
            << "nw=" << nw << " tpw=" << tpw << " host=" << host;
        EXPECT_EQ(run.metrics.bytes, reference.metrics.bytes)
            << "nw=" << nw << " tpw=" << tpw << " host=" << host;
        EXPECT_EQ(run.metrics.messages, reference.metrics.messages)
            << "nw=" << nw << " tpw=" << tpw << " host=" << host;
        EXPECT_EQ(run.metrics.edges_scanned, reference.metrics.edges_scanned);
        EXPECT_EQ(run.metrics.vertices_updated,
                  reference.metrics.vertices_updated);
        EXPECT_EQ(FrontierTrace(run.metrics), ref_trace);
      }
    }
  }
}

// PageRank folds doubles: per-vertex sums run in graph edge order inside one
// task and the global dangling-mass Reduce folds in worker order on one
// thread, so ranks are bit-identical across shard and host thread counts. Across different partitions the Reduce chain regroups, so only
// near-equality holds there.
TEST(SuperstepParallel, PageRankBitIdenticalAcrossThreads) {
  const int kIters = 10;
  for (int nw : kWorkerCounts) {
    auto reference = algo::RunPageRank(StressGraph(), kIters, Opts(nw, 1, 1));
    for (int tpw : kThreadCounts) {
      for (int host : HostThreadAxis(nw, tpw)) {
        auto run = algo::RunPageRank(StressGraph(), kIters, Opts(nw, tpw, host));
        EXPECT_EQ(run.rank, reference.rank)
            << "nw=" << nw << " tpw=" << tpw << " host=" << host;
        EXPECT_EQ(run.metrics.bytes, reference.metrics.bytes);
        EXPECT_EQ(run.metrics.messages, reference.metrics.messages);
      }
    }
  }
}

TEST(SuperstepParallel, PageRankNearIdenticalAcrossWorkers) {
  const int kIters = 10;
  auto reference = algo::RunPageRank(StressGraph(), kIters, Opts(1, 1, 1));
  for (int nw : {4, 8}) {
    auto run = algo::RunPageRank(StressGraph(), kIters, Opts(nw, 4, nw * 4));
    ASSERT_EQ(run.rank.size(), reference.rank.size());
    for (size_t v = 0; v < run.rank.size(); ++v) {
      EXPECT_NEAR(run.rank[v], reference.rank[v], 1e-9) << "v=" << v;
    }
  }
}

// Direct GraphApi program over the bus accessor: a push-mode propagation
// must put exactly the same bytes and logical messages on the wire at every
// shard count and host thread count.
struct HopData {
  uint32_t value = 0xFFFFFFFFu;
  FLASH_FIELDS(value)
};

std::pair<uint64_t, uint64_t> WireTraffic(const RuntimeOptions& options,
                                          std::vector<uint32_t>* result) {
  GraphApi<HopData> fl(StressGraph(), options);
  fl.SetEdgeMapMode(EdgeMapMode::kPush);
  VertexSubset frontier = fl.Single(0);
  fl.VertexMap(frontier, CTrue, [](HopData& v) { v.value = 0; });
  while (fl.Size(frontier) > 0) {
    frontier = fl.EdgeMap(
        frontier, fl.E(),
        [](const HopData& s, const HopData& d) { return d.value > s.value + 1; },
        [](const HopData& s, HopData& d) { d.value = s.value + 1; },
        [](const HopData& d) { return d.value == 0xFFFFFFFFu; },
        [](const HopData& t, HopData& d) {
          if (t.value < d.value) d.value = t.value;
        });
  }
  *result = fl.ExtractResults<uint32_t>(
      [](const HopData& v, VertexId) { return v.value; });
  return {fl.bus().TotalBytes(), fl.bus().TotalMessages()};
}

TEST(SuperstepParallel, BusTotalsInvariantToThreads) {
  for (int nw : kWorkerCounts) {
    std::vector<uint32_t> ref_result;
    auto ref_wire = WireTraffic(Opts(nw, 1, 1), &ref_result);
    for (int tpw : kThreadCounts) {
      for (int host : HostThreadAxis(nw, tpw)) {
        std::vector<uint32_t> result;
        auto wire = WireTraffic(Opts(nw, tpw, host), &result);
        EXPECT_EQ(wire, ref_wire)
            << "nw=" << nw << " tpw=" << tpw << " host=" << host;
        EXPECT_EQ(result, ref_result);
      }
    }
  }
}

}  // namespace
}  // namespace flash
