// Async/BSP equivalence: the async engine must converge to the same
// fixpoint as the BSP oracle — bit-identical for the idempotent (min-fold)
// algorithms — at every host thread count and under message-level fault
// injection, with exact per-run message conservation
// (msgs_sent == msgs_received == msgs_applied; the engine additionally
// FLASH_CHECKs the per-channel identity against bus counters before its
// final mirror sync). The sweep covers {bfs, sssp, cc, ppr} x
// host_threads {1, 4, 8} x fault plans {none, drop+dup}.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/algorithms.h"
#include "graph/generators.h"
#include "tests/test_util.h"

namespace flash {
namespace {

constexpr int kHostThreads[] = {1, 4, 8};
constexpr bool kFaultCases[] = {false, true};

RuntimeOptions AsyncOptions(int host_threads, bool faults) {
  RuntimeOptions options;
  options.num_workers = 4;
  options.execution_mode = ExecutionMode::kAsync;
  options.host_threads = host_threads;
  if (faults) {
    options.fault_plan.msg_drop_rate = 0.05;
    options.fault_plan.msg_dup_rate = 0.05;
    options.fault_plan.seed = 23;
  }
  return options;
}

RuntimeOptions BspOptions() {
  RuntimeOptions options;
  options.num_workers = 4;
  return options;
}

std::string CaseName(const std::string& graph, int host_threads, bool faults) {
  return graph + " host_threads=" + std::to_string(host_threads) +
         (faults ? " faults=drop+dup" : " faults=none");
}

void ExpectConservation(const Metrics& metrics) {
  EXPECT_EQ(metrics.async.msgs_sent, metrics.async.msgs_received);
  EXPECT_EQ(metrics.async.msgs_received, metrics.async.msgs_applied);
}

uint64_t Barriers(const Metrics& metrics) {
  return metrics.supersteps + metrics.async.token_sweeps;
}

std::vector<std::pair<std::string, GraphPtr>> SweepGraphs(bool weighted) {
  std::vector<std::pair<std::string, GraphPtr>> graphs;
  graphs.emplace_back("strip", testing::RoadGridTestGraph(96, weighted));
  {
    RmatOptions opt;
    opt.scale = 8;
    opt.avg_degree = 6;
    opt.weighted = weighted;
    opt.seed = 5;
    graphs.emplace_back("rmat", GenerateRmat(opt).value());
  }
  // Disconnected, so CC exercises multi-component termination and BFS
  // leaves unreachable vertices untouched.
  graphs.emplace_back("er_sparse",
                      GenerateErdosRenyi(200, 180, true, 13, weighted).value());
  return graphs;
}

TEST(AsyncEquivalence, BfsMatchesBspBitIdentical) {
  for (const auto& [name, graph] : SweepGraphs(false)) {
    auto oracle = algo::RunBfs(graph, 0, BspOptions());
    for (int host_threads : kHostThreads) {
      for (bool faults : kFaultCases) {
        SCOPED_TRACE(CaseName(name, host_threads, faults));
        auto run = algo::RunBfs(graph, 0, AsyncOptions(host_threads, faults));
        EXPECT_EQ(run.distance, oracle.distance);
        ExpectConservation(run.metrics);
      }
    }
  }
}

TEST(AsyncEquivalence, SsspMatchesBspBitIdentical) {
  for (const auto& [name, graph] : SweepGraphs(true)) {
    auto oracle = algo::RunSssp(graph, 0, BspOptions());
    for (int host_threads : kHostThreads) {
      for (bool faults : kFaultCases) {
        SCOPED_TRACE(CaseName(name, host_threads, faults));
        auto run = algo::RunSssp(graph, 0, AsyncOptions(host_threads, faults));
        EXPECT_EQ(run.distance, oracle.distance);
        ExpectConservation(run.metrics);
      }
    }
  }
}

TEST(AsyncEquivalence, SsspDeltaSteppingDelegatesToScheduler) {
  // The delta-stepping entry point folds its bucket bookkeeping into the
  // engine scheduler when async: same fixpoint, caller-chosen delta.
  for (const auto& [name, graph] : SweepGraphs(true)) {
    auto oracle = algo::RunSsspDeltaStepping(graph, 0, 0.2f, BspOptions());
    for (int host_threads : kHostThreads) {
      SCOPED_TRACE(CaseName(name, host_threads, false));
      auto run = algo::RunSsspDeltaStepping(graph, 0, 0.2f,
                                            AsyncOptions(host_threads, false));
      EXPECT_EQ(run.distance, oracle.distance);
      ExpectConservation(run.metrics);
    }
  }
}

TEST(AsyncEquivalence, CcMatchesBspBitIdentical) {
  for (const auto& [name, graph] : SweepGraphs(false)) {
    auto oracle = algo::RunCcBasic(graph, BspOptions());
    for (int host_threads : kHostThreads) {
      for (bool faults : kFaultCases) {
        SCOPED_TRACE(CaseName(name, host_threads, faults));
        auto run = algo::RunCcBasic(graph, AsyncOptions(host_threads, faults));
        EXPECT_EQ(run.label, oracle.label);
        ExpectConservation(run.metrics);
      }
    }
  }
}

TEST(AsyncEquivalence, PprDeterministicAndEpsCloseToBsp) {
  // Push-PPR is accumulative (floating-point adds), so async is
  // bit-identical across host thread counts and fault plans — the engine
  // applies messages in (source, record) order — but only eps-bounded
  // against the BSP oracle, whose supersteps group the adds differently.
  constexpr double kAlpha = 0.15;
  constexpr double kEps = 1e-6;
  for (const auto& [name, graph] : SweepGraphs(false)) {
    auto oracle = algo::RunPprPush(graph, 0, kAlpha, kEps, BspOptions());
    const algo::PprPushResult* reference = nullptr;
    algo::PprPushResult first;
    for (int host_threads : kHostThreads) {
      for (bool faults : kFaultCases) {
        SCOPED_TRACE(CaseName(name, host_threads, faults));
        auto run = algo::RunPprPush(graph, 0, kAlpha, kEps,
                                    AsyncOptions(host_threads, faults));
        ExpectConservation(run.metrics);
        // Mass conservation: settled + unsettled mass is the unit seed mass.
        double total = 0;
        for (double r : run.rank) total += r;
        for (double r : run.residual) total += r;
        EXPECT_NEAR(total, 1.0, 1e-9);
        // Converged: every residual below its threshold.
        for (VertexId v = 0; v < graph->NumVertices(); ++v) {
          uint32_t outdeg = graph->OutDegree(v);
          if (outdeg > 0) {
            EXPECT_LE(run.residual[v], kEps * outdeg);
          }
        }
        if (reference == nullptr) {
          first = std::move(run);
          reference = &first;
        } else {
          // Bit-identical across host threads and fault plans.
          EXPECT_EQ(run.rank, reference->rank);
          EXPECT_EQ(run.residual, reference->residual);
        }
      }
    }
    ASSERT_NE(reference, nullptr);
    for (VertexId v = 0; v < graph->NumVertices(); ++v) {
      EXPECT_NEAR(reference->rank[v], oracle.rank[v], 1e-3)
          << name << " vertex " << v;
    }
  }
}

TEST(AsyncEquivalence, AsyncCountersIdenticalAcrossHostThreads) {
  // The async counters are part of the determinism contract: rounds,
  // sweeps, relaxations, inserts and message totals must replay exactly at
  // any host thread count (wall-clock fields excepted).
  GraphPtr graph = testing::RoadGridTestGraph(64, true);
  auto baseline = algo::RunSssp(graph, 0, AsyncOptions(1, false));
  for (int host_threads : {4, 8}) {
    SCOPED_TRACE("host_threads=" + std::to_string(host_threads));
    auto run = algo::RunSssp(graph, 0, AsyncOptions(host_threads, false));
    EXPECT_EQ(run.metrics.async.rounds, baseline.metrics.async.rounds);
    EXPECT_EQ(run.metrics.async.token_sweeps,
              baseline.metrics.async.token_sweeps);
    EXPECT_EQ(run.metrics.async.relaxations,
              baseline.metrics.async.relaxations);
    EXPECT_EQ(run.metrics.async.bucket_inserts,
              baseline.metrics.async.bucket_inserts);
    EXPECT_EQ(run.metrics.async.msgs_sent, baseline.metrics.async.msgs_sent);
    EXPECT_EQ(run.metrics.supersteps, baseline.metrics.supersteps);
    EXPECT_EQ(run.metrics.bytes, baseline.metrics.bytes);
  }
}

TEST(AsyncEquivalence, KillsTheBarrierTaxOnTheStrip) {
  // On the high-diameter strip BSP pays a barrier per hop level; the async
  // engine pays the init supersteps, one final mirror sync, and the token
  // sweeps. The bench acceptance bar is a 2x cut — on the strip it is
  // orders of magnitude.
  GraphPtr graph = testing::RoadGridTestGraph(96, false);
  auto bsp = algo::RunBfs(graph, 0, BspOptions());
  auto async = algo::RunBfs(graph, 0, AsyncOptions(4, false));
  EXPECT_EQ(async.distance, bsp.distance);
  EXPECT_GE(Barriers(bsp.metrics), 2 * Barriers(async.metrics));
  EXPECT_GT(async.metrics.async.rounds, 0u);
  EXPECT_GE(async.metrics.async.token_sweeps, 2u);
}

TEST(AsyncEquivalence, SsspDeltaKnobPreservesFixpoint) {
  GraphPtr graph = testing::RoadGridTestGraph(64, true);
  auto oracle = algo::RunSssp(graph, 0, BspOptions());
  for (float delta : {0.05f, 0.5f, 2.0f}) {
    SCOPED_TRACE("delta=" + std::to_string(delta));
    auto run = algo::RunSsspDeltaStepping(graph, 0, delta,
                                          AsyncOptions(4, false));
    EXPECT_EQ(run.distance, oracle.distance);
    ExpectConservation(run.metrics);
  }
}

// Async RunSssp is delta-stepping at the shared default bucket width: the
// same program, so distances, rounds and every exact counter agree.
TEST(AsyncEquivalence, SsspAsyncIsDefaultDeltaStepping) {
  GraphPtr graph = testing::RoadGridTestGraph(64, true);
  const RuntimeOptions options = AsyncOptions(4, false);
  auto sssp = algo::RunSssp(graph, 0, options);
  auto delta = algo::RunSsspDeltaStepping(graph, 0, 0.25f, options);
  EXPECT_EQ(sssp.distance, delta.distance);
  EXPECT_EQ(sssp.rounds, delta.rounds);
  EXPECT_EQ(sssp.metrics.bytes, delta.metrics.bytes);
  EXPECT_EQ(sssp.metrics.messages, delta.metrics.messages);
  EXPECT_EQ(sssp.metrics.async.rounds, delta.metrics.async.rounds);
  EXPECT_GT(sssp.metrics.async.rounds, 0u);
}

}  // namespace
}  // namespace flash
