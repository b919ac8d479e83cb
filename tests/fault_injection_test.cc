// Chaos battery for the fault-injection subsystem: algorithms executed under
// adversarial fault plans (message drops/duplicates/reordering, scheduled
// worker crashes with checkpoint recovery) must produce results bit-identical
// to the fault-free run and to the sequential reference oracles, and the
// fault counters themselves must replay exactly for a given seed at any host
// thread count.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/algorithms.h"
#include "core/api.h"
#include "flashware/cost_model.h"
#include "flashware/fault_injector.h"
#include "graph/generators.h"
#include "reference/reference.h"
#include "test_util.h"

namespace flash {
namespace {

using testing::MakeOptions;
using testing::RuntimeCase;
using testing::TestGraphs;

/// The adversity sweep: each failure mode alone, combined storms, crash
/// schedules, and a retry budget tight enough to force escalations.
std::vector<std::pair<std::string, FaultPlan>> SweepPlans() {
  std::vector<std::pair<std::string, FaultPlan>> plans;
  {
    FaultPlan p;
    p.seed = 11;
    p.msg_drop_rate = 0.2;
    plans.emplace_back("drop20", p);
  }
  {
    FaultPlan p;
    p.seed = 12;
    p.msg_dup_rate = 0.3;
    plans.emplace_back("dup30", p);
  }
  {
    FaultPlan p;
    p.seed = 13;
    p.msg_reorder_rate = 0.5;
    p.fragment_bytes = 16;  // Small fragments: many reorder opportunities.
    plans.emplace_back("reorder50", p);
  }
  {
    FaultPlan p;
    p.seed = 14;
    p.msg_drop_rate = 0.15;
    p.msg_dup_rate = 0.15;
    p.msg_reorder_rate = 0.25;
    p.fragment_bytes = 64;
    plans.emplace_back("storm", p);
  }
  {
    FaultPlan p;
    p.seed = 15;
    p.worker_crash_schedule = {{2, 1}, {5, 0}};
    plans.emplace_back("crashes", p);
  }
  {
    FaultPlan p;
    p.seed = 16;
    p.msg_drop_rate = 0.2;
    p.msg_dup_rate = 0.1;
    p.fragment_bytes = 32;
    p.checkpoint_interval = 3;
    p.worker_crash_schedule = {{4, 2}};
    plans.emplace_back("storm_with_crash", p);
  }
  {
    FaultPlan p;
    p.seed = 17;
    p.msg_drop_rate = 0.6;
    p.max_retries = 1;  // Budget almost always exhausted: escalation path.
    p.fragment_bytes = 32;
    p.worker_crash_schedule = {{3, 1}};
    plans.emplace_back("escalate", p);
  }
  return plans;
}

RuntimeOptions FaultCase(const FaultPlan& plan) {
  RuntimeOptions options = MakeOptions(
      {4, 2, EdgeMapMode::kAdaptive, PartitionScheme::kHash});
  options.fault_plan = plan;
  return options;
}

std::vector<std::pair<std::string, GraphPtr>> SweepGraphs(
    bool weighted = false) {
  auto all = TestGraphs(false, weighted);
  // Three shapes cover the interesting regimes: a long chain (many sparse
  // supersteps), a dense blob (big dense payloads), and a random graph.
  std::vector<std::pair<std::string, GraphPtr>> keep;
  for (auto& [name, graph] : all) {
    if (name == "path" || name == "complete" || name == "er_medium") {
      keep.emplace_back(name, graph);
    }
  }
  EXPECT_EQ(keep.size(), 3u);
  return keep;
}

TEST(FaultInjectionTest, BfsSurvivesEveryPlan) {
  for (const auto& [gname, graph] : SweepGraphs()) {
    auto baseline = algo::RunBfs(graph, 0);
    auto oracle = reference::BfsDistances(*graph, 0);
    ASSERT_EQ(baseline.distance, oracle) << gname;
    for (const auto& [pname, plan] : SweepPlans()) {
      auto faulted = algo::RunBfs(graph, 0, FaultCase(plan));
      EXPECT_EQ(faulted.distance, baseline.distance) << gname << "/" << pname;
      EXPECT_EQ(faulted.rounds, baseline.rounds) << gname << "/" << pname;
    }
  }
}

TEST(FaultInjectionTest, ConnectedComponentsSurviveEveryPlan) {
  for (const auto& [gname, graph] : SweepGraphs()) {
    auto baseline = algo::RunCcBasic(graph);
    ASSERT_TRUE(reference::SamePartition(
        baseline.label, reference::ConnectedComponents(*graph)))
        << gname;
    for (const auto& [pname, plan] : SweepPlans()) {
      auto faulted = algo::RunCcBasic(graph, FaultCase(plan));
      EXPECT_EQ(faulted.label, baseline.label) << gname << "/" << pname;
    }
  }
}

TEST(FaultInjectionTest, PageRankSurvivesEveryPlan) {
  constexpr int kIters = 10;
  for (const auto& [gname, graph] : SweepGraphs()) {
    auto baseline = algo::RunPageRank(graph, kIters);
    auto oracle = reference::PageRank(*graph, kIters);
    ASSERT_EQ(baseline.rank.size(), oracle.size());
    for (size_t v = 0; v < oracle.size(); ++v) {
      ASSERT_NEAR(baseline.rank[v], oracle[v], 1e-9) << gname << " v" << v;
    }
    for (const auto& [pname, plan] : SweepPlans()) {
      auto faulted = algo::RunPageRank(graph, kIters, FaultCase(plan));
      // Bit-identical, not approximately equal: the reassembled payloads are
      // byte-identical, so every floating-point operation is too.
      EXPECT_EQ(faulted.rank, baseline.rank) << gname << "/" << pname;
    }
  }
}

TEST(FaultInjectionTest, SsspSurvivesEveryPlan) {
  for (const auto& [gname, graph] : SweepGraphs(/*weighted=*/true)) {
    auto baseline = algo::RunSssp(graph, 0);
    auto oracle = reference::SsspDistances(*graph, 0);
    ASSERT_EQ(baseline.distance.size(), oracle.size());
    for (size_t v = 0; v < oracle.size(); ++v) {
      if (std::isinf(oracle[v])) {
        ASSERT_TRUE(std::isinf(baseline.distance[v])) << gname << " v" << v;
      } else {
        ASSERT_NEAR(baseline.distance[v], oracle[v], 1e-4) << gname << " v"
                                                           << v;
      }
    }
    for (const auto& [pname, plan] : SweepPlans()) {
      auto faulted = algo::RunSssp(graph, 0, FaultCase(plan));
      EXPECT_EQ(faulted.distance, baseline.distance) << gname << "/" << pname;
    }
  }
}

TEST(FaultInjectionTest, SameSeedReproducesCountersAtAnyThreadCount) {
  auto graph = GenerateErdosRenyi(150, 600, true, 11).value();
  for (const auto& [pname, plan] : SweepPlans()) {
    RuntimeOptions options = FaultCase(plan);
    auto first = algo::RunBfs(graph, 0, options);
    ASSERT_TRUE(first.metrics.fault.Any()) << pname;
    // Replay: identical counters, not merely identical results.
    auto replay = algo::RunBfs(graph, 0, options);
    EXPECT_EQ(replay.metrics.fault, first.metrics.fault) << pname;
    EXPECT_EQ(replay.metrics.bytes, first.metrics.bytes) << pname;
    // Host parallelism must not perturb the fault stream: one inline lane,
    // a constrained pool, and one thread per (worker, shard) task all agree.
    for (int host_threads :
         {1, 3, options.num_workers * options.threads_per_worker}) {
      RuntimeOptions narrow = options;
      narrow.host_threads = host_threads;
      auto run = algo::RunBfs(graph, 0, narrow);
      EXPECT_EQ(run.metrics.fault, first.metrics.fault)
          << pname << " host_threads=" << host_threads;
      EXPECT_EQ(run.distance, first.distance);
    }
  }
}

TEST(FaultInjectionTest, DifferentSeedsDrawDifferentFaults) {
  auto graph = GenerateErdosRenyi(150, 600, true, 11).value();
  FaultPlan plan;
  plan.msg_drop_rate = 0.25;
  plan.fragment_bytes = 64;
  plan.seed = 1;
  auto a = algo::RunBfs(graph, 0, FaultCase(plan));
  plan.seed = 2;
  auto b = algo::RunBfs(graph, 0, FaultCase(plan));
  EXPECT_EQ(a.distance, b.distance);  // Results agree...
  EXPECT_NE(a.metrics.fault.drops, b.metrics.fault.drops);  // ...faults don't.
}

TEST(FaultInjectionTest, InactivePlanChangesNothing) {
  auto graph = GenerateErdosRenyi(150, 600, true, 11).value();
  RuntimeOptions plain;
  RuntimeOptions zeroed;
  zeroed.fault_plan = FaultPlan{};  // Explicit all-zero plan.
  auto a = algo::RunPageRank(graph, 8, plain);
  auto b = algo::RunPageRank(graph, 8, zeroed);
  EXPECT_EQ(a.rank, b.rank);
  EXPECT_EQ(a.metrics.bytes, b.metrics.bytes);
  EXPECT_EQ(a.metrics.messages, b.metrics.messages);
  EXPECT_EQ(a.metrics.supersteps, b.metrics.supersteps);
  EXPECT_FALSE(a.metrics.fault.Any());
  EXPECT_FALSE(b.metrics.fault.Any());
  ClusterConfig config;
  ModeledTime ta = ModelTime(a.metrics, config);
  ModeledTime tb = ModelTime(b.metrics, config);
  // Compare the counter-derived categories (compute is priced from measured
  // wall time, which naturally varies between runs).
  EXPECT_EQ(ta.comm, tb.comm);
  EXPECT_EQ(ta.serialize, tb.serialize);
  EXPECT_EQ(ta.other, tb.other);
  EXPECT_EQ(tb.recovery, 0.0);
}

TEST(FaultInjectionTest, CrashRecoveryRestoresAndReplays) {
  auto graph = GenerateErdosRenyi(150, 600, true, 11).value();
  FaultPlan plan;
  plan.seed = 21;
  // Interval larger than the run: only the initial snapshot exists, so every
  // superstep between it and a crash must be replayed from the redo log.
  plan.checkpoint_interval = 100;
  plan.worker_crash_schedule = {{5, 1}, {6, 3}};
  auto run = algo::RunBfs(graph, 0, FaultCase(plan));
  EXPECT_EQ(run.distance, reference::BfsDistances(*graph, 0));
  const FaultStats& fault = run.metrics.fault;
  EXPECT_EQ(fault.restores, 2u);
  EXPECT_GT(fault.checkpoints, 0u);
  EXPECT_GT(fault.checkpoint_bytes, 0u);
  EXPECT_GT(fault.restored_bytes, 0u);
  EXPECT_GT(fault.replayed_records, 0u);
  EXPECT_GT(fault.replayed_bytes, 0u);
}

struct LocalCount {
  uint32_t hits = 0;
  FLASH_FIELDS(hits)
};

TEST(FaultInjectionTest, CrashRecoveryReplaysAnEmptyCriticalSet) {
  // With no critical field, mirror sync still ships frames, under mask 0;
  // the redo log keeps them verbatim, so replay must accept that mask.
  auto graph = GenerateErdosRenyi(150, 600, true, 11).value();
  FaultPlan plan;
  plan.seed = 21;
  plan.checkpoint_interval = 100;
  plan.worker_crash_schedule = {{3, 1}, {5, 2}};
  GraphApi<LocalCount> fl(graph, FaultCase(plan));
  fl.SetCriticalFields({});
  constexpr uint32_t kSteps = 7;
  for (uint32_t step = 0; step < kSteps; ++step) {
    fl.VertexMap(fl.V(), CTrue, [](LocalCount& v) { ++v.hits; });
  }
  for (const LocalCount& v : fl.GatherMasters()) EXPECT_EQ(v.hits, kSteps);
  const FaultStats& fault = fl.metrics().fault;
  EXPECT_EQ(fault.restores, 2u);
  EXPECT_GT(fault.replayed_records, 0u);
}

TEST(FaultInjectionTest, DropsAmplifyWireBytesAndModeledCost) {
  auto graph = GenerateErdosRenyi(150, 600, true, 11).value();
  auto clean = algo::RunBfs(graph, 0);
  FaultPlan plan;
  plan.seed = 31;
  plan.msg_drop_rate = 0.3;
  plan.msg_dup_rate = 0.2;
  plan.fragment_bytes = 64;
  auto faulted = algo::RunBfs(graph, 0, FaultCase(plan));
  // Retransmissions and duplicates are real wire traffic.
  EXPECT_GT(faulted.metrics.bytes, clean.metrics.bytes);
  EXPECT_GT(faulted.metrics.fault.retries, 0u);
  EXPECT_GT(faulted.metrics.fault.duplicates, 0u);
  // Logical message counts are unchanged: faults live below that layer.
  EXPECT_EQ(faulted.metrics.messages, clean.metrics.messages);
  ClusterConfig config;
  // Compare the counter-derived categories: the compute category is priced
  // from measured wall time and would make a total-vs-total check flaky.
  ModeledTime tf = ModelTime(faulted.metrics, config);
  ModeledTime tc = ModelTime(clean.metrics, config);
  EXPECT_GT(tf.comm + tf.serialize, tc.comm + tc.serialize);
}

TEST(FaultInjectionTest, ExhaustedRetryBudgetEscalates) {
  auto graph = GenerateErdosRenyi(150, 600, true, 11).value();
  FaultPlan plan;
  plan.seed = 41;
  plan.msg_drop_rate = 0.7;
  plan.max_retries = 0;  // Every drop is final: no second transmission.
  plan.fragment_bytes = 32;
  plan.worker_crash_schedule = {{2, 0}};  // Arms checkpointing too.
  auto run = algo::RunBfs(graph, 0, FaultCase(plan));
  EXPECT_EQ(run.distance, reference::BfsDistances(*graph, 0));
  EXPECT_GT(run.metrics.fault.escalations, 0u);
  EXPECT_EQ(run.metrics.fault.retries, 0u);
  ClusterConfig config;
  // Escalations are charged failover latency in the modelled time.
  EXPECT_GT(ModelTime(run.metrics, config).recovery, 0.0);
}

TEST(FaultInjectionTest, DrawIsAPureFunctionOfItsInputs) {
  FaultPlan plan;
  plan.seed = 7;
  plan.msg_drop_rate = 0.5;
  FaultInjector a(plan);
  FaultInjector b(plan);
  for (uint64_t epoch = 0; epoch < 4; ++epoch) {
    for (int src = 0; src < 3; ++src) {
      for (int dst = 0; dst < 3; ++dst) {
        for (uint64_t salt = 0; salt < 8; ++salt) {
          double d = a.Draw(epoch, src, dst, salt);
          EXPECT_EQ(d, b.Draw(epoch, src, dst, salt));
          EXPECT_GE(d, 0.0);
          EXPECT_LT(d, 1.0);
        }
      }
    }
  }
  FaultPlan other = plan;
  other.seed = 8;
  FaultInjector c(other);
  int differing = 0;
  for (uint64_t salt = 0; salt < 64; ++salt) {
    differing += a.Draw(0, 0, 1, salt) != c.Draw(0, 0, 1, salt);
  }
  EXPECT_GT(differing, 48);  // Different seed: essentially independent draws.
}

TEST(FaultInjectionTest, TransmitChannelDeliversPayloadVerbatim) {
  FaultPlan plan;
  plan.seed = 3;
  plan.msg_drop_rate = 0.4;
  plan.msg_dup_rate = 0.3;
  plan.msg_reorder_rate = 0.5;
  plan.fragment_bytes = 8;
  FaultInjector injector(plan);
  std::vector<uint8_t> payload(301);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  for (uint64_t epoch = 0; epoch < 16; ++epoch) {
    std::vector<uint8_t> delivered;
    uint64_t wire = 0, arrived = 0;
    injector.TransmitChannel(epoch, 0, 1, payload, delivered, &wire, &arrived);
    ASSERT_EQ(delivered, payload) << "epoch " << epoch;
    EXPECT_GE(wire, payload.size());
    EXPECT_GE(arrived, payload.size());
  }
  EXPECT_GT(injector.stats().drops, 0u);
  EXPECT_GT(injector.stats().duplicates, 0u);
  EXPECT_GT(injector.stats().reorders, 0u);
}

}  // namespace
}  // namespace flash
