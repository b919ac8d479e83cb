// Unit tests for the FLASHWARE middleware internals: the current/next
// vertex store (BSP visibility, dirty tracking, masked mirror overlays),
// metrics aggregation, the cluster cost model, and the runtime options
// check.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>

#include "algorithms/algorithms.h"
#include "flashware/checkpoint.h"
#include "flashware/cost_model.h"
#include "flashware/metrics.h"
#include "flashware/runtime.h"
#include "flashware/vertex_store.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "reference/reference.h"

namespace flash {
namespace {

struct StoreData {
  uint32_t a = 0;
  uint32_t b = 0;
  FLASH_FIELDS(a, b)
};

TEST(VertexStore, NextSeedsFromCurrentOnFirstTouch) {
  VertexStore<StoreData> store(4);
  store.DirectCurrent(2).a = 7;
  std::vector<VertexId> dirty;
  StoreData& next = store.MutableNext(2, dirty);
  EXPECT_EQ(next.a, 7u);  // Seeded from current.
  next.a = 9;
  EXPECT_EQ(store.Current(2).a, 7u);  // Invisible until commit (BSP).
  EXPECT_EQ(dirty, std::vector<VertexId>{2});
}

TEST(VertexStore, SecondTouchDoesNotReseed) {
  VertexStore<StoreData> store(4);
  std::vector<VertexId> dirty;
  store.MutableNext(1, dirty).a = 5;
  store.MutableNext(1, dirty).a += 1;  // Accumulates, not reseeded.
  store.AppendDirty(std::move(dirty));
  EXPECT_EQ(store.dirty_list().size(), 1u);
  store.Commit([](VertexId, const StoreData&) {});
  EXPECT_EQ(store.Current(1).a, 6u);
}

TEST(VertexStore, CommitPromotesAndClears) {
  VertexStore<StoreData> store(4);
  std::vector<VertexId> dirty;
  store.MutableNext(0, dirty).a = 1;
  store.MutableNext(3, dirty).b = 2;
  store.AppendDirty(std::move(dirty));
  std::vector<VertexId> committed;
  store.Commit([&](VertexId v, const StoreData&) { committed.push_back(v); });
  EXPECT_EQ(committed, (std::vector<VertexId>{0, 3}));
  EXPECT_EQ(store.Current(0).a, 1u);
  EXPECT_EQ(store.Current(3).b, 2u);
  EXPECT_TRUE(store.dirty_list().empty());
  EXPECT_FALSE(store.IsDirty(0));
}

TEST(VertexStore, ApplyMirrorOverlaysOnlyMaskedFields) {
  VertexStore<StoreData> store(2);
  store.DirectCurrent(0) = {10, 20};
  StoreData update{99, 77};
  BufferWriter writer;
  SerializeFields(update, 0b01, writer);  // Only field `a`.
  BufferReader reader(writer.bytes());
  store.ApplyMirror(0, 0b01, reader);
  EXPECT_EQ(store.Current(0).a, 99u);
  EXPECT_EQ(store.Current(0).b, 20u);  // Non-critical field untouched.
}

TEST(Metrics, AddStepAggregates) {
  Metrics metrics;
  StepSample s1;
  s1.kind = StepKind::kEdgeMapSparse;
  s1.edges_total = 10;
  s1.bytes_total = 100;
  s1.msgs_total = 5;
  StepSample s2;
  s2.kind = StepKind::kEdgeMapDense;
  s2.edges_total = 20;
  metrics.AddStep(s1, true);
  metrics.AddStep(s2, true);
  EXPECT_EQ(metrics.supersteps, 2u);
  EXPECT_EQ(metrics.edges_scanned, 30u);
  EXPECT_EQ(metrics.bytes, 100u);
  EXPECT_EQ(metrics.messages, 5u);
  EXPECT_EQ(metrics.sparse_steps, 1u);
  EXPECT_EQ(metrics.dense_steps, 1u);
  EXPECT_EQ(metrics.steps.size(), 2u);
}

TEST(Metrics, TraceOptional) {
  Metrics metrics;
  metrics.AddStep(StepSample{}, false);
  EXPECT_EQ(metrics.supersteps, 1u);
  EXPECT_TRUE(metrics.steps.empty());
}

Metrics MakeTrace(uint64_t edges_max, uint64_t bytes_max, int steps) {
  Metrics metrics;
  for (int i = 0; i < steps; ++i) {
    StepSample s;
    s.edges_max = edges_max;
    s.edges_total = edges_max * 4;
    s.bytes_max = bytes_max;
    s.bytes_total = bytes_max * 4;
    metrics.AddStep(s, true);
  }
  return metrics;
}

TEST(CostModel, BarrierFloorsEverySuperstep) {
  Metrics metrics = MakeTrace(0, 0, 10);
  ClusterConfig config;
  ModeledTime t = ModelTime(metrics, config);
  EXPECT_NEAR(t.other, 10 * config.barrier_seconds, 1e-12);
  EXPECT_GE(t.total, t.other);
}

TEST(CostModel, ComputeDominatedScalesWithCores) {
  Metrics metrics = MakeTrace(/*edges_max=*/10'000'000, /*bytes_max=*/0, 3);
  ClusterConfig one;
  one.cores_per_node = 1;
  ClusterConfig thirty_two = one;
  thirty_two.cores_per_node = 32;
  double speedup =
      ModelTime(metrics, one).total / ModelTime(metrics, thirty_two).total;
  EXPECT_GT(speedup, 5.0);   // Near the Amdahl bound...
  EXPECT_LT(speedup, 12.0);  // ...but clearly sublinear (9% serial).
}

TEST(CostModel, CommDominatedDoesNotScaleWithCores) {
  Metrics metrics = MakeTrace(/*edges_max=*/100, /*bytes_max=*/50'000'000, 3);
  ClusterConfig one;
  one.cores_per_node = 1;
  ClusterConfig thirty_two = one;
  thirty_two.cores_per_node = 32;
  double speedup =
      ModelTime(metrics, one).total / ModelTime(metrics, thirty_two).total;
  EXPECT_LT(speedup, 1.2);
}

TEST(CostModel, MeasuredComputeOverridesCounters) {
  Metrics metrics;
  StepSample s;
  s.edges_max = 1;       // Counters see almost nothing...
  s.comp_max = 0.5;      // ...but the measured user-function cost is large.
  metrics.AddStep(s, true);
  ClusterConfig config;
  config.nodes = 1;
  config.cores_per_node = 1;
  EXPECT_GT(ModelTime(metrics, config).compute, 0.4);
}

TEST(CostModel, CalibrationProducesSaneRates) {
  ClusterConfig config = CalibrateComputeRate();
  EXPECT_GE(config.ns_per_edge, 0.5);
  EXPECT_LT(config.ns_per_edge, 1000.0);
  EXPECT_EQ(config.ns_per_vertex, 2.0 * config.ns_per_edge);
}

TEST(Checkpoint, SealedFrameRoundTrips) {
  std::vector<uint8_t> frame;
  for (int i = 0; i < 300; ++i) frame.push_back(static_cast<uint8_t>(i * 13));
  const std::vector<uint8_t> payload = frame;
  SealCheckpointFrame(frame);
  ASSERT_TRUE(VerifyCheckpointFrame(frame).ok());
  ASSERT_EQ(CheckpointPayloadSize(frame), payload.size());
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), frame.begin()));
}

TEST(Checkpoint, EmptyPayloadSealsAndVerifies) {
  std::vector<uint8_t> frame;
  SealCheckpointFrame(frame);
  EXPECT_TRUE(VerifyCheckpointFrame(frame).ok());
  EXPECT_EQ(CheckpointPayloadSize(frame), 0u);
}

TEST(Checkpoint, CorruptAndTruncatedFramesAreRejectedGracefully) {
  std::vector<uint8_t> frame(100, 0xAB);
  SealCheckpointFrame(frame);
  ASSERT_TRUE(VerifyCheckpointFrame(frame).ok());

  // Flip a payload bit: checksum mismatch, a Status — never a crash.
  std::vector<uint8_t> corrupt = frame;
  corrupt[40] ^= 0x01;
  Status bad = VerifyCheckpointFrame(corrupt);
  EXPECT_TRUE(bad.IsIOError()) << bad.ToString();

  // Damage the trailer's magic.
  std::vector<uint8_t> nomagic = frame;
  nomagic[nomagic.size() - 16] ^= 0xFF;
  EXPECT_TRUE(VerifyCheckpointFrame(nomagic).IsIOError());

  // Truncate at every suffix length: all rejected, none crash.
  for (size_t keep : {0u, 7u, 15u, 50u, 99u}) {
    std::vector<uint8_t> truncated(frame.begin(), frame.begin() + keep);
    EXPECT_TRUE(VerifyCheckpointFrame(truncated).IsIOError()) << keep;
  }
}

TEST(Checkpoint, FrontierListsRoundTripAndRejectCorruption) {
  std::vector<std::vector<VertexId>> lists = {{1, 5, 9}, {}, {2, 4, 6, 8}};
  std::vector<uint8_t> sealed = EncodeFrontierLists(42, lists);
  uint64_t step = 0;
  std::vector<std::vector<VertexId>> decoded;
  ASSERT_TRUE(DecodeFrontierLists(sealed, &step, &decoded).ok());
  EXPECT_EQ(step, 42u);
  EXPECT_EQ(decoded, lists);

  sealed[1] ^= 0x10;
  EXPECT_TRUE(DecodeFrontierLists(sealed, &step, &decoded).IsIOError());
}

// A redo log is a plain sequence of wire frames: a commit frame encoded
// straight into it and a received mirror frame appended verbatim replay in
// order, each under its own mask; a new snapshot truncates the log.
TEST(Checkpoint, RecoveryLogRoundTripsRecords) {
  CheckpointManager manager(1, 1);
  BufferWriter& log = manager.log(0);
  EXPECT_EQ(log.size(), 0u);
  const std::vector<WireId> commit_ids = {1, 4};
  const std::vector<uint8_t> commit_payload = {10, 11, 40, 41};
  const WireFramePart commit{commit_ids.data(), commit_ids.size(),
                             commit_payload.data(), commit_payload.size()};
  EncodeWireFrame(log, 0x3, &commit, 1);
  const std::vector<WireId> mirror_ids = {7};
  const std::vector<uint8_t> mirror_payload = {9};
  const WireFramePart mirror{mirror_ids.data(), mirror_ids.size(),
                             mirror_payload.data(), mirror_payload.size()};
  BufferWriter received;
  EncodeWireFrame(received, 0x1, &mirror, 1);
  log.WriteRaw(received.bytes().data(), received.size());

  BufferReader reader(log.bytes());
  std::vector<WireId> ids;
  uint32_t mask = 0;
  ASSERT_TRUE(ReadWireFrame(reader, 0x3, 8, &ids, &mask).ok());
  EXPECT_EQ(mask, 0x3u);
  EXPECT_EQ(ids, commit_ids);
  for (uint8_t byte : commit_payload) EXPECT_EQ(reader.ReadPod<uint8_t>(), byte);
  ids.clear();
  ASSERT_TRUE(ReadWireFrame(reader, 0x3, 8, &ids, &mask).ok());
  EXPECT_EQ(mask, 0x1u);
  EXPECT_EQ(ids, mirror_ids);
  EXPECT_EQ(reader.ReadPod<uint8_t>(), 9);
  EXPECT_TRUE(reader.AtEnd());

  FaultStats stats;
  manager.StoreSnapshot(0, {{1}}, EncodeFrontierLists(0, {{}}), stats);
  EXPECT_EQ(manager.log(0).size(), 0u);
}

TEST(Checkpoint, ManagerIntervalPolicyAndByteAccounting) {
  CheckpointManager manager(2, 3);
  FaultStats stats;
  EXPECT_TRUE(manager.Due(0));  // No snapshot yet: always due.
  manager.StoreSnapshot(0, {{1, 2, 3}, {4, 5}}, EncodeFrontierLists(0, {{}, {}}),
                        stats);
  EXPECT_EQ(stats.checkpoints, 1u);
  EXPECT_GT(stats.checkpoint_bytes, 0u);
  EXPECT_FALSE(manager.Due(1));
  EXPECT_FALSE(manager.Due(2));
  EXPECT_TRUE(manager.Due(3));
  // Stored blobs were sealed by the manager and verify cleanly.
  EXPECT_TRUE(VerifyCheckpointFrame(manager.worker_blob(0)).ok());
  EXPECT_TRUE(VerifyCheckpointFrame(manager.worker_blob(1)).ok());
  EXPECT_EQ(CheckpointPayloadSize(manager.worker_blob(0)), 3u);
}

TEST(Checkpoint, IntervalOneAndIntervalNRecoverIdenticalResults) {
  // A run that crashes twice must recover to the same answer whether it
  // checkpoints every superstep (tiny replay) or rarely (long replay).
  auto graph = GenerateErdosRenyi(120, 500, true, 9).value();
  auto oracle = reference::BfsDistances(*graph, 0);
  FaultStats previous;
  for (int interval : {1, 4, 50}) {
    RuntimeOptions options;
    options.num_workers = 4;
    options.fault_plan.seed = 5;
    options.fault_plan.checkpoint_interval = interval;
    options.fault_plan.worker_crash_schedule = {{3, 1}, {7, 2}};
    auto run = algo::RunBfs(graph, 0, options);
    EXPECT_EQ(run.distance, oracle) << "interval " << interval;
    EXPECT_EQ(run.metrics.fault.restores, 2u) << "interval " << interval;
    if (interval > 1) {
      // Rarer checkpoints write fewer snapshot bytes but replay more log.
      EXPECT_LT(run.metrics.fault.checkpoints, previous.checkpoints);
      EXPECT_GE(run.metrics.fault.replayed_records, previous.replayed_records);
    }
    previous = run.metrics.fault;
  }
}

TEST(PartitionMetrics, TotalMirrorsMatchesMaskPopcounts) {
  auto graph = GenerateErdosRenyi(50, 200, true, 4).value();
  auto part = Partition::Create(graph, 5).value();
  uint64_t expected = 0;
  for (VertexId v = 0; v < graph->NumVertices(); ++v) {
    expected += static_cast<uint64_t>(__builtin_popcountll(part.MirrorMask(v)));
  }
  EXPECT_EQ(part.TotalMirrors(), expected);
  EXPECT_GT(part.TotalMirrors(), 0u);
}

// --- CheckRuntimeOptions ---------------------------------------------------

TEST(CheckRuntimeOptions, EveryRuleNamesItsField) {
  struct Row {
    const char* name;
    RuntimeSurface surface;
    std::function<void(RuntimeOptions&)> edit;
    const char* field;  // Null: the options are valid.
  };
  const auto crash = [](RuntimeOptions& o, int worker) {
    o.fault_plan.worker_crash_schedule.push_back({2, worker});
  };
  const auto message_faults = [](RuntimeOptions& o, double rate) {
    o.fault_plan.msg_drop_rate = rate;
    o.fault_plan.msg_dup_rate = rate;
    o.fault_plan.msg_reorder_rate = rate;
  };
  const auto none = [](RuntimeOptions&) {};
  const RuntimeSurface kGraph = RuntimeSurface::kGraph;
  const RuntimeSurface kWalks = RuntimeSurface::kWalks;
  const std::vector<Row> rows = {
      // Valid: the defaults, and what the benches and perfbench build.
      {"defaults", kGraph, none, nullptr},
      {"walk defaults", kWalks, none, nullptr},
      {"perfbench cluster", kGraph,
       [](RuntimeOptions& o) {
         o.num_workers = 4;
         o.threads_per_worker = 4;
         o.host_threads = 4;
       },
       nullptr},
      {"perfbench async", kGraph,
       [](RuntimeOptions& o) {
         o.threads_per_worker = 4;
         o.execution_mode = ExecutionMode::kAsync;
       },
       nullptr},
      {"perfbench faulty walks", kWalks,
       [&](RuntimeOptions& o) {
         o.threads_per_worker = 4;
         message_faults(o, 0.01);
       },
       nullptr},
      {"async under message faults", kGraph,
       [&](RuntimeOptions& o) {
         o.execution_mode = ExecutionMode::kAsync;
         message_faults(o, 0.05);
       },
       nullptr},
      {"fault_recovery storm", kGraph,
       [&](RuntimeOptions& o) {
         message_faults(o, 0.2);
         o.fault_plan.checkpoint_interval = 4;
         crash(o, 0);
         crash(o, 3);
       },
       nullptr},
      {"exhausted retry budget", kGraph,
       [](RuntimeOptions& o) {
         o.fault_plan.msg_drop_rate = 0.7;
         o.fault_plan.max_retries = 0;
       },
       nullptr},
      {"64 workers", kGraph, [](RuntimeOptions& o) { o.num_workers = 64; },
       nullptr},
      // One row per rule.
      {"no workers", kGraph, [](RuntimeOptions& o) { o.num_workers = 0; },
       "num_workers"},
      {"65 workers", kGraph, [](RuntimeOptions& o) { o.num_workers = 65; },
       "num_workers"},
      {"100 walk workers", kWalks,
       [](RuntimeOptions& o) { o.num_workers = 100; }, "num_workers"},
      {"no shards", kGraph,
       [](RuntimeOptions& o) { o.threads_per_worker = 0; },
       "threads_per_worker"},
      {"no walk shards", kWalks,
       [](RuntimeOptions& o) { o.threads_per_worker = 0; },
       "threads_per_worker"},
      {"negative host threads", kGraph,
       [](RuntimeOptions& o) { o.host_threads = -1; }, "host_threads"},
      {"certain drops", kGraph,
       [](RuntimeOptions& o) { o.fault_plan.msg_drop_rate = 1.0; },
       "msg_drop_rate"},
      {"negative drops", kWalks,
       [](RuntimeOptions& o) { o.fault_plan.msg_drop_rate = -0.1; },
       "msg_drop_rate"},
      {"dup rate 1.5", kGraph,
       [](RuntimeOptions& o) { o.fault_plan.msg_dup_rate = 1.5; },
       "msg_dup_rate"},
      {"NaN reorders", kGraph,
       [](RuntimeOptions& o) { o.fault_plan.msg_reorder_rate = std::nan(""); },
       "msg_reorder_rate"},
      {"negative retries", kGraph,
       [](RuntimeOptions& o) { o.fault_plan.max_retries = -1; },
       "max_retries"},
      {"crash past the last worker", kGraph,
       [&](RuntimeOptions& o) { crash(o, 4); }, "worker_crash_schedule"},
      {"crash of worker -1", kGraph, [&](RuntimeOptions& o) { crash(o, -1); },
       "worker_crash_schedule"},
      {"async crash", kGraph,
       [&](RuntimeOptions& o) {
         o.execution_mode = ExecutionMode::kAsync;
         crash(o, 1);
       },
       "execution_mode"},
      {"async checkpoints", kGraph,
       [](RuntimeOptions& o) {
         o.execution_mode = ExecutionMode::kAsync;
         o.fault_plan.checkpoint_interval = 2;
       },
       "execution_mode"},
      {"walk crash", kWalks, [&](RuntimeOptions& o) { crash(o, 1); },
       "worker_crash_schedule"},
      {"walk checkpoints", kWalks,
       [](RuntimeOptions& o) { o.fault_plan.checkpoint_interval = 2; },
       "checkpoint_interval"},
  };
  for (const Row& row : rows) {
    RuntimeOptions options;
    row.edit(options);
    const Status status = CheckRuntimeOptions(options, row.surface);
    if (row.field == nullptr) {
      EXPECT_TRUE(status.ok()) << row.name << ": " << status.ToString();
      continue;
    }
    EXPECT_TRUE(status.IsInvalidArgument()) << row.name;
    EXPECT_NE(status.message().find(row.field), std::string::npos)
        << row.name << ": " << status.message();
  }
}

}  // namespace
}  // namespace flash
