// Tests for the coalesced wire format (common/serialize.h WireBatch codec)
// and its engine integration: round-trip fidelity over arbitrary id sets,
// graceful rejection of corrupt frames, the serialize-once commit invariant,
// pooled-buffer trimming, and bit-identical traffic at every host thread
// count. The codec is the only grammar on the simulated wire — sparse
// round-1 messages, mirror sync, and the checkpoint redo log all speak it —
// so these properties gate every communication path.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/algorithms.h"
#include "common/fields.h"
#include "common/hash.h"
#include "common/serialize.h"
#include "core/api.h"
#include "flashware/checkpoint.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "obs/registry.h"

namespace flash {
namespace {

// ---------------------------------------------------------------------------
// Codec round-trip properties.

std::vector<uint8_t> PayloadFor(const std::vector<WireId>& ids) {
  std::vector<uint8_t> payload;
  payload.reserve(ids.size() * 4);
  for (WireId id : ids) {
    for (int b = 0; b < 4; ++b) {
      payload.push_back(static_cast<uint8_t>((id >> (8 * b)) ^ (0xA5u + b)));
    }
  }
  return payload;
}

// Vertex bound admitting every 32-bit id.
constexpr uint64_t kFullIdRange = uint64_t{1} << 32;

// Encodes ids (+ synthetic 4-byte payloads) as one frame, decodes it, and
// asserts ids, mask, and payload bytes survive exactly.
void RoundTrip(const std::vector<WireId>& ids, uint32_t mask,
               bool expect_sorted) {
  const std::vector<uint8_t> payload = PayloadFor(ids);
  BufferWriter out;
  WireFramePart part{ids.data(), ids.size(), payload.data(), payload.size()};
  const uint64_t count = EncodeWireFrame(out, mask, &part, 1);
  ASSERT_EQ(count, ids.size());
  if (ids.empty()) {
    EXPECT_EQ(out.size(), 0u) << "empty frames must cost zero bytes";
    return;
  }

  EXPECT_EQ((out.bytes()[0] & 1) != 0, expect_sorted);
  BufferReader reader(out.bytes());
  std::vector<WireId> decoded;
  ASSERT_TRUE(ReadWireFrame(reader, mask, kFullIdRange, &decoded).ok());
  EXPECT_EQ(decoded, ids);
  ASSERT_EQ(reader.remaining(), payload.size());
  for (size_t i = 0; i < payload.size(); ++i) {
    EXPECT_EQ(reader.ReadPod<uint8_t>(), payload[i]) << "payload byte " << i;
  }
  EXPECT_TRUE(reader.AtEnd());
}

TEST(WireFrame, RoundTripEdgeCases) {
  RoundTrip({}, 0x1, true);
  RoundTrip({0}, 0x1, true);
  RoundTrip({0xFFFFFFFFu}, 0x3, true);
  RoundTrip({0, 0xFFFFFFFFu}, 0x7, true);             // Max sorted delta.
  RoundTrip({0xFFFFFFFFu, 0}, 0x7, false);            // Max negative delta.
  RoundTrip({5, 5, 5, 5}, 0xFFF, true);               // Duplicates, delta 0.
  RoundTrip({3, 1, 4, 1, 5, 9, 2, 6}, 0x1, false);    // Zigzag path.
}

TEST(WireFrame, RoundTripRandomIdSets) {
  std::mt19937 rng(20260806);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = 1 + rng() % 300;
    std::uniform_int_distribution<uint32_t> dist(
        0, trial % 2 ? 0xFFFFFFFFu : 4096u);  // Wide and dense id spaces.
    std::vector<WireId> ids(n);
    for (auto& id : ids) id = dist(rng);
    const bool sort = trial % 3 == 0;
    if (sort) std::sort(ids.begin(), ids.end());
    const bool is_sorted = std::is_sorted(ids.begin(), ids.end());
    RoundTrip(ids, rng() % 0xFFF, is_sorted);
  }
}

// Per-shard lanes merge into one frame via multiple parts; the bytes must be
// identical to encoding the concatenated id/payload sequence as one part.
TEST(WireFrame, MultiPartMergeMatchesSinglePart) {
  std::mt19937 rng(7);
  std::vector<WireId> all(200);
  for (auto& id : all) id = rng() % 100000;
  const std::vector<uint8_t> payload = PayloadFor(all);

  BufferWriter single;
  WireFramePart whole{all.data(), all.size(), payload.data(), payload.size()};
  EncodeWireFrame(single, 0x5, &whole, 1);

  BufferWriter multi;
  WireFramePart parts[3] = {
      {all.data(), 80, payload.data(), 80 * 4},
      {all.data() + 80, 0, nullptr, 0},  // Empty shard lane.
      {all.data() + 80, 120, payload.data() + 80 * 4, 120 * 4},
  };
  EXPECT_EQ(EncodeWireFrame(multi, 0x5, parts, 3), all.size());
  EXPECT_EQ(multi.bytes(), single.bytes());
}

// ---------------------------------------------------------------------------
// Corrupt and truncated input must come back as Status, never a crash.

TEST(WireFrame, TruncationAtEveryPrefixIsRejected) {
  std::mt19937 rng(99);
  std::vector<WireId> ids(50);
  for (auto& id : ids) id = rng();  // Multi-byte zigzag deltas.
  const std::vector<uint8_t> payload = PayloadFor(ids);
  BufferWriter out;
  WireFramePart part{ids.data(), ids.size(), payload.data(), payload.size()};
  EncodeWireFrame(out, 0x3, &part, 1);
  const size_t ids_end = out.size() - payload.size();

  for (size_t len = 0; len < ids_end; ++len) {
    BufferReader reader(out.bytes().data(), len);
    std::vector<WireId> decoded;
    EXPECT_FALSE(ReadWireFrame(reader, 0x3, kFullIdRange, &decoded).ok())
        << "prefix " << len << " of " << ids_end;
  }
}

// Builds a raw frame image: header varints, then `columns` varints verbatim.
std::vector<uint8_t> RawFrame(uint64_t header, uint64_t mask,
                              const std::vector<uint64_t>& columns) {
  BufferWriter w;
  w.WriteVarint(header);
  w.WriteVarint(mask);
  for (uint64_t v : columns) w.WriteVarint(v);
  return w.Release();
}

Status ReadRaw(const std::vector<uint8_t>& bytes, uint32_t expected_mask,
               uint64_t num_vertices) {
  BufferReader r(bytes);
  std::vector<WireId> ids;
  return ReadWireFrame(r, expected_mask, num_vertices, &ids);
}

TEST(WireFrame, CorruptHeadersAreRejected) {
  // Record count far beyond the buffer.
  EXPECT_FALSE(
      ReadRaw(RawFrame((uint64_t{1} << 40) << 1 | 1, 1, {}), 1, kFullIdRange)
          .ok());
  // Empty frames are never emitted.
  EXPECT_FALSE(ReadRaw(RawFrame(0 << 1 | 1, 1, {0}), 1, kFullIdRange).ok());
  // Field mask wider than 32 bits, and a mask other than the expected one.
  EXPECT_FALSE(ReadRaw(RawFrame(uint64_t{2} << 1 | 1, uint64_t{1} << 33,
                                {1, 1}),
                       1, kFullIdRange)
                   .ok());
  EXPECT_TRUE(ReadRaw(RawFrame(uint64_t{1} << 1 | 1, 0x2, {1}), 0x3,
                      kFullIdRange)
                  .IsInvalidArgument());
  // Delta that would overflow the running id.
  EXPECT_FALSE(ReadRaw(RawFrame(uint64_t{2} << 1 | 1, 1,
                                {0, (uint64_t{0xFFFFFFFFu} << 2) + 1}),
                       1, kFullIdRange)
                   .ok());
  // Ids walking past the VertexId range.
  EXPECT_FALSE(ReadRaw(RawFrame(uint64_t{2} << 1 | 1, 1, {0xFFFFFFFFu, 1}),
                       1, kFullIdRange)
                   .ok());
}

// Every frame kind is bounded by the receiver's vertex count: a first id or
// a delta reaching num_vertices is InvalidArgument, one below it decodes.
TEST(WireFrame, IdsAtOrPastVertexBoundAreRejected) {
  constexpr uint64_t kVertices = 10;
  EXPECT_TRUE(ReadRaw(RawFrame(uint64_t{1} << 1 | 1, 1, {9}), 1, kVertices)
                  .ok());
  EXPECT_TRUE(ReadRaw(RawFrame(uint64_t{1} << 1 | 1, 1, {10}), 1, kVertices)
                  .IsInvalidArgument());
  EXPECT_TRUE(ReadRaw(RawFrame(uint64_t{2} << 1 | 1, 1, {4, 6}), 1, kVertices)
                  .IsInvalidArgument());
  EXPECT_TRUE(ReadRaw(RawFrame(uint64_t{2} << 1 | 0, 1,
                               {4, ZigZagEncode64(-5)}),
                      1, kVertices)
                  .IsInvalidArgument());
}

// A multi-mask stream (the redo log) accepts any subset of the expected
// mask — mask 0 included, the mirror frames of an empty critical set — and
// reports the frame's own mask.
TEST(WireFrame, FrameMaskOutAcceptsSubsetsOnly) {
  for (uint32_t mask : {0x0u, 0x1u, 0x4u, 0x5u}) {
    const std::vector<uint8_t> bytes = RawFrame(uint64_t{1} << 1 | 1, mask, {3});
    BufferReader r(bytes);
    std::vector<WireId> ids;
    uint32_t seen = 0;
    ASSERT_TRUE(ReadWireFrame(r, 0x5, kFullIdRange, &ids, &seen).ok());
    EXPECT_EQ(seen, mask);
  }
  for (uint32_t mask : {0x2u, 0x7u, 0x8u}) {
    const std::vector<uint8_t> bytes = RawFrame(uint64_t{1} << 1 | 1, mask, {3});
    BufferReader r(bytes);
    std::vector<WireId> ids;
    uint32_t seen = 0;
    EXPECT_FALSE(ReadWireFrame(r, 0x5, kFullIdRange, &ids, &seen).ok())
        << "mask " << mask;
  }
}

// ---------------------------------------------------------------------------
// Golden bytes: walker frames and FLSHBLK2 adjacency lists are built on the
// shared frame codec and id column, and must stay byte-identical to the
// images these vectors were captured from (existing block files reopen, and
// walks.frame_bytes is unchanged).

TEST(WireFrame, WalkerFrameAndAdjacencyBytesMatchGoldenVectors) {
  const std::vector<WalkerRecord> records = {
      {3, 7, WalkerRecord::kNoPrev}, {3, 9, 2}, {40, 1000, 39}, {300, 5, 0}};
  const WalkerRecord single{17, 123456, WalkerRecord::kNoPrev};
  BufferWriter walker;
  WalkerFrameScratch scratch;
  EncodeWalkerFrame(walker, records.data(), records.size(), scratch);
  EncodeWalkerFrame(walker, &single, 1, scratch);
  const std::vector<uint8_t> walker_golden = {
      0x12, 0x70, 0x8E, 0x36, 0x30, 0xFB, 0xC9, 0x9A, 0xFB, 0x09, 0xCB, 0xAE,
      0x01, 0x03, 0x00, 0x25, 0x84, 0x02, 0x07, 0x00, 0x09, 0x03, 0xE8, 0x07,
      0x28, 0x05, 0x01, 0x09, 0xD9, 0xCE, 0x9B, 0xAE, 0x5C, 0x4E, 0xDB, 0xDF,
      0x03, 0xCB, 0xAE, 0x01, 0x11, 0xC0, 0xC4, 0x07, 0x00};
  EXPECT_EQ(walker.bytes(), walker_golden);

  const std::vector<WireId> sorted = {2, 2, 5, 130, 20000};
  const std::vector<WireId> unsorted = {40, 3, 17, 17, 0, 46};
  const std::vector<WireId> one = {9};
  BufferWriter adjacency;
  EncodeAdjacency(adjacency, sorted.data(), sorted.size());
  EncodeAdjacency(adjacency, unsorted.data(), unsorted.size());
  EncodeAdjacency(adjacency, one.data(), one.size());
  const std::vector<uint8_t> adjacency_golden = {
      0x05, 0x00, 0x03, 0x7D, 0x9E, 0x9B, 0x01, 0x50,
      0x49, 0x1C, 0x00, 0x21, 0x5C, 0x13};
  EXPECT_EQ(adjacency.bytes(), adjacency_golden);
}

// ---------------------------------------------------------------------------
// Batching must beat the per-message format it replaced.

TEST(WireFrame, SortedBatchSmallerThanPerMessageEncoding) {
  std::vector<WireId> ids(1000);
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<WireId>(i * 3);
  const std::vector<uint8_t> payload = PayloadFor(ids);

  BufferWriter batched;
  WireFramePart part{ids.data(), ids.size(), payload.data(), payload.size()};
  EncodeWireFrame(batched, 0x1, &part, 1);

  // The pre-batch wire cost: every record carried its own absolute varint id
  // (and, per channel, its own field mask — ignored here, in its favour).
  size_t old_bytes = 0;
  for (WireId id : ids) {
    BufferWriter one;
    one.WriteVarint(id);
    old_bytes += one.size() + 4;
  }
  EXPECT_LT(batched.size(), old_bytes);
}

// ---------------------------------------------------------------------------
// Engine integration: determinism across host thread counts.

RuntimeOptions SweepOpts(int host_threads) {
  RuntimeOptions options;
  options.num_workers = 4;
  options.threads_per_worker = 4;
  options.host_threads = host_threads;
  return options;
}

GraphPtr SweepGraph() {
  static GraphPtr graph =
      GenerateErdosRenyi(500, 4000, /*symmetrize=*/true, /*seed=*/31).value();
  return graph;
}

std::vector<std::pair<uint64_t, uint64_t>> TrafficTrace(const Metrics& m) {
  std::vector<std::pair<uint64_t, uint64_t>> trace;
  trace.reserve(m.steps.size());
  for (const StepSample& s : m.steps) {
    trace.emplace_back(s.bytes_total, s.msgs_total);
  }
  return trace;
}

// Receive-side decode shards by host capacity, so the per-superstep byte and
// message sequence must be identical at host_threads 4/8/16 (16 = one thread
// per (worker, shard) task) and equal to the inline host_threads = 1 run's.
TEST(WireFormatEngine, TrafficBitIdenticalAcrossHostThreads) {
  auto ref = algo::RunBfs(SweepGraph(), 0, SweepOpts(1));
  const auto ref_trace = TrafficTrace(ref.metrics);
  ASSERT_FALSE(ref_trace.empty());
  for (int host_threads : {4, 8, 16}) {
    auto run = algo::RunBfs(SweepGraph(), 0, SweepOpts(host_threads));
    EXPECT_EQ(run.distance, ref.distance) << "host_threads=" << host_threads;
    EXPECT_EQ(TrafficTrace(run.metrics), ref_trace)
        << "host_threads=" << host_threads;
    EXPECT_EQ(run.metrics.masters_committed, ref.metrics.masters_committed);
  }
}

TEST(WireFormatEngine, PageRankBitIdenticalAcrossHostThreads) {
  auto ref = algo::RunPageRank(SweepGraph(), 10, SweepOpts(1));
  const auto ref_trace = TrafficTrace(ref.metrics);
  for (int host_threads : {4, 8, 16}) {
    auto run = algo::RunPageRank(SweepGraph(), 10, SweepOpts(host_threads));
    EXPECT_EQ(run.rank, ref.rank) << "host_threads=" << host_threads;
    EXPECT_EQ(TrafficTrace(run.metrics), ref_trace)
        << "host_threads=" << host_threads;
  }
}

// ---------------------------------------------------------------------------
// Serialize-once fan-out: one field encode per committed master.

struct WireData {
  uint32_t value = 0;
  FLASH_FIELDS(value)
};

// Counts SerializeFields calls for the duration of one scope.
class ScopedEncodeCounter {
 public:
  ScopedEncodeCounter() { SetFieldEncodeCounter(&count_); }
  ~ScopedEncodeCounter() { SetFieldEncodeCounter(nullptr); }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> count_{0};
};

// k VertexMap rounds over all V masters, broadcasting every commit to the
// other workers: the wire demands nw-1 copies of each value, but each master
// must be serialised exactly once per round (the fan-out reuses the bytes).
TEST(WireFormatEngine, OneEncodePerCommittedMaster) {
  const int kRounds = 5;
  RuntimeOptions options;
  options.num_workers = 4;
  // Broadcast mode: every commit has destinations, so every committed
  // master must be encoded (necessary-mirrors mode legitimately skips the
  // encode for mirrorless masters).
  options.necessary_mirrors_only = false;

  GraphApi<WireData> fl(SweepGraph(), options);
  ScopedEncodeCounter encodes;
  for (int round = 0; round < kRounds; ++round) {
    fl.VertexMap(fl.V(), CTrue, [](WireData& v) { v.value += 1; });
  }
  const uint64_t expected =
      uint64_t{kRounds} * SweepGraph()->NumVertices();
  EXPECT_EQ(fl.metrics().masters_committed, expected);
  EXPECT_EQ(encodes.count(), expected)
      << "commit fan-out must serialise each master exactly once";
}

// With checkpointing enabled the redo log must reuse the commit encoding,
// not re-serialise: the only extra encodes are the snapshot images (every
// worker's store covers the full vertex array, so workers x V per
// checkpoint).
TEST(WireFormatEngine, CheckpointLoggingDoesNotDoubleSerialize) {
  const uint32_t kVertices = 200;
  GraphBuilder builder(kVertices);
  GraphPtr graph = builder.Build().value();

  const int kRounds = 6;
  RuntimeOptions options;
  options.num_workers = 4;
  options.necessary_mirrors_only = false;
  options.fault_plan.checkpoint_interval = 2;

  GraphApi<WireData> fl(graph, options);
  ScopedEncodeCounter encodes;
  for (int round = 0; round < kRounds; ++round) {
    fl.VertexMap(fl.V(), CTrue, [](WireData& v) { v.value += 3; });
  }
  const uint64_t committed = fl.metrics().masters_committed;
  EXPECT_EQ(committed, uint64_t{kRounds} * kVertices);
  const uint64_t snapshots = fl.metrics().fault.checkpoints;
  ASSERT_GT(snapshots, 0u);
  EXPECT_EQ(encodes.count(),
            committed + snapshots * options.num_workers * kVertices)
      << "redo-log appends must reuse the commit encoding";
}

// ---------------------------------------------------------------------------
// Mirror-sync golden digests: every mirror frame the barrier delivers, and
// every byte of each worker's redo log, after every primitive of three
// programs — all fields (PageRank), a mixed-width struct synced under a
// non-prefix mask, and a variable-width one (triangle counting).

// FNV-1a over the mirror frames of each Incoming(dst, src) channel and,
// separately, over each worker's redo log, folded after every primitive.
// Sizes are folded too, so empty and missing buffers stay distinct.
struct SyncDigests {
  uint64_t frames = Fnv1a64(nullptr, 0);
  uint64_t log = Fnv1a64(nullptr, 0);

  static uint64_t Fold(uint64_t h, const std::vector<uint8_t>& bytes) {
    const uint64_t size = bytes.size();
    h = Fnv1a64(&size, sizeof(size), h);
    return bytes.empty() ? h : Fnv1a64(bytes.data(), bytes.size(), h);
  }

  template <typename VData>
  void Step(const GraphApi<VData>& fl) {
    const int m = fl.options().num_workers;
    for (int dst = 0; dst < m; ++dst) {
      for (int src = 0; src < m; ++src) {
        frames = Fold(frames, fl.bus().Incoming(dst, src));
      }
    }
    if (const CheckpointManager* ckpt = fl.checkpoints()) {
      for (int w = 0; w < m; ++w) log = Fold(log, ckpt->log(w).bytes());
    }
  }
};

struct GoldenRank {
  double rank = 0;
  double acc = 0;
  FLASH_FIELDS(rank, acc)
};

// 4-byte, 8-byte and 1-byte fields; the mirrors get fields 0 and 2 only,
// and `weight` changes on the master alone, so a commit that shipped the
// wrong bytes for the non-prefix mask changes the frames.
struct GoldenMixed {
  int32_t level = -1;
  double weight = 0;
  uint8_t flag = 0;
  FLASH_FIELDS(level, weight, flag)
};

struct GoldenTriangles {
  uint64_t count = 0;
  std::vector<VertexId> out;
  FLASH_FIELDS(count, out)
};

void GoldenPageRank(GraphApi<GoldenRank>& fl, SyncDigests& d) {
  const double n = fl.NumVertices();
  fl.VertexMap(fl.V(), CTrue, [&](GoldenRank& v) { v.rank = 1.0 / n; });
  d.Step(fl);
  for (int iter = 0; iter < 4; ++iter) {
    fl.VertexMap(fl.V(), CTrue, [](GoldenRank& v) { v.acc = 0; });
    d.Step(fl);
    fl.EdgeMapDense(
        fl.V(), fl.E(), CTrue,
        [&](const GoldenRank& s, GoldenRank& t, VertexId sid, VertexId) {
          t.acc += s.rank / fl.OutDeg(sid);
        },
        CTrue);
    d.Step(fl);
    fl.VertexMap(fl.V(), CTrue, [&](GoldenRank& v) {
      v.rank = 0.15 / n + 0.85 * v.acc;
    });
    d.Step(fl);
  }
}

void GoldenMixedBfs(GraphApi<GoldenMixed>& fl, SyncDigests& d) {
  fl.SetCriticalFields({0, 2});
  fl.VertexMap(fl.V(), CTrue, [](GoldenMixed& v, VertexId id) {
    v.weight = id * 0.25;
    v.flag = static_cast<uint8_t>(id % 3);
  });
  d.Step(fl);
  VertexSubset frontier = fl.VertexMap(fl.Single(0), CTrue, [](GoldenMixed& v) {
    v.level = 0;
    v.flag = 0x40;
  });
  d.Step(fl);
  while (fl.Size(frontier) != 0) {
    frontier = fl.EdgeMap(
        frontier, fl.E(), CTrue,
        [](const GoldenMixed& s, GoldenMixed& t) {
          t.level = s.level + 1;
          t.flag = static_cast<uint8_t>(t.flag | (s.flag >> 1));
        },
        [](const GoldenMixed& t) { return t.level < 0; },
        [](const GoldenMixed& u, GoldenMixed& t) {
          t.level = u.level;
          t.flag = static_cast<uint8_t>(t.flag | u.flag);
        });
    d.Step(fl);
    fl.VertexMap(frontier, CTrue, [](GoldenMixed& v) {
      v.weight = v.weight * 2 + v.level;
      v.flag = static_cast<uint8_t>(v.flag + 1);
    });
    d.Step(fl);
  }
  fl.EdgeMapDense(
      fl.V(), fl.E(), CTrue,
      [](const GoldenMixed& s, GoldenMixed& t) {
        t.flag = std::max(t.flag, s.flag);
      },
      CTrue);
  d.Step(fl);
}

void GoldenTriangleCount(GraphApi<GoldenTriangles>& fl, SyncDigests& d) {
  auto higher = [&](const GoldenTriangles&, const GoldenTriangles&,
                    VertexId sid, VertexId did) {
    const uint32_t sd = fl.Deg(sid), dd = fl.Deg(did);
    return sd > dd || (sd == dd && sid > did);
  };
  VertexSubset all = fl.VertexMap(fl.V(), CTrue, [](GoldenTriangles& v) {
    v.count = 0;
    v.out.clear();
  });
  d.Step(fl);
  all = fl.EdgeMap(
      all, fl.E(), higher,
      [](const GoldenTriangles&, GoldenTriangles& t, VertexId sid, VertexId) {
        t.out.insert(std::lower_bound(t.out.begin(), t.out.end(), sid), sid);
      },
      CTrue,
      [](const GoldenTriangles& u, GoldenTriangles& t) {
        std::vector<VertexId> merged;
        std::set_union(u.out.begin(), u.out.end(), t.out.begin(), t.out.end(),
                       std::back_inserter(merged));
        t.out = std::move(merged);
      });
  d.Step(fl);
  fl.EdgeMap(
      all, fl.E(),
      [](const GoldenTriangles&, const GoldenTriangles&, VertexId sid,
         VertexId did) { return sid < did; },
      [](const GoldenTriangles& s, GoldenTriangles& t) {
        std::vector<VertexId> common;
        std::set_intersection(s.out.begin(), s.out.end(), t.out.begin(),
                              t.out.end(), std::back_inserter(common));
        t.count += common.size();
      },
      CTrue,
      [](const GoldenTriangles& u, GoldenTriangles& t) { t.count += u.count; });
  d.Step(fl);
}

template <typename VData>
SyncDigests DigestRun(void (*program)(GraphApi<VData>&, SyncDigests&),
                      bool broadcast, bool checkpoint, int host_threads) {
  RuntimeOptions options = SweepOpts(host_threads);
  options.necessary_mirrors_only = !broadcast;
  if (checkpoint) options.fault_plan.checkpoint_interval = 3;
  GraphApi<VData> fl(SweepGraph(), options);
  SyncDigests digests;
  program(fl, digests);
  return digests;
}

// One row per (program, broadcast): the frame digest, which must not depend
// on the checkpoint plan, and the redo-log digest under the plan.
struct SyncGoldenRow {
  const char* program;
  bool broadcast;
  uint64_t frames;
  uint64_t log;
};

constexpr SyncGoldenRow kSyncGolden[] = {
    {"pagerank", false, 0xf7cd81a7cec2e9c4ull, 0x8d87bb11357cbe99ull},
    {"pagerank", true, 0x7cdedcb036f3b1c3ull, 0xb601bbcbe07ed42dull},
    {"mixed", false, 0xcc19e24fba50441eull, 0x0bd629a68c49378aull},
    {"mixed", true, 0x736aedd45cfaf91eull, 0x93b9f50c4ce4f55full},
    {"triangles", false, 0x169356f9e4f4d638ull, 0x394237efbcb91633ull},
    {"triangles", true, 0xcf727e903f70620eull, 0x5f056b390f04bb13ull},
};

template <typename VData>
void CheckSyncGolden(void (*program)(GraphApi<VData>&, SyncDigests&),
                     const SyncGoldenRow& row) {
  const SyncDigests empty;
  for (int host_threads : {1, 4}) {
    const SyncDigests plain =
        DigestRun(program, row.broadcast, /*checkpoint=*/false, host_threads);
    const SyncDigests logged =
        DigestRun(program, row.broadcast, /*checkpoint=*/true, host_threads);
    const std::string where = std::string(row.program) +
                              " broadcast=" + std::to_string(row.broadcast) +
                              " host_threads=" + std::to_string(host_threads);
    EXPECT_EQ(plain.log, empty.log) << where;
    EXPECT_EQ(plain.frames, row.frames)
        << where << std::hex << " row: {\"" << row.program << "\", "
        << row.broadcast << ", 0x" << plain.frames << "ull, 0x" << logged.log
        << "ull}";
    EXPECT_EQ(logged.frames, row.frames) << where << " (checkpointed)";
    EXPECT_EQ(logged.log, row.log) << where;
  }
}

TEST(MirrorSyncGolden, FramesAndRedoLogsAreByteStable) {
  CheckSyncGolden<GoldenRank>(&GoldenPageRank, kSyncGolden[0]);
  CheckSyncGolden<GoldenRank>(&GoldenPageRank, kSyncGolden[1]);
  CheckSyncGolden<GoldenMixed>(&GoldenMixedBfs, kSyncGolden[2]);
  CheckSyncGolden<GoldenMixed>(&GoldenMixedBfs, kSyncGolden[3]);
  CheckSyncGolden<GoldenTriangles>(&GoldenTriangleCount, kSyncGolden[4]);
  CheckSyncGolden<GoldenTriangles>(&GoldenTriangleCount, kSyncGolden[5]);
}

// ---------------------------------------------------------------------------
// Pooled buffers: peak is observed, capacity decays after a traffic spike.

// 32-byte records: a spike superstep pushes every channel past the 4 KiB
// retain threshold, so the decay/trim policy has something to release.
struct FatData {
  uint64_t a = 0, b = 0, c = 0, d = 0;
  FLASH_FIELDS(a, b, c, d)
};

TEST(WireFormatEngine, PoolTrimsAfterTrafficSpike) {
  RuntimeOptions options;
  options.num_workers = 4;
  options.necessary_mirrors_only = false;  // Broadcast => fat channels.

  GraphPtr graph =
      GenerateErdosRenyi(4000, 8000, /*symmetrize=*/true, /*seed=*/5).value();
  GraphApi<FatData> fl(graph, options);
  // Spike: every master broadcast to three destinations (~32 KiB/channel).
  fl.VertexMap(fl.V(), CTrue, [](FatData& v) { v.a = 1; });
  // Then a long quiet tail: one-vertex supersteps let the high-water marks
  // decay (hw -= hw/4 per phase) until the trim threshold releases the
  // spike-sized allocations.
  for (int i = 0; i < 40; ++i) {
    fl.VertexMap(fl.Single(0), CTrue, [](FatData& v) { v.a += 1; });
  }
  const uint64_t peak = fl.metrics().wire_pool_peak_bytes;
  ASSERT_GT(peak, 0u);
  EXPECT_LT(fl.bus().PoolCapacityBytes(), peak)
      << "channel capacity should shrink well below the spike peak";
  EXPECT_GT(fl.bus().PoolPeakBytes(), fl.bus().PoolCapacityBytes())
      << "bus channels should have released spike capacity";
}

// ---------------------------------------------------------------------------
// Observability: the new counters surface in the registry.

TEST(WireFormatEngine, RegistryExportsWireCounters) {
  RuntimeOptions options;
  options.num_workers = 4;
  auto run = algo::RunBfs(SweepGraph(), 0, options);
  obs::Registry reg = obs::BuildRegistry(run.metrics, &options);

  const obs::Metric* committed = reg.Find("flash_masters_committed_total");
  ASSERT_NE(committed, nullptr);
  EXPECT_EQ(committed->type, obs::MetricType::kCounter);
  EXPECT_EQ(committed->ivalue, run.metrics.masters_committed);
  EXPECT_GT(committed->ivalue, 0u);

  const obs::Metric* pool = reg.Find("flash_wire_pool_peak_bytes");
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->type, obs::MetricType::kGauge);
  EXPECT_EQ(pool->dvalue,
            static_cast<double>(run.metrics.wire_pool_peak_bytes));
  EXPECT_GT(pool->dvalue, 0.0);
}

}  // namespace
}  // namespace flash
