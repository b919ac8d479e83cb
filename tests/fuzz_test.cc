// Randomized engine-equivalence fuzzing: random sequences of FLASH
// primitives (vertex maps, push/pull edge maps, subset algebra, filtered
// and reversed edge sets) executed on random graphs must produce identical
// states and frontiers on every runtime configuration — worker counts,
// partitioners, forced propagation modes, intra-worker threads. Any
// divergence pinpoints an engine consistency bug (sync, masking, reduce
// ordering) that targeted tests might miss.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/random.h"
#include "common/serialize.h"
#include "core/api.h"
#include "core/async_engine.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/paged_storage.h"

namespace flash {
namespace {

struct FuzzData {
  uint32_t x = 0;
  uint32_t y = 0;
  FLASH_FIELDS(x, y)
};

struct Trace {
  std::vector<FuzzData> state;
  std::vector<size_t> frontier_sizes;
};

bool operator==(const FuzzData& a, const FuzzData& b) {
  return a.x == b.x && a.y == b.y;
}

/// Runs `steps` pseudo-random primitives (deterministic in `seed`) and
/// returns the final state plus every intermediate frontier size.
Trace RunProgram(const GraphPtr& graph, uint64_t seed, int steps,
                 const RuntimeOptions& options) {
  GraphApi<FuzzData> fl(graph, options);
  Rng rng(seed);
  Trace trace;
  VertexSubset frontier = fl.V();
  for (int step = 0; step < steps; ++step) {
    if (frontier.TotalSize() == 0) frontier = fl.V();
    uint32_t salt = static_cast<uint32_t>(rng.Uniform(1000));
    switch (rng.Uniform(6)) {
      case 0:  // Vertex map over a pseudo-random filter.
        frontier = fl.VertexMap(
            frontier,
            [salt](const FuzzData&, VertexId id) {
              return (id * 2654435761u + salt) % 3 != 0;
            },
            [salt](FuzzData& v, VertexId id) { v.x += id % 97 + salt; });
        break;
      case 1:  // Push: sum of source payloads at targets.
        frontier = fl.EdgeMapSparse(
            frontier, fl.E(),
            [](const FuzzData& s, const FuzzData&) { return s.x % 5 != 0; },
            [](const FuzzData& s, FuzzData& d) { d.y += s.x % 1001; },
            [](const FuzzData& d) { return d.y % 7 != 3; },
            [](const FuzzData& t, FuzzData& d) { d.y += t.y; });
        break;
      case 2:  // Pull: max of source payloads at targets.
        frontier = fl.EdgeMapDense(
            frontier, fl.E(),
            [](const FuzzData& s, const FuzzData& d) { return s.x > d.x; },
            [](const FuzzData& s, FuzzData& d) { d.x = s.x; },
            [salt](const FuzzData& d, VertexId) { return d.x % 11 != salt % 11; });
        break;
      case 3:  // Adaptive over reverse(E).
        frontier = fl.EdgeMap(
            frontier, fl.ReverseE(), CTrue,
            [](const FuzzData& s, FuzzData& d) {
              d.y = std::max(d.y, s.y + 1);
            },
            CTrue,
            [](const FuzzData& t, FuzzData& d) { d.y = std::max(d.y, t.y); });
        break;
      case 4: {  // Target-filtered edge set + subset algebra.
        VertexSubset evens = fl.VertexMap(
            fl.V(), [](const FuzzData&, VertexId id) { return id % 2 == 0; });
        VertexSubset hit = fl.EdgeMap(
            frontier, fl.Join(fl.E(), evens), CTrue,
            [](const FuzzData&, FuzzData& d) { d.x ^= 0x5A5A; }, CTrue,
            [](const FuzzData&, FuzzData& d) { d.x ^= 0x5A5A; });
        // XOR-based R is order-sensitive in general, but each target gets
        // at most... actually it may get several updates; make the merge
        // idempotent instead: union with the previous frontier.
        frontier = fl.Union(fl.Minus(frontier, evens), hit);
        break;
      }
      default:  // Global reduction folded back into a vertex map.
        uint64_t sum = fl.Reduce<uint64_t>(
            frontier, 0,
            [](const FuzzData& v, VertexId) { return uint64_t{v.x}; },
            [](uint64_t a, uint64_t b) { return a + b; });
        uint32_t token = static_cast<uint32_t>(sum % 9973);
        frontier = fl.VertexMap(frontier, CTrue,
                                [token](FuzzData& v) { v.y ^= token; });
        break;
    }
    trace.frontier_sizes.push_back(frontier.TotalSize());
  }
  trace.state = fl.GatherMasters();
  return trace;
}

TEST(EngineFuzz, AllConfigurationsAgree) {
  std::vector<GraphPtr> graphs;
  for (uint64_t seed : {11ull, 22ull, 33ull}) {
    graphs.push_back(
        GenerateErdosRenyi(60 + 17 * seed % 50, 300, true, seed).value());
  }
  std::vector<RuntimeOptions> configs;
  for (int workers : {1, 3, 8}) {
    for (auto scheme : {PartitionScheme::kHash, PartitionScheme::kChunk}) {
      RuntimeOptions options;
      options.num_workers = workers;
      options.partition = scheme;
      configs.push_back(options);
    }
  }
  {
    RuntimeOptions threaded;
    threaded.num_workers = 2;
    threaded.threads_per_worker = 3;
    configs.push_back(threaded);
  }
  for (size_t g = 0; g < graphs.size(); ++g) {
    for (uint64_t program_seed : {1ull, 2ull, 3ull, 4ull}) {
      Trace baseline =
          RunProgram(graphs[g], program_seed, /*steps=*/12, configs[0]);
      for (size_t c = 1; c < configs.size(); ++c) {
        Trace other =
            RunProgram(graphs[g], program_seed, /*steps=*/12, configs[c]);
        ASSERT_EQ(other.frontier_sizes, baseline.frontier_sizes)
            << "graph " << g << " program " << program_seed << " config " << c;
        ASSERT_EQ(other.state.size(), baseline.state.size());
        for (VertexId v = 0; v < baseline.state.size(); ++v) {
          ASSERT_EQ(other.state[v], baseline.state[v])
              << "graph " << g << " program " << program_seed << " config "
              << c << " vertex " << v;
        }
      }
    }
  }
}

/// A pseudo-random fault plan spanning the interesting regimes: any subset
/// of {drops, dups, reorders}, occasional tight retry budgets, occasional
/// crash schedules, varying fragment sizes.
FaultPlan RandomPlan(Rng& rng, int num_workers) {
  FaultPlan plan;
  plan.seed = rng.Uniform(1u << 30) + 1;
  if (rng.Uniform(2)) plan.msg_drop_rate = 0.05 * (1 + rng.Uniform(6));
  if (rng.Uniform(2)) plan.msg_dup_rate = 0.05 * (1 + rng.Uniform(6));
  if (rng.Uniform(2)) plan.msg_reorder_rate = 0.1 * (1 + rng.Uniform(5));
  plan.fragment_bytes = 16u << rng.Uniform(5);  // 16..256.
  if (rng.Uniform(3) == 0) plan.max_retries = static_cast<int>(rng.Uniform(3));
  if (rng.Uniform(2)) {
    int crashes = 1 + static_cast<int>(rng.Uniform(3));
    for (int i = 0; i < crashes; ++i) {
      plan.worker_crash_schedule.push_back(
          {rng.Uniform(10), static_cast<int>(rng.Uniform(num_workers))});
    }
  }
  if (rng.Uniform(2)) {
    plan.checkpoint_interval = 1 + static_cast<int>(rng.Uniform(5));
  }
  return plan;
}

TEST(EngineFuzz, RandomFaultPlansPreserveSemantics) {
  // Random graphs x random runtime configs x random adversity: the faulted
  // run must be indistinguishable from the fault-free one at the semantic
  // level (identical frontier sizes every step — no lost or phantom updates
  // — and identical final state), while the fault counters replay exactly.
  Rng rng(20240806);
  for (int trial = 0; trial < 12; ++trial) {
    auto graph = GenerateErdosRenyi(50 + rng.Uniform(120), 250 + rng.Uniform(400),
                                    true, rng.Uniform(1u << 20)).value();
    RuntimeOptions options;
    options.num_workers = 2 + static_cast<int>(rng.Uniform(7));
    options.threads_per_worker = 1 + static_cast<int>(rng.Uniform(3));
    options.partition =
        rng.Uniform(2) ? PartitionScheme::kHash : PartitionScheme::kChunk;
    uint64_t program_seed = rng.Uniform(1u << 20);

    Trace baseline = RunProgram(graph, program_seed, /*steps=*/10, options);

    RuntimeOptions faulted = options;
    faulted.fault_plan = RandomPlan(rng, options.num_workers);
    if (!faulted.fault_plan.Active()) continue;  // Rarely all-zero; skip.
    Trace chaos = RunProgram(graph, program_seed, /*steps=*/10, faulted);
    ASSERT_EQ(chaos.frontier_sizes, baseline.frontier_sizes)
        << "trial " << trial << " plan " << faulted.fault_plan.ToString();
    ASSERT_EQ(chaos.state.size(), baseline.state.size());
    for (VertexId v = 0; v < baseline.state.size(); ++v) {
      ASSERT_EQ(chaos.state[v], baseline.state[v])
          << "trial " << trial << " vertex " << v << " plan "
          << faulted.fault_plan.ToString();
    }
  }
}

TEST(EngineFuzz, MetricsBytesMatchBusWireTotals) {
  // Byte conservation: for push-only programs every counted byte crosses the
  // MessageBus (dense edge maps and global reductions add modelled bitmap /
  // collective bytes outside the bus), so Metrics totals must equal the bus
  // totals exactly — with and without an adversarial wire.
  Rng rng(77);
  for (int trial = 0; trial < 8; ++trial) {
    auto graph =
        GenerateErdosRenyi(60 + rng.Uniform(80), 300, true, 3 + trial).value();
    RuntimeOptions options;
    options.num_workers = 2 + static_cast<int>(rng.Uniform(5));
    options.threads_per_worker = 1 + static_cast<int>(rng.Uniform(2));
    if (trial % 2 == 1) {
      options.fault_plan = RandomPlan(rng, options.num_workers);
      options.fault_plan.worker_crash_schedule.clear();  // Transport only.
      options.fault_plan.checkpoint_interval = 0;
    }
    GraphApi<FuzzData> fl(graph, options);
    VertexSubset frontier = fl.V();
    for (int step = 0; step < 8; ++step) {
      if (frontier.TotalSize() == 0) frontier = fl.V();
      if (step % 2 == 0) {
        frontier = fl.VertexMap(
            frontier,
            [](const FuzzData&, VertexId id) { return id % 5 != 1; },
            [step](FuzzData& v, VertexId id) { v.x += id + step; });
      } else {
        frontier = fl.EdgeMapSparse(
            frontier, fl.E(),
            [](const FuzzData& s, const FuzzData&) { return s.x % 4 != 0; },
            [](const FuzzData& s, FuzzData& d) { d.y += s.x % 501; },
            CTrue,
            [](const FuzzData& t, FuzzData& d) { d.y += t.y; });
      }
    }
    ASSERT_EQ(fl.metrics().dense_steps, 0u) << "trial " << trial;
    EXPECT_EQ(fl.metrics().bytes, fl.bus().TotalBytes()) << "trial " << trial;
    EXPECT_EQ(fl.metrics().messages, fl.bus().TotalMessages())
        << "trial " << trial;
    if (options.fault_plan.HasMessageFaults()) {
      EXPECT_TRUE(fl.metrics().fault.Any()) << "trial " << trial;
    }
  }
}

TEST(EngineFuzz, XorPushIsSelfInverseAcrossWorkers) {
  // Regression guard for the idempotence caveat in case 4: XOR'ing twice
  // through two identical EdgeMaps must restore the initial state
  // regardless of distribution.
  auto graph = GenerateErdosRenyi(40, 160, true, 5).value();
  for (int workers : {1, 4}) {
    RuntimeOptions options;
    options.num_workers = workers;
    GraphApi<FuzzData> fl(graph, options);
    fl.VertexMap(fl.V(), CTrue, [](FuzzData& v, VertexId id) { v.x = id; });
    auto snapshot = fl.GatherMasters();
    for (int round = 0; round < 2; ++round) {
      fl.EdgeMapSparse(
          fl.Single(0), fl.E(), CTrue,
          [](const FuzzData&, FuzzData& d) { d.x ^= 0xFFFF; }, CTrue,
          [](const FuzzData& t, FuzzData& d) { d = t; });
    }
    auto restored = fl.GatherMasters();
    for (VertexId v = 0; v < graph->NumVertices(); ++v) {
      ASSERT_EQ(restored[v].x, snapshot[v].x) << workers << " v" << v;
    }
  }
}

// --- Paged block-file decoder fuzzing -------------------------------------
//
// The semi-external tier hands out adjacency spans decoded from disk, so a
// malformed file must never become a wrong span or UB: every corruption has
// to surface as a Status from Open() (metadata is fully validated there) or
// from VerifyAllBlocks() (payload checksums and target ranges).

std::vector<uint8_t> MakeBlockFileImage(std::string* out_path) {
  auto graph = GenerateErdosRenyi(48, 180, /*symmetrize=*/true, 9).value();
  std::string path =
      "/tmp/flash_fuzz_blocks_" + std::to_string(::getpid()) + ".fblk";
  BlockFileOptions options;
  options.block_payload_bytes = 256;  // Many small blocks.
  Status st = SaveBlockFile(*graph, path, options);
  EXPECT_TRUE(st.ok()) << st.ToString();
  std::ifstream in(path, std::ios::binary);
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  EXPECT_FALSE(bytes.empty());
  if (out_path != nullptr) *out_path = path;
  return bytes;
}

void WriteImage(const std::string& path, const uint8_t* data, size_t size) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data), size);
}

TEST(StorageFuzz, TruncationAtEveryPrefixFailsToOpen) {
  std::string origin;
  std::vector<uint8_t> bytes = MakeBlockFileImage(&origin);
  std::remove(origin.c_str());
  const std::string path =
      "/tmp/flash_fuzz_trunc_" + std::to_string(::getpid()) + ".fblk";
  // Every proper prefix must be rejected at Open: short prefixes fail the
  // header or metadata reads, longer ones fail the checksum or the block
  // extent bounds-check against the (shrunken) file size.
  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteImage(path, bytes.data(), len);
    auto opened = PagedStorage::Open(path);
    ASSERT_FALSE(opened.ok()) << "prefix of " << len << " bytes opened";
  }
  std::remove(path.c_str());
}

TEST(StorageFuzz, EveryByteFlipIsDetected) {
  std::string origin;
  std::vector<uint8_t> bytes = MakeBlockFileImage(&origin);
  std::remove(origin.c_str());
  const std::string path =
      "/tmp/flash_fuzz_flip_" + std::to_string(::getpid()) + ".fblk";
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] ^= 0xA5;
    WriteImage(path, bytes.data(), bytes.size());
    auto opened = PagedStorage::Open(path);
    if (opened.ok()) {
      // Metadata still parsed (the flip hit a block body): the full block
      // scan must name the corruption instead.
      Status verify = (*opened)->VerifyAllBlocks();
      ASSERT_FALSE(verify.ok()) << "flip at byte " << i << " undetected";
    }
    bytes[i] ^= 0xA5;
  }
  std::remove(path.c_str());
}

// --- FLSHBLK2 delta-payload decoder fuzzing --------------------------------
//
// The v2 payload is a varint stream, so beyond flipped bytes (caught by the
// checksum above) the decoder faces *checksummed* hostile payloads: ids out
// of range, deltas that would overflow the running id, lists that stop
// short of — or run past — the stored payload. Each must come back as a
// Status from the block scan, never a wrong span, never UB.

/// Rewrites `bytes`'s header meta_checksum after metadata surgery, using
/// the same chained-FNV recipe SaveBlockFile writes and Open() rehashes.
void RehashMetadata(std::vector<uint8_t>& bytes) {
  BlockFileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  const size_t meta_bytes =
      2 * (size_t{header.num_vertices} + 1) * sizeof(EdgeId) +
      (size_t{header.num_out_blocks} + header.num_in_blocks) *
          sizeof(BlockMeta);
  header.meta_checksum = 0;
  uint64_t h = Fnv1a64(&header, sizeof(header));
  // Offsets and indices are laid out back to back, and chained FNV over a
  // concatenation equals FNV over the pieces — one call covers all four.
  h = Fnv1a64(bytes.data() + sizeof(header), meta_bytes, h);
  header.meta_checksum = h;
  std::memcpy(bytes.data(), &header, sizeof(header));
}

TEST(StorageFuzz, DeltaOutOfRangeIdWithValidChecksumIsRejected) {
  std::string origin;
  std::vector<uint8_t> bytes = MakeBlockFileImage(&origin);
  std::remove(origin.c_str());

  // Plant a one-byte list head decoding to id 63 (>= the graph's 48
  // vertices, sorted flag set) at the front of the first out-block payload,
  // then re-digest the payload so every checksum passes: only the range
  // validation inside the varint decoder can catch it.
  BlockFileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  ASSERT_LT(header.num_vertices, 64u);
  const size_t out_index = sizeof(BlockFileHeader) +
                           2 * (size_t{header.num_vertices} + 1) *
                               sizeof(EdgeId);
  BlockMeta meta{};
  for (uint32_t b = 0; b < header.num_out_blocks; ++b) {
    std::memcpy(&meta, bytes.data() + out_index + b * sizeof(BlockMeta),
                sizeof(meta));
    if (meta.stored_bytes > sizeof(BlockHeader)) break;
  }
  ASSERT_GT(meta.stored_bytes, sizeof(BlockHeader)) << "no out-block has edges";

  uint8_t* block = bytes.data() + meta.file_offset;
  block[sizeof(BlockHeader)] = 0x7F;  // varint 127 -> id 63, sorted.
  const uint64_t payload_bytes = meta.stored_bytes - sizeof(BlockHeader);
  const uint64_t checksum = Fnv1a64(block + sizeof(BlockHeader), payload_bytes);
  std::memcpy(block + offsetof(BlockHeader, payload_checksum), &checksum,
              sizeof(checksum));

  const std::string path =
      "/tmp/flash_fuzz_drange_" + std::to_string(::getpid()) + ".fblk";
  WriteImage(path, bytes.data(), bytes.size());
  auto opened = PagedStorage::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString()
                           << " (metadata was untouched)";
  Status verify = (*opened)->VerifyAllBlocks();
  ASSERT_FALSE(verify.ok());
  EXPECT_TRUE(verify.IsInvalidArgument()) << verify.ToString();
  std::remove(path.c_str());
}

TEST(StorageFuzz, DeltaTrailingPayloadBytesBehindValidChecksumsAreRejected) {
  std::string origin;
  std::vector<uint8_t> bytes = MakeBlockFileImage(&origin);
  std::remove(origin.c_str());

  // Pad the file's final block (the last in-block — nothing is stored
  // behind it, so no other extent moves) with one byte the varint lists
  // never consume, then re-digest payload AND metadata. The decoder's
  // exhaustion check is the only guard left standing.
  BlockFileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  ASSERT_GT(header.num_in_blocks, 0u);
  const size_t out_index = sizeof(BlockFileHeader) +
                           2 * (size_t{header.num_vertices} + 1) *
                               sizeof(EdgeId);
  const size_t last_pos =
      out_index + (size_t{header.num_out_blocks} + header.num_in_blocks - 1) *
                      sizeof(BlockMeta);
  BlockMeta meta{};
  std::memcpy(&meta, bytes.data() + last_pos, sizeof(meta));
  ASSERT_EQ(meta.file_offset + meta.stored_bytes, bytes.size());
  ASSERT_GT(meta.stored_bytes, sizeof(BlockHeader)) << "last block is empty";

  bytes.push_back(0x00);
  meta.stored_bytes += 1;
  std::memcpy(bytes.data() + last_pos, &meta, sizeof(meta));
  uint8_t* block = bytes.data() + meta.file_offset;
  const uint64_t checksum = Fnv1a64(block + sizeof(BlockHeader),
                                    meta.stored_bytes - sizeof(BlockHeader));
  std::memcpy(block + offsetof(BlockHeader, payload_checksum), &checksum,
              sizeof(checksum));
  RehashMetadata(bytes);

  const std::string path =
      "/tmp/flash_fuzz_dtrail_" + std::to_string(::getpid()) + ".fblk";
  WriteImage(path, bytes.data(), bytes.size());
  auto opened = PagedStorage::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Status verify = (*opened)->VerifyAllBlocks();
  ASSERT_FALSE(verify.ok());
  EXPECT_TRUE(verify.IsInvalidArgument()) << verify.ToString();
  std::remove(path.c_str());
}

// Headers of the retired formats — the version-1 magic and version with
// its zero codec slot, and a version-2 header naming codec 0 — carry a
// valid metadata checksum, so only the format checks can refuse them.
// Open must return InvalidArgument, never abort.
TEST(StorageFuzz, RetiredFormatsAreRejectedAtOpen) {
  std::string origin;
  const std::vector<uint8_t> image = MakeBlockFileImage(&origin);
  std::remove(origin.c_str());
  const std::string path =
      "/tmp/flash_fuzz_retired_" + std::to_string(::getpid()) + ".fblk";
  for (const bool version1 : {true, false}) {
    std::vector<uint8_t> bytes = image;
    BlockFileHeader header;
    std::memcpy(&header, bytes.data(), sizeof(header));
    if (version1) {
      header.magic[7] = '1';
      header.version = 1;
    }
    header.codec = 0;
    std::memcpy(bytes.data(), &header, sizeof(header));
    RehashMetadata(bytes);
    WriteImage(path, bytes.data(), bytes.size());
    auto opened = PagedStorage::Open(path);
    ASSERT_FALSE(opened.ok()) << "version1=" << version1;
    EXPECT_TRUE(opened.status().IsInvalidArgument())
        << opened.status().ToString();
  }
  std::remove(path.c_str());
}

// Direct adversarial input to the adjacency codec itself (the unit under
// all of the above): truncations, garbage, and range escapes must surface
// as Status without ever writing an out-of-range id.

constexpr uint64_t kAdjFuzzVertices = 48;

TEST(AdjacencyCodecFuzz, RoundTripSortedAndUnsorted) {
  const std::vector<std::vector<WireId>> lists = {
      {0},
      {5, 5, 9, 12, 47},          // Sorted, with a repeat.
      {40, 3, 17, 17, 2, 46, 0},  // Unsorted: zigzag fallback.
      {47, 0, 47, 0},
  };
  for (const auto& ids : lists) {
    BufferWriter out;
    EncodeAdjacency(out, ids.data(), ids.size());
    BufferReader reader(out.bytes().data(), out.size());
    std::vector<WireId> decoded(ids.size());
    Status st = DecodeAdjacency(reader, decoded.size(), kAdjFuzzVertices,
                                decoded.data());
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_TRUE(reader.AtEnd());
    EXPECT_EQ(decoded, ids);
  }
}

TEST(AdjacencyCodecFuzz, TruncationAtEveryPrefixIsRejected) {
  std::vector<WireId> ids;
  for (WireId i = 0; i < 20; ++i) ids.push_back((i * 7) % kAdjFuzzVertices);
  BufferWriter out;
  EncodeAdjacency(out, ids.data(), ids.size());
  for (size_t len = 0; len < out.size(); ++len) {
    BufferReader reader(out.bytes().data(), len);
    std::vector<WireId> decoded(ids.size());
    Status st =
        DecodeAdjacency(reader, decoded.size(), kAdjFuzzVertices,
                        decoded.data());
    ASSERT_FALSE(st.ok()) << "prefix of " << len << " bytes decoded";
  }
}

TEST(AdjacencyCodecFuzz, RangeEscapesAreRejected) {
  std::vector<WireId> decoded(4, 0);
  {
    // Head id past the graph.
    BufferWriter out;
    out.WriteVarint(kAdjFuzzVertices << 1 | 1);
    BufferReader reader(out.bytes().data(), out.size());
    Status st = DecodeAdjacency(reader, 1, kAdjFuzzVertices, decoded.data());
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  }
  {
    // Plain delta walking past the last vertex.
    BufferWriter out;
    out.WriteVarint((kAdjFuzzVertices - 1) << 1 | 1);
    out.WriteVarint(1);
    BufferReader reader(out.bytes().data(), out.size());
    Status st = DecodeAdjacency(reader, 2, kAdjFuzzVertices, decoded.data());
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  }
  {
    // Zigzag delta stepping below vertex 0.
    BufferWriter out;
    out.WriteVarint(0 << 1 | 0);
    out.WriteVarint(ZigZagEncode64(-1));
    BufferReader reader(out.bytes().data(), out.size());
    Status st = DecodeAdjacency(reader, 2, kAdjFuzzVertices, decoded.data());
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  }
  {
    // A delta too wide for any pair of 32-bit ids: rejected before the add
    // so corrupt input cannot overflow the running id.
    BufferWriter out;
    out.WriteVarint(0 << 1 | 1);
    out.WriteVarint((static_cast<uint64_t>(UINT32_MAX) << 2) + 1);
    BufferReader reader(out.bytes().data(), out.size());
    Status st = DecodeAdjacency(reader, 2, kAdjFuzzVertices, decoded.data());
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  }
}

TEST(AdjacencyCodecFuzz, RandomGarbageNeverCrashesOrEmitsBadIds) {
  Rng rng(20260808);
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t count = 1 + rng.Uniform(16);
    std::vector<uint8_t> garbage(rng.Uniform(40));
    for (uint8_t& b : garbage) b = static_cast<uint8_t>(rng.Uniform(256));
    BufferReader reader(garbage.data(), garbage.size());
    std::vector<WireId> decoded(count, 0);
    Status st =
        DecodeAdjacency(reader, count, kAdjFuzzVertices, decoded.data());
    if (st.ok()) {
      // Garbage may happen to parse — but never to an out-of-range id.
      for (WireId id : decoded) ASSERT_LT(id, kAdjFuzzVertices);
    }
  }
}

// --- Walker frames ---------------------------------------------------------
//
// The random-walk engine ships cross-partition walkers as sealed WireBatch
// frames (common/serialize.h, "Walker frames"). Truncation and byte flips
// are covered by the frame fuzzer table below; these cases pin round-trips
// and the checks only a digest-valid hostile frame can reach.

// Vertex bound of every hand-built frame image below.
constexpr uint64_t kFrameFuzzVertices = 48;

bool WalkerOrder(const WalkerRecord& a, const WalkerRecord& b) {
  return a.cur != b.cur ? a.cur < b.cur : a.id < b.id;
}

/// A deterministic two-frame wire image: one node2vec-style frame (prev
/// state set) and one first-order frame (no prev), sharing a buffer the
/// way two destinations' frames share a channel. `poison` moves one
/// walker of the first frame to vertex kFrameFuzzVertices.
std::vector<uint8_t> MakeWalkerFrameImage(
    std::vector<WalkerRecord>* out_records, bool poison = false) {
  std::vector<WalkerRecord> first;
  for (uint64_t i = 0; i < 12; ++i) {
    WalkerRecord rec;
    rec.cur = static_cast<WireId>((i * 3) % kFrameFuzzVertices);
    rec.id = 1000 + i * 17;
    rec.prev = static_cast<WireId>((i * 5 + 1) % kFrameFuzzVertices);
    first.push_back(rec);
  }
  if (poison) first.back().cur = static_cast<WireId>(kFrameFuzzVertices);
  std::sort(first.begin(), first.end(), WalkerOrder);
  std::vector<WalkerRecord> second;
  for (uint64_t i = 0; i < 5; ++i) {
    WalkerRecord rec;
    rec.cur = static_cast<WireId>(i * 9 % kFrameFuzzVertices);
    rec.id = i;
    rec.prev = WalkerRecord::kNoPrev;
    second.push_back(rec);
  }
  std::sort(second.begin(), second.end(), WalkerOrder);
  BufferWriter out;
  WalkerFrameScratch scratch;
  EncodeWalkerFrame(out, first.data(), first.size(), scratch);
  EncodeWalkerFrame(out, second.data(), second.size(), scratch);
  if (out_records != nullptr) {
    *out_records = std::move(first);
    out_records->insert(out_records->end(), second.begin(), second.end());
  }
  return out.Release();
}

/// Decodes frames until the buffer is exhausted or a frame fails.
Status DecodeAllWalkerFrames(const std::vector<uint8_t>& bytes,
                             std::vector<WalkerRecord>* records) {
  BufferReader reader(bytes.data(), bytes.size());
  while (!reader.AtEnd()) {
    Status st = DecodeWalkerFrame(reader, kFrameFuzzVertices, records);
    if (!st.ok()) return st;
  }
  return Status::OK();
}

TEST(WalkerFrameFuzz, RoundTripAcrossASharedChannelBuffer) {
  std::vector<WalkerRecord> expected;
  std::vector<uint8_t> bytes = MakeWalkerFrameImage(&expected);
  std::vector<WalkerRecord> decoded;
  Status st = DecodeAllWalkerFrames(bytes, &decoded);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(decoded, expected);
}

TEST(WalkerFrameFuzz, ChecksummedOutOfRangeVerticesAreRejected) {
  // The encoder doesn't range-check, so a hostile frame can carry a valid
  // digest around an out-of-range vertex; the decoder's range validation
  // must still reject it — for the current vertex and for node2vec prev.
  for (const bool poison_prev : {false, true}) {
    WalkerRecord rec;
    rec.cur = poison_prev ? 3 : static_cast<WireId>(kFrameFuzzVertices);
    rec.id = 7;
    rec.prev =
        poison_prev ? static_cast<WireId>(kFrameFuzzVertices + 5) : 2;
    BufferWriter out;
    WalkerFrameScratch scratch;
    EncodeWalkerFrame(out, &rec, 1, scratch);
    std::vector<WalkerRecord> decoded;
    Status st = DecodeAllWalkerFrames(out.bytes(), &decoded);
    ASSERT_FALSE(st.ok()) << (poison_prev ? "prev" : "cur") << " accepted";
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  }
}

TEST(WalkerFrameFuzz, TrailingBodyBytesAreRejected) {
  // A frame whose declared body outlives its records must not decode: pad
  // the body, seal it so every integrity check passes, and expect the
  // decoder's exhaustion check to name the trailing bytes.
  BufferWriter body;
  body.WriteVarint(uint64_t{1} << 1 | 1);
  body.WriteVarint(kWalkerFrameMask);
  body.WriteVarint(1);  // cur
  body.WriteVarint(9);  // walker id
  body.WriteVarint(0);  // no prev
  body.WriteVarint(0);  // trailing garbage inside the declared body
  BufferWriter out;
  SealFrame(out, body.bytes());
  std::vector<WalkerRecord> decoded;
  Status st = DecodeAllWalkerFrames(out.bytes(), &decoded);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
}

// --- One table-driven frame fuzzer -----------------------------------------
//
// Every frame kind on the wire or in the redo log is read by the one
// fallible reader, ReadWireFrame — walker frames inside a sealed envelope.
// Each row builds a valid image (or a poisoned one carrying a vertex id at
// the bound) and decodes it the way its receiver does, payloads included.
// For every row:
//   - a truncation prefix that ends on a frame boundary decodes exactly
//     the whole frames before it; every other non-empty prefix returns a
//     Status; none aborts;
//   - every byte flip returns a Status or decodes without aborting; sealed
//     rows must reject every flip, unsealed rows carry no digest, so a flip
//     may land on another well-formed frame — but never on an id at or
//     past the vertex bound;
//   - the poisoned image is rejected with InvalidArgument.

struct DecodedFrames {
  std::vector<WireId> ids;       // Every id, in frame order.
  std::vector<uint64_t> values;  // Masks and payload fields, in order.
  /// Per whole frame: the byte offset it ends at and the ids and values
  /// decoded up to there.
  struct FrameEnd {
    size_t offset, ids, values;
  };
  std::vector<FrameEnd> frames;

  void EndFrame(const std::vector<uint8_t>& bytes, const BufferReader& r) {
    frames.push_back({bytes.size() - r.remaining(), ids.size(), values.size()});
  }
};

/// Reads one u32 payload field without aborting on a short buffer.
Status ReadField(BufferReader& r, DecodedFrames* out) {
  if (r.remaining() < sizeof(uint32_t)) {
    return Status::OutOfRange("payload: truncated record");
  }
  out->values.push_back(r.ReadPod<uint32_t>());
  return Status::OK();
}

/// Ids 0, 3, ... with `poison` replacing the last by the vertex bound.
std::vector<WireId> FuzzIds(size_t count, uint32_t stride, bool poison) {
  std::vector<WireId> ids;
  for (size_t i = 0; i < count; ++i) {
    ids.push_back(static_cast<WireId>((i * stride) % kFrameFuzzVertices));
  }
  if (poison) ids.back() = static_cast<WireId>(kFrameFuzzVertices);
  return ids;
}

/// Appends a frame of `ids` whose payload is `fields` u32s per record.
void AppendFrame(BufferWriter& out, uint32_t mask,
                 const std::vector<WireId>& ids, int fields) {
  BufferWriter payload;
  for (size_t i = 0; i < ids.size(); ++i) {
    for (int f = 0; f < fields; ++f) {
      payload.WritePod(static_cast<uint32_t>(ids[i] * 7 + f));
    }
  }
  const WireFramePart part{ids.data(), ids.size(), payload.bytes().data(),
                           payload.size()};
  EncodeWireFrame(out, mask, &part, 1);
}

struct FrameFuzzCase {
  const char* name;
  bool sealed;
  std::vector<uint8_t> (*build)(bool poison);
  Status (*decode)(const std::vector<uint8_t>& bytes, DecodedFrames* out);
};

const FrameFuzzCase kFrameFuzzCases[] = {
    // A mirror-sync frame: two u32 fields (mask 0x3), unsorted ids.
    {"field-mask frame", false,
     [](bool poison) {
       std::vector<WireId> ids = FuzzIds(9, 7, poison);
       std::reverse(ids.begin(), ids.end());
       BufferWriter out;
       AppendFrame(out, 0x3, ids, 2);
       return out.Release();
     },
     [](const std::vector<uint8_t>& bytes, DecodedFrames* out) {
       BufferReader r(bytes);
       const size_t first = out->ids.size();
       FLASH_RETURN_NOT_OK(ReadWireFrame(r, 0x3, kFrameFuzzVertices, &out->ids));
       for (size_t i = first; i < out->ids.size(); ++i) {
         FLASH_RETURN_NOT_OK(ReadField(r, out));
         FLASH_RETURN_NOT_OK(ReadField(r, out));
       }
       out->EndFrame(bytes, r);
       return r.AtEnd() ? Status::OK()
                        : Status::InvalidArgument("trailing bytes");
     }},
    // Two async frames sharing a channel buffer: raw u32 messages.
    {"async-tagged frames", false,
     [](bool poison) {
       BufferWriter out;
       AppendFrame(out, internal::kAsyncFrameMask, FuzzIds(6, 5, false), 1);
       AppendFrame(out, internal::kAsyncFrameMask, FuzzIds(4, 11, poison), 1);
       return out.Release();
     },
     [](const std::vector<uint8_t>& bytes, DecodedFrames* out) {
       BufferReader r(bytes);
       while (!r.AtEnd()) {
         const size_t first = out->ids.size();
         FLASH_RETURN_NOT_OK(ReadWireFrame(r, internal::kAsyncFrameMask,
                                           kFrameFuzzVertices, &out->ids));
         for (size_t i = first; i < out->ids.size(); ++i) {
           FLASH_RETURN_NOT_OK(ReadField(r, out));
         }
         out->EndFrame(bytes, r);
       }
       return Status::OK();
     }},
    // Two sealed walker frames sharing a channel buffer.
    {"sealed walker frames", true,
     [](bool poison) { return MakeWalkerFrameImage(nullptr, poison); },
     [](const std::vector<uint8_t>& bytes, DecodedFrames* out) {
       BufferReader r(bytes);
       while (!r.AtEnd()) {
         std::vector<WalkerRecord> records;
         FLASH_RETURN_NOT_OK(
             DecodeWalkerFrame(r, kFrameFuzzVertices, &records));
         for (const WalkerRecord& rec : records) {
           out->ids.push_back(rec.cur);
           out->values.push_back(rec.id);
           out->values.push_back(rec.prev);
         }
         out->EndFrame(bytes, r);
       }
       return Status::OK();
     }},
    // A redo log: a commit frame (all fields) then two mirror frames.
    {"redo-log frame sequence", false,
     [](bool poison) {
       BufferWriter log;
       AppendFrame(log, 0x3, FuzzIds(5, 3, false), 2);
       AppendFrame(log, 0x1, FuzzIds(3, 13, false), 1);
       AppendFrame(log, 0x2, FuzzIds(4, 9, poison), 1);
       return log.Release();
     },
     [](const std::vector<uint8_t>& bytes, DecodedFrames* out) {
       BufferReader r(bytes);
       while (!r.AtEnd()) {
         const size_t first = out->ids.size();
         uint32_t mask = 0;
         FLASH_RETURN_NOT_OK(
             ReadWireFrame(r, 0x3, kFrameFuzzVertices, &out->ids, &mask));
         out->values.push_back(mask);
         for (size_t i = first; i < out->ids.size(); ++i) {
           for (uint32_t bits = mask; bits != 0; bits &= bits - 1) {
             FLASH_RETURN_NOT_OK(ReadField(r, out));
           }
         }
         out->EndFrame(bytes, r);
       }
       return Status::OK();
     }},
};

TEST(FrameFuzz, TruncationsFlipsAndOutOfRangeIds) {
  for (const FrameFuzzCase& c : kFrameFuzzCases) {
    SCOPED_TRACE(c.name);
    const std::vector<uint8_t> image = c.build(false);
    DecodedFrames expected;
    ASSERT_TRUE(c.decode(image, &expected).ok());
    ASSERT_FALSE(expected.ids.empty());
    ASSERT_EQ(expected.frames.back().offset, image.size());

    for (size_t len = 0; len < image.size(); ++len) {
      const std::vector<uint8_t> prefix(image.begin(), image.begin() + len);
      DecodedFrames decoded;
      const Status st = c.decode(prefix, &decoded);
      if (len == 0) {
        // An empty channel holds zero frames; it is not a truncation.
        if (st.ok()) EXPECT_TRUE(decoded.ids.empty());
        continue;
      }
      const auto end = std::find_if(
          expected.frames.begin(), expected.frames.end(),
          [&](const DecodedFrames::FrameEnd& f) { return f.offset == len; });
      if (end == expected.frames.end()) {
        EXPECT_FALSE(st.ok()) << "prefix of " << len << " bytes decoded";
        continue;
      }
      ASSERT_TRUE(st.ok()) << "prefix " << len << ": " << st.ToString();
      EXPECT_EQ(decoded.ids, std::vector<WireId>(expected.ids.begin(),
                                                 expected.ids.begin() + end->ids))
          << "prefix " << len;
      EXPECT_EQ(decoded.values,
                std::vector<uint64_t>(expected.values.begin(),
                                      expected.values.begin() + end->values))
          << "prefix " << len;
    }

    std::vector<uint8_t> flipped = image;
    for (size_t i = 0; i < flipped.size(); ++i) {
      for (const uint8_t pattern : {0x01, 0x80, 0xA5}) {
        flipped[i] ^= pattern;
        DecodedFrames decoded;
        const Status st = c.decode(flipped, &decoded);
        if (c.sealed) {
          EXPECT_FALSE(st.ok()) << "flip " << int{pattern} << " at " << i;
        }
        if (st.ok()) {
          for (WireId id : decoded.ids) ASSERT_LT(id, kFrameFuzzVertices);
        }
        flipped[i] ^= pattern;
      }
    }

    DecodedFrames poisoned;
    const Status st = c.decode(c.build(true), &poisoned);
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  }
}

}  // namespace
}  // namespace flash
