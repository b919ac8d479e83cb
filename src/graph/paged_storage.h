#ifndef FLASH_GRAPH_PAGED_STORAGE_H_
#define FLASH_GRAPH_PAGED_STORAGE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "graph/storage.h"

namespace flash {

/// On-disk edge-block file ("FLSHBLK1" version 1 raw, "FLSHBLK2" version 2
/// codec-tagged) — the semi-external format behind PagedStorage. Layout, in
/// file order (identical across versions; only block payloads differ):
///
///   BlockFileHeader                       (56 bytes, validated magic)
///   out_offsets   EdgeId[n + 1]           (CSR offsets; RAM-resident)
///   in_offsets    EdgeId[n + 1]
///   out index     BlockMeta[num_out_blocks]
///   in index      BlockMeta[num_in_blocks]
///   blocks        each: BlockHeader + payload
///
/// A version-1 payload is raw: targets u32[] (+ weights f32[]). A version-2
/// payload is codec-tagged by the header's `codec` field — kRaw repeats the
/// v1 layout; kDelta stores each vertex's neighbor list as varint deltas
/// (EncodeAdjacency in common/serialize.h; sorted lists take plain deltas,
/// the zigzag fallback covers arbitrary orders) followed by raw f32 weights.
/// List lengths are never stored: the decoder derives every degree from the
/// RAM-resident offsets. Version-1 files read transparently — their header
/// byte at the `codec` slot was written as zero padding, which is exactly
/// BlockCodec::kRaw.
///
/// Blocks are vertex-aligned: each covers a contiguous vertex range whose
/// *decoded* adjacency payload is packed until it reaches the nominal
/// `block_payload_target` bytes, so a vertex's full list is always inside
/// one block (hub vertices get an oversized block of their own) and spans
/// into the decoded block stay contiguous. Partitioning on decoded — not
/// stored — bytes keeps block boundaries, plans, and every counter except
/// bytes_read identical across codecs. Zero-degree vertices cost zero
/// payload; together the per-direction ranges cover [0, n) exactly.
///
/// Integrity: `meta_checksum` (FNV-1a) covers the header (with this field
/// zeroed), both offset arrays, and both indices; each block carries an
/// FNV-1a checksum of its stored payload plus a header that must agree with
/// the index and the offsets. Open() validates all metadata — any
/// truncation fails there because every block's extent is bounds-checked
/// against the file size — and every block load re-validates header,
/// checksum, and target range (the delta decoder additionally rejects
/// truncated lists, over-long varints, out-of-range deltas, and trailing
/// bytes with a Status) before a span is ever handed out.

inline constexpr char kBlockFileMagic[8] = {'F', 'L', 'S', 'H',
                                            'B', 'L', 'K', '1'};
inline constexpr char kBlockFileMagicV2[8] = {'F', 'L', 'S', 'H',
                                              'B', 'L', 'K', '2'};
inline constexpr uint32_t kBlockFileVersion = 1;
inline constexpr uint32_t kBlockFileVersionV2 = 2;
inline constexpr uint32_t kBlockHeaderMagic = 0xB10CFA5Eu;

/// Block payload encoding of a version-2 file. Version-1 files carry zero
/// padding in the header's codec slot, so they alias kRaw by construction.
enum class BlockCodec : uint32_t {
  kRaw = 0,    // u32 targets (+ f32 weights), memcpy-decoded.
  kDelta = 1,  // Per-vertex varint deltas (+ raw f32 weights).
};

/// Upper bound on the stored bytes one edge can take under kDelta: a 33-bit
/// zigzagged delta spans five varint bytes.
inline constexpr uint64_t kMaxDeltaBytesPerEdge = 5;

// Fnv1a64 (the block checksum function) moved to common/hash.h so the
// walker wire-frame codec can share it without depending on graph/.

struct BlockFileHeader {
  char magic[8] = {};
  uint32_t version = kBlockFileVersion;
  uint8_t symmetric = 0;
  uint8_t weighted = 0;
  uint16_t pad0 = 0;
  uint32_t num_vertices = 0;
  uint32_t num_out_blocks = 0;
  uint32_t num_in_blocks = 0;
  uint32_t codec = 0;  // BlockCodec; zero (= kRaw) in version-1 files.
  uint64_t num_edges = 0;
  uint64_t block_payload_target = 0;
  uint64_t meta_checksum = 0;
};
static_assert(sizeof(BlockFileHeader) == 56, "on-disk layout");

/// Index entry: one vertex-aligned block. `stored_bytes` includes the
/// BlockHeader; the edge count is derived from the offsets array.
struct BlockMeta {
  VertexId first_vertex = 0;
  uint32_t vertex_count = 0;
  uint64_t file_offset = 0;
  uint64_t stored_bytes = 0;
};
static_assert(sizeof(BlockMeta) == 24, "on-disk layout");

struct BlockHeader {
  uint32_t magic = kBlockHeaderMagic;
  uint16_t dir = 0;  // 0 = out-adjacency, 1 = in-adjacency.
  uint16_t pad0 = 0;
  uint32_t block_id = 0;
  VertexId first_vertex = 0;
  uint64_t edge_count = 0;
  uint64_t payload_checksum = 0;
};
static_assert(sizeof(BlockHeader) == 32, "on-disk layout");

/// Tuning knobs of a paged graph, set at Open. The cache budget is
/// overridable per run via RuntimeOptions (GraphStorage::ApplyRuntimeLimits).
struct PagedOptions {
  /// LRU block-cache budget. Enforced at epoch barriers: within an epoch
  /// the cache may transiently exceed it (up to the epoch's working set),
  /// because mid-epoch eviction would invalidate live spans and make miss
  /// counters schedule-dependent.
  uint64_t cache_bytes = 64ull << 20;
  /// Frontier fraction of the vertices at or above which a pull epoch
  /// (PlanSweep) loads its whole direction before compute (M-Flash dense
  /// schedule), provided it fits the cache budget; below it the epoch
  /// demand-loads the blocks it reads.
  double dense_fraction = 0.25;
};

/// Semi-external storage backend: adjacency blocks on disk, offsets and an
/// LRU-cached working set of decoded blocks in memory. See
/// docs/INTERNALS.md "Storage tiers" for the determinism contract.
class PagedStorage final : public GraphStorage {
 public:
  /// Opens and fully validates a block file's metadata. Returns Status on
  /// any malformed input (wrong magic/version, checksum mismatch,
  /// non-monotonic offsets, block extents outside the file, truncation).
  static Result<std::shared_ptr<PagedStorage>> Open(
      const std::string& path, const PagedOptions& options = {});

  ~PagedStorage() override;

  PagedStorage(const PagedStorage&) = delete;
  PagedStorage& operator=(const PagedStorage&) = delete;

  const char* name() const override { return "paged"; }
  bool paged() const override { return true; }

  const std::vector<EdgeId>& out_offsets() const override {
    return out_.offsets;
  }
  const std::vector<EdgeId>& in_offsets() const override {
    return in_.offsets;
  }

  std::span<const VertexId> OutNeighbors(VertexId v) override;
  std::span<const VertexId> InNeighbors(VertexId v) override;
  std::span<const float> OutWeights(VertexId v) override;
  std::span<const float> InWeights(VertexId v) override;

  void ForEachOutEdge(const EdgeFn& fn) override;

  void ApplyRuntimeLimits(uint64_t cache_bytes) override;
  void BeginEpoch() override;
  void PlanBlocks(ThreadPool& pool, std::span<const VertexId> vertices,
                  bool out_dir) override;
  void PlanSweep(ThreadPool& pool, bool out_dir,
                 uint64_t frontier_size) override;
  EpochIo EndEpoch() override;
  StorageStats stats() const override;
  void SetTracer(obs::Tracer* tracer) override { tracer_ = tracer; }

  // --- introspection (tests, benches, CLI) --------------------------------

  bool symmetric() const { return symmetric_; }
  bool weighted() const { return weighted_; }
  BlockCodec codec() const { return codec_; }
  const std::string& path() const { return path_; }
  const std::vector<BlockMeta>& block_index(bool out_dir) const {
    return out_dir ? out_.metas : in_.metas;
  }
  /// Sum of stored block bytes across both directions — the edge payload
  /// the cache pages against (excludes header/offsets/index).
  uint64_t total_block_bytes() const;
  /// Decoded bytes currently resident in the cache.
  uint64_t resident_bytes() const;

  /// Reads and fully validates every block from disk (cache-bypassing,
  /// uncounted). Status names the first corrupt block. The fuzz suite
  /// drives this against mutated files: corruption must always surface
  /// here or at Open(), never as a wrong span.
  Status VerifyAllBlocks();

 private:
  struct DecodedBlock {
    std::vector<VertexId> targets;
    std::vector<float> weights;
    EdgeId first_edge = 0;
    uint64_t stored_bytes = 0;

    uint64_t MemoryBytes() const {
      return targets.size() * sizeof(VertexId) +
             weights.size() * sizeof(float);
    }
  };

  struct Slot {
    std::atomic<DecodedBlock*> data{nullptr};
    std::atomic<uint64_t> last_used{0};
    std::mutex load_mu;
    /// Epoch-barrier bookkeeping, written only by the driving thread at
    /// deterministic points: resident_mark at barriers, plan_epoch when a
    /// block is planned. Planning decisions read only these, so the planned
    /// set never depends on load timing.
    bool resident_mark = false;
    uint64_t plan_epoch = 0;
  };

  struct Direction {
    bool out = true;
    std::vector<EdgeId> offsets;         // n + 1
    std::vector<BlockMeta> metas;
    std::vector<VertexId> block_first;   // metas[i].first_vertex
    std::unique_ptr<Slot[]> slots;
  };

  PagedStorage() = default;

  Direction& dir(bool out_dir) { return out_dir ? out_ : in_; }
  uint32_t BlockOf(const Direction& d, VertexId v) const;

  /// Decoded payload bytes of one block (targets + weights) — derived from
  /// the offsets, so it is codec-invariant. Cache budgeting and plan
  /// decisions use this, never the stored size, which keeps every counter
  /// except bytes_read identical across codecs.
  uint64_t DecodedPayloadBytes(const Direction& d, const BlockMeta& meta)
      const;

  /// Loads `block` if absent (per-slot mutex dedups concurrent loaders) and
  /// returns its decoded data. `count_access` stamps LRU recency and the
  /// access counter — false for planned loads.
  const DecodedBlock* EnsureBlock(Direction& d, uint32_t block,
                                  bool count_access);

  /// pread + decode + account; called under the slot mutex.
  DecodedBlock* LoadBlock(Direction& d, uint32_t block);

  /// Validating decode of one stored block image. Shared by the hot load
  /// path (failure aborts: Open() vouched for the metadata, so payload
  /// corruption after that is fatal) and VerifyAllBlocks (failure returns).
  Result<DecodedBlock> DecodeBlock(const Direction& d, uint32_t block,
                                   const std::vector<uint8_t>& bytes) const;

  Status ReadRange(uint64_t offset, uint64_t size,
                   std::vector<uint8_t>& buffer) const;

  /// Marks `blocks` planned for the current epoch, loads them on `pool`,
  /// and counts a dense plan.
  void LoadPlanned(ThreadPool& pool, Direction& d,
                   const std::vector<uint32_t>& blocks);
  void RefreshResidentMarks();

  std::string path_;
  int fd_ = -1;
  uint64_t file_size_ = 0;
  VertexId num_vertices_ = 0;
  EdgeId num_edges_ = 0;
  bool symmetric_ = false;
  bool weighted_ = false;
  BlockCodec codec_ = BlockCodec::kRaw;

  Direction out_;
  Direction in_;

  // Limits (driving thread only; ApplyRuntimeLimits happens at engine
  // construction, between epochs).
  uint64_t cache_bytes_ = 0;
  double dense_fraction_ = 0.25;

  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint64_t> epoch_accesses_{0};
  std::atomic<uint64_t> epoch_demand_misses_{0};

  mutable std::mutex stats_mu_;  // Guards stats_ and epoch byte deltas.
  StorageStats stats_;
  uint64_t epoch_bytes_ = 0;
  uint64_t epoch_blocks_ = 0;
  uint64_t epoch_decode_bytes_ = 0;
  uint64_t resident_bytes_ = 0;

  obs::Tracer* tracer_ = nullptr;
};

}  // namespace flash

#endif  // FLASH_GRAPH_PAGED_STORAGE_H_
