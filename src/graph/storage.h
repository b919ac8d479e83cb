#ifndef FLASH_GRAPH_STORAGE_H_
#define FLASH_GRAPH_STORAGE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace flash {

namespace obs {
class Tracer;
}

using VertexId = uint32_t;
using EdgeId = uint64_t;

/// Exact I/O counters of one storage backend, monotonic over the backend's
/// lifetime. Every counter is schedule-invariant: block-load decisions are
/// made against state that only changes at epoch barriers (the resident
/// marks), loads are deduplicated per block under a per-slot mutex, and all
/// planning runs on the driving thread — so the same run produces the same
/// counters at any host thread count (docs/INTERNALS.md, "Storage tiers").
struct StorageStats {
  uint64_t accesses = 0;        // Non-empty adjacency span requests served.
  uint64_t blocks_read = 0;     // Block loads from disk (demand + prefetch).
  uint64_t bytes_read = 0;      // File bytes of those block loads.
  uint64_t decode_bytes = 0;    // Decoded payload bytes those loads produced.
  uint64_t stream_bytes = 0;    // Cache-bypassing sequential edge scans.
  uint64_t prefetch_issued = 0; // Blocks enqueued to the async IO thread.
  uint64_t evictions = 0;       // Blocks dropped at epoch barriers.
  uint64_t epochs = 0;          // BeginEpoch calls (one per superstep).
  uint64_t dense_plans = 0;     // Epochs scheduled as a sweep load.
  uint64_t sparse_plans = 0;    // Epochs scheduled demand + prefetch.
  /// Accesses to blocks that were neither resident at the epoch barrier nor
  /// planned/prefetched for this epoch — reads that stall on a synchronous
  /// load instead of hitting the plan-ahead pipeline. Attributed against
  /// barrier-time state (resident marks + the plan set), both written only
  /// by the driving thread, so the count is schedule-invariant even though
  /// the accesses themselves race.
  uint64_t demand_misses = 0;
  uint64_t peak_resident_bytes = 0;  // Max cached block bytes at a barrier.

  bool operator==(const StorageStats&) const = default;

  bool Any() const {
    return accesses | blocks_read | bytes_read | decode_bytes | stream_bytes |
           prefetch_issued | evictions | epochs | dense_plans | sparse_plans |
           demand_misses | peak_resident_bytes;
  }

  /// Element-wise max. Because every field is monotonic, merging snapshots
  /// of the *same* backend keeps the latest one — the semantics
  /// Metrics::Absorb needs when composed runs share a graph.
  void MergeMax(const StorageStats& other);

  std::string ToString() const;
};

/// Per-epoch I/O delta returned by GraphStorage::EndEpoch: the block file
/// bytes/blocks read — and the decoded payload bytes those reads produced —
/// since the previous barrier. The engine copies these into the superstep's
/// StepSample, where the cost model prices file bytes like wire bytes and
/// decode bytes as a fourth overlapped resource.
struct EpochIo {
  uint64_t bytes = 0;
  uint64_t blocks = 0;
  uint64_t decode_bytes = 0;
};

/// Backend behind Graph's adjacency accessors. Two implementations:
/// InMemoryStorage (the classic CSR vectors; the default, zero-overhead
/// path — Graph bypasses the vtable with cached raw pointers) and
/// PagedStorage (graph/paged_storage.h; edge blocks on disk behind an LRU
/// cache with an async prefetch pipeline).
///
/// Offsets stay in memory for every backend — that is the semi-external
/// contract: vertex state (degrees, CSR offsets) is RAM-resident, only the
/// adjacency payload may live on disk.
///
/// The epoch protocol (BeginEpoch/Plan*/Prefetch/EndEpoch) is driven by the
/// BSP engine, one epoch per superstep. All epoch calls come from the
/// engine's driving thread at barrier points; adjacency accessors may be
/// called concurrently from compute tasks between them.
class GraphStorage {
 public:
  using EdgeFn = std::function<void(VertexId, VertexId, float)>;

  virtual ~GraphStorage() = default;

  virtual const char* name() const = 0;
  virtual bool paged() const { return false; }

  virtual const std::vector<EdgeId>& out_offsets() const = 0;
  virtual const std::vector<EdgeId>& in_offsets() const = 0;

  /// Adjacency spans. Returned spans stay valid until the next EndEpoch
  /// barrier (paged blocks are never evicted mid-epoch) or, for the
  /// in-memory backend, for the life of the graph. `v` must have nonzero
  /// degree in the requested direction (Graph's accessors early-out for
  /// empty lists).
  virtual std::span<const VertexId> OutNeighbors(VertexId v) = 0;
  virtual std::span<const VertexId> InNeighbors(VertexId v) = 0;
  virtual std::span<const float> OutWeights(VertexId v) = 0;
  virtual std::span<const float> InWeights(VertexId v) = 0;

  /// Streaming enumeration of all out-edges in CSR order. The paged backend
  /// reads sequentially, bypassing (and never polluting) the block cache;
  /// bytes are accounted as StorageStats::stream_bytes. Used by partition
  /// construction and whole-graph exports.
  virtual void ForEachOutEdge(const EdgeFn& fn) = 0;

  /// Raw CSR vectors, or nullptr when the backend does not keep them in
  /// memory. Graph caches these for its fast path.
  virtual const std::vector<VertexId>* out_targets_vec() const {
    return nullptr;
  }
  virtual const std::vector<VertexId>* in_sources_vec() const {
    return nullptr;
  }
  virtual const std::vector<float>* out_weights_vec() const { return nullptr; }
  virtual const std::vector<float>* in_weights_vec() const { return nullptr; }

  // --- epoch protocol (no-ops for in-memory) ------------------------------

  /// Engine-construction hook: RuntimeOptions override the backend's
  /// configured limits. 0 / negative values keep the current setting.
  virtual void ApplyRuntimeLimits(uint64_t /*cache_bytes*/,
                                  int /*prefetch_depth*/) {}

  /// Superstep entry: quiesce any trailing prefetch, then open a new epoch.
  virtual void BeginEpoch() {}

  /// Declares the exact vertex set whose `out_dir` adjacency this epoch
  /// will read (EDGEMAPSPARSE: the frontier). The backend either
  /// sweep-loads the needed blocks in file order (dense schedule) or
  /// queues them to the prefetch pipeline (sparse schedule).
  virtual void PlanBlocks(std::span<const VertexId> /*vertices*/,
                          bool /*out_dir*/) {}

  /// Declares a pull-mode epoch (EDGEMAPDENSE) over the `out_dir` blocks:
  /// with a frontier this dense, most blocks will be touched, so the
  /// backend may sweep-load the whole direction (M-Flash dense schedule)
  /// when it fits the cache budget.
  virtual void PlanSweep(bool /*out_dir*/, uint64_t /*frontier_size*/) {}

  /// Asynchronous hint issued at the barrier: the next superstep's frontier.
  /// Queued blocks load on the IO thread while the next superstep's compute
  /// starts; their bytes bill to the epoch that drains them.
  virtual void Prefetch(std::span<const VertexId> /*vertices*/,
                        bool /*out_dir*/) {}

  /// Barrier: completes all planned loads, samples the resident peak,
  /// evicts down to the cache budget in (last-used epoch, direction,
  /// block id) order, and returns the epoch's I/O delta.
  virtual EpochIo EndEpoch() { return {}; }

  virtual StorageStats stats() const { return {}; }

  /// Span sink for `storage:block_read` spans (demand loads only; the
  /// prefetch thread stays silent so recording never races a tracer fold).
  virtual void SetTracer(obs::Tracer*) {}
};

/// The classic in-memory CSR: six vectors, zero I/O, no epochs. Graph
/// short-circuits its accessors to raw pointers into these vectors, so the
/// refactor costs the in-memory path nothing.
class InMemoryStorage final : public GraphStorage {
 public:
  struct Csr {
    std::vector<EdgeId> out_offsets;    // size n + 1
    std::vector<VertexId> out_targets;  // size m
    std::vector<float> out_weights;     // size m iff weighted
    std::vector<EdgeId> in_offsets;
    std::vector<VertexId> in_sources;
    std::vector<float> in_weights;
  };

  explicit InMemoryStorage(Csr csr) : csr_(std::move(csr)) {}

  const char* name() const override { return "mem"; }

  const std::vector<EdgeId>& out_offsets() const override {
    return csr_.out_offsets;
  }
  const std::vector<EdgeId>& in_offsets() const override {
    return csr_.in_offsets;
  }

  std::span<const VertexId> OutNeighbors(VertexId v) override {
    return {csr_.out_targets.data() + csr_.out_offsets[v],
            csr_.out_targets.data() + csr_.out_offsets[v + 1]};
  }
  std::span<const VertexId> InNeighbors(VertexId v) override {
    return {csr_.in_sources.data() + csr_.in_offsets[v],
            csr_.in_sources.data() + csr_.in_offsets[v + 1]};
  }
  std::span<const float> OutWeights(VertexId v) override {
    return {csr_.out_weights.data() + csr_.out_offsets[v],
            csr_.out_weights.data() + csr_.out_offsets[v + 1]};
  }
  std::span<const float> InWeights(VertexId v) override {
    return {csr_.in_weights.data() + csr_.in_offsets[v],
            csr_.in_weights.data() + csr_.in_offsets[v + 1]};
  }

  void ForEachOutEdge(const EdgeFn& fn) override;

  const std::vector<VertexId>* out_targets_vec() const override {
    return &csr_.out_targets;
  }
  const std::vector<VertexId>* in_sources_vec() const override {
    return &csr_.in_sources;
  }
  const std::vector<float>* out_weights_vec() const override {
    return &csr_.out_weights;
  }
  const std::vector<float>* in_weights_vec() const override {
    return &csr_.in_weights;
  }

 private:
  Csr csr_;
};

}  // namespace flash

#endif  // FLASH_GRAPH_STORAGE_H_
