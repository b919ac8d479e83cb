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

class ThreadPool;

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
  uint64_t blocks_read = 0;     // Block loads from disk (demand + planned).
  uint64_t bytes_read = 0;      // File bytes of those block loads.
  uint64_t decode_bytes = 0;    // Decoded payload bytes those loads produced.
  uint64_t stream_bytes = 0;    // Cache-bypassing sequential edge scans.
  uint64_t evictions = 0;       // Blocks dropped at epoch barriers.
  uint64_t epochs = 0;          // BeginEpoch calls (one per superstep).
  uint64_t dense_plans = 0;     // Plans whose blocks loaded before compute.
  uint64_t sparse_plans = 0;    // Sweeps left to demand loads.
  /// Accesses to blocks that were neither resident at the epoch barrier nor
  /// planned for this epoch — reads that stall on a synchronous load inside
  /// a compute task. Attributed against barrier-time state (resident marks
  /// + the plan set), both written only by the driving thread, so the count
  /// is schedule-invariant even though the accesses themselves race.
  uint64_t demand_misses = 0;
  uint64_t peak_resident_bytes = 0;  // Max cached block bytes at a barrier.

  bool operator==(const StorageStats&) const = default;

  bool Any() const {
    return accesses | blocks_read | bytes_read | decode_bytes | stream_bytes |
           evictions | epochs | dense_plans | sparse_plans | demand_misses |
           peak_resident_bytes;
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
/// cache).
///
/// Offsets stay in memory for every backend — that is the semi-external
/// contract: vertex state (degrees, CSR offsets) is RAM-resident, only the
/// adjacency payload may live on disk.
///
/// The epoch protocol (BeginEpoch/Plan*/EndEpoch) is driven by the engines,
/// one epoch per superstep (or async round, or walk step). All epoch calls
/// come from the engine's driving thread at barrier points; adjacency
/// accessors may be called concurrently from compute tasks between them.
/// The backend owns no thread: a plan loads its blocks on the caller's
/// pool (the runtime's), before compute starts. The pool is passed per
/// call, not stored, because a graph outlives every runtime that runs on
/// it.
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

  /// Superstep entry: opens a new epoch.
  virtual void BeginEpoch() {}

  /// Declares the exact vertex set whose `out_dir` adjacency this epoch
  /// will read (EDGEMAPSPARSE: the frontier). The backend loads every
  /// needed block on `pool` before returning, so no compute task of the
  /// epoch stalls on one. The set is a subset of the epoch's reads, so a
  /// plan never grows the working set.
  virtual void PlanBlocks(ThreadPool& /*pool*/,
                          std::span<const VertexId> /*vertices*/,
                          bool /*out_dir*/) {}

  /// Declares a pull-mode epoch (EDGEMAPDENSE) over the `out_dir` blocks:
  /// with a frontier this dense, most blocks will be touched, so the
  /// backend loads the whole direction on `pool` (M-Flash dense schedule)
  /// when the frontier is dense enough and the blocks fit the cache
  /// budget; otherwise the epoch demand-loads what it reads.
  virtual void PlanSweep(ThreadPool& /*pool*/, bool /*out_dir*/,
                         uint64_t /*frontier_size*/) {}

  /// Barrier: samples the resident peak, evicts down to the cache budget in
  /// (last-used epoch, direction, block id) order, and returns the epoch's
  /// I/O delta.
  virtual EpochIo EndEpoch() { return {}; }

  virtual StorageStats stats() const { return {}; }

  /// Span sink for `storage:block_read` spans, one per block load, demand
  /// or planned. Every load runs on a pool task or the driving thread, so
  /// recording never races a tracer fold.
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
