#ifndef FLASH_GRAPH_GRAPH_H_
#define FLASH_GRAPH_GRAPH_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "graph/storage.h"

namespace flash {

// VertexId / EdgeId live in graph/storage.h; vertex identifiers are dense
// integers in [0, NumVertices()).

inline constexpr VertexId kInvalidVertex = static_cast<VertexId>(-1);

/// A single directed edge with an optional weight (1.0 when the graph is
/// unweighted).
struct Edge {
  VertexId src = 0;
  VertexId dst = 0;
  float weight = 1.0f;
};

inline bool operator==(const Edge& a, const Edge& b) {
  return a.src == b.src && a.dst == b.dst && a.weight == b.weight;
}

/// std::allocator whose value-less construct() writes nothing, so resize()
/// leaves new elements unwritten. Edge is an aggregate (an implicit-lifetime
/// type), so the storage already holds Edge objects; the caller writes
/// every one before it is read. Copies and moves construct as usual.
template <typename T>
struct UninitAllocator : std::allocator<T> {
  UninitAllocator() = default;
  template <typename U>
  UninitAllocator(const UninitAllocator<U>&) noexcept {}
  template <typename U>
  struct rebind {
    using other = UninitAllocator<U>;
  };
  template <typename U>
  void construct(U*) noexcept {}
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// A builder's pending edge list: GenerateRmat sizes it in one step and its
/// draw tasks fill their own ranges, with no serial initialising pass.
using EdgeList = std::vector<Edge, UninitAllocator<Edge>>;

class Graph;
using GraphPtr = std::shared_ptr<const Graph>;
class Partition;
enum class PartitionScheme;
class ThreadPool;

/// Immutable directed property graph in CSR form, with both out- and
/// in-adjacency so that pull-mode (EDGEMAPDENSE) and `reverse(E)` edge sets
/// are O(1) to obtain. Vertices carry no intrinsic properties here; algorithm
/// state lives in the runtime's vertex stores.
///
/// Adjacency is served by a GraphStorage backend (graph/storage.h). For the
/// default in-memory backend the accessors below compile to the same raw
/// pointer arithmetic as before — the cached `*_ptr_` members bypass the
/// vtable entirely. For the paged backend (graph/paged_storage.h) only the
/// offsets are cached; neighbor spans route through the backend, which pages
/// the owning edge block in. Paged spans stay valid until the engine's next
/// superstep barrier.
///
/// Undirected graphs are represented symmetrically (each undirected edge is
/// stored in both directions) and flag is_symmetric().
///
/// The graph also owns the partitions built over it (Partition::ForGraph):
/// one per (worker count, scheme), built on first use and freed with the
/// graph, so every engine pass over one graph shares a single partition.
class Graph {
 public:
  Graph();

  /// Wraps an arbitrary storage backend. Both offset arrays must have the
  /// same (vertex count + 1) length; the edge count is taken from
  /// storage->out_offsets().back().
  static Result<GraphPtr> WithStorage(std::shared_ptr<GraphStorage> storage,
                                      bool symmetric, bool weighted);

  VertexId NumVertices() const { return num_vertices_; }
  EdgeId NumEdges() const { return num_edges_; }
  bool is_symmetric() const { return symmetric_; }
  bool is_weighted() const { return weighted_; }

  /// The backing store. Never null. The engine uses this to drive the epoch
  /// protocol; everything else should go through the accessors below.
  GraphStorage* storage() const { return storage_.get(); }
  bool is_paged() const { return paged_; }

  uint32_t OutDegree(VertexId v) const {
    FLASH_DCHECK(v < num_vertices_);
    return static_cast<uint32_t>(out_off_[v + 1] - out_off_[v]);
  }
  uint32_t InDegree(VertexId v) const {
    FLASH_DCHECK(v < num_vertices_);
    return static_cast<uint32_t>(in_off_[v + 1] - in_off_[v]);
  }
  /// Degree in the undirected sense for symmetric graphs; OutDegree otherwise.
  uint32_t Degree(VertexId v) const { return OutDegree(v); }

  std::span<const VertexId> OutNeighbors(VertexId v) const {
    FLASH_DCHECK(v < num_vertices_);
    if (!paged_) {
      return {out_tgt_ + out_off_[v], out_tgt_ + out_off_[v + 1]};
    }
    if (out_off_[v] == out_off_[v + 1]) return {};
    return storage_->OutNeighbors(v);
  }
  std::span<const VertexId> InNeighbors(VertexId v) const {
    FLASH_DCHECK(v < num_vertices_);
    if (!paged_) {
      return {in_src_ + in_off_[v], in_src_ + in_off_[v + 1]};
    }
    if (in_off_[v] == in_off_[v + 1]) return {};
    return storage_->InNeighbors(v);
  }

  /// Weights aligned with OutNeighbors(v) / InNeighbors(v). Only valid when
  /// is_weighted().
  std::span<const float> OutWeights(VertexId v) const {
    FLASH_DCHECK(weighted_);
    if (!paged_) {
      return {out_w_ + out_off_[v], out_w_ + out_off_[v + 1]};
    }
    if (out_off_[v] == out_off_[v + 1]) return {};
    return storage_->OutWeights(v);
  }
  std::span<const float> InWeights(VertexId v) const {
    FLASH_DCHECK(weighted_);
    if (!paged_) {
      return {in_w_ + in_off_[v], in_w_ + in_off_[v + 1]};
    }
    if (in_off_[v] == in_off_[v + 1]) return {};
    return storage_->InWeights(v);
  }

  /// True if the directed edge (u, v) exists. O(log deg) via binary search
  /// (adjacency lists are sorted by Build).
  bool HasEdge(VertexId u, VertexId v) const;

  /// Enumerates all edges as (src, dst, weight) triples in CSR order. On the
  /// paged backend this streams blocks sequentially without populating the
  /// cache (counted as StorageStats::stream_bytes).
  template <typename Fn>
  void ForEachEdge(Fn&& fn) const {
    if (paged_) {
      storage_->ForEachOutEdge(
          [&fn](VertexId u, VertexId v, float w) { fn(u, v, w); });
      return;
    }
    for (VertexId u = 0; u < num_vertices_; ++u) {
      for (EdgeId e = out_off_[u]; e < out_off_[u + 1]; ++e) {
        fn(u, out_tgt_[e], weighted_ ? out_w_[e] : 1.0f);
      }
    }
  }

  const std::vector<EdgeId>& out_offsets() const {
    return storage_->out_offsets();
  }
  const std::vector<EdgeId>& in_offsets() const {
    return storage_->in_offsets();
  }
  /// Raw CSR target/source vectors. Only the in-memory backend keeps these;
  /// calling them on a paged graph is a programming error (FLASH_CHECK).
  const std::vector<VertexId>& out_targets() const {
    const auto* vec = storage_->out_targets_vec();
    FLASH_CHECK(vec != nullptr) << "out_targets() needs in-memory storage";
    return *vec;
  }
  const std::vector<VertexId>& in_sources() const {
    const auto* vec = storage_->in_sources_vec();
    FLASH_CHECK(vec != nullptr) << "in_sources() needs in-memory storage";
    return *vec;
  }

 private:
  friend class Partition;  // Partition::ForGraph fills partitions_.

  /// Refreshes the raw-pointer fast path from storage_.
  void CacheStoragePointers();

  VertexId num_vertices_ = 0;
  EdgeId num_edges_ = 0;
  bool symmetric_ = false;
  bool weighted_ = false;
  bool paged_ = false;

  std::shared_ptr<GraphStorage> storage_;

  // Cached views into storage_. Offsets are RAM-resident for every backend;
  // targets/sources/weights only for the in-memory one (null when paged).
  const EdgeId* out_off_ = nullptr;
  const EdgeId* in_off_ = nullptr;
  const VertexId* out_tgt_ = nullptr;
  const VertexId* in_src_ = nullptr;
  const float* out_w_ = nullptr;
  const float* in_w_ = nullptr;

  // Memoised partitions, one per (workers, scheme). Logically const: they
  // are derived from the immutable adjacency.
  struct PartitionSlot {
    int workers;
    PartitionScheme scheme;
    std::shared_ptr<const Partition> partition;
  };
  mutable std::mutex partitions_mu_;
  mutable std::vector<PartitionSlot> partitions_;
};

/// Options controlling GraphBuilder::Build.
struct BuildOptions {
  /// Insert the reverse of every edge (undirected representation).
  bool symmetrize = false;
  /// Drop (u, u) edges. Most analytic algorithms assume simple graphs.
  bool remove_self_loops = true;
  /// Collapse parallel edges, keeping the minimum weight.
  bool deduplicate = true;
  /// Keep per-edge weights; otherwise weights are dropped.
  bool keep_weights = false;
};

/// Accumulates an edge list and materialises an immutable CSR Graph.
class GraphBuilder {
 public:
  /// num_vertices may be 0; it is then inferred as max endpoint + 1.
  explicit GraphBuilder(VertexId num_vertices = 0)
      : num_vertices_(num_vertices) {}
  /// Starts from a whole edge list, taken without a copy.
  GraphBuilder(VertexId num_vertices, EdgeList edges)
      : num_vertices_(num_vertices), edges_(std::move(edges)) {}

  void Reserve(size_t edges) { edges_.reserve(edges); }
  void AddEdge(VertexId src, VertexId dst, float weight = 1.0f) {
    edges_.push_back(Edge{src, dst, weight});
  }
  void AddEdges(const std::vector<Edge>& edges) {
    edges_.insert(edges_.end(), edges.begin(), edges.end());
  }

  size_t NumPendingEdges() const { return edges_.size(); }

  /// Builds the graph on a pool scoped to the call: PoolWidth(pending
  /// edges) threads, so small builds start no thread. The builder is left
  /// empty. The CSR is a pure function of the edge multiset and the
  /// options: neither the pool's width nor the AddEdge order changes a bit.
  Result<GraphPtr> Build(const BuildOptions& options = {});
  /// The same build on the caller's pool.
  Result<GraphPtr> Build(const BuildOptions& options, ThreadPool& pool);

  /// Threads Build sizes its pool to for `edges` pending edges: one below
  /// a fixed size, where threads cost more than they save, else the host's
  /// cores.
  static int PoolWidth(size_t edges);

 private:
  VertexId num_vertices_;
  EdgeList edges_;
};

}  // namespace flash

#endif  // FLASH_GRAPH_GRAPH_H_
