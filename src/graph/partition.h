#ifndef FLASH_GRAPH_PARTITION_H_
#define FLASH_GRAPH_PARTITION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.h"

namespace flash {

class ThreadPool;

/// How vertices are assigned to workers (edge-cut partitioning: every vertex
/// is owned by exactly one worker; edges may cross workers, which is where
/// mirrors come from — paper §II and §IV-A).
enum class PartitionScheme {
  /// Owner(v) = v mod m. Balances skewed vertex ranges.
  kHash,
  /// Contiguous chunks of ~|V|/m vertices. Preserves locality of generators
  /// (e.g. grid road networks) so fewer edges are cut.
  kChunk,
};

/// Maximum workers supported by the 64-bit mirror masks.
inline constexpr int kMaxWorkers = 64;

/// Vertex→worker assignment plus the precomputed mirror topology used by the
/// "communicate with necessary mirrors only" optimization (paper §IV-C):
/// mirror_mask(v) holds a bit for every worker that hosts at least one
/// neighbour of v (and therefore needs v's updates when messages stay on E).
class Partition {
 public:
  /// Empty partition (required by Result<Partition>); use Create().
  Partition() = default;

  /// Computes the assignment and mirror masks for `graph` over `num_workers`
  /// workers on `pool`: each task scans the out-lists of one vertex range,
  /// so every list is read exactly once, as a serial scan would, and the
  /// masks are bit-identical at any pool width.
  static Result<Partition> Create(const GraphPtr& graph, int num_workers,
                                  PartitionScheme scheme, ThreadPool& pool);

  /// As above, on a pool scoped to the call, GraphBuilder::PoolWidth wide.
  static Result<Partition> Create(const GraphPtr& graph, int num_workers,
                                  PartitionScheme scheme = PartitionScheme::kHash);

  /// The partition of `graph` for (num_workers, scheme), shared by every
  /// caller: built by Create on `pool` on first use, then memoised in the
  /// graph and freed with it. Thread-safe.
  static Result<std::shared_ptr<const Partition>> ForGraph(
      const GraphPtr& graph, int num_workers, PartitionScheme scheme,
      ThreadPool& pool);

  int num_workers() const { return num_workers_; }
  PartitionScheme scheme() const { return scheme_; }

  int Owner(VertexId v) const {
    if (scheme_ == PartitionScheme::kHash) {
      return static_cast<int>(v % num_workers_);
    }
    int w = static_cast<int>(v / chunk_size_);
    return w < num_workers_ ? w : num_workers_ - 1;
  }

  /// Vertices owned by worker w, ascending.
  const std::vector<VertexId>& OwnedVertices(int w) const {
    return owned_[w];
  }

  /// Bitmask of workers (bit w) hosting >= 1 in- or out-neighbour of v,
  /// excluding v's own owner.
  uint64_t MirrorMask(VertexId v) const { return mirror_masks_[v]; }

  /// Total number of (master, mirror-worker) pairs — the replication factor
  /// numerator, a partition-quality metric.
  uint64_t TotalMirrors() const;

  /// Number of edges whose endpoints live on different workers.
  uint64_t CutEdges(const Graph& graph) const;

 private:
  int num_workers_ = 1;
  PartitionScheme scheme_ = PartitionScheme::kHash;
  std::vector<std::vector<VertexId>> owned_;
  std::vector<uint64_t> mirror_masks_;
  // Chunk scheme: Owner(v) = v / chunk_size_, clamped to the last worker.
  VertexId chunk_size_ = 1;
};

}  // namespace flash

#endif  // FLASH_GRAPH_PARTITION_H_
