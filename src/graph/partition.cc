#include "graph/partition.h"

#include <atomic>
#include <utility>

#include "common/thread_pool.h"

namespace flash {

namespace {

/// Sets `bits` in `word`, which other tasks may be setting bits in too;
/// skips the write when they are all set already.
void SetBits(uint64_t& word, uint64_t bits) {
  std::atomic_ref<uint64_t> ref(word);
  if ((ref.load(std::memory_order_relaxed) & bits) != bits) {
    ref.fetch_or(bits, std::memory_order_relaxed);
  }
}

}  // namespace

Result<Partition> Partition::Create(const GraphPtr& graph, int num_workers,
                                    PartitionScheme scheme, ThreadPool& pool) {
  if (graph == nullptr) {
    return Status::InvalidArgument("null graph");
  }
  if (num_workers < 1 || num_workers > kMaxWorkers) {
    return Status::InvalidArgument("num_workers must be in [1, 64]");
  }

  Partition part;
  part.num_workers_ = num_workers;
  part.scheme_ = scheme;
  const VertexId n = graph->NumVertices();
  part.chunk_size_ = n == 0 ? 1 : (n + num_workers - 1) / num_workers;
  if (part.chunk_size_ == 0) part.chunk_size_ = 1;

  part.owned_.resize(num_workers);
  for (VertexId v = 0; v < n; ++v) {
    part.owned_[part.Owner(v)].push_back(v);
  }

  // Mirror masks: worker w needs v's state iff some neighbour of v (in
  // either direction) is owned by w. Out-edges cover "w reads v as a source
  // in pull mode"; in-edges cover "w pushes to v / reads it as a target".
  // Each task pushes from the out-lists of one vertex range; a target's
  // mask may belong to any range, so bits are set atomically. Ranges are
  // claimed dynamically, since RMAT's hubs make the low ones heavy.
  part.mirror_masks_.assign(n, 0);
  const int tasks = pool.num_threads() == 1 ? 1 : 8 * pool.num_threads();
  auto range = [n, tasks](int t) {
    return std::pair<VertexId, VertexId>(
        static_cast<VertexId>(uint64_t{n} * t / tasks),
        static_cast<VertexId>(uint64_t{n} * (t + 1) / tasks));
  };
  pool.ParallelForWorkers(tasks, [&](int t) {
    const auto [lo, hi] = range(t);
    for (VertexId u = lo; u < hi; ++u) {
      const uint64_t owner_bit_u = uint64_t{1} << part.Owner(u);
      uint64_t targets = 0;
      for (VertexId v : graph->OutNeighbors(u)) {
        targets |= uint64_t{1} << part.Owner(v);
        SetBits(part.mirror_masks_[v], owner_bit_u);
      }
      if (targets != 0) SetBits(part.mirror_masks_[u], targets);
    }
  });
  pool.ParallelForWorkers(tasks, [&](int t) {
    const auto [lo, hi] = range(t);
    for (VertexId v = lo; v < hi; ++v) {
      part.mirror_masks_[v] &= ~(uint64_t{1} << part.Owner(v));
    }
  });
  return part;
}

Result<Partition> Partition::Create(const GraphPtr& graph, int num_workers,
                                    PartitionScheme scheme) {
  ThreadPool pool(
      GraphBuilder::PoolWidth(graph == nullptr ? 0 : graph->NumEdges()));
  return Create(graph, num_workers, scheme, pool);
}

Result<std::shared_ptr<const Partition>> Partition::ForGraph(
    const GraphPtr& graph, int num_workers, PartitionScheme scheme,
    ThreadPool& pool) {
  if (graph == nullptr) {
    return Status::InvalidArgument("null graph");
  }
  std::lock_guard<std::mutex> lock(graph->partitions_mu_);
  for (const Graph::PartitionSlot& slot : graph->partitions_) {
    if (slot.workers == num_workers && slot.scheme == scheme) {
      return slot.partition;
    }
  }
  auto created = Create(graph, num_workers, scheme, pool);
  if (!created.ok()) return created.status();
  auto shared =
      std::make_shared<const Partition>(std::move(created).value());
  graph->partitions_.push_back({num_workers, scheme, shared});
  return shared;
}

uint64_t Partition::TotalMirrors() const {
  uint64_t total = 0;
  for (uint64_t mask : mirror_masks_) {
    total += static_cast<uint64_t>(__builtin_popcountll(mask));
  }
  return total;
}

uint64_t Partition::CutEdges(const Graph& graph) const {
  uint64_t cut = 0;
  graph.ForEachEdge([&](VertexId u, VertexId v, float) {
    if (Owner(u) != Owner(v)) ++cut;
  });
  return cut;
}

}  // namespace flash
