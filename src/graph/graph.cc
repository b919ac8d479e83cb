#include "graph/graph.h"

#include <algorithm>
#include <bit>
#include <climits>
#include <numeric>
#include <ranges>
#include <string>
#include <utility>

#include "common/thread_pool.h"

namespace flash {

Graph::Graph()
    : storage_(std::make_shared<InMemoryStorage>(InMemoryStorage::Csr{})) {
  CacheStoragePointers();
}

void Graph::CacheStoragePointers() {
  paged_ = storage_->paged();
  out_off_ = storage_->out_offsets().data();
  in_off_ = storage_->in_offsets().data();
  const auto* out_tgt = storage_->out_targets_vec();
  const auto* in_src = storage_->in_sources_vec();
  const auto* out_w = storage_->out_weights_vec();
  const auto* in_w = storage_->in_weights_vec();
  out_tgt_ = out_tgt ? out_tgt->data() : nullptr;
  in_src_ = in_src ? in_src->data() : nullptr;
  out_w_ = out_w ? out_w->data() : nullptr;
  in_w_ = in_w ? in_w->data() : nullptr;
}

Result<GraphPtr> Graph::WithStorage(std::shared_ptr<GraphStorage> storage,
                                    bool symmetric, bool weighted) {
  if (storage == nullptr) {
    return Status::InvalidArgument("Graph::WithStorage: null storage");
  }
  const auto& out_offsets = storage->out_offsets();
  const auto& in_offsets = storage->in_offsets();
  if (out_offsets.empty() || out_offsets.size() != in_offsets.size()) {
    return Status::InvalidArgument(
        "Graph::WithStorage: malformed offset arrays");
  }
  auto graph = std::make_shared<Graph>();
  graph->num_vertices_ = static_cast<VertexId>(out_offsets.size() - 1);
  graph->num_edges_ = out_offsets.back();
  graph->symmetric_ = symmetric;
  graph->weighted_ = weighted;
  graph->storage_ = std::move(storage);
  graph->CacheStoragePointers();
  return GraphPtr(graph);
}

bool Graph::HasEdge(VertexId u, VertexId v) const {
  auto nbrs = OutNeighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

namespace {

/// Builds below this many pending edges run inline (GraphBuilder::PoolWidth).
constexpr size_t kInlineBuildEdges = size_t{1} << 16;

/// Maps a weight's bits to a key whose unsigned order agrees with `<` on
/// every non-NaN pair and breaks the one tie `<` leaves, -0.0 before +0.0,
/// so a list sorts the same way in any schedule.
uint32_t WeightKey(float weight) {
  const uint32_t bits = std::bit_cast<uint32_t>(weight);
  return (bits >> 31) != 0 ? ~bits : bits | 0x80000000u;
}
float KeyWeight(uint32_t key) {
  return std::bit_cast<float>((key >> 31) != 0 ? key & 0x7FFFFFFFu : ~key);
}

/// Splits vertices [0, n) into `parts` ranges of about equal edges +
/// vertices, so a range holding an RMAT hub holds little else.
std::vector<size_t> BalancedRanges(const std::vector<EdgeId>& offsets,
                                   int parts) {
  const size_t n = offsets.size() - 1;
  std::vector<size_t> ranges(parts + 1);
  for (int p = 0; p <= parts; ++p) {
    const uint64_t target = (offsets[n] + n) * p / parts;
    ranges[p] = *std::ranges::partition_point(
        std::views::iota(size_t{0}, n + 1),
        [&](size_t v) { return offsets[v] + v < target; });
  }
  return ranges;
}

/// Counting sort into CSR lists. `visit(i, emit)` calls emit(list, target,
/// weight) for each edge item i yields; items [ranges[r], ranges[r + 1])
/// are pool task r. Each task counts into its own array, one prefix sum
/// turns the counts into per-task cursors, and the tasks scatter into
/// `targets` (and `weights`, unless null). A list holds its edges in item
/// order. Returns the offsets.
template <typename Visit>
std::vector<EdgeId> CountingSort(ThreadPool& pool, VertexId n,
                                 const std::vector<size_t>& ranges,
                                 const Visit& visit,
                                 std::vector<VertexId>& targets,
                                 std::vector<float>* weights) {
  const int tasks = static_cast<int>(ranges.size()) - 1;
  std::vector<std::vector<EdgeId>> cursors(tasks);
  pool.ParallelForWorkers(tasks, [&](int r) {
    cursors[r].assign(n, 0);
    for (size_t i = ranges[r]; i < ranges[r + 1]; ++i) {
      visit(i, [&](VertexId list, VertexId, float) { ++cursors[r][list]; });
    }
  });
  std::vector<EdgeId> offsets(size_t{n} + 1);
  for (VertexId v = 0; v < n; ++v) {
    offsets[v + 1] = offsets[v];
    for (std::vector<EdgeId>& cursor : cursors) {
      offsets[v + 1] += std::exchange(cursor[v], offsets[v + 1]);
    }
  }
  targets.resize(offsets[n]);
  if (weights != nullptr) weights->resize(offsets[n]);
  pool.ParallelForWorkers(tasks, [&](int r) {
    for (size_t i = ranges[r]; i < ranges[r + 1]; ++i) {
      visit(i, [&](VertexId list, VertexId target, float weight) {
        const EdgeId slot = cursors[r][list]++;
        targets[slot] = target;
        if (weights != nullptr) (*weights)[slot] = weight;
      });
    }
  });
  return offsets;
}

/// Sorts every list by (target, WeightKey) and, with `dedup`, keeps only
/// the first, lightest, edge per target; then compacts the lists into new
/// arrays if dedup dropped any edge.
void SortLists(ThreadPool& pool, bool dedup, std::vector<EdgeId>& offsets,
               std::vector<VertexId>& targets, std::vector<float>* weights) {
  const size_t n = offsets.size() - 1;
  const std::vector<size_t> ranges =
      BalancedRanges(offsets, 8 * pool.num_threads());
  const int tasks = static_cast<int>(ranges.size()) - 1;
  std::vector<EdgeId> kept(n + 1, 0);
  pool.ParallelForWorkers(tasks, [&](int r) {
    std::vector<uint64_t> keys;
    for (size_t v = ranges[r]; v < ranges[r + 1]; ++v) {
      keys.clear();
      for (EdgeId e = offsets[v]; e < offsets[v + 1]; ++e) {
        keys.push_back(uint64_t{targets[e]} << 32 |
                       (weights != nullptr ? WeightKey((*weights)[e]) : 0));
      }
      std::sort(keys.begin(), keys.end());
      if (dedup) {
        keys.erase(std::unique(keys.begin(), keys.end(),
                               [](uint64_t a, uint64_t b) {
                                 return a >> 32 == b >> 32;
                               }),
                   keys.end());
      }
      for (size_t k = 0; k < keys.size(); ++k) {
        const EdgeId e = offsets[v] + k;
        targets[e] = static_cast<VertexId>(keys[k] >> 32);
        if (weights != nullptr) {
          (*weights)[e] = KeyWeight(static_cast<uint32_t>(keys[k]));
        }
      }
      kept[v + 1] = keys.size();
    }
  });
  std::partial_sum(kept.begin(), kept.end(), kept.begin());
  if (kept[n] == offsets[n]) return;
  std::vector<VertexId> compact_targets(kept[n]);
  std::vector<float> compact_weights(weights != nullptr ? kept[n] : 0);
  pool.ParallelForWorkers(tasks, [&](int r) {
    for (size_t v = ranges[r]; v < ranges[r + 1]; ++v) {
      const EdgeId size = kept[v + 1] - kept[v];
      std::copy_n(targets.data() + offsets[v], size,
                  compact_targets.data() + kept[v]);
      if (weights != nullptr) {
        std::copy_n(weights->data() + offsets[v], size,
                    compact_weights.data() + kept[v]);
      }
    }
  });
  offsets = std::move(kept);
  targets = std::move(compact_targets);
  if (weights != nullptr) *weights = std::move(compact_weights);
}

}  // namespace

int GraphBuilder::PoolWidth(size_t edges) {
  return edges < kInlineBuildEdges ? 1 : HostThreadCount(INT_MAX, 0);
}

Result<GraphPtr> GraphBuilder::Build(const BuildOptions& options) {
  ThreadPool pool(PoolWidth(edges_.size()));
  return Build(options, pool);
}

Result<GraphPtr> GraphBuilder::Build(const BuildOptions& options,
                                     ThreadPool& pool) {
  // An explicit vertex count is binding; otherwise infer max endpoint + 1.
  // Counted in 64 bits: kInvalidVertex is no vertex id, so a graph holds at
  // most kInvalidVertex vertices, and n + 1 offsets never wrap.
  uint64_t n = num_vertices_;
  for (const Edge& e : edges_) {
    const uint64_t needed = uint64_t{std::max(e.src, e.dst)} + 1;
    if (num_vertices_ > 0 && needed > num_vertices_) {
      return Status::InvalidArgument("edge endpoint exceeds num_vertices");
    }
    n = std::max(n, needed);
  }
  if (n >= kInvalidVertex) {
    return Status::OutOfRange("vertex count " + std::to_string(n) +
                              " exceeds the 32-bit vertex id range");
  }

  // Out-CSR: one counting sort by source over equal slices of the edge
  // list. A symmetrised edge also counts into its target's list, so the
  // reversed copy is never materialised.
  EdgeList edges = std::move(edges_);
  edges_.clear();
  const int threads = pool.num_threads();
  std::vector<size_t> slices(threads + 1);
  for (int t = 0; t <= threads; ++t) slices[t] = edges.size() * t / threads;
  InMemoryStorage::Csr csr;
  std::vector<float>* out_weights =
      options.keep_weights ? &csr.out_weights : nullptr;
  csr.out_offsets = CountingSort(
      pool, static_cast<VertexId>(n), slices,
      [&](size_t i, const auto& emit) {
        const Edge& e = edges[i];
        if (options.remove_self_loops && e.src == e.dst) return;
        emit(e.src, e.dst, e.weight);
        if (options.symmetrize) emit(e.dst, e.src, e.weight);
      },
      csr.out_targets, out_weights);
  EdgeList().swap(edges);
  SortLists(pool, options.deduplicate, csr.out_offsets, csr.out_targets,
            out_weights);

  if (options.symmetrize) {
    // Every edge's reverse is in the multiset, so each in-list equals the
    // out-list of the same vertex.
    csr.in_offsets = csr.out_offsets;
    csr.in_sources = csr.out_targets;
    csr.in_weights = csr.out_weights;
  } else {
    // Scattering ascending source ranges in order leaves every in-list
    // sorted by (source, WeightKey), so it needs no sort.
    csr.in_offsets = CountingSort(
        pool, static_cast<VertexId>(n),
        BalancedRanges(csr.out_offsets, threads),
        [&](size_t u, const auto& emit) {
          for (EdgeId e = csr.out_offsets[u]; e < csr.out_offsets[u + 1];
               ++e) {
            emit(csr.out_targets[e], static_cast<VertexId>(u),
                 out_weights != nullptr ? csr.out_weights[e] : 1.0f);
          }
        },
        csr.in_sources, options.keep_weights ? &csr.in_weights : nullptr);
  }
  return Graph::WithStorage(std::make_shared<InMemoryStorage>(std::move(csr)),
                            options.symmetrize, options.keep_weights);
}

}  // namespace flash
