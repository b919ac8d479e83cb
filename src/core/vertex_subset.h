#ifndef FLASH_CORE_VERTEX_SUBSET_H_
#define FLASH_CORE_VERTEX_SUBSET_H_

#include <algorithm>
#include <functional>
#include <vector>

#include "common/bitset.h"
#include "common/logging.h"
#include "graph/partition.h"

namespace flash {

/// The FLASH vertexSubset (paper §III-A): a distributed set of vertex ids.
/// Each worker holds the ids of the *masters* it owns that belong to the set
/// (paper §IV-A: "a worker simply maintains a set of vertex ids ... that
/// locate on it"). A dense bitmap over all vertices is materialised on
/// demand — pull-mode EDGEMAP needs remote membership tests, which on a real
/// cluster is an all-gather of the frontier bitmap; the engine accounts for
/// that exchange when it triggers materialisation.
///
/// Per-worker id lists are kept sorted and unique; set algebra is linear
/// merges. The "all" subset (GraphApi::V()) is a flag: its lists are the
/// partition's owned-vertex lists, read in place, never copied. Subsets
/// reference the Partition that created them, which lives as long as the
/// Graph (Partition::ForGraph), so they must not outlive their Graph.
class VertexSubset {
 public:
  VertexSubset() = default;

  /// Empty subset over `partition`.
  explicit VertexSubset(const Partition* partition)
      : partition_(partition),
        per_worker_(partition->num_workers()) {}

  /// Subset containing every vertex: a flag over the partition's owned
  /// lists, O(workers) to build.
  static VertexSubset All(const Partition* partition, VertexId num_vertices) {
    VertexSubset s(partition);
    s.all_ = true;
    s.size_ = num_vertices;
    return s;
  }

  /// Subset of a single vertex.
  static VertexSubset Single(const Partition* partition, VertexId v) {
    VertexSubset s(partition);
    s.per_worker_[partition->Owner(v)].push_back(v);
    s.size_ = 1;
    return s;
  }

  /// Builds a subset from per-worker id lists (engine use). Lists must hold
  /// only vertices owned by their worker; they are sorted and deduplicated.
  /// Lists already strictly ascending — every dense and VERTEXMAP output —
  /// are taken as they are, so the barrier pays a linear check, not a sort.
  static VertexSubset FromWorkerLists(const Partition* partition,
                                      std::vector<std::vector<VertexId>> lists) {
    VertexSubset s(partition);
    FLASH_CHECK_EQ(lists.size(), s.per_worker_.size());
    s.per_worker_ = std::move(lists);
    s.size_ = 0;
    for (auto& list : s.per_worker_) {
      if (std::adjacent_find(list.begin(), list.end(),
                             std::greater_equal<VertexId>()) != list.end()) {
        std::sort(list.begin(), list.end());
        list.erase(std::unique(list.begin(), list.end()), list.end());
      }
      s.size_ += list.size();
    }
    return s;
  }

  const Partition* partition() const { return partition_; }

  /// Total number of vertices in the set (locally cached; the billed
  /// all-reduce of the SIZE primitive is accounted by GraphApi::Size).
  size_t TotalSize() const { return size_; }
  bool Empty() const { return size_ == 0; }

  /// Ids of set members owned by worker w, ascending.
  const std::vector<VertexId>& Owned(int w) const {
    FLASH_DCHECK(partition_ != nullptr);
    return all_ ? partition_->OwnedVertices(w) : per_worker_[w];
  }

  /// Membership test (binary search on the owner's list).
  bool Contains(VertexId v) const {
    if (partition_ == nullptr) return false;
    const auto& list = Owned(partition_->Owner(v));
    return std::binary_search(list.begin(), list.end(), v);
  }

  /// Inserts v (no-op if present). Invalidates the dense cache.
  void Add(VertexId v) {
    FLASH_DCHECK(partition_ != nullptr);
    if (all_) return;  // Already a member.
    auto& list = per_worker_[partition_->Owner(v)];
    auto it = std::lower_bound(list.begin(), list.end(), v);
    if (it != list.end() && *it == v) return;
    list.insert(it, v);
    ++size_;
    dense_valid_ = false;
  }

  /// Calls fn(v) for every member, worker by worker, ascending within each.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t w = 0; w < per_worker_.size(); ++w) {
      for (VertexId v : Owned(static_cast<int>(w))) fn(v);
    }
  }

  /// True if the dense bitmap is already materialised (the engine uses this
  /// to bill the frontier all-gather exactly once per materialisation).
  bool dense_materialized() const { return dense_valid_; }

  /// Dense bitmap over [0, num_vertices). Cached until the set is mutated.
  const Bitset& EnsureDense(VertexId num_vertices) const {
    if (!dense_valid_ || dense_.size() != num_vertices) {
      dense_ = Bitset(num_vertices);
      ForEach([this](VertexId v) { dense_.Set(v); });
      dense_valid_ = true;
    }
    return dense_;
  }

  // --- Set algebra (the paper's auxiliary operators UNION / MINUS /
  // INTERSECT). Operands must share a partition.

  static VertexSubset Union(const VertexSubset& a, const VertexSubset& b) {
    return Merge(a, b, [](const std::vector<VertexId>& x,
                          const std::vector<VertexId>& y,
                          std::vector<VertexId>& out) {
      std::set_union(x.begin(), x.end(), y.begin(), y.end(),
                     std::back_inserter(out));
    });
  }

  static VertexSubset Minus(const VertexSubset& a, const VertexSubset& b) {
    return Merge(a, b, [](const std::vector<VertexId>& x,
                          const std::vector<VertexId>& y,
                          std::vector<VertexId>& out) {
      std::set_difference(x.begin(), x.end(), y.begin(), y.end(),
                          std::back_inserter(out));
    });
  }

  static VertexSubset Intersect(const VertexSubset& a, const VertexSubset& b) {
    return Merge(a, b, [](const std::vector<VertexId>& x,
                          const std::vector<VertexId>& y,
                          std::vector<VertexId>& out) {
      std::set_intersection(x.begin(), x.end(), y.begin(), y.end(),
                            std::back_inserter(out));
    });
  }

 private:
  template <typename MergeFn>
  static VertexSubset Merge(const VertexSubset& a, const VertexSubset& b,
                            MergeFn&& merge) {
    FLASH_CHECK(a.partition_ != nullptr && a.partition_ == b.partition_)
        << "subset operands must come from the same GraphApi";
    VertexSubset out(a.partition_);
    out.size_ = 0;
    for (size_t w = 0; w < a.per_worker_.size(); ++w) {
      const int wi = static_cast<int>(w);
      merge(a.Owned(wi), b.Owned(wi), out.per_worker_[w]);
      out.size_ += out.per_worker_[w].size();
    }
    return out;
  }

  const Partition* partition_ = nullptr;
  // Empty lists when all_: Owned(w) then reads the partition's list.
  std::vector<std::vector<VertexId>> per_worker_;
  bool all_ = false;
  size_t size_ = 0;
  mutable Bitset dense_;
  mutable bool dense_valid_ = false;
};

}  // namespace flash

#endif  // FLASH_CORE_VERTEX_SUBSET_H_
