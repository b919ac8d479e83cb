#ifndef FLASH_FLASHWARE_VERTEX_STORE_H_
#define FLASH_FLASHWARE_VERTEX_STORE_H_

#include <algorithm>
#include <vector>

#include "common/fields.h"
#include "common/logging.h"
#include "common/serialize.h"
#include "graph/graph.h"

namespace flash {

/// Per-worker vertex state, implementing the FLASHWARE data layout (§IV-A):
///
///  - `current` states: the replica this worker reads during a superstep.
///    For vertices the worker owns (masters) it is authoritative; for remote
///    vertices it is a mirror kept consistent by the barrier's sync round
///    (only for the critical fields, and only when this worker actually
///    needs the vertex — see sync.h).
///  - `next` states: shadow values written by put() during the superstep,
///    invisible until the barrier. Allocated per vertex lazily via a dirty
///    list so a superstep costs O(#updates), not O(|V|).
template <typename VData>
class VertexStore {
 public:
  explicit VertexStore(VertexId num_vertices)
      : current_(num_vertices), next_(num_vertices), dirty_(num_vertices, 0) {}

  VertexId num_vertices() const { return static_cast<VertexId>(current_.size()); }

  /// Read of the consistent current state (FLASHWARE's get()).
  const VData& Current(VertexId v) const {
    FLASH_DCHECK(v < current_.size());
    return current_[v];
  }

  /// Engine-internal direct write of the current state (initialisation only).
  VData& DirectCurrent(VertexId v) { return current_[v]; }

  /// Write access to v's next state (FLASHWARE's put()). On first touch in a
  /// superstep the next state is seeded from the current state and v is
  /// recorded in `dirty_sink` (caller-supplied so parallel shards can keep
  /// private lists; masters are touched by exactly one shard).
  VData& MutableNext(VertexId v, std::vector<VertexId>& dirty_sink) {
    FLASH_DCHECK(v < next_.size());
    if (!dirty_[v]) {
      dirty_[v] = 1;
      next_[v] = current_[v];
      dirty_sink.push_back(v);
    }
    return next_[v];
  }

  bool IsDirty(VertexId v) const { return dirty_[v] != 0; }

  /// Registers a shard-local dirty list collected during the compute phase.
  /// `list` is left empty with its capacity intact, so callers can pool it
  /// across supersteps.
  void AppendDirty(std::vector<VertexId>&& list) {
    dirty_list_.insert(dirty_list_.end(), list.begin(), list.end());
    list.clear();
  }

  const std::vector<VertexId>& dirty_list() const { return dirty_list_; }

  /// Orders the pending dirty list by vertex id, making the commit batch —
  /// and the mirror-sync wire frames built from it — strictly ascending, the
  /// densest form of the delta-encoded wire format. Safe to call before
  /// Commit: dirty masters are disjoint per-vertex promotions, and the
  /// frontier lists were fixed during the compute phase, so commit order is
  /// unobservable beyond the wire layout. Dense and VERTEXMAP steps already
  /// collect their dirty masters in ascending order; only an out-of-order
  /// list (sparse pushes) pays for the sort.
  void SortDirtyForCommit() {
    if (!std::is_sorted(dirty_list_.begin(), dirty_list_.end())) {
      std::sort(dirty_list_.begin(), dirty_list_.end());
    }
  }

  /// Barrier half 1: promotes next -> current for every dirty master and
  /// invokes fn(v, value) so the caller can serialise the update for
  /// mirrors. Clears the dirty set.
  template <typename Fn>
  void Commit(Fn&& fn) {
    for (VertexId v : dirty_list_) {
      current_[v] = next_[v];
      fn(v, current_[v]);
      dirty_[v] = 0;
    }
    dirty_list_.clear();
  }

  /// Barrier half 2 (receiver side): overlays the masked fields from a sync
  /// message onto the local mirror's current state.
  void ApplyMirror(VertexId v, uint32_t mask, BufferReader& reader) {
    FLASH_DCHECK(v < current_.size());
    DeserializeFields(current_[v], mask, reader);
  }

 private:
  std::vector<VData> current_;
  std::vector<VData> next_;
  std::vector<uint8_t> dirty_;
  std::vector<VertexId> dirty_list_;
};

}  // namespace flash

#endif  // FLASH_FLASHWARE_VERTEX_STORE_H_
