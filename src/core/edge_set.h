#ifndef FLASH_CORE_EDGE_SET_H_
#define FLASH_CORE_EDGE_SET_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "common/bitset.h"
#include "common/logging.h"
#include "flashware/vertex_store.h"
#include "graph/graph.h"

namespace flash {

/// Which physical adjacency direction an edge-set enumeration reads, so the
/// engine can tell the paged storage backend which blocks a superstep will
/// touch (GraphStorage::PlanBlocks / PlanSweep). kUnknown means the set's
/// edges are not backed by a CSR direction (virtual/function sets) — the
/// backend then plans nothing and serves any accesses on demand.
enum class EdgeOrientation : uint8_t {
  kOutEdges,
  kInEdges,
  kUnknown,
};

/// Edge-set algebra for EDGEMAP's H parameter (paper §III-A): the original
/// edges E, reverse(E), two-hop joins join(E,E), membership-filtered sets
/// join(E,U) / join(U,E), and function-defined *virtual* edge sets such as
/// the parent-pointer edges join(U,p) used by the optimized CC algorithm —
/// FLASH's "communication beyond neighbourhood".
///
/// Each set exposes push enumeration (out-edges of a source) and, when
/// supported, pull enumeration (in-edges of a target, early-stoppable for
/// the C-function short-circuit of EDGEMAPDENSE). is_subset_of_e() drives
/// the "necessary mirrors only" optimization: messages along sets that stay
/// within E only require neighbour-worker synchronisation (paper §IV-C).
template <typename VData>
class EdgeSet {
 public:
  /// Push callback: fn(dst, weight).
  using OutFn = std::function<void(VertexId, float)>;
  /// Pull callback: fn(src, weight) -> keep enumerating this target's edges?
  using InFn = std::function<bool(VertexId, float)>;

  virtual ~EdgeSet() = default;

  /// Enumerates the edges of `src` in this set (push direction).
  virtual void ForOut(VertexId src, const VertexStore<VData>& store,
                      const OutFn& fn) const = 0;

  /// Enumerates the in-edges of `dst` in this set (pull direction), stopping
  /// early when fn returns false.
  virtual void ForIn(VertexId dst, const VertexStore<VData>& store,
                     const InFn& fn) const = 0;

  /// Approximate out-degree of `src`, used by the density heuristic.
  virtual uint64_t OutDegreeHint(VertexId src) const = 0;

  /// True when every enumerated edge also exists in E (or reverse(E)); then
  /// neighbour-mask mirror sync is sufficient.
  virtual bool is_subset_of_e() const = 0;

  virtual bool supports_push() const { return true; }
  virtual bool supports_pull() const { return true; }

  /// Adjacency direction ForOut reads for a frontier vertex (push mode).
  virtual EdgeOrientation push_source() const {
    return EdgeOrientation::kUnknown;
  }
  /// Adjacency direction ForIn reads for a target vertex (pull mode).
  virtual EdgeOrientation pull_source() const {
    return EdgeOrientation::kUnknown;
  }
};

template <typename VData>
using EdgeSetPtr = std::shared_ptr<const EdgeSet<VData>>;

namespace internal {

/// Walks v's adjacency in one CSR direction of `g` (out-edges when
/// `out_edges`, else in-edges), calling fn(neighbor, weight) for each edge
/// in CSR order. A bool-returning fn stops the walk when it returns false
/// (the C short-circuit of pull mode). This is the one definition of how E
/// and reverse(E) read the graph: CsrEdgeSet's virtual ForOut/ForIn and the
/// engine's inline kernels both call it, so both make the same storage
/// accesses. On the paged backend weights are fetched per edge, so each
/// weighted edge read counts as one StorageStats::accesses; in memory the
/// weight span is read once per vertex.
template <typename Fn>
void WalkCsrAdjacency(const Graph& g, VertexId v, bool out_edges, Fn&& fn) {
  constexpr bool kStoppable =
      std::is_same_v<std::invoke_result_t<Fn&, VertexId, float>, bool>;
  auto visit = [&](VertexId nbr, float weight) {
    if constexpr (kStoppable) {
      return fn(nbr, weight);
    } else {
      fn(nbr, weight);
      return true;
    }
  };
  const std::span<const VertexId> nbrs =
      out_edges ? g.OutNeighbors(v) : g.InNeighbors(v);
  if (!g.is_weighted()) {
    for (const VertexId nbr : nbrs) {
      if (!visit(nbr, 1.0f)) return;
    }
  } else if (!g.is_paged()) {
    const std::span<const float> weights =
        out_edges ? g.OutWeights(v) : g.InWeights(v);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      if (!visit(nbrs[i], weights[i])) return;
    }
  } else {
    for (size_t i = 0; i < nbrs.size(); ++i) {
      const float weight = out_edges ? g.OutWeights(v)[i] : g.InWeights(v)[i];
      if (!visit(nbrs[i], weight)) return;
    }
  }
}

/// E: the graph's out-edges (or reverse(E) when reversed). The engine
/// enumerates its own E and reverse(E) inline (WalkCsrAdjacency); these
/// virtual entry points serve the joins that wrap them.
template <typename VData>
class CsrEdgeSet final : public EdgeSet<VData> {
 public:
  CsrEdgeSet(GraphPtr graph, bool reversed)
      : graph_(std::move(graph)), reversed_(reversed) {}

  void ForOut(VertexId src, const VertexStore<VData>&,
              const typename EdgeSet<VData>::OutFn& fn) const override {
    WalkCsrAdjacency(*graph_, src, /*out_edges=*/!reversed_, fn);
  }

  void ForIn(VertexId dst, const VertexStore<VData>&,
             const typename EdgeSet<VData>::InFn& fn) const override {
    WalkCsrAdjacency(*graph_, dst, /*out_edges=*/reversed_, fn);
  }

  uint64_t OutDegreeHint(VertexId src) const override {
    return reversed_ ? graph_->InDegree(src) : graph_->OutDegree(src);
  }

  bool is_subset_of_e() const override { return true; }

  EdgeOrientation push_source() const override {
    return reversed_ ? EdgeOrientation::kInEdges : EdgeOrientation::kOutEdges;
  }
  EdgeOrientation pull_source() const override {
    return reversed_ ? EdgeOrientation::kOutEdges : EdgeOrientation::kInEdges;
  }

 private:
  GraphPtr graph_;
  bool reversed_;
};

/// join(E, E): two-hop neighbours, enumerated lazily (never materialised).
/// It is an edge *set*: each (src, dst) pair is enumerated once even when
/// several intermediate vertices connect them.
template <typename VData>
class TwoHopEdgeSet final : public EdgeSet<VData> {
 public:
  explicit TwoHopEdgeSet(GraphPtr graph) : graph_(std::move(graph)) {}

  void ForOut(VertexId src, const VertexStore<VData>&,
              const typename EdgeSet<VData>::OutFn& fn) const override {
    std::vector<VertexId> targets;
    for (VertexId mid : graph_->OutNeighbors(src)) {
      auto nbrs = graph_->OutNeighbors(mid);
      targets.insert(targets.end(), nbrs.begin(), nbrs.end());
    }
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
    for (VertexId dst : targets) fn(dst, 1.0f);
  }

  void ForIn(VertexId dst, const VertexStore<VData>&,
             const typename EdgeSet<VData>::InFn& fn) const override {
    std::vector<VertexId> sources;
    for (VertexId mid : graph_->InNeighbors(dst)) {
      auto nbrs = graph_->InNeighbors(mid);
      sources.insert(sources.end(), nbrs.begin(), nbrs.end());
    }
    std::sort(sources.begin(), sources.end());
    sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
    for (VertexId src : sources) {
      if (!fn(src, 1.0f)) return;
    }
  }

  uint64_t OutDegreeHint(VertexId src) const override {
    uint64_t total = 0;
    for (VertexId mid : graph_->OutNeighbors(src)) {
      total += graph_->OutDegree(mid);
    }
    return total;
  }

  bool is_subset_of_e() const override { return false; }

  // Two-hop enumeration starts from the frontier's first-hop adjacency in
  // these directions; the mid-vertex hop demand-pages. A partial plan is
  // still a correct plan (planning only affects load scheduling).
  EdgeOrientation push_source() const override {
    return EdgeOrientation::kOutEdges;
  }
  EdgeOrientation pull_source() const override {
    return EdgeOrientation::kInEdges;
  }

 private:
  GraphPtr graph_;
};

/// join(H, U) / join(U, H): a base set filtered by membership of the target
/// (or source) in a vertexSubset bitmap.
template <typename VData>
class FilteredEdgeSet final : public EdgeSet<VData> {
 public:
  FilteredEdgeSet(EdgeSetPtr<VData> base, const Bitset* members,
                  bool filter_target)
      : base_(std::move(base)), members_(members), filter_target_(filter_target) {}

  void ForOut(VertexId src, const VertexStore<VData>& store,
              const typename EdgeSet<VData>::OutFn& fn) const override {
    if (!filter_target_ && !members_->Test(src)) return;
    if (filter_target_) {
      base_->ForOut(src, store, [&](VertexId dst, float w) {
        if (members_->Test(dst)) fn(dst, w);
      });
    } else {
      base_->ForOut(src, store, fn);
    }
  }

  void ForIn(VertexId dst, const VertexStore<VData>& store,
             const typename EdgeSet<VData>::InFn& fn) const override {
    if (filter_target_ && !members_->Test(dst)) return;
    if (filter_target_) {
      base_->ForIn(dst, store, fn);
    } else {
      base_->ForIn(dst, store, [&](VertexId src, float w) {
        if (!members_->Test(src)) return true;
        return fn(src, w);
      });
    }
  }

  uint64_t OutDegreeHint(VertexId src) const override {
    if (!filter_target_ && !members_->Test(src)) return 0;
    return base_->OutDegreeHint(src);
  }

  bool is_subset_of_e() const override { return base_->is_subset_of_e(); }
  bool supports_push() const override { return base_->supports_push(); }
  bool supports_pull() const override { return base_->supports_pull(); }
  EdgeOrientation push_source() const override {
    return base_->push_source();
  }
  EdgeOrientation pull_source() const override {
    return base_->pull_source();
  }

 private:
  EdgeSetPtr<VData> base_;
  const Bitset* members_;  // Owned by the GraphApi that built this set.
  bool filter_target_;
};

/// Virtual edges defined by a user function in the push direction:
/// fn(src_data, src, emit) where emit(dst [, weight]) declares an edge.
/// e.g. join(U, p): emit(src_data.p). Push-only.
template <typename VData>
class OutFnEdgeSet final : public EdgeSet<VData> {
 public:
  using Emit = std::function<void(VertexId, float)>;
  using Generator = std::function<void(const VData&, VertexId, const Emit&)>;

  OutFnEdgeSet(Generator generator, uint64_t degree_hint)
      : generator_(std::move(generator)), degree_hint_(degree_hint) {}

  void ForOut(VertexId src, const VertexStore<VData>& store,
              const typename EdgeSet<VData>::OutFn& fn) const override {
    generator_(store.Current(src), src, fn);
  }

  void ForIn(VertexId, const VertexStore<VData>&,
             const typename EdgeSet<VData>::InFn&) const override {
    FLASH_LOG(Fatal) << "OutFn edge sets are push-only (EDGEMAPSPARSE)";
  }

  uint64_t OutDegreeHint(VertexId) const override { return degree_hint_; }
  bool is_subset_of_e() const override { return false; }
  bool supports_pull() const override { return false; }

 private:
  Generator generator_;
  uint64_t degree_hint_;
};

/// Virtual edges defined in the pull direction: fn(dst_data, dst, emit)
/// where emit(src [, weight]) declares an in-edge of dst. e.g. join(p, U):
/// emit(dst_data.p). Pull-only.
template <typename VData>
class InFnEdgeSet final : public EdgeSet<VData> {
 public:
  using Emit = std::function<void(VertexId, float)>;
  using Generator = std::function<void(const VData&, VertexId, const Emit&)>;

  explicit InFnEdgeSet(Generator generator)
      : generator_(std::move(generator)) {}

  void ForOut(VertexId, const VertexStore<VData>&,
              const typename EdgeSet<VData>::OutFn&) const override {
    FLASH_LOG(Fatal) << "InFn edge sets are pull-only (EDGEMAPDENSE)";
  }

  void ForIn(VertexId dst, const VertexStore<VData>& store,
             const typename EdgeSet<VData>::InFn& fn) const override {
    bool keep_going = true;
    generator_(store.Current(dst), dst, [&](VertexId src, float w) {
      if (keep_going) keep_going = fn(src, w);
    });
  }

  uint64_t OutDegreeHint(VertexId) const override { return 1; }
  bool is_subset_of_e() const override { return false; }
  bool supports_push() const override { return false; }

 private:
  Generator generator_;
};

}  // namespace internal
}  // namespace flash

#endif  // FLASH_CORE_EDGE_SET_H_
