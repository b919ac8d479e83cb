#ifndef FLASH_BASELINES_GEMINI_ENGINE_H_
#define FLASH_BASELINES_GEMINI_ENGINE_H_

#include <functional>
#include <vector>

#include "common/bitset.h"
#include "common/logging.h"
#include "common/serialize.h"
#include "flashware/message_bus.h"
#include "flashware/metrics.h"
#include "graph/partition.h"
#include "obs/tracer.h"

namespace flash::baselines::gemini {

/// A Gemini-model engine (Zhu et al., OSDI'16): computation-centric
/// dual-mode edge processing with the signal/slot API.
///
/// The model's constraints — the ones Table I attributes Gemini's poor
/// expressiveness to — are enforced by construction:
///  - messages are one *fixed-length* Msg per (vertex, node) pair; no
///    variable-length vertex properties can ride along (so TC/GC/LPA are
///    inexpressible);
///  - exchange is strictly along the edges of E;
///  - slot reducers must be associative and commutative;
///  - there is no vertexSubset algebra: the user juggles raw bitmaps.
///
/// In sparse (push) mode, every active vertex signals once; the engine
/// ships the message to each node hosting out-neighbours and runs the slot
/// per out-edge there. In dense (pull) mode, every vertex's signal
/// aggregates over its in-neighbours and ships one partial per mirror node
/// to the master's slot. Mode selection follows Gemini's |active edges| >
/// |E|/20 heuristic. Like the GAS baseline, the message bus is a calibrated
/// traffic meter over globally stored user arrays (DESIGN.md §1).
template <typename Msg>
class Engine {
 public:
  struct Options {
    int num_workers = 4;
    double dense_threshold = 20.0;
  };

  using Emit = std::function<void(const Msg&)>;
  /// sparse_signal(u, emit): called on active u; emit at most once.
  using SparseSignal = std::function<void(VertexId, const Emit&)>;
  /// sparse_slot(dst, msg, edge_weight): per out-edge of the signalling
  /// vertex; returns the contribution to the global reducer (commonly the
  /// number of activations).
  using SparseSlot = std::function<uint64_t(VertexId, const Msg&, float)>;
  /// dense_signal(v, active, emit): aggregate v's in-neighbourhood, emit at
  /// most once.
  using DenseSignal = std::function<void(VertexId, const Bitset&, const Emit&)>;
  using DenseSlot = std::function<uint64_t(VertexId, const Msg&)>;

  static_assert(std::is_trivially_copyable_v<Msg>,
                "Gemini messages are fixed-length (trivially copyable)");

  Engine(GraphPtr graph, Options options)
      : graph_(std::move(graph)),
        options_(options),
        partition_(Partition::Create(graph_, options.num_workers).value()),
        bus_(options.num_workers) {}

  const Graph& graph() const { return *graph_; }
  const Partition& partition() const { return partition_; }
  Metrics& metrics() { return metrics_; }

  /// An empty bitmap sized for this graph (Gemini's vertex subset).
  Bitset MakeSubset() const { return Bitset(graph_->NumVertices()); }

  /// Folds fn(v) -> uint64_t over the active vertices; one superstep.
  template <typename Fn>
  uint64_t ProcessVertices(const Bitset& active, Fn&& fn) {
    StepSample sample;
    sample.kind = StepKind::kVertexMap;
    sample.frontier_in = static_cast<uint32_t>(active.Count());
    uint64_t total = 0;
    for (int w = 0; w < options_.num_workers; ++w) {
      StepTally tally;
      {
        obs::ScopedSpan clock(&tally.seconds);
        for (VertexId v : partition_.OwnedVertices(w)) {
          if (!active.Test(v)) continue;
          ++tally.verts;
          total += fn(v);
        }
      }
      FoldWorkerTally(tally, sample);
    }
    AccountAllReduce(&sample);
    metrics_.AddStep(sample, true);
    return total;
  }

  /// Dual-mode edge processing; returns the summed slot contributions.
  uint64_t ProcessEdges(const Bitset& active, const SparseSignal& sparse_signal,
                        const SparseSlot& sparse_slot,
                        const DenseSignal& dense_signal,
                        const DenseSlot& dense_slot) {
    uint64_t active_edges = 0;
    uint64_t active_count = 0;
    active.ForEach([&](size_t v) {
      ++active_count;
      active_edges += graph_->OutDegree(static_cast<VertexId>(v));
    });
    bool dense = static_cast<double>(active_count + active_edges) >
                 static_cast<double>(graph_->NumEdges()) /
                     options_.dense_threshold;
    return dense ? ProcessEdgesDense(active, dense_signal, dense_slot)
                 : ProcessEdgesSparse(active, sparse_signal, sparse_slot);
  }

 private:
  uint64_t ProcessEdgesSparse(const Bitset& active,
                              const SparseSignal& signal,
                              const SparseSlot& slot) {
    StepSample sample;
    sample.kind = StepKind::kEdgeMapSparse;
    sample.frontier_in = static_cast<uint32_t>(active.Count());
    uint64_t total = 0;
    for (int w = 0; w < options_.num_workers; ++w) {
      StepTally tally;
      {
        obs::ScopedSpan clock(&tally.seconds);
        for (VertexId u : partition_.OwnedVertices(w)) {
          if (!active.Test(u)) continue;
          bool emitted = false;
          Msg message{};
          signal(u, [&](const Msg& m) {
            FLASH_CHECK(!emitted) << "Gemini signals emit at most once";
            emitted = true;
            message = m;
          });
          if (!emitted) continue;
          // One wire message per remote node hosting out-neighbours of u.
          uint64_t mask = partition_.MirrorMask(u);
          while (mask != 0) {
            int dst = __builtin_ctzll(mask);
            mask &= mask - 1;
            BufferWriter& channel = bus_.Channel(w, dst);
            channel.WritePod(u);
            channel.WritePod(message);
            bus_.CountMessages(w, dst);
          }
          // The slot runs once per out-edge, wherever the target lives.
          auto nbrs = graph_->OutNeighbors(u);
          for (size_t i = 0; i < nbrs.size(); ++i) {
            ++tally.edges;
            float weight =
                graph_->is_weighted() ? graph_->OutWeights(u)[i] : 1.0f;
            total += slot(nbrs[i], message, weight);
          }
        }
      }
      FoldWorkerTally(tally, sample);
    }
    FinishExchange(&sample);
    return total;
  }

  uint64_t ProcessEdgesDense(const Bitset& active, const DenseSignal& signal,
                             const DenseSlot& slot) {
    StepSample sample;
    sample.kind = StepKind::kEdgeMapDense;
    sample.frontier_in = static_cast<uint32_t>(active.Count());
    uint64_t total = 0;
    for (int w = 0; w < options_.num_workers; ++w) {
      StepTally tally;
      {
        obs::ScopedSpan clock(&tally.seconds);
        for (VertexId v : partition_.OwnedVertices(w)) {
          tally.edges += graph_->InDegree(v);
          bool emitted = false;
          Msg message{};
          signal(v, active, [&](const Msg& m) {
            FLASH_CHECK(!emitted) << "Gemini signals emit at most once";
            emitted = true;
            message = m;
          });
          if (!emitted) continue;
          // One partial per mirror node converges on the master's slot.
          uint64_t mask = partition_.MirrorMask(v);
          while (mask != 0) {
            int src = __builtin_ctzll(mask);
            mask &= mask - 1;
            BufferWriter& channel = bus_.Channel(src, w);
            channel.WritePod(v);
            channel.WritePod(message);
            bus_.CountMessages(src, w);
          }
          total += slot(v, message);
        }
      }
      FoldWorkerTally(tally, sample);
    }
    FinishExchange(&sample);
    return total;
  }

  void FinishExchange(StepSample* sample) {
    bus_.Exchange();
    bus_.AddLastExchange(*sample);
    metrics_.AddStep(*sample, true);
  }

  void AccountAllReduce(StepSample* sample) {
    if (options_.num_workers <= 1) return;
    uint64_t pairs = static_cast<uint64_t>(options_.num_workers) *
                     (options_.num_workers - 1);
    sample->bytes_total += 8 * pairs;
    sample->bytes_max += 8ull * (options_.num_workers - 1);
    sample->msgs_total += pairs;
  }

  GraphPtr graph_;
  Options options_;
  Partition partition_;
  MessageBus bus_;
  Metrics metrics_;
};

}  // namespace flash::baselines::gemini

#endif  // FLASH_BASELINES_GEMINI_ENGINE_H_
