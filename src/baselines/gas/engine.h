#ifndef FLASH_BASELINES_GAS_ENGINE_H_
#define FLASH_BASELINES_GAS_ENGINE_H_

#include <algorithm>
#include <functional>
#include <optional>
#include <vector>

#include "common/fields.h"
#include "common/logging.h"
#include "common/serialize.h"
#include "flashware/message_bus.h"
#include "flashware/metrics.h"
#include "graph/partition.h"
#include "obs/tracer.h"

namespace flash::baselines::gas {

/// A Gather-Apply-Scatter engine in the PowerGraph mould: each superstep,
/// every *active* vertex gathers an accumulator over its in-edges, applies
/// it to its value, and (when apply reports a change) scatters activation
/// along its out-edges. Exchange is strictly neighbourhood-only and the
/// gather always scans the full neighbourhood — the model has no notion of
/// frontier-restricted edge sets or beyond-neighbourhood messages, which is
/// precisely the expressiveness gap the paper studies.
///
/// Distribution: vertices are hash-partitioned; gathers of a vertex with
/// mirrors ship one partial accumulator per mirror worker to the master and
/// the applied value back to each mirror, serialised through the same
/// message bus as FLASH so communication costs are measured, not assumed.
template <typename V, typename G>
class Engine {
 public:
  struct Options {
    int num_workers = 4;
    int64_t max_iterations = 1'000'000;
  };

  /// The user program. `gather` may return nullopt to contribute nothing.
  /// `apply` returns true when the vertex changed (triggering scatter).
  /// `scatter_activates` decides whether a changed vertex activates a given
  /// out-neighbour for the next round (default: yes).
  struct Program {
    std::function<void(V&, VertexId)> init;
    std::function<std::optional<G>(const V& self, VertexId self_id,
                                   const V& nbr, VertexId nbr_id, float w)>
        gather;
    std::function<G(const G&, const G&)> sum;
    std::function<bool(V& self, VertexId id, const std::optional<G>& total,
                       int64_t iteration)>
        apply;
    std::function<bool(const V& self, const V& nbr, VertexId nbr_id)>
        scatter_activates;  // Optional; null = always activate.
    /// Wire size of a partial accumulator (optional; defaults to sizeof(G),
    /// capped at 64). Programs with variable-length accumulators (neighbour
    /// lists) set this so gather traffic is billed realistically.
    std::function<size_t(const G&)> gather_size;
  };

  Engine(GraphPtr graph, Options options)
      : graph_(std::move(graph)),
        options_(options),
        partition_(Partition::Create(graph_, options.num_workers).value()),
        bus_(options.num_workers),
        values_(graph_->NumVertices()),
        prev_values_(graph_->NumVertices()),
        active_(graph_->NumVertices(), 1),
        next_active_(graph_->NumVertices(), 0) {}

  const Graph& graph() const { return *graph_; }
  Metrics& metrics() { return metrics_; }
  std::vector<V>& values() { return values_; }
  const std::vector<V>& values() const { return values_; }
  int64_t iteration() const { return iteration_; }

  /// Replaces the active set (drivers use this to stage multi-phase
  /// algorithms, PowerGraph's "signal" API).
  void SignalAll() { std::fill(active_.begin(), active_.end(), 1); }
  void SignalNone() { std::fill(active_.begin(), active_.end(), 0); }
  void Signal(VertexId v) { active_[v] = 1; }
  bool IsActive(VertexId v) const { return active_[v] != 0; }
  size_t NumActive() const {
    size_t n = 0;
    for (uint8_t a : active_) n += a;
    return n;
  }

  void ResetIteration() { iteration_ = 0; }

  /// Runs GAS iterations until the active set empties (or the cap hits).
  /// Returns the number of iterations executed. Synchronous semantics
  /// (PowerGraph's default engine): gathers read the values as of the
  /// iteration start, via a lazily maintained snapshot.
  int64_t Run(const Program& program) {
    if (program.init && iteration_ == 0) {
      for (VertexId v = 0; v < graph_->NumVertices(); ++v) {
        program.init(values_[v], v);
      }
    }
    prev_values_ = values_;  // Drivers may have mutated values between Runs.
    int64_t executed = 0;
    while (executed < options_.max_iterations) {
      if (NumActive() == 0) break;
      StepSample sample;
      sample.kind = StepKind::kEdgeMapDense;
      sample.frontier_in = static_cast<uint32_t>(NumActive());
      std::fill(next_active_.begin(), next_active_.end(), 0);
      uint64_t changed = 0;
      std::vector<VertexId> changed_list;
      for (int w = 0; w < options_.num_workers; ++w) {
        StepTally tally;
        {
          obs::ScopedSpan clock(&tally.seconds);
          for (VertexId v : partition_.OwnedVertices(w)) {
            if (!active_[v]) continue;
            ++tally.verts;
            // Gather over the full in-neighbourhood (GAS cannot early-stop).
            std::optional<G> total;
            auto nbrs = graph_->InNeighbors(v);
            for (size_t i = 0; i < nbrs.size(); ++i) {
              ++tally.edges;
              float weight =
                  graph_->is_weighted() ? graph_->InWeights(v)[i] : 1.0f;
              std::optional<G> g =
                  program.gather(prev_values_[v], v, prev_values_[nbrs[i]],
                                 nbrs[i], weight);
              if (!g.has_value()) continue;
              total = total.has_value() ? program.sum(*total, *g)
                                        : std::move(g);
            }
            // Mirrors ship partial gathers to the master.
            size_t gather_bytes = std::min<size_t>(sizeof(G), 64);
            if (total.has_value() && program.gather_size) {
              gather_bytes = program.gather_size(*total);
            }
            ShipGatherPartials(w, v, total.has_value(), gather_bytes);
            if (program.apply(values_[v], v, total, iteration_)) {
              ++changed;
              changed_list.push_back(v);
              ShipApplyToMirrors(w, v);
              for (VertexId u : graph_->OutNeighbors(v)) {
                if (!program.scatter_activates ||
                    program.scatter_activates(values_[v], prev_values_[u], u)) {
                  next_active_[u] = 1;
                }
              }
            }
          }
        }
        FoldWorkerTally(tally, sample);
      }
      bus_.Exchange();
      bus_.AddLastExchange(sample);
      sample.frontier_out = static_cast<uint32_t>(changed);
      // Publish this iteration's writes into the snapshot (O(changed)).
      for (VertexId v : changed_list) prev_values_[v] = values_[v];
      active_.swap(next_active_);
      ++iteration_;
      ++executed;
      metrics_.AddStep(sample, true);
    }
    return executed;
  }

 private:
  /// One partial-accumulator message per mirror worker of v (vertex-cut
  /// gather aggregation; PowerGraph's first communication round). The bus
  /// is a calibrated traffic meter here: payloads are wire-sized stubs
  /// because the simulation computes gathers against the global state.
  void ShipGatherPartials(int owner, VertexId v, bool has_value,
                          size_t bytes) {
    if (!has_value || options_.num_workers == 1) return;
    uint64_t mask = partition_.MirrorMask(v);
    while (mask != 0) {
      int src = __builtin_ctzll(mask);
      mask &= mask - 1;
      BufferWriter& channel = bus_.Channel(src, owner);
      channel.WriteVarint(v);
      for (size_t i = 0; i < bytes; i += sizeof(gather_stub_)) {
        channel.WriteRaw(gather_stub_,
                         std::min(bytes - i, sizeof(gather_stub_)));
      }
      bus_.CountMessages(src, owner);
    }
  }

  /// Master broadcasts the applied value to mirrors (second round).
  void ShipApplyToMirrors(int owner, VertexId v) {
    if (options_.num_workers == 1) return;
    uint64_t mask = partition_.MirrorMask(v);
    while (mask != 0) {
      int dst = __builtin_ctzll(mask);
      mask &= mask - 1;
      BufferWriter& channel = bus_.Channel(owner, dst);
      channel.WriteVarint(v);
      FieldCodec::Write(channel, values_[v]);
      bus_.CountMessages(owner, dst);
    }
  }

  GraphPtr graph_;
  Options options_;
  Partition partition_;
  MessageBus bus_;
  Metrics metrics_;

  std::vector<V> values_;
  std::vector<V> prev_values_;  // Snapshot gathers read (sync semantics).
  std::vector<uint8_t> active_;
  std::vector<uint8_t> next_active_;
  int64_t iteration_ = 0;
  uint8_t gather_stub_[64] = {};  // Wire image of a partial accumulator.
};

}  // namespace flash::baselines::gas

#endif  // FLASH_BASELINES_GAS_ENGINE_H_
