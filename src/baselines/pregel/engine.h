#ifndef FLASH_BASELINES_PREGEL_ENGINE_H_
#define FLASH_BASELINES_PREGEL_ENGINE_H_

#include <algorithm>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "common/fields.h"
#include "common/logging.h"
#include "common/serialize.h"
#include "flashware/message_bus.h"
#include "flashware/metrics.h"
#include "graph/partition.h"
#include "obs/tracer.h"

namespace flash::baselines::pregel {

/// A faithful Pregel-model engine (Malewicz et al., with the sender-side
/// message combining of Pregel+): BSP supersteps over hash-partitioned
/// vertices; per-vertex compute() consumes the inbox and sends messages to
/// arbitrary vertex ids; vote-to-halt semantics; an optional combiner; a
/// global sum aggregator (Pregel's aggregator mechanism, used by multi-phase
/// algorithms for convergence detection and phase switching).
///
/// It runs on the same simulated transport as FLASH (byte-serialised
/// channels with exact accounting), so Table V comparisons measure the
/// *model* — full-inbox materialisation, no frontier compression, no dual
/// propagation modes — not a different substrate.
template <typename VValue, typename Msg>
class Engine {
 public:
  struct Options {
    int num_workers = 4;
    int64_t max_supersteps = 1'000'000;
  };

  /// Per-vertex API handed to the user compute function.
  class Context {
   public:
    Context(Engine* engine, int worker, VertexId id)
        : engine_(engine), worker_(worker), id_(id) {}

    VertexId id() const { return id_; }
    VValue& value() { return engine_->values_[id_]; }
    const VValue& value() const { return engine_->values_[id_]; }
    int64_t superstep() const { return engine_->superstep_; }
    VertexId num_vertices() const { return engine_->graph_->NumVertices(); }

    std::span<const VertexId> out_neighbors() const {
      return engine_->graph_->OutNeighbors(id_);
    }
    std::span<const VertexId> in_neighbors() const {
      return engine_->graph_->InNeighbors(id_);
    }
    uint32_t out_degree() const { return engine_->graph_->OutDegree(id_); }
    float out_weight(size_t i) const {
      return engine_->graph_->is_weighted() ? engine_->graph_->OutWeights(id_)[i]
                                            : 1.0f;
    }

    /// Sends to an arbitrary vertex (Pregel allows any target id).
    void SendTo(VertexId dst, const Msg& msg) {
      engine_->QueueMessage(worker_, dst, msg);
    }
    void SendToAllOutNeighbors(const Msg& msg) {
      for (VertexId dst : out_neighbors()) SendTo(dst, msg);
    }

    /// Contributes to the global sum aggregator, readable next superstep.
    void Aggregate(int64_t delta) { engine_->next_aggregate_ += delta; }
    int64_t PrevAggregate() const { return engine_->prev_aggregate_; }

    void VoteToHalt() { engine_->halted_[id_] = 1; }

   private:
    Engine* engine_;
    int worker_;
    VertexId id_;
  };

  using ComputeFn = std::function<void(Context&, std::span<const Msg>)>;
  using CombineFn = std::function<Msg(const Msg&, const Msg&)>;

  Engine(GraphPtr graph, Options options)
      : graph_(std::move(graph)),
        options_(options),
        partition_(Partition::Create(graph_, options.num_workers).value()),
        bus_(options.num_workers),
        values_(graph_->NumVertices()),
        halted_(graph_->NumVertices(), 0),
        inbox_(graph_->NumVertices()) {}

  const Graph& graph() const { return *graph_; }
  Metrics& metrics() { return metrics_; }
  std::vector<VValue>& values() { return values_; }
  const std::vector<VValue>& values() const { return values_; }
  int64_t superstep() const { return superstep_; }

  /// Value of the global sum aggregator from the last completed superstep
  /// (drivers read this after Run to fetch algorithm totals).
  int64_t prev_aggregate() const { return prev_aggregate_; }

  void set_combiner(CombineFn combiner) { combiner_ = std::move(combiner); }

  /// (Re)activates every vertex and clears mailboxes; used when chaining
  /// sub-algorithms Pregel+-style (vertex values carry over).
  void Reset() {
    std::fill(halted_.begin(), halted_.end(), 0);
    for (auto& box : inbox_) box.clear();
    superstep_ = 0;
    prev_aggregate_ = 0;
    next_aggregate_ = 0;
  }

  /// Runs compute supersteps until every vertex halted with no pending
  /// messages (or the cap is reached). Returns the superstep count.
  int64_t Run(const ComputeFn& compute) {
    while (superstep_ < options_.max_supersteps) {
      StepSample sample;
      sample.kind = StepKind::kVertexMap;
      bool any_active = false;
      for (int w = 0; w < options_.num_workers; ++w) {
        StepTally tally;
        {
          obs::ScopedSpan clock(&tally.seconds);
          for (VertexId v : partition_.OwnedVertices(w)) {
            bool has_mail = !inbox_[v].empty();
            if (halted_[v] && !has_mail) continue;
            halted_[v] = 0;
            any_active = true;
            ++tally.verts;
            Context ctx(this, w, v);
            compute(ctx, std::span<const Msg>(inbox_[v]));
            inbox_[v].clear();
          }
        }
        FoldWorkerTally(tally, sample);
      }
      DeliverMessages(&sample);
      if (any_active) {
        // A trailing all-halted superstep must not wipe the aggregator the
        // last real superstep produced (drivers read it after Run).
        prev_aggregate_ = next_aggregate_;
        next_aggregate_ = 0;
      }
      ++superstep_;
      metrics_.AddStep(sample, /*record_steps=*/true);
      if (!any_active && !pending_messages_) break;
    }
    return superstep_;
  }

 private:
  struct Outgoing {
    VertexId dst;
    Msg msg;
  };

  void QueueMessage(int from_worker, VertexId dst, const Msg& msg) {
    auto& queue = outgoing_[from_worker];
    queue.push_back(Outgoing{dst, msg});
    (void)from_worker;
  }

  void DeliverMessages(StepSample* sample) {
    const int m = options_.num_workers;
    // Sender side: combine per destination (Pregel+ early aggregation),
    // serialise cross-worker traffic, deliver local messages directly.
    for (int w = 0; w < m; ++w) {
      auto& queue = outgoing_[w];
      if (combiner_) {
        std::sort(queue.begin(), queue.end(),
                  [](const Outgoing& a, const Outgoing& b) {
                    return a.dst < b.dst;
                  });
        size_t out = 0;
        for (size_t i = 0; i < queue.size();) {
          Msg combined = queue[i].msg;
          size_t j = i + 1;
          while (j < queue.size() && queue[j].dst == queue[i].dst) {
            combined = (*combiner_)(combined, queue[j].msg);
            ++j;
          }
          queue[out++] = Outgoing{queue[i].dst, combined};
          i = j;
        }
        queue.resize(out);
      }
      for (const Outgoing& out : queue) {
        int owner = partition_.Owner(out.dst);
        if (owner == w) {
          inbox_[out.dst].push_back(out.msg);
        } else {
          BufferWriter& channel = bus_.Channel(w, owner);
          channel.WriteVarint(out.dst);
          FieldCodec::Write(channel, out.msg);
          bus_.CountMessages(w, owner);
        }
      }
      queue.clear();
    }
    bus_.Exchange();
    for (int w = 0; w < m; ++w) {
      for (int src = 0; src < m; ++src) {
        if (src == w) continue;
        BufferReader reader(bus_.Incoming(w, src));
        while (!reader.AtEnd()) {
          VertexId dst = static_cast<VertexId>(reader.ReadVarint());
          Msg msg{};
          FieldCodec::Read(reader, msg);
          inbox_[dst].push_back(msg);
        }
      }
    }
    bus_.AddLastExchange(*sample);
    pending_messages_ = false;
    for (const auto& box : inbox_) {
      if (!box.empty()) {
        pending_messages_ = true;
        break;
      }
    }
  }

  GraphPtr graph_;
  Options options_;
  Partition partition_;
  MessageBus bus_;
  Metrics metrics_;

  std::vector<VValue> values_;
  std::vector<uint8_t> halted_;
  std::vector<std::vector<Msg>> inbox_;
  std::vector<std::vector<Outgoing>> outgoing_{
      static_cast<size_t>(options_.num_workers)};
  std::optional<CombineFn> combiner_;
  int64_t superstep_ = 0;
  int64_t prev_aggregate_ = 0;
  int64_t next_aggregate_ = 0;
  bool pending_messages_ = false;
};

}  // namespace flash::baselines::pregel

#endif  // FLASH_BASELINES_PREGEL_ENGINE_H_
