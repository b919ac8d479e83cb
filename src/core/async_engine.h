#ifndef FLASH_CORE_ASYNC_ENGINE_H_
#define FLASH_CORE_ASYNC_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <type_traits>
#include <vector>

#include "common/serialize.h"
#include "core/detail.h"
#include "core/engine.h"
#include "flashware/metrics.h"
#include "obs/tracer.h"

namespace flash {

/// Convergence contract an asynchronous program declares (checked nowhere,
/// relied upon everywhere):
///
///  - kIdempotent: Apply folds messages with an idempotent, commutative,
///    order-insensitive operator (min/max over a well-founded domain). The
///    fixpoint is unique, so an async run is *bit-identical* to the BSP
///    oracle — at any host thread count, under any message-fault plan.
///  - kAccumulative: Apply accumulates (+=-style). The fixpoint depends on
///    the relaxation schedule, so async results are deterministic (the
///    logical schedule is fixed by the options, never by host threads) and
///    converge to the BSP fixpoint within the program's tolerance, but are
///    not bit-equal to it.
enum class Monotonicity {
  kIdempotent,
  kAccumulative,
};

namespace internal {
/// Mask tag stamped on async message frames. Async payloads are raw
/// Program::Message PODs, not SerializeFields records, so the frame's mask
/// slot is free to carry a format tag the receiver validates.
inline constexpr uint32_t kAsyncFrameMask = 0xA5u;
/// "Not queued" sentinel in the per-vertex priority table.
inline constexpr uint32_t kAsyncNotQueued = std::numeric_limits<uint32_t>::max();
/// Priorities are clamped here so a pathological Priority() cannot allocate
/// unbounded bucket arrays.
inline constexpr uint32_t kAsyncMaxPriority = 1u << 22;
}  // namespace internal

/// The asynchronous priority-driven execution backend — a sibling of the
/// BSP superstep loop that drives the same simulated cluster (stores,
/// partition, message bus, host pool, metrics, tracer) without a global
/// barrier per step.
///
/// A Program binds an algorithm to the scheduler:
///
///   struct Program {
///     using Message = <trivially copyable POD>;
///     static constexpr Monotonicity kMonotonicity = ...;
///     // Vertex u is dequeued from its bucket. May mutate the owner state
///     // (e.g. push-PPR drains the residual here) — the vertex is marked
///     // for the final mirror sync on dequeue, before the hook runs.
///     // Return false to skip edge relaxation.
///     bool OnDequeue(VData& s, VertexId u);
///     // Builds the message for edge (u, dst); return false to skip it.
///     bool Gen(const VData& s, VertexId u, VertexId dst, float w, Message& m);
///     // Folds a message into the *owner* state of dst; return true when
///     // the state improved and dst must be (re)scheduled.
///     bool Apply(const Message& m, VData& d, VertexId dst);
///     // Bucket of a just-improved vertex (delta-stepping distance range,
///     // BFS level, or 0 for FIFO programs).
///     uint32_t Priority(const VData& d, VertexId v);
///   };
///
/// Execution model. Owned vertices live in per-worker priority buckets.
/// Each micro-round every worker independently drains its *own* lowest
/// non-empty bucket to a local fixpoint (relaxed barrier: no global
/// agreement on the priority, no waiting for stragglers), streaming
/// cross-worker messages into per-destination WireBatch frames; one bus
/// exchange delivers them; receivers fold inbound messages in (source
/// channel, record) order and requeue improved vertices. The logical
/// schedule — bucket contents, message order, every Apply — is a function
/// of (num_workers, partition, program) alone, so results, wire bytes, and
/// counters are bit-identical at any host_threads, exactly like the BSP
/// engine's invariant.
///
/// Termination is detected by counter conservation over the exact
/// per-channel MessageBus totals: global quiescence holds iff every worker
/// is idle and sent == received == applied on every channel. The check is
/// modelled as a token sweep (initiated when the initiator goes idle; a
/// circuit completes only when all workers pass the idle test) and billed
/// by the cost model per completed circuit — async runs pay token sweeps
/// plus one final mirror-sync barrier instead of a barrier per superstep.
///
/// Message faults (drop/duplicate/reorder plans) are supported: the
/// seq/ack transport reassembles channel payloads byte-identically, so
/// logical message counts conserve exactly. Crash/checkpoint schedules are
/// not (async mutates state between barriers, outside the redo-log
/// protocol) and are rejected.
template <typename VData, typename Program>
class AsyncEngine {
 public:
  using Message = typename Program::Message;
  static_assert(std::is_trivially_copyable_v<Message>,
                "async messages travel the wire as raw PODs");

  AsyncEngine(GraphApi<VData>& api, Program& program)
      : api_(api),
        runtime_(api.runtime_),
        prog_(program),
        num_workers_(api.options_.num_workers),
        num_vertices_(api.graph_->NumVertices()) {
    RuntimeOptions async_options = api.options_;
    async_options.execution_mode = ExecutionMode::kAsync;
    FLASH_CHECK_OK(CheckRuntimeOptions(async_options, RuntimeSurface::kGraph));
    queued_prio_.assign(num_vertices_, internal::kAsyncNotQueued);
    touched_flag_.assign(num_vertices_, 0);
    buckets_.resize(num_workers_);
    counts_.resize(num_workers_);
    floor_.assign(num_workers_, 0);
    total_queued_.assign(num_workers_, 0);
    touched_.resize(num_workers_);
    worker_seconds_.assign(num_workers_, 0.0);
    lanes_.resize(num_workers_);
    for (auto& lanes : lanes_) lanes.resize(num_workers_);
    ids_scratch_.resize(num_workers_);
    const size_t channels =
        static_cast<size_t>(num_workers_) * num_workers_;
    sent_base_.assign(channels, 0);
    received_.assign(channels, 0);
    applied_.assign(channels, 0);
    inserts_.assign(num_workers_, 0);
    drains_.assign(num_workers_, 0);
    prev_inserts_.assign(num_workers_, 0);
    prev_drains_.assign(num_workers_, 0);
  }

  AsyncEngine(const AsyncEngine&) = delete;
  AsyncEngine& operator=(const AsyncEngine&) = delete;

  /// Schedules vertex `v` on its owner's buckets (host thread, before
  /// Run()). The vertex state must already be initialised — typically by
  /// BSP VertexMap supersteps, whose commit barrier also synced mirrors.
  void Seed(VertexId v) {
    FLASH_CHECK_LT(v, num_vertices_);
    const int w = api_.partition().Owner(v);
    Enqueue(w, v, prog_.Priority(api_.stores_[w].Current(v), v));
  }

  /// Runs relaxed micro-rounds to global quiescence, then ships every
  /// touched master's critical fields to its mirrors in one final barrier
  /// so subsequent primitives (and mirrors-reading extractions) observe the
  /// fixpoint. Fills Metrics::async and appends per-round step samples.
  void Run() {
    for (int src = 0; src < num_workers_; ++src) {
      for (int dst = 0; dst < num_workers_; ++dst) {
        if (src == dst) continue;
        sent_base_[Channel(src, dst)] =
            runtime_.bus().ChannelMessagesTotal(src, dst);
      }
    }
    AsyncStats& stats = api_.metrics_.async;
    while (true) {
      bool any_work = false;
      for (int w = 0; w < num_workers_; ++w) any_work |= total_queued_[w] > 0;
      if (!any_work) {
        // Every worker passed the idle test as the token visited it: one
        // detection circuit completes, and the counters it gathered must
        // conserve (the bus delivered everything that was framed). A second
        // circuit confirms no message raced past the token.
        stats.token_sweeps += 2;
        ObsTokenSweep();
        CheckConservation();
        break;
      }
      RunRound();
      ++stats.rounds;
    }
    stats.msgs_received = 0;
    stats.msgs_applied = 0;
    stats.msgs_sent = 0;
    for (int src = 0; src < num_workers_; ++src) {
      for (int dst = 0; dst < num_workers_; ++dst) {
        if (src == dst) continue;
        stats.msgs_sent += runtime_.bus().ChannelMessagesTotal(src, dst) -
                           sent_base_[Channel(src, dst)];
        stats.msgs_received += received_[Channel(src, dst)];
        stats.msgs_applied += applied_[Channel(src, dst)];
      }
    }
    stats.relaxations = 0;
    stats.bucket_inserts = 0;
    for (int w = 0; w < num_workers_; ++w) {
      stats.comp_seconds_max =
          std::max(stats.comp_seconds_max, worker_seconds_[w]);
      stats.relaxations += drains_[w];
      stats.bucket_inserts += inserts_[w];
    }
    FinalMirrorSync();
  }

 private:
  using Api = GraphApi<VData>;
  using WireLane = typename Api::WireLane;

  size_t Channel(int src, int dst) const {
    return static_cast<size_t>(src) * num_workers_ + dst;
  }

  /// Queues `v` on worker `w` at priority `p`, deduplicating against an
  /// existing queue entry: an equal-or-lower queued priority wins (the
  /// entry will be processed no later anyway); a higher one is superseded —
  /// its bucket entry goes stale and is skipped at dequeue.
  void Enqueue(int w, VertexId v, uint32_t p) {
    p = std::min(p, internal::kAsyncMaxPriority);
    const uint32_t old = queued_prio_[v];
    if (old != internal::kAsyncNotQueued) {
      if (old <= p) return;
      --counts_[w][old];
      --total_queued_[w];
    }
    if (buckets_[w].size() <= p) {
      buckets_[w].resize(p + 1);
      counts_[w].resize(p + 1, 0);
    }
    buckets_[w][p].push_back(v);
    ++counts_[w][p];
    ++total_queued_[w];
    ++inserts_[w];
    queued_prio_[v] = p;
    floor_[w] = std::min(floor_[w], p);
  }

  void Touch(int w, VertexId v) {
    if (!touched_flag_[v]) {
      touched_flag_[v] = 1;
      touched_[w].push_back(v);
    }
  }

  /// One relaxed micro-round: per-worker lowest-bucket drain (+ frame
  /// flush), one bus exchange, per-worker inbound fold. The only global
  /// rendezvous is the simulated exchange — the cost model prices it as a
  /// point-to-point drain, not a barrier.
  void RunRound() {
    obs::Tracer* const tracer = runtime_.tracer();
    const uint64_t round_begin_ns = tracer != nullptr ? tracer->NowNs() : 0;
    StepSample sample;
    sample.kind = StepKind::kAsyncRound;
    api_.ResetTallies();
    prev_inserts_ = inserts_;
    prev_drains_ = drains_;
    // Plan-ahead paging: each round's block set is knowable before its drain
    // starts — exactly the live entries of every worker's lowest non-empty
    // bucket. Hand that set to the paged backend as a plan so its blocks
    // load on the pool before the drain instead of demand-faulting inside
    // it. Disabled (async_plan_blocks=false) the engine reverts to pure
    // demand paging, billing its reads to the next BSP barrier — the
    // pre-plan baseline the storage bench compares against. Pure
    // bookkeeping either way: results never change.
    const bool planned = runtime_.paged() && api_.options_.async_plan_blocks;
    if (planned) {
      runtime_.OpenEpoch();
      plan_scratch_.clear();
      for (int w = 0; w < num_workers_; ++w) {
        if (total_queued_[w] == 0) continue;
        uint32_t b = floor_[w];
        while (b < counts_[w].size() && counts_[w][b] == 0) ++b;
        if (b >= counts_[w].size()) continue;
        for (const VertexId v : buckets_[w][b]) {
          if (queued_prio_[v] == b) plan_scratch_.push_back(v);
        }
      }
      runtime_.storage()->PlanBlocks(runtime_.pool(), plan_scratch_,
                                     /*out_dir=*/true);
    }
    // Async drains are per-worker sequential tasks: each worker's drain and
    // apply both tally into its WorkerScratch slot.
    api_.RunPerWorker("async:drain", Api::Priced::kYes, [&](int w) {
      StepTally& tally = api_.worker_scratch_[w].tally;
      tally.edges = DrainLowestBucket(w);
      tally.verts = drains_[w] - prev_drains_[w];
      api_.FlushLanes(w, lanes_[w], internal::kAsyncFrameMask);
    });
    runtime_.bus().Exchange();
    runtime_.bus().AddLastExchange(sample);
    api_.RunPerWorker("async:apply", Api::Priced::kYes, [&](int w) {
      api_.worker_scratch_[w].tally.verts += ApplyInbound(w);
    });
    if (planned) runtime_.CloseEpoch(sample, api_.metrics_);
    api_.FoldTallies(sample);
    for (int w = 0; w < num_workers_; ++w) {
      worker_seconds_[w] += api_.worker_scratch_[w].tally.seconds;
    }
    uint64_t drained = 0;
    uint64_t enqueued = 0;
    for (int w = 0; w < num_workers_; ++w) {
      drained += drains_[w] - prev_drains_[w];
      enqueued += inserts_[w] - prev_inserts_[w];
    }
    sample.frontier_in = static_cast<uint32_t>(
        std::min<uint64_t>(drained, std::numeric_limits<uint32_t>::max()));
    sample.frontier_out = static_cast<uint32_t>(
        std::min<uint64_t>(enqueued, std::numeric_limits<uint32_t>::max()));
    AddRound(sample);
    api_.UpdateWirePoolPeak();
    runtime_.SyncFaultStats(api_.metrics_);
    if (tracer != nullptr) {
      tracer->SetSuperstep(api_.metrics_.supersteps);
      tracer->BeginPhase();
      tracer->Record("async:round", obs::SpanKind::kAsyncRound, obs::kHostLane,
                     -1, round_begin_ns, tracer->NowNs(), sample.frontier_in,
                     sample.frontier_out);
      tracer->Fold();
    }
  }

  /// Accounts one micro-round. Deliberately *not* Metrics::AddStep: rounds
  /// end in a relaxed drain, not a barrier, so they do not count as BSP
  /// supersteps (and the cost model prices kAsyncRound samples without the
  /// per-step barrier and straggler terms).
  void AddRound(const StepSample& sample) {
    Metrics& m = api_.metrics_;
    m.edges_scanned += sample.edges_total;
    m.vertices_updated += sample.verts_total;
    m.messages += sample.msgs_total;
    m.bytes += sample.bytes_total;
    m.storage_bytes_read += sample.storage_bytes;
    m.storage_blocks_read += sample.storage_blocks;
    m.storage_decode_bytes += sample.storage_decode_bytes;
    if (api_.options_.record_steps) m.steps.push_back(sample);
  }

  /// Drains worker `w`'s lowest non-empty bucket to a *local* fixpoint:
  /// same-priority local improvements are appended to the live bucket and
  /// processed in this very drain, so a chain confined to one partition
  /// crosses it in a single round. Returns edges examined.
  uint64_t DrainLowestBucket(int w) {
    if (total_queued_[w] == 0) return 0;
    uint32_t b = floor_[w];
    while (b < counts_[w].size() && counts_[w][b] == 0) ++b;
    if (b >= counts_[w].size()) {
      floor_[w] = static_cast<uint32_t>(counts_[w].size());
      return 0;
    }
    const Graph& graph = *api_.graph_;
    const bool weighted = graph.is_weighted();
    VertexStore<VData>& store = api_.stores_[w];
    const Partition& partition = api_.partition();
    std::vector<WireLane>& lanes = lanes_[w];
    uint64_t edges = 0;
    Message msg;
    // Index loop, re-indexed each access: Enqueue may append to (and
    // reallocate) the live bucket, or grow buckets_[w] itself — either
    // invalidates any reference held across the call.
    for (size_t i = 0; i < buckets_[w][b].size(); ++i) {
      const VertexId v = buckets_[w][b][i];
      if (queued_prio_[v] != b) continue;  // Superseded by a lower bucket.
      queued_prio_[v] = internal::kAsyncNotQueued;
      --counts_[w][b];
      --total_queued_[w];
      ++drains_[w];
      VData& state = store.DirectCurrent(v);
      Touch(w, v);  // OnDequeue may mutate even when skipping the edges.
      if (!prog_.OnDequeue(state, v)) continue;
      const auto neighbors = graph.OutNeighbors(v);
      const auto weights =
          weighted ? graph.OutWeights(v) : std::span<const float>{};
      for (size_t e = 0; e < neighbors.size(); ++e) {
        ++edges;
        const VertexId dst = neighbors[e];
        const float weight = weighted ? weights[e] : 1.0f;
        if (!prog_.Gen(state, v, dst, weight, msg)) continue;
        const int owner = partition.Owner(dst);
        if (owner == w) {
          VData& d = store.DirectCurrent(dst);
          if (prog_.Apply(msg, d, dst)) {
            Touch(w, dst);
            Enqueue(w, dst, prog_.Priority(d, dst));
          }
        } else {
          WireLane& lane = lanes[owner];
          lane.ids.push_back(dst);
          lane.payload.WritePod(msg);
        }
      }
    }
    buckets_[w][b].clear();
    floor_[w] = b + 1;
    // Local Apply may have scheduled below b + 1? Impossible for positive
    // edge weights (priorities are monotone along relaxations), but remote
    // folds between rounds can — they lower floor_ through Enqueue.
    return edges;
  }

  /// Folds worker `w`'s inbound frames in (source channel, record) order —
  /// the deterministic application order — counting every decoded message
  /// into the conservation ledger. Returns messages applied.
  uint64_t ApplyInbound(int w) {
    VertexStore<VData>& store = api_.stores_[w];
    uint64_t applied = 0;
    for (int src = 0; src < num_workers_; ++src) {
      if (src == w) continue;
      const std::vector<uint8_t>& buffer = runtime_.bus().Incoming(w, src);
      if (buffer.empty()) continue;
      BufferReader reader(buffer);
      std::vector<WireId>& ids = ids_scratch_[w];
      while (!reader.AtEnd()) {
        ids.clear();
        const Status st = ReadWireFrame(reader, internal::kAsyncFrameMask,
                                        num_vertices_, &ids);
        FLASH_CHECK(st.ok()) << "async frame " << src << "->" << w << ": "
                             << st.ToString();
        const size_t channel = Channel(src, w);
        received_[channel] += ids.size();
        for (const WireId id : ids) {
          const VertexId v = static_cast<VertexId>(id);
          FLASH_DCHECK(api_.partition().Owner(v) == w);
          const Message msg = reader.ReadPod<Message>();
          VData& d = store.DirectCurrent(v);
          if (prog_.Apply(msg, d, v)) {
            Touch(w, v);
            Enqueue(w, v, prog_.Priority(d, v));
          }
          ++applied_[channel];
          ++applied;
        }
      }
    }
    return applied;
  }

  /// The exact-counter quiescence predicate: sent == received == applied on
  /// every channel since Run() began. The simulated exchange delivers
  /// whatever was framed, and the fault-injected transport reassembles
  /// payloads byte-identically, so a mismatch here is an engine bug, not a
  /// racy transient — hence a CHECK rather than a retry.
  void CheckConservation() const {
    for (int src = 0; src < num_workers_; ++src) {
      for (int dst = 0; dst < num_workers_; ++dst) {
        if (src == dst) continue;
        const size_t channel = Channel(src, dst);
        const uint64_t sent = runtime_.bus().ChannelMessagesTotal(src, dst) -
                              sent_base_[channel];
        FLASH_CHECK(sent == received_[channel] &&
                    received_[channel] == applied_[channel])
            << "async termination: channel " << src << "->" << dst
            << " violates conservation: sent=" << sent
            << " received=" << received_[channel]
            << " applied=" << applied_[channel];
      }
    }
  }

  void ObsTokenSweep() {
    obs::Tracer* const tracer = runtime_.tracer();
    if (tracer == nullptr) return;
    tracer->BeginPhase();
    tracer->Instant("async:token_sweep", obs::SpanKind::kTokenSweep,
                    obs::kHostLane, -1, api_.metrics_.async.rounds,
                    api_.metrics_.async.token_sweeps);
    tracer->Fold();
  }

  /// The one real barrier an async run pays: ships every touched master's
  /// critical fields to the workers that mirror it, so replicas are
  /// consistent for whatever BSP primitives follow. Serialize-once fan-out,
  /// ascending ids (densest delta frames), billed as an aggregate superstep.
  void FinalMirrorSync() {
    api_.ObsBeginSuperstep();
    StepSample sample;
    sample.kind = StepKind::kAggregate;
    const uint32_t mask = api_.SyncMask();
    const bool broadcast = api_.BroadcastsMirrors();
    uint64_t committed = 0;
    api_.RunPerWorker("async:sync", Api::Priced::kNo, [&](int w) {
      std::vector<VertexId>& touched = touched_[w];
      std::sort(touched.begin(), touched.end());
      const VertexStore<VData>& store = api_.stores_[w];
      api_.ShipMasters(w, touched, mask, broadcast, nullptr,
                       [&](const auto& ship) {
                         for (const VertexId v : touched) {
                           ship(v, store.Current(v));
                         }
                       });
    });
    for (int w = 0; w < num_workers_; ++w) committed += touched_[w].size();
    runtime_.bus().Exchange();
    api_.RunPerWorker("async:sync_apply", Api::Priced::kNo, [&](int w) {
      for (int src = 0; src < num_workers_; ++src) {
        if (src == w) continue;
        api_.ApplyMirrorFrame(w, mask, runtime_.bus().Incoming(w, src));
      }
    });
    runtime_.bus().AddLastExchange(sample);
    sample.verts_total = committed;
    api_.metrics_.masters_committed += committed;
    api_.UpdateWirePoolPeak();
    api_.metrics_.AddStep(sample, api_.options_.record_steps);
    api_.ObsEndSuperstep(sample);
    runtime_.SyncFaultStats(api_.metrics_);
  }

  Api& api_;
  Runtime& runtime_;  // api_'s simulated cluster.
  Program& prog_;
  const int num_workers_;
  const VertexId num_vertices_;

  // Scheduler state. queued_prio_/touched_flag_ are global per-vertex
  // tables, but each worker only ever touches its owned vertices' entries
  // (ownership is disjoint), so concurrent per-worker tasks never contend.
  std::vector<uint32_t> queued_prio_;
  std::vector<uint8_t> touched_flag_;
  std::vector<std::vector<std::vector<VertexId>>> buckets_;  // [w][prio]
  std::vector<std::vector<uint32_t>> counts_;  // Valid entries per bucket.
  std::vector<uint32_t> floor_;      // Lowest possibly-non-empty bucket.
  std::vector<uint64_t> total_queued_;
  std::vector<std::vector<VertexId>> touched_;
  std::vector<double> worker_seconds_;  // Cumulative per-worker compute.
  std::vector<std::vector<WireLane>> lanes_;  // [src][dst] outbound lanes.
  std::vector<std::vector<WireId>> ids_scratch_;
  std::vector<VertexId> plan_scratch_;  // Round plan ids (host thread only).

  // Conservation ledger: per-channel counters since Run() began.
  std::vector<uint64_t> sent_base_;
  std::vector<uint64_t> received_;
  std::vector<uint64_t> applied_;
  // Cumulative per-worker scheduler counters plus the snapshot taken at
  // round entry (their deltas are the round's frontier in/out).
  std::vector<uint64_t> inserts_;
  std::vector<uint64_t> drains_;
  std::vector<uint64_t> prev_inserts_;
  std::vector<uint64_t> prev_drains_;
};

/// Convenience driver: seeds `seeds` and runs `program` on `api`'s cluster
/// to quiescence under the async backend.
template <typename VData, typename Program>
void AsyncRun(GraphApi<VData>& api, Program& program,
              const std::vector<VertexId>& seeds) {
  AsyncEngine<VData, Program> engine(api, program);
  for (const VertexId v : seeds) engine.Seed(v);
  engine.Run();
}

}  // namespace flash

#endif  // FLASH_CORE_ASYNC_ENGINE_H_
