#include "walks/walk_engine.h"

#include <algorithm>
#include <span>
#include <utility>

#include "common/random.h"
#include "common/serialize.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "flashware/fault_injector.h"
#include "flashware/message_bus.h"
#include "graph/partition.h"
#include "obs/tracer.h"

namespace flash {
namespace walks {
namespace {

// Distinct PRNG lanes (xor-folded into the run seed) so the hop proposal,
// geometric termination, and rejection-acceptance draws of one
// (walker, step) coordinate never share a counter key.
constexpr uint64_t kTermLane = 0x7465726D'67656Full;
constexpr uint64_t kAcceptLane = 0x61636365'7074ull;

// Rejection-sampling attempt cap. Acceptance probability per attempt is at
// least min(1/p, 1, 1/q)/max(1/p, 1, 1/q), so 64 attempts make fallback
// (accepting the last proposal) astronomically rare for sane p/q; the cap
// keeps the step loop bounded and the attempt counter keys the PRNG.
constexpr int kMaxRejectionAttempts = 64;

/// In-pool walker state: 16 bytes, sorted by the by-vertex shuffle.
struct Walker {
  uint64_t id = 0;
  VertexId cur = 0;
  VertexId prev = kInvalidVertex;  // node2vec second-order state.
};

/// Single-writer per-worker walk counters, folded at the step barrier.
struct WalkTally {
  uint64_t processed = 0;     // Walkers handled this step.
  uint64_t hops = 0;          // Advances that produced a next vertex.
  uint64_t shuffled = 0;      // Walkers passed through a by-vertex sort.
  uint64_t shipped = 0;       // Cross-partition migrations.
  uint64_t restarts = 0;      // PPR dead-end teleports to the source.
  uint64_t terminations = 0;  // Geometric deaths + dead-end exits.
  uint64_t rejections = 0;    // node2vec rejected proposals.
};

}  // namespace

WalkEngine::WalkEngine(GraphPtr graph, const RuntimeOptions& options)
    : graph_(std::move(graph)), options_(options) {
  FLASH_CHECK(graph_ != nullptr);
  FLASH_CHECK_GE(options_.num_workers, 1);
}

WalkResult WalkEngine::Run(const WalkSpec& spec) {
  const Graph& graph = *graph_;
  const VertexId n = graph.NumVertices();
  const int m = options_.num_workers;
  const uint64_t num_walkers = n == 0 ? 0 : options_.num_walkers;
  const uint32_t walk_length = options_.walk_length;
  const bool node2vec = spec.kind == WalkKind::kNode2Vec;
  const bool ppr = spec.kind == WalkKind::kPpr;

  WalkResult result;
  result.visits.assign(n, 0);
  if (spec.record_traces) result.traces.resize(num_walkers);
  if (num_walkers == 0) return result;
  if (ppr) FLASH_CHECK(spec.ppr_source < n) << "walk source out of range";

  auto part_result = Partition::ForGraph(graph_, m, options_.partition);
  FLASH_CHECK(part_result.ok()) << part_result.status().ToString();
  const Partition& part = *part_result.value();

  // Observability: the caller's tracer, or a private one the result owns.
  if (options_.trace) {
    result.tracer = options_.tracer ? options_.tracer
                                    : std::make_shared<obs::Tracer>();
  }
  obs::Tracer* tracer = result.tracer.get();

  MessageBus bus(m);
  bus.SetTracer(tracer);
  FaultInjector injector(options_.fault_plan);
  if (injector.message_faults()) bus.SetFaultInjector(&injector);
  injector.SetTracer(tracer);

  GraphStorage* storage = graph.storage();
  const bool paged = graph.is_paged();
  if (paged) {
    storage->ApplyRuntimeLimits(options_.edge_cache_bytes,
                                options_.storage_prefetch_depth);
    storage->SetTracer(tracer);
  }

  // One task per worker: walker pools are per-worker single-writer.
  ThreadPool pool(HostThreadCount(m, options_.host_threads));

  // Per-worker single-writer state. A walker lives in the pool of the
  // worker owning its current vertex; `staged` lanes (row-major src*m+dst)
  // stage cross-partition departures for frame encoding.
  std::vector<std::vector<Walker>> pools(m);
  std::vector<std::vector<Walker>> next_pools(m);
  std::vector<std::vector<WalkerRecord>> staged(
      static_cast<size_t>(m) * m);
  std::vector<WalkerFrameScratch> frame_scratch(m);
  std::vector<std::vector<WalkerRecord>> decode_scratch(m);
  std::vector<StepTally> task_tally(m);
  const std::vector<StepTally> worker_tally(m);  // No merge pass here.
  std::vector<WalkTally> walk_tally(m);

  // Walker placement. DeepWalk/node2vec rotate starts over the vertex set
  // (walker i starts at i mod n: num_walkers = k*n gives k walks per
  // vertex); PPR starts every walker at the query source. The start vertex
  // is trace entry 0; its visit is counted when the walker is processed
  // (or drained), never here, so every trace entry is counted exactly once.
  for (uint64_t i = 0; i < num_walkers; ++i) {
    const VertexId start =
        ppr ? spec.ppr_source : static_cast<VertexId>(i % n);
    pools[part.Owner(start)].push_back(Walker{i, start, kInvalidVertex});
    if (spec.record_traces) result.traces[i].push_back(start);
  }
  result.metrics.walks.walkers = num_walkers;
  for (int w = 0; w < m; ++w) next_pools[w].reserve(pools[w].size());

  const double inv_p = 1.0 / options_.node2vec_p;
  const double inv_q = 1.0 / options_.node2vec_q;
  const double accept_bound = std::max(inv_p, std::max(1.0, inv_q));

  uint64_t* const visits = result.visits.data();
  std::vector<VertexId> plan_scratch;

  uint64_t live = num_walkers;
  for (uint32_t step = 0; step < walk_length && live > 0; ++step) {
    if (tracer != nullptr) {
      tracer->SetSuperstep(step);
      tracer->BeginPhase();
    }
    OBS_SPAN_VAR(epoch_span, tracer, "walk:epoch", obs::SpanKind::kSuperstep);

    // Open the storage epoch and plan the blocks this step will touch:
    // every walker's current vertex, plus previous vertices for node2vec's
    // HasEdge probes. Planning sees the exact access set, so the paged
    // backend can sweep or prefetch instead of demand-faulting.
    if (paged) {
      storage->BeginEpoch();
      plan_scratch.clear();
      for (int w = 0; w < m; ++w) {
        for (const Walker& wk : pools[w]) {
          plan_scratch.push_back(wk.cur);
          if (node2vec && wk.prev != kInvalidVertex) {
            plan_scratch.push_back(wk.prev);
          }
        }
      }
      std::sort(plan_scratch.begin(), plan_scratch.end());
      plan_scratch.erase(
          std::unique(plan_scratch.begin(), plan_scratch.end()),
          plan_scratch.end());
      storage->PlanBlocks(plan_scratch, /*out_dir=*/true);
    }

    pool.ParallelForWorkers(m, [&](int w) {
      Timer task_timer;
      WalkTally& wt = walk_tally[w];
      std::vector<Walker>& my_pool = pools[w];

      // FlashMob-style shuffle: sort the pool by (current vertex, walker
      // id) so adjacency reads are sequential/cache-friendly and walkers on
      // one vertex share a single span fetch. The naive baseline skips
      // this and advances walkers in arrival order.
      if (spec.batch_by_vertex && !my_pool.empty()) {
        OBS_SPAN_VAR(shuffle_span, tracer, "walk:shuffle",
                     obs::SpanKind::kTask, w, 0);
        std::sort(my_pool.begin(), my_pool.end(),
                  [](const Walker& a, const Walker& b) {
                    return a.cur != b.cur ? a.cur < b.cur : a.id < b.id;
                  });
        wt.shuffled += my_pool.size();
        shuffle_span.args(my_pool.size(), 0);
      }

      // Advance one walker given its current adjacency. Every draw is a
      // pure function of (seed, walker id, step[, attempt]) — never of
      // schedule, pool order, or backend — which is the entire
      // determinism contract.
      auto advance = [&](Walker& wk, std::span<const VertexId> nbrs) {
        ++wt.processed;
        visits[wk.cur] += 1;  // Arrival count; owner-exclusive slot.
        if (ppr && CounterUniform(spec.seed ^ kTermLane, wk.id, step) <
                       spec.ppr_alpha) {
          ++wt.terminations;
          return;
        }
        VertexId next;
        VertexId next_prev = wk.cur;
        if (nbrs.empty()) {
          if (!ppr) {
            ++wt.terminations;  // Dead end: the walk ends here.
            return;
          }
          next = spec.ppr_source;  // Dangling mass teleports to the
          next_prev = kInvalidVertex;  // source, like the push oracle.
          ++wt.restarts;
        } else if (node2vec && wk.prev != kInvalidVertex) {
          const uint64_t deg = nbrs.size();
          VertexId x = 0;
          for (int attempt = 0;; ++attempt) {
            x = nbrs[CounterBounded(deg, spec.seed, wk.id, step,
                                    static_cast<uint64_t>(attempt))];
            const double weight =
                x == wk.prev
                    ? inv_p
                    : (graph.HasEdge(wk.prev, x) ? 1.0 : inv_q);
            const double u =
                CounterUniform(spec.seed ^ kAcceptLane, wk.id, step,
                               static_cast<uint64_t>(attempt));
            if (u * accept_bound < weight ||
                attempt + 1 >= kMaxRejectionAttempts) {
              break;
            }
            ++wt.rejections;
          }
          next = x;
        } else {
          next = nbrs[CounterBounded(nbrs.size(), spec.seed, wk.id, step)];
        }
        ++wt.hops;
        if (spec.record_traces) result.traces[wk.id].push_back(next);
        const int dst = part.Owner(next);
        if (dst == w) {
          next_pools[w].push_back(Walker{wk.id, next, next_prev});
        } else {
          staged[static_cast<size_t>(w) * m + dst].push_back(WalkerRecord{
              next, wk.id,
              node2vec && next_prev != kInvalidVertex
                  ? next_prev
                  : WalkerRecord::kNoPrev});
          ++wt.shipped;
        }
      };

      if (spec.batch_by_vertex) {
        // Grouped advance: one adjacency fetch per distinct vertex.
        size_t i = 0;
        const size_t sz = my_pool.size();
        while (i < sz) {
          const VertexId cur = my_pool[i].cur;
          size_t j = i + 1;
          while (j < sz && my_pool[j].cur == cur) ++j;
          const std::span<const VertexId> nbrs =
              graph.OutDegree(cur) > 0 ? graph.OutNeighbors(cur)
                                       : std::span<const VertexId>{};
          for (size_t k = i; k < j; ++k) advance(my_pool[k], nbrs);
          i = j;
        }
      } else {
        for (Walker& wk : my_pool) {
          const std::span<const VertexId> nbrs =
              graph.OutDegree(wk.cur) > 0 ? graph.OutNeighbors(wk.cur)
                                          : std::span<const VertexId>{};
          advance(wk, nbrs);
        }
      }

      // Frame the departures. Batched mode ships one sorted frame per
      // channel; the naive baseline pays a frame (header + checksum) per
      // walker, exactly the per-walker cost FlashMob's batching removes.
      // Message accounting counts *frames* — the discrete wire sends the
      // network charges dispatch overhead on (the cost model prices them
      // at ns_per_wire_frame); per-walker record counts are in
      // WalkStats::walkers_shipped.
      for (int dst = 0; dst < m; ++dst) {
        if (dst == w) continue;
        std::vector<WalkerRecord>& lane =
            staged[static_cast<size_t>(w) * m + dst];
        if (lane.empty()) continue;
        BufferWriter& channel = bus.Channel(w, dst);
        if (spec.batch_by_vertex) {
          std::sort(lane.begin(), lane.end(),
                    [](const WalkerRecord& a, const WalkerRecord& b) {
                      return a.cur != b.cur ? a.cur < b.cur : a.id < b.id;
                    });
          wt.shuffled += lane.size();
          EncodeWalkerFrame(channel, lane.data(), lane.size(),
                            frame_scratch[w]);
          bus.CountMessages(w, dst, 1);
        } else {
          for (const WalkerRecord& rec : lane) {
            EncodeWalkerFrame(channel, &rec, 1, frame_scratch[w]);
          }
          bus.CountMessages(w, dst, lane.size());
        }
        lane.clear();
      }

      StepTally& tally = task_tally[w];
      tally.verts += wt.processed;
      tally.edges += wt.shuffled;
      tally.seconds += task_timer.Seconds();
    });

    // Barrier: ship the frames, then decode arrivals per destination (src
    // order, then record order — deterministic at any host thread count).
    bus.Exchange();
    pool.ParallelForWorkers(m, [&](int dst) {
      std::vector<WalkerRecord>& records = decode_scratch[dst];
      records.clear();
      for (int src = 0; src < m; ++src) {
        if (src == dst) continue;
        const std::vector<uint8_t>& buf = bus.Incoming(dst, src);
        if (buf.empty()) continue;
        BufferReader reader(buf);
        while (!reader.AtEnd()) {
          const Status st = DecodeWalkerFrame(reader, n, &records);
          FLASH_CHECK(st.ok()) << "walker frame: " << st.ToString();
        }
      }
      for (const WalkerRecord& rec : records) {
        next_pools[dst].push_back(
            Walker{rec.id, rec.cur,
                   rec.prev == WalkerRecord::kNoPrev
                       ? kInvalidVertex
                       : static_cast<VertexId>(rec.prev)});
      }
    });

    // Fold the step: counters first, then the storage epoch (the paged
    // backend bills this step's planned + demand block I/O here).
    StepSample sample;
    sample.kind = StepKind::kWalkStep;
    sample.frontier_in = static_cast<uint32_t>(
        std::min<uint64_t>(live, UINT32_MAX));
    FoldTallies(task_tally, /*shards_per_worker=*/1, worker_tally, sample);
    sample.bytes_total = bus.LastTotalBytes();
    sample.bytes_max = bus.LastMaxWorkerBytes();
    sample.msgs_total = bus.LastMessages();
    if (paged) {
      const EpochIo io = storage->EndEpoch();
      sample.storage_bytes = io.bytes;
      sample.storage_blocks = io.blocks;
      sample.storage_decode_bytes = io.decode_bytes;
      result.metrics.storage = storage->stats();
    }

    WalkStats& ws = result.metrics.walks;
    ws.steps += 1;
    for (int w = 0; w < m; ++w) {
      WalkTally& wt = walk_tally[w];
      ws.walker_steps += wt.hops;
      ws.shuffle_entries += wt.shuffled;
      ws.walkers_shipped += wt.shipped;
      ws.restarts += wt.restarts;
      ws.terminations += wt.terminations;
      ws.rejections += wt.rejections;
      wt = WalkTally{};
      task_tally[w] = StepTally{};
      // Swap rather than move: both pools keep their capacity, so no step
      // regrows a walker vector on whichever pool thread runs it.
      pools[w].swap(next_pools[w]);
      next_pools[w].clear();
    }
    ws.frame_bytes += sample.bytes_total;

    live = 0;
    for (int w = 0; w < m; ++w) live += pools[w].size();
    sample.frontier_out = static_cast<uint32_t>(
        std::min<uint64_t>(live, UINT32_MAX));
    epoch_span.args(sample.frontier_in, sample.frontier_out);
    result.metrics.AddStep(sample, options_.record_steps);
    if (tracer != nullptr) tracer->Fold();
  }

  // Drain: walkers still alive sit on their final vertex, which no further
  // step will count — count it here (owner-exclusive, like every visit).
  pool.ParallelForWorkers(m, [&](int w) {
    for (const Walker& wk : pools[w]) visits[wk.cur] += 1;
  });

  uint64_t total = 0;
  for (VertexId v = 0; v < n; ++v) total += result.visits[v];
  result.total_visits = total;

  if (injector.stats().Any()) result.metrics.fault = injector.stats();
  result.metrics.wire_pool_peak_bytes =
      std::max(result.metrics.wire_pool_peak_bytes, bus.PoolPeakBytes());
  // The graph may outlive the tracer (result-owned when engine-made).
  if (paged) storage->SetTracer(nullptr);
  if (tracer != nullptr) tracer->Fold();
  return result;
}

}  // namespace walks
}  // namespace flash
