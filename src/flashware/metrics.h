#ifndef FLASH_FLASHWARE_METRICS_H_
#define FLASH_FLASHWARE_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/storage.h"

namespace flash {

/// Kind of primitive that ran a superstep; recorded in the trace.
enum class StepKind : uint8_t {
  kVertexMap,
  kEdgeMapDense,
  kEdgeMapSparse,
  kAggregate,   // SIZE / reductions / subset bitmap exchanges.
  kAsyncRound,  // One relaxed micro-round of the async engine (no barrier).
  kWalkStep,    // One synchronous step of the random-walk engine: every
                // live walker advances one hop (src/walks/walk_engine.h).
};

/// One BSP superstep's worth of counters, with per-worker maxima retained so
/// the cost model can account for load imbalance (the slowest worker gates a
/// synchronous superstep).
struct StepSample {
  StepKind kind = StepKind::kVertexMap;
  uint32_t frontier_in = 0;    // |U| entering the primitive.
  uint32_t frontier_out = 0;   // |Out| produced.
  uint64_t edges_total = 0;    // Edge examinations, all workers.
  uint64_t edges_max = 0;      // ... of the busiest worker.
  uint64_t verts_total = 0;    // Vertex updates/evaluations, all workers.
  uint64_t verts_max = 0;
  uint64_t bytes_total = 0;    // Serialised payload bytes shipped.
  uint64_t bytes_max = 0;      // Busiest worker's max(sent, received).
  uint64_t msgs_total = 0;     // Vertex-level messages shipped.
  /// Measured single-threaded compute seconds of this superstep: the
  /// busiest worker and the sum over workers. Captures user-function cost
  /// (list intersections, recursion) that edge counters cannot see; the
  /// cost model prices cluster compute from these.
  double comp_max = 0;
  double comp_total = 0;
  /// Edge-block file bytes/blocks read from the storage tier during this
  /// superstep's epoch (paged backend only; zero for in-memory graphs).
  /// Counted exactly like wire bytes: deterministic at any host threads.
  uint64_t storage_bytes = 0;
  uint64_t storage_blocks = 0;
  /// Decoded payload bytes those block reads produced (the varint-delta
  /// payloads expand to 4-byte ids, so this exceeds storage_bytes).
  uint64_t storage_decode_bytes = 0;
};

/// Single-writer work tallies for one (worker, shard) compute task or one
/// per-worker merge pass of a superstep phase. Concurrent tasks each fill
/// their own slot — never a shared StepSample — and FoldTallies aggregates
/// after the phase barrier on one thread.
struct StepTally {
  uint64_t edges = 0;    // Edge examinations.
  uint64_t verts = 0;    // Vertex evaluations / updates applied.
  double seconds = 0;    // Measured task time.
};

/// Aggregates per-task tallies (shards_per_worker slots per worker, laid
/// out worker-major) plus per-worker merge tallies into `sample`'s
/// total/max fields. A worker's compute seconds are the sum of its shard
/// tasks and its merge pass — the single-threaded time a real worker would
/// spend, regardless of how the host scheduled the tasks.
void FoldTallies(const std::vector<StepTally>& task_tally,
                 int shards_per_worker,
                 const std::vector<StepTally>& worker_tally,
                 StepSample& sample);

/// Fault-injection and recovery counters of one run. All zero when the run
/// executed without a FaultPlan. Transport counters are at fragment
/// granularity (the unit the simulated unreliable wire drops, duplicates,
/// and reorders); checkpoint counters are in serialised bytes. Counters are
/// written only between superstep phases (inside Exchange() and at primitive
/// entry), so they are deterministic for a given plan at any host thread
/// count — the fault property tests assert exact equality across replays.
struct FaultStats {
  // Transport (MessageBus::Exchange under a FaultInjector).
  uint64_t fragments_sent = 0;   // Distinct payload fragments offered.
  uint64_t drops = 0;            // Fragment transmissions lost by the wire.
  uint64_t duplicates = 0;       // Extra deliveries injected by the wire.
  uint64_t reorders = 0;         // Fragments that arrived out of seq order.
  uint64_t retries = 0;          // Retransmissions after a missing ack.
  uint64_t escalations = 0;      // Retry budget exhausted -> recovery resend.
  // Checkpoint / crash recovery.
  uint64_t checkpoints = 0;        // Snapshots taken.
  uint64_t checkpoint_bytes = 0;   // Sealed snapshot bytes written.
  uint64_t restores = 0;           // Worker states rebuilt after a crash.
  uint64_t restored_bytes = 0;     // Snapshot bytes read back.
  uint64_t replayed_records = 0;   // Redo-log vertex records reapplied.
  uint64_t replayed_bytes = 0;     // Redo-log bytes consumed by replays.

  bool operator==(const FaultStats&) const = default;

  bool Any() const {
    return fragments_sent | drops | duplicates | reorders | retries |
           escalations | checkpoints | checkpoint_bytes | restores |
           restored_bytes | replayed_records | replayed_bytes;
  }

  std::string ToString() const;
};

/// Counters of one async-engine run (core/async_engine.h). All zero for
/// pure-BSP runs. Message counters are exact and must conserve — the
/// engine's termination detection declares quiescence only when
/// msgs_sent == msgs_received == msgs_applied on every channel, and the
/// equivalence tests assert the same equality on these totals. Updated only
/// between micro-round phases (host thread), so the counters are
/// deterministic at any host thread count.
struct AsyncStats {
  uint64_t rounds = 0;        // Relaxed micro-rounds executed.
  uint64_t token_sweeps = 0;  // Completed termination-detection circuits.
  uint64_t relaxations = 0;   // Vertex dequeues that ran the program hook.
  uint64_t bucket_inserts = 0;  // Priority-bucket enqueues (incl. re-queues).
  uint64_t msgs_sent = 0;      // Remote messages framed onto the bus.
  uint64_t msgs_received = 0;  // Messages decoded from inbound frames.
  uint64_t msgs_applied = 0;   // Messages folded into owner state.
  /// Cumulative single-threaded compute seconds: the busiest worker and the
  /// sum over workers. The cost model prices async compute from the busiest
  /// worker's *cumulative* time — workers never wait for per-round
  /// stragglers, so no per-round max applies.
  double comp_seconds_max = 0;
  double comp_seconds_total = 0;

  bool Any() const {
    return rounds | token_sweeps | relaxations | bucket_inserts | msgs_sent |
           msgs_received | msgs_applied;
  }

  std::string ToString() const;
};

/// Counters of one random-walk engine run (src/walks/). All zero for
/// vertex-centric runs. Every field is an exact count folded at walk-step
/// barriers from single-writer per-worker tallies, so the totals are
/// bit-identical at any host thread count, on either storage backend, and
/// in batched or naive shuffle mode — the walk determinism tests assert
/// exact equality across all of those axes.
struct WalkStats {
  uint64_t walkers = 0;          // Walkers started.
  uint64_t steps = 0;            // Walk supersteps (one barrier each).
  uint64_t walker_steps = 0;     // Individual walker advances (hops).
  uint64_t shuffle_entries = 0;  // Walkers passed through the by-vertex sort.
  uint64_t walkers_shipped = 0;  // Cross-partition migrations (wire records).
  uint64_t frame_bytes = 0;      // Walker-frame bytes handed to the bus.
  uint64_t restarts = 0;         // Dead-end teleports back to the source.
  uint64_t terminations = 0;     // Geometric deaths (walk-based PPR).
  uint64_t rejections = 0;       // node2vec rejection-sampling retries.

  bool operator==(const WalkStats&) const = default;

  bool Any() const {
    return walkers | steps | walker_steps | shuffle_entries |
           walkers_shipped | frame_bytes | restarts | terminations |
           rejections;
  }

  std::string ToString() const;
};

/// Cumulative metrics for one algorithm run on the simulated cluster.
struct Metrics {
  uint64_t supersteps = 0;
  uint64_t edges_scanned = 0;
  uint64_t vertices_updated = 0;
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t dense_steps = 0;
  uint64_t sparse_steps = 0;
  /// Masters promoted next -> current at commit barriers. Each is serialised
  /// exactly once per superstep (the serialize-once fan-out invariant).
  uint64_t masters_committed = 0;
  /// Peak bytes of capacity retained across all pooled wire buffers —
  /// message-bus channels, sparse/commit lanes, receive scratch — sampled at
  /// each barrier. Bounds the memory the pooling policy holds back.
  uint64_t wire_pool_peak_bytes = 0;

  /// Fault-injection and recovery counters (all zero without a FaultPlan).
  FaultStats fault;

  /// Async-engine counters (all zero for pure-BSP runs).
  AsyncStats async;

  /// Random-walk engine counters (all zero for vertex-centric runs).
  WalkStats walks;

  /// Storage-tier totals for this run (zero for in-memory graphs).
  uint64_t storage_bytes_read = 0;
  uint64_t storage_blocks_read = 0;
  uint64_t storage_decode_bytes = 0;
  /// Lifetime counters of the run's storage backend, snapshotted at the
  /// last superstep barrier.
  StorageStats storage;

  /// Per-superstep counter samples (present when
  /// RuntimeOptions::record_steps). Distinct from the obs/ span *tracer*
  /// (RuntimeOptions::trace): steps are exact counters folded at barriers
  /// and feed the cost model; spans are wall-clock intervals for the
  /// Chrome-trace / timeline exporters.
  std::vector<StepSample> steps;

  void AddStep(const StepSample& sample, bool record_steps) {
    ++supersteps;
    edges_scanned += sample.edges_total;
    vertices_updated += sample.verts_total;
    messages += sample.msgs_total;
    bytes += sample.bytes_total;
    if (sample.kind == StepKind::kEdgeMapDense) ++dense_steps;
    if (sample.kind == StepKind::kEdgeMapSparse) ++sparse_steps;
    storage_bytes_read += sample.storage_bytes;
    storage_blocks_read += sample.storage_blocks;
    storage_decode_bytes += sample.storage_decode_bytes;
    if (record_steps) steps.push_back(sample);
  }

  /// Folds another run's counters into this one — the accumulator used when
  /// a result composes several engine passes (harmonic centrality's
  /// 64-source batches, a serving batch's shared pass). Counter fields add;
  /// step samples concatenate in call order.
  void Absorb(const Metrics& other);

  std::string ToString() const;
};

}  // namespace flash

#endif  // FLASH_FLASHWARE_METRICS_H_
