#ifndef FLASH_FLASHWARE_OPTIONS_H_
#define FLASH_FLASHWARE_OPTIONS_H_

#include <memory>

#include "flashware/fault_injector.h"
#include "graph/partition.h"

namespace flash {

namespace obs {
class Tracer;
}

/// Forced propagation mode for EDGEMAP (paper §III-C). Adaptive switches per
/// call on the Ligra density heuristic; the pure modes exist both for users
/// (EDGEMAPDENSE / EDGEMAPSPARSE are part of the API) and for the Fig. 3
/// dual-mode experiment.
enum class EdgeMapMode {
  kAdaptive,
  kPush,   // Always EDGEMAPSPARSE.
  kPull,   // Always EDGEMAPDENSE.
};

/// Which execution backend runs the algorithm's fixpoint loop.
enum class ExecutionMode {
  /// Bulk-synchronous supersteps: one global barrier per primitive. The
  /// correctness oracle — every algorithm supports it.
  kBsp,
  /// Asynchronous priority-driven engine (core/async_engine.h): per-worker
  /// priority buckets with relaxed barriers and counter-conservation
  /// termination detection. Supported by algorithms that declare a
  /// monotonicity contract (BFS, SSSP, CC, push-PPR); others ignore it.
  kAsync,
};

/// Runtime configuration of the simulated FLASH cluster.
struct RuntimeOptions {
  /// Number of simulated workers (processes in the paper; <= 64).
  int num_workers = 4;

  /// Threads in each worker's compute pool (the paper's "c cores", minus the
  /// two communication threads whose role the in-memory transport plays).
  /// Also fixes the *logical* shard count every kernel splits a worker's
  /// range into — shard boundaries never depend on how many host threads
  /// actually execute, which is what keeps runs bit-identical.
  int threads_per_worker = 1;

  /// Host threads driving the simulation. All worker partitions of every
  /// phase run concurrently on one host pool (the paper's m processes
  /// genuinely overlap); 1 runs them inline in worker/shard order, the
  /// sequential baseline. Frontiers, wire bytes/messages, and results are
  /// bit-identical at every value — per-shard buffers are merged in
  /// worker/shard order either way.
  /// 0 = min(num_workers * threads_per_worker, hardware cores).
  int host_threads = 0;

  PartitionScheme partition = PartitionScheme::kHash;

  EdgeMapMode edgemap_mode = EdgeMapMode::kAdaptive;

  /// Execution backend for algorithms that support both (see ExecutionMode).
  /// Async runs converge to the same fixpoint as BSP — bit-identical for
  /// idempotent (min/max-style) algorithms — at any host_threads, but pay a
  /// relaxed per-round drain instead of a global barrier per superstep.
  ExecutionMode execution_mode = ExecutionMode::kBsp;

  /// §IV-C "synchronize critical properties only": ship only the declared
  /// critical fields to mirrors. Off = ship every field (ablation).
  bool sync_critical_only = true;

  /// §IV-C "communicate with necessary mirrors only": masters send updates
  /// only to workers hosting a neighbour. Off = broadcast to all workers
  /// (ablation). Programs using virtual edge sets must broadcast regardless;
  /// see GraphApi::DeclareVirtualEdges().
  bool necessary_mirrors_only = true;

  /// Record per-superstep counter samples (Metrics::steps — frontier sizes,
  /// per-step work) for the figure benchmarks and the cost model. Cheap; on
  /// by default. Not the span tracer; see `trace` below.
  bool record_steps = true;

  /// Arm the obs/ span tracer: every superstep, phase, (worker, shard)
  /// task, bus exchange, checkpoint, and recovery is recorded as a timed
  /// span (exportable as a Chrome trace, Prometheus text, or a timeline
  /// TSV). Off by default — recording costs a couple of clock reads per
  /// task, and disabled runs must stay bit-identical in cost and counters.
  bool trace = false;

  /// Span sink for `trace`. When set, the engine records into this tracer
  /// (which outlives the engine, so callers that only see the algorithm's
  /// result structs can still export the trace); when null and `trace` is
  /// true, the engine owns a private tracer reachable via GraphApi::tracer().
  std::shared_ptr<obs::Tracer> tracer;

  /// Plan-ahead paging for the async engine: before each micro-round's
  /// drain, the engine derives the round's edge-block set from the queued
  /// bucket contents and hands it to the paged backend as a plan, so block
  /// loads overlap the drain instead of demand-faulting inside it. Disable
  /// to reproduce the demand-only paging baseline (bench comparisons).
  /// Ignored by in-memory graphs; never affects results or frontiers.
  bool async_plan_blocks = true;

  /// Number of concurrent walkers the random-walk engine (src/walks/)
  /// launches. DeepWalk/node2vec start walker i at vertex i mod |V| (so
  /// num_walkers = k*|V| gives k walks per vertex); walk-based PPR starts
  /// every walker at the query source. Ignored by vertex-centric runs.
  uint64_t num_walkers = 100000;

  /// Steps each walker takes (DeepWalk/node2vec), and the hard cap on a
  /// PPR walker's geometric lifetime. Ignored by vertex-centric runs.
  uint32_t walk_length = 10;

  /// node2vec return parameter p (Grover & Leskovec): the unnormalised
  /// weight of stepping back to the previous vertex is 1/p.
  double node2vec_p = 1.0;

  /// node2vec in-out parameter q: weight 1/q for candidates that are not
  /// neighbours of the previous vertex (1 for common neighbours).
  double node2vec_q = 1.0;

  /// Adversity the run must survive: seeded message drop/duplication/
  /// reordering on the bus plus scheduled worker crashes with checkpoint
  /// recovery. The default (inactive) plan adds no hooks and leaves wire
  /// bytes, messages, and modelled cost untouched.
  FaultPlan fault_plan;
};

}  // namespace flash

#endif  // FLASH_FLASHWARE_OPTIONS_H_
