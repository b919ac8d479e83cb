#ifndef FLASH_WALKS_WALK_ENGINE_H_
#define FLASH_WALKS_WALK_ENGINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "flashware/metrics.h"
#include "flashware/options.h"
#include "graph/graph.h"

namespace flash {
namespace obs {
class Tracer;
}

namespace walks {

/// Transition law of a walk run.
enum class WalkKind {
  /// First-order uniform neighbour sampling (DeepWalk's corpus walks).
  kUniform,
  /// Second-order node2vec transitions: per-walker previous-vertex state
  /// plus rejection sampling against the p/q bias (Grover & Leskovec).
  kNode2Vec,
  /// Monte-Carlo personalised PageRank: every walker starts at the query
  /// source, terminates geometrically with probability `ppr_alpha` per
  /// step, and folds its positions into exact uint64 visit counters.
  kPpr,
};

/// One walk run. Walker counts, lengths, and node2vec p/q come from
/// RuntimeOptions (num_walkers, walk_length, node2vec_p, node2vec_q); the
/// spec carries what varies per query.
struct WalkSpec {
  WalkKind kind = WalkKind::kUniform;

  /// Keys every PRNG draw: walker i's step-t transition is a pure function
  /// of (seed, i, t) and the adjacency list, never of schedule or backend.
  uint64_t seed = 42;

  /// kPpr only: per-step termination probability (the teleport constant of
  /// the power-iteration oracle) and the walk source.
  double ppr_alpha = 0.15;
  VertexId ppr_source = 0;

  /// FlashMob-style by-vertex shuffle + one frame per channel (the fast
  /// path): pools stay sorted by (current vertex, walker id), each step runs
  /// threads_per_worker shard tasks per worker and reorders walkers with a
  /// counting scatter into vertex groups, a radix sort per group and a
  /// merge of sorted runs. Off is the naive per-walker baseline the bench
  /// gates against: one task per worker, walkers advance in arrival order
  /// and every cross-partition walker ships as its own frame. Traces and
  /// visit counters are bit-identical either way; only the
  /// shuffle/byte/message accounting and speed differ.
  bool batch_by_vertex = true;

  /// Record every walker's full vertex sequence (the DeepWalk corpus).
  /// Off keeps only the visit counters (walk-based PPR's output).
  bool record_traces = true;
};

/// Output of one walk run.
struct WalkResult {
  /// traces[i] = walker i's sequence (start vertex + every hop), present
  /// when WalkSpec::record_traces. A walker ending early (dead end, PPR
  /// termination) has a shorter trace.
  std::vector<std::vector<VertexId>> traces;

  /// Exact per-vertex visit counts: visits[v] = occurrences of v across
  /// all traces (counted whether or not traces are recorded).
  std::vector<uint64_t> visits;
  uint64_t total_visits = 0;

  /// Run counters, including Metrics::walks and one StepSample of kind
  /// StepKind::kWalkStep per walk step for the cost model.
  Metrics metrics;

  /// The run's span tracer when RuntimeOptions::trace was set.
  std::shared_ptr<obs::Tracer> tracer;
};

/// Walker-centric engine over the partitioned GraphStorage backends.
///
/// Execution is synchronous, one barrier per walk step, mirroring the BSP
/// superstep protocol: walker state lives in per-worker pools (a walker is
/// pooled at the worker owning its current vertex). In batched mode each
/// pool stays sorted by current vertex, so adjacency reads are sequential
/// and block-friendly (FlashMob), and is cut on vertex boundaries into
/// RuntimeOptions::threads_per_worker shard tasks. Each step advances every
/// live walker with a counter-based PRNG draw keyed (seed, walker_id,
/// step), scatters the survivors into per-channel vertex groups, and ships
/// cross-partition walkers as checksummed walker frames through the
/// MessageBus — exact byte/message accounting, composing with message-fault
/// plans; each destination merges its sorted arrivals into its next pool.
/// Each Run builds its own Runtime (flashware/runtime.h), the cluster the
/// BSP and async engines run on. Walks have no crash recovery yet, so
/// options with a crash or checkpoint plan, or threads_per_worker < 1, are
/// rejected (CheckRuntimeOptions) when the engine is constructed.
/// On the paged backend the engine drives the storage epoch protocol
/// (BeginEpoch/PlanBlocks/EndEpoch) once per step, so block I/O is planned
/// from the step's walker positions and billed per step like wire traffic.
///
/// Determinism contract: traces, visit counters, WalkStats, and wire
/// bytes/messages are bit-identical at any host_threads and
/// threads_per_worker and on both storage backends. The naive shuffle mode
/// agrees on traces and visit counters too; its shuffle/byte/message
/// accounting differs by design.
class WalkEngine {
 public:
  WalkEngine(GraphPtr graph, const RuntimeOptions& options);

  WalkResult Run(const WalkSpec& spec);

  const RuntimeOptions& options() const { return options_; }

 private:
  GraphPtr graph_;
  RuntimeOptions options_;
};

}  // namespace walks
}  // namespace flash

#endif  // FLASH_WALKS_WALK_ENGINE_H_
