#ifndef FLASH_SERVING_SERVER_H_
#define FLASH_SERVING_SERVER_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/status.h"
#include "flashware/cost_model.h"
#include "flashware/metrics.h"
#include "flashware/options.h"
#include "graph/graph.h"
#include "obs/registry.h"
#include "obs/tracer.h"
#include "serving/query.h"
#include "serving/scheduler.h"

/// flash::serving::Server — the multi-tenant query front door.
///
/// Submit() admits point queries against one loaded graph; the scheduler
/// batches them and the server executes each batch as one shared engine
/// pass. A traversal batch (bfs-distance, k-hop and landmark queries
/// together) is one bit-parallel multi-source BFS in which every query
/// rides its source's frontier bit under its own stop rule; a PPR batch is
/// one forward push. Time is *modelled*:
/// the caller stamps each submission with an offered-load clock, batch
/// service times come from the cost model pricing the pass's measured
/// counters, and queries queue behind earlier batches on a single modelled
/// executor — so reported latencies are cluster latencies. (They carry the
/// cost model's measured-compute term, so they are calibrated estimates
/// with small run-to-run jitter; only the *answers* are bit-stable.)
///
/// Determinism contract (tests/serving_test.cc): for a fixed (query log,
/// num_workers, partition), per-query answers are bit-identical at any
/// host_threads and any admission interleaving — each query's frontier bit
/// advances independently of its batch-mates, and the underlying BSP
/// passes are bit-identical by the engine's own contract.
namespace flash::serving {

struct ServerOptions {
  SchedulerOptions scheduler;
  /// Prices each batch's pass; also supplies the serving terms
  /// query_admit_seconds / batch_dispatch_seconds.
  ClusterConfig cluster;
  /// Landmarks for kLandmark estimates: the `num_landmarks` highest-degree
  /// vertices (<= 64). The table is built lazily, riding the pass of the
  /// first batch with a landmark cache miss, and billed to it.
  int num_landmarks = 8;
  /// Tenant label used when a query's tenant is empty.
  std::string default_tenant = "default";
  /// Forward-push parameters for kPpr queries.
  double ppr_alpha = 0.15;
  double ppr_eps = 1e-6;
};

/// Per-tenant admission/answer accounting. Conservation invariant, checked
/// by the tests after Drain(): submitted == answered + shed, per tenant
/// and in total.
struct TenantCounters {
  uint64_t submitted = 0;  // Queries offered to the front door.
  uint64_t enqueued = 0;   // ... admitted past admission control.
  uint64_t answered = 0;   // ... answered by an executed batch.
  uint64_t shed = 0;       // ... refused with Status::OutOfRange.
};

/// One executed batch's ledger entry.
struct BatchStat {
  QueueClass queue = QueueClass::kTraversal;
  int width = 0;          // Queries the pass carried.
  double cut_s = 0;       // When the scheduler released it.
  double oldest_wait_s = 0;  // cut_s - oldest member's enqueue_s.
  double start_s = 0;     // When the executor began it (>= cut_s).
  double service_s = 0;   // Modelled dispatch + pass + demux time.
  double complete_s = 0;  // start_s + service_s.
};

struct ServingStats {
  uint64_t submitted = 0;
  uint64_t enqueued = 0;
  uint64_t answered = 0;
  uint64_t shed = 0;
  uint64_t batches = 0;
  uint64_t engine_passes = 0;  // Actual GraphApi runs.
  /// Result cache accounting (bfs-distance and landmark kinds; both answer
  /// pure functions of (graph, source, target)). A query found in the
  /// cross-batch cache, or repeating an earlier miss of its own batch, is a
  /// hit. Every cacheable query is exactly one of the two, so cache_hits +
  /// cache_misses equals the answered count of those kinds — the cache
  /// conservation invariant.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  std::map<std::string, TenantCounters> tenants;
  std::vector<BatchStat> batch_log;
  std::vector<double> latencies;  // Modelled per-answer latency, answer order.
  /// Engine counters of every pass run on behalf of queries, absorbed.
  Metrics engine_metrics;

  /// Publishes flash_serving_* metrics — totals, per-tenant labelled
  /// series, latency + batch-width histograms — into `registry`.
  void ExportTo(obs::Registry& registry) const;
};

class Server {
 public:
  /// `runtime` configures every engine pass the server runs; record_steps
  /// is forced on (the cost model prices passes from step samples).
  Server(GraphPtr graph, RuntimeOptions runtime, ServerOptions options);

  /// Offers `query` at modelled time `now_s` (monotone non-decreasing
  /// across calls). Returns the assigned query id, or the shed
  /// Status::OutOfRange when admission control refuses it. Advancing the
  /// clock executes any batches whose forced-cut time has passed.
  Result<uint64_t> Submit(Query query, double now_s);

  /// Executes everything still queued, advancing the modelled clock to
  /// each remaining forced cut. After Drain, answers().size() ==
  /// stats().answered and the conservation invariant holds.
  void Drain();

  /// Answers in completion order (batch by batch; submission order within
  /// a batch). Stable across host_threads — see the determinism contract.
  const std::vector<Answer>& answers() const { return answers_; }

  const ServingStats& stats() const { return stats_; }
  double now_s() const { return now_s_; }

  /// The serving span sink ("serve:batch" phase spans, "serve:shed"
  /// instants) — shared with the engine passes when the runtime enables
  /// tracing, so batches and their supersteps land in one Chrome trace.
  obs::Tracer* tracer() const { return tracer_.get(); }

 private:
  void AdvanceTo(double now_s);
  void ExecuteDueBatches();
  void ExecuteBatch(const Batch& batch);
  /// Answers a traversal batch (fills `values`, one per query in batch
  /// order): cache lookups, then one rider pass for the misses.
  void AnswerTraversal(const Batch& batch, std::vector<double>& values,
                       Metrics& metrics);
  /// One multi-source BFS pass: each rider (a bfs or k-hop query of
  /// `batch`) rides its source's frontier bit, and with `build_table` the
  /// landmark table rides too; the pass ends when no rider needs another
  /// level.
  void RunRiders(const Batch& batch, const std::vector<size_t>& riders,
                 bool build_table, std::vector<double>& values,
                 Metrics& metrics);
  double LandmarkEstimate(const Query& q) const;
  void AnswerPpr(const Batch& batch, std::vector<double>& values,
                 Metrics& metrics);

  GraphPtr graph_;
  RuntimeOptions runtime_;
  ServerOptions options_;
  Scheduler scheduler_;
  std::shared_ptr<obs::Tracer> tracer_;

  double now_s_ = 0;         // Modelled front-door clock.
  double busy_until_s_ = 0;  // Modelled executor availability.
  uint64_t next_id_ = 0;
  /// Per-queue EWMA of executed batch service times (seconds); feeds the
  /// scheduler's deadline math.
  std::array<double, kNumQueues> service_ewma_{};

  std::vector<VertexId> landmarks_;
  /// dist(landmark l, vertex v) at landmark_dist_[l * n + v]; kInf32 =
  /// unreachable. Empty until the first landmark cache miss.
  std::vector<uint32_t> landmark_dist_;

  /// Cross-batch result cache, keyed by (kind, source, target) for the
  /// bfs-distance and landmark kinds. Valid for the server's lifetime: the
  /// graph is immutable once loaded, and both kinds' answers are
  /// deterministic — a hit returns the exact value the pass would
  /// recompute. A batch served entirely from cache skips the engine pass
  /// (engine_passes does not advance).
  using CacheKey = std::tuple<QueryKind, VertexId, VertexId>;
  std::map<CacheKey, double> result_cache_;

  std::vector<Answer> answers_;
  ServingStats stats_;
};

}  // namespace flash::serving

#endif  // FLASH_SERVING_SERVER_H_
