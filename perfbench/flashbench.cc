// Wall-clock benchmark program for the FLASH engine.
//
// One invocation runs one workload:
//
//   flashbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--scratch <dir>] [--smoke]
//
// Workloads (perfbench/README.md says why each was chosen):
//   pagerank-rmat     BSP PageRank, 10 iterations, RMAT scale 18, in memory.
//   sssp-road         Weighted road-grid strip; one BSP and one async SSSP.
//   walk-rmat-faulty  DeepWalk on RMAT scale 18 under a message-fault plan.
//   serve-rmat-paged  Mixed point-query log through serving::Server over a
//                     paged FLSHBLK2 copy of RMAT scale 18: bursts, then one
//                     open-loop Poisson segment at a fixed offered rate.
//
// The benchmark reaches the engine only through its public entry points
// (algo::Run*, walks::WalkEngine::Run, serving::Server::Submit/Drain,
// Partition::Create, SaveBlockFile/OpenPagedGraph, the generators) and times
// them from outside with std::chrono::steady_clock. Every generator, walk,
// fault and arrival seed derives from --seed. Every timed unit is checked
// against src/reference/ oracles computed before timing starts.
//
// --trace 0 prints the end-to-end metrics: set-up time (median of several
// set-ups), the median wall time of one timed unit, and peak RSS.
// --trace 1 first repeats the untraced units, then runs traced units with a
// caller-owned obs::Tracer, and folds the engine's spans (plus the
// benchmark's own "bench:*" spans) into the per-layer ledger.
//
// Every metric is printed as "metric <name> <value> <unit>"; the last line
// of stdout is one JSON object {correct, attempted, failed, metrics}. The
// exit code is 1 when any output was wrong, 2 on a usage error.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algorithms/algorithms.h"
#include "common/random.h"
#include "flashware/cost_model.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/partition.h"
#include "obs/tracer.h"
#include "reference/reference.h"
#include "serving/arrivals.h"
#include "serving/server.h"
#include "walks/walk_engine.h"

namespace flash::perfbench {
namespace {

// --- workload sizes --------------------------------------------------------

struct Sizes {
  int rmat_scale = 18;
  uint32_t road_diameter = 2048;
  uint32_t road_width = 8;
  uint64_t walkers = 1 << 20;
  uint32_t walk_length = 10;
  // Serving: burst composition (per burst) and the open-loop segment.
  int burst_bfs = 96;         // 64 + 32: two passes; the second has repeats.
  int burst_bfs_repeats = 24; // Repeats of first-pass pairs (cache hits).
  int burst_khop = 16;
  int burst_landmark = 12;
  int burst_ppr = 2;
  int open_queries = 120;
  int hot_sources = 24;
};

Sizes FullSizes() { return Sizes{}; }

Sizes SmokeSizes() {
  Sizes s;
  s.rmat_scale = 12;
  s.road_diameter = 128;
  s.walkers = 8192;
  s.open_queries = 40;
  s.hot_sources = 8;
  return s;
}

/// The open-loop segment's offered load, an absolute rate: about half the
/// burst capacity measured on the 4-core reference host when the benchmark
/// was defined. Never re-derived at run time, so a faster engine faces the
/// same load.
constexpr double kOfferedQps = 30.0;
constexpr double kSmokeOfferedQps = 400.0;

constexpr int kWorkers = 4;
constexpr int kThreadsPerWorker = 4;
constexpr int kPageRankIterations = 10;
constexpr double kPageRankTolerance = 1e-9;  // As tests/algorithms_test.cc.
// The engine sums float weights along paths of up to thousands of hops;
// the oracle sums doubles. Allow 1e-4 (the tests' bound) or 1e-5 relative.
constexpr double kSsspTolerance = 1e-4;
constexpr double kSsspRelTolerance = 1e-5;
constexpr double kFaultRate = 0.01;  // Drop, duplicate and reorder each.

// --- clocks and statistics ---------------------------------------------------

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

RuntimeOptions BaseOptions() {
  RuntimeOptions options;
  options.num_workers = kWorkers;
  options.threads_per_worker = kThreadsPerWorker;
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  options.host_threads = std::clamp(cores, 1, kWorkers);
  return options;
}

// --- the span ledger -------------------------------------------------------

/// One traced unit folded into layers. Times are seconds of wall (host-lane
/// spans) or of busy time summed over threads (task and storage spans).
struct Ledger {
  double unit_s = 0;
  uint64_t spans = 0;
  double covered_s = 0;  // Union of engine spans inside the unit.
  std::map<std::string, double> host_s;  // Host-lane spans by name.
  std::map<std::string, double> task_s;  // Task spans by name (busy time).
  double storage_read_s = 0;
  double step_overhead_s = 0;
  uint64_t bsp_steps = 0;
  /// serve:batch spans (begin, end) in tracer nanoseconds, in start order.
  std::vector<std::pair<uint64_t, uint64_t>> batches;

  double Host(std::initializer_list<const char*> names) const {
    double sum = 0;
    for (const char* name : names) {
      auto it = host_s.find(name);
      if (it != host_s.end()) sum += it->second;
    }
    return sum;
  }
};

using Interval = std::pair<uint64_t, uint64_t>;

std::vector<Interval> MergeIntervals(std::vector<Interval> v) {
  std::sort(v.begin(), v.end());
  std::vector<Interval> merged;
  for (const Interval& iv : v) {
    if (!merged.empty() && iv.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, iv.second);
    } else {
      merged.push_back(iv);
    }
  }
  return merged;
}

/// Length of the part of [lo, hi) that the merged, sorted intervals cover.
uint64_t CoveredWithin(const std::vector<Interval>& merged, uint64_t lo,
                       uint64_t hi) {
  auto it = std::upper_bound(
      merged.begin(), merged.end(), Interval{lo, UINT64_MAX});
  if (it != merged.begin()) --it;
  uint64_t covered = 0;
  for (; it != merged.end() && it->first < hi; ++it) {
    const uint64_t a = std::max(it->first, lo);
    const uint64_t b = std::min(it->second, hi);
    if (b > a) covered += b - a;
  }
  return covered;
}

bool StartsWith(const char* s, const char* prefix) {
  return std::strncmp(s, prefix, std::strlen(prefix)) == 0;
}

/// Folds the spans recorded in [begin_ns, end_ns) into a Ledger. The
/// benchmark's own "bench:*" spans mark call boundaries and are counted, but
/// never attribute time to a layer.
Ledger Fold(const std::vector<obs::Span>& spans, uint64_t begin_ns,
            uint64_t end_ns) {
  Ledger ledger;
  ledger.unit_s = static_cast<double>(end_ns - begin_ns) * 1e-9;
  std::vector<Interval> cover;
  std::vector<Interval> phases;  // Host-lane phase + exchange spans.
  std::vector<Interval> steps;   // BSP superstep spans.
  for (const obs::Span& s : spans) {
    if (s.begin_ns < begin_ns || s.end_ns > end_ns) continue;
    ++ledger.spans;
    if (StartsWith(s.name, "bench:")) continue;
    const double dur = static_cast<double>(s.end_ns - s.begin_ns) * 1e-9;
    if (s.end_ns > s.begin_ns) cover.emplace_back(s.begin_ns, s.end_ns);
    switch (s.kind) {
      case obs::SpanKind::kTask:
        ledger.task_s[s.name] += dur;
        break;
      case obs::SpanKind::kStorage:
        ledger.storage_read_s += dur;
        break;
      case obs::SpanKind::kPhase:
      case obs::SpanKind::kExchange:
        if (s.worker != obs::kHostLane) break;
        ledger.host_s[s.name] += dur;
        // serve:batch spans contain whole engine passes, supersteps
        // included; only phase and exchange spans cover a superstep.
        if (std::strcmp(s.name, "serve:batch") == 0) {
          ledger.batches.emplace_back(s.begin_ns, s.end_ns);
        } else {
          phases.emplace_back(s.begin_ns, s.end_ns);
        }
        break;
      case obs::SpanKind::kSuperstep:
      case obs::SpanKind::kAsyncRound:
        ledger.host_s[s.name] += dur;
        if (StartsWith(s.name, "step:") && s.end_ns > s.begin_ns) {
          steps.emplace_back(s.begin_ns, s.end_ns);
        }
        break;
      default:
        break;
    }
  }
  const std::vector<Interval> merged_cover = MergeIntervals(std::move(cover));
  ledger.covered_s =
      static_cast<double>(CoveredWithin(merged_cover, begin_ns, end_ns)) *
      1e-9;
  const std::vector<Interval> merged_phases = MergeIntervals(std::move(phases));
  for (const Interval& step : steps) {
    const uint64_t covered =
        CoveredWithin(merged_phases, step.first, step.second);
    ledger.step_overhead_s +=
        static_cast<double>(step.second - step.first - covered) * 1e-9;
  }
  ledger.bsp_steps = steps.size();
  std::sort(ledger.batches.begin(), ledger.batches.end());
  return ledger;
}

// --- units -----------------------------------------------------------------

/// What one timed unit produced. `run_s` is the unit's primary wall time;
/// `async_s` the async half of sssp-road.
struct UnitResult {
  double run_s = 0;
  double async_s = 0;
  uint64_t settled = 0;  // sssp-road: vertices the async run settled.
  Metrics metrics;       // Engine counters of every pass the unit ran.
  StorageStats storage;  // Paged backend counters (fresh backend per unit).
  serving::ServingStats serving;  // serve-rmat-paged: the burst's server.
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// The serving workload's open-loop segment.
struct OpenLoopResult {
  std::vector<double> latency_s;  // Due time to answering call's return.
  std::vector<double> lag_s;      // Generator lateness per submission.
  std::vector<double> queue_wait_s;  // Submit to batch start (traced only).
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs from the seed; timed as set-up. May run repeatedly;
  /// each call replaces the previous inputs.
  virtual void Setup() = 0;
  /// Precomputes the oracles; not timed.
  virtual void Prepare() = 0;
  /// One timed unit, traced when `tracer` is non-null.
  virtual UnitResult RunUnit(const std::shared_ptr<obs::Tracer>& tracer) = 0;
  virtual bool has_open_loop() const { return false; }
  virtual OpenLoopResult OpenLoop(const std::shared_ptr<obs::Tracer>&) {
    return {};
  }
  /// The graph the engine partitions on every pass.
  virtual GraphPtr PartitionedGraph() = 0;
  /// Wall seconds of the block-file write of the last set-up (0 if none).
  virtual double block_write_s() const { return 0; }
  /// Extra set-up resources to release before exiting.
  virtual void Cleanup() {}
};

RuntimeOptions Traced(RuntimeOptions options,
                      const std::shared_ptr<obs::Tracer>& tracer) {
  if (tracer != nullptr) {
    options.trace = true;
    options.tracer = tracer;
  }
  return options;
}

/// Records a benchmark span around `fn` when tracing and returns its wall time.
template <typename Fn>
double TimedCall(obs::Tracer* tracer, const char* name, Fn&& fn) {
  obs::ScopedSpan span(tracer, name, obs::SpanKind::kPhase);
  const double t0 = Now();
  fn();
  return Now() - t0;
}

GraphPtr MakeRmat(int scale, uint64_t seed) {
  RmatOptions options;
  options.scale = scale;
  options.seed = seed;
  auto graph = GenerateRmat(options);
  if (!graph.ok()) {
    std::fprintf(stderr, "rmat: %s\n", graph.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(graph).value();
}

// pagerank-rmat ---------------------------------------------------------------

class PageRankWorkload final : public Workload {
 public:
  PageRankWorkload(const Sizes& sizes, uint64_t seed)
      : sizes_(sizes), seed_(seed) {}

  void Setup() override {
    graph_.reset();
    graph_ = MakeRmat(sizes_.rmat_scale, seed_);
  }
  void Prepare() override {
    oracle_ = reference::PageRank(*graph_, kPageRankIterations);
  }
  GraphPtr PartitionedGraph() override { return graph_; }

  UnitResult RunUnit(const std::shared_ptr<obs::Tracer>& tracer) override {
    UnitResult unit;
    const RuntimeOptions options = Traced(BaseOptions(), tracer);
    algo::PageRankResult result;
    unit.run_s = TimedCall(tracer.get(), "bench:pagerank", [&] {
      result = algo::RunPageRank(graph_, kPageRankIterations, options);
    });
    unit.metrics = result.metrics;
    unit.attempted = 1;
    bool ok = result.rank.size() == oracle_.size();
    for (size_t v = 0; ok && v < oracle_.size(); ++v) {
      ok = std::fabs(result.rank[v] - oracle_[v]) <= kPageRankTolerance;
    }
    unit.failed = ok ? 0 : 1;
    return unit;
  }

 private:
  Sizes sizes_;
  uint64_t seed_;
  GraphPtr graph_;
  std::vector<double> oracle_;
};

// sssp-road -------------------------------------------------------------------

class SsspWorkload final : public Workload {
 public:
  SsspWorkload(const Sizes& sizes, uint64_t seed)
      : sizes_(sizes), seed_(seed) {}

  void Setup() override {
    graph_.reset();
    RoadGridOptions options;
    options.target_diameter = sizes_.road_diameter;
    options.width = sizes_.road_width;
    options.weighted = true;
    options.seed = seed_;
    auto graph = MakeRoadGrid(options);
    if (!graph.ok()) {
      std::fprintf(stderr, "road grid: %s\n",
                   graph.status().ToString().c_str());
      std::exit(1);
    }
    graph_ = std::move(graph).value();
  }
  void Prepare() override { oracle_ = reference::SsspDistances(*graph_, 0); }
  GraphPtr PartitionedGraph() override { return graph_; }

  UnitResult RunUnit(const std::shared_ptr<obs::Tracer>& tracer) override {
    UnitResult unit;
    const RuntimeOptions bsp = Traced(BaseOptions(), tracer);
    RuntimeOptions async = bsp;
    async.execution_mode = ExecutionMode::kAsync;
    algo::SsspResult bsp_result;
    algo::SsspResult async_result;
    unit.run_s = TimedCall(tracer.get(), "bench:sssp_bsp", [&] {
      bsp_result = algo::RunSssp(graph_, 0, bsp);
    });
    unit.async_s = TimedCall(tracer.get(), "bench:sssp_async", [&] {
      async_result = algo::RunSssp(graph_, 0, async);
    });
    unit.metrics = bsp_result.metrics;
    unit.metrics.Absorb(async_result.metrics);
    unit.settled = static_cast<uint64_t>(
        std::count_if(async_result.distance.begin(),
                      async_result.distance.end(),
                      [](float d) { return std::isfinite(d); }));
    unit.attempted = 2;
    unit.failed = (Matches(bsp_result.distance) ? 0 : 1) +
                  (Matches(async_result.distance) ? 0 : 1);
    // The two modes must agree bit for bit, not just within tolerance.
    if (unit.failed == 0 && bsp_result.distance != async_result.distance) {
      unit.failed = 1;
    }
    return unit;
  }

 private:
  bool Matches(const std::vector<float>& distance) const {
    if (distance.size() != oracle_.size()) return false;
    for (size_t v = 0; v < oracle_.size(); ++v) {
      const double want = oracle_[v];
      const double got = distance[v];
      if (std::isinf(want) || std::isinf(got)) {
        if (std::isinf(want) != std::isinf(got)) return false;
        continue;
      }
      if (std::fabs(got - want) >
          std::max(kSsspTolerance, kSsspRelTolerance * want)) {
        return false;
      }
    }
    return true;
  }

  Sizes sizes_;
  uint64_t seed_;
  GraphPtr graph_;
  std::vector<double> oracle_;
};

// walk-rmat-faulty ------------------------------------------------------------

class WalkWorkload final : public Workload {
 public:
  WalkWorkload(const Sizes& sizes, uint64_t seed)
      : sizes_(sizes), seed_(seed) {}

  void Setup() override {
    graph_.reset();
    graph_ = MakeRmat(sizes_.rmat_scale, seed_);
  }
  void Prepare() override {
    // The oracle is the fault-free run: faults may cost retransmissions but
    // must never change a walk.
    oracle_ = walks::WalkEngine(graph_, Options(nullptr, false))
                  .Run(Spec())
                  .visits;
  }
  GraphPtr PartitionedGraph() override { return graph_; }

  UnitResult RunUnit(const std::shared_ptr<obs::Tracer>& tracer) override {
    UnitResult unit;
    walks::WalkResult result;
    unit.run_s = TimedCall(tracer.get(), "bench:walk", [&] {
      result = walks::WalkEngine(graph_, Options(tracer, true)).Run(Spec());
    });
    unit.metrics = result.metrics;
    const WalkStats& ws = result.metrics.walks;
    unit.attempted = 1;
    const bool ok = result.visits == oracle_ &&
                    result.total_visits == ws.walker_steps + ws.walkers;
    unit.failed = ok ? 0 : 1;
    return unit;
  }

 private:
  RuntimeOptions Options(const std::shared_ptr<obs::Tracer>& tracer,
                         bool faults) const {
    RuntimeOptions options = Traced(BaseOptions(), tracer);
    options.num_walkers = sizes_.walkers;
    options.walk_length = sizes_.walk_length;
    if (faults) {
      options.fault_plan.seed = seed_ * 0x9E3779B97F4A7C15ull + 1;
      options.fault_plan.msg_drop_rate = kFaultRate;
      options.fault_plan.msg_dup_rate = kFaultRate;
      options.fault_plan.msg_reorder_rate = kFaultRate;
    }
    return options;
  }
  walks::WalkSpec Spec() const {
    walks::WalkSpec spec;
    spec.kind = walks::WalkKind::kUniform;
    spec.seed = seed_;
    spec.record_traces = false;
    return spec;
  }

  Sizes sizes_;
  uint64_t seed_;
  GraphPtr graph_;
  std::vector<uint64_t> oracle_;
};

// serve-rmat-paged ------------------------------------------------------------

using serving::Answer;
using serving::Query;
using serving::QueryKind;

class ServeWorkload final : public Workload {
 public:
  ServeWorkload(const Sizes& sizes, uint64_t seed, double offered_qps,
                std::string block_path)
      : sizes_(sizes), seed_(seed), offered_qps_(offered_qps),
        block_path_(std::move(block_path)) {}

  void Setup() override {
    paged_.reset();
    mem_.reset();
    mem_ = MakeRmat(sizes_.rmat_scale, seed_);
    BlockFileOptions file_options;
    file_options.codec = BlockCodec::kDelta;
    const double t0 = Now();
    const Status saved = SaveBlockFile(*mem_, block_path_, file_options);
    block_write_s_ = Now() - t0;
    if (!saved.ok()) {
      std::fprintf(stderr, "block file: %s\n", saved.ToString().c_str());
      std::exit(1);
    }
    // The cache holds about 1/8 of the decoded adjacency (both directions).
    cache_bytes_ = std::max<uint64_t>(
        1, mem_->NumEdges() * 2 * sizeof(VertexId) / 8);
    Reopen();
  }

  void Prepare() override {
    Rng rng(seed_ * 0xD1B54A32D192ED03ull + 7);
    const VertexId n = mem_->NumVertices();
    pool_.clear();
    while (static_cast<int>(pool_.size()) < sizes_.hot_sources) {
      const auto v = static_cast<VertexId>(rng.Uniform(n));
      if (mem_->OutDegree(v) > 0 &&
          std::find(pool_.begin(), pool_.end(), v) == pool_.end()) {
        pool_.push_back(v);
      }
    }
    dist_.clear();
    for (VertexId s : pool_) {
      dist_[s] = reference::BfsDistances(*mem_, s);
    }
    burst_ = MakeBurst(rng);
    open_ = MakeOpenLoop(rng);
    arrivals_ = serving::PoissonArrivalTimes(open_.size(), offered_qps_,
                                             seed_ * 31 + 3);
    mem_.reset();  // Only the paged copy serves; the oracles are built.
  }

  /// Engine passes leave their tracer attached to the paged backend, so a
  /// backend used by a traced pass must not outlive that tracer: every use
  /// starts from a freshly opened one.
  GraphPtr PartitionedGraph() override {
    Reopen();
    return paged_;
  }
  double block_write_s() const override { return block_write_s_; }
  bool has_open_loop() const override { return true; }
  void Cleanup() override {
    paged_.reset();
    std::error_code ec;
    std::filesystem::remove(block_path_, ec);
  }

  /// One burst: every query of the burst log submitted at t=0, then Drain.
  /// Each unit starts from a freshly opened backend (cold block cache) and
  /// a fresh server (empty result and landmark caches), so every unit does
  /// the same work.
  UnitResult RunUnit(const std::shared_ptr<obs::Tracer>& tracer) override {
    Reopen();
    UnitResult unit;
    serving::Server server(paged_, Traced(BaseOptions(), tracer),
                           ServerOptions());
    std::vector<size_t> index_of;  // query id -> log index
    uint64_t failed = 0;
    unit.run_s = TimedCall(tracer.get(), "bench:burst", [&] {
      for (size_t i = 0; i < burst_.size(); ++i) {
        auto id = server.Submit(burst_[i], 0.0);
        if (!id.ok()) {
          ++failed;
          continue;
        }
        index_of.resize(std::max<size_t>(index_of.size(), id.value() + 1));
        index_of[id.value()] = i;
      }
      server.Drain();
    });
    const serving::ServingStats& stats = server.stats();
    unit.metrics = stats.engine_metrics;
    unit.storage = paged_->storage()->stats();
    unit.attempted = burst_.size();
    unit.failed = failed + CheckAnswers(server.answers(), index_of, burst_);
    if (stats.answered + failed != burst_.size()) {
      unit.failed = std::max<uint64_t>(unit.failed, 1);
    }
    unit.serving = stats;
    return unit;
  }

  /// The open-loop segment: queries submitted at Poisson due times (wall
  /// clock); the server's clock is the wall time of each call. Latency runs
  /// from a query's due time to the return of the Submit or Drain call that
  /// produced its answer.
  OpenLoopResult OpenLoop(const std::shared_ptr<obs::Tracer>& tracer) override {
    Reopen();
    OpenLoopResult out;
    serving::Server server(paged_, Traced(BaseOptions(), tracer),
                           ServerOptions());
    std::vector<size_t> index_of;
    std::vector<double> submit_ns(open_.size(), 0);
    std::vector<double> latency(open_.size(), -1);
    const double t0 = Now();
    size_t seen = 0;
    auto collect = [&](double returned) {
      const std::vector<Answer>& answers = server.answers();
      for (; seen < answers.size(); ++seen) {
        const size_t i = index_of[answers[seen].query_id];
        latency[i] = returned - (t0 + arrivals_[i]);
      }
    };
    for (size_t i = 0; i < open_.size(); ++i) {
      const double due = t0 + arrivals_[i];
      std::this_thread::sleep_until(
          std::chrono::steady_clock::time_point(
              std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(due))));
      const double now = Now();
      out.lag_s.push_back(now - due);
      if (tracer != nullptr) {
        submit_ns[i] = static_cast<double>(tracer->NowNs());
      }
      {
        obs::ScopedSpan span(tracer.get(), "bench:submit",
                             obs::SpanKind::kPhase);
        Result<uint64_t> id = server.Submit(open_[i], now - t0);
        if (!id.ok()) {
          ++out.failed;
        } else {
          index_of.resize(std::max<size_t>(index_of.size(), id.value() + 1));
          index_of[id.value()] = i;
        }
      }
      collect(Now());
    }
    {
      obs::ScopedSpan span(tracer.get(), "bench:drain", obs::SpanKind::kPhase);
      server.Drain();
    }
    collect(Now());
    out.attempted = open_.size();
    out.failed += CheckAnswers(server.answers(), index_of, open_);
    for (double l : latency) {
      if (l >= 0) out.latency_s.push_back(l);
    }
    if (tracer != nullptr) {
      // Queue wait: from submission to the start of the batch that answered
      // the query. Answers come batch by batch in execution order, and the
      // serve:batch spans sorted by start are that same order.
      tracer->Fold();
      const uint64_t now_ns = tracer->NowNs();
      const Ledger ledger = Fold(tracer->spans(), 0, now_ns);
      const auto& log = server.stats().batch_log;
      const std::vector<Answer>& answers = server.answers();
      size_t a = 0;
      for (size_t b = 0; b < log.size() && b < ledger.batches.size(); ++b) {
        const double start = static_cast<double>(ledger.batches[b].first);
        for (int k = 0; k < log[b].width && a < answers.size(); ++k, ++a) {
          const size_t i = index_of[answers[a].query_id];
          out.queue_wait_s.push_back((start - submit_ns[i]) * 1e-9);
        }
      }
    }
    return out;
  }

 private:
  static serving::ServerOptions ServerOptions() {
    serving::ServerOptions options;
    options.cluster.nodes = kWorkers;
    return options;
  }

  void Reopen() {
    paged_.reset();
    PagedOptions options;
    options.cache_bytes = cache_bytes_;
    auto graph = OpenPagedGraph(block_path_, options);
    if (!graph.ok()) {
      std::fprintf(stderr, "open paged: %s\n",
                   graph.status().ToString().c_str());
      std::exit(1);
    }
    paged_ = std::move(graph).value();
  }

  VertexId Pick(Rng& rng) const {
    return pool_[rng.Uniform(pool_.size())];
  }

  Query Make(QueryKind kind, Rng& rng, int i) const {
    Query q;
    q.kind = kind;
    q.tenant = i % 4 == 0 ? "analytics" : "app";
    q.source = Pick(rng);
    q.target = static_cast<VertexId>(rng.Uniform(mem_->NumVertices()));
    if (kind == QueryKind::kKHop) {
      q.k = 1 + static_cast<uint32_t>(rng.Uniform(2));
    }
    if (kind == QueryKind::kPpr) {
      // Ask for mass at a neighbour, where it is not negligible.
      auto nbrs = mem_->OutNeighbors(q.source);
      q.target = nbrs[rng.Uniform(nbrs.size())];
    }
    return q;
  }

  /// Shuffles `by_kind` into one log, keeping each kind's relative order.
  static std::vector<Query> Interleave(std::vector<std::vector<Query>> by_kind,
                                       Rng& rng) {
    std::vector<int> order;
    for (size_t k = 0; k < by_kind.size(); ++k) {
      order.insert(order.end(), by_kind[k].size(), static_cast<int>(k));
    }
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.Uniform(i)]);
    }
    std::vector<size_t> next(by_kind.size(), 0);
    std::vector<Query> log;
    for (int k : order) log.push_back(by_kind[k][next[k]++]);
    return log;
  }

  std::vector<Query> MakeBurst(Rng& rng) const {
    std::vector<std::vector<Query>> by_kind(4);
    int i = 0;
    // BFS: a first full-width pass, then a second whose queries partly
    // repeat first-pass pairs, so the result cache answers them.
    const int first = std::min(64, sizes_.burst_bfs);
    for (int j = 0; j < first; ++j) {
      by_kind[0].push_back(Make(QueryKind::kBfsDistance, rng, i++));
    }
    for (int j = first; j < sizes_.burst_bfs; ++j) {
      if (j - first < sizes_.burst_bfs_repeats) {
        Query q = by_kind[0][rng.Uniform(first)];
        q.tenant = i++ % 4 == 0 ? "analytics" : "app";
        by_kind[0].push_back(q);
      } else {
        by_kind[0].push_back(Make(QueryKind::kBfsDistance, rng, i++));
      }
    }
    for (int j = 0; j < sizes_.burst_khop; ++j) {
      by_kind[1].push_back(Make(QueryKind::kKHop, rng, i++));
    }
    for (int j = 0; j < sizes_.burst_landmark; ++j) {
      by_kind[2].push_back(Make(QueryKind::kLandmark, rng, i++));
    }
    for (int j = 0; j < sizes_.burst_ppr; ++j) {
      by_kind[3].push_back(Make(QueryKind::kPpr, rng, i++));
    }
    // The repeats must follow the first pass, so interleave the other kinds
    // among the BFS queries without reordering them.
    std::vector<Query> log = Interleave(std::move(by_kind), rng);
    return log;
  }

  std::vector<Query> MakeOpenLoop(Rng& rng) const {
    // Same mix as a burst, in proportion: 3/4 BFS (a quarter of which
    // repeat an earlier pair), then k-hop, landmark and a few PPR.
    const int n = sizes_.open_queries;
    const int ppr = std::max(1, n / 50);
    const int landmark = n / 10;
    const int khop = n / 8;
    const int bfs = n - ppr - landmark - khop;
    std::vector<std::vector<Query>> by_kind(4);
    int i = 0;
    for (int j = 0; j < bfs; ++j) {
      if (j >= 8 && rng.Uniform(4) == 0) {
        Query q = by_kind[0][rng.Uniform(by_kind[0].size())];
        q.tenant = i++ % 4 == 0 ? "analytics" : "app";
        by_kind[0].push_back(q);
      } else {
        by_kind[0].push_back(Make(QueryKind::kBfsDistance, rng, i++));
      }
    }
    for (int j = 0; j < khop; ++j) {
      by_kind[1].push_back(Make(QueryKind::kKHop, rng, i++));
    }
    for (int j = 0; j < landmark; ++j) {
      by_kind[2].push_back(Make(QueryKind::kLandmark, rng, i++));
    }
    for (int j = 0; j < ppr; ++j) {
      by_kind[3].push_back(Make(QueryKind::kPpr, rng, i++));
    }
    return Interleave(std::move(by_kind), rng);
  }

  /// Counts wrong answers. BFS distance and k-hop are exact; a landmark
  /// estimate must not undercut the true distance; a PPR mass must be a
  /// probability and repeat bit for bit wherever the same query is asked.
  uint64_t CheckAnswers(const std::vector<Answer>& answers,
                        const std::vector<size_t>& index_of,
                        const std::vector<Query>& log) {
    uint64_t failed = 0;
    for (const Answer& a : answers) {
      if (a.query_id >= index_of.size()) {
        ++failed;
        continue;
      }
      const Query& q = log[index_of[a.query_id]];
      const std::vector<uint32_t>& dist = dist_.at(q.source);
      const double truth = dist[q.target] == reference::kUnreachable
                               ? serving::kUnreachable
                               : static_cast<double>(dist[q.target]);
      bool ok = true;
      switch (q.kind) {
        case QueryKind::kBfsDistance:
          ok = a.value == truth;
          break;
        case QueryKind::kKHop: {
          uint64_t count = 0;
          for (uint32_t d : dist) count += d <= q.k ? 1 : 0;
          ok = a.value == static_cast<double>(count);
          break;
        }
        case QueryKind::kLandmark:
          ok = a.value >= truth;
          break;
        case QueryKind::kPpr: {
          ok = std::isfinite(a.value) && a.value >= 0 && a.value <= 1;
          auto key = std::make_pair(q.source, q.target);
          auto [it, fresh] = ppr_seen_.emplace(key, a.value);
          ok = ok && (fresh || it->second == a.value);
          break;
        }
      }
      if (!ok) ++failed;
    }
    return failed;
  }

  Sizes sizes_;
  uint64_t seed_;
  double offered_qps_;
  std::string block_path_;
  GraphPtr mem_;
  GraphPtr paged_;
  uint64_t cache_bytes_ = 0;
  double block_write_s_ = 0;
  std::vector<VertexId> pool_;
  std::map<VertexId, std::vector<uint32_t>> dist_;
  std::map<std::pair<VertexId, VertexId>, double> ppr_seen_;
  std::vector<Query> burst_;
  std::vector<Query> open_;
  std::vector<double> arrivals_;
};

// --- reporting ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void Print(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-30s %.10g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// --- main --------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string scratch = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value != "0";
    } else if (flag == "--scratch") {
      args->scratch = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

std::unique_ptr<Workload> MakeWorkload(const Args& args) {
  const Sizes sizes = args.smoke ? SmokeSizes() : FullSizes();
  if (args.workload == "pagerank-rmat") {
    return std::make_unique<PageRankWorkload>(sizes, args.seed);
  }
  if (args.workload == "sssp-road") {
    return std::make_unique<SsspWorkload>(sizes, args.seed);
  }
  if (args.workload == "walk-rmat-faulty") {
    return std::make_unique<WalkWorkload>(sizes, args.seed);
  }
  if (args.workload == "serve-rmat-paged") {
    const std::string path = args.scratch + "/serve-" +
                             std::to_string(args.seed) + ".flshblk";
    return std::make_unique<ServeWorkload>(
        sizes, args.seed, args.smoke ? kSmokeOfferedQps : kOfferedQps, path);
  }
  return nullptr;
}

/// Runs units until `budget_s` has passed and at least `min_units` ran.
std::vector<UnitResult> RunUnits(Workload& workload, double budget_s,
                                 int min_units, bool traced,
                                 std::vector<Ledger>* ledgers) {
  std::vector<UnitResult> units;
  const double start = Now();
  while (static_cast<int>(units.size()) < min_units ||
         Now() - start < budget_s) {
    std::shared_ptr<obs::Tracer> tracer;
    if (traced) tracer = std::make_shared<obs::Tracer>();
    UnitResult unit = workload.RunUnit(tracer);
    if (tracer != nullptr) {
      // The unit's window runs from its first benchmark span to its last, so
      // the untimed work around the calls (result checks, re-opening the
      // paged file) stays outside the ledger.
      tracer->Fold();
      uint64_t begin_ns = UINT64_MAX;
      uint64_t end_ns = 0;
      for (const obs::Span& s : tracer->spans()) {
        if (!StartsWith(s.name, "bench:")) continue;
        begin_ns = std::min(begin_ns, s.begin_ns);
        end_ns = std::max(end_ns, s.end_ns);
      }
      ledgers->push_back(Fold(tracer->spans(), begin_ns, end_ns));
    }
    units.push_back(std::move(unit));
  }
  return units;
}

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Add(uint64_t a, uint64_t f) {
    attempted += a;
    failed += f;
  }
};

template <typename Fn>
std::vector<double> Collect(const std::vector<UnitResult>& units, Fn&& fn) {
  std::vector<double> values;
  for (const UnitResult& u : units) values.push_back(fn(u));
  return values;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: flashbench --workload <name> --seed <n> --seconds "
                 "<s> --trace <0|1> [--scratch <dir>] [--smoke]\n");
    return 2;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(args);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const bool serve = workload->has_open_loop();
  Tally tally;

  // Set-up: repeated (at least three times, and until a second has passed
  // for cheap set-ups); the median is reported. Traced runs set up once.
  std::vector<double> setups;
  const double setup_start = Now();
  do {
    const double t0 = Now();
    workload->Setup();
    setups.push_back(Now() - t0);
  } while (!args.trace && setups.size() < 50 &&
           (setups.size() < 3 || Now() - setup_start < 1.0));
  workload->Prepare();

  // Units share the time budget with the serving open-loop segment.
  const double unit_budget = args.seconds * (serve ? 0.6 : 1.0) *
                             (args.trace ? 0.5 : 1.0);
  std::vector<Ledger> none;
  const double units_start = Now();
  std::vector<UnitResult> plain =
      RunUnits(*workload, 0, args.trace ? 1 : 3, false, &none);
  // Peak RSS after set-up and a fixed number of units: the allocator's
  // footprint creeps with every unit, and how many units fit in the budget
  // depends on the host's speed.
  const double peak_rss_mb = PeakRssMb();
  for (UnitResult& u : RunUnits(*workload, unit_budget - (Now() - units_start),
                                0, false, &none)) {
    plain.push_back(std::move(u));
  }
  for (const UnitResult& u : plain) tally.Add(u.attempted, u.failed);
  OpenLoopResult open;
  if (serve) {
    open = workload->OpenLoop(nullptr);
    tally.Add(open.attempted, open.failed);
  }

  const double run_s = Median(Collect(plain, [](auto& u) { return u.run_s; }));
  const double async_run_s =
      Median(Collect(plain, [](auto& u) { return u.async_s; }));
  const double capacity_qps = Median(Collect(plain, [](auto& u) {
    return Ratio(static_cast<double>(u.serving.answered), u.run_s);
  }));
  // A tail percentile is reported only with at least ten samples beyond.
  const double query_p50_s = SummarizeLatencies(open.latency_s).p50;
  const double query_p90_s = open.latency_s.size() >= 100
                                 ? SummarizeLatencies(open.latency_s).p90
                                 : 0;

  std::vector<Metric> e2e = {
      {"setup_s", Median(setups), "s"},
      {"run_s", run_s, "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  std::vector<Metric> extra = {
      {"async_run_s", async_run_s, "s"},
      {"capacity_qps", capacity_qps, "1/s"},
      {"query_p50_s", query_p50_s, "s"},
      {"query_p90_s", query_p90_s, "s"},
      {"failed_frac",
       Ratio(static_cast<double>(tally.failed),
             static_cast<double>(tally.attempted)),
       "ratio"},
  };
  std::printf("workload %s seed %llu: %zu set-ups, %zu units",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              setups.size(), plain.size());
  if (serve) std::printf(", %zu open-loop answers", open.latency_s.size());
  std::printf("\n");

  if (!args.trace) {
    Print(e2e);
    Print(extra);
    const bool correct = tally.failed == 0;
    PrintJson(correct, tally.attempted, tally.failed, e2e);
    workload->Cleanup();
    return correct ? 0 : 1;
  }

  // --- traced run: per-layer ledger ---------------------------------------
  std::vector<Ledger> ledgers;
  std::vector<UnitResult> traced =
      RunUnits(*workload, unit_budget, 1, true, &ledgers);
  for (const UnitResult& u : traced) tally.Add(u.attempted, u.failed);
  OpenLoopResult traced_open;
  if (serve) {
    traced_open = workload->OpenLoop(std::make_shared<obs::Tracer>());
    tally.Add(traced_open.attempted, traced_open.failed);
  }
  extra.back().value = Ratio(static_cast<double>(tally.failed),
                             static_cast<double>(tally.attempted));

  // Partition::Create, the per-pass partitioning every engine run pays.
  std::vector<double> partitions;
  const GraphPtr graph = workload->PartitionedGraph();
  for (int i = 0; i < 3; ++i) {
    const double t0 = Now();
    auto partition =
        Partition::Create(graph, kWorkers, PartitionScheme::kHash);
    partitions.push_back(Now() - t0);
    if (!partition.ok()) tally.Add(0, 1);
  }

  // Counts come from the first traced unit: every unit does identical work,
  // so they repeat exactly. Times are medians over the traced units.
  const UnitResult& first = traced.front();
  const Metrics& m = first.metrics;
  const StorageStats& st = first.storage;
  const int host_threads = BaseOptions().host_threads;
  auto median_of = [&](auto fn) {
    std::vector<double> values;
    for (const Ledger& l : ledgers) values.push_back(fn(l));
    return Median(values);
  };
  const double kernel_s = median_of([](const Ledger& l) {
    return l.Host({"dense:scan", "sparse:push", "vmap:filter", "reduce:map"});
  });
  const double epoch_s =
      median_of([](const Ledger& l) { return l.Host({"walk:epoch"}); });
  const double traced_run_s =
      Median(Collect(traced, [](auto& u) { return u.run_s; }));
  const double fault_tx = static_cast<double>(
      m.fault.fragments_sent + m.fault.retries + m.fault.duplicates +
      m.fault.escalations);
  const ModeledTime model = ModelTime(m, ClusterConfig{});
  const double unit_wall = Median(Collect(traced, [](auto& u) {
    return u.run_s + u.async_s;
  }));
  const serving::ServingStats& sstats = first.serving;

  std::vector<Metric> layers = {
      // graph
      {"graph.partition_s", Median(partitions), "s"},
      {"graph.block_write_s", workload->block_write_s(), "s"},
      {"storage.blocks_read", static_cast<double>(st.blocks_read), "count"},
      {"storage.bytes_read", static_cast<double>(st.bytes_read), "bytes"},
      {"storage.decode_bytes", static_cast<double>(st.decode_bytes), "bytes"},
      {"storage.demand_misses", static_cast<double>(st.demand_misses),
       "count"},
      {"storage.hit_ratio",
       st.accesses > 0 ? 1.0 - Ratio(static_cast<double>(st.blocks_read),
                                     static_cast<double>(st.accesses))
                       : 0.0,
       "ratio"},
      {"storage.read_s", median_of([](const Ledger& l) {
         return l.storage_read_s;
       }), "s"},
      // core: BSP
      {"core.supersteps", static_cast<double>(m.supersteps), "count"},
      {"core.edges_scanned", static_cast<double>(m.edges_scanned), "count"},
      {"core.kernel_s", kernel_s, "s"},
      {"core.kernel_ns_per_edge",
       Ratio(kernel_s * 1e9, static_cast<double>(m.edges_scanned)),
       "ns/edge"},
      {"core.commit_s",
       median_of([](const Ledger& l) { return l.Host({"barrier:commit"}); }),
       "s"},
      {"core.mirror_apply_s",
       median_of([](const Ledger& l) { return l.Host({"barrier:apply"}); }),
       "s"},
      {"core.merge_s", median_of([](const Ledger& l) {
         return l.Host({"dense:merge", "vmap:merge", "sparse:flush",
                        "sparse:scan", "sparse:decode", "sparse:apply"});
       }), "s"},
      {"core.parallel_efficiency", median_of([&](const Ledger& l) {
         double busy = 0;
         double wall = 0;
         for (const auto& [name, task] : l.task_s) {
           auto it = l.host_s.find(name);
           if (it == l.host_s.end()) continue;
           busy += task;
           wall += it->second;
         }
         return Ratio(busy, wall * host_threads);
       }), "ratio"},
      {"core.step_overhead_us", median_of([](const Ledger& l) {
         return Ratio(l.step_overhead_s * 1e6,
                      static_cast<double>(l.bsp_steps));
       }), "us"},
      // core: async
      {"async.rounds", static_cast<double>(m.async.rounds), "count"},
      {"async.relaxations", static_cast<double>(m.async.relaxations),
       "count"},
      {"async.useful_ratio",
       Ratio(static_cast<double>(first.settled),
             static_cast<double>(m.async.relaxations)),
       "ratio"},
      {"async.token_sweeps", static_cast<double>(m.async.token_sweeps),
       "count"},
      {"async.drain_s",
       median_of([](const Ledger& l) { return l.Host({"async:drain"}); }),
       "s"},
      {"async.apply_s",
       median_of([](const Ledger& l) { return l.Host({"async:apply"}); }),
       "s"},
      {"async.sync_s", median_of([](const Ledger& l) {
         return l.Host({"async:sync", "async:sync_apply"});
       }), "s"},
      // flashware
      {"bus.bytes", static_cast<double>(m.bytes), "bytes"},
      {"bus.messages", static_cast<double>(m.messages), "count"},
      {"bus.exchange_s",
       median_of([](const Ledger& l) { return l.Host({"bus:exchange"}); }),
       "s"},
      {"fault.drops", static_cast<double>(m.fault.drops), "count"},
      {"fault.duplicates", static_cast<double>(m.fault.duplicates), "count"},
      {"fault.retries", static_cast<double>(m.fault.retries), "count"},
      {"fault.wire_amplification",
       Ratio(fault_tx, static_cast<double>(m.fault.fragments_sent)), "ratio"},
      {"model.measured_ratio", Ratio(model.total, unit_wall), "ratio"},
      // walks
      {"walks.walker_steps", static_cast<double>(m.walks.walker_steps),
       "count"},
      {"walks.shuffle_entries", static_cast<double>(m.walks.shuffle_entries),
       "count"},
      {"walks.walkers_shipped", static_cast<double>(m.walks.walkers_shipped),
       "count"},
      {"walks.frame_bytes", static_cast<double>(m.walks.frame_bytes),
       "bytes"},
      {"walks.shuffle_s", median_of([](const Ledger& l) {
         auto it = l.task_s.find("walk:shuffle");
         return it == l.task_s.end() ? 0.0 : it->second;
       }), "s"},
      {"walks.epoch_s", epoch_s, "s"},
      {"walks.ns_per_step",
       Ratio(epoch_s * 1e9, static_cast<double>(m.walks.walker_steps)),
       "ns/step"},
      // serving
      {"serve.batches", static_cast<double>(sstats.batches), "count"},
      {"serve.engine_passes", static_cast<double>(sstats.engine_passes),
       "count"},
      {"serve.mean_width",
       Ratio(static_cast<double>(sstats.answered),
             static_cast<double>(sstats.batches)),
       "count"},
      {"serve.cache_hit_ratio",
       Ratio(static_cast<double>(sstats.cache_hits),
             static_cast<double>(sstats.cache_hits + sstats.cache_misses)),
       "ratio"},
      {"serve.batch_s",
       median_of([](const Ledger& l) { return l.Host({"serve:batch"}); }),
       "s"},
      {"serve.queue_wait_p50_s",
       SummarizeLatencies(traced_open.queue_wait_s).p50,
       "s"},
      {"serve.generator_lag_p90_s",
       open.lag_s.size() >= 100 ? SummarizeLatencies(open.lag_s).p90 : 0, "s"},
      // obs
      {"trace.overhead_frac", Ratio(traced_run_s, run_s) - (run_s > 0 ? 1 : 0),
       "ratio"},
      {"trace.unattributed_frac", median_of([](const Ledger& l) {
         return l.unit_s > 0 ? 1.0 - l.covered_s / l.unit_s : 0.0;
       }), "ratio"},
      {"trace.spans", static_cast<double>(ledgers.front().spans), "count"},
  };
  layers.insert(layers.end(), extra.begin(), extra.end());
  Print(e2e);
  Print(layers);
  const bool correct = tally.failed == 0;
  PrintJson(correct, tally.attempted, tally.failed, layers);
  workload->Cleanup();
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace flash::perfbench

int main(int argc, char** argv) { return flash::perfbench::Main(argc, argv); }
