// Random-walk engine throughput: FlashMob-style batched-by-vertex walkers
// against the naive per-walker baseline (arrival-order advance, one wire
// frame per shipped walker), on both storage backends. The batched mode
// keeps each worker's walker pool sorted by current vertex — sequential
// adjacency reads, one span fetch per distinct vertex, one checksummed
// frame per channel — which is where walk engines get their throughput
// (FlashMob, SOSP'21); the naive baseline pays a span fetch, a frame
// header, an FNV digest, and the allocator per walker. Both modes produce
// bit-identical traces and visit counters (the walks_test sweep asserts
// it).
//
// Two gates (exit 1 if either fails):
//  - modelled, in-memory backend: batched modelled walkers/sec at least
//    FLASH_BENCH_WALK_GATE (default 5.0) times the naive baseline. Each
//    mode's deterministic step counters are priced through the cost model
//    on the paper cluster (counter-only, like storage_tier.cc: measured
//    comp_* stripped so the number is bit-stable). Most of this win — one
//    frame dispatch per channel instead of one per migrating walker, and
//    3x fewer wire bytes — lives in the network, which one host cannot
//    exhibit.
//  - measured, both backends: batched wall-clock (min of kWallRuns runs)
//    no slower than naive. On one host the batched mode wins because it
//    reorders walkers with a counting scatter, per-group radix sorts and a
//    merge of sorted runs, never a comparison sort of a whole pool, and
//    reads each adjacency list once per vertex rather than once per walker.
//
// Emits out/BENCH_random_walk.json. Knobs (env):
//   FLASH_BENCH_SCALE       graph scale (default 0.25); the vertex floor
//                           keeps the working set bigger than the caches
//                           even at CI smoke scale
//   FLASH_BENCH_WORKERS     simulated workers (default 8 here: a higher
//                           worker count raises the cross-partition ship
//                           rate the frame batching amortises)
//   FLASH_BENCH_WALKERS_X   walkers per vertex (default 4)
//   FLASH_BENCH_WALK_LEN    steps per walker (default 6)
//   FLASH_BENCH_WALK_GATE   required batched/naive speedup (default 5.0)

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "bench/harness/harness.h"
#include "common/logging.h"
#include "common/timer.h"
#include "flashware/cost_model.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/paged_storage.h"
#include "walks/walk_engine.h"

namespace {

using flash::GraphPtr;
using flash::RuntimeOptions;
using flash::walks::WalkEngine;
using flash::walks::WalkResult;
using flash::walks::WalkSpec;

int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atoi(value) : fallback;
}

double EnvDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atof(value) : fallback;
}

// Wall-clock runs per mode; the gate compares the minimum of each.
constexpr int kWallRuns = 3;

struct WalkPoint {
  double seconds = 0;           // Measured wall-clock, min of kWallRuns.
  double walkers_per_sec = 0;
  double modeled_seconds = 0;   // Counter-only paper-cluster price (gated).
  double modeled_walkers_per_sec = 0;
  WalkResult result;
};

/// Deterministic paper-cluster price of a run: strip the measured compute
/// overrides so only exact counters (walker advances, shuffle entries,
/// frame counts, wire bytes, storage blocks) reach the model — the same
/// counter-only discipline as storage_tier.cc.
double CounterOnlyModeled(flash::Metrics metrics, int workers) {
  for (flash::StepSample& step : metrics.steps) {
    step.comp_max = 0;
    step.comp_total = 0;
  }
  metrics.async.comp_seconds_max = 0;
  flash::ClusterConfig config;
  config.nodes = workers;
  return flash::ModelTime(metrics, config).total;
}

/// One timed run of `point`'s mode; the first run's result is the point's.
void TimeWalk(const GraphPtr& graph, const RuntimeOptions& options,
              bool batch_by_vertex, WalkPoint& point) {
  WalkEngine engine(graph, options);
  WalkSpec spec;
  spec.kind = flash::walks::WalkKind::kUniform;
  spec.seed = 42;
  spec.batch_by_vertex = batch_by_vertex;
  spec.record_traces = false;  // Throughput of the engine, not the corpus.
  flash::Timer timer;
  WalkResult result = engine.Run(spec);
  const double seconds = timer.Seconds();
  if (point.seconds > 0) {
    FLASH_CHECK(result.visits == point.result.visits)
        << "a repeated walk diverged";
    point.seconds = std::min(point.seconds, seconds);
  } else {
    point.result = std::move(result);
    point.seconds = seconds;
  }
}

/// Throughputs of a point once its runs are in.
void Rate(WalkPoint& point, int workers) {
  const auto& walks = point.result.metrics.walks;
  const uint64_t advances = walks.walker_steps + walks.terminations;
  point.walkers_per_sec =
      point.seconds > 0 ? static_cast<double>(advances) / point.seconds : 0;
  point.modeled_seconds = CounterOnlyModeled(point.result.metrics, workers);
  point.modeled_walkers_per_sec =
      point.modeled_seconds > 0
          ? static_cast<double>(advances) / point.modeled_seconds
          : 0;
}

}  // namespace

int main() {
  // Vertex floor: even the CI smoke scale (0.05) keeps the visit counters
  // and adjacency arrays larger than the last-level cache, so the naive
  // mode's random access pattern pays real misses.
  const double scale = flash::bench::BenchScale();
  const int rmat_scale = std::max(
      17, 19 + static_cast<int>(std::lround(std::log2(std::max(0.01, scale)))));
  const int workers = EnvInt("FLASH_BENCH_WORKERS", 8);
  const int walkers_x = EnvInt("FLASH_BENCH_WALKERS_X", 4);
  const int walk_len = EnvInt("FLASH_BENCH_WALK_LEN", 6);
  const double gate = EnvDouble("FLASH_BENCH_WALK_GATE", 5.0);

  flash::RmatOptions graph_options;
  graph_options.scale = rmat_scale;
  graph_options.avg_degree = 12.0;
  graph_options.symmetrize = true;
  graph_options.seed = 42;
  const GraphPtr mem = flash::GenerateRmat(graph_options).value();
  const std::string graph_name = "rmat" + std::to_string(rmat_scale);

  RuntimeOptions options;
  options.num_workers = workers;
  options.num_walkers =
      static_cast<uint64_t>(walkers_x) * mem->NumVertices();
  options.walk_length = static_cast<uint32_t>(std::max(1, walk_len));
  options.record_steps = true;  // The modelled gate prices step samples.

  const std::string block_path = "/tmp/flash_bench_walk_" +
                                 std::to_string(::getpid()) + ".fblk";
  flash::Status saved = flash::SaveBlockFile(*mem, block_path);
  FLASH_CHECK(saved.ok()) << saved.ToString();
  const GraphPtr paged = flash::OpenPagedGraph(block_path).value();

  flash::bench::BenchReport report("random_walk");
  bool gate_ok = true;
  double gate_ratio = 0;
  bool wall_gate_ok = true;

  for (const bool use_paged : {false, true}) {
    const GraphPtr& graph = use_paged ? paged : mem;
    const char* backend = use_paged ? "paged" : "mem";
    // Alternate the modes, so both see the same host noise and, on the
    // paged backend, the same cache state from the second run on. The
    // modelled numbers come from each mode's first run.
    WalkPoint batched;
    WalkPoint naive;
    for (int run = 0; run < kWallRuns; ++run) {
      TimeWalk(graph, options, /*batch=*/true, batched);
      TimeWalk(graph, options, /*batch=*/false, naive);
    }
    Rate(batched, workers);
    Rate(naive, workers);

    // The two modes must agree on the exact counters before their speeds
    // are comparable at all.
    FLASH_CHECK(batched.result.visits == naive.result.visits)
        << "batched and naive walks diverged on " << backend;

    const bool wall_ok = batched.seconds <= naive.seconds;
    const double wall_speedup =
        naive.walkers_per_sec > 0
            ? batched.walkers_per_sec / naive.walkers_per_sec
            : 0;
    const double modeled_speedup =
        naive.modeled_walkers_per_sec > 0
            ? batched.modeled_walkers_per_sec / naive.modeled_walkers_per_sec
            : 0;
    for (const WalkPoint* point : {&batched, &naive}) {
      const bool is_batched = point == &batched;
      const auto& walks = point->result.metrics.walks;
      report.Add(graph_name,
                 {{"backend", backend},
                  {"mode", is_batched ? "batched" : "naive"},
                  {"workers", std::to_string(workers)}},
                 {{"seconds", point->seconds},
                  {"walkers_per_sec", point->walkers_per_sec},
                  {"modeled_seconds", point->modeled_seconds},
                  {"modeled_walkers_per_sec",
                   point->modeled_walkers_per_sec},
                  {"walker_steps", static_cast<double>(walks.walker_steps)},
                  {"shuffle_entries",
                   static_cast<double>(walks.shuffle_entries)},
                  {"walkers_shipped",
                   static_cast<double>(walks.walkers_shipped)},
                  {"wire_frames", static_cast<double>(
                                      point->result.metrics.messages)},
                  {"frame_bytes", static_cast<double>(walks.frame_bytes)},
                  {"wire_bytes",
                   static_cast<double>(point->result.metrics.bytes)}});
    }
    report.Add(graph_name,
               {{"backend", backend},
                {"point", "speedup"},
                {"workers", std::to_string(workers)}},
               {{"batched_over_naive", modeled_speedup},
                {"wall_batched_over_naive", wall_speedup},
                {"gate_threshold", gate},
                {"gate_pass", modeled_speedup >= gate ? 1.0 : 0.0},
                {"wall_gate_pass", wall_ok ? 1.0 : 0.0}});
    std::printf("%-5s batched %.3fs (model %.3fs)  naive %.3fs "
                "(model %.3fs)  modelled speedup %.2fx  wall %.2fx "
                "(min of %d)\n",
                backend, batched.seconds, batched.modeled_seconds,
                naive.seconds, naive.modeled_seconds, modeled_speedup,
                wall_speedup, kWallRuns);
    if (!wall_ok) wall_gate_ok = false;

    if (!use_paged) {
      gate_ratio = modeled_speedup;
      if (modeled_speedup < gate) gate_ok = false;
    }
  }
  std::remove(block_path.c_str());

  const std::string path = report.Write();
  std::printf("wrote %s\n", path.c_str());
  if (!gate_ok) {
    std::fprintf(stderr,
                 "random_walk: batched/naive gate failed (%.2fx < %.2fx)\n",
                 gate_ratio, gate);
  }
  if (!wall_gate_ok) {
    std::fprintf(stderr,
                 "random_walk: batched mode slower than naive in wall-clock\n");
  }
  return gate_ok && wall_gate_ok ? 0 : 1;
}
