// Semi-external storage-tier sweep: BFS and PageRank on the web-graph twins
// (UK, SK) with the edge blocks behind the paged backend, sweeping the LRU
// cache budget from 1/8x to 2x the fixed-width block size, cold and warm. Because
// block reads are counted exactly (the loaded-block set is deterministic at
// any host_threads), every record carries exact bytes-read-per-superstep;
// the modelled times price those counters on the paper's cluster. A final
// async section runs BFS on the async engine with plan-ahead paging on and
// off.
//
// Gates (exit 1 on failure), all priced counter-only (measured per-step
// compute seconds stripped) so they compare deterministic integers:
//   - warm full-size cache: paged modelled time within 5% of in-memory;
//   - compression: the delta file's stored block bytes <= 0.55x the bytes
//     fixed-width ids would store in the same blocks (unweighted web twins);
//   - async plan-ahead: fewer demand misses than demand-only paging.
//
// Emits out/BENCH_storage_tier.json. Knobs (env):
//   FLASH_BENCH_SCALE     dataset twin scale (default 0.25)
//   FLASH_BENCH_WORKERS   simulated workers (default 4)
//   FLASH_BENCH_PR_ITERS  PageRank iterations (default 5)

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "algorithms/algorithms.h"
#include "bench/harness/harness.h"
#include "common/logging.h"
#include "graph/io.h"
#include "graph/paged_storage.h"

namespace {

using flash::GraphPtr;
using flash::Metrics;
using flash::RuntimeOptions;
using flash::VertexId;

int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atoi(value) : fallback;
}

/// Stored block bytes of the same blocks with fixed-width payloads: a
/// 4-byte id (+ a 4-byte weight) per edge in both directions, plus one
/// BlockHeader per block. Block boundaries measure decoded bytes, so they
/// do not depend on the payload encoding.
uint64_t FixedWidthBlockBytes(const flash::PagedStorage& storage,
                              const flash::Graph& graph) {
  const uint64_t edge_bytes =
      sizeof(VertexId) + (graph.is_weighted() ? sizeof(float) : 0);
  const uint64_t blocks =
      storage.block_index(true).size() + storage.block_index(false).size();
  return 2 * graph.NumEdges() * edge_bytes +
         blocks * sizeof(flash::BlockHeader);
}

VertexId RootWithEdges(const flash::Graph& g) {
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (g.OutDegree(v) > 0) return v;
  }
  return 0;
}

struct RunPoint {
  Metrics metrics;
  double modeled = 0;
};

RunPoint RunApp(const char* app, const GraphPtr& graph, VertexId root,
                int pr_iters, const RuntimeOptions& options) {
  RunPoint point;
  if (std::string(app) == "bfs") {
    point.metrics = flash::algo::RunBfs(graph, root, options).metrics;
  } else {
    point.metrics = flash::algo::RunPageRank(graph, pr_iters, options).metrics;
  }
  point.modeled = flash::bench::CounterOnlyModeled(
      point.metrics, flash::bench::BenchWorkers());
  return point;
}

}  // namespace

int main() {
  const int pr_iters = EnvInt("FLASH_BENCH_PR_ITERS", 5);
  const std::vector<double> cache_factors = {0.125, 0.25, 0.5, 1.0, 2.0};
  RuntimeOptions options;
  options.num_workers = flash::bench::BenchWorkers();

  flash::bench::BenchReport report("storage_tier");
  bool gate_ok = true;

  for (const char* abbr : {"UK", "SK"}) {
    const GraphPtr mem = flash::bench::LoadDataset(abbr).graph;
    const VertexId root = RootWithEdges(*mem);
    const std::string block_path = "/tmp/flash_bench_storage_" +
                                   std::string(abbr) + "_" +
                                   std::to_string(::getpid()) + ".fblk";
    flash::Status saved = flash::SaveBlockFile(*mem, block_path);
    FLASH_CHECK(saved.ok()) << saved.ToString();
    auto probe = flash::PagedStorage::Open(block_path).value();
    const uint64_t delta_bytes = probe->total_block_bytes();
    // Cache budgets scale against the fixed-width size: the cache is
    // charged decoded bytes, which that size tracks block for block.
    const uint64_t file_bytes = FixedWidthBlockBytes(*probe, *mem);

    // Compression gate: on the unweighted web twins the delta payload must
    // reach at least the paper-motivated 0.55x of the fixed-width bytes.
    const double stored_ratio = static_cast<double>(delta_bytes) /
                                static_cast<double>(file_bytes);
    report.Add(abbr, {{"point", "compression"}},
               {{"raw_block_bytes", static_cast<double>(file_bytes)},
                {"delta_block_bytes", static_cast<double>(delta_bytes)},
                {"delta_vs_raw", stored_ratio}});
    if (!(stored_ratio <= 0.55)) {
      std::fprintf(stderr,
                   "GATE FAIL %s: delta blocks %.0f bytes vs fixed-width "
                   "%.0f (ratio %.4f > 0.55)\n",
                   abbr, static_cast<double>(delta_bytes),
                   static_cast<double>(file_bytes), stored_ratio);
      gate_ok = false;
    }

    for (const char* app : {"bfs", "pagerank"}) {
      const RunPoint base = RunApp(app, mem, root, pr_iters, options);
      report.Add(abbr, {{"app", app}, {"backend", "mem"}},
                 {{"modeled_seconds", base.modeled},
                  {"supersteps", static_cast<double>(base.metrics.supersteps)},
                  {"file_bytes", static_cast<double>(file_bytes)}});

      for (double factor : cache_factors) {
        flash::PagedOptions paged_options;
        paged_options.cache_bytes =
            static_cast<uint64_t>(static_cast<double>(file_bytes) * factor);
        const GraphPtr paged =
            flash::OpenPagedGraph(block_path, paged_options).value();

        const RunPoint cold = RunApp(app, paged, root, pr_iters, options);
        const RunPoint warm = RunApp(app, paged, root, pr_iters, options);

        for (const RunPoint* point : {&cold, &warm}) {
          const bool is_cold = point == &cold;
          report.Add(
              abbr,
              {{"app", app},
               {"backend", "paged"},
               {"cache_factor", std::to_string(factor)},
               {"state", is_cold ? "cold" : "warm"}},
              {{"modeled_seconds", point->modeled},
               {"modeled_vs_mem",
                base.modeled > 0 ? point->modeled / base.modeled : 0.0},
               {"storage_bytes_read",
                static_cast<double>(point->metrics.storage_bytes_read)},
               {"storage_blocks_read",
                static_cast<double>(point->metrics.storage_blocks_read)},
               {"storage_decode_bytes",
                static_cast<double>(point->metrics.storage_decode_bytes)},
               {"evictions",
                static_cast<double>(point->metrics.storage.evictions)},
               {"peak_resident_bytes",
                static_cast<double>(
                    point->metrics.storage.peak_resident_bytes)}});
        }

        // Exact per-superstep I/O profile, from the cold smallest-cache
        // run (the regime where the paging schedule actually matters).
        if (factor == cache_factors.front()) {
          int superstep = 0;
          for (const flash::StepSample& step : cold.metrics.steps) {
            report.Add(
                abbr,
                {{"app", app},
                 {"backend", "paged"},
                 {"cache_factor", std::to_string(factor)},
                 {"point", "superstep"},
                 {"superstep", std::to_string(superstep++)}},
                {{"storage_bytes", static_cast<double>(step.storage_bytes)},
                 {"storage_blocks", static_cast<double>(step.storage_blocks)},
                 {"storage_decode_bytes",
                  static_cast<double>(step.storage_decode_bytes)}});
          }
        }

        // Gate: a warm cache at least the decoded working-set size serves
        // every block from memory, so counter-only pricing must land
        // within 5% of in-memory.
        if (factor >= 1.0) {
          const double ratio =
              base.modeled > 0 ? warm.modeled / base.modeled : 1.0;
          if (!(ratio > 0.95 && ratio < 1.05)) {
            std::fprintf(stderr,
                         "GATE FAIL %s/%s cache_factor=%.3f: warm modeled "
                         "%.6fs vs mem %.6fs (ratio %.4f)\n",
                         abbr, app, factor, warm.modeled, base.modeled,
                         ratio);
            gate_ok = false;
          }
        }
      }
    }

    // Async plan-ahead paging: BFS on the async engine, with the per-round
    // block plan on vs the demand-only baseline. Answers are identical (the
    // storage tests assert that); what the plan buys is reads that stop
    // stalling workers — gated here as a strict demand-miss drop. The cache
    // is held to 1/8 of the fixed-width size so the rounds actually page:
    // with the whole file resident neither mode ever misses.
    {
      RuntimeOptions async_options = options;
      async_options.execution_mode = flash::ExecutionMode::kAsync;
      flash::PagedOptions paged_options;
      paged_options.cache_bytes = std::max<uint64_t>(file_bytes / 8, 1);
      std::map<std::string, uint64_t> misses;
      for (const bool plan : {true, false}) {
        async_options.async_plan_blocks = plan;
        const GraphPtr paged =
            flash::OpenPagedGraph(block_path, paged_options).value();
        const Metrics metrics =
            flash::algo::RunBfs(paged, root, async_options).metrics;
        const flash::StorageStats stats =
            static_cast<flash::PagedStorage*>(paged->storage())->stats();
        const char* paging = plan ? "planned" : "demand";
        misses[paging] = stats.demand_misses;
        report.Add(abbr,
                   {{"app", "bfs_async"},
                    {"backend", "paged"},
                    {"paging", paging}},
                   {{"modeled_seconds",
                     flash::bench::CounterOnlyModeled(
                         metrics, flash::bench::BenchWorkers())},
                    {"demand_misses", static_cast<double>(stats.demand_misses)},
                    {"storage_bytes_read",
                     static_cast<double>(stats.bytes_read)},
                    {"storage_blocks_read",
                     static_cast<double>(stats.blocks_read)}});
      }
      if (!(misses["planned"] < misses["demand"])) {
        std::fprintf(stderr,
                     "GATE FAIL %s: async plan-ahead demand misses %llu not "
                     "below demand-only %llu\n",
                     abbr,
                     static_cast<unsigned long long>(misses["planned"]),
                     static_cast<unsigned long long>(misses["demand"]));
        gate_ok = false;
      }
    }

    std::remove(block_path.c_str());
  }

  const std::string path = report.Write();
  std::printf("wrote %s\n", path.c_str());
  if (!gate_ok) {
    std::fprintf(stderr, "storage_tier: a gate failed\n");
    return 1;
  }
  return 0;
}
