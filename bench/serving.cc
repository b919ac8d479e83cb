// Serving-layer load bench: queries/sec and modelled p50/p99 latency vs
// offered load, batched coalescing vs a one-query-per-engine-run baseline.
//
// Two segments:
//  1. Measured: replay real BFS-distance query bursts through
//     flash::serving::Server twice — batch_window=64 (up to 64 distinct
//     sources per traversal pass) and batch_window=1 (one source per pass;
//     with random sources, every query its own engine pass) — on the social
//     twin, recording modelled throughput and latency quantiles.
//  2. Queue sweep: from the measured per-batch and per-query service
//     times, price burst queues of 1k / 10k / 100k / 1M requests on the
//     single modelled executor (closed form — the i-th batch completes at
//     i * s_batch, so quantiles need no simulation). This is how the bench
//     reaches 1M queued requests without running 1M engine passes.
//
// Acceptance gate (ISSUE 7): at equal modelled p99, batched serving must
// sustain >= 5x the baseline's queries/sec. Both systems' p99 under a
// burst is (essentially) the burst drain time, so equal-p99 throughput is
// queries-answered-per-second-of-drain: W / s_batch vs 1 / s_query.
//
// Artifact: out/BENCH_serving.json (flash-bench-v1).

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include <cmath>

#include "bench/harness/harness.h"
#include "common/logging.h"
#include "common/random.h"
#include "flashware/cost_model.h"
#include "serving/server.h"

namespace flash::bench {
namespace {

using serving::Query;
using serving::QueryKind;
using serving::Server;
using serving::ServerOptions;
using serving::ServingStats;

std::vector<Query> MakeBfsQueries(const GraphPtr& graph, size_t count,
                                  uint64_t seed) {
  Rng rng(seed);
  std::vector<Query> queries;
  queries.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Query q;
    q.kind = QueryKind::kBfsDistance;
    q.tenant = (i % 3 == 0) ? "analytics" : "app";
    q.source = static_cast<VertexId>(rng.Uniform(graph->NumVertices()));
    q.target = static_cast<VertexId>(rng.Uniform(graph->NumVertices()));
    queries.push_back(q);
  }
  return queries;
}

struct RunResult {
  double qps = 0;          // answered / modelled makespan.
  double service_mean = 0; // Mean modelled service per batch.
  LatencyStats latency;
  uint64_t batches = 0;
};

/// Replays `queries` as one burst at t=0 through a Server with the given
/// width (distinct sources per pass); everything reported is modelled time.
RunResult Replay(const GraphPtr& graph, const std::vector<Query>& queries,
                 int batch_window) {
  RuntimeOptions runtime;
  runtime.num_workers = BenchWorkers();
  ServerOptions options;
  options.scheduler.batch_window = batch_window;
  options.scheduler.max_queue = queries.size();
  options.cluster.nodes = BenchWorkers();
  Server server(graph, runtime, options);
  for (const Query& q : queries) {
    auto id_or = server.Submit(q, 0.0);
    FLASH_CHECK(id_or.ok()) << id_or.status().ToString();
  }
  server.Drain();
  const ServingStats& stats = server.stats();
  RunResult result;
  result.latency = SummarizeLatencies(stats.latencies);
  result.batches = stats.batches;
  double service_sum = 0;
  double makespan = 0;
  for (const auto& b : stats.batch_log) {
    service_sum += b.service_s;
    makespan = std::max(makespan, b.complete_s);
  }
  result.service_mean =
      stats.batches == 0 ? 0 : service_sum / static_cast<double>(stats.batches);
  result.qps = makespan == 0
                   ? 0
                   : static_cast<double>(stats.answered) / makespan;
  return result;
}

/// Closed-form burst-queue pricing: `queued` requests at t=0, answered in
/// ceil(queued / width) batches of `service_s` each on one executor.
RunResult PriceQueue(size_t queued, int width, double service_s) {
  RunResult result;
  const auto w = static_cast<size_t>(width);
  const size_t batches = (queued + w - 1) / w;
  result.batches = batches;
  result.service_mean = service_s;
  const double makespan = static_cast<double>(batches) * service_s;
  result.qps = makespan == 0 ? 0 : static_cast<double>(queued) / makespan;
  // Query j (0-based, batch order) completes with batch floor(j/w) + 1.
  auto latency_of = [&](size_t j) {
    return static_cast<double>(j / w + 1) * service_s;
  };
  LatencyStats& lat = result.latency;
  lat.count = queued;
  double sum = 0;
  // Mean over batches in closed form: batch i carries its width * (i+1)*s.
  for (size_t i = 0; i < batches; ++i) {
    const size_t width_i = std::min(w, queued - i * w);
    sum += static_cast<double>(width_i) * static_cast<double>(i + 1) *
           service_s;
  }
  lat.mean = sum / static_cast<double>(queued);
  auto rank = [&](double q) {
    const auto r = static_cast<size_t>(
        std::max(1.0, std::ceil(q * static_cast<double>(queued))));
    return latency_of(r - 1);
  };
  lat.p50 = rank(0.50);
  lat.p90 = rank(0.90);
  lat.p99 = rank(0.99);
  lat.max = latency_of(queued - 1);
  return result;
}

int Main() {
  const DatasetInfo& dataset = LoadDataset("OR");
  const GraphPtr& graph = dataset.graph;
  std::printf("serving bench on %s: %u vertices, %llu edges\n",
              dataset.name.c_str(), graph->NumVertices(),
              static_cast<unsigned long long>(graph->NumEdges()));

  BenchReport report("serving");
  const int kWidth = 64;
  const size_t measured_batched =
      std::max<size_t>(kWidth, static_cast<size_t>(256 * BenchScale() * 4));
  const size_t measured_baseline = 16;  // Per-query passes are expensive.

  // Segment 1: measured replays.
  std::vector<Query> queries = MakeBfsQueries(graph, measured_batched, 1234);
  RunResult batched = Replay(graph, queries, kWidth);
  queries.resize(measured_baseline);
  RunResult baseline = Replay(graph, queries, 1);
  std::printf(
      "measured batched: %zu queries, %llu batches, %.1f qps, p99 %.2fms\n",
      measured_batched, static_cast<unsigned long long>(batched.batches),
      batched.qps, batched.latency.p99 * 1e3);
  std::printf(
      "measured baseline: %zu queries, %.1f qps, p99 %.2fms\n",
      measured_baseline, baseline.qps, baseline.latency.p99 * 1e3);
  auto add = [&](const std::string& mode, size_t queued, const RunResult& r,
                 bool measured) {
    report.Add(dataset.name,
               {{"mode", mode},
                {"queued", std::to_string(queued)},
                {"segment", measured ? "measured" : "priced"}},
               {{"qps", r.qps},
                {"batches", static_cast<double>(r.batches)},
                {"service_mean_s", r.service_mean},
                {"latency_mean_s", r.latency.mean},
                {"p50_s", r.latency.p50},
                {"p90_s", r.latency.p90},
                {"p99_s", r.latency.p99}});
  };
  add("batched", measured_batched, batched, true);
  add("baseline", measured_baseline, baseline, true);

  // Segment 2: the offered-load sweep, priced from the measured service
  // times (1k queued runs 1M-queued math identically — only quantile
  // positions move).
  for (size_t queued : {size_t{1000}, size_t{10000}, size_t{100000},
                        size_t{1000000}}) {
    RunResult b = PriceQueue(queued, kWidth, batched.service_mean);
    RunResult s = PriceQueue(queued, 1, baseline.service_mean);
    add("batched", queued, b, false);
    add("baseline", queued, s, false);
    std::printf(
        "queued %7zu: batched %9.1f qps (p99 %8.2fms) | baseline %7.1f qps "
        "(p99 %10.2fms)\n",
        queued, b.qps, b.latency.p99 * 1e3, s.qps, s.latency.p99 * 1e3);
  }

  // Acceptance gate: queries answered per second of drain at equal p99.
  const double speedup = (static_cast<double>(kWidth) *
                          baseline.service_mean) / batched.service_mean;
  report.Add(dataset.name, {{"mode", "gate"}},
             {{"speedup_at_equal_p99", speedup},
              {"batched_service_s", batched.service_mean},
              {"baseline_service_s", baseline.service_mean}});
  std::printf("throughput at equal modelled p99: batched %.1fx baseline "
              "(need >= 5): %s\n",
              speedup, speedup >= 5.0 ? "PASS" : "FAIL");

  std::printf("wrote %s\n", report.Write().c_str());
  return speedup >= 5.0 ? 0 : 1;
}

}  // namespace
}  // namespace flash::bench

int main() { return flash::bench::Main(); }
