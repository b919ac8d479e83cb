// Overhead of the obs/ span tracer: runs BFS and PageRank with tracing off
// and on, compares min-of-reps wall times, and asserts that every exact
// counter (supersteps, edges, bytes, messages) is identical in both modes —
// the "observability never perturbs the simulation" property.
//
// Emits out/BENCH_trace_overhead.json (out/ is created if needed). Knobs:
//   FLASH_BENCH_SCALE     RMAT scale if >= 1, smoke fraction if < 1
//                         (default scale 14)
//   FLASH_BENCH_REPS      timed repetitions per mode (default 3)
//   FLASH_BENCH_PR_ITERS  PageRank iterations (default 5)

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/algorithms.h"
#include "bench/harness/harness.h"
#include "common/logging.h"
#include "graph/generators.h"
#include "obs/tracer.h"

namespace {

int EnvInt(const char* name, int fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  int value = std::atoi(env);
  return value > 0 ? value : fallback;
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ModeResult {
  double best_seconds = 0;
  flash::Metrics metrics;
  uint64_t spans = 0;
};

// Times `run` (which returns the run's Metrics) `reps` times and keeps the
// fastest repetition — the standard defence against scheduler noise.
template <typename Fn>
ModeResult TimeMode(int reps, Fn&& run) {
  ModeResult result;
  result.best_seconds = 1e100;
  for (int i = 0; i < reps; ++i) {
    double begin = Now();
    result.metrics = run(&result.spans);
    result.best_seconds = std::min(result.best_seconds, Now() - begin);
  }
  return result;
}

bool CountersMatch(const flash::Metrics& a, const flash::Metrics& b) {
  return a.supersteps == b.supersteps && a.edges_scanned == b.edges_scanned &&
         a.vertices_updated == b.vertices_updated &&
         a.messages == b.messages && a.bytes == b.bytes &&
         a.dense_steps == b.dense_steps && a.sparse_steps == b.sparse_steps;
}

}  // namespace

int main() {
  const int scale = flash::bench::RmatScaleFromEnv(14);
  const int reps = EnvInt("FLASH_BENCH_REPS", 3);
  const int pr_iters = EnvInt("FLASH_BENCH_PR_ITERS", 5);

  flash::RmatOptions gen;
  gen.scale = scale;
  auto graph_or = flash::GenerateRmat(gen);
  FLASH_CHECK(graph_or.ok()) << graph_or.status().ToString();
  flash::GraphPtr graph = graph_or.value();
  std::fprintf(stderr, "rmat scale=%d: %u vertices, %llu edges\n", scale,
               graph->NumVertices(),
               static_cast<unsigned long long>(graph->NumEdges()));

  flash::RuntimeOptions base;
  base.num_workers = 4;

  struct App {
    const char* name;
    std::function<flash::Metrics(flash::RuntimeOptions, uint64_t*)> run;
  };
  std::vector<App> apps = {
      {"bfs",
       [&](flash::RuntimeOptions options, uint64_t* spans) {
         auto r = flash::algo::RunBfs(graph, 0, options);
         if (options.tracer != nullptr) {
           options.tracer->Fold();
           *spans = options.tracer->spans().size();
         }
         return r.metrics;
       }},
      {"pagerank",
       [&](flash::RuntimeOptions options, uint64_t* spans) {
         auto r = flash::algo::RunPageRank(graph, pr_iters, options);
         if (options.tracer != nullptr) {
           options.tracer->Fold();
           *spans = options.tracer->spans().size();
         }
         return r.metrics;
       }},
  };

  flash::bench::BenchReport report("trace_overhead");
  const std::string graph_name = "rmat-s" + std::to_string(scale);

  bool all_exact = true;
  for (size_t i = 0; i < apps.size(); ++i) {
    const App& app = apps[i];
    ModeResult off = TimeMode(reps, [&](uint64_t* spans) {
      return app.run(base, spans);
    });
    ModeResult on = TimeMode(reps, [&](uint64_t* spans) {
      flash::RuntimeOptions traced = base;
      traced.trace = true;
      traced.tracer = std::make_shared<flash::obs::Tracer>();
      return app.run(traced, spans);
    });
    const bool exact = CountersMatch(off.metrics, on.metrics);
    all_exact = all_exact && exact;
    const double overhead =
        off.best_seconds > 0
            ? (on.best_seconds - off.best_seconds) / off.best_seconds
            : 0;
    std::fprintf(stderr,
                 "%-8s off=%.4fs on=%.4fs overhead=%+.2f%% spans=%llu "
                 "counters=%s\n",
                 app.name, off.best_seconds, on.best_seconds, 100 * overhead,
                 static_cast<unsigned long long>(on.spans),
                 exact ? "exact" : "DRIFT");
    report.Add(graph_name,
               {{"app", app.name}},
               {{"seconds_off", off.best_seconds},
                {"seconds_on", on.best_seconds},
                {"overhead_frac", overhead},
                {"reps", static_cast<double>(reps)},
                {"spans", static_cast<double>(on.spans)},
                {"supersteps", static_cast<double>(on.metrics.supersteps)},
                {"counters_exact", exact ? 1.0 : 0.0}});
  }
  std::fprintf(stderr, "wrote %s\n", report.Write().c_str());
  FLASH_CHECK(all_exact) << "span tracing perturbed exact counters";
  return 0;
}
