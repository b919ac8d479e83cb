// Superstep-scheduler scaling sweep: PageRank and BFS on an RMAT graph over
// num_workers x threads_per_worker, with the host pool at its default size
// (min(num_workers x threads_per_worker, cores) threads) measured against
// host_threads = 1, which runs every (worker, shard) task inline in order,
// at identical configuration. Because every host_threads value produces
// bit-identical frontiers and wire traffic, the ratio isolates pure
// scheduling speedup. The JSON keeps the historical names: `seq_seconds` is
// the host_threads = 1 run.
//
// A traced PageRank at 4 workers x 4 threads then prices the BSP barrier's
// mirror sync: the host-lane `barrier:commit` and `barrier:apply` phase time
// per bus message, at the pool width and at host_threads = 1. When the sweep
// covers 1x1 and 4x4, the PageRank scaling ratios are printed against their
// targets (4x4 at least 2.5x faster than 1x1; 4x4 at host_threads = 1 within
// 1.3x of 1x1). Both are reported, not enforced.
//
// Emits out/BENCH_superstep_scaling.json (out/ is created if needed). Knobs (env):
//   FLASH_BENCH_SCALE     RMAT scale (default 18; a fraction shrinks it)
//   FLASH_BENCH_PR_ITERS  PageRank iterations (default 10)
//   FLASH_BENCH_WORKERS   comma list of worker counts (default "1,4,8")
//   FLASH_BENCH_THREADS   comma list of threads_per_worker (default "1,4")

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algorithms/algorithms.h"
#include "bench/harness/harness.h"
#include "common/logging.h"
#include "graph/generators.h"
#include "obs/tracer.h"

namespace {

int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atoi(value) : fallback;
}

std::vector<int> EnvIntList(const char* name, std::vector<int> fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  std::vector<int> list;
  for (const char* p = value; *p != '\0';) {
    list.push_back(std::atoi(p));
    while (*p != '\0' && *p != ',') ++p;
    if (*p == ',') ++p;
  }
  return list.empty() ? fallback : list;
}

double Now() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

struct RunStats {
  double seconds = 0;
  uint64_t supersteps = 0;
  double StepsPerSec() const {
    return seconds > 0 ? static_cast<double>(supersteps) / seconds : 0;
  }
};

template <typename Fn>
RunStats Measure(Fn&& run) {
  double start = Now();
  flash::Metrics metrics = run();
  RunStats stats;
  stats.seconds = Now() - start;
  stats.supersteps = metrics.supersteps;
  return stats;
}

void EmitStats(flash::bench::BenchReport& report,
               const std::string& graph_name, const char* name, int workers,
               int threads, const RunStats& par, const RunStats& seq) {
  report.Add(graph_name,
             {{"app", name},
              {"workers", std::to_string(workers)},
              {"threads_per_worker", std::to_string(threads)}},
             {{"seconds", par.seconds},
              {"supersteps", static_cast<double>(par.supersteps)},
              {"steps_per_sec", par.StepsPerSec()},
              {"seq_seconds", seq.seconds},
              {"speedup_vs_sequential",
               par.seconds > 0 ? seq.seconds / par.seconds : 0.0}});
}

// Mirror-sync cost of one traced PageRank run: the host-lane time of the
// commit and apply phases in ns per bus message.
struct BarrierCost {
  double commit_ns = 0;
  double apply_ns = 0;
  uint64_t messages = 0;
};

BarrierCost TracedBarrierCost(const flash::GraphPtr& graph, int iters,
                              flash::RuntimeOptions options) {
  auto tracer = std::make_shared<flash::obs::Tracer>();
  options.trace = true;
  options.tracer = tracer;
  const flash::Metrics metrics =
      flash::algo::RunPageRank(graph, iters, options).metrics;
  tracer->Fold();
  double commit_ns = 0;
  double apply_ns = 0;
  for (const flash::obs::Span& span : tracer->spans()) {
    if (span.kind != flash::obs::SpanKind::kPhase ||
        span.worker != flash::obs::kHostLane) {
      continue;
    }
    const double ns = static_cast<double>(span.end_ns - span.begin_ns);
    if (std::strcmp(span.name, "barrier:commit") == 0) commit_ns += ns;
    if (std::strcmp(span.name, "barrier:apply") == 0) apply_ns += ns;
  }
  BarrierCost cost;
  cost.messages = metrics.messages;
  const double msgs =
      static_cast<double>(std::max<uint64_t>(1, metrics.messages));
  cost.commit_ns = commit_ns / msgs;
  cost.apply_ns = apply_ns / msgs;
  return cost;
}

}  // namespace

int main() {
  const int scale = flash::bench::RmatScaleFromEnv(18);
  const int pr_iters = EnvInt("FLASH_BENCH_PR_ITERS", 10);
  const std::vector<int> worker_counts =
      EnvIntList("FLASH_BENCH_WORKERS", {1, 4, 8});
  const std::vector<int> thread_counts =
      EnvIntList("FLASH_BENCH_THREADS", {1, 4});
  const int host_cpus =
      static_cast<int>(std::thread::hardware_concurrency());

  flash::RmatOptions rmat;
  rmat.scale = scale;
  auto graph_or = flash::GenerateRmat(rmat);
  FLASH_CHECK(graph_or.ok()) << graph_or.status().ToString();
  flash::GraphPtr graph = graph_or.value();
  std::fprintf(stderr, "rmat scale=%d: %u vertices, %llu edges, %d cpus\n",
               scale, graph->NumVertices(),
               static_cast<unsigned long long>(graph->NumEdges()), host_cpus);

  flash::bench::BenchReport report("superstep_scaling");
  const std::string graph_name = "rmat-s" + std::to_string(scale);
  // PageRank wall times by (workers, threads): {pool width, host_threads 1}.
  std::map<std::pair<int, int>, std::pair<double, double>> pagerank_s;
  for (int nw : worker_counts) {
    for (int tpw : thread_counts) {
      flash::RuntimeOptions par_opts;
      par_opts.num_workers = nw;
      par_opts.threads_per_worker = tpw;
      par_opts.record_steps = false;
      flash::RuntimeOptions seq_opts = par_opts;
      seq_opts.host_threads = 1;

      RunStats pr_par = Measure([&] {
        return flash::algo::RunPageRank(graph, pr_iters, par_opts).metrics;
      });
      RunStats pr_seq = Measure([&] {
        return flash::algo::RunPageRank(graph, pr_iters, seq_opts).metrics;
      });
      RunStats bfs_par = Measure(
          [&] { return flash::algo::RunBfs(graph, 0, par_opts).metrics; });
      RunStats bfs_seq = Measure(
          [&] { return flash::algo::RunBfs(graph, 0, seq_opts).metrics; });

      std::fprintf(stderr,
                   "workers=%d tpw=%d  pagerank %.3fs (seq %.3fs, x%.2f)  "
                   "bfs %.3fs (seq %.3fs, x%.2f)\n",
                   nw, tpw, pr_par.seconds, pr_seq.seconds,
                   pr_par.seconds > 0 ? pr_seq.seconds / pr_par.seconds : 0.0,
                   bfs_par.seconds, bfs_seq.seconds,
                   bfs_par.seconds > 0 ? bfs_seq.seconds / bfs_par.seconds
                                       : 0.0);

      EmitStats(report, graph_name, "pagerank", nw, tpw, pr_par, pr_seq);
      pagerank_s[{nw, tpw}] = {pr_par.seconds, pr_seq.seconds};
      EmitStats(report, graph_name, "bfs", nw, tpw, bfs_par, bfs_seq);
    }
  }

  flash::RuntimeOptions barrier_opts;
  barrier_opts.num_workers = 4;
  barrier_opts.threads_per_worker = 4;
  barrier_opts.record_steps = false;
  const BarrierCost pool = TracedBarrierCost(graph, pr_iters, barrier_opts);
  barrier_opts.host_threads = 1;
  const BarrierCost serial = TracedBarrierCost(graph, pr_iters, barrier_opts);
  std::fprintf(stderr,
               "barrier 4x4 pagerank (%llu msgs): commit %.2f ns/msg, apply "
               "%.2f ns/msg; host_threads=1: commit %.2f, apply %.2f ns/msg\n",
               static_cast<unsigned long long>(pool.messages), pool.commit_ns,
               pool.apply_ns, serial.commit_ns, serial.apply_ns);
  std::map<std::string, double> barrier = {
      {"messages", static_cast<double>(pool.messages)},
      {"commit_ns_per_msg", pool.commit_ns},
      {"apply_ns_per_msg", pool.apply_ns},
      {"seq_commit_ns_per_msg", serial.commit_ns},
      {"seq_apply_ns_per_msg", serial.apply_ns}};
  const auto one = pagerank_s.find({1, 1});
  const auto four = pagerank_s.find({4, 4});
  if (one != pagerank_s.end() && four != pagerank_s.end() &&
      four->second.first > 0 && one->second.first > 0) {
    const double speedup = one->second.first / four->second.first;
    const double serial_ratio = four->second.second / one->second.first;
    std::fprintf(stderr,
                 "pagerank 4x4 vs 1x1: %.2fx faster (target >= 2.5x); 4x4 at "
                 "host_threads=1 takes %.2fx of 1x1 (target <= 1.3x); "
                 "reported, not enforced\n",
                 speedup, serial_ratio);
    barrier["speedup_4x4_vs_1x1"] = speedup;
    barrier["seq_4x4_over_1x1"] = serial_ratio;
  }
  report.Add(graph_name,
             {{"app", "pagerank-barrier"},
              {"workers", "4"},
              {"threads_per_worker", "4"}},
             barrier);
  std::fprintf(stderr, "wrote %s\n", report.Write().c_str());
  return 0;
}
